//! The three benchmark workloads: what each builds, which faults it
//! injects, and the guard that proves its regime actually happened.

use std::path::PathBuf;

use dcsim::SimDuration;
use dynamo::{Datacenter, DatacenterBuilder, GridSummary, ObsConfig, ParallelMode, ServicePlan};
use dynrpc::LinkProfile;
use powerinfra::Power;
use workloads::{ServiceKind, TrafficPattern};

/// A benchmark workload. Each is a closed loop: the next `step` starts
/// when the previous one returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SiteWorstCase,
    SiteSteady,
    GridFaultsSerial,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SiteWorstCase,
        Workload::SiteSteady,
        Workload::GridFaultsSerial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiteWorstCase => "site_worst_case",
            Workload::SiteSteady => "site_steady",
            Workload::GridFaultsSerial => "grid_faults_serial",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SiteWorstCase => {
                "full 30 MW site where nothing settles and every leaf caps: settle kernel and \
                 leaf dispatch each carry about half the tick"
            }
            Workload::SiteSteady => {
                "full site under budget: active-set skip and cycle elision bypass the settle \
                 kernel, so fixed per-tick costs dominate"
            }
            Workload::GridFaultsSerial => {
                "width-1 run through a binding curtailment with failovers, kills and incident \
                 dumps: the only workload exercising dyngrid, failover and dynobs recording"
            }
        }
    }

    /// The workload's configuration at `scale`.
    pub fn spec(self, scale: Scale) -> Spec {
        let shape = match (self, scale) {
            (Workload::GridFaultsSerial, Scale::Full) => [4, 4, 16, 4, 40],
            (_, Scale::Full) => [12, 4, 16, 4, 40],
            (_, Scale::Small) => [1, 1, 2, 4, 40],
        };
        let base = Spec {
            shape,
            demand: Demand::Flat(1.2),
            hold: 1,
            reliable_links: false,
            // The full site runs on stock ratings; the small shape
            // keeps each server's share of them.
            ratings: (scale == Scale::Small).then_some(STOCK_RATINGS),
            grid_faults: false,
        };
        match self {
            Workload::SiteWorstCase => base,
            Workload::SiteSteady => Spec {
                demand: Demand::Flat(0.7),
                hold: 30,
                reliable_links: true,
                ..base
            },
            Workload::GridFaultsSerial => Spec {
                demand: Demand::Diurnal,
                ratings: Some(GRID_RATINGS),
                grid_faults: true,
                ..base
            },
        }
    }

    /// Checks that the run exercised the regime the workload exists
    /// for; a run that does not is refused rather than measured.
    pub fn guard(self, o: &Observed) -> Result<(), String> {
        match self {
            Workload::SiteWorstCase => {
                if o.max_settled_leaves > 0 {
                    return Err(format!(
                        "{} of {} leaves settled during the timed window",
                        o.max_settled_leaves, o.leaves
                    ));
                }
                if o.leaves_capping < o.leaves {
                    return Err(format!(
                        "only {} of {} leaves hold caps",
                        o.leaves_capping, o.leaves
                    ));
                }
                Ok(())
            }
            Workload::SiteSteady => {
                if o.settled_leaf_frac < STEADY_FLOOR || o.elided_cycle_frac < STEADY_FLOOR {
                    return Err(format!(
                        "settled-leaf fraction {:.3} / elided-cycle fraction {:.3} below the {STEADY_FLOOR} floor",
                        o.settled_leaf_frac, o.elided_cycle_frac
                    ));
                }
                Ok(())
            }
            Workload::GridFaultsSerial => {
                let g = o.grid.as_ref().ok_or("no grid layer")?;
                let contained =
                    g.curtailments >= 1 && g.contained == g.curtailments && g.violation_secs == 0;
                if !contained
                    || g.limit_changes < 1
                    || o.leaf_cap_events < 1
                    || o.failovers < 1
                    || o.incidents < 1
                {
                    return Err(format!(
                        "curtailment not both binding and contained: {}/{} contained, {} s \
                         violation, {} limit changes, {} leaf caps, {} failovers, {} incidents",
                        g.contained,
                        g.curtailments,
                        g.violation_secs,
                        g.limit_changes,
                        o.leaf_cap_events,
                        o.failovers,
                        o.incidents
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Minimum settled-leaf and elided-cycle fractions for `site_steady`.
/// Measured values are ~0.83 and ~0.77; below half, the active set has
/// stopped carrying the load and the workload no longer bypasses the
/// settle kernel.
pub const STEADY_FLOOR: f64 = 0.5;

/// Full size for measurement; small for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// Cluster traffic shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Demand {
    Flat(f64),
    Diurnal,
}

/// Everything that defines a workload's datacenter apart from the seed
/// and the worker width.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// MSBs, SBs per MSB, RPPs per SB, racks per RPP, servers per rack.
    pub shape: [usize; 5],
    pub demand: Demand,
    /// Ticks each demand draw is held.
    pub hold: u32,
    pub reliable_links: bool,
    /// Device ratings per downstream server; `None` keeps the stock
    /// ratings whatever the shape.
    pub ratings: Option<Ratings>,
    /// The `grid_faults_serial` regime instead of an all-web site: the
    /// Fig. 15-style web/cache/feed row with turbo feed servers, the
    /// `curtailment-window` grid scenario, injected leaf failovers and
    /// server kill/revive (see [`inject_faults`]), observability with
    /// incident dumps in the untraced run too, and width 1.
    pub grid_faults: bool,
}

/// RPP and MSB ratings, in watts per server below the device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratings {
    pub rpp: f64,
    pub msb: f64,
}

/// The stock 190 kW RPP and 2.5 MW MSB, per server of the full site's
/// 160-server RPPs and 10,240-server MSBs.
pub const STOCK_RATINGS: Ratings = Ratings {
    rpp: 190e3 / 160.0,
    msb: 2.5e6 / 10240.0,
};

/// Ratings that make the curtailment bind: the RPP at ~1.2x the
/// measured mean draw, so each leaf's DCUPS bank (sized from the
/// rating) cannot ride out the window alone, and the MSB at ~1.15x, so
/// the 80% allowance sits below the unconstrained draw. With the stock
/// ratings the banks absorb the whole window: no contract push, no cap.
pub const GRID_RATINGS: Ratings = Ratings {
    rpp: 262.5,
    msb: 250.0,
};

impl Spec {
    pub fn servers(&self) -> usize {
        self.shape.iter().product()
    }

    /// The width the workload runs at on this host.
    pub fn width(&self, nproc: usize) -> usize {
        if self.grid_faults {
            1
        } else {
            nproc
        }
    }

    /// The builder for this workload. `observe` turns observability
    /// on (it is always on for workloads that record incidents, whose
    /// dumps go to `incident_dir`); `profile` adds the tick-phase
    /// profiler, which records nothing without observability.
    pub fn builder(
        &self,
        seed: u64,
        width: usize,
        observe: bool,
        profile: bool,
        incident_dir: Option<PathBuf>,
    ) -> DatacenterBuilder {
        let [msbs, sbs, rpps, racks, servers] = self.shape;
        let mut b = DatacenterBuilder::new()
            .msbs_per_suite(msbs)
            .sbs_per_msb(sbs)
            .rpps_per_sb(rpps)
            .racks_per_rpp(racks)
            .servers_per_rack(servers)
            .seed(seed)
            .worker_threads(width)
            .parallel_mode(ParallelMode::Pooled)
            .phase_spread(SimDuration::from_secs(2))
            .demand_hold(self.hold);
        let pattern = match self.demand {
            Demand::Flat(level) => TrafficPattern::flat(level),
            Demand::Diurnal => TrafficPattern::diurnal(),
        };
        b = if self.grid_faults {
            b.service_plan(ServicePlan::RowComposition(vec![
                (ServiceKind::Web, 72),
                (ServiceKind::Cache, 56),
                (ServiceKind::NewsFeed, 32),
            ]))
            .traffic(ServiceKind::Web, pattern.clone())
            .traffic(ServiceKind::NewsFeed, pattern)
            .turbo(ServiceKind::NewsFeed)
        } else {
            b.uniform_service(ServiceKind::Web)
                .traffic(ServiceKind::Web, pattern)
        };
        if self.reliable_links {
            b = b.rpc_profile(LinkProfile::reliable());
        }
        if let Some(r) = self.ratings {
            let per_rpp = (racks * servers) as f64;
            let per_msb = (sbs * rpps) as f64 * per_rpp;
            b = b
                .rpp_rating(Power::from_watts(per_rpp * r.rpp))
                .msb_rating(Power::from_watts(per_msb * r.msb));
        }
        if self.grid_faults {
            b = b.grid_scenario("curtailment-window");
        }
        if self.grid_faults || observe || profile {
            b = b.observability(ObsConfig {
                incident_dir: incident_dir.filter(|_| self.grid_faults),
                ..ObsConfig::on()
            });
        }
        b.profile_ticks(profile)
    }
}

/// What a run observed that the guards judge.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub leaves: usize,
    /// Most leaves settled after any timed tick.
    pub max_settled_leaves: usize,
    /// Mean settled share of leaves over the timed ticks.
    pub settled_leaf_frac: f64,
    /// Share of the leaf cycles due in the timed window that were
    /// elided rather than run.
    pub elided_cycle_frac: f64,
    /// Leaves holding at least one cap at the end of the window.
    pub leaves_capping: usize,
    pub leaf_cap_events: usize,
    pub failovers: u64,
    pub incidents: u64,
    pub grid: Option<GridSummary>,
}

/// Seconds of simulated time between injected failovers.
const FAILOVER_EVERY: u64 = 150;
/// Seconds of simulated time between server kills, and how long a
/// killed server stays down.
const KILL_EVERY: u64 = 200;
const KILL_FOR: u64 = 90;
const KILLS: u64 = 8;

/// SplitMix64: the benchmark's own deterministic choice of fault
/// victims from the seed, so the library sees only calls.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Injects the fault schedule due before the tick at simulated second
/// `t`: a primary leaf-controller failure every [`FAILOVER_EVERY`] s,
/// and every [`KILL_EVERY`] s a batch of servers killed, to be revived
/// [`KILL_FOR`] s later. Victims depend only on `(seed, t)`, so a twin
/// replaying the same seconds receives the same faults.
pub fn inject_faults(dc: &mut Datacenter, seed: u64, t: u64) {
    if t > 0 && t.is_multiple_of(FAILOVER_EVERY) {
        let leaves = dc.system().leaf_devices();
        let victim = leaves[(mix(seed ^ t) % leaves.len() as u64) as usize];
        dc.system_mut().fail_primary(victim);
    }
    let n = dc.fleet().len() as u64;
    let kill = |round: u64| -> Vec<u32> {
        (0..KILLS)
            .map(|k| (mix(seed ^ (round << 8) ^ k) % n) as u32)
            .collect()
    };
    if t > 0 && t.is_multiple_of(KILL_EVERY) {
        for sid in kill(t / KILL_EVERY) {
            dc.fleet_mut().set_server_alive(sid, false);
        }
    }
    if t >= KILL_EVERY + KILL_FOR && (t - KILL_FOR).is_multiple_of(KILL_EVERY) {
        for sid in kill((t - KILL_FOR) / KILL_EVERY) {
            dc.fleet_mut().set_server_alive(sid, true);
        }
    }
}
