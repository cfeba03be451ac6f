//! One closed-loop run of a workload: set-up, timed ticks, checkpoint
//! round trips with a twin at the other width, and what the guards and
//! metrics need from it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use dcsim::snap::Snapshot;
use dynamo::{Datacenter, DatacenterState, RunReport};
use powerinfra::DeviceLevel;

use crate::host;
use crate::scenario::{inject_faults, Observed, Spec, Workload};
use crate::stats::{Cost, Tracer};

/// How long and where a run measures. Positions are simulated seconds
/// (1 s ticks), so what is checkpointed, compared and measured does not
/// depend on host speed: snapshots grow with simulated time, and the
/// tick figures cover the same simulated seconds in every run of a seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Host seconds of timed ticks to collect at least.
    pub seconds: f64,
    /// Simulated seconds after the warmup that the tick figures cover,
    /// `warmup..horizon()`, less those stepped beside a twin. Ticks
    /// stepped past the horizon to fill `seconds` are timed and checked
    /// but not in the figures.
    pub measured_secs: u64,
    /// Untimed ticks before the window opens.
    pub warmup: u64,
    /// Checkpoints, spread evenly over the first `measured_secs` timed
    /// ticks. Each also times one more set-up build.
    pub checkpoints: usize,
    /// Write/restore repetitions per checkpoint, each into a freshly
    /// built twin.
    pub repeats: usize,
    /// Ticks both the datacenter and its twin run before comparing.
    pub twin_ticks: u64,
}

impl Plan {
    pub fn for_workload(w: Workload, seconds: f64) -> Plan {
        // About 10 s of stepping on a 2-core host, which covers each
        // guard's regime and puts checkpoints past the first seconds.
        let measured_secs = match w {
            Workload::SiteWorstCase => 950,
            Workload::SiteSteady => 4200,
            // Through the whole 300..900 s curtailment and its release.
            Workload::GridFaultsSerial => 1500,
        };
        Plan {
            seconds,
            measured_secs,
            warmup: 30,
            checkpoints: 5,
            repeats: 3,
            twin_ticks: 6,
        }
    }

    /// Simulated second at which the deterministic outcomes are read.
    pub fn horizon(&self) -> u64 {
        self.warmup + self.measured_secs
    }

    /// Simulated second of checkpoint `k`.
    pub fn checkpoint_at(&self, k: usize) -> u64 {
        self.warmup + (k as u64 + 1) * self.measured_secs / (self.checkpoints as u64 + 1)
    }
}

/// How to build the datacenter under test and its twins.
pub struct Target<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub width: usize,
    /// Width of the checkpoint twins: 1 when `width > 1`, else wider.
    pub twin_width: usize,
    /// Observability and the tick-phase profiler on (twins get
    /// observability only, so both sides record the same).
    pub traced: bool,
    /// Directory for incident dumps; twins use subdirectories.
    pub out_dir: PathBuf,
}

impl Target<'_> {
    fn build(&self, width: usize, profile: bool, incidents: &str) -> Datacenter {
        self.spec
            .builder(
                self.seed,
                width,
                self.traced,
                profile,
                Some(self.out_dir.join(incidents)),
            )
            .build()
    }

    fn inject(&self, dc: &mut Datacenter, t: u64) {
        if self.spec.grid_faults {
            inject_faults(dc, self.seed, t);
        }
    }
}

/// The paper's safety and cost outcomes, read at the plan's horizon.
/// Deterministic for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOutcome {
    pub breaker_trips: usize,
    pub grid_violation_s: u64,
    /// Mean fleet performance lost to capping, percent.
    pub perf_loss_pct: f64,
    /// FNV-1a of the run report text.
    pub report_digest: u64,
}

/// Timings of the checkpoint round trips at one or more checkpoints.
#[derive(Debug, Default)]
pub struct Checkpoints {
    /// `state()` plus encode.
    pub write: Vec<Cost>,
    /// Encode alone, seconds.
    pub encode_s: Vec<f64>,
    /// Decode plus `restore` into the twin.
    pub restore: Vec<Cost>,
    /// Decode alone.
    pub decode_s: Vec<f64>,
    pub bytes: Vec<usize>,
}

/// Everything one run produced.
pub struct Outcome {
    /// Each set-up build.
    pub setup: Vec<Cost>,
    /// Each `step` timed in the plan's measured range.
    pub ticks: Vec<Cost>,
    /// CPU seconds the hypervisor stole from the host over the stepping
    /// of `ticks`, summed over CPUs.
    pub stolen_s: f64,
    pub checkpoints: Checkpoints,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub observed: Observed,
    pub sim: SimOutcome,
    /// Ticks stepped with the profiler recording.
    pub profiled_ticks: u64,
    /// Sum of step wall seconds over the profiled ticks.
    pub profiled_step_s: f64,
}

/// Runs `f` in a span, measuring its wall and process CPU time.
fn measure<R>(
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (R, Cost) {
    let cpu = host::cpu_s();
    let (r, wall) = tracer.span(name, f);
    (
        r,
        Cost {
            wall,
            cpu: host::cpu_s() - cpu,
        },
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Encodes `dc`'s state and round-trips it into `twin`: decode, restore,
/// and check that re-encoding the decoded state gives the same bytes.
fn round_trip(
    dc: &mut Datacenter,
    twin: &mut Datacenter,
    cp: &mut Checkpoints,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let ((bytes, encode), write) = measure(tracer, "checkpoint.write", |t| {
        let state = t.span("datacenter.state", |_| dc.state()).0;
        t.span("dcsim.snap_encode", |_| state.to_snap_bytes())
    });
    let (restored, restore) = measure(tracer, "checkpoint.restore", |t| {
        let (decoded, decode) = t.span("dcsim.snap_decode", |_| {
            DatacenterState::from_snap_bytes(&bytes)
        });
        let decoded = decoded.map_err(|e| format!("snapshot decode: {e}"))?;
        t.span("datacenter.restore", |_| twin.restore(&decoded))
            .0
            .map_err(|e| format!("restore: {e}"))?;
        Ok::<_, String>((decoded, decode))
    });
    let (decoded, decode) = restored?;
    cp.write.push(write);
    cp.encode_s.push(encode);
    cp.restore.push(restore);
    cp.decode_s.push(decode);
    cp.bytes.push(bytes.len());
    if decoded.to_snap_bytes() != bytes {
        return Err("encode -> decode -> encode changed the snapshot bytes".into());
    }
    Ok(())
}

/// The bit-identity check: steps `dc` and `twin` (restored from `dc`'s
/// snapshot) `ticks` times each, through `step_dc` and `step_twin`
/// (which inject the same faults), then compares their report text and
/// snapshot bytes.
pub fn twins_agree(
    dc: &mut Datacenter,
    twin: &mut Datacenter,
    ticks: u64,
    mut step_dc: impl FnMut(&mut Datacenter),
    mut step_twin: impl FnMut(&mut Datacenter),
    tracer: &mut Tracer,
) -> Result<(), String> {
    tracer
        .span("twin.compare", |_| {
            for _ in 0..ticks {
                step_dc(dc);
                step_twin(twin);
            }
            let (a, b) = (
                RunReport::from_datacenter(dc).to_string(),
                RunReport::from_datacenter(twin).to_string(),
            );
            if a != b {
                return Err(format!(
                    "twin report differs at t={}s:\n{a}\n--- twin ---\n{b}",
                    dc.now().as_secs()
                ));
            }
            if dc.state().to_snap_bytes() != twin.state().to_snap_bytes() {
                return Err(format!(
                    "twin snapshot bytes differ at t={}s",
                    dc.now().as_secs()
                ));
            }
            Ok(())
        })
        .0
}

/// Samples of fleet performance are taken every this many ticks.
const PERF_EVERY: u64 = 10;

/// Per-tick bookkeeping around every step of the datacenter under test,
/// timed or stepped beside a twin alike, so the fault schedule and the
/// outcomes read at the horizon do not depend on where checkpoints fall.
struct Course<'a> {
    target: &'a Target<'a>,
    horizon: u64,
    perf_loss: (f64, u64),
    sim: Option<SimOutcome>,
}

impl Course<'_> {
    fn before(&mut self, dc: &mut Datacenter) {
        let t = dc.now().as_secs();
        if t < self.horizon && t.is_multiple_of(PERF_EVERY) {
            self.perf_loss.0 += 1.0 - fleet_performance(dc);
            self.perf_loss.1 += 1;
        }
        self.target.inject(dc, t);
    }

    fn after(&mut self, dc: &Datacenter) {
        if dc.now().as_secs() == self.horizon {
            let report = RunReport::from_datacenter(dc);
            self.sim = Some(SimOutcome {
                breaker_trips: report.breaker_trips,
                grid_violation_s: report.grid.as_ref().map_or(0, |g| g.violation_secs),
                perf_loss_pct: 100.0 * self.perf_loss.0 / self.perf_loss.1.max(1) as f64,
                report_digest: fnv1a(report.to_string().as_bytes()),
            });
        }
    }
}

/// One checkpoint: a timed set-up build (dropped), then `repeats` round
/// trips, each into a twin freshly built (untimed) at the other width,
/// then the comparison with the last twin. Each round trip and the
/// comparison is one operation.
fn checkpoint(
    course: &mut Course,
    plan: &Plan,
    dc: &mut Datacenter,
    k: usize,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let target = course.target;
    let at = dc.now().as_secs();
    let build = measure(tracer, "setup.build", |_| {
        drop(target.build(target.width, target.traced, "incidents-setup"))
    })
    .1;
    out.setup.push(build);
    // The profiler's wall-clock histograms are run-specific: pause it
    // so the twin and the original record the same (nothing).
    dc.set_profile_ticks(false);
    let failed_before = out.failures.len();
    let mut twin = None;
    for _ in 0..plan.repeats {
        // Drop the last twin first: only one lives beside `dc`.
        drop(twin.take());
        let mut fresh = tracer
            .span("twin.build", |_| {
                target.build(target.twin_width, false, &format!("incidents-twin{k}"))
            })
            .0;
        out.attempted += 1;
        let cp = &mut out.checkpoints;
        match catch_unwind(AssertUnwindSafe(|| round_trip(dc, &mut fresh, cp, tracer))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.failures.push(format!("checkpoint at t={at}s: {e}")),
            Err(p) => out.failures.push(format!(
                "checkpoint at t={at}s panicked: {}",
                panic_text(&*p)
            )),
        }
        twin = Some(fresh);
    }
    out.attempted += 1;
    if let Some(twin) = twin
        .as_mut()
        .filter(|_| out.failures.len() == failed_before)
    {
        let r = catch_unwind(AssertUnwindSafe(|| {
            twins_agree(
                dc,
                twin,
                plan.twin_ticks,
                |d| {
                    course.before(d);
                    d.step();
                    course.after(d);
                },
                |d| {
                    target.inject(d, d.now().as_secs());
                    d.step();
                },
                tracer,
            )
        }));
        match r {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.failures.push(e),
            Err(p) => out
                .failures
                .push(format!("twin comparison panicked: {}", panic_text(&*p))),
        }
    } else {
        out.failures.push(format!(
            "twin comparison at t={at}s skipped: round trip failed"
        ));
    }
    dc.set_profile_ticks(target.traced);
}

/// Mean performance factor across the MSBs (all the same size).
fn fleet_performance(dc: &Datacenter) -> f64 {
    let msbs = dc.topology().devices_at(DeviceLevel::Msb);
    msbs.iter().map(|&d| dc.performance_under(d)).sum::<f64>() / msbs.len() as f64
}

fn leaf_cycles_run(dc: &Datacenter) -> u64 {
    let sys = dc.system();
    sys.leaf_devices()
        .iter()
        .filter_map(|&d| sys.leaf_for(d))
        .map(|l| l.cycles())
        .sum()
}

/// Runs `target` under `plan`; returns the outcome and the datacenter
/// as the run left it.
pub fn run(target: &Target, plan: &Plan, tracer: &mut Tracer) -> (Outcome, Datacenter) {
    let (mut dc, first) = measure(tracer, "setup.build", |_| {
        target.build(target.width, target.traced, "incidents")
    });
    let leaves = dc.system().leaf_devices().len();
    let mut out = Outcome {
        setup: vec![first],
        ticks: Vec::with_capacity(1 << 15),
        stolen_s: 0.0,
        checkpoints: Checkpoints::default(),
        attempted: 0,
        failures: Vec::new(),
        observed: Observed {
            leaves,
            ..Observed::default()
        },
        sim: SimOutcome::default(),
        profiled_ticks: 0,
        profiled_step_s: 0.0,
    };
    let mut course = Course {
        target,
        horizon: plan.horizon(),
        perf_loss: (0.0, 0),
        sim: None,
    };
    let mut settled_sum = 0.0;
    let mut timed_ticks = 0u64;
    let mut timed_s = 0.0;
    let mut next_cp = 0;
    let mut window_start = None;
    // Host steal counter at the start of the open segment of figure
    // ticks; checkpoints and the horizon close segments.
    let mut segment: Option<f64> = None;
    let close = |segment: &mut Option<f64>, out: &mut Outcome| {
        if let Some(steal) = segment.take() {
            out.stolen_s += host::steal_s() - steal;
        }
    };

    loop {
        let t = dc.now().as_secs();
        let timed = t >= plan.warmup;
        let figure = timed && t < course.horizon;
        if !figure {
            close(&mut segment, &mut out);
        }
        if timed {
            window_start.get_or_insert_with(|| (t, leaf_cycles_run(&dc)));
            if next_cp < plan.checkpoints && t >= plan.checkpoint_at(next_cp) {
                close(&mut segment, &mut out);
                checkpoint(&mut course, plan, &mut dc, next_cp, &mut out, tracer);
                next_cp += 1;
                continue;
            }
        }
        if figure && segment.is_none() {
            segment = Some(host::steal_s());
        }
        course.before(&mut dc);
        let (r, cost) = measure(tracer, "datacenter.step", |_| {
            catch_unwind(AssertUnwindSafe(|| dc.step()))
        });
        if let Err(p) = r {
            out.attempted += 1;
            out.failures
                .push(format!("step at t={t}s panicked: {}", panic_text(&*p)));
            break;
        }
        course.after(&dc);
        if target.traced {
            out.profiled_ticks += 1;
            out.profiled_step_s += cost.wall;
        }
        if figure {
            out.ticks.push(cost);
        }
        if timed {
            out.attempted += 1;
            timed_ticks += 1;
            timed_s += cost.wall;
            let settled = dc.fleet().settled_leaf_count();
            out.observed.max_settled_leaves = out.observed.max_settled_leaves.max(settled);
            settled_sum += settled as f64 / leaves as f64;
        }
        let done = timed_s >= plan.seconds && next_cp == plan.checkpoints && course.sim.is_some();
        if done {
            break;
        }
    }
    close(&mut segment, &mut out);

    let sys = dc.system();
    let (t0, ran0) = window_start.unwrap_or((0, 0));
    let period = sys.config().leaf_interval.as_secs_f64();
    let due = (dc.now().as_secs() - t0) as f64 * leaves as f64 / period;
    let o = &mut out.observed;
    o.elided_cycle_frac = 1.0 - (leaf_cycles_run(&dc) - ran0) as f64 / due.max(1.0);
    o.settled_leaf_frac = settled_sum / timed_ticks.max(1) as f64;
    o.leaves_capping = sys
        .leaf_devices()
        .iter()
        .filter_map(|&d| sys.leaf_for(d))
        .filter(|l| l.active_cap_count() > 0)
        .count();
    let report = RunReport::from_datacenter(&dc);
    o.leaf_cap_events = report.leaf_cap_events;
    o.failovers = report.failovers;
    o.incidents = sys.observability().incidents();
    o.grid = report.grid;
    out.sim = course.sim.unwrap_or_default();
    (out, dc)
}
