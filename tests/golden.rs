//! Golden oracle: FNV-1a-64 digests of everything a run emits — the
//! condensed report, the Prometheus exposition, the incident-dump
//! files and the final snapshot bytes — for four fixed scenarios, at
//! 1, 2 and 8 worker threads.
//!
//! The digests are constants, not a comparison between two code paths
//! run side by side, so a refactor of the tick's dispatch (or anything
//! else) is checked against the bytes the simulator produced before
//! it. To bless an intended output change, replace the constant with
//! the `actual` value the failing assertion prints.

use std::path::{Path, PathBuf};

use dcsim::snap::Snapshot;
use dcsim::SimDuration;
use dynamo_repro::dynamo::{
    Datacenter, DatacenterBuilder, DatacenterState, ObsConfig, RunReport, ServicePlan,
};
use dynamo_repro::powerinfra::Power;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

/// Digests of one finished run, in the order report, Prometheus text,
/// incident dumps, snapshot bytes.
type Digests = [u64; 4];

/// Thread counts every scenario is checked at.
const WIDTHS: [usize; 3] = [1, 2, 8];

const CAPPING_FAILOVER: Digests = [
    0xf14ad8b030116f15,
    0xee645aa169b61230,
    0xfff5057aeb37ff5a,
    0x8b626c7dfdce2a03,
];
const FAULT_CHURN: Digests = [
    0xc99c318efe52a859,
    0x4cf3291345220f52,
    0x2db839975ab124ce,
    0xb7b117889c3dc937,
];
const GRID_CURTAILMENT: Digests = [
    0xf5120dda39e14c7e,
    0x6251c5da78a9a2bb,
    0x978fd9a8d6ef44fa,
    0xb3bc50507ac1cdb0,
];
const CHECKPOINT_RESUME: Digests = [
    0xe129a38ed3e51a22,
    0xe5aaa41bc4c41e9f,
    0x92cfbc5116854e93,
    0xb4223ed5c4450857,
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fresh, empty incident directory private to one run.
fn incident_dir(scenario: &str, threads: usize, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dynamo-golden-{}-{scenario}-{threads}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn observability(dir: &Path) -> ObsConfig {
    ObsConfig {
        incident_dir: Some(dir.to_path_buf()),
        ..ObsConfig::on()
    }
}

/// Digests a finished run, then removes its incident directory. The
/// snapshot is taken last: `state` flushes pending dumps first.
fn digest(dc: &mut Datacenter, dir: &Path) -> Digests {
    let snapshot = dc.state().to_snap_bytes();
    let report = RunReport::from_datacenter(dc).to_string();
    let prometheus = dc.system().observability().prometheus_text();
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.expect("readable dir entry").path()).collect())
        .unwrap_or_default();
    files.sort();
    let mut dumps = Vec::new();
    for f in &files {
        dumps.extend_from_slice(f.file_name().unwrap().to_string_lossy().as_bytes());
        dumps.push(0);
        dumps.extend_from_slice(&std::fs::read(f).expect("readable incident dump"));
    }
    let _ = std::fs::remove_dir_all(dir);
    [
        fnv1a(report.as_bytes()),
        fnv1a(prometheus.as_bytes()),
        fnv1a(&dumps),
        fnv1a(&snapshot),
    ]
}

/// 64 RPP leaves (4 SBs × 16 RPPs, 8 servers each) on ratings tight
/// enough that most leaves cap, with two leaf primaries and one SB
/// primary failed mid-run.
fn capping_failover(threads: usize, seed: u64) -> Digests {
    let dir = incident_dir("capping", threads, seed);
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(4)
        .rpps_per_sb(16)
        .racks_per_rpp(1)
        .servers_per_rack(8)
        .rpp_rating(Power::from_kilowatts(2.1))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.3))
        .observability(observability(&dir))
        .worker_threads(threads)
        .seed(seed)
        .build();
    let leaves = dc.system().leaf_devices().to_vec();
    let sb = dc.system().upper_devices()[0];
    for t in 0..60u64 {
        match t {
            10 => dc.system_mut().fail_primary(leaves[5]),
            20 => {
                dc.system_mut().fail_primary(leaves[40]);
                dc.system_mut().fail_primary(sb);
            }
            _ => {}
        }
        dc.step();
    }
    let report = RunReport::from_datacenter(&dc);
    assert!(
        report.leaf_cap_events > 0,
        "scenario never capped:\n{report}"
    );
    assert_eq!(dc.system().failovers(), 3, "all three injections must land");
    digest(&mut dc, &dir)
}

/// The fault schedule of the contract-churn suite: a monitor-only
/// fleet whose first RPP trips, out-of-band kills and revivals, a
/// breaker reset and a mid-run re-registration of the leaf spans.
fn fault_churn(threads: usize, seed: u64) -> Digests {
    let dir = incident_dir("churn", threads, seed);
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .rpp_rating(Power::from_kilowatts(7.0))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.6))
        .capping_enabled(false)
        .observability(observability(&dir))
        .worker_threads(threads)
        .seed(seed)
        .build();
    let tripped = dc.system().leaf_devices()[0];
    let n = dc.fleet().len();
    let leaves = dc.system().leaf_devices().len();
    let spans: Vec<std::ops::Range<usize>> = (0..leaves)
        .map(|i| i * n / leaves..(i + 1) * n / leaves)
        .collect();
    for t in 0..240u64 {
        match t {
            40 | 80 => {
                for s in 0..6 {
                    dc.fleet_mut().set_server_alive((n - 1 - s) as u32, t == 80);
                }
            }
            120 => dc.reset_breaker(tripped),
            160 => dc.fleet_mut().set_leaf_spans(&spans),
            _ => {}
        }
        dc.step();
    }
    assert!(!dc.telemetry().breaker_trips().is_empty());
    digest(&mut dc, &dir)
}

/// The curtailment-window grid preset on an MSB rated low enough that
/// the 0.80 limit binds: economic cycles, DCUPS discharge, a pushed
/// contract and a leaf failover inside the window.
fn grid_curtailment(threads: usize, seed: u64) -> Digests {
    let dir = incident_dir("grid", threads, seed);
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .rpp_rating(Power::from_kilowatts(18.0))
        .msb_rating(Power::from_kilowatts(36.0))
        .service_plan(ServicePlan::Mix(vec![
            (ServiceKind::Web, 0.5),
            (ServiceKind::Cache, 0.3),
            (ServiceKind::Hadoop, 0.2),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .grid_scenario("curtailment-window")
        .observability(observability(&dir))
        .worker_threads(threads)
        .seed(seed)
        .build();
    for t in 0..600u64 {
        if t == 400 {
            let victim = dc.system().leaf_devices()[2];
            dc.system_mut().fail_primary(victim);
        }
        dc.step();
    }
    assert!(dc.grid().expect("grid configured").curtailment_active());
    digest(&mut dc, &dir)
}

/// Runs 250 s with a failover and crashes, checkpoints through the
/// binary encoding, restores into a separately built twin and replays
/// to 500 s with a second failover. The mid-run snapshot is folded
/// into the final snapshot digest, so both must hold still.
fn checkpoint_resume(threads: usize, seed: u64) -> Digests {
    let dir = incident_dir("resume", threads, seed);
    let build = || {
        DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(16)
            .rpp_rating(Power::from_kilowatts(18.0))
            .service_plan(ServicePlan::Mix(vec![
                (ServiceKind::Web, 0.5),
                (ServiceKind::Cache, 0.3),
                (ServiceKind::Hadoop, 0.2),
            ]))
            .traffic(ServiceKind::Web, TrafficPattern::diurnal())
            .agent_crash_rate(0.5)
            .phase_spread(SimDuration::from_secs(2))
            .observability(observability(&dir))
            .worker_threads(threads)
            .seed(seed)
            .build()
    };
    let run = |dc: &mut Datacenter, from: u64, to: u64| {
        for t in from..to {
            if t == 100 || t == 300 {
                let victim = dc.system().leaf_devices()[(t / 100) as usize];
                dc.system_mut().fail_primary(victim);
            }
            dc.step();
        }
    };
    let mut first = build();
    run(&mut first, 0, 250);
    let checkpoint = first.state().to_snap_bytes();
    drop(first);
    let state = DatacenterState::from_snap_bytes(&checkpoint).expect("snapshot must decode");
    let mut resumed = build();
    resumed.restore(&state).expect("snapshot must restore");
    run(&mut resumed, 250, 500);
    let mut d = digest(&mut resumed, &dir);
    d[3] ^= fnv1a(&checkpoint).rotate_left(1);
    d
}

fn check(name: &str, scenario: fn(usize, u64) -> Digests, seed: u64, golden: Digests) {
    for threads in WIDTHS {
        let actual = scenario(threads, seed);
        assert_eq!(
            actual, golden,
            "{name} at {threads} threads: digests [report, prometheus, incidents, snapshot] \
             moved\n  actual: {actual:#018x?}"
        );
    }
}

#[test]
fn capping_with_failover_matches_golden() {
    check("capping_failover", capping_failover, 17, CAPPING_FAILOVER);
}

#[test]
fn fault_churn_matches_golden() {
    check("fault_churn", fault_churn, 77, FAULT_CHURN);
}

#[test]
fn grid_curtailment_matches_golden() {
    check("grid_curtailment", grid_curtailment, 47, GRID_CURTAILMENT);
}

#[test]
fn checkpoint_resume_replay_matches_golden() {
    check(
        "checkpoint_resume",
        checkpoint_resume,
        41,
        CHECKPOINT_RESUME,
    );
}

/// The gate bites: one perturbed seed moves every digest of a run.
#[test]
fn perturbed_seed_moves_the_digests() {
    let perturbed = capping_failover(1, 18);
    for (k, (&a, &b)) in perturbed.iter().zip(&CAPPING_FAILOVER).enumerate() {
        assert_ne!(a, b, "digest {k} did not move with the seed");
    }
}
