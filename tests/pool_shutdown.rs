//! Pool thread lifecycle, by `/proc` thread census: a width-`W`
//! datacenter runs `W − 1` pool workers (the stepping thread is lane
//! 0), width 1 runs none, and dropping the datacenter joins every
//! worker promptly — no leaked or hung threads. This lives in its own
//! test binary (process) so the census cannot race other tests that
//! build pools concurrently; the tests below serialize among
//! themselves for the same reason.

// The `/proc/self/task` census has no Miri equivalent (isolated
// interpreter, no procfs); the dynpool Miri job covers the pool's
// synchronization instead.
#![cfg(not(miri))]

use std::sync::Mutex;
use std::time::Duration;

use dcsim::SimTime;
use dynamo_repro::dynamo::{DatacenterBuilder, ParallelMode};
use dynamo_repro::workloads::ServiceKind;

/// Counts live threads of this process whose name starts with
/// `dynpool-` (worker threads are named at spawn).
fn live_pool_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        // Not on Linux: fall back to "can't count", covered by the
        // timeout check alone.
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("dynpool-"))
        .count()
}

/// Held by every test for its whole body, so one test's workers never
/// show up in another's census.
static CENSUS: Mutex<()> = Mutex::new(());

#[test]
fn dropping_the_datacenter_joins_all_pool_workers() {
    let _census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(16)
            .uniform_service(ServiceKind::Web)
            .worker_threads(4)
            .parallel_mode(ParallelMode::Pooled)
            .seed(7)
            .build();
        dc.run_until(SimTime::from_mins(1));
        let while_alive = live_pool_threads();
        drop(dc);
        tx.send((while_alive, live_pool_threads())).unwrap();
    });
    // A hung worker would leave the drop (which joins) blocked forever;
    // the timeout turns that into a failure instead of a wedged suite.
    let (while_alive, after_drop) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("datacenter drop did not finish: pool worker leaked or hung");
    assert_eq!(
        while_alive, 3,
        "a width-4 pool runs 3 workers plus the stepping thread"
    );
    assert_eq!(after_drop, 0, "pool workers survived the datacenter drop");
}

#[test]
fn pool_width_w_runs_w_minus_one_workers() {
    let _census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    if std::fs::metadata("/proc/self/task").is_err() {
        return; // No procfs: nothing to count.
    }
    for width in [1usize, 2, 5] {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(16)
            .uniform_service(ServiceKind::Web)
            .worker_threads(width)
            .parallel_mode(ParallelMode::Pooled)
            .seed(7)
            .build();
        dc.run_until(SimTime::from_secs(30));
        assert_eq!(dc.effective_worker_threads(), width);
        assert_eq!(
            live_pool_threads(),
            width - 1,
            "width {width} should run {} pool workers",
            width - 1
        );
        drop(dc);
        assert_eq!(live_pool_threads(), 0, "width {width} leaked workers");
    }
}
