//! Fused-vs-unfused equivalence suite.
//!
//! Hot-loop fusion — the tile-at-a-time settle pass, the fused
//! per-leaf control dispatch and the memoized total-power fold — must
//! be pure performance: under fault churn (kill/revive, breaker
//! trip/reset, primary failover, mid-run re-span) and across worker
//! thread counts 1/2/8/64 in both parallel dispatch modes, the run
//! report, the Prometheus exposition and every telemetry trace must be
//! byte-identical with fusion on and off.

use dcsim::SimDuration;
use dynamo::{Datacenter, DatacenterBuilder, ParallelMode, RunReport};
use dynobs::ObsConfig;
use powerinfra::Power;
use workloads::{ServiceKind, TrafficPattern};

/// A 2 SB / 4 RPP / 64-server site squeezed hard enough that leaf
/// capping engages immediately (tight RPP rating) and the SB breakers
/// overload faster than the slow upper tier can protect them (tighter
/// still), so a run exercises caps, trips and blackouts organically.
fn build(fuse: bool, threads: usize, mode: ParallelMode) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(8)
        .rpp_rating(Power::from_kilowatts(3.2))
        .sb_rating(Power::from_kilowatts(4.0))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.5))
        .observability(ObsConfig::on())
        .seed(42)
        .worker_threads(threads)
        .parallel_mode(mode)
        .fuse(fuse)
        .build()
}

/// Deterministic fault-churn script: every mutation site that feeds
/// the fused dispatch's deferred bookkeeping fires at least once.
fn churn(dc: &mut Datacenter) {
    dc.run_for(SimDuration::from_secs(45));

    // Kill/revive: the breaker-blackout hook, driven directly.
    dc.fleet_mut().set_server_alive(3, false);
    dc.fleet_mut().set_server_alive(17, false);
    dc.run_for(SimDuration::from_secs(15));
    dc.fleet_mut().set_server_alive(3, true);
    dc.run_for(SimDuration::from_secs(15));
    dc.fleet_mut().set_server_alive(17, true);

    // Primary failover on the first leaf.
    let victim = dc.system().leaf_devices()[0];
    dc.system_mut().fail_primary(victim);
    dc.run_for(SimDuration::from_secs(30));

    // Breaker reset: revive whatever the tight SB ratings tripped.
    let tripped: Vec<_> = dc
        .telemetry()
        .breaker_trips()
        .iter()
        .map(|e| e.device)
        .collect();
    for d in tripped {
        dc.reset_breaker(d);
    }
    dc.run_for(SimDuration::from_secs(15));

    // Mid-run re-span: re-register the same spans out of band, which
    // restarts every leaf epoch and invalidates the memoized fold's
    // generation watermark.
    let spans: Vec<std::ops::Range<usize>> = dc
        .system()
        .leaf_devices()
        .iter()
        .map(|&d| {
            let ids = dc.topology().servers_under(d);
            let start = *ids.first().unwrap() as usize;
            start..start + ids.len()
        })
        .collect();
    dc.fleet_mut().set_leaf_spans(&spans);
    dc.run_for(SimDuration::from_secs(30));
}

/// Everything a run externalizes: the human-readable report, the full
/// Prometheus exposition, and the raw bits of both fleet-wide traces.
fn fingerprint(dc: &Datacenter) -> (String, String, Vec<u64>, Vec<u64>) {
    (
        RunReport::from_datacenter(dc).to_string(),
        dynobs::render_prometheus(dc.system().observability().registry()),
        bits(dc.telemetry().total_power().values()),
        bits(dc.telemetry().capped_servers().values()),
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fused_matches_unfused_under_fault_churn_across_threads_and_modes() {
    let baseline = {
        let mut dc = build(false, 1, ParallelMode::Pooled);
        churn(&mut dc);
        // The script must exercise real churn or the equality below
        // proves nothing.
        assert!(
            !dc.telemetry().breaker_trips().is_empty(),
            "tight SB rating should have tripped a breaker"
        );
        let report = RunReport::from_datacenter(&dc);
        assert!(report.leaf_cap_events > 0, "tight RPP rating should cap");
        assert!(report.failovers > 0, "injected failover not recorded");
        fingerprint(&dc)
    };
    for &threads in &[1usize, 2, 8, 64] {
        for &mode in &[ParallelMode::Pooled, ParallelMode::PooledAuto] {
            let mut dc = build(true, threads, mode);
            churn(&mut dc);
            let got = fingerprint(&dc);
            assert_eq!(
                got, baseline,
                "fused run diverged at threads={threads} mode={mode:?}"
            );
        }
    }
    // And the unfused parallel paths against the same baseline, so a
    // fusion-conditional bug in the dispatch restructure cannot hide.
    for &threads in &[8usize] {
        for &mode in &[ParallelMode::Pooled, ParallelMode::PooledAuto] {
            let mut dc = build(false, threads, mode);
            churn(&mut dc);
            assert_eq!(
                fingerprint(&dc),
                baseline,
                "unfused parallel run diverged at threads={threads} mode={mode:?}"
            );
        }
    }
}

/// The incremental-telemetry invariant: with fusion on, sampled total
/// power comes from the quiescence-keyed memo (with a periodic forced
/// full refresh); with fusion off, every sample is a full flat fold.
/// Across a capping episode — caps placed, power bent downward, caps
/// released — the merged sample streams must match to the byte.
#[test]
fn incremental_telemetry_stream_matches_full_sampling_across_a_capping_episode() {
    let run = |fuse: bool| {
        let mut dc = build(fuse, 1, ParallelMode::Pooled);
        dc.run_for(SimDuration::from_mins(6));
        let report = RunReport::from_datacenter(&dc);
        assert!(report.leaf_cap_events > 0, "episode never capped");
        let mut traces: Vec<Vec<u64>> = vec![
            bits(dc.telemetry().total_power().values()),
            bits(dc.telemetry().capped_servers().values()),
        ];
        let devices: Vec<_> = dc.topology().iter().map(|d| d.id).collect();
        for d in devices {
            if let Some(t) = dc.telemetry().device_trace(d) {
                traces.push(bits(t.values()));
            }
        }
        traces
    };
    let full = run(false);
    let incremental = run(true);
    assert!(
        full[0].len() >= 100,
        "expected a dense sample stream, got {} samples",
        full[0].len()
    );
    assert_eq!(incremental, full);
}
