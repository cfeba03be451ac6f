//! Standalone calls into each crate's public functions, timed from
//! outside. Inputs come from the seed; each figure is the median over
//! several batches of the per-call (or per-item) time.

use std::hint::black_box;

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_controller::{
    distribute_power_cut_with_stats, ChildReport, LeafConfig, LeafController, ServerHandle,
    ServiceClass, UpperConfig, UpperController,
};
use dyngrid::{EconConfig, EconController, GridScenario};
use dynpool::WorkerPool;
use dynrpc::codec::{
    decode_telemetry_batch_into, encode_telemetry_batch_into, TelemetryEvent, TelemetryEventKind,
};
use dynrpc::{PowerReading, Request, Response};
use powerinfra::{Breaker, Power, TripCurve};
use serverpower::kernel::step_batch;
use workloads::{OuCoeffs, ServiceKind, ServiceWorkload};

use crate::stats::{Summary, Tracer};

/// Batches per figure; the median batch is reported.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of `f`'s wall time divided by `items`.
fn per_item(tracer: &mut Tracer, name: &'static str, items: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let secs: Vec<f64> = (0..BATCHES)
        .map(|_| tracer.span(name, |_| f()).1 / items as f64)
        .collect();
    Summary::of(&secs).p50
}

/// `serverpower::kernel::step_batch` on `n` servers: nanoseconds per
/// server. Demand alternates between two draws so every pass moves.
pub fn step_batch_ns(tracer: &mut Tracer, rng: &mut SimRng, n: usize) -> f64 {
    let demand: [Vec<f64>; 2] =
        std::array::from_fn(|_| (0..n).map(|_| rng.uniform(150.0, 400.0)).collect());
    let limit: Vec<f64> = (0..n)
        .map(|i| if i % 4 == 0 { 250.0 } else { f64::INFINITY })
        .collect();
    let alive = vec![1.0; n];
    let mut not_init = vec![0.0; n];
    let mut out: Vec<f64> = demand[0].clone();
    let alpha = serverpower::kernel::settle_alpha(1.0, 2.0);
    let passes = (2_000_000 / n).max(4);
    let mut k = 0;
    per_item(tracer, "serverpower.step_batch", n * passes, || {
        for _ in 0..passes {
            k ^= 1;
            step_batch(&demand[k], &limit, &alive, &mut not_init, &mut out, alpha);
        }
        black_box(&out);
    }) * 1e9
}

/// `ServiceWorkload::utilization_with` (one demand draw) per server, ns.
pub fn demand_draw_ns(tracer: &mut Tracer, rng: &mut SimRng) -> f64 {
    let kinds = ServiceKind::all();
    let dt = SimDuration::from_secs(1);
    let mut procs: Vec<(ServiceWorkload, OuCoeffs)> = (0..4096)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            (
                ServiceWorkload::new(kind, rng.split(&format!("draw{i}"))),
                OuCoeffs::for_kind(kind, dt),
            )
        })
        .collect();
    let ticks = 50;
    let mut now = SimTime::ZERO;
    per_item(tracer, "workloads.demand_draw", procs.len() * ticks, || {
        let mut acc = 0.0;
        for _ in 0..ticks {
            now += dt;
            for (p, ou) in procs.iter_mut() {
                acc += p.utilization_with(now, 1.1, dt, *ou);
            }
        }
        black_box(acc);
    }) * 1e9
}

fn leaf_servers(n: usize) -> Vec<ServerHandle> {
    let classes = [
        ServiceClass::new("web", 1, Power::from_watts(170.0)),
        ServiceClass::new("cache", 3, Power::from_watts(260.0)),
        ServiceClass::new("feed", 2, Power::from_watts(200.0)),
    ];
    (0..n)
        .map(|i| ServerHandle {
            server_id: i as u32,
            service: classes[i % 3].clone(),
        })
        .collect()
}

/// The `dynamo-controller` figures, in microseconds: a
/// `LeafController::cycle` over 160 agents reading above the capping
/// threshold, the cut distribution alone, and an `UpperController`
/// cycle over 16 children with two over quota.
pub fn controller_us(tracer: &mut Tracer, rng: &mut SimRng) -> (f64, f64, f64) {
    let n = 160;
    let servers = leaf_servers(n);
    let powers: Vec<Power> = (0..n)
        .map(|_| Power::from_watts(rng.uniform(250.0, 350.0)))
        .collect();
    let total: f64 = powers.iter().map(|p| p.as_watts()).sum();
    let limit = Power::from_watts(total / 1.05);
    let mut leaf = LeafController::new("bench-leaf", LeafConfig::new(limit), servers.clone());
    let cycles = 200;
    let mut now = SimTime::ZERO;
    let leaf_cycle = per_item(tracer, "dynamo_controller.leaf_cycle", cycles, || {
        for _ in 0..cycles {
            now += SimDuration::from_secs(3);
            let out = leaf.cycle(now, |sid, req| match req {
                Request::ReadPower => Ok(Response::Power(PowerReading::total_only(
                    powers[sid as usize],
                ))),
                _ => Ok(Response::CapAck { ok: true }),
            });
            black_box(out);
        }
    });
    assert!(leaf.active_cap_count() > 0, "leaf benchmark must cap");

    let cut = Power::from_watts(total - limit.as_watts() * 0.95);
    let reps = 500;
    let distribute = per_item(tracer, "dynamo_controller.distribute_cut", reps, || {
        for _ in 0..reps {
            black_box(distribute_power_cut_with_stats(
                &servers,
                &powers,
                cut,
                Power::from_watts(20.0),
            ));
        }
    });

    let children = 16;
    let child_limit = Power::from_kilowatts(60.0);
    let reports: Vec<ChildReport> = (0..children)
        .map(|i| ChildReport {
            power: Power::from_kilowatts(if i < 2 { 58.0 } else { 47.0 }),
            quota: Power::from_kilowatts(50.0),
            physical_limit: child_limit,
        })
        .collect();
    let mut upper = UpperController::new(
        "bench-upper",
        UpperConfig::new(Power::from_kilowatts(760.0)),
        children,
    );
    let upper_cycle = per_item(tracer, "dynamo_controller.upper_cycle", reps, || {
        for _ in 0..reps {
            now += SimDuration::from_secs(9);
            black_box(upper.cycle(now, &reports));
        }
    });
    (leaf_cycle * 1e6, distribute * 1e6, upper_cycle * 1e6)
}

/// `dynrpc` telemetry-batch codec: (encode, decode) ns per event over a
/// 768-event batch (one event per leaf of the full site).
pub fn telemetry_codec_ns(tracer: &mut Tracer, rng: &mut SimRng) -> (f64, f64) {
    let events: Vec<TelemetryEvent> = (0..768u32)
        .map(|device| TelemetryEvent {
            at_ms: 3000,
            device,
            kind: if device % 3 == 0 {
                TelemetryEventKind::Uncapped
            } else {
                TelemetryEventKind::Capped {
                    cut_watts: rng.uniform(100.0, 4000.0),
                    servers: 1 + device % 160,
                }
            },
        })
        .collect();
    let reps = 200;
    let mut buf = Vec::with_capacity(64 << 10);
    let encode = per_item(
        tracer,
        "dynrpc.telemetry_encode",
        reps * events.len(),
        || {
            for _ in 0..reps {
                buf.clear();
                encode_telemetry_batch_into(&mut buf, &events);
            }
            black_box(&buf);
        },
    );
    let mut out = Vec::with_capacity(events.len());
    let decode = per_item(
        tracer,
        "dynrpc.telemetry_decode",
        reps * events.len(),
        || {
            for _ in 0..reps {
                out.clear();
                decode_telemetry_batch_into(&buf, &mut out).expect("batch decodes");
            }
            black_box(&out);
        },
    );
    assert_eq!(out, events, "telemetry batch round trip");
    (encode * 1e9, decode * 1e9)
}

/// `Breaker::step` ns per call, on RPP breakers loaded 60-98% of rating.
pub fn breaker_step_ns(tracer: &mut Tracer, rng: &mut SimRng) -> f64 {
    let rating = Power::from_kilowatts(190.0);
    let mut breakers: Vec<(Breaker, Power)> = (0..1024)
        .map(|_| {
            (
                Breaker::new(rating, TripCurve::rpp()),
                rating * rng.uniform(0.6, 0.98),
            )
        })
        .collect();
    let steps = 100;
    let dt = SimDuration::from_secs(1);
    per_item(
        tracer,
        "powerinfra.breaker_step",
        breakers.len() * steps,
        || {
            for _ in 0..steps {
                for (b, draw) in breakers.iter_mut() {
                    black_box(b.step(*draw, dt));
                }
            }
        },
    ) * 1e9
}

/// `WorkerPool::run_on` round trip with trivial jobs at `width`, µs.
pub fn pool_dispatch_us(tracer: &mut Tracer, width: usize) -> f64 {
    let pool = WorkerPool::new(width);
    let mut items = vec![0u64; width];
    let reps = 2000;
    let us = per_item(tracer, "dynpool.dispatch", reps, || {
        for _ in 0..reps {
            pool.run_on(&mut items, |_, x| *x += 1);
        }
    }) * 1e6;
    black_box(&items);
    us
}

/// `EconController::cycle` through a curtailment, µs per cycle.
pub fn econ_cycle_us(tracer: &mut Tracer) -> f64 {
    let scenario = GridScenario::preset("curtailment-window").expect("preset exists");
    let config = EconConfig::default();
    let period = config.period;
    let mut econ = EconController::new(config, Power::from_megawatts(10.0));
    let headroom = Power::from_kilowatts(300.0);
    let cycles = 1000;
    let mut now = SimTime::ZERO;
    let us = per_item(tracer, "dyngrid.econ_cycle", cycles, || {
        for _ in 0..cycles {
            // Sweep the 0..1200 s scenario so cycles see the window.
            let at = SimTime::from_millis(now.as_millis() % 1_200_000);
            black_box(econ.cycle(now, scenario.signal_at(at), headroom));
            now += period;
        }
    }) * 1e6;
    assert!(
        econ.limit_changes() > 0,
        "econ benchmark must move the contract"
    );
    us
}
