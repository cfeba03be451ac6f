//! The benchmark's own gates must fire: the twin check on a twin that
//! is not the same simulation, and each workload's guard on a
//! configuration where its regime does not happen.

use dcsim::snap::Snapshot;
use dynamo::{Datacenter, DatacenterState};
use sitebench::run::{run, twins_agree, Outcome, Plan, Target};
use sitebench::scenario::{Demand, Scale, Spec, Workload, STOCK_RATINGS};
use sitebench::stats::Tracer;

fn short_plan(w: Workload) -> Plan {
    Plan {
        checkpoints: 2,
        repeats: 1,
        ..Plan::for_workload(w, 0.0)
    }
}

fn small_run(w: Workload, spec: &Spec, tag: &str) -> Outcome {
    let target = Target {
        spec,
        seed: 5,
        width: 2,
        twin_width: 1,
        traced: false,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag),
    };
    let plan = short_plan(w);
    let (o, _) = run(&target, &plan, &mut Tracer::new(false));
    assert!(o.failures.is_empty(), "{tag}: {:?}", o.failures);
    o
}

fn restored_twin(dc: &mut Datacenter, spec: &Spec) -> Datacenter {
    let bytes = dc.state().to_snap_bytes();
    let mut twin = spec.builder(5, 1, false, false, None).build();
    twin.restore(&DatacenterState::from_snap_bytes(&bytes).unwrap())
        .unwrap();
    twin
}

#[test]
fn twin_check_passes_on_a_true_twin_and_fires_on_a_mismatched_one() {
    let spec = Workload::SiteWorstCase.spec(Scale::Small);
    let mut dc = spec.builder(5, 2, false, false, None).build();
    for _ in 0..40 {
        dc.step();
    }
    let mut tracer = Tracer::new(false);
    let mut twin = restored_twin(&mut dc, &spec);
    let step = |d: &mut Datacenter| d.step();
    twins_agree(&mut dc, &mut twin, 6, step, step, &mut tracer).expect("true twin agrees");

    // Same snapshot, but the twin's traffic differs: configuration the
    // snapshot does not carry, so only stepping can expose it.
    let other = Spec {
        demand: Demand::Flat(1.0),
        ..spec.clone()
    };
    let mut twin = restored_twin(&mut dc, &other);
    let err = twins_agree(&mut dc, &mut twin, 6, step, step, &mut tracer)
        .expect_err("mismatched twin must be caught");
    assert!(err.contains("differ"), "{err}");
}

#[test]
fn every_workload_passes_its_guard_at_small_scale() {
    for w in Workload::ALL {
        let o = small_run(w, &w.spec(Scale::Small), w.name());
        w.guard(&o.observed)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn worst_case_guard_fires_when_demand_fits() {
    let w = Workload::SiteWorstCase;
    let spec = Spec {
        demand: Demand::Flat(0.6),
        ..w.spec(Scale::Small)
    };
    let o = small_run(w, &spec, "worst-fits");
    assert!(w.guard(&o.observed).is_err(), "{:?}", o.observed);
}

#[test]
fn steady_guard_fires_without_hold_or_reliable_links() {
    let w = Workload::SiteSteady;
    let spec = Spec {
        hold: 1,
        reliable_links: false,
        ..w.spec(Scale::Small)
    };
    let o = small_run(w, &spec, "steady-churn");
    assert!(w.guard(&o.observed).is_err(), "{:?}", o.observed);
}

#[test]
fn grid_guard_fires_on_stock_ratings() {
    let w = Workload::GridFaultsSerial;
    let spec = Spec {
        ratings: Some(STOCK_RATINGS),
        ..w.spec(Scale::Small)
    };
    let o = small_run(w, &spec, "grid-stock");
    let err = w.guard(&o.observed).expect_err("stock ratings do not bite");
    let g = o.observed.grid.as_ref().unwrap();
    assert!(
        g.limit_changes == 0 || o.observed.leaf_cap_events == 0,
        "{err}"
    );
    eprintln!("{err}");
}
