//! Steady-state allocation discipline: once warmed up, the leaf
//! control-plane hot loop (fleet physics + leaf pulling cycles in the
//! Hold band) must not touch the heap at all. Controller names are
//! interned, per-cycle readings live in reusable scratch buffers, and
//! traffic multipliers are a fixed array — a regression here shows up
//! as a nonzero count below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{DynamoSystem, Fleet, ObsConfig, SystemConfig, WorkerPool};
use powerinfra::TopologyBuilder;
use serverpower::{ServerConfig, ServerGeneration};
use workloads::ServiceKind;

/// Counts heap operations made by tracked threads while armed;
/// forwards everything to the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count: set on the measuring
    /// thread and, through a setup dispatch, on every lane of the pool
    /// under test. The test harness's own threads never set it, so
    /// their bookkeeping cannot leak into a measurement.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

fn counts() -> bool {
    ARMED.load(Ordering::Relaxed) && TRACKED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counts() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counts() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `ARMED` and `ALLOCS` are process-global, so two tests measuring
/// concurrently would count each other's tracked threads. Every test
/// takes this lock for its whole body; a poisoned lock (an earlier test
/// failed) is fine — the counter state is reset per measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize_test() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tracks the calling thread and every lane of `pool`: one setup job
/// per lane sets the lane's thread-local flag.
fn track_lanes(pool: &WorkerPool) {
    pool.run_on(&mut vec![(); pool.workers()], |_, _| TRACKED.set(true));
    TRACKED.set(true);
}

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// A 64-server, 2-leaf setup with ample power headroom (Hold band),
/// reliable RPC, no crashes: the steady state a healthy datacenter
/// spends almost all of its life in.
fn build_with(obs: ObsConfig) -> (Fleet, DynamoSystem) {
    let topo = TopologyBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .build();
    let n = topo.server_count();
    let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); n];
    let services = vec![ServiceKind::Web; n];
    let fleet = Fleet::new(configs, services, SimRng::seed_from(11).split("fleet"));
    let config = SystemConfig {
        rpc: dynrpc::LinkProfile::reliable(),
        obs,
        ..SystemConfig::default()
    };
    let service_of = |_: u32| dynamo::service_class_of(ServiceKind::Web);
    let system = DynamoSystem::build(
        &topo,
        &service_of,
        config,
        &mut SimRng::seed_from(11).split("sys"),
    );
    (fleet, system)
}

fn build() -> (Fleet, DynamoSystem) {
    build_with(ObsConfig::default())
}

/// Warms up, then counts heap operations across 20 leaf-only ticks,
/// with fleet physics and leaf cycles both dispatched onto one shared
/// pool `width` lanes wide (width 1 runs the same `run_on` path as a
/// single job on this thread).
fn measure_steady_state(mut fleet: Fleet, mut system: DynamoSystem, width: usize) -> u64 {
    let pool = Arc::new(WorkerPool::new(width));
    fleet.attach_pool(Arc::clone(&pool));
    system.attach_pool(Arc::clone(&pool));
    track_lanes(&pool);
    let dt = SimDuration::from_secs(3);
    let step = |fleet: &mut Fleet, now: SimTime| fleet.step(now, dt);

    // Warm up: fill scratch buffers, controller state and event
    // vectors, covering both leaf (3 s) and upper (9 s) cycles.
    let mut now = SimTime::ZERO;
    for _ in 0..12 {
        step(&mut fleet, now);
        let events = system.tick(now, &mut fleet);
        assert!(events.is_empty(), "expected a quiet Hold-band run");
        now += dt;
    }

    // Measure leaf-only ticks (skip the 9 s grid: upper cycles build
    // their directive list on the heap by design).
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        if now.as_secs().is_multiple_of(9) {
            step(&mut fleet, now);
            system.tick(now, &mut fleet);
            now += dt;
            continue;
        }
        total += count_allocs(|| {
            step(&mut fleet, now);
            let events = system.tick(now, &mut fleet);
            assert!(events.is_empty());
        });
        now += dt;
        measured += 1;
    }
    total
}

#[test]
fn steady_state_leaf_ticks_do_not_allocate() {
    let _serial = serialize_test();
    let (fleet, system) = build();
    assert_eq!(
        measure_steady_state(fleet, system, 1),
        0,
        "heap allocations leaked into the steady-state leaf tick path"
    );
}

/// The zero-alloc guarantee must hold with observability recording
/// live: shards, rings and histogram buckets are all preallocated, and
/// span/flight scratch reaches steady capacity during warmup.
#[test]
fn steady_state_leaf_ticks_do_not_allocate_with_observability() {
    let _serial = serialize_test();
    let (fleet, system) = build_with(ObsConfig::on());
    assert_eq!(
        measure_steady_state(fleet, system, 1),
        0,
        "observability recording allocated in the steady-state leaf tick path"
    );
}

/// The zero-alloc guarantee must also hold on the parallel hot path
/// once the pool is warm: waking parked workers, dispatching stack-slot
/// jobs over the precomputed partitions and merging results must never
/// touch the heap — with observability recording live, at 4 threads.
#[test]
fn steady_state_pooled_ticks_do_not_allocate() {
    let _serial = serialize_test();
    let (fleet, system) = build_with(ObsConfig::on());
    assert_eq!(
        measure_steady_state(fleet, system, 4),
        0,
        "pooled dispatch allocated in the steady-state leaf tick path"
    );
}

/// Fleet with the active set engaged: leaf spans mirroring the two RPP
/// leaves of the test topology (sids are assigned in DFS order, so the
/// spans are `[0..32, 32..64]`), plus a demand-hold so leaves actually
/// settle between redraws.
fn build_active(obs: ObsConfig, hold: u32) -> (Fleet, DynamoSystem) {
    let (mut fleet, system) = build_with(obs);
    fleet.set_leaf_spans(&[0..32, 32..64]);
    fleet.set_demand_hold(hold);
    (fleet, system)
}

/// Active-set skipping must not buy its speed with heap traffic: the
/// settled-leaf skip, the demand-hold redraw (including the off-grid
/// OU coefficient recompute when `elapsed > 1`) and the control-flush
/// epoch check are all allocation-free.
#[test]
fn steady_state_active_set_ticks_do_not_allocate() {
    let _serial = serialize_test();
    let (fleet, system) = build_active(ObsConfig::on(), 30);
    assert_eq!(
        measure_steady_state(fleet, system, 1),
        0,
        "active-set physics allocated in the steady-state leaf tick path"
    );
}

/// Same guarantee on the pooled parallel path: the extra per-job
/// settled/last-draw/epoch slices ride in the same stack-slot jobs.
#[test]
fn steady_state_active_set_pooled_ticks_do_not_allocate() {
    let _serial = serialize_test();
    let (fleet, system) = build_active(ObsConfig::on(), 30);
    assert_eq!(
        measure_steady_state(fleet, system, 4),
        0,
        "active-set pooled dispatch allocated in the steady-state leaf tick path"
    );
}

/// The skip must actually engage under measurement conditions, or the
/// two tests above prove nothing: after warmup, a held fleet spends
/// most ticks with every leaf settled.
#[test]
fn active_set_engages_in_steady_state() {
    let _serial = serialize_test();
    let (mut fleet, mut system) = build_active(ObsConfig::default(), 30);
    let dt = SimDuration::from_secs(3);
    let mut now = SimTime::ZERO;
    let mut max_settled = 0;
    for _ in 0..40 {
        fleet.step(now, dt);
        system.tick(now, &mut fleet);
        max_settled = max_settled.max(fleet.settled_leaf_count());
        now += dt;
    }
    assert_eq!(
        max_settled, 2,
        "both leaves should settle between demand redraws"
    );
}

/// The grid-interactive layer rides the same hot loop: with a quiet
/// (nominal) utility signal the per-tick work — signal lookup, episode
/// check, DCUPS availability scan over the reusable scratch buffer,
/// settlement accumulation and gauge updates — must stay off the heap.
/// Econ-cycle ticks (60 s) and upper-cycle ticks (9 s) are skipped for
/// the same reason the leaf-only measurement skips them: those paths
/// build directive lists by design.
#[test]
fn steady_state_grid_ticks_do_not_allocate() {
    let _serial = serialize_test();
    let mut dc = dynamo::DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, workloads::TrafficPattern::flat(1.0))
        .observability(ObsConfig::on())
        .grid_scenario("nominal")
        .seed(11)
        .build();
    // Warm up past several leaf, upper and econ cycles.
    dc.run_for(SimDuration::from_secs(130));
    track_lanes(dc.worker_pool());
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        let t = dc.now().as_secs();
        if t.is_multiple_of(9) || (t + 1).is_multiple_of(60) || t.is_multiple_of(60) {
            dc.step();
            continue;
        }
        total += count_allocs(|| dc.step());
        measured += 1;
    }
    assert_eq!(
        total, 0,
        "grid layer allocated in the steady-state tick path"
    );
}

/// The whole parallel tick at once: pooled 4-thread dispatch (real
/// workers — `Pooled` does not clamp on small hosts), observability
/// recording, the grid layer, the sharded telemetry scratch with its
/// worker-side RPC codec round-trip (warm wire buffers), the parallel
/// breaker precompute (fixed chunk plan, preallocated scratch) and the
/// tick-phase profiler (preallocated histograms, `Instant` laps) must
/// all stay off the heap in the steady state.
#[test]
fn steady_state_parallel_profiled_grid_ticks_do_not_allocate() {
    let _serial = serialize_test();
    let mut dc = dynamo::DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, workloads::TrafficPattern::flat(1.0))
        .observability(ObsConfig::on())
        .grid_scenario("nominal")
        .worker_threads(4)
        .parallel_mode(dynamo::ParallelMode::Pooled)
        .profile_ticks(true)
        .seed(11)
        .build();
    // Warm up past several leaf, upper and econ cycles so every
    // scratch buffer — including the per-worker wire/event buffers and
    // the fold chunk plan — reaches steady capacity.
    dc.run_for(SimDuration::from_secs(130));
    track_lanes(dc.worker_pool());
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        let t = dc.now().as_secs();
        if t.is_multiple_of(9) || (t + 1).is_multiple_of(60) || t.is_multiple_of(60) {
            dc.step();
            continue;
        }
        total += count_allocs(|| dc.step());
        measured += 1;
    }
    assert_eq!(
        total, 0,
        "parallel profiled tick allocated in the steady-state path"
    );
}

/// The Hold-band guarantee must survive an active cap: a capped fleet
/// in steady state (caps placed, nothing to change) is equally hot.
#[test]
fn idle_fleet_step_does_not_allocate() {
    let _serial = serialize_test();
    let (mut fleet, _system) = build();
    TRACKED.set(true);
    let dt = SimDuration::from_secs(3);
    let mut now = SimTime::ZERO;
    for _ in 0..8 {
        fleet.step(now, dt);
        now += dt;
    }
    let mut total = 0u64;
    for _ in 0..20 {
        total += count_allocs(|| fleet.step(now, dt));
        now += dt;
    }
    assert_eq!(total, 0, "fleet physics allocated in steady state");
}
