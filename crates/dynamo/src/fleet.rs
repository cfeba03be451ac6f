//! The simulated server fleet: agents, workloads, failures.
//!
//! # Hot-path layout (struct of arrays)
//!
//! The per-tick physics step runs entirely over flat parallel arrays —
//! no `Agent` → [`Server`] → actuator pointer chasing. The mutable
//! physics of every server (demanded watts, RAPL limit, settled output,
//! first-step flag, liveness) lives in `f64` arrays owned by the fleet,
//! and one branchless pass of [`serverpower::kernel::step_batch`]
//! advances all of them per tick. Power-curve evaluation goes through
//! the per-generation [`PowerLut`] uniform-grid tables, and the per-tick
//! Ornstein-Uhlenbeck `exp`/`sqrt` coefficients are hoisted per service
//! ([`OuCoeffs`]) instead of recomputed per server.
//!
//! ## Batched run order (stable permutation)
//!
//! At build time servers are grouped into *runs* of equal
//! `(generation, service, turbo)` so the demand loop has no per-element
//! branching on multiplier index, static cap, or turbo factor. The
//! grouping is a *leaf-local stable permutation*: server ids, leaf span
//! membership, per-server RNG streams, and every externally visible
//! array stay in server-id order, so results are bit-identical to the
//! unpermuted layout (each workload process owns a private RNG stream,
//! making evaluation order unobservable). Positions (`perm`/`inv`) are
//! only an internal storage order.
//!
//! The id-ordered views ([`Fleet::power_of`], [`Fleet::power_sum`],
//! per-leaf partials) are scattered back from the batch arrays each
//! step with the same ascending-index `f64` folds as before, so all
//! aggregates remain bit-identical at any worker count.
//!
//! ## State ownership
//!
//! While the cache is clean, the arrays are authoritative for demand,
//! output, init flag, and liveness; the scalar [`Server`] models hold
//! stale copies. Before agent RPC cycles run (which read true power
//! through the server model), [`Fleet::sync_servers_for_control`]
//! flushes the due leaves' state back into the servers, and
//! [`Fleet::absorb_caps`] pulls freshly programmed RAPL limits back
//! into the `limit_w` array afterwards. Out-of-band mutation through
//! [`Fleet::agent_mut`] flushes *all* servers first and marks the cache
//! dirty: queries fall back to live per-agent reads until the next step
//! resynchronizes the arrays from the servers. The breaker blackout
//! path uses [`Fleet::set_server_alive`], which keeps the cache exact
//! instead.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dcsim::snap::{
    get_bool_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice, put_u64_slice,
    SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_agent::Agent;
use dynpool::{WorkerPool, MAX_WORKERS};
use powerinfra::Power;
use serverpower::{kernel, PowerLut, Server, ServerConfig};
use workloads::{OuCoeffs, ServiceKind, ServiceWorkload, TrafficPattern};

/// Aggregate fleet statistics at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Servers currently under a RAPL cap.
    pub capped_servers: usize,
    /// Servers whose agent process is down.
    pub agents_down: usize,
    /// Total true power of all servers.
    pub total_power: Power,
}

/// Analytical main-memory roofline of one worst-case tick: the bytes
/// the hot loop must move through DRAM when every leaf redraws, every
/// controller cycles, and the tick samples telemetry, assuming the
/// caches hold nothing across passes (every fleet-wide pass re-streams
/// its arrays) but everything within one `FUSE_TILE` (a tile touched
/// by consecutive fused stages stays resident).
///
/// Computed from the live allocation sizes, not constants, so a layout
/// regression — an array added to the settle stride, a mask unpacked
/// back to `f64` — moves the number even before it shows up in wall
/// time. `crates/bench` records both flavours in
/// `BENCH_controlplane.json` and gates the fused roofline against a
/// baked baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickTraffic {
    /// Bytes per worst-case tick with fusion on: one streaming pass
    /// over the hot set — settle, absorb, telemetry partial and
    /// per-leaf partial all ride the tile while it is resident — plus
    /// the memoized total-power fold (O(leaves), counted exactly).
    pub fused: u64,
    /// Bytes per worst-case tick with fusion off: the same hot set
    /// re-streamed by each phase-at-a-time pass — settle, control
    /// sync, absorb, and the flat telemetry fold.
    pub unfused: u64,
}

/// Precomputed per-lane partitions for [`Fleet::step`], cached so the
/// hot path never recomputes chunk boundaries.
///
/// When the control plane's leaf spans are known, partitions are
/// leaf-aligned and built by the same chunking rule the leaf dispatch
/// uses (`div_ceil` over whole leaves), so a server's worker assignment
/// is identical across fleet stepping and leaf control cycles. Leaf
/// alignment also guarantees each worker's id range equals its position
/// range (the batch permutation is leaf-local), which is what lets a
/// worker scatter drawn power into its own disjoint id-order slice.
#[derive(Debug, Default)]
struct Partition {
    /// Pool width this partition was computed for.
    threads: usize,
    /// Per-lane agent index ranges (ascending, tiling `0..n`).
    agents: Vec<Range<usize>>,
    /// Per-lane leaf index ranges (empty ranges when the fleet has no
    /// leaf spans).
    leaves: Vec<Range<usize>>,
}

/// One maximal contiguous position range of servers sharing a
/// generation, service, and turbo setting. All batch-loop constants of
/// the demand computation are hoisted here once at build time.
struct Run {
    /// Position range (`perm` order) this run covers.
    range: Range<usize>,
    /// The generation's shared power LUT.
    lut: Arc<PowerLut>,
    /// Idle watts of the generation (LUT node 0).
    idle_w: f64,
    /// Turbo power factor; meaningful only when `turbo` is true.
    turbo_pf: f64,
    /// Turbo performance factor (1.0 when turbo is off).
    turbo_perf: f64,
    /// Whether turbo is enabled for this run. A per-run branch, hoisted
    /// out of the element loop: routing non-turbo servers through the
    /// turbo expression with factor 1.0 would not be a float identity.
    turbo: bool,
    /// [`ServiceKind::index`] — the traffic-multiplier / static-cap /
    /// OU-coefficient index for the whole run.
    svc: u8,
}

/// Every server in the datacenter: its [`Agent`] (which owns the
/// [`Server`] model), its service assignment, its utilization process,
/// and fleet-level failure injection.
pub struct Fleet {
    agents: Vec<Agent>,
    services: Vec<ServiceKind>,
    /// Per-server workload processes, in *position* order (see `perm`).
    generators: Vec<ServiceWorkload>,
    /// Per-service traffic patterns; services without an entry see
    /// constant nominal traffic.
    traffic: HashMap<ServiceKind, TrafficPattern>,
    /// Optional static utilization clamp per service, indexed by
    /// [`ServiceKind::index`] (the pre-Dynamo baseline for the search
    /// cluster in §IV-D: "all servers ... were required to limit their
    /// clock frequency").
    static_util_caps: [Option<f64>; ServiceKind::COUNT],
    /// Probability per server-hour of an agent crash.
    crash_rate_per_hour: f64,
    /// Watchdog restart delay.
    watchdog_delay: SimDuration,
    /// Crashed agents pending restart: (server, restart time).
    pending_restarts: Vec<(u32, SimTime)>,
    rng: SimRng,
    /// Position → server id. Identity without leaf spans; with spans, a
    /// leaf-local stable sort by `(generation, service, turbo)`.
    perm: Vec<u32>,
    /// Server id → position (inverse of `perm`).
    inv: Vec<u32>,
    /// Maximal equal-key position ranges with hoisted loop constants.
    runs: Vec<Run>,
    /// Batch state, position order: demanded watts (incl. turbo premium).
    demand_w: Vec<f64>,
    /// Batch state, position order: RAPL limit in watts
    /// (`f64::INFINITY` when uncapped, making `min` branchless).
    limit_w: Vec<f64>,
    /// Batch state, position order: settled RAPL output watts.
    out_w: Vec<f64>,
    /// Bit-packed first-step mask, one bit per server (bit set = not
    /// yet live-stepped, forcing the exact first-step snap). Packed in
    /// per-leaf regions (see [`Fleet::mask_base`]) so leaf-aligned
    /// worker partitions own disjoint words. The hot/cold split: what
    /// used to be two `f64` arrays in the settle stride is now a
    /// quarter byte per server.
    not_init_bits: Vec<u64>,
    /// Bit-packed liveness mask, one bit per server (bit set = alive),
    /// same region layout as [`Fleet::not_init_bits`].
    alive_bits: Vec<u64>,
    /// Mask region directory: entry `l` is `(first word, first
    /// position)` of leaf `l`'s mask words (one region covering
    /// everything when spans are unknown), with a final sentinel of
    /// `(total words, server count)`. Every region starts on a fresh
    /// word, so a lane owning whole leaves owns whole words — the
    /// splitting invariant the packed masks rest on.
    mask_base: Vec<(usize, usize)>,
    /// Post-clamp demand utilization at the last step, position order.
    util: Vec<f64>,
    /// Uniform RAPL time constant of the fleet's servers.
    tau_secs: f64,
    /// SoA hot path: true power draw (watts) of each server after its
    /// last physics step, in server-id order (`out_w * alive`, scattered
    /// through `perm`).
    power_w: Vec<f64>,
    /// Set by [`Fleet::agent_mut`]: an embedder may have changed server
    /// power outside the step path, so cached sums cannot be trusted
    /// until the next step rewrites them. Queries fall back to live
    /// per-agent reads while set; the servers were flushed to be fresh
    /// at the moment the flag was raised.
    power_dirty: bool,
    /// The control plane's per-leaf server spans (ascending, tiling
    /// `0..n`), when known. Empty otherwise.
    leaf_spans: Vec<Range<usize>>,
    /// Monotone count of [`Fleet::set_leaf_spans`] registrations.
    /// Re-registering spans resets every per-leaf epoch to zero, so any
    /// consumer keying cached aggregates on those epochs must also
    /// compare this generation — a restarted epoch can coincidentally
    /// reach a pre-re-span watermark.
    span_generation: u64,
    /// Per-leaf power partial sums (watts), rebuilt by every step as
    /// the ascending flat fold over the leaf's span.
    leaf_power_w: Vec<f64>,
    /// Cached per-worker partition for the last-used thread count.
    partition: Partition,
    /// Worker pool the step dispatches onto, shared with the leaf
    /// control plane. Width 1 (no threads) until one is attached.
    pool: Arc<WorkerPool>,
    /// Physics ticks completed so far; drives the leaf-phased demand
    /// redraw schedule. Incremented exactly once per step.
    tick_index: u64,
    /// Demand redraw period in ticks. `1` (the default) redraws every
    /// workload every tick — bit-identical to the always-redraw model.
    /// Larger values hold each leaf's demand between leaf-phased
    /// redraws, which is what lets a fully settled leaf skip physics.
    /// Only effective once leaf spans are registered.
    demand_hold: u32,
    /// Per-leaf active-set flags, bit-packed (bit `l % 64` of word
    /// `l / 64`): set iff the leaf's last physics pass was a *fixed
    /// point* (changed no bit of `out_w`/`not_init`), so repeating it
    /// with unchanged inputs is the exact floating-point identity.
    /// Cleared at every limit / liveness / out-of-band mutation site; a
    /// redraw steps the leaf regardless.
    settled_bits: Vec<u64>,
    /// Unpacked mirror of [`Fleet::settled_bits`], one `bool` per leaf.
    /// The step needs per-lane `&mut` splits at leaf granularity, which packed words cannot give without `unsafe`;
    /// the bits are unpacked into this persistent scratch before a step
    /// and repacked after. Authoritative only inside a step.
    settled_scratch: Vec<bool>,
    /// Per-leaf tick of the last demand redraw; held redraws scale the
    /// workload step `dt` by the elapsed tick count.
    last_draw_tick: Vec<u64>,
    /// Per-leaf monotone power version: bumped whenever the leaf's
    /// drawn power may have changed bits. Aggregation layers key cached
    /// subtree sums on epoch watermarks over these.
    leaf_epoch: Vec<u64>,
    /// Per-leaf [`Fleet::leaf_epoch`] at the last control flush
    /// (`u64::MAX` = never flushed), used to skip redundant
    /// server-model flushes for leaves whose state cannot have moved.
    flushed_epoch: Vec<u64>,
    /// Per-leaf [`Fleet::last_draw_tick`] at the last control flush
    /// (utilization changes only on redraw, which an epoch bump does
    /// not always witness).
    flushed_draw: Vec<u64>,
    /// Per-leaf monotone *agent* version: bumped whenever something a
    /// leaf controller's pull could observe changes outside the power
    /// epochs — an agent process crashing or restarting, a server's
    /// liveness flipping, or a full resync after out-of-band mutation.
    /// Together with [`Fleet::leaf_epoch`] and
    /// [`Fleet::last_draw_tick`] this is the control plane's staleness
    /// witness for quiescent-cycle elision.
    agent_epoch: Vec<u64>,
    /// Maintained count of servers with a RAPL limit programmed,
    /// authoritative while the power cache is clean. Caps change only
    /// through controller RPC cycles — which [`Fleet::absorb_caps`]
    /// brackets — or through [`Fleet::agent_mut`], which dirties the
    /// cache; [`Fleet::resync_from_servers`] recounts on recovery. Keeps
    /// [`Fleet::stats`] O(1) instead of scanning every agent.
    capped_count: usize,
    /// Maintained count of agents whose process is down, same clean
    /// cache contract as [`Fleet::capped_count`]. Crash and watchdog
    /// restart both route through [`Fleet::process_failures`].
    down_count: usize,
    /// Hot-loop fusion switch (tile-at-a-time stepping plus the
    /// incremental total-power fold). On by default; run-control only —
    /// results are bit-identical either way, so the flag is not part of
    /// the checkpoint envelope.
    fuse: bool,
    /// Memoized flat fold over `power_w` (the [`Fleet::stats`] total)
    /// as `f64` bits, valid while the generation/epoch-sum marks below
    /// match the live watermark. Interior-mutable (relaxed atomics, not
    /// `Cell`, so `Fleet` stays `Sync` for the pooled fan-outs) because
    /// `stats` is a `&self` query; only the simulation thread writes.
    total_power_bits: AtomicU64,
    /// `span_generation` the cached total was folded at.
    total_power_gen: AtomicU64,
    /// `Σ leaf_epoch` the cached total was folded at. Leaf epochs are
    /// monotone within a span generation and every `power_w` mutation
    /// bumps one (or dirties the cache / bumps the generation), so sum
    /// equality proves the fold's inputs are byte-identical — the same
    /// watermark argument the breaker-tree draw cache rests on.
    total_power_esum: AtomicU64,
    /// Whether the memoized fold is populated at all (cleared on
    /// restore, on fusion toggles, and by the periodic full refresh).
    total_power_valid: AtomicBool,
}

/// Fused-step tile size in servers: each tile's demand draw, settle
/// kernel, and power scatter run back-to-back while the tile's slices
/// are cache-hot, instead of three leaf-wide array passes. A tile
/// spans ~5 hot `f64` arrays × 8 B × 2048 ≈ 80 KiB — comfortably
/// L2-resident — and must stay a multiple of 64 so every tile covers
/// whole mask words (and of the kernel lane width, which divides 64).
const FUSE_TILE: usize = 2048;

impl Fleet {
    /// Assembles a fleet. `configs[i]` and `services[i]` describe server
    /// `i`; workload processes get independent RNG streams from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` and `services` differ in length or are empty.
    pub fn new(configs: Vec<ServerConfig>, services: Vec<ServiceKind>, mut rng: SimRng) -> Self {
        assert_eq!(
            configs.len(),
            services.len(),
            "configs/services length mismatch"
        );
        assert!(!configs.is_empty(), "fleet cannot be empty");
        let n = configs.len();
        let mut agents = Vec::with_capacity(n);
        let mut generators = Vec::with_capacity(n);
        let mut agent_rng = rng.split("agents");
        let mut wl_rng = rng.split("workloads");
        for (i, (config, &service)) in configs.into_iter().zip(&services).enumerate() {
            let server = Server::new(i as u32, config);
            agents.push(Agent::new(server, agent_rng.split_index(i as u64)));
            generators.push(ServiceWorkload::new(service, wl_rng.split_index(i as u64)));
        }
        let tau_secs = agents[0].server().rapl().tau_secs();
        let mut fleet = Fleet {
            agents,
            services,
            generators,
            traffic: HashMap::new(),
            static_util_caps: [None; ServiceKind::COUNT],
            crash_rate_per_hour: 0.0,
            watchdog_delay: SimDuration::from_secs(30),
            pending_restarts: Vec::new(),
            rng: rng.split("fleet-events"),
            perm: Vec::new(),
            inv: Vec::new(),
            runs: Vec::new(),
            demand_w: Vec::new(),
            limit_w: Vec::new(),
            out_w: Vec::new(),
            not_init_bits: Vec::new(),
            alive_bits: Vec::new(),
            mask_base: Vec::new(),
            util: Vec::new(),
            tau_secs,
            // Pre-step, every server's RAPL output is zero, matching a
            // live read.
            power_w: vec![0.0; n],
            power_dirty: false,
            leaf_spans: Vec::new(),
            span_generation: 0,
            leaf_power_w: Vec::new(),
            partition: Partition::default(),
            pool: Arc::new(WorkerPool::new(1)),
            tick_index: 0,
            demand_hold: 1,
            settled_bits: Vec::new(),
            settled_scratch: Vec::new(),
            last_draw_tick: Vec::new(),
            leaf_epoch: Vec::new(),
            flushed_epoch: Vec::new(),
            flushed_draw: Vec::new(),
            agent_epoch: Vec::new(),
            // Fresh agents are all running with no limit programmed.
            capped_count: 0,
            down_count: 0,
            fuse: true,
            total_power_bits: AtomicU64::new(0),
            total_power_gen: AtomicU64::new(0),
            total_power_esum: AtomicU64::new(0),
            total_power_valid: AtomicBool::new(false),
        };
        fleet.rebuild_layout();
        fleet
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// Always false — construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sets the traffic pattern for a service.
    pub fn set_traffic(&mut self, kind: ServiceKind, pattern: TrafficPattern) {
        self.traffic.insert(kind, pattern);
    }

    /// Applies a static utilization clamp to every server of a service
    /// (the frequency-limit baseline of §IV-D).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is outside `(0, 1]`.
    pub fn set_static_util_cap(&mut self, kind: ServiceKind, cap: Option<f64>) {
        if let Some(c) = cap {
            assert!(
                c > 0.0 && c <= 1.0,
                "static util cap must be in (0,1], got {c}"
            );
        }
        self.static_util_caps[kind.index()] = cap;
    }

    /// Enables agent crash injection at the given rate (per server-hour).
    pub fn set_crash_rate(&mut self, per_hour: f64) {
        assert!(
            per_hour >= 0.0 && per_hour.is_finite(),
            "invalid crash rate {per_hour}"
        );
        self.crash_rate_per_hour = per_hour;
    }

    /// Attaches the worker pool [`Fleet::step`] dispatches onto; its
    /// width is the step's lane count. The datacenter shares one pool
    /// between fleet physics and leaf control cycles so both fan-outs
    /// reuse the same parked workers.
    pub fn attach_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = pool;
    }

    /// Registers the control plane's per-leaf server spans so the step
    /// maintains per-leaf power partials and leaf-aligned worker
    /// partitions, and regroups the batch arrays leaf-locally by
    /// `(generation, service, turbo)`. Spans must ascend and tile
    /// `0..len`. Also resets the per-leaf active-set state (everything
    /// starts unsettled and unflushed) and bumps the span generation,
    /// which invalidates any epoch-keyed aggregate cache built over the
    /// previous spans (the restarted epochs could otherwise collide
    /// with stale watermarks).
    pub fn set_leaf_spans(&mut self, spans: &[Range<usize>]) {
        debug_assert!(spans
            .iter()
            .zip(spans.iter().skip(1))
            .all(|(a, b)| a.end == b.start));
        self.leaf_spans = spans.to_vec();
        self.span_generation += 1;
        self.rebuild_layout();
        self.leaf_power_w = vec![0.0; spans.len()];
        leaf_partials(&self.power_w, 0, &self.leaf_spans, &mut self.leaf_power_w);
        self.partition = Partition::default();
        self.settled_bits = vec![0; spans.len().div_ceil(64)];
        self.settled_scratch = vec![false; spans.len()];
        // Pretend every leaf just redrew: a mid-run re-span must not
        // integrate the whole pre-span history into the next redraw.
        self.last_draw_tick = vec![self.tick_index; spans.len()];
        self.leaf_epoch = vec![0; spans.len()];
        self.flushed_epoch = vec![u64::MAX; spans.len()];
        self.flushed_draw = vec![u64::MAX; spans.len()];
        self.agent_epoch = vec![0; spans.len()];
    }

    /// Sets the demand redraw period in ticks.
    ///
    /// `1` (the default) redraws every workload every tick and is
    /// bit-identical to the always-redraw model — active-set skipping
    /// can never engage because every leaf is due every tick. Larger
    /// periods are an opt-in model coarsening: each leaf holds its
    /// demand between redraws (leaf-phased, so `1/hold` of the leaves
    /// redraw per tick) and a redraw integrates the skipped interval by
    /// scaling the workload step `dt` by the elapsed tick count.
    /// Between redraws a fully settled leaf's physics pass is the exact
    /// floating-point identity and is skipped outright.
    ///
    /// Only effective once leaf spans are registered; fleets without
    /// spans always redraw.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero.
    pub fn set_demand_hold(&mut self, ticks: u32) {
        assert!(ticks >= 1, "demand hold must be >= 1 tick, got {ticks}");
        self.demand_hold = ticks;
    }

    /// Current demand redraw period (ticks).
    pub fn demand_hold(&self) -> u32 {
        self.demand_hold
    }

    /// Number of leaves currently settled (their next physics pass
    /// would be the exact identity). Zero when leaf spans are unknown.
    pub fn settled_leaf_count(&self) -> usize {
        self.settled_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Enables or disables hot-loop fusion: tile-at-a-time stepping and
    /// the incremental total-power fold. On by default. Run-control
    /// only — results are bit-identical either way — so the flag stays
    /// out of the checkpoint envelope; `off` is the bisection reference
    /// that recomputes everything from scratch each tick.
    pub fn set_fuse(&mut self, on: bool) {
        self.fuse = on;
        self.total_power_valid.store(false, Ordering::Relaxed);
    }

    /// Whether hot-loop fusion is enabled.
    pub fn fuse(&self) -> bool {
        self.fuse
    }

    /// Whether leaf `leaf` is settled (bit read of the packed flags).
    fn is_settled(&self, leaf: usize) -> bool {
        (self.settled_bits[leaf / 64] >> (leaf % 64)) & 1 == 1
    }

    /// Sets or clears leaf `leaf`'s settled flag.
    fn set_settled(&mut self, leaf: usize, v: bool) {
        let (w, b) = (leaf / 64, leaf % 64);
        if v {
            self.settled_bits[w] |= 1 << b;
        } else {
            self.settled_bits[w] &= !(1 << b);
        }
    }

    /// Unpacks the settled bits into the per-leaf `bool` scratch the
    /// step splits per lane. Zero-alloc: the scratch is sized at
    /// span registration.
    fn unpack_settled(&mut self) {
        for (l, s) in self.settled_scratch.iter_mut().enumerate() {
            *s = (self.settled_bits[l / 64] >> (l % 64)) & 1 == 1;
        }
    }

    /// Repacks the step's per-leaf settled results into the bits.
    fn pack_settled(&mut self) {
        self.settled_bits.fill(0);
        for (l, &s) in self.settled_scratch.iter().enumerate() {
            if s {
                self.settled_bits[l / 64] |= 1 << (l % 64);
            }
        }
    }

    /// Whether server at position `pos` is alive (packed-mask read).
    fn alive_at(&self, pos: usize) -> bool {
        bit_at(&self.mask_base, &self.alive_bits, pos)
    }

    /// Whether server at position `pos` still awaits its first live
    /// step (packed-mask read).
    fn not_init_at(&self, pos: usize) -> bool {
        bit_at(&self.mask_base, &self.not_init_bits, pos)
    }

    /// Sets or clears the liveness bit of position `pos`.
    fn set_alive_at(&mut self, pos: usize, v: bool) {
        let (w, b) = bit_addr(&self.mask_base, pos);
        if v {
            self.alive_bits[w] |= 1 << b;
        } else {
            self.alive_bits[w] &= !(1 << b);
        }
    }

    /// Sets or clears the first-step bit of position `pos`.
    fn set_not_init_at(&mut self, pos: usize, v: bool) {
        let (w, b) = bit_addr(&self.mask_base, pos);
        if v {
            self.not_init_bits[w] |= 1 << b;
        } else {
            self.not_init_bits[w] &= !(1 << b);
        }
    }

    /// Per-leaf monotone power epochs (see the field docs). Aggregation
    /// caches key subtree sums on watermarks over these; meaningful
    /// only while the power cache is clean.
    pub(crate) fn leaf_epochs(&self) -> &[u64] {
        &self.leaf_epoch
    }

    /// The registered per-leaf server spans (empty when unknown).
    pub(crate) fn leaf_spans(&self) -> &[Range<usize>] {
        &self.leaf_spans
    }

    /// Monotone count of span registrations; see the field docs. Any
    /// cache keyed on [`Fleet::leaf_epochs`] watermarks is only valid
    /// while this matches the generation it was built against.
    pub(crate) fn leaf_span_generation(&self) -> u64 {
        self.span_generation
    }

    /// Whether cached power arrays are currently untrustworthy because
    /// of out-of-band mutation (see [`Fleet::agent_mut`]).
    pub(crate) fn power_cache_dirty(&self) -> bool {
        self.power_dirty
    }

    /// Per-leaf monotone agent versions (see the field docs).
    pub(crate) fn agent_epochs(&self) -> &[u64] {
        &self.agent_epoch
    }

    /// Per-leaf tick index of the last demand redraw.
    pub(crate) fn last_draw_ticks(&self) -> &[u64] {
        &self.last_draw_tick
    }

    /// The maintained per-leaf power partials (watts), when the fleet
    /// knows the control plane's leaf spans and the cache is clean.
    /// `partials[l]` is the ascending flat fold over leaf `l`'s span.
    pub(crate) fn leaf_power_partials(&self) -> Option<&[f64]> {
        (!self.power_dirty && !self.leaf_power_w.is_empty()).then_some(&self.leaf_power_w[..])
    }

    /// Bumps the agent epoch of the leaf owning server `sid` (no-op
    /// while spans are unknown: without spans the control plane never
    /// elides, so there is nothing to witness).
    fn bump_agent_epoch(&mut self, sid: usize) {
        if self.leaf_spans.is_empty() {
            return;
        }
        let leaf = self.leaf_spans.partition_point(|s| s.end <= sid);
        if let Some(span) = self.leaf_spans.get(leaf) {
            if span.contains(&sid) {
                self.agent_epoch[leaf] += 1;
            }
        }
    }

    /// Test hook: forces every leaf back into the active set, making
    /// the next step recompute everything — the skip-free reference the
    /// active-set equivalence tests compare against.
    #[cfg(test)]
    fn clear_settled(&mut self) {
        self.settled_bits.fill(0);
    }

    /// (Re)builds the batch layout: the leaf-local stable permutation,
    /// its inverse, the equal-key runs, and the position-ordered state
    /// arrays. Existing state (including each server's workload process
    /// and RNG stream) is carried through the re-ordering untouched.
    fn rebuild_layout(&mut self) {
        let n = self.agents.len();
        // Gather current state back to id order under the old perm. At
        // construction (`perm` empty) the generators are already in id
        // order and the physics state takes its pre-step defaults.
        let mut gens_id: Vec<Option<ServiceWorkload>> =
            std::iter::repeat_with(|| None).take(n).collect();
        let mut demand_id = vec![0.0; n];
        let mut limit_id = vec![f64::INFINITY; n];
        let mut out_id = vec![0.0; n];
        let mut ni_id = vec![1.0; n];
        let mut alive_id = vec![1.0; n];
        let mut util_id = vec![0.0; n];
        if self.perm.is_empty() {
            for (id, g) in self.generators.drain(..).enumerate() {
                gens_id[id] = Some(g);
                // Pre-step demand power is the idle draw (demand
                // utilization 0), matching a live `demand_power` read.
                demand_id[id] = self.agents[id].server().lut().idle_w();
                alive_id[id] = if self.agents[id].server().is_alive() {
                    1.0
                } else {
                    0.0
                };
            }
        } else {
            for (pos, g) in self.generators.drain(..).enumerate() {
                let id = self.perm[pos] as usize;
                gens_id[id] = Some(g);
                demand_id[id] = self.demand_w[pos];
                limit_id[id] = self.limit_w[pos];
                out_id[id] = self.out_w[pos];
                // `mask_base` still describes the old packing here: the
                // mask words are rebuilt only after the new permutation
                // is in place, so this gather decodes the old layout.
                ni_id[id] = if bit_at(&self.mask_base, &self.not_init_bits, pos) {
                    1.0
                } else {
                    0.0
                };
                alive_id[id] = if bit_at(&self.mask_base, &self.alive_bits, pos) {
                    1.0
                } else {
                    0.0
                };
                util_id[id] = self.util[pos];
            }
        }
        // The new permutation: identity, then a stable sort of each
        // leaf span by run key. Without spans the layout stays identity
        // (arbitrary worker chunks must keep id range == position
        // range).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for span in &self.leaf_spans {
            perm[span.clone()].sort_by_key(|&id| {
                run_key(
                    self.agents[id as usize].server(),
                    self.services[id as usize],
                )
            });
        }
        let mut inv = vec![0u32; n];
        for (pos, &id) in perm.iter().enumerate() {
            inv[id as usize] = pos as u32;
        }
        self.generators = perm
            .iter()
            .map(|&id| gens_id[id as usize].take().expect("perm is a permutation"))
            .collect();
        self.demand_w = perm.iter().map(|&id| demand_id[id as usize]).collect();
        self.limit_w = perm.iter().map(|&id| limit_id[id as usize]).collect();
        self.out_w = perm.iter().map(|&id| out_id[id as usize]).collect();
        self.util = perm.iter().map(|&id| util_id[id as usize]).collect();
        self.perm = perm;
        self.inv = inv;
        // Repack the bit masks under the new permutation and region
        // directory (one word-aligned region per leaf).
        self.rebuild_mask_layout();
        for pos in 0..n {
            let id = self.perm[pos] as usize;
            if ni_id[id] != 0.0 {
                self.set_not_init_at(pos, true);
            }
            if alive_id[id] != 0.0 {
                self.set_alive_at(pos, true);
            }
        }
        self.rebuild_runs();
        // Regrouping permutes `limit_w`; re-derive the maintained
        // tallies from the rebuilt state so mid-run span registration
        // cannot skew them.
        self.capped_count = self.limit_w.iter().filter(|l| l.is_finite()).count();
        self.down_count = self.agents.iter().filter(|a| !a.is_running()).count();
    }

    /// Rebuilds the mask region directory and zeroes the bit words for
    /// the current leaf spans: one region per leaf (one covering region
    /// when spans are unknown), each starting on a fresh word, plus a
    /// `(total words, server count)` sentinel. Word alignment per leaf
    /// is what lets leaf-aligned lane partitions split the packed
    /// words with safe `split_at_mut`.
    fn rebuild_mask_layout(&mut self) {
        let n = self.agents.len();
        self.mask_base.clear();
        let mut w = 0usize;
        if self.leaf_spans.is_empty() {
            self.mask_base.push((0, 0));
            w = n.div_ceil(64);
        } else {
            for span in &self.leaf_spans {
                self.mask_base.push((w, span.start));
                w += span.len().div_ceil(64);
            }
        }
        self.mask_base.push((w, n));
        self.alive_bits.clear();
        self.alive_bits.resize(w, 0);
        self.not_init_bits.clear();
        self.not_init_bits.resize(w, 0);
    }

    /// Scans the position order into maximal equal-key runs with their
    /// hoisted demand-loop constants.
    fn rebuild_runs(&mut self) {
        let n = self.agents.len();
        self.runs.clear();
        let key_at = |pos: usize| {
            let id = self.perm[pos] as usize;
            run_key(self.agents[id].server(), self.services[id])
        };
        let mut start = 0;
        for pos in 1..=n {
            if pos < n && key_at(pos) == key_at(start) {
                continue;
            }
            let id = self.perm[start] as usize;
            let server = self.agents[id].server();
            let lut = server.lut().clone();
            let turbo = server.config().turbo;
            self.runs.push(Run {
                range: start..pos,
                idle_w: lut.idle_w(),
                lut,
                turbo_pf: turbo.map_or(1.0, |t| t.power_factor),
                turbo_perf: turbo.map_or(1.0, |t| t.perf_factor),
                turbo: turbo.is_some(),
                svc: self.services[id].index() as u8,
            });
            start = pos;
        }
    }

    /// The service running on server `sid`.
    pub fn service_of(&self, sid: u32) -> ServiceKind {
        self.services[sid as usize]
    }

    /// The agent (and host) of server `sid`.
    pub fn agent(&self, sid: u32) -> &Agent {
        &self.agents[sid as usize]
    }

    /// Mutable agent access (experiment hooks). Flushes the batch-owned
    /// physics state back into every server model (so the caller
    /// observes fresh state) and marks the cached power arrays dirty:
    /// power queries fall back to live per-agent reads until the next
    /// step resynchronizes the arrays from the servers.
    pub fn agent_mut(&mut self, sid: u32) -> &mut Agent {
        if !self.power_dirty {
            self.flush_span_to_servers(0..self.agents.len());
            self.power_dirty = true;
        }
        &mut self.agents[sid as usize]
    }

    /// Pushes the batch-owned physics state of the due leaves' servers
    /// into their [`Server`] models, so the agent RPC cycles about to
    /// run observe fresh power. With unknown leaf spans every server is
    /// flushed. A no-op while the cache is dirty (the servers are
    /// already the authority then).
    ///
    /// A leaf whose epoch and redraw tick both match its last flush is
    /// skipped: `out_w`/`not_init` changes always bump the epoch, and
    /// utilization changes only on redraw, so matching markers prove
    /// the server models already hold this exact state.
    pub(crate) fn sync_servers_for_control(&mut self, due: &[usize]) {
        if self.power_dirty {
            return;
        }
        if self.leaf_spans.is_empty() {
            self.flush_span_to_servers(0..self.agents.len());
        } else {
            for &leaf in due {
                if self.flushed_epoch[leaf] == self.leaf_epoch[leaf]
                    && self.flushed_draw[leaf] == self.last_draw_tick[leaf]
                {
                    continue;
                }
                self.flush_span_to_servers(self.leaf_spans[leaf].clone());
                self.flushed_epoch[leaf] = self.leaf_epoch[leaf];
                self.flushed_draw[leaf] = self.last_draw_tick[leaf];
            }
        }
    }

    /// Pulls the RAPL limits the due leaves' controllers just programmed
    /// back into the batch `limit_w` array. The counterpart of
    /// [`Fleet::sync_servers_for_control`], run after the RPC cycles. A
    /// no-op while the cache is dirty (the next step resynchronizes
    /// everything from the servers anyway).
    /// Any limit whose bit pattern actually changed unsettles its leaf
    /// (the settle target moved, so the next pass is no longer known to
    /// be the identity). The leaf epoch is *not* bumped here: a limit
    /// change affects drawn power only at the next physics step, which
    /// bumps the epoch itself if anything moves.
    pub(crate) fn absorb_caps(&mut self, due: &[usize]) {
        if self.power_dirty {
            return;
        }
        if self.leaf_spans.is_empty() {
            for id in 0..self.agents.len() {
                let pos = self.inv[id] as usize;
                let new = self.agents[id]
                    .current_cap()
                    .map_or(f64::INFINITY, |l| l.as_watts());
                let old = self.limit_w[pos];
                if new.is_finite() != old.is_finite() {
                    if new.is_finite() {
                        self.capped_count += 1;
                    } else {
                        self.capped_count -= 1;
                    }
                }
                self.limit_w[pos] = new;
            }
        } else {
            for &leaf in due {
                let mut changed = false;
                for id in self.leaf_spans[leaf].clone() {
                    let pos = self.inv[id] as usize;
                    let new = self.agents[id]
                        .current_cap()
                        .map_or(f64::INFINITY, |l| l.as_watts());
                    let old = self.limit_w[pos];
                    if new.to_bits() != old.to_bits() {
                        if new.is_finite() != old.is_finite() {
                            if new.is_finite() {
                                self.capped_count += 1;
                            } else {
                                self.capped_count -= 1;
                            }
                        }
                        self.limit_w[pos] = new;
                        changed = true;
                    }
                }
                if changed {
                    self.set_settled(leaf, false);
                }
            }
        }
    }

    /// True when the control plane may run its fused per-leaf
    /// sync → cycle → absorb dispatch instead of the three
    /// phase-at-a-time passes ([`Fleet::sync_servers_for_control`],
    /// the RPC cycles, [`Fleet::absorb_caps`]): fusion is on, leaf
    /// spans are known (the per-leaf flush and the limit split need
    /// them), and the power cache is clean (while dirty, sync and
    /// absorb are deliberate no-ops the fused path does not replicate,
    /// so the caller must fall back to the unfused passes).
    pub(crate) fn control_fuse_ready(&self) -> bool {
        self.fuse && !self.power_dirty && !self.leaf_spans.is_empty()
    }

    /// Splits the fleet into the parts the leaf dispatch needs: the
    /// agent array (indexed by server id) and the RAPL limit array as
    /// splittable `&mut` slices (the dispatch partitions both at the same
    /// leaf-span boundaries — leaf-aligned spans make position ranges
    /// equal id ranges), plus a read-only [`FuseShared`] view of
    /// everything [`fuse_sync_leaf`] and [`fuse_absorb_leaf`] read. All
    /// distinct fields, so the three borrows coexist.
    ///
    /// Does not mark the power cache dirty: the controller RPC path
    /// only programs RAPL limits, which change drawn power at the next
    /// physics step, never immediately. (The control plane brackets its
    /// cycles with [`Fleet::sync_servers_for_control`] /
    /// [`Fleet::absorb_caps`], or their fused per-leaf forms.)
    pub(crate) fn fused_control_parts(&mut self) -> (&mut [Agent], &mut [f64], FuseShared<'_>) {
        (
            &mut self.agents,
            &mut self.limit_w,
            FuseShared {
                perm: &self.perm,
                inv: &self.inv,
                util: &self.util,
                out_w: &self.out_w,
                not_init_bits: &self.not_init_bits,
                mask_base: &self.mask_base,
                leaf_spans: &self.leaf_spans,
                leaf_epoch: &self.leaf_epoch,
                last_draw: &self.last_draw_tick,
                flushed_epoch: &self.flushed_epoch,
                flushed_draw: &self.flushed_draw,
            },
        )
    }

    /// Applies the side effects a fused dispatch deferred past the
    /// join: flush markers for every due leaf (each was flushed — or
    /// proven fresh — by [`fuse_sync_leaf`] before its cycle),
    /// unsettling for leaves whose limits changed, and the
    /// capped-server tally folded in ascending due order — exactly the
    /// mutations [`Fleet::sync_servers_for_control`] and
    /// [`Fleet::absorb_caps`] would have made. Deferring is safe
    /// because the control tick never moves epochs or redraw ticks, so
    /// the markers recorded here equal what the per-leaf flush saw.
    pub(crate) fn finish_fused_control(&mut self, due: &[usize], changed: &[bool], deltas: &[i64]) {
        debug_assert!(!self.power_dirty, "fused dispatch ran on a dirty cache");
        for &leaf in due {
            self.flushed_epoch[leaf] = self.leaf_epoch[leaf];
            self.flushed_draw[leaf] = self.last_draw_tick[leaf];
            if changed[leaf] {
                self.set_settled(leaf, false);
            }
            self.capped_count = (self.capped_count as i64 + deltas[leaf]) as usize;
        }
    }

    /// Flushes batch state (demand utilization, RAPL output, init flag)
    /// into the scalar server models for one id/position span (the two
    /// coincide on leaf spans and on the full fleet).
    fn flush_span_to_servers(&mut self, span: Range<usize>) {
        for pos in span {
            let id = self.perm[pos] as usize;
            let initialized = !bit_at(&self.mask_base, &self.not_init_bits, pos);
            self.agents[id]
                .server_mut()
                .sync_physics(self.util[pos], self.out_w[pos], initialized);
        }
    }

    /// Rebuilds the batch arrays from the scalar server models after
    /// out-of-band mutation (the `power_dirty` recovery path).
    ///
    /// Unconditionally unsettles every leaf and bumps every epoch: the
    /// embedder may have changed anything (turbo flips and other config
    /// edits included), and a post-resync pass can be a fixed point
    /// while drawn power still changed (e.g. a server killed through
    /// [`Fleet::agent_mut`] freezes the kernel but zeroes its draw), so
    /// the bump cannot be left to the step.
    fn resync_from_servers(&mut self) {
        for pos in 0..self.agents.len() {
            let (out, initialized, alive, limit) = {
                let server = self.agents[self.perm[pos] as usize].server();
                debug_assert_eq!(server.rapl().tau_secs(), self.tau_secs);
                (
                    server.rapl().output().as_watts(),
                    server.rapl().is_initialized(),
                    server.is_alive(),
                    server
                        .rapl()
                        .limit()
                        .map_or(f64::INFINITY, |l| l.as_watts()),
                )
            };
            self.out_w[pos] = out;
            self.set_not_init_at(pos, !initialized);
            self.set_alive_at(pos, alive);
            self.limit_w[pos] = limit;
        }
        self.settled_bits.fill(0);
        for e in &mut self.leaf_epoch {
            *e += 1;
        }
        for e in &mut self.agent_epoch {
            *e += 1;
        }
        // Out-of-band mutation may have programmed limits or toggled
        // agent processes directly: recount the maintained tallies.
        self.capped_count = self.limit_w.iter().filter(|l| l.is_finite()).count();
        self.down_count = self.agents.iter().filter(|a| !a.is_running()).count();
    }

    /// Powers a server on or off (breaker blackout path), keeping the
    /// cached power arrays exact — a dead server reads zero watts
    /// immediately, a revived one its retained actuator output.
    pub fn set_server_alive(&mut self, sid: u32, alive: bool) {
        let i = sid as usize;
        self.agents[i].server_mut().set_alive(alive);
        // A pull to this server now reads differently regardless of
        // whether the power cache is clean.
        self.bump_agent_epoch(i);
        if self.power_dirty {
            // Live reads are in effect; the next step resynchronizes.
            return;
        }
        let pos = self.inv[i] as usize;
        self.set_alive_at(pos, alive);
        // Keep the scalar model coherent for any direct observer.
        let initialized = !self.not_init_at(pos);
        self.agents[i]
            .server_mut()
            .sync_physics(self.util[pos], self.out_w[pos], initialized);
        self.power_w[i] = if alive { self.out_w[pos] } else { 0.0 };
        if !self.leaf_spans.is_empty() {
            let leaf = self.leaf_spans.partition_point(|s| s.end <= i);
            if let Some(span) = self.leaf_spans.get(leaf) {
                if span.contains(&i) {
                    self.leaf_power_w[leaf] = self.power_w[span.clone()].iter().sum();
                    // The liveness mask is a kernel input and drawn
                    // power changed right now: unsettle and version.
                    self.set_settled(leaf, false);
                    self.leaf_epoch[leaf] += 1;
                }
            }
        }
    }

    /// The true (physics) power of server `sid` right now.
    pub fn power_of(&self, sid: u32) -> Power {
        if self.power_dirty {
            self.agents[sid as usize].server().power()
        } else {
            Power::from_watts(self.power_w[sid as usize])
        }
    }

    /// Sum of true power over a set of servers: an ascending flat scan
    /// of the cached watts array, bit-identical to summing live reads.
    pub fn power_sum(&self, sids: &[u32]) -> Power {
        if self.power_dirty {
            return sids
                .iter()
                .map(|&s| self.agents[s as usize].server().power())
                .sum();
        }
        Power::from_watts(sids.iter().map(|&s| self.power_w[s as usize]).sum())
    }

    /// Sum of true power over a contiguous server-id range — the
    /// telemetry fast path for grid topologies, where every device's
    /// subtree is one such range.
    pub(crate) fn power_sum_range(&self, range: Range<usize>) -> Power {
        if self.power_dirty {
            return self.agents[range].iter().map(|a| a.server().power()).sum();
        }
        Power::from_watts(self.power_w[range].iter().sum())
    }

    /// The maintained power partial of leaf `leaf`, if the fleet knows
    /// the control plane's leaf spans and the cache is clean. The
    /// partial is the ascending flat fold over the leaf's span — the
    /// exact sum [`Fleet::power_sum`] would compute over its ids.
    pub(crate) fn leaf_power(&self, leaf: usize) -> Option<Power> {
        if self.power_dirty {
            return None;
        }
        self.leaf_power_w.get(leaf).map(|&w| Power::from_watts(w))
    }

    /// Sum of true power over a set of servers, restricted to one
    /// service (Figure 15's per-service breakdown).
    pub fn power_sum_of_service(&self, sids: &[u32], kind: ServiceKind) -> Power {
        if self.power_dirty {
            return sids
                .iter()
                .filter(|&&s| self.services[s as usize] == kind)
                .map(|&s| self.agents[s as usize].server().power())
                .sum();
        }
        Power::from_watts(
            sids.iter()
                .filter(|&&s| self.services[s as usize] == kind)
                .map(|&s| self.power_w[s as usize])
                .sum(),
        )
    }

    /// The post-clamp demand utilization server `sid` was stepped with
    /// most recently.
    pub fn utilization_of(&self, sid: u32) -> f64 {
        self.util[self.inv[sid as usize] as usize]
    }

    /// The utilization level server `sid` actually achieves under its
    /// current cap — [`Server::achieved_utilization`] evaluated against
    /// the batch-owned drawn power, so it is correct even while the
    /// scalar model is stale.
    pub fn achieved_utilization_of(&self, sid: u32) -> f64 {
        let i = sid as usize;
        let server = self.agents[i].server();
        if self.power_dirty {
            return server.achieved_utilization();
        }
        if !self.alive_at(self.inv[i] as usize) {
            return 0.0;
        }
        server.achieved_utilization_at(Power::from_watts(self.power_w[i]))
    }

    /// Advances every server by one tick: samples traffic, draws demand
    /// from each workload process, applies static clamps, steps server
    /// physics in one batched kernel pass, and processes agent
    /// crash/restart events.
    ///
    /// The physics runs as one job per lane of the attached pool
    /// ([`Fleet::attach_pool`]; width 1 until one is attached) over
    /// cached leaf-aligned partitions — at width 1 that is a single job
    /// on the calling thread. Per-server workload processes own
    /// independent RNG streams and every fold is ascending, so the
    /// result is bit-identical at any width; this mirrors the
    /// production deployment where one consolidated binary runs ~100
    /// controller/agent threads (§IV). Allocation-free once the
    /// partition is cached.
    pub fn step(&mut self, now: SimTime, dt: SimDuration) {
        if self.power_dirty {
            self.resync_from_servers();
        }
        self.ensure_partition(self.pool.workers());
        self.unpack_settled();
        // Built inline (not via a &self helper) so `ctx` holds
        // field-precise borrows of `runs`/`perm`, disjoint from the
        // mutable state arrays below.
        let ctx = StepCtx {
            runs: &self.runs,
            perm: &self.perm,
            mults: self.traffic_multipliers(now),
            caps: self.static_util_caps,
            ou: ou_coefficients(dt),
            alpha: kernel::settle_alpha(dt.as_secs_f64(), self.tau_secs),
            now,
            dt,
            tick: self.tick_index,
            hold: self.demand_hold as u64,
            tile: if self.fuse { FUSE_TILE } else { usize::MAX },
        };

        /// One lane's disjoint view of the fleet arrays.
        struct StepJob<'a> {
            generators: &'a mut [ServiceWorkload],
            util: &'a mut [f64],
            demand_w: &'a mut [f64],
            /// This lane's packed mask words. Leaf-aligned partitions
            /// own whole words (every leaf's region starts on a fresh
            /// word; spanless chunks are rounded to word multiples).
            not_init_bits: &'a mut [u64],
            alive_bits: &'a [u64],
            /// Global mask directory entries for this lane's leaves
            /// (`lrange.len() + 1` entries, the last the next lane's
            /// first region / the sentinel).
            word_base: &'a [(usize, usize)],
            out_w: &'a mut [f64],
            power_w: &'a mut [f64],
            /// This lane's leaves: partial-sum outputs, active-set
            /// state, and the matching global spans.
            leaf_power_w: &'a mut [f64],
            settled: &'a mut [bool],
            last_draw: &'a mut [u64],
            leaf_epoch: &'a mut [u64],
            leaf_spans: &'a [Range<usize>],
            /// Server id / position of element 0 of the local slices
            /// (the two coincide on leaf-aligned partitions).
            base: usize,
            /// Global index of the first leaf in `leaf_spans`.
            leaf_base: usize,
        }

        let limit_w = &self.limit_w;
        let alive_bits_all = &self.alive_bits;
        let mask_base = &self.mask_base;
        let mut jobs: [Option<StepJob>; MAX_WORKERS] = std::array::from_fn(|_| None);
        let njobs = self.partition.agents.len();
        {
            let mut generators = &mut self.generators[..];
            let mut util = &mut self.util[..];
            let mut demand_w = &mut self.demand_w[..];
            let mut not_init_bits = &mut self.not_init_bits[..];
            let mut out_w = &mut self.out_w[..];
            let mut power_w = &mut self.power_w[..];
            let mut leaf_power_w = &mut self.leaf_power_w[..];
            let mut settled = &mut self.settled_scratch[..];
            let mut last_draw = &mut self.last_draw_tick[..];
            let mut leaf_epoch = &mut self.leaf_epoch[..];
            let mut consumed = 0usize;
            let mut leaves_consumed = 0usize;
            let mut words_consumed = 0usize;
            for (job, (arange, lrange)) in jobs
                .iter_mut()
                .zip(self.partition.agents.iter().zip(&self.partition.leaves))
            {
                debug_assert_eq!(arange.start, consumed, "partition must tile the fleet");
                let take = arange.end - arange.start;
                let (g, rest) = generators.split_at_mut(take);
                generators = rest;
                let (u, rest) = util.split_at_mut(take);
                util = rest;
                let (d, rest) = demand_w.split_at_mut(take);
                demand_w = rest;
                let (o, rest) = out_w.split_at_mut(take);
                out_w = rest;
                let (p, rest) = power_w.split_at_mut(take);
                power_w = rest;
                // This lane's mask word range: leaf regions when spans
                // are known, position/64 otherwise (chunk starts are
                // 64-multiples by construction).
                let (wlo, whi) = if self.leaf_spans.is_empty() {
                    (arange.start / 64, arange.end.div_ceil(64))
                } else {
                    (mask_base[lrange.start].0, mask_base[lrange.end].0)
                };
                debug_assert_eq!(wlo, words_consumed, "mask words must tile the fleet");
                let (nib, rest) = not_init_bits.split_at_mut(whi - wlo);
                not_init_bits = rest;
                words_consumed = whi;
                debug_assert_eq!(lrange.start, leaves_consumed);
                let ltake = lrange.end - lrange.start;
                let (lp, rest) = leaf_power_w.split_at_mut(ltake);
                leaf_power_w = rest;
                let (st, rest) = settled.split_at_mut(ltake);
                settled = rest;
                let (ld, rest) = last_draw.split_at_mut(ltake);
                last_draw = rest;
                let (le, rest) = leaf_epoch.split_at_mut(ltake);
                leaf_epoch = rest;
                *job = Some(StepJob {
                    generators: g,
                    util: u,
                    demand_w: d,
                    not_init_bits: nib,
                    alive_bits: &alive_bits_all[wlo..whi],
                    word_base: &mask_base[lrange.start..lrange.end + 1],
                    out_w: o,
                    power_w: p,
                    leaf_power_w: lp,
                    settled: st,
                    last_draw: ld,
                    leaf_epoch: le,
                    leaf_spans: &self.leaf_spans[lrange.clone()],
                    base: consumed,
                    leaf_base: lrange.start,
                });
                consumed = arange.end;
                leaves_consumed = lrange.end;
            }
        }
        let ctx = &ctx;
        self.pool.run_on(&mut jobs[..njobs], |_w, slot| {
            let job = slot.as_mut().expect("partition slot filled above");
            let lo = job.base;
            let n = job.generators.len();
            if job.leaf_spans.is_empty() {
                step_range(
                    ctx,
                    lo,
                    job.generators,
                    job.util,
                    job.demand_w,
                    &limit_w[lo..lo + n],
                    job.alive_bits,
                    job.not_init_bits,
                    job.out_w,
                    job.power_w,
                );
            } else {
                step_leaves(
                    ctx,
                    lo,
                    job.leaf_base,
                    job.leaf_spans,
                    job.generators,
                    job.util,
                    job.demand_w,
                    &limit_w[lo..lo + n],
                    job.alive_bits,
                    job.not_init_bits,
                    job.word_base,
                    job.out_w,
                    job.power_w,
                    job.leaf_power_w,
                    job.settled,
                    job.last_draw,
                    job.leaf_epoch,
                );
            }
        });
        self.pack_settled();
        self.power_dirty = false;
        self.tick_index += 1;
        self.process_failures(now, dt);
    }

    /// Rebuilds the cached per-lane partition if the pool width
    /// changed. Leaf-aligned when spans are known — the same
    /// whole-leaf `div_ceil` chunking the leaf dispatch uses, so a
    /// server's worker assignment is stable across both fan-outs.
    fn ensure_partition(&mut self, threads: usize) {
        let threads = threads.clamp(1, MAX_WORKERS);
        if self.partition.threads == threads && !self.partition.agents.is_empty() {
            return;
        }
        let mut agents = Vec::new();
        let mut leaves = Vec::new();
        if self.leaf_spans.is_empty() {
            let n = self.agents.len();
            // Chunk starts must fall on 64-server boundaries so every
            // worker owns whole packed-mask words. Which partition the
            // step runs over is unobservable (per-server RNG streams,
            // ascending folds), so the rounding cannot change results.
            let per = n.div_ceil(threads).div_ceil(64) * 64;
            let mut start = 0;
            while start < n {
                let end = (start + per).min(n);
                agents.push(start..end);
                leaves.push(0..0);
                start = end;
            }
        } else {
            let l = self.leaf_spans.len();
            let per = l.div_ceil(threads.min(l));
            let mut lo = 0;
            while lo < l {
                let hi = (lo + per).min(l);
                agents.push(self.leaf_spans[lo].start..self.leaf_spans[hi - 1].end);
                leaves.push(lo..hi);
                lo = hi;
            }
        }
        self.partition = Partition {
            threads,
            agents,
            leaves,
        };
    }

    /// Per-service traffic multipliers at `now`, indexed by
    /// [`ServiceKind::index`]. A fixed array instead of a per-tick
    /// `HashMap`: the fleet step allocates nothing.
    fn traffic_multipliers(&self, now: SimTime) -> [f64; ServiceKind::COUNT] {
        let mut mults = [1.0; ServiceKind::COUNT];
        for kind in ServiceKind::all() {
            if let Some(pattern) = self.traffic.get(&kind) {
                mults[kind.index()] = pattern.multiplier(now);
            }
        }
        mults
    }

    /// Failure injection: crashes are per-server Poisson events; the
    /// watchdog restarts agents after a fixed delay (§III-E).
    fn process_failures(&mut self, now: SimTime, dt: SimDuration) {
        if self.crash_rate_per_hour > 0.0 {
            let p = self.crash_rate_per_hour * dt.as_secs_f64() / 3600.0;
            for i in 0..self.agents.len() {
                if self.agents[i].is_running() && self.rng.chance(p) {
                    self.agents[i].crash();
                    self.down_count += 1;
                    self.bump_agent_epoch(i);
                    self.pending_restarts
                        .push((i as u32, now + self.watchdog_delay));
                }
            }
        }
        let due: Vec<u32> = self
            .pending_restarts
            .iter()
            .filter(|&&(_, t)| t <= now)
            .map(|&(s, _)| s)
            .collect();
        self.pending_restarts.retain(|&(_, t)| t > now);
        for s in due {
            if !self.agents[s as usize].is_running() {
                self.down_count -= 1;
            }
            self.agents[s as usize].restart();
            self.bump_agent_epoch(s as usize);
        }
    }

    /// Mean performance factor over a set of servers (1.0 = turbo-off
    /// uncapped baseline). Computed from the batch arrays while the
    /// cache is clean — the same arithmetic as
    /// [`Server::performance_factor`], against the same post-step state.
    pub fn mean_performance(&self, sids: &[u32]) -> f64 {
        if sids.is_empty() {
            return f64::NAN;
        }
        if self.power_dirty {
            return sids
                .iter()
                .map(|&s| self.agents[s as usize].server().performance_factor())
                .sum::<f64>()
                / sids.len() as f64;
        }
        let sum: f64 = sids
            .iter()
            .map(|&s| {
                let i = s as usize;
                let pos = self.inv[i] as usize;
                if !self.alive_at(pos) {
                    return 0.0;
                }
                let run = &self.runs[self.runs.partition_point(|r| r.range.end <= pos)];
                let demand = self.demand_w[pos];
                let drawn = self.power_w[i];
                let reduction = if demand <= 0.0 {
                    0.0
                } else {
                    (1.0 - drawn / demand).clamp(0.0, 1.0)
                };
                run.turbo_perf / (1.0 + serverpower::capping_slowdown(reduction))
            })
            .sum();
        sum / sids.len() as f64
    }

    /// Instantaneous fleet statistics. While the power cache is clean
    /// this is O(1) in the cap/down tallies (maintained at their
    /// mutation sites) plus one flat sum over the cached watts; the
    /// dirty path falls back to live per-agent scans.
    pub fn stats(&self) -> FleetStats {
        if self.power_dirty {
            return FleetStats {
                capped_servers: self
                    .agents
                    .iter()
                    .filter(|a| a.current_cap().is_some())
                    .count(),
                agents_down: self.agents.iter().filter(|a| !a.is_running()).count(),
                total_power: self.agents.iter().map(|a| a.server().power()).sum(),
            };
        }
        FleetStats {
            capped_servers: self.capped_count,
            agents_down: self.down_count,
            total_power: Power::from_watts(self.total_power_w()),
        }
    }

    /// The flat ascending fold over `power_w` — the total every sample
    /// reports. With fusion on, the fold is *incremental*: it is
    /// memoized against the `(span generation, Σ leaf epoch)` watermark
    /// and only recomputed when some leaf's drawn power actually moved
    /// bits, so a quiescent fleet answers telemetry samples in O(leaves)
    /// instead of O(servers). The cached value is the bit-exact fold it
    /// replaced — every `power_w` mutation provably bumps a leaf epoch,
    /// dirties the cache, or bumps the span generation — so the merged
    /// sample stream is byte-identical to full re-sampling.
    fn total_power_w(&self) -> f64 {
        if !self.fuse || self.leaf_spans.is_empty() {
            return self.power_w.iter().sum();
        }
        let esum: u64 = self.leaf_epoch.iter().sum();
        if self.total_power_valid.load(Ordering::Acquire)
            && self.total_power_gen.load(Ordering::Relaxed) == self.span_generation
            && self.total_power_esum.load(Ordering::Relaxed) == esum
        {
            return f64::from_bits(self.total_power_bits.load(Ordering::Relaxed));
        }
        let sum: f64 = self.power_w.iter().sum();
        self.total_power_valid.store(false, Ordering::Relaxed);
        self.total_power_bits
            .store(sum.to_bits(), Ordering::Relaxed);
        self.total_power_gen
            .store(self.span_generation, Ordering::Relaxed);
        self.total_power_esum.store(esum, Ordering::Relaxed);
        self.total_power_valid.store(true, Ordering::Release);
        sum
    }

    /// Periodic full-refresh hook for the incremental telemetry fold:
    /// drops the memoized total so the next sample recomputes it from
    /// the flat array. Called by the datacenter on a fixed cadence of
    /// telemetry samples; in debug builds it first cross-checks that
    /// the memo had not drifted from the array.
    pub(crate) fn refresh_total_power(&self) {
        let esum: u64 = self.leaf_epoch.iter().sum();
        if self.total_power_valid.load(Ordering::Acquire)
            && !self.power_dirty
            && self.total_power_gen.load(Ordering::Relaxed) == self.span_generation
            && self.total_power_esum.load(Ordering::Relaxed) == esum
        {
            debug_assert_eq!(
                self.total_power_bits.load(Ordering::Relaxed),
                self.power_w.iter().sum::<f64>().to_bits(),
                "incremental total-power fold drifted from the flat array"
            );
        }
        self.total_power_valid.store(false, Ordering::Relaxed);
    }

    /// The worst-case per-tick DRAM roofline, fused and unfused — see
    /// [`TickTraffic`]. Every term is derived from the live allocation
    /// lengths of the arrays the corresponding pass actually streams.
    pub fn bytes_per_tick(&self) -> TickTraffic {
        const F64: u64 = 8;
        const U32: u64 = 4;
        let n = self.agents.len() as u64;
        let leaves = self.leaf_spans.len().max(1) as u64;
        let mask_bytes =
            (self.not_init_bits.len() + self.alive_bits.len() + self.settled_bits.len()) as u64 * 8;
        // The settle stride: demand/limit gathered, out/util read and
        // rewritten, the packed masks tested, and the result scattered
        // into id-ordered `power_w` through `perm`.
        let settle = (self.demand_w.len() + self.limit_w.len()) as u64 * F64
            + (self.out_w.len() + self.util.len()) as u64 * 2 * F64
            + self.perm.len() as u64 * U32
            + self.power_w.len() as u64 * F64
            + mask_bytes;
        // Per-leaf partial sums, written once per step either way.
        let partials = self.leaf_power_w.len() as u64 * F64;
        // Unfused-only re-streams: the control-tick sync pass gathers
        // `util`/`out_w` through `perm` into the agent models, absorb
        // re-reads `limit_w`, and every telemetry sample folds the
        // whole of `power_w` flat.
        let control_sync = (self.util.len() + self.out_w.len()) as u64 * F64
            + self.perm.len() as u64 * U32
            + n * F64; // agent-model writeback, one hot f64 per server
        let absorb = self.limit_w.len() as u64 * F64;
        let telemetry_fold = self.power_w.len() as u64 * F64;
        // Fused: one pass over the hot set (sync/absorb ride the
        // leaf's resident span, telemetry partials ride the tile) plus
        // the memoized fold's O(leaves) epoch walk.
        TickTraffic {
            fused: settle + partials + leaves * F64,
            unfused: settle + partials + control_sync + absorb + telemetry_fold,
        }
    }

    /// Iterates `(server_id, service)` pairs.
    pub fn iter_services(&self) -> impl Iterator<Item = (u32, ServiceKind)> + '_ {
        self.services
            .iter()
            .enumerate()
            .map(|(i, &k)| (i as u32, k))
    }

    /// Captures the fleet's dynamic state for a snapshot.
    ///
    /// Must be called at a tick boundary with a clean power cache: the
    /// SoA arrays are the authority then, and the flush markers
    /// describe exactly how coherent the scalar server models are.
    ///
    /// # Panics
    ///
    /// Panics if the power cache is dirty (snapshot between
    /// [`Fleet::agent_mut`] and the next step would lose the
    /// out-of-band mutation).
    pub fn state(&self) -> FleetState {
        assert!(
            !self.power_dirty,
            "fleet snapshot requires a clean power cache (step once after agent_mut)"
        );
        let n = self.agents.len();
        FleetState {
            agents: self.agents.iter().map(|a| a.state()).collect(),
            generators: self.generators.iter().map(|g| g.state()).collect(),
            pending_restarts: self.pending_restarts.clone(),
            rng: self.rng.clone(),
            perm: self.perm.clone(),
            demand_w: self.demand_w.clone(),
            limit_w: self.limit_w.clone(),
            out_w: self.out_w.clone(),
            // Materialize the packed masks back to the f64/bool vectors
            // the VERSION 1 codec carries: the on-disk envelope is
            // byte-identical to the pre-packing layout, so old
            // snapshots restore and new ones replay on old readers.
            not_init: (0..n)
                .map(|pos| if self.not_init_at(pos) { 1.0 } else { 0.0 })
                .collect(),
            alive_m: (0..n)
                .map(|pos| if self.alive_at(pos) { 1.0 } else { 0.0 })
                .collect(),
            util: self.util.clone(),
            power_w: self.power_w.clone(),
            leaf_power_w: self.leaf_power_w.clone(),
            span_generation: self.span_generation,
            tick_index: self.tick_index,
            settled: (0..self.leaf_spans.len())
                .map(|l| self.is_settled(l))
                .collect(),
            last_draw_tick: self.last_draw_tick.clone(),
            leaf_epoch: self.leaf_epoch.clone(),
            flushed_epoch: self.flushed_epoch.clone(),
            flushed_draw: self.flushed_draw.clone(),
            agent_epoch: self.agent_epoch.clone(),
            capped_count: self.capped_count as u64,
            down_count: self.down_count as u64,
        }
    }

    /// Restores dynamic state captured by [`Fleet::state`] into a fleet
    /// rebuilt from the identical configuration (same server configs,
    /// services, leaf spans and seed). The stored permutation must
    /// equal the rebuilt one — a mismatch means the topology or server
    /// mix drifted and the snapshot does not describe this fleet.
    pub fn restore(&mut self, state: &FleetState) -> Result<(), SnapError> {
        let n = self.agents.len();
        if state.agents.len() != n
            || state.generators.len() != n
            || state.perm.len() != n
            || state.demand_w.len() != n
            || state.limit_w.len() != n
            || state.out_w.len() != n
            || state.not_init.len() != n
            || state.alive_m.len() != n
            || state.util.len() != n
            || state.power_w.len() != n
        {
            return Err(SnapError::Corrupt(format!(
                "fleet snapshot server count disagrees with rebuilt fleet of {n}"
            )));
        }
        if state.perm != self.perm {
            return Err(SnapError::Corrupt(
                "fleet snapshot permutation differs from the rebuilt layout \
                 (topology or server mix drifted since the snapshot)"
                    .into(),
            ));
        }
        let leaves = self.leaf_spans.len();
        if state.settled.len() != leaves
            || state.last_draw_tick.len() != leaves
            || state.leaf_epoch.len() != leaves
            || state.flushed_epoch.len() != leaves
            || state.flushed_draw.len() != leaves
            || state.agent_epoch.len() != leaves
            || state.leaf_power_w.len() != self.leaf_power_w.len()
        {
            return Err(SnapError::Corrupt(format!(
                "fleet snapshot leaf count disagrees with rebuilt fleet of {leaves} leaves"
            )));
        }
        for (agent, s) in self.agents.iter_mut().zip(&state.agents) {
            agent.restore(s)?;
        }
        for (gen, s) in self.generators.iter_mut().zip(&state.generators) {
            gen.restore(s)?;
        }
        self.pending_restarts.clone_from(&state.pending_restarts);
        self.rng = state.rng.clone();
        self.demand_w.clone_from(&state.demand_w);
        self.limit_w.clone_from(&state.limit_w);
        self.out_w.clone_from(&state.out_w);
        // Repack the codec's f64 masks into the bit words (the rebuilt
        // region directory already matches: spans and permutation were
        // validated identical above). Every bit is written, so no stale
        // state survives; tail bits stay zero.
        for pos in 0..n {
            self.set_not_init_at(pos, state.not_init[pos] != 0.0);
            self.set_alive_at(pos, state.alive_m[pos] != 0.0);
        }
        self.util.clone_from(&state.util);
        self.power_w.clone_from(&state.power_w);
        self.leaf_power_w.clone_from(&state.leaf_power_w);
        self.span_generation = state.span_generation;
        self.tick_index = state.tick_index;
        for (l, &s) in state.settled.iter().enumerate() {
            self.set_settled(l, s);
        }
        self.last_draw_tick.clone_from(&state.last_draw_tick);
        self.leaf_epoch.clone_from(&state.leaf_epoch);
        self.flushed_epoch.clone_from(&state.flushed_epoch);
        self.flushed_draw.clone_from(&state.flushed_draw);
        self.agent_epoch.clone_from(&state.agent_epoch);
        self.capped_count = state.capped_count as usize;
        self.down_count = state.down_count as usize;
        self.power_dirty = false;
        self.total_power_valid.store(false, Ordering::Relaxed);
        // The cached lane partition is layout-derived and left as is;
        // the next step revalidates it against the pool width.
        Ok(())
    }
}

/// Dynamic state of a [`Fleet`], snapshot-serializable. Everything
/// derivable from configuration (the permutation layout, runs, worker
/// partitions, traffic patterns, LUTs) is rebuilt, not stored; the
/// permutation itself is stored only to *verify* the rebuilt layout
/// matches.
#[derive(Debug, Clone)]
pub struct FleetState {
    /// Per-agent state, server-id order.
    pub agents: Vec<dynamo_agent::AgentState>,
    /// Per-server workload processes, *position* order.
    pub generators: Vec<workloads::WorkloadState>,
    /// Crashed agents pending watchdog restart.
    pub pending_restarts: Vec<(u32, SimTime)>,
    /// Fleet-event RNG stream (crash draws).
    pub rng: SimRng,
    /// Position → id permutation at snapshot time (validation only).
    pub perm: Vec<u32>,
    /// Batch arrays, position order (see the [`Fleet`] field docs).
    pub demand_w: Vec<f64>,
    /// RAPL limits in watts, `+Inf` = uncapped.
    pub limit_w: Vec<f64>,
    /// Settled RAPL output watts.
    pub out_w: Vec<f64>,
    /// First-step flags (1.0 until first live step).
    pub not_init: Vec<f64>,
    /// Liveness mask.
    pub alive_m: Vec<f64>,
    /// Post-clamp demand utilization.
    pub util: Vec<f64>,
    /// True power draw, server-id order.
    pub power_w: Vec<f64>,
    /// Per-leaf power partials.
    pub leaf_power_w: Vec<f64>,
    /// Span registration generation.
    pub span_generation: u64,
    /// Physics ticks completed.
    pub tick_index: u64,
    /// Per-leaf active-set flags.
    pub settled: Vec<bool>,
    /// Per-leaf tick of last demand redraw.
    pub last_draw_tick: Vec<u64>,
    /// Per-leaf power epochs.
    pub leaf_epoch: Vec<u64>,
    /// Per-leaf epoch at last control flush (`u64::MAX` = never).
    pub flushed_epoch: Vec<u64>,
    /// Per-leaf redraw tick at last control flush.
    pub flushed_draw: Vec<u64>,
    /// Per-leaf agent epochs.
    pub agent_epoch: Vec<u64>,
    /// Maintained capped-server tally.
    pub capped_count: u64,
    /// Maintained down-agent tally.
    pub down_count: u64,
}

impl Snapshot for FleetState {
    const KIND: &'static str = "dynamo.FleetState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.agents.len() as u64);
        for a in &self.agents {
            a.encode_body(w);
        }
        w.put_u64(self.generators.len() as u64);
        for g in &self.generators {
            g.encode_body(w);
        }
        w.put_u64(self.pending_restarts.len() as u64);
        for &(sid, at) in &self.pending_restarts {
            w.put_u32(sid);
            w.put_u64(at.as_millis());
        }
        self.rng.encode_body(w);
        w.put_u64(self.perm.len() as u64);
        for &p in &self.perm {
            w.put_u32(p);
        }
        put_f64_slice(w, &self.demand_w);
        put_f64_slice(w, &self.limit_w);
        put_f64_slice(w, &self.out_w);
        put_f64_slice(w, &self.not_init);
        put_f64_slice(w, &self.alive_m);
        put_f64_slice(w, &self.util);
        put_f64_slice(w, &self.power_w);
        put_f64_slice(w, &self.leaf_power_w);
        w.put_u64(self.span_generation);
        w.put_u64(self.tick_index);
        put_bool_slice(w, &self.settled);
        put_u64_slice(w, &self.last_draw_tick);
        put_u64_slice(w, &self.leaf_epoch);
        put_u64_slice(w, &self.flushed_epoch);
        put_u64_slice(w, &self.flushed_draw);
        put_u64_slice(w, &self.agent_epoch);
        w.put_u64(self.capped_count);
        w.put_u64(self.down_count);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n_agents = r.get_u64()? as usize;
        let mut agents = Vec::with_capacity(n_agents.min(1 << 24));
        for _ in 0..n_agents {
            agents.push(dynamo_agent::AgentState::decode_body(r)?);
        }
        let n_gens = r.get_u64()? as usize;
        let mut generators = Vec::with_capacity(n_gens.min(1 << 24));
        for _ in 0..n_gens {
            generators.push(workloads::WorkloadState::decode_body(r)?);
        }
        let n_pending = r.get_u64()? as usize;
        let mut pending_restarts = Vec::with_capacity(n_pending.min(1 << 24));
        for _ in 0..n_pending {
            let sid = r.get_u32()?;
            let at = SimTime::from_millis(r.get_u64()?);
            pending_restarts.push((sid, at));
        }
        let rng = SimRng::decode_body(r)?;
        let n_perm = r.get_u64()? as usize;
        let mut perm = Vec::with_capacity(n_perm.min(1 << 24));
        for _ in 0..n_perm {
            perm.push(r.get_u32()?);
        }
        Ok(FleetState {
            agents,
            generators,
            pending_restarts,
            rng,
            perm,
            demand_w: get_f64_vec(r)?,
            limit_w: get_f64_vec(r)?,
            out_w: get_f64_vec(r)?,
            not_init: get_f64_vec(r)?,
            alive_m: get_f64_vec(r)?,
            util: get_f64_vec(r)?,
            power_w: get_f64_vec(r)?,
            leaf_power_w: get_f64_vec(r)?,
            span_generation: r.get_u64()?,
            tick_index: r.get_u64()?,
            settled: get_bool_vec(r)?,
            last_draw_tick: get_u64_vec(r)?,
            leaf_epoch: get_u64_vec(r)?,
            flushed_epoch: get_u64_vec(r)?,
            flushed_draw: get_u64_vec(r)?,
            agent_epoch: get_u64_vec(r)?,
            capped_count: r.get_u64()?,
            down_count: r.get_u64()?,
        })
    }
}

/// Resolves position `pos` to its `(word, bit)` address under a mask
/// region directory (see [`Fleet::mask_base`]): binary search for the
/// owning region, then offset from its first word.
#[inline]
fn bit_addr(mask_base: &[(usize, usize)], pos: usize) -> (usize, u32) {
    let r = mask_base.partition_point(|&(_, p0)| p0 <= pos) - 1;
    let (w0, p0) = mask_base[r];
    (w0 + (pos - p0) / 64, ((pos - p0) % 64) as u32)
}

/// Reads one packed mask bit at position `pos`.
#[inline]
fn bit_at(mask_base: &[(usize, usize)], bits: &[u64], pos: usize) -> bool {
    let (w, b) = bit_addr(mask_base, pos);
    (bits[w] >> b) & 1 == 1
}

/// The batching key: servers with equal keys share every hoisted
/// constant of the demand loop. Stable-sorting a leaf span by this key
/// groups its servers into maximal runs.
fn run_key(server: &Server, service: ServiceKind) -> (u8, u8, u8, u64, u64) {
    let turbo = server.config().turbo;
    (
        server.config().generation.index() as u8,
        service.index() as u8,
        turbo.is_some() as u8,
        turbo.map_or(0, |t| t.power_factor.to_bits()),
        turbo.map_or(0, |t| t.perf_factor.to_bits()),
    )
}

/// Read-only view of the fleet state the fused control dispatch needs,
/// shareable across workers (`Copy`, all shared borrows). Handed out by
/// [`Fleet::fused_control_parts`] alongside the splittable agent and
/// limit arrays.
#[derive(Clone, Copy)]
pub(crate) struct FuseShared<'a> {
    perm: &'a [u32],
    inv: &'a [u32],
    util: &'a [f64],
    out_w: &'a [f64],
    not_init_bits: &'a [u64],
    mask_base: &'a [(usize, usize)],
    leaf_spans: &'a [Range<usize>],
    leaf_epoch: &'a [u64],
    last_draw: &'a [u64],
    flushed_epoch: &'a [u64],
    flushed_draw: &'a [u64],
}

/// Fused per-leaf server flush: [`Fleet::sync_servers_for_control`]'s
/// body for one leaf, run against a worker's private agent slice
/// immediately before the leaf's RPC cycle (while the leaf's agents
/// are about to be hot anyway — the whole point of the fusion). A leaf
/// whose flush markers match is skipped exactly as the unfused pass
/// would; the markers themselves are updated after the join by
/// [`Fleet::finish_fused_control`], which is equivalent because each
/// due leaf is flushed at most once per control tick.
pub(crate) fn fuse_sync_leaf(
    sh: &FuseShared<'_>,
    leaf: usize,
    agents: &mut [Agent],
    agents_base: usize,
) {
    if sh.flushed_epoch[leaf] == sh.leaf_epoch[leaf] && sh.flushed_draw[leaf] == sh.last_draw[leaf]
    {
        return;
    }
    for pos in sh.leaf_spans[leaf].clone() {
        let id = sh.perm[pos] as usize;
        let initialized = !bit_at(sh.mask_base, sh.not_init_bits, pos);
        agents[id - agents_base].server_mut().sync_physics(
            sh.util[pos],
            sh.out_w[pos],
            initialized,
        );
    }
}

/// Fused per-leaf cap absorb: [`Fleet::absorb_caps`]'s body for one
/// leaf, run right after the leaf's RPC cycle against the worker's
/// private `limit_w` slice (split at the same span boundaries as the
/// agents, so `limit_base == agents_base`). Returns whether any limit
/// bit changed (→ the leaf unsettles) and the signed capped-server
/// delta; both are recorded per leaf and applied serially after the
/// join by [`Fleet::finish_fused_control`], keeping the shared tallies
/// off the worker threads.
pub(crate) fn fuse_absorb_leaf(
    sh: &FuseShared<'_>,
    leaf: usize,
    agents: &[Agent],
    agents_base: usize,
    limit_w: &mut [f64],
    limit_base: usize,
) -> (bool, i64) {
    let mut changed = false;
    let mut delta = 0i64;
    for id in sh.leaf_spans[leaf].clone() {
        let pos = sh.inv[id] as usize;
        let new = agents[id - agents_base]
            .current_cap()
            .map_or(f64::INFINITY, |l| l.as_watts());
        let old = limit_w[pos - limit_base];
        if new.to_bits() != old.to_bits() {
            if new.is_finite() != old.is_finite() {
                delta += if new.is_finite() { 1 } else { -1 };
            }
            limit_w[pos - limit_base] = new;
            changed = true;
        }
    }
    (changed, delta)
}

/// Per-service OU coefficients for this tick length, hoisting the
/// per-step `exp`/`sqrt` out of the inner demand loop.
fn ou_coefficients(dt: SimDuration) -> [OuCoeffs; ServiceKind::COUNT] {
    let mut out = [OuCoeffs {
        decay: 0.0,
        innovation: 0.0,
    }; ServiceKind::COUNT];
    for kind in ServiceKind::all() {
        out[kind.index()] = OuCoeffs::for_kind(kind, dt);
    }
    out
}

/// Per-tick constants of the physics step, shared read-only by every
/// lane's job.
struct StepCtx<'a> {
    /// Maximal equal-key position ranges with hoisted loop constants.
    runs: &'a [Run],
    /// Position → server id.
    perm: &'a [u32],
    /// Per-service traffic multipliers at `now`.
    mults: [f64; ServiceKind::COUNT],
    /// Per-service static utilization clamps.
    caps: [Option<f64>; ServiceKind::COUNT],
    /// Per-service OU coefficients for a single-tick step.
    ou: [OuCoeffs; ServiceKind::COUNT],
    /// Settle coefficient for a single-tick step.
    alpha: f64,
    now: SimTime,
    dt: SimDuration,
    /// Tick index of this step; with `hold`, drives the leaf-phased
    /// redraw schedule (a pure function of `(tick, leaf index, hold)`,
    /// so the schedule is identical at any worker count).
    tick: u64,
    /// Demand redraw period in ticks (1 = redraw every tick).
    hold: u64,
    /// Fused-step tile size in servers ([`FUSE_TILE`] with fusion on,
    /// `usize::MAX` — whole-span passes — with fusion off). Always a
    /// multiple of 64; tiling is unobservable because every pass is
    /// elementwise and the per-leaf folds run after all tiles.
    tile: usize,
}

/// Draws fresh demand for the local subrange `a..b`: per-run workload
/// draw → static clamp into `util`, then the batched LUT evaluation and
/// (per turbo run) the batched turbo premium — the vector passes feeding
/// [`kernel::step_batch`], each bit-identical to its scalar form.
///
/// `elapsed` is the tick count since this span's last redraw; held
/// redraws integrate the skipped interval by scaling the workload step
/// to `dt * elapsed` (OU coefficients recomputed for the longer step).
/// `elapsed == 1` reuses the hoisted per-tick coefficients and is
/// bit-identical to the always-redraw demand pass.
#[allow(clippy::too_many_arguments)]
fn demand_pass(
    ctx: &StepCtx,
    base: usize,
    a: usize,
    b: usize,
    generators: &mut [ServiceWorkload],
    util: &mut [f64],
    demand_w: &mut [f64],
    elapsed: u64,
) {
    let dt_eff = ctx.dt * elapsed;
    let (glo, ghi) = (base + a, base + b);
    let first = ctx.runs.partition_point(|r| r.range.end <= glo);
    for run in &ctx.runs[first..] {
        if run.range.start >= ghi {
            break;
        }
        let ra = run.range.start.max(glo) - base;
        let rb = run.range.end.min(ghi) - base;
        let k = run.svc as usize;
        let mult = ctx.mults[k];
        // `min(1.0)` is a bitwise no-op on the workload's `[0.02, 1.0]`
        // output, so "no static cap" needs no branch in the loop.
        let cap = ctx.caps[k].unwrap_or(1.0);
        let oc = if elapsed == 1 {
            ctx.ou[k]
        } else {
            OuCoeffs::for_kind(ServiceKind::all()[k], dt_eff)
        };
        for j in ra..rb {
            util[j] = generators[j]
                .utilization_with(ctx.now, mult, dt_eff, oc)
                .min(cap);
        }
        run.lut.power_batch_w(&util[ra..rb], &mut demand_w[ra..rb]);
        if run.turbo {
            kernel::turbo_demand_batch(&mut demand_w[ra..rb], run.idle_w, run.turbo_pf);
        }
    }
}

/// Scatters drawn power (`out_w * alive`) for the local subrange `a..b`
/// back to id order, reading liveness from the packed words.
/// `alive_words[0]` must hold element `a`'s bit at bit 0 (tile starts
/// are word-aligned). `(bit as f64)` is exactly `0.0`/`1.0`, the same
/// multiplicand the f64 mask carried — bit-identical. Leaf alignment
/// guarantees `perm` maps the range onto itself, so the scatter stays
/// within the local `power_w` view.
fn scatter_power(
    perm: &[u32],
    base: usize,
    a: usize,
    b: usize,
    alive_words: &[u64],
    out_w: &[f64],
    power_w: &mut [f64],
) {
    for j in a..b {
        let k = j - a;
        let alive = ((alive_words[k / 64] >> (k % 64)) & 1) as f64;
        power_w[perm[base + j] as usize - base] = out_w[j] * alive;
    }
}

/// Advances a contiguous position range of servers with no leaf
/// structure, tile-at-a-time: per [`StepCtx::tile`]-sized tile, one
/// demand pass, one packed-mask settle pass, one scatter — the tile's
/// slices stay cache-hot across all three instead of each pass
/// re-streaming the whole range from DRAM. The path for fleets without
/// leaf spans (demand hold and active-set skipping require spans);
/// `base` must be a multiple of 64 so local words align with positions.
#[allow(clippy::too_many_arguments)]
fn step_range(
    ctx: &StepCtx,
    base: usize,
    generators: &mut [ServiceWorkload],
    util: &mut [f64],
    demand_w: &mut [f64],
    limit_w: &[f64],
    alive_bits: &[u64],
    not_init_bits: &mut [u64],
    out_w: &mut [f64],
    power_w: &mut [f64],
) {
    let n = generators.len();
    let mut t0 = 0;
    while t0 < n {
        let t1 = t0.saturating_add(ctx.tile).min(n);
        demand_pass(ctx, base, t0, t1, generators, util, demand_w, 1);
        let (wa, wb) = (t0 / 64, t1.div_ceil(64));
        kernel::step_batch_settled_bits(
            &demand_w[t0..t1],
            &limit_w[t0..t1],
            &alive_bits[wa..wb],
            &mut not_init_bits[wa..wb],
            &mut out_w[t0..t1],
            ctx.alpha,
        );
        scatter_power(ctx.perm, base, t0, t1, &alive_bits[wa..wb], out_w, power_w);
        t0 = t1;
    }
}

/// Advances a contiguous range of whole leaves, the active-set hot
/// path. Per leaf:
///
/// 1. **Skip check** — a leaf that is settled (its last pass was a
///    fixed point) and not due for a redraw is skipped outright: its
///    next pass is provably the exact floating-point identity, so its
///    arrays, drawn power, and partial already hold the step's result.
/// 2. **Tiles** — the leaf is walked in [`StepCtx::tile`]-sized,
///    word-aligned tiles; per tile the demand redraw (when due under
///    the leaf-phased hold schedule, with the elapsed interval folded
///    into `dt`), the packed-mask settle kernel, and the power scatter
///    run back-to-back while the tile is cache-hot. Tiling is
///    unobservable: every pass is elementwise, so the bits match the
///    whole-leaf passes exactly.
/// 3. **Publish** — after all tiles, the leaf partial is re-folded in
///    id order over the whole span (same ascending fold as always —
///    fusing it into the permuted scatter would change association),
///    the leaf's settled flag becomes the AND of its tiles' fixed-point
///    reports, and the leaf epoch is bumped iff any tile changed state
///    bits.
///
/// All slice arguments from `generators` on are local views of the
/// worker's position range starting at `base`, except the mask words:
/// `alive_bits`/`not_init_bits` are the worker's word range and
/// `word_base` the matching global directory entries
/// (`spans.len() + 1` of them), from which each leaf's local word
/// offset is derived. `spans` hold global server-id ranges, `leaf_base`
/// the global index of `spans[0]`.
#[allow(clippy::too_many_arguments)]
fn step_leaves(
    ctx: &StepCtx,
    base: usize,
    leaf_base: usize,
    spans: &[Range<usize>],
    generators: &mut [ServiceWorkload],
    util: &mut [f64],
    demand_w: &mut [f64],
    limit_w: &[f64],
    alive_bits: &[u64],
    not_init_bits: &mut [u64],
    word_base: &[(usize, usize)],
    out_w: &mut [f64],
    power_w: &mut [f64],
    leaf_power_w: &mut [f64],
    settled: &mut [bool],
    last_draw: &mut [u64],
    leaf_epoch: &mut [u64],
) {
    let w_org = word_base[0].0;
    for (l, span) in spans.iter().enumerate() {
        let due = ctx.hold <= 1 || ctx.tick % ctx.hold == (leaf_base + l) as u64 % ctx.hold;
        if settled[l] && !due {
            continue;
        }
        let (a, b) = (span.start - base, span.end - base);
        let elapsed = if due {
            let e = (ctx.tick - last_draw[l]).max(1);
            last_draw[l] = ctx.tick;
            e
        } else {
            0
        };
        let lw = word_base[l].0 - w_org;
        let mut fixed = true;
        let mut t0 = a;
        while t0 < b {
            let t1 = t0.saturating_add(ctx.tile).min(b);
            if due {
                demand_pass(ctx, base, t0, t1, generators, util, demand_w, elapsed);
            }
            let (wa, wb) = (lw + (t0 - a) / 64, lw + (t1 - a).div_ceil(64));
            fixed &= kernel::step_batch_settled_bits(
                &demand_w[t0..t1],
                &limit_w[t0..t1],
                &alive_bits[wa..wb],
                &mut not_init_bits[wa..wb],
                &mut out_w[t0..t1],
                ctx.alpha,
            );
            scatter_power(ctx.perm, base, t0, t1, &alive_bits[wa..wb], out_w, power_w);
            t0 = t1;
        }
        leaf_power_w[l] = power_w[a..b].iter().sum();
        settled[l] = fixed;
        if !fixed {
            leaf_epoch[l] += 1;
        }
    }
}

/// Rebuilds per-leaf power partials from the flat watts array. `base`
/// is the server id of `power_w[0]`; `spans` hold global server-id
/// ranges. Each partial is the ascending flat fold over its span — the
/// same additions, in the same order, at any worker count.
fn leaf_partials(power_w: &[f64], base: usize, spans: &[Range<usize>], out: &mut [f64]) {
    for (partial, span) in out.iter_mut().zip(spans) {
        *partial = power_w[span.start - base..span.end - base].iter().sum();
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("servers", &self.agents.len())
            .field("crash_rate_per_hour", &self.crash_rate_per_hour)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serverpower::ServerGeneration;

    fn small_fleet(n: usize, kind: ServiceKind) -> Fleet {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); n];
        let services = vec![kind; n];
        Fleet::new(configs, services, SimRng::seed_from(11))
    }

    fn run(fleet: &mut Fleet, secs: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for _ in 0..secs {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        t
    }

    #[test]
    fn servers_draw_power_after_stepping() {
        let mut fleet = small_fleet(8, ServiceKind::Web);
        run(&mut fleet, 10);
        for i in 0..8 {
            assert!(fleet.power_of(i).as_watts() > 90.0, "server {i} idle");
        }
        let total = fleet.stats().total_power;
        assert!(
            (total - fleet.power_sum(&(0..8).collect::<Vec<_>>()))
                .abs()
                .as_watts()
                < 1e-9
        );
    }

    #[test]
    fn per_service_power_split_sums_to_total() {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); 6];
        let services = vec![
            ServiceKind::Web,
            ServiceKind::Web,
            ServiceKind::Cache,
            ServiceKind::Cache,
            ServiceKind::NewsFeed,
            ServiceKind::NewsFeed,
        ];
        let mut fleet = Fleet::new(configs, services, SimRng::seed_from(3));
        run(&mut fleet, 10);
        let all: Vec<u32> = (0..6).collect();
        let split: Power = [ServiceKind::Web, ServiceKind::Cache, ServiceKind::NewsFeed]
            .iter()
            .map(|&k| fleet.power_sum_of_service(&all, k))
            .sum();
        assert!((split - fleet.power_sum(&all)).abs().as_watts() < 1e-9);
    }

    #[test]
    fn static_util_cap_lowers_power() {
        let mut capped = small_fleet(10, ServiceKind::Hadoop);
        capped.set_static_util_cap(ServiceKind::Hadoop, Some(0.3));
        run(&mut capped, 30);
        let mut free = small_fleet(10, ServiceKind::Hadoop);
        run(&mut free, 30);
        assert!(
            capped.stats().total_power < free.stats().total_power * 0.85,
            "clamp had no effect: {} vs {}",
            capped.stats().total_power,
            free.stats().total_power
        );
    }

    #[test]
    fn traffic_pattern_modulates_demand() {
        let mut fleet = small_fleet(10, ServiceKind::Web);
        fleet.set_traffic(ServiceKind::Web, TrafficPattern::flat(0.4));
        run(&mut fleet, 30);
        let low = fleet.stats().total_power;
        let mut busy = small_fleet(10, ServiceKind::Web);
        busy.set_traffic(ServiceKind::Web, TrafficPattern::flat(1.3));
        run(&mut busy, 30);
        assert!(busy.stats().total_power > low * 1.1);
    }

    #[test]
    fn crashes_and_watchdog_restarts() {
        let mut fleet = small_fleet(50, ServiceKind::Web);
        fleet.set_crash_rate(3600.0); // ~1 per server-second: crash storm
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        assert!(fleet.stats().agents_down > 0, "no crashes observed");
        // Stop crashing; watchdog (30 s) brings everyone back.
        fleet.set_crash_rate(0.0);
        for _ in 0..40 {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        assert_eq!(
            fleet.stats().agents_down,
            0,
            "watchdog failed to restart agents"
        );
    }

    #[test]
    fn capped_server_count_tracks_rapl() {
        let mut fleet = small_fleet(4, ServiceKind::Web);
        run(&mut fleet, 5);
        assert_eq!(fleet.stats().capped_servers, 0);
        fleet
            .agent_mut(2)
            .server_mut()
            .rapl_mut()
            .set_limit(Power::from_watts(150.0));
        assert_eq!(fleet.stats().capped_servers, 1);
    }

    fn mixed_fleet(seed: u64) -> Fleet {
        let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); 200];
        let services: Vec<ServiceKind> = (0..200).map(|i| ServiceKind::all()[i % 6]).collect();
        Fleet::new(configs, services, SimRng::seed_from(seed))
    }

    #[test]
    fn pooled_step_matches_width_one() {
        let mut serial = mixed_fleet(78);
        let mut pooled = mixed_fleet(78);
        pooled.attach_pool(Arc::new(WorkerPool::new(4)));
        let mut t = SimTime::ZERO;
        for _ in 0..30 {
            serial.step(t, SimDuration::from_secs(1));
            pooled.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                serial.power_of(i).as_watts(),
                pooled.power_of(i).as_watts(),
                "server {i} diverged between width 1 and width 4"
            );
        }
    }

    #[test]
    fn pooled_step_with_leaf_spans_maintains_partials() {
        let mut fleet = mixed_fleet(79);
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        fleet.set_leaf_spans(&spans);
        fleet.attach_pool(Arc::new(WorkerPool::new(3)));
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for (l, span) in spans.iter().enumerate() {
            let ids: Vec<u32> = (span.start as u32..span.end as u32).collect();
            assert_eq!(
                fleet.leaf_power(l).expect("partials maintained").as_watts(),
                fleet.power_sum(&ids).as_watts(),
                "leaf {l} partial drifted from its span sum"
            );
        }
    }

    #[test]
    fn batched_permutation_is_observationally_invisible() {
        // With leaf spans, servers are regrouped by (generation,
        // service, turbo) internally. Per-server RNG streams make the
        // evaluation order unobservable: every per-id result must be
        // bit-identical to the unpermuted (no spans) fleet.
        let mut plain = mixed_fleet(80);
        let mut grouped = mixed_fleet(80);
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        grouped.set_leaf_spans(&spans);
        let mut t = SimTime::ZERO;
        for _ in 0..25 {
            plain.step(t, SimDuration::from_secs(1));
            grouped.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                plain.power_of(i).as_watts(),
                grouped.power_of(i).as_watts(),
                "server {i} diverged under batching permutation"
            );
            assert_eq!(
                plain.utilization_of(i),
                grouped.utilization_of(i),
                "server {i} utilization diverged under batching permutation"
            );
        }
    }

    #[test]
    fn regrouping_mid_run_preserves_state() {
        // set_leaf_spans after stepping must carry all physics state
        // through the permutation rebuild.
        let mut plain = mixed_fleet(81);
        let mut regrouped = mixed_fleet(81);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            plain.step(t, SimDuration::from_secs(1));
            regrouped.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        regrouped.set_leaf_spans(&spans);
        for _ in 0..10 {
            plain.step(t, SimDuration::from_secs(1));
            regrouped.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                plain.power_of(i).as_watts(),
                regrouped.power_of(i).as_watts(),
                "server {i} diverged after mid-run regrouping"
            );
        }
    }

    #[test]
    fn agent_mut_falls_back_to_live_reads_until_next_step() {
        let mut fleet = small_fleet(8, ServiceKind::Web);
        run(&mut fleet, 10);
        let before = fleet.power_of(3);
        assert!(before.as_watts() > 0.0);
        fleet.agent_mut(3).server_mut().set_alive(false);
        // Dirty cache: the query must see the live (dead) server.
        assert_eq!(fleet.power_of(3), Power::ZERO);
        assert_eq!(fleet.power_sum(&[3]), Power::ZERO);
        run(&mut fleet, 1);
        assert_eq!(fleet.power_of(3), Power::ZERO);
    }

    #[test]
    fn agent_mut_flush_exposes_fresh_state() {
        // The scalar server models are stale while the arrays own the
        // physics; agent_mut must flush before handing out the borrow.
        let mut fleet = small_fleet(8, ServiceKind::Web);
        run(&mut fleet, 10);
        let cached = fleet.power_of(5);
        let live = fleet.agent_mut(5).server().power();
        assert_eq!(cached, live, "flush must reveal the batch-owned state");
    }

    #[test]
    fn set_server_alive_keeps_cache_exact() {
        let mut fleet = small_fleet(8, ServiceKind::Web);
        let spans = vec![0..4, 4..8];
        fleet.set_leaf_spans(&spans);
        run(&mut fleet, 10);
        let leaf0_before = fleet.leaf_power(0).unwrap();
        fleet.set_server_alive(1, false);
        assert_eq!(fleet.power_of(1), Power::ZERO);
        let leaf0_after = fleet.leaf_power(0).expect("cache stays clean");
        assert!(leaf0_after < leaf0_before);
        let ids: Vec<u32> = (0..4).collect();
        assert_eq!(leaf0_after.as_watts(), fleet.power_sum(&ids).as_watts());
        fleet.set_server_alive(1, true);
        assert!(fleet.power_of(1).as_watts() > 0.0);
    }

    /// A 200-server, 4-leaf mixed fleet with a demand-hold period — the
    /// configuration where active-set skipping can actually engage.
    fn spanned_fleet(seed: u64, hold: u32) -> Fleet {
        let mut fleet = mixed_fleet(seed);
        let spans: Vec<Range<usize>> = (0..4).map(|l| l * 50..(l + 1) * 50).collect();
        fleet.set_leaf_spans(&spans);
        fleet.set_demand_hold(hold);
        fleet
    }

    #[test]
    fn active_set_skipping_is_bit_identical_to_full_compute() {
        // `skipping` runs the real active-set path; `full` has its
        // settled flags force-cleared before every tick, so every leaf
        // recomputes every step. Identical bits across a run spanning
        // every mutation site prove a skipped pass truly is the FP
        // identity.
        let mut skipping = spanned_fleet(90, 30);
        let mut full = spanned_fleet(90, 30);
        let mut t = SimTime::ZERO;
        let mut max_settled = 0;
        for step in 0..400u64 {
            full.clear_settled();
            if step == 120 {
                for f in [&mut skipping, &mut full] {
                    f.set_traffic(ServiceKind::Web, TrafficPattern::flat(2.0));
                }
            }
            if step == 200 {
                for f in [&mut skipping, &mut full] {
                    f.set_server_alive(17, false);
                }
            }
            if step == 260 {
                for f in [&mut skipping, &mut full] {
                    f.set_server_alive(17, true);
                }
            }
            if step == 300 {
                for f in [&mut skipping, &mut full] {
                    f.fused_control_parts().0[60]
                        .server_mut()
                        .rapl_mut()
                        .set_limit(Power::from_watts(140.0));
                    f.absorb_caps(&[1]);
                }
            }
            skipping.step(t, SimDuration::from_secs(1));
            full.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
            max_settled = max_settled.max(skipping.settled_leaf_count());
            for i in 0..200 {
                assert_eq!(
                    skipping.power_of(i).as_watts().to_bits(),
                    full.power_of(i).as_watts().to_bits(),
                    "server {i} diverged under active-set skipping at step {step}"
                );
            }
        }
        for l in 0..4 {
            assert_eq!(
                skipping.leaf_power(l).unwrap().as_watts().to_bits(),
                full.leaf_power(l).unwrap().as_watts().to_bits(),
                "leaf {l} partial diverged under active-set skipping"
            );
        }
        assert!(max_settled > 0, "skipping never engaged: vacuous test");
    }

    #[test]
    fn demand_hold_is_bit_identical_across_thread_counts() {
        let mut serial = spanned_fleet(91, 30);
        let mut pooled2 = spanned_fleet(91, 30);
        let mut pooled8 = spanned_fleet(91, 30);
        let mut pooled64 = spanned_fleet(91, 30);
        pooled2.attach_pool(Arc::new(WorkerPool::new(2)));
        pooled8.attach_pool(Arc::new(WorkerPool::new(8)));
        pooled64.attach_pool(Arc::new(WorkerPool::new(64)));
        let mut t = SimTime::ZERO;
        for _ in 0..150 {
            for fleet in [&mut serial, &mut pooled2, &mut pooled8, &mut pooled64] {
                fleet.step(t, SimDuration::from_secs(1));
            }
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            let s = serial.power_of(i).as_watts().to_bits();
            assert_eq!(s, pooled2.power_of(i).as_watts().to_bits(), "server {i} @2");
            assert_eq!(s, pooled8.power_of(i).as_watts().to_bits(), "server {i} @8");
            assert_eq!(
                s,
                pooled64.power_of(i).as_watts().to_bits(),
                "server {i} @64"
            );
        }
    }

    #[test]
    fn settled_leaf_reenters_active_set_on_every_mutation_site() {
        let mut fleet = spanned_fleet(92, 50);
        let mut t = SimTime::ZERO;
        let tick = |f: &mut Fleet, t: &mut SimTime| {
            f.step(*t, SimDuration::from_secs(1));
            *t += SimDuration::from_secs(1);
        };
        // Warm up past each leaf's first redraw (ticks 0..3) and well
        // into the hold window: everything settles.
        for _ in 0..40 {
            tick(&mut fleet, &mut t);
        }
        assert_eq!(fleet.settled_leaf_count(), 4, "fleet failed to settle");

        // Crash: immediate zero draw, leaf unsettled, epoch bumped.
        let epoch0 = fleet.leaf_epoch[0];
        fleet.set_server_alive(0, false);
        assert_eq!(fleet.power_of(0), Power::ZERO);
        assert!(!fleet.is_settled(0), "crash must unsettle its leaf");
        assert_eq!(fleet.leaf_epoch[0], epoch0 + 1);
        tick(&mut fleet, &mut t);

        // Revive: draw returns to the retained actuator output.
        fleet.set_server_alive(0, true);
        assert!(!fleet.is_settled(0), "revive must unsettle its leaf");
        assert!(fleet.power_of(0).as_watts() > 0.0);

        // RAPL limit change via the controller absorb path: leaf 1
        // unsettles and its power settles down toward the cap.
        for _ in 0..10 {
            tick(&mut fleet, &mut t);
        }
        let before_cap = fleet.leaf_power(1).unwrap();
        for id in 50..100 {
            fleet.fused_control_parts().0[id]
                .server_mut()
                .rapl_mut()
                .set_limit(Power::from_watts(130.0));
        }
        fleet.absorb_caps(&[1]);
        assert!(!fleet.is_settled(1), "cap change must unsettle its leaf");
        for _ in 0..15 {
            tick(&mut fleet, &mut t);
        }
        assert!(
            fleet.leaf_power(1).unwrap() < before_cap * 0.95,
            "cap never bit: {} vs {}",
            fleet.leaf_power(1).unwrap(),
            before_cap
        );

        // Demand spike: a settled leaf reacts at its next due redraw.
        // Leaf 1 is the exception that proves the model: its servers
        // are capped at 130 W and the snap band parked them *exactly*
        // on the cap, so a spike above the cap leaves the clamped
        // target — and therefore the leaf's power bits — unchanged.
        fleet.set_traffic(ServiceKind::Web, TrafficPattern::flat(3.0));
        let before_spike: Vec<u64> = fleet.leaf_epoch.clone();
        for _ in 0..55 {
            tick(&mut fleet, &mut t);
        }
        for l in [0, 2, 3] {
            assert!(
                fleet.leaf_epoch[l] > before_spike[l],
                "leaf {l} never reacted to the traffic spike"
            );
        }
        assert_eq!(
            fleet.leaf_epoch[1], before_spike[1],
            "cap-clamped leaf must stay at its fixed point through the spike"
        );
        assert_eq!(
            fleet.leaf_power(1).unwrap(),
            Power::from_watts(130.0) * 50.0
        );

        // Out-of-band mutation (the path a turbo flip would take):
        // agent_mut dirties the cache; the next step resyncs and bumps
        // every epoch.
        for _ in 0..60 {
            tick(&mut fleet, &mut t);
        }
        let before_oob: Vec<u64> = fleet.leaf_epoch.clone();
        fleet.agent_mut(150).server_mut().set_alive(false);
        tick(&mut fleet, &mut t);
        for (l, &before) in before_oob.iter().enumerate() {
            assert!(
                fleet.leaf_epoch[l] > before,
                "leaf {l} epoch must bump after out-of-band mutation"
            );
        }
        assert_eq!(fleet.power_of(150), Power::ZERO);
    }

    #[test]
    fn hold_one_is_bit_identical_to_always_redraw() {
        // The default hold of 1 must reproduce the pre-active-set model
        // exactly; `clear_settled` turns the skip logic off wholesale.
        let mut held = spanned_fleet(93, 1);
        let mut reference = spanned_fleet(93, 1);
        let mut t = SimTime::ZERO;
        for _ in 0..60 {
            reference.clear_settled();
            held.step(t, SimDuration::from_secs(1));
            reference.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
        }
        for i in 0..200 {
            assert_eq!(
                held.power_of(i).as_watts().to_bits(),
                reference.power_of(i).as_watts().to_bits(),
                "server {i} diverged at hold=1"
            );
        }
    }

    #[test]
    #[should_panic(expected = "demand hold")]
    fn zero_demand_hold_panics() {
        small_fleet(1, ServiceKind::Web).set_demand_hold(0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_construction_panics() {
        Fleet::new(
            vec![ServerConfig::new(ServerGeneration::Haswell2015)],
            vec![],
            SimRng::seed_from(1),
        );
    }

    #[test]
    #[should_panic(expected = "static util cap")]
    fn invalid_static_cap_panics() {
        small_fleet(1, ServiceKind::Web).set_static_util_cap(ServiceKind::Web, Some(0.0));
    }
}
