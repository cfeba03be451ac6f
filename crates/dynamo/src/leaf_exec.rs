//! The leaf controller tier: one [`LeafController`] per RPP, and the
//! one dispatch path that runs its due cycles.
//!
//! Only the leaves the [`crate::events::CycleDispatcher`] marked due
//! this tick run. The dispatch mirrors the paper's consolidated binary
//! running ~100 controller threads (§IV): each pool lane owns a private
//! disjoint `&mut [Agent]` slice of the fleet and every leaf's RPC RNG
//! stream is its own, so each cycle computes the same thing at any
//! width; the post-join merge restores leaf-index order, making the
//! whole run bit-identical. Per-lane jobs are stack slots holding
//! disjoint slices of the tier's parallel arrays, so a warm dispatch
//! allocates nothing. Width 1 is the same body as a single job on the
//! calling thread.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use dcsim::snap::{
    get_bool_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice, put_u64_slice,
    SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_agent::Agent;
use dynamo_controller::{
    ControlAction, LeafConfig, LeafController, LeafControllerState, ServerHandle, ServiceClass,
};
use dynobs::{Band, Shard};
use dynpool::{WorkerPool, MAX_WORKERS};
use dynrpc::codec::{self, TelemetryEvent, TelemetryEventKind};
use dynrpc::{Network, NetworkState, Request, RpcError};
use powerinfra::{DeviceId, DeviceLevel, Power, Topology};

use crate::control_plane::SystemConfig;
use crate::events::{ControllerEvent, ControllerEventKind};
use crate::failover::FailoverState;
use crate::fleet::{fuse_absorb_leaf, fuse_sync_leaf, Fleet};
use crate::obs::{band_of, record_leaf_cycle, record_leaf_failover, ObsIds, Observability};

/// The leaf tier as parallel arrays, so cycles can split borrows.
pub(crate) struct LeafTier {
    pub(crate) devices: Vec<DeviceId>,
    pub(crate) controllers: Vec<LeafController>,
    networks: Vec<Network>,
    pub(crate) last_aggregate: Vec<Power>,
    /// Each leaf's contiguous server-id range. The ranges ascend and
    /// tile `0..server_count` in leaf order ([`powerinfra::TopologyBuilder`]
    /// numbers servers that way; [`LeafTier::build`] asserts it), so the
    /// dispatch hands each leaf a private disjoint `&mut [Agent]` slice.
    pub(crate) spans: Vec<Range<usize>>,
    /// Per-leaf event buffers, reused across dispatches (cleared,
    /// capacity kept) and merged in leaf index order after the join.
    event_bufs: Vec<Vec<ControllerEvent>>,
    /// Per-leaf telemetry wire buffers: pool lanes encode their
    /// leaf's cycle events as a [`dynrpc::codec`] telemetry batch and
    /// decode them back inside the shard, so the codec work the
    /// deployed system pays to ship telemetry rides the worker threads
    /// instead of the owner. Reused (cleared, capacity kept).
    wire_bufs: Vec<Vec<u8>>,
    /// Per-leaf decode scratch for the wire round-trip.
    wire_events: Vec<Vec<TelemetryEvent>>,
    /// Planned-peak quotas from topology metadata, by leaf index.
    pub(crate) quotas: Vec<Power>,
    pub(crate) index_of: HashMap<DeviceId, usize>,
    /// Per-leaf quiescence flag: the leaf's last real cycle was a clean
    /// Hold — no pull failures, no active caps, no failover takeover —
    /// so, as long as the fleet-side markers below are unchanged and
    /// the link is lossless, re-running the cycle would observe the
    /// same fleet state and decide Hold again. Cleared by anything that
    /// could change the next decision from outside the fleet: an upper
    /// directive, an operator contract override, a rollout-phase flip,
    /// a primary failover.
    pub(crate) quiet: Vec<bool>,
    /// Fleet markers captured after each leaf's last real cycle
    /// (`u64::MAX` = never ran): power epoch, demand-redraw tick and
    /// agent epoch. See [`LeafTier::filter_quiescent`].
    seen_power_epoch: Vec<u64>,
    seen_draw_tick: Vec<u64>,
    seen_agent_epoch: Vec<u64>,
    /// Per-leaf outputs of the fused dispatch's absorb step — whether
    /// any limit bit changed, and the signed capped-count delta —
    /// recorded by the workers and applied serially after the join by
    /// [`Fleet::finish_fused_control`]. Meaningful only for the leaves
    /// of the last fused dispatch's due set.
    pub(crate) absorb_changed: Vec<bool>,
    pub(crate) absorb_delta: Vec<i64>,
}

impl LeafTier {
    /// Builds one leaf controller per RPP in `topo`, in device order.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no RPP devices.
    pub(crate) fn build(
        topo: &Topology,
        service_of: &dyn Fn(u32) -> ServiceClass,
        config: &SystemConfig,
        rng: &mut SimRng,
    ) -> Self {
        let rpps = topo.devices_at(DeviceLevel::Rpp);
        assert!(!rpps.is_empty(), "topology has no RPPs to protect");

        let mut devices = Vec::new();
        let mut controllers = Vec::new();
        let mut networks = Vec::new();
        let mut index_of = HashMap::new();
        for rpp in rpps {
            let dev = topo.device(rpp);
            let servers: Vec<ServerHandle> = topo
                .servers_under(rpp)
                .into_iter()
                .map(|sid| ServerHandle {
                    server_id: sid,
                    service: service_of(sid),
                })
                .collect();
            let leaf_config = LeafConfig {
                physical_limit: dev.rating,
                bands: config.leaf_bands,
                poll_interval: config.leaf_interval,
                bucket_width: Power::from_watts(20.0),
                max_failure_frac: 0.20,
                non_server_overhead: config.leaf_overhead,
                dry_run: config.dry_run,
            };
            index_of.insert(rpp, controllers.len());
            controllers.push(LeafController::new(dev.name.clone(), leaf_config, servers));
            networks.push(Network::new(config.rpc, rng.split(&dev.name)));
            devices.push(rpp);
        }

        let n = devices.len();
        let quotas: Vec<Power> = devices.iter().map(|&d| topo.device(d).quota).collect();
        let server_ids: Vec<Vec<u32>> = controllers
            .iter()
            .map(|c| c.servers().iter().map(|h| h.server_id).collect())
            .collect();
        let spans = compute_leaf_spans(&server_ids, topo.server_count())
            .expect("leaf server ids must be contiguous ranges tiling the fleet in leaf order");
        LeafTier {
            devices,
            controllers,
            networks,
            last_aggregate: vec![Power::ZERO; n],
            spans,
            event_bufs: vec![Vec::new(); n],
            wire_bufs: vec![Vec::new(); n],
            wire_events: vec![Vec::new(); n],
            quotas,
            index_of,
            quiet: vec![false; n],
            seen_power_epoch: vec![u64::MAX; n],
            seen_draw_tick: vec![u64::MAX; n],
            seen_agent_epoch: vec![u64::MAX; n],
            absorb_changed: vec![false; n],
            absorb_delta: vec![0; n],
        }
    }

    /// Splits `due` into the leaves that must run and the cycles that
    /// can be elided, pushing the former into `out` (cleared first) in
    /// the same ascending order and counting the latter into each
    /// leaf's shard (merged later with the full due list, so the
    /// registry stays bit-identical at any thread count).
    ///
    /// A leaf's cycle is elided only when it is *provably* a no-op
    /// recomputation: the leaf decided a clean Hold last time
    /// ([`LeafTier::quiet`]), its link cannot drop or time out, no
    /// failover is pending, and every fleet-side marker — power epoch,
    /// demand-redraw tick, agent epoch — still reads what the last real
    /// cycle captured. The elided cycle's RPC and sensor-noise RNG
    /// draws are *not* consumed, so elision (like the demand hold that
    /// enables it — with `demand_hold == 1` the redraw tick changes
    /// every tick and nothing ever elides) changes the trajectory
    /// relative to a run without it, while remaining deterministic and
    /// thread-count independent.
    pub(crate) fn filter_quiescent(
        &self,
        due: &[usize],
        fleet: &Fleet,
        failover: &FailoverState,
        obs: &mut Observability,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let power_epochs = fleet.leaf_epochs();
        let draw_ticks = fleet.last_draw_ticks();
        let agent_epochs = fleet.agent_epochs();
        let markers_known = power_epochs.len() == self.len() && !fleet.power_cache_dirty();
        let (shards, ids) = obs.shard_ctx();
        for &i in due {
            let elidable = markers_known
                && self.quiet[i]
                && !failover.leaf_pending(i)
                && self.networks[i].profile().is_lossless()
                && self.seen_power_epoch[i] == power_epochs[i]
                && self.seen_draw_tick[i] == draw_ticks[i]
                && self.seen_agent_epoch[i] == agent_epochs[i];
            if elidable {
                shards[i].inc(ids.leaf_cycles_elided);
            } else {
                out.push(i);
            }
        }
    }

    /// Captures the fleet markers for the leaves that just ran a real
    /// cycle. Call after the dispatch (the control tick does not step
    /// the fleet, so post-dispatch markers equal what the cycles saw).
    pub(crate) fn note_markers(&mut self, ran: &[usize], fleet: &Fleet) {
        let power_epochs = fleet.leaf_epochs();
        let draw_ticks = fleet.last_draw_ticks();
        let agent_epochs = fleet.agent_epochs();
        if power_epochs.len() != self.len() || fleet.power_cache_dirty() {
            return; // Markers unknown: `seen` stays stale, nothing elides.
        }
        for &i in ran {
            self.seen_power_epoch[i] = power_epochs[i];
            self.seen_draw_tick[i] = draw_ticks[i];
            self.seen_agent_epoch[i] = agent_epochs[i];
        }
    }

    /// Number of leaf controllers.
    pub(crate) fn len(&self) -> usize {
        self.controllers.len()
    }

    /// Monitoring-only baseline (capping disabled): no cycle runs. A
    /// pending failover still hands the leaf to its backup; every other
    /// due leaf tracks its true aggregate so upper tiers and telemetry
    /// still see power. The fleet's per-leaf partial (maintained by its
    /// step as the same ascending fold) makes that a single lookup.
    pub(crate) fn monitor_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        failover: &mut FailoverState,
        fleet: &Fleet,
        events: &mut Vec<ControllerEvent>,
        obs: &mut Observability,
    ) {
        let (shards, ids) = obs.shard_ctx();
        for &i in due {
            if failover.take_leaf(i) {
                self.quiet[i] = false;
                let controller = &self.controllers[i];
                let ev = takeover(now, self.devices[i], controller, &mut shards[i], ids, i);
                events.push(ev);
                continue;
            }
            self.last_aggregate[i] = fleet
                .leaf_power(i)
                .unwrap_or_else(|| fleet.power_sum_range(self.spans[i].clone()));
        }
    }

    /// Runs the due leaves' cycles on `pool`. Each lane gets one
    /// stack-slot job holding a contiguous chunk of the due set plus
    /// disjoint `&mut` slices of the tier's parallel arrays (split once
    /// at chunk boundaries), so a warm dispatch allocates nothing.
    /// Lanes consume pending failover flags and buffer events per leaf,
    /// round-tripping them through the telemetry wire format; the merge
    /// after the barrier records failovers and restores leaf index
    /// order, so the result is bit-identical at any width.
    ///
    /// With `fused` set (the fleet is [`Fleet::control_fuse_ready`])
    /// each leaf runs sync → cycle → absorb back to back while its
    /// agents are hot, instead of riding three fleet-wide passes. Legal
    /// because a leaf's flush reads only fleet arrays no cycle writes,
    /// and its absorb touches only its own span — so per-leaf
    /// interleaving computes bit-identical state to the phase-at-a-time
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        fused: bool,
        pool: &WorkerPool,
        failover: &mut FailoverState,
        fleet: &mut Fleet,
        events: &mut Vec<ControllerEvent>,
        obs: &mut Observability,
    ) {
        let spans = &self.spans;
        let per_chunk = due.len().div_ceil(pool.workers().min(due.len()));

        /// One lane's disjoint view of the leaf tier: the arrays are
        /// split at due-chunk boundaries, so slices may include
        /// non-due leaves — the lane walks only its `due` sublist,
        /// indexing relative to `base`.
        struct LeafJob<'a> {
            due: &'a [usize],
            /// Leaf index of element 0 of the sliced arrays.
            base: usize,
            controllers: &'a mut [LeafController],
            networks: &'a mut [Network],
            aggregates: &'a mut [Power],
            failed: &'a mut [bool],
            bufs: &'a mut [Vec<ControllerEvent>],
            wire: &'a mut [Vec<u8>],
            wire_ev: &'a mut [Vec<TelemetryEvent>],
            shards: &'a mut [Shard],
            quiet: &'a mut [bool],
            agents: &'a mut [Agent],
            /// Server id of `agents[0]` (and, the spans being
            /// leaf-aligned, the position of `limit_w[0]`).
            agents_base: usize,
            /// RAPL limit slice covering the same span as `agents`,
            /// written by the fused absorb. Unused when unfused.
            limit_w: &'a mut [f64],
            /// Fused absorb outputs, sliced like `quiet`.
            absorb_changed: &'a mut [bool],
            absorb_delta: &'a mut [i64],
        }

        {
            let devices = &self.devices;
            let (all_shards, ids) = obs.shard_ctx();
            let mut jobs: [Option<LeafJob>; MAX_WORKERS] = std::array::from_fn(|_| None);

            let mut controllers = &mut self.controllers[..];
            let mut networks = &mut self.networks[..];
            let mut aggregates = &mut self.last_aggregate[..];
            let mut failed = &mut failover.leaf_flags_mut()[..];
            let mut bufs = &mut self.event_bufs[..];
            let mut wire = &mut self.wire_bufs[..];
            let mut wire_ev = &mut self.wire_events[..];
            let mut shards = all_shards;
            let mut quiet = &mut self.quiet[..];
            let mut absorb_changed = &mut self.absorb_changed[..];
            let mut absorb_delta = &mut self.absorb_delta[..];
            let (mut agents, mut limits, fsh) = fleet.fused_control_parts();
            let mut leaves_consumed = 0usize;
            let mut agents_consumed = 0usize;
            let mut njobs = 0usize;
            for (job, chunk) in jobs.iter_mut().zip(due.chunks(per_chunk)) {
                let lo = chunk[0];
                let hi = chunk[chunk.len() - 1] + 1;
                let skip = lo - leaves_consumed;
                let take = hi - lo;
                let (c, rest) = controllers.split_at_mut(skip).1.split_at_mut(take);
                controllers = rest;
                let (n, rest) = networks.split_at_mut(skip).1.split_at_mut(take);
                networks = rest;
                let (ag, rest) = aggregates.split_at_mut(skip).1.split_at_mut(take);
                aggregates = rest;
                let (fl, rest) = failed.split_at_mut(skip).1.split_at_mut(take);
                failed = rest;
                let (b, rest) = bufs.split_at_mut(skip).1.split_at_mut(take);
                bufs = rest;
                let (wi, rest) = wire.split_at_mut(skip).1.split_at_mut(take);
                wire = rest;
                let (we, rest) = wire_ev.split_at_mut(skip).1.split_at_mut(take);
                wire_ev = rest;
                let (sh, rest) = shards.split_at_mut(skip).1.split_at_mut(take);
                shards = rest;
                let (q, rest) = quiet.split_at_mut(skip).1.split_at_mut(take);
                quiet = rest;
                let (ac, rest) = absorb_changed.split_at_mut(skip).1.split_at_mut(take);
                absorb_changed = rest;
                let (ad, rest) = absorb_delta.split_at_mut(skip).1.split_at_mut(take);
                absorb_delta = rest;
                leaves_consumed = hi;

                let astart = spans[lo].start;
                let aend = spans[hi - 1].end;
                let (a, rest) = agents
                    .split_at_mut(astart - agents_consumed)
                    .1
                    .split_at_mut(aend - astart);
                agents = rest;
                let (lw, rest) = limits
                    .split_at_mut(astart - agents_consumed)
                    .1
                    .split_at_mut(aend - astart);
                limits = rest;
                agents_consumed = aend;

                *job = Some(LeafJob {
                    due: chunk,
                    base: lo,
                    controllers: c,
                    networks: n,
                    aggregates: ag,
                    failed: fl,
                    bufs: b,
                    wire: wi,
                    wire_ev: we,
                    shards: sh,
                    quiet: q,
                    agents: a,
                    agents_base: astart,
                    limit_w: lw,
                    absorb_changed: ac,
                    absorb_delta: ad,
                });
                njobs += 1;
            }

            pool.run_on(&mut jobs[..njobs], |_w, slot| {
                let job = slot.as_mut().expect("due chunk slot filled above");
                for &i in job.due {
                    let r = i - job.base;
                    job.bufs[r].clear();
                    if fused {
                        fuse_sync_leaf(&fsh, i, job.agents, job.agents_base);
                    }
                    if job.failed[r] {
                        // Backup takes over: one cycle of downtime, then
                        // the redundant instance (sharing the same
                        // decision state via its own polling) continues.
                        job.failed[r] = false;
                        job.quiet[r] = false;
                        let controller = &job.controllers[r];
                        let ev = takeover(now, devices[i], controller, &mut job.shards[r], ids, i);
                        job.bufs[r].push(ev);
                    } else {
                        job.quiet[r] = run_one_leaf_cycle(
                            now,
                            devices[i],
                            &mut job.controllers[r],
                            &mut job.networks[r],
                            job.agents,
                            job.agents_base,
                            &mut job.aggregates[r],
                            &mut job.bufs[r],
                            &mut job.shards[r],
                            ids,
                            i as u32,
                        );
                    }
                    wire_roundtrip_events(
                        &job.controllers[r],
                        &mut job.bufs[r],
                        &mut job.wire[r],
                        &mut job.wire_ev[r],
                    );
                    if fused {
                        let (ch, d) = fuse_absorb_leaf(
                            &fsh,
                            i,
                            job.agents,
                            job.agents_base,
                            job.limit_w,
                            job.agents_base,
                        );
                        job.absorb_changed[r] = ch;
                        job.absorb_delta[r] = d;
                    }
                }
            });
        }
        self.merge_events(due, failover, events);
    }

    /// Captures the tier's dynamic state for a snapshot. Everything
    /// else — devices, quotas, spans, server ids — is topology-derived
    /// and rebuilt from config on restore. Event buffers are drained by
    /// every dispatch, so at a tick boundary they are empty and not
    /// saved.
    pub(crate) fn state(&self) -> LeafTierState {
        LeafTierState {
            controllers: self.controllers.iter().map(|c| c.state()).collect(),
            networks: self.networks.iter().map(|n| n.state()).collect(),
            last_aggregate_w: self.last_aggregate.iter().map(|p| p.as_watts()).collect(),
            quiet: self.quiet.clone(),
            seen_power_epoch: self.seen_power_epoch.clone(),
            seen_draw_tick: self.seen_draw_tick.clone(),
            seen_agent_epoch: self.seen_agent_epoch.clone(),
        }
    }

    /// Restores the tier's dynamic state from a decoded snapshot taken
    /// against an identically-configured control plane.
    pub(crate) fn restore(&mut self, state: &LeafTierState) -> Result<(), SnapError> {
        let n = self.len();
        if state.controllers.len() != n {
            return Err(SnapError::Corrupt(format!(
                "leaf tier snapshot has {} controllers, rebuilt control plane has {}",
                state.controllers.len(),
                n
            )));
        }
        for (c, s) in self.controllers.iter_mut().zip(&state.controllers) {
            c.restore(s)?;
        }
        for (net, s) in self.networks.iter_mut().zip(&state.networks) {
            net.restore(s);
        }
        for (p, &w) in self.last_aggregate.iter_mut().zip(&state.last_aggregate_w) {
            *p = Power::from_watts(w);
        }
        self.quiet.clone_from(&state.quiet);
        self.seen_power_epoch.clone_from(&state.seen_power_epoch);
        self.seen_draw_tick.clone_from(&state.seen_draw_tick);
        self.seen_agent_epoch.clone_from(&state.seen_agent_epoch);
        Ok(())
    }

    /// Deterministic merge after a dispatch: drains per-leaf event
    /// buffers in leaf index order. Failovers are recorded here because
    /// lanes cannot touch the shared counters.
    fn merge_events(
        &mut self,
        due: &[usize],
        failover: &mut FailoverState,
        events: &mut Vec<ControllerEvent>,
    ) {
        for &i in due {
            for event in self.event_bufs[i].drain(..) {
                if matches!(event.kind, ControllerEventKind::Failover) {
                    failover.record_leaf(i);
                }
                events.push(event);
            }
        }
    }
}

/// The leaf tier's dynamic state: controller decision state, RPC RNG
/// streams, last aggregates, and the quiescence markers that drive
/// cycle elision. The markers must round-trip exactly or a resumed run
/// would elide (or re-run) cycles the unbroken run did not.
pub(crate) struct LeafTierState {
    pub(crate) controllers: Vec<LeafControllerState>,
    pub(crate) networks: Vec<NetworkState>,
    pub(crate) last_aggregate_w: Vec<f64>,
    pub(crate) quiet: Vec<bool>,
    pub(crate) seen_power_epoch: Vec<u64>,
    pub(crate) seen_draw_tick: Vec<u64>,
    pub(crate) seen_agent_epoch: Vec<u64>,
}

impl Snapshot for LeafTierState {
    const KIND: &'static str = "dynamo.LeafTierState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.controllers.len() as u64);
        for c in &self.controllers {
            c.encode_body(w);
        }
        w.put_u64(self.networks.len() as u64);
        for n in &self.networks {
            n.encode_body(w);
        }
        put_f64_slice(w, &self.last_aggregate_w);
        put_bool_slice(w, &self.quiet);
        put_u64_slice(w, &self.seen_power_epoch);
        put_u64_slice(w, &self.seen_draw_tick);
        put_u64_slice(w, &self.seen_agent_epoch);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let nc = r.get_u64()? as usize;
        let mut controllers = Vec::with_capacity(nc.min(1 << 20));
        for _ in 0..nc {
            controllers.push(LeafControllerState::decode_body(r)?);
        }
        let nn = r.get_u64()? as usize;
        let mut networks = Vec::with_capacity(nn.min(1 << 20));
        for _ in 0..nn {
            networks.push(NetworkState::decode_body(r)?);
        }
        let state = LeafTierState {
            controllers,
            networks,
            last_aggregate_w: get_f64_vec(r)?,
            quiet: get_bool_vec(r)?,
            seen_power_epoch: get_u64_vec(r)?,
            seen_draw_tick: get_u64_vec(r)?,
            seen_agent_epoch: get_u64_vec(r)?,
        };
        let n = state.controllers.len();
        if state.networks.len() != n
            || state.last_aggregate_w.len() != n
            || state.quiet.len() != n
            || state.seen_power_epoch.len() != n
            || state.seen_draw_tick.len() != n
            || state.seen_agent_epoch.len() != n
        {
            return Err(SnapError::Corrupt(
                "leaf tier snapshot arrays disagree on leaf count".into(),
            ));
        }
        Ok(state)
    }
}

/// One leaf controller cycle against its private agent span.
///
/// `agents` is the lane's slice of agents (covering this leaf's span)
/// and `span_start` the server id of `agents[0]`.
///
/// Returns whether the cycle was *quiescent* — a clean Hold with no
/// pull failures and no caps left active — which is the controller-side
/// half of the elision precondition (see
/// [`LeafTier::filter_quiescent`]).
#[allow(clippy::too_many_arguments)]
fn run_one_leaf_cycle(
    now: SimTime,
    device: DeviceId,
    controller: &mut LeafController,
    network: &mut Network,
    agents: &mut [Agent],
    span_start: usize,
    last_aggregate: &mut Power,
    events: &mut Vec<ControllerEvent>,
    shard: &mut Shard,
    ids: &ObsIds,
    track: u32,
) -> bool {
    let caps_before = controller.active_cap_count();
    let dry_run = controller.config().dry_run;
    let mut pull_rtt = SimDuration::ZERO;
    let mut act_rtt = SimDuration::ZERO;
    // Per-RPC recording runs a couple of thousand times per cycle, so
    // the counters accumulate in locals (one shard add at the end —
    // same totals) and RTTs go through a HistScope, which hoists the
    // shard's per-observation indirections out of the loop. Same
    // slots, same sums, same order: the merged registry stays
    // bit-identical to per-call shard recording.
    let mut rpc_calls = 0u64;
    let mut rpc_agent_down = 0u64;
    let mut rpc_drops = 0u64;
    let mut rpc_timeouts = 0u64;
    let mut rtt_hist = shard.hist_scope(ids.rpc_rtt);
    let outcome = controller.cycle(now, |sid, req| {
        let agent = &mut agents[sid as usize - span_start];
        rpc_calls += 1;
        if !agent.is_running() {
            rpc_agent_down += 1;
            return Err(RpcError::AgentDown);
        }
        let pulling = matches!(req, Request::ReadPower);
        match network.call_with_latency(agent, req) {
            Ok((resp, rtt)) => {
                rtt_hist.observe(rtt.as_secs_f64());
                if pulling {
                    pull_rtt += rtt;
                } else {
                    act_rtt += rtt;
                }
                Ok(resp)
            }
            Err(err) => {
                match err {
                    RpcError::Dropped => rpc_drops += 1,
                    RpcError::Timeout => rpc_timeouts += 1,
                    RpcError::AgentDown => {}
                }
                Err(err)
            }
        }
    });
    drop(rtt_hist);
    shard.add(ids.rpc_calls, rpc_calls);
    shard.add(ids.rpc_agent_down, rpc_agent_down);
    shard.add(ids.rpc_drops, rpc_drops);
    shard.add(ids.rpc_timeouts, rpc_timeouts);
    if let Some(total) = outcome.aggregated {
        *last_aggregate = total;
    }
    shard.inc(ids.leaf_cycles);
    shard.add(ids.pull_failures, outcome.pull_failures as u64);
    shard.add(ids.estimated_readings, outcome.estimated as u64);
    shard.inc(match band_of(&outcome.action) {
        Band::Hold => ids.band_hold,
        Band::Cap => ids.band_cap,
        Band::Uncap => ids.band_uncap,
        Band::Invalid => ids.band_invalid,
    });
    if shard.is_enabled() {
        record_leaf_cycle(
            shard,
            ids,
            now,
            track,
            controller,
            &outcome,
            caps_before,
            dry_run,
            pull_rtt,
            act_rtt,
        );
    }
    let kind = match &outcome.action {
        ControlAction::Capped {
            total_cut,
            commands,
        } => Some(ControllerEventKind::LeafCapped {
            total_cut: *total_cut,
            servers: commands.len(),
        }),
        ControlAction::Uncapped => Some(ControllerEventKind::LeafUncapped),
        ControlAction::Invalid => Some(ControllerEventKind::LeafInvalid {
            failures: outcome.pull_failures,
        }),
        ControlAction::Hold => None,
    };
    if let Some(kind) = kind {
        events.push(ControllerEvent {
            at: now,
            device,
            controller: controller.name_shared(),
            kind,
        });
    }
    matches!(outcome.action, ControlAction::Hold)
        && outcome.pull_failures == 0
        && controller.active_cap_count() == 0
}

/// A primary failure noticed at leaf `track`'s due cycle: the backup
/// takes over, so the cycle is skipped. Records the takeover in the
/// leaf's shard and returns the `Failover` event.
fn takeover(
    now: SimTime,
    device: DeviceId,
    controller: &LeafController,
    shard: &mut Shard,
    ids: &ObsIds,
    track: usize,
) -> ControllerEvent {
    let name = controller.name_shared();
    record_leaf_failover(shard, ids, now, track as u32, Arc::clone(&name));
    ControllerEvent {
        at: now,
        device,
        controller: name,
        kind: ControllerEventKind::Failover,
    }
}

/// One controller event as a wire telemetry event. Lossless: the watt
/// field crosses as the raw `f64` bit pattern and the counts are far
/// below `u32::MAX`, so [`from_wire`] rebuilds an equal event.
fn to_wire(ev: &ControllerEvent) -> TelemetryEvent {
    TelemetryEvent {
        at_ms: ev.at.as_millis(),
        device: ev.device.index() as u32,
        kind: match ev.kind {
            ControllerEventKind::LeafCapped { total_cut, servers } => TelemetryEventKind::Capped {
                cut_watts: total_cut.as_watts(),
                servers: servers as u32,
            },
            ControllerEventKind::LeafUncapped => TelemetryEventKind::Uncapped,
            ControllerEventKind::LeafInvalid { failures } => TelemetryEventKind::Invalid {
                failures: failures as u32,
            },
            ControllerEventKind::UpperCapped { contracts } => TelemetryEventKind::UpperCapped {
                contracts: contracts as u32,
            },
            ControllerEventKind::UpperUncapped => TelemetryEventKind::UpperUncapped,
            ControllerEventKind::Failover => TelemetryEventKind::Failover,
        },
    }
}

/// Rebuilds a controller event from its wire form. Controller identity
/// travels out of band — the batch is per-controller — so the caller
/// passes the leaf's interned name and the rebuild allocates nothing.
fn from_wire(ev: &TelemetryEvent, controller: &Arc<str>) -> ControllerEvent {
    ControllerEvent {
        at: SimTime::from_millis(ev.at_ms),
        device: DeviceId::from_index(ev.device as usize),
        controller: Arc::clone(controller),
        kind: match ev.kind {
            TelemetryEventKind::Capped { cut_watts, servers } => ControllerEventKind::LeafCapped {
                total_cut: Power::from_watts(cut_watts),
                servers: servers as usize,
            },
            TelemetryEventKind::Uncapped => ControllerEventKind::LeafUncapped,
            TelemetryEventKind::Invalid { failures } => ControllerEventKind::LeafInvalid {
                failures: failures as usize,
            },
            TelemetryEventKind::UpperCapped { contracts } => ControllerEventKind::UpperCapped {
                contracts: contracts as usize,
            },
            TelemetryEventKind::UpperUncapped => ControllerEventKind::UpperUncapped,
            TelemetryEventKind::Failover => ControllerEventKind::Failover,
        },
    }
}

/// Round-trips one leaf's freshly-buffered cycle events through the
/// [`dynrpc::codec`] telemetry-batch wire format, inside the pool lane
/// that produced them. The deployed system serializes telemetry off the
/// controller host; doing the encode *and* the decode here keeps that
/// cost on the lanes instead of the serial merge, and proves the format
/// lossless on every event the simulation ever emits. Quiescent leaves emit no
/// events and skip entirely, so the steady state stays allocation-free;
/// churning leaves reuse the warm wire/scratch buffers.
fn wire_roundtrip_events(
    controller: &LeafController,
    buf: &mut Vec<ControllerEvent>,
    wire: &mut Vec<u8>,
    scratch: &mut Vec<TelemetryEvent>,
) {
    if buf.is_empty() {
        return;
    }
    wire.clear();
    scratch.clear();
    for ev in buf.iter() {
        scratch.push(to_wire(ev));
    }
    codec::encode_telemetry_batch_into(wire, scratch);
    scratch.clear();
    codec::decode_telemetry_batch_into(&*wire, scratch)
        .expect("self-encoded telemetry batch must decode");
    let name = controller.name_shared();
    buf.clear();
    for ev in scratch.iter() {
        buf.push(from_wire(ev, &name));
    }
}

/// Computes per-leaf agent spans for the leaf dispatch.
///
/// Returns `Some` only when every leaf's server ids form a contiguous
/// ascending run and the runs tile `0..server_count` in leaf order —
/// the precondition for handing each leaf a disjoint `&mut [Agent]`
/// slice via `split_at_mut`. Topologies built by
/// [`powerinfra::TopologyBuilder`] always satisfy this.
fn compute_leaf_spans(
    leaf_server_ids: &[Vec<u32>],
    server_count: usize,
) -> Option<Vec<Range<usize>>> {
    let mut spans = Vec::with_capacity(leaf_server_ids.len());
    let mut next = 0usize;
    for ids in leaf_server_ids {
        let first = *ids.first()? as usize;
        if first != next {
            return None;
        }
        for (k, &sid) in ids.iter().enumerate() {
            if sid as usize != first + k {
                return None;
            }
        }
        next = first + ids.len();
        spans.push(first..next);
    }
    (next == server_count).then_some(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_require_contiguous_tiling() {
        // Contiguous tiling: spans exist.
        let ok = vec![vec![0, 1, 2], vec![3, 4], vec![5]];
        assert_eq!(compute_leaf_spans(&ok, 6), Some(vec![0..3, 3..5, 5..6]));
        // A gap, an overlap, or a short tiling all disable the path.
        let gap = vec![vec![0, 1], vec![3, 4]];
        assert_eq!(compute_leaf_spans(&gap, 5), None);
        let non_contig = vec![vec![0, 2], vec![1, 3]];
        assert_eq!(compute_leaf_spans(&non_contig, 4), None);
        assert_eq!(compute_leaf_spans(&ok, 7), None);
    }
}
