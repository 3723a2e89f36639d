//! The synchronous lock-step engine.

use std::sync::Arc;

use wakeup_graph::NodeId;

use crate::adversary::WakeSchedule;
use crate::arena::{PayloadArena, PayloadRef};
use crate::bits::{BitStr, DenseBits};
use crate::knowledge::Port;
use crate::message::ChannelModel;
use crate::metrics::{Metrics, RunReport, TICKS_PER_UNIT};
use crate::network::{Network, NodeTables};
use crate::protocol::{Context, Inbox, Incoming, SyncProtocol, WakeCause};

/// Configuration of a [`SyncEngine`] run.
#[derive(Debug, Clone)]
pub struct SyncConfig {
    /// Bandwidth regime.
    pub channel: ChannelModel,
    /// Master seed for the nodes' private randomness.
    pub seed: u64,
    /// Seed of the shared random tape.
    pub shared_seed: u64,
    /// Per-node advice strings from an oracle (None = no advice). Shared via
    /// `Arc` so cached advice is handed to many engines without copying.
    pub advice: Option<Arc<Vec<BitStr>>>,
    /// Safety cap on rounds; exceeding it sets [`RunReport::truncated`].
    pub max_rounds: u64,
    /// Track distinct ports used per node.
    pub track_ports: bool,
    /// Observability recording level (default [`crate::obs::ObsLevel::Full`]
    /// — always on; `Counters` is the overhead-bench baseline).
    pub obs: crate::obs::ObsLevel,
    /// Window spacing of the obs timeline (default log-spaced; ignored at
    /// [`crate::obs::ObsLevel::Counters`], which records no timeline).
    pub obs_windows: crate::obs::WindowCfg,
    /// Count CONGEST violations instead of panicking.
    pub record_congest_violations: bool,
    /// Record a model-conformance [`crate::audit::AuditLog`] with the given
    /// event capacity (`None` = off).
    #[cfg(feature = "audit")]
    pub audit_capacity: Option<usize>,
    /// Number of intra-run worker shards (default 1), clamped to the node
    /// count and to [`crate::MAX_SHARDS`]. One shard is the serial run,
    /// driven by the calling thread. With `K > 1` the per-round
    /// deliver/step body runs over `K` contiguous node ranges on `K`
    /// threads under the round barrier; output is byte-identical at any
    /// shard count. Runs that record an audit log or track ports always run
    /// on one shard ([`crate::RuntimeCounters::shards`] reports the count
    /// used).
    pub shards: usize,
}

impl Default for SyncConfig {
    fn default() -> SyncConfig {
        SyncConfig {
            channel: ChannelModel::Local,
            seed: 0xDEFA17,
            shared_seed: 0x5EED,
            advice: None,
            max_rounds: 1_000_000,
            track_ports: false,
            obs: crate::obs::ObsLevel::Full,
            obs_windows: crate::obs::WindowCfg::default(),
            record_congest_violations: false,
            #[cfg(feature = "audit")]
            audit_capacity: None,
            shards: 1,
        }
    }
}

/// Lock-step round simulator for the synchronous model.
///
/// Round semantics match Section 3.2 of the paper: at the start of round `r`
/// every node receives the messages sent to it in round `r − 1` (receipt of a
/// message wakes a sleeping node), the adversary wakes its scheduled nodes,
/// and every awake node takes one compute-and-send step. Nodes do not know
/// the global round number.
pub struct SyncEngine<'n, P: SyncProtocol> {
    net: crate::network::NetHandle<'n>,
    tables: Arc<NodeTables>,
    config: SyncConfig,
    protocols: Vec<P>,
    /// Per node: this round's delivered messages, already materialized
    /// (capacity persists across rounds and runs). Each worker borrows its
    /// own node range of this and of `wake_queued`.
    inboxes: Vec<Vec<(Incoming, P::Msg)>>,
    wake_queued: Vec<bool>,
    /// One worker's run-to-run buffers per shard (see the async engine's
    /// `scratch`); rebuilt only when the shard count changes.
    scratch: Vec<SyncShardScratch<P::Msg>>,
}

/// Run-to-run reusable buffers of one worker shard.
struct SyncShardScratch<M> {
    /// Payloads of queued and in-flight messages; entries everywhere else
    /// are small [`PayloadRef`] handles into this arena.
    arena: PayloadArena<M>,
    /// Messages pending delivery to this shard's inboxes next round.
    inflight: Vec<SyncCross<M>>,
    touched: Vec<usize>,
    newly_awake: Vec<(NodeId, WakeCause)>,
    entries_buf: Vec<(Port, PayloadRef)>,
    stage: crate::shard::Stage<SyncCross<M>>,
}

impl<M> SyncShardScratch<M> {
    fn new(k: usize) -> SyncShardScratch<M> {
        SyncShardScratch {
            arena: PayloadArena::default(),
            inflight: Vec::new(),
            touched: Vec::new(),
            newly_awake: Vec::new(),
            entries_buf: Vec::new(),
            stage: crate::shard::Stage::new(k),
        }
    }
}

/// A message queued for next-round delivery.
struct SyncCross<M> {
    to: u32,
    from: u32,
    /// Receiver-side port (the paper's `port_to(to, from)`), resolved from
    /// the directed-edge index at send time so delivery does no lookups.
    rport: u32,
    payload: crate::shard::CrossPayload<M>,
}

/// What a worker publishes at a round boundary for the coordinator's
/// quiescence/cap decision.
#[derive(Clone, Copy, Default)]
struct SyncPublished {
    /// Messages sent in the round just finished.
    staged: u64,
    /// Whether any awake owned node wants another round.
    wants: bool,
    /// Whether this shard still holds unapplied schedule wakes.
    wakes_pending: bool,
}

impl<'n, P: SyncProtocol> SyncEngine<'n, P> {
    /// Initializes every node's protocol state over the given network.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new(net: &'n Network, config: SyncConfig) -> SyncEngine<'n, P> {
        Self::with_handle(crate::network::NetHandle::Borrowed(net), config)
    }

    /// As [`SyncEngine::new`], but co-owning a shared network — the entry
    /// point for artifact caches that hand out `Arc<Network>`s, freeing the
    /// engine from the caller's borrow lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new_shared(net: Arc<Network>, config: SyncConfig) -> SyncEngine<'static, P> {
        SyncEngine::with_handle(crate::network::NetHandle::Shared(net), config)
    }

    fn with_handle(net: crate::network::NetHandle<'n>, config: SyncConfig) -> SyncEngine<'n, P> {
        let tables = Arc::clone(net.tables());
        let n = net.n();
        let mut protocols = Vec::with_capacity(n);
        crate::protocol::for_each_node_init(
            &net,
            &tables,
            config.seed,
            config.shared_seed,
            config.advice.as_deref().map(Vec::as_slice),
            |_, init| protocols.push(P::init(init)),
        );
        SyncEngine {
            net,
            tables,
            config,
            protocols,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            wake_queued: vec![false; n],
            scratch: Vec::new(),
        }
    }

    /// Re-derives every node's state for a fresh trial under a new master
    /// seed, keeping the engine's allocations (tables, round buffers, and —
    /// via [`SyncProtocol::reinit`] — per-node containers).
    pub fn reset(&mut self, seed: u64) {
        self.config.seed = seed;
        let protocols = &mut self.protocols;
        crate::protocol::for_each_node_init(
            &self.net,
            &self.tables,
            seed,
            self.config.shared_seed,
            self.config.advice.as_deref().map(Vec::as_slice),
            |v, init| protocols[v].reinit(init),
        );
    }

    /// Runs rounds until quiescence (no traffic in flight, no pending
    /// adversary wakes, and no awake node wants another round) or the round
    /// cap.
    ///
    /// Wake schedule ticks are interpreted as rounds
    /// (`tick / TICKS_PER_UNIT`), so unit-based schedules carry over.
    pub fn run(mut self, schedule: &WakeSchedule) -> RunReport {
        self.run_mut(schedule)
    }

    /// As [`SyncEngine::run`], but also returns the final per-node protocol
    /// states for post-hoc inspection (e.g. which FastWakeUp nodes sampled
    /// themselves as roots).
    pub fn run_into_parts(mut self, schedule: &WakeSchedule) -> (RunReport, Vec<P>) {
        let report = self.run_mut(schedule);
        (report, self.protocols)
    }

    /// Executes one run without consuming the engine, so a trial loop can
    /// [`SyncEngine::reset`] and go again over the same topology.
    pub fn run_mut(&mut self, schedule: &WakeSchedule) -> RunReport {
        #[cfg(feature = "audit")]
        let audit = self.config.audit_capacity.is_some();
        #[cfg(not(feature = "audit"))]
        let audit = false;
        let k = crate::shard::shard_count(
            self.net.n(),
            self.config.shards,
            audit || self.config.track_ports,
            None,
        );
        self.run_workers(schedule, k)
    }

    /// The per-node protocol states (final states after a run).
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Builds `k` workers over contiguous node ranges, runs them to the end
    /// under the engine's next-round rule — inline on one shard, on `k`
    /// threads otherwise — and assembles the report.
    fn run_workers(&mut self, schedule: &WakeSchedule, k: usize) -> RunReport {
        use crate::shard::{split_lengths, ShardMetrics, ShardPlan};

        let net = &*self.net;
        let tables = &*self.tables;
        let config = &self.config;
        let n = net.n();
        let plan = ShardPlan::new(n, k);
        debug_assert_eq!(plan.k, k);
        if self.scratch.len() != k {
            self.scratch = (0..k).map(|_| SyncShardScratch::new(k)).collect();
        }
        // Adversary wakes grouped by round, canonically (round, id)-sorted.
        let mut wakes: Vec<(u64, NodeId)> = schedule
            .entries()
            .iter()
            .map(|&(tick, v)| (tick / TICKS_PER_UNIT, v))
            .collect();
        wakes.sort_unstable();
        let mut metrics = Metrics::new(n);
        let mut outputs: Vec<Option<u64>> = vec![None; n];
        let mut awake = vec![false; n];
        let node_lens = plan.ranges().map(|(lo, hi)| hi - lo);
        let mut workers: Vec<SyncShard<'_, P>> = Vec::with_capacity(k);
        // The slice iterators borrow the run-global arrays until the
        // workers hold their parts.
        {
            let mut prot_it = split_lengths(self.protocols.as_mut_slice(), node_lens.clone());
            let mut out_it = split_lengths(outputs.as_mut_slice(), node_lens.clone());
            let mut awake_it = split_lengths(awake.as_mut_slice(), node_lens.clone());
            let mut wt_it = split_lengths(metrics.wake_tick.as_mut_slice(), node_lens.clone());
            let mut sb_it = split_lengths(metrics.sent_by.as_mut_slice(), node_lens.clone());
            let mut rb_it = split_lengths(metrics.received_by.as_mut_slice(), node_lens.clone());
            let mut wq_it = split_lengths(self.wake_queued.as_mut_slice(), node_lens.clone());
            let mut ib_it = split_lengths(self.inboxes.as_mut_slice(), node_lens);
            for (s, scr) in self.scratch.iter_mut().enumerate() {
                let (lo, hi) = plan.range(s);
                // A truncated previous run may have left residue; clear
                // defensively (no-ops after a quiescent run).
                let inboxes = ib_it.next().unwrap();
                inboxes.iter_mut().for_each(Vec::clear);
                let wake_queued = wq_it.next().unwrap();
                wake_queued.fill(false);
                scr.arena.clear();
                scr.inflight.clear();
                scr.touched.clear();
                scr.newly_awake.clear();
                let edge_base = tables.edge_offset[lo];
                workers.push(SyncShard {
                    me: s,
                    lo,
                    plan,
                    net,
                    tables,
                    config,
                    protocols: prot_it.next().unwrap(),
                    outputs: out_it.next().unwrap(),
                    awake: awake_it.next().unwrap(),
                    wake_tick: wt_it.next().unwrap(),
                    sent_by: sb_it.next().unwrap(),
                    received_by: rb_it.next().unwrap(),
                    inboxes,
                    wake_queued,
                    edge_base,
                    ports_touched: if config.track_ports {
                        DenseBits::new(tables.edge_offset[hi] - edge_base)
                    } else {
                        DenseBits::default()
                    },
                    #[cfg(feature = "audit")]
                    audit: config
                        .audit_capacity
                        .map(crate::audit::AuditLog::with_capacity),
                    sm: ShardMetrics::default(),
                    obs: crate::obs::ShardObs::new(hi - lo, config.obs, config.obs_windows),
                    scr,
                    wakes: plan.wakes_of(s, &mut wakes),
                    cursor: 0,
                    staged: 0,
                    events: 0,
                });
            }
        }
        let mut coord = crate::shard::Coord {
            cap: config.max_rounds,
            ..Default::default()
        };
        if k == 1 {
            crate::shard::drive_inline(&mut workers[0], &mut coord);
        } else {
            crate::shard::drive_threaded(&mut workers, &mut coord);
        }
        coord.events = workers.iter().map(|w| w.events).sum();
        let outcomes = workers.into_iter().map(SyncShard::finish).collect();
        crate::shard::assemble_report(metrics, outputs, config.obs, outcomes, coord)
    }
}

/// One worker of a sync run: the engine's per-round state restricted to a
/// contiguous node range. Local node index = global id − `lo`; local edge
/// slot = global slot − `edge_base`.
struct SyncShard<'e, P: SyncProtocol> {
    me: usize,
    lo: usize,
    plan: crate::shard::ShardPlan,
    net: &'e Network,
    tables: &'e NodeTables,
    config: &'e SyncConfig,
    protocols: &'e mut [P],
    outputs: &'e mut [Option<u64>],
    awake: &'e mut [bool],
    wake_tick: &'e mut [Option<u64>],
    sent_by: &'e mut [u64],
    received_by: &'e mut [u64],
    inboxes: &'e mut [Vec<(Incoming, P::Msg)>],
    wake_queued: &'e mut [bool],
    edge_base: usize,
    /// Local edge slots over which a message was sent or received; empty
    /// unless `track_ports` (one-shard runs only).
    ports_touched: DenseBits,
    /// Model-conformance event recorder (`audit` feature; one-shard runs
    /// only).
    #[cfg(feature = "audit")]
    audit: Option<crate::audit::AuditLog>,
    sm: crate::shard::ShardMetrics,
    obs: crate::obs::ShardObs,
    /// The worker's inboxes, arena, round queues and handler buffers.
    scr: &'e mut SyncShardScratch<P::Msg>,
    /// This shard's schedule wakes, `(round, id)`-sorted.
    wakes: Vec<(u64, NodeId)>,
    cursor: usize,
    /// Messages sent since the last publish.
    staged: u64,
    /// Locally processed events (deliveries + wakes), merged at the end.
    events: u64,
}

impl<P: SyncProtocol> SyncShard<'_, P> {
    /// Hands back what the report needs.
    fn finish(mut self) -> crate::shard::ShardOutcome {
        self.obs.timeline.finish();
        self.obs.events = self.events;
        self.obs.arena_high_water = self.scr.arena.high_water() as u64;
        crate::shard::ShardOutcome {
            ports_used: self.config.track_ports.then(|| {
                crate::shard::ports_used(
                    self.tables,
                    self.lo,
                    self.awake.len(),
                    &self.ports_touched,
                )
            }),
            sm: self.sm,
            obs: self.obs,
            #[cfg(feature = "audit")]
            audit: self.audit,
        }
    }

    /// The engine's one per-round body, over this shard's nodes: deliver,
    /// queue wakes (adversary beats message), wake handlers ascending, then
    /// the compute-and-send step ascending.
    fn process_round(&mut self, round: u64) {
        let tick = round * TICKS_PER_UNIT;
        let mut inflight = std::mem::take(&mut self.scr.inflight);
        // All deliveries of a round share one tick, so the last-receipt
        // watermark moves once per round, not once per message.
        if !inflight.is_empty() {
            self.sm.last_receipt_tick =
                Some(self.sm.last_receipt_tick.map_or(tick, |t| t.max(tick)));
        }
        self.events += inflight.len() as u64;
        self.obs.tl_delivered(tick, inflight.len() as u64);
        for m in inflight.drain(..) {
            let li = m.to as usize - self.lo;
            self.received_by[li] += 1;
            // Recorded before any wake of this round, so wake causality
            // streams in order (the whole in-flight queue drains first).
            #[cfg(feature = "audit")]
            if let (Some(log), crate::shard::CrossPayload::Local(r)) =
                (self.audit.as_mut(), &m.payload)
            {
                log.record(crate::audit::AuditEvent::Deliver {
                    tick,
                    from: m.from,
                    to: m.to,
                    slot: r.slot(),
                    gen: r.generation(),
                });
            }
            if self.config.track_ports {
                let slot = self
                    .tables
                    .slot(NodeId::new(m.to as usize), Port::new(m.rport as usize));
                self.ports_touched.set(slot - self.edge_base);
            }
            let sender_id = match self.net.mode() {
                crate::knowledge::KnowledgeMode::Kt1 => {
                    Some(self.net.ids().id(NodeId::new(m.from as usize)))
                }
                crate::knowledge::KnowledgeMode::Kt0 => None,
            };
            if self.inboxes[li].is_empty() {
                self.scr.touched.push(li);
            }
            if !self.awake[li] {
                // Provisional causal predecessor: the round's first
                // delivery to a sleeping node (erased below if the
                // adversary wakes it this round instead).
                self.obs.note_wake_pred(li, m.from);
            }
            let msg = match m.payload {
                crate::shard::CrossPayload::Local(r) => self.scr.arena.take(r),
                crate::shard::CrossPayload::Remote(payload, _) => payload,
            };
            self.inboxes[li].push((
                Incoming {
                    port: Port::new(m.rport as usize),
                    sender_id,
                },
                msg,
            ));
        }
        self.scr.inflight = inflight;
        // Round-r adversary wakes take precedence over message wakes.
        while self.cursor < self.wakes.len() && self.wakes[self.cursor].0 <= round {
            let v = self.wakes[self.cursor].1;
            self.cursor += 1;
            let li = v.index() - self.lo;
            if !self.awake[li] && !self.wake_queued[li] {
                self.wake_queued[li] = true;
                self.scr.newly_awake.push((v, WakeCause::Adversary));
            }
        }
        // Message receipt wakes.
        let mut touched = std::mem::take(&mut self.scr.touched);
        for &li in &touched {
            if !self.awake[li] && !self.wake_queued[li] {
                self.wake_queued[li] = true;
                self.scr
                    .newly_awake
                    .push((NodeId::new(li + self.lo), WakeCause::Message));
            }
        }
        touched.clear();
        self.scr.touched = touched;
        let mut newly = std::mem::take(&mut self.scr.newly_awake);
        newly.sort_unstable_by_key(|&(v, _)| v);
        self.events += newly.len() as u64;
        self.obs.tl_wakes(tick, newly.len() as u64);
        for &(v, cause) in newly.iter() {
            let li = v.index() - self.lo;
            if cause == WakeCause::Adversary {
                // Adversary wakes take precedence over message wakes in the
                // same round: the node is a root of the causal forest, not a
                // successor.
                self.obs.clear_wake_pred(li);
            }
            #[cfg(feature = "audit")]
            if let Some(log) = self.audit.as_mut() {
                let advice = self.config.advice.as_deref().map(Vec::as_slice);
                log.record_wake(tick, v.index() as u32, cause, advice);
            }
            self.awake[li] = true;
            self.sm.awake_count += 1;
            self.wake_tick[li] = Some(tick);
            self.sm.first_wake_tick = Some(self.sm.first_wake_tick.map_or(tick, |t| t.min(tick)));
            let mut entries = std::mem::take(&mut self.scr.entries_buf);
            let mut ctx = Context::new(
                v,
                self.net.graph().degree(v),
                self.net.mode(),
                self.tables.id_to_port(v.index()),
                &mut entries,
                &mut self.scr.arena,
                self.config.channel,
                self.config.record_congest_violations,
                &mut self.sm.congest_violations,
                &mut self.outputs[li],
                &mut self.obs.phases,
                tick,
            );
            self.protocols[li].on_wake(&mut ctx, cause);
            self.obs.stamp_new_spans(tick, 0, v.index() as u32);
            self.route_outbox(&mut entries, v, 0, tick);
            self.scr.entries_buf = entries;
        }
        for &(v, _) in newly.iter() {
            self.wake_queued[v.index() - self.lo] = false;
        }
        newly.clear();
        self.scr.newly_awake = newly;
        // Compute-and-send step for every awake node. The inbox is a
        // draining view over the node's persistent buffer; handler sends go
        // straight into the arena via the context.
        for li in 0..self.awake.len() {
            if !self.awake[li] {
                continue;
            }
            // Warm the next node's protocol state and inbox row while this
            // handler runs.
            crate::prefetch::prefetch_index(self.protocols, li + 1);
            crate::prefetch::prefetch_index(self.inboxes, li + 1);
            let v = NodeId::new(li + self.lo);
            if !self.inboxes[li].is_empty() {
                self.obs.on_batch(self.inboxes[li].len());
            }
            let mut inbox = Inbox::new(&mut self.inboxes[li]);
            let mut entries = std::mem::take(&mut self.scr.entries_buf);
            let mut ctx = Context::new(
                v,
                self.net.graph().degree(v),
                self.net.mode(),
                self.tables.id_to_port(v.index()),
                &mut entries,
                &mut self.scr.arena,
                self.config.channel,
                self.config.record_congest_violations,
                &mut self.sm.congest_violations,
                &mut self.outputs[li],
                &mut self.obs.phases,
                tick,
            );
            self.protocols[li].on_messages_batch(&mut ctx, &mut inbox);
            drop(inbox);
            self.obs.stamp_new_spans(tick, 1, v.index() as u32);
            self.route_outbox(&mut entries, v, 1, tick);
            self.scr.entries_buf = entries;
        }
        // The round's Send events go in after all of its handlers, in
        // send-queue order (wake sends, then step sends) — on a one-shard
        // run, exactly the in-flight queue.
        #[cfg(feature = "audit")]
        if let Some(log) = self.audit.as_mut() {
            for m in self.scr.inflight.iter() {
                if let crate::shard::CrossPayload::Local(r) = m.payload {
                    log.record(crate::audit::AuditEvent::Send {
                        tick,
                        from: m.from,
                        to: m.to,
                        bits: self.scr.arena.bits(r) as u32,
                        slot: r.slot(),
                        gen: r.generation(),
                    });
                }
            }
        }
    }

    /// Accounts and routes one handler's outbox for next-round delivery
    /// (CONGEST was enforced at enqueue time by the context). On a one-shard
    /// run every send goes straight into the in-flight queue; otherwise it
    /// is staged into a per-`(shard, phase)` buffer. `tick` is the round's
    /// dispatch tick — sends attribute to the origin round.
    fn route_outbox(
        &mut self,
        entries: &mut Vec<(Port, PayloadRef)>,
        from: NodeId,
        phase: usize,
        tick: u64,
    ) {
        for (port, r) in entries.drain(..) {
            let slot = self.tables.slot(from, port);
            let hot = self.tables.edge_hot[slot];
            let to = hot.to as usize;
            let bits = self.scr.arena.bits(r);
            self.sm.messages_sent += 1;
            self.sm.bits_sent += bits as u64;
            self.sm.max_message_bits = self.sm.max_message_bits.max(bits);
            self.sent_by[from.index() - self.lo] += 1;
            // Sync deliveries always take one round: τ ticks of latency.
            self.obs.on_send_at(tick, bits as u64, TICKS_PER_UNIT);
            if self.config.track_ports {
                self.ports_touched.set(slot - self.edge_base);
            }
            self.staged += 1;
            let dst = self.plan.shard_of(to);
            let payload = if dst == self.me {
                crate::shard::CrossPayload::Local(r)
            } else {
                crate::shard::CrossPayload::Remote(self.scr.arena.take(r), bits)
            };
            let m = SyncCross {
                to: hot.to,
                from: from.index() as u32,
                rport: hot.rport,
                payload,
            };
            if self.plan.k == 1 {
                self.scr.inflight.push(m);
            } else {
                self.scr.stage.push(dst, phase, m);
            }
        }
    }
}

impl<P: SyncProtocol> crate::shard::Worker for SyncShard<'_, P> {
    type Cross = SyncCross<P::Msg>;
    type Progress = SyncPublished;

    fn me(&self) -> usize {
        self.me
    }

    fn stage(&mut self) -> &mut crate::shard::Stage<SyncCross<P::Msg>> {
        &mut self.scr.stage
    }

    /// Queues staged messages for delivery in the next round body, so the
    /// in-flight queue holds the canonical send-queue order (wake sends,
    /// then step sends, senders ascending) restricted to this shard.
    fn ingest(&mut self, batch: &mut Vec<SyncCross<P::Msg>>) {
        self.scr.inflight.append(batch);
    }

    fn process(&mut self, round: u64) {
        self.process_round(round);
    }

    fn join(a: SyncPublished, b: SyncPublished) -> SyncPublished {
        SyncPublished {
            staged: a.staged + b.staged,
            wants: a.wants | b.wants,
            wakes_pending: a.wakes_pending | b.wakes_pending,
        }
    }

    /// Stops (`u64::MAX`) on the round cap first — a quiescent run sitting
    /// on the cap still truncates — then on quiescence: no traffic in
    /// flight, no pending adversary wakes, and no awake node wanting
    /// another round. Otherwise returns the next round to run.
    fn next_window(c: &mut crate::shard::Coord, p: SyncPublished) -> u64 {
        if c.rounds >= c.cap {
            c.truncated = true;
            return u64::MAX;
        }
        if p.staged == 0 && !p.wakes_pending && !p.wants {
            return u64::MAX;
        }
        // A round entered with no traffic (only pending wakes or
        // timer-driven nodes) delivers nothing — the sync analog of the
        // async executor's horizon stall.
        if p.staged == 0 {
            c.stall_rounds += 1;
        }
        c.rounds += 1;
        c.rounds - 1
    }

    fn progress(&mut self) -> SyncPublished {
        let wants = self
            .awake
            .iter()
            .zip(self.protocols.iter())
            .any(|(&a, p)| a && p.wants_round());
        let published = SyncPublished {
            staged: self.staged,
            wants,
            wakes_pending: self.cursor < self.wakes.len(),
        };
        self.staged = 0;
        published
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::protocol::NodeInit;
    use wakeup_graph::generators;

    #[derive(Debug, Clone)]
    struct Ping;
    impl Payload for Ping {
        fn size_bits(&self) -> usize {
            1
        }
    }

    /// Broadcasts once upon waking.
    struct Flood {
        sent: bool,
    }
    impl SyncProtocol for Flood {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            Flood { sent: false }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
            self.sent = true;
            ctx.broadcast(Ping);
        }
        fn on_round(&mut self, _: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {}
    }

    #[test]
    fn sync_flood_wakes_in_awake_distance_rounds() {
        let g = generators::path(9).unwrap();
        let net = Network::kt1(g, 1);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.all_awake);
        // ρ_awk = 8: node 8 wakes in round 8.
        assert_eq!(report.metrics.wake_tick[8], Some(8 * TICKS_PER_UNIT));
        assert_eq!(report.metrics.messages_sent, 16);
    }

    #[test]
    fn sync_obs_critical_path_follows_the_flood() {
        let g = generators::path(9).unwrap();
        let net = Network::kt1(g, 1);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        let cp = report.critical_path();
        assert_eq!(cp.hops, 8);
        assert_eq!(cp.tau, 8.0);
        assert_eq!(cp.root, Some(NodeId::new(0)));
        assert_eq!(cp.end, Some(NodeId::new(8)));
        assert!(cp.tau <= report.time_units() + 1e-9);
        assert_eq!(
            report.obs.message_bits.count(),
            report.metrics.messages_sent
        );
        // One round of latency per message.
        assert_eq!(
            report.obs.delay_ticks.sum(),
            report.metrics.messages_sent * TICKS_PER_UNIT
        );
        assert_eq!(report.obs.wake_latency(&report.metrics).count(), 9);
    }

    #[test]
    fn sync_adversary_wake_beats_message_pred_in_same_round() {
        // Node 1 both receives node 0's flood in round 1 and is
        // adversary-woken in round 1: it must be a causal root.
        let g = generators::path(3).unwrap();
        let net = Network::kt1(g, 1);
        let schedule = WakeSchedule::from_pairs(&[(NodeId::new(0), 0.0), (NodeId::new(1), 1.0)]);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&schedule);
        assert_eq!(report.obs.wake_pred(NodeId::new(1)), None);
        // Node 2 was woken by node 1's broadcast.
        assert_eq!(report.obs.wake_pred(NodeId::new(2)), Some(NodeId::new(1)));
    }

    #[test]
    fn sync_flood_multi_source() {
        let g = generators::path(9).unwrap();
        let net = Network::kt1(g, 1);
        let schedule = WakeSchedule::all_at_zero(&[NodeId::new(0), NodeId::new(8)]);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&schedule);
        assert!(report.all_awake);
        assert_eq!(report.metrics.wake_tick[4], Some(4 * TICKS_PER_UNIT));
    }

    /// Stays silent but requests 5 rounds after waking, then sends one ping.
    struct TimerNode {
        rounds_awake: u32,
    }
    impl SyncProtocol for TimerNode {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            TimerNode { rounds_awake: 0 }
        }
        fn on_wake(&mut self, _: &mut Context<'_, Ping>, _cause: WakeCause) {}
        fn on_round(&mut self, ctx: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {
            self.rounds_awake += 1;
            if self.rounds_awake == 5 && ctx.degree() > 0 {
                ctx.send(Port::new(1), Ping);
            }
        }
        fn wants_round(&self) -> bool {
            self.rounds_awake < 5
        }
    }

    #[test]
    fn wants_round_keeps_clock_running() {
        let g = generators::path(2).unwrap();
        let net = Network::kt1(g, 1);
        let report = SyncEngine::<TimerNode>::new(&net, SyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        // Node 0 waits 5 silent rounds, sends in round 4 (0-indexed: its 5th
        // round), waking node 1, which itself runs 5 rounds.
        assert!(report.all_awake);
        assert_eq!(report.metrics.messages_sent, 2);
        assert!(report.rounds >= 10);
    }

    #[test]
    fn round_cap_truncates() {
        struct Forever;
        impl SyncProtocol for Forever {
            type Msg = Ping;
            fn init(_: &NodeInit<'_>) -> Self {
                Forever
            }
            fn on_wake(&mut self, _: &mut Context<'_, Ping>, _cause: WakeCause) {}
            fn on_round(&mut self, _: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {}
            fn wants_round(&self) -> bool {
                true
            }
        }
        let net = Network::kt1(generators::path(2).unwrap(), 1);
        let config = SyncConfig {
            max_rounds: 50,
            ..SyncConfig::default()
        };
        let report =
            SyncEngine::<Forever>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.truncated);
        assert_eq!(report.rounds, 50);
    }

    #[test]
    fn staggered_adversary_wakes_apply_in_their_round() {
        let g = generators::path(5).unwrap();
        let net = Network::kt1(g, 1);
        // Wake node 4 at round 2; node 0 at round 0.
        let schedule = WakeSchedule::from_pairs(&[(NodeId::new(0), 0.0), (NodeId::new(4), 2.0)]);
        let report = SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&schedule);
        assert_eq!(report.metrics.wake_tick[4], Some(2 * TICKS_PER_UNIT));
        // Node 3 is woken by node 4's broadcast in round 3, beating the flood
        // from node 0 (which would arrive in round 3 as well — tie).
        assert_eq!(report.metrics.wake_tick[3], Some(3 * TICKS_PER_UNIT));
    }

    #[test]
    fn quiescence_without_any_wake() {
        let net = Network::kt1(generators::path(4).unwrap(), 1);
        let report =
            SyncEngine::<Flood>::new(&net, SyncConfig::default()).run(&WakeSchedule::default());
        assert_eq!(report.rounds, 0);
        assert!(!report.all_awake);
    }

    /// A protocol that consumes its inbox through the batch hook without
    /// collecting it, counting arrivals — exercises the borrowed-inbox path
    /// end to end (delivery order, drain-on-drop, empty-inbox rounds).
    struct BatchCounter {
        seen: u64,
        relayed: bool,
    }
    impl SyncProtocol for BatchCounter {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            BatchCounter {
                seen: 0,
                relayed: false,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Ping);
            }
        }
        fn on_round(&mut self, _: &mut Context<'_, Ping>, _: Vec<(Incoming, Ping)>) {
            unreachable!("the engine must call on_messages_batch, not on_round");
        }
        fn on_messages_batch(&mut self, ctx: &mut Context<'_, Ping>, inbox: &mut Inbox<'_, Ping>) {
            self.seen += inbox.len() as u64;
            while inbox.next().is_some() {}
            ctx.output(self.seen);
        }
    }

    #[test]
    fn batch_hook_sees_whole_round_inbox() {
        let g = generators::star(6).unwrap();
        let net = Network::kt1(g, 1);
        let schedule = WakeSchedule::all_at_zero(&[NodeId::new(0)]);
        let report = SyncEngine::<BatchCounter>::new(&net, SyncConfig::default()).run(&schedule);
        assert!(report.all_awake);
        // The hub broadcast wakes all 5 leaves; each leaf broadcasts back,
        // so the hub's batch hook eventually sees 5 messages in one round.
        assert_eq!(report.outputs[0], Some(5));
    }

    /// Runs `P` under `config` on one shard and on each of `shards`,
    /// asserting that every count reproduces the one-shard run byte for
    /// byte — digest, metrics, rounds, flags, event count and both obs
    /// serializations; returns the reports, one-shard first.
    fn shard_runs<P: SyncProtocol>(
        net: &Network,
        schedule: &WakeSchedule,
        config: &SyncConfig,
        shards: &[usize],
    ) -> Vec<RunReport> {
        let reports: Vec<RunReport> = std::iter::once(&1)
            .chain(shards)
            .map(|&shards| {
                let config = SyncConfig {
                    shards,
                    ..config.clone()
                };
                SyncEngine::<P>::new(net, config).run(schedule)
            })
            .collect();
        let one = &reports[0];
        assert_eq!(one.obs.runtime.shards, 1);
        for (r, k) in reports[1..].iter().zip(shards) {
            assert_eq!(
                crate::RunDigest::of(one),
                crate::RunDigest::of(r),
                "shards={k}"
            );
            assert_eq!(one.metrics, r.metrics, "shards={k}");
            let flags = |r: &RunReport| (r.rounds, r.all_awake, r.truncated, r.obs.events);
            assert_eq!(flags(one), flags(r), "shards={k}");
            let (a, b) = (crate::ObsSnapshot::of(one), crate::ObsSnapshot::of(r));
            assert_eq!(a.to_json(), b.to_json(), "shards={k}");
            assert_eq!(a.to_prometheus(), b.to_prometheus(), "shards={k}");
        }
        reports
    }

    /// Multi-shard sync runs reproduce the one-shard run byte for byte at
    /// any shard count, including more shards than nodes.
    #[test]
    fn sync_sharded_run_is_byte_identical_to_serial() {
        let net = Network::kt1(generators::erdos_renyi_connected(37, 0.15, 11).unwrap(), 11);
        let all: Vec<NodeId> = (0..37).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.5);
        shard_runs::<BatchCounter>(&net, &schedule, &SyncConfig::default(), &[2, 3, 4, 64]);
    }

    /// Phase-labeling flood over both sync handler surfaces — the sync
    /// sibling of the async engine's `PhasedFlood` fixture.
    struct PhasedSyncFlood {
        relayed: bool,
        seen: u64,
    }
    impl SyncProtocol for PhasedSyncFlood {
        type Msg = Ping;
        fn init(_: &NodeInit<'_>) -> Self {
            PhasedSyncFlood {
                relayed: false,
                seen: 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
            ctx.phase("wake");
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Ping);
            }
        }
        fn on_round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Vec<(Incoming, Ping)>) {
            if !inbox.is_empty() {
                ctx.phase("relay");
                self.seen += inbox.len() as u64;
                ctx.output(self.seen * 1000 + ctx.node().index() as u64);
            }
        }
    }

    /// A multi-shard KT1 run of a phase-labelling workload is
    /// byte-identical to the one-shard run.
    #[test]
    fn sync_phased_flood_is_byte_identical_across_shard_counts() {
        let g = generators::erdos_renyi_connected(41, 0.12, 13).unwrap();
        let net = Network::kt1(g, 5);
        let all: Vec<NodeId> = (0..41).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.7);
        shard_runs::<PhasedSyncFlood>(&net, &schedule, &SyncConfig::default(), &[2, 3]);
    }

    /// `wants_round` keeps the multi-shard clock running exactly as long
    /// as the one-shard one: silent-timer protocols end on the same round.
    #[test]
    fn sync_sharded_wants_round_matches_serial() {
        let net = Network::kt1(generators::path(7).unwrap(), 1);
        let schedule = WakeSchedule::single(NodeId::new(0));
        shard_runs::<TimerNode>(&net, &schedule, &SyncConfig::default(), &[3]);
    }

    /// The shard-count rule on a 4-shard request: an audit log or port
    /// tracking runs on one shard, a plain run on all four.
    #[test]
    fn shard_count_falls_back_to_one_shard_exactly_when_required() {
        let net = Network::kt1(generators::erdos_renyi_connected(80, 0.08, 5).unwrap(), 5);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let four = |config: &SyncConfig| {
            let mut runs = shard_runs::<Flood>(&net, &schedule, config, &[4]);
            runs.pop().unwrap()
        };
        assert_eq!(four(&SyncConfig::default()).obs.runtime.shards, 4);
        let tracked = four(&SyncConfig {
            track_ports: true,
            ..SyncConfig::default()
        });
        assert_eq!(tracked.obs.runtime.shards, 1);
        assert!(tracked.metrics.ports_used.is_some());
        #[cfg(feature = "audit")]
        {
            let audited = four(&SyncConfig {
                audit_capacity: Some(1 << 16),
                ..SyncConfig::default()
            });
            assert_eq!(audited.obs.runtime.shards, 1);
            assert!(audited.audit_log.is_some_and(|log| !log.is_empty()));
        }
    }

    /// The round cap truncates at the same boundary at any shard count, and
    /// a truncated multi-shard engine resets cleanly for the next run.
    #[test]
    fn sync_sharded_round_cap_is_shard_invariant() {
        struct Chatter;
        impl SyncProtocol for Chatter {
            type Msg = Ping;
            fn init(_: &NodeInit<'_>) -> Self {
                Chatter
            }
            fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _cause: WakeCause) {
                ctx.broadcast(Ping);
            }
            fn on_round(&mut self, ctx: &mut Context<'_, Ping>, inbox: Vec<(Incoming, Ping)>) {
                if !inbox.is_empty() {
                    ctx.broadcast(Ping);
                }
            }
        }
        let net = Network::kt1(generators::cycle(8).unwrap(), 1);
        let config = SyncConfig {
            max_rounds: 9,
            ..SyncConfig::default()
        };
        let schedule = WakeSchedule::single(NodeId::new(0));
        let runs = shard_runs::<Chatter>(&net, &schedule, &config, &[4]);
        assert!(runs[1].truncated);
        // Rerun on the same engine: leftover collected-but-undelivered
        // messages from the truncated run must not leak into the next one.
        let mut engine = SyncEngine::<Chatter>::new(
            &net,
            SyncConfig {
                shards: 4,
                ..config
            },
        );
        let first = engine.run_mut(&schedule);
        let again = engine.run_mut(&schedule);
        assert_eq!(again.metrics, first.metrics);
    }
}
