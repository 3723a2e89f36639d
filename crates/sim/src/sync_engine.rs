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
use crate::trace::{Trace, TraceEvent};

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
    /// Record an execution trace with the given event capacity.
    pub trace_capacity: Option<usize>,
    /// Record a model-conformance [`crate::audit::AuditLog`] with the given
    /// event capacity (`None` = off). Independent of `trace_capacity`: the
    /// audit log additionally carries logical timestamps, payload-arena
    /// generations, and advice reads.
    #[cfg(feature = "audit")]
    pub audit_capacity: Option<usize>,
    /// Number of intra-run worker shards (default 1 = serial). With `K > 1`
    /// the per-round deliver/step loop is parallelized over `K` contiguous
    /// node ranges under the round barrier; output is byte-identical to the
    /// serial run at any shard count. Runs that record traces or audit logs
    /// or track ports fall back to the serial path silently (the output is
    /// the same either way).
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
            trace_capacity: None,
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
    scratch: SyncScratch<P::Msg>,
}

/// Run-to-run reusable buffers (see `AsyncScratch` in the async engine):
/// the payload arena, receiver inboxes, the touched/newly-awake lists, the
/// handler outbox, the send queue, and the in-flight message queue.
struct SyncScratch<M> {
    /// Payloads of queued and in-flight messages; entries everywhere else
    /// are small [`PayloadRef`] handles into this arena.
    arena: PayloadArena<M>,
    in_flight: Vec<InFlight>,
    /// Per node: this round's delivered messages, already materialized
    /// (capacity persists across rounds and runs).
    inboxes: Vec<Vec<(Incoming, M)>>,
    touched: Vec<usize>,
    newly_awake: Vec<(NodeId, WakeCause)>,
    wake_queued: Vec<bool>,
    entries_buf: Vec<(Port, PayloadRef)>,
    /// The round's send queue: `(sender, port, payload)`, wake-handler
    /// sends before step sends.
    outbox_all: Vec<(NodeId, Port, PayloadRef)>,
    /// Per-shard state for sharded runs; empty until the first `shards > 1`
    /// run, rebuilt only when the shard count changes.
    shards: Vec<SyncShardScratch<M>>,
}

struct InFlight {
    to: NodeId,
    /// The sender's node index.
    from: u32,
    /// Receiver-side port (the paper's `port_to(to, from)`), resolved from
    /// the directed-edge index at send time so delivery does no lookups.
    rport: Port,
    msg: PayloadRef,
}

/// Run-to-run reusable per-shard buffers for the sharded sync path.
struct SyncShardScratch<M> {
    arena: PayloadArena<M>,
    /// Messages collected at the round boundary, pending delivery to this
    /// shard's inboxes (the per-shard slice of the serial `in_flight`).
    inflight: Vec<SyncCross<M>>,
    touched: Vec<usize>,
    newly_awake: Vec<(NodeId, WakeCause)>,
    entries_buf: Vec<(Port, PayloadRef)>,
    /// Staged outbound messages, one buffer per `(destination shard, phase)`.
    stage: Vec<Vec<SyncCross<M>>>,
    /// Scratch a mailbox cell is swapped into while draining.
    drain_buf: Vec<SyncCross<M>>,
}

impl<M> SyncShardScratch<M> {
    fn new(k: usize) -> SyncShardScratch<M> {
        SyncShardScratch {
            arena: PayloadArena::default(),
            inflight: Vec::new(),
            touched: Vec::new(),
            newly_awake: Vec::new(),
            entries_buf: Vec::new(),
            stage: (0..k * crate::shard::PHASES).map(|_| Vec::new()).collect(),
            drain_buf: Vec::new(),
        }
    }
}

/// A message staged for next-round delivery across the window boundary.
struct SyncCross<M> {
    to: u32,
    from: u32,
    rport: u32,
    payload: crate::shard::CrossPayload<M>,
}

/// What each shard publishes at a round boundary for the coordinator's
/// quiescence/cap decision.
#[derive(Clone, Copy, Default)]
struct SyncPublished {
    /// Messages staged in the round just finished.
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
            scratch: SyncScratch {
                arena: PayloadArena::default(),
                in_flight: Vec::new(),
                inboxes: (0..n).map(|_| Vec::new()).collect(),
                touched: Vec::new(),
                newly_awake: Vec::new(),
                wake_queued: vec![false; n],
                entries_buf: Vec::new(),
                outbox_all: Vec::new(),
                shards: Vec::new(),
            },
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
        if self.sharded_eligible() {
            return self.run_sharded(schedule);
        }
        let n = self.net.n();
        let mut metrics = Metrics::new(n);
        let mut obs = crate::obs::Obs::with_windows(n, self.config.obs, self.config.obs_windows);
        let mut outputs: Vec<Option<u64>> = vec![None; n];
        let mut awake = vec![false; n];
        let mut awake_count = 0usize;
        let mut ports_touched = if self.config.track_ports {
            DenseBits::new(self.tables.directed_edges())
        } else {
            DenseBits::default()
        };
        // Adversary wakes grouped by round.
        let mut pending_wakes: Vec<(u64, NodeId)> = schedule
            .entries()
            .iter()
            .map(|&(tick, v)| (tick / TICKS_PER_UNIT, v))
            .collect();
        pending_wakes.sort_unstable();
        let mut wake_cursor = 0usize;
        let mut trace: Option<Trace> = self.config.trace_capacity.map(Trace::with_capacity);
        #[cfg(feature = "audit")]
        let mut audit_log = self
            .config
            .audit_capacity
            .map(crate::audit::AuditLog::with_capacity);
        // Persistent per-round buffers from the engine scratch, allocated
        // once and reused across rounds *and* across runs: the payload
        // arena, receiver inboxes (with the list of receivers touched this
        // round), the wake list, a dedup scratch, the handler outbox, the
        // send queue, and the in-flight queue. A truncated previous run may
        // have left residue; clear defensively (no-ops after a quiescent
        // run).
        let SyncScratch {
            arena,
            in_flight,
            inboxes,
            touched,
            newly_awake,
            wake_queued,
            entries_buf,
            outbox_all,
            shards: _,
        } = &mut self.scratch;
        in_flight.clear();
        for inbox in inboxes.iter_mut() {
            inbox.clear();
        }
        arena.clear();
        touched.clear();
        newly_awake.clear();
        wake_queued.iter_mut().for_each(|q| *q = false);
        entries_buf.clear();
        outbox_all.clear();
        let mut truncated = false;
        let mut round = 0u64;
        loop {
            if round >= self.config.max_rounds {
                truncated = true;
                break;
            }
            let traffic = !in_flight.is_empty();
            let wakes_pending = wake_cursor < pending_wakes.len();
            let wants: bool = self
                .protocols
                .iter()
                .enumerate()
                .any(|(v, p)| awake[v] && p.wants_round());
            if !traffic && !wakes_pending && !wants {
                break;
            }
            // A round entered with no traffic (only pending wakes or
            // timer-driven nodes) delivers nothing — the sync analog of the
            // async executor's horizon stall.
            if !traffic {
                obs.runtime.stall_rounds += 1;
            }
            // Deliver round r-1 traffic: group per receiver, stable order.
            // All deliveries of a round share one tick, so the last-receipt
            // watermark moves once per round, not once per message.
            let tick = round * TICKS_PER_UNIT;
            if traffic {
                metrics.last_receipt_tick =
                    Some(metrics.last_receipt_tick.map_or(tick, |t| t.max(tick)));
            }
            obs.events += in_flight.len() as u64;
            obs.tl_delivered(tick, in_flight.len() as u64);
            for m in in_flight.drain(..) {
                metrics.received_by[m.to.index()] += 1;
                if let Some(tr) = trace.as_mut() {
                    tr.record(TraceEvent::Deliver {
                        tick,
                        from: NodeId::new(m.from as usize),
                        to: m.to,
                    });
                }
                // Recorded before any wake of this round, so wake causality
                // streams in order (the whole in-flight queue drains first).
                #[cfg(feature = "audit")]
                if let Some(log) = audit_log.as_mut() {
                    log.record(crate::audit::AuditEvent::Deliver {
                        tick,
                        from: m.from,
                        to: m.to.index() as u32,
                        slot: m.msg.slot(),
                        gen: m.msg.generation(),
                    });
                }
                if self.config.track_ports {
                    ports_touched.set(self.tables.slot(m.to, m.rport));
                }
                let sender_id = match self.net.mode() {
                    crate::knowledge::KnowledgeMode::Kt1 => {
                        Some(self.net.ids().id(NodeId::new(m.from as usize)))
                    }
                    crate::knowledge::KnowledgeMode::Kt0 => None,
                };
                if inboxes[m.to.index()].is_empty() {
                    touched.push(m.to.index());
                }
                if !awake[m.to.index()] {
                    // Provisional causal predecessor: the round's first
                    // delivery to a sleeping node (erased below if the
                    // adversary wakes it this round instead).
                    obs.note_wake_pred(m.to.index(), m.from);
                }
                inboxes[m.to.index()].push((
                    Incoming {
                        port: m.rport,
                        sender_id,
                    },
                    arena.take(m.msg),
                ));
            }
            // Round-r adversary wakes take precedence over message wakes.
            while wake_cursor < pending_wakes.len() && pending_wakes[wake_cursor].0 <= round {
                let v = pending_wakes[wake_cursor].1;
                wake_cursor += 1;
                if !awake[v.index()] && !wake_queued[v.index()] {
                    wake_queued[v.index()] = true;
                    newly_awake.push((v, WakeCause::Adversary));
                }
            }
            // Message receipt wakes.
            for &v in touched.iter() {
                if !awake[v] && !wake_queued[v] {
                    wake_queued[v] = true;
                    newly_awake.push((NodeId::new(v), WakeCause::Message));
                }
            }
            newly_awake.sort_unstable_by_key(|&(v, _)| v);
            obs.events += newly_awake.len() as u64;
            obs.tl_wakes(tick, newly_awake.len() as u64);
            for &(v, cause) in newly_awake.iter() {
                if cause == WakeCause::Adversary {
                    // Adversary wakes take precedence over message wakes in
                    // the same round: the node is a root of the causal
                    // forest, not a successor.
                    obs.clear_wake_pred(v.index());
                }
                if let Some(tr) = trace.as_mut() {
                    tr.record(TraceEvent::Wake {
                        tick,
                        node: v,
                        cause,
                    });
                }
                #[cfg(feature = "audit")]
                if let Some(log) = audit_log.as_mut() {
                    log.record(crate::audit::AuditEvent::Wake {
                        tick,
                        node: v.index() as u32,
                        cause,
                    });
                    if let Some(advice) = self.config.advice.as_deref() {
                        log.record(crate::audit::AuditEvent::AdviceRead {
                            tick,
                            node: v.index() as u32,
                            bits: advice[v.index()].len() as u32,
                        });
                    }
                }
                awake[v.index()] = true;
                awake_count += 1;
                metrics.wake_tick[v.index()] = Some(tick);
                metrics.first_wake_tick =
                    Some(metrics.first_wake_tick.map_or(tick, |t| t.min(tick)));
                if awake_count == n {
                    metrics.all_awake_tick = Some(tick);
                }
                let mut ctx = Context::new(
                    v,
                    self.net.graph().degree(v),
                    self.net.mode(),
                    self.tables.id_to_port(v.index()),
                    &mut *entries_buf,
                    &mut *arena,
                    self.config.channel,
                    self.config.record_congest_violations,
                    &mut metrics.congest_violations,
                    &mut outputs[v.index()],
                    &mut obs.phases,
                    tick,
                );
                self.protocols[v.index()].on_wake(&mut ctx, cause);
                for (port, r) in entries_buf.drain(..) {
                    outbox_all.push((v, port, r));
                }
            }
            for &(v, _) in newly_awake.iter() {
                wake_queued[v.index()] = false;
            }
            newly_awake.clear();
            touched.clear();
            // Compute-and-send step for every awake node. The inbox is a
            // draining view over the node's persistent buffer; handler sends
            // go straight into the arena via the context.
            for v in 0..n {
                if !awake[v] {
                    continue;
                }
                // Warm the next node's protocol state and inbox row while
                // this handler runs.
                crate::prefetch::prefetch_index(&self.protocols, v + 1);
                crate::prefetch::prefetch_index(inboxes, v + 1);
                let node = NodeId::new(v);
                if !inboxes[v].is_empty() {
                    obs.on_batch(inboxes[v].len());
                }
                let mut inbox = Inbox::new(&mut inboxes[v]);
                let mut ctx = Context::new(
                    node,
                    self.net.graph().degree(node),
                    self.net.mode(),
                    self.tables.id_to_port(v),
                    &mut *entries_buf,
                    &mut *arena,
                    self.config.channel,
                    self.config.record_congest_violations,
                    &mut metrics.congest_violations,
                    &mut outputs[v],
                    &mut obs.phases,
                    tick,
                );
                self.protocols[v].on_messages_batch(&mut ctx, &mut inbox);
                drop(inbox);
                for (port, r) in entries_buf.drain(..) {
                    outbox_all.push((node, port, r));
                }
            }
            // Queue round-r sends for round r+1 delivery (CONGEST was
            // enforced at enqueue time by the context; here we only account
            // and route).
            for (from, port, r) in outbox_all.drain(..) {
                let slot = self.tables.slot(from, port);
                let hot = self.tables.edge_hot[slot];
                let to = NodeId::new(hot.to as usize);
                let bits = arena.bits(r);
                if let Some(tr) = trace.as_mut() {
                    tr.record(TraceEvent::Send {
                        tick,
                        from,
                        to,
                        bits,
                    });
                }
                #[cfg(feature = "audit")]
                if let Some(log) = audit_log.as_mut() {
                    log.record(crate::audit::AuditEvent::Send {
                        tick,
                        from: from.index() as u32,
                        to: to.index() as u32,
                        bits: bits as u32,
                        slot: r.slot(),
                        gen: r.generation(),
                    });
                }
                metrics.messages_sent += 1;
                metrics.bits_sent += bits as u64;
                metrics.max_message_bits = metrics.max_message_bits.max(bits);
                metrics.sent_by[from.index()] += 1;
                // Sync deliveries always take one round: τ ticks of latency.
                obs.on_send_at(tick, bits as u64, TICKS_PER_UNIT);
                if self.config.track_ports {
                    ports_touched.set(slot);
                }
                let rport = Port::new(hot.rport as usize);
                in_flight.push(InFlight {
                    to,
                    from: from.index() as u32,
                    rport,
                    msg: r,
                });
            }
            round += 1;
        }
        if self.config.track_ports {
            metrics.ports_used = Some(
                (0..n)
                    .map(|v| {
                        ports_touched
                            .count_range(self.tables.edge_offset[v], self.tables.edge_offset[v + 1])
                            as u32
                    })
                    .collect(),
            );
        }
        obs.timeline.finish();
        obs.runtime.shards = 1;
        obs.runtime.arena_high_water = arena.high_water() as u64;
        obs.runtime.prefetch_batches = obs.batch_sizes.count();
        crate::obs::add_global_events(obs.events);
        RunReport {
            all_awake: awake_count == n,
            rounds: round,
            outputs,
            truncated,
            metrics,
            trace,
            obs,
            #[cfg(feature = "audit")]
            audit_log,
        }
    }

    /// The per-node protocol states (final states after a run).
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Whether this run can take the sharded path. Trace/audit recording
    /// and port tracking fall back to the serial path — which produces
    /// identical output, so the fallback is safe to keep silent.
    fn sharded_eligible(&self) -> bool {
        if self.config.shards <= 1
            || self.config.trace_capacity.is_some()
            || self.config.track_ports
        {
            return false;
        }
        #[cfg(feature = "audit")]
        if self.config.audit_capacity.is_some() {
            return false;
        }
        crate::shard::ShardPlan::new(self.net.n(), self.config.shards).k > 1
    }

    /// The sharded run: `K` workers execute the per-round deliver/step loop
    /// over their node ranges, coordinated by this thread through a
    /// two-phase barrier per round (the round barrier the model already
    /// imposes). See the `shard` module docs for the protocol and the
    /// determinism argument.
    fn run_sharded(&mut self, schedule: &WakeSchedule) -> RunReport {
        use crate::shard::{split_lengths, Cells, ShardMetrics, ShardPlan};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Barrier, Mutex};

        let net = &*self.net;
        let tables = &*self.tables;
        let config = &self.config;
        let n = net.n();
        let plan = ShardPlan::new(n, config.shards);
        let k = plan.k;
        if self.scratch.shards.len() != k {
            self.scratch.shards = (0..k).map(|_| SyncShardScratch::new(k)).collect();
        }
        // Adversary wakes grouped by round, canonically (round, id)-sorted.
        let mut wakes_all: Vec<(u64, NodeId)> = schedule
            .entries()
            .iter()
            .map(|&(tick, v)| (tick / TICKS_PER_UNIT, v))
            .collect();
        wakes_all.sort_unstable();
        let mut metrics = Metrics::new(n);
        let mut outputs: Vec<Option<u64>> = vec![None; n];
        let mut awake = vec![false; n];
        let node_lens: Vec<usize> = (0..k)
            .map(|s| {
                let (lo, hi) = plan.range(s);
                hi - lo
            })
            .collect();
        let mut prot_it = split_lengths(self.protocols.as_mut_slice(), &node_lens).into_iter();
        let mut out_it = split_lengths(outputs.as_mut_slice(), &node_lens).into_iter();
        let mut awake_it = split_lengths(awake.as_mut_slice(), &node_lens).into_iter();
        let mut wt_it = split_lengths(metrics.wake_tick.as_mut_slice(), &node_lens).into_iter();
        let mut sb_it = split_lengths(metrics.sent_by.as_mut_slice(), &node_lens).into_iter();
        let mut rb_it = split_lengths(metrics.received_by.as_mut_slice(), &node_lens).into_iter();
        let mut wq_it =
            split_lengths(self.scratch.wake_queued.as_mut_slice(), &node_lens).into_iter();
        let mut ib_it = split_lengths(self.scratch.inboxes.as_mut_slice(), &node_lens).into_iter();
        let mut workers: Vec<SyncShard<'_, P>> = Vec::with_capacity(k);
        for (s, scr) in self.scratch.shards.iter_mut().enumerate() {
            let (lo, hi) = plan.range(s);
            let SyncShardScratch {
                arena,
                inflight,
                touched,
                newly_awake,
                entries_buf,
                stage,
                drain_buf,
            } = scr;
            arena.clear();
            inflight.clear();
            touched.clear();
            newly_awake.clear();
            let wake_queued = wq_it.next().unwrap();
            wake_queued.iter_mut().for_each(|q| *q = false);
            let inboxes = ib_it.next().unwrap();
            for inbox in inboxes.iter_mut() {
                inbox.clear();
            }
            let wakes: Vec<(u64, NodeId)> = wakes_all
                .iter()
                .copied()
                .filter(|&(_, v)| v.index() >= lo && v.index() < hi)
                .collect();
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
                wake_queued,
                inboxes,
                sm: ShardMetrics::default(),
                obs: crate::obs::ShardObs::new(hi - lo, config.obs, config.obs_windows),
                arena,
                inflight,
                touched,
                newly_awake,
                entries_buf,
                stage,
                drain_buf,
                wakes,
                cursor: 0,
                staged: 0,
                events: 0,
            });
        }
        let cells: Cells<SyncCross<P::Msg>> = Cells::new(k);
        let slots: Vec<Mutex<SyncPublished>> = (0..k)
            .map(|_| Mutex::new(SyncPublished::default()))
            .collect();
        let barrier = Barrier::new(k + 1);
        let decision = AtomicU64::new(0);
        let mut round = 0u64;
        let mut truncated = false;
        let mut stall_rounds = 0u64;
        std::thread::scope(|scope| {
            let cells = &cells;
            let slots = &slots;
            let barrier = &barrier;
            let decision = &decision;
            for w in &mut workers {
                scope.spawn(move || w.run(cells, slots, decision, barrier));
            }
            // Coordinator: the serial loop's cap/quiescence check over the
            // shards' publications (cap first, exactly like the serial
            // path — a quiescent run sitting on the cap still truncates).
            loop {
                barrier.wait();
                let mut traffic = false;
                let mut wakes_pending = false;
                let mut wants = false;
                for slot in slots {
                    let p = *slot.lock().unwrap();
                    traffic |= p.staged > 0;
                    wakes_pending |= p.wakes_pending;
                    wants |= p.wants;
                }
                let decide = if round >= config.max_rounds {
                    truncated = true;
                    u64::MAX
                } else if !traffic && !wakes_pending && !wants {
                    u64::MAX
                } else {
                    round
                };
                decision.store(decide, Ordering::Relaxed);
                barrier.wait();
                if decide == u64::MAX {
                    break;
                }
                // A round entered with no traffic (only pending wakes or
                // timer-driven nodes) delivers nothing — the sync analog of
                // the async executor's horizon stall.
                if !traffic {
                    stall_rounds += 1;
                }
                round += 1;
            }
        });
        // Consume the workers first: their field moves end the slice borrows
        // of `metrics`, so the scalar merge below can take it mutably.
        let (sms, per_shard): (Vec<ShardMetrics>, Vec<(crate::obs::ShardObs, u64)>) = workers
            .into_iter()
            .map(|w| (w.sm, (w.obs, w.events)))
            .unzip();
        let mut awake_total = 0usize;
        for sm in &sms {
            sm.merge_into(&mut metrics);
            awake_total += sm.awake_count;
        }
        let all_awake = awake_total == n;
        if all_awake {
            metrics.all_awake_tick = metrics.wake_tick.iter().filter_map(|&t| t).max();
        }
        let events: u64 = per_shard.iter().map(|&(_, e)| e).sum();
        let obs_shards: Vec<crate::obs::ShardObs> = per_shard.into_iter().map(|(o, _)| o).collect();
        let mut obs = crate::obs::merge_shard_obs(n, config.obs, &obs_shards);
        obs.events = events;
        obs.runtime.stall_rounds = stall_rounds;
        obs.runtime.prefetch_batches = obs.batch_sizes.count();
        crate::obs::add_global_events(events);
        RunReport {
            all_awake,
            rounds: round,
            outputs,
            truncated,
            metrics,
            trace: None,
            obs,
            #[cfg(feature = "audit")]
            audit_log: None,
        }
    }
}

/// One worker shard of a sharded sync run: the serial engine's per-round
/// state restricted to a contiguous node range. Local node index = global
/// id − `lo`.
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
    wake_queued: &'e mut [bool],
    inboxes: &'e mut [Vec<(Incoming, P::Msg)>],
    sm: crate::shard::ShardMetrics,
    obs: crate::obs::ShardObs,
    arena: &'e mut PayloadArena<P::Msg>,
    inflight: &'e mut Vec<SyncCross<P::Msg>>,
    touched: &'e mut Vec<usize>,
    newly_awake: &'e mut Vec<(NodeId, WakeCause)>,
    entries_buf: &'e mut Vec<(Port, PayloadRef)>,
    stage: &'e mut [Vec<SyncCross<P::Msg>>],
    drain_buf: &'e mut Vec<SyncCross<P::Msg>>,
    /// This shard's schedule wakes, `(round, id)`-sorted.
    wakes: Vec<(u64, NodeId)>,
    cursor: usize,
    /// Messages staged since the last publish.
    staged: u64,
    /// Locally processed events (deliveries + wakes), merged at the end.
    events: u64,
}

impl<P: SyncProtocol> SyncShard<'_, P> {
    /// The worker loop; see `AsyncShard::run` for the barrier discipline.
    /// Messages are only *collected* at the boundary and delivered inside
    /// the round body, so a run stopped by the cap leaves them undelivered
    /// and unaccounted — exactly like the serial engine's `in_flight` queue.
    fn run(
        &mut self,
        cells: &crate::shard::Cells<SyncCross<P::Msg>>,
        slots: &[std::sync::Mutex<SyncPublished>],
        decision: &std::sync::atomic::AtomicU64,
        barrier: &std::sync::Barrier,
    ) {
        self.publish_slot(slots);
        loop {
            barrier.wait();
            self.collect_cells(cells);
            barrier.wait();
            let round = decision.load(std::sync::atomic::Ordering::Relaxed);
            if round == u64::MAX {
                break;
            }
            self.process_round(round);
            self.publish_cells(cells);
            self.publish_slot(slots);
        }
        self.obs.timeline.finish();
        self.obs.events = self.events;
        self.obs.arena_high_water = self.arena.high_water() as u64;
    }

    fn publish_slot(&mut self, slots: &[std::sync::Mutex<SyncPublished>]) {
        let wants = self
            .awake
            .iter()
            .zip(self.protocols.iter())
            .any(|(&a, p)| a && p.wants_round());
        *slots[self.me].lock().unwrap() = SyncPublished {
            staged: self.staged,
            wants,
            wakes_pending: self.cursor < self.wakes.len(),
        };
        self.staged = 0;
    }

    fn publish_cells(&mut self, cells: &crate::shard::Cells<SyncCross<P::Msg>>) {
        for dst in 0..self.plan.k {
            if dst == self.me {
                continue;
            }
            for phase in 0..crate::shard::PHASES {
                let buf = &mut self.stage[dst * crate::shard::PHASES + phase];
                if !buf.is_empty() {
                    cells.publish(self.me, dst, phase, buf);
                }
            }
        }
    }

    /// Concatenates last round's staged messages into `inflight`,
    /// phase-major then source-shard-major — the canonical serial
    /// `outbox_all` order restricted to this shard's receivers.
    fn collect_cells(&mut self, cells: &crate::shard::Cells<SyncCross<P::Msg>>) {
        for phase in 0..crate::shard::PHASES {
            for src in 0..self.plan.k {
                if src == self.me {
                    let buf = &mut self.stage[self.me * crate::shard::PHASES + phase];
                    self.inflight.append(buf);
                } else {
                    cells.drain(src, self.me, phase, self.drain_buf);
                    self.inflight.append(self.drain_buf);
                }
            }
        }
    }

    /// The serial engine's round body over this shard's nodes: deliver,
    /// queue wakes (adversary beats message), wake handlers ascending, then
    /// the compute-and-send step ascending.
    fn process_round(&mut self, round: u64) {
        let tick = round * TICKS_PER_UNIT;
        let mut inflight = std::mem::take(&mut *self.inflight);
        if !inflight.is_empty() {
            self.sm.last_receipt_tick =
                Some(self.sm.last_receipt_tick.map_or(tick, |t| t.max(tick)));
        }
        self.events += inflight.len() as u64;
        self.obs.tl_delivered(tick, inflight.len() as u64);
        for m in inflight.drain(..) {
            let li = m.to as usize - self.lo;
            self.received_by[li] += 1;
            let sender_id = match self.net.mode() {
                crate::knowledge::KnowledgeMode::Kt1 => {
                    Some(self.net.ids().id(NodeId::new(m.from as usize)))
                }
                crate::knowledge::KnowledgeMode::Kt0 => None,
            };
            if self.inboxes[li].is_empty() {
                self.touched.push(li);
            }
            if !self.awake[li] {
                self.obs.note_wake_pred(li, m.from);
            }
            let msg = match m.payload {
                crate::shard::CrossPayload::Local(r) => self.arena.take(r),
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
        *self.inflight = inflight;
        while self.cursor < self.wakes.len() && self.wakes[self.cursor].0 <= round {
            let v = self.wakes[self.cursor].1;
            self.cursor += 1;
            let li = v.index() - self.lo;
            if !self.awake[li] && !self.wake_queued[li] {
                self.wake_queued[li] = true;
                self.newly_awake.push((v, WakeCause::Adversary));
            }
        }
        let mut touched = std::mem::take(&mut *self.touched);
        for &li in &touched {
            if !self.awake[li] && !self.wake_queued[li] {
                self.wake_queued[li] = true;
                self.newly_awake
                    .push((NodeId::new(li + self.lo), WakeCause::Message));
            }
        }
        touched.clear();
        *self.touched = touched;
        let mut newly = std::mem::take(&mut *self.newly_awake);
        newly.sort_unstable_by_key(|&(v, _)| v);
        self.events += newly.len() as u64;
        self.obs.tl_wakes(tick, newly.len() as u64);
        for &(v, cause) in newly.iter() {
            let li = v.index() - self.lo;
            if cause == WakeCause::Adversary {
                self.obs.clear_wake_pred(li);
            }
            self.awake[li] = true;
            self.sm.awake_count += 1;
            self.wake_tick[li] = Some(tick);
            self.sm.first_wake_tick = Some(self.sm.first_wake_tick.map_or(tick, |t| t.min(tick)));
            let mut entries = std::mem::take(&mut *self.entries_buf);
            let mut ctx = Context::new(
                v,
                self.net.graph().degree(v),
                self.net.mode(),
                self.tables.id_to_port(v.index()),
                &mut entries,
                self.arena,
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
            *self.entries_buf = entries;
        }
        for &(v, _) in newly.iter() {
            self.wake_queued[v.index() - self.lo] = false;
        }
        newly.clear();
        *self.newly_awake = newly;
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
            let mut entries = std::mem::take(&mut *self.entries_buf);
            let mut ctx = Context::new(
                v,
                self.net.graph().degree(v),
                self.net.mode(),
                self.tables.id_to_port(v.index()),
                &mut entries,
                self.arena,
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
            *self.entries_buf = entries;
        }
    }

    /// The serial send-queue pass for one handler's outbox, staging into
    /// per-`(shard, phase)` buffers for next-round delivery. `tick` is the
    /// round's dispatch tick — sends attribute to the origin round.
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
            let bits = self.arena.bits(r);
            self.sm.messages_sent += 1;
            self.sm.bits_sent += bits as u64;
            self.sm.max_message_bits = self.sm.max_message_bits.max(bits);
            self.sent_by[from.index() - self.lo] += 1;
            // Sync deliveries always take one round: τ ticks of latency.
            self.obs.on_send_at(tick, bits as u64, TICKS_PER_UNIT);
            let dst = self.plan.shard_of(to);
            let payload = if dst == self.me {
                crate::shard::CrossPayload::Local(r)
            } else {
                crate::shard::CrossPayload::Remote(self.arena.take(r), bits)
            };
            self.staged += 1;
            self.stage[dst * crate::shard::PHASES + phase].push(SyncCross {
                to: hot.to,
                from: from.index() as u32,
                rport: hot.rport,
                payload,
            });
        }
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

    /// Sharded sync runs reproduce the serial engine byte-for-byte: metrics,
    /// outputs, and both observability serializations — at any shard count,
    /// including more shards than nodes.
    #[test]
    fn sync_sharded_run_is_byte_identical_to_serial() {
        let net = Network::kt1(generators::erdos_renyi_connected(37, 0.15, 11).unwrap(), 11);
        let all: Vec<NodeId> = (0..37).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.5);
        let run = |shards: usize| {
            let config = SyncConfig {
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<BatchCounter>::new(&net, config).run(&schedule)
        };
        let serial = run(1);
        for shards in [2, 3, 4, 64] {
            let sharded = run(shards);
            assert_eq!(serial.metrics, sharded.metrics, "shards={shards}");
            assert_eq!(serial.all_awake, sharded.all_awake);
            assert_eq!(serial.rounds, sharded.rounds, "shards={shards}");
            assert_eq!(serial.outputs, sharded.outputs);
            assert_eq!(serial.truncated, sharded.truncated);
            let a = crate::obs::ObsSnapshot::of(&serial);
            let b = crate::obs::ObsSnapshot::of(&sharded);
            assert_eq!(a.to_json(), b.to_json(), "shards={shards}");
            assert_eq!(a.to_prometheus(), b.to_prometheus(), "shards={shards}");
        }
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

    /// A sharded KT1 run of a phase-labelling workload is byte-identical to
    /// the serial run, including both observability serializations.
    #[test]
    fn sync_phased_flood_is_byte_identical_across_shard_counts() {
        let g = generators::erdos_renyi_connected(41, 0.12, 13).unwrap();
        let net = Network::kt1(g, 5);
        let all: Vec<NodeId> = (0..41).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.7);
        let run = |shards: usize| {
            let config = SyncConfig {
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<PhasedSyncFlood>::new(&net, config).run(&schedule)
        };
        let a = run(1);
        for shards in [2, 3] {
            let b = run(shards);
            assert_eq!(a.metrics, b.metrics, "shards={shards}");
            assert_eq!(a.outputs, b.outputs, "shards={shards}");
            assert_eq!(a.rounds, b.rounds, "shards={shards}");
            assert_eq!(a.all_awake, b.all_awake);
            assert_eq!(a.truncated, b.truncated);
            let sa = crate::obs::ObsSnapshot::of(&a);
            let sb = crate::obs::ObsSnapshot::of(&b);
            assert_eq!(sa.to_json(), sb.to_json(), "shards={shards}");
            assert_eq!(sa.to_prometheus(), sb.to_prometheus(), "shards={shards}");
        }
    }

    /// `wants_round` keeps the sharded clock running exactly as long as the
    /// serial one: silent-timer protocols terminate with identical rounds.
    #[test]
    fn sync_sharded_wants_round_matches_serial() {
        let net = Network::kt1(generators::path(7).unwrap(), 1);
        let run = |shards: usize| {
            let config = SyncConfig {
                shards,
                ..SyncConfig::default()
            };
            SyncEngine::<TimerNode>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        };
        let (serial, sharded) = (run(1), run(3));
        assert_eq!(serial.metrics, sharded.metrics);
        assert_eq!(serial.rounds, sharded.rounds);
        assert_eq!(serial.all_awake, sharded.all_awake);
    }

    /// The round cap truncates at the same boundary at any shard count, and
    /// a truncated sharded engine resets cleanly for the next run.
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
            shards: 4,
            ..SyncConfig::default()
        };
        let serial_config = SyncConfig {
            max_rounds: 9,
            ..SyncConfig::default()
        };
        let schedule = WakeSchedule::single(NodeId::new(0));
        let serial = SyncEngine::<Chatter>::new(&net, serial_config).run(&schedule);
        let mut engine = SyncEngine::<Chatter>::new(&net, config);
        let sharded = engine.run_mut(&schedule);
        assert!(serial.truncated && sharded.truncated);
        assert_eq!(serial.metrics, sharded.metrics);
        assert_eq!(serial.rounds, sharded.rounds);
        assert_eq!(serial.obs.events, sharded.obs.events);
        // Rerun on the same engine: leftover collected-but-undelivered
        // messages from the truncated run must not leak into the next one.
        let again = engine.run_mut(&schedule);
        assert_eq!(again.metrics, sharded.metrics);
    }
}
