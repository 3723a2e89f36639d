//! Protocol traits and the handler-side [`Context`].

use wakeup_graph::rng::Xoshiro256;
use wakeup_graph::NodeId;

use crate::arena::{PayloadArena, PayloadRef};
use crate::bits::BitStr;
use crate::knowledge::{KnowledgeMode, Port};
use crate::message::{ChannelModel, Payload};
use crate::network::{Network, NodeTables};

/// Everything a node knows at initialization time, per the paper's model.
#[derive(Debug, Clone)]
pub struct NodeInit<'a> {
    /// This node's network ID.
    pub id: u64,
    /// This node's degree (= number of ports).
    pub degree: usize,
    /// A constant-factor upper bound on `n` (the paper grants nodes
    /// knowledge of a constant-factor upper bound on `log n`, which this
    /// subsumes; algorithms should treat it as an estimate, not exact).
    pub n_hint: usize,
    /// Sorted neighbor IDs — `Some` under KT1, `None` under KT0.
    pub neighbor_ids: Option<&'a [u64]>,
    /// The advice string assigned by the oracle (empty without an oracle).
    pub advice: &'a BitStr,
    /// Seed for this node's private random bits (independent across nodes).
    pub private_seed: u64,
    /// Seed of the shared random tape (same for all nodes), for algorithms
    /// analyzed under shared randomness (Theorem 1 allows it).
    pub shared_seed: u64,
}

/// Drives `f` over every node's [`NodeInit`], in dense index order — the
/// one place both engines (and their `reset` paths) derive initial
/// knowledge, so fresh construction and in-place re-initialization cannot
/// drift apart.
///
/// # Panics
///
/// Panics if `advice` is present but has the wrong length.
pub(crate) fn for_each_node_init(
    net: &Network,
    tables: &NodeTables,
    seed: u64,
    shared_seed: u64,
    advice: Option<&[BitStr]>,
    mut f: impl FnMut(usize, &NodeInit<'_>),
) {
    let empty = BitStr::new();
    if let Some(advice) = advice {
        assert_eq!(advice.len(), net.n(), "advice must cover every node");
    }
    let master = Xoshiro256::seed_from(seed);
    for v in 0..net.n() {
        let node = NodeId::new(v);
        let init = NodeInit {
            id: net.ids().id(node),
            degree: net.graph().degree(node),
            n_hint: net.n(),
            neighbor_ids: (net.mode() == KnowledgeMode::Kt1).then(|| tables.neighbor_ids(v)),
            advice: advice.map_or(&empty, |a| &a[v]),
            private_seed: {
                let mut fork = master.fork(v as u64);
                fork.next_u64()
            },
            shared_seed,
        };
        f(v, &init);
    }
}

/// How a node was woken up.
///
/// The paper's model lets an algorithm distinguish the two: a node woken by
/// the adversary "starts executing the algorithm", while one woken by a
/// message starts executing *because of that message* (Theorem 3's DFS
/// algorithm relies on this — only adversary-woken nodes draw ranks and
/// launch tokens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCause {
    /// The adversary woke this node directly.
    Adversary,
    /// A message receipt woke this node (`on_message` follows immediately).
    Message,
}

/// Metadata of a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incoming {
    /// The receiver-side port the message arrived on. Per the paper's KT0
    /// convention, an endpoint learns the port connection once a message
    /// crosses the edge — the engine models that by always revealing the
    /// arrival port.
    pub port: Port,
    /// The sender's ID — `Some` under KT1, `None` under KT0 (where sender
    /// identity must travel inside the payload if the algorithm needs it).
    pub sender_id: Option<u64>,
}

/// The batch of messages delivered to one node at one instant (one tick of
/// the async engine, one round of the sync engine), in adversarial delivery
/// order.
///
/// An `Inbox` is a draining view over an engine-owned buffer: consuming it
/// moves payloads out without allocating, and anything left unconsumed when
/// the handler returns is dropped (the buffer's capacity is recycled either
/// way). The engines construct inboxes; protocols that implement the legacy
/// per-message hooks in terms of a batch implementation can wrap their own
/// buffer via [`Inbox::new`].
#[derive(Debug)]
pub struct Inbox<'a, M> {
    inner: std::vec::Drain<'a, (Incoming, M)>,
}

impl<'a, M> Inbox<'a, M> {
    /// Wraps `buf` as an inbox, draining it (the buffer is empty once the
    /// inbox is dropped, keeping its capacity).
    pub fn new(buf: &'a mut Vec<(Incoming, M)>) -> Inbox<'a, M> {
        Inbox {
            inner: buf.drain(..),
        }
    }

    /// The next message, in delivery order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Incoming, M)> {
        self.inner.next()
    }

    /// Messages not yet consumed.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether every message has been consumed (or none ever arrived).
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Collects the remaining messages into an owned vector (the
    /// compatibility path for protocols that keep the `Vec`-based
    /// [`SyncProtocol::on_round`] signature).
    pub fn take_all(&mut self) -> Vec<(Incoming, M)> {
        self.inner.by_ref().collect()
    }
}

/// Handler-side capabilities: sending messages and recording outputs.
///
/// A fresh `Context` is passed to every handler invocation; messages queued
/// with [`Context::send`]/[`Context::send_to_id`]/[`Context::broadcast`] are
/// dispatched by the engine when the handler returns (local computation is
/// instantaneous and free, per the model). Payloads are stored once in the
/// engine's arena at enqueue time — a broadcast shares one stored payload
/// across all ports — and `size_bits` accounting plus CONGEST enforcement
/// happen here, so the engines' dispatch loops touch only small handles.
#[derive(Debug)]
pub struct Context<'a, M> {
    node: NodeId,
    degree: usize,
    mode: KnowledgeMode,
    /// Sorted (neighbor id, port) pairs; empty under KT0.
    id_to_port: &'a [(u64, Port)],
    entries: &'a mut Vec<(Port, PayloadRef)>,
    arena: &'a mut PayloadArena<M>,
    channel: ChannelModel,
    count_violations: bool,
    violations: &'a mut u64,
    output: &'a mut Option<u64>,
    phases: &'a mut crate::obs::PhaseSpans,
    tick: u64,
}

impl<'a, M: Payload> Context<'a, M> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        degree: usize,
        mode: KnowledgeMode,
        id_to_port: &'a [(u64, Port)],
        entries: &'a mut Vec<(Port, PayloadRef)>,
        arena: &'a mut PayloadArena<M>,
        channel: ChannelModel,
        count_violations: bool,
        violations: &'a mut u64,
        output: &'a mut Option<u64>,
        phases: &'a mut crate::obs::PhaseSpans,
        tick: u64,
    ) -> Context<'a, M> {
        debug_assert!(
            entries.is_empty(),
            "outbox buffer must be drained between handlers"
        );
        Context {
            node,
            degree,
            mode,
            id_to_port,
            entries,
            arena,
            channel,
            count_violations,
            violations,
            output,
            phases,
            tick,
        }
    }

    /// The dense index of this node (for engine-side bookkeeping; honest
    /// algorithms should use IDs, which the engine provides via
    /// [`NodeInit::id`]).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports at this node.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// One CONGEST check per queued message, at enqueue time.
    #[inline]
    fn check(&mut self, bits: usize) {
        if !self.channel.permits(bits) {
            if self.count_violations {
                *self.violations += 1;
            } else {
                panic!(
                    "CONGEST violation: {bits}-bit message from {} exceeds {:?}",
                    self.node, self.channel
                );
            }
        }
    }

    /// Queues `msg` on the given port.
    ///
    /// # Panics
    ///
    /// Panics if the port number exceeds the degree, or (under CONGEST
    /// without violation recording) if the message is oversize.
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            port.number() <= self.degree,
            "port {port} out of range for degree {}",
            self.degree
        );
        let bits = msg.size_bits();
        self.check(bits);
        let r = self.arena.insert_with_bits(msg, bits);
        self.entries.push((port, r));
    }

    /// Queues `msg` to the neighbor with the given ID (KT1 only).
    ///
    /// # Panics
    ///
    /// Panics under KT0 (nodes there cannot address neighbors by ID) or if
    /// `id` is not a neighbor — both are algorithm bugs, not runtime
    /// conditions.
    pub fn send_to_id(&mut self, id: u64, msg: M) {
        assert_eq!(
            self.mode,
            KnowledgeMode::Kt1,
            "send_to_id requires the KT1 knowledge mode"
        );
        let port = self
            .id_to_port
            .binary_search_by_key(&id, |&(x, _)| x)
            .map(|i| self.id_to_port[i].1)
            .unwrap_or_else(|_| panic!("id {id} is not a neighbor of {}", self.node));
        let bits = msg.size_bits();
        self.check(bits);
        let r = self.arena.insert_with_bits(msg, bits);
        self.entries.push((port, r));
    }

    /// Queues `msg` on every port. The payload is stored once and shared —
    /// zero clones, however large the degree (receivers still each get their
    /// own copy at delivery time, per the model).
    pub fn broadcast(&mut self, msg: M) {
        if self.degree == 0 {
            return;
        }
        let bits = msg.size_bits();
        if !self.channel.permits(bits) {
            // One violation per port, matching what per-port sends would
            // report (the panic path fires on the first).
            for _ in 0..self.degree {
                self.check(bits);
            }
        }
        let first = self.arena.insert_with_bits(msg, bits);
        self.entries.push((Port::new(1), first));
        for p in 2..=self.degree {
            let r = self.arena.share(first);
            self.entries.push((Port::new(p), r));
        }
    }

    /// Records this node's output (e.g. the NIH answer). Later calls
    /// overwrite earlier ones.
    pub fn output(&mut self, value: u64) {
        *self.output = Some(value);
    }

    /// Marks this handler invocation as belonging to the named protocol
    /// phase, for the run's [`crate::obs::PhaseSpans`].
    ///
    /// Telemetry only: the call records the engine's current tick on the
    /// engine side and returns nothing, so a protocol cannot use it to learn
    /// global time — the model stays honest. Labels must be `&'static str`
    /// so recording never allocates; call it at phase *transitions*, not per
    /// message.
    pub fn phase(&mut self, label: &'static str) {
        self.phases.enter(label, self.tick);
    }

    /// Runs a sub-protocol handler under a context of a different message
    /// type, wrapping every queued message with `wrap` into this context's
    /// outbox. Outputs recorded by the inner handler land in the same
    /// per-node output slot.
    ///
    /// This is the composition primitive behind protocol adapters like the
    /// Lemma 1 needles-in-haystack wrapper: the adapter's message type embeds
    /// the inner protocol's, and the inner handlers run unchanged.
    ///
    /// # Example
    ///
    /// See `wakeup_core::nih` for a full adapter built on this.
    pub fn scoped<M2, R>(
        &mut self,
        run: impl FnOnce(&mut Context<'_, M2>) -> R,
        wrap: impl Fn(M2) -> M,
    ) -> R
    where
        M2: Payload,
    {
        let mut buf = ScopedBuf::default();
        self.scoped_with(&mut buf, run, wrap)
    }

    /// As [`Context::scoped`], but borrowing the inner staging buffer from
    /// the caller, so adapters that run a sub-protocol on every event (e.g.
    /// the needles-in-haystack wrapper) can recycle one buffer instead of
    /// allocating per handler invocation. The buffer is drained before
    /// returning.
    ///
    /// CONGEST is enforced on the *wrapped* messages as they enter this
    /// context's outbox (the inner context's raw messages never cross a
    /// wire, so they are exempt — exactly one check per transmitted
    /// message).
    pub fn scoped_with<M2, R>(
        &mut self,
        buf: &mut ScopedBuf<M2>,
        run: impl FnOnce(&mut Context<'_, M2>) -> R,
        wrap: impl Fn(M2) -> M,
    ) -> R
    where
        M2: Payload,
    {
        debug_assert!(
            buf.entries.is_empty(),
            "scoped outbox buffer must be drained between handlers"
        );
        let mut ignored = 0u64;
        let mut inner: Context<'_, M2> = Context {
            node: self.node,
            degree: self.degree,
            mode: self.mode,
            id_to_port: self.id_to_port,
            entries: &mut buf.entries,
            arena: &mut buf.arena,
            // Inner messages are wrapped before transmission; the outer push
            // below performs the single CONGEST check on the wrapped size.
            channel: ChannelModel::Local,
            count_violations: true,
            violations: &mut ignored,
            output: &mut *self.output,
            phases: &mut *self.phases,
            tick: self.tick,
        };
        let result = run(&mut inner);
        for (port, r) in buf.entries.drain(..) {
            let wrapped = wrap(buf.arena.take(r));
            let bits = wrapped.size_bits();
            self.check(bits);
            let nr = self.arena.insert_with_bits(wrapped, bits);
            self.entries.push((port, nr));
        }
        result
    }
}

/// Reusable staging buffer for [`Context::scoped_with`]: the inner
/// sub-protocol's outbox entries plus the arena holding their payloads.
/// Adapters keep one per node and recycle it across handler invocations.
#[derive(Debug)]
pub struct ScopedBuf<M> {
    entries: Vec<(Port, PayloadRef)>,
    arena: PayloadArena<M>,
}

impl<M> Default for ScopedBuf<M> {
    fn default() -> Self {
        ScopedBuf {
            entries: Vec::new(),
            arena: PayloadArena::default(),
        }
    }
}

/// A protocol for the asynchronous engine.
///
/// Handlers run atomically; the node is event-driven (woken by the adversary
/// or by a first message, then driven by message receipts).
///
/// Protocol state must be [`Send`]: sharded runs (see
/// [`crate::AsyncConfig::shards`]) move each node's state to its owning
/// worker thread.
pub trait AsyncProtocol: Sized + Send {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Constructs the per-node state from the initial knowledge.
    fn init(init: &NodeInit<'_>) -> Self;

    /// Re-derives this node's state for a fresh trial over the same network.
    /// Must leave `self` exactly as `Self::init(init)` would; the default
    /// does literally that. Protocols with large per-node containers
    /// override it to keep their allocations.
    fn reinit(&mut self, init: &NodeInit<'_>) {
        *self = Self::init(init);
    }

    /// Called exactly once when the node wakes up (adversary wake or first
    /// message receipt; in the latter case `on_wake` runs before the waking
    /// message is handled).
    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Msg>, cause: WakeCause);

    /// Called on every message receipt (after `on_wake`, if waking).
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: Incoming, msg: Self::Msg);

    /// Handles every message delivered to this node at one tick in one call.
    ///
    /// The engine invokes this (not `on_message`) once per receiving node
    /// per tick; the default forwards each message to [`Self::on_message`]
    /// in delivery order, so per-message protocols need not care. Protocols
    /// on hot paths override it to amortize per-delivery work. Overrides
    /// must preserve the semantics of processing the messages one by one in
    /// inbox order — the engine's adversarial delivery order and per-channel
    /// FIFO guarantees are fixed before this hook runs. The
    /// [`crate::PerMessage`] wrapper forces the unbatched path, so an
    /// override can be differentially tested against this specification.
    fn on_messages_batch(
        &mut self,
        ctx: &mut Context<'_, Self::Msg>,
        inbox: &mut Inbox<'_, Self::Msg>,
    ) {
        while let Some((from, msg)) = inbox.next() {
            self.on_message(ctx, from, msg);
        }
    }
}

/// A protocol for the synchronous lock-step engine.
///
/// Each round, every awake node receives the batch of messages sent to it in
/// the previous round and takes one compute-and-send step. Nodes have no
/// global round counter — only what they count themselves since waking.
///
/// Protocol state must be [`Send`] (see [`AsyncProtocol`] on sharded runs).
pub trait SyncProtocol: Sized + Send {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Constructs the per-node state from the initial knowledge.
    fn init(init: &NodeInit<'_>) -> Self;

    /// Re-derives this node's state for a fresh trial over the same network
    /// (see [`AsyncProtocol::reinit`]).
    fn reinit(&mut self, init: &NodeInit<'_>) {
        *self = Self::init(init);
    }

    /// Called exactly once, at the start of the round in which the node
    /// wakes (before its first round step).
    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Msg>, cause: WakeCause);

    /// One synchronous step: `inbox` holds the messages delivered at the
    /// start of this round.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: Vec<(Incoming, Self::Msg)>);

    /// One synchronous step over a borrowed inbox.
    ///
    /// The engine invokes this (not `on_round`) once per awake node per
    /// round — including rounds with an empty inbox, which protocols with
    /// internal timers count. The default collects the inbox into a `Vec`
    /// and forwards to [`Self::on_round`]; hot protocols override it to
    /// consume the messages in place without the per-round allocation. The
    /// [`crate::PerRound`] wrapper forces the `Vec`-based path, so an
    /// override can be differentially tested against this specification.
    fn on_messages_batch(
        &mut self,
        ctx: &mut Context<'_, Self::Msg>,
        inbox: &mut Inbox<'_, Self::Msg>,
    ) {
        let batch = inbox.take_all();
        self.on_round(ctx, batch);
    }

    /// Whether this node needs further rounds even with no traffic in
    /// flight. The engine keeps stepping while any awake node returns true —
    /// protocols with internal timers (e.g. FastWakeUp's 10-round window)
    /// use this to keep the clock running.
    fn wants_round(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Unit;
    impl Payload for Unit {
        fn size_bits(&self) -> usize {
            1
        }
    }

    /// Builds a context over the given scratch parts, defaulting to LOCAL.
    #[allow(clippy::too_many_arguments)]
    fn ctx_over<'a, M: Payload>(
        degree: usize,
        mode: KnowledgeMode,
        id_to_port: &'a [(u64, Port)],
        entries: &'a mut Vec<(Port, PayloadRef)>,
        arena: &'a mut PayloadArena<M>,
        violations: &'a mut u64,
        output: &'a mut Option<u64>,
        phases: &'a mut crate::obs::PhaseSpans,
    ) -> Context<'a, M> {
        Context::new(
            NodeId::new(0),
            degree,
            mode,
            id_to_port,
            entries,
            arena,
            ChannelModel::Local,
            false,
            violations,
            output,
            phases,
            0,
        )
    }

    #[test]
    fn context_send_collects() {
        let mut out = None;
        let mut entries = Vec::new();
        let mut arena = PayloadArena::default();
        let mut violations = 0;
        let mut phases = crate::obs::PhaseSpans::default();
        let mut ctx: Context<'_, Unit> = ctx_over(
            3,
            KnowledgeMode::Kt0,
            &[],
            &mut entries,
            &mut arena,
            &mut violations,
            &mut out,
            &mut phases,
        );
        ctx.send(Port::new(2), Unit);
        ctx.broadcast(Unit);
        ctx.output(42);
        ctx.phase("probe");
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].0, Port::new(2));
        // The broadcast stored one payload shared across three ports.
        assert_eq!(arena.live(), 2);
        assert_eq!(out, Some(42));
        assert_eq!(phases.spans()[0].label, "probe");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_beyond_degree_panics() {
        let mut out = None;
        let mut entries = Vec::new();
        let mut arena = PayloadArena::default();
        let mut violations = 0;
        let mut phases = crate::obs::PhaseSpans::default();
        let mut ctx: Context<'_, Unit> = ctx_over(
            2,
            KnowledgeMode::Kt0,
            &[],
            &mut entries,
            &mut arena,
            &mut violations,
            &mut out,
            &mut phases,
        );
        ctx.send(Port::new(3), Unit);
    }

    #[test]
    #[should_panic(expected = "KT1")]
    fn send_to_id_requires_kt1() {
        let mut out = None;
        let mut entries = Vec::new();
        let mut arena = PayloadArena::default();
        let mut violations = 0;
        let mut phases = crate::obs::PhaseSpans::default();
        let mut ctx: Context<'_, Unit> = ctx_over(
            2,
            KnowledgeMode::Kt0,
            &[],
            &mut entries,
            &mut arena,
            &mut violations,
            &mut out,
            &mut phases,
        );
        ctx.send_to_id(5, Unit);
    }

    #[test]
    fn send_to_id_resolves_port() {
        let table = [(3u64, Port::new(2)), (9u64, Port::new(1))];
        let mut out = None;
        let mut entries = Vec::new();
        let mut arena = PayloadArena::default();
        let mut violations = 0;
        let mut phases = crate::obs::PhaseSpans::default();
        let mut ctx: Context<'_, Unit> = ctx_over(
            2,
            KnowledgeMode::Kt1,
            &table,
            &mut entries,
            &mut arena,
            &mut violations,
            &mut out,
            &mut phases,
        );
        ctx.send_to_id(9, Unit);
        assert_eq!(entries[0].0, Port::new(1));
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn send_to_unknown_id_panics() {
        let table = [(3u64, Port::new(1))];
        let mut out = None;
        let mut entries = Vec::new();
        let mut arena = PayloadArena::default();
        let mut violations = 0;
        let mut phases = crate::obs::PhaseSpans::default();
        let mut ctx: Context<'_, Unit> = ctx_over(
            1,
            KnowledgeMode::Kt1,
            &table,
            &mut entries,
            &mut arena,
            &mut violations,
            &mut out,
            &mut phases,
        );
        ctx.send_to_id(4, Unit);
    }

    #[test]
    fn congest_checked_at_enqueue_per_port() {
        #[derive(Debug, Clone)]
        struct Big;
        impl Payload for Big {
            fn size_bits(&self) -> usize {
                1000
            }
        }
        let mut out = None;
        let mut entries = Vec::new();
        let mut arena = PayloadArena::default();
        let mut violations = 0;
        let mut phases = crate::obs::PhaseSpans::default();
        let mut ctx: Context<'_, Big> = Context::new(
            NodeId::new(0),
            3,
            KnowledgeMode::Kt0,
            &[],
            &mut entries,
            &mut arena,
            ChannelModel::Congest { max_bits: 10 },
            true,
            &mut violations,
            &mut out,
            &mut phases,
            0,
        );
        ctx.broadcast(Big);
        ctx.send(Port::new(1), Big);
        assert_eq!(violations, 4, "one violation per port, counted at enqueue");
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn inbox_drains_leftovers_and_reports_len() {
        let inc = Incoming {
            port: Port::new(1),
            sender_id: None,
        };
        let mut buf = vec![(inc, Unit), (inc, Unit), (inc, Unit)];
        let mut inbox = Inbox::new(&mut buf);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert!(inbox.next().is_some());
        assert_eq!(inbox.len(), 2);
        drop(inbox);
        assert!(buf.is_empty(), "dropping the inbox drains the buffer");
        assert!(buf.capacity() >= 3, "the buffer keeps its capacity");
    }
}
