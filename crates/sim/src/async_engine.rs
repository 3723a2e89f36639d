//! The asynchronous discrete-event engine.
//!
//! # Event-queue design
//!
//! Delays are clamped to `[1, τ]` ticks at the single dispatch site, and the
//! per-channel FIFO horizon is bounded by induction (each clamp target was
//! itself scheduled ≤ τ ticks past an earlier, hence no later, send tick), so
//! **every delivery lands in `(now, now + τ]`** where `now` is the engine's
//! monotone tick cursor. That invariant lets a fixed-size bucketed timer
//! wheel of `≥ τ + 1` slots replace a binary heap: O(1) insert, O(1)
//! amortized pop, no per-event comparisons. Adversary wake-ups are the only
//! events that may lie arbitrarily far in the future; they are known upfront
//! and handled by a cursor over a stably tick-sorted list.
//!
//! Processing order within a tick is **canonical** — a pure function of the
//! simulated execution, independent of schedule entry order and of the shard
//! count: schedule wakes run first in ascending node-id order, then the
//! tick's deliveries as one batch per receiving node, receivers ascending,
//! each receiver's batch in channel send order (bucket insertion order is
//! send order, and the per-receiver scatter preserves it). Canonicalizing
//! the serial engine this way is what lets the sharded path (see
//! [`AsyncConfig::shards`] and the `shard` module) reproduce its output
//! byte for byte: shard-owned node ranges are contiguous and ascending, so
//! draining cross-shard mailboxes phase-major/source-shard-major replays
//! exactly this order.
//!
//! Message payloads live out-of-line in a [`PayloadArena`] (a refcounted
//! slab with a free list): the handle created when a context enqueues a send
//! is the very handle delivered later, so a unicast payload is written once
//! and moved out once, and a broadcast is stored once and shared across
//! deg(v) wheel entries. Per-channel FIFO horizons and sequence counters are
//! flat arrays indexed by the dense directed-edge slots of [`NodeTables`].
//! Within a tick, consecutive wheel entries addressed to the same receiver
//! are handed to the protocol as one batch (`on_messages_batch`), which
//! preserves delivery order exactly while amortizing per-delivery dispatch.

use std::sync::Arc;

use wakeup_graph::NodeId;

use crate::adversary::{DelayStrategy, UnitDelay, WakeSchedule};
use crate::arena::{PayloadArena, PayloadRef};
use crate::bits::{BitStr, DenseBits};
use crate::knowledge::Port;
use crate::message::ChannelModel;
use crate::metrics::{Metrics, RunReport, TICKS_PER_UNIT};
use crate::network::{Network, NodeTables};
use crate::protocol::{AsyncProtocol, Context, Inbox, Incoming, WakeCause};

/// Configuration of an [`AsyncEngine`] run.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Bandwidth regime; oversize messages in CONGEST mode panic unless
    /// `record_congest_violations` is set.
    pub channel: ChannelModel,
    /// Master seed for the nodes' private randomness.
    pub seed: u64,
    /// Seed of the shared random tape.
    pub shared_seed: u64,
    /// Per-node advice strings from an oracle (None = no advice). Shared via
    /// `Arc` so cached advice is handed to many engines without copying.
    pub advice: Option<Arc<Vec<BitStr>>>,
    /// Safety cap on processed events; exceeding it sets
    /// [`RunReport::truncated`].
    pub max_events: u64,
    /// Track the set of distinct ports each node communicates over (needed
    /// by the lower-bound experiments; costs memory, off by default).
    pub track_ports: bool,
    /// Observability recording level (default [`crate::obs::ObsLevel::Full`]
    /// — always on; `Counters` is the overhead-bench baseline).
    pub obs: crate::obs::ObsLevel,
    /// Timeline window spacing for the obs v4 windowed series (default
    /// log2; ignored at [`crate::obs::ObsLevel::Counters`], which records
    /// no timeline at all).
    pub obs_windows: crate::obs::WindowCfg,
    /// Count CONGEST violations in metrics instead of panicking.
    pub record_congest_violations: bool,
    /// Record a model-conformance [`crate::audit::AuditLog`] with the given
    /// event capacity (`None` = off).
    #[cfg(feature = "audit")]
    pub audit_capacity: Option<usize>,
    /// Number of intra-run worker shards (default 1 = serial). With `K > 1`
    /// the nodes are partitioned into `K` contiguous ranges advanced in
    /// lockstep tick windows by `K` threads; output is byte-identical to
    /// the serial run at any shard count. Runs that record audit logs, track
    /// ports, or use a delay strategy without a deterministic
    /// [`DelayStrategy::fork`] fall back to the serial path silently (the
    /// output is the same either way).
    pub shards: usize,
}

impl Default for AsyncConfig {
    fn default() -> AsyncConfig {
        AsyncConfig {
            channel: ChannelModel::Local,
            seed: 0xDEFA17,
            shared_seed: 0x5EED,
            advice: None,
            max_events: 50_000_000,
            track_ports: false,
            obs: crate::obs::ObsLevel::Full,
            obs_windows: crate::obs::WindowCfg::Log2,
            record_congest_violations: false,
            #[cfg(feature = "audit")]
            audit_capacity: None,
            shards: 1,
        }
    }
}

/// Ring size: the smallest power of two covering the `τ + 1`-tick delivery
/// horizon (power of two so the modulo is a mask).
const WHEEL_SIZE: usize = (TICKS_PER_UNIT as usize + 1).next_power_of_two();
const WHEEL_MASK: u64 = (WHEEL_SIZE - 1) as u64;
const WHEEL_WORDS: usize = WHEEL_SIZE / 64;

/// A pending delivery: a small `Copy` struct, payload behind an arena handle.
#[derive(Clone, Copy, Debug)]
struct DeliverEntry {
    to: u32,
    /// The sender's node index.
    from: u32,
    /// Receiver-side port number (1-based).
    rport: u32,
    msg: PayloadRef,
}

/// Bucketed timer wheel over the delivery horizon, with a word-packed
/// occupancy bitmap for skipping empty ticks. Payloads live in the engine's
/// [`PayloadArena`]; the wheel holds only handles.
struct TimerWheel {
    buckets: Vec<Vec<DeliverEntry>>,
    occupied: [u64; WHEEL_WORDS],
    len: usize,
    /// Drained-bucket storage kept around so steady-state ticks reuse one
    /// allocation instead of churning.
    spare: Vec<DeliverEntry>,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            buckets: (0..WHEEL_SIZE).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Schedules `entry` for `deliver`, which must lie in the horizon
    /// `(now, now + τ]` — the FIFO-clamp induction guarantees it, and the
    /// assert keeps the wheel honest against future delay strategies.
    fn push(&mut self, now: u64, deliver: u64, entry: DeliverEntry) {
        assert!(
            deliver > now && deliver - now <= TICKS_PER_UNIT,
            "delivery tick {deliver} outside wheel horizon ({now}, {now} + τ]"
        );
        let b = (deliver & WHEEL_MASK) as usize;
        if self.buckets[b].is_empty() {
            self.occupied[b / 64] |= 1 << (b % 64);
        }
        self.buckets[b].push(entry);
        self.len += 1;
    }

    /// Removes and returns the bucket for `tick`. While the caller iterates
    /// it, pushes can only target *other* buckets (deliveries always land
    /// strictly later, and the horizon is narrower than the ring), so the
    /// bucket cannot grow behind the caller's back. Return the storage via
    /// [`TimerWheel::restore_bucket`].
    fn take_bucket(&mut self, tick: u64) -> Vec<DeliverEntry> {
        let b = (tick & WHEEL_MASK) as usize;
        self.occupied[b / 64] &= !(1 << (b % 64));
        let bucket = std::mem::replace(&mut self.buckets[b], std::mem::take(&mut self.spare));
        self.len -= bucket.len();
        bucket
    }

    fn restore_bucket(&mut self, mut bucket: Vec<DeliverEntry>) {
        bucket.clear();
        self.spare = bucket;
    }

    /// Empties the wheel (any undelivered entries left by a truncated run
    /// are dropped; their payloads die with the arena's `clear`) while
    /// keeping bucket capacity for reuse.
    fn clear(&mut self) {
        if self.len > 0 {
            for b in &mut self.buckets {
                b.clear();
            }
            self.occupied = [0; WHEEL_WORDS];
            self.len = 0;
        }
    }

    /// The earliest tick strictly after `now` holding a delivery, if any.
    fn next_occupied_after(&self, now: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let start = ((now + 1) & WHEEL_MASK) as usize;
        let pos = self
            .scan_from(start)
            .expect("non-empty wheel has an occupied bucket");
        let dist = (pos + WHEEL_SIZE - start) & (WHEEL_SIZE - 1);
        Some(now + 1 + dist as u64)
    }

    /// First occupied ring position at or cyclically after `start`.
    fn scan_from(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            return Some(sw * 64 + first.trailing_zeros() as usize);
        }
        for i in 1..=WHEEL_WORDS {
            let idx = (sw + i) % WHEEL_WORDS;
            let word = if idx == sw {
                // Wrapped all the way around: only the bits below `start`.
                self.occupied[idx] & !(!0u64 << sb)
            } else {
                self.occupied[idx]
            };
            if word != 0 {
                return Some(idx * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Discrete-event simulator for the asynchronous model.
///
/// See the crate-level example. Delays come from a [`DelayStrategy`] (default
/// [`UnitDelay`]); FIFO order per channel is enforced regardless of the
/// strategy's choices, matching the paper's channel model.
pub struct AsyncEngine<'n, P: AsyncProtocol> {
    net: crate::network::NetHandle<'n>,
    tables: Arc<NodeTables>,
    config: AsyncConfig,
    protocols: Vec<P>,
    scratch: AsyncScratch<P::Msg>,
}

/// Run-to-run reusable buffers: the wheel, the payload arena, the flat
/// per-channel arrays, and the outbox/batch buffers lent to handlers. Kept
/// in the engine so [`AsyncEngine::reset`]-then-[`AsyncEngine::run_mut`]
/// trial loops recycle every steady-state allocation.
struct AsyncScratch<M> {
    wheel: TimerWheel,
    arena: PayloadArena<M>,
    channel_next: Vec<u64>,
    channel_seq: Vec<u64>,
    entries_buf: Vec<(Port, PayloadRef)>,
    batch_buf: Vec<(Incoming, M)>,
    /// Per-receiver scatter lists for the within-tick delivery phase,
    /// lazily sized to `n` on first use.
    pending: Vec<Vec<DeliverEntry>>,
    /// Receivers with a non-empty `pending` list this tick.
    touched: Vec<u32>,
    /// Per-shard state for sharded runs; empty until the first `shards > 1`
    /// run, rebuilt only when the shard count changes.
    shards: Vec<AsyncShardScratch<M>>,
}

/// Run-to-run reusable per-shard buffers (the sharded counterpart of the
/// fields `AsyncScratch` holds once for serial runs).
struct AsyncShardScratch<M> {
    wheel: TimerWheel,
    arena: PayloadArena<M>,
    pending: Vec<Vec<DeliverEntry>>,
    touched: Vec<u32>,
    entries_buf: Vec<(Port, PayloadRef)>,
    batch_buf: Vec<(Incoming, M)>,
    /// Staged outbound messages, one buffer per `(destination shard, phase)`.
    stage: Vec<Vec<CrossMsg<M>>>,
    /// Scratch a mailbox cell is swapped into while draining.
    drain_buf: Vec<CrossMsg<M>>,
}

impl<M> AsyncShardScratch<M> {
    fn new(k: usize) -> AsyncShardScratch<M> {
        AsyncShardScratch {
            wheel: TimerWheel::new(),
            arena: PayloadArena::default(),
            pending: Vec::new(),
            touched: Vec::new(),
            entries_buf: Vec::new(),
            batch_buf: Vec::new(),
            stage: (0..k * crate::shard::PHASES).map(|_| Vec::new()).collect(),
            drain_buf: Vec::new(),
        }
    }
}

/// A message staged for a window boundary crossing between shards.
struct CrossMsg<M> {
    deliver: u64,
    to: u32,
    from: u32,
    rport: u32,
    payload: crate::shard::CrossPayload<M>,
}

/// What each shard publishes at a window boundary for the coordinator.
#[derive(Clone, Copy)]
struct AsyncPublished {
    /// Earliest future event this shard knows about (its own pending wakes,
    /// its wheel, and the sends it just staged); `u64::MAX` when none.
    next_event: u64,
    /// Events processed in the window just finished (for the global cap).
    new_events: u64,
}

impl Default for AsyncPublished {
    fn default() -> AsyncPublished {
        AsyncPublished {
            next_event: u64::MAX,
            new_events: 0,
        }
    }
}

impl<'n, P: AsyncProtocol> AsyncEngine<'n, P> {
    /// Initializes every node's protocol state over the given network.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new(net: &'n Network, config: AsyncConfig) -> AsyncEngine<'n, P> {
        Self::with_handle(crate::network::NetHandle::Borrowed(net), config)
    }

    /// As [`AsyncEngine::new`], but co-owning a shared network — the entry
    /// point for artifact caches that hand out `Arc<Network>`s, freeing the
    /// engine from the caller's borrow lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `config.advice` is present but has the wrong length.
    pub fn new_shared(net: Arc<Network>, config: AsyncConfig) -> AsyncEngine<'static, P> {
        AsyncEngine::with_handle(crate::network::NetHandle::Shared(net), config)
    }

    fn with_handle(net: crate::network::NetHandle<'n>, config: AsyncConfig) -> AsyncEngine<'n, P> {
        let tables = Arc::clone(net.tables());
        let mut protocols = Vec::with_capacity(net.n());
        crate::protocol::for_each_node_init(
            &net,
            &tables,
            config.seed,
            config.shared_seed,
            config.advice.as_deref().map(Vec::as_slice),
            |_, init| protocols.push(P::init(init)),
        );
        let dir_edges = tables.directed_edges();
        AsyncEngine {
            net,
            tables,
            config,
            protocols,
            scratch: AsyncScratch {
                wheel: TimerWheel::new(),
                arena: PayloadArena::default(),
                channel_next: vec![0; dir_edges],
                channel_seq: vec![0; dir_edges],
                entries_buf: Vec::new(),
                batch_buf: Vec::new(),
                pending: Vec::new(),
                touched: Vec::new(),
                shards: Vec::new(),
            },
        }
    }

    /// Re-derives every node's state for a fresh trial under a new master
    /// seed, keeping the engine's allocations (tables, wheel, arena, channel
    /// arrays, and — via [`AsyncProtocol::reinit`] — per-node containers).
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

    /// Runs with per-message delay τ (the [`UnitDelay`] strategy).
    pub fn run(mut self, schedule: &WakeSchedule) -> RunReport {
        self.run_mut(schedule, &mut UnitDelay)
    }

    /// Runs with an explicit delay strategy.
    pub fn run_with(
        mut self,
        schedule: &WakeSchedule,
        delays: &mut dyn DelayStrategy,
    ) -> RunReport {
        self.run_mut(schedule, delays)
    }

    /// As [`AsyncEngine::run_with`], but also returns the final per-node
    /// protocol states for post-hoc inspection (e.g. checking Claim 4's
    /// per-node token-forwarding bound on `DfsRank`).
    pub fn run_into_parts(
        mut self,
        schedule: &WakeSchedule,
        delays: &mut dyn DelayStrategy,
    ) -> (RunReport, Vec<P>) {
        let report = self.run_mut(schedule, delays);
        (report, self.protocols)
    }

    /// Executes one run without consuming the engine, so a trial loop can
    /// [`AsyncEngine::reset`] and go again over the same topology. The
    /// protocol states afterwards are the run's final states (read them via
    /// [`AsyncEngine::protocols`]).
    pub fn run_mut(
        &mut self,
        schedule: &WakeSchedule,
        delays: &mut dyn DelayStrategy,
    ) -> RunReport {
        if let Some(forks) = self.sharded_eligible(delays) {
            return self.run_sharded(schedule, forks);
        }
        let net = &*self.net;
        let tables = &*self.tables;
        let config = &self.config;
        let n = net.n();
        self.scratch.wheel.clear();
        self.scratch.arena.clear();
        self.scratch.channel_next.fill(0);
        self.scratch.channel_seq.fill(0);
        if self.scratch.pending.len() < n {
            self.scratch.pending.resize_with(n, Vec::new);
        }
        // Canonical wake order: (tick, node id), not schedule entry order.
        let mut wakes: Vec<(u64, NodeId)> = schedule.entries().to_vec();
        wakes.sort_unstable_by_key(|&(tick, v)| (tick, v));
        let mut st = RunState {
            net,
            send_run: crate::obs::PairRun::new(),
            tables,
            config,
            protocols: &mut self.protocols,
            metrics: Metrics::new(n),
            obs: crate::obs::Obs::with_windows(n, config.obs, config.obs_windows),
            outputs: vec![None; n],
            awake: vec![false; n],
            awake_count: 0,
            wheel: &mut self.scratch.wheel,
            arena: &mut self.scratch.arena,
            channel_next: &mut self.scratch.channel_next,
            channel_seq: &mut self.scratch.channel_seq,
            ports_touched: if config.track_ports {
                DenseBits::new(tables.directed_edges())
            } else {
                DenseBits::default()
            },
            #[cfg(feature = "audit")]
            audit: config
                .audit_capacity
                .map(crate::audit::AuditLog::with_capacity),
            entries_buf: std::mem::take(&mut self.scratch.entries_buf),
            batch_buf: std::mem::take(&mut self.scratch.batch_buf),
        };
        let mut wake_cursor = 0usize;
        let mut processed = 0u64;
        let mut truncated = false;
        // Batch sizes accumulate in registers across the whole event loop
        // (one spill per size change) rather than one histogram
        // read-modify-write per batch — see `ValueRun`.
        let obs_full = config.obs == crate::obs::ObsLevel::Full;
        let mut batch_run = crate::obs::ValueRun::new();
        if let Some(&(first_tick, _)) = wakes.first() {
            let mut now = first_tick;
            let mut pending = std::mem::take(&mut self.scratch.pending);
            let mut touched = std::mem::take(&mut self.scratch.touched);
            loop {
                // Phase 0: schedule wakes at `now`, ascending node id (the
                // canonical within-tick order — see the module docs).
                while wake_cursor < wakes.len() && wakes[wake_cursor].0 == now {
                    let v = wakes[wake_cursor].1;
                    wake_cursor += 1;
                    processed += 1;
                    if !st.awake[v.index()] {
                        st.wake_node(v, WakeCause::Adversary, now, delays);
                    }
                }
                // Phase 1: deliveries at `now`, one batch per receiver,
                // receivers ascending. The scatter keeps each receiver's
                // entries in bucket — i.e. channel send — order.
                let bucket = st.wheel.take_bucket(now);
                processed += bucket.len() as u64;
                st.obs.tl_delivered(now, bucket.len() as u64);
                for &e in bucket.iter() {
                    let pend = &mut pending[e.to as usize];
                    if pend.is_empty() {
                        touched.push(e.to);
                    }
                    pend.push(e);
                }
                touched.sort_unstable();
                for (i, &to) in touched.iter().enumerate() {
                    // Pull the next receiver's protocol row and scatter
                    // list toward the cache while this batch is handled.
                    if let Some(&nx) = touched.get(i + 1) {
                        crate::prefetch::prefetch_index(st.protocols, nx as usize);
                        crate::prefetch::prefetch_index(&pending, nx as usize);
                    }
                    let mut pend = std::mem::take(&mut pending[to as usize]);
                    if obs_full {
                        batch_run.note(&mut st.obs.batch_sizes, pend.len() as u64);
                    }
                    st.deliver_batch(&pend, now, delays);
                    pend.clear();
                    pending[to as usize] = pend;
                }
                touched.clear();
                st.wheel.restore_bucket(bucket);
                // The event cap is checked at tick boundaries only, so a
                // truncation point never depends on within-tick processing
                // order or on the shard count. Undelivered payloads stay in
                // the arena until the next run's `clear`.
                if processed > config.max_events {
                    truncated = true;
                    break;
                }
                let next_wake = wakes.get(wake_cursor).map(|&(tick, _)| tick);
                let wheel_next = st.wheel.next_occupied_after(now);
                if let Some(d) = wheel_next {
                    // Runtime diag: deepest forward scan the wheel performed
                    // (once per tick advance, never per event).
                    st.obs.runtime.wheel_max_scan = st.obs.runtime.wheel_max_scan.max(d - now);
                }
                now = match (next_wake, wheel_next) {
                    (Some(w), Some(d)) => w.min(d),
                    (Some(w), None) => w,
                    (None, Some(d)) => d,
                    (None, None) => break,
                };
            }
            self.scratch.pending = pending;
            self.scratch.touched = touched;
        }
        if config.track_ports {
            st.metrics.ports_used = Some(
                (0..n)
                    .map(|v| {
                        st.ports_touched
                            .count_range(tables.edge_offset[v], tables.edge_offset[v + 1])
                            as u32
                    })
                    .collect(),
            );
        }
        batch_run.flush(&mut st.obs.batch_sizes);
        st.send_run
            .flush(&mut st.obs.message_bits, &mut st.obs.delay_ticks);
        st.obs.timeline.finish();
        st.obs.events = processed;
        st.obs.runtime.shards = 1;
        st.obs.runtime.arena_high_water = st.arena.high_water() as u64;
        st.obs.runtime.prefetch_batches = st.obs.batch_sizes.count();
        crate::obs::add_global_events(processed);
        let report = RunReport {
            all_awake: st.awake_count == n,
            rounds: 0,
            outputs: st.outputs,
            truncated,
            metrics: st.metrics,
            obs: st.obs,
            #[cfg(feature = "audit")]
            audit_log: st.audit,
        };
        self.scratch.entries_buf = st.entries_buf;
        self.scratch.batch_buf = st.batch_buf;
        report
    }

    /// The per-node protocol states (final states after a run).
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Decides whether this run can take the sharded path, and if so forks
    /// the delay strategy once per shard. Audit recording, port
    /// tracking, and unforkable (history-dependent) delay strategies fall
    /// back to the serial path — which produces identical output, so the
    /// fallback is safe to keep silent.
    fn sharded_eligible(
        &self,
        delays: &mut dyn DelayStrategy,
    ) -> Option<Vec<Box<dyn DelayStrategy + Send>>> {
        if self.config.shards <= 1 || self.config.track_ports {
            return None;
        }
        #[cfg(feature = "audit")]
        if self.config.audit_capacity.is_some() {
            return None;
        }
        let plan = crate::shard::ShardPlan::new(self.net.n(), self.config.shards);
        if plan.k <= 1 {
            return None;
        }
        (0..plan.k).map(|_| delays.fork()).collect()
    }

    /// The sharded run: `K` workers advance their node ranges in lockstep
    /// tick windows under the τ-lookahead guarantee, coordinated by this
    /// thread through a two-phase barrier per window. See the `shard`
    /// module docs for the protocol and the determinism argument.
    fn run_sharded(
        &mut self,
        schedule: &WakeSchedule,
        forks: Vec<Box<dyn DelayStrategy + Send>>,
    ) -> RunReport {
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
            self.scratch.shards = (0..k).map(|_| AsyncShardScratch::new(k)).collect();
        }
        self.scratch.channel_next.fill(0);
        self.scratch.channel_seq.fill(0);
        let mut wakes_all: Vec<(u64, NodeId)> = schedule.entries().to_vec();
        wakes_all.sort_unstable_by_key(|&(tick, v)| (tick, v));
        let mut metrics = Metrics::new(n);
        let mut outputs: Vec<Option<u64>> = vec![None; n];
        let mut awake = vec![false; n];
        let node_lens: Vec<usize> = (0..k)
            .map(|s| {
                let (lo, hi) = plan.range(s);
                hi - lo
            })
            .collect();
        let edge_lens: Vec<usize> = (0..k)
            .map(|s| {
                let (lo, hi) = plan.range(s);
                tables.edge_offset[hi] - tables.edge_offset[lo]
            })
            .collect();
        let mut prot_it = split_lengths(self.protocols.as_mut_slice(), &node_lens).into_iter();
        let mut out_it = split_lengths(outputs.as_mut_slice(), &node_lens).into_iter();
        let mut awake_it = split_lengths(awake.as_mut_slice(), &node_lens).into_iter();
        let mut wt_it = split_lengths(metrics.wake_tick.as_mut_slice(), &node_lens).into_iter();
        let mut sb_it = split_lengths(metrics.sent_by.as_mut_slice(), &node_lens).into_iter();
        let mut rb_it = split_lengths(metrics.received_by.as_mut_slice(), &node_lens).into_iter();
        let mut cn_it =
            split_lengths(self.scratch.channel_next.as_mut_slice(), &edge_lens).into_iter();
        let mut cs_it =
            split_lengths(self.scratch.channel_seq.as_mut_slice(), &edge_lens).into_iter();
        let mut fork_it = forks.into_iter();
        let mut workers: Vec<AsyncShard<'_, P>> = Vec::with_capacity(k);
        for (s, scr) in self.scratch.shards.iter_mut().enumerate() {
            let (lo, hi) = plan.range(s);
            let local_n = hi - lo;
            let AsyncShardScratch {
                wheel,
                arena,
                pending,
                touched,
                entries_buf,
                batch_buf,
                stage,
                drain_buf,
            } = scr;
            wheel.clear();
            arena.clear();
            if pending.len() < local_n {
                pending.resize_with(local_n, Vec::new);
            }
            touched.clear();
            let wakes: Vec<(u64, NodeId)> = wakes_all
                .iter()
                .copied()
                .filter(|&(_, v)| v.index() >= lo && v.index() < hi)
                .collect();
            workers.push(AsyncShard {
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
                channel_next: cn_it.next().unwrap(),
                channel_seq: cs_it.next().unwrap(),
                edge_base: tables.edge_offset[lo],
                sm: ShardMetrics::default(),
                obs: crate::obs::ShardObs::new(local_n, config.obs, config.obs_windows),
                send_run: crate::obs::PairRun::new(),
                batch_run: crate::obs::ValueRun::new(),
                wheel,
                arena,
                pending,
                touched,
                entries_buf,
                batch_buf,
                stage,
                drain_buf,
                wakes,
                cursor: 0,
                delays: fork_it.next().unwrap(),
                phase: 0,
                staged_min: u64::MAX,
                new_events: 0,
                prev_tick: 0,
            });
        }
        let cells: Cells<CrossMsg<P::Msg>> = Cells::new(k);
        let slots: Vec<Mutex<AsyncPublished>> = (0..k)
            .map(|_| Mutex::new(AsyncPublished::default()))
            .collect();
        let barrier = Barrier::new(k + 1);
        let decision = AtomicU64::new(0);
        let mut processed = 0u64;
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
            // Coordinator: pick the globally earliest next event (the safe
            // horizon under τ-lookahead), or stop on quiescence / the cap.
            let mut first_round = true;
            loop {
                barrier.wait();
                let mut next = u64::MAX;
                let mut round_events = 0u64;
                for slot in slots {
                    let p = *slot.lock().unwrap();
                    next = next.min(p.next_event);
                    round_events += p.new_events;
                }
                processed += round_events;
                // Runtime diag: a barrier round in which no shard processed
                // anything is a pure horizon-advance stall (skip the priming
                // round — nothing has run yet by construction).
                if round_events == 0 && !first_round && next != u64::MAX {
                    stall_rounds += 1;
                }
                first_round = false;
                if processed > config.max_events {
                    truncated = true;
                    next = u64::MAX;
                }
                decision.store(next, Ordering::Relaxed);
                barrier.wait();
                if next == u64::MAX {
                    break;
                }
            }
        });
        // Consume the workers first: their field moves end the slice borrows
        // of `metrics`, so the scalar merge below can take it mutably.
        let (sms, obs_shards): (Vec<ShardMetrics>, Vec<crate::obs::ShardObs>) =
            workers.into_iter().map(|w| (w.sm, w.obs)).unzip();
        let mut awake_total = 0usize;
        for sm in &sms {
            sm.merge_into(&mut metrics);
            awake_total += sm.awake_count;
        }
        let all_awake = awake_total == n;
        if all_awake {
            // The last wake is the all-awake moment (wake ticks are set from
            // a monotone cursor, exactly as the serial engine records it).
            metrics.all_awake_tick = metrics.wake_tick.iter().filter_map(|&t| t).max();
        }
        let mut obs = crate::obs::merge_shard_obs(n, config.obs, &obs_shards);
        obs.events = processed;
        obs.runtime.stall_rounds = stall_rounds;
        obs.runtime.prefetch_batches = obs.batch_sizes.count();
        crate::obs::add_global_events(processed);
        RunReport {
            all_awake,
            rounds: 0,
            outputs,
            truncated,
            metrics,
            obs,
            #[cfg(feature = "audit")]
            audit_log: None,
        }
    }
}

/// All mutable state of one engine run, so the wake/deliver/dispatch helpers
/// are methods instead of functions threading a dozen `&mut` parameters.
struct RunState<'e, P: AsyncProtocol> {
    net: &'e Network,
    /// Packed (payload bits, delivery delay) run accumulator for the two
    /// send histograms; lives for the whole run and is flushed once, so the
    /// common all-sends-identical case costs one compare per message and no
    /// per-dispatch histogram traffic.
    send_run: crate::obs::PairRun,
    tables: &'e NodeTables,
    config: &'e AsyncConfig,
    protocols: &'e mut [P],
    metrics: Metrics,
    /// Always-on observability accumulator (histograms, phases, wake preds).
    obs: crate::obs::Obs,
    outputs: Vec<Option<u64>>,
    awake: Vec<bool>,
    awake_count: usize,
    wheel: &'e mut TimerWheel,
    /// Payload storage shared by the wheel entries and the handler contexts.
    arena: &'e mut PayloadArena<P::Msg>,
    /// Per directed-edge slot: latest delivery tick scheduled on the channel
    /// (the FIFO horizon — the seed's `last_scheduled` hash map, flattened).
    channel_next: &'e mut [u64],
    /// Per directed-edge slot: messages sent so far on the channel.
    channel_seq: &'e mut [u64],
    /// Directed-edge slots over which a message was sent or received; empty
    /// unless `track_ports`.
    ports_touched: DenseBits,
    /// Model-conformance event recorder (`audit` feature, off by default).
    #[cfg(feature = "audit")]
    audit: Option<crate::audit::AuditLog>,
    /// Reusable outbox buffer lent to every handler invocation.
    entries_buf: Vec<(Port, PayloadRef)>,
    /// Reusable materialized-inbox buffer lent to every batch delivery.
    batch_buf: Vec<(Incoming, P::Msg)>,
}

impl<P: AsyncProtocol> RunState<'_, P> {
    fn wake_node(
        &mut self,
        v: NodeId,
        cause: WakeCause,
        tick: u64,
        delays: &mut dyn DelayStrategy,
    ) {
        #[cfg(feature = "audit")]
        if let Some(log) = self.audit.as_mut() {
            log.record(crate::audit::AuditEvent::Wake {
                tick,
                node: v.index() as u32,
                cause,
            });
            // A node consults its advice exactly when it wakes; the length
            // recorded here is what the advice-accounting invariant checks
            // against the oracle's assignment.
            if let Some(advice) = self.config.advice.as_deref() {
                log.record(crate::audit::AuditEvent::AdviceRead {
                    tick,
                    node: v.index() as u32,
                    bits: advice[v.index()].len() as u32,
                });
            }
        }
        self.awake[v.index()] = true;
        self.awake_count += 1;
        self.obs.tl_wakes(tick, 1);
        self.metrics.wake_tick[v.index()] = Some(tick);
        self.metrics.first_wake_tick =
            Some(self.metrics.first_wake_tick.map_or(tick, |t| t.min(tick)));
        if self.awake_count == self.awake.len() {
            self.metrics.all_awake_tick = Some(tick);
        }
        let mut entries = std::mem::take(&mut self.entries_buf);
        let mut ctx = Context::new(
            v,
            self.net.graph().degree(v),
            self.net.mode(),
            self.tables.id_to_port(v.index()),
            &mut entries,
            self.arena,
            self.config.channel,
            self.config.record_congest_violations,
            &mut self.metrics.congest_violations,
            &mut self.outputs[v.index()],
            &mut self.obs.phases,
            tick,
        );
        self.protocols[v.index()].on_wake(&mut ctx, cause);
        self.dispatch_outbox(&mut entries, v, tick, delays);
        self.entries_buf = entries;
    }

    /// Delivers a maximal run of same-tick, same-receiver entries: metrics
    /// and audit events per entry, wake-on-message once, one batch handler
    /// call, one dispatch. Equivalent to delivering the entries one by one — the
    /// handler's sends land in strictly later ticks either way, so nothing
    /// this batch does can affect the rest of the current bucket.
    fn deliver_batch(
        &mut self,
        entries: &[DeliverEntry],
        tick: u64,
        delays: &mut dyn DelayStrategy,
    ) {
        let to = NodeId::new(entries[0].to as usize);
        self.metrics.received_by[to.index()] += entries.len() as u64;
        self.metrics.last_receipt_tick =
            Some(self.metrics.last_receipt_tick.map_or(tick, |t| t.max(tick)));
        // Deliveries are recorded before the wake they may cause (below), so
        // the wake-causality invariant can stream the log in order.
        #[cfg(feature = "audit")]
        if let Some(log) = self.audit.as_mut() {
            for e in entries {
                log.record(crate::audit::AuditEvent::Deliver {
                    tick,
                    from: e.from,
                    to: to.index() as u32,
                    slot: e.msg.slot(),
                    gen: e.msg.generation(),
                });
            }
        }
        if self.config.track_ports {
            for e in entries {
                self.ports_touched
                    .set(self.tables.slot(to, Port::new(e.rport as usize)));
            }
        }
        if !self.awake[to.index()] {
            // The batch's first entry is the delivery that wakes `to`: its
            // sender becomes `to`'s predecessor in the causal wake forest.
            self.obs.note_wake_pred(to.index(), entries[0].from);
            self.wake_node(to, WakeCause::Message, tick, delays);
        }
        let kt1 = self.net.mode() == crate::knowledge::KnowledgeMode::Kt1;
        let mut batch = std::mem::take(&mut self.batch_buf);
        debug_assert!(batch.is_empty());
        for e in entries {
            let sender_id = kt1.then(|| self.net.ids().id(NodeId::new(e.from as usize)));
            batch.push((
                Incoming {
                    port: Port::new(e.rport as usize),
                    sender_id,
                },
                self.arena.take(e.msg),
            ));
        }
        let mut inbox = Inbox::new(&mut batch);
        let mut out_entries = std::mem::take(&mut self.entries_buf);
        let mut ctx = Context::new(
            to,
            self.net.graph().degree(to),
            self.net.mode(),
            self.tables.id_to_port(to.index()),
            &mut out_entries,
            self.arena,
            self.config.channel,
            self.config.record_congest_violations,
            &mut self.metrics.congest_violations,
            &mut self.outputs[to.index()],
            &mut self.obs.phases,
            tick,
        );
        self.protocols[to.index()].on_messages_batch(&mut ctx, &mut inbox);
        drop(inbox);
        self.dispatch_outbox(&mut out_entries, to, tick, delays);
        self.entries_buf = out_entries;
        self.batch_buf = batch;
    }

    fn dispatch_outbox(
        &mut self,
        entries: &mut Vec<(Port, PayloadRef)>,
        from: NodeId,
        tick: u64,
        delays: &mut dyn DelayStrategy,
    ) {
        // Most handler invocations send nothing (e.g. an already-awake flood
        // node ignoring a duplicate) — skip everything, including the
        // histogram flush below, for an empty outbox.
        if entries.is_empty() {
            return;
        }
        let obs_full = self.obs.level() == crate::obs::ObsLevel::Full;
        // Timeline send sums stay in registers across the outbox (every
        // entry shares the dispatch `tick`); one recorder update per outbox
        // keeps struct-field read-modify-writes off the loop-carried path.
        let (mut tl_sends, mut tl_bits) = (0u64, 0u64);
        for (port, r) in entries.drain(..) {
            let slot = self.tables.slot(from, port);
            let hot = self.tables.edge_hot[slot];
            let to = NodeId::new(hot.to as usize);
            let bits = self.arena.bits(r);
            #[cfg(feature = "audit")]
            if let Some(log) = self.audit.as_mut() {
                log.record(crate::audit::AuditEvent::Send {
                    tick,
                    from: from.index() as u32,
                    to: to.index() as u32,
                    bits: bits as u32,
                    slot: r.slot(),
                    gen: r.generation(),
                });
            }
            self.metrics.messages_sent += 1;
            self.metrics.bits_sent += bits as u64;
            self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits);
            self.metrics.sent_by[from.index()] += 1;
            if self.config.track_ports {
                self.ports_touched.set(slot);
            }
            let delay = delays
                .delay_ticks(from, to, tick, self.channel_seq[slot])
                .clamp(1, TICKS_PER_UNIT);
            self.channel_seq[slot] += 1;
            // FIFO per channel: never deliver before an earlier message on
            // the same channel; equal ticks keep send order because bucket
            // insertion order is send order.
            let deliver = (tick + delay).max(self.channel_next[slot]);
            self.channel_next[slot] = deliver;
            // One packed compare per message covers both send histograms;
            // per-message `record` calls would put six memory
            // read-modify-writes on the loop-carried path and blow the
            // obs_overhead budget.
            if obs_full {
                self.send_run.note(
                    &mut self.obs.message_bits,
                    &mut self.obs.delay_ticks,
                    bits as u64,
                    deliver - tick,
                );
                tl_sends += 1;
                tl_bits += bits as u64;
            }
            // The receiver-side port is the paper's port_to(to, from),
            // precomputed per directed edge. The enqueue-time payload handle
            // rides the wheel untouched.
            let entry = DeliverEntry {
                to: hot.to,
                from: from.index() as u32,
                rport: hot.rport,
                msg: r,
            };
            self.wheel.push(tick, deliver, entry);
        }
        if obs_full {
            // Timeline sends are attributed at the origin dispatch tick.
            self.obs.timeline.note_sends(tick, tl_sends, tl_bits);
        }
    }
}

/// One worker shard of a sharded async run: the serial engine's state,
/// restricted to a contiguous node range (slices of the run-global arrays)
/// plus staging buffers for sends that cross the window boundary. Local
/// node index = global id − `lo`; local edge slot = global slot −
/// `edge_base`.
struct AsyncShard<'e, P: AsyncProtocol> {
    me: usize,
    lo: usize,
    plan: crate::shard::ShardPlan,
    net: &'e Network,
    tables: &'e NodeTables,
    config: &'e AsyncConfig,
    protocols: &'e mut [P],
    outputs: &'e mut [Option<u64>],
    awake: &'e mut [bool],
    wake_tick: &'e mut [Option<u64>],
    sent_by: &'e mut [u64],
    received_by: &'e mut [u64],
    channel_next: &'e mut [u64],
    channel_seq: &'e mut [u64],
    edge_base: usize,
    sm: crate::shard::ShardMetrics,
    obs: crate::obs::ShardObs,
    send_run: crate::obs::PairRun,
    batch_run: crate::obs::ValueRun,
    wheel: &'e mut TimerWheel,
    arena: &'e mut PayloadArena<P::Msg>,
    pending: &'e mut Vec<Vec<DeliverEntry>>,
    touched: &'e mut Vec<u32>,
    entries_buf: &'e mut Vec<(Port, PayloadRef)>,
    batch_buf: &'e mut Vec<(Incoming, P::Msg)>,
    stage: &'e mut [Vec<CrossMsg<P::Msg>>],
    drain_buf: &'e mut Vec<CrossMsg<P::Msg>>,
    /// This shard's schedule wakes, `(tick, id)`-sorted.
    wakes: Vec<(u64, NodeId)>,
    cursor: usize,
    delays: Box<dyn DelayStrategy + Send>,
    /// Current within-tick phase: 0 = schedule wakes, 1 = deliveries.
    phase: u8,
    /// Earliest delivery staged since the last publish.
    staged_min: u64,
    /// Events processed since the last publish.
    new_events: u64,
    /// The tick last processed (the wheel's cursor).
    prev_tick: u64,
}

impl<P: AsyncProtocol> AsyncShard<'_, P> {
    /// The worker loop. Each window: meet the coordinator (its read of the
    /// previous publications happens between the two waits), drain the
    /// mailboxes filled last window, learn the decided tick, process it,
    /// stage + publish. Publications and mailbox swaps are always separated
    /// from their readers by a barrier, so every access is race-free.
    fn run(
        &mut self,
        cells: &crate::shard::Cells<CrossMsg<P::Msg>>,
        slots: &[std::sync::Mutex<AsyncPublished>],
        decision: &std::sync::atomic::AtomicU64,
        barrier: &std::sync::Barrier,
    ) {
        self.publish_slot(slots);
        loop {
            barrier.wait();
            self.drain_cells(cells);
            barrier.wait();
            let now = decision.load(std::sync::atomic::Ordering::Relaxed);
            if now == u64::MAX {
                break;
            }
            self.process_tick(now);
            self.prev_tick = now;
            self.publish_cells(cells);
            self.publish_slot(slots);
        }
        self.batch_run.flush(&mut self.obs.batch_sizes);
        self.send_run
            .flush(&mut self.obs.message_bits, &mut self.obs.delay_ticks);
        self.obs.timeline.finish();
        self.obs.arena_high_water = self.arena.high_water() as u64;
    }

    fn publish_slot(&mut self, slots: &[std::sync::Mutex<AsyncPublished>]) {
        let next_wake = self.wakes.get(self.cursor).map_or(u64::MAX, |&(t, _)| t);
        let wheel_next = self
            .wheel
            .next_occupied_after(self.prev_tick)
            .unwrap_or(u64::MAX);
        if wheel_next != u64::MAX {
            // Runtime diag: deepest wheel forward scan, once per window.
            self.obs.note_wheel_scan(wheel_next - self.prev_tick);
        }
        self.obs.events += self.new_events;
        *slots[self.me].lock().unwrap() = AsyncPublished {
            next_event: self.staged_min.min(wheel_next).min(next_wake),
            new_events: self.new_events,
        };
        self.staged_min = u64::MAX;
        self.new_events = 0;
    }

    fn publish_cells(&mut self, cells: &crate::shard::Cells<CrossMsg<P::Msg>>) {
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

    /// Moves last window's staged messages — own staging buffers for the
    /// same-shard case, mailbox cells otherwise — into the wheel. Draining
    /// phase-major then source-shard-major replays the canonical serial
    /// send order (see the module docs).
    fn drain_cells(&mut self, cells: &crate::shard::Cells<CrossMsg<P::Msg>>) {
        for phase in 0..crate::shard::PHASES {
            for src in 0..self.plan.k {
                if src == self.me {
                    let mut buf =
                        std::mem::take(&mut self.stage[self.me * crate::shard::PHASES + phase]);
                    self.ingest(&mut buf);
                    self.stage[self.me * crate::shard::PHASES + phase] = buf;
                } else {
                    cells.drain(src, self.me, phase, self.drain_buf);
                    let mut buf = std::mem::take(&mut *self.drain_buf);
                    self.ingest(&mut buf);
                    *self.drain_buf = buf;
                }
            }
        }
    }

    fn ingest(&mut self, buf: &mut Vec<CrossMsg<P::Msg>>) {
        for m in buf.drain(..) {
            let msg = match m.payload {
                crate::shard::CrossPayload::Local(r) => r,
                crate::shard::CrossPayload::Remote(payload, bits) => {
                    self.arena.insert_with_bits(payload, bits)
                }
            };
            self.wheel.push(
                self.prev_tick,
                m.deliver,
                DeliverEntry {
                    to: m.to,
                    from: m.from,
                    rport: m.rport,
                    msg,
                },
            );
        }
    }

    /// The serial engine's per-tick body over this shard's nodes: schedule
    /// wakes ascending, then one delivery batch per receiver ascending.
    fn process_tick(&mut self, now: u64) {
        self.phase = 0;
        while self.cursor < self.wakes.len() && self.wakes[self.cursor].0 == now {
            let v = self.wakes[self.cursor].1;
            self.cursor += 1;
            self.new_events += 1;
            if !self.awake[v.index() - self.lo] {
                self.wake_node(v, WakeCause::Adversary, now);
            }
        }
        self.phase = 1;
        let bucket = self.wheel.take_bucket(now);
        self.new_events += bucket.len() as u64;
        self.obs.tl_delivered(now, bucket.len() as u64);
        let mut touched = std::mem::take(&mut *self.touched);
        for &e in bucket.iter() {
            let pend = &mut self.pending[e.to as usize - self.lo];
            if pend.is_empty() {
                touched.push(e.to);
            }
            pend.push(e);
        }
        touched.sort_unstable();
        let obs_full = self.obs.level == crate::obs::ObsLevel::Full;
        for (i, &to) in touched.iter().enumerate() {
            // Warm the next receiver's protocol state and pending row while
            // this batch's handler runs.
            if let Some(&nx) = touched.get(i + 1) {
                crate::prefetch::prefetch_index(self.protocols, nx as usize - self.lo);
                crate::prefetch::prefetch_index(self.pending, nx as usize - self.lo);
            }
            let mut pend = std::mem::take(&mut self.pending[to as usize - self.lo]);
            if obs_full {
                self.batch_run
                    .note(&mut self.obs.batch_sizes, pend.len() as u64);
            }
            self.deliver_batch(&pend, now);
            pend.clear();
            self.pending[to as usize - self.lo] = pend;
        }
        touched.clear();
        *self.touched = touched;
        self.wheel.restore_bucket(bucket);
    }

    fn wake_node(&mut self, v: NodeId, cause: WakeCause, tick: u64) {
        let li = v.index() - self.lo;
        self.awake[li] = true;
        self.sm.awake_count += 1;
        self.obs.tl_wakes(tick, 1);
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
        self.obs.stamp_new_spans(tick, self.phase, v.index() as u32);
        self.dispatch_outbox(&mut entries, v, tick);
        *self.entries_buf = entries;
    }

    fn deliver_batch(&mut self, entries: &[DeliverEntry], tick: u64) {
        let to = NodeId::new(entries[0].to as usize);
        let li = to.index() - self.lo;
        self.received_by[li] += entries.len() as u64;
        self.sm.last_receipt_tick = Some(self.sm.last_receipt_tick.map_or(tick, |t| t.max(tick)));
        if !self.awake[li] {
            self.obs.note_wake_pred(li, entries[0].from);
            self.wake_node(to, WakeCause::Message, tick);
        }
        let kt1 = self.net.mode() == crate::knowledge::KnowledgeMode::Kt1;
        let mut batch = std::mem::take(&mut *self.batch_buf);
        debug_assert!(batch.is_empty());
        for e in entries {
            let sender_id = kt1.then(|| self.net.ids().id(NodeId::new(e.from as usize)));
            batch.push((
                Incoming {
                    port: Port::new(e.rport as usize),
                    sender_id,
                },
                self.arena.take(e.msg),
            ));
        }
        let mut inbox = Inbox::new(&mut batch);
        let mut out_entries = std::mem::take(&mut *self.entries_buf);
        let mut ctx = Context::new(
            to,
            self.net.graph().degree(to),
            self.net.mode(),
            self.tables.id_to_port(to.index()),
            &mut out_entries,
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
        self.obs
            .stamp_new_spans(tick, self.phase, to.index() as u32);
        self.dispatch_outbox(&mut out_entries, to, tick);
        *self.entries_buf = out_entries;
        *self.batch_buf = batch;
    }

    /// The serial `dispatch_outbox`, staging into per-`(shard, phase)`
    /// buffers instead of pushing the wheel directly. Same-shard sends keep
    /// their arena handle; cross-shard sends carry the payload itself.
    fn dispatch_outbox(&mut self, entries: &mut Vec<(Port, PayloadRef)>, from: NodeId, tick: u64) {
        if entries.is_empty() {
            return;
        }
        let obs_full = self.obs.level == crate::obs::ObsLevel::Full;
        // Register-resident send sums, one recorder update per outbox — the
        // same hot-path discipline as the serial `dispatch_outbox`.
        let (mut tl_sends, mut tl_bits) = (0u64, 0u64);
        for (port, r) in entries.drain(..) {
            let slot = self.tables.slot(from, port);
            let hot = self.tables.edge_hot[slot];
            let to = hot.to as usize;
            let bits = self.arena.bits(r);
            self.sm.messages_sent += 1;
            self.sm.bits_sent += bits as u64;
            self.sm.max_message_bits = self.sm.max_message_bits.max(bits);
            self.sent_by[from.index() - self.lo] += 1;
            let ls = slot - self.edge_base;
            let seq = self.channel_seq[ls];
            let delay = self
                .delays
                .delay_ticks(from, NodeId::new(to), tick, seq)
                .clamp(1, TICKS_PER_UNIT);
            self.channel_seq[ls] = seq + 1;
            let deliver = (tick + delay).max(self.channel_next[ls]);
            self.channel_next[ls] = deliver;
            if obs_full {
                self.send_run.note(
                    &mut self.obs.message_bits,
                    &mut self.obs.delay_ticks,
                    bits as u64,
                    deliver - tick,
                );
                tl_sends += 1;
                tl_bits += bits as u64;
            }
            self.obs.sends += 1;
            let dst = self.plan.shard_of(to);
            let payload = if dst == self.me {
                crate::shard::CrossPayload::Local(r)
            } else {
                crate::shard::CrossPayload::Remote(self.arena.take(r), bits)
            };
            self.staged_min = self.staged_min.min(deliver);
            self.stage[dst * crate::shard::PHASES + self.phase as usize].push(CrossMsg {
                deliver,
                to: hot.to,
                from: from.index() as u32,
                rport: hot.rport,
                payload,
            });
        }
        if obs_full {
            // Timeline sends are attributed at the origin dispatch tick,
            // never at the receiving shard's ingest.
            self.obs.timeline.note_sends(tick, tl_sends, tl_bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversarialDelay, RandomDelay};
    use crate::message::Payload;
    use crate::protocol::NodeInit;
    use wakeup_graph::generators;

    #[derive(Debug, Clone)]
    struct Token(u32);
    impl Payload for Token {
        fn size_bits(&self) -> usize {
            32
        }
    }

    /// Floods a token once.
    struct Flood {
        relayed: bool,
    }
    impl AsyncProtocol for Flood {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            Flood { relayed: false }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, _cause: WakeCause) {
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Token(7));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Token>, _from: Incoming, _msg: Token) {}
    }

    #[test]
    fn flood_wakes_everyone() {
        let net = Network::kt0(generators::path(10).unwrap(), 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&schedule);
        assert!(report.all_awake);
        // Path: every node broadcasts once => sum of degrees = 2m = 18.
        assert_eq!(report.metrics.messages_sent, 18);
        assert!(!report.truncated);
    }

    #[test]
    fn flood_time_matches_awake_distance_under_unit_delay() {
        let net = Network::kt0(generators::path(9).unwrap(), 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&schedule);
        // Wake-up completes after 8 unit hops; last receipt is one more hop
        // (the endpoint's own broadcast echo back).
        assert_eq!(report.metrics.wakeup_time_units(), Some(8.0));
        assert_eq!(report.time_units(), 9.0);
    }

    #[test]
    fn random_delays_still_wake_everyone_and_respect_tau() {
        let net = Network::kt0(generators::erdos_renyi_connected(30, 0.2, 9).unwrap(), 4);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let mut delays = RandomDelay::new(5);
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
            .run_with(&schedule, &mut delays);
        assert!(report.all_awake);
        let rho = wakeup_graph::algo::awake_distance(net.graph(), &[NodeId::new(0)]).unwrap();
        // Flooding under any (0, τ] delays completes within ρ_awk units.
        assert!(report.metrics.wakeup_time_units().unwrap() <= rho as f64 + 1e-9);
    }

    #[test]
    fn adversarial_delays_deterministic() {
        let net = Network::kt0(generators::cycle(12).unwrap(), 4);
        let schedule = WakeSchedule::single(NodeId::new(3));
        let run = |salt| {
            let mut delays = AdversarialDelay::new(salt);
            AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
                .run_with(&schedule, &mut delays)
                .metrics
                .last_receipt_tick
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn congest_violation_panics_by_default() {
        #[derive(Debug, Clone)]
        struct Big;
        impl Payload for Big {
            fn size_bits(&self) -> usize {
                1_000_000
            }
        }
        struct Shout;
        impl AsyncProtocol for Shout {
            type Msg = Big;
            fn init(_: &NodeInit<'_>) -> Self {
                Shout
            }
            fn on_wake(&mut self, ctx: &mut Context<'_, Big>, _cause: WakeCause) {
                ctx.broadcast(Big);
            }
            fn on_message(&mut self, _: &mut Context<'_, Big>, _: Incoming, _: Big) {}
        }
        let net = Network::kt0(generators::path(3).unwrap(), 0);
        let config = AsyncConfig {
            channel: ChannelModel::congest_for(3),
            ..AsyncConfig::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            AsyncEngine::<Shout>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn congest_violation_recordable() {
        #[derive(Debug, Clone)]
        struct Big;
        impl Payload for Big {
            fn size_bits(&self) -> usize {
                1_000_000
            }
        }
        struct Shout;
        impl AsyncProtocol for Shout {
            type Msg = Big;
            fn init(_: &NodeInit<'_>) -> Self {
                Shout
            }
            fn on_wake(&mut self, ctx: &mut Context<'_, Big>, _cause: WakeCause) {
                ctx.broadcast(Big);
            }
            fn on_message(&mut self, _: &mut Context<'_, Big>, _: Incoming, _: Big) {}
        }
        let net = Network::kt0(generators::path(3).unwrap(), 0);
        let config = AsyncConfig {
            channel: ChannelModel::congest_for(3),
            record_congest_violations: true,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Shout>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.metrics.congest_violations > 0);
    }

    #[test]
    fn empty_schedule_nobody_wakes() {
        let net = Network::kt0(generators::path(5).unwrap(), 0);
        let report =
            AsyncEngine::<Flood>::new(&net, AsyncConfig::default()).run(&WakeSchedule::default());
        assert!(!report.all_awake);
        assert_eq!(report.metrics.awake_count(), 0);
        assert_eq!(report.metrics.messages_sent, 0);
    }

    #[test]
    fn port_tracking_counts_distinct_ports() {
        let net = Network::kt0(generators::star(6).unwrap(), 2);
        let config = AsyncConfig {
            track_ports: true,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        // The hub broadcasts on all 5 ports and receives back on all 5.
        let ports = report.metrics.ports_used.as_ref().expect("tracking was on");
        assert_eq!(ports[0], 5);
        for &leaf_ports in &ports[1..6] {
            assert_eq!(leaf_ports, 1);
        }
    }

    #[test]
    fn port_tracking_off_reports_untracked() {
        let net = Network::kt0(generators::star(6).unwrap(), 2);
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        assert_eq!(report.metrics.ports_used, None);
    }

    #[test]
    fn obs_records_histograms_and_critical_path_on_a_path_flood() {
        // Flood down a path: the causal wake chain is exactly the path, so
        // the critical path has n-1 hops and spans wakeup_time_units() τ.
        let net = Network::kt0(generators::path(10).unwrap(), 3);
        let report = AsyncEngine::<Flood>::new(&net, AsyncConfig::default())
            .run(&WakeSchedule::single(NodeId::new(0)));
        let cp = report.critical_path();
        assert_eq!(cp.hops, 9);
        assert_eq!(cp.tau, report.metrics.wakeup_time_units().unwrap());
        assert_eq!(cp.root, Some(NodeId::new(0)));
        assert_eq!(cp.end, Some(NodeId::new(9)));
        assert!(cp.tau <= report.time_units() + 1e-9);
        // Every send was recorded in the histograms.
        assert_eq!(
            report.obs.message_bits.count(),
            report.metrics.messages_sent
        );
        assert_eq!(report.obs.delay_ticks.count(), report.metrics.messages_sent);
        // Unit delays: every delay is exactly τ ticks.
        assert_eq!(report.obs.delay_ticks.max_value(), TICKS_PER_UNIT);
        assert_eq!(
            report.obs.delay_ticks.sum(),
            report.metrics.messages_sent * TICKS_PER_UNIT
        );
        // Every node woke, so the wake-latency histogram has n entries.
        assert_eq!(report.obs.wake_latency(&report.metrics).count(), 10);
        // Events = 1 schedule wake + every delivery (message wakes ride
        // their waking delivery's event).
        assert_eq!(report.obs.events, 1 + report.metrics.messages_sent);
        // Chain reconstruction returns the whole path, in order.
        let chain = report.obs.critical_chain(&report.metrics);
        assert_eq!(chain, (0..10).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn obs_counters_level_skips_distributions() {
        let net = Network::kt0(generators::path(6).unwrap(), 3);
        let config = AsyncConfig {
            obs: crate::obs::ObsLevel::Counters,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.all_awake);
        assert!(report.obs.delay_ticks.is_empty());
        assert!(report.obs.wake_latency(&report.metrics).is_empty());
        assert_eq!(report.critical_path().hops, 0);
    }

    /// Echoes grow without bound; exercises the event cap.
    struct PingPong;
    impl AsyncProtocol for PingPong {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            PingPong
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, _cause: WakeCause) {
            ctx.broadcast(Token(0));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Token>, from: Incoming, msg: Token) {
            ctx.send(from.port, Token(msg.0 + 1));
        }
    }

    #[test]
    fn event_cap_truncates_runaway_protocols() {
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let config = AsyncConfig {
            max_events: 100,
            ..AsyncConfig::default()
        };
        let report =
            AsyncEngine::<PingPong>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
        assert!(report.truncated);
    }

    /// Sends two messages along one channel and records arrival order.
    #[derive(Debug, Clone)]
    struct Seq(u32);
    impl Payload for Seq {
        fn size_bits(&self) -> usize {
            32
        }
    }
    struct FifoProbe {
        got: Vec<u32>,
        is_sender: bool,
    }
    impl AsyncProtocol for FifoProbe {
        type Msg = Seq;
        fn init(init: &NodeInit<'_>) -> Self {
            FifoProbe {
                got: Vec::new(),
                is_sender: init.id == 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Seq>, _cause: WakeCause) {
            if self.is_sender {
                for i in 0..20 {
                    ctx.send(Port::new(1), Seq(i));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Seq>, _: Incoming, msg: Seq) {
            self.got.push(msg.0);
            if msg.0 == 19 {
                // Report a checksum of the arrival order: it is only 19*20/2
                // positions-correct if FIFO held; encode first inversion.
                let ordered = self.got.windows(2).all(|w| w[0] < w[1]);
                ctx.output(u64::from(ordered));
            }
        }
    }

    #[test]
    fn fifo_holds_under_random_delays() {
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        for seed in 0..10 {
            let mut delays = RandomDelay::new(seed);
            let report = AsyncEngine::<FifoProbe>::new(&net, AsyncConfig::default())
                .run_with(&WakeSchedule::single(NodeId::new(0)), &mut delays);
            assert_eq!(report.outputs[1], Some(1), "FIFO violated for seed {seed}");
        }
    }

    /// Picks strictly decreasing per-channel delays, so without the FIFO
    /// clamp every later message would overtake the first, and the clamp
    /// collapses all of them onto one delivery tick — the worst case for
    /// same-tick ordering.
    struct DecreasingDelay;
    impl DelayStrategy for DecreasingDelay {
        fn delay_ticks(&mut self, _: NodeId, _: NodeId, _: u64, seq: u64) -> u64 {
            TICKS_PER_UNIT.saturating_sub(seq * 100)
        }
    }

    #[test]
    fn fifo_clamp_keeps_send_order_on_same_tick_ties() {
        // All 20 sends clamp to the first message's delivery tick: they land
        // in a single wheel bucket — one batched delivery — and must come
        // out in send order.
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let report = AsyncEngine::<FifoProbe>::new(&net, AsyncConfig::default())
            .run_with(&WakeSchedule::single(NodeId::new(0)), &mut DecreasingDelay);
        assert_eq!(
            report.outputs[1],
            Some(1),
            "same-tick ties broke send order"
        );
        // The clamp really did collapse the ticks: every delivery landed on
        // the first message's tick (wake tick 0 + τ).
        assert_eq!(report.metrics.last_receipt_tick, Some(TICKS_PER_UNIT));
    }

    /// A protocol that overrides the async batch hook, recording how many
    /// messages each handler call saw.
    struct BatchProbe {
        batches: Vec<usize>,
        is_sender: bool,
    }
    impl AsyncProtocol for BatchProbe {
        type Msg = Seq;
        fn init(init: &NodeInit<'_>) -> Self {
            BatchProbe {
                batches: Vec::new(),
                is_sender: init.id == 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Seq>, _cause: WakeCause) {
            if self.is_sender {
                for i in 0..6 {
                    ctx.send(Port::new(1), Seq(i));
                }
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Seq>, _: Incoming, _: Seq) {
            unreachable!("the engine must call on_messages_batch, not on_message");
        }
        fn on_messages_batch(&mut self, ctx: &mut Context<'_, Seq>, inbox: &mut Inbox<'_, Seq>) {
            self.batches.push(inbox.len());
            let mut last = None;
            while let Some((_, msg)) = inbox.next() {
                last = Some(msg.0);
            }
            if last == Some(5) {
                ctx.output(self.batches.iter().map(|&b| b as u64).sum());
            }
        }
    }

    /// Byte-identity of a sharded run against serial, across shard counts
    /// that divide the nodes evenly, raggedly, and with empty trailing
    /// shards.
    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let net = Network::kt0(generators::erdos_renyi_connected(37, 0.15, 11).unwrap(), 11);
        let all: Vec<NodeId> = (0..37).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.5);
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                ..AsyncConfig::default()
            };
            let mut delays = AdversarialDelay::new(7);
            AsyncEngine::<Flood>::new(&net, config).run_with(&schedule, &mut delays)
        };
        let serial = run(1);
        for shards in [2, 3, 4, 64] {
            let sharded = run(shards);
            assert_eq!(serial.metrics, sharded.metrics, "shards={shards}");
            assert_eq!(serial.all_awake, sharded.all_awake);
            assert_eq!(serial.outputs, sharded.outputs);
            assert_eq!(serial.truncated, sharded.truncated);
            let a = crate::obs::ObsSnapshot::of(&serial);
            let b = crate::obs::ObsSnapshot::of(&sharded);
            assert_eq!(a.to_json(), b.to_json(), "shards={shards}");
            assert_eq!(a.to_prometheus(), b.to_prometheus(), "shards={shards}");
        }
    }

    /// An unforkable (history-dependent) delay strategy silently falls back
    /// to the serial path — and the output is identical either way.
    #[test]
    fn random_delays_fall_back_to_serial_under_sharding() {
        let net = Network::kt0(generators::erdos_renyi_connected(20, 0.2, 3).unwrap(), 3);
        let schedule = WakeSchedule::single(NodeId::new(0));
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                ..AsyncConfig::default()
            };
            let mut delays = RandomDelay::new(99);
            AsyncEngine::<Flood>::new(&net, config).run_with(&schedule, &mut delays)
        };
        let (serial, sharded) = (run(1), run(4));
        assert_eq!(serial.metrics, sharded.metrics);
    }

    /// The event cap truncates at the same boundary at any shard count.
    #[test]
    fn event_cap_truncation_is_shard_invariant() {
        let net = Network::kt0(generators::path(4).unwrap(), 0);
        let run = |shards: usize| {
            let config = AsyncConfig {
                max_events: 100,
                shards,
                ..AsyncConfig::default()
            };
            AsyncEngine::<PingPong>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)))
        };
        let (serial, sharded) = (run(1), run(2));
        assert!(serial.truncated && sharded.truncated);
        assert_eq!(serial.metrics, sharded.metrics);
        assert_eq!(serial.obs.events, sharded.obs.events);
    }

    /// Exercises every per-node output surface a sharded run must merge:
    /// outputs keyed by node, phase labels (span keys!), wake causality,
    /// and per-node traffic counters.
    struct PhasedFlood {
        relayed: bool,
        seen: u64,
    }
    impl AsyncProtocol for PhasedFlood {
        type Msg = Token;
        fn init(_: &NodeInit<'_>) -> Self {
            PhasedFlood {
                relayed: false,
                seen: 0,
            }
        }
        fn on_wake(&mut self, ctx: &mut Context<'_, Token>, _cause: WakeCause) {
            ctx.phase("wake");
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(Token(ctx.node().index() as u32));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: Incoming, msg: Token) {
            ctx.phase("relay");
            self.seen += u64::from(msg.0) + 1;
            ctx.output(self.seen * 1000 + ctx.node().index() as u64);
        }
    }

    /// A sharded run of a phase-labelling workload under adversarial
    /// delays is byte-identical to the serial run — metrics, outputs, and
    /// both observability serializations (whose span table depends on the
    /// cross-shard first-actor merge).
    #[test]
    fn phased_flood_is_byte_identical_across_shard_counts() {
        let g = generators::erdos_renyi_connected(41, 0.12, 13).unwrap();
        let net = Network::kt0(g, 5);
        let all: Vec<NodeId> = (0..41).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&all, 1.7);
        let run = |shards: usize| {
            let config = AsyncConfig {
                shards,
                ..AsyncConfig::default()
            };
            let mut delays = AdversarialDelay::new(23);
            AsyncEngine::<PhasedFlood>::new(&net, config).run_with(&schedule, &mut delays)
        };
        let a = run(1);
        for shards in [2, 3] {
            let b = run(shards);
            assert_eq!(a.metrics, b.metrics, "shards={shards}");
            assert_eq!(a.outputs, b.outputs, "shards={shards}");
            assert_eq!(a.all_awake, b.all_awake);
            assert_eq!(a.truncated, b.truncated);
            let sa = crate::obs::ObsSnapshot::of(&a);
            let sb = crate::obs::ObsSnapshot::of(&b);
            assert_eq!(sa.to_json(), sb.to_json(), "shards={shards}");
            assert_eq!(sa.to_prometheus(), sb.to_prometheus(), "shards={shards}");
        }
    }

    #[test]
    fn same_tick_same_receiver_deliveries_arrive_as_one_batch() {
        // Unit delay: all 6 sends from the wake handler share one send tick
        // and one channel, so the FIFO clamp collapses them onto consecutive
        // ticks... with UnitDelay all get delay τ from the same tick, hence
        // the same delivery tick and one bucket run: a single batch of 6.
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        let (report, states) = AsyncEngine::<BatchProbe>::new(&net, AsyncConfig::default())
            .run_into_parts(&WakeSchedule::single(NodeId::new(0)), &mut UnitDelay);
        assert_eq!(report.outputs[1], Some(6));
        assert_eq!(states[1].batches, vec![6]);
    }
}
