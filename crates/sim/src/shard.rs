//! The shard worker infrastructure shared by both engines.
//!
//! The paper's τ-normalized delay bound gives the simulator a *conservative
//! lookahead*: no message enqueued at tick `t` can be delivered before
//! `t + 1`, so once every shard agrees on the next event tick, each shard
//! can process that whole tick against its own state without observing the
//! others mid-tick. Every run of either engine goes through the same worker,
//! which owns a **contiguous node range** and processes one window (a tick
//! for the async engine, a round for the sync engine) at a time over it.
//! [`shard_count`] picks how many workers a run gets.
//!
//! **One shard** is the serial run: the calling thread drives its one
//! worker inline — no thread, barrier, mutex or mailbox — and the worker's
//! sends go straight into its own delivery queue.
//!
//! **`K > 1` shards** run the bulk-synchronous skeleton:
//!
//! 1. each worker processes the current window over its owned range,
//!    staging every send into per-`(destination shard, phase)` buffers;
//! 2. workers swap their staged batches into the [`Cells`] mailboxes and
//!    publish their local progress, then meet the coordinator at a barrier;
//! 3. the coordinator reads the publications, picks the next window (or
//!    stops), and releases the workers through a second barrier;
//! 4. workers drain the mailboxes — phase-major, then source-shard-major —
//!    and go to 1.
//!
//! The next-window rule is one function per engine, called by the threaded
//! coordinator and the inline driver alike.
//!
//! **Determinism.** Shards own contiguous ascending node ranges, and each
//! worker processes its actors in ascending id order within each phase, so
//! the drain order `(phase, source shard, staging order)` reproduces the
//! one-shard run's canonical `(phase, actor id, send order)` sequence
//! exactly. Every merged artifact (histograms, the causal wake forest,
//! phase spans, metrics) is therefore byte-identical at any shard count —
//! enforced by the 1-vs-`K` differential tests and the CI 1-vs-4-shard
//! snapshot diffs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use wakeup_graph::NodeId;

use crate::adversary::DelayStrategy;
use crate::arena::PayloadRef;
use crate::bits::DenseBits;
use crate::metrics::{Metrics, RunReport};
use crate::network::NodeTables;

/// The most worker shards one run may use. [`ShardPlan::new`] clamps every
/// request to it, so no config, flag or `WAKEUP_SHARDS` value can make a
/// run spawn more threads than this.
pub const MAX_SHARDS: usize = 16;

/// The shard count requested through the `WAKEUP_SHARDS` environment
/// variable, defaulting to 1 when unset or unparsable. The
/// experiment harness and report binaries seed their engine configs from
/// this, so a whole sweep can be flipped to sharded execution without
/// touching any call site — output bytes are identical either way.
///
/// Oversubscription guard: when the request exceeds the machine's
/// available parallelism, sharding only adds barrier overhead, so the
/// request falls back to one shard with a one-line stderr warning. Set
/// `WAKEUP_SHARDS_FORCE=1` to keep the requested count anyway (CI
/// determinism checks deliberately run more shards than cores).
pub fn shards_from_env() -> usize {
    let requested = match std::env::var("WAKEUP_SHARDS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(s) if s >= 1 => s,
            _ => 1,
        },
        Err(_) => 1,
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let force = std::env::var("WAKEUP_SHARDS_FORCE").is_ok_and(|v| v.trim() == "1");
    resolve_shards(requested, cores, force, true)
}

/// The worker-thread count requested through the `WAKEUP_THREADS`
/// environment variable (`WAKEUP_THREADS=1` recovers the fully sequential
/// path; invalid or zero values fall back to 1), otherwise the machine's
/// available parallelism. Sizes the sweep harness's worker pool and the
/// parallel table build of large networks.
pub fn threads_from_env() -> usize {
    match std::env::var("WAKEUP_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if t >= 1 => t,
            _ => 1,
        },
        Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// The decision core of [`shards_from_env`], split out so the fallback is
/// testable without touching process-global env state.
fn resolve_shards(requested: usize, cores: usize, force: bool, warn: bool) -> usize {
    if requested > cores && !force {
        if warn {
            eprintln!(
                "wakeup: WAKEUP_SHARDS={requested} exceeds available parallelism \
                 ({cores}); falling back to one shard (set WAKEUP_SHARDS_FORCE=1 to override)"
            );
        }
        return 1;
    }
    requested
}

/// The number of shards a run executes on: the requested count clamped by
/// [`ShardPlan::new`], or 1 when the run keeps state only the one-shard
/// worker records (`inline_only`: an audit log or touched ports), or when
/// its delay strategy cannot [`DelayStrategy::fork`] (the sync engine,
/// which has no strategy, passes `None`). Output is the same at any count.
pub(crate) fn shard_count(
    n: usize,
    requested: usize,
    inline_only: bool,
    delays: Option<&dyn DelayStrategy>,
) -> usize {
    if requested <= 1 || inline_only || delays.is_some_and(|d| d.fork().is_none()) {
        return 1;
    }
    ShardPlan::new(n, requested).k
}

/// Engine phases per window whose sends must stay ordered relative to each
/// other: wake handlers (0) and delivery/step handlers (1).
const PHASES: usize = 2;

/// Deterministic partition of `n` nodes into `k` contiguous ascending
/// ranges of `chunk = ceil(n / k)` nodes (trailing shards may be short or
/// empty — harmless, their workers idle at the barriers).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardPlan {
    /// Number of shards (clamped into `[1, min(n, MAX_SHARDS)]`).
    pub(crate) k: usize,
    chunk: usize,
    n: usize,
}

impl ShardPlan {
    /// Plans `shards` shards over `n` nodes, clamping to at most one shard
    /// per node and to [`MAX_SHARDS`].
    pub(crate) fn new(n: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, n.clamp(1, MAX_SHARDS));
        ShardPlan {
            k,
            chunk: n.div_ceil(k).max(1),
            n,
        }
    }

    /// The half-open node range `[lo, hi)` owned by shard `s`.
    pub(crate) fn range(&self, s: usize) -> (usize, usize) {
        let lo = (s * self.chunk).min(self.n);
        let hi = ((s + 1) * self.chunk).min(self.n);
        (lo, hi)
    }

    /// Every shard's node range, ascending.
    pub(crate) fn ranges(self) -> impl Iterator<Item = (usize, usize)> + Clone {
        (0..self.k).map(move |s| self.range(s))
    }

    /// Shard `s`'s share of the run's sorted schedule wakes — all of them,
    /// moved out, on a one-shard run.
    pub(crate) fn wakes_of(&self, s: usize, wakes: &mut Vec<(u64, NodeId)>) -> Vec<(u64, NodeId)> {
        if self.k == 1 {
            return std::mem::take(wakes);
        }
        let own = |&&(_, v): &&(u64, NodeId)| self.shard_of(v.index()) == s;
        wakes.iter().filter(own).copied().collect()
    }

    /// The shard owning node `v`.
    #[inline]
    pub(crate) fn shard_of(&self, v: usize) -> usize {
        v / self.chunk
    }
}

/// A staged cross-window message payload: a handle into the shard's own
/// arena when sender and receiver share a shard (no payload traffic at
/// all), or the materialized payload plus its precomputed bit size when it
/// crosses shards (the receiver re-inserts it into its own arena).
pub(crate) enum CrossPayload<M> {
    /// Same-shard: the enqueue-time arena handle rides through unchanged.
    Local(PayloadRef),
    /// Cross-shard: the payload itself, with its `size_bits()`.
    Remote(M, usize),
}

/// A worker's outbound staging: one buffer per `(destination shard, phase)`
/// plus the scratch a mailbox cell is swapped into while draining. Part of
/// each worker's run-to-run scratch, so capacity survives across runs.
pub(crate) struct Stage<T> {
    bufs: Vec<Vec<T>>,
    drain_buf: Vec<T>,
}

impl<T> Stage<T> {
    /// Empty staging for a run on `k` shards.
    pub(crate) fn new(k: usize) -> Stage<T> {
        Stage {
            bufs: (0..k * PHASES).map(|_| Vec::new()).collect(),
            drain_buf: Vec::new(),
        }
    }

    /// Stages `m` for shard `dst`, sent in engine `phase`.
    #[inline]
    pub(crate) fn push(&mut self, dst: usize, phase: usize, m: T) {
        self.bufs[dst * PHASES + phase].push(m);
    }
}

/// A shard worker as the drivers see it.
pub(crate) trait Worker {
    /// A message staged across a window boundary.
    type Cross;
    /// What the worker publishes for the coordinator after each window.
    type Progress: Copy + Default;
    /// The worker's shard index.
    fn me(&self) -> usize;
    /// The worker's staging buffers.
    fn stage(&mut self) -> &mut Stage<Self::Cross>;
    /// Takes in one batch staged for this shard in the last window,
    /// leaving `batch` empty. Batches arrive phase-major, then
    /// source-shard-major.
    fn ingest(&mut self, batch: &mut Vec<Self::Cross>);
    /// Processes one window.
    fn process(&mut self, window: u64);
    /// The worker's publication for the window just finished.
    fn progress(&mut self) -> Self::Progress;
    /// Folds two workers' publications into the joint one the
    /// coordinator's rule reads.
    fn join(a: Self::Progress, b: Self::Progress) -> Self::Progress;
    /// The engine's next-window rule: turns the joint publication after a
    /// window into the next window to run, or `u64::MAX` to stop. Both
    /// drivers call it, so the rule exists once.
    fn next_window(coord: &mut Coord, p: Self::Progress) -> u64;
}

/// Why a publication slot can be poisoned: a worker panicked mid-window,
/// and the scope re-raises that panic once every thread has stopped.
const POISONED: &str = "a shard worker panicked while publishing";

/// The state the engines' next-window rules ([`Worker::next_window`]) keep
/// across a run.
#[derive(Default)]
pub(crate) struct Coord {
    /// The run's cap: events (async engine) or rounds (sync engine).
    pub(crate) cap: u64,
    /// Events processed so far.
    pub(crate) events: u64,
    /// Rounds run so far (sync engine only).
    pub(crate) rounds: u64,
    pub(crate) truncated: bool,
    /// See [`crate::RuntimeCounters::stall_rounds`].
    pub(crate) stall_rounds: u64,
    /// Whether the priming publication, made before anything ran, is in.
    pub(crate) primed: bool,
}

/// The one-shard run, driven by the calling thread: no spawn, barrier,
/// mutex or mailbox.
pub(crate) fn drive_inline<W: Worker>(w: &mut W, coord: &mut Coord) {
    let mut window = W::next_window(coord, w.progress());
    while window != u64::MAX {
        w.process(window);
        window = W::next_window(coord, w.progress());
    }
}

/// The `K > 1` run: one thread per worker, coordinated by the calling
/// thread through a two-phase barrier per window (see the module docs).
pub(crate) fn drive_threaded<W>(workers: &mut [W], coord: &mut Coord)
where
    W: Worker + Send,
    W::Cross: Send,
    W::Progress: Send,
{
    let k = workers.len();
    let cells = Cells::new(k);
    let slots: Vec<Mutex<W::Progress>> = (0..k).map(|_| Mutex::default()).collect();
    let barrier = Barrier::new(k + 1);
    let decision = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (cells, slots, barrier, decision) = (&cells, &slots, &barrier, &decision);
        for w in workers.iter_mut() {
            scope.spawn(move || work(w, cells, slots, decision, barrier));
        }
        loop {
            barrier.wait();
            let published = slots.iter().map(|slot| *slot.lock().expect(POISONED));
            let joint = published.reduce(W::join).expect("a run has workers");
            let next = W::next_window(coord, joint);
            decision.store(next, Ordering::Relaxed);
            barrier.wait();
            if next == u64::MAX {
                break;
            }
        }
    });
}

/// One worker thread. Each window: meet the coordinator (its read of the
/// previous publications happens between the two waits), drain the
/// mailboxes filled last window, learn the decided window, process it,
/// stage + publish. Publications and mailbox swaps are always separated
/// from their readers by a barrier, so every access is race-free. Staged
/// messages are drained before the decision is read, so a run stopped by
/// the cap leaves them in the worker's queue, undelivered and unaccounted.
fn work<W: Worker>(
    w: &mut W,
    cells: &Cells<W::Cross>,
    slots: &[Mutex<W::Progress>],
    decision: &AtomicU64,
    barrier: &Barrier,
) {
    let (me, k) = (w.me(), cells.k);
    *slots[me].lock().expect(POISONED) = w.progress();
    loop {
        barrier.wait();
        for phase in 0..PHASES {
            for src in 0..k {
                let stage = w.stage();
                let mut batch = if src == me {
                    std::mem::take(&mut stage.bufs[me * PHASES + phase])
                } else {
                    let mut into = std::mem::take(&mut stage.drain_buf);
                    cells.drain(src, me, phase, &mut into);
                    into
                };
                w.ingest(&mut batch);
                let stage = w.stage();
                if src == me {
                    stage.bufs[me * PHASES + phase] = batch;
                } else {
                    stage.drain_buf = batch;
                }
            }
        }
        barrier.wait();
        let window = decision.load(Ordering::Relaxed);
        if window == u64::MAX {
            break;
        }
        w.process(window);
        let stage = w.stage();
        for dst in (0..k).filter(|&dst| dst != me) {
            for phase in 0..PHASES {
                let buf = &mut stage.bufs[dst * PHASES + phase];
                if !buf.is_empty() {
                    cells.publish(me, dst, phase, buf);
                }
            }
        }
        *slots[me].lock().expect(POISONED) = w.progress();
    }
}

/// The `k × k × PHASES` cross-shard mailboxes. Cell `(src, dst, phase)` is
/// written by exactly one producer (shard `src` swaps its staged batch in
/// at publish time) and drained by exactly one consumer (shard `dst`, at
/// the start of the next window), with the two accesses separated by a
/// barrier — the mutexes are never contended and exist to keep the crate
/// `forbid(unsafe_code)`-clean. Swapping whole vectors in both directions
/// circulates capacity between producer and consumer, so steady-state
/// windows allocate nothing.
struct Cells<T> {
    cells: Vec<Mutex<Vec<T>>>,
    k: usize,
}

impl<T> Cells<T> {
    /// Fresh empty mailboxes for `k` shards.
    fn new(k: usize) -> Cells<T> {
        Cells {
            cells: (0..k * k * PHASES)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            k,
        }
    }

    #[inline]
    fn idx(&self, src: usize, dst: usize, phase: usize) -> usize {
        (src * self.k + dst) * PHASES + phase
    }

    /// Swaps `buf` (the producer's staged batch) into the cell, handing the
    /// cell's previous — drained, empty but capacity-bearing — vector back.
    fn publish(&self, src: usize, dst: usize, phase: usize, buf: &mut Vec<T>) {
        let mut cell = self.cells[self.idx(src, dst, phase)].lock().unwrap();
        debug_assert!(cell.is_empty(), "cross-shard cell published before drain");
        std::mem::swap(&mut *cell, buf);
    }

    /// Swaps the cell's content into `into` (the consumer's empty scratch),
    /// leaving the consumer's capacity behind for the next publish.
    fn drain(&self, src: usize, dst: usize, phase: usize, into: &mut Vec<T>) {
        debug_assert!(into.is_empty(), "drain target must start empty");
        let mut cell = self.cells[self.idx(src, dst, phase)].lock().unwrap();
        std::mem::swap(&mut *cell, into);
    }
}

/// Shard-local scalar metrics, merged into the run's [`crate::Metrics`]
/// after the run (the per-node vectors need no merging at all —
/// each worker writes its owned slice of the real arrays in place).
#[derive(Default)]
pub(crate) struct ShardMetrics {
    pub(crate) messages_sent: u64,
    pub(crate) bits_sent: u64,
    pub(crate) max_message_bits: usize,
    pub(crate) congest_violations: u64,
    pub(crate) first_wake_tick: Option<u64>,
    pub(crate) last_receipt_tick: Option<u64>,
    pub(crate) awake_count: usize,
}

impl ShardMetrics {
    /// Folds this shard's scalars into the run-global metrics.
    pub(crate) fn merge_into(&self, metrics: &mut crate::metrics::Metrics) {
        metrics.messages_sent += self.messages_sent;
        metrics.bits_sent += self.bits_sent;
        metrics.max_message_bits = metrics.max_message_bits.max(self.max_message_bits);
        metrics.congest_violations += self.congest_violations;
        if let Some(t) = self.first_wake_tick {
            metrics.first_wake_tick = Some(metrics.first_wake_tick.map_or(t, |m| m.min(t)));
        }
        if let Some(t) = self.last_receipt_tick {
            metrics.last_receipt_tick = Some(metrics.last_receipt_tick.map_or(t, |m| m.max(t)));
        }
    }
}

/// What one worker hands back when its run ends.
pub(crate) struct ShardOutcome {
    pub(crate) sm: ShardMetrics,
    pub(crate) obs: crate::obs::ShardObs,
    /// Distinct ports per owned node; `Some` only when the run tracks ports.
    pub(crate) ports_used: Option<Vec<u32>>,
    /// The run's audit log (only ever recorded on a one-shard run).
    #[cfg(feature = "audit")]
    pub(crate) audit: Option<crate::audit::AuditLog>,
}

/// Folds the workers' outcomes (ascending shard order, covering `[0, n)`)
/// and the coordinator's totals into the run's report.
pub(crate) fn assemble_report(
    mut metrics: Metrics,
    outputs: Vec<Option<u64>>,
    level: crate::obs::ObsLevel,
    outcomes: Vec<ShardOutcome>,
    totals: Coord,
) -> RunReport {
    let n = outputs.len();
    let mut awake_total = 0usize;
    let mut obs_shards = Vec::with_capacity(outcomes.len());
    #[cfg(feature = "audit")]
    let mut audit_log = None;
    for o in outcomes {
        o.sm.merge_into(&mut metrics);
        awake_total += o.sm.awake_count;
        if let Some(ports) = o.ports_used {
            metrics
                .ports_used
                .get_or_insert_with(Vec::new)
                .extend(ports);
        }
        #[cfg(feature = "audit")]
        {
            audit_log = audit_log.or(o.audit);
        }
        obs_shards.push(o.obs);
    }
    let all_awake = awake_total == n;
    if all_awake {
        // The last wake is the all-awake moment (wake ticks are set from a
        // monotone cursor).
        metrics.all_awake_tick = metrics.wake_tick.iter().filter_map(|&t| t).max();
    }
    let mut obs = crate::obs::merge_shard_obs(n, level, obs_shards);
    obs.events = totals.events;
    obs.runtime.stall_rounds = totals.stall_rounds;
    obs.runtime.prefetch_batches = obs.batch_sizes.count();
    crate::obs::add_global_events(totals.events);
    RunReport {
        all_awake,
        rounds: totals.rounds,
        outputs,
        truncated: totals.truncated,
        metrics,
        obs,
        #[cfg(feature = "audit")]
        audit_log,
    }
}

/// Distinct ports each of the nodes `lo..lo + len` sent or received on,
/// from a worker's touched directed-edge slots (indexed from node `lo`'s
/// first slot).
pub(crate) fn ports_used(
    tables: &NodeTables,
    lo: usize,
    len: usize,
    touched: &DenseBits,
) -> Vec<u32> {
    let base = tables.edge_offset[lo];
    (lo..lo + len)
        .map(|v| {
            touched.count_range(
                tables.edge_offset[v] - base,
                tables.edge_offset[v + 1] - base,
            ) as u32
        })
        .collect()
}

/// Lazily splits `rest` into consecutive chunks of the given lengths (the
/// unsized tail is dropped). The standard `split_at_mut` fold — safe
/// disjoint ownership of per-shard slices, with no allocation.
pub(crate) fn split_lengths<'a, T>(
    mut rest: &'a mut [T],
    lengths: impl IntoIterator<Item = usize> + 'a,
) -> impl Iterator<Item = &'a mut [T]> + 'a {
    lengths.into_iter().map(move |len| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_nodes_contiguously() {
        for n in [1usize, 2, 5, 7, 64, 1000] {
            for k in [1usize, 2, 3, 4, 9, 2000] {
                let plan = ShardPlan::new(n, k);
                assert!(plan.k >= 1 && plan.k <= n.max(1));
                let mut next = 0usize;
                for s in 0..plan.k {
                    let (lo, hi) = plan.range(s);
                    assert_eq!(lo, next.min(lo.max(next)));
                    assert!(lo <= hi);
                    next = hi;
                    for v in lo..hi {
                        assert_eq!(plan.shard_of(v), s, "n={n} k={k} v={v}");
                    }
                }
                assert_eq!(next, n, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn plan_caps_the_shard_count() {
        assert_eq!(ShardPlan::new(1_000_000, usize::MAX).k, MAX_SHARDS);
        assert_eq!(ShardPlan::new(1_000_000, MAX_SHARDS + 1).k, MAX_SHARDS);
        assert_eq!(ShardPlan::new(5, usize::MAX).k, 5);
    }

    #[test]
    fn shard_request_falls_back_to_serial_when_oversubscribed() {
        // Within budget: honored.
        assert_eq!(resolve_shards(4, 8, false, false), 4);
        assert_eq!(resolve_shards(8, 8, false, false), 8);
        // Oversubscribed: one-shard fallback…
        assert_eq!(resolve_shards(9, 8, false, false), 1);
        assert_eq!(resolve_shards(64, 1, false, false), 1);
        // …unless forced.
        assert_eq!(resolve_shards(64, 1, true, false), 64);
    }

    #[test]
    fn cells_swap_capacity_both_ways() {
        let cells: Cells<u32> = Cells::new(2);
        let mut buf = vec![1, 2, 3];
        cells.publish(0, 1, 0, &mut buf);
        assert!(buf.is_empty());
        let mut got = Vec::new();
        cells.drain(0, 1, 0, &mut got);
        assert_eq!(got, vec![1, 2, 3]);
        // The untouched cell drains empty.
        let mut empty = Vec::new();
        cells.drain(1, 0, 1, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn split_lengths_partitions() {
        let mut data = [0u8; 10];
        let parts: Vec<_> = split_lengths(&mut data, [3, 0, 7]).collect();
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), [3, 0, 7]);
    }
}
