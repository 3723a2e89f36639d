//! Intra-run sharding infrastructure shared by both engines.
//!
//! The paper's τ-normalized delay bound gives the simulator a *conservative
//! lookahead*: no message enqueued at tick `t` can be delivered before
//! `t + 1`, so once every shard agrees on the next event tick, each shard
//! can process that whole tick against its own state without observing the
//! others mid-tick. Both engines exploit this with the same
//! bulk-synchronous skeleton:
//!
//! 1. each worker processes the current window (a tick for the async
//!    engine, a round for the sync engine) over its **owned contiguous node
//!    range**, staging every send into per-`(destination shard, phase)`
//!    buffers;
//! 2. workers swap their staged batches into the [`Cells`] mailboxes and
//!    publish their local progress, then meet the coordinator at a barrier;
//! 3. the coordinator reads the publications, picks the next window (or
//!    stops), and releases the workers through a second barrier;
//! 4. workers drain the mailboxes — phase-major, then source-shard-major —
//!    and go to 1.
//!
//! **Determinism.** Shards own contiguous ascending node ranges, and each
//! worker processes its actors in ascending id order within each phase, so
//! the drain order `(phase, source shard, staging order)` reproduces the
//! serial engine's canonical `(phase, actor id, send order)` sequence
//! exactly. Every merged artifact (histograms, the causal wake forest,
//! phase spans, metrics) is therefore byte-identical to the serial run at
//! any shard count — enforced by the sharded-vs-serial differential tests
//! and the CI 1-vs-4-shard snapshot diffs.

use std::sync::Mutex;

use crate::arena::PayloadRef;

/// The shard count requested through the `WAKEUP_SHARDS` environment
/// variable, defaulting to 1 (serial) when unset or unparsable. The
/// experiment harness and report binaries seed their engine configs from
/// this, so a whole sweep can be flipped to sharded execution without
/// touching any call site — output bytes are identical either way.
///
/// Oversubscription guard: when the request exceeds the machine's
/// available parallelism, sharding only adds barrier overhead, so the
/// request falls back to serial with a one-line stderr warning. Set
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
                 ({cores}); falling back to serial (set WAKEUP_SHARDS_FORCE=1 to override)"
            );
        }
        return 1;
    }
    requested
}

/// Engine phases per window whose sends must stay ordered relative to each
/// other: wake handlers (0) and delivery/step handlers (1).
pub(crate) const PHASES: usize = 2;

/// Deterministic partition of `n` nodes into `k` contiguous ascending
/// ranges of `chunk = ceil(n / k)` nodes (trailing shards may be short or
/// empty — harmless, their workers idle at the barriers).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardPlan {
    /// Number of shards (clamped into `[1, n]`).
    pub(crate) k: usize,
    chunk: usize,
    n: usize,
}

impl ShardPlan {
    /// Plans `shards` shards over `n` nodes, clamping to at most one shard
    /// per node.
    pub(crate) fn new(n: usize, shards: usize) -> ShardPlan {
        let k = shards.clamp(1, n.max(1));
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

/// The `k × k × PHASES` cross-shard mailboxes. Cell `(src, dst, phase)` is
/// written by exactly one producer (shard `src` swaps its staged batch in
/// at publish time) and drained by exactly one consumer (shard `dst`, at
/// the start of the next window), with the two accesses separated by a
/// barrier — the mutexes are never contended and exist to keep the crate
/// `forbid(unsafe_code)`-clean. Swapping whole vectors in both directions
/// circulates capacity between producer and consumer, so steady-state
/// windows allocate nothing.
pub(crate) struct Cells<T> {
    cells: Vec<Mutex<Vec<T>>>,
    k: usize,
}

impl<T> Cells<T> {
    /// Fresh empty mailboxes for `k` shards.
    pub(crate) fn new(k: usize) -> Cells<T> {
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
    pub(crate) fn publish(&self, src: usize, dst: usize, phase: usize, buf: &mut Vec<T>) {
        let mut cell = self.cells[self.idx(src, dst, phase)].lock().unwrap();
        debug_assert!(cell.is_empty(), "cross-shard cell published before drain");
        std::mem::swap(&mut *cell, buf);
    }

    /// Swaps the cell's content into `into` (the consumer's empty scratch),
    /// leaving the consumer's capacity behind for the next publish.
    pub(crate) fn drain(&self, src: usize, dst: usize, phase: usize, into: &mut Vec<T>) {
        debug_assert!(into.is_empty(), "drain target must start empty");
        let mut cell = self.cells[self.idx(src, dst, phase)].lock().unwrap();
        std::mem::swap(&mut *cell, into);
    }
}

/// Shard-local scalar metrics, merged into the run's [`crate::Metrics`]
/// after the workers join (the per-node vectors need no merging at all —
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

/// Splits `rest` into consecutive chunks of the given lengths (the unsized
/// tail is dropped). The standard `split_at_mut` fold — safe disjoint
/// ownership of per-shard slices, mirroring `NodeTables`' parallel build.
pub(crate) fn split_lengths<'a, T>(mut rest: &'a mut [T], lengths: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(lengths.len());
    for &len in lengths {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        out.push(head);
        rest = tail;
    }
    out
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
    fn shard_request_falls_back_to_serial_when_oversubscribed() {
        // Within budget: honored.
        assert_eq!(resolve_shards(4, 8, false, false), 4);
        assert_eq!(resolve_shards(8, 8, false, false), 8);
        // Oversubscribed: serial fallback…
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
        let parts = split_lengths(&mut data, &[3, 0, 7]);
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), [3, 0, 7]);
    }
}
