//! Execution metrics: the paper's three complexity measures plus diagnostics.

use wakeup_graph::NodeId;

/// Engine ticks per τ time unit. Delays live in `[1, TICKS_PER_UNIT]`.
pub const TICKS_PER_UNIT: u64 = 1024;

/// Counters collected during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Total point-to-point messages sent — the paper's message complexity.
    pub messages_sent: u64,
    /// Total payload volume in bits.
    pub bits_sent: u64,
    /// Largest single message in bits (CONGEST compliance evidence).
    pub max_message_bits: usize,
    /// Messages that exceeded the CONGEST budget (0 unless the engine was
    /// configured to record instead of panic).
    pub congest_violations: u64,
    /// Per-node sent counts.
    pub sent_by: Vec<u64>,
    /// Per-node received counts.
    pub received_by: Vec<u64>,
    /// Tick at which each node woke (None = still asleep).
    pub wake_tick: Vec<Option<u64>>,
    /// Tick of the first adversary wake.
    pub first_wake_tick: Option<u64>,
    /// Tick of the last message receipt.
    pub last_receipt_tick: Option<u64>,
    /// Tick by which every node was awake, if that happened.
    pub all_awake_tick: Option<u64>,
    /// Number of distinct incident ports over which each node sent or
    /// received at least one message (the paper's `Smlᵢ` events).
    /// `Some` only when port tracking was enabled in the engine config —
    /// `None` means *untracked*, which consumers must not conflate with
    /// "zero ports used".
    pub ports_used: Option<Vec<u32>>,
}

impl Metrics {
    pub(crate) fn new(n: usize) -> Metrics {
        Metrics {
            messages_sent: 0,
            bits_sent: 0,
            max_message_bits: 0,
            congest_violations: 0,
            sent_by: vec![0; n],
            received_by: vec![0; n],
            wake_tick: vec![None; n],
            first_wake_tick: None,
            last_receipt_tick: None,
            all_awake_tick: None,
            ports_used: None,
        }
    }

    /// The paper's time complexity in τ units: from the first wake-up to the
    /// last message receipt, `(last_receipt_tick − first_wake_tick) / τ`.
    ///
    /// Convention: the value is the true fractional span, so a single
    /// delivery one tick after the first wake reports `1/1024` τ, not zero.
    /// A return of `0.0` therefore means either "no message was ever
    /// received" (`last_receipt_tick` is `None`) or "the only receipts
    /// landed on the first wake tick itself" — callers that must tell the
    /// two apart inspect [`Metrics::last_receipt_tick`] directly.
    pub fn time_units(&self) -> f64 {
        match (self.first_wake_tick, self.last_receipt_tick) {
            (Some(first), Some(last)) if last >= first => {
                (last - first) as f64 / TICKS_PER_UNIT as f64
            }
            _ => 0.0,
        }
    }

    /// Time until every node was awake, in τ units (wake-up completion time).
    pub fn wakeup_time_units(&self) -> Option<f64> {
        match (self.first_wake_tick, self.all_awake_tick) {
            (Some(first), Some(all)) => {
                Some((all.saturating_sub(first)) as f64 / TICKS_PER_UNIT as f64)
            }
            _ => None,
        }
    }

    /// Wake tick of a node in τ units.
    pub fn wake_time_units(&self, v: NodeId) -> Option<f64> {
        self.wake_tick[v.index()].map(|t| t as f64 / TICKS_PER_UNIT as f64)
    }

    /// Number of nodes that woke up.
    pub fn awake_count(&self) -> usize {
        self.wake_tick.iter().filter(|t| t.is_some()).count()
    }
}

/// Result of running an engine to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Collected counters.
    pub metrics: Metrics,
    /// Whether every node was awake at the end.
    pub all_awake: bool,
    /// Rounds executed (sync engine; 0 for async).
    pub rounds: u64,
    /// Per-node outputs recorded via [`crate::Context::output`] (the NIH
    /// problem's outputs).
    pub outputs: Vec<Option<u64>>,
    /// True if the engine stopped because it hit its safety event/round cap
    /// rather than quiescing.
    pub truncated: bool,
    /// Always-on observability data: histograms, phase spans, and the causal
    /// wake-up forest (see [`crate::obs`]).
    pub obs: crate::obs::Obs,
    /// Model-conformance audit log, when auditing was enabled in the engine
    /// config (`audit` feature).
    #[cfg(feature = "audit")]
    pub audit_log: Option<crate::audit::AuditLog>,
}

impl RunReport {
    /// Convenience: the message complexity.
    pub fn messages(&self) -> u64 {
        self.metrics.messages_sent
    }

    /// Convenience: the τ-normalized time complexity.
    pub fn time_units(&self) -> f64 {
        self.metrics.time_units()
    }

    /// Convenience: the longest chain of the wake-up causal forest.
    pub fn critical_path(&self) -> crate::obs::CriticalPath {
        self.obs.critical_path(&self.metrics)
    }

    /// Convenience: the deterministic export view of this run.
    pub fn obs_snapshot(&self) -> crate::obs::ObsSnapshot {
        crate::obs::ObsSnapshot::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_units_requires_activity() {
        let m = Metrics::new(3);
        assert_eq!(m.time_units(), 0.0);
        assert_eq!(m.wakeup_time_units(), None);
    }

    #[test]
    fn time_units_normalized() {
        let mut m = Metrics::new(1);
        m.first_wake_tick = Some(0);
        m.last_receipt_tick = Some(3 * TICKS_PER_UNIT);
        assert_eq!(m.time_units(), 3.0);
    }

    #[test]
    fn time_units_fractional_sub_unit_span() {
        // A single delivery one tick after the first wake must report the
        // true fractional span, not collapse to zero.
        let mut m = Metrics::new(2);
        m.first_wake_tick = Some(100);
        m.last_receipt_tick = Some(101);
        assert_eq!(m.time_units(), 1.0 / TICKS_PER_UNIT as f64);
    }

    #[test]
    fn time_units_receipt_on_first_wake_tick_is_zero_but_distinguishable() {
        let mut m = Metrics::new(2);
        m.first_wake_tick = Some(7);
        m.last_receipt_tick = Some(7);
        assert_eq!(m.time_units(), 0.0);
        // The "zero because nothing happened" case differs via the field.
        assert!(m.last_receipt_tick.is_some());
        assert_eq!(Metrics::new(2).last_receipt_tick, None);
    }

    #[test]
    fn empty_run_has_no_activity() {
        let m = Metrics::new(4);
        assert_eq!(m.awake_count(), 0);
        assert_eq!(m.time_units(), 0.0);
        assert_eq!(m.wakeup_time_units(), None);
        assert_eq!(m.all_awake_tick, None);
        assert_eq!(m.ports_used, None, "untracked ports must not read as zeros");
    }

    #[test]
    fn single_node_wake_only_run() {
        // A lone node woken by the adversary: no messages, zero τ, but a
        // well-defined completion time.
        let mut m = Metrics::new(1);
        m.wake_tick[0] = Some(5);
        m.first_wake_tick = Some(5);
        m.all_awake_tick = Some(5);
        assert_eq!(m.awake_count(), 1);
        assert_eq!(m.time_units(), 0.0);
        assert_eq!(m.wakeup_time_units(), Some(0.0));
    }

    #[test]
    fn all_awake_can_precede_last_receipt() {
        // Flooding: the last node wakes, then its own broadcast echoes land
        // later — all_awake_tick < last_receipt_tick is the normal case, and
        // time_units covers the longer span.
        let mut m = Metrics::new(2);
        m.first_wake_tick = Some(0);
        m.all_awake_tick = Some(2 * TICKS_PER_UNIT);
        m.last_receipt_tick = Some(3 * TICKS_PER_UNIT);
        assert!(m.wakeup_time_units().unwrap() < m.time_units());
        assert_eq!(m.wakeup_time_units(), Some(2.0));
        assert_eq!(m.time_units(), 3.0);
    }

    #[test]
    fn awake_count_counts() {
        let mut m = Metrics::new(3);
        m.wake_tick[1] = Some(5);
        assert_eq!(m.awake_count(), 1);
        assert_eq!(
            m.wake_time_units(NodeId::new(1)),
            Some(5.0 / TICKS_PER_UNIT as f64)
        );
    }
}
