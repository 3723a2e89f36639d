//! Model-conformance auditing (feature `audit`).
//!
//! Three straight performance PRs rewrote every hot path in both engines —
//! payload arena, batched delivery, engine reuse, chunk-parallel setup. The
//! paper's claims are *model-relative* (FIFO channels, delays in `(0, τ]`,
//! CONGEST's `O(log n)`-bit messages, oblivious adversaries), so this module
//! is the machinery that proves the simulator still implements the model
//! after each optimization:
//!
//! * **[`AuditLog`]** — a structured event recorder both engines feed when
//!   [`crate::AsyncConfig::audit_capacity`] /
//!   [`crate::SyncConfig::audit_capacity`] is set. Audit events carry
//!   logical timestamps (the global event sequence), payload-arena slot
//!   **generations**, and advice-read accounting — enough to re-derive
//!   every model guarantee post hoc.
//! * **[`Invariant`]** — a pluggable checker interface; the standard set
//!   ([`Auditor::standard`]) validates per-edge FIFO order, the `(0, τ]`
//!   delay bound, CONGEST budgets as charged at enqueue, monotone clocks,
//!   payload lifecycle (no use-after-free, no double delivery, no loss),
//!   wake causality, and advice-length accounting.
//! * **JSONL** — [`AuditLog::to_jsonl`] / [`AuditLog::from_jsonl`] give a
//!   stable line-per-event interchange format, so a failing execution can be
//!   committed as a fixture, attached to CI artifacts, and replayed through
//!   the checkers without re-running the engine.
//!
//! Everything here is compiled only with the `audit` feature; with the
//! feature off the engines carry no audit fields at all, so the hot paths
//! are byte-for-byte the non-auditing build.
//!
//! # Example
//!
//! ```
//! use wakeup_graph::{generators, NodeId};
//! use wakeup_sim::adversary::WakeSchedule;
//! use wakeup_sim::audit::{AuditScope, Auditor};
//! use wakeup_sim::{AsyncConfig, AsyncEngine, AsyncProtocol, Context, Incoming, NodeInit,
//!     Network, Payload, WakeCause};
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Payload for Ping {
//!     fn size_bits(&self) -> usize { 1 }
//! }
//! struct Flood(bool);
//! impl AsyncProtocol for Flood {
//!     type Msg = Ping;
//!     fn init(_: &NodeInit<'_>) -> Self { Flood(false) }
//!     fn on_wake(&mut self, ctx: &mut Context<'_, Ping>, _: WakeCause) {
//!         if !self.0 { self.0 = true; ctx.broadcast(Ping); }
//!     }
//!     fn on_message(&mut self, _: &mut Context<'_, Ping>, _: Incoming, _: Ping) {}
//! }
//!
//! let net = Network::kt0(generators::cycle(8)?, 1);
//! let config = AsyncConfig { audit_capacity: Some(1 << 16), ..AsyncConfig::default() };
//! let report = AsyncEngine::<Flood>::new(&net, config).run(&WakeSchedule::single(NodeId::new(0)));
//! let log = report.audit_log.as_ref().unwrap();
//! let violations = Auditor::standard(AuditScope::new(&net)).run(log);
//! assert!(violations.is_empty(), "{violations:?}");
//! # Ok::<(), wakeup_graph::GraphError>(())
//! ```

mod invariants;
mod jsonl;

pub use invariants::{
    AdviceAccounting, Auditor, CongestBudget, DelayBound, EdgeValidity, FifoOrder, Invariant,
    MonotoneClock, PayloadLifecycle, Violation, WakeCausality,
};

use crate::bits::BitStr;
use crate::message::ChannelModel;
use crate::metrics::TICKS_PER_UNIT;
use crate::network::Network;
use crate::protocol::WakeCause;

/// One recorded engine event, the unit of the conformance audit.
///
/// The *logical timestamp* of an event is its index in the [`AuditLog`]
/// (serialized explicitly as `seq` in JSONL): engines record events in the
/// exact order they act, so the index is a total order refining the tick
/// order — what Fidge/Mattern-style causal analyses need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// A node woke up (adversary schedule or first message receipt).
    Wake {
        /// Engine tick of the wake.
        tick: u64,
        /// Dense index of the node.
        node: u32,
        /// What woke it.
        cause: WakeCause,
    },
    /// A node read its oracle-assigned advice string on wake-up.
    AdviceRead {
        /// Engine tick of the read (= the node's wake tick).
        tick: u64,
        /// Dense index of the node.
        node: u32,
        /// Length of the advice string read, in bits.
        bits: u32,
    },
    /// A message was handed to a channel (CONGEST is charged here).
    Send {
        /// Engine tick of the send.
        tick: u64,
        /// Dense index of the sender.
        from: u32,
        /// Dense index of the receiver.
        to: u32,
        /// Payload size in bits, as charged at enqueue time.
        bits: u32,
        /// Payload-arena slot holding the payload.
        slot: u32,
        /// Generation of that slot when the handle was issued.
        gen: u32,
    },
    /// A message was delivered to its receiver.
    Deliver {
        /// Engine tick of the delivery.
        tick: u64,
        /// Dense index of the sender.
        from: u32,
        /// Dense index of the receiver.
        to: u32,
        /// Payload-arena slot the delivered handle pointed at.
        slot: u32,
        /// Generation of that slot as carried by the delivered handle.
        gen: u32,
    },
}

impl AuditEvent {
    /// The engine tick at which this event happened.
    pub fn tick(&self) -> u64 {
        match *self {
            AuditEvent::Wake { tick, .. }
            | AuditEvent::AdviceRead { tick, .. }
            | AuditEvent::Send { tick, .. }
            | AuditEvent::Deliver { tick, .. } => tick,
        }
    }
}

/// A bounded, ordered audit event log recorded by an engine run.
///
/// The capacity cap drops the *newest* events and sets
/// [`AuditLog::truncated`]; end-of-run invariants (conservation, payload
/// leaks) are skipped for truncated logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
    capacity: usize,
    /// True if events were dropped because the capacity was reached.
    pub truncated: bool,
}

impl Default for AuditLog {
    fn default() -> AuditLog {
        AuditLog::with_capacity(1 << 22)
    }
}

impl AuditLog {
    /// Creates a log holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> AuditLog {
        AuditLog {
            events: Vec::new(),
            capacity,
            truncated: false,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event (public so tests and replay tooling can build logs
    /// by hand; the engines are the normal writers).
    pub fn record(&mut self, event: AuditEvent) {
        if self.events.len() >= self.capacity {
            self.truncated = true;
            return;
        }
        self.events.push(event);
    }

    /// All recorded events; the slice index is the logical timestamp.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the log as JSONL, one event per line (see the module docs
    /// for the schema). The output is byte-deterministic: equal logs
    /// serialize identically.
    pub fn to_jsonl(&self) -> String {
        jsonl::to_jsonl(self)
    }

    /// Parses a log back from [`AuditLog::to_jsonl`] output. Lines must be
    /// complete and in `seq` order — a hole means the file was truncated or
    /// hand-edited, and replaying it would silently audit a different
    /// execution.
    pub fn from_jsonl(text: &str) -> Result<AuditLog, String> {
        jsonl::from_jsonl(text)
    }
}

/// Everything the invariant checkers need to know about the run besides the
/// event log itself: the network, the bandwidth model the engine enforced,
/// the delay bound, whether the run completed (truncated runs skip
/// end-of-log conservation checks), and the oracle's advice lengths.
#[derive(Debug, Clone)]
pub struct AuditScope<'a> {
    /// The network the execution ran over.
    pub net: &'a Network,
    /// Bandwidth model the engine was configured with.
    pub channel: ChannelModel,
    /// Maximum permitted delivery delay in ticks (the model's τ; tighten it
    /// when the delay strategy was capped below `TICKS_PER_UNIT`).
    pub max_delay_ticks: u64,
    /// Whether the engine ran to quiescence (enables conservation checks).
    pub completed: bool,
    /// Per-node advice lengths in bits, when an oracle was configured.
    pub advice_bits: Option<Vec<u32>>,
}

impl<'a> AuditScope<'a> {
    /// A scope with the defaults of [`crate::AsyncConfig`]: LOCAL bandwidth,
    /// the full τ delay bound, a completed run, and no advice oracle.
    pub fn new(net: &'a Network) -> AuditScope<'a> {
        AuditScope {
            net,
            channel: ChannelModel::Local,
            max_delay_ticks: TICKS_PER_UNIT,
            completed: true,
            advice_bits: None,
        }
    }

    /// Sets the bandwidth model the engine enforced.
    pub fn with_channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Tightens the delay bound to `ticks` (for capped delay strategies).
    pub fn with_max_delay_ticks(mut self, ticks: u64) -> Self {
        self.max_delay_ticks = ticks;
        self
    }

    /// Marks the run as truncated/incomplete, disabling conservation checks.
    pub fn with_completed(mut self, completed: bool) -> Self {
        self.completed = completed;
        self
    }

    /// Supplies the oracle's advice strings for advice-length accounting.
    pub fn with_advice(mut self, advice: &[BitStr]) -> Self {
        self.advice_bits = Some(advice.iter().map(|a| a.len() as u32).collect());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_graph::generators;

    #[test]
    fn log_caps_and_marks_truncation() {
        let mut log = AuditLog::with_capacity(2);
        for i in 0..4 {
            log.record(AuditEvent::Wake {
                tick: i,
                node: 0,
                cause: WakeCause::Adversary,
            });
        }
        assert_eq!(log.len(), 2);
        assert!(log.truncated);
    }

    #[test]
    fn scope_builders_compose() {
        let net = Network::kt0(generators::path(4).unwrap(), 0);
        let advice = vec![BitStr::new(), BitStr::new(), BitStr::new(), BitStr::new()];
        let scope = AuditScope::new(&net)
            .with_channel(ChannelModel::congest_for(4))
            .with_max_delay_ticks(16)
            .with_completed(false)
            .with_advice(&advice);
        assert_eq!(scope.max_delay_ticks, 16);
        assert!(!scope.completed);
        assert_eq!(scope.advice_bits.as_deref(), Some(&[0u32, 0, 0, 0][..]));
        assert!(matches!(scope.channel, ChannelModel::Congest { .. }));
    }

    #[test]
    fn event_tick_accessor() {
        let e = AuditEvent::Send {
            tick: 9,
            from: 0,
            to: 1,
            bits: 3,
            slot: 0,
            gen: 0,
        };
        assert_eq!(e.tick(), 9);
        let w = AuditEvent::AdviceRead {
            tick: 4,
            node: 2,
            bits: 7,
        };
        assert_eq!(w.tick(), 4);
    }
}
