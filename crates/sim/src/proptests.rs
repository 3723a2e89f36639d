//! Property-based tests over the simulation substrate's data structures.

#![cfg(test)]

use proptest::prelude::*;

use crate::bits::{width_for, BitReader, BitStr};
use crate::knowledge::Port;
use crate::message::Payload;
use crate::protocol::{AsyncProtocol, Context, Incoming, NodeInit, WakeCause};

#[derive(Debug, Clone)]
struct SeqMsg(u32);
impl Payload for SeqMsg {
    fn size_bits(&self) -> usize {
        32
    }
}

/// Sender pushes `shared_seed` numbered messages down one channel; the
/// receiver outputs 1 iff every message arrived, in send order.
struct OrderProbe {
    next_expected: u32,
    ok: bool,
    to_send: u32,
    is_sender: bool,
}

impl AsyncProtocol for OrderProbe {
    type Msg = SeqMsg;
    fn init(init: &NodeInit<'_>) -> Self {
        OrderProbe {
            next_expected: 0,
            ok: true,
            to_send: init.shared_seed as u32,
            is_sender: init.id == 0,
        }
    }
    fn on_wake(&mut self, ctx: &mut Context<'_, SeqMsg>, _: WakeCause) {
        if self.is_sender {
            for i in 0..self.to_send {
                ctx.send(Port::new(1), SeqMsg(i));
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, SeqMsg>, _: Incoming, msg: SeqMsg) {
        self.ok &= msg.0 == self.next_expected;
        self.next_expected += 1;
        ctx.output(u64::from(self.ok && self.next_expected == self.to_send));
    }
}

/// Minimal flooding protocol (send to every port on first wake) — enough to
/// exercise the engine's causal wake tracing without depending on
/// `wakeup-core`.
struct FloodProbe {
    degree: usize,
    sent: bool,
}

impl AsyncProtocol for FloodProbe {
    type Msg = SeqMsg;
    fn init(init: &NodeInit<'_>) -> Self {
        FloodProbe {
            degree: init.degree,
            sent: false,
        }
    }
    fn on_wake(&mut self, ctx: &mut Context<'_, SeqMsg>, _: WakeCause) {
        if !self.sent {
            self.sent = true;
            for p in 1..=self.degree {
                ctx.send(Port::new(p), SeqMsg(0));
            }
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, SeqMsg>, _: Incoming, _: SeqMsg) {}
}

/// One field of a bit-string write plan.
#[derive(Debug, Clone)]
enum Field {
    Bit(bool),
    Fixed { value: u64, width: usize },
    Gamma(u64),
}

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<bool>().prop_map(Field::Bit),
        (0u64..u64::MAX, 1usize..=64).prop_map(|(v, w)| {
            let value = if w == 64 { v } else { v & ((1u64 << w) - 1) };
            Field::Fixed { value, width: w }
        }),
        (1u64..u64::MAX).prop_map(Field::Gamma),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitstr_roundtrips_arbitrary_plans(fields in proptest::collection::vec(field(), 0..40)) {
        let mut s = BitStr::new();
        for f in &fields {
            match *f {
                Field::Bit(b) => s.push_bool(b),
                Field::Fixed { value, width } => s.push_bits(value, width),
                Field::Gamma(v) => s.push_gamma(v),
            }
        }
        let mut r = BitReader::new(&s);
        for f in &fields {
            match *f {
                Field::Bit(b) => prop_assert_eq!(r.read_bool(), Some(b)),
                Field::Fixed { value, width } => prop_assert_eq!(r.read_bits(width), Some(value)),
                Field::Gamma(v) => prop_assert_eq!(r.read_gamma(), Some(v)),
            }
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn gamma_length_is_2_log_plus_1(v in 1u64..u64::MAX / 2) {
        let mut s = BitStr::new();
        s.push_gamma(v);
        let bits = 64 - v.leading_zeros() as usize;
        prop_assert_eq!(s.len(), 2 * bits - 1);
    }

    #[test]
    fn width_for_is_sufficient_and_tight(bound in 1u64..u64::MAX) {
        let w = width_for(bound);
        // Sufficient: bound - 1 fits in w bits.
        if w < 64 {
            prop_assert!(bound - 1 < (1u64 << w));
        }
        // Tight (for bounds > 2): w-1 bits would not fit.
        if bound > 2 && w > 1 {
            prop_assert!(bound > (1u64 << (w - 1)));
        }
    }

    #[test]
    fn reader_never_reads_past_end(
        len in 0usize..64,
        ask in 0usize..64,
    ) {
        let mut s = BitStr::new();
        for i in 0..len {
            s.push_bool(i % 2 == 0);
        }
        let mut r = BitReader::new(&s);
        let got = r.read_bits(ask);
        prop_assert_eq!(got.is_some(), ask <= len);
        if got.is_some() {
            prop_assert_eq!(r.remaining(), len - ask);
        } else {
            prop_assert_eq!(r.remaining(), len, "failed reads must not consume");
        }
    }

    #[test]
    fn async_channels_stay_fifo_under_arbitrary_delays(
        dseed in any::<u64>(),
        k in 1u64..60,
    ) {
        use crate::adversary::{RandomDelay, WakeSchedule};
        use crate::{AsyncConfig, AsyncEngine, Network};
        use wakeup_graph::{generators, NodeId};
        let net = Network::kt0(generators::path(2).unwrap(), 0);
        // `shared_seed` smuggles the message count into `OrderProbe::init`.
        let config = AsyncConfig { shared_seed: k, ..AsyncConfig::default() };
        let mut delays = RandomDelay::new(dseed);
        let report = AsyncEngine::<OrderProbe>::new(&net, config)
            .run_with(&WakeSchedule::single(NodeId::new(0)), &mut delays);
        prop_assert_eq!(report.outputs[1], Some(1));
    }

    /// The causal critical path is a *witness* for the measured wake-up
    /// time: its τ span can never exceed `time_units()`, its hop count is
    /// below n, and the reconstructed chain starts at an adversary-woken
    /// root — under arbitrary graphs, delays, and wake schedules.
    #[test]
    fn critical_path_tau_never_exceeds_measured_time(
        seed in any::<u64>(),
        n in 2usize..40,
        wakes in 1usize..4,
        gap_quarters in 0u64..12,
    ) {
        use crate::adversary::{RandomDelay, WakeSchedule};
        use crate::{AsyncConfig, AsyncEngine, Network};
        use wakeup_graph::{generators, NodeId};
        let g = generators::erdos_renyi_connected(n, (8.0 / n as f64).min(1.0), seed)
            .expect("valid size");
        let net = Network::kt0(g, seed);
        let ids: Vec<NodeId> = (0..wakes.min(n)).map(NodeId::new).collect();
        let schedule = WakeSchedule::staggered(&ids, gap_quarters as f64 * 0.25);
        let mut delays = RandomDelay::new(seed ^ 0x9E3779B97F4A7C15);
        let report = AsyncEngine::<FloodProbe>::new(&net, AsyncConfig::default())
            .run_with(&schedule, &mut delays);
        prop_assert!(report.all_awake);
        let cp = report.critical_path();
        prop_assert!(
            cp.tau <= report.time_units() + 1e-9,
            "critical path τ {} exceeds measured time {}",
            cp.tau,
            report.time_units()
        );
        prop_assert!((cp.hops as usize) < n);
        // The chain's root is adversary-woken (no wake predecessor), and
        // each link's predecessor woke strictly earlier.
        let chain = report.obs.critical_chain(&report.metrics);
        if cp.end.is_some() {
            prop_assert_eq!(chain.len() as u64, cp.hops + 1);
        } else {
            prop_assert!(chain.is_empty());
        }
        if let Some(&root) = chain.first() {
            prop_assert!(report.obs.wake_pred(root).is_none());
            for pair in chain.windows(2) {
                let pred = report.obs.wake_pred(pair[1])
                    .expect("non-root chain nodes have a wake predecessor");
                prop_assert_eq!(pred, pair[0]);
                // The waking delivery's tick is the successor's wake tick;
                // the predecessor must have woken strictly earlier.
                let woke_at = report.metrics.wake_tick[pair[1].index()].expect("woke");
                prop_assert!(report.metrics.wake_tick[pair[0].index()].expect("pred woke") < woke_at);
            }
        }
    }

    #[test]
    fn rng_forks_do_not_correlate(seed in any::<u64>()) {
        use wakeup_graph::rng::Xoshiro256;
        let root = Xoshiro256::seed_from(seed);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(matches <= 1, "sibling streams should not track each other");
    }
}
