//! Stable, deterministic export formats for a run's observability data.
//!
//! [`ObsSnapshot`] is a plain-old-data view of one run: counters, the four
//! histograms (sparse non-empty buckets only), phase spans, and the causal
//! critical path. Every field is a *logical* quantity — ticks, counts, τ
//! units — never wall-clock time, so the JSON rendering is byte-identical
//! across machines, thread counts, and repetitions of the same seeded run
//! (CI diffs `WAKEUP_THREADS=1` against `=4` on exactly these bytes).
//!
//! Three renderings: [`ObsSnapshot::to_json`] (schema 4, consumed by the
//! bench artifacts and CI), [`ObsSnapshot::to_prometheus`] (text exposition
//! format: counters plus cumulative `_bucket{le=...}` histogram series plus
//! per-window timeline gauges), and [`ObsSnapshot::to_json_diag`] (schema 4
//! plus a trailing `"runtime"` block of machine/config-dependent internals
//! that are *excluded* from the deterministic renderings).
//!
//! Schema history: 3 added phases and the critical path; 4 adds the windowed
//! `timeline` block and the derived `internals` block.

use super::{Hist64, Obs, RuntimeCounters, Timeline};
use crate::metrics::{RunReport, TICKS_PER_UNIT};

/// Schema version of [`ObsSnapshot::to_json`] (bumped with the bench JSON).
pub const OBS_SCHEMA: u32 = 4;

/// Sparse, order-stable view of one [`Hist64`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// `(bucket index, count)` for non-empty buckets, ascending index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    fn of(h: &Hist64) -> HistSnapshot {
        HistSnapshot {
            count: h.count(),
            sum: h.sum(),
            max: h.max_value(),
            buckets: h.iter_nonempty().map(|(i, c)| (i as u32, c)).collect(),
        }
    }
}

/// One phase span, with the label owned so snapshots outlive the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Phase label.
    pub label: String,
    /// Times the phase was entered.
    pub enters: u64,
    /// Tick of the first enter.
    pub first_tick: u64,
    /// Tick of the last enter.
    pub last_tick: u64,
}

/// One emitted timeline window: the in-window deltas plus the cumulative
/// series evaluated at the window's end. All-zero windows are skipped at
/// capture time, so `window` ids may have gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRow {
    /// Window id (index into the spacing function).
    pub window: u32,
    /// First tick the window covers.
    pub start_tick: u64,
    /// Engine events inside the window (`wakes + delivered`).
    pub events: u64,
    /// Messages dispatched inside the window (at their origin tick).
    pub sends: u64,
    /// Payload bits of those sends.
    pub bits: u64,
    /// Messages delivered inside the window.
    pub delivered: u64,
    /// Nodes that woke inside the window.
    pub wakes: u64,
    /// Wake-frontier size at the window's end (cumulative wakes).
    pub frontier: u64,
    /// Messages in flight at the window's end (cumulative sends −
    /// cumulative deliveries) — the timer-wheel / payload-arena live
    /// occupancy at that boundary.
    pub in_flight: u64,
}

/// The deterministic windowed time series of one run (empty at
/// `ObsLevel::Counters`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimelineSnapshot {
    /// Window spacing mode tag (`"log2"` / `"linear"`).
    pub mode: String,
    /// Linear window width in ticks (0 for log2 spacing).
    pub width: u64,
    /// Non-empty windows, ascending window id.
    pub windows: Vec<WindowRow>,
}

impl TimelineSnapshot {
    fn of(tl: &Timeline) -> TimelineSnapshot {
        // Snapshots may be taken from a hand-built Obs whose registers were
        // never spilled; finish a clone so pending deltas are included.
        let mut tl = tl.clone();
        tl.finish();
        let cfg = tl.cfg();
        let mut windows = Vec::new();
        let (mut cum_sends, mut cum_delivered, mut cum_wakes) = (0u64, 0u64, 0u64);
        for (w, row) in tl.rows().iter().enumerate() {
            cum_sends += row.sends;
            cum_delivered += row.delivered;
            cum_wakes += row.wakes;
            if row.is_zero() {
                continue;
            }
            windows.push(WindowRow {
                window: w as u32,
                start_tick: cfg.window_start(w as u32),
                events: row.wakes + row.delivered,
                sends: row.sends,
                bits: row.bits,
                delivered: row.delivered,
                wakes: row.wakes,
                frontier: cum_wakes,
                in_flight: cum_sends.saturating_sub(cum_delivered),
            });
        }
        TimelineSnapshot {
            mode: cfg.mode_tag().to_string(),
            width: cfg.width(),
            windows,
        }
    }
}

/// One-shot internals derived from the timeline — deterministic by
/// construction, so they live in the byte-diffed schema-4 blocks (the
/// machine/config-dependent internals live in [`RuntimeCounters`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternalsSnapshot {
    /// Number of non-empty timeline windows.
    pub windows: u32,
    /// Id of the last non-empty window (0 if none).
    pub last_window: u32,
    /// Largest wake-frontier size at any window boundary.
    pub peak_frontier: u64,
    /// Largest in-flight message count at any window boundary — the
    /// payload-slab high-water mark as seen at window resolution.
    pub peak_in_flight: u64,
    /// Total wakes recorded on the timeline.
    pub total_wakes: u64,
}

impl InternalsSnapshot {
    fn of(tl: &TimelineSnapshot) -> InternalsSnapshot {
        let mut out = InternalsSnapshot {
            windows: tl.windows.len() as u32,
            ..InternalsSnapshot::default()
        };
        for w in &tl.windows {
            out.last_window = w.window;
            out.peak_frontier = out.peak_frontier.max(w.frontier);
            out.peak_in_flight = out.peak_in_flight.max(w.in_flight);
            out.total_wakes += w.wakes;
        }
        out
    }
}

/// Deterministic export view of one run (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// Network size.
    pub n: usize,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bits sent.
    pub bits: u64,
    /// Engine events processed.
    pub events: u64,
    /// The run's τ-normalized time complexity.
    pub time_units: f64,
    /// Whether every node woke.
    pub all_awake: bool,
    /// Longest causal wake chain, in waking deliveries.
    pub crit_hops: u64,
    /// Longest causal wake chain's elapsed time in τ units.
    pub crit_tau: f64,
    /// Scheduled delivery latency distribution (ticks).
    pub delay_ticks: HistSnapshot,
    /// Delivery batch size distribution.
    pub batch_sizes: HistSnapshot,
    /// Per-node wake latency distribution (ticks past first wake).
    pub wake_latency: HistSnapshot,
    /// Message payload size distribution (bits).
    pub message_bits: HistSnapshot,
    /// Windowed time series (deterministic; empty at `ObsLevel::Counters`).
    pub timeline: TimelineSnapshot,
    /// One-shot internals derived from the timeline (deterministic).
    pub internals: InternalsSnapshot,
    /// Machine/config-dependent engine internals — exported only by
    /// [`ObsSnapshot::to_json_diag`], never by the byte-diffed renderings.
    pub runtime: RuntimeCounters,
    /// Protocol phase spans, in first-entered order.
    pub phases: Vec<PhaseSnapshot>,
}

impl ObsSnapshot {
    /// Captures a snapshot of one finished run.
    pub fn of(report: &RunReport) -> ObsSnapshot {
        Self::of_parts(report, &report.obs)
    }

    /// As [`ObsSnapshot::of`], but over an explicit [`Obs`] (for callers
    /// holding the pieces separately).
    pub fn of_parts(report: &RunReport, obs: &Obs) -> ObsSnapshot {
        let crit = obs.critical_path(&report.metrics);
        let timeline = TimelineSnapshot::of(&obs.timeline);
        let internals = InternalsSnapshot::of(&timeline);
        ObsSnapshot {
            timeline,
            internals,
            runtime: obs.runtime.clone(),
            n: report.metrics.wake_tick.len(),
            messages: report.metrics.messages_sent,
            bits: report.metrics.bits_sent,
            events: obs.events,
            time_units: report.metrics.time_units(),
            all_awake: report.all_awake,
            crit_hops: crit.hops,
            crit_tau: crit.tau,
            delay_ticks: HistSnapshot::of(&obs.delay_ticks),
            batch_sizes: HistSnapshot::of(&obs.batch_sizes),
            wake_latency: HistSnapshot::of(&obs.wake_latency(&report.metrics)),
            message_bits: HistSnapshot::of(&obs.message_bits),
            phases: obs
                .phases
                .spans()
                .iter()
                .map(|s| PhaseSnapshot {
                    label: s.label.to_string(),
                    enters: s.enters,
                    first_tick: s.first_tick,
                    last_tick: s.last_tick,
                })
                .collect(),
        }
    }

    /// Renders the schema-4 JSON object (single line, stable key order,
    /// floats fixed to six decimals — byte-deterministic for a seeded run).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"schema\":{OBS_SCHEMA},\"n\":{},\"messages\":{},\"bits\":{},\"events\":{},\
             \"time_units\":{:.6},\"all_awake\":{},\"crit_hops\":{},\"crit_tau\":{:.6}",
            self.n,
            self.messages,
            self.bits,
            self.events,
            self.time_units,
            self.all_awake,
            self.crit_hops,
            self.crit_tau,
        ));
        for (name, h) in [
            ("delay_ticks", &self.delay_ticks),
            ("batch_sizes", &self.batch_sizes),
            ("wake_latency", &self.wake_latency),
            ("message_bits", &self.message_bits),
        ] {
            s.push_str(&format!(
                ",\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.max
            ));
            for (k, &(i, c)) in h.buckets.iter().enumerate() {
                if k > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{i},{c}]"));
            }
            s.push_str("]}");
        }
        s.push_str(&format!(
            ",\"timeline\":{{\"mode\":\"{}\",\"width\":{},\"windows\":[",
            self.timeline.mode, self.timeline.width
        ));
        for (k, w) in self.timeline.windows.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            // Column order: [window, start_tick, events, sends, bits,
            // delivered, wakes, frontier, in_flight].
            s.push_str(&format!(
                "[{},{},{},{},{},{},{},{},{}]",
                w.window,
                w.start_tick,
                w.events,
                w.sends,
                w.bits,
                w.delivered,
                w.wakes,
                w.frontier,
                w.in_flight
            ));
        }
        s.push_str(&format!(
            "]}},\"internals\":{{\"windows\":{},\"last_window\":{},\"peak_frontier\":{},\
             \"peak_in_flight\":{},\"total_wakes\":{}}}",
            self.internals.windows,
            self.internals.last_window,
            self.internals.peak_frontier,
            self.internals.peak_in_flight,
            self.internals.total_wakes
        ));
        s.push_str(",\"phases\":[");
        for (k, p) in self.phases.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"label\":\"{}\",\"enters\":{},\"first_tick\":{},\"last_tick\":{}}}",
                json_escape(&p.label),
                p.enters,
                p.first_tick,
                p.last_tick
            ));
        }
        s.push_str("]}");
        s
    }

    /// As [`ObsSnapshot::to_json`], plus a trailing `"runtime"` block with
    /// the machine/config-dependent internals ([`RuntimeCounters`]). These
    /// bytes are **not** covered by the determinism contract — a 4-shard run
    /// legitimately reports different shard tables than a serial one — so
    /// `wakeup obs diff` treats `runtime.*` as tolerance-class fields.
    pub fn to_json_diag(&self) -> String {
        let mut s = self.to_json();
        debug_assert_eq!(s.pop(), Some('}'));
        let r = &self.runtime;
        s.push_str(&format!(
            ",\"runtime\":{{\"shards\":{},\"shard_events\":{},\"shard_sends\":{},\
             \"wheel_max_scan\":{},\"arena_high_water\":{},\"prefetch_batches\":{},\
             \"stall_rounds\":{},\"relabel_applied\":{}}}}}",
            r.shards,
            u64_array(&r.shard_events),
            u64_array(&r.shard_sends),
            r.wheel_max_scan,
            r.arena_high_water,
            r.prefetch_batches,
            r.stall_rounds,
            r.relabel_applied
        ));
        s
    }

    /// Renders the Prometheus text exposition format: one gauge/counter per
    /// scalar, cumulative `_bucket{le="..."}` series per histogram (the `le`
    /// labels are the log2 buckets' inclusive upper bounds), per-window
    /// timeline gauges, and the derived internals. Metric names are passed
    /// through [`prom_metric_name`] and label values through
    /// [`prom_label_escape`], so arbitrary phase labels can't corrupt the
    /// exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::with_capacity(2048);
        let scalar = |s: &mut String, name: &str, kind: &str, v: String| {
            let name = prom_metric_name(name);
            s.push_str(&format!("# TYPE wakeup_{name} {kind}\nwakeup_{name} {v}\n"));
        };
        scalar(
            &mut s,
            "messages_total",
            "counter",
            self.messages.to_string(),
        );
        scalar(&mut s, "bits_total", "counter", self.bits.to_string());
        scalar(&mut s, "events_total", "counter", self.events.to_string());
        scalar(
            &mut s,
            "time_units",
            "gauge",
            format!("{:.6}", self.time_units),
        );
        scalar(
            &mut s,
            "all_awake",
            "gauge",
            u64::from(self.all_awake).to_string(),
        );
        scalar(
            &mut s,
            "critical_path_hops",
            "gauge",
            self.crit_hops.to_string(),
        );
        scalar(
            &mut s,
            "critical_path_tau",
            "gauge",
            format!("{:.6}", self.crit_tau),
        );
        for (name, h) in [
            ("delay_ticks", &self.delay_ticks),
            ("batch_sizes", &self.batch_sizes),
            ("wake_latency", &self.wake_latency),
            ("message_bits", &self.message_bits),
        ] {
            s.push_str(&format!("# TYPE wakeup_{name} histogram\n"));
            let mut cum = 0u64;
            for &(i, c) in &h.buckets {
                cum += c;
                s.push_str(&format!(
                    "wakeup_{name}_bucket{{le=\"{}\"}} {cum}\n",
                    Hist64::bucket_hi(i as usize)
                ));
            }
            s.push_str(&format!(
                "wakeup_{name}_bucket{{le=\"+Inf\"}} {}\n",
                h.count
            ));
            s.push_str(&format!("wakeup_{name}_sum {}\n", h.sum));
            s.push_str(&format!("wakeup_{name}_count {}\n", h.count));
        }
        for (name, series) in [
            ("timeline_events", 0usize),
            ("timeline_frontier", 1),
            ("timeline_in_flight", 2),
        ] {
            s.push_str(&format!("# TYPE wakeup_{name} gauge\n"));
            for w in &self.timeline.windows {
                let v = match series {
                    0 => w.events,
                    1 => w.frontier,
                    _ => w.in_flight,
                };
                s.push_str(&format!(
                    "wakeup_{name}{{window=\"{}\",start_tick=\"{}\"}} {v}\n",
                    w.window, w.start_tick
                ));
            }
        }
        scalar(
            &mut s,
            "timeline_windows",
            "gauge",
            self.internals.windows.to_string(),
        );
        scalar(
            &mut s,
            "peak_frontier",
            "gauge",
            self.internals.peak_frontier.to_string(),
        );
        scalar(
            &mut s,
            "peak_in_flight",
            "gauge",
            self.internals.peak_in_flight.to_string(),
        );
        for p in &self.phases {
            s.push_str(&format!(
                "wakeup_phase_enters_total{{phase=\"{}\"}} {}\n",
                prom_label_escape(&p.label),
                p.enters
            ));
            s.push_str(&format!(
                "wakeup_phase_span_ticks{{phase=\"{}\"}} {}\n",
                prom_label_escape(&p.label),
                p.last_tick - p.first_tick
            ));
        }
        s
    }

    /// One-line human summary used by the CLI and examples.
    pub fn summary_line(&self) -> String {
        format!(
            "critical path: {} hops over {:.3} τ (mean batch {:.1}, mean delay {:.0} ticks)",
            self.crit_hops,
            self.crit_tau,
            mean(&self.batch_sizes),
            mean(&self.delay_ticks),
        )
    }
}

fn mean(h: &HistSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

/// Compact `[a,b,c]` rendering of a `u64` slice (the diag runtime block).
fn u64_array(v: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

/// Minimal JSON string escaping for label values: backslash, quote, and
/// control characters (phase labels are `&'static str`s today, but the
/// export must stay well-formed for any label a protocol chooses).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus label-value escaping per the text exposition format:
/// backslash → `\\`, double quote → `\"`, newline → `\n`.
fn prom_label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Clamps a metric-name suffix to the Prometheus charset
/// `[a-zA-Z0-9_:]` (every other character becomes `_`). Identity on all
/// names this module emits; the clamp is the safety net for future callers.
fn prom_metric_name(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Marks `TICKS_PER_UNIT` as intentionally reachable from snapshot docs.
const _: u64 = TICKS_PER_UNIT;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::obs::ObsLevel;

    fn tiny_report() -> RunReport {
        let mut metrics = Metrics::new(2);
        metrics.messages_sent = 3;
        metrics.bits_sent = 96;
        metrics.wake_tick = vec![Some(0), Some(TICKS_PER_UNIT)];
        metrics.first_wake_tick = Some(0);
        metrics.last_receipt_tick = Some(TICKS_PER_UNIT);
        let mut obs = Obs::new(2, ObsLevel::Full);
        // Histograms only — tests add timeline entries explicitly so the
        // windowed assertions below stay exact.
        obs.message_bits.record(32);
        obs.delay_ticks.record(TICKS_PER_UNIT);
        obs.batch_sizes.record(1);
        obs.wake_pred[1] = 0;
        obs.events = 5;
        RunReport {
            all_awake: true,
            rounds: 0,
            outputs: vec![None, None],
            truncated: false,
            metrics,
            obs,
            #[cfg(feature = "audit")]
            audit_log: None,
        }
    }

    #[test]
    fn json_is_deterministic_and_schema4() {
        let r = tiny_report();
        let a = ObsSnapshot::of(&r).to_json();
        let b = ObsSnapshot::of(&r).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":4,"));
        assert!(a.contains("\"crit_hops\":1"));
        assert!(a.contains("\"crit_tau\":1.000000"));
        assert!(a.contains(
            "\"delay_ticks\":{\"count\":1,\"sum\":1024,\"max\":1024,\"buckets\":[[11,1]]}"
        ));
        assert!(a.contains("\"timeline\":{\"mode\":\"log2\",\"width\":0,\"windows\":["));
        assert!(a.contains("\"internals\":{"));
        // The deterministic rendering never leaks the runtime diagnostics.
        assert!(!a.contains("\"runtime\""));
    }

    #[test]
    fn timeline_block_carries_windowed_series() {
        let mut r = tiny_report();
        // Send at tick 0 (window 0), wake + delivery at tick 5 (window 2).
        r.obs.timeline.note_send(0, 32);
        r.obs.timeline.note_wakes(5, 1);
        r.obs.timeline.note_delivered(5, 1);
        let snap = ObsSnapshot::of(&r);
        // [window, start_tick, events, sends, bits, delivered, wakes,
        //  frontier, in_flight]
        assert_eq!(snap.timeline.windows.len(), 2);
        let w0 = snap.timeline.windows[0];
        assert_eq!((w0.window, w0.sends, w0.bits, w0.in_flight), (0, 1, 32, 1));
        let w2 = snap.timeline.windows[1];
        assert_eq!(
            (
                w2.window,
                w2.start_tick,
                w2.events,
                w2.frontier,
                w2.in_flight
            ),
            (2, 3, 2, 1, 0)
        );
        assert_eq!(snap.internals.windows, 2);
        assert_eq!(snap.internals.last_window, 2);
        assert_eq!(snap.internals.peak_frontier, 1);
        assert_eq!(snap.internals.peak_in_flight, 1);
        assert_eq!(snap.internals.total_wakes, 1);
        let json = snap.to_json();
        assert!(json.contains("\"windows\":[[0,0,0,1,32,0,0,0,1],[2,3,2,0,0,1,1,1,0]]"));
    }

    #[test]
    fn diag_json_appends_the_runtime_block() {
        let mut r = tiny_report();
        r.obs.runtime.shards = 4;
        r.obs.runtime.shard_events = vec![2, 1, 1, 1];
        r.obs.runtime.wheel_max_scan = 7;
        let snap = ObsSnapshot::of(&r);
        let diag = snap.to_json_diag();
        assert!(diag.starts_with(&snap.to_json()[..snap.to_json().len() - 1]));
        assert!(diag.ends_with("}"));
        assert!(diag.contains(
            "\"runtime\":{\"shards\":4,\"shard_events\":[2,1,1,1],\"shard_sends\":[],\
             \"wheel_max_scan\":7,"
        ));
    }

    #[test]
    fn prometheus_escapes_labels_and_clamps_metric_names() {
        assert_eq!(prom_label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(prom_metric_name("delay_ticks"), "delay_ticks");
        assert_eq!(prom_metric_name("bad-name.π"), "bad_name__");
        let mut snap = ObsSnapshot::of(&tiny_report());
        snap.phases.push(PhaseSnapshot {
            label: "odd \"label\"\nwith\\specials".to_string(),
            enters: 1,
            first_tick: 0,
            last_tick: 0,
        });
        let text = snap.to_prometheus();
        assert!(text.contains(
            "wakeup_phase_enters_total{phase=\"odd \\\"label\\\"\\nwith\\\\specials\"} 1"
        ));
        // No raw newline may survive inside a label value.
        for line in text.lines() {
            assert!(!line.ends_with('\\'), "dangling escape in {line:?}");
        }
        let json = snap.to_json();
        assert!(json.contains("odd \\\"label\\\"\\nwith\\\\specials"));
    }

    #[test]
    fn prometheus_renders_timeline_gauges() {
        let mut r = tiny_report();
        r.obs.timeline.note_wakes(0, 2);
        r.obs.timeline.note_delivered(3, 1);
        let text = ObsSnapshot::of(&r).to_prometheus();
        assert!(text.contains("# TYPE wakeup_timeline_events gauge"));
        assert!(text.contains("wakeup_timeline_events{window=\"0\",start_tick=\"0\"} 2"));
        assert!(text.contains("wakeup_timeline_frontier{window=\"2\",start_tick=\"3\"} 2"));
        assert!(text.contains("wakeup_peak_frontier 2"));
    }

    #[test]
    fn prometheus_has_cumulative_buckets() {
        let r = tiny_report();
        let text = ObsSnapshot::of(&r).to_prometheus();
        assert!(text.contains("wakeup_messages_total 3"));
        assert!(text.contains("wakeup_delay_ticks_bucket{le=\"2047\"} 1"));
        assert!(text.contains("wakeup_delay_ticks_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("wakeup_critical_path_hops 1"));
    }

    #[test]
    fn summary_line_mentions_critical_path() {
        let r = tiny_report();
        assert!(ObsSnapshot::of(&r)
            .summary_line()
            .starts_with("critical path: 1 hops"));
    }
}
