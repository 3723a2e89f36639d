//! The repository's benchmark: one named workload at one seed, every result
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path wakebench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics of a traced run (spans recorded around each call into
//! a layer) plus the tracing overhead, and the spans are written to
//! `.bench_out/`. The process exits 1 when any result check fails. See
//! `wakebench/README.md` for the workloads and the metric map.

mod flood;
mod stats;
mod sys;
mod table1;
mod trace;

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use stats::{median, percentile, result_line, tail, Metric};
use trace::Tracer;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["flood-unit-100k", "flood-adv-300k", "table1-cold"];

/// End-to-end metrics (tracing off): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("trial_s", "s"),
    ("setup_s", "s"),
    ("reload_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit. Every workload reports
/// all of them; a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("graph.generate_s", "s"),
    ("graph.edges", "count"),
    ("network.assemble_s", "s"),
    ("network.tables_s", "s"),
    ("network.relabel_applied", "flag"),
    ("store.write_s", "s"),
    ("store.bytes", "B"),
    ("store.open_s", "s"),
    ("store.hits", "count"),
    ("store.errors", "count"),
    ("store.mmap_loads", "count"),
    ("advice.oracle_s", "s"),
    ("advice.total_bits", "bit"),
    ("advice.max_bits", "bit"),
    ("async.construct_s", "s"),
    ("async.reset_s", "s"),
    ("async.run_s", "s"),
    ("async.ns_per_event", "ns"),
    ("async.events", "count"),
    ("async.messages", "count"),
    ("async.wheel_max_scan", "ticks"),
    ("async.arena_high_water", "slots"),
    ("async.prefetch_batches", "count"),
    ("shard.stall_rounds", "count"),
    ("shard.event_imbalance", "ratio"),
    ("shard.cpu_per_wall", "ratio"),
    ("shard.caller_cpu_s", "s"),
    ("sync.construct_s", "s"),
    ("sync.run_s", "s"),
    ("sync.events", "count"),
    ("sync.rounds", "count"),
    ("obs.snapshot_s", "s"),
    ("obs.json_s", "s"),
    ("obs.json_bytes", "B"),
    ("obs.windows", "count"),
    ("scenario.load_s", "s"),
    ("scenario.cells", "count"),
    ("trace.overhead_events_per_s", "1/s"),
];

/// The percentile of the reload repetitions reported as `reload_s`. A
/// reload takes milliseconds and its fastest repetitions include isolated
/// outliers, so a low percentile is steadier than the minimum.
const RELOAD_PERCENTILE: u32 = 10;

/// Timed trials per loop even when `--seconds` runs out first.
const MIN_TRIALS: usize = 3;

/// Everything one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each store reload repetition.
    pub reload_s: Vec<f64>,
    /// Wall time of each untraced trial.
    pub trial_s: Vec<f64>,
    /// Wall time of each traced trial (traced runs only).
    pub traced_trial_s: Vec<f64>,
    /// Engine events (wakes + deliveries) in one trial.
    pub events_per_trial: f64,
    /// Peak RSS over the untimed first trials, MiB.
    pub peak_rss_mb: f64,
    /// Whether the peak-RSS mark was reset after set-up.
    pub rss_reset: bool,
    /// Trials attempted.
    pub attempted: u64,
    /// Trials with a failed check.
    pub failed: u64,
    /// Every failed check, trial or not.
    pub problems: Vec<String>,
    /// Per-layer values from the traced run, by name.
    pub layers: Vec<(&'static str, f64)>,
}

impl Run {
    /// Counts one checked trial.
    fn record_trial(&mut self, trial: u32, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        self.problems
            .extend(problems.into_iter().map(|p| format!("trial {trial}: {p}")));
    }

    /// Events per trial over the fastest trial's wall time.
    fn events_per_s(&self, walls: &[f64]) -> f64 {
        self.events_per_trial / fastest(walls)
    }
}

/// The smallest of `values`.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `one(trial, reloads_due)` until `seconds` have passed, at least
/// [`MIN_TRIALS`] trials ran and `reloads` reload repetitions were handed
/// out; returns the wall time each trial reported. Reload repetition `k`
/// falls due in the middle of the `k`-th of `reloads` equal slices of
/// `seconds` and goes to the next trial, so the reloads sample the whole
/// loop instead of one burst of host load.
fn trial_loop(seconds: f64, reloads: u32, mut one: impl FnMut(u32, Range<u32>) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut handed = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= MIN_TRIALS && elapsed >= seconds && handed == reloads {
            return walls;
        }
        let first = handed;
        while handed < reloads
            && elapsed >= (f64::from(handed) + 0.5) * seconds / f64::from(reloads)
        {
            handed += 1;
        }
        let trial = u32::try_from(walls.len()).expect("trial count fits u32");
        walls.push(one(trial, first..handed));
    }
}

/// The timed loops of a run. Untraced: one loop of `seconds`. Traced: an
/// untraced loop and a traced loop of `seconds / 2` each, so the two give
/// the tracing overhead. The reloads run in the last loop.
fn trial_loops(
    trace: bool,
    tr: &mut Tracer,
    out: &mut Run,
    seconds: f64,
    reloads: u32,
    mut one: impl FnMut(&mut Tracer, &mut Run, u32, Range<u32>) -> f64,
) {
    tr.set_enabled(false);
    if trace {
        let walls = trial_loop(seconds / 2.0, 0, |i, r| one(tr, out, i, r));
        out.trial_s = walls;
        tr.set_enabled(true);
        let walls = trial_loop(seconds / 2.0, reloads, |i, r| one(tr, out, i, r));
        out.traced_trial_s = walls;
    } else {
        let walls = trial_loop(seconds, reloads, |i, r| one(tr, out, i, r));
        out.trial_s = walls;
    }
}

/// A fresh per-process directory under `.bench_out/` in the working
/// directory.
fn scratch_dir(kind: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_out").join(format!("{kind}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fatal(&format!("creating {}: {e}", dir.display())));
    dir
}

/// Reports an error that stops the run before any result, and exits 2.
fn fatal(msg: &str) -> ! {
    eprintln!("wakebench: {msg}");
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fatal(&e));
    let seconds = args.seconds as f64;
    let mut tr = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "flood-unit-100k" => flood::run(
            &flood::Flood {
                n: 100_000,
                adversarial: false,
                sharded_probe: None,
            },
            args.seed,
            seconds,
            &mut tr,
        ),
        "flood-adv-300k" => flood::run(
            &flood::Flood {
                n: 300_000,
                adversarial: true,
                sharded_probe: Some(2),
            },
            args.seed,
            seconds,
            &mut tr,
        ),
        "table1-cold" => table1::run(args.seed, seconds, &mut tr),
        other => unreachable!("parse_args accepted {other}"),
    };

    println!(
        "provenance {}",
        sys::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    let tail = tail(&run.trial_s);
    println!(
        "trials: {} timed; fastest (trial_s) {:.6} s, median {:.6} s; trial_s_tail {:.6} s is p{} with {} samples beyond{}",
        tail.samples,
        fastest(&run.trial_s),
        median(&run.trial_s),
        tail.value,
        tail.percentile,
        tail.beyond,
        if tail.rule_met {
            String::new()
        } else {
            format!(" (fewer than {}: median reported)", stats::TAIL_MIN_BEYOND)
        }
    );
    println!(
        "events_per_s: {:.1} ({} engine events per trial over the fastest trial)",
        run.events_per_s(&run.trial_s),
        run.events_per_trial
    );
    println!(
        "set-up: {} repetitions, median {:.6} s; reload: {} repetitions, fastest {:.6} s, p{RELOAD_PERCENTILE} (reload_s) {:.6} s, median {:.6} s; peak RSS reset after set-up: {}",
        run.setup_s.len(),
        median(&run.setup_s),
        run.reload_s.len(),
        fastest(&run.reload_s),
        percentile(&run.reload_s, RELOAD_PERCENTILE),
        median(&run.reload_s),
        run.rss_reset
    );
    println!(
        "failed_frac: {} ({} of {} trials failed a check)",
        run.failed as f64 / run.attempted as f64,
        run.failed,
        run.attempted
    );
    for problem in run.problems.iter().take(20) {
        eprintln!("check failed: {problem}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
        let overhead = run.events_per_s(&run.traced_trial_s) - run.events_per_s(&run.trial_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_events_per_s" {
                    overhead
                } else {
                    run.layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v)
                };
                Metric { name, value, unit }
            })
            .collect()
    } else {
        // The fastest trial: neighbours' load on a shared host comes in
        // bursts that slow every trial inside them, and the fastest trial
        // is the one least disturbed.
        let values = [
            fastest(&run.trial_s),
            median(&run.setup_s),
            percentile(&run.reload_s, RELOAD_PERCENTILE),
            run.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    for (name, _) in &run.layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "layer metric {name} is not declared"
        );
    }
    for m in &metrics {
        assert!(stats::valid_name(m.name), "metric name {}", m.name);
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = run.problems.is_empty();
    println!(
        "{}",
        result_line(correct, run.attempted, run.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakeup_scenario::json::{parse, Value};

    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        match v {
            Value::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    /// The string field `key` of every object in the array `v`.
    fn strings(v: &Value, key: &str) -> Vec<String> {
        let Value::Arr(items) = v else {
            panic!("not an array")
        };
        items
            .iter()
            .map(|item| match field(item, key) {
                Value::Str(s) => s.clone(),
                _ => panic!("{key} is not a string"),
            })
            .collect()
    }

    #[test]
    fn trial_loop_hands_out_every_reload_once() {
        let mut seen = Vec::new();
        let walls = trial_loop(0.0, 5, |trial, reloads| {
            seen.extend(reloads.map(|rep| (trial, rep)));
            1.0
        });
        // With no time to spread them over, every reload falls due at once.
        assert_eq!(walls.len(), MIN_TRIALS);
        assert_eq!(seen, (0..5).map(|k| (0, k)).collect::<Vec<_>>());
        assert_eq!(trial_loop(0.0, 0, |_, _| 1.0).len(), MIN_TRIALS);
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
            assert!(name.len() <= 64, "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to wakebench/");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str, code: &[(&str, &str)]| {
            let (names, units): (Vec<&str>, Vec<&str>) = code.iter().copied().unzip();
            assert_eq!(strings(field(&doc, key), "name"), names, "{key}");
            assert_eq!(strings(field(&doc, key), "unit"), units, "{key}");
        };
        listed("end_to_end", &END_TO_END);
        listed("per_layer", &PER_LAYER);
        assert_eq!(strings(field(&doc, "workloads"), "name"), WORKLOADS);
    }
}
