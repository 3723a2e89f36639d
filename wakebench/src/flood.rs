//! The flood workloads: `FloodAsync` on one sparse Erdős–Rényi network,
//! built cold, baked to the store, reloaded, then run trial after trial on
//! a warm engine.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use wakeup_bench::artifacts::{ArtifactCache, GraphFamily, NetworkKey};
use wakeup_core::flooding::FloodAsync;
use wakeup_graph::NodeId;
use wakeup_scenario::run::build_graph;
use wakeup_scenario::GraphSpec;
use wakeup_sim::adversary::{AdversarialDelay, DelayStrategy, UnitDelay, WakeSchedule};
use wakeup_sim::obs::RuntimeCounters;
use wakeup_sim::persist;
use wakeup_sim::{AsyncConfig, AsyncEngine, KnowledgeMode, Network, RunDigest};

use crate::stats::{median, median_or_zero};
use crate::trace::Tracer;
use crate::{sys, Run};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: u32 = 5;
/// Moments in the timed loop at which the store is reloaded.
const RELOAD_REPS: u32 = 21;
/// Back-to-back reloads at each of those moments.
const RELOAD_BURST: u32 = 10;
/// Sharded trials in a traced run of a workload with a sharded probe.
const SHARDED_TRIALS: u32 = 3;

/// One flood workload.
pub struct Flood {
    /// Node count of the sparse ER graph (average degree 8).
    pub n: usize,
    /// `AdversarialDelay` (each channel fixed at 1 tick or τ) instead of
    /// `UnitDelay`.
    pub adversarial: bool,
    /// Shard count of the sharded trials the traced run adds on the same
    /// network, if any. Timed trials are serial: on a small shared host a
    /// sharded trial's wall time follows the scheduler more than the code.
    pub sharded_probe: Option<usize>,
}

/// What one traced trial leaves for the per-layer metrics.
struct TrialStats {
    runtime: RuntimeCounters,
    messages: u64,
    run_s: f64,
    caller_cpu_s: f64,
    process_cpu_s: f64,
    json_bytes: usize,
    windows: u32,
}

/// Runs the workload: set-up, bake, reload, then timed trials for
/// `seconds` (half untraced and half traced when `tr` is enabled).
pub fn run(w: &Flood, seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let trace = tr.enabled();
    let mut out = Run::default();
    let config = AsyncConfig {
        seed,
        shards: 1,
        ..AsyncConfig::default()
    };
    let new_engine =
        |net: &Arc<Network>| AsyncEngine::<FloodAsync>::new_shared(Arc::clone(net), config.clone());

    // Cold set-up: graph generation, network assembly, first engine
    // construction (which builds the lazy node tables and, at n >= 2^18,
    // the relabeled run space). A second construction on the same network
    // is the warm cost; the difference is the table build.
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        tr.set_trial(rep);
        let start = Instant::now();
        let graph = tr.span("graph.generate", || {
            build_graph(&GraphSpec::Sparse { n: w.n, seed })
        });
        let net = Arc::new(tr.span("network.assemble", || Network::kt0(graph, seed)));
        let first = tr.span("async.construct_first", || new_engine(&net));
        out.setup_s.push(start.elapsed().as_secs_f64());
        drop(first);
        let warm = tr.span("async.construct", || new_engine(&net));
        kept = Some((net, warm));
    }
    let (net, mut engine) = kept.expect("at least one set-up");
    let m = net.graph().m() as u64;

    // Bake the network; fresh store-backed caches reload it between trials.
    let key = NetworkKey {
        family: GraphFamily::Sparse,
        n: w.n,
        seed,
        mode: KnowledgeMode::Kt0,
    };
    let dir = crate::scratch_dir("store");
    tr.set_trial(0);
    let store_bytes = tr
        .span("store.write", || {
            persist::write_network(&dir.join(key.store_file_name()), &key.store_key(), &net)
        })
        .unwrap_or_else(|e| crate::fatal(&format!("baking the network: {e}")));
    let mut store = Default::default();
    let mut reload = |tr: &mut Tracer, out: &mut Run, rep: u32| {
        tr.set_trial(rep);
        let start = Instant::now();
        let cache = ArtifactCache::with_store(&dir);
        let loaded = tr.span("store.open", || cache.network(key));
        let _engine = tr.span("async.construct_reload", || new_engine(&loaded));
        out.reload_s.push(start.elapsed().as_secs_f64());
        store = cache.store_counts();
        if store.hits != 1 || store.errors != 0 || loaded.graph().m() as u64 != m {
            out.problems.push(format!(
                "reload {rep}: hits={} errors={} m={} (want 1, 0, {m})",
                store.hits,
                store.errors,
                loaded.graph().m()
            ));
        }
    };

    // Trials on the warm engine. Checks, the obs export and reloads run
    // outside the timed region.
    let schedule = WakeSchedule::single(NodeId::new(0));
    let mut delays: Box<dyn DelayStrategy + Send> = if w.adversarial {
        Box::new(AdversarialDelay::new(seed))
    } else {
        Box::new(UnitDelay)
    };
    out.rss_reset = sys::reset_peak_rss();
    let mut reference: Option<RunDigest> = None;
    let mut traced: Vec<TrialStats> = Vec::new();
    let mut events = 0;
    let mut trial = |tr: &mut Tracer, out: &mut Run, i: u32, reloads: Range<u32>| -> f64 {
        tr.set_trial(i);
        let (cpu0, caller0) = (sys::process_cpu_s(), sys::thread_cpu_s());
        let start = Instant::now();
        tr.span("async.reset", || engine.reset(seed));
        let run_start = Instant::now();
        let report = tr.span("async.run", || engine.run_mut(&schedule, delays.as_mut()));
        let wall = start.elapsed().as_secs_f64();
        let run_s = run_start.elapsed().as_secs_f64();
        let (cpu1, caller1) = (sys::process_cpu_s(), sys::thread_cpu_s());

        let snapshot = tr.span("obs.snapshot", || report.obs_snapshot());
        let json = tr.span("obs.json", || snapshot.to_json());
        let digest = RunDigest::of(&report);
        let reference = reference.get_or_insert_with(|| digest.clone());
        let mut problems = Vec::new();
        if !report.all_awake || report.truncated {
            problems.push(format!(
                "all_awake={} truncated={}",
                report.all_awake, report.truncated
            ));
        }
        if report.messages() != 2 * m {
            problems.push(format!(
                "{} messages, want 2m = {}",
                report.messages(),
                2 * m
            ));
        }
        if digest != *reference {
            problems.push(format!(
                "digest differs from trial 0: {:?}",
                digest.diff(reference)
            ));
        }
        if snapshot.events != report.obs.events || json.is_empty() {
            problems.push("obs snapshot disagrees with the report".into());
        }
        out.record_trial(i, problems);
        events = report.obs.events;
        if tr.enabled() {
            traced.push(TrialStats {
                run_s,
                caller_cpu_s: caller1 - caller0,
                process_cpu_s: cpu1 - cpu0,
                json_bytes: json.len(),
                windows: snapshot.internals.windows,
                runtime: report.obs.runtime.clone(),
                messages: report.messages(),
            });
        }
        drop(report);
        for rep in reloads {
            for k in 0..RELOAD_BURST {
                reload(tr, out, rep * RELOAD_BURST + k);
            }
        }
        wall
    };
    // Two untimed trials: the first grows the engine's run buffers and
    // fixes the reference digest, the second is the first on a reset
    // engine, as every timed trial is. Their peak RSS is the trials'.
    tr.set_enabled(false);
    for i in 0..2 {
        trial(tr, &mut out, i, 0..0);
    }
    out.peak_rss_mb = sys::peak_rss_mb();
    crate::trial_loops(trace, tr, &mut out, seconds, RELOAD_REPS, &mut trial);
    std::fs::remove_dir_all(&dir).ok();
    out.events_per_trial = events as f64;

    if trace {
        // Sharded trials on the same network must reproduce the serial
        // run; they give the shard layer's metrics.
        let mut sharded = Vec::new();
        if let Some(shards) = w.sharded_probe {
            let mut engine = tr.span("async.construct_sharded", || {
                AsyncEngine::<FloodAsync>::new_shared(
                    Arc::clone(&net),
                    AsyncConfig {
                        shards,
                        ..config.clone()
                    },
                )
            });
            for rep in 0..SHARDED_TRIALS {
                tr.set_trial(rep);
                let (cpu0, caller0) = (sys::process_cpu_s(), sys::thread_cpu_s());
                let start = Instant::now();
                engine.reset(seed);
                let report = tr.span("async.run_sharded", || {
                    engine.run_mut(&schedule, delays.as_mut())
                });
                let run_s = start.elapsed().as_secs_f64();
                let (cpu1, caller1) = (sys::process_cpu_s(), sys::thread_cpu_s());
                let digest = RunDigest::of(&report);
                if let Some(reference) = reference.as_ref().filter(|r| **r != digest) {
                    out.problems.push(format!(
                        "sharded trial {rep}: digest differs from the serial run: {:?}",
                        digest.diff(reference)
                    ));
                }
                sharded.push(TrialStats {
                    run_s,
                    caller_cpu_s: caller1 - caller0,
                    process_cpu_s: cpu1 - cpu0,
                    json_bytes: 0,
                    windows: 0,
                    runtime: report.obs.runtime.clone(),
                    messages: report.messages(),
                });
            }
        }
        let first = tr.per_trial("async.construct_first");
        let warm = tr.per_trial("async.construct");
        let tables: Vec<f64> = first.iter().zip(&warm).map(|(f, w)| f - w).collect();
        let last = traced.last().expect("traced trials ran");
        let rt = &last.runtime;
        // The shard layer is read from the sharded trials when there are
        // any, else from the serial ones (one shard: no stalls, balanced).
        let shard_trials = if sharded.is_empty() {
            &traced
        } else {
            &sharded
        };
        let shard_rt = &shard_trials.last().expect("trials ran").runtime;
        let imbalance = if shard_rt.shard_events.is_empty() {
            1.0
        } else {
            let events = &shard_rt.shard_events;
            let max = *events.iter().max().expect("non-empty") as f64;
            let mean = events.iter().sum::<u64>() as f64 / events.len() as f64;
            max / mean
        };
        let cpu: f64 = shard_trials.iter().map(|t| t.process_cpu_s).sum();
        let wall: f64 = shard_trials.iter().map(|t| t.run_s).sum();
        let layer = |name: &str| median_or_zero(&tr.per_trial(name));
        out.layers = vec![
            ("graph.generate_s", layer("graph.generate")),
            ("graph.edges", m as f64),
            ("network.assemble_s", layer("network.assemble")),
            ("network.tables_s", median_or_zero(&tables)),
            (
                "network.relabel_applied",
                f64::from(u8::from(rt.relabel_applied)),
            ),
            ("store.write_s", layer("store.write")),
            ("store.bytes", store_bytes as f64),
            ("store.open_s", layer("store.open")),
            ("store.hits", store.hits as f64),
            ("store.errors", store.errors as f64),
            ("store.mmap_loads", store.mmap_loads as f64),
            ("async.construct_s", layer("async.construct")),
            ("async.reset_s", layer("async.reset")),
            ("async.run_s", layer("async.run")),
            (
                "async.ns_per_event",
                layer("async.run") / events as f64 * 1e9,
            ),
            ("async.events", events as f64),
            ("async.messages", last.messages as f64),
            ("async.wheel_max_scan", rt.wheel_max_scan as f64),
            ("async.arena_high_water", rt.arena_high_water as f64),
            ("async.prefetch_batches", rt.prefetch_batches as f64),
            ("shard.stall_rounds", shard_rt.stall_rounds as f64),
            ("shard.event_imbalance", imbalance),
            ("shard.cpu_per_wall", cpu / wall),
            (
                "shard.caller_cpu_s",
                median(
                    &shard_trials
                        .iter()
                        .map(|t| t.caller_cpu_s)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("obs.snapshot_s", layer("obs.snapshot")),
            ("obs.json_s", layer("obs.json")),
            ("obs.json_bytes", last.json_bytes as f64),
            ("obs.windows", f64::from(last.windows)),
        ];
    }
    out
}
