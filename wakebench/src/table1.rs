//! The `table1-cold` workload: every `scenarios/table1` row at every size
//! of its sweep, each cell built from scratch with no artifact cache —
//! what a fresh `table1` process pays.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use wakeup_bench::artifacts::{ArtifactCache, GraphFamily, NetworkKey};
use wakeup_scenario::corpus;
use wakeup_scenario::run::{
    async_config, build_delays, build_graph, build_network, build_schedule, dispatch_async,
    dispatch_sync, sync_config, AsyncDispatch, SyncDispatch,
};
use wakeup_scenario::spec::{DelaySpec, GraphSpec, ProtocolSpec, ScenarioSpec};
use wakeup_sim::adversary::WakeSchedule;
use wakeup_sim::advice::AdviceStats;
use wakeup_sim::persist;
use wakeup_sim::{
    AsyncEngine, AsyncProtocol, BitStr, ChannelModel, KnowledgeMode, Network, RunDigest, RunReport,
    SyncEngine, SyncProtocol,
};

use crate::stats::median_or_zero;
use crate::trace::Tracer;
use crate::{sys, Run};

/// Set-ups (corpus load plus bake) per run; `setup_s` is their median.
const SETUP_REPS: u32 = 9;
/// Warm passes per run.
const RELOAD_REPS: u32 = 21;

/// One Table 1 cell: a corpus row resized to one sweep size and re-seeded.
struct Cell {
    spec: ScenarioSpec,
    key: NetworkKey,
}

/// What one cell of a pass produced.
struct CellOut {
    report: RunReport,
    sync: bool,
    advice: Option<AdviceStats>,
    edges: usize,
    json_bytes: usize,
    windows: u32,
}

fn reseed_delays(delays: &DelaySpec, seed: u64) -> DelaySpec {
    match delays {
        DelaySpec::Random { .. } => DelaySpec::Random { seed },
        DelaySpec::Adversarial { .. } => DelaySpec::Adversarial { salt: seed },
        DelaySpec::Capped { inner, tau_ticks } => DelaySpec::Capped {
            inner: Box::new(reseed_delays(inner, seed)),
            tau_ticks: *tau_ticks,
        },
        other => other.clone(),
    }
}

/// Expands the corpus into its cells, with `seed` replacing every seed.
fn cells(rows: Vec<ScenarioSpec>, seed: u64) -> Result<Vec<Cell>, String> {
    let mut out = Vec::new();
    for row in rows {
        let sizes = row
            .report
            .as_ref()
            .map(|r| r.sizes.clone())
            .unwrap_or_default();
        for n in sizes {
            let mut spec = row.clone();
            let family = match spec.graph {
                GraphSpec::Sparse { .. } => {
                    spec.graph = GraphSpec::Sparse { n, seed };
                    GraphFamily::Sparse
                }
                GraphSpec::Complete { .. } => {
                    spec.graph = GraphSpec::Complete { n };
                    GraphFamily::Complete
                }
                ref other => return Err(format!("{}: no store encoding for {other:?}", row.name)),
            };
            spec.delays = reseed_delays(&spec.delays, seed);
            spec.engine.seed = seed;
            spec.validate()
                .map_err(|e| format!("{} n={n}: {e:?}", row.name))?;
            let key = NetworkKey {
                family,
                n,
                seed,
                mode: spec.protocol.knowledge_mode(),
            };
            out.push(Cell { spec, key });
        }
    }
    Ok(out)
}

/// Builds and runs one protocol type inside the dispatcher, so the
/// dispatcher's own time (the advice oracle) is its self time.
struct Visit<'a> {
    spec: &'a ScenarioSpec,
    schedule: &'a WakeSchedule,
    tr: &'a mut Tracer,
}

impl AsyncDispatch for Visit<'_> {
    type Out = RunReport;

    fn call<P: AsyncProtocol>(
        self,
        net: &Network,
        channel: ChannelModel,
        advice: Option<Arc<Vec<BitStr>>>,
    ) -> RunReport {
        let config = async_config(self.spec, channel, advice);
        let mut delays = build_delays(&self.spec.delays);
        let mut engine = self
            .tr
            .span("async.construct", || AsyncEngine::<P>::new(net, config));
        self.tr.span("async.run", || {
            engine.run_mut(self.schedule, delays.as_mut())
        })
    }
}

impl SyncDispatch for Visit<'_> {
    type Out = RunReport;

    fn call<P: SyncProtocol>(self, net: &Network) -> RunReport {
        let config = sync_config(self.spec);
        let mut engine = self
            .tr
            .span("sync.construct", || SyncEngine::<P>::new(net, config));
        self.tr.span("sync.run", || engine.run_mut(self.schedule))
    }
}

/// One pass over every cell. With `store`, each cell's network comes from
/// that store-backed cache (a warm pass); without, it is generated and
/// assembled from scratch (a cold pass).
fn pass(cells: &[Cell], tr: &mut Tracer, store: Option<&ArtifactCache>) -> Vec<CellOut> {
    let mut outs = Vec::with_capacity(cells.len());
    for cell in cells {
        let spec = &cell.spec;
        let net = match store {
            Some(cache) => tr.span("store.open", || cache.network(cell.key)),
            None => {
                let graph = tr.span("graph.generate", || build_graph(&spec.graph));
                Arc::new(tr.span("network.assemble", || match cell.key.mode {
                    KnowledgeMode::Kt0 => Network::kt0(graph, spec.engine.seed),
                    KnowledgeMode::Kt1 => Network::kt1(graph, spec.engine.seed),
                }))
            }
        };
        let edges = net.graph().m();
        let schedule = build_schedule(spec);
        let id = tr.begin("dispatch");
        let ran = if spec.protocol.is_sync() {
            let visit = Visit {
                spec,
                schedule: &schedule,
                tr: &mut *tr,
            };
            dispatch_sync(spec, &net, visit).map(|report| (report, None))
        } else {
            let visit = Visit {
                spec,
                schedule: &schedule,
                tr: &mut *tr,
            };
            dispatch_async(spec, &net, visit)
        };
        tr.end(id);
        let (report, advice) = ran.expect("validated specs dispatch");
        let snapshot = tr.span("obs.snapshot", || report.obs_snapshot());
        let json = tr.span("obs.json", || snapshot.to_json());
        outs.push(CellOut {
            edges,
            json_bytes: json.len(),
            windows: snapshot.internals.windows,
            sync: spec.protocol.is_sync(),
            report,
            advice,
        });
    }
    outs
}

/// The result checks for one pass against the reference pass.
fn check(cells: &[Cell], outs: &[CellOut], reference: &[RunDigest]) -> Vec<String> {
    let mut problems = Vec::new();
    for ((cell, out), want) in cells.iter().zip(outs).zip(reference) {
        let r = &out.report;
        let at = format!("{} n={}", cell.spec.name, cell.key.n);
        if !r.all_awake || r.truncated {
            problems.push(format!(
                "{at}: all_awake={} truncated={}",
                r.all_awake, r.truncated
            ));
        }
        if cell.spec.protocol == ProtocolSpec::Flooding && r.messages() != 2 * out.edges as u64 {
            problems.push(format!("{at}: {} messages, want 2m", r.messages()));
        }
        let digest = RunDigest::of(r);
        if digest != *want {
            problems.push(format!("{at}: digest differs: {:?}", digest.diff(want)));
        }
    }
    problems
}

/// Runs the workload: set-up (corpus load and bake), reload, one untimed
/// warm-up pass that fixes the reference digests, then timed passes for
/// `seconds` (half untraced and half traced when `tr` is enabled).
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let trace = tr.enabled();
    let mut out = Run::default();
    let dir = crate::scratch_dir("store");

    let mut table = Vec::new();
    for rep in 0..SETUP_REPS {
        tr.set_trial(rep);
        let start = Instant::now();
        let rows = tr
            .span("scenario.load", corpus::table1)
            .unwrap_or_else(|e| crate::fatal(&format!("loading scenarios/table1: {e:?}")));
        table = cells(rows.into_iter().map(|(_, spec)| spec).collect(), seed)
            .unwrap_or_else(|e| crate::fatal(&e));
        // Rows of one knowledge mode share a network per size: bake each
        // distinct network once.
        let mut baked = std::collections::HashSet::new();
        for cell in table.iter().filter(|c| baked.insert(c.key)) {
            let net = build_network(&cell.spec);
            let path = dir.join(cell.key.store_file_name());
            tr.span("store.write", || {
                persist::write_network(&path, &cell.key.store_key(), &net)
            })
            .unwrap_or_else(|e| crate::fatal(&format!("baking {}: {e}", path.display())));
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let keys: std::collections::HashSet<NetworkKey> = table.iter().map(|c| c.key).collect();
    let store_bytes: u64 = keys
        .iter()
        .filter_map(|k| std::fs::metadata(dir.join(k.store_file_name())).ok())
        .map(|m| m.len())
        .sum();

    // A reload is a warm pass: a fresh store-backed cache serves every
    // cell's network, and the pass runs on them as a cold pass would. Its
    // spans go to their own recorder so they do not mix with the timed
    // passes' layers.
    let mut store = Default::default();
    let mut warm_tr = Tracer::new(trace);
    let mut reload = |out: &mut Run, reference: &[RunDigest], rep: u32| {
        warm_tr.set_trial(rep);
        let start = Instant::now();
        let cache = ArtifactCache::with_store(&dir);
        let outs = pass(&table, &mut warm_tr, Some(&cache));
        out.reload_s.push(start.elapsed().as_secs_f64());
        store = cache.store_counts();
        if store.hits != keys.len() as u64 || store.errors != 0 {
            out.problems.push(format!(
                "reload {rep}: hits={} errors={} (want {}, 0)",
                store.hits,
                store.errors,
                keys.len()
            ));
        }
        out.problems.extend(
            check(&table, &outs, reference)
                .into_iter()
                .map(|p| format!("reload {rep}: {p}")),
        );
    };

    // The untimed warm-up pass fixes the reference digests; its peak RSS
    // is a pass's.
    out.rss_reset = sys::reset_peak_rss();
    tr.set_enabled(false);
    let warmup = pass(&table, tr, None);
    out.peak_rss_mb = sys::peak_rss_mb();
    let reference: Vec<RunDigest> = warmup.iter().map(|o| RunDigest::of(&o.report)).collect();
    out.problems.extend(check(&table, &warmup, &reference));
    out.events_per_trial = warmup.iter().map(|o| o.report.obs.events as f64).sum();
    drop(warmup);

    let mut last = Vec::new();
    let timed = |tr: &mut Tracer, out: &mut Run, i: u32, reloads: Range<u32>| -> f64 {
        tr.set_trial(i);
        let start = Instant::now();
        let outs = pass(&table, tr, None);
        let wall = start.elapsed().as_secs_f64();
        out.record_trial(i, check(&table, &outs, &reference));
        last = outs;
        for rep in reloads {
            reload(out, &reference, rep);
        }
        wall
    };
    crate::trial_loops(trace, tr, &mut out, seconds, RELOAD_REPS, timed);
    std::fs::remove_dir_all(&dir).ok();

    if trace {
        let layer = |name: &str| median_or_zero(&tr.per_trial(name));
        let sum = |f: &dyn Fn(&CellOut) -> f64| last.iter().map(f).sum::<f64>();
        let max = |f: &dyn Fn(&CellOut) -> f64| last.iter().map(f).fold(0.0, f64::max);
        let async_events = sum(&|o| {
            if o.sync {
                0.0
            } else {
                o.report.obs.events as f64
            }
        });
        out.layers = vec![
            ("graph.generate_s", layer("graph.generate")),
            ("graph.edges", sum(&|o| o.edges as f64)),
            ("network.assemble_s", layer("network.assemble")),
            ("store.write_s", layer("store.write")),
            ("store.bytes", store_bytes as f64),
            (
                "store.open_s",
                median_or_zero(&warm_tr.per_trial("store.open")),
            ),
            ("store.hits", store.hits as f64),
            ("store.errors", store.errors as f64),
            ("store.mmap_loads", store.mmap_loads as f64),
            ("advice.oracle_s", layer("dispatch")),
            (
                "advice.total_bits",
                sum(&|o| o.advice.as_ref().map_or(0.0, |a| a.total_bits as f64)),
            ),
            (
                "advice.max_bits",
                max(&|o| o.advice.as_ref().map_or(0.0, |a| a.max_bits as f64)),
            ),
            ("async.construct_s", layer("async.construct")),
            ("async.run_s", layer("async.run")),
            (
                "async.ns_per_event",
                layer("async.run") / async_events * 1e9,
            ),
            ("async.events", async_events),
            (
                "async.messages",
                sum(&|o| {
                    if o.sync {
                        0.0
                    } else {
                        o.report.messages() as f64
                    }
                }),
            ),
            (
                "async.wheel_max_scan",
                max(&|o| o.report.obs.runtime.wheel_max_scan as f64),
            ),
            (
                "async.arena_high_water",
                max(&|o| o.report.obs.runtime.arena_high_water as f64),
            ),
            (
                "async.prefetch_batches",
                sum(&|o| o.report.obs.runtime.prefetch_batches as f64),
            ),
            ("shard.event_imbalance", 1.0),
            ("sync.construct_s", layer("sync.construct")),
            ("sync.run_s", layer("sync.run")),
            (
                "sync.events",
                sum(&|o| {
                    if o.sync {
                        o.report.obs.events as f64
                    } else {
                        0.0
                    }
                }),
            ),
            ("sync.rounds", sum(&|o| o.report.rounds as f64)),
            ("obs.snapshot_s", layer("obs.snapshot")),
            ("obs.json_s", layer("obs.json")),
            ("obs.json_bytes", sum(&|o| o.json_bytes as f64)),
            ("obs.windows", sum(&|o| f64::from(o.windows))),
            ("scenario.load_s", layer("scenario.load")),
            ("scenario.cells", table.len() as f64),
        ];
    }
    out
}
