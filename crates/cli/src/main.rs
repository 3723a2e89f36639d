//! The `wakeup` command-line tool.
//!
//! ```text
//! wakeup run  --algo dfs-rank --graph gnp:200:0.05:7 --wake single:0 [--seed N] [--delays unit|random:N|skewed:N]
//! wakeup run  --scenario scenarios/table1/01-flooding.json
//! wakeup sweep --algo thm5b --family gnp --sizes 64,128,256 [--seed N]
//! wakeup info --graph classgk:3:4:7
//! wakeup bake --dir store/ --n 512,20000 [--seed N] [--verify]
//! wakeup fuzz [--seed N] [--count K] [--out-dir DIR]
//! wakeup help
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use wakeup_cli::{
    cmd_bake, cmd_fuzz, cmd_obs, cmd_run_scenario, execute, graph_info, parse_delays, parse_graph,
    parse_schedule, run_trials, sweep, CliError,
};

const HELP: &str = "\
wakeup — adversarial wake-up simulator

USAGE:
  wakeup run   --algo <ALGO> --graph <GRAPH> --wake <WAKE> [--seed N] [--delays D]
  wakeup run   --scenario <FILE.json>
  wakeup sweep --algo <ALGO> --family <gnp|complete|tree> --sizes 64,128,... [--seed N]
  wakeup trials --algo <ALGO> --graph <GRAPH> --wake <WAKE> --count N [--seed N]
  wakeup info  --graph <GRAPH>
  wakeup bake  [--dir DIR] [--n 512,20000] [--seed N] [--verify]
  wakeup bake  [--dir DIR] --scenario <FILE.json> [--verify]
  wakeup fuzz  [--seed N] [--count K] [--out-dir DIR]
  wakeup obs   inspect <FILE>
  wakeup obs   diff <A> <B> [--tolerance PATH,PATH]
  wakeup obs   timeline <FILE> [--format csv|jsonl]
  wakeup help

ALGO:   flooding | dfs-rank | fast-wakeup | gossip | leader |
        cor1 | thm5a | thm5b | thm6:K | cor2
GRAPH:  path:N cycle:N star:N complete:N hypercube:D grid:R:C tree:N:SEED
        gnp:N:P:SEED ba:N:M:SEED ws:N:K:P:SEED ring:COUNT:SIZE
        caterpillar:SPINE:LEGS barbell:A:BRIDGE lollipop:A:TAIL
        classg:N classgk:K:Q:SEED
WAKE:   single:V | all | spread:STEP | stagger:STEP:GAP | at:V@T,V@T,...
DELAYS: unit | random:SEED | skewed:SALT   (async algorithms only)

run --scenario executes a validated scenario spec file (see scenarios/ and
docs/MODEL.md) instead of assembling a workload from the flags above.

bake pre-builds the benchmark artifact corpus (networks + oracle advice)
into a persistent store (--dir, or the WAKEUP_STORE variable). Measurement
binaries run with WAKEUP_STORE set then reload artifacts via mmap instead
of rebuilding them. --verify re-reads every file and compares it
byte-for-byte against a from-scratch cold rebuild.
With --scenario, bake derives the spec's artifact keys exactly as the
measurement harness does and bakes only those artifacts.

fuzz generates --count random valid scenario specs from --seed (the same
seed always yields the same spec stream) and runs each through the full
conformance battery: invariant audits, batched-vs-per-message,
reset-vs-fresh, sharded-vs-serial, lockstep-vs-sync where eligible. A
failing spec is greedily minimized and written with its differential
traces under --out-dir (default target/fuzz); the exit code is nonzero.

obs inspects schema-4 observability snapshots (bare ObsSnapshot JSON or
the --obs-json arrays of table1/engine_perf). inspect pretty-prints
counters, histograms, the causal critical path, and an ASCII timeline
sparkline. diff compares two files field-by-field: runtime.* (and any
--tolerance path) may differ, every other field must match byte-for-byte
— an exact mismatch exits nonzero. timeline dumps the windowed series.
";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError(format!("expected --flag, got {:?}", args[i])))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError(format!("flag --{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| CliError(format!("missing required flag --{key}")))
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), CliError> {
    if let Some(path) = flags.get("scenario") {
        return cmd_run_scenario(path);
    }
    let graph = parse_graph(required(flags, "graph")?)?;
    let n = graph.n();
    let schedule = parse_schedule(required(flags, "wake")?, n)?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| {
        s.parse()
            .map_err(|_| CliError(format!("invalid seed {s:?}")))
    })?;
    let mut delays = parse_delays(flags.get("delays").map_or("unit", String::as_str))?;
    let summary = execute(
        required(flags, "algo")?,
        graph,
        &schedule,
        seed,
        delays.as_mut(),
    )?;
    print!("{summary}");
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let sizes: Vec<usize> = required(flags, "sizes")?
        .split(',')
        .map(|s| {
            s.parse()
                .map_err(|_| CliError(format!("invalid size {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| {
        s.parse()
            .map_err(|_| CliError(format!("invalid seed {s:?}")))
    })?;
    println!(
        "{:>7} {:>10} {:>10} {:>10}",
        "n", "messages", "time", "adv max"
    );
    for s in sweep(
        required(flags, "algo")?,
        required(flags, "family")?,
        &sizes,
        seed,
    )? {
        println!(
            "{:>7} {:>10} {:>10.1} {:>10}",
            s.n,
            s.messages,
            s.time,
            s.advice.map_or("-".to_string(), |(max, _)| max.to_string())
        );
    }
    Ok(())
}

fn cmd_trials(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let graph = parse_graph(required(flags, "graph")?)?;
    let schedule = parse_schedule(required(flags, "wake")?, graph.n())?;
    let count: usize = required(flags, "count")?
        .parse()
        .map_err(|_| CliError("invalid trial count".into()))?;
    let seed: u64 = flags.get("seed").map_or(Ok(7), |s| {
        s.parse()
            .map_err(|_| CliError(format!("invalid seed {s:?}")))
    })?;
    let t = run_trials(required(flags, "algo")?, graph, &schedule, seed, count)?;
    println!("trials    : {}", t.trials);
    println!("successes : {}", t.successes);
    println!(
        "messages  : mean {:.1}, worst {}",
        t.mean_messages, t.max_messages
    );
    println!("time      : worst {:.1}", t.max_time);
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let graph = parse_graph(required(flags, "graph")?)?;
    print!("{}", graph_info(&graph));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("sweep") => parse_flags(&args[1..]).and_then(|f| cmd_sweep(&f)),
        Some("trials") => parse_flags(&args[1..]).and_then(|f| cmd_trials(&f)),
        Some("info") => parse_flags(&args[1..]).and_then(|f| cmd_info(&f)),
        Some("bake") => {
            // `--verify` is valueless; extract it before the `--key value`
            // pair parser sees the rest.
            let mut rest: Vec<String> = args[1..].to_vec();
            let verify = rest.iter().any(|a| a == "--verify");
            rest.retain(|a| a != "--verify");
            parse_flags(&rest).and_then(|f| cmd_bake(&f, verify))
        }
        Some("fuzz") => parse_flags(&args[1..]).and_then(|f| cmd_fuzz(&f)),
        // `obs` takes positional file paths; it parses its own args.
        Some("obs") => cmd_obs(&args[1..]),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(CliError(format!(
            "unknown command {other:?}; see `wakeup help`"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
