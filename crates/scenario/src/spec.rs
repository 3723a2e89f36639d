//! The versioned scenario spec: schema, typed validation errors, strict
//! lossless parsing, and byte-stable canonical serialization.
//!
//! A spec pins one complete workload: graph family + parameters, wake
//! schedule, delay strategy (with its τ cap), protocol (including the
//! advice budget knob, Theorem 6's `k`), and engine options (seed, shard
//! count, audit eligibility). Every field is validated with a typed
//! [`SpecError`]; unknown fields are rejected so a typo can never silently
//! change a workload. `parse` then [`ScenarioSpec::to_canonical_json`] is
//! the identity on canonical input — the property the checked-in corpus
//! and its byte-stability tests rely on.

use std::fmt;

use crate::json::{self, Value};
use wakeup_sim::TICKS_PER_UNIT;

/// The only spec version this crate reads or writes.
pub const SPEC_VERSION: u64 = 1;

/// Largest node count a spec may describe: an input cap that keeps a
/// hand-written or fuzzed spec from requesting an arbitrarily large build.
/// Anything bigger belongs in `engine_perf`, not a declarative scenario.
pub const MAX_NODES: usize = 1 << 20;

/// Seeds and salts must be exactly representable through the JSON `f64`
/// carrier, so specs cap them at 2³².
pub const MAX_SEED: u64 = u32::MAX as u64;

/// A typed spec failure. Every variant names the JSON path it happened at,
/// so a hand-edited corpus file fails with an actionable message.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json {
        /// Byte offset of the syntax error.
        offset: usize,
        /// Parser detail.
        detail: String,
    },
    /// The top-level `version` is not [`SPEC_VERSION`].
    UnsupportedVersion {
        /// The version the document declared.
        found: u64,
    },
    /// An object carries a key the schema does not define.
    UnknownField {
        /// JSON path of the object.
        at: String,
        /// The offending key.
        field: String,
    },
    /// A required key is absent.
    MissingField {
        /// JSON path of the object.
        at: String,
        /// The absent key.
        field: String,
    },
    /// A value has the wrong JSON type or is not exactly representable.
    WrongType {
        /// JSON path of the value.
        at: String,
        /// What the schema expects there.
        expected: &'static str,
    },
    /// A tag string is not one of the allowed variants.
    UnknownVariant {
        /// JSON path of the tag.
        at: String,
        /// The value found.
        value: String,
        /// The allowed variants.
        allowed: &'static str,
    },
    /// A value is outside its validated range.
    OutOfRange {
        /// JSON path of the value.
        at: String,
        /// The violated constraint.
        detail: String,
    },
    /// Two valid fields contradict each other.
    Incompatible {
        /// Description of the clash.
        detail: String,
    },
    /// A file could not be read.
    Io {
        /// The path involved.
        path: String,
        /// OS-level detail.
        detail: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json { offset, detail } => {
                write!(f, "invalid JSON at byte {offset}: {detail}")
            }
            SpecError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported spec version {found} (this build reads version {SPEC_VERSION})"
                )
            }
            SpecError::UnknownField { at, field } => write!(f, "{at}: unknown field {field:?}"),
            SpecError::MissingField { at, field } => {
                write!(f, "{at}: missing required field {field:?}")
            }
            SpecError::WrongType { at, expected } => write!(f, "{at}: expected {expected}"),
            SpecError::UnknownVariant { at, value, allowed } => {
                write!(f, "{at}: unknown variant {value:?} (allowed: {allowed})")
            }
            SpecError::OutOfRange { at, detail } => write!(f, "{at}: {detail}"),
            SpecError::Incompatible { detail } => write!(f, "incompatible spec: {detail}"),
            SpecError::Io { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Short kebab-case identifier.
    pub name: String,
    /// Graph family and parameters.
    pub graph: GraphSpec,
    /// The protocol under test (fixes the knowledge mode).
    pub protocol: ProtocolSpec,
    /// The adversary's wake schedule.
    pub wake: WakeSpec,
    /// The adversary's delay strategy (async protocols only).
    pub delays: DelaySpec,
    /// Engine options.
    pub engine: EngineSpec,
    /// Optional presentation block used by the report binaries.
    pub report: Option<ReportSpec>,
}

/// Graph family + parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// The benchmark's standard sparse workload:
    /// `erdos_renyi_connected(n, 8/n, seed)`.
    Sparse {
        /// Node count (≥ 8 so the edge probability stays ≤ 1).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// A connected Erdős–Rényi sample with explicit edge probability.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability in `(0, 1]`.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A non-wrapping rows × cols grid.
    Grid {
        /// Grid rows (≥ 2).
        rows: usize,
        /// Grid columns (≥ 2).
        cols: usize,
    },
    /// A wrapping rows × cols torus (4-regular).
    Torus {
        /// Torus rows (≥ 3).
        rows: usize,
        /// Torus columns (≥ 3).
        cols: usize,
    },
    /// A preferential-attachment power-law family instance.
    PowerLaw {
        /// Node count.
        n: usize,
        /// Edges attached per arriving node.
        attach: usize,
        /// Generator seed.
        seed: u64,
    },
    /// The lower-bound class 𝒢 instance with the given parameter (3 ×
    /// parameter nodes).
    ClassG {
        /// Section size (|U| = |V| = |W|).
        parameter: usize,
    },
}

impl GraphSpec {
    /// The node count the family parameters determine.
    pub fn node_count(&self) -> usize {
        match *self {
            GraphSpec::Sparse { n, .. }
            | GraphSpec::Complete { n }
            | GraphSpec::Gnp { n, .. }
            | GraphSpec::PowerLaw { n, .. } => n,
            GraphSpec::Grid { rows, cols } | GraphSpec::Torus { rows, cols } => rows * cols,
            GraphSpec::ClassG { parameter } => 3 * parameter,
        }
    }
}

/// The protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Baseline asynchronous flooding (KT0).
    Flooding,
    /// Theorem 3's DFS-rank token walk (KT1).
    DfsRank,
    /// Theorem 4's synchronous FastWakeUp (KT1).
    FastWakeUp,
    /// Synchronous set gossip (KT1).
    Gossip,
    /// Needle-in-haystack flooding on class 𝒢 (KT0).
    Nih,
    /// \[FIP06\]/Corollary 1 BFS-tree advice scheme (KT0 CONGEST).
    Cor1,
    /// Theorem 5(A) threshold advice scheme (KT0 CONGEST).
    Thm5a,
    /// Theorem 5(B) child-encoding advice scheme (KT0 CONGEST).
    Thm5b,
    /// Theorem 6 spanner advice scheme at stretch parameter `k`.
    Thm6 {
        /// The advice-budget knob (spanner stretch parameter).
        k: usize,
    },
    /// Corollary 2: the spanner scheme at `k = ⌈log₂ n⌉`.
    Cor2,
}

impl ProtocolSpec {
    /// Whether the protocol runs on the synchronous engine (delay
    /// strategies then do not apply).
    pub fn is_sync(&self) -> bool {
        matches!(self, ProtocolSpec::FastWakeUp | ProtocolSpec::Gossip)
    }

    /// Whether the protocol consumes oracle advice (Section 4 schemes).
    pub fn is_scheme(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::Cor1
                | ProtocolSpec::Thm5a
                | ProtocolSpec::Thm5b
                | ProtocolSpec::Thm6 { .. }
                | ProtocolSpec::Cor2
        )
    }

    /// The knowledge mode the protocol is defined for.
    pub fn knowledge_mode(&self) -> wakeup_sim::KnowledgeMode {
        match self {
            ProtocolSpec::DfsRank | ProtocolSpec::FastWakeUp | ProtocolSpec::Gossip => {
                wakeup_sim::KnowledgeMode::Kt1
            }
            _ => wakeup_sim::KnowledgeMode::Kt0,
        }
    }

    /// The JSON `kind` tag this protocol serializes under (also the
    /// human-readable protocol name the CLI prints).
    pub fn kind_tag(&self) -> &'static str {
        match self {
            ProtocolSpec::Flooding => "flooding",
            ProtocolSpec::DfsRank => "dfs-rank",
            ProtocolSpec::FastWakeUp => "fast-wakeup",
            ProtocolSpec::Gossip => "gossip",
            ProtocolSpec::Nih => "nih",
            ProtocolSpec::Cor1 => "cor1",
            ProtocolSpec::Thm5a => "thm5a",
            ProtocolSpec::Thm5b => "thm5b",
            ProtocolSpec::Thm6 { .. } => "thm6",
            ProtocolSpec::Cor2 => "cor2",
        }
    }
}

/// The adversary's wake schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum WakeSpec {
    /// One node wakes at time 0.
    Single {
        /// The woken node.
        node: usize,
    },
    /// Every node wakes at time 0.
    All,
    /// Nodes `0..n` wake `gap` time units apart.
    Staggered {
        /// Gap between consecutive wakes, in τ units.
        gap: f64,
    },
    /// An explicit `(node, time)` list, times non-decreasing.
    Pairs {
        /// The wake events.
        pairs: Vec<(usize, f64)>,
    },
    /// The class-𝒢 center nodes wake at time 0 (class-g graphs only).
    Centers,
}

/// The adversary's delay strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum DelaySpec {
    /// Every message takes exactly τ.
    Unit,
    /// Seeded uniform delays.
    Random {
        /// Strategy seed.
        seed: u64,
    },
    /// The deterministic worst-case-flavored strategy.
    Adversarial {
        /// Strategy salt.
        salt: u64,
    },
    /// Alternating fast/slow delays that stress FIFO restoration.
    FifoWorst,
    /// An inner strategy clamped to `tau_ticks`.
    Capped {
        /// The wrapped strategy (must not itself be `Capped`).
        inner: Box<DelaySpec>,
        /// The cap in ticks, `1..=TICKS_PER_UNIT`.
        tau_ticks: u64,
    },
}

impl DelaySpec {
    /// The effective τ cap in ticks (`TICKS_PER_UNIT` unless capped).
    pub fn max_delay_ticks(&self) -> u64 {
        match self {
            DelaySpec::Capped { tau_ticks, .. } => *tau_ticks,
            _ => TICKS_PER_UNIT,
        }
    }
}

/// Engine options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSpec {
    /// Engine seed (node randomness).
    pub seed: u64,
    /// Intra-run shard count, `1..=`[`wakeup_sim::MAX_SHARDS`].
    pub shards: usize,
    /// Whether conformance runs may attach the audit recorder.
    pub audit: bool,
}

/// Presentation strings for the report binaries (`table1`, `experiments`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSpec {
    /// Table 1 row label.
    pub label: String,
    /// Table 1 claimed-bounds string.
    pub claim: String,
    /// `experiments` section title.
    pub experiments_title: String,
    /// `experiments` claim line.
    pub experiments_claim: String,
    /// The n-sweep sizes.
    pub sizes: Vec<usize>,
    /// Opt-in obs timeline window spacing for report runs (`None` = the
    /// engine default, log-spaced).
    pub obs: Option<ObsWindowSpec>,
}

/// Window spacing of the schema-4 obs timeline, mirrored onto
/// [`wakeup_sim::WindowCfg`] by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsWindowSpec {
    /// Log-spaced windows: window `w` covers ticks `[2^w − 1, 2^(w+1) − 1)`.
    Log2,
    /// Fixed-width windows of `width` ticks each (capped at 4096 windows by
    /// the recorder).
    Linear {
        /// Window width in ticks, `1..=2^32`.
        width: u64,
    },
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A helper that consumes known fields from one object and rejects leftovers.
struct Fields {
    at: String,
    fields: Vec<(String, Value)>,
}

impl Fields {
    fn new(at: &str, value: &Value) -> Result<Fields, SpecError> {
        match value {
            Value::Obj(fields) => Ok(Fields {
                at: at.to_string(),
                fields: fields.clone(),
            }),
            _ => Err(SpecError::WrongType {
                at: at.to_string(),
                expected: "an object",
            }),
        }
    }

    fn take(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    fn require(&mut self, key: &str) -> Result<Value, SpecError> {
        self.take(key).ok_or_else(|| SpecError::MissingField {
            at: self.at.clone(),
            field: key.to_string(),
        })
    }

    fn finish(self) -> Result<(), SpecError> {
        match self.fields.into_iter().next() {
            Some((field, _)) => Err(SpecError::UnknownField { at: self.at, field }),
            None => Ok(()),
        }
    }

    fn path(&self, key: &str) -> String {
        format!("{}.{}", self.at, key)
    }
}

fn as_uint(at: &str, value: &Value, max: u64) -> Result<u64, SpecError> {
    match value {
        Value::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= max as f64 => Ok(*x as u64),
        Value::Num(_) => Err(SpecError::OutOfRange {
            at: at.to_string(),
            detail: format!("must be an integer in 0..={max}"),
        }),
        _ => Err(SpecError::WrongType {
            at: at.to_string(),
            expected: "a non-negative integer",
        }),
    }
}

fn as_f64(at: &str, value: &Value) -> Result<f64, SpecError> {
    match value {
        Value::Num(x) => Ok(*x),
        _ => Err(SpecError::WrongType {
            at: at.to_string(),
            expected: "a number",
        }),
    }
}

fn as_str(at: &str, value: &Value) -> Result<String, SpecError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(SpecError::WrongType {
            at: at.to_string(),
            expected: "a string",
        }),
    }
}

fn as_bool(at: &str, value: &Value) -> Result<bool, SpecError> {
    match value {
        Value::Bool(b) => Ok(*b),
        _ => Err(SpecError::WrongType {
            at: at.to_string(),
            expected: "a boolean",
        }),
    }
}

impl ScenarioSpec {
    /// Parses and validates a spec document.
    pub fn parse(input: &str) -> Result<ScenarioSpec, SpecError> {
        let value = json::parse(input).map_err(|e| SpecError::Json {
            offset: e.offset,
            detail: e.detail,
        })?;
        let spec = Self::from_value(&value)?;
        spec.validate()?;
        Ok(spec)
    }

    fn from_value(value: &Value) -> Result<ScenarioSpec, SpecError> {
        let mut top = Fields::new("$", value)?;
        let version = as_uint(&top.path("version"), &top.require("version")?, u64::MAX)?;
        if version != SPEC_VERSION {
            return Err(SpecError::UnsupportedVersion { found: version });
        }
        let name = as_str(&top.path("name"), &top.require("name")?)?;
        let graph = parse_graph(&top.path("graph"), &top.require("graph")?)?;
        let protocol = parse_protocol(&top.path("protocol"), &top.require("protocol")?)?;
        let wake = parse_wake(&top.path("wake"), &top.require("wake")?)?;
        let delays = parse_delays(&top.path("delays"), &top.require("delays")?)?;
        let engine = parse_engine(&top.path("engine"), &top.require("engine")?)?;
        let report = match top.take("report") {
            Some(v) => Some(parse_report(&top.path("report"), &v)?),
            None => None,
        };
        top.finish()?;
        Ok(ScenarioSpec {
            name,
            graph,
            protocol,
            wake,
            delays,
            engine,
            report,
        })
    }

    /// Re-checks every cross-field invariant. `parse` calls this; generated
    /// and programmatically edited specs should call it too.
    pub fn validate(&self) -> Result<(), SpecError> {
        let name_ok = !self.name.is_empty()
            && self.name.len() <= 64
            && self
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if !name_ok {
            return Err(SpecError::OutOfRange {
                at: "$.name".into(),
                detail: "must be 1..=64 chars of [a-z0-9-]".into(),
            });
        }
        validate_graph(&self.graph)?;
        let n = self.graph.node_count();
        validate_wake(&self.wake, n)?;
        validate_delays(&self.delays)?;
        if let ProtocolSpec::Thm6 { k } = self.protocol {
            if !(2..=8).contains(&k) {
                return Err(SpecError::OutOfRange {
                    at: "$.protocol.k".into(),
                    detail: "k must be in 2..=8".into(),
                });
            }
        }
        if self.protocol.is_sync() && self.delays != DelaySpec::Unit {
            return Err(SpecError::Incompatible {
                detail: format!(
                    "protocol {:?} is synchronous; delays must be {{\"kind\": \"unit\"}}",
                    self.protocol
                ),
            });
        }
        if self.protocol == ProtocolSpec::Nih && !matches!(self.graph, GraphSpec::ClassG { .. }) {
            return Err(SpecError::Incompatible {
                detail: "protocol \"nih\" requires the \"class-g\" graph family".into(),
            });
        }
        if self.wake == WakeSpec::Centers && !matches!(self.graph, GraphSpec::ClassG { .. }) {
            return Err(SpecError::Incompatible {
                detail: "wake \"centers\" requires the \"class-g\" graph family".into(),
            });
        }
        if !(1..=wakeup_sim::MAX_SHARDS).contains(&self.engine.shards) {
            return Err(SpecError::OutOfRange {
                at: "$.engine.shards".into(),
                detail: format!("must be in 1..={}", wakeup_sim::MAX_SHARDS),
            });
        }
        if let Some(report) = &self.report {
            if report.sizes.is_empty() {
                return Err(SpecError::OutOfRange {
                    at: "$.report.sizes".into(),
                    detail: "must list at least one size".into(),
                });
            }
            for &s in &report.sizes {
                if !(2..=MAX_NODES).contains(&s) {
                    return Err(SpecError::OutOfRange {
                        at: "$.report.sizes".into(),
                        detail: format!("size {s} outside 2..={MAX_NODES}"),
                    });
                }
            }
            if report.obs == Some(ObsWindowSpec::Linear { width: 0 }) {
                return Err(SpecError::OutOfRange {
                    at: "$.report.obs.width".into(),
                    detail: "linear window width must be at least 1 tick".into(),
                });
            }
        }
        Ok(())
    }

    /// Builds the canonical byte form (schema key order, two-space pretty
    /// layout, trailing newline). `parse(to_canonical_json())` returns an
    /// equal spec, and re-serializing that spec reproduces the same bytes.
    pub fn to_canonical_json(&self) -> String {
        json::canonical(&self.to_value())
    }

    fn to_value(&self) -> Value {
        let mut top = vec![
            ("version".to_string(), Value::Num(SPEC_VERSION as f64)),
            ("name".to_string(), Value::Str(self.name.clone())),
            ("graph".to_string(), graph_value(&self.graph)),
            ("protocol".to_string(), protocol_value(&self.protocol)),
            ("wake".to_string(), wake_value(&self.wake)),
            ("delays".to_string(), delays_value(&self.delays)),
            ("engine".to_string(), engine_value(&self.engine)),
        ];
        if let Some(report) = &self.report {
            top.push(("report".to_string(), report_value(report)));
        }
        Value::Obj(top)
    }
}

fn parse_graph(at: &str, value: &Value) -> Result<GraphSpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let family = as_str(&f.path("family"), &f.require("family")?)?;
    let graph = match family.as_str() {
        "sparse" => GraphSpec::Sparse {
            n: as_uint(&f.path("n"), &f.require("n")?, MAX_NODES as u64)? as usize,
            seed: as_uint(&f.path("seed"), &f.require("seed")?, MAX_SEED)?,
        },
        "complete" => GraphSpec::Complete {
            n: as_uint(&f.path("n"), &f.require("n")?, MAX_NODES as u64)? as usize,
        },
        "gnp" => GraphSpec::Gnp {
            n: as_uint(&f.path("n"), &f.require("n")?, MAX_NODES as u64)? as usize,
            p: as_f64(&f.path("p"), &f.require("p")?)?,
            seed: as_uint(&f.path("seed"), &f.require("seed")?, MAX_SEED)?,
        },
        "grid" => GraphSpec::Grid {
            rows: as_uint(&f.path("rows"), &f.require("rows")?, MAX_NODES as u64)? as usize,
            cols: as_uint(&f.path("cols"), &f.require("cols")?, MAX_NODES as u64)? as usize,
        },
        "torus" => GraphSpec::Torus {
            rows: as_uint(&f.path("rows"), &f.require("rows")?, MAX_NODES as u64)? as usize,
            cols: as_uint(&f.path("cols"), &f.require("cols")?, MAX_NODES as u64)? as usize,
        },
        "power-law" => GraphSpec::PowerLaw {
            n: as_uint(&f.path("n"), &f.require("n")?, MAX_NODES as u64)? as usize,
            attach: as_uint(&f.path("attach"), &f.require("attach")?, MAX_NODES as u64)? as usize,
            seed: as_uint(&f.path("seed"), &f.require("seed")?, MAX_SEED)?,
        },
        "class-g" => GraphSpec::ClassG {
            parameter: as_uint(&f.path("parameter"), &f.require("parameter")?, 1 << 10)? as usize,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                at: f.path("family"),
                value: other.to_string(),
                allowed: "sparse, complete, gnp, grid, torus, power-law, class-g",
            })
        }
    };
    f.finish()?;
    Ok(graph)
}

fn validate_graph(graph: &GraphSpec) -> Result<(), SpecError> {
    let range = |at: &str, v: usize, lo: usize, hi: usize, what: &str| {
        if (lo..=hi).contains(&v) {
            Ok(())
        } else {
            Err(SpecError::OutOfRange {
                at: at.to_string(),
                detail: format!("{what} must be in {lo}..={hi}, got {v}"),
            })
        }
    };
    match *graph {
        GraphSpec::Sparse { n, .. } => range("$.graph.n", n, 8, MAX_NODES, "sparse n")?,
        GraphSpec::Complete { n } => range("$.graph.n", n, 2, 4096, "complete n")?,
        GraphSpec::Gnp { n, p, .. } => {
            range("$.graph.n", n, 2, MAX_NODES, "gnp n")?;
            if !(p > 0.0 && p <= 1.0 && p.is_finite()) {
                return Err(SpecError::OutOfRange {
                    at: "$.graph.p".into(),
                    detail: format!("p must be in (0, 1], got {p}"),
                });
            }
            if p * (n as f64 - 1.0) < 2.0 {
                return Err(SpecError::OutOfRange {
                    at: "$.graph.p".into(),
                    detail: "p(n-1) < 2: too sparse for the connected sampler".into(),
                });
            }
        }
        GraphSpec::Grid { rows, cols } => {
            range("$.graph.rows", rows, 2, MAX_NODES, "grid rows")?;
            range("$.graph.cols", cols, 2, MAX_NODES, "grid cols")?;
            range("$.graph.rows", rows * cols, 4, MAX_NODES, "grid nodes")?;
        }
        GraphSpec::Torus { rows, cols } => {
            range("$.graph.rows", rows, 3, MAX_NODES, "torus rows")?;
            range("$.graph.cols", cols, 3, MAX_NODES, "torus cols")?;
            range("$.graph.rows", rows * cols, 9, MAX_NODES, "torus nodes")?;
        }
        GraphSpec::PowerLaw { n, attach, .. } => {
            range("$.graph.attach", attach, 1, 64, "power-law attach")?;
            range("$.graph.n", n, attach + 2, MAX_NODES, "power-law n")?;
        }
        GraphSpec::ClassG { parameter } => {
            range("$.graph.parameter", parameter, 1, 128, "class-g parameter")?
        }
    }
    Ok(())
}

fn graph_value(graph: &GraphSpec) -> Value {
    let num = |x: usize| Value::Num(x as f64);
    let seed = |s: u64| Value::Num(s as f64);
    let fields = match graph {
        GraphSpec::Sparse { n, seed: s } => vec![
            ("family".into(), Value::Str("sparse".into())),
            ("n".into(), num(*n)),
            ("seed".into(), seed(*s)),
        ],
        GraphSpec::Complete { n } => vec![
            ("family".into(), Value::Str("complete".into())),
            ("n".into(), num(*n)),
        ],
        GraphSpec::Gnp { n, p, seed: s } => vec![
            ("family".into(), Value::Str("gnp".into())),
            ("n".into(), num(*n)),
            ("p".into(), Value::Num(*p)),
            ("seed".into(), seed(*s)),
        ],
        GraphSpec::Grid { rows, cols } => vec![
            ("family".into(), Value::Str("grid".into())),
            ("rows".into(), num(*rows)),
            ("cols".into(), num(*cols)),
        ],
        GraphSpec::Torus { rows, cols } => vec![
            ("family".into(), Value::Str("torus".into())),
            ("rows".into(), num(*rows)),
            ("cols".into(), num(*cols)),
        ],
        GraphSpec::PowerLaw { n, attach, seed: s } => vec![
            ("family".into(), Value::Str("power-law".into())),
            ("n".into(), num(*n)),
            ("attach".into(), num(*attach)),
            ("seed".into(), seed(*s)),
        ],
        GraphSpec::ClassG { parameter } => vec![
            ("family".into(), Value::Str("class-g".into())),
            ("parameter".into(), num(*parameter)),
        ],
    };
    Value::Obj(fields)
}

fn parse_protocol(at: &str, value: &Value) -> Result<ProtocolSpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let kind = as_str(&f.path("kind"), &f.require("kind")?)?;
    let protocol =
        match kind.as_str() {
            "flooding" => ProtocolSpec::Flooding,
            "dfs-rank" => ProtocolSpec::DfsRank,
            "fast-wakeup" => ProtocolSpec::FastWakeUp,
            "gossip" => ProtocolSpec::Gossip,
            "nih" => ProtocolSpec::Nih,
            "cor1" => ProtocolSpec::Cor1,
            "thm5a" => ProtocolSpec::Thm5a,
            "thm5b" => ProtocolSpec::Thm5b,
            "thm6" => ProtocolSpec::Thm6 {
                k: as_uint(&f.path("k"), &f.require("k")?, 64)? as usize,
            },
            "cor2" => ProtocolSpec::Cor2,
            other => return Err(SpecError::UnknownVariant {
                at: f.path("kind"),
                value: other.to_string(),
                allowed:
                    "flooding, dfs-rank, fast-wakeup, gossip, nih, cor1, thm5a, thm5b, thm6, cor2",
            }),
        };
    f.finish()?;
    Ok(protocol)
}

fn protocol_value(protocol: &ProtocolSpec) -> Value {
    let mut fields = vec![(
        "kind".to_string(),
        Value::Str(protocol.kind_tag().to_string()),
    )];
    if let ProtocolSpec::Thm6 { k } = protocol {
        fields.push(("k".into(), Value::Num(*k as f64)));
    }
    Value::Obj(fields)
}

fn parse_wake(at: &str, value: &Value) -> Result<WakeSpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let kind = as_str(&f.path("kind"), &f.require("kind")?)?;
    let wake = match kind.as_str() {
        "single" => WakeSpec::Single {
            node: as_uint(&f.path("node"), &f.require("node")?, MAX_NODES as u64)? as usize,
        },
        "all" => WakeSpec::All,
        "staggered" => WakeSpec::Staggered {
            gap: as_f64(&f.path("gap"), &f.require("gap")?)?,
        },
        "pairs" => {
            let raw = f.require("pairs")?;
            let Value::Arr(items) = raw else {
                return Err(SpecError::WrongType {
                    at: f.path("pairs"),
                    expected: "an array of [node, time] pairs",
                });
            };
            let mut pairs = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let at = format!("{}[{}]", f.path("pairs"), i);
                let Value::Arr(pair) = item else {
                    return Err(SpecError::WrongType {
                        at,
                        expected: "a [node, time] pair",
                    });
                };
                if pair.len() != 2 {
                    return Err(SpecError::WrongType {
                        at,
                        expected: "a [node, time] pair",
                    });
                }
                let node = as_uint(&format!("{at}[0]"), &pair[0], MAX_NODES as u64)? as usize;
                let time = as_f64(&format!("{at}[1]"), &pair[1])?;
                pairs.push((node, time));
            }
            WakeSpec::Pairs { pairs }
        }
        "centers" => WakeSpec::Centers,
        other => {
            return Err(SpecError::UnknownVariant {
                at: f.path("kind"),
                value: other.to_string(),
                allowed: "single, all, staggered, pairs, centers",
            })
        }
    };
    f.finish()?;
    Ok(wake)
}

fn validate_wake(wake: &WakeSpec, n: usize) -> Result<(), SpecError> {
    match wake {
        WakeSpec::Single { node } => {
            if *node >= n {
                return Err(SpecError::OutOfRange {
                    at: "$.wake.node".into(),
                    detail: format!("node {node} outside 0..{n}"),
                });
            }
        }
        WakeSpec::All | WakeSpec::Centers => {}
        WakeSpec::Staggered { gap } => {
            if !gap.is_finite() || *gap <= 0.0 || *gap > 1e6 {
                return Err(SpecError::OutOfRange {
                    at: "$.wake.gap".into(),
                    detail: format!("gap must be in (0, 1e6], got {gap}"),
                });
            }
        }
        WakeSpec::Pairs { pairs } => {
            if pairs.is_empty() {
                return Err(SpecError::OutOfRange {
                    at: "$.wake.pairs".into(),
                    detail: "must list at least one wake event".into(),
                });
            }
            let mut last = 0.0f64;
            for (i, (node, time)) in pairs.iter().enumerate() {
                let at = format!("$.wake.pairs[{i}]");
                if *node >= n {
                    return Err(SpecError::OutOfRange {
                        at,
                        detail: format!("node {node} outside 0..{n}"),
                    });
                }
                if !time.is_finite() || *time < 0.0 || *time > 1e6 {
                    return Err(SpecError::OutOfRange {
                        at,
                        detail: format!("time must be in [0, 1e6], got {time}"),
                    });
                }
                if *time < last {
                    return Err(SpecError::OutOfRange {
                        at,
                        detail: "wake times must be non-decreasing".into(),
                    });
                }
                last = *time;
            }
        }
    }
    Ok(())
}

fn wake_value(wake: &WakeSpec) -> Value {
    let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
    let fields = match wake {
        WakeSpec::Single { node } => {
            vec![kind("single"), ("node".into(), Value::Num(*node as f64))]
        }
        WakeSpec::All => vec![kind("all")],
        WakeSpec::Staggered { gap } => vec![kind("staggered"), ("gap".into(), Value::Num(*gap))],
        WakeSpec::Pairs { pairs } => vec![
            kind("pairs"),
            (
                "pairs".into(),
                Value::Arr(
                    pairs
                        .iter()
                        .map(|&(node, time)| {
                            Value::Arr(vec![Value::Num(node as f64), Value::Num(time)])
                        })
                        .collect(),
                ),
            ),
        ],
        WakeSpec::Centers => vec![kind("centers")],
    };
    Value::Obj(fields)
}

fn parse_delays(at: &str, value: &Value) -> Result<DelaySpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let kind = as_str(&f.path("kind"), &f.require("kind")?)?;
    let delays = match kind.as_str() {
        "unit" => DelaySpec::Unit,
        "random" => DelaySpec::Random {
            seed: as_uint(&f.path("seed"), &f.require("seed")?, MAX_SEED)?,
        },
        "adversarial" => DelaySpec::Adversarial {
            salt: as_uint(&f.path("salt"), &f.require("salt")?, MAX_SEED)?,
        },
        "fifo-worst" => DelaySpec::FifoWorst,
        "capped" => DelaySpec::Capped {
            inner: Box::new(parse_delays(&f.path("inner"), &f.require("inner")?)?),
            tau_ticks: as_uint(&f.path("tau_ticks"), &f.require("tau_ticks")?, u64::MAX)?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                at: f.path("kind"),
                value: other.to_string(),
                allowed: "unit, random, adversarial, fifo-worst, capped",
            })
        }
    };
    f.finish()?;
    Ok(delays)
}

fn validate_delays(delays: &DelaySpec) -> Result<(), SpecError> {
    if let DelaySpec::Capped { inner, tau_ticks } = delays {
        if !(1..=TICKS_PER_UNIT).contains(tau_ticks) {
            return Err(SpecError::OutOfRange {
                at: "$.delays.tau_ticks".into(),
                detail: format!("must be in 1..={TICKS_PER_UNIT}"),
            });
        }
        if matches!(**inner, DelaySpec::Capped { .. }) {
            return Err(SpecError::Incompatible {
                detail: "capped delays cannot nest".into(),
            });
        }
    }
    Ok(())
}

fn delays_value(delays: &DelaySpec) -> Value {
    let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
    let fields = match delays {
        DelaySpec::Unit => vec![kind("unit")],
        DelaySpec::Random { seed } => {
            vec![kind("random"), ("seed".into(), Value::Num(*seed as f64))]
        }
        DelaySpec::Adversarial { salt } => {
            vec![
                kind("adversarial"),
                ("salt".into(), Value::Num(*salt as f64)),
            ]
        }
        DelaySpec::FifoWorst => vec![kind("fifo-worst")],
        DelaySpec::Capped { inner, tau_ticks } => vec![
            kind("capped"),
            ("inner".into(), delays_value(inner)),
            ("tau_ticks".into(), Value::Num(*tau_ticks as f64)),
        ],
    };
    Value::Obj(fields)
}

fn parse_engine(at: &str, value: &Value) -> Result<EngineSpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let engine = EngineSpec {
        seed: as_uint(&f.path("seed"), &f.require("seed")?, MAX_SEED)?,
        shards: as_uint(&f.path("shards"), &f.require("shards")?, 1 << 20)? as usize,
        audit: as_bool(&f.path("audit"), &f.require("audit")?)?,
    };
    f.finish()?;
    Ok(engine)
}

fn engine_value(engine: &EngineSpec) -> Value {
    Value::Obj(vec![
        ("seed".into(), Value::Num(engine.seed as f64)),
        ("shards".into(), Value::Num(engine.shards as f64)),
        ("audit".into(), Value::Bool(engine.audit)),
    ])
}

fn parse_report(at: &str, value: &Value) -> Result<ReportSpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let label = as_str(&f.path("label"), &f.require("label")?)?;
    let claim = as_str(&f.path("claim"), &f.require("claim")?)?;
    let experiments_title = as_str(
        &f.path("experiments_title"),
        &f.require("experiments_title")?,
    )?;
    let experiments_claim = as_str(
        &f.path("experiments_claim"),
        &f.require("experiments_claim")?,
    )?;
    let raw_sizes = f.require("sizes")?;
    let Value::Arr(items) = raw_sizes else {
        return Err(SpecError::WrongType {
            at: f.path("sizes"),
            expected: "an array of sizes",
        });
    };
    let mut sizes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        sizes.push(as_uint(
            &format!("{}[{}]", f.path("sizes"), i),
            item,
            MAX_NODES as u64,
        )? as usize);
    }
    let obs = match f.take("obs") {
        Some(v) => Some(parse_obs_windows(&f.path("obs"), &v)?),
        None => None,
    };
    f.finish()?;
    Ok(ReportSpec {
        label,
        claim,
        experiments_title,
        experiments_claim,
        sizes,
        obs,
    })
}

fn parse_obs_windows(at: &str, value: &Value) -> Result<ObsWindowSpec, SpecError> {
    let mut f = Fields::new(at, value)?;
    let mode = as_str(&f.path("mode"), &f.require("mode")?)?;
    let spec = match mode.as_str() {
        "log2" => ObsWindowSpec::Log2,
        "linear" => ObsWindowSpec::Linear {
            // 2^32 keeps the width exactly representable through the f64
            // carrier, like seeds.
            width: as_uint(&f.path("width"), &f.require("width")?, 1 << 32)?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                at: f.path("mode"),
                value: other.to_string(),
                allowed: "log2, linear",
            })
        }
    };
    f.finish()?;
    Ok(spec)
}

fn report_value(report: &ReportSpec) -> Value {
    let mut out = vec![
        ("label".into(), Value::Str(report.label.clone())),
        ("claim".into(), Value::Str(report.claim.clone())),
        (
            "experiments_title".into(),
            Value::Str(report.experiments_title.clone()),
        ),
        (
            "experiments_claim".into(),
            Value::Str(report.experiments_claim.clone()),
        ),
        (
            "sizes".into(),
            Value::Arr(report.sizes.iter().map(|&s| Value::Num(s as f64)).collect()),
        ),
    ];
    if let Some(obs) = &report.obs {
        let fields = match obs {
            ObsWindowSpec::Log2 => vec![("mode".to_string(), Value::Str("log2".into()))],
            ObsWindowSpec::Linear { width } => vec![
                ("mode".to_string(), Value::Str("linear".into())),
                ("width".to_string(), Value::Num(*width as f64)),
            ],
        };
        out.push(("obs".into(), Value::Obj(fields)));
    }
    Value::Obj(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
  "version": 1,
  "name": "flood-demo",
  "graph": {"family": "sparse", "n": 16, "seed": 7},
  "protocol": {"kind": "flooding"},
  "wake": {"kind": "single", "node": 0},
  "delays": {"kind": "unit"},
  "engine": {"seed": 7, "shards": 1, "audit": true}
}"#
        .to_string()
    }

    #[test]
    fn parses_and_round_trips() {
        let spec = ScenarioSpec::parse(&minimal()).unwrap();
        assert_eq!(spec.name, "flood-demo");
        assert_eq!(spec.graph.node_count(), 16);
        let canon = spec.to_canonical_json();
        let reparsed = ScenarioSpec::parse(&canon).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(reparsed.to_canonical_json(), canon);
    }

    #[test]
    fn rejects_unknown_fields_everywhere() {
        let doc = minimal().replace("\"shards\": 1", "\"shards\": 1, \"bogus\": 2");
        let err = ScenarioSpec::parse(&doc).unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownField {
                at: "$.engine".into(),
                field: "bogus".into()
            }
        );
        let doc = minimal().replace("\"version\": 1,", "\"version\": 1, \"extra\": null,");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::UnknownField { .. }
        ));
    }

    #[test]
    fn hostile_nesting_is_a_json_error_not_an_abort() {
        for doc in ["[".repeat(50_000), "{\"a\":".repeat(50_000)] {
            let err = ScenarioSpec::parse(&doc).unwrap_err();
            assert!(
                matches!(&err, SpecError::Json { detail, .. } if detail.contains("nesting")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_wrong_version_and_types() {
        let doc = minimal().replace("\"version\": 1", "\"version\": 2");
        assert_eq!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::UnsupportedVersion { found: 2 }
        );
        let doc = minimal().replace("\"seed\": 7, \"shards\"", "\"seed\": \"7\", \"shards\"");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::WrongType { .. }
        ));
        let doc = minimal().replace("\"n\": 16", "\"n\": 16.5");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::OutOfRange { .. }
        ));
    }

    #[test]
    fn range_and_compat_validation() {
        // Sparse n below 8 would push the edge probability above 1.
        let doc = minimal().replace("\"n\": 16", "\"n\": 4");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::OutOfRange { .. }
        ));
        // Wake node out of range.
        let doc = minimal().replace("\"node\": 0", "\"node\": 16");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::OutOfRange { .. }
        ));
        // Sync protocol with non-unit delays.
        let doc = minimal()
            .replace("\"kind\": \"flooding\"", "\"kind\": \"fast-wakeup\"")
            .replace(
                "\"delays\": {\"kind\": \"unit\"}",
                "\"delays\": {\"kind\": \"random\", \"seed\": 3}",
            );
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::Incompatible { .. }
        ));
        // Nih off class-g.
        let doc = minimal().replace("\"kind\": \"flooding\"", "\"kind\": \"nih\"");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::Incompatible { .. }
        ));
    }

    #[test]
    fn capped_delays_validate() {
        let doc = minimal().replace(
            "\"delays\": {\"kind\": \"unit\"}",
            "\"delays\": {\"kind\": \"capped\", \"inner\": {\"kind\": \"random\", \"seed\": 5}, \"tau_ticks\": 3}",
        );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert_eq!(spec.delays.max_delay_ticks(), 3);
        let doc = doc.replace("\"tau_ticks\": 3", "\"tau_ticks\": 0");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::OutOfRange { .. }
        ));
        let doc = minimal().replace(
            "\"delays\": {\"kind\": \"unit\"}",
            "\"delays\": {\"kind\": \"capped\", \"inner\": {\"kind\": \"capped\", \"inner\": {\"kind\": \"unit\"}, \"tau_ticks\": 2}, \"tau_ticks\": 3}",
        );
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::Incompatible { .. }
        ));
    }

    #[test]
    fn pairs_wake_round_trips_fractional_times() {
        let doc = minimal().replace(
            "\"wake\": {\"kind\": \"single\", \"node\": 0}",
            "\"wake\": {\"kind\": \"pairs\", \"pairs\": [[0, 0], [5, 1.25], [11, 2.5]]}",
        );
        let spec = ScenarioSpec::parse(&doc).unwrap();
        let WakeSpec::Pairs { pairs } = &spec.wake else {
            panic!("expected pairs")
        };
        assert_eq!(pairs[1], (5, 1.25));
        let canon = spec.to_canonical_json();
        assert_eq!(ScenarioSpec::parse(&canon).unwrap(), spec);
        // Non-monotone times are rejected.
        let doc = doc.replace("[5, 1.25], [11, 2.5]", "[5, 2.5], [11, 1.25]");
        assert!(matches!(
            ScenarioSpec::parse(&doc).unwrap_err(),
            SpecError::OutOfRange { .. }
        ));
    }

    /// `minimal()` with a report block whose `obs` value is the given JSON.
    fn with_report_obs(obs: &str) -> String {
        minimal().replace(
            "\"engine\": {\"seed\": 7, \"shards\": 1, \"audit\": true}",
            &format!(
                "\"engine\": {{\"seed\": 7, \"shards\": 1, \"audit\": true}},\n  \
                 \"report\": {{\"label\": \"l\", \"claim\": \"c\", \
                 \"experiments_title\": \"t\", \"experiments_claim\": \"e\", \
                 \"sizes\": [16], \"obs\": {obs}}}"
            ),
        )
    }

    #[test]
    fn report_obs_window_configs_round_trip() {
        let spec = ScenarioSpec::parse(&with_report_obs("{\"mode\": \"log2\"}")).unwrap();
        assert_eq!(spec.report.as_ref().unwrap().obs, Some(ObsWindowSpec::Log2));
        let canon = spec.to_canonical_json();
        assert_eq!(ScenarioSpec::parse(&canon).unwrap(), spec);
        assert_eq!(
            ScenarioSpec::parse(&canon).unwrap().to_canonical_json(),
            canon
        );

        let spec =
            ScenarioSpec::parse(&with_report_obs("{\"mode\": \"linear\", \"width\": 64}")).unwrap();
        assert_eq!(
            spec.report.as_ref().unwrap().obs,
            Some(ObsWindowSpec::Linear { width: 64 })
        );
        let canon = spec.to_canonical_json();
        assert_eq!(ScenarioSpec::parse(&canon).unwrap(), spec);

        // Absent obs stays absent (and the default window layout applies).
        let doc =
            with_report_obs("{\"mode\": \"log2\"}").replace(", \"obs\": {\"mode\": \"log2\"}", "");
        let spec = ScenarioSpec::parse(&doc).unwrap();
        assert_eq!(spec.report.as_ref().unwrap().obs, None);
        assert!(!spec.to_canonical_json().contains("\"obs\""));
    }

    #[test]
    fn report_obs_rejects_malformed_configs() {
        // Unknown mode.
        assert_eq!(
            ScenarioSpec::parse(&with_report_obs("{\"mode\": \"fib\"}")).unwrap_err(),
            SpecError::UnknownVariant {
                at: "$.report.obs.mode".into(),
                value: "fib".into(),
                allowed: "log2, linear",
            }
        );
        // Linear without a width.
        assert_eq!(
            ScenarioSpec::parse(&with_report_obs("{\"mode\": \"linear\"}")).unwrap_err(),
            SpecError::MissingField {
                at: "$.report.obs".into(),
                field: "width".into(),
            }
        );
        // Extra keys are rejected like everywhere else in the schema.
        assert_eq!(
            ScenarioSpec::parse(&with_report_obs("{\"mode\": \"log2\", \"stride\": 4}"))
                .unwrap_err(),
            SpecError::UnknownField {
                at: "$.report.obs".into(),
                field: "stride".into(),
            }
        );
        // Zero-width linear windows never tick over.
        assert_eq!(
            ScenarioSpec::parse(&with_report_obs("{\"mode\": \"linear\", \"width\": 0}"))
                .unwrap_err(),
            SpecError::OutOfRange {
                at: "$.report.obs.width".into(),
                detail: "linear window width must be at least 1 tick".into(),
            }
        );
        // Widths beyond 2^32 lose f64 exactness and are out of range.
        assert!(matches!(
            ScenarioSpec::parse(&with_report_obs(
                "{\"mode\": \"linear\", \"width\": 4294967297}"
            ))
            .unwrap_err(),
            SpecError::OutOfRange { .. }
        ));
    }
}
