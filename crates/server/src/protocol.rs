//! The versioned JSONL request/response protocol
//! (`smart-server/req-v1` / `smart-server/resp-v1`).
//!
//! A request is a **header line** — `{"schema":…,"id":…,"kind":…,
//! "lines":N}` — followed by exactly `N` body lines, so a stream reader
//! always knows how many lines to consume and a parse failure inside a
//! body never desynchronizes the connection. Responses are a stream of
//! self-describing event lines ending in exactly one terminal event
//! ([`ResponseEvent::Done`] or [`ResponseEvent::Error`]).
//!
//! Every line is a flat object in the workspace's one line grammar,
//! written and read with [`smart_sim::jsonl`]: fixed identifier keys,
//! restricted string grammars (job ids, design labels, workload specs),
//! numeric fields in shortest round-trip form. Parsing arbitrary input
//! returns typed [`ProtocolError`]s and never panics (property-tested).
//!
//! Each line kind declares its fields **once**, in a `wire_table!` row
//! naming every field and its codec; the row drives both the private
//! `Writer` and `Reader`, so rendering and parsing cannot drift
//! apart. A field's wire key is its Rust field name. To add a field to
//! an event or request body, add it to the enum variant and to the
//! variant's row (with `opt_u64` if old documents must keep parsing).

use smart_core::noc::DesignKind;
use smart_harness::{ExperimentReport, RunPlan, ScheduleDesign, SpatialPattern, Workload};
use smart_sim::jsonl::{self, Line};
use smart_traffic::TraceFile;
use std::fmt::{self, Write};

/// Schema tag of every request header.
pub const REQUEST_SCHEMA: &str = "smart-server/req-v1";
/// Schema tag carried by the first response event of a stream.
pub const RESPONSE_SCHEMA: &str = "smart-server/resp-v1";

/// Longest accepted job id.
const MAX_ID_LEN: usize = 64;
/// Largest accepted `k × k` mesh edge.
const MAX_MESH: u64 = 64;
/// Most body lines a header may declare.
const MAX_BODY_LINES: u64 = 1_000_000;

/// A malformed request document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// 1-based line of the offending text (0 for a missing header).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl ProtocolError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ProtocolError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// `true` for the job-id grammar: 1–64 chars of `[A-Za-z0-9_-]` (no
/// escaping needed anywhere the id is embedded).
#[must_use]
pub fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_LEN
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// `a`, `a or b`, `a, b, or c`: the accepted set of an "expected …"
/// message.
fn expected<S: AsRef<str>>(names: impl IntoIterator<Item = S>) -> String {
    let names: Vec<S> = names.into_iter().collect();
    let mut out = String::new();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(if names.len() > 2 { ", " } else { " " });
            if i + 1 == names.len() {
                out.push_str("or ");
            }
        }
        out.push_str(name.as_ref());
    }
    out
}

/// A closed set of protocol names: the one table a value's rendering,
/// its parsing and its "expected …" message all come from.
struct Names<T: 'static> {
    what: &'static str,
    table: &'static [(&'static str, T)],
}

impl<T: Copy + PartialEq> Names<T> {
    fn name(&self, value: T) -> &'static str {
        let entry = self.table.iter().find(|(_, v)| *v == value);
        entry.expect("every variant is in its name table").0
    }

    fn parse(&self, name: &str) -> Result<T, String> {
        let entry = self.table.iter().find(|(n, _)| *n == name);
        entry.map(|(_, v)| *v).ok_or_else(|| {
            format!(
                "unknown {} {name:?} (expected {})",
                self.what,
                expected(self.table.iter().map(|(n, _)| n))
            )
        })
    }
}

const DESIGNS: Names<DesignKind> = Names {
    what: "design",
    table: &[
        ("mesh", DesignKind::Mesh),
        ("smart", DesignKind::Smart),
        ("dedicated", DesignKind::Dedicated),
    ],
};

const SCHEDULE_DESIGNS: Names<ScheduleDesign> = Names {
    what: "schedule design",
    table: &[
        ("mesh", ScheduleDesign::Mesh),
        ("smart", ScheduleDesign::Smart),
        ("dedicated", ScheduleDesign::Dedicated),
        ("reconfigurable", ScheduleDesign::Reconfigurable),
    ],
};

const TOPOLOGIES: Names<TopologySpec> = Names {
    what: "topology",
    table: &[("mesh", TopologySpec::Mesh), ("torus", TopologySpec::Torus)],
};

const STRATEGIES: Names<SearchStrategy> = Names {
    what: "strategy",
    table: &[
        ("exhaustive", SearchStrategy::Exhaustive),
        ("greedy", SearchStrategy::Greedy),
    ],
};

/// Parse a lowercase design name (`mesh`, `smart`, `dedicated`).
///
/// # Errors
///
/// Returns a description naming the accepted set.
pub fn parse_design(name: &str) -> Result<DesignKind, String> {
    DESIGNS.parse(name)
}

/// A workload in the protocol's compact spec grammar (no spaces, no
/// quotes — specs can be space-separated inside one JSON string field):
///
/// * `fig7` — the Fig 7 walk-through,
/// * `app:VOPD` — one of the eight applications,
/// * `uniform:<flows>:<rate>:<seed>` — uniform-random Bernoulli,
/// * `pattern:<name>:<rate>` — a synthetic [`SpatialPattern`] by label
///   (`transpose`, `bit-complement`, `bit-reverse`, `shuffle`,
///   `tornado`, `neighbor`).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The Fig 7 four-flow walk-through.
    Fig7,
    /// One of the paper's eight applications, by name.
    App(String),
    /// Uniform-random flows at one rate, seeded.
    Uniform {
        /// Number of random flows (≥ 1).
        flows: u64,
        /// Packets-per-cycle injection rate per flow.
        rate: f64,
        /// RNG seed for the pair choice.
        seed: u64,
    },
    /// A named synthetic pattern at one rate.
    Pattern {
        /// Pattern label (see the grammar above).
        name: String,
        /// Packets-per-cycle rate per unit-weight flow.
        rate: f64,
    },
}

impl WorkloadSpec {
    /// Render in the spec grammar (the inverse of [`WorkloadSpec::parse`]).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            WorkloadSpec::Fig7 => "fig7".to_owned(),
            WorkloadSpec::App(name) => format!("app:{name}"),
            WorkloadSpec::Uniform { flows, rate, seed } => {
                format!("uniform:{flows}:{rate}:{seed}")
            }
            WorkloadSpec::Pattern { name, rate } => format!("pattern:{name}:{rate}"),
        }
    }

    /// Parse one spec token.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated grammar rule.
    pub fn parse(spec: &str) -> Result<WorkloadSpec, String> {
        if spec == "fig7" {
            return Ok(WorkloadSpec::Fig7);
        }
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let rate_of = |s: &str| -> Result<f64, String> {
            let rate: f64 = s
                .parse()
                .map_err(|_| format!("bad rate {s:?} in {spec:?}"))?;
            // A rate is a per-cycle injection probability.
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} outside [0, 1] in {spec:?}"));
            }
            Ok(rate)
        };
        match (kind, rest.as_slice()) {
            ("app", [name]) => {
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return Err(format!("bad application name in {spec:?}"));
                }
                Ok(WorkloadSpec::App((*name).to_owned()))
            }
            ("uniform", [flows, rate, seed]) => {
                let flows: u64 = flows
                    .parse()
                    .map_err(|_| format!("bad flow count in {spec:?}"))?;
                if flows == 0 {
                    return Err(format!(
                        "uniform workload needs at least one flow: {spec:?}"
                    ));
                }
                let seed: u64 = seed.parse().map_err(|_| format!("bad seed in {spec:?}"))?;
                Ok(WorkloadSpec::Uniform {
                    flows,
                    rate: rate_of(rate)?,
                    seed,
                })
            }
            ("pattern", [name, rate]) => {
                SpatialPattern::by_label(name).map_err(|m| format!("{m} in {spec:?}"))?;
                Ok(WorkloadSpec::Pattern {
                    name: (*name).to_owned(),
                    rate: rate_of(rate)?,
                })
            }
            _ => Err(format!(
                "unknown workload spec {spec:?} (expected fig7, app:<name>, \
                 uniform:<flows>:<rate>:<seed>, or pattern:<name>:<rate>)"
            )),
        }
    }

    /// Resolve to a harness [`Workload`], validating names the harness
    /// would otherwise panic on.
    ///
    /// # Errors
    ///
    /// Returns a description for an unknown application or pattern.
    pub fn to_workload(&self) -> Result<Workload, String> {
        match self {
            WorkloadSpec::Fig7 => Ok(Workload::fig7()),
            WorkloadSpec::App(name) => {
                if smart_taskgraph::apps::by_name(name).is_none() {
                    return Err(format!("unknown application {name:?}"));
                }
                Ok(Workload::app(name))
            }
            WorkloadSpec::Uniform { flows, rate, seed } => {
                Ok(Workload::uniform(*flows as usize, *rate, *seed))
            }
            WorkloadSpec::Pattern { name, rate } => {
                Ok(Workload::patterned(SpatialPattern::by_label(name)?, *rate))
            }
        }
    }

    /// Resolve for a `mesh × mesh` fabric: the one check every request
    /// makes of its workloads before it is accepted. NMAP places one
    /// task per core, so an application with more tasks than the fabric
    /// has cores is refused here, before anything is placed or cached.
    ///
    /// # Errors
    ///
    /// Returns a description for an application larger than the fabric,
    /// or as [`WorkloadSpec::to_workload`] does.
    pub fn resolve(&self, mesh: u16) -> Result<Workload, String> {
        let cores = usize::from(mesh) * usize::from(mesh);
        if let WorkloadSpec::App(name) = self {
            let tasks = smart_taskgraph::apps::by_name(name).map_or(0, |g| g.num_tasks());
            if tasks > cores {
                return Err(format!(
                    "application {name:?} has {tasks} tasks, more than the {cores} cores of the fabric"
                ));
            }
        }
        self.to_workload()
    }
}

/// Fabric shape on the wire. The `"topology"` field is optional in
/// every run request: **absent means mesh**, so every
/// `smart-server/req-v1` document written before the torus existed
/// parses (and re-renders) byte-identically. Rendering emits the field
/// only for the torus for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// `k × k` mesh (the wire default).
    #[default]
    Mesh,
    /// `k × k` torus: same grid plus wraparound links on every row and
    /// column.
    Torus,
}

impl TopologySpec {
    /// Protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        TOPOLOGIES.name(self)
    }

    /// Parse a protocol name.
    ///
    /// # Errors
    ///
    /// Returns a description naming the accepted set.
    pub fn parse(name: &str) -> Result<TopologySpec, String> {
        TOPOLOGIES.parse(name)
    }

    /// The scaled `k × k` config this spec selects.
    #[must_use]
    pub fn config(self, k: u16) -> smart_core::config::NocConfig {
        match self {
            TopologySpec::Mesh => smart_core::config::NocConfig::scaled(k),
            TopologySpec::Torus => smart_core::config::NocConfig::scaled_torus(k),
        }
    }
}

/// A [`RunPlan`] on the wire: the four schedule fields, flattened into
/// whichever body line carries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Drain budget.
    pub drain: u64,
    /// Traffic seed.
    pub seed: u64,
}

impl From<RunPlan> for PlanSpec {
    fn from(p: RunPlan) -> Self {
        PlanSpec {
            warmup: p.warmup,
            measure: p.measure,
            drain: p.drain,
            seed: p.seed,
        }
    }
}

impl PlanSpec {
    /// The harness plan this spec describes.
    #[must_use]
    pub fn to_plan(self) -> RunPlan {
        RunPlan {
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
            seed: self.seed,
        }
    }
}

/// Search strategies the `search` request accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Score every point of the space.
    Exhaustive,
    /// Greedy hill-climb from the space's first point, moving to the
    /// best ±1 axis neighbor until no neighbor improves the score.
    Greedy,
}

impl SearchStrategy {
    /// Protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        STRATEGIES.name(self)
    }

    /// Parse a protocol name.
    ///
    /// # Errors
    ///
    /// Returns a description naming the accepted set.
    pub fn parse(name: &str) -> Result<SearchStrategy, String> {
        STRATEGIES.parse(name)
    }
}

/// One parsed request. Every variant carries the job id from the
/// header; ids follow the [`valid_id`] grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one experiment cell.
    Experiment {
        /// Job id.
        id: String,
        /// Mesh edge (`k × k`).
        mesh: u16,
        /// Fabric shape (absent on the wire ⇒ mesh).
        topology: TopologySpec,
        /// Row-band shards for the cycle engine (absent on the wire ⇒
        /// serial). Bit-identical results for every value.
        shards: usize,
        /// Design to build.
        design: DesignKind,
        /// Workload to offer.
        workload: WorkloadSpec,
        /// Run schedule.
        plan: PlanSpec,
    },
    /// Run one telemetry-enabled experiment cell, streaming a
    /// [`ResponseEvent::Metric`] per closed telemetry window before the
    /// final [`ResponseEvent::Cell`].
    Watch {
        /// Job id.
        id: String,
        /// Mesh edge (`k × k`).
        mesh: u16,
        /// Fabric shape (absent on the wire ⇒ mesh).
        topology: TopologySpec,
        /// Row-band shards for the cycle engine (absent on the wire ⇒
        /// serial). Bit-identical results — including the streamed
        /// metric windows — for every value.
        shards: usize,
        /// Design to build.
        design: DesignKind,
        /// Workload to offer.
        workload: WorkloadSpec,
        /// Run schedule.
        plan: PlanSpec,
        /// Telemetry window width, cycles (≥ 1).
        window: u64,
    },
    /// Run a designs × workloads matrix (workload-major, design-minor
    /// cell order, exactly like `ExperimentMatrix`).
    Matrix {
        /// Job id.
        id: String,
        /// Mesh edge.
        mesh: u16,
        /// Fabric shape (absent on the wire ⇒ mesh).
        topology: TopologySpec,
        /// Row-band shards for the cycle engine (absent on the wire ⇒
        /// serial). Bit-identical results for every value.
        shards: usize,
        /// Design axis (non-empty).
        designs: Vec<DesignKind>,
        /// Workload axis (non-empty).
        workloads: Vec<WorkloadSpec>,
        /// Run schedule shared by every cell.
        plan: PlanSpec,
    },
    /// Run a multi-phase application schedule across schedule designs.
    Schedule {
        /// Job id.
        id: String,
        /// Mesh edge.
        mesh: u16,
        /// Fabric shape (absent on the wire ⇒ mesh).
        topology: TopologySpec,
        /// Design axis (non-empty); one cell per design.
        designs: Vec<ScheduleDesign>,
        /// Transition drain budget, cycles.
        drain_budget: u64,
        /// Ordered phases: workload + plan each.
        phases: Vec<(WorkloadSpec, PlanSpec)>,
    },
    /// Search the mapping × design × segmentation space.
    Search {
        /// Job id.
        id: String,
        /// Mesh edge.
        mesh: u16,
        /// Fabric shape (absent on the wire ⇒ mesh).
        topology: TopologySpec,
        /// How to walk the space.
        strategy: SearchStrategy,
        /// Design axis (non-empty).
        designs: Vec<DesignKind>,
        /// Mapping axis: workloads to place (non-empty).
        workloads: Vec<WorkloadSpec>,
        /// Segmentation axis: `HPC_max` values (non-empty, each 1–64).
        hpc: Vec<u64>,
        /// Run schedule per candidate.
        plan: PlanSpec,
    },
    /// Replay one trace on two designs and diff the outcomes.
    TraceDiff {
        /// Job id.
        id: String,
        /// Mesh edge.
        mesh: u16,
        /// Fabric shape (absent on the wire ⇒ mesh).
        topology: TopologySpec,
        /// Baseline design.
        baseline: DesignKind,
        /// Candidate design.
        candidate: DesignKind,
        /// Workload whose flow set the trace addresses.
        workload: WorkloadSpec,
        /// Run schedule for both replays.
        plan: PlanSpec,
        /// The recorded injection schedule.
        trace: TraceFile,
    },
    /// Cancel a running job by id.
    Cancel {
        /// Job id of this request.
        id: String,
        /// Job to cancel.
        target: String,
    },
    /// Report service statistics.
    Stats {
        /// Job id.
        id: String,
    },
    /// Stop accepting connections and exit the accept loop.
    Shutdown {
        /// Job id.
        id: String,
    },
}

impl Request {
    /// The job id.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            Request::Experiment { id, .. }
            | Request::Watch { id, .. }
            | Request::Matrix { id, .. }
            | Request::Schedule { id, .. }
            | Request::Search { id, .. }
            | Request::TraceDiff { id, .. }
            | Request::Cancel { id, .. }
            | Request::Stats { id }
            | Request::Shutdown { id } => id,
        }
    }

    /// Protocol kind tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.tag()
    }

    /// Render the full request document: header line + body lines, each
    /// newline-terminated. [`Request::parse`] inverts this exactly.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut body = String::new();
        if !BODILESS.contains(&self.kind()) {
            let mut w = Writer::open(&mut body);
            self.write_fields(&mut w);
            w.line.close();
            let tail = w.tail;
            body.push('\n');
            body.push_str(&tail);
        }
        let mut doc = String::with_capacity(body.len() + 96);
        Line::open(&mut doc)
            .str("schema", REQUEST_SCHEMA)
            .str("id", self.id())
            .str("kind", self.kind())
            .u64("lines", body.lines().count() as u64)
            .close();
        doc.push('\n');
        doc.push_str(&body);
        doc
    }

    /// Parse a complete request document (header + declared body).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for a malformed header, a body-line
    /// count mismatch, or any malformed body line.
    pub fn parse(text: &str) -> Result<Request, ProtocolError> {
        let mut lines = jsonl::numbered_lines(text).map(|(_, line)| line);
        let header_line = lines
            .next()
            .ok_or_else(|| ProtocolError::new(0, "empty document (missing header)"))?;
        let header = RequestHeader::parse(header_line)?;
        let body: Vec<&str> = lines.collect();
        Request::from_lines(&header, &body)
    }

    /// Assemble a request from a parsed header and its body lines
    /// (exactly `header.lines` of them) — the streaming server's entry
    /// point after it has consumed the declared line count.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for a wrong body-line count or any
    /// malformed body line.
    pub fn from_lines(header: &RequestHeader, body: &[&str]) -> Result<Request, ProtocolError> {
        jsonl::check_count(header.lines as u64, body.len(), "body lines")
            .map_err(|m| ProtocolError::new(1, format!("header {m}")))?;
        let kind = header.kind.as_str();
        let reader = Reader {
            lines: body,
            line_no: 2,
            id: &header.id,
            noun: "field",
        };
        match Request::read_fields(kind, &reader) {
            Ok(Some(request)) => Ok(request),
            Ok(None) => Err(ProtocolError::new(
                1,
                format!("unknown request kind {kind:?}"),
            )),
            Err(_) if body.is_empty() => {
                Err(ProtocolError::new(1, format!("{kind} needs a body line")))
            }
            Err(err) => Err(err),
        }
    }
}

/// The request kinds with no body line.
const BODILESS: [&str; 2] = ["stats", "shutdown"];

/// A parsed request header: what a streaming reader needs to consume
/// the body before dispatching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// Job id ([`valid_id`] grammar).
    pub id: String,
    /// Request kind tag.
    pub kind: String,
    /// Number of body lines that follow.
    pub lines: usize,
}

impl RequestHeader {
    /// Parse the header line.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for a wrong schema, a bad id, or
    /// missing fields.
    pub fn parse(line: &str) -> Result<RequestHeader, ProtocolError> {
        let missing = |key: &str| ProtocolError::new(1, format!("header has no {key:?} field"));
        let text = |key: &str| jsonl::str_field(line, key).ok_or_else(|| missing(key));
        let schema = text("schema")?;
        if schema != REQUEST_SCHEMA {
            return Err(ProtocolError::new(
                1,
                format!("unsupported schema {schema:?}, expected {REQUEST_SCHEMA:?}"),
            ));
        }
        let id = text("id")?;
        if !valid_id(id) {
            return Err(ProtocolError::new(
                1,
                format!("invalid id {id:?} (want 1-{MAX_ID_LEN} chars of [A-Za-z0-9_-])"),
            ));
        }
        let kind = text("kind")?;
        let lines = jsonl::u64_field(line, "lines").ok_or_else(|| missing("lines"))?;
        if lines > MAX_BODY_LINES {
            return Err(ProtocolError::new(
                1,
                format!("unreasonable body size {lines}"),
            ));
        }
        Ok(RequestHeader {
            id: id.to_owned(),
            kind: kind.to_owned(),
            lines: lines as usize,
        })
    }
}

/// One line of a response stream. Every request produces zero or more
/// progress events followed by exactly one terminal event
/// ([`ResponseEvent::Done`] or [`ResponseEvent::Error`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseEvent {
    /// The request was accepted; `cells` cells will run.
    Accepted {
        /// Job id.
        id: String,
        /// Cells scheduled.
        cells: u64,
    },
    /// One finished experiment cell (matrix/experiment jobs). Streams
    /// in completion order — `index` is the deterministic cell index.
    Cell {
        /// Cell index (workload-major, design-minor).
        index: u64,
        /// Design label (`Mesh`, `SMART`, `Dedicated`).
        design: String,
        /// Workload name as reported by the harness.
        workload: String,
        /// Packets offered after warm-up.
        injected: u64,
        /// Packets delivered after warm-up.
        delivered: u64,
        /// Flits delivered after warm-up.
        flits: u64,
        /// Average head-flit network latency (NaN if nothing measured).
        latency: f64,
        /// Packets in the latency statistics.
        measured: u64,
        /// Total cycles the cell advanced the network.
        cycles: u64,
        /// `true` when the cell ran from a cached compiled design.
        cached: bool,
    },
    /// One finished schedule phase (schedule jobs).
    Phase {
        /// Schedule cell index (one per design).
        index: u64,
        /// Phase index within the schedule.
        phase: u64,
        /// Schedule design label.
        design: String,
        /// Phase workload name.
        workload: String,
        /// Packets delivered over the phase.
        delivered: u64,
        /// Average head-flit network latency.
        latency: f64,
        /// Transition drain cycles paid to load this phase.
        drain_cycles: u64,
        /// Preset store instructions paid to load this phase.
        stores: u64,
    },
    /// A cell failed without sinking the job (e.g. a schedule whose
    /// drain budget was exhausted).
    CellError {
        /// Cell index.
        index: u64,
        /// What went wrong.
        message: String,
    },
    /// One scored search candidate.
    Candidate {
        /// Flattened index into the search space.
        index: u64,
        /// Design label.
        design: String,
        /// Workload spec string.
        workload: String,
        /// `HPC_max` of the candidate.
        hpc: u64,
        /// Total energy over the run, picojoules.
        energy_pj: f64,
        /// Analytic silicon area, mm².
        area_mm2: f64,
        /// Average packet latency, cycles.
        cycles: f64,
        /// Smapper score: `-(log10(energy) + log10(area) + log10(cycles))`.
        score: f64,
    },
    /// The search winner (follows every Candidate; absent when a
    /// cancel came before the first point was scored).
    Winner {
        /// Flattened index of the winning candidate.
        index: u64,
        /// Winning score.
        score: f64,
        /// Points actually evaluated.
        evaluated: u64,
    },
    /// One flow's latency under both designs of a trace diff (NaN on a
    /// side that delivered nothing for the flow). Absent when a cancel
    /// came before both replays ran.
    FlowDiff {
        /// Flow id.
        flow: u64,
        /// Baseline average head latency.
        baseline: f64,
        /// Candidate average head latency.
        candidate: f64,
    },
    /// Trace-diff aggregates (follows every FlowDiff). Absent when a
    /// cancel came before both replays ran.
    DiffSummary {
        /// Baseline design label.
        baseline: String,
        /// Candidate design label.
        candidate: String,
        /// `candidate − baseline` delivered packets.
        delivered_delta: i64,
        /// `candidate − baseline` delivered flits.
        flit_delta: i64,
        /// `candidate − baseline` average latency, cycles.
        latency_delta: f64,
    },
    /// One closed telemetry window of a watch job, streamed in window
    /// order before the job's final [`ResponseEvent::Cell`].
    Metric {
        /// Window index within the series (0-based).
        index: u64,
        /// Cycle at which the window closed.
        end: u64,
        /// SSR setup requests raised in the window.
        setups: u64,
        /// SSR setups granted end-to-end in the window.
        grants: u64,
        /// Premature stops (setups − grants) in the window.
        premature: u64,
        /// Cumulative packets injected since telemetry attached.
        injected: u64,
        /// Cumulative packets delivered since telemetry attached.
        delivered: u64,
        /// Flits buffered fabric-wide when the window closed.
        buffered: u64,
        /// Sparse achieved-bypass histogram of the window, metrics-v1
        /// `"len:count"` form (empty ⇒ no launches).
        bypass: String,
    },
    /// Service statistics (stats jobs).
    Stats {
        /// Run-type jobs handled since start.
        jobs: u64,
        /// Compiled-design cache hits.
        cache_hits: u64,
        /// Compiled-design cache misses.
        cache_misses: u64,
        /// Compiled designs currently cached.
        cached_designs: u64,
        /// Jobs registered in the live job table when the snapshot was
        /// taken (absent on the wire ⇒ 0, keeping pre-watch documents
        /// byte-identical).
        active_jobs: u64,
        /// Cumulative wall-clock milliseconds spent executing run-type
        /// jobs (absent on the wire ⇒ 0).
        busy_ms: u64,
    },
    /// Terminal: the job finished. `cells` counts completed cells (less
    /// than Accepted's count if the job was cancelled mid-run, or for a
    /// greedy search, which scores only the points it visits).
    Done {
        /// Job id.
        id: String,
        /// Cells completed.
        cells: u64,
        /// Cells served from the compiled-design cache.
        cache_hits: u64,
    },
    /// Terminal: the job failed.
    Error {
        /// Job id (`-` when the failure predates id extraction).
        id: String,
        /// What went wrong.
        message: String,
    },
}

impl ResponseEvent {
    /// The [`ResponseEvent::Cell`] reporting `report` as cell `index`.
    #[must_use]
    pub fn cell(index: u64, report: &ExperimentReport, cached: bool) -> ResponseEvent {
        ResponseEvent::Cell {
            index,
            design: report.design.label().to_owned(),
            workload: report.workload.clone(),
            injected: report.packets_injected,
            delivered: report.packets_delivered,
            flits: report.flits_delivered,
            latency: report.avg_network_latency,
            measured: report.measured_packets,
            cycles: report.total_cycles,
            cached,
        }
    }

    /// Render as one response line (no trailing newline).
    /// [`ResponseEvent::parse`] inverts this exactly (modulo NaN,
    /// which is canonical).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(192);
        let mut w = Writer::open(&mut out);
        // The first event of a stream carries the schema tag.
        if matches!(self, ResponseEvent::Accepted { .. }) {
            w.line.str("schema", RESPONSE_SCHEMA);
        }
        w.line.str("event", self.tag());
        self.write_fields(&mut w);
        w.line.close();
        out
    }

    /// `true` for the events that end a response stream.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ResponseEvent::Done { .. } | ResponseEvent::Error { .. }
        )
    }

    /// Render a [`ResponseEvent::Cell`] through
    /// [`smart_harness::snapshot_line`], the formatter
    /// `ExperimentReport::snapshot_line` uses, so streamed results can
    /// be compared bit-for-bit against direct harness runs. Returns
    /// `None` for other event kinds.
    #[must_use]
    pub fn snapshot_line(&self) -> Option<String> {
        match self {
            ResponseEvent::Cell {
                design,
                workload,
                injected,
                delivered,
                flits,
                latency,
                measured,
                ..
            } => Some(smart_harness::snapshot_line(
                design, workload, *injected, *delivered, *flits, *latency, *measured,
            )),
            _ => None,
        }
    }

    /// Parse one response line.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing or malformed field.
    pub fn parse(line: &str) -> Result<ResponseEvent, String> {
        let event = jsonl::str_field(line, "event")
            .ok_or_else(|| format!("response line has no \"event\" field: {line}"))?;
        if event == "accepted" {
            let schema = jsonl::str_field(line, "schema")
                .ok_or_else(|| "accepted event missing \"schema\"".to_owned())?;
            if schema != RESPONSE_SCHEMA {
                return Err(format!(
                    "unsupported schema {schema:?}, expected {RESPONSE_SCHEMA:?}"
                ));
            }
        }
        let reader = Reader {
            lines: &[line],
            line_no: 1,
            id: "",
            noun: "field",
        };
        match ResponseEvent::read_fields(event, &reader) {
            Ok(Some(parsed)) => Ok(parsed),
            Ok(None) => Err(format!("unknown response event {event:?}")),
            Err(err) => Err(format!("{event} event: {}", err.message)),
        }
    }
}

/// What a [`Reader`] codec returns.
type Parsed<T> = Result<T, ProtocolError>;

/// Declare the fields of a line kind **once**. Each row names a
/// variant's (or struct's) fields in wire order with the codec that
/// carries each one — a method both [`Writer`] and [`Reader`] have,
/// `named`/`named_list` taking their [`Names`] table — and the wire key
/// is the field name. Expands to the tag lookup, the
/// render half (`write_fields`) and the parse half (`read_fields`).
macro_rules! wire_table {
    (enum $ty:ident { $( $tag:literal => $variant:ident {
        $( $field:ident: $codec:ident $( ($arg:ident) )? ),* $(,)?
    } )* }) => {
        impl $ty {
            fn tag(&self) -> &'static str {
                match self { $( $ty::$variant { .. } => $tag, )* }
            }

            fn write_fields(&self, w: &mut Writer<'_>) {
                match self {
                    $( $ty::$variant { $( $field ),* } => {
                        $( w.$codec(stringify!($field), $field $(, &$arg)?); )*
                    } )*
                }
            }

            /// `None` for a tag no row declares.
            fn read_fields(tag: &str, r: &Reader<'_>) -> Parsed<Option<$ty>> {
                Ok(Some(match tag {
                    $( $tag => $ty::$variant {
                        $( $field: r.$codec(stringify!($field) $(, &$arg)?)? ),*
                    }, )*
                    _ => return Ok(None),
                }))
            }
        }
    };
    (struct $ty:ident { $( $field:ident: $codec:ident ),* $(,)? }) => {
        impl $ty {
            fn write_fields(&self, w: &mut Writer<'_>) {
                $( w.$codec(stringify!($field), &self.$field); )*
            }

            fn read_fields(r: &Reader<'_>) -> Parsed<$ty> {
                Ok($ty { $( $field: r.$codec(stringify!($field))? ),* })
            }
        }
    };
}

wire_table!(enum Request {
    "experiment" => Experiment {
        id: job_id, mesh: mesh, topology: topology, shards: shards,
        design: named(DESIGNS), workload: workload, plan: plan,
    }
    "watch" => Watch {
        id: job_id, mesh: mesh, topology: topology, shards: shards,
        design: named(DESIGNS), workload: workload, window: window, plan: plan,
    }
    "matrix" => Matrix {
        id: job_id, mesh: mesh, topology: topology, shards: shards,
        designs: named_list(DESIGNS), workloads: workloads, plan: plan,
    }
    "schedule" => Schedule {
        id: job_id, mesh: mesh, topology: topology,
        designs: named_list(SCHEDULE_DESIGNS), drain_budget: u64, phases: phases,
    }
    "search" => Search {
        id: job_id, mesh: mesh, topology: topology, strategy: named(STRATEGIES),
        designs: named_list(DESIGNS), workloads: workloads, hpc: hpc, plan: plan,
    }
    "trace_diff" => TraceDiff {
        id: job_id, mesh: mesh, topology: topology, baseline: named(DESIGNS),
        candidate: named(DESIGNS), workload: workload, trace: trace, plan: plan,
    }
    "cancel" => Cancel { id: job_id, target: target }
    "stats" => Stats { id: job_id }
    "shutdown" => Shutdown { id: job_id }
});

wire_table!(
    struct PlanSpec {
        warmup: u64,
        measure: u64,
        drain: u64,
        seed: u64,
    }
);

/// One `schedule` body line after the first.
struct PhaseLine {
    workload: WorkloadSpec,
    plan: PlanSpec,
}

wire_table!(
    struct PhaseLine {
        workload: workload,
        plan: plan,
    }
);

/// What a `trace_diff` body line says of the trace whose events follow.
struct TraceHead {
    flits_per_packet: u64,
    events: u64,
}

wire_table!(
    struct TraceHead {
        flits_per_packet: u64,
        events: u64,
    }
);

wire_table!(enum ResponseEvent {
    "accepted" => Accepted { id: text, cells: u64 }
    "cell" => Cell {
        index: u64, design: text, workload: text, injected: u64, delivered: u64,
        flits: u64, latency: f64, measured: u64, cycles: u64, cached: bool,
    }
    "phase" => Phase {
        index: u64, phase: u64, design: text, workload: text, delivered: u64,
        latency: f64, drain_cycles: u64, stores: u64,
    }
    "cell_error" => CellError { index: u64, message: text }
    "candidate" => Candidate {
        index: u64, design: text, workload: text, hpc: u64, energy_pj: f64,
        area_mm2: f64, cycles: f64, score: f64,
    }
    "winner" => Winner { index: u64, score: f64, evaluated: u64 }
    "flow_diff" => FlowDiff { flow: u64, baseline: f64, candidate: f64 }
    "diff_summary" => DiffSummary {
        baseline: text, candidate: text, delivered_delta: i64, flit_delta: i64,
        latency_delta: f64,
    }
    "metric" => Metric {
        index: u64, end: u64, setups: u64, grants: u64, premature: u64,
        injected: u64, delivered: u64, buffered: u64, bypass: text,
    }
    // Absent on the wire at zero, so documents from before the two
    // fields existed stay byte-identical.
    "stats" => Stats {
        jobs: u64, cache_hits: u64, cache_misses: u64, cached_designs: u64,
        active_jobs: opt_u64, busy_ms: opt_u64,
    }
    "done" => Done { id: text, cells: u64, cache_hits: u64 }
    "error" => Error { id: text, message: text }
});

/// The render half of the codecs: one method per codec name, each
/// appending `"key":value` to the line being written. Lines after the
/// first (schedule phases, trace events) collect in `tail`.
struct Writer<'a> {
    line: Line<'a>,
    tail: String,
}

impl<'a> Writer<'a> {
    fn open(out: &'a mut String) -> Self {
        Writer {
            line: Line::open(out),
            tail: String::new(),
        }
    }

    fn u64(&mut self, key: &str, v: &u64) {
        self.line.u64(key, *v);
    }

    fn opt_u64(&mut self, key: &str, v: &u64) {
        self.line.u64_or(key, *v, 0);
    }

    fn i64(&mut self, key: &str, v: &i64) {
        self.line.i64(key, *v);
    }

    fn f64(&mut self, key: &str, v: &f64) {
        self.line.f64(key, *v);
    }

    fn bool(&mut self, key: &str, v: &bool) {
        self.line.bool(key, *v);
    }

    fn text(&mut self, key: &str, v: &str) {
        self.line.str(key, v);
    }

    /// A space-separated list in one string field.
    fn list<S: fmt::Display>(&mut self, key: &str, items: impl Iterator<Item = S>) {
        self.line.str_with(key, |out| {
            for (i, item) in items.enumerate() {
                let _ = write!(out, "{}{item}", if i > 0 { " " } else { "" });
            }
        });
    }

    /// The job id rides in the header, not the body.
    fn job_id(&mut self, _key: &str, _id: &str) {}

    fn mesh(&mut self, key: &str, v: &u16) {
        self.line.u64(key, u64::from(*v));
    }

    fn topology(&mut self, key: &str, v: &TopologySpec) {
        let shown = (*v != TopologySpec::default()).then(|| v.name());
        self.line.opt_str(key, shown);
    }

    fn shards(&mut self, key: &str, v: &usize) {
        self.line.u64_or(key, (*v).max(1) as u64, 1);
    }

    fn window(&mut self, key: &str, v: &u64) {
        self.line.u64(key, *v);
    }

    fn target(&mut self, key: &str, v: &str) {
        self.line.str(key, v);
    }

    fn named<T: Copy + PartialEq>(&mut self, key: &str, v: &T, names: &Names<T>) {
        self.line.str(key, names.name(*v));
    }

    fn named_list<T: Copy + PartialEq>(&mut self, key: &str, v: &[T], names: &Names<T>) {
        self.list(key, v.iter().map(|item| names.name(*item)));
    }

    fn workload(&mut self, key: &str, v: &WorkloadSpec) {
        self.line.str(key, &v.render());
    }

    fn workloads(&mut self, key: &str, v: &[WorkloadSpec]) {
        self.list(key, v.iter().map(WorkloadSpec::render));
    }

    fn hpc(&mut self, key: &str, v: &[u64]) {
        self.list(key, v.iter());
    }

    /// The four plan fields, flattened into the current line.
    fn plan(&mut self, _key: &str, v: &PlanSpec) {
        v.write_fields(self);
    }

    /// One line per phase, after the first body line.
    fn phases(&mut self, _key: &str, v: &[(WorkloadSpec, PlanSpec)]) {
        for (workload, plan) in v {
            let phase = PhaseLine {
                workload: workload.clone(),
                plan: *plan,
            };
            let mut w = Writer::open(&mut self.tail);
            phase.write_fields(&mut w);
            w.line.close();
            self.tail.push('\n');
        }
    }

    /// The trace's sizing and event count in the current line, its
    /// event lines (trace-v1's own) after it.
    fn trace(&mut self, _key: &str, v: &TraceFile) {
        let head = TraceHead {
            flits_per_packet: u64::from(v.flits_per_packet),
            events: v.events.len() as u64,
        };
        head.write_fields(self);
        v.render_events(&mut self.tail);
    }
}

/// The parse half of the codecs: one method per codec name, each
/// extracting and validating its key from the first of `lines`.
#[derive(Clone, Copy)]
struct Reader<'a> {
    /// The lines being read; codecs read the first, multi-line codecs
    /// the rest too.
    lines: &'a [&'a str],
    /// 1-based document line of `lines[0]`, for errors.
    line_no: usize,
    /// The job id from the request header.
    id: &'a str,
    /// How a missing field is reported: `missing <noun> "key"`.
    noun: &'a str,
}

impl<'a> Reader<'a> {
    fn line(&self) -> &'a str {
        self.lines.first().copied().unwrap_or_default()
    }

    fn err(&self, message: impl Into<String>) -> ProtocolError {
        ProtocolError::new(self.line_no, message)
    }

    fn need<T>(&self, key: &str, found: Option<T>) -> Parsed<T> {
        found.ok_or_else(|| self.err(format!("missing {} {key:?}", self.noun)))
    }

    fn u64(&self, key: &str) -> Parsed<u64> {
        self.need(key, jsonl::u64_field(self.line(), key))
    }

    fn opt_u64(&self, key: &str) -> Parsed<u64> {
        Ok(jsonl::u64_field(self.line(), key).unwrap_or(0))
    }

    fn i64(&self, key: &str) -> Parsed<i64> {
        self.need(key, jsonl::i64_field(self.line(), key))
    }

    fn f64(&self, key: &str) -> Parsed<f64> {
        self.need(key, jsonl::f64_field(self.line(), key))
    }

    fn bool(&self, key: &str) -> Parsed<bool> {
        self.need(key, jsonl::bool_field(self.line(), key))
    }

    fn raw(&self, key: &str) -> Parsed<&'a str> {
        self.need(key, jsonl::str_field(self.line(), key))
    }

    fn text(&self, key: &str) -> Parsed<String> {
        jsonl::unescape(self.raw(key)?)
            .ok_or_else(|| self.err(format!("malformed escape in {key:?}")))
    }

    /// A string field parsed by `f`.
    fn parsed<T>(&self, key: &str, f: impl Fn(&str) -> Result<T, String>) -> Parsed<T> {
        f(self.raw(key)?).map_err(|m| self.err(m))
    }

    /// A space-separated list field, every token parsed by `f`; the
    /// list must be non-empty.
    fn list<T>(&self, key: &str, f: impl Fn(&str) -> Result<T, String>) -> Parsed<Vec<T>> {
        let items: Vec<T> = self
            .raw(key)?
            .split_whitespace()
            .map(|token| f(token).map_err(|m| self.err(m)))
            .collect::<Result<_, _>>()?;
        if items.is_empty() {
            return Err(self.err(format!("empty list {key:?}")));
        }
        Ok(items)
    }

    fn job_id(&self, _key: &str) -> Parsed<String> {
        Ok(self.id.to_owned())
    }

    fn mesh(&self, key: &str) -> Parsed<u16> {
        match self.u64(key)? {
            mesh @ 2..=MAX_MESH => Ok(mesh as u16),
            mesh => Err(self.err(format!("mesh {mesh} outside 2..={MAX_MESH}"))),
        }
    }

    /// Absent ⇒ mesh.
    fn topology(&self, key: &str) -> Parsed<TopologySpec> {
        match jsonl::str_field(self.line(), key) {
            None => Ok(TopologySpec::default()),
            Some(raw) => TopologySpec::parse(raw).map_err(|m| self.err(m)),
        }
    }

    /// Absent ⇒ one band. Band count is an execution strategy with
    /// bit-identical results, so a request without the field is exactly
    /// the pre-sharding protocol.
    fn shards(&self, key: &str) -> Parsed<usize> {
        match jsonl::u64_field(self.line(), key) {
            None => Ok(1),
            Some(0) => Err(self.err("shards must be at least 1")),
            Some(n @ 1..=MAX_MESH) => Ok(n as usize),
            Some(n) => Err(self.err(format!("shards {n} outside 1..={MAX_MESH}"))),
        }
    }

    fn window(&self, key: &str) -> Parsed<u64> {
        match self.u64(key)? {
            0 => Err(self.err("window must be at least 1 cycle")),
            window => Ok(window),
        }
    }

    fn target(&self, key: &str) -> Parsed<String> {
        let target = self.raw(key)?;
        if !valid_id(target) {
            return Err(self.err(format!("invalid target id {target:?}")));
        }
        Ok(target.to_owned())
    }

    fn named<T: Copy + PartialEq>(&self, key: &str, names: &Names<T>) -> Parsed<T> {
        self.parsed(key, |name| names.parse(name))
    }

    fn named_list<T: Copy + PartialEq>(&self, key: &str, names: &Names<T>) -> Parsed<Vec<T>> {
        self.list(key, |name| names.parse(name))
    }

    fn workload(&self, key: &str) -> Parsed<WorkloadSpec> {
        self.parsed(key, WorkloadSpec::parse)
    }

    fn workloads(&self, key: &str) -> Parsed<Vec<WorkloadSpec>> {
        self.list(key, WorkloadSpec::parse)
    }

    fn hpc(&self, key: &str) -> Parsed<Vec<u64>> {
        let hpc = self.list(key, |token| {
            token
                .parse::<u64>()
                .map_err(|_| format!("bad hpc value {token:?}"))
        })?;
        if let Some(h) = hpc.iter().find(|h| !(1..=MAX_MESH).contains(*h)) {
            return Err(self.err(format!("hpc {h} outside 1..={MAX_MESH}")));
        }
        Ok(hpc)
    }

    fn plan(&self, _key: &str) -> Parsed<PlanSpec> {
        PlanSpec::read_fields(&Reader {
            noun: "plan field",
            ..*self
        })
    }

    /// The lines after the first, each with its reader.
    fn rest(&self) -> impl Iterator<Item = Reader<'a>> {
        let first = *self;
        (1..first.lines.len()).map(move |i| Reader {
            lines: &first.lines[i..],
            line_no: first.line_no + i,
            ..first
        })
    }

    fn phases(&self, _key: &str) -> Parsed<Vec<(WorkloadSpec, PlanSpec)>> {
        let phases: Vec<_> = self
            .rest()
            .map(|r| PhaseLine::read_fields(&r).map(|p| (p.workload, p.plan)))
            .collect::<Result<_, _>>()?;
        if phases.is_empty() {
            return Err(self.err("schedule has no phases"));
        }
        Ok(phases)
    }

    fn trace(&self, _key: &str) -> Parsed<TraceFile> {
        let head = TraceHead::read_fields(self)?;
        let fpp = head.flits_per_packet;
        let flits_per_packet = u8::try_from(fpp)
            .map_err(|_| self.err(format!("flits_per_packet {fpp} does not fit a u8")))?;
        let events = jsonl::read_declared(
            (head.events, "events"),
            self.rest().map(|r| (r.line_no, r.line())),
            |line| TraceFile::parse_event(line).map_err(|e| ProtocolError::new(e.line, e.message)),
            |m| self.err(m),
        )?;
        Ok(TraceFile {
            flits_per_packet,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PlanSpec {
        PlanSpec::from(RunPlan::smoke())
    }

    #[test]
    fn matrix_request_round_trips() {
        let req = Request::Matrix {
            id: "job-1".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            designs: vec![DesignKind::Mesh, DesignKind::Smart],
            workloads: vec![
                WorkloadSpec::Fig7,
                WorkloadSpec::App("VOPD".into()),
                WorkloadSpec::Uniform {
                    flows: 8,
                    rate: 0.02,
                    seed: 42,
                },
            ],
            plan: plan(),
        };
        let text = req.to_jsonl();
        assert!(
            text.starts_with("{\"schema\":\"smart-server/req-v1\""),
            "{text}"
        );
        assert_eq!(Request::parse(&text), Ok(req));
    }

    #[test]
    fn every_request_kind_round_trips() {
        let reqs = vec![
            Request::Experiment {
                id: "e".into(),
                mesh: 8,
                topology: TopologySpec::Mesh,
                shards: 4,
                design: DesignKind::Dedicated,
                workload: WorkloadSpec::Pattern {
                    name: "transpose".into(),
                    rate: 0.03,
                },
                plan: plan(),
            },
            Request::Schedule {
                id: "s".into(),
                mesh: 4,
                topology: TopologySpec::Mesh,
                designs: vec![ScheduleDesign::Smart, ScheduleDesign::Reconfigurable],
                drain_budget: 50_000,
                phases: vec![
                    (WorkloadSpec::App("VOPD".into()), plan()),
                    (WorkloadSpec::App("PIP".into()), plan()),
                ],
            },
            Request::Search {
                id: "q".into(),
                mesh: 4,
                topology: TopologySpec::Mesh,
                strategy: SearchStrategy::Greedy,
                designs: vec![DesignKind::Smart],
                workloads: vec![WorkloadSpec::Fig7],
                hpc: vec![1, 2, 4, 8],
                plan: plan(),
            },
            Request::TraceDiff {
                id: "d".into(),
                mesh: 4,
                topology: TopologySpec::Mesh,
                baseline: DesignKind::Mesh,
                candidate: DesignKind::Smart,
                workload: WorkloadSpec::Fig7,
                plan: plan(),
                trace: TraceFile {
                    flits_per_packet: 8,
                    events: vec![(0, smart_sim::FlowId(0)), (3, smart_sim::FlowId(2))],
                },
            },
            Request::Cancel {
                id: "c".into(),
                target: "job-1".into(),
            },
            Request::Stats { id: "st".into() },
            Request::Shutdown { id: "down".into() },
        ];
        for req in reqs {
            let text = req.to_jsonl();
            assert_eq!(Request::parse(&text), Ok(req), "{text}");
        }
    }

    #[test]
    fn torus_requests_round_trip_and_mesh_stays_bare() {
        let torus = Request::Experiment {
            id: "t".into(),
            mesh: 8,
            topology: TopologySpec::Torus,
            shards: 1,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: plan(),
        };
        let text = torus.to_jsonl();
        assert!(text.contains("\"topology\":\"torus\""), "{text}");
        assert_eq!(Request::parse(&text), Ok(torus));
        // The mesh default renders without the field, exactly as the
        // pre-torus protocol did.
        let mesh = Request::Experiment {
            id: "t".into(),
            mesh: 8,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: plan(),
        };
        let text = mesh.to_jsonl();
        assert!(!text.contains("topology"), "{text}");
        assert_eq!(Request::parse(&text), Ok(mesh));
    }

    #[test]
    fn sharded_requests_round_trip_and_serial_stays_bare() {
        let sharded = Request::Matrix {
            id: "sh".into(),
            mesh: 32,
            topology: TopologySpec::Torus,
            shards: 4,
            designs: vec![DesignKind::Smart],
            workloads: vec![WorkloadSpec::Fig7],
            plan: plan(),
        };
        let text = sharded.to_jsonl();
        assert!(text.contains("\"shards\":4"), "{text}");
        assert_eq!(Request::parse(&text), Ok(sharded));
        // The serial default renders without the field, exactly as the
        // pre-sharding protocol did.
        let serial = Request::Experiment {
            id: "sh".into(),
            mesh: 32,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: plan(),
        };
        let text = serial.to_jsonl();
        assert!(!text.contains("shards"), "{text}");
        assert_eq!(Request::parse(&text), Ok(serial));
    }

    #[test]
    fn zero_shards_is_rejected() {
        let text = "{\"schema\":\"smart-server/req-v1\",\"id\":\"a\",\"kind\":\"experiment\",\
                    \"lines\":1}\n{\"mesh\":4,\"shards\":0,\"design\":\"smart\",\
                    \"workload\":\"fig7\",\"warmup\":0,\"measure\":100,\"drain\":100,\"seed\":1}\n";
        let err = Request::parse(text).expect_err("zero shards");
        assert!(err.message.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_topology_value_is_rejected() {
        let text = "{\"schema\":\"smart-server/req-v1\",\"id\":\"a\",\"kind\":\"experiment\",\
                    \"lines\":1}\n{\"mesh\":4,\"topology\":\"klein-bottle\",\"design\":\"smart\",\
                    \"workload\":\"fig7\",\"warmup\":0,\"measure\":100,\"drain\":100,\"seed\":1}\n";
        let err = Request::parse(text).expect_err("bad topology");
        assert!(err.message.contains("klein-bottle"), "{err}");
    }

    #[test]
    fn invalid_documents_are_typed_errors() {
        let cases = [
            ("", 0),
            ("{\"schema\":\"smart-server/req-v9\",\"id\":\"a\",\"kind\":\"stats\",\"lines\":0}", 1),
            ("{\"schema\":\"smart-server/req-v1\",\"id\":\"bad id\",\"kind\":\"stats\",\"lines\":0}", 1),
            ("{\"schema\":\"smart-server/req-v1\",\"id\":\"a\",\"kind\":\"nope\",\"lines\":0}", 1),
            ("{\"schema\":\"smart-server/req-v1\",\"id\":\"a\",\"kind\":\"matrix\",\"lines\":0}", 1),
        ];
        for (text, line) in cases {
            let err = Request::parse(text).expect_err(text);
            assert_eq!(err.line, line, "{text}");
        }
    }

    #[test]
    fn body_errors_keep_their_lines_and_messages() {
        let doc = |kind: &str, body: &[&str]| {
            let mut text = format!(
                "{{\"schema\":\"smart-server/req-v1\",\"id\":\"a\",\"kind\":\"{kind}\",\"lines\":{}}}\n",
                body.len()
            );
            for line in body {
                text.push_str(line);
                text.push('\n');
            }
            text
        };
        let plan = "\"warmup\":0,\"measure\":100,\"drain\":100,\"seed\":1";
        let cases = [
            (doc("matrix", &[]), 1, "matrix needs a body line".to_owned()),
            (
                doc("nope", &["{}"]),
                1,
                "unknown request kind \"nope\"".to_owned(),
            ),
            (
                doc(
                    "experiment",
                    &["{\"mesh\":4,\"design\":\"smart\",\"workload\":\"fig7\"}"],
                ),
                2,
                "missing plan field \"warmup\"".to_owned(),
            ),
            (
                doc(
                    "experiment",
                    &[&format!("{{\"mesh\":4,\"workload\":\"fig7\",{plan}}}")],
                ),
                2,
                "missing field \"design\"".to_owned(),
            ),
            (
                doc(
                    "experiment",
                    &[&format!(
                        "{{\"mesh\":65,\"design\":\"smart\",\"workload\":\"fig7\",{plan}}}"
                    )],
                ),
                2,
                "mesh 65 outside 2..=64".to_owned(),
            ),
            (
                doc(
                    "schedule",
                    &[
                        "{\"mesh\":4,\"designs\":\"smart\",\"drain_budget\":9}",
                        &format!("{{\"workload\":\"fig7\",{plan}}}"),
                        &format!("{{\"workload\":\"fig8\",{plan}}}"),
                    ],
                ),
                4,
                WorkloadSpec::parse("fig8").expect_err("no such spec"),
            ),
            (
                doc(
                    "schedule",
                    &["{\"mesh\":4,\"designs\":\"smart\",\"drain_budget\":9}"],
                ),
                2,
                "schedule has no phases".to_owned(),
            ),
            (
                doc(
                    "trace_diff",
                    &[
                        &format!(
                            "{{\"mesh\":4,\"baseline\":\"mesh\",\"candidate\":\"smart\",\
                             \"workload\":\"fig7\",\"flits_per_packet\":8,\"events\":3,{plan}}}"
                        ),
                        "{\"cycle\":0,\"flow\":0}",
                    ],
                ),
                2,
                "declares 3 events, found 1".to_owned(),
            ),
        ];
        for (text, line, message) in cases {
            let err = Request::parse(&text).expect_err(&text);
            assert_eq!(
                (err.line, err.message.as_str()),
                (line, message.as_str()),
                "{text}"
            );
        }
    }

    #[test]
    fn name_tables_round_trip_and_say_what_they_expected() {
        for design in DesignKind::ALL {
            assert_eq!(parse_design(DESIGNS.name(design)), Ok(design));
        }
        for design in ScheduleDesign::ALL {
            let name = SCHEDULE_DESIGNS.name(design);
            assert_eq!(SCHEDULE_DESIGNS.parse(name), Ok(design));
        }
        for pattern in &SpatialPattern::STRUCTURED {
            let spec = format!("pattern:{}:0.1", pattern.label());
            assert!(WorkloadSpec::parse(&spec).is_ok(), "{spec}");
        }
        assert_eq!(
            parse_design("ring").expect_err("unknown"),
            "unknown design \"ring\" (expected mesh, smart, or dedicated)"
        );
        assert_eq!(
            SCHEDULE_DESIGNS.parse("ring").expect_err("unknown"),
            "unknown schedule design \"ring\" (expected mesh, smart, dedicated, or reconfigurable)"
        );
        assert_eq!(
            TopologySpec::parse("ring").expect_err("unknown"),
            "unknown topology \"ring\" (expected mesh or torus)"
        );
        assert_eq!(
            WorkloadSpec::parse("pattern:ring:0.1").expect_err("unknown"),
            "unknown pattern \"ring\" (expected transpose, bit-complement, bit-reverse, \
             shuffle, tornado, or neighbor) in \"pattern:ring:0.1\""
        );
        assert_eq!(
            SearchStrategy::parse("luck").expect_err("unknown"),
            "unknown strategy \"luck\" (expected exhaustive or greedy)"
        );
        assert_eq!(expected(["only"]), "only");
    }

    #[test]
    fn bad_workload_specs_are_rejected() {
        for spec in [
            "",
            "fig8",
            "app:",
            "app:no good",
            "uniform:0:0.1:5",
            "uniform:4:abc:5",
            "uniform:4:-1:5",
            "pattern:doom:0.1",
            "pattern:transpose:inf",
        ] {
            assert!(WorkloadSpec::parse(spec).is_err(), "{spec:?}");
        }
        // A rate is a per-cycle probability: above 1 is refused by name.
        for spec in ["uniform:4:1.5:7", "pattern:tornado:2"] {
            let err = WorkloadSpec::parse(spec).expect_err(spec);
            assert!(err.contains("outside [0, 1]"), "{spec:?}: {err}");
        }
        assert!(WorkloadSpec::parse("uniform:4:0.1:5").is_ok());
        assert!(WorkloadSpec::parse("pattern:tornado:1").is_ok());
    }

    #[test]
    fn unknown_app_fails_at_resolution_not_panic() {
        let spec = WorkloadSpec::App("DOOM".into());
        assert!(spec.to_workload().is_err());
        assert!(WorkloadSpec::App("VOPD".into()).to_workload().is_ok());
    }

    #[test]
    fn response_events_round_trip() {
        let events = vec![
            ResponseEvent::Accepted {
                id: "j".into(),
                cells: 9,
            },
            ResponseEvent::Cell {
                index: 3,
                design: "SMART".into(),
                workload: "fig7".into(),
                injected: 160,
                delivered: 160,
                flits: 1280,
                latency: 3.4625,
                measured: 160,
                cycles: 4000,
                cached: true,
            },
            ResponseEvent::Phase {
                index: 1,
                phase: 2,
                design: "Reconfigurable".into(),
                workload: "VOPD".into(),
                delivered: 99,
                latency: 11.5,
                drain_cycles: 37,
                stores: 16,
            },
            ResponseEvent::CellError {
                index: 2,
                message: "drain budget \"exhausted\"\nbadly".into(),
            },
            ResponseEvent::Candidate {
                index: 7,
                design: "SMART".into(),
                workload: "app:VOPD".into(),
                hpc: 8,
                energy_pj: 1.25e6,
                area_mm2: 2.5,
                cycles: 21.75,
                score: -7.9,
            },
            ResponseEvent::Winner {
                index: 7,
                score: -7.9,
                evaluated: 16,
            },
            ResponseEvent::FlowDiff {
                flow: 4,
                baseline: 16.0,
                candidate: 1.0,
            },
            ResponseEvent::DiffSummary {
                baseline: "Mesh".into(),
                candidate: "SMART".into(),
                delivered_delta: -2,
                flit_delta: -16,
                latency_delta: -15.0,
            },
            ResponseEvent::Metric {
                index: 3,
                end: 4096,
                setups: 40,
                grants: 32,
                premature: 8,
                injected: 120,
                delivered: 117,
                buffered: 24,
                bypass: "0:9 3:14 8:2".into(),
            },
            ResponseEvent::Stats {
                jobs: 5,
                cache_hits: 9,
                cache_misses: 3,
                cached_designs: 3,
                active_jobs: 2,
                busy_ms: 1375,
            },
            ResponseEvent::Stats {
                jobs: 5,
                cache_hits: 9,
                cache_misses: 3,
                cached_designs: 3,
                active_jobs: 0,
                busy_ms: 0,
            },
            ResponseEvent::Done {
                id: "j".into(),
                cells: 9,
                cache_hits: 4,
            },
            ResponseEvent::Error {
                id: "j".into(),
                message: "boom".into(),
            },
        ];
        for ev in events {
            let line = ev.to_line();
            assert_eq!(ResponseEvent::parse(&line), Ok(ev), "{line}");
        }
    }

    #[test]
    fn stats_optional_fields_stay_absent_at_zero() {
        // A snapshot with no live jobs and no accumulated wall time
        // renders exactly the pre-watch document.
        let old = ResponseEvent::Stats {
            jobs: 5,
            cache_hits: 9,
            cache_misses: 3,
            cached_designs: 3,
            active_jobs: 0,
            busy_ms: 0,
        };
        assert_eq!(
            old.to_line(),
            "{\"event\":\"stats\",\"jobs\":5,\"cache_hits\":9,\"cache_misses\":3,\
             \"cached_designs\":3}"
        );
        assert_eq!(ResponseEvent::parse(&old.to_line()), Ok(old));
    }

    #[test]
    fn watch_request_round_trips_and_rejects_zero_window() {
        let req = Request::Watch {
            id: "w1".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 2,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: plan(),
            window: 512,
        };
        let text = req.to_jsonl();
        assert!(text.contains("\"kind\":\"watch\""), "{text}");
        assert!(text.contains("\"window\":512"), "{text}");
        assert_eq!(Request::parse(&text), Ok(req));
        let zero = text.replace("\"window\":512", "\"window\":0");
        let err = Request::parse(&zero).expect_err("zero window");
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn nan_latency_rides_as_null() {
        let ev = ResponseEvent::FlowDiff {
            flow: 0,
            baseline: f64::NAN,
            candidate: 2.0,
        };
        let line = ev.to_line();
        assert!(line.contains("\"baseline\":null"), "{line}");
        match ResponseEvent::parse(&line).expect("parses") {
            ResponseEvent::FlowDiff {
                baseline,
                candidate,
                ..
            } => {
                assert!(baseline.is_nan());
                assert_eq!(candidate, 2.0);
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn cell_snapshot_matches_report_format() {
        let ev = ResponseEvent::Cell {
            index: 0,
            design: "Mesh".into(),
            workload: "fig7".into(),
            injected: 10,
            delivered: 10,
            flits: 80,
            latency: 16.25,
            measured: 10,
            cycles: 4000,
            cached: false,
        };
        assert_eq!(
            ev.snapshot_line().expect("cell"),
            "Mesh/fig7 injected=10 delivered=10 flits=80 latency=16.25 measured=10"
        );
        assert_eq!(
            ResponseEvent::Done {
                id: "x".into(),
                cells: 0,
                cache_hits: 0
            }
            .snapshot_line(),
            None
        );
    }
}
