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
//! Everything is hand-rolled flat JSON in the `smart-traffic/trace-v1`
//! idiom: fixed identifier keys, restricted string grammars (job ids,
//! design labels, workload specs), numeric fields in shortest
//! round-trip form — see [`crate::json`]. Parsing arbitrary input
//! returns typed [`ProtocolError`]s and never panics (property-tested).

use crate::json;
use smart_core::noc::DesignKind;
use smart_harness::{RunPlan, ScheduleDesign, SpatialPattern, Workload};
use smart_traffic::TraceFile;
use std::fmt;

/// Schema tag of every request header.
pub const REQUEST_SCHEMA: &str = "smart-server/req-v1";
/// Schema tag carried by the first response event of a stream.
pub const RESPONSE_SCHEMA: &str = "smart-server/resp-v1";

/// Longest accepted job id.
const MAX_ID_LEN: usize = 64;
/// Largest accepted `k × k` mesh edge.
const MAX_MESH: u64 = 64;

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
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!("rate {rate} out of range in {spec:?}"));
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
                if pattern_by_name(name).is_none() {
                    return Err(format!("unknown pattern {name:?} in {spec:?}"));
                }
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
                let pattern =
                    pattern_by_name(name).ok_or_else(|| format!("unknown pattern {name:?}"))?;
                Ok(Workload::patterned(pattern, *rate))
            }
        }
    }
}

/// The parameterless classic patterns addressable by spec label.
fn pattern_by_name(name: &str) -> Option<SpatialPattern> {
    match name {
        "transpose" => Some(SpatialPattern::Transpose),
        "bit-complement" => Some(SpatialPattern::BitComplement),
        "bit-reverse" => Some(SpatialPattern::BitReverse),
        "shuffle" => Some(SpatialPattern::Shuffle),
        "tornado" => Some(SpatialPattern::Tornado),
        "neighbor" => Some(SpatialPattern::Neighbor),
        _ => None,
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
        match self {
            TopologySpec::Mesh => "mesh",
            TopologySpec::Torus => "torus",
        }
    }

    /// Parse a protocol name.
    ///
    /// # Errors
    ///
    /// Returns a description naming the accepted set.
    pub fn parse(name: &str) -> Result<TopologySpec, String> {
        match name {
            "mesh" => Ok(TopologySpec::Mesh),
            "torus" => Ok(TopologySpec::Torus),
            _ => Err(format!(
                "unknown topology {name:?} (expected mesh or torus)"
            )),
        }
    }

    /// The scaled `k × k` config this spec selects.
    #[must_use]
    pub fn config(self, k: u16) -> smart_core::config::NocConfig {
        match self {
            TopologySpec::Mesh => smart_core::config::NocConfig::scaled(k),
            TopologySpec::Torus => smart_core::config::NocConfig::scaled_torus(k),
        }
    }

    /// The `,"topology":…` body-line fragment: empty for the mesh so
    /// pre-torus documents render byte-identically.
    fn render_field(self) -> &'static str {
        match self {
            TopologySpec::Mesh => "",
            TopologySpec::Torus => ",\"topology\":\"torus\"",
        }
    }
}

/// Extract the optional `"topology"` field; absent defaults to mesh.
fn topology_field(line: &str, line_no: usize) -> Result<TopologySpec, ProtocolError> {
    match json::str_field(line, "topology") {
        None => Ok(TopologySpec::Mesh),
        Some(raw) => TopologySpec::parse(raw).map_err(|m| ProtocolError::new(line_no, m)),
    }
}

/// The `,"shards":…` body-line fragment: empty for one band so
/// pre-sharding documents render byte-identically.
fn render_shards(shards: usize) -> String {
    if shards <= 1 {
        String::new()
    } else {
        format!(",\"shards\":{shards}")
    }
}

/// Extract the optional `"shards"` field; absent defaults to serial (1).
/// Sharding is an execution strategy with bit-identical results, so a
/// request without the field is exactly the pre-sharding protocol.
fn shards_field(line: &str, line_no: usize) -> Result<usize, ProtocolError> {
    match json::u64_field(line, "shards") {
        None => Ok(1),
        Some(0) => Err(ProtocolError::new(line_no, "shards must be at least 1")),
        Some(n) if n > MAX_MESH => Err(ProtocolError::new(
            line_no,
            format!("shards {n} outside 1..={MAX_MESH}"),
        )),
        Some(n) => Ok(n as usize),
    }
}

/// Render a design kind in the protocol's lowercase grammar.
#[must_use]
pub fn design_name(kind: DesignKind) -> &'static str {
    match kind {
        DesignKind::Mesh => "mesh",
        DesignKind::Smart => "smart",
        DesignKind::Dedicated => "dedicated",
    }
}

/// Parse a lowercase design name.
///
/// # Errors
///
/// Returns a description naming the accepted set.
pub fn parse_design(name: &str) -> Result<DesignKind, String> {
    match name {
        "mesh" => Ok(DesignKind::Mesh),
        "smart" => Ok(DesignKind::Smart),
        "dedicated" => Ok(DesignKind::Dedicated),
        _ => Err(format!(
            "unknown design {name:?} (expected mesh, smart, or dedicated)"
        )),
    }
}

/// Render a schedule design in the protocol's lowercase grammar.
#[must_use]
pub fn schedule_design_name(design: ScheduleDesign) -> &'static str {
    match design {
        ScheduleDesign::Mesh => "mesh",
        ScheduleDesign::Smart => "smart",
        ScheduleDesign::Dedicated => "dedicated",
        ScheduleDesign::Reconfigurable => "reconfigurable",
    }
}

/// Parse a lowercase schedule-design name.
///
/// # Errors
///
/// Returns a description naming the accepted set.
pub fn parse_schedule_design(name: &str) -> Result<ScheduleDesign, String> {
    match name {
        "mesh" => Ok(ScheduleDesign::Mesh),
        "smart" => Ok(ScheduleDesign::Smart),
        "dedicated" => Ok(ScheduleDesign::Dedicated),
        "reconfigurable" => Ok(ScheduleDesign::Reconfigurable),
        _ => Err(format!(
            "unknown schedule design {name:?} (expected mesh, smart, dedicated, or reconfigurable)"
        )),
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

    /// Render the four fields (no braces) for embedding in a body line.
    fn render_fields(self) -> String {
        format!(
            "\"warmup\":{},\"measure\":{},\"drain\":{},\"seed\":{}",
            self.warmup, self.measure, self.drain, self.seed
        )
    }

    /// Extract the four fields from a body line.
    fn from_line(line: &str, line_no: usize) -> Result<PlanSpec, ProtocolError> {
        let field = |key: &str| {
            json::u64_field(line, key)
                .ok_or_else(|| ProtocolError::new(line_no, format!("missing plan field {key:?}")))
        };
        Ok(PlanSpec {
            warmup: field("warmup")?,
            measure: field("measure")?,
            drain: field("drain")?,
            seed: field("seed")?,
        })
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
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Greedy => "greedy",
        }
    }

    /// Parse a protocol name.
    ///
    /// # Errors
    ///
    /// Returns a description naming the accepted set.
    pub fn parse(name: &str) -> Result<SearchStrategy, String> {
        match name {
            "exhaustive" => Ok(SearchStrategy::Exhaustive),
            "greedy" => Ok(SearchStrategy::Greedy),
            _ => Err(format!(
                "unknown strategy {name:?} (expected exhaustive or greedy)"
            )),
        }
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
        match self {
            Request::Experiment { .. } => "experiment",
            Request::Watch { .. } => "watch",
            Request::Matrix { .. } => "matrix",
            Request::Schedule { .. } => "schedule",
            Request::Search { .. } => "search",
            Request::TraceDiff { .. } => "trace_diff",
            Request::Cancel { .. } => "cancel",
            Request::Stats { .. } => "stats",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// Body lines following the header.
    fn body_lines(&self) -> Vec<String> {
        let specs = |ws: &[WorkloadSpec]| {
            ws.iter()
                .map(WorkloadSpec::render)
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            Request::Experiment {
                mesh,
                topology,
                shards,
                design,
                workload,
                plan,
                ..
            } => vec![format!(
                "{{\"mesh\":{mesh}{}{},\"design\":\"{}\",\"workload\":\"{}\",{}}}",
                topology.render_field(),
                render_shards(*shards),
                design_name(*design),
                workload.render(),
                plan.render_fields()
            )],
            Request::Watch {
                mesh,
                topology,
                shards,
                design,
                workload,
                plan,
                window,
                ..
            } => vec![format!(
                "{{\"mesh\":{mesh}{}{},\"design\":\"{}\",\"workload\":\"{}\",\
                 \"window\":{window},{}}}",
                topology.render_field(),
                render_shards(*shards),
                design_name(*design),
                workload.render(),
                plan.render_fields()
            )],
            Request::Matrix {
                mesh,
                topology,
                shards,
                designs,
                workloads,
                plan,
                ..
            } => vec![format!(
                "{{\"mesh\":{mesh}{}{},\"designs\":\"{}\",\"workloads\":\"{}\",{}}}",
                topology.render_field(),
                render_shards(*shards),
                designs
                    .iter()
                    .map(|d| design_name(*d))
                    .collect::<Vec<_>>()
                    .join(" "),
                specs(workloads),
                plan.render_fields()
            )],
            Request::Schedule {
                mesh,
                topology,
                designs,
                drain_budget,
                phases,
                ..
            } => {
                let mut lines = vec![format!(
                    "{{\"mesh\":{mesh}{},\"designs\":\"{}\",\"drain_budget\":{drain_budget}}}",
                    topology.render_field(),
                    designs
                        .iter()
                        .map(|d| schedule_design_name(*d))
                        .collect::<Vec<_>>()
                        .join(" "),
                )];
                lines.extend(phases.iter().map(|(w, p)| {
                    format!("{{\"workload\":\"{}\",{}}}", w.render(), p.render_fields())
                }));
                lines
            }
            Request::Search {
                mesh,
                topology,
                strategy,
                designs,
                workloads,
                hpc,
                plan,
                ..
            } => {
                vec![format!(
                "{{\"mesh\":{mesh}{},\"strategy\":\"{}\",\"designs\":\"{}\",\"workloads\":\"{}\",\
                 \"hpc\":\"{}\",{}}}",
                topology.render_field(),
                strategy.name(),
                designs.iter().map(|d| design_name(*d)).collect::<Vec<_>>().join(" "),
                specs(workloads),
                hpc.iter().map(u64::to_string).collect::<Vec<_>>().join(" "),
                plan.render_fields()
            )]
            }
            Request::TraceDiff {
                mesh,
                topology,
                baseline,
                candidate,
                workload,
                plan,
                trace,
                ..
            } => {
                let mut lines = vec![format!(
                    "{{\"mesh\":{mesh}{},\"baseline\":\"{}\",\"candidate\":\"{}\",\
                     \"workload\":\"{}\",\"flits_per_packet\":{},\"events\":{},{}}}",
                    topology.render_field(),
                    design_name(*baseline),
                    design_name(*candidate),
                    workload.render(),
                    trace.flits_per_packet,
                    trace.events.len(),
                    plan.render_fields()
                )];
                lines.extend(
                    trace
                        .events
                        .iter()
                        .map(|(cycle, flow)| format!("{{\"cycle\":{cycle},\"flow\":{}}}", flow.0)),
                );
                lines
            }
            Request::Cancel { target, .. } => {
                vec![format!("{{\"target\":\"{target}\"}}")]
            }
            Request::Stats { .. } | Request::Shutdown { .. } => Vec::new(),
        }
    }

    /// Render the full request document: header line + body lines, each
    /// newline-terminated. [`Request::parse`] inverts this exactly.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let body = self.body_lines();
        let mut s = format!(
            "{{\"schema\":\"{REQUEST_SCHEMA}\",\"id\":\"{}\",\"kind\":\"{}\",\"lines\":{}}}\n",
            self.id(),
            self.kind(),
            body.len()
        );
        for line in body {
            s.push_str(&line);
            s.push('\n');
        }
        s
    }

    /// Parse a complete request document (header + declared body).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] for a malformed header, a body-line
    /// count mismatch, or any malformed body line.
    pub fn parse(text: &str) -> Result<Request, ProtocolError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| ProtocolError::new(0, "empty document (missing header)"))?;
        let header = RequestHeader::parse(header_line)?;
        let body: Vec<&str> = lines.collect();
        if body.len() != header.lines {
            return Err(ProtocolError::new(
                1,
                format!(
                    "header declares {} body lines, found {}",
                    header.lines,
                    body.len()
                ),
            ));
        }
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
        if body.len() != header.lines {
            return Err(ProtocolError::new(
                1,
                format!(
                    "header declares {} body lines, got {}",
                    header.lines,
                    body.len()
                ),
            ));
        }
        let id = header.id.clone();
        let one_body = || -> Result<&str, ProtocolError> {
            body.first()
                .copied()
                .ok_or_else(|| ProtocolError::new(1, format!("{} needs a body line", header.kind)))
        };
        match header.kind.as_str() {
            "experiment" => {
                let line = one_body()?;
                Ok(Request::Experiment {
                    id,
                    mesh: mesh_field(line, 2)?,
                    topology: topology_field(line, 2)?,
                    shards: shards_field(line, 2)?,
                    design: str_then(line, "design", 2, parse_design)?,
                    workload: str_then(line, "workload", 2, WorkloadSpec::parse)?,
                    plan: PlanSpec::from_line(line, 2)?,
                })
            }
            "watch" => {
                let line = one_body()?;
                let window = json::u64_field(line, "window")
                    .ok_or_else(|| ProtocolError::new(2, "missing field \"window\""))?;
                if window == 0 {
                    return Err(ProtocolError::new(2, "window must be at least 1 cycle"));
                }
                Ok(Request::Watch {
                    id,
                    mesh: mesh_field(line, 2)?,
                    topology: topology_field(line, 2)?,
                    shards: shards_field(line, 2)?,
                    design: str_then(line, "design", 2, parse_design)?,
                    workload: str_then(line, "workload", 2, WorkloadSpec::parse)?,
                    plan: PlanSpec::from_line(line, 2)?,
                    window,
                })
            }
            "matrix" => {
                let line = one_body()?;
                Ok(Request::Matrix {
                    id,
                    mesh: mesh_field(line, 2)?,
                    topology: topology_field(line, 2)?,
                    shards: shards_field(line, 2)?,
                    designs: list_then(line, "designs", 2, parse_design)?,
                    workloads: list_then(line, "workloads", 2, WorkloadSpec::parse)?,
                    plan: PlanSpec::from_line(line, 2)?,
                })
            }
            "schedule" => {
                let line = one_body()?;
                let drain_budget = json::u64_field(line, "drain_budget")
                    .ok_or_else(|| ProtocolError::new(2, "missing field \"drain_budget\""))?;
                let designs = list_then(line, "designs", 2, parse_schedule_design)?;
                let mut phases = Vec::with_capacity(body.len() - 1);
                for (i, line) in body[1..].iter().enumerate() {
                    let line_no = i + 3;
                    phases.push((
                        str_then(line, "workload", line_no, WorkloadSpec::parse)?,
                        PlanSpec::from_line(line, line_no)?,
                    ));
                }
                if phases.is_empty() {
                    return Err(ProtocolError::new(2, "schedule has no phases"));
                }
                Ok(Request::Schedule {
                    id,
                    mesh: mesh_field(line, 2)?,
                    topology: topology_field(line, 2)?,
                    designs,
                    drain_budget,
                    phases,
                })
            }
            "search" => {
                let line = one_body()?;
                let hpc = list_then(line, "hpc", 2, |tok| {
                    tok.parse::<u64>()
                        .map_err(|_| format!("bad hpc value {tok:?}"))
                })?;
                if let Some(h) = hpc.iter().find(|h| **h == 0 || **h > MAX_MESH) {
                    return Err(ProtocolError::new(
                        2,
                        format!("hpc {h} outside 1..={MAX_MESH}"),
                    ));
                }
                Ok(Request::Search {
                    id,
                    mesh: mesh_field(line, 2)?,
                    topology: topology_field(line, 2)?,
                    strategy: str_then(line, "strategy", 2, SearchStrategy::parse)?,
                    designs: list_then(line, "designs", 2, parse_design)?,
                    workloads: list_then(line, "workloads", 2, WorkloadSpec::parse)?,
                    hpc,
                    plan: PlanSpec::from_line(line, 2)?,
                })
            }
            "trace_diff" => {
                let line = one_body()?;
                let fpp = json::u64_field(line, "flits_per_packet")
                    .ok_or_else(|| ProtocolError::new(2, "missing field \"flits_per_packet\""))?;
                let fpp = u8::try_from(fpp).map_err(|_| {
                    ProtocolError::new(2, format!("flits_per_packet {fpp} does not fit a u8"))
                })?;
                let declared = json::u64_field(line, "events")
                    .ok_or_else(|| ProtocolError::new(2, "missing field \"events\""))?;
                if declared as usize != body.len() - 1 {
                    return Err(ProtocolError::new(
                        2,
                        format!("declares {declared} events, found {}", body.len() - 1),
                    ));
                }
                let mut events = Vec::with_capacity(body.len() - 1);
                for (i, line) in body[1..].iter().enumerate() {
                    let line_no = i + 3;
                    let cycle = json::u64_field(line, "cycle")
                        .ok_or_else(|| ProtocolError::new(line_no, "event missing \"cycle\""))?;
                    let flow = json::u64_field(line, "flow")
                        .ok_or_else(|| ProtocolError::new(line_no, "event missing \"flow\""))?;
                    let flow = u32::try_from(flow).map_err(|_| {
                        ProtocolError::new(line_no, format!("flow id {flow} does not fit a u32"))
                    })?;
                    events.push((cycle, smart_sim::FlowId(flow)));
                }
                Ok(Request::TraceDiff {
                    id,
                    mesh: mesh_field(line, 2)?,
                    topology: topology_field(line, 2)?,
                    baseline: str_then(line, "baseline", 2, parse_design)?,
                    candidate: str_then(line, "candidate", 2, parse_design)?,
                    workload: str_then(line, "workload", 2, WorkloadSpec::parse)?,
                    plan: PlanSpec::from_line(line, 2)?,
                    trace: TraceFile {
                        flits_per_packet: fpp,
                        events,
                    },
                })
            }
            "cancel" => {
                let line = one_body()?;
                let target = json::str_field(line, "target")
                    .ok_or_else(|| ProtocolError::new(2, "missing field \"target\""))?;
                if !valid_id(target) {
                    return Err(ProtocolError::new(
                        2,
                        format!("invalid target id {target:?}"),
                    ));
                }
                Ok(Request::Cancel {
                    id,
                    target: target.to_owned(),
                })
            }
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(ProtocolError::new(
                1,
                format!("unknown request kind {other:?}"),
            )),
        }
    }
}

/// Extract and range-check the `"mesh"` field.
fn mesh_field(line: &str, line_no: usize) -> Result<u16, ProtocolError> {
    let mesh = json::u64_field(line, "mesh")
        .ok_or_else(|| ProtocolError::new(line_no, "missing field \"mesh\""))?;
    if !(2..=MAX_MESH).contains(&mesh) {
        return Err(ProtocolError::new(
            line_no,
            format!("mesh {mesh} outside 2..={MAX_MESH}"),
        ));
    }
    Ok(mesh as u16)
}

/// Extract a string field and parse it with `f`.
fn str_then<T>(
    line: &str,
    key: &str,
    line_no: usize,
    f: impl Fn(&str) -> Result<T, String>,
) -> Result<T, ProtocolError> {
    let raw = json::str_field(line, key)
        .ok_or_else(|| ProtocolError::new(line_no, format!("missing field {key:?}")))?;
    f(raw).map_err(|m| ProtocolError::new(line_no, m))
}

/// Extract a space-separated list field, parse every token with `f`,
/// and require the list to be non-empty.
fn list_then<T>(
    line: &str,
    key: &str,
    line_no: usize,
    f: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, ProtocolError> {
    let raw = json::str_field(line, key)
        .ok_or_else(|| ProtocolError::new(line_no, format!("missing field {key:?}")))?;
    let items: Result<Vec<T>, ProtocolError> = raw
        .split_whitespace()
        .map(|tok| f(tok).map_err(|m| ProtocolError::new(line_no, m)))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(ProtocolError::new(line_no, format!("empty list {key:?}")));
    }
    Ok(items)
}

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
        let schema = json::str_field(line, "schema")
            .ok_or_else(|| ProtocolError::new(1, "header has no \"schema\" field"))?;
        if schema != REQUEST_SCHEMA {
            return Err(ProtocolError::new(
                1,
                format!("unsupported schema {schema:?}, expected {REQUEST_SCHEMA:?}"),
            ));
        }
        let id = json::str_field(line, "id")
            .ok_or_else(|| ProtocolError::new(1, "header has no \"id\" field"))?;
        if !valid_id(id) {
            return Err(ProtocolError::new(
                1,
                format!("invalid id {id:?} (want 1-{MAX_ID_LEN} chars of [A-Za-z0-9_-])"),
            ));
        }
        let kind = json::str_field(line, "kind")
            .ok_or_else(|| ProtocolError::new(1, "header has no \"kind\" field"))?;
        let lines = json::u64_field(line, "lines")
            .ok_or_else(|| ProtocolError::new(1, "header has no \"lines\" field"))?;
        let lines = usize::try_from(lines)
            .ok()
            .filter(|l| *l <= 1_000_000)
            .ok_or_else(|| ProtocolError::new(1, format!("unreasonable body size {lines}")))?;
        Ok(RequestHeader {
            id: id.to_owned(),
            kind: kind.to_owned(),
            lines,
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
    /// The search winner (follows every Candidate).
    Winner {
        /// Flattened index of the winning candidate.
        index: u64,
        /// Winning score.
        score: f64,
        /// Points actually evaluated.
        evaluated: u64,
    },
    /// One flow's latency under both designs of a trace diff (NaN on a
    /// side that delivered nothing for the flow).
    FlowDiff {
        /// Flow id.
        flow: u64,
        /// Baseline average head latency.
        baseline: f64,
        /// Candidate average head latency.
        candidate: f64,
    },
    /// Trace-diff aggregates (follows every FlowDiff).
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
    /// than Accepted's count if the job was cancelled mid-run).
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
    /// Render as one response line (no trailing newline).
    /// [`ResponseEvent::parse`] inverts this exactly (modulo NaN,
    /// which is canonical).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            ResponseEvent::Accepted { id, cells } => format!(
                "{{\"schema\":\"{RESPONSE_SCHEMA}\",\"event\":\"accepted\",\"id\":\"{id}\",\
                 \"cells\":{cells}}}"
            ),
            ResponseEvent::Cell {
                index,
                design,
                workload,
                injected,
                delivered,
                flits,
                latency,
                measured,
                cycles,
                cached,
            } => format!(
                "{{\"event\":\"cell\",\"index\":{index},\"design\":\"{design}\",\
                 \"workload\":\"{workload}\",\"injected\":{injected},\"delivered\":{delivered},\
                 \"flits\":{flits},\"latency\":{},\"measured\":{measured},\"cycles\":{cycles},\
                 \"cached\":{cached}}}",
                json::fmt_f64(*latency)
            ),
            ResponseEvent::Phase {
                index,
                phase,
                design,
                workload,
                delivered,
                latency,
                drain_cycles,
                stores,
            } => format!(
                "{{\"event\":\"phase\",\"index\":{index},\"phase\":{phase},\
                 \"design\":\"{design}\",\"workload\":\"{workload}\",\"delivered\":{delivered},\
                 \"latency\":{},\"drain_cycles\":{drain_cycles},\"stores\":{stores}}}",
                json::fmt_f64(*latency)
            ),
            ResponseEvent::CellError { index, message } => format!(
                "{{\"event\":\"cell_error\",\"index\":{index},\"message\":\"{}\"}}",
                json::escape_str(message)
            ),
            ResponseEvent::Candidate {
                index,
                design,
                workload,
                hpc,
                energy_pj,
                area_mm2,
                cycles,
                score,
            } => format!(
                "{{\"event\":\"candidate\",\"index\":{index},\"design\":\"{design}\",\
                 \"workload\":\"{workload}\",\"hpc\":{hpc},\"energy_pj\":{},\"area_mm2\":{},\
                 \"cycles\":{},\"score\":{}}}",
                json::fmt_f64(*energy_pj),
                json::fmt_f64(*area_mm2),
                json::fmt_f64(*cycles),
                json::fmt_f64(*score)
            ),
            ResponseEvent::Winner {
                index,
                score,
                evaluated,
            } => format!(
                "{{\"event\":\"winner\",\"index\":{index},\"score\":{},\"evaluated\":{evaluated}}}",
                json::fmt_f64(*score)
            ),
            ResponseEvent::FlowDiff {
                flow,
                baseline,
                candidate,
            } => format!(
                "{{\"event\":\"flow_diff\",\"flow\":{flow},\"baseline\":{},\"candidate\":{}}}",
                json::fmt_f64(*baseline),
                json::fmt_f64(*candidate)
            ),
            ResponseEvent::DiffSummary {
                baseline,
                candidate,
                delivered_delta,
                flit_delta,
                latency_delta,
            } => format!(
                "{{\"event\":\"diff_summary\",\"baseline\":\"{baseline}\",\
                 \"candidate\":\"{candidate}\",\"delivered_delta\":{delivered_delta},\
                 \"flit_delta\":{flit_delta},\"latency_delta\":{}}}",
                json::fmt_f64(*latency_delta)
            ),
            ResponseEvent::Metric {
                index,
                end,
                setups,
                grants,
                premature,
                injected,
                delivered,
                buffered,
                bypass,
            } => format!(
                "{{\"event\":\"metric\",\"index\":{index},\"end\":{end},\"setups\":{setups},\
                 \"grants\":{grants},\"premature\":{premature},\"injected\":{injected},\
                 \"delivered\":{delivered},\"buffered\":{buffered},\"bypass\":\"{}\"}}",
                json::escape_str(bypass)
            ),
            // The queue-depth and wall-time fields render only when
            // nonzero, so documents from before they existed stay
            // byte-identical (absent on parse ⇒ 0).
            ResponseEvent::Stats {
                jobs,
                cache_hits,
                cache_misses,
                cached_designs,
                active_jobs,
                busy_ms,
            } => format!(
                "{{\"event\":\"stats\",\"jobs\":{jobs},\"cache_hits\":{cache_hits},\
                 \"cache_misses\":{cache_misses},\"cached_designs\":{cached_designs}{}{}}}",
                opt_u64_field("active_jobs", *active_jobs),
                opt_u64_field("busy_ms", *busy_ms)
            ),
            ResponseEvent::Done {
                id,
                cells,
                cache_hits,
            } => format!(
                "{{\"event\":\"done\",\"id\":\"{id}\",\"cells\":{cells},\
                 \"cache_hits\":{cache_hits}}}"
            ),
            ResponseEvent::Error { id, message } => format!(
                "{{\"event\":\"error\",\"id\":\"{id}\",\"message\":\"{}\"}}",
                json::escape_str(message)
            ),
        }
    }

    /// `true` for the events that end a response stream.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ResponseEvent::Done { .. } | ResponseEvent::Error { .. }
        )
    }

    /// Render a [`ResponseEvent::Cell`] in exactly the
    /// `ExperimentReport::snapshot_line` format, so streamed results
    /// can be compared bit-for-bit against direct harness runs.
    /// Returns `None` for other event kinds.
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
            } => Some(format!(
                "{design}/{workload} injected={injected} delivered={delivered} flits={flits} \
                 latency={latency} measured={measured}"
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
        let event = json::str_field(line, "event")
            .ok_or_else(|| format!("response line has no \"event\" field: {line}"))?;
        let s = |key: &str| {
            json::str_field(line, key)
                .map(str::to_owned)
                .ok_or_else(|| format!("{event} event missing {key:?}"))
        };
        let u = |key: &str| {
            json::u64_field(line, key).ok_or_else(|| format!("{event} event missing {key:?}"))
        };
        let i = |key: &str| {
            json::i64_field(line, key).ok_or_else(|| format!("{event} event missing {key:?}"))
        };
        let f = |key: &str| {
            json::f64_field(line, key).ok_or_else(|| format!("{event} event missing {key:?}"))
        };
        match event {
            "accepted" => {
                let schema = json::str_field(line, "schema")
                    .ok_or_else(|| "accepted event missing \"schema\"".to_owned())?;
                if schema != RESPONSE_SCHEMA {
                    return Err(format!(
                        "unsupported schema {schema:?}, expected {RESPONSE_SCHEMA:?}"
                    ));
                }
                Ok(ResponseEvent::Accepted {
                    id: s("id")?,
                    cells: u("cells")?,
                })
            }
            "cell" => Ok(ResponseEvent::Cell {
                index: u("index")?,
                design: s("design")?,
                workload: s("workload")?,
                injected: u("injected")?,
                delivered: u("delivered")?,
                flits: u("flits")?,
                latency: f("latency")?,
                measured: u("measured")?,
                cycles: u("cycles")?,
                cached: bool_field(line, "cached")?,
            }),
            "phase" => Ok(ResponseEvent::Phase {
                index: u("index")?,
                phase: u("phase")?,
                design: s("design")?,
                workload: s("workload")?,
                delivered: u("delivered")?,
                latency: f("latency")?,
                drain_cycles: u("drain_cycles")?,
                stores: u("stores")?,
            }),
            "cell_error" => Ok(ResponseEvent::CellError {
                index: u("index")?,
                message: json::unescape_str(&s("message")?),
            }),
            "candidate" => Ok(ResponseEvent::Candidate {
                index: u("index")?,
                design: s("design")?,
                workload: s("workload")?,
                hpc: u("hpc")?,
                energy_pj: f("energy_pj")?,
                area_mm2: f("area_mm2")?,
                cycles: f("cycles")?,
                score: f("score")?,
            }),
            "winner" => Ok(ResponseEvent::Winner {
                index: u("index")?,
                score: f("score")?,
                evaluated: u("evaluated")?,
            }),
            "flow_diff" => Ok(ResponseEvent::FlowDiff {
                flow: u("flow")?,
                baseline: f("baseline")?,
                candidate: f("candidate")?,
            }),
            "diff_summary" => Ok(ResponseEvent::DiffSummary {
                baseline: s("baseline")?,
                candidate: s("candidate")?,
                delivered_delta: i("delivered_delta")?,
                flit_delta: i("flit_delta")?,
                latency_delta: f("latency_delta")?,
            }),
            "metric" => Ok(ResponseEvent::Metric {
                index: u("index")?,
                end: u("end")?,
                setups: u("setups")?,
                grants: u("grants")?,
                premature: u("premature")?,
                injected: u("injected")?,
                delivered: u("delivered")?,
                buffered: u("buffered")?,
                bypass: json::unescape_str(&s("bypass")?),
            }),
            "stats" => Ok(ResponseEvent::Stats {
                jobs: u("jobs")?,
                cache_hits: u("cache_hits")?,
                cache_misses: u("cache_misses")?,
                cached_designs: u("cached_designs")?,
                active_jobs: json::u64_field(line, "active_jobs").unwrap_or(0),
                busy_ms: json::u64_field(line, "busy_ms").unwrap_or(0),
            }),
            "done" => Ok(ResponseEvent::Done {
                id: s("id")?,
                cells: u("cells")?,
                cache_hits: u("cache_hits")?,
            }),
            "error" => Ok(ResponseEvent::Error {
                id: s("id")?,
                message: json::unescape_str(&s("message")?),
            }),
            other => Err(format!("unknown response event {other:?}")),
        }
    }
}

/// Render an optional numeric field: empty when zero (the default), so
/// documents written before the field existed stay byte-identical.
fn opt_u64_field(key: &str, value: u64) -> String {
    if value == 0 {
        String::new()
    } else {
        format!(",\"{key}\":{value}")
    }
}

/// Extract a `"key":true|false` field.
fn bool_field(line: &str, key: &str) -> Result<bool, String> {
    let needle = format!("\"{key}\":");
    let rest = &line[line
        .find(&needle)
        .ok_or_else(|| format!("missing field {key:?}"))?
        + needle.len()..];
    if rest.starts_with("true") {
        Ok(true)
    } else if rest.starts_with("false") {
        Ok(false)
    } else {
        Err(format!("field {key:?} is not a boolean"))
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
        assert!(WorkloadSpec::parse("uniform:4:0.1:5").is_ok());
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
