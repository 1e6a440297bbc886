//! Cycle-windowed telemetry: the [`Probe`] hook surface and the
//! [`MetricsCollector`] time-series built on it.
//!
//! The paper's claims are about *dynamic* behavior — how far SSR-granted
//! bypass paths actually reach per cycle, where flits stop prematurely,
//! where contention concentrates — which end-of-run aggregates cannot
//! show. This module threads a probe through the engine's hot path:
//!
//! * [`Probe`] is a **monomorphized** hook trait. The engine's step is
//!   generic over it and instantiated twice: once with [`NoProbe`]
//!   (every hook an empty inline body behind `P::ENABLED = false`, so
//!   the optimizer deletes the calls — the build every benchmark
//!   workload measures) and once with [`MetricsCollector`].
//! * [`MetricsCollector`] accumulates per-window counters (SSR
//!   setup/grant/deny with per-router stall causes, achieved
//!   bypass-length histogram, per-link flit deltas, injection/ejection
//!   and buffer occupancy) and closes a [`MetricsWindow`] every
//!   `window` cycles.
//! * [`TelemetrySeries`] is the finished time-series, serialized as the
//!   versioned JSONL schema `smart-telemetry/metrics-v1` (written and
//!   read with [`crate::jsonl`]). Per-shard collectors
//!   merge deterministically ([`TelemetrySeries::merge`]): every probe
//!   event fires in exactly one shard and windows close at identical
//!   global cycles, so sharded telemetry equals serial telemetry
//!   byte-for-byte.
//!
//! SSR vocabulary (Section III of the paper): a head flit presenting a
//! switch-allocation request at a stop router is an **SSR setup**; a
//! setup that wins (establishing the multi-hop hold) is a **grant**;
//! anything else is a **deny** with a [`StallCause`] — and every deny is
//! a **premature stop**, a flit parked in a buffer where an ideal run
//! would have bypassed onward.

use crate::jsonl::{self, Line};
use crate::topology::PORTS;
use std::fmt::{self, Write};

/// Bypass-length histogram buckets: a leg crosses `0..=64` links in one
/// cycle (64 is the widest supported fabric dimension; bucket 0 is a
/// local/ejection leg that crosses no inter-router link).
pub const BYPASS_BUCKETS: usize = 65;

/// Why a presented SSR setup was denied this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The requested output had no free VC at its leg endpoint.
    NoFreeVc,
    /// The requested output is held by another packet's stream.
    HeldOutput,
    /// Lost the output's round-robin arbitration to another head.
    OutputArb,
    /// Won the output but lost the one-flit-per-input-port conflict.
    PortConflict,
}

impl StallCause {
    /// All causes, in stall-vector index order.
    pub const ALL: [StallCause; 4] = [
        StallCause::NoFreeVc,
        StallCause::HeldOutput,
        StallCause::OutputArb,
        StallCause::PortConflict,
    ];

    /// Number of causes (the per-router stall vector stride).
    pub const COUNT: usize = 4;

    /// Index of this cause within a per-router stall vector.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StallCause::NoFreeVc => 0,
            StallCause::HeldOutput => 1,
            StallCause::OutputArb => 2,
            StallCause::PortConflict => 3,
        }
    }

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StallCause::NoFreeVc => "no_free_vc",
            StallCause::HeldOutput => "held_output",
            StallCause::OutputArb => "output_arb",
            StallCause::PortConflict => "port_conflict",
        }
    }
}

/// The engine state a probe may sample at the end of each cycle.
///
/// All counter fields are *cumulative since the last counter reset*;
/// the collector turns them into per-window figures by differencing.
#[derive(Debug)]
pub struct CycleView<'a> {
    /// Cycles fully processed (the cycle that just ended is `cycle - 1`
    /// in absolute terms; this is the engine's post-step clock).
    pub cycle: u64,
    /// Packets injected since the last counter reset.
    pub injected: u64,
    /// Packets delivered since the last counter reset.
    pub delivered: u64,
    /// Flits currently buffered in router input VCs.
    pub buffered: u64,
    /// Flits carried per link since the last counter reset, indexed
    /// `node * 5 + dir`.
    pub link_flits: &'a [u64],
}

/// The monomorphized telemetry hook surface.
///
/// The engine's cycle step is generic over `P: Probe` and every
/// data-gathering call is guarded by `if P::ENABLED { .. }`, so the
/// [`NoProbe`] instantiation const-folds to the exact pre-telemetry hot
/// path. Implementations must be cheap: hooks fire inside switch
/// allocation and flit launch.
pub trait Probe {
    /// `false` compiles every hook (and its argument computation) out.
    const ENABLED: bool;

    /// A flit launched onto a leg crossing `links` links in one cycle
    /// (the *achieved* bypass length; 0 = local/ejection leg).
    #[inline]
    fn on_launch(&mut self, _links: u8) {}

    /// `n` head flits presented SSR setups this cycle (at one output of
    /// one router).
    #[inline]
    fn on_ssr_setups(&mut self, _n: u32) {}

    /// One presented setup was granted (a multi-hop hold established).
    #[inline]
    fn on_ssr_grant(&mut self) {}

    /// `n` presented setups at `router` were denied for `cause` — each
    /// is a premature stop.
    #[inline]
    fn on_stall(&mut self, _router: u32, _cause: StallCause, _n: u32) {}

    /// The cycle ended; `view` exposes the sampling surface.
    #[inline]
    fn on_cycle_end(&mut self, _view: &CycleView<'_>) {}
}

/// The telemetry-off probe: every hook is a no-op the optimizer deletes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;
}

/// How telemetry is collected: the windowing parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Cycles per metrics window (a [`MetricsWindow`] closes every
    /// `window` cycles; a trailing partial window closes on detach).
    pub window: u64,
}

impl TelemetryConfig {
    /// A config snapshotting every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn windowed(window: u64) -> Self {
        assert!(window > 0, "telemetry windows must span at least 1 cycle");
        TelemetryConfig { window }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { window: 1024 }
    }
}

/// One closed metrics window: everything observed over `window` cycles
/// (or the trailing partial span) ending at `end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsWindow {
    /// Engine cycle at which the window closed.
    pub end: u64,
    /// SSR setups presented during the window.
    pub ssr_setups: u64,
    /// SSR setups granted during the window.
    pub ssr_grants: u64,
    /// Achieved bypass lengths of flit launches during the window,
    /// bucketed by links crossed ([`BYPASS_BUCKETS`] buckets).
    pub bypass: Vec<u64>,
    /// Per-router stall causes, `router * StallCause::COUNT + cause`.
    pub stalls: Vec<u64>,
    /// Flits carried per link *during this window* (delta of the
    /// cumulative per-link counts), indexed `node * 5 + dir`.
    pub link_flits: Vec<u64>,
    /// Packets injected since the last counter reset (cumulative at
    /// close, so shard merges sum to the serial figure).
    pub injected: u64,
    /// Packets delivered since the last counter reset (cumulative).
    pub delivered: u64,
    /// Flits buffered in router input VCs when the window closed.
    pub buffered: u64,
}

impl MetricsWindow {
    /// Denied setups — premature stops — during the window.
    #[must_use]
    pub fn premature_stops(&self) -> u64 {
        self.ssr_setups - self.ssr_grants
    }

    /// Packets in flight when the window closed (cumulative injected
    /// minus delivered; saturating because a mid-run counter reset lets
    /// warm-up deliveries outnumber post-reset injections).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.injected.saturating_sub(self.delivered)
    }

    /// The window's bypass histogram in the metrics-v1 sparse form:
    /// ascending space-separated `"len:count"` pairs for nonzero
    /// buckets, empty when no flit launched.
    #[must_use]
    pub fn bypass_sparse(&self) -> String {
        let mut out = String::new();
        render_sparse(&mut out, &self.bypass);
        out
    }
}

/// The telemetry-on probe: accumulates the current window and closes a
/// [`MetricsWindow`] every `window` cycles.
///
/// Attach one per engine (per shard when sharded) via the engine's
/// `set_telemetry`; detach with `take_telemetry`, which flushes the
/// trailing partial window and returns the [`TelemetrySeries`].
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    window: u64,
    routers: usize,
    links: usize,
    attach_cycle: u64,
    next_close: u64,
    bypass: Vec<u64>,
    ssr_setups: u64,
    ssr_grants: u64,
    stalls: Vec<u64>,
    /// Cumulative per-link counts at the last window close, for deltas.
    prev_links: Vec<u64>,
    windows: Vec<MetricsWindow>,
}

impl MetricsCollector {
    /// A collector attached at `cycle` to an engine (or shard) with
    /// `routers` routers and `links` link slots, whose cumulative
    /// per-link counts currently read `link_flits`.
    #[must_use]
    pub fn attach(cfg: TelemetryConfig, routers: usize, links: usize, cycle: u64) -> Self {
        assert!(
            cfg.window > 0,
            "telemetry windows must span at least 1 cycle"
        );
        MetricsCollector {
            window: cfg.window,
            routers,
            links,
            attach_cycle: cycle,
            next_close: cycle + cfg.window,
            bypass: vec![0; BYPASS_BUCKETS],
            ssr_setups: 0,
            ssr_grants: 0,
            stalls: vec![0; routers * StallCause::COUNT],
            prev_links: vec![0; links],
            windows: Vec::new(),
        }
    }

    /// Seed the per-link baseline from the engine's current cumulative
    /// counts (call at attach, and again after a counter reset).
    pub fn seed_links(&mut self, link_flits: &[u64]) {
        self.prev_links.copy_from_slice(link_flits);
    }

    /// End of the most recently closed window (the attach cycle before
    /// any window closed).
    fn last_close(&self) -> u64 {
        self.windows.last().map_or(self.attach_cycle, |w| w.end)
    }

    fn close(&mut self, view: &CycleView<'_>) {
        let mut link_flits = vec![0u64; self.links];
        for (d, (now, prev)) in link_flits
            .iter_mut()
            .zip(view.link_flits.iter().zip(self.prev_links.iter()))
        {
            *d = now - prev;
        }
        self.prev_links.copy_from_slice(view.link_flits);
        self.windows.push(MetricsWindow {
            end: view.cycle,
            ssr_setups: std::mem::take(&mut self.ssr_setups),
            ssr_grants: std::mem::take(&mut self.ssr_grants),
            bypass: std::mem::replace(&mut self.bypass, vec![0; BYPASS_BUCKETS]),
            stalls: std::mem::replace(&mut self.stalls, vec![0; self.routers * StallCause::COUNT]),
            link_flits,
            injected: view.injected,
            delivered: view.delivered,
            buffered: view.buffered,
        });
    }

    /// Flush the trailing partial window (if any cycles elapsed since
    /// the last close) and return the finished series.
    #[must_use]
    pub fn finish(mut self, view: &CycleView<'_>) -> TelemetrySeries {
        if view.cycle > self.last_close() {
            self.close(view);
        }
        TelemetrySeries {
            window: self.window,
            routers: self.routers,
            links: self.links,
            label: None,
            windows: self.windows,
        }
    }
}

impl Probe for MetricsCollector {
    const ENABLED: bool = true;

    #[inline]
    fn on_launch(&mut self, links: u8) {
        self.bypass[(links as usize).min(BYPASS_BUCKETS - 1)] += 1;
    }

    #[inline]
    fn on_ssr_setups(&mut self, n: u32) {
        self.ssr_setups += u64::from(n);
    }

    #[inline]
    fn on_ssr_grant(&mut self) {
        self.ssr_grants += 1;
    }

    #[inline]
    fn on_stall(&mut self, router: u32, cause: StallCause, n: u32) {
        self.stalls[router as usize * StallCause::COUNT + cause.index()] += u64::from(n);
    }

    #[inline]
    fn on_cycle_end(&mut self, view: &CycleView<'_>) {
        if view.cycle >= self.next_close {
            self.close(view);
            self.next_close += self.window;
        }
    }
}

/// A finished windowed time-series, serializable as
/// `smart-telemetry/metrics-v1` JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySeries {
    /// Cycles per window.
    pub window: u64,
    /// Routers covered (stall vectors are `routers * 4` long).
    pub routers: usize,
    /// Link slots covered (`nodes * 5`).
    pub links: usize,
    /// Optional label (schedule phases tag their series here).
    pub label: Option<String>,
    /// The closed windows, in time order.
    pub windows: Vec<MetricsWindow>,
}

/// The schema tag of the telemetry wire format.
pub const METRICS_SCHEMA: &str = "smart-telemetry/metrics-v1";

/// Most routers a metrics-v1 header may declare: the widest supported
/// fabric is 64 × 64.
const MAX_ROUTERS: u64 = 64 * 64;

impl TelemetrySeries {
    /// Total SSR setups across all windows.
    #[must_use]
    pub fn ssr_setups(&self) -> u64 {
        self.windows.iter().map(|w| w.ssr_setups).sum()
    }

    /// Total SSR grants across all windows.
    #[must_use]
    pub fn ssr_grants(&self) -> u64 {
        self.windows.iter().map(|w| w.ssr_grants).sum()
    }

    /// Total premature stops (denied setups) across all windows.
    #[must_use]
    pub fn premature_stops(&self) -> u64 {
        self.windows
            .iter()
            .map(MetricsWindow::premature_stops)
            .sum()
    }

    /// Bypass-length histogram summed across all windows.
    #[must_use]
    pub fn bypass_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; BYPASS_BUCKETS];
        for w in &self.windows {
            for (t, b) in totals.iter_mut().zip(w.bypass.iter()) {
                *t += b;
            }
        }
        totals
    }

    /// The longest achieved bypass (highest nonzero histogram bucket),
    /// or `None` if nothing launched.
    #[must_use]
    pub fn max_bypass(&self) -> Option<usize> {
        self.bypass_totals().iter().rposition(|&n| n > 0)
    }

    /// Merge per-shard series into the global series, summing every
    /// window elementwise. Shards run in lockstep, so their windows
    /// close at identical cycles; each probe event fires in exactly one
    /// shard; and the cumulative counters partition across shards —
    /// the merge therefore reproduces the serial series bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if the shard series disagree on shape or window
    /// boundaries (an engine bug, not an input error).
    #[must_use]
    pub fn merge(shards: &[TelemetrySeries]) -> TelemetrySeries {
        let first = shards.first().expect("merging at least one shard series");
        let mut out = first.clone();
        for s in &shards[1..] {
            assert_eq!(s.window, out.window, "shard telemetry window mismatch");
            assert_eq!(s.routers, out.routers, "shard telemetry router mismatch");
            assert_eq!(s.links, out.links, "shard telemetry link mismatch");
            assert_eq!(
                s.windows.len(),
                out.windows.len(),
                "shard telemetry window count mismatch"
            );
            for (a, b) in out.windows.iter_mut().zip(s.windows.iter()) {
                assert_eq!(a.end, b.end, "shard telemetry window boundary mismatch");
                a.ssr_setups += b.ssr_setups;
                a.ssr_grants += b.ssr_grants;
                for (x, y) in a.bypass.iter_mut().zip(b.bypass.iter()) {
                    *x += y;
                }
                for (x, y) in a.stalls.iter_mut().zip(b.stalls.iter()) {
                    *x += y;
                }
                for (x, y) in a.link_flits.iter_mut().zip(b.link_flits.iter()) {
                    *x += y;
                }
                a.injected += b.injected;
                a.delivered += b.delivered;
                a.buffered += b.buffered;
            }
        }
        out
    }

    /// Serialize as `smart-telemetry/metrics-v1`: a header line
    /// declaring the shape, then one line per window. Vector fields use
    /// sparse `index:value` (or `router:a:b:c:d` for stalls) entries in
    /// ascending index order, so lightly loaded windows stay short.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        Line::open(&mut out)
            .str("schema", METRICS_SCHEMA)
            .u64("window", self.window)
            .u64("routers", self.routers as u64)
            .u64("links", self.links as u64)
            .opt_str("label", self.label.as_deref())
            .u64("windows", self.windows.len() as u64)
            .close();
        out.push('\n');
        for w in &self.windows {
            Line::open(&mut out)
                .u64("end", w.end)
                .u64("ssr_setups", w.ssr_setups)
                .u64("ssr_grants", w.ssr_grants)
                .u64("injected", w.injected)
                .u64("delivered", w.delivered)
                .u64("buffered", w.buffered)
                .str_with("bypass", |out| render_sparse(out, &w.bypass))
                .str_with("stalls", |out| render_stalls(out, &w.stalls))
                .str_with("links", |out| render_sparse(out, &w.link_flits))
                .close();
            out.push('\n');
        }
        out
    }

    /// Parse a `smart-telemetry/metrics-v1` document. Never panics on
    /// malformed input — every defect is a typed [`MetricsParseError`]
    /// naming the offending line.
    pub fn parse(text: &str) -> Result<TelemetrySeries, MetricsParseError> {
        let mut lines = jsonl::numbered_lines(text);
        let (_, header) = lines
            .next()
            .ok_or_else(|| MetricsParseError::at(1, "empty document"))?;
        let schema = jsonl::str_field(header, "schema")
            .ok_or_else(|| MetricsParseError::at(1, "missing schema"))?;
        if schema != METRICS_SCHEMA {
            return Err(MetricsParseError::at(
                1,
                format!("unsupported schema {schema:?} (want {METRICS_SCHEMA:?})"),
            ));
        }
        let head = |key: &str, what: &str| {
            jsonl::u64_field(header, key)
                .ok_or_else(|| MetricsParseError::at(1, format!("missing {what}")))
        };
        let window = head("window", "window")?;
        if window == 0 {
            return Err(MetricsParseError::at(1, "window must be nonzero"));
        }
        // Every window line materializes vectors of the declared shape,
        // so the shape is held to the largest supported fabric.
        let shape = |key: &str, max: u64| match head(key, key)? {
            n if n <= max => Ok(n as usize),
            n => Err(MetricsParseError::at(
                1,
                format!("{key} {n} outside 0..={max}"),
            )),
        };
        let routers = shape("routers", MAX_ROUTERS)?;
        let links = shape("links", MAX_ROUTERS * PORTS as u64)?;
        let declared = head("windows", "window count")?;
        let label = jsonl::str_field(header, "label")
            .map(|raw| {
                jsonl::unescape(raw)
                    .ok_or_else(|| MetricsParseError::at(1, "malformed label escape"))
            })
            .transpose()?;
        let window_line = |(lineno, line): (usize, &str)| {
            let field = |key: &str| {
                jsonl::u64_field(line, key)
                    .ok_or_else(|| MetricsParseError::at(lineno, format!("missing {key}")))
            };
            let vector = |key: &str, parse: &dyn Fn(&str) -> Result<Vec<u64>, String>| {
                let raw = jsonl::str_field(line, key)
                    .ok_or_else(|| MetricsParseError::at(lineno, format!("missing {key}")))?;
                parse(raw).map_err(|m| {
                    MetricsParseError::at(lineno, format!("malformed {key} entry: {m}"))
                })
            };
            Ok(MetricsWindow {
                end: field("end")?,
                ssr_setups: field("ssr_setups")?,
                ssr_grants: field("ssr_grants")?,
                injected: field("injected")?,
                delivered: field("delivered")?,
                buffered: field("buffered")?,
                bypass: vector("bypass", &|raw| parse_sparse(raw, BYPASS_BUCKETS))?,
                stalls: vector("stalls", &|raw| parse_stalls(raw, routers))?,
                link_flits: vector("links", &|raw| parse_sparse(raw, links))?,
            })
        };
        let windows = jsonl::read_declared((declared, "windows"), lines, window_line, |m| {
            MetricsParseError::at(1, format!("header {m}"))
        })?;
        Ok(TelemetrySeries {
            window,
            routers,
            links,
            label,
            windows,
        })
    }
}

/// A defect found while parsing a metrics-v1 document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsParseError {
    /// 1-based line of the defect.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl MetricsParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        MetricsParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for MetricsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MetricsParseError {}

/// Sparse vector encoding: ascending `index:value` entries for nonzero
/// slots, space separated; the empty string is the zero vector.
fn render_sparse(out: &mut String, v: &[u64]) {
    let start = out.len();
    for (i, n) in v.iter().enumerate().filter(|(_, n)| **n > 0) {
        if out.len() > start {
            out.push(' ');
        }
        let _ = write!(out, "{i}:{n}");
    }
}

fn parse_sparse(raw: &str, len: usize) -> Result<Vec<u64>, String> {
    let mut v = vec![0u64; len];
    for entry in raw.split_ascii_whitespace() {
        let (i, n) = entry
            .split_once(':')
            .ok_or_else(|| format!("{entry:?} is not index:value"))?;
        let i: usize = i.parse().map_err(|_| format!("bad index in {entry:?}"))?;
        let n: u64 = n.parse().map_err(|_| format!("bad value in {entry:?}"))?;
        if i >= len {
            return Err(format!("index {i} out of range (len {len})"));
        }
        v[i] = n;
    }
    Ok(v)
}

/// Stall encoding: ascending `router:a:b:c:d` entries (the four
/// [`StallCause`]s) for routers with any nonzero cause.
fn render_stalls(out: &mut String, stalls: &[u64]) {
    let start = out.len();
    for (r, chunk) in stalls.chunks_exact(StallCause::COUNT).enumerate() {
        if chunk.iter().all(|&n| n == 0) {
            continue;
        }
        if out.len() > start {
            out.push(' ');
        }
        let _ = write!(
            out,
            "{r}:{}:{}:{}:{}",
            chunk[0], chunk[1], chunk[2], chunk[3]
        );
    }
}

fn parse_stalls(raw: &str, routers: usize) -> Result<Vec<u64>, String> {
    let mut v = vec![0u64; routers * StallCause::COUNT];
    for entry in raw.split_ascii_whitespace() {
        let mut parts = entry.split(':');
        let r: usize = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad router in {entry:?}"))?;
        if r >= routers {
            return Err(format!("router {r} out of range ({routers} routers)"));
        }
        for c in 0..StallCause::COUNT {
            v[r * StallCause::COUNT + c] = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("missing cause {c} in {entry:?}"))?;
        }
        if parts.next().is_some() {
            return Err(format!("too many causes in {entry:?}"));
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(cycle: u64, links: &[u64]) -> CycleView<'_> {
        CycleView {
            cycle,
            injected: cycle * 2,
            delivered: cycle,
            buffered: 3,
            link_flits: links,
        }
    }

    #[test]
    fn collector_closes_windows_on_schedule() {
        let mut c = MetricsCollector::attach(TelemetryConfig::windowed(10), 2, 4, 100);
        let links = [5u64, 0, 7, 0];
        c.on_launch(3);
        c.on_ssr_setups(2);
        c.on_ssr_grant();
        c.on_stall(1, StallCause::OutputArb, 1);
        for cy in 101..=110 {
            c.on_cycle_end(&view(cy, &links));
        }
        assert_eq!(c.windows.len(), 1);
        let w = &c.windows[0];
        assert_eq!(w.end, 110);
        assert_eq!(w.ssr_setups, 2);
        assert_eq!(w.ssr_grants, 1);
        assert_eq!(w.premature_stops(), 1);
        assert_eq!(w.bypass[3], 1);
        assert_eq!(w.stalls[StallCause::COUNT + 2], 1);
        assert_eq!(w.link_flits, vec![5, 0, 7, 0]);
        // Second window sees only the delta.
        let links2 = [6u64, 0, 7, 1];
        let series = c.finish(&view(115, &links2));
        assert_eq!(series.windows.len(), 2);
        assert_eq!(series.windows[1].end, 115, "partial window flushed");
        assert_eq!(series.windows[1].link_flits, vec![1, 0, 0, 1]);
    }

    #[test]
    fn finish_without_progress_adds_no_window() {
        let mut c = MetricsCollector::attach(TelemetryConfig::windowed(10), 1, 2, 0);
        let links = [4u64, 4];
        for cy in 1..=10 {
            c.on_cycle_end(&view(cy, &links));
        }
        let series = c.finish(&view(10, &links));
        assert_eq!(series.windows.len(), 1);
    }

    #[test]
    fn series_round_trips_via_jsonl() {
        let series = TelemetrySeries {
            window: 10,
            routers: 2,
            links: 4,
            label: Some("phase0:VOPD \"live\"\n".to_owned()),
            windows: vec![MetricsWindow {
                end: 110,
                ssr_setups: 9,
                ssr_grants: 4,
                bypass: {
                    let mut b = vec![0; BYPASS_BUCKETS];
                    b[0] = 2;
                    b[8] = 5;
                    b
                },
                stalls: vec![0, 0, 0, 0, 1, 2, 3, 4],
                link_flits: vec![0, 9, 0, 1],
                injected: 20,
                delivered: 11,
                buffered: 6,
            }],
        };
        let text = series.to_jsonl();
        let parsed = TelemetrySeries::parse(&text).expect("round trip");
        assert_eq!(parsed, series);
        assert_eq!(parsed.to_jsonl(), text, "canonical form is stable");
    }

    #[test]
    fn merge_sums_shard_windows() {
        let mk = |setups: u64, link0: u64| TelemetrySeries {
            window: 5,
            routers: 1,
            links: 2,
            label: None,
            windows: vec![MetricsWindow {
                end: 5,
                ssr_setups: setups,
                ssr_grants: setups / 2,
                bypass: vec![0; BYPASS_BUCKETS],
                stalls: vec![1, 0, 0, 0],
                link_flits: vec![link0, 0],
                injected: 4,
                delivered: 2,
                buffered: 1,
            }],
        };
        let merged = TelemetrySeries::merge(&[mk(4, 10), mk(6, 3)]);
        assert_eq!(merged.windows[0].ssr_setups, 10);
        assert_eq!(merged.windows[0].ssr_grants, 5);
        assert_eq!(merged.windows[0].stalls[0], 2);
        assert_eq!(merged.windows[0].link_flits[0], 13);
        assert_eq!(merged.windows[0].injected, 8);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(TelemetrySeries::parse("").is_err());
        assert!(TelemetrySeries::parse("{\"schema\":\"wrong/v9\"}").is_err());
        let missing = format!("{{\"schema\":{METRICS_SCHEMA:?},\"window\":10}}");
        assert!(TelemetrySeries::parse(&missing).is_err());
        let bad_count = format!(
            "{{\"schema\":{METRICS_SCHEMA:?},\"window\":10,\"routers\":1,\"links\":2,\"windows\":3}}"
        );
        let err = TelemetrySeries::parse(&bad_count).expect_err("count mismatch");
        assert!(err.to_string().contains("declares 3"), "{err}");
        let bad_sparse = format!(
            "{{\"schema\":{METRICS_SCHEMA:?},\"window\":10,\"routers\":1,\"links\":2,\"windows\":1}}\n\
             {{\"end\":5,\"ssr_setups\":0,\"ssr_grants\":0,\"injected\":0,\"delivered\":0,\
             \"buffered\":0,\"bypass\":\"99:1\",\"stalls\":\"\",\"links\":\"\"}}"
        );
        assert!(TelemetrySeries::parse(&bad_sparse).is_err(), "oob bucket");
        // Shapes and counts a header cannot be trusted with: each must
        // come back as a typed error, not an overflow or a huge vector.
        for (routers, links, windows) in [
            (u64::MAX, 2, 1),
            (1, u64::MAX, 1),
            (64 * 64 + 1, 2, 0),
            (1, 2, u64::MAX),
        ] {
            let hostile = format!(
                "{{\"schema\":{METRICS_SCHEMA:?},\"window\":10,\"routers\":{routers},\
                 \"links\":{links},\"windows\":{windows}}}\n\
                 {{\"end\":5,\"ssr_setups\":0,\"ssr_grants\":0,\"injected\":0,\"delivered\":0,\
                 \"buffered\":0,\"bypass\":\"\",\"stalls\":\"\",\"links\":\"\"}}"
            );
            let err = TelemetrySeries::parse(&hostile).expect_err("hostile header");
            assert_eq!(err.line, 1, "{err}");
        }
    }

    #[test]
    fn stall_cause_indices_are_stable() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
