//! Trace record/replay: freeze any stochastic traffic scenario into a
//! versioned, reproducible artifact.
//!
//! A [`TraceFile`] is the `(cycle, flow)` injection schedule of one run
//! in a line-oriented JSONL format (`smart-traffic/trace-v1`): a header
//! object followed by one event object per line. [`TraceRecorder`]
//! captures the schedule from **any** live [`TrafficSource`] as it
//! generates. A trace replays as a [`ScriptedTraffic`] built from its
//! `events` and `flits_per_packet` — same cycles, same flows, same
//! per-cycle order (queue order at a shared source NIC matters), same
//! packet sizing — so a bursty or random run can be re-driven
//! bit-exactly, diffed, or shipped as a benchmark input.
//!
//! [`ScriptedTraffic`]: smart_sim::ScriptedTraffic

use smart_sim::jsonl::{self, Line};
use smart_sim::{FlowId, Packet, TrafficSource};
use std::fmt;

/// The schema tag written in (and required of) every trace header.
pub const TRACE_SCHEMA: &str = "smart-traffic/trace-v1";

/// A recorded injection schedule: which flow generated a packet at
/// which cycle, plus the packet sizing needed to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Flits per packet of the recorded run.
    pub flits_per_packet: u8,
    /// `(cycle, flow)` injection events, in recording order.
    pub events: Vec<(u64, FlowId)>,
}

/// A malformed trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line of the offending text (0 for a missing header).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl TraceParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }
}

impl TraceFile {
    /// Render as the versioned JSONL document: a header declaring the
    /// packet sizing and event count, then one line per event.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(32 * (self.events.len() + 1));
        Line::open(&mut s)
            .str("schema", TRACE_SCHEMA)
            .u64("flits_per_packet", u64::from(self.flits_per_packet))
            .u64("events", self.events.len() as u64)
            .close();
        s.push('\n');
        self.render_events(&mut s);
        s
    }

    /// Append the event lines (`{"cycle":…,"flow":…}`, one per event,
    /// each newline-terminated) to `out` — the body of a trace-v1
    /// document, and of any other document that embeds a trace.
    pub fn render_events(&self, out: &mut String) {
        for (cycle, flow) in &self.events {
            Line::open(out)
                .u64("cycle", *cycle)
                .u64("flow", u64::from(flow.0))
                .close();
            out.push('\n');
        }
    }

    /// Parse one event line (`lineno` is its 1-based position, for the
    /// error) — the inverse of one [`TraceFile::render_events`] line.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] for a missing field or a flow id
    /// that does not fit.
    pub fn parse_event((lineno, line): (usize, &str)) -> Result<(u64, FlowId), TraceParseError> {
        let field = |key: &str| {
            jsonl::u64_field(line, key).ok_or_else(|| {
                TraceParseError::at(lineno, format!("event has no {key:?} field: {line}"))
            })
        };
        let (cycle, flow) = (field("cycle")?, field("flow")?);
        let flow = u32::try_from(flow).map_err(|_| {
            TraceParseError::at(lineno, format!("flow id {flow} does not fit a u32"))
        })?;
        Ok((cycle, FlowId(flow)))
    }

    /// Parse a JSONL trace document.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] on a missing or wrong-schema
    /// header, a malformed line, or an event-count mismatch.
    pub fn parse(text: &str) -> Result<TraceFile, TraceParseError> {
        let mut lines = jsonl::numbered_lines(text);
        let (_, header) = lines
            .next()
            .ok_or_else(|| TraceParseError::at(0, "empty document (missing header)"))?;
        let schema = jsonl::str_field(header, "schema")
            .ok_or_else(|| TraceParseError::at(1, "header has no \"schema\" field"))?;
        if schema != TRACE_SCHEMA {
            return Err(TraceParseError::at(
                1,
                format!("unsupported schema {schema:?}, expected {TRACE_SCHEMA:?}"),
            ));
        }
        let head = |key: &str| {
            jsonl::u64_field(header, key)
                .ok_or_else(|| TraceParseError::at(1, format!("header has no {key:?} field")))
        };
        let (fpp, declared) = (head("flits_per_packet")?, head("events")?);
        let flits_per_packet = u8::try_from(fpp).map_err(|_| {
            TraceParseError::at(1, format!("flits_per_packet {fpp} does not fit a u8"))
        })?;
        let events =
            jsonl::read_declared((declared, "events"), lines, TraceFile::parse_event, |m| {
                TraceParseError::at(1, format!("header {m}"))
            })?;
        Ok(TraceFile {
            flits_per_packet,
            events,
        })
    }

    /// Write the JSONL document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Read and parse a JSONL trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or the parse error mapped into
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn read_from(path: impl AsRef<std::path::Path>) -> std::io::Result<TraceFile> {
        let text = std::fs::read_to_string(path)?;
        TraceFile::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The cycle of the last recorded event (`None` when empty).
    #[must_use]
    pub fn last_cycle(&self) -> Option<u64> {
        self.events.iter().map(|(c, _)| *c).max()
    }
}

/// A pass-through [`TrafficSource`] that records the `(cycle, flow)` of
/// every packet its inner source generates — attach to any live run,
/// then freeze the schedule with [`TraceRecorder::into_trace`].
pub struct TraceRecorder {
    inner: Box<dyn TrafficSource>,
    flits_per_packet: u8,
    events: Vec<(u64, FlowId)>,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("flits_per_packet", &self.flits_per_packet)
            .field("events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    /// Wrap `inner`, recording packets of `flits_per_packet` flits.
    #[must_use]
    pub fn new(inner: Box<dyn TrafficSource>, flits_per_packet: u8) -> Self {
        TraceRecorder {
            inner,
            flits_per_packet,
            events: Vec::new(),
        }
    }

    /// Events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[(u64, FlowId)] {
        &self.events
    }

    /// Freeze the recording into a replayable [`TraceFile`].
    #[must_use]
    pub fn into_trace(self) -> TraceFile {
        TraceFile {
            flits_per_packet: self.flits_per_packet,
            events: self.events,
        }
    }
}

impl TrafficSource for TraceRecorder {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        let packets = self.inner.generate(cycle);
        self.events
            .extend(packets.iter().map(|p| (p.gen_cycle, p.flow)));
        packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::{ModulatedTraffic, ScriptedTraffic, TemporalModel};

    /// The replay of `trace`: its events at its packet size.
    fn replay_of(trace: &TraceFile) -> ScriptedTraffic {
        ScriptedTraffic::new(trace.events.clone(), trace.flits_per_packet)
    }

    fn sample_trace() -> TraceFile {
        TraceFile {
            flits_per_packet: 8,
            events: vec![(0, FlowId(0)), (3, FlowId(1)), (3, FlowId(0))],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample_trace();
        let text = t.to_jsonl();
        assert!(text.starts_with(
            "{\"schema\":\"smart-traffic/trace-v1\",\"flits_per_packet\":8,\"events\":3}"
        ));
        assert_eq!(TraceFile::parse(&text), Ok(t));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = "{\"schema\":\"smart-traffic/trace-v9\",\"flits_per_packet\":8,\"events\":0}\n";
        let err = TraceFile::parse(text).expect_err("future schema");
        assert!(err.message.contains("unsupported schema"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn truncated_document_is_rejected() {
        let mut text = sample_trace().to_jsonl();
        text.truncate(text.rfind("{\"cycle\"").expect("has events"));
        let err = TraceFile::parse(&text).expect_err("event count mismatch");
        assert!(err.message.contains("declares 3 events, found 2"));
        assert_eq!(err.line, 1);
        // A count no document could hold is the same typed error: the
        // header is never trusted with an allocation.
        let hostile = text.replace("\"events\":3", "\"events\":18446744073709551615");
        let err = TraceFile::parse(&hostile).expect_err("hostile event count");
        assert!(
            err.message
                .contains("declares 18446744073709551615 events, found 2"),
            "{err}"
        );
    }

    #[test]
    fn garbage_line_is_rejected_with_position() {
        let text = "{\"schema\":\"smart-traffic/trace-v1\",\"flits_per_packet\":8,\"events\":1}\nnot json\n";
        let err = TraceFile::parse(text).expect_err("garbage");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn recorder_captures_the_generated_schedule() {
        let rates = [(FlowId(0), 0.3), (FlowId(1), 0.2)];
        let inner = ModulatedTraffic::new(TemporalModel::Steady, &rates, 8, 5);
        let mut rec = TraceRecorder::new(Box::new(inner), 8);
        let mut direct = ModulatedTraffic::new(TemporalModel::Steady, &rates, 8, 5);
        let mut expected = Vec::new();
        for c in 0..500 {
            let via = rec.generate(c);
            let raw = direct.generate(c);
            assert_eq!(via, raw, "recorder must be a pass-through");
            expected.extend(raw.iter().map(|p| (p.gen_cycle, p.flow)));
        }
        assert_eq!(rec.events(), &expected[..]);
        let trace = rec.into_trace();
        assert_eq!(trace.events, expected);
        assert_eq!(trace.flits_per_packet, 8);
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        let rates = [(FlowId(0), 0.25), (FlowId(1), 0.1)];
        let model = TemporalModel::on_off(0.05, 0.05);
        let inner = ModulatedTraffic::new(model, &rates, 8, 77);
        let mut rec = TraceRecorder::new(Box::new(inner), 8);
        let mut live: Vec<Packet> = Vec::new();
        for c in 0..2_000 {
            live.extend(rec.generate(c));
        }
        let trace = rec.into_trace();
        let mut replay = replay_of(&trace);
        let mut replayed: Vec<Packet> = Vec::new();
        for c in 0..2_000 {
            replayed.extend(replay.generate(c));
        }
        assert!(replay.exhausted());
        assert_eq!(live.len(), replayed.len());
        for (a, b) in live.iter().zip(&replayed) {
            // PacketIds are re-assigned by the replayer; everything the
            // network observes is identical.
            assert_eq!(
                (a.gen_cycle, a.flow, a.num_flits),
                (b.gen_cycle, b.flow, b.num_flits)
            );
        }
    }

    #[test]
    fn replay_preserves_same_cycle_order_for_unsorted_rates() {
        // Rates listed in descending flow-id order: the recorded
        // per-cycle order (1 before 0) dictates the queue order at a NIC
        // both flows leave from, and replay must preserve it.
        let rates = [(FlowId(1), 0.5), (FlowId(0), 0.5)];
        let inner = ModulatedTraffic::new(TemporalModel::Steady, &rates, 8, 21);
        let mut rec = TraceRecorder::new(Box::new(inner), 8);
        let mut live = Vec::new();
        for c in 0..200 {
            live.extend(rec.generate(c));
        }
        let trace = rec.into_trace();
        assert!(
            trace
                .events
                .iter()
                .any(|w| trace.events.iter().any(|v| v.0 == w.0 && v.1 != w.1)),
            "seed must produce at least one shared cycle"
        );
        let mut replay = replay_of(&trace);
        let mut replayed = Vec::new();
        for c in 0..200 {
            replayed.extend(replay.generate(c));
        }
        let key = |ps: &[Packet]| ps.iter().map(|p| (p.gen_cycle, p.flow)).collect::<Vec<_>>();
        assert_eq!(key(&live), key(&replayed));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("smart-traffic-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("trace.jsonl");
        let t = sample_trace();
        t.write_to(&path).expect("write");
        assert_eq!(TraceFile::read_from(&path).expect("read"), t);
        assert_eq!(t.last_cycle(), Some(3));
        std::fs::remove_file(&path).ok();
    }
}
