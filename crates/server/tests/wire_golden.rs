//! Byte-level lock on the three JSONL wire schemas
//! (`smart-server/req-v1` + `resp-v1`, `smart-telemetry/metrics-v1`,
//! `smart-traffic/trace-v1`): one canonical document per request kind,
//! one line per response event, one metrics series and one trace file,
//! all pinned in `golden/wire-v1.txt`.
//!
//! Round-trip tests pass even when writer and reader drift together;
//! this one does not. Every document must *render* to its golden bytes
//! and the golden bytes must *parse and re-render* to themselves.
//! Regenerate an intentional change with
//! `SMART_UPDATE_GOLDEN=1 cargo test -p smart-server --test wire_golden`.

use smart_core::noc::DesignKind;
use smart_harness::ScheduleDesign;
use smart_server::{PlanSpec, Request, ResponseEvent, SearchStrategy, TopologySpec, WorkloadSpec};
use smart_sim::telemetry::BYPASS_BUCKETS;
use smart_sim::{FlowId, MetricsWindow, TelemetrySeries};
use smart_traffic::TraceFile;

fn plan(seed: u64) -> PlanSpec {
    PlanSpec {
        warmup: 100,
        measure: 2000,
        drain: 3000,
        seed,
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Experiment {
            id: "exp-1".into(),
            mesh: 8,
            topology: TopologySpec::Torus,
            shards: 4,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Pattern {
                name: "bit-complement".into(),
                rate: 0.03,
            },
            plan: plan(12_648_430),
        },
        Request::Experiment {
            id: "exp-bare".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: DesignKind::Mesh,
            workload: WorkloadSpec::Fig7,
            plan: plan(1),
        },
        Request::Watch {
            id: "watch_1".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 2,
            design: DesignKind::Dedicated,
            workload: WorkloadSpec::App("VOPD".into()),
            plan: plan(7),
            window: 512,
        },
        Request::Matrix {
            id: "matrix-1".into(),
            mesh: 16,
            topology: TopologySpec::Torus,
            shards: 8,
            designs: DesignKind::ALL.to_vec(),
            workloads: vec![
                WorkloadSpec::Fig7,
                WorkloadSpec::App("H264".into()),
                WorkloadSpec::Uniform {
                    flows: 24,
                    rate: 0.0125,
                    seed: 9,
                },
                WorkloadSpec::Pattern {
                    name: "tornado".into(),
                    rate: 1e-7,
                },
            ],
            plan: plan(u64::MAX),
        },
        Request::Schedule {
            id: "sched".into(),
            mesh: 4,
            topology: TopologySpec::Torus,
            designs: ScheduleDesign::ALL.to_vec(),
            drain_budget: 50_000,
            phases: vec![
                (WorkloadSpec::App("VOPD".into()), plan(1)),
                (WorkloadSpec::App("PIP".into()), plan(2)),
                (WorkloadSpec::Fig7, plan(3)),
            ],
        },
        Request::Search {
            id: "search".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            strategy: SearchStrategy::Greedy,
            designs: vec![DesignKind::Mesh, DesignKind::Smart],
            workloads: vec![WorkloadSpec::Fig7, WorkloadSpec::App("WLAN".into())],
            hpc: vec![1, 2, 4, 8],
            plan: plan(5),
        },
        Request::Search {
            id: "search-x".into(),
            mesh: 8,
            topology: TopologySpec::Torus,
            strategy: SearchStrategy::Exhaustive,
            designs: vec![DesignKind::Dedicated],
            workloads: vec![WorkloadSpec::Fig7],
            hpc: vec![64],
            plan: plan(6),
        },
        Request::TraceDiff {
            id: "diff".into(),
            mesh: 4,
            topology: TopologySpec::Torus,
            baseline: DesignKind::Mesh,
            candidate: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: plan(8),
            trace: TraceFile {
                flits_per_packet: 8,
                events: vec![
                    (0, FlowId(0)),
                    (3, FlowId(2)),
                    (3, FlowId(1)),
                    (40, FlowId(0)),
                ],
            },
        },
        Request::TraceDiff {
            id: "diff-empty".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            baseline: DesignKind::Smart,
            candidate: DesignKind::Dedicated,
            workload: WorkloadSpec::App("MWD".into()),
            plan: plan(9),
            trace: TraceFile {
                flits_per_packet: 1,
                events: Vec::new(),
            },
        },
        Request::Cancel {
            id: "c".into(),
            target: "matrix-1".into(),
        },
        Request::Stats { id: "st".into() },
        Request::Shutdown { id: "down".into() },
    ]
}

fn events() -> Vec<ResponseEvent> {
    vec![
        ResponseEvent::Accepted {
            id: "job-1".into(),
            cells: 9,
        },
        ResponseEvent::Cell {
            index: 3,
            design: "SMART".into(),
            workload: "fig7".into(),
            injected: 160,
            delivered: 158,
            flits: 1264,
            latency: 3.4625,
            measured: 158,
            cycles: 4000,
            cached: true,
        },
        ResponseEvent::Cell {
            index: 0,
            design: "Dedicated".into(),
            workload: "uniform24".into(),
            injected: 0,
            delivered: 0,
            flits: 0,
            latency: f64::NAN,
            measured: 0,
            cycles: 2100,
            cached: false,
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
            score: 0.1 + 0.2,
            evaluated: 16,
        },
        ResponseEvent::FlowDiff {
            flow: 4,
            baseline: f64::NAN,
            candidate: 1.0,
        },
        ResponseEvent::DiffSummary {
            baseline: "Mesh".into(),
            candidate: "SMART".into(),
            delivered_delta: -2,
            flit_delta: 16,
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
        ResponseEvent::Metric {
            index: 0,
            end: 512,
            setups: 0,
            grants: 0,
            premature: 0,
            injected: 0,
            delivered: 0,
            buffered: 0,
            bypass: String::new(),
        },
        ResponseEvent::Stats {
            jobs: 5,
            cache_hits: 9,
            cache_misses: 3,
            cached_designs: 3,
            active_jobs: 0,
            busy_ms: 0,
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
            jobs: 1,
            cache_hits: 0,
            cache_misses: 1,
            cached_designs: 1,
            active_jobs: 0,
            busy_ms: 12,
        },
        ResponseEvent::Done {
            id: "job-1".into(),
            cells: 9,
            cache_hits: 4,
        },
        ResponseEvent::Error {
            id: "-".into(),
            message: "plain message".into(),
        },
        ResponseEvent::Error {
            id: "job-1".into(),
            message: "unknown app \"DOOM\" at C:\\apps\nsecond line\ttabbed".into(),
        },
    ]
}

fn series() -> TelemetrySeries {
    let window = |end: u64, bypass: &[(usize, u64)], stalls: Vec<u64>, links: Vec<u64>| {
        let mut b = vec![0; BYPASS_BUCKETS];
        for (i, n) in bypass {
            b[*i] = *n;
        }
        MetricsWindow {
            end,
            ssr_setups: 9,
            ssr_grants: 4,
            bypass: b,
            stalls,
            link_flits: links,
            injected: end / 5,
            delivered: end / 10,
            buffered: 6,
        }
    };
    TelemetrySeries {
        window: 10,
        routers: 2,
        links: 4,
        label: Some("phase0:VOPD \"live\"\\n\n".to_owned()),
        windows: vec![
            window(
                110,
                &[(0, 2), (8, 5)],
                vec![0, 0, 0, 0, 1, 2, 3, 4],
                vec![0, 9, 0, 1],
            ),
            window(115, &[], vec![0; 8], vec![0; 4]),
        ],
    }
}

fn unlabeled_series() -> TelemetrySeries {
    TelemetrySeries {
        label: None,
        windows: Vec::new(),
        ..series()
    }
}

fn trace() -> TraceFile {
    TraceFile {
        flits_per_packet: 8,
        events: vec![
            (0, FlowId(0)),
            (3, FlowId(1)),
            (3, FlowId(0)),
            (1 << 40, FlowId(u32::MAX)),
        ],
    }
}

/// Every pinned document, rendered by today's writers, in golden order.
fn rendered() -> String {
    let mut out = String::new();
    for request in requests() {
        out.push_str(&format!("## request {}\n", request.kind()));
        out.push_str(&request.to_jsonl());
    }
    out.push_str("## events\n");
    for event in events() {
        out.push_str(&event.to_line());
        out.push('\n');
    }
    for series in [series(), unlabeled_series()] {
        out.push_str("## metrics-v1\n");
        out.push_str(&series.to_jsonl());
    }
    out.push_str("## trace-v1\n");
    out.push_str(&trace().to_jsonl());
    out
}

/// Parse every section of `golden` with today's readers and render it
/// back with today's writers.
fn reparsed(golden: &str) -> String {
    let mut out = String::new();
    for section in golden.split("## ").skip(1) {
        let (title, body) = section.split_once('\n').expect("section title line");
        out.push_str(&format!("## {title}\n"));
        match title.split(' ').next().expect("section kind") {
            "request" => out.push_str(
                &Request::parse(body)
                    .unwrap_or_else(|e| panic!("{title}: {e}"))
                    .to_jsonl(),
            ),
            "events" => {
                for line in body.lines() {
                    let event =
                        ResponseEvent::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
                    out.push_str(&event.to_line());
                    out.push('\n');
                }
            }
            "metrics-v1" => out.push_str(
                &TelemetrySeries::parse(body)
                    .unwrap_or_else(|e| panic!("{title}: {e}"))
                    .to_jsonl(),
            ),
            "trace-v1" => out.push_str(
                &TraceFile::parse(body)
                    .unwrap_or_else(|e| panic!("{title}: {e}"))
                    .to_jsonl(),
            ),
            other => panic!("unknown golden section {other:?}"),
        }
    }
    out
}

#[test]
fn every_wire_document_renders_and_reparses_to_its_golden_bytes() {
    let got = rendered();
    let expected = include_str!("golden/wire-v1.txt");
    if got != expected && std::env::var_os("SMART_UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire-v1.txt");
        std::fs::write(path, &got).expect("rewrite golden fixture");
        panic!("golden fixture updated at {path}; rerun without SMART_UPDATE_GOLDEN");
    }
    assert_eq!(
        got, expected,
        "a writer changed the bytes of a versioned wire schema; if the \
         change is intentional, regenerate with SMART_UPDATE_GOLDEN=1"
    );
    assert_eq!(
        reparsed(expected),
        expected,
        "a reader no longer recovers what the golden document says"
    );
}

#[test]
fn golden_values_survive_the_round_trip() {
    // Re-rendering to the same bytes could hide a field both directions
    // ignore; the parsed values must equal the structured originals.
    for request in requests() {
        assert_eq!(Request::parse(&request.to_jsonl()), Ok(request));
    }
    for event in events() {
        let parsed = ResponseEvent::parse(&event.to_line()).expect("own line");
        // NaN != NaN, so compare through the canonical rendering too.
        assert_eq!(format!("{parsed:?}"), format!("{event:?}"));
    }
    for series in [series(), unlabeled_series()] {
        assert_eq!(TelemetrySeries::parse(&series.to_jsonl()), Ok(series));
    }
    assert_eq!(TraceFile::parse(&trace().to_jsonl()), Ok(trace()));
}

#[test]
fn labels_in_the_retired_escape_alphabet_still_parse() {
    // metrics-v1 labels were written with two-character escapes before
    // the codecs merged (this is the header line the golden file held
    // then); the one decoder reads both alphabets.
    let retired = "{\"schema\":\"smart-telemetry/metrics-v1\",\"window\":10,\"routers\":2,\
                   \"links\":4,\"label\":\"phase0:VOPD \\\"live\\\"\\\\n\\n\",\"windows\":2}";
    let current = series().to_jsonl();
    let (header, windows) = current.split_once('\n').expect("header line");
    assert_ne!(header, retired);
    let parsed = TelemetrySeries::parse(&format!("{retired}\n{windows}"));
    assert_eq!(parsed, Ok(series()));
}

#[test]
fn the_readme_matrix_document_parses() {
    let readme = include_str!("../../../README.md");
    let start = readme
        .find("{\"schema\":\"smart-server/req-v1\"")
        .expect("README shows a request document");
    let document: String = readme[start..]
        .lines()
        .take_while(|l| l.starts_with('{'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(document.lines().count(), 2, "header + one body line");
    let request = Request::parse(&document).expect("the documented example is valid");
    assert_eq!(
        request,
        Request::Matrix {
            id: "demo".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            designs: DesignKind::ALL.to_vec(),
            workloads: vec![WorkloadSpec::Fig7, WorkloadSpec::App("VOPD".into())],
            plan: PlanSpec {
                warmup: 0,
                measure: 2000,
                drain: 2000,
                seed: 12_648_430,
            },
        }
    );
    assert_eq!(request.to_jsonl(), document, "and it is in canonical form");
}
