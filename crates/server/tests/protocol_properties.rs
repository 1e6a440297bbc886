//! Property tests for the JSONL protocol and the compiled-design cache
//! key: every structured request/response round-trips through its wire
//! form, arbitrary and truncated input never panics the parsers, and
//! the design-point key is stable under equality / sensitive to
//! perturbation.

use proptest::prelude::*;
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{design_point, ScheduleDesign, Workload};
use smart_server::{
    PlanSpec, Request, RequestHeader, ResponseEvent, SearchStrategy, TopologySpec, WorkloadSpec,
};
use smart_traffic::TraceFile;

/// The cache's key of a compiled design.
fn key(cfg: &NocConfig, kind: DesignKind, w: &Workload) -> (DesignKind, String) {
    (kind, design_point(cfg, w))
}

const APPS: [&str; 8] = [
    "H264", "MMS_DEC", "MMS_ENC", "MMS_MP3", "MWD", "VOPD", "WLAN", "PIP",
];
const PATTERNS: [&str; 6] = [
    "transpose",
    "bit-complement",
    "bit-reverse",
    "shuffle",
    "tornado",
    "neighbor",
];
const ID_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";

fn workload_spec(sel: usize, flows: u64, rate: f64, seed: u64) -> WorkloadSpec {
    match sel % 4 {
        0 => WorkloadSpec::Fig7,
        1 => WorkloadSpec::App(APPS[seed as usize % APPS.len()].to_owned()),
        2 => WorkloadSpec::Uniform { flows, rate, seed },
        _ => WorkloadSpec::Pattern {
            name: PATTERNS[seed as usize % PATTERNS.len()].to_owned(),
            rate,
        },
    }
}

fn plan_spec(warmup: u64, measure: u64, drain: u64, seed: u64) -> PlanSpec {
    PlanSpec {
        warmup,
        measure,
        drain,
        seed,
    }
}

fn topology_spec(sel: u64) -> TopologySpec {
    if sel.is_multiple_of(2) {
        TopologySpec::Mesh
    } else {
        TopologySpec::Torus
    }
}

fn id_from(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|i| ID_CHARS[i % ID_CHARS.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn workload_specs_round_trip(
        parts in (0usize..4, 1u64..50, 0.0f64..0.5, 0u64..1000)
    ) {
        let (sel, flows, rate, seed) = parts;
        let spec = workload_spec(sel, flows, rate, seed);
        prop_assert_eq!(WorkloadSpec::parse(&spec.render()), Ok(spec.clone()));
        // Every grammatical spec also resolves to a real workload.
        prop_assert!(spec.to_workload().is_ok(), "{:?}", spec);
    }

    #[test]
    fn experiment_and_matrix_requests_round_trip(
        id_idx in prop::collection::vec(0usize..64, 1..12),
        parts in (0usize..4, 1u64..50, 0.0f64..0.5, 0u64..1000),
        plan_parts in (0u64..5000, 1u64..50_000, 0u64..20_000),
        shape in (2u64..17, 0usize..3)
    ) {
        let (sel, flows, rate, seed) = parts;
        let (warmup, measure, drain) = plan_parts;
        let (mesh, design_sel) = shape;
        let id = id_from(&id_idx);
        let design = DesignKind::ALL[design_sel];
        let plan = plan_spec(warmup, measure, drain, seed);
        let experiment = Request::Experiment {
            id: id.clone(),
            mesh: mesh as u16,
            topology: topology_spec(seed),
            shards: 1 + seed as usize % 8,
            design,
            workload: workload_spec(sel, flows, rate, seed),
            plan,
        };
        prop_assert_eq!(Request::parse(&experiment.to_jsonl()), Ok(experiment));
        let matrix = Request::Matrix {
            id,
            mesh: mesh as u16,
            topology: topology_spec(seed + 1),
            shards: 1 + (seed + 1) as usize % 8,
            designs: DesignKind::ALL[..=design_sel].to_vec(),
            workloads: (0..4).map(|s| workload_spec(s, flows, rate, seed + s as u64)).collect(),
            plan,
        };
        prop_assert_eq!(Request::parse(&matrix.to_jsonl()), Ok(matrix));
    }

    #[test]
    fn schedule_search_and_diff_requests_round_trip(
        id_idx in prop::collection::vec(0usize..64, 1..12),
        phases in prop::collection::vec(
            (0usize..4, 1u64..20, 0.0f64..0.3, 0u64..500), 1..5),
        plan_parts in (0u64..5000, 1u64..50_000, 0u64..20_000, 0u64..1000),
        events in prop::collection::vec((0u64..10_000, 0u64..64), 0..30)
    ) {
        let (warmup, measure, drain, seed) = plan_parts;
        let id = id_from(&id_idx);
        let plan = plan_spec(warmup, measure, drain, seed);
        let schedule = Request::Schedule {
            id: id.clone(),
            mesh: 4,
            topology: topology_spec(seed),
            designs: vec![ScheduleDesign::Smart, ScheduleDesign::Reconfigurable],
            drain_budget: drain + 1,
            phases: phases
                .iter()
                .map(|(sel, flows, rate, seed)| (workload_spec(*sel, *flows, *rate, *seed), plan))
                .collect(),
        };
        prop_assert_eq!(Request::parse(&schedule.to_jsonl()), Ok(schedule));
        let search = Request::Search {
            id: id.clone(),
            mesh: 4,
            topology: topology_spec(seed + 1),
            strategy: if seed % 2 == 0 { SearchStrategy::Exhaustive } else { SearchStrategy::Greedy },
            designs: DesignKind::ALL.to_vec(),
            workloads: phases
                .iter()
                .map(|(sel, flows, rate, seed)| workload_spec(*sel, *flows, *rate, *seed))
                .collect(),
            hpc: vec![1 + seed % 8, 8, 16],
            plan,
        };
        prop_assert_eq!(Request::parse(&search.to_jsonl()), Ok(search));
        let diff = Request::TraceDiff {
            id,
            mesh: 4,
            topology: topology_spec(seed),
            baseline: DesignKind::Mesh,
            candidate: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan,
            trace: TraceFile {
                flits_per_packet: 8,
                events: events
                    .iter()
                    .map(|(c, f)| (*c, smart_sim::FlowId(*f as u32)))
                    .collect(),
            },
        };
        prop_assert_eq!(Request::parse(&diff.to_jsonl()), Ok(diff));
    }

    #[test]
    fn topology_field_is_optional_and_defaults_to_mesh(
        id_idx in prop::collection::vec(0usize..64, 1..12),
        parts in (0usize..4, 1u64..50, 0.0f64..0.5, 0u64..1000),
        mesh in 2u64..17
    ) {
        let (sel, flows, rate, seed) = parts;
        let id = id_from(&id_idx);
        let build = |topology: TopologySpec| Request::Experiment {
            id: id.clone(),
            mesh: mesh as u16,
            topology,
            shards: 1,
            design: DesignKind::Smart,
            workload: workload_spec(sel, flows, rate, seed),
            plan: plan_spec(0, 2000, 2000, seed),
        };
        // Mesh requests never mention the field: pre-torus documents
        // and their renders stay byte-identical.
        let mesh_text = build(TopologySpec::Mesh).to_jsonl();
        prop_assert!(!mesh_text.contains("topology"), "{}", mesh_text);
        // A torus document with the field stripped parses as the mesh
        // request (absent ⇒ mesh).
        let torus_text = build(TopologySpec::Torus).to_jsonl();
        prop_assert!(torus_text.contains("\"topology\":\"torus\""), "{}", torus_text);
        let stripped = torus_text.replace(",\"topology\":\"torus\"", "");
        prop_assert_eq!(Request::parse(&stripped), Ok(build(TopologySpec::Mesh)));
        prop_assert_eq!(stripped, mesh_text);
    }

    #[test]
    fn shards_field_is_optional_and_defaults_to_serial(
        id_idx in prop::collection::vec(0usize..64, 1..12),
        parts in (0usize..4, 1u64..50, 0.0f64..0.5, 0u64..1000),
        shape in (2u64..17, 2usize..9)
    ) {
        let (sel, flows, rate, seed) = parts;
        let (mesh, shards) = shape;
        let id = id_from(&id_idx);
        let build = |shards: usize| Request::Matrix {
            id: id.clone(),
            mesh: mesh as u16,
            topology: topology_spec(seed),
            shards,
            designs: DesignKind::ALL.to_vec(),
            workloads: vec![workload_spec(sel, flows, rate, seed)],
            plan: plan_spec(0, 2000, 2000, seed),
        };
        // Serial requests never mention the field: pre-sharding
        // documents and their renders stay byte-identical.
        let serial_text = build(1).to_jsonl();
        prop_assert!(!serial_text.contains("shards"), "{}", serial_text);
        // A sharded document with the field stripped parses as the
        // serial request (absent ⇒ serial).
        let sharded_text = build(shards).to_jsonl();
        let field = format!(",\"shards\":{shards}");
        prop_assert!(sharded_text.contains(&field), "{}", sharded_text);
        let stripped = sharded_text.replace(&field, "");
        prop_assert_eq!(Request::parse(&stripped), Ok(build(1)));
        prop_assert_eq!(stripped, serial_text);
    }

    #[test]
    fn stats_optional_fields_default_and_stay_byte_identical(
        counts in (0u64..1000, 0u64..1000, 1u64..1000, 1u64..100_000)
    ) {
        let (jobs, hits, active, busy) = counts;
        let old = ResponseEvent::Stats {
            jobs,
            cache_hits: hits,
            cache_misses: jobs,
            cached_designs: hits,
            active_jobs: 0,
            busy_ms: 0,
        };
        // Default values never appear on the wire: pre-existing stats
        // documents and their renders stay byte-identical.
        let old_line = old.to_line();
        prop_assert!(!old_line.contains("active_jobs"), "{}", old_line);
        prop_assert!(!old_line.contains("busy_ms"), "{}", old_line);
        prop_assert_eq!(ResponseEvent::parse(&old_line), Ok(old.clone()));
        // A new document with the fields stripped parses as the old
        // snapshot (absent ⇒ 0).
        let new = ResponseEvent::Stats {
            jobs,
            cache_hits: hits,
            cache_misses: jobs,
            cached_designs: hits,
            active_jobs: active,
            busy_ms: busy,
        };
        let new_line = new.to_line();
        prop_assert_eq!(ResponseEvent::parse(&new_line), Ok(new));
        let stripped = new_line
            .replace(&format!(",\"active_jobs\":{active}"), "")
            .replace(&format!(",\"busy_ms\":{busy}"), "");
        prop_assert_eq!(&stripped, &old_line);
        prop_assert_eq!(ResponseEvent::parse(&stripped), Ok(old));
    }

    #[test]
    fn watch_requests_round_trip(
        id_idx in prop::collection::vec(0usize..64, 1..12),
        parts in (0usize..4, 1u64..50, 0.0f64..0.5, 0u64..1000),
        shape in (2u64..17, 0usize..3, 1u64..100_000)
    ) {
        let (sel, flows, rate, seed) = parts;
        let (mesh, design_sel, window) = shape;
        let watch = Request::Watch {
            id: id_from(&id_idx),
            mesh: mesh as u16,
            topology: topology_spec(seed),
            shards: 1 + seed as usize % 8,
            design: DesignKind::ALL[design_sel],
            workload: workload_spec(sel, flows, rate, seed),
            plan: plan_spec(0, 2000, 2000, seed),
            window,
        };
        prop_assert_eq!(Request::parse(&watch.to_jsonl()), Ok(watch));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(
        bytes in prop::collection::vec(0u8..=255, 0..300)
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // Any outcome is fine; panicking is not.
        let _ = Request::parse(&text);
        for line in text.lines() {
            let _ = RequestHeader::parse(line);
            let _ = ResponseEvent::parse(line);
        }
    }

    #[test]
    fn truncated_valid_documents_never_panic(
        parts in (0usize..4, 1u64..50, 0.0f64..0.5, 0u64..1000),
        cut_permille in 0u64..1000
    ) {
        let (sel, flows, rate, seed) = parts;
        let request = Request::Matrix {
            id: "trunc".to_owned(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            designs: DesignKind::ALL.to_vec(),
            workloads: vec![workload_spec(sel, flows, rate, seed)],
            plan: plan_spec(0, 2000, 2000, seed),
        };
        let text = request.to_jsonl();
        let mut cut = (text.len() as u64 * cut_permille / 1000) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = Request::parse(&text[..cut]);
    }

    #[test]
    fn response_events_round_trip(
        counts in (0u64..1000, 0u64..1000, 0u64..1000),
        floats in (0.0f64..500.0, -20.0f64..20.0),
        id_idx in prop::collection::vec(0usize..64, 1..12)
    ) {
        let (index, cells, hits) = counts;
        let (latency, score) = floats;
        let id = id_from(&id_idx);
        let events = vec![
            ResponseEvent::Accepted { id: id.clone(), cells },
            ResponseEvent::Cell {
                index,
                design: "SMART".to_owned(),
                workload: "fig7".to_owned(),
                injected: cells,
                delivered: cells,
                flits: cells * 8,
                latency,
                measured: cells,
                cycles: cells * 4,
                cached: index % 2 == 0,
            },
            ResponseEvent::Candidate {
                index,
                design: "Mesh".to_owned(),
                workload: "app:VOPD".to_owned(),
                hpc: 1 + index % 8,
                energy_pj: latency * 1e3,
                area_mm2: latency + 0.5,
                cycles: latency,
                score,
            },
            ResponseEvent::Winner { index, score, evaluated: cells },
            ResponseEvent::FlowDiff { flow: index, baseline: latency, candidate: score },
            ResponseEvent::Metric {
                index,
                end: cells * 512,
                setups: cells,
                grants: hits.min(cells),
                premature: cells - hits.min(cells),
                injected: cells * 3,
                delivered: cells * 2,
                buffered: hits,
                bypass: if cells == 0 { String::new() } else { format!("0:{cells} 8:{hits}") },
            },
            // Both zero (optional fields absent on the wire) and
            // nonzero (rendered) stats snapshots must round-trip.
            ResponseEvent::Stats {
                jobs: cells,
                cache_hits: hits,
                cache_misses: cells,
                cached_designs: hits,
                active_jobs: 0,
                busy_ms: 0,
            },
            ResponseEvent::Stats {
                jobs: cells,
                cache_hits: hits,
                cache_misses: cells,
                cached_designs: hits,
                active_jobs: index,
                busy_ms: cells,
            },
            ResponseEvent::Done { id: id.clone(), cells, cache_hits: hits },
            ResponseEvent::Error { id, message: format!("fail {score}: \"quoted\"\n{latency}") },
        ];
        for event in events {
            let line = event.to_line();
            prop_assert_eq!(ResponseEvent::parse(&line), Ok(event), "{}", line);
        }
    }

    #[test]
    fn equal_triples_key_equal_and_perturbations_differ(
        parts in (1u64..50, 0.0f64..0.5, 0u64..1000),
        shape in (1usize..16, 0usize..3)
    ) {
        let (flows, rate, seed) = parts;
        let (hpc, design_sel) = shape;
        let design = DesignKind::ALL[design_sel];
        let mut cfg = NocConfig::paper_4x4();
        cfg.hpc_max = hpc;
        let w = Workload::uniform(flows as usize, rate, seed);

        // Equality: rebuilding the identical triple keys identically.
        let mut cfg2 = NocConfig::paper_4x4();
        cfg2.hpc_max = hpc;
        let base = key(&cfg, design, &w);
        prop_assert_eq!(
            base,
            key(&cfg2, design, &Workload::uniform(flows as usize, rate, seed))
        );

        // Sensitivity: any single-field perturbation moves the key.
        let mut hpc_bump = cfg.clone();
        hpc_bump.hpc_max = hpc + 1;
        prop_assert_ne!(base, key(&hpc_bump, design, &w));
        let other_design = DesignKind::ALL[(design_sel + 1) % 3];
        prop_assert_ne!(base, key(&cfg, other_design, &w));
        prop_assert_ne!(
            base,
            key(&cfg, design, &Workload::uniform(flows as usize + 1, rate, seed))
        );
        prop_assert_ne!(
            base,
            key(&cfg, design, &Workload::uniform(flows as usize, rate + 0.625, seed))
        );
        prop_assert_ne!(
            base,
            key(&cfg, design, &Workload::uniform(flows as usize, rate, seed + 1))
        );
        // Insensitivity: the shard count is an execution strategy with
        // bit-identical results, so serial and sharded runs of one
        // design point must share a cache entry.
        prop_assert_eq!(
            base,
            key(&cfg.clone().sharded(2 + seed as usize % 7), design, &w)
        );
        // Topology: a torus of the same dimensions must key differently
        // from the mesh (the wrap links change every compiled route).
        let mut torus = cfg.clone();
        torus.topology =
            smart_sim::Topology::torus(cfg.topology.width(), cfg.topology.height());
        prop_assert_ne!(base, key(&torus, design, &w));
    }
}
