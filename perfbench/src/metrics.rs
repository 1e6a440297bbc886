//! The metric names, units, directions and bounds every later claim is
//! measured with. `BENCHMARK.json` lists the same names; a self-test
//! holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Host time or memory: may worsen by this share before it counts
    /// as a regression.
    Bound(f64),
    /// Simulated or counted: repeats exactly for one seed, so any
    /// difference counts.
    Exact,
    /// Recorded, never judged.
    Tracked,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn def(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate,
    }
}

use Better::{Higher, Lower};
use Gate::{Bound, Exact, Tracked};

/// What a user of the simulator or the service sees; measured with
/// tracing off, every one on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("sim_cycles_per_s", "1/s", Higher, Bound(0.25)),
    def("req_p50_ms", "ms", Lower, Bound(0.25)),
    def("setup_s", "s", Lower, Bound(0.25)),
    def("peak_rss_mb", "MB", Lower, Bound(0.15)),
];

/// One layer each (layer = crate); measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Simulated results and failures: exact, so they carry no bound.
    def("fail_ratio", "ratio", Lower, Exact),
    def("sim_avg_latency_cycles", "cycles", Lower, Exact),
    def("sim_flits_per_cycle", "flits/cycle", Higher, Exact),
    def("trace_overhead_ratio", "ratio", Lower, Tracked),
    // smart-sim
    def("sim.ns_per_cycle", "ns", Lower, Tracked),
    def("sim.ns_per_flit_hop", "ns", Lower, Tracked),
    def("sim.ns_per_router_cycle", "ns", Lower, Tracked),
    def("sim.instantiate_us", "us", Lower, Tracked),
    def("sim.flow_table_us", "us", Lower, Tracked),
    def("sim.measure_share", "ratio", Lower, Tracked),
    def("sim.drain_share", "ratio", Lower, Tracked),
    def("sim.shard2_speedup", "ratio", Higher, Tracked),
    def("sim.telemetry_on_ratio", "ratio", Lower, Tracked),
    def("sim.cycles", "count", Lower, Exact),
    def("sim.flit_hops", "count", Lower, Exact),
    def("sim.packets_delivered", "count", Higher, Exact),
    def("sim.ssr_setups", "count", Lower, Exact),
    def("sim.ssr_grants", "count", Higher, Exact),
    def("sim.premature_stops", "count", Lower, Exact),
    def("sim.bypass_hops_mean", "hops", Higher, Exact),
    // smart-traffic
    def("traffic.generate_ns_per_cycle", "ns", Lower, Tracked),
    def("traffic.build_us", "us", Lower, Tracked),
    def("traffic.packets_offered", "count", Higher, Exact),
    // smart-taskgraph, smart-mapping
    def("taskgraph.build_us", "us", Lower, Tracked),
    def("mapping.place_us", "us", Lower, Tracked),
    def("mapping.route_us", "us", Lower, Tracked),
    // smart-core
    def("core.compile_us", "us", Lower, Tracked),
    def("core.stops_avg", "stops", Lower, Exact),
    def("core.bypass_fraction", "ratio", Higher, Exact),
    // smart-link, smart-power
    def("link.config_us", "us", Lower, Tracked),
    def("power.breakdown_us", "us", Lower, Tracked),
    // smart-harness
    def("harness.materialize_us", "us", Lower, Tracked),
    def("harness.self_us", "us", Lower, Tracked),
    def("harness.report_us", "us", Lower, Tracked),
    def("harness.matrix24_cold_ms", "ms", Lower, Tracked),
    def("harness.matrix24_threads_speedup", "ratio", Higher, Tracked),
    // smart-server
    def("server.render_req_us", "us", Lower, Tracked),
    def("server.parse_req_us", "us", Lower, Tracked),
    def("server.render_event_us", "us", Lower, Tracked),
    def("server.parse_event_us", "us", Lower, Tracked),
    def("server.cache_hit_us", "us", Lower, Tracked),
    def("server.cache_miss_us", "us", Lower, Tracked),
    def("server.service_handle_warm_us", "us", Lower, Tracked),
    def("server.service_handle_cold_us", "us", Lower, Tracked),
    def("server.socket_overhead_us", "us", Lower, Tracked),
    def("server.req_per_s", "1/s", Higher, Tracked),
    def("server.req_p95_ms", "ms", Lower, Tracked),
    def("server.req_tail_ms", "ms", Lower, Tracked),
    def("server.req_tail_pct", "%", Lower, Tracked),
    def("server.cache_hit_ratio", "ratio", Higher, Exact),
    def("server.matrix24_warm_ms", "ms", Lower, Tracked),
    def("server.search_candidate_ms", "ms", Lower, Tracked),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads;

    /// The name grammar of the benchmark contract.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_follow_the_contract_grammar() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {:?}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in workloads::ALL {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let bound = |m: &MetricDef| match m.gate {
            Bound(b) => b,
            _ => panic!("{} is end-to-end and needs a bound", m.name),
        };
        let setup = bound(find("setup_s").expect("setup_s is required"));
        for m in END_TO_END {
            assert!(bound(m) <= setup && bound(m) <= 0.25, "{}", m.name);
        }
    }

    /// `BENCHMARK.json` must describe exactly what this program reports.
    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<&Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .collect()
        };
        let text_of = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{key} is a string"))
                .to_owned()
        };
        let listed: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = workloads::ALL
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(listed, ours);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(text_of(entry, "name"), m.name);
                assert_eq!(text_of(entry, "unit"), m.unit, "{}", m.name);
                let better = match m.better {
                    Higher => "higher",
                    Lower => "lower",
                };
                assert_eq!(text_of(entry, "better"), better, "{}", m.name);
                match m.gate {
                    Bound(b) if key == "end_to_end" => {
                        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(b));
                    }
                    _ => assert_eq!(entry.get("bound"), None, "{}", m.name),
                }
            }
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(seconds, Some(crate::run::DEFAULT_SECONDS));
        assert_eq!(list("paths").len(), 1);
        assert_eq!(list("paths")[0].as_str(), Some("perfbench"));
    }
}
