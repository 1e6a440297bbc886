//! Pattern-algebra properties: on any square power-of-two mesh the
//! transpose / bit-complement / bit-reverse patterns are self-inverse
//! bijections, shuffle is a bijection, hotspot weights normalize per
//! source, and a recorded traffic stream replays bit-exactly.

use proptest::prelude::*;
use smart_sim::route::SourceRoute;
use smart_sim::topology::{NodeId, Topology};
use smart_sim::{FlowId, ScriptedTraffic, TrafficSource};
use smart_traffic::{ModulatedTraffic, SpatialPattern, TemporalModel, TraceFile, TraceRecorder};

/// The square power-of-two meshes the bit patterns are defined on.
fn pow2_meshes() -> Vec<Topology> {
    vec![
        Topology::mesh(2, 2),
        Topology::mesh(4, 4),
        Topology::mesh(8, 8),
        Topology::mesh(16, 16),
    ]
}

fn self_inverse_patterns() -> Vec<SpatialPattern> {
    vec![
        SpatialPattern::Transpose,
        SpatialPattern::BitComplement,
        SpatialPattern::BitReverse,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn named_patterns_are_self_inverse_bijections(
        mesh in prop::sample::select(pow2_meshes()),
        pattern in prop::sample::select(self_inverse_patterns()),
    ) {
        let mut seen = vec![false; mesh.len()];
        for src in mesh.nodes() {
            let dst = pattern.destination(mesh, src).expect("permutation");
            prop_assert!((dst.0 as usize) < mesh.len(), "{dst} off the mesh");
            prop_assert!(!seen[dst.0 as usize], "{dst} hit twice: not injective");
            seen[dst.0 as usize] = true;
            // Self-inverse: applying the map twice is the identity.
            prop_assert_eq!(pattern.destination(mesh, dst), Some(src));
        }
        prop_assert!(seen.iter().all(|s| *s), "not surjective");
    }

    #[test]
    fn shuffle_is_a_bijection(mesh in prop::sample::select(pow2_meshes())) {
        let mut seen = vec![false; mesh.len()];
        for src in mesh.nodes() {
            let dst = SpatialPattern::Shuffle.destination(mesh, src).expect("permutation");
            prop_assert!(!seen[dst.0 as usize]);
            seen[dst.0 as usize] = true;
        }
        prop_assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn hotspot_weights_normalize_per_source(
        mesh in prop::sample::select(pow2_meshes()),
        weight in 0.0f64..1.0,
        ntargets in 1usize..4,
    ) {
        prop_assume!(mesh.len() > 4);
        let targets: Vec<NodeId> = (0..ntargets as u16).map(NodeId).collect();
        let flows = SpatialPattern::hotspot(targets.clone(), weight).flows(mesh);
        for src in mesh.nodes() {
            let total: f64 = flows.iter().filter(|f| f.src == src).map(|f| f.weight).sum();
            // A target source spends no budget on itself; its hotspot
            // share shrinks accordingly. Non-target sources hit 1.
            if targets.contains(&src) {
                prop_assert!(total <= 1.0 + 1e-9, "{src}: {total}");
            } else {
                prop_assert!((total - 1.0).abs() < 1e-9, "{src}: {total}");
            }
        }
    }

    #[test]
    fn sampled_hotspot_normalizes_and_stays_linear(
        mesh in prop::sample::select(pow2_meshes()),
        weight in 0.0f64..1.0,
        ntargets in 1usize..4,
        background in 1usize..9,
        seed in 0u64..1_000,
    ) {
        prop_assume!(mesh.len() > 4);
        let targets: Vec<NodeId> = (0..ntargets as u16).map(NodeId).collect();
        let flows = SpatialPattern::hotspot_sampled(targets.clone(), weight, background, seed)
            .flows(mesh);
        // Flow count is linear in the mesh, not quadratic.
        prop_assert!(flows.len() <= mesh.len() * (ntargets + background));
        for src in mesh.nodes() {
            let mine: Vec<_> = flows.iter().filter(|f| f.src == src).collect();
            let total: f64 = mine.iter().map(|f| f.weight).sum();
            if targets.contains(&src) {
                prop_assert!(total <= 1.0 + 1e-9, "{}: {}", src, total);
            } else {
                // The source's whole budget survives sampling.
                prop_assert!((total - 1.0).abs() < 1e-9, "{}: {}", src, total);
            }
            // No self-flows; background picks are distinct.
            let mut seen = vec![false; mesh.len()];
            for f in &mine {
                prop_assert!(f.dst != src, "{} sends to itself", src);
                if !targets.contains(&f.dst) {
                    prop_assert!(!seen[f.dst.0 as usize], "{} sampled {} twice", src, f.dst);
                    seen[f.dst.0 as usize] = true;
                }
            }
        }
    }

    #[test]
    fn routed_flow_ids_are_dense_and_rates_scaled(
        mesh in prop::sample::select(pow2_meshes()),
        rate in 0.001f64..0.2,
    ) {
        // On 2x2 the tornado rotation degenerates to the identity and
        // drops every pair; the battery is meaningful from 4x4 up.
        prop_assume!(mesh.len() > 4);
        for pattern in SpatialPattern::battery(mesh) {
            let (routes, rates) = pattern.routed(mesh, rate);
            prop_assert_eq!(routes.len(), rates.len());
            for (i, ((rf, route), (tf, r))) in routes.iter().zip(&rates).enumerate() {
                prop_assert_eq!(*rf, FlowId(i as u32));
                prop_assert_eq!(*tf, FlowId(i as u32));
                prop_assert!(*r <= rate + 1e-12);
                prop_assert!(route.source() != route.destination(mesh));
            }
        }
    }

    #[test]
    fn trace_record_replay_round_trips_bit_exactly(
        seed in 0u64..1_000,
        rate in 0.01f64..0.5,
        burst in prop::sample::select(vec![
            TemporalModel::Steady,
            TemporalModel::OnOff { on_to_off: 0.05, off_to_on: 0.05 },
            TemporalModel::Ramp { from: 0.0, to: 1.0, cycles: 500 },
        ]),
    ) {
        let (_, rates) = SpatialPattern::Transpose.routed(Topology::paper_4x4(), rate);
        let inner = ModulatedTraffic::new(burst, &rates, 8, seed);
        let mut rec = TraceRecorder::new(Box::new(inner), 8);
        let mut live = Vec::new();
        for c in 0..1_000 {
            live.extend(rec.generate(c));
        }
        // Freeze through the JSONL text form, then replay.
        let trace = TraceFile::parse(&rec.into_trace().to_jsonl()).expect("round trip");
        let mut replay = ScriptedTraffic::new(trace.events.clone(), trace.flits_per_packet);
        let mut replayed = Vec::new();
        for c in 0..1_000 {
            replayed.extend(replay.generate(c));
        }
        prop_assert!(replay.exhausted());
        prop_assert_eq!(live.len(), replayed.len());
        for (a, b) in live.iter().zip(&replayed) {
            prop_assert_eq!(
                (a.gen_cycle, a.flow, a.num_flits),
                (b.gen_cycle, b.flow, b.num_flits)
            );
        }
    }
}

/// XY source-routing anchor used by every pattern: routes exist for
/// every induced flow on a 16x16 mesh under the densest battery entry.
#[test]
fn battery_routes_on_large_meshes() {
    let mesh = Topology::mesh(16, 16);
    for pattern in SpatialPattern::battery(mesh) {
        let (routes, _) = pattern.routed(mesh, 0.01);
        assert!(!routes.is_empty(), "{}", pattern.label());
        for (f, r) in &routes {
            let _ = (
                f,
                SourceRoute::xy(mesh, r.source(), r.destination(mesh)).unwrap(),
            );
        }
    }
}
