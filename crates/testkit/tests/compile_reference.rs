//! The dense preset compiler (`smart_core::compile::compile`, per-port
//! `u8` masks indexed `node * PORTS + dir`) equals the set-based
//! statement of Section IV's stop rules (`smart_testkit::reference_compile`)
//! on random fabrics, route sets and reaches: equal stops, equal presets
//! and an equal plan for every flow.
//!
//! Fabrics are meshes and tori from 2×2 to 16×16; each flow is routed
//! either dimension-ordered or along a random minimal router path (the
//! x and y steps shuffled, a half-way torus tie broken either way);
//! `HPC_max` runs from 1 to 16.

use proptest::prelude::*;
use smart_core::compile::compile;
use smart_sim::{Direction, FlowId, NodeId, SourceRoute, Topology};
use smart_testkit::reference_compile;

/// SplitMix64: a seeded stream for the route shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random minimal router path from `src` to `dst`.
fn minimal_path(topo: Topology, src: NodeId, dst: NodeId, rng: &mut Rng) -> Vec<NodeId> {
    let (cs, cd) = (topo.coord(src), topo.coord(dst));
    let mut steps = Vec::new();
    let mut axis = |from: u16, to: u16, size: u16, pos: Direction, neg: Direction| {
        let fwd = (to + size - from) % size;
        let (dir, hops) = if !topo.is_torus() {
            if to >= from {
                (pos, to - from)
            } else {
                (neg, from - to)
            }
        } else if fwd < size - fwd || (fwd == size - fwd && rng.below(2) == 0) {
            (pos, fwd)
        } else {
            (neg, size - fwd)
        };
        steps.extend(std::iter::repeat_n(dir, usize::from(hops)));
    };
    axis(cs.x, cd.x, topo.width(), Direction::East, Direction::West);
    axis(
        cs.y,
        cd.y,
        topo.height(),
        Direction::North,
        Direction::South,
    );
    for i in (1..steps.len()).rev() {
        steps.swap(i, rng.below(i + 1));
    }
    let mut path = vec![src];
    for dir in steps {
        let at = *path.last().expect("nonempty");
        path.push(
            topo.neighbor(at, dir)
                .expect("minimal steps stay on the fabric"),
        );
    }
    path
}

/// `flows` routes on `topo`, each XY or along a random minimal path,
/// with sparse flow ids.
fn route_set(topo: Topology, flows: usize, rng: &mut Rng) -> Vec<(FlowId, SourceRoute)> {
    let n = topo.len();
    (0..flows)
        .map(|i| {
            let src = NodeId(rng.below(n) as u16);
            let dst = NodeId(((usize::from(src.0) + 1 + rng.below(n - 1)) % n) as u16);
            let route = if rng.below(2) == 0 {
                SourceRoute::dimension_order(topo, src, dst).expect("src != dst")
            } else {
                let path = minimal_path(topo, src, dst, rng);
                let route = SourceRoute::from_router_path(topo, &path);
                // The one walk retraces the path, then ejects.
                let hops: Vec<_> = route.hops(topo).collect();
                assert_eq!(hops.iter().map(|h| h.0).collect::<Vec<_>>(), path);
                assert_eq!(hops.last().map(|h| h.1), Some(Direction::Core));
                for (w, h) in path.windows(2).zip(&hops) {
                    assert_eq!(topo.neighbor(w[0], h.1), Some(w[1]));
                }
                route
            };
            (FlowId(3 * i as u32 + 1), route)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_compile_equals_the_reference(
        width in 2u16..=16,
        height in 2u16..=16,
        torus in 0u8..2,
        flows in 1usize..=64,
        hpc_max in 1usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let topo = if torus == 1 {
            Topology::torus(width, height)
        } else {
            Topology::mesh(width, height)
        };
        let routes = route_set(topo, flows, &mut Rng(seed));
        let dense = compile(topo, hpc_max, &routes);
        let reference = reference_compile(topo, hpc_max, &routes);
        let at = format!("{topo:?} HPC_max {hpc_max} seed {seed}");
        prop_assert_eq!(&dense.presets, &reference.presets, "{}", at);
        prop_assert_eq!(dense.flows.len(), reference.flows.len(), "{}", at);
        // Leg records (stops, directions, cycles, cached charges) and
        // links, flow by flow.
        for (flow, _) in &routes {
            let (d, r) = (dense.flows.plan(*flow), reference.flows.plan(*flow));
            prop_assert_eq!(d.legs, r.legs, "{} {}", at, flow);
            for (a, b) in d.legs.iter().zip(r.legs) {
                prop_assert!(d.links(a).eq(r.links(b)), "{} {}", at, flow);
            }
        }
    }
}

/// The reach splits and the sharing rules both bite on the fabrics the
/// property draws: without stops of every kind it would prove little.
#[test]
fn the_drawn_route_sets_exercise_every_stop_rule() {
    let topo = Topology::torus(16, 16);
    let routes = route_set(topo, 64, &mut Rng(7));
    let shared = compile(topo, 16, &routes);
    assert!(shared.avg_stops() > 1.0, "{}", shared.avg_stops());
    // One long lone flow: only HPC_max can make it stop.
    let lone = [routes
        .iter()
        .max_by_key(|(_, r)| r.num_hops())
        .cloned()
        .expect("nonempty")];
    assert!(lone[0].1.num_hops() > 8);
    let f = lone[0].0;
    assert!(compile(topo, 16, &lone).stops(f).is_empty());
    assert_eq!(
        compile(topo, 2, &lone).stops(f),
        reference_compile(topo, 2, &lone).stops(f)
    );
    assert!(!compile(topo, 2, &lone).stops(f).is_empty());
}
