//! Design-space-search golden: an exhaustive sweep of a small, fixed
//! 4 × 4 space — {fig7, app:PIP} × {Mesh, SMART} mapping/design pairs
//! against segmentations HPC_max ∈ {1, 2, 4, 8} — locked bit-exactly
//! next to the other goldens. Every candidate line carries the energy,
//! area and cycle figures the Smapper score is built from, so any drift
//! in the simulator, the compiler, or the area/energy models fails
//! here. Conscious changes regenerate the fixture with
//! `SMART_UPDATE_GOLDEN=1 cargo test -p smart-testkit`.

use smart_core::noc::DesignKind;
use smart_server::{
    DesignCache, PlanSpec, SearchOutcome, SearchSpace, SearchStrategy, TopologySpec, WorkloadSpec,
};
use std::sync::OnceLock;

fn space() -> SearchSpace {
    SearchSpace {
        mesh: 4,
        topology: TopologySpec::Mesh,
        designs: vec![DesignKind::Mesh, DesignKind::Smart],
        workloads: vec![WorkloadSpec::Fig7, WorkloadSpec::App("PIP".to_owned())],
        hpc: vec![1, 2, 4, 8],
        plan: PlanSpec {
            warmup: 0,
            measure: 2_000,
            drain: 2_000,
            seed: 0xC0FFEE,
        },
    }
}

/// Run the sweep once, shared between the golden and shape tests.
fn outcome() -> &'static SearchOutcome {
    static OUTCOME: OnceLock<SearchOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| {
        let space = space();
        let cache = DesignCache::new(space.len());
        smart_server::search::run(&space, SearchStrategy::Exhaustive, 2, &cache, &|_| {})
            .expect("non-empty space searches")
    })
}

#[test]
fn search_matches_golden_snapshot() {
    smart_testkit::golden::check("search_4x4.txt", &outcome().render(), "search sweep");
}

#[test]
fn search_covers_the_full_space_and_crowns_the_argmax() {
    let out = outcome();
    assert_eq!(out.candidates.len(), 16, "4 mapping/design pairs x 4 hpc");
    for candidate in &out.candidates {
        assert!(candidate.energy_pj > 0.0, "{candidate:?}");
        assert!(candidate.area_mm2 > 0.0, "{candidate:?}");
        assert!(candidate.cycles > 0.0, "{candidate:?}");
        assert!(candidate.score.is_finite(), "{candidate:?}");
    }
    let best = out
        .candidates
        .iter()
        .max_by(|a, b| a.score.total_cmp(&b.score))
        .expect("candidates");
    assert_eq!(out.winner_index, best.index);
    assert_eq!(out.winner().score, best.score);
}

#[test]
fn search_is_deterministic_across_thread_counts() {
    let space = space();
    let serial = smart_server::search::run(
        &space,
        SearchStrategy::Exhaustive,
        1,
        &DesignCache::new(space.len()),
        &|_| {},
    )
    .expect("serial sweep");
    assert_eq!(outcome().render(), serial.render());
}
