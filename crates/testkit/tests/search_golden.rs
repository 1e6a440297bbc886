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
    let winner = out.winner().expect("a winner");
    assert_eq!(winner.index, best.index);
    assert_eq!(winner.score, best.score);
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

/// The greedy hill-climb on the golden's space, pinned step for step:
/// from (fig7, Mesh, 1) it visits exactly these points — neighbours
/// tried workload, design, `HPC_max`, −1 before +1 on each axis — and
/// stops at the SMART point it crowns.
#[test]
fn greedy_walk_is_pinned() {
    let space = space();
    let greedy = smart_server::search::run(
        &space,
        SearchStrategy::Greedy,
        1,
        &DesignCache::new(space.len()),
        &|_| {},
    )
    .expect("greedy climb");
    let visited: Vec<usize> = greedy.candidates.iter().map(|c| c.index).collect();
    assert_eq!(visited, [0, 1, 4, 8, 9, 12, 13]);
    let rendered = greedy.render();
    let winner = rendered.lines().last().expect("a winner line");
    assert!(
        winner.starts_with("winner index=12 ") && winner.contains(" score=-3.93297404958516 "),
        "{winner}"
    );
}
