//! Timing and structural regression gates.
//!
//! * Incremental mutation on INDE d = 3, n = 100k stays exactly a rebuild
//!   (epoch, answers and snapshot bytes) and beats that rebuild at least
//!   10x per representative op.
//! * The adaptive quadtree split rule (`SplitRule::Hybrid`) never ends up
//!   with fewer nodes than the midpoint rule, and never probes more than
//!   1.5x slower, on the uniform and clustered hyperplane workloads.
//!
//! The bounds are wide enough to hold in debug builds too, so the gates run
//! under a plain `cargo test`; CI also runs them in release:
//!
//! ```text
//! cargo test --release -p eclipse-bench --test regression_gates
//! ```

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use eclipse_bench::harness::run_tree_probes;
use eclipse_bench::workloads::{
    hyperplane_workload, probe_boxes, probe_ratio_boxes, probe_root_cell, DatasetFamily,
    HyperplaneFamily,
};
use eclipse_core::exec::QueryOptions;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, MutationOutcome, Point};
use eclipse_geom::cutting::CuttingTreeConfig;
use eclipse_geom::quadtree::{QuadtreeConfig, SplitRule};

const SEED: u64 = 20210614;

/// Held by every timing gate, so that no gate times another's work.  It
/// guards no data, so a gate that panicked leaves nothing to poison.
static TIMING: Mutex<()> = Mutex::new(());

/// An interleaved insert/delete schedule on a warm engine: even slots
/// insert a fresh INDE point, odd slots delete a pseudo-random id.  Every
/// 8th pair is forced onto the skyline-touching paths (a near-origin insert
/// that enters the skyline, a delete of a skyline member); the other ops
/// are the representative ones (dominated inserts, non-skyline deletes).
/// The maintained engine must be exactly a rebuild of the mutated dataset,
/// and a representative op must cost at most a tenth of that rebuild.
#[test]
fn incremental_mutation_matches_and_beats_a_rebuild_tenfold_at_100k() {
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let n = 100_000;
    let ops = 24;
    let pts = DatasetFamily::Inde.generate(n, 3, SEED);
    let inserts = DatasetFamily::Inde.generate(ops, 3, SEED + 9);
    let boxes = probe_ratio_boxes(32, 3, SEED + 4);
    let options = QueryOptions::default();
    let kind = IntersectionIndexKind::default();
    let engine = EclipseEngine::new(pts.clone()).expect("valid workload");
    engine.build_index(kind).expect("warm index");

    let mut mirror = pts;
    let mut rng_state = SEED | 1;
    let mut representative_secs = 0.0f64;
    let mut representative_ops = 0usize;
    let mut outcomes = [0usize; 4];
    for (i, p) in inserts.iter().enumerate() {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        let p = if i % 8 == 0 {
            Point::new(p.coords().iter().map(|c| c * 0.05).collect())
        } else {
            p.clone()
        };
        let id = if i % 8 == 1 {
            let sky = engine.skyline();
            sky[(rng_state as usize) % sky.len()]
        } else {
            (rng_state as usize) % mirror.len()
        };
        let start = Instant::now();
        let summary = if i % 2 == 0 {
            engine.insert(p.clone()).expect("insert")
        } else {
            engine.delete(id).expect("delete")
        };
        let elapsed = start.elapsed().as_secs_f64();
        if i % 8 >= 2 {
            representative_secs += elapsed;
            representative_ops += 1;
        }
        outcomes[match summary.outcome {
            MutationOutcome::InsertedSkyline => 0,
            MutationOutcome::InsertedDominated => 1,
            MutationOutcome::DeletedSkyline => 2,
            MutationOutcome::DeletedNonSkyline => 3,
        }] += 1;
        if i % 2 == 0 {
            mirror.push(p);
        } else {
            mirror.remove(id);
        }
    }
    assert_eq!(engine.epoch(), ops as u64, "every mutation bumps the epoch");
    assert_eq!(engine.len(), mirror.len());
    assert!(
        outcomes.iter().all(|&k| k > 0),
        "the schedule must take every maintenance path: {outcomes:?}"
    );

    // The full rebuild the incremental path replaces (skyline included),
    // best of two.
    let mut rebuild_secs = f64::INFINITY;
    let mut rebuilt = None;
    for _ in 0..2 {
        let start = Instant::now();
        let fresh = EclipseEngine::new(mirror.clone()).expect("valid workload");
        fresh.build_index(kind).expect("rebuild index");
        rebuild_secs = rebuild_secs.min(start.elapsed().as_secs_f64());
        rebuilt = Some(fresh);
    }
    let rebuilt = rebuilt.expect("at least one rebuild");
    assert_eq!(
        engine
            .eclipse_query_batch(&boxes, &options)
            .expect("probes"),
        rebuilt
            .eclipse_query_batch(&boxes, &options)
            .expect("rebuilt probes"),
        "the maintained engine must answer as a rebuild does"
    );
    assert_eq!(
        engine
            .build_index(kind)
            .expect("maintained index")
            .encode_snapshot(),
        rebuilt
            .build_index(kind)
            .expect("rebuilt index")
            .encode_snapshot(),
        "the maintained index must snapshot to a rebuild's bytes"
    );
    let op_secs = representative_secs / representative_ops as f64;
    assert!(
        rebuild_secs >= 10.0 * op_secs,
        "a representative op must beat a full rebuild 10x at n = 100k \
         ({op_secs:.3e} s/op vs {rebuild_secs:.3e} s rebuild)"
    );
}

/// Guard against the clustered-QUAD pathology: census medians landing on
/// the cluster point duplicate entries into every child, exhaust
/// `max_entries` early and leave a shallower, slower tree than the midpoint
/// rule's.  The per-build midpoint fallback of `SplitRule::Hybrid` rules
/// that out, so its tree holds at least as many nodes; the timing bound
/// only catches gross regressions (a probe time is the minimum over
/// `ROUNDS` fresh builds of `PASSES` passes of 200 boxes each).
#[test]
fn adaptive_quadtree_is_not_budget_starved_or_slower_than_midpoint() {
    const PASSES: usize = 5;
    const ROUNDS: usize = 3;
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let probes = probe_boxes(200, 2, 0.05, SEED + 1);
    let midpoint = QuadtreeConfig {
        split: SplitRule::Midpoint,
        ..QuadtreeConfig::default()
    };
    let hybrid = QuadtreeConfig::default();
    assert_eq!(hybrid.split, SplitRule::Hybrid);
    for family in [HyperplaneFamily::Uniform, HyperplaneFamily::Clustered] {
        let planes = hyperplane_workload(family, 10_000, 2, SEED);
        let measure = |config| {
            run_tree_probes(
                IntersectionIndexKind::Quadtree,
                &planes,
                probe_root_cell(2),
                &probes,
                PASSES,
                config,
                CuttingTreeConfig::default(),
            )
        };
        let (legacy, adaptive) = (measure(midpoint), measure(hybrid));
        let label = family.label();
        assert_eq!(
            adaptive.mean_hits, legacy.mean_hits,
            "both rules report every crossing hyperplane ({label})"
        );
        assert!(
            adaptive.nodes >= legacy.nodes,
            "adaptive quadtree is budget-starved on {label}: {} nodes < {} midpoint nodes",
            adaptive.nodes,
            legacy.nodes
        );
        // Fresh builds of the two rules alternate, so that neither rule's
        // passes all fall in one stretch of a noisy neighbour.
        let (mut legacy_secs, mut adaptive_secs) = (legacy.probe_secs, adaptive.probe_secs);
        for _ in 1..ROUNDS {
            legacy_secs = legacy_secs.min(measure(midpoint).probe_secs);
            adaptive_secs = adaptive_secs.min(measure(hybrid).probe_secs);
        }
        assert!(
            adaptive_secs <= 1.5 * legacy_secs,
            "adaptive quadtree probes grossly slower on {label}: {adaptive_secs:.3e} s vs \
             {legacy_secs:.3e} s"
        );
    }
}
