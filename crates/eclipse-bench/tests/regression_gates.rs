//! Timing regression gate: incremental mutation on INDE d = 3, n = 100k
//! stays exactly a rebuild (epoch, answers and snapshot bytes) and beats
//! that rebuild at least 10x per representative op.
//!
//! The bound is wide enough to hold in debug builds too, so the gate runs
//! under a plain `cargo test`; CI also runs it in release:
//!
//! ```text
//! cargo test --release -p eclipse-bench --test regression_gates
//! ```

use std::time::Instant;

use eclipse_bench::workloads::{probe_ratio_boxes, DatasetFamily};
use eclipse_core::exec::QueryOptions;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, MutationOutcome, Point};

const SEED: u64 = 20210614;

/// An interleaved insert/delete schedule on a warm engine: even slots
/// insert a fresh INDE point, odd slots delete a pseudo-random id.  Every
/// 8th pair is forced onto the skyline-touching paths (a near-origin insert
/// that enters the skyline, a delete of a skyline member); the other ops
/// are the representative ones (dominated inserts, non-skyline deletes).
/// The maintained engine must be exactly a rebuild of the mutated dataset,
/// and a representative op must cost at most a tenth of that rebuild.
#[test]
fn incremental_mutation_matches_and_beats_a_rebuild_tenfold_at_100k() {
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
