//! Property suite for index maintenance across mixed mutation sequences.
//! At **every epoch** the maintained engine must answer exactly as an
//! engine rebuilt from scratch over the mutated points: the same skyline,
//! the same eclipse ids and counts for every probe box, and the same
//! skyline size, pair count and box-crossing counts from its cached index.
//! At the end the maintained index encodes to the rebuild's bytes.
//!
//! (The suite's name recalls the live-skyline overlay maintained indexes
//! once carried; a skyline change now copies the live rows.)
//!
//! The sequences mix the moves that change the skyline in different ways:
//! * a skyline entrant (a member nudged below itself) followed by its
//!   delete, which revives the member it killed;
//! * near-origin inserts that kill many members;
//! * deletes of members killed by an entrant, while the entrant stands;
//! * grid duplicates of skyline members, and random grid inserts and
//!   deletes.
//!
//! Both index kinds run at 1 and 4 threads.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use eclipse_core::index::{IndexConfig, IntersectionIndexKind};
use eclipse_core::{EclipseEngine, ExecutionContext, Point, QueryOptions, WeightRatioBox};

/// Grid-valued points (coordinates in `{0..4}`): rich in ties, duplicates
/// and dominance chains.
fn grid_points(seed: u64, n: usize, d: usize) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new((0..d).map(|_| rng.gen_range(0..5) as f64).collect()))
        .collect()
}

/// Probe boxes: moderate, narrow, degenerate (a single weight vector,
/// where EPS ties decide) and wide.
fn probe_boxes(d: usize) -> Vec<WeightRatioBox> {
    vec![
        WeightRatioBox::uniform(d, 0.25, 2.0).unwrap(),
        WeightRatioBox::uniform(d, 0.6, 0.9).unwrap(),
        WeightRatioBox::uniform(d, 1.0, 1.0).unwrap(),
        WeightRatioBox::uniform(d, 0.05, 18.0).unwrap(),
    ]
}

/// One move of a mutation sequence; `pick` chooses a point or member.
#[derive(Clone, Debug)]
enum Move {
    /// Insert a random grid point.
    Insert(u64),
    /// Delete `pick % len`.
    Delete(u64),
    /// Insert a skyline member nudged below itself, then delete it.
    EntrantCycle(u64),
    /// Insert a point near the origin (kills most of the skyline).
    NearOrigin(u64),
    /// Insert a skyline member nudged below itself, then delete the
    /// member it killed (a dead base row).
    DeleteKilled(u64),
    /// Insert an exact duplicate of a skyline member.
    Duplicate(u64),
}

fn move_strategy() -> impl Strategy<Value = Move> {
    (0u8..6, 0u64..u64::MAX).prop_map(|(kind, pick)| match kind {
        0 => Move::Insert(pick),
        1 => Move::Delete(pick),
        2 => Move::EntrantCycle(pick),
        3 => Move::NearOrigin(pick),
        4 => Move::DeleteKilled(pick),
        _ => Move::Duplicate(pick),
    })
}

/// A mutation applied to both the engine and the mirror point list.
enum Step {
    Insert(Point),
    Delete(usize),
}

/// The steps of `mv` against the engine's current state.
fn plan(mv: &Move, engine: &EclipseEngine, d: usize) -> Vec<Step> {
    let points = engine.points();
    let sky = engine.skyline();
    let member = |pick: u64| points[sky[(pick as usize) % sky.len()]].clone();
    let nudged = |pick: u64| {
        let mut c = member(pick).coords().to_vec();
        c[(pick as usize / 7) % d] -= 0.5;
        Point::new(c)
    };
    match *mv {
        Move::Insert(pick) => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(pick);
            vec![Step::Insert(Point::new(
                (0..d).map(|_| rng.gen_range(0..5) as f64).collect(),
            ))]
        }
        Move::Delete(pick) => vec![Step::Delete((pick as usize) % points.len())],
        Move::EntrantCycle(pick) => vec![Step::Insert(nudged(pick)), Step::Delete(points.len())],
        Move::NearOrigin(pick) => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(pick);
            vec![Step::Insert(Point::new(
                (0..d).map(|_| rng.gen_range(0..2) as f64 * 0.1).collect(),
            ))]
        }
        Move::DeleteKilled(pick) => vec![
            Step::Insert(nudged(pick)),
            Step::Delete(sky[(pick as usize) % sky.len()]),
        ],
        Move::Duplicate(pick) => vec![Step::Insert(member(pick))],
    }
}

/// Asserts the maintained engine answers exactly like `rebuilt`.
fn assert_matches(
    engine: &EclipseEngine,
    rebuilt: &EclipseEngine,
    kind: IntersectionIndexKind,
    boxes: &[WeightRatioBox],
    context: &str,
) {
    let options = QueryOptions::default();
    assert_eq!(engine.skyline(), rebuilt.skyline(), "skyline, {}", context);
    assert_eq!(
        engine.eclipse_query_batch(boxes, &options).unwrap(),
        rebuilt.eclipse_query_batch(boxes, &options).unwrap(),
        "answers, {}",
        context
    );
    assert_eq!(
        engine.eclipse_count_batch(boxes, &options).unwrap(),
        rebuilt.eclipse_count_batch(boxes, &options).unwrap(),
        "counts, {}",
        context
    );
    let maintained = engine
        .cached_index()
        .expect("mutations keep the index built");
    let fresh = rebuilt.build_index(kind).unwrap();
    assert_eq!(maintained.skyline_ids(), fresh.skyline_ids(), "{}", context);
    assert_eq!(maintained.skyline_len(), fresh.skyline_len(), "{}", context);
    assert_eq!(
        maintained.num_intersections(),
        fresh.num_intersections(),
        "{}",
        context
    );
    for b in boxes {
        assert_eq!(
            maintained.intersections_crossing(b).unwrap(),
            fresh.intersections_crossing(b).unwrap(),
            "crossings of {}, {}",
            b,
            context
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Answers equal a from-scratch rebuild at every epoch, and the final
    /// index encodes to the rebuild's bytes, for both kinds at 1 and 4
    /// threads.
    #[test]
    fn overlay_answers_match_rebuild_at_every_epoch(
        seed in 0u64..u64::MAX,
        n in 6usize..40,
        d in 2usize..4,
        moves in proptest::collection::vec(move_strategy(), 1..10),
    ) {
        let points = grid_points(seed, n, d);
        let boxes = probe_boxes(d);
        for kind in [IntersectionIndexKind::Quadtree, IntersectionIndexKind::CuttingTree] {
            for threads in [1usize, 4] {
                let exec = ExecutionContext::with_threads(threads);
                let config = IndexConfig { kind, ..IndexConfig::default() };
                let engine = EclipseEngine::with_index_config(points.clone(), config)
                    .unwrap()
                    .with_execution_context(exec.clone());
                engine.build_index(kind).unwrap();
                let mut mirror = points.clone();
                for (m, mv) in moves.iter().enumerate() {
                    for (s, step) in plan(mv, &engine, d).into_iter().enumerate() {
                        match step {
                            Step::Insert(p) => {
                                engine.insert(p.clone()).unwrap();
                                mirror.push(p);
                            }
                            Step::Delete(id) => {
                                if mirror.len() <= 1 {
                                    continue;
                                }
                                engine.delete(id).unwrap();
                                mirror.remove(id);
                            }
                        }
                        let rebuilt = EclipseEngine::with_index_config(mirror.clone(), config)
                            .unwrap()
                            .with_execution_context(exec.clone());
                        let context = format!(
                            "{kind:?}, {threads} threads, move {m} {mv:?} step {s}, epoch {}",
                            engine.epoch()
                        );
                        assert_matches(&engine, &rebuilt, kind, &boxes, &context);
                    }
                }
                let rebuilt = EclipseEngine::with_index_config(mirror, config)
                    .unwrap()
                    .with_execution_context(exec);
                prop_assert_eq!(
                    engine.cached_index().unwrap().encode_snapshot(),
                    rebuilt.build_index(kind).unwrap().encode_snapshot(),
                    "snapshot bytes ({:?}, {} threads)", kind, threads
                );
            }
        }
    }
}
