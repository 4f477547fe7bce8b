//! Property suite for score gaps within a few ulps of `EPS`.
//!
//! Each scene plants pairs of twins that score `EPS` apart (give or take a
//! few representable gaps) at the lower corner of the probe box and swap
//! order inside it, so whether one twin dominates the other depends on
//! rounding.  A
//! third point dominates both twins by a clear margin, so the answer never
//! depends on that rounding: both twins are out.  Random background
//! points fill the rest of the scene.  The built index, an engine that
//! received the planted points as mutations and a server that received
//! them over the wire must all answer exactly as the BASE oracle does.
//!
//! An index that counts a pair by one corner test and takes the count back
//! by another can cancel the clear dominator's count and report a twin;
//! this suite is the guard against that class of defect.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use eclipse_core::algo::baseline::eclipse_baseline;
use eclipse_core::exec::{ExecutionContext, QueryOptions};
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, Point, WeightRatioBox};
use eclipse_geom::approx::EPS;
use eclipse_serve::client::Client;
use eclipse_serve::protocol::IndexKind;
use eclipse_serve::server::Server;

/// The score of `p` at the lower corner `(lo, …, lo)`, summed as a probe
/// sums it: the ratio terms first, the constant term last.
fn corner_score(p: &[f64], lo: f64) -> f64 {
    let k = p.len() - 1;
    p[..k].iter().map(|c| lo * c).sum::<f64>() + p[k]
}

/// One planted triple for the box `[lo, hi]`: twins `x` and `y` and a
/// point `z` that dominates both over the box.
///
/// `y` gives up `drop` on the first axis and pays about `lo·drop` on the
/// last one (the score's constant term), so the twins score alike at the
/// lower corner `lo` but for a planted gap, and `y` pulls ahead as the
/// first ratio grows.  The gap is the first representable corner-score gap
/// past `EPS` (past `−EPS` when `below`), moved by `shift` representable
/// gaps: within a few ulps of `±EPS`, on both sides of it.
fn plant(
    rng: &mut impl Rng,
    d: usize,
    (lo, hi): (f64, f64),
    shift: i64,
    below: bool,
) -> [Point; 3] {
    let x: Vec<f64> = (0..d).map(|_| rng.gen_range(1.0..3.0)).collect();
    let drop = rng.gen_range(0.25..0.75);
    let mut y = x.clone();
    y[0] -= drop;
    let sign = if below { -1.0 } else { 1.0 };
    y[d - 1] = x[d - 1] + lo * drop + sign * EPS;
    let sx = corner_score(&x, lo);
    // The gap as seen from the planted side: positive past EPS.
    let gap = |y: &[f64]| sign * (corner_score(y, lo) - sx);
    let toward = |v: f64, away: bool| {
        if away == below {
            v.next_down()
        } else {
            v.next_up()
        }
    };
    while gap(&y) > EPS {
        y[d - 1] = toward(y[d - 1], false);
    }
    while gap(&y) <= EPS {
        y[d - 1] = toward(y[d - 1], true);
    }
    for _ in 0..shift.unsigned_abs() {
        let from = gap(&y);
        while gap(&y) == from {
            y[d - 1] = toward(y[d - 1], shift > 0);
        }
    }
    // `z` sits between the twins, so all three stay on the skyline: a
    // little worse than `y` on the first axis, better than `y` on the
    // constant term by `c`, and worse than `x` there.  With
    // `0.01·hi < c < lo·drop` it scores below both by a clear margin
    // everywhere in the box.
    let c = (0.01 * hi + lo * drop) / 2.0;
    let mut z = y.clone();
    z[0] += 0.01;
    z[d - 1] -= c;
    [Point::new(x), Point::new(y), Point::new(z)]
}

/// A scene of `triples` planted triples among `background` random points
/// (the planted points come last), and its probe box.
fn scene(seed: u64, d: usize, triples: usize, background: usize) -> (Vec<Point>, WeightRatioBox) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let lo = [0.5, 1.0, 1.5][rng.gen_range(0..3)];
    let hi = lo + rng.gen_range(0.5..2.0);
    let mut points: Vec<Point> = (0..background)
        .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..4.0)).collect()))
        .collect();
    for _ in 0..triples {
        let shift = rng.gen_range(-2..3);
        let below = rng.gen_bool(0.5);
        points.extend(plant(&mut rng, d, (lo, hi), shift, below));
    }
    (points, WeightRatioBox::uniform(d, lo, hi).unwrap())
}

/// The answers every path must give: BASE's ids and their count.
fn assert_answers(got: &[Vec<usize>], counts: &[usize], want: &[usize], path: &str) {
    assert_eq!(got, [want.to_vec()], "{path}");
    assert_eq!(counts, [want.len()], "{path} count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planted_eps_gaps_answer_like_base(
        seed in 0u64..u64::MAX,
        d in 2usize..5,
        triples in 1usize..4,
        background in 0usize..40,
    ) {
        let (points, bx) = scene(seed, d, triples, background);
        let want = eclipse_baseline(&points, &bx).unwrap();
        let boxes = [bx];
        let opts = QueryOptions::default();

        // The built index.
        let built = EclipseEngine::new(points.clone())
            .unwrap()
            .with_execution_context(ExecutionContext::serial());
        let index = built.build_index(IntersectionIndexKind::default()).unwrap();
        assert_answers(
            &[index.query(&boxes[0]).unwrap()],
            &[index.count(&boxes[0]).unwrap()],
            &want,
            "built index",
        );

        // An engine whose index saw the planted points arrive as inserts.
        let mutated = EclipseEngine::new(points[..background.max(1)].to_vec())
            .unwrap()
            .with_execution_context(ExecutionContext::serial());
        mutated.build_index(IntersectionIndexKind::default()).unwrap();
        for p in &points[background.max(1)..] {
            mutated.insert(p.clone()).unwrap();
        }
        prop_assert!(mutated.cached_index().is_some());
        assert_answers(
            &mutated.eclipse_query_batch(&boxes, &opts).unwrap(),
            &mutated.eclipse_count_batch(&boxes, &opts).unwrap(),
            &want,
            "mutated engine",
        );

        // A server that received the planted points over the wire.
        let handle = Server::bind("127.0.0.1:0", ExecutionContext::serial())
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .load_dataset("ties", &points[..background.max(1)], IndexKind::Quadtree)
            .unwrap();
        for p in &points[background.max(1)..] {
            client.insert("ties", p.coords()).unwrap();
        }
        assert_answers(
            &client.query_batch("ties", &boxes).unwrap(),
            &client.count_batch("ties", &boxes).unwrap(),
            &want,
            "server",
        );
        handle.shutdown();
    }
}

/// The twins of every planted triple are out of BASE's answer, so the
/// property above checks the rounding-independent case it is meant to.
#[test]
fn planted_twins_are_dominated_in_base() {
    for seed in 0..50u64 {
        let (points, bx) = scene(seed, 2 + (seed as usize) % 3, 3, 10);
        let answer = eclipse_baseline(&points, &bx).unwrap();
        for twin in (10..points.len()).filter(|i| (i - 10) % 3 < 2) {
            assert!(!answer.contains(&twin), "seed {seed}: twin {twin} reported");
        }
    }
}
