//! Multidimensional divide-and-conquer skyline (the ECDF-style algorithm of
//! Bentley \[3\] cited by the paper for its O(n log^{d−1} n) bound).
//!
//! The core works on `u32` row ids into one row-major coordinate buffer,
//! sorts once and recurses in place; it builds no `Point`:
//!
//! 1. one sort orders the ids by the last dimension, then
//!    lexicographically.  Equal rows end up next to each other, and each
//!    run's first row stands for the run (duplicates never dominate each
//!    other, so they share their representative's fate).  The order also
//!    puts every row after all rows that dominate it;
//! 2. the recursion splits its slice of sorted representatives at the
//!    median index into a "low" half `L` and a "high" half `H`, solves
//!    both halves (forking them on the pool above a size cutoff) and gets
//!    each half's survivors back compacted to its front;
//! 3. a *marriage* (filter) step removes from `skyline(H)` every row weakly
//!    dominated by a row of `skyline(L)` **on the first d−1 dimensions
//!    only** — correct because every row of `L` has a last coordinate no
//!    larger than every row of `H`, and no two representatives are equal;
//! 4. the filter itself is a divide-and-conquer on one fewer dimension,
//!    partitioning both id slices in place around a median, with 1-D / 2-D
//!    sweep base cases.
//!
//! Small subproblems are swept in sorted order instead: a row survives
//! unless a survivor before it weakly dominates it.
//!
//! **Signed zeros.**  `−0.0` and `+0.0` are the same value here, as in
//! [`dominates_coords`](crate::dominance::dominates_coords): the sort
//! compares `c + 0.0` (which maps `−0.0` to `+0.0`) and the dedup compares
//! rows with `==`, so a `−0.0` row and its `+0.0` twin form one run and
//! survive or fall together.

use std::cmp::Ordering;

use eclipse_exec::ThreadPool;
use eclipse_geom::point::{flatten, Point};

/// Inputs at or below this size are swept in sorted order.
const SMALL_INPUT: usize = 48;
/// Filter subproblems at or below this many pairs are handled brute-force.
const SMALL_FILTER: usize = 512;
/// Divide steps on subproblems above this size fork via the pool by default.
pub(crate) const DEFAULT_FORK_CUTOFF: usize = 2048;

/// Computes the skyline with the divide-and-conquer (ECDF) algorithm and
/// returns the indices of the skyline points in ascending index order.
pub fn skyline_dc(points: &[Point]) -> Vec<usize> {
    skyline_dc_impl(points, None)
}

/// [`skyline_dc`] with the divide step forked onto `pool` (the two recursive
/// halves run as fork-join branches while the pool has leases and the
/// subproblem is large enough to amortise a fork).
///
/// The recursion is deterministic, so the result is *identical* to
/// [`skyline_dc`] — same indices, same order — at every thread count.
pub fn skyline_dc_parallel(points: &[Point], pool: &ThreadPool) -> Vec<usize> {
    skyline_dc_impl(points, Some((pool, DEFAULT_FORK_CUTOFF)))
}

/// [`skyline_dc_parallel`] over a row-major coordinate buffer: point `i` is
/// `rows[i * dim..(i + 1) * dim]`.  The entry for callers that store their
/// dataset as one buffer; the `&[Point]` entries flatten their input once
/// and run this same core, so both answer identically.
///
/// # Panics
/// Panics when `dim` is zero or `rows.len()` is not a multiple of `dim`.
pub fn skyline_dc_rows(rows: &[f64], dim: usize, pool: &ThreadPool) -> Vec<usize> {
    dc_rows(rows, dim, Some((pool, DEFAULT_FORK_CUTOFF)))
}

/// Shared `&[Point]` entry: `par` carries the pool plus the minimum
/// subproblem size worth forking (exposed crate-internally so the executor
/// layer can lower the cutoff in tests).
pub(crate) fn skyline_dc_impl(points: &[Point], par: Option<(&ThreadPool, usize)>) -> Vec<usize> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let d = first.dim();
    assert!(
        points.iter().all(|p| p.dim() == d),
        "all points must share the same dimensionality"
    );
    dc_rows(&flatten(points), d, par)
}

/// One row-major buffer of `d`-wide rows, addressed by `u32` row id.
#[derive(Clone, Copy)]
struct Rows<'a> {
    buf: &'a [f64],
    d: usize,
}

impl<'a> Rows<'a> {
    fn row(self, i: u32) -> &'a [f64] {
        let at = i as usize * self.d;
        &self.buf[at..at + self.d]
    }

    fn c(self, i: u32, j: usize) -> f64 {
        self.buf[i as usize * self.d + j]
    }

    /// Row `p` is `≤` row `q` on each of the first `k` dimensions.
    fn weakly_below(self, p: u32, q: u32, k: usize) -> bool {
        let (p, q) = (self.row(p), self.row(q));
        p[..k].iter().zip(&q[..k]).all(|(a, b)| a <= b)
    }
}

/// The one sort order: by the last coordinate, then lexicographically, with
/// `−0.0` equal to `+0.0`.
fn row_order(a: &[f64], b: &[f64]) -> Ordering {
    let cmp = |x: &f64, y: &f64| (x + 0.0).total_cmp(&(y + 0.0));
    cmp(&a[a.len() - 1], &b[b.len() - 1]).then_with(|| {
        let mut pairs = a.iter().zip(b).map(|(x, y)| cmp(x, y));
        pairs.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    })
}

/// The row-major core of every entry.
fn dc_rows(buf: &[f64], d: usize, par: Option<(&ThreadPool, usize)>) -> Vec<usize> {
    assert!(
        d > 0 && buf.len().is_multiple_of(d),
        "{} coordinates do not form rows of dimension {d}",
        buf.len()
    );
    let n = buf.len() / d;
    let rows = Rows { buf, d };
    let mut ids: Vec<u32> = (0..u32::try_from(n).expect("at most u32::MAX rows")).collect();
    ids.sort_unstable_by(|&a, &b| row_order(rows.row(a), rows.row(b)));
    let same = |a: u32, b: u32| rows.row(a) == rows.row(b);
    let mut reps = ids.clone();
    reps.dedup_by(|b, a| same(*a, *b));

    let par = par.filter(|&(pool, _)| pool.threads() > 1);
    let kept = dc(rows, &mut reps, par, &mut Vec::new());
    let mut keep = vec![false; n];
    for &r in &reps[..kept] {
        keep[r as usize] = true;
    }
    // A duplicate shares the fate of the first row of its run.
    for pair in ids.windows(2) {
        if same(pair[0], pair[1]) {
            keep[pair[1] as usize] = keep[pair[0] as usize];
        }
    }
    (0..n).filter(|&i| keep[i]).collect()
}

/// Computes the skyline of `ids` (distinct rows in the sort order) in
/// place: the survivors end up at the front, and their count is returned.
/// With `par` set, the halves of subproblems above the fork cutoff run as
/// fork-join branches; each branch touches only its own half, so forking
/// cannot change the result.
fn dc(
    rows: Rows,
    ids: &mut [u32],
    par: Option<(&ThreadPool, usize)>,
    scratch: &mut Vec<f64>,
) -> usize {
    if ids.len() <= 1 || rows.d == 1 {
        // Distinct 1-D rows in ascending order: only the first survives.
        return ids.len().min(1);
    }
    if rows.d == 2 {
        // By ascending y: a row survives iff its x beats every earlier x.
        let mut best_x = rows.c(ids[0], 0);
        return 1 + partition(&mut ids[1..], |q| {
            let x = rows.c(q, 0);
            let kept = x < best_x;
            if kept {
                best_x = x;
            }
            kept
        });
    }
    if ids.len() <= SMALL_INPUT {
        let mut kept = 0;
        for i in 0..ids.len() {
            let q = ids[i];
            if !ids[..kept].iter().any(|&p| rows.weakly_below(p, q, rows.d)) {
                ids.swap(kept, i);
                kept += 1;
            }
        }
        return kept;
    }

    let (len, mid) = (ids.len(), ids.len() / 2);
    let (low, high) = ids.split_at_mut(mid);
    let (kept_low, kept_high) = match par {
        Some((pool, cutoff)) if len > cutoff => pool.join(
            || dc(rows, low, par, &mut Vec::new()),
            || dc(rows, high, par, scratch),
        ),
        _ => (dc(rows, low, par, scratch), dc(rows, high, par, scratch)),
    };
    // Every row of `low` has a last coordinate no larger than every row of
    // `high`, and no two rows are equal, so a row of `high` is dominated by
    // a row of `low` exactly when it is weakly dominated on the first d-1
    // dimensions.
    let kept_high = filter(
        rows,
        &mut low[..kept_low],
        &mut high[..kept_high],
        rows.d - 1,
        scratch,
    );
    ids.copy_within(mid..mid + kept_high, kept_low);
    kept_low + kept_high
}

/// Removes from `b` every row weakly dominated (`≤` on each of the first
/// `k` dimensions) by a row of `a`: the survivors end up at the front of
/// `b`, and their count is returned.  Both slices are reordered in place.
fn filter(rows: Rows, a: &mut [u32], b: &mut [u32], k: usize, scratch: &mut Vec<f64>) -> usize {
    if a.is_empty() || b.is_empty() {
        return b.len();
    }
    if k == 0 {
        // Weak dominance over zero dimensions always holds.
        return 0;
    }
    if k == 1 {
        let min_a = a
            .iter()
            .map(|&p| rows.c(p, 0))
            .fold(f64::INFINITY, f64::min);
        return partition(b, |q| rows.c(q, 0) < min_a);
    }
    if a.len() * b.len() <= SMALL_FILTER {
        return partition(b, |q| !a.iter().any(|&p| rows.weakly_below(p, q, k)));
    }
    if k == 2 {
        // Sweep both sides by x: a row of `b` is dominated iff the least y
        // among the rows of `a` with an x no larger than its own is `≤` its y.
        let by_x =
            |s: &mut [u32]| s.sort_unstable_by(|&p, &q| rows.c(p, 0).total_cmp(&rows.c(q, 0)));
        by_x(a);
        by_x(b);
        let (mut seen, mut best_y) = (0, f64::INFINITY);
        return partition(b, |q| {
            while seen < a.len() && rows.c(a[seen], 0) <= rows.c(q, 0) {
                best_y = best_y.min(rows.c(a[seen], 1));
                seen += 1;
            }
            seen == 0 || best_y > rows.c(q, 1)
        });
    }

    // Split on dimension k-1 at the median of both sides' values.
    scratch.clear();
    scratch.extend(a.iter().chain(b.iter()).map(|&i| rows.c(i, k - 1)));
    let (min_v, max_v) = scratch
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if min_v == max_v {
        // The dimension is uninformative (all equal): weak dominance on it is
        // automatic; recurse with one fewer dimension.
        return filter(rows, a, b, k - 1, scratch);
    }
    let median = scratch.len() / 2;
    let mut split = *scratch.select_nth_unstable_by(median, f64::total_cmp).1;
    // Guarantee progress: `lo` (<= split) and `hi` (> split) must both be
    // non-empty; fall back to the midpoint when the median equals the max,
    // and to the min when the midpoint rounds up to the max.
    if split == max_v {
        split = 0.5 * (min_v + max_v);
        if split == max_v {
            split = min_v;
        }
    }
    let a_low = partition(a, |p| rows.c(p, k - 1) <= split);
    let b_low = partition(b, |q| rows.c(q, k - 1) <= split);
    let (a_lo, a_hi) = a.split_at_mut(a_low);
    let (b_lo, b_hi) = b.split_at_mut(b_low);

    // Low B rows can only be dominated by low A rows (high A rows have a
    // strictly larger coordinate k-1).
    let kept_lo = filter(rows, a_lo, b_lo, k, scratch);
    // High B rows: compare against high A rows in full k dimensions, and
    // against low A rows in k-1 dimensions (their coordinate k-1 is already
    // strictly smaller).
    let kept_hi = filter(rows, a_hi, b_hi, k, scratch);
    let kept_hi = filter(rows, a_lo, &mut b_hi[..kept_hi], k - 1, scratch);
    b.copy_within(b_low..b_low + kept_hi, kept_lo);
    kept_lo + kept_hi
}

/// Moves the ids that satisfy `keep` to the front of `ids`, in their order,
/// and returns how many there are; the others follow in some order.
fn partition(ids: &mut [u32], mut keep: impl FnMut(u32) -> bool) -> usize {
    let mut kept = 0;
    for i in 0..ids.len() {
        if keep(ids[i]) {
            ids.swap(kept, i);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::skyline_bnl;
    use crate::dominance::skyline_naive;
    use rand::{Rng, SeedableRng};

    fn p(c: &[f64]) -> Point {
        Point::from_slice(c)
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(skyline_dc(&[]), Vec::<usize>::new());
        assert_eq!(skyline_dc(&[p(&[1.0, 2.0, 3.0])]), vec![0]);
    }

    #[test]
    fn paper_running_example() {
        let pts = vec![
            p(&[1.0, 6.0]),
            p(&[4.0, 4.0]),
            p(&[6.0, 1.0]),
            p(&[8.0, 5.0]),
        ];
        assert_eq!(skyline_dc(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_all_survive_or_all_fall() {
        let pts = vec![
            p(&[1.0, 1.0, 1.0]),
            p(&[1.0, 1.0, 1.0]),
            p(&[2.0, 2.0, 2.0]),
            p(&[2.0, 2.0, 2.0]),
            p(&[0.5, 3.0, 3.0]),
        ];
        let got = skyline_dc(&pts);
        assert_eq!(got, vec![0, 1, 4]);
    }

    #[test]
    fn one_dimensional_keeps_all_minima() {
        let pts = vec![p(&[2.0]), p(&[1.0]), p(&[1.0]), p(&[3.0])];
        assert_eq!(skyline_dc(&pts), vec![1, 2]);
    }

    #[test]
    fn matches_naive_small_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for d in 2..=6usize {
            for _ in 0..10 {
                let n = rng.gen_range(1..150);
                let pts: Vec<Point> = (0..n)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                    .collect();
                assert_eq!(skyline_dc(&pts), skyline_naive(&pts), "d = {d}, n = {n}");
            }
        }
    }

    #[test]
    fn matches_bnl_large_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for d in [2usize, 3, 4, 5] {
            let pts: Vec<Point> = (0..3000)
                .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                .collect();
            assert_eq!(skyline_dc(&pts), skyline_bnl(&pts), "d = {d}");
        }
    }

    #[test]
    fn matches_naive_on_discrete_grid_with_many_ties() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for d in 2..=4usize {
            for _ in 0..10 {
                let pts: Vec<Point> = (0..400)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0..5) as f64).collect()))
                    .collect();
                assert_eq!(skyline_dc(&pts), skyline_naive(&pts), "d = {d}");
            }
        }
    }

    #[test]
    fn anti_correlated_everything_survives() {
        let n = 500;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                p(&[x, 1.0 - x, 0.5])
            })
            .collect();
        assert_eq!(skyline_dc(&pts).len(), n);
    }

    #[test]
    fn correlated_chain_keeps_single_point() {
        let pts: Vec<Point> = (0..500)
            .map(|i| p(&[i as f64, i as f64 + 1.0, i as f64 + 2.0]))
            .collect();
        assert_eq!(skyline_dc(&pts), vec![0]);
    }

    #[test]
    fn signed_zero_twins_survive_together() {
        // Each row with -0.0 has a +0.0 twin; the two are equal, so neither
        // dominates the other and all 100 rows are on the skyline.  Told
        // apart by their bits, the twins were once split into two groups
        // and the filter dropped one of each pair as weakly dominated.
        let mut pts: Vec<Point> = (0..50)
            .map(|i| p(&[i as f64, 99.0 - i as f64, -0.0]))
            .collect();
        pts.extend((0..50).map(|i| p(&[i as f64, 99.0 - i as f64, 0.0])));
        let want = skyline_naive(&pts);
        assert_eq!(want.len(), 100);
        assert_eq!(skyline_dc(&pts), want);
        let pool = eclipse_exec::ThreadPool::with_threads(4);
        assert_eq!(skyline_dc_impl(&pts, Some((&pool, 8))), want);
        // Signed zeros on every axis, mixed with duplicates.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for d in 2..=5usize {
            let pts: Vec<Point> = (0..300)
                .map(|_| {
                    Point::new(
                        (0..d)
                            .map(|_| [-0.0, 0.0, 1.0][rng.gen_range(0..3)])
                            .collect(),
                    )
                })
                .collect();
            assert_eq!(skyline_dc(&pts), skyline_naive(&pts), "d = {d}");
        }
    }

    #[test]
    fn a_median_on_the_upper_of_two_adjacent_floats_still_splits() {
        // On dimension 2 most rows sit on `hi`, the float right after `lo`,
        // where the midpoint of the two rounds up to `hi`: the filter must
        // still split both sides instead of recursing on the same input.
        let lo = 1.0 + f64::EPSILON;
        let hi = f64::from_bits(lo.to_bits() + 1);
        assert_eq!(0.5 * (lo + hi), hi);
        let pts: Vec<Point> = (0..200)
            .map(|i| {
                let c2 = if i % 5 == 0 { lo } else { hi };
                p(&[i as f64, 200.0 - i as f64, c2, (i % 7) as f64])
            })
            .collect();
        assert_eq!(skyline_dc(&pts), skyline_naive(&pts));
    }

    #[test]
    #[should_panic(expected = "same dimensionality")]
    fn rejects_mixed_dimensionality() {
        let _ = skyline_dc(&[p(&[1.0, 2.0]), p(&[1.0, 2.0, 3.0])]);
    }

    #[test]
    fn rows_entry_matches_the_points_entry() {
        // The inputs of the property tests above: small random sets at
        // d = 2..6, discrete grids full of ties and duplicates, and large
        // random sets that take the forked path at 4 threads.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut inputs: Vec<Vec<Point>> = Vec::new();
        for d in 2..=6usize {
            for _ in 0..4 {
                let n = rng.gen_range(1..150);
                inputs.push(
                    (0..n)
                        .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                        .collect(),
                );
            }
        }
        for d in 2..=4usize {
            inputs.push(
                (0..400)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0..5) as f64).collect()))
                    .collect(),
            );
            inputs.push(
                (0..3000)
                    .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                    .collect(),
            );
        }
        for threads in [1usize, 4] {
            let pool = eclipse_exec::ThreadPool::with_threads(threads);
            for pts in &inputs {
                let d = pts[0].dim();
                let rows = flatten(pts);
                let want = skyline_dc(pts);
                assert_eq!(
                    skyline_dc_rows(&rows, d, &pool),
                    want,
                    "d = {d}, n = {}, threads = {threads}",
                    pts.len()
                );
                assert_eq!(skyline_dc_parallel(pts, &pool), want);
            }
        }
    }

    #[test]
    fn forked_recursion_is_identical_to_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for d in [3usize, 4, 5] {
            let pts: Vec<Point> = (0..4000)
                .map(|_| Point::new((0..d).map(|_| rng.gen_range(0.0..1.0)).collect()))
                .collect();
            let serial = skyline_dc(&pts);
            for threads in [1usize, 2, 4] {
                let pool = eclipse_exec::ThreadPool::with_threads(threads);
                // Low cutoff so the fork path is exercised at this input size.
                assert_eq!(
                    skyline_dc_impl(&pts, Some((&pool, 64))),
                    serial,
                    "d = {d}, threads = {threads}"
                );
                assert_eq!(skyline_dc_parallel(&pts, &pool), serial);
            }
        }
    }
}
