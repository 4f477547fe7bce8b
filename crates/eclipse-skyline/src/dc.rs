//! Multidimensional divide-and-conquer skyline (the ECDF-style algorithm of
//! Bentley \[3\] cited by the paper for its O(n log^{d−1} n) bound).
//!
//! Structure:
//!
//! 1. exact duplicates are factored out first (duplicates never dominate each
//!    other, so each duplicate of a surviving representative survives);
//! 2. the point set is sorted by the last dimension and split at the median
//!    index into a "low" half `L` and a "high" half `H`;
//! 3. both halves are solved recursively;
//! 4. a *marriage* (filter) step removes from `skyline(H)` every point weakly
//!    dominated by a point of `skyline(L)` **on the first d−1 dimensions
//!    only** — correct because every point of `L` has a last coordinate no
//!    larger than every point of `H`, and exact duplicates were removed up
//!    front (see the correctness notes inline);
//! 5. the filter itself is a recursive divide-and-conquer on one fewer
//!    dimension with 1-D / 2-D sweep base cases.
//!
//! The implementation favours clarity and correctness on degenerate inputs
//! (ties, duplicated coordinates, tiny inputs) over squeezing constants; the
//! benchmarks in `eclipse-bench` compare it against BNL/SFS on the paper's
//! workloads.

use std::collections::HashMap;

use eclipse_exec::ThreadPool;
use eclipse_geom::point::{flatten, Point};

use crate::dominance::skyline_naive;
use crate::sweep::skyline_2d;

/// Inputs at or below this size are handled by the naive skyline.
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

/// The row-major core of every entry.
fn dc_rows(rows: &[f64], d: usize, par: Option<(&ThreadPool, usize)>) -> Vec<usize> {
    assert!(
        d > 0 && rows.len().is_multiple_of(d),
        "{} coordinates do not form rows of dimension {d}",
        rows.len()
    );
    let row = |i: usize| &rows[i * d..(i + 1) * d];

    // Deduplicate exact coordinate vectors; representatives carry all their
    // duplicate original indices.
    let mut groups: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
    for (i, r) in rows.chunks_exact(d).enumerate() {
        let key: Vec<u64> = r.iter().map(|c| c.to_bits()).collect();
        groups.entry(key).or_default().push(i);
    }
    let mut reps: Vec<usize> = groups.values().map(|g| g[0]).collect();
    reps.sort_unstable();
    let rep_points: Vec<Point> = reps.iter().map(|&i| Point::from_slice(row(i))).collect();

    let par = par.filter(|&(pool, _)| pool.threads() > 1);
    let surviving = dc_recursive(
        &rep_points,
        &(0..rep_points.len()).collect::<Vec<_>>(),
        d,
        par,
    );

    let mut out = Vec::new();
    for local in surviving {
        let key: Vec<u64> = row(reps[local]).iter().map(|c| c.to_bits()).collect();
        out.extend_from_slice(&groups[&key]);
    }
    out.sort_unstable();
    out
}

/// Recursively computes the skyline of the subset `ids` (indices into
/// `points`, all unique coordinate vectors) considering the first `d`
/// dimensions.  Returns surviving ids.  With `par` set, divide steps on
/// subproblems above the fork cutoff run as fork-join branches on the pool;
/// the recursion itself is pure, so forking cannot change the result.
fn dc_recursive(
    points: &[Point],
    ids: &[usize],
    d: usize,
    par: Option<(&ThreadPool, usize)>,
) -> Vec<usize> {
    if ids.len() <= 1 {
        return ids.to_vec();
    }
    if d == 1 {
        // Keep every point attaining the minimum value (ties cannot strictly
        // dominate each other).
        let min = ids
            .iter()
            .map(|&i| points[i].coord(0))
            .fold(f64::INFINITY, f64::min);
        return ids
            .iter()
            .copied()
            .filter(|&i| points[i].coord(0) == min)
            .collect();
    }
    if ids.len() <= SMALL_INPUT {
        let sub: Vec<Point> = ids.iter().map(|&i| truncate(points, i, d)).collect();
        return skyline_naive(&sub).into_iter().map(|k| ids[k]).collect();
    }
    if d == 2 {
        let sub: Vec<Point> = ids.iter().map(|&i| truncate(points, i, 2)).collect();
        return skyline_2d(&sub).into_iter().map(|k| ids[k]).collect();
    }

    // Sort by the last considered dimension and split at the median index.
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        points[a]
            .coord(d - 1)
            .total_cmp(&points[b].coord(d - 1))
            .then_with(|| points[a].lex_cmp(&points[b]))
    });
    let mid = order.len() / 2;
    let (low, high) = order.split_at(mid);

    let (sl, sh) = match par {
        Some((pool, cutoff)) if ids.len() > cutoff => pool.join(
            || dc_recursive(points, low, d, par),
            || dc_recursive(points, high, d, par),
        ),
        _ => (
            dc_recursive(points, low, d, par),
            dc_recursive(points, high, d, par),
        ),
    };
    // Every point of `low` has coord(d-1) <= every point of `high`; after
    // deduplication a point of `sh` is dominated (in d dims) by a point of
    // `sl` exactly when it is weakly dominated on the first d-1 dimensions.
    let sh_survivors = filter_weakly_dominated(points, &sl, &sh, d - 1);

    let mut out = sl;
    out.extend(sh_survivors);
    out
}

/// Removes from `b_ids` every point weakly dominated (`≤` on every one of the
/// first `k` dimensions) by some point of `a_ids`.  Returns the survivors.
fn filter_weakly_dominated(
    points: &[Point],
    a_ids: &[usize],
    b_ids: &[usize],
    k: usize,
) -> Vec<usize> {
    if a_ids.is_empty() || b_ids.is_empty() {
        return b_ids.to_vec();
    }
    if k == 0 {
        // Weak dominance over zero dimensions always holds.
        return Vec::new();
    }
    if k == 1 {
        let min_a = a_ids
            .iter()
            .map(|&i| points[i].coord(0))
            .fold(f64::INFINITY, f64::min);
        return b_ids
            .iter()
            .copied()
            .filter(|&b| points[b].coord(0) < min_a)
            .collect();
    }
    if a_ids.len() * b_ids.len() <= SMALL_FILTER {
        return filter_brute_force(points, a_ids, b_ids, k);
    }
    if k == 2 {
        return filter_2d(points, a_ids, b_ids);
    }

    // Split on dimension k-1.
    let mut values: Vec<f64> = a_ids
        .iter()
        .chain(b_ids.iter())
        .map(|&i| points[i].coord(k - 1))
        .collect();
    values.sort_by(|a, b| a.total_cmp(b));
    let min_v = values[0];
    let max_v = values[values.len() - 1];
    if min_v == max_v {
        // The dimension is uninformative (all equal): weak dominance on it is
        // automatic; recurse with one fewer dimension.
        return filter_weakly_dominated(points, a_ids, b_ids, k - 1);
    }
    let mut split = values[values.len() / 2];
    // Guarantee progress: `lo` (<= split) and `hi` (> split) must both be
    // non-empty; fall back to the midpoint when the median equals the max.
    if split == max_v {
        split = 0.5 * (min_v + max_v);
    }

    let (a_lo, a_hi): (Vec<usize>, Vec<usize>) = a_ids
        .iter()
        .copied()
        .partition(|&i| points[i].coord(k - 1) <= split);
    let (b_lo, b_hi): (Vec<usize>, Vec<usize>) = b_ids
        .iter()
        .copied()
        .partition(|&i| points[i].coord(k - 1) <= split);

    // Low B points can only be dominated by low A points (high A points have
    // a strictly larger coord(k-1)).
    let b_lo_survivors = filter_weakly_dominated(points, &a_lo, &b_lo, k);
    // High B points: compare against high A points in full k dimensions, and
    // against low A points in k-1 dimensions (their coord(k-1) is already
    // strictly smaller).
    let b_hi_vs_hi = filter_weakly_dominated(points, &a_hi, &b_hi, k);
    let b_hi_survivors = filter_weakly_dominated(points, &a_lo, &b_hi_vs_hi, k - 1);

    let mut out = b_lo_survivors;
    out.extend(b_hi_survivors);
    out
}

/// Brute-force weak-dominance filter on the first `k` dimensions.
fn filter_brute_force(points: &[Point], a_ids: &[usize], b_ids: &[usize], k: usize) -> Vec<usize> {
    b_ids
        .iter()
        .copied()
        .filter(|&b| {
            !a_ids
                .iter()
                .any(|&a| (0..k).all(|j| points[a].coord(j) <= points[b].coord(j)))
        })
        .collect()
}

/// Sweep-based weak-dominance filter for k = 2: sort the A points by the
/// first coordinate and keep prefix minima of the second; a B point is
/// dominated iff the best A second-coordinate among `a[0] ≤ b[0]` is `≤ b[1]`.
fn filter_2d(points: &[Point], a_ids: &[usize], b_ids: &[usize]) -> Vec<usize> {
    let mut a_sorted: Vec<usize> = a_ids.to_vec();
    a_sorted.sort_by(|&x, &y| points[x].coord(0).total_cmp(&points[y].coord(0)));
    let xs: Vec<f64> = a_sorted.iter().map(|&i| points[i].coord(0)).collect();
    let mut prefix_min_y: Vec<f64> = Vec::with_capacity(a_sorted.len());
    let mut best = f64::INFINITY;
    for &i in &a_sorted {
        best = best.min(points[i].coord(1));
        prefix_min_y.push(best);
    }
    b_ids
        .iter()
        .copied()
        .filter(|&b| {
            let bx = points[b].coord(0);
            // Number of A points with a[0] <= b[0].
            let cnt = xs.partition_point(|&x| x <= bx);
            if cnt == 0 {
                return true;
            }
            prefix_min_y[cnt - 1] > points[b].coord(1)
        })
        .collect()
}

/// Projects point `i` onto its first `d` dimensions.
fn truncate(points: &[Point], i: usize, d: usize) -> Point {
    Point::new(points[i].coords()[..d].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::skyline_bnl;
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
