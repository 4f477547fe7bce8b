//! Workload construction shared by the Criterion benches and the
//! `experiments` binary: the parameter grid of Table IV plus helpers to
//! materialize each dataset/ratio combination, and the synthetic hyperplane
//! workloads probing the Intersection Index hot path directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eclipse_core::point::{BoundingBox, Point};
use eclipse_core::weights::WeightRatioBox;
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_geom::hyperplane::Hyperplane;

/// The point counts of Table IV: 2^7, 2^10, 2^13, 2^17, 2^20.
pub const PAPER_N_VALUES: [usize; 5] = [1 << 7, 1 << 10, 1 << 13, 1 << 17, 1 << 20];

/// The point counts used by default in this reproduction's harness.  The
/// paper's largest settings take the quadratic baseline into the 10^4–10^5
/// second range (its own Figure 10 y-axis); the default harness therefore
/// stops at 2^13 and the `--full` flag restores the full grid.
pub const DEFAULT_N_VALUES: [usize; 3] = [1 << 7, 1 << 10, 1 << 13];

/// The dimensionalities of Table IV.
pub const PAPER_D_VALUES: [usize; 4] = [2, 3, 4, 5];

/// The ratio ranges of Table IV (all dimensions share the same range), from
/// widest to narrowest; the third entry `[0.36, 2.75]` is the default.
pub const PAPER_RATIO_RANGES: [(f64, f64); 4] =
    [(0.18, 5.67), (0.36, 2.75), (0.58, 1.73), (0.84, 1.19)];

/// Default parameters (bold entries of Table IV): `n = 2^10`, `d = 3`,
/// `r[j] ∈ [0.36, 2.75]`.
pub const DEFAULT_N: usize = 1 << 10;
/// Default dimensionality.
pub const DEFAULT_D: usize = 3;
/// Default ratio range.
pub const DEFAULT_RATIO: (f64, f64) = (0.36, 2.75);
/// Default NBA subset size used when varying `d` / `r` (the paper uses 1000).
pub const DEFAULT_NBA_N: usize = 1000;
/// Full NBA dataset size.
pub const FULL_NBA_N: usize = 2384;

/// A named dataset family of Figure 10/11/12: the three synthetic
/// distributions plus the NBA stand-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetFamily {
    /// Correlated synthetic data.
    Corr,
    /// Independent synthetic data.
    Inde,
    /// Anti-correlated synthetic data.
    Anti,
    /// Synthetic NBA-like data (see `eclipse_data::nba`).
    Nba,
}

impl DatasetFamily {
    /// All families in the paper's subplot order.
    pub fn all() -> [DatasetFamily; 4] {
        [
            DatasetFamily::Corr,
            DatasetFamily::Inde,
            DatasetFamily::Anti,
            DatasetFamily::Nba,
        ]
    }

    /// Label used in output rows.
    pub fn label(self) -> &'static str {
        match self {
            DatasetFamily::Corr => "CORR",
            DatasetFamily::Inde => "INDE",
            DatasetFamily::Anti => "ANTI",
            DatasetFamily::Nba => "NBA",
        }
    }

    /// Materializes `n` points in `d` dimensions for this family.
    pub fn generate(self, n: usize, d: usize, seed: u64) -> Vec<Point> {
        match self {
            DatasetFamily::Corr => {
                SyntheticConfig::new(n, d, Distribution::Correlated, seed).generate()
            }
            DatasetFamily::Inde => {
                SyntheticConfig::new(n, d, Distribution::Independent, seed).generate()
            }
            DatasetFamily::Anti => {
                SyntheticConfig::new(n, d, Distribution::AntiCorrelated, seed).generate()
            }
            DatasetFamily::Nba => eclipse_data::nba::nba_dataset(n.min(FULL_NBA_N), d, seed),
        }
    }
}

/// The clustered worst-case dataset of Figs. 13–14.
pub fn worst_case_dataset(n: usize, d: usize, seed: u64) -> Vec<Point> {
    SyntheticConfig::new(n, d, Distribution::ClusteredWorstCase, seed).generate()
}

/// The uniform ratio box `r[j] ∈ [lo, hi]` for a `d`-dimensional dataset.
pub fn ratio_box(d: usize, lo: f64, hi: f64) -> WeightRatioBox {
    WeightRatioBox::uniform(d, lo, hi).expect("paper ratio ranges are always valid")
}

/// The default ratio box of Table IV for dimensionality `d`.
pub fn default_ratio_box(d: usize) -> WeightRatioBox {
    ratio_box(d, DEFAULT_RATIO.0, DEFAULT_RATIO.1)
}

/// Upper bound of the synthetic ratio-space cell the hyperplane probe
/// workloads live in (the indexed region is `[0, PROBE_CELL_HI]^k`).
pub const PROBE_CELL_HI: f64 = 4.0;

/// The root cell of the hyperplane probe workloads.
pub fn probe_root_cell(k: usize) -> BoundingBox {
    BoundingBox::new(vec![0.0; k], vec![PROBE_CELL_HI; k])
}

/// Shapes of synthetic hyperplane sets exercising the Intersection Index
/// directly (without going through a dataset): the tree-level counterpart of
/// [`DatasetFamily`], used by the `index_query` bench.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HyperplaneFamily {
    /// Random orientations anchored uniformly in the cell.
    Uniform,
    /// All hyperplanes pass within a tiny ball around one interior point —
    /// the quadtree's worst case (Figs. 13–14): every subdivision near the
    /// cluster keeps every entry.
    Clustered,
    /// Near-anti-correlated orientations (coefficients summing to ≈ 0),
    /// mimicking the intersection hyperplanes of anti-correlated data.
    Anti,
}

impl HyperplaneFamily {
    /// All families in display order.
    pub fn all() -> [HyperplaneFamily; 3] {
        [
            HyperplaneFamily::Uniform,
            HyperplaneFamily::Clustered,
            HyperplaneFamily::Anti,
        ]
    }

    /// Label used in output rows.
    pub fn label(self) -> &'static str {
        match self {
            HyperplaneFamily::Uniform => "uniform",
            HyperplaneFamily::Clustered => "clustered",
            HyperplaneFamily::Anti => "anti",
        }
    }
}

/// Materializes `n` hyperplanes of a family in `k`-dimensional ratio space,
/// all intersecting [`probe_root_cell`].
pub fn hyperplane_workload(
    family: HyperplaneFamily,
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<Hyperplane> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster_center = vec![0.4 * PROBE_CELL_HI; k];
    (0..n)
        .map(|_| {
            let coeffs: Vec<f64> = match family {
                HyperplaneFamily::Uniform | HyperplaneFamily::Clustered => {
                    (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect()
                }
                HyperplaneFamily::Anti => {
                    let raw: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mean = raw.iter().sum::<f64>() / k as f64;
                    raw.iter().map(|c| c - mean + 1e-3).collect()
                }
            };
            let anchor: Vec<f64> = match family {
                HyperplaneFamily::Uniform | HyperplaneFamily::Anti => {
                    (0..k).map(|_| rng.gen_range(0.0..PROBE_CELL_HI)).collect()
                }
                HyperplaneFamily::Clustered => cluster_center
                    .iter()
                    .map(|c| c + rng.gen_range(-1e-3..1e-3))
                    .collect(),
            };
            let offset: f64 = -coeffs
                .iter()
                .zip(anchor.iter())
                .map(|(c, a)| c * a)
                .sum::<f64>();
            Hyperplane::new(coeffs, offset)
        })
        .collect()
}

/// `m` small axis-aligned probe boxes with side `side_frac * PROBE_CELL_HI`,
/// placed uniformly inside [`probe_root_cell`].
pub fn probe_boxes(m: usize, k: usize, side_frac: f64, seed: u64) -> Vec<BoundingBox> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = side_frac * PROBE_CELL_HI;
    (0..m)
        .map(|_| {
            let lo: Vec<f64> = (0..k)
                .map(|_| rng.gen_range(0.0..(PROBE_CELL_HI - side)))
                .collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + side).collect();
            BoundingBox::new(lo, hi)
        })
        .collect()
}

/// `m` bounded weight-ratio probe boxes for end-to-end [`EclipseIndex`]
/// probing: lower corners in `[0.2, 2.0)`, widths in `[0.05, 1.5)` per axis.
///
/// [`EclipseIndex`]: eclipse_core::index::EclipseIndex
pub fn probe_ratio_boxes(m: usize, d: usize, seed: u64) -> Vec<WeightRatioBox> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            let bounds: Vec<(f64, f64)> = (0..d - 1)
                .map(|_| {
                    let lo = rng.gen_range(0.2..2.0);
                    (lo, lo + rng.gen_range(0.05..1.5))
                })
                .collect();
            WeightRatioBox::from_bounds(&bounds).expect("generated bounds are valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_constants() {
        assert_eq!(PAPER_N_VALUES[0], 128);
        assert_eq!(PAPER_N_VALUES[4], 1_048_576);
        assert_eq!(PAPER_D_VALUES, [2, 3, 4, 5]);
        assert_eq!(PAPER_RATIO_RANGES.len(), 4);
        assert_eq!(DEFAULT_N, 1024);
        assert_eq!(DEFAULT_D, 3);
    }

    #[test]
    fn families_generate_requested_shapes() {
        for fam in DatasetFamily::all() {
            let pts = fam.generate(256, 3, 1);
            assert_eq!(pts.len(), 256, "{fam:?}");
            assert!(pts.iter().all(|p| p.dim() == 3), "{fam:?}");
        }
        // NBA caps at the full league size.
        let nba = DatasetFamily::Nba.generate(10_000, 3, 1);
        assert_eq!(nba.len(), FULL_NBA_N);
    }

    #[test]
    fn ratio_boxes_are_valid() {
        for (lo, hi) in PAPER_RATIO_RANGES {
            let b = ratio_box(3, lo, hi);
            assert_eq!(b.dim(), 3);
        }
        assert_eq!(default_ratio_box(4).num_ratios(), 3);
    }

    #[test]
    fn worst_case_is_generated() {
        let pts = worst_case_dataset(128, 3, 5);
        assert_eq!(pts.len(), 128);
    }

    #[test]
    fn hyperplane_workloads_cross_the_root_cell() {
        let cell = probe_root_cell(2);
        for family in HyperplaneFamily::all() {
            let planes = hyperplane_workload(family, 200, 2, 9);
            assert_eq!(planes.len(), 200, "{family:?}");
            // Every plane passes through an interior anchor, so it must
            // intersect the root cell.
            assert!(planes.iter().all(|h| h.intersects_box(&cell)), "{family:?}");
        }
        // Clustered planes all cross a tiny box around the cluster centre.
        let clustered = hyperplane_workload(HyperplaneFamily::Clustered, 100, 2, 9);
        let around = BoundingBox::new(vec![1.58, 1.58], vec![1.62, 1.62]);
        assert!(clustered.iter().all(|h| h.intersects_box(&around)));
    }

    #[test]
    fn probe_boxes_stay_inside_the_cell() {
        let cell = probe_root_cell(3);
        for b in probe_boxes(50, 3, 0.05, 4) {
            assert!(cell.contains_box(&b));
        }
        for rb in probe_ratio_boxes(20, 3, 4) {
            assert_eq!(rb.dim(), 3);
            assert!(!rb.has_unbounded_range());
        }
    }
}
