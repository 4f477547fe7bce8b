//! Hyperplanes and dual lines.
//!
//! Two families of objects are needed by the eclipse index structures of §IV
//! of the paper:
//!
//! * [`DualLine`] — the dual of a two-dimensional point `p = (a, b)`, namely
//!   the line `y = a·x − b` (de Berg et al.'s duality transform).  The paper's
//!   Order Vector / Intersection indexes are built over these lines.
//! * [`Hyperplane`] — a general affine functional `f(x) = Σ coeffs[i]·x[i] +
//!   offset` over some k-dimensional space, interpreted as the hyperplane
//!   `f(x) = 0`.  The *intersection hyperplanes* of the high-dimensional
//!   index (the loci in weight-ratio space where two points have equal score)
//!   are represented this way, as are the cells tests used by the line
//!   quadtree and the cutting tree.

use std::ops::Range;

use eclipse_persist::{enc, Cursor, PersistError, PersistResult};
use serde::{Deserialize, Serialize};

use crate::approx::EPS;
use crate::point::{BoundingBox, Point};

/// The dual line `y = slope · x − intercept_sub` of a 2-D point
/// `(slope, intercept_sub)`.
///
/// For a primal point `p = (p[1], p[2])` the paper uses the dual line
/// `y = p[1]·x − p[2]`; evaluating it at `x = −r` gives `−S(p)` for the
/// weight-ratio `r`, so "closer to the x-axis" in the dual corresponds to
/// "smaller score" in the primal.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DualLine {
    /// Slope of the dual line (= first primal coordinate `p[1]`).
    pub slope: f64,
    /// Subtracted intercept (= second primal coordinate `p[2]`); the line is
    /// `y = slope·x − intercept_sub`.
    pub intercept_sub: f64,
}

impl DualLine {
    /// Builds the dual line of a 2-D point.
    ///
    /// # Panics
    /// Panics if the point is not two-dimensional.
    pub fn from_point(p: &Point) -> Self {
        assert_eq!(p.dim(), 2, "DualLine requires a 2-D point");
        DualLine {
            slope: p.coord(0),
            intercept_sub: p.coord(1),
        }
    }

    /// Evaluates the line at abscissa `x`.
    #[inline]
    pub fn value_at(&self, x: f64) -> f64 {
        self.slope * x - self.intercept_sub
    }

    /// The primal score `S(p)` of the underlying point for weight-ratio `r`
    /// (i.e. weight vector `⟨r, 1⟩`): `S(p) = r·p[1] + p[2] = −value_at(−r)`.
    #[inline]
    pub fn score_at_ratio(&self, r: f64) -> f64 {
        r * self.slope + self.intercept_sub
    }

    /// The x-coordinate of the intersection with another dual line, or
    /// `None` if the lines are parallel (equal slopes).
    pub fn intersection_x(&self, other: &DualLine) -> Option<f64> {
        let ds = self.slope - other.slope;
        if ds.abs() <= EPS {
            return None;
        }
        Some((self.intercept_sub - other.intercept_sub) / ds)
    }

    /// Recovers the primal point.
    pub fn to_point(&self) -> Point {
        Point::new(vec![self.slope, self.intercept_sub])
    }
}

/// An affine functional `f(x) = Σ coeffs[i]·x[i] + offset` over a
/// k-dimensional space, interpreted as the hyperplane `f(x) = 0`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hyperplane {
    coeffs: Box<[f64]>,
    offset: f64,
}

impl Hyperplane {
    /// Creates a hyperplane from its coefficients and offset.
    ///
    /// # Panics
    /// Panics if `coeffs` is empty.
    pub fn new(coeffs: Vec<f64>, offset: f64) -> Self {
        assert!(
            !coeffs.is_empty(),
            "a Hyperplane needs at least 1 coefficient"
        );
        Hyperplane {
            coeffs: coeffs.into_boxed_slice(),
            offset,
        }
    }

    /// Dimensionality of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient vector.
    #[inline]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The constant offset.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Evaluates the functional at `x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.dim(),
            "dimension mismatch in Hyperplane::eval"
        );
        self.coeffs
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum::<f64>()
            + self.offset
    }

    /// Returns `true` if the hyperplane is degenerate (all coefficients are
    /// numerically zero) — e.g. the "intersection hyperplane" of two points
    /// with identical non-last coordinates.
    pub fn is_degenerate(&self) -> bool {
        self.coeffs.iter().all(|c| c.abs() <= EPS)
    }

    /// Minimum of the functional over an axis-aligned box.
    pub fn min_over_box(&self, bbox: &BoundingBox) -> f64 {
        assert_eq!(bbox.dim(), self.dim(), "dimension mismatch in min_over_box");
        bbox.min_weighted_sum(&self.coeffs) + self.offset
    }

    /// Maximum of the functional over an axis-aligned box.
    pub fn max_over_box(&self, bbox: &BoundingBox) -> f64 {
        assert_eq!(bbox.dim(), self.dim(), "dimension mismatch in max_over_box");
        bbox.max_weighted_sum(&self.coeffs) + self.offset
    }

    /// Returns `true` if the hyperplane `f(x) = 0` intersects the closed box,
    /// i.e. the functional changes sign (or touches zero) over the box.
    ///
    /// Degenerate hyperplanes intersect a box only if their offset is zero
    /// (within tolerance): the functional is constant, so it either vanishes
    /// everywhere or nowhere.
    pub fn intersects_box(&self, bbox: &BoundingBox) -> bool {
        if self.is_degenerate() {
            return self.offset.abs() <= EPS;
        }
        let lo = self.min_over_box(bbox);
        let hi = self.max_over_box(bbox);
        lo <= EPS && hi >= -EPS
    }

    /// Returns `true` if the hyperplane strictly crosses the *interior* of
    /// the box (sign change with margin), excluding mere touches of the
    /// boundary.  Used when replaying order-vector swaps where boundary
    /// contacts must not count as order changes.
    pub fn crosses_box_interior(&self, bbox: &BoundingBox) -> bool {
        if self.is_degenerate() {
            return false;
        }
        let lo = self.min_over_box(bbox);
        let hi = self.max_over_box(bbox);
        lo < -EPS && hi > EPS
    }
}

/// A structure-of-arrays slab of hyperplanes sharing one ambient
/// dimensionality: all coefficient rows in one contiguous buffer plus per-row
/// offsets and precomputed degeneracy flags.
///
/// This is the storage format of the intersection-index hot path: the
/// box-vs-hyperplane sign tests run over dense `f64` rows with a branchless
/// min/max accumulation instead of chasing per-[`Hyperplane`] boxed slices,
/// and the min and max are computed in a single pass.  The accumulation
/// visits axes in order and adds the offset last, exactly like
/// [`Hyperplane::min_over_box`] / [`Hyperplane::max_over_box`], so the slab
/// predicates return the same answers as the per-object ones (up to the sign
/// of zero, which never changes a sum).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HyperplaneSlab {
    dim: usize,
    /// Row-major coefficient rows: row `i` occupies `[i·dim, (i+1)·dim)`.
    coeffs: Vec<f64>,
    offsets: Vec<f64>,
    /// Rows whose coefficients are all within `EPS` of zero, replicating the
    /// degenerate special case of [`Hyperplane::intersects_box`].
    degenerate: Vec<bool>,
}

impl HyperplaneSlab {
    /// An empty slab for `dim`-dimensional hyperplanes.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        HyperplaneSlab::with_capacity(dim, 0)
    }

    /// An empty slab with capacity for exactly `n` rows.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim >= 1, "a HyperplaneSlab needs at least 1 dimension");
        HyperplaneSlab {
            dim,
            coeffs: Vec::with_capacity(n * dim),
            offsets: Vec::with_capacity(n),
            degenerate: Vec::with_capacity(n),
        }
    }

    /// Builds a slab from a slice of hyperplanes (an empty slice yields a
    /// slab of dimension 1 with no rows).
    ///
    /// # Panics
    /// Panics if the hyperplanes have mixed dimensionality.
    pub fn from_hyperplanes(hyperplanes: &[Hyperplane]) -> Self {
        let dim = hyperplanes.first().map_or(1, Hyperplane::dim);
        let mut slab = HyperplaneSlab::with_capacity(dim, hyperplanes.len());
        for h in hyperplanes {
            slab.push(h.coeffs(), h.offset());
        }
        slab
    }

    /// Appends one hyperplane row.
    ///
    /// # Panics
    /// Panics if `coeffs.len()` differs from the slab dimensionality.
    pub fn push(&mut self, coeffs: &[f64], offset: f64) {
        assert_eq!(coeffs.len(), self.dim, "row dimensionality mismatch");
        self.coeffs.extend_from_slice(coeffs);
        self.offsets.push(offset);
        self.degenerate.push(coeffs.iter().all(|c| c.abs() <= EPS));
    }

    /// Appends all rows of another slab of the same dimensionality.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ.
    pub fn extend_from(&mut self, other: &HyperplaneSlab) {
        assert_eq!(other.dim, self.dim, "slab dimensionality mismatch");
        self.coeffs.extend_from_slice(&other.coeffs);
        self.offsets.extend_from_slice(&other.offsets);
        self.degenerate.extend_from_slice(&other.degenerate);
    }

    /// Number of hyperplane rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` when the slab holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Dimensionality of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Heap bytes owned by the slab's three buffers, counted at their
    /// *capacity* (what the allocator actually handed out), not their length.
    pub fn heap_bytes(&self) -> usize {
        self.coeffs.capacity() * std::mem::size_of::<f64>()
            + self.offsets.capacity() * std::mem::size_of::<f64>()
            + self.degenerate.capacity() * std::mem::size_of::<bool>()
    }

    /// The coefficient row of hyperplane `i`.
    #[inline]
    pub fn coeffs_row(&self, i: usize) -> &[f64] {
        &self.coeffs[i * self.dim..(i + 1) * self.dim]
    }

    /// The constant offset of hyperplane `i`.
    #[inline]
    pub fn offset(&self, i: usize) -> f64 {
        self.offsets[i]
    }

    /// Whether row `i` is degenerate (all coefficients numerically zero).
    #[inline]
    pub fn is_degenerate(&self, i: usize) -> bool {
        self.degenerate[i]
    }

    /// Minimum and maximum of functional `i` over the box `[lo, hi]`, in one
    /// branchless pass over the coefficient row.
    ///
    /// # Panics
    /// Panics (in debug builds) if the corner slices do not match the slab
    /// dimensionality; release builds index out of bounds instead.
    #[inline]
    pub fn min_max_over_box(&self, i: usize, lo: &[f64], hi: &[f64]) -> (f64, f64) {
        debug_assert_eq!(lo.len(), self.dim, "corner dimensionality mismatch");
        debug_assert_eq!(hi.len(), self.dim, "corner dimensionality mismatch");
        min_max_of_row(
            &self.coeffs[i * self.dim..(i + 1) * self.dim],
            self.offsets[i],
            lo,
            hi,
        )
    }

    /// Whether hyperplane `i` intersects the closed box `[lo, hi]` — the slab
    /// counterpart of [`Hyperplane::intersects_box`], returning the same
    /// answer.
    #[inline]
    pub fn intersects_box(&self, i: usize, lo: &[f64], hi: &[f64]) -> bool {
        if self.degenerate[i] {
            return self.offsets[i].abs() <= EPS;
        }
        let (min, max) = self.min_max_over_box(i, lo, hi);
        crosses(min, max)
    }

    /// Minimum and maximum of four functionals over the box `[lo, hi]` at
    /// once — the vectorized core of the batched sign tests.
    ///
    /// The accumulation is hand-unrolled into four independent lanes: the
    /// scalar kernel ([`HyperplaneSlab::min_max_over_box`]) is a serial
    /// floating-point min/max reduction the compiler must not reassociate,
    /// but four *independent* rows give it four parallel dependency chains,
    /// which the SLP autovectorizer packs into `f64x2`/`f64x4` `min`/`max`
    /// vector ops.  Each lane performs exactly the scalar kernel's operation
    /// sequence (axes in ascending order, offset added last), so the results
    /// are bit-identical to four scalar calls — batched and scalar filters
    /// always agree.
    ///
    /// Rows must not be degenerate-special-cased by the caller beforehand;
    /// this routine computes raw min/max only (degeneracy is a separate
    /// offset-only test).
    #[inline]
    fn min_max_over_box4(&self, rows: [usize; 4], lo: &[f64], hi: &[f64]) -> ([f64; 4], [f64; 4]) {
        let d = self.dim;
        let r0 = &self.coeffs[rows[0] * d..rows[0] * d + d];
        let r1 = &self.coeffs[rows[1] * d..rows[1] * d + d];
        let r2 = &self.coeffs[rows[2] * d..rows[2] * d + d];
        let r3 = &self.coeffs[rows[3] * d..rows[3] * d + d];
        let mut min = [0.0f64; 4];
        let mut max = [0.0f64; 4];
        for j in 0..d {
            let l = lo[j];
            let h = hi[j];
            let a0 = r0[j] * l;
            let b0 = r0[j] * h;
            let a1 = r1[j] * l;
            let b1 = r1[j] * h;
            let a2 = r2[j] * l;
            let b2 = r2[j] * h;
            let a3 = r3[j] * l;
            let b3 = r3[j] * h;
            min[0] += min_f64(a0, b0);
            min[1] += min_f64(a1, b1);
            min[2] += min_f64(a2, b2);
            min[3] += min_f64(a3, b3);
            max[0] += max_f64(a0, b0);
            max[1] += max_f64(a1, b1);
            max[2] += max_f64(a2, b2);
            max[3] += max_f64(a3, b3);
        }
        for (lane, &row) in rows.iter().enumerate() {
            min[lane] += self.offsets[row];
            max[lane] += self.offsets[row];
        }
        (min, max)
    }

    /// Appends to `out` every id from `ids` whose hyperplane intersects the
    /// closed box `[lo, hi]`, preserving input order — the batched
    /// counterpart of per-id [`HyperplaneSlab::intersects_box`] loops, and
    /// the partition kernel of the arena tree builders.
    ///
    /// Ids are processed four at a time through the private
    /// `min_max_over_box4` lane kernel; blocks containing a degenerate
    /// row (and the remainder) fall back to the scalar predicate.  The
    /// decisions are bit-identical to the scalar loop in all cases.
    pub fn filter_intersecting_into(
        &self,
        ids: &[u32],
        lo: &[f64],
        hi: &[f64],
        out: &mut Vec<u32>,
    ) {
        // An empty slab keeps its placeholder dimensionality (1), so the
        // corner check only applies when there are rows to test.
        debug_assert!(
            self.is_empty() || (lo.len() == self.dim && hi.len() == self.dim),
            "corner dimensionality mismatch"
        );
        let mut blocks = ids.chunks_exact(4);
        for block in &mut blocks {
            let rows = [
                block[0] as usize,
                block[1] as usize,
                block[2] as usize,
                block[3] as usize,
            ];
            if rows.iter().any(|&r| self.degenerate[r]) {
                for &id in block {
                    if self.intersects_box(id as usize, lo, hi) {
                        out.push(id);
                    }
                }
                continue;
            }
            let (min, max) = self.min_max_over_box4(rows, lo, hi);
            for (lane, &id) in block.iter().enumerate() {
                if crosses(min[lane], max[lane]) {
                    out.push(id);
                }
            }
        }
        for &id in blocks.remainder() {
            if self.intersects_box(id as usize, lo, hi) {
                out.push(id);
            }
        }
    }

    /// Appends to `out` the id of every row intersecting the closed box
    /// `[lo, hi]`, in ascending order: one pass over the whole slab.  It
    /// seeds tree construction with the rows crossing the root cell, and it
    /// is every probe's candidate gather.
    ///
    /// The pass has no data-dependent branch.  It takes the rows 256 at a time:
    /// each row's id is written at a cursor into a stack buffer and the cursor
    /// advances by the row's hit bit (selection without branches, as in Ross,
    /// "Selection Conditions in Main Memory", TODS 2004), then the chunk's hits
    /// are appended to `out`.  So the cost does not depend on how many rows
    /// hit, and `out` grows by the hits only.  Degenerate rows take the offset
    /// test through the same bit arithmetic.  `k = 2` (the paper's `d = 3`) and
    /// `k = 3` run loops unrolled to their row width (unrolling `k = 4`
    /// measured no faster than the general loop); every `k` makes the decisions
    /// of [`HyperplaneSlab::intersects_box`], bit for bit.  Once `out` has room
    /// for the hits the pass allocates nothing.
    pub fn filter_all_intersecting_into<I: RowId>(&self, lo: &[f64], hi: &[f64], out: &mut Vec<I>) {
        // An empty slab keeps its placeholder dimensionality (1), so the
        // corner check only applies when there are rows to test.
        debug_assert!(
            self.is_empty() || (lo.len() == self.dim && hi.len() == self.dim),
            "corner dimensionality mismatch"
        );
        let mut slots = [I::default(); SWEEP_CHUNK];
        for first in (0..self.len()).step_by(SWEEP_CHUNK) {
            let rows = first..self.len().min(first + SWEEP_CHUNK);
            let hits = match self.dim {
                2 => self.sweep_rows::<2, I>(rows, lo, hi, &mut slots),
                3 => self.sweep_rows::<3, I>(rows, lo, hi, &mut slots),
                _ => self.sweep_rows_any(rows, lo, hi, &mut slots),
            };
            out.extend_from_slice(&slots[..hits]);
        }
    }

    /// The body of [`HyperplaneSlab::filter_all_intersecting_into`] over
    /// `rows` of a slab of `K` coefficients per row (`K` is its
    /// dimensionality): the per-row sums unroll fully.  Writes every row id
    /// into `slots` at the hit cursor and returns the number of hits.
    #[inline(always)]
    fn sweep_rows<const K: usize, I: RowId>(
        &self,
        rows: Range<usize>,
        lo: &[f64],
        hi: &[f64],
        slots: &mut [I; SWEEP_CHUNK],
    ) -> usize {
        let lo: &[f64; K] = lo.try_into().expect("corner dimensionality mismatch");
        let hi: &[f64; K] = hi.try_into().expect("corner dimensionality mismatch");
        let first = rows.start;
        let chunk = self.coeffs[rows.start * K..rows.end * K]
            .chunks_exact(K)
            .zip(&self.offsets[rows.clone()])
            .zip(&self.degenerate[rows]);
        let mut hits = 0;
        for (i, ((row, &offset), &degenerate)) in chunk.enumerate() {
            // Axes in ascending order, offset last; starting from the first
            // term instead of zero changes at most the sign of a zero sum.
            let (a, b) = (row[0] * lo[0], row[0] * hi[0]);
            let (mut min, mut max) = (min_f64(a, b), max_f64(a, b));
            for j in 1..K {
                let (a, b) = (row[j] * lo[j], row[j] * hi[j]);
                min += min_f64(a, b);
                max += max_f64(a, b);
            }
            slots[hits] = I::from_row(first + i);
            hits += row_hit(degenerate, offset, min + offset, max + offset) as usize;
        }
        hits
    }

    /// [`HyperplaneSlab::sweep_rows`] for any dimensionality, with the
    /// per-row sum as a loop.
    fn sweep_rows_any<I: RowId>(
        &self,
        rows: Range<usize>,
        lo: &[f64],
        hi: &[f64],
        slots: &mut [I; SWEEP_CHUNK],
    ) -> usize {
        let d = self.dim;
        let first = rows.start;
        let chunk = self.coeffs[rows.start * d..rows.end * d]
            .chunks_exact(d)
            .zip(&self.offsets[rows.clone()])
            .zip(&self.degenerate[rows]);
        let mut hits = 0;
        for (i, ((row, &offset), &degenerate)) in chunk.enumerate() {
            let (min, max) = min_max_of_row(row, offset, lo, hi);
            slots[hits] = I::from_row(first + i);
            hits += row_hit(degenerate, offset, min, max) as usize;
        }
        hits
    }

    /// Materializes row `i` as an owned [`Hyperplane`].
    pub fn hyperplane(&self, i: usize) -> Hyperplane {
        Hyperplane::new(self.coeffs_row(i).to_vec(), self.offsets[i])
    }

    /// Appends the slab's snapshot encoding: dimensionality, row count, the
    /// coefficient buffer and the offsets, all as IEEE-754 bit patterns so
    /// the byte image is stable across encode/decode cycles.  The degeneracy
    /// flags are derived data and are recomputed on decode.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        enc::put_u32(out, self.dim as u32);
        enc::put_usize(out, self.len());
        for &c in &self.coeffs {
            enc::put_f64(out, c);
        }
        for &o in &self.offsets {
            enc::put_f64(out, o);
        }
    }

    /// Decodes a slab previously written by [`HyperplaneSlab::encode_into`],
    /// consuming exactly its bytes from `cur`.
    ///
    /// # Errors
    /// A typed [`PersistError`] on truncation, a zero dimensionality or a
    /// row count larger than the remaining bytes (which is validated before
    /// any buffer is allocated); arbitrary input never panics.
    pub fn decode(cur: &mut Cursor<'_>) -> PersistResult<Self> {
        let dim = cur.u32()? as usize;
        if dim == 0 {
            return Err(PersistError::Malformed(
                "hyperplane slab dimensionality must be ≥ 1".to_string(),
            ));
        }
        // Every row occupies dim + 1 f64s; the count is validated against the
        // bytes actually present before the buffers are reserved.
        let n = cur.count((dim + 1).saturating_mul(8))?;
        let coeffs = cur.f64_vec(n.checked_mul(dim).ok_or_else(|| {
            PersistError::Malformed(format!("{n} rows of {dim} coefficients overflow"))
        })?)?;
        let offsets = cur.f64_vec(n)?;
        let degenerate = coeffs
            .chunks_exact(dim)
            .map(|row| row.iter().all(|c| c.abs() <= EPS))
            .collect();
        Ok(HyperplaneSlab {
            dim,
            coeffs,
            offsets,
            degenerate,
        })
    }
}

/// Rows per chunk of the slab sweep: the size of its stack buffer of ids
/// (2 KiB of `usize`), so a pass holds no more than one chunk of misses.
const SWEEP_CHUNK: usize = 256;

/// A row id the slab sweep can emit: `u32` for the trees' entry lists,
/// `usize` for a probe's candidate list.
pub trait RowId: Copy + Default {
    /// The id of row `i`, which is below the slab's row count.
    fn from_row(i: usize) -> Self;
}

impl RowId for u32 {
    #[inline]
    fn from_row(i: usize) -> Self {
        i as u32
    }
}

impl RowId for usize {
    #[inline]
    fn from_row(i: usize) -> Self {
        i
    }
}

/// The smaller of two products, as one `minsd`: when the comparison fails
/// (a tie or a NaN) it takes `b`.  Every slab kernel uses this one primitive,
/// so they all make the same decisions.  On the boxes the indexes test
/// (finite, with `0 ≤ lo ≤ hi`), `b` is never NaN alone (an infinite
/// coefficient times `lo = 0` makes `a` NaN), so this returns what
/// [`f64::min`] returns, up to the sign of a zero.
#[inline(always)]
fn min_f64(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The larger of two products; the counterpart of [`min_f64`].
#[inline(always)]
fn max_f64(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Minimum and maximum of `row · x + offset` over the box `[lo, hi]`: axes
/// in ascending order, offset added last.
#[inline(always)]
fn min_max_of_row(row: &[f64], offset: f64, lo: &[f64], hi: &[f64]) -> (f64, f64) {
    let mut min = 0.0f64;
    let mut max = 0.0f64;
    for j in 0..row.len() {
        let a = row[j] * lo[j];
        let b = row[j] * hi[j];
        min += min_f64(a, b);
        max += max_f64(a, b);
    }
    (min + offset, max + offset)
}

/// Whether a functional with this min and max over a box vanishes somewhere
/// in it (with `EPS` tolerance).
#[inline(always)]
fn crosses(min: f64, max: f64) -> bool {
    min <= EPS && max >= -EPS
}

/// [`HyperplaneSlab::intersects_box`] without a branch: a degenerate row
/// hits when its offset vanishes, any other row when it crosses.
#[inline(always)]
fn row_hit(degenerate: bool, offset: f64, min: f64, max: f64) -> bool {
    (degenerate & (offset.abs() <= EPS)) | (!degenerate & crosses(min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_line_matches_paper_example4() {
        // Example 4: p1(1,6) -> y = x - 6, p2(4,4) -> y = 4x - 4, p3(6,1) -> y = 6x - 1.
        let p1 = DualLine::from_point(&Point::new(vec![1.0, 6.0]));
        let p2 = DualLine::from_point(&Point::new(vec![4.0, 4.0]));
        let p3 = DualLine::from_point(&Point::new(vec![6.0, 1.0]));
        assert_eq!(p1.value_at(0.0), -6.0);
        assert_eq!(p2.value_at(1.0), 0.0);
        // Intersection abscissae from the paper: p1p2[x] = -2/3, p1p3[x] = -1, p2p3[x] = -1.5.
        assert!((p1.intersection_x(&p2).unwrap() - (-2.0 / 3.0)).abs() < 1e-12);
        assert!((p1.intersection_x(&p3).unwrap() - (-1.0)).abs() < 1e-12);
        assert!((p2.intersection_x(&p3).unwrap() - (-1.5)).abs() < 1e-12);
    }

    #[test]
    fn dual_line_score_relation() {
        // S(p) at ratio r equals -value_at(-r).
        let p = Point::new(vec![4.0, 4.0]);
        let line = DualLine::from_point(&p);
        for r in [0.25, 1.0, 2.0] {
            let s = p.weighted_sum(&[r, 1.0]);
            assert!((line.score_at_ratio(r) - s).abs() < 1e-12);
            assert!((-(line.value_at(-r)) - s).abs() < 1e-12);
        }
    }

    #[test]
    fn dual_line_parallel_lines_have_no_intersection() {
        let a = DualLine::from_point(&Point::new(vec![2.0, 1.0]));
        let b = DualLine::from_point(&Point::new(vec![2.0, 5.0]));
        assert!(a.intersection_x(&b).is_none());
        assert_eq!(a.to_point(), Point::new(vec![2.0, 1.0]));
    }

    #[test]
    fn hyperplane_eval_and_accessors() {
        let h = Hyperplane::new(vec![1.0, -2.0], 3.0);
        assert_eq!(h.dim(), 2);
        assert_eq!(h.coeffs(), &[1.0, -2.0]);
        assert_eq!(h.offset(), 3.0);
        assert_eq!(h.eval(&[1.0, 2.0]), 0.0);
        assert_eq!(h.eval(&[0.0, 0.0]), 3.0);
        assert!(!h.is_degenerate());
        assert!(Hyperplane::new(vec![0.0, 0.0], 1.0).is_degenerate());
    }

    #[test]
    fn hyperplane_box_intersection() {
        // x - y = 0 crosses the unit box, misses a box shifted above the diagonal.
        let h = Hyperplane::new(vec![1.0, -1.0], 0.0);
        let unit = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let above = BoundingBox::new(vec![0.0, 2.0], vec![1.0, 3.0]);
        assert!(h.intersects_box(&unit));
        assert!(!h.intersects_box(&above));
        assert!(h.crosses_box_interior(&unit));
        // Touching only a corner: intersects but does not cross the interior.
        let corner = BoundingBox::new(vec![1.0, 0.0], vec![2.0, 1.0]);
        assert!(h.intersects_box(&corner));
        assert!(!h.crosses_box_interior(&corner));
    }

    #[test]
    fn hyperplane_min_max_over_box() {
        let h = Hyperplane::new(vec![2.0, -1.0], 1.0);
        let b = BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(h.min_over_box(&b), 2.0 * 0.0 - 1.0 * 1.0 + 1.0);
        assert_eq!(h.max_over_box(&b), 2.0 * 1.0 - 1.0 * 0.0 + 1.0);
    }

    #[test]
    fn degenerate_hyperplane_box_rules() {
        let zero_everywhere = Hyperplane::new(vec![0.0], 0.0);
        let never_zero = Hyperplane::new(vec![0.0], 2.0);
        let b = BoundingBox::new(vec![0.0], vec![1.0]);
        assert!(zero_everywhere.intersects_box(&b));
        assert!(!never_zero.intersects_box(&b));
        assert!(!zero_everywhere.crosses_box_interior(&b));
    }

    #[test]
    fn slab_agrees_with_per_object_predicates() {
        let hs = vec![
            Hyperplane::new(vec![1.0, -1.0], 0.0),
            Hyperplane::new(vec![0.0, 1.0], -0.25),
            Hyperplane::new(vec![2.0, -1.0], 1.0),
            Hyperplane::new(vec![0.0, 0.0], 0.0), // degenerate, everywhere
            Hyperplane::new(vec![0.0, 0.0], 2.0), // degenerate, nowhere
            Hyperplane::new(vec![1.0, 1.0], -10.0),
        ];
        let slab = HyperplaneSlab::from_hyperplanes(&hs);
        assert_eq!(slab.len(), hs.len());
        assert_eq!(slab.dim(), 2);
        assert!(!slab.is_empty());
        assert!(slab.is_degenerate(3) && slab.is_degenerate(4));
        let boxes = [
            BoundingBox::new(vec![0.0, 0.0], vec![1.0, 1.0]),
            BoundingBox::new(vec![0.0, 2.0], vec![1.0, 3.0]),
            BoundingBox::new(vec![-2.0, -1.5], vec![0.5, 0.25]),
        ];
        for b in &boxes {
            for (i, h) in hs.iter().enumerate() {
                assert_eq!(
                    slab.intersects_box(i, b.lo(), b.hi()),
                    h.intersects_box(b),
                    "row {i}, box {b:?}"
                );
                if !slab.is_degenerate(i) {
                    let (min, max) = slab.min_max_over_box(i, b.lo(), b.hi());
                    assert_eq!(min, h.min_over_box(b), "row {i}");
                    assert_eq!(max, h.max_over_box(b), "row {i}");
                }
                assert_eq!(slab.hyperplane(i), *h);
            }
        }
    }

    #[test]
    fn slab_snapshot_round_trips_bit_exactly() {
        let mut slab = HyperplaneSlab::new(3);
        slab.push(&[1.0, -2.0, 0.5], 3.0);
        slab.push(&[0.0, 0.0, 0.0], 0.0); // degenerate
        slab.push(&[-0.0, f64::INFINITY, f64::NEG_INFINITY], -0.0); // edge floats
        slab.push(&[f64::MIN_POSITIVE, 1e308, -1e-308], f64::MAX);
        let mut bytes = Vec::new();
        slab.encode_into(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        let back = HyperplaneSlab::decode(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(back.dim(), slab.dim());
        assert_eq!(back.len(), slab.len());
        for i in 0..slab.len() {
            for (a, b) in back.coeffs_row(i).iter().zip(slab.coeffs_row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
            assert_eq!(back.offset(i).to_bits(), slab.offset(i).to_bits());
            assert_eq!(back.is_degenerate(i), slab.is_degenerate(i), "row {i}");
        }
        // Re-encoding the decoded slab reproduces the bytes exactly.
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn slab_decode_rejects_hostile_input() {
        // Zero dimensionality.
        let mut bytes = Vec::new();
        enc::put_u32(&mut bytes, 0);
        enc::put_usize(&mut bytes, 0);
        assert!(HyperplaneSlab::decode(&mut Cursor::new(&bytes)).is_err());
        // Row count far beyond the remaining bytes is rejected before any
        // allocation.
        let mut bytes = Vec::new();
        enc::put_u32(&mut bytes, 2);
        enc::put_u64(&mut bytes, u64::MAX);
        assert!(matches!(
            HyperplaneSlab::decode(&mut Cursor::new(&bytes)),
            Err(PersistError::Malformed(_))
        ));
        // Truncated coefficient run.
        let mut bytes = Vec::new();
        HyperplaneSlab::from_hyperplanes(&[Hyperplane::new(vec![1.0, 2.0], 0.5)])
            .encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                HyperplaneSlab::decode(&mut Cursor::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn batched_filters_match_the_scalar_predicate_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4a11e5);
        for dim in [1usize, 2, 3, 5] {
            // Sizes straddling the 4-lane blocking: empty, sub-block, exact
            // blocks, and a remainder tail.
            for n in [0usize, 1, 3, 4, 7, 8, 64, 129] {
                let mut slab = HyperplaneSlab::new(dim);
                for i in 0..n {
                    // Sprinkle degenerate rows (all-zero coefficients) so the
                    // block fallback path is exercised mid-stream.
                    if i % 11 == 5 {
                        slab.push(&vec![0.0; dim], if i % 2 == 0 { 0.0 } else { 1.0 });
                    } else {
                        let row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        slab.push(&row, rng.gen_range(-1.0..1.0));
                    }
                }
                for _ in 0..8 {
                    let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..0.8)).collect();
                    let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.0..0.5)).collect();
                    let expected: Vec<u32> = (0..n as u32)
                        .filter(|&i| slab.intersects_box(i as usize, &lo, &hi))
                        .collect();
                    // Whole-slab sweep.
                    let mut got: Vec<u32> = Vec::new();
                    slab.filter_all_intersecting_into(&lo, &hi, &mut got);
                    assert_eq!(got, expected, "dim {dim}, n {n}");
                    // Gathered-id filter over a shuffled id list preserves
                    // input order and agrees id-for-id with the scalar loop.
                    let mut ids: Vec<u32> = (0..n as u32).rev().collect();
                    ids.extend(0..n as u32); // duplicates are fine: pure filter
                    let scalar: Vec<u32> = ids
                        .iter()
                        .copied()
                        .filter(|&i| slab.intersects_box(i as usize, &lo, &hi))
                        .collect();
                    let mut batched = Vec::new();
                    slab.filter_intersecting_into(&ids, &lo, &hi, &mut batched);
                    assert_eq!(batched, scalar, "dim {dim}, n {n}");
                    // Counting parity: the survivor count matches too (the
                    // property the probe counters rely on).
                    assert_eq!(batched.len(), scalar.len());
                }
            }
        }
    }

    #[test]
    fn slab_push_and_extend() {
        let mut a = HyperplaneSlab::new(2);
        a.push(&[1.0, 2.0], 3.0);
        let mut b = HyperplaneSlab::with_capacity(2, 1);
        b.push(&[0.0, 0.0], 0.5);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.coeffs_row(0), &[1.0, 2.0]);
        assert_eq!(a.offset(1), 0.5);
        assert!(!a.is_degenerate(0));
        assert!(a.is_degenerate(1));
        // The empty slice yields an empty slab.
        assert!(HyperplaneSlab::from_hyperplanes(&[]).is_empty());
    }
}
