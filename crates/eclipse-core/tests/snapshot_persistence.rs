//! Property suite for index persistence: `load(save(idx))` answers every
//! probe identically to the original — across dimensionalities, config labels,
//! duplicate points (degenerate hyperplane rows) and edge floats — and
//! snapshot decoding is **total**: truncations, bit flips, garbage headers
//! and hostile section counts all surface as typed errors, never panics and
//! never oversized allocations.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use eclipse_core::index::{
    EclipseIndex, IndexConfig, IntersectionIndexKind, SECTION_INDEX_META, SECTION_SKYLINE,
};
use eclipse_core::{EclipseEngine, EclipseError, Point, WeightRatioBox};
use eclipse_persist::{enc, SnapshotReader, SnapshotWriter};

/// Deterministic pseudo-random dataset for a seed: moderate sizes, dimension
/// 2–4, a mix of plain values, duplicated points (their score-difference
/// hyperplanes are degenerate rows) and edge floats (−0.0, huge and tiny
/// magnitudes) that must survive the bit-pattern encoding exactly.
fn arbitrary_dataset(seed: u64) -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dim = rng.gen_range(2..5usize);
    let n = rng.gen_range(1..60usize);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_range(0..5u32) == 0 {
            // Duplicate an earlier point verbatim.
            let j = rng.gen_range(0..i);
            pts.push(pts[j].clone());
            continue;
        }
        let coords: Vec<f64> = (0..dim)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => -0.0,
                1 => 0.0,
                2 => 1e12,
                3 => 1e-12,
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        pts.push(Point::new(coords));
    }
    pts
}

/// Deterministic pseudo-random index configuration: both kind labels, tight
/// and loose tree budgets, and two tree root cells.  The index reads none of
/// it, so every config must snapshot and answer alike.
fn arbitrary_config(seed: u64) -> IndexConfig {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut cfg = IndexConfig::with_kind(if rng.gen_range(0..2u32) == 0 {
        IntersectionIndexKind::Quadtree
    } else {
        IntersectionIndexKind::CuttingTree
    });
    cfg.max_ratio = if rng.gen_range(0..2u32) == 0 {
        16.0
    } else {
        2.0
    };
    cfg.quadtree.max_capacity = rng.gen_range(1..9usize);
    cfg.quadtree.max_depth = rng.gen_range(3..12usize);
    cfg.cutting.max_capacity = rng.gen_range(1..9usize);
    cfg.cutting.max_depth = rng.gen_range(3..16usize);
    if rng.gen_range(0..4u32) == 0 {
        // Starved budgets: construction stops early, queries stay exact.
        cfg.quadtree.max_nodes = 16;
        cfg.cutting.max_nodes = 16;
    }
    cfg
}

/// Probe boxes covering the interesting regimes: inside the indexed region,
/// escaping it, exact 1NN-style boxes.
fn probe_boxes(dim: usize, seed: u64) -> Vec<WeightRatioBox> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xb0f);
    let mut boxes = Vec::new();
    for _ in 0..6 {
        let lo = rng.gen_range(0.05..1.5);
        let hi = lo + rng.gen_range(0.0..3.0);
        boxes.push(WeightRatioBox::uniform(dim, lo, hi).unwrap());
    }
    boxes.push(WeightRatioBox::uniform(dim, 0.5, 40.0).unwrap()); // escapes
    boxes.push(WeightRatioBox::uniform(dim, 1.0, 1.0).unwrap()); // exact
    boxes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: a restored index is query-identical to the
    /// index it was saved from, and the snapshot encoding is byte-stable
    /// (decode → encode reproduces the bytes, which is what lets the golden
    /// fixtures pin the format).
    #[test]
    fn load_save_answers_every_probe_identically(seed in 0u64..1_000_000) {
        let pts = arbitrary_dataset(seed);
        let cfg = arbitrary_config(seed);
        let idx = EclipseIndex::build(&pts, cfg).unwrap();
        let bytes = idx.encode_snapshot();
        let back = EclipseIndex::decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(back.skyline_ids(), idx.skyline_ids());
        prop_assert_eq!(back.num_intersections(), idx.num_intersections());
        for b in probe_boxes(pts[0].dim(), seed) {
            prop_assert_eq!(back.query(&b).unwrap(), idx.query(&b).unwrap(), "box {}", b);
            prop_assert_eq!(back.count(&b).unwrap(), idx.count(&b).unwrap(), "box {}", b);
        }
        // Unbounded boxes are rejected by both, identically.
        let sky = WeightRatioBox::skyline(pts[0].dim()).unwrap();
        prop_assert!(back.query(&sky).is_err() && idx.query(&sky).is_err());
        prop_assert_eq!(back.encode_snapshot(), bytes);
    }

    /// The engine-level snapshot (dataset + index) cold-starts into an
    /// engine answering identically, and restores into a same-dataset
    /// engine.
    #[test]
    fn engine_snapshots_round_trip(seed in 0u64..1_000_000) {
        let pts = arbitrary_dataset(seed);
        let cfg = arbitrary_config(seed);
        let engine = EclipseEngine::with_index_config(pts.clone(), cfg).unwrap();
        let bytes = engine.save_snapshot("prop", cfg.kind).unwrap();

        let (label, cold) = EclipseEngine::from_snapshot(&bytes).unwrap();
        prop_assert_eq!(label, "prop");
        let fresh = EclipseEngine::with_index_config(pts.clone(), cfg).unwrap();
        fresh.restore_index_snapshot(&bytes).unwrap();
        for b in probe_boxes(pts[0].dim(), seed) {
            let want = engine.eclipse(&b).unwrap();
            prop_assert_eq!(&cold.eclipse(&b).unwrap(), &want, "box {}", b);
            prop_assert_eq!(&fresh.eclipse(&b).unwrap(), &want, "box {}", b);
        }
    }

    /// Parallel and serial builds snapshot to identical bytes, so a snapshot
    /// taken on a many-core server restores bit-identically anywhere.
    #[test]
    fn snapshot_bytes_are_thread_invariant(seed in 0u64..100_000) {
        use eclipse_core::exec::ExecutionContext;
        let pts = arbitrary_dataset(seed);
        let cfg = arbitrary_config(seed);
        let serial = EclipseIndex::build_with(&pts, cfg, &ExecutionContext::serial()).unwrap();
        let wide = EclipseIndex::build_with(&pts, cfg, &ExecutionContext::with_threads(4)).unwrap();
        prop_assert_eq!(serial.encode_snapshot(), wide.encode_snapshot());
    }

    /// Every proper prefix of a valid snapshot is rejected cleanly.
    #[test]
    fn truncations_error_cleanly(seed in 0u64..100_000, cut in 0.0f64..1.0) {
        let pts = arbitrary_dataset(seed);
        let bytes = EclipseIndex::build(&pts, arbitrary_config(seed))
            .unwrap()
            .encode_snapshot();
        let cut = (cut * bytes.len() as f64) as usize;
        if cut < bytes.len() {
            prop_assert!(EclipseIndex::decode_snapshot(&bytes[..cut]).is_err());
        }
    }

    /// Single-bit corruption anywhere in a snapshot is detected: every byte
    /// is under magic/version/length/checksum protection (checksums cover
    /// section tags too), so a flipped snapshot never decodes — and never
    /// panics.
    #[test]
    fn bit_flips_are_always_detected(seed in 0u64..100_000, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let pts = arbitrary_dataset(seed);
        let mut bytes = EclipseIndex::build(&pts, arbitrary_config(seed))
            .unwrap()
            .encode_snapshot();
        let pos = (pos_frac * bytes.len() as f64) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            EclipseIndex::decode_snapshot(&bytes).is_err(),
            "flip at byte {} bit {} must be detected",
            pos,
            bit
        );
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(seed in 0u64..100_000, len in 0usize..512) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        prop_assert!(EclipseIndex::decode_snapshot(&garbage).is_err());
        prop_assert!(EclipseEngine::from_snapshot(&garbage).is_err());
    }
}

/// A crafted snapshot with valid framing and checksums but a hostile element
/// count must be rejected by the count-vs-remaining-bytes validation before
/// any allocation happens — this is the codec-level guarantee that composes
/// with the checksum layer against *malicious* (not just corrupted) input.
#[test]
fn hostile_section_counts_are_rejected_before_allocation() {
    let pts = vec![
        Point::new(vec![1.0, 6.0]),
        Point::new(vec![4.0, 4.0]),
        Point::new(vec![6.0, 1.0]),
    ];
    let idx = EclipseIndex::build(&pts, IndexConfig::default()).unwrap();
    let bytes = idx.encode_snapshot();
    let reader = SnapshotReader::parse(&bytes).unwrap();

    // Rebuild the container with the skyline section claiming u64::MAX ids.
    let mut hostile_skyline = Vec::new();
    enc::put_u64(&mut hostile_skyline, u64::MAX);
    let mut writer = SnapshotWriter::new();
    for (tag, payload) in reader.sections() {
        if tag == SECTION_SKYLINE {
            writer.section(tag, hostile_skyline.clone());
        } else {
            writer.section(tag, payload.to_vec());
        }
    }
    match EclipseIndex::decode_snapshot(&writer.finish()) {
        Err(EclipseError::Snapshot(m)) => {
            assert!(m.contains("count") || m.contains("element"), "{m}")
        }
        other => panic!("expected a hostile-count rejection, got {other:?}"),
    }

    // The same for metadata claiming a huge dimensionality: the coordinate
    // run it implies is checked against the bytes present.
    let mut hostile_meta = Vec::new();
    enc::put_u32(&mut hostile_meta, u32::MAX);
    enc::put_u64(&mut hostile_meta, idx.skyline_len() as u64);
    let mut writer = SnapshotWriter::new();
    for (tag, payload) in reader.sections() {
        if tag == SECTION_INDEX_META {
            writer.section(tag, hostile_meta.clone());
        } else {
            writer.section(tag, payload.to_vec());
        }
    }
    match EclipseIndex::decode_snapshot(&writer.finish()) {
        Err(EclipseError::Snapshot(m)) => assert!(m.contains("truncated"), "{m}"),
        other => panic!("expected a hostile-dimension rejection, got {other:?}"),
    }

    // A snapshot missing a required section is a typed error too.
    let mut writer = SnapshotWriter::new();
    for (tag, payload) in reader.sections().filter(|&(t, _)| t != SECTION_SKYLINE) {
        writer.section(tag, payload.to_vec());
    }
    assert!(matches!(
        EclipseIndex::decode_snapshot(&writer.finish()),
        Err(EclipseError::Snapshot(m)) if m.contains("missing")
    ));
}

/// Edge floats — signed zeros, infinities in offsets, huge magnitudes —
/// survive an index snapshot bit-exactly (the dataset layer forbids
/// non-finite coordinates, but the format itself must not care).
#[test]
fn edge_float_datasets_round_trip_bit_exactly() {
    let pts = vec![
        Point::new(vec![-0.0, 1e308]),
        Point::new(vec![1e-308, 0.0]),
        Point::new(vec![f64::MIN_POSITIVE, -0.0]),
        Point::new(vec![-0.0, 1e308]), // duplicate → degenerate pair row
    ];
    let engine = EclipseEngine::new(pts.clone()).unwrap();
    let bytes = engine
        .save_snapshot("edge", IntersectionIndexKind::Quadtree)
        .unwrap();
    let (_, cold) = EclipseEngine::from_snapshot(&bytes).unwrap();
    for (a, b) in cold.points().iter().zip(pts.iter()) {
        for (x, y) in a.coords().iter().zip(b.coords().iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "coordinate bits must survive");
        }
    }
    // And the restored engine still answers (degenerate rows included).
    let b = WeightRatioBox::uniform(2, 0.25, 2.0).unwrap();
    assert_eq!(cold.eclipse(&b).unwrap(), engine.eclipse(&b).unwrap());
}
