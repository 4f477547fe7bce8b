//! Golden-file suite for the snapshot format: small committed snapshot
//! fixtures (2-D and 3-D) pin the byte-exact encoding across PRs, both kind
//! labels write exactly those bytes, and decoding each fixture must answer
//! queries identically to an index rebuilt from scratch.  A format-4
//! fixture pins that older files are refused.
//!
//! If the format changes **deliberately** (bump
//! [`eclipse_persist::FORMAT_VERSION`] and document the change in the README
//! compatibility policy), regenerate the fixtures with:
//!
//! ```text
//! ECLIPSE_UPDATE_FIXTURES=1 cargo test -p eclipse-examples --test snapshot_golden
//! ```
//!
//! Every fixture test reads the files through [`ensure_fixtures`], so with
//! the variable set the fixtures are rewritten once, before any test reads
//! them, and that one run passes.

mod common;

use std::path::PathBuf;
use std::sync::OnceLock;

use common::paper_hotels;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, EclipseError, Point, WeightRatioBox};
use eclipse_persist::PersistError;
use rand::{Rng, SeedableRng};

/// A deterministic 12-point 3-D dataset (fixed seed, vendored RNG), small
/// enough that its snapshots stay a few KiB in the repository.
fn inde3d() -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20210614);
    (0..12)
        .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

/// The fixture matrix: label, dataset, fixture file name.
fn cases() -> Vec<(&'static str, Vec<Point>, &'static str)> {
    vec![
        ("hotels", paper_hotels(), "hotels-2d.eclsnap"),
        ("inde", inde3d(), "inde-3d.eclsnap"),
    ]
}

/// Both kind labels, which must write the same bytes.
const KINDS: [IntersectionIndexKind; 2] = [
    IntersectionIndexKind::Quadtree,
    IntersectionIndexKind::CuttingTree,
];

fn fixture_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file)
}

fn probe_boxes(dim: usize) -> Vec<WeightRatioBox> {
    [(0.25, 2.0), (0.36, 2.75), (1.0, 1.0), (0.5, 20.0)]
        .into_iter()
        .map(|(lo, hi)| WeightRatioBox::uniform(dim, lo, hi).unwrap())
        .collect()
}

/// Under `ECLIPSE_UPDATE_FIXTURES`, rewrites every fixture from a fresh
/// encode, exactly once per test process and before any test reads one.
/// The tests run on parallel threads, so each of them calls this first;
/// without the variable it does nothing.
fn ensure_fixtures() {
    static WRITTEN: OnceLock<()> = OnceLock::new();
    WRITTEN.get_or_init(|| {
        if std::env::var_os("ECLIPSE_UPDATE_FIXTURES").is_none() {
            return;
        }
        for (label, points, file) in cases() {
            let engine = EclipseEngine::new(points).unwrap();
            let bytes = engine.save_snapshot(label, KINDS[0]).unwrap();
            let path = fixture_path(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &bytes).unwrap();
        }
    });
}

/// Reads one committed fixture, after [`ensure_fixtures`].
fn read_fixture(file: &str) -> Vec<u8> {
    ensure_fixtures();
    let path = fixture_path(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Encoding is pinned byte-for-byte by the committed fixtures: any change to
/// the container layout, a section payload, index construction or the
/// underlying float semantics fails this test loudly instead of silently
/// orphaning every snapshot in the field.
#[test]
fn encode_is_byte_identical_to_the_committed_fixtures() {
    for (label, points, file) in cases() {
        let golden = read_fixture(file);
        for kind in KINDS {
            let engine = EclipseEngine::new(points.clone()).unwrap();
            let bytes = engine.save_snapshot(label, kind).unwrap();
            assert_eq!(
                bytes, golden,
                "snapshot encoding of {label}/{kind:?} no longer matches {file}; if this is a \
                 deliberate format change, bump FORMAT_VERSION and regenerate with \
                 ECLIPSE_UPDATE_FIXTURES=1"
            );
        }
    }
}

/// Decoding a committed fixture yields an engine that answers every probe —
/// ids and counts, inside and outside the indexed region — identically to an
/// engine rebuilt from the raw points.
#[test]
fn decoded_fixtures_answer_identically_to_fresh_rebuilds() {
    for (label, points, file) in cases() {
        let golden = read_fixture(file);
        let (stored_label, restored) = EclipseEngine::from_snapshot(&golden).unwrap();
        assert_eq!(stored_label, label);
        assert!(restored.cached_index().is_some(), "{file} warm-loads");

        let rebuilt = EclipseEngine::new(points).unwrap();
        rebuilt.build_index(KINDS[0]).unwrap();
        assert_eq!(restored.len(), rebuilt.len());
        assert_eq!(restored.dim(), rebuilt.dim());
        for b in probe_boxes(rebuilt.dim()) {
            assert_eq!(
                restored.eclipse(&b).unwrap(),
                rebuilt.eclipse(&b).unwrap(),
                "{file}, box {b}"
            );
        }
        // The fixture also restores into an engine already holding the same
        // dataset (the serve-layer warm path).
        let warm = EclipseEngine::new(rebuilt.points().to_vec()).unwrap();
        warm.restore_index_snapshot(&golden).unwrap();
        let b = probe_boxes(rebuilt.dim()).remove(0);
        assert_eq!(warm.eclipse(&b).unwrap(), rebuilt.eclipse(&b).unwrap());
    }
}

/// The fixtures themselves re-encode byte-exactly after a decode cycle —
/// decode → encode is the identity on the on-disk representation.
#[test]
fn fixtures_re_encode_byte_exactly() {
    for (label, _points, file) in cases() {
        let golden = read_fixture(file);
        let (stored_label, restored) = EclipseEngine::from_snapshot(&golden).unwrap();
        for kind in KINDS {
            assert_eq!(restored.save_snapshot(&stored_label, kind).unwrap(), golden);
        }
        assert_eq!(stored_label, label);
    }
}

/// The committed format-4 snapshot of the 3-D dataset (a QUAD index with
/// its tree arena) is refused as an unsupported version, in-process as on
/// a server's warm-load scan (`serve_snapshot_restart`).
#[test]
fn format_4_fixture_is_an_unsupported_version() {
    let v4 = read_fixture("inde-3d-v4.eclsnap");
    let unsupported = PersistError::UnsupportedVersion { found: 4 }.to_string();
    match EclipseEngine::from_snapshot(&v4) {
        Err(EclipseError::Snapshot(m)) => assert_eq!(m, unsupported),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(EclipseEngine::snapshot_label(&v4).is_err());
}

/// A deterministic 1024-point 3-D dataset: large enough that the slab
/// buffers hold hundreds of rows, so a change in how a build sizes them
/// shows up in the accounted capacities.
fn inde3d_1k() -> Vec<Point> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20210619);
    (0..1024)
        .map(|_| Point::new((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect()
}

/// The accounted memory of fresh builds is pinned alongside the encoded
/// bytes: the fixtures only see buffer contents, while the serving layer's
/// memory budget and resident figures see buffer *capacities*, which a
/// builder can change without changing a single encoded byte.  The values
/// are the index's and the whole engine's `heap_bytes()` right after
/// `build_index`, and both kind labels account the same.
#[test]
fn fresh_build_heap_bytes_are_pinned() {
    let pinned: [(&str, Vec<Point>, usize, usize); 3] = [
        ("hotels", paper_hotels(), 147, 275),
        ("inde", inde3d(), 195, 675),
        ("inde-1k", inde3d_1k(), 14_326, 55_286),
    ];
    for (label, points, index_bytes, engine_bytes) in pinned {
        for kind in KINDS {
            let engine = EclipseEngine::new(points.clone()).unwrap();
            let index = engine.build_index(kind).unwrap();
            assert_eq!(
                (index.heap_bytes(), engine.heap_bytes()),
                (index_bytes, engine_bytes),
                "{label}/{kind:?}: (index, engine) heap bytes drifted"
            );
        }
    }
}
