//! End-to-end warm-restart test: a dataset served by one `eclipse-serve`
//! server is snapshotted over the wire (`SaveIndex`), the server goes away,
//! and a second server started over the same `--snapshot-dir` warm-loads the
//! dataset and answers `QueryBatch`/`CountBatch` with byte-identical wire
//! results — at one and at four query threads (the CI thread-parity matrix
//! additionally re-runs this file under `ECLIPSE_THREADS=1` and `4`).

mod common;

use common::TempDir;
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, EclipseError, WeightRatioBox};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_persist::{fnv1a, fnv1a_extend, PersistError, SnapshotReader, MAGIC};
use eclipse_serve::client::{Client, ClientError};
use eclipse_serve::protocol::IndexKind;
use eclipse_serve::server::Server;

fn probe_boxes() -> Vec<WeightRatioBox> {
    [
        (0.18, 5.67),
        (0.36, 2.75),
        (0.84, 1.19),
        (1.0, 1.0),
        // Escapes the indexed region: the restored index must fall back to
        // the exact linear scan just like the rebuilt one.
        (0.5, 20.0),
    ]
    .into_iter()
    .map(|(lo, hi)| WeightRatioBox::uniform(3, lo, hi).unwrap())
    .collect()
}

#[test]
fn wire_results_survive_a_server_restart_at_1_and_4_threads() {
    let points = SyntheticConfig::new(500, 3, Distribution::Independent, 4242).generate();
    let boxes = probe_boxes();
    for threads in [1usize, 4] {
        for warm in [IndexKind::Quadtree, IndexKind::CuttingTree] {
            let dir = TempDir::new(&format!("restart_{threads}_{warm:?}"));

            // First life: load, query, snapshot, shut down.
            let server =
                Server::bind("127.0.0.1:0", ExecutionContext::with_threads(threads)).unwrap();
            server.set_snapshot_dir(dir.path());
            let handle = server.spawn().unwrap();
            let mut client = Client::connect(handle.addr()).unwrap();
            client.load_dataset("inde", &points, warm).unwrap();
            let expected = client.query_batch("inde", &boxes).unwrap();
            let expected_counts = client.count_batch("inde", &boxes).unwrap();
            let bytes = client.save_index("inde", warm).unwrap();
            assert!(bytes > 0);
            handle.shutdown();

            // Second life: same snapshot dir, no LoadDataset traffic — the
            // dataset and its index come back from disk.
            let server =
                Server::bind("127.0.0.1:0", ExecutionContext::with_threads(threads)).unwrap();
            server.set_snapshot_dir(dir.path());
            let scan = server.load_snapshots().unwrap();
            assert!(scan.skipped.is_empty(), "{:?}", scan.skipped);
            assert_eq!(scan.restored.len(), 1, "threads {threads}, warm {warm:?}");
            assert_eq!(scan.restored[0].0, "inde");
            assert_eq!(scan.restored[0].1.points, 500);
            let handle = server.spawn().unwrap();
            let mut client = Client::connect(handle.addr()).unwrap();
            assert_eq!(
                client.query_batch("inde", &boxes).unwrap(),
                expected,
                "threads {threads}, warm {warm:?}"
            );
            assert_eq!(
                client.count_batch("inde", &boxes).unwrap(),
                expected_counts,
                "threads {threads}, warm {warm:?}"
            );
            let report = client.stats().unwrap();
            assert_eq!(report.datasets.len(), 1);
            assert_eq!(report.datasets[0].points, 500);
            handle.shutdown();
        }
    }
}

#[test]
fn restoring_a_stale_snapshot_is_an_error_response_over_the_wire() {
    // Regression for the mismatch satellite: a snapshot taken over one
    // dataset must not serve results for different data registered later
    // under the same name — the server answers a typed error and the
    // connection stays usable.
    let dir = TempDir::new("stale");
    let old = SyntheticConfig::new(300, 3, Distribution::Independent, 7).generate();
    let new = SyntheticConfig::new(300, 3, Distribution::AntiCorrelated, 8).generate();
    let server = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2)).unwrap();
    server.set_snapshot_dir(dir.path());
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    client
        .load_dataset("ds", &old, IndexKind::Quadtree)
        .unwrap();
    client.save_index("ds", IndexKind::Quadtree).unwrap();
    client
        .load_dataset("ds", &new, IndexKind::Quadtree)
        .unwrap();
    match client.restore_index("ds", IndexKind::Quadtree) {
        Err(ClientError::Server(m)) => assert!(m.contains("mismatch"), "{m}"),
        other => panic!("expected a mismatch error, got {other:?}"),
    }

    // Same connection, correct answers for the *new* dataset afterwards.
    let b = [WeightRatioBox::uniform(3, 0.36, 2.75).unwrap()];
    let engine = EclipseEngine::new(new).unwrap();
    assert_eq!(
        client.query_batch("ds", &b).unwrap(),
        vec![engine.eclipse(&b[0]).unwrap()]
    );

    // A dimensionality change is caught the same way.
    let flat = SyntheticConfig::new(200, 2, Distribution::Independent, 9).generate();
    client
        .load_dataset("ds", &flat, IndexKind::Quadtree)
        .unwrap();
    match client.restore_index("ds", IndexKind::Quadtree) {
        Err(ClientError::Server(m)) => assert!(m.contains("dimension"), "{m}"),
        other => panic!("expected a dimension error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn stale_epoch_snapshot_over_a_mutated_dataset_is_an_epoch_mismatch() {
    // A snapshot saved at epoch 0 must not restore over a dataset that has
    // since been mutated — even back to the exact same bits: restoring it
    // must answer the typed `SnapshotMismatch` (epoch 0 vs epoch 2), not
    // silently serve pre-mutation index state, and the connection must
    // stay usable.
    for threads in [1usize, 4] {
        let dir = TempDir::new(&format!("stale_epoch_{threads}"));
        let server = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(threads)).unwrap();
        server.set_snapshot_dir(dir.path());
        let handle = server.spawn().unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client
            .load_dataset("hotels", &common::paper_hotels(), IndexKind::Quadtree)
            .unwrap();
        client.save_index("hotels", IndexKind::Quadtree).unwrap();

        // Mutate to epoch 2, ending on byte-identical dataset contents: the
        // epoch check must fire even though the points match.
        let ack = client.insert("hotels", &[9.0, 9.0]).unwrap();
        client.delete("hotels", ack.len - 1).unwrap();

        match client.restore_index("hotels", IndexKind::Quadtree) {
            Err(ClientError::Server(m)) => {
                assert!(m.contains("mismatch"), "threads {threads}: {m}");
                assert!(m.contains("epoch"), "threads {threads}: {m}");
            }
            other => panic!("threads {threads}: expected an epoch mismatch, got {other:?}"),
        }

        // Same connection, still correct answers from the live engine.
        let b = [WeightRatioBox::uniform(2, 0.5, 2.0).unwrap()];
        let engine = EclipseEngine::new(common::paper_hotels()).unwrap();
        assert_eq!(
            client.query_batch("hotels", &b).unwrap(),
            vec![engine.eclipse(&b[0]).unwrap()],
            "threads {threads}"
        );
        handle.shutdown();
    }
}

/// Re-stamps a current container as `version`, re-checksumming every
/// section with FNV-1a the way that format did (formats 1 and 2 over tag and
/// payload, format 3 over version, tag and payload), so the result is a
/// well-formed legacy container that only its version disqualifies.
fn restamp_legacy(bytes: &[u8], version: u32) -> Vec<u8> {
    let sections: Vec<(u8, &[u8])> = SnapshotReader::parse(bytes).unwrap().sections().collect();
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        let seed = match version {
            1 | 2 => fnv1a(&[tag]),
            3 => fnv1a_extend(fnv1a(&version.to_le_bytes()), &[tag]),
            _ => unreachable!("only formats 1 to 3 used FNV-1a"),
        };
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_extend(seed, payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

#[test]
fn pre_v4_snapshots_are_unsupported_and_skipped_by_a_scan() {
    let snapshot = |label: &str| {
        EclipseEngine::new(common::paper_hotels())
            .unwrap()
            .save_snapshot(label, IntersectionIndexKind::Quadtree)
            .unwrap()
    };
    let dir = TempDir::new("pre_v4_skipped");
    std::fs::write(dir.path().join("healthy.eclsnap"), snapshot("healthy")).unwrap();
    let legacy_versions = [1u32, 2, 3];
    for found in legacy_versions {
        let legacy = restamp_legacy(&snapshot(&format!("legacy{found}")), found);
        let unsupported = PersistError::UnsupportedVersion { found }.to_string();
        match EclipseEngine::from_snapshot(&legacy) {
            Err(EclipseError::Snapshot(m)) => assert_eq!(m, unsupported),
            other => panic!("v{found}: expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::write(dir.path().join(format!("legacy{found}.eclsnap")), legacy).unwrap();
    }
    // Format 4 (the last to hold a tree arena): the committed fixture.
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/inde-3d-v4.eclsnap"
        ),
        dir.path().join("legacy4.eclsnap"),
    )
    .unwrap();
    let legacy_versions = [1u32, 2, 3, 4];

    // A warm-load scan skips every legacy file and still restores the
    // healthy one.
    let server = Server::bind("127.0.0.1:0", ExecutionContext::serial()).unwrap();
    server.set_snapshot_dir(dir.path());
    let scan = server.load_snapshots().unwrap();
    let restored: Vec<&str> = scan
        .restored
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(restored, ["healthy"]);
    let skipped: Vec<String> = scan
        .skipped
        .iter()
        .map(|(path, e)| format!("{} {e}", path.file_name().unwrap().to_string_lossy()))
        .collect();
    assert_eq!(skipped.len(), legacy_versions.len(), "{skipped:?}");
    for (line, found) in skipped.iter().zip(legacy_versions) {
        assert!(
            line.starts_with(&format!("legacy{found}.eclsnap ")),
            "{line}"
        );
        assert!(
            line.contains(&format!("unsupported snapshot format version {found}")),
            "{line}"
        );
    }
}

#[test]
fn snapshot_requests_without_a_snapshot_dir_are_clean_errors() {
    let points = SyntheticConfig::new(100, 3, Distribution::Independent, 11).generate();
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::serial())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load_dataset("inde", &points, IndexKind::Quadtree)
        .unwrap();
    match client.save_index("inde", IndexKind::Quadtree) {
        Err(ClientError::Server(m)) => assert!(m.contains("--snapshot-dir"), "{m}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.restore_index("inde", IndexKind::Quadtree) {
        Err(ClientError::Server(_)) => {}
        other => panic!("expected a server error, got {other:?}"),
    }
    // The connection is still usable.
    client.ping().unwrap();
    handle.shutdown();
}
