//! Memory-governance suite: a server with a byte budget keeps a working set
//! larger than the budget available by evicting least-recently-used datasets
//! to their snapshots and transparently restoring them on the next touch —
//! with wire answers byte-identical to an unbounded server throughout, the
//! accounted total bounded by budget + one dataset, mutation epochs
//! preserved across eviction, a mutation that grows the total past the
//! budget evicting like an admission does, and the typed
//! `DatasetUnavailable` response (connection stays usable) when a restore
//! is impossible.

mod common;

use common::TempDir;
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, Point, WeightRatioBox};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_serve::client::{Client, ClientError};
use eclipse_serve::protocol::IndexKind;
use eclipse_serve::server::{Server, ServerConfig};

fn dataset(n: usize, seed: u64) -> Vec<Point> {
    SyntheticConfig::new(n, 3, Distribution::Independent, seed).generate()
}

fn probe_boxes() -> Vec<WeightRatioBox> {
    [(0.18, 5.67), (0.36, 2.75), (0.84, 1.19), (1.0, 1.0)]
        .into_iter()
        .map(|(lo, hi)| WeightRatioBox::uniform(3, lo, hi).unwrap())
        .collect()
}

/// The accounted bytes of one fully-warm dataset as the server holds it
/// (points + quadtree index + cached skyline) — the unit budgets below are
/// expressed in.
fn warm_bytes(points: &[Point]) -> u64 {
    let engine = EclipseEngine::new(points.to_vec())
        .unwrap()
        .with_execution_context(ExecutionContext::serial());
    engine.build_index(IntersectionIndexKind::Quadtree).unwrap();
    engine.skyline();
    engine.heap_bytes() as u64
}

fn budgeted_server(dir: &TempDir, budget: u64, threads: usize) -> Server {
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        ExecutionContext::with_threads(threads),
        ServerConfig {
            max_memory_bytes: Some(budget),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    server.set_snapshot_dir(dir.path());
    server
}

#[test]
fn cycling_twice_the_budget_stays_byte_identical_at_1_and_4_threads() {
    let datasets: Vec<Vec<Point>> = (0..4).map(|i| dataset(500, 100 + i)).collect();
    let names = ["ds0", "ds1", "ds2", "ds3"];
    let boxes = probe_boxes();
    let per_dataset: Vec<u64> = datasets.iter().map(|pts| warm_bytes(pts)).collect();
    let working_set: u64 = per_dataset.iter().sum();
    let largest = *per_dataset.iter().max().unwrap();
    let budget = working_set / 2;

    // Ground truth from an unbounded server.
    let reference = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(1)).unwrap();
    for (name, pts) in names.iter().zip(&datasets) {
        reference
            .register_dataset(name, pts.clone(), IndexKind::Quadtree)
            .unwrap();
    }
    let ref_handle = reference.spawn().unwrap();
    let mut ref_client = Client::connect(ref_handle.addr()).unwrap();
    let expected: Vec<_> = names
        .iter()
        .map(|name| ref_client.query_batch(name, &boxes).unwrap())
        .collect();
    ref_handle.shutdown();

    for threads in [1usize, 4] {
        let dir = TempDir::new(&format!("memory_cycle_{threads}"));
        let server = budgeted_server(&dir, budget, threads);
        for (name, pts) in names.iter().zip(&datasets) {
            server
                .register_dataset(name, pts.clone(), IndexKind::Quadtree)
                .unwrap();
        }
        let handle = server.spawn().unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        for pass in 0..3 {
            for (i, name) in names.iter().enumerate() {
                assert_eq!(
                    client.query_batch(name, &boxes).unwrap(),
                    expected[i],
                    "pass {pass}, {name}, threads {threads}"
                );
                let stats = client.stats().unwrap();
                assert_eq!(stats.memory_budget, budget);
                assert!(
                    stats.total_bytes <= budget + largest,
                    "pass {pass}, threads {threads}: accounted {} over budget {budget} + \
                     one dataset {largest}",
                    stats.total_bytes
                );
            }
        }
        let stats = client.stats().unwrap();
        assert!(
            stats.evictions > 0 && stats.reloads > 0,
            "threads {threads}: cycling 2x the budget must evict and reload \
             (evictions {}, reloads {})",
            stats.evictions,
            stats.reloads
        );
        // Residency is part of the report: the working set cannot all fit.
        assert_eq!(stats.datasets.len(), names.len());
        assert!(stats.datasets.iter().any(|d| !d.resident));
        for row in &stats.datasets {
            if row.resident {
                assert!(row.bytes > 0, "resident {} reports zero bytes", row.name);
            } else {
                assert_eq!(row.bytes, 0, "evicted {} reports bytes", row.name);
            }
        }
        handle.shutdown();
    }
}

#[test]
fn lru_evicts_the_coldest_dataset() {
    let datasets: Vec<Vec<Point>> = (0..3).map(|i| dataset(400, 200 + i)).collect();
    let per_dataset: Vec<u64> = datasets.iter().map(|pts| warm_bytes(pts)).collect();
    // Any two datasets fit, all three do not.
    let budget = per_dataset.iter().sum::<u64>() - per_dataset.iter().min().unwrap() / 2;

    let dir = TempDir::new("memory_lru");
    let server = budgeted_server(&dir, budget, 2);
    server
        .register_dataset("ds0", datasets[0].clone(), IndexKind::Quadtree)
        .unwrap();
    server
        .register_dataset("ds1", datasets[1].clone(), IndexKind::Quadtree)
        .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Touch ds0 so ds1 is the coldest, then overflow the budget with ds2:
    // the victim must be ds1, not the more recently used ds0.
    client.query_batch("ds0", &probe_boxes()).unwrap();
    client
        .load_dataset("ds2", &datasets[2], IndexKind::Quadtree)
        .unwrap();
    let stats = client.stats().unwrap();
    let resident = |name: &str| {
        stats
            .datasets
            .iter()
            .find(|d| d.name == name)
            .unwrap()
            .resident
    };
    assert!(!resident("ds1"), "the coldest dataset must be the victim");
    assert!(resident("ds0"), "a recently-touched dataset must survive");
    assert!(resident("ds2"), "the dataset being registered is protected");
    handle.shutdown();
}

/// The accounted bytes of a dataset as the server registers it (rows plus
/// the warm index), and the growth of its first dominated insert (the row
/// buffer grows by an eighth of its rows, and the skyline gets cached).
fn registered_bytes_and_insert_growth(points: &[Point]) -> (u64, u64) {
    let engine = EclipseEngine::new(points.to_vec())
        .unwrap()
        .with_execution_context(ExecutionContext::serial());
    engine.build_index(IntersectionIndexKind::Quadtree).unwrap();
    let registered = engine.heap_bytes() as u64;
    engine.insert(dominated(points)).unwrap();
    (registered, engine.heap_bytes() as u64 - registered)
}

/// A point dominated by the first point of `points`.
fn dominated(points: &[Point]) -> Point {
    Point::new(points[0].coords().iter().map(|c| c + 1.0).collect())
}

#[test]
fn a_mutation_past_the_budget_evicts_the_coldest_other_dataset() {
    let datasets: Vec<Vec<Point>> = (0..3).map(|i| dataset(400, 500 + i)).collect();
    let sizes: Vec<(u64, u64)> = datasets
        .iter()
        .map(|pts| registered_bytes_and_insert_growth(pts))
        .collect();
    let growth = sizes[2].1;
    assert!(growth > 0, "a first insert grows the accounted bytes");
    // All three fit as registered; the insert's growth does not.
    let budget = sizes.iter().map(|s| s.0).sum::<u64>() + growth / 2;

    let dir = TempDir::new("memory_mutation");
    let server = budgeted_server(&dir, budget, 1);
    for (i, pts) in datasets.iter().enumerate() {
        server
            .register_dataset(&format!("ds{i}"), pts.clone(), IndexKind::Quadtree)
            .unwrap();
    }
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.datasets.iter().all(|d| d.resident));
    assert_eq!(stats.evictions, 0);

    // Touch ds0 so ds1 is the coldest, then grow ds2 past the budget.
    client.query_batch("ds0", &probe_boxes()).unwrap();
    let coords = dominated(&datasets[2]).coords().to_vec();
    let ack = client.insert("ds2", &coords).unwrap();
    assert_eq!(ack.epoch, 1);
    let stats = client.stats().unwrap();
    let resident = |name: &str| {
        stats
            .datasets
            .iter()
            .find(|d| d.name == name)
            .unwrap()
            .resident
    };
    assert_eq!(stats.evictions, 1);
    assert!(
        !resident("ds1"),
        "the coldest other dataset must be the victim"
    );
    assert!(resident("ds0"), "a recently-touched dataset must survive");
    assert!(resident("ds2"), "the mutated dataset is protected");
    assert!(stats.total_bytes <= budget);
    handle.shutdown();
}

#[test]
fn eviction_preserves_mutations_and_epochs() {
    let pts = dataset(400, 301);
    let other = dataset(400, 302);
    // Index sizes vary a lot with the seed (intersections are quadratic in
    // the skyline), so size the budget from both: one dataset fits, two
    // never do.
    let (b0, b1) = (warm_bytes(&pts), warm_bytes(&other));
    let budget = b0.max(b1) + b0.min(b1) / 2;
    let boxes = probe_boxes();

    let dir = TempDir::new("memory_epoch");
    let server = budgeted_server(&dir, budget, 2);
    server
        .register_dataset("ds0", pts.clone(), IndexKind::Quadtree)
        .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Mutate to epoch 1, then push ds0 out of memory with a second dataset.
    let inserted = [0.5, 0.5, 0.5];
    let ack = client.insert("ds0", &inserted).unwrap();
    assert_eq!(ack.epoch, 1);
    client
        .load_dataset("ds1", &other, IndexKind::Quadtree)
        .unwrap();
    let stats = client.stats().unwrap();
    let ds0 = stats.datasets.iter().find(|d| d.name == "ds0").unwrap();
    assert!(!ds0.resident, "ds0 must be evicted to fit ds1");
    assert_eq!(ds0.epoch, 1, "eviction must keep the post-mutation epoch");
    assert_eq!(ds0.points, 401);

    // The reload must include the acknowledged insert, byte for byte.
    let engine = EclipseEngine::new(pts).unwrap();
    engine.insert(Point::new(inserted.to_vec())).unwrap();
    let expected: Vec<_> = boxes.iter().map(|b| engine.eclipse(b).unwrap()).collect();
    assert_eq!(client.query_batch("ds0", &boxes).unwrap(), expected);
    let stats = client.stats().unwrap();
    let ds0 = stats.datasets.iter().find(|d| d.name == "ds0").unwrap();
    assert!(ds0.resident);
    assert_eq!(ds0.epoch, 1);
    assert!(stats.reloads >= 1);

    // Mutations keep counting from where the snapshot left off.
    let ack = client.insert("ds0", &[0.25, 0.25, 0.25]).unwrap();
    assert_eq!(ack.epoch, 2);
    handle.shutdown();
}

#[test]
fn impossible_restores_are_typed_and_leave_the_connection_usable() {
    let datasets: Vec<Vec<Point>> = (0..2).map(|i| dataset(400, 400 + i)).collect();
    let (b0, b1) = (warm_bytes(&datasets[0]), warm_bytes(&datasets[1]));
    // One dataset fits, two never do — registering ds1 must evict ds0.
    let budget = b0.max(b1) + b0.min(b1) / 2;
    let boxes = probe_boxes();

    let dir = TempDir::new("memory_unavailable");
    let server = budgeted_server(&dir, budget, 2);
    server
        .register_dataset("ds0", datasets[0].clone(), IndexKind::Quadtree)
        .unwrap();
    server
        .register_dataset("ds1", datasets[1].clone(), IndexKind::Quadtree)
        .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let stats = client.stats().unwrap();
    let ds0 = stats.datasets.iter().find(|d| d.name == "ds0").unwrap();
    assert!(!ds0.resident, "ds0 must have been evicted for ds1");

    // Destroy the snapshots behind the server's back: the next touch cannot
    // restore and must answer the typed response, not a wedged connection.
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    match client.query_batch("ds0", &boxes) {
        Err(ClientError::DatasetUnavailable { name, reason }) => {
            assert_eq!(name, "ds0");
            assert!(!reason.is_empty());
        }
        other => panic!("expected DatasetUnavailable, got {other:?}"),
    }

    // Same connection: liveness, the resident dataset, and stats all work,
    // and the evicted dataset is still reported rather than dropped.
    client.ping().unwrap();
    let engine = EclipseEngine::new(datasets[1].clone()).unwrap();
    let expected: Vec<_> = boxes.iter().map(|b| engine.eclipse(b).unwrap()).collect();
    assert_eq!(client.query_batch("ds1", &boxes).unwrap(), expected);
    let stats = client.stats().unwrap();
    assert!(stats
        .datasets
        .iter()
        .any(|d| d.name == "ds0" && !d.resident));
    handle.shutdown();
}

#[test]
fn a_budget_without_a_snapshot_dir_refuses_to_serve() {
    // Eviction persists datasets as snapshots; a budget with nowhere to
    // put them would silently never evict, so the server refuses to start.
    let bind = || {
        Server::bind_with_config(
            "127.0.0.1:0",
            ExecutionContext::serial(),
            ServerConfig {
                max_memory_bytes: Some(1 << 20),
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let err = bind().spawn().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let err = bind().run().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}
