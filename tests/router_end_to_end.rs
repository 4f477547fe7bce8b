//! End-to-end tests of the healthy-path shard router: hash placement,
//! replicated probe-space partitioning, merged stats/snapshot surfaces,
//! and both protocol generations on the client side — always asserting
//! the routed results are byte-identical to a single-process run.

mod common;

use common::TempDir;
use eclipse_core::exec::ExecutionContext;
use eclipse_core::WeightRatioBox;
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_persist::fnv1a;
use eclipse_router::router::{Router, RouterConfig};
use eclipse_serve::client::{Client, ClientError, PipelinedClient};
use eclipse_serve::protocol::{IndexKind, Request, Response};
use eclipse_serve::server::{Server, ServerHandle};

/// A dataset name that hash-places onto `slot` of a `members`-wide ring.
fn owned_name(slot: usize, members: usize) -> String {
    (0..)
        .map(|i| format!("ds{i}"))
        .find(|name| (fnv1a(name.as_bytes()) % members as u64) as usize == slot)
        .expect("some name hashes onto every slot")
}

fn probe_boxes(n: usize) -> Vec<WeightRatioBox> {
    (0..n)
        .map(|i| {
            let lo = 0.2 + 0.07 * i as f64;
            WeightRatioBox::uniform(3, lo, lo + 2.5).unwrap()
        })
        .collect()
}

fn spawn_backends(n: usize, threads: usize) -> Vec<ServerHandle> {
    (0..n)
        .map(|_| {
            Server::bind("127.0.0.1:0", ExecutionContext::with_threads(threads))
                .unwrap()
                .spawn()
                .unwrap()
        })
        .collect()
}

fn router_over(backends: &[ServerHandle], config: RouterConfig) -> eclipse_router::RouterHandle {
    let config = RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        ..config
    };
    Router::bind("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap()
}

#[test]
fn hashed_placement_shards_datasets_and_merges_identically_to_one_server() {
    let backends = spawn_backends(2, 2);
    let router = router_over(&backends, RouterConfig::default());

    let name0 = owned_name(0, 2);
    let name1 = owned_name(1, 2);
    let points0 = SyntheticConfig::new(400, 3, Distribution::Independent, 11).generate();
    let points1 = SyntheticConfig::new(400, 3, Distribution::AntiCorrelated, 12).generate();
    let boxes = probe_boxes(7);

    // The unsharded reference: one process holding both datasets.
    let reference = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2))
        .unwrap()
        .spawn()
        .unwrap();
    let mut ref_client = Client::connect(reference.addr()).unwrap();
    ref_client
        .load_dataset(&name0, &points0, IndexKind::Quadtree)
        .unwrap();
    ref_client
        .load_dataset(&name1, &points1, IndexKind::Quadtree)
        .unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    client.ping().unwrap();
    client
        .load_dataset(&name0, &points0, IndexKind::Quadtree)
        .unwrap();
    client
        .load_dataset(&name1, &points1, IndexKind::Quadtree)
        .unwrap();

    // Placement is real: each backend holds exactly its own dataset.
    for (i, expected_name) in [(0, &name0), (1, &name1)] {
        let mut direct = Client::connect(backends[i].addr()).unwrap();
        let report = direct.stats().unwrap();
        let held: Vec<&str> = report.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(held, vec![expected_name.as_str()], "backend {i}");
    }

    // Routed results are byte-identical to the single-process run.
    for name in [&name0, &name1] {
        assert_eq!(
            client.query_batch(name, &boxes).unwrap(),
            ref_client.query_batch(name, &boxes).unwrap(),
            "{name}"
        );
        assert_eq!(
            client.count_batch(name, &boxes).unwrap(),
            ref_client.count_batch(name, &boxes).unwrap(),
            "{name}"
        );
    }

    // Merged stats see both datasets and the summed probe counters.
    let report = client.stats().unwrap();
    assert_eq!(report.datasets.len(), 2);
    assert_eq!(report.probes, 4 * boxes.len() as u64);

    // The same answers over a pipelined v2 connection through the router.
    let mut pipelined = PipelinedClient::connect(router.addr(), 8).unwrap();
    let request = Request::QueryBatch {
        name: name0.clone(),
        boxes: boxes
            .iter()
            .map(|b| b.ranges().iter().map(|r| (r.lo(), r.hi())).collect())
            .collect(),
    };
    let expected: Vec<Vec<u64>> = ref_client
        .query_batch(&name0, &boxes)
        .unwrap()
        .into_iter()
        .map(|ids| ids.into_iter().map(|i| i as u64).collect())
        .collect();
    match pipelined.call(&request).unwrap() {
        Response::QueryResults(rows) => assert_eq!(rows, expected),
        other => panic!("expected QueryResults, got {other:?}"),
    }

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    reference.shutdown();
}

#[test]
fn replicated_probe_partitioning_merges_in_probe_order() {
    let points = SyntheticConfig::new(600, 3, Distribution::Independent, 21).generate();
    let reference = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2))
        .unwrap()
        .spawn()
        .unwrap();
    let mut ref_client = Client::connect(reference.addr()).unwrap();
    ref_client
        .load_dataset("rep", &points, IndexKind::Quadtree)
        .unwrap();

    for members in 1..=4 {
        let backends = spawn_backends(members, 2);
        let router = router_over(
            &backends,
            RouterConfig {
                replicated: vec!["rep".to_string()],
                ..RouterConfig::default()
            },
        );
        let mut client = Client::connect(router.addr()).unwrap();
        client
            .load_dataset("rep", &points, IndexKind::Quadtree)
            .unwrap();

        // Replication is real: every backend holds the dataset.
        for (i, backend) in backends.iter().enumerate() {
            let mut direct = Client::connect(backend.addr()).unwrap();
            let report = direct.stats().unwrap();
            assert_eq!(report.datasets.len(), 1, "{members} members, backend {i}");
            assert_eq!(
                report.datasets[0].name, "rep",
                "{members} members, backend {i}"
            );
        }

        // Batches around the chunking edges: fewer probes than members, an
        // exact multiple, a remainder, the empty batch and a long one.
        for n in [0usize, 1, 2, 3, 4, 10, 32] {
            let boxes = probe_boxes(n);
            assert_eq!(
                client.query_batch("rep", &boxes).unwrap(),
                ref_client.query_batch("rep", &boxes).unwrap(),
                "{members} members, batch of {n}"
            );
            assert_eq!(
                client.count_batch("rep", &boxes).unwrap(),
                ref_client.count_batch("rep", &boxes).unwrap(),
                "{members} members, batch of {n}"
            );
        }

        router.shutdown();
        for b in backends {
            b.shutdown();
        }
    }
    reference.shutdown();
}

#[test]
fn replicated_mutations_fan_to_every_member_and_stats_merge_by_name() {
    let backends = spawn_backends(3, 2);
    let router = router_over(
        &backends,
        RouterConfig {
            replicated: vec!["rep".to_string(), "rep8".to_string()],
            ..RouterConfig::default()
        },
    );

    let points = SyntheticConfig::new(300, 3, Distribution::Independent, 41).generate();
    let mut client = Client::connect(router.addr()).unwrap();
    client
        .load_dataset("rep", &points, IndexKind::Quadtree)
        .unwrap();

    // Interleaved inserts and deletes through the router, mirrored on a
    // local reference engine.
    let inserts: Vec<[f64; 3]> = (0..4).map(|i| [0.15 + 0.1 * i as f64, 0.2, 0.25]).collect();
    let deletes = [7u64, 301, 3];
    let engine = eclipse_core::EclipseEngine::new(points.clone()).unwrap();
    for coords in &inserts {
        client.insert("rep", coords).unwrap();
        engine
            .insert(eclipse_core::Point::new(coords.to_vec()))
            .unwrap();
    }
    for id in deletes {
        client.delete("rep", id).unwrap();
        engine.delete(id as usize).unwrap();
    }

    // Every member applied every mutation: replicas answer byte-identically
    // to the reference engine and agree on the epoch.
    let boxes = probe_boxes(6);
    let expected: Vec<Vec<usize>> = boxes.iter().map(|b| engine.eclipse(b).unwrap()).collect();
    let mut member_bytes = 0u64;
    for (i, backend) in backends.iter().enumerate() {
        let mut direct = Client::connect(backend.addr()).unwrap();
        assert_eq!(
            direct.query_batch("rep", &boxes).unwrap(),
            expected,
            "replica {i} diverged after the mutation fan"
        );
        let report = direct.stats().unwrap();
        assert_eq!(report.datasets.len(), 1, "replica {i}");
        assert_eq!(report.datasets[0].epoch, 7, "replica {i}");
        member_bytes += report.datasets[0].bytes;
    }

    // Merged stats answer ONE row per dataset name (regression: the merge
    // used to keep the first member's row and drop the rest), with the
    // member bytes aggregated and the shared epoch preserved.
    let report = client.stats().unwrap();
    let rep_rows: Vec<_> = report.datasets.iter().filter(|d| d.name == "rep").collect();
    assert_eq!(rep_rows.len(), 1, "one merged row per dataset name");
    assert_eq!(rep_rows[0].epoch, 7);
    assert_eq!(rep_rows[0].bytes, member_bytes);
    assert!(rep_rows[0].resident);
    assert_eq!(report.total_bytes, member_bytes);

    // The same mutations on a second replicated dataset, pipelined at
    // depth 8: the router may run them at the same time and in any order,
    // but every replica applies them in one order.
    client
        .load_dataset("rep8", &points, IndexKind::Quadtree)
        .unwrap();
    let mut pipelined = PipelinedClient::connect(router.addr(), 8).unwrap();
    let mutations = inserts
        .iter()
        .map(|coords| Request::Insert {
            name: "rep8".to_string(),
            coords: coords.to_vec(),
        })
        .chain(deletes.iter().map(|&id| Request::Delete {
            name: "rep8".to_string(),
            id,
        }));
    let ids: Vec<u64> = mutations
        .map(|request| pipelined.submit(&request).unwrap())
        .collect();
    for id in ids {
        // A delete that ran before the inserts it counts on is refused.
        match pipelined.recv(id) {
            Ok(Response::Mutated { .. }) | Err(ClientError::Server(_)) => {}
            other => panic!("expected a mutation ack or refusal, got {other:?}"),
        }
    }
    let replica = |backend: &ServerHandle| {
        let mut direct = Client::connect(backend.addr()).unwrap();
        let answers = direct.query_batch("rep8", &boxes).unwrap();
        let report = direct.stats().unwrap();
        let epoch = report
            .datasets
            .iter()
            .find(|d| d.name == "rep8")
            .expect("every replica holds rep8")
            .epoch;
        (answers, epoch)
    };
    let first = replica(&backends[0]);
    for (i, backend) in backends.iter().enumerate().skip(1) {
        assert_eq!(
            replica(backend),
            first,
            "replica {i} diverged from replica 0"
        );
    }

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn backend_eviction_reloads_preserve_epochs_and_cause_no_failovers() {
    use eclipse_core::index::IntersectionIndexKind;
    use eclipse_serve::server::ServerConfig;

    let warm_bytes = |points: &[eclipse_core::Point]| -> u64 {
        let engine = eclipse_core::EclipseEngine::new(points.to_vec())
            .unwrap()
            .with_execution_context(ExecutionContext::serial());
        engine.build_index(IntersectionIndexKind::Quadtree).unwrap();
        engine.skyline();
        engine.heap_bytes() as u64
    };
    let points0 = SyntheticConfig::new(400, 3, Distribution::Independent, 51).generate();
    let points1 = SyntheticConfig::new(400, 3, Distribution::Independent, 52).generate();
    let (b0, b1) = (warm_bytes(&points0), warm_bytes(&points1));

    // A single budgeted backend that can hold one dataset but not both, so
    // alternating datasets through the router keeps evicting and reloading.
    let dir = TempDir::new("router_memory");
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        ExecutionContext::with_threads(2),
        ServerConfig {
            max_memory_bytes: Some(b0.max(b1) + b0.min(b1) / 2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    server.set_snapshot_dir(dir.path());
    let backends = vec![server.spawn().unwrap()];
    let router = router_over(&backends, RouterConfig::default());
    let mut client = Client::connect(router.addr()).unwrap();

    client
        .load_dataset("ds0", &points0, IndexKind::Quadtree)
        .unwrap();
    let inserted = [0.4, 0.4, 0.4];
    assert_eq!(client.insert("ds0", &inserted).unwrap().epoch, 1);
    client
        .load_dataset("ds1", &points1, IndexKind::Quadtree)
        .unwrap();

    let engine0 = eclipse_core::EclipseEngine::new(points0).unwrap();
    engine0
        .insert(eclipse_core::Point::new(inserted.to_vec()))
        .unwrap();
    let engine1 = eclipse_core::EclipseEngine::new(points1).unwrap();
    let boxes = probe_boxes(5);
    let expected0: Vec<Vec<usize>> = boxes.iter().map(|b| engine0.eclipse(b).unwrap()).collect();
    let expected1: Vec<Vec<usize>> = boxes.iter().map(|b| engine1.eclipse(b).unwrap()).collect();

    // Thrash: every round trips an eviction and a snapshot reload on the
    // backend, yet routed answers never change and the mutation epoch
    // survives every round trip through disk.
    for round in 0..3 {
        assert_eq!(
            client.query_batch("ds0", &boxes).unwrap(),
            expected0,
            "round {round}"
        );
        assert_eq!(
            client.query_batch("ds1", &boxes).unwrap(),
            expected1,
            "round {round}"
        );
    }
    let report = client.stats().unwrap();
    assert!(
        report.evictions > 0,
        "the budget must have forced evictions"
    );
    assert!(
        report.reloads > 0,
        "touches must have reloaded from snapshots"
    );
    let ds0 = report.datasets.iter().find(|d| d.name == "ds0").unwrap();
    assert_eq!(ds0.epoch, 1, "epoch must survive eviction round trips");

    // Reload latency is flow control, not ill health: the router saw a
    // healthy member throughout and never promoted a standby.
    assert!(
        router.failovers().is_empty(),
        "reloads must not read as member failures: {:?}",
        router.failovers()
    );

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn router_snapshot_surface_saves_once_and_restores_everywhere() {
    let dir = TempDir::new("router_snapshots");
    let backends: Vec<ServerHandle> = (0..2)
        .map(|_| {
            let server = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2)).unwrap();
            server.set_snapshot_dir(dir.path());
            server.spawn().unwrap()
        })
        .collect();
    let router = router_over(&backends, RouterConfig::default());

    let name0 = owned_name(0, 2);
    let name1 = owned_name(1, 2);
    let points0 = SyntheticConfig::new(300, 3, Distribution::Independent, 31).generate();
    let points1 = SyntheticConfig::new(300, 3, Distribution::Correlated, 32).generate();
    let boxes = probe_boxes(5);

    let mut client = Client::connect(router.addr()).unwrap();
    client
        .load_dataset(&name0, &points0, IndexKind::Quadtree)
        .unwrap();
    client
        .load_dataset(&name1, &points1, IndexKind::Quadtree)
        .unwrap();
    let expected0 = client.query_batch(&name0, &boxes).unwrap();
    let expected1 = client.query_batch(&name1, &boxes).unwrap();

    // SaveIndex routes to each dataset's owner; the shared directory ends
    // up holding one snapshot per dataset.
    assert!(client.save_index(&name0, IndexKind::Quadtree).unwrap() > 0);
    assert!(client.save_index(&name1, IndexKind::Quadtree).unwrap() > 0);
    let snapshots = std::fs::read_dir(dir.path()).unwrap().count();
    assert_eq!(snapshots, 2);

    // LoadSnapshots fans to every member and reports the merged scan.
    let (restored, skipped) = client.load_snapshots().unwrap();
    assert!(skipped.is_empty(), "{skipped:?}");
    let mut names: Vec<&str> = restored.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut expected_names = vec![name0.as_str(), name1.as_str()];
    expected_names.sort_unstable();
    assert_eq!(names, expected_names);

    // Results are unchanged after the restore round-trip.
    assert_eq!(client.query_batch(&name0, &boxes).unwrap(), expected0);
    assert_eq!(client.query_batch(&name1, &boxes).unwrap(), expected1);

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
