//! End-to-end serving test: a real `eclipse-serve` server on an ephemeral
//! port must answer `QueryBatch` with exactly the results of the in-process
//! [`EclipseEngine::eclipse_query_batch`] path, and `CountBatch` with the
//! result lengths — at one and at four query threads (the CI thread-parity
//! matrix additionally re-runs this whole file under `ECLIPSE_THREADS=1`
//! and `4`).

use eclipse_core::exec::{ExecutionContext, QueryOptions};
use eclipse_core::index::IntersectionIndexKind;
use eclipse_core::{EclipseEngine, WeightRatioBox};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_serve::client::{Client, ClientError};
use eclipse_serve::protocol::IndexKind;
use eclipse_serve::server::Server;

fn probe_boxes() -> Vec<WeightRatioBox> {
    let mut boxes = Vec::new();
    for (lo, hi) in [
        (0.18, 5.67),
        (0.36, 2.75),
        (0.58, 1.73),
        (0.84, 1.19),
        (1.0, 1.0),
        // Escapes the default indexed region, through the server too.
        (0.5, 20.0),
    ] {
        boxes.push(WeightRatioBox::uniform(3, lo, hi).unwrap());
    }
    boxes
}

#[test]
fn served_batches_match_in_process_batches_at_1_and_4_threads() {
    let points = SyntheticConfig::new(600, 3, Distribution::Independent, 2021).generate();
    let boxes = probe_boxes();
    for threads in [1usize, 4] {
        for warm in [IndexKind::Quadtree, IndexKind::CuttingTree] {
            let ctx = ExecutionContext::with_threads(threads);
            // The in-process reference: same pool width, same warmed index
            // kind, same batched entry point.
            let engine = EclipseEngine::new(points.clone())
                .unwrap()
                .with_execution_context(ctx.clone());
            engine
                .build_index(IntersectionIndexKind::from(warm))
                .unwrap();
            let expected = engine
                .eclipse_query_batch(&boxes, &QueryOptions::default())
                .unwrap();
            let expected_counts: Vec<usize> = expected.iter().map(Vec::len).collect();

            let handle = Server::bind("127.0.0.1:0", ctx).unwrap().spawn().unwrap();
            let mut client = Client::connect(handle.addr()).unwrap();
            let summary = client.load_dataset("inde", &points, warm).unwrap();
            assert_eq!(summary.points, 600);
            assert_eq!(summary.dim, 3);
            assert_eq!(summary.skyline_len as usize, engine.skyline().len());

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
            handle.shutdown();
        }
    }
}

#[test]
fn empty_and_single_probe_batches_over_the_wire() {
    let points = SyntheticConfig::new(300, 3, Distribution::Correlated, 7).generate();
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load_dataset("corr", &points, IndexKind::Quadtree)
        .unwrap();
    assert_eq!(
        client.query_batch("corr", &[]).unwrap(),
        Vec::<Vec<usize>>::new()
    );
    assert_eq!(
        client.count_batch("corr", &[]).unwrap(),
        Vec::<usize>::new()
    );

    let engine = EclipseEngine::new(points).unwrap();
    let one = [WeightRatioBox::uniform(3, 0.36, 2.75).unwrap()];
    let expected = engine.eclipse(&one[0]).unwrap();
    assert_eq!(
        client.query_batch("corr", &one).unwrap(),
        vec![expected.clone()]
    );
    assert_eq!(
        client.count_batch("corr", &one).unwrap(),
        vec![expected.len()]
    );
    handle.shutdown();
}

#[test]
fn skyline_instantiation_is_served_through_the_auto_fallback() {
    // Unbounded boxes cannot go through the index; the engine's Auto path
    // answers them per probe, and the wire format carries the infinities.
    let points = SyntheticConfig::new(200, 3, Distribution::Independent, 11).generate();
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load_dataset("inde", &points, IndexKind::Quadtree)
        .unwrap();
    let engine = EclipseEngine::new(points).unwrap();
    let sky = WeightRatioBox::skyline(3).unwrap();
    let bounded = WeightRatioBox::uniform(3, 0.36, 2.75).unwrap();
    let got = client
        .query_batch("inde", &[sky.clone(), bounded.clone()])
        .unwrap();
    assert_eq!(got[0], engine.eclipse(&sky).unwrap());
    assert_eq!(got[1], engine.eclipse(&bounded).unwrap());
    handle.shutdown();
}

#[test]
fn protocol_errors_leave_the_connection_usable() {
    let points = SyntheticConfig::new(150, 3, Distribution::Independent, 3).generate();
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::serial())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();

    // Unknown dataset.
    let b = [WeightRatioBox::uniform(3, 0.5, 1.5).unwrap()];
    match client.query_batch("ghost", &b) {
        Err(ClientError::Server(m)) => assert!(m.contains("unknown dataset"), "{m}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    // Wrong dimensionality after a successful load.
    client
        .load_dataset("d3", &points, IndexKind::CuttingTree)
        .unwrap();
    let wrong = [WeightRatioBox::uniform(4, 0.5, 1.5).unwrap()];
    assert!(matches!(
        client.count_batch("d3", &wrong),
        Err(ClientError::Server(_))
    ));

    // The same connection still answers correctly afterwards.
    let engine = EclipseEngine::new(points).unwrap();
    assert_eq!(
        client.query_batch("d3", &b).unwrap(),
        vec![engine.eclipse(&b[0]).unwrap()]
    );

    // Stats reflect the errors and the successful traffic.
    let report = client.stats().unwrap();
    assert_eq!(report.errors, 2);
    assert_eq!(report.query_batches, 1);
    assert_eq!(report.count_batches, 0);
    assert_eq!(report.datasets.len(), 1);
    assert!(report.datasets[0].cutting_built);
    assert!(!report.datasets[0].quad_built);
    handle.shutdown();
}

#[test]
fn mixed_dimensionalities_are_rejected_before_sending() {
    // The flat wire format would silently regroup the coordinates of a
    // mixed-dimensionality slice into different points; the client must
    // refuse to send it at all.
    use eclipse_core::Point;
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::serial())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mixed = vec![
        Point::new(vec![1.0, 2.0]),
        Point::new(vec![1.0, 2.0, 3.0, 4.0]),
    ];
    match client.load_dataset("mixed", &mixed, IndexKind::Quadtree) {
        Err(ClientError::InvalidRequest(m)) => assert!(m.contains("mixed"), "{m}"),
        other => panic!("expected a client-side rejection, got {other:?}"),
    }
    // Nothing was registered and the connection is still usable.
    client.ping().unwrap();
    assert!(client.stats().unwrap().datasets.is_empty());
    handle.shutdown();
}

#[test]
fn build_index_over_the_wire_reports_backend_shape() {
    let points = SyntheticConfig::new(250, 3, Distribution::Independent, 5).generate();
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::serial())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load_dataset("inde", &points, IndexKind::Quadtree)
        .unwrap();
    let summary = client.build_index("inde", IndexKind::CuttingTree).unwrap();
    assert_eq!(summary.kind, IndexKind::CuttingTree);
    assert!(summary.nodes >= 1);
    let engine = EclipseEngine::new(points).unwrap();
    assert_eq!(summary.skyline_len as usize, engine.skyline().len());
    let report = client.stats().unwrap();
    assert!(report.datasets[0].quad_built && report.datasets[0].cutting_built);
    assert!(report.datasets[0].root_crossings <= report.datasets[0].intersections);
    handle.shutdown();
}

#[test]
fn two_datasets_are_served_independently() {
    let inde = SyntheticConfig::new(200, 3, Distribution::Independent, 13).generate();
    let anti = SyntheticConfig::new(200, 2, Distribution::AntiCorrelated, 17).generate();
    let handle = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(2))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load_dataset("inde", &inde, IndexKind::Quadtree)
        .unwrap();
    client
        .load_dataset("anti", &anti, IndexKind::CuttingTree)
        .unwrap();

    let b3 = [WeightRatioBox::uniform(3, 0.36, 2.75).unwrap()];
    let b2 = [WeightRatioBox::uniform(2, 0.25, 2.0).unwrap()];
    let e_inde = EclipseEngine::new(inde).unwrap();
    let e_anti = EclipseEngine::new(anti).unwrap();
    assert_eq!(
        client.query_batch("inde", &b3).unwrap(),
        vec![e_inde.eclipse(&b3[0]).unwrap()]
    );
    assert_eq!(
        client.query_batch("anti", &b2).unwrap(),
        vec![e_anti.eclipse(&b2[0]).unwrap()]
    );
    let report = client.stats().unwrap();
    assert_eq!(report.datasets.len(), 2);
    // Sorted by name.
    assert_eq!(report.datasets[0].name, "anti");
    assert_eq!(report.datasets[1].name, "inde");
    handle.shutdown();
}
