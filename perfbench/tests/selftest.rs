//! Self-test of the benchmark: short runs print every metric named in
//! `BENCHMARK.json` with its unit, and the correctness gate rejects wrong
//! answers.  Run with `cargo test --release` from this directory.

use std::time::Duration;

use eclipse_bench::workloads::probe_ratio_boxes;
use perfbench::layers::PER_LAYER;
use perfbench::serve::{self, Topology};
use perfbench::{dataset, run, write_evict, EndToEnd, RunConfig, Workload, END_TO_END};

/// `(name, unit)` of every metric listed in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} is missing"));
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn names(metrics: &[(String, f64, String)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect()
}

fn short(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
    }
}

#[test]
fn declared_metrics_match_the_code() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn short_runs_print_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let report = run(&short(workload, false)).expect("run completes");
        assert!(report.correct, "{workload:?} failed its gate");
        assert!(report.attempted > 0 && report.failed == 0, "{workload:?}");
        assert_eq!(
            names(&report.metrics),
            declared("end_to_end"),
            "{workload:?}"
        );
        assert!(
            report
                .metrics
                .iter()
                .all(|(_, v, _)| v.is_finite() && *v > 0.0),
            "{workload:?}: an end-to-end metric read 0: {:?}",
            report.metrics
        );
        let line = report.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }
}

#[test]
fn traced_runs_print_every_layer_metric() {
    for workload in Workload::ALL {
        let report = run(&short(workload, true)).expect("traced run completes");
        assert!(report.correct, "{workload:?} failed its gate");
        assert_eq!(
            names(&report.metrics),
            declared("per_layer"),
            "{workload:?}"
        );
        let spans = report
            .stamp
            .iter()
            .find(|(k, _)| k == "spans_file")
            .map(|(_, v)| v.trim_matches('"').to_string())
            .expect("spans were written");
        assert!(std::path::Path::new(&spans).is_file(), "{spans}");
    }
}

#[test]
fn gate_rejects_a_corrupted_served_answer() {
    let points = dataset(serve::N, 0);
    let boxes = probe_ratio_boxes(64, 3, 7);
    let good = serve::Expected::compute(&points, &boxes);
    let mut bad = good.clone();
    bad.rows[0].push(u64::MAX);
    bad.counts[0] += 1;
    for (expected, should_fail) in [(&good, false), (&bad, true)] {
        let (mut client, _deployment) = serve::connect(
            Topology::Direct,
            &points,
            1,
            &eclipse_core::ExecutionContext::serial(),
        )
        .expect("deployment starts");
        let mut out = EndToEnd::default();
        serve::drive(
            &mut client,
            &points,
            &boxes,
            expected,
            &mut serve::Stream::new(7, 0),
            Duration::from_millis(200),
            &mut out,
            None,
        );
        assert!(out.tally.attempted > 100);
        assert_eq!(out.tally.failed > 0, should_fail, "{:?}", out.tally);
    }
}

#[test]
fn gate_rejects_a_diverged_mirror() {
    let datasets: Vec<_> = (0..4).map(|d| dataset(4096, d)).collect();
    let mut wrong = datasets.clone();
    wrong[0] = dataset(4096, 99);
    let mirror = write_evict::Mirror::build(&wrong);
    let budget = 1 << 40;
    let (mut client, server, _dir) =
        write_evict::start(&datasets, budget, "selftest").expect("server starts");
    let mut out = EndToEnd::default();
    write_evict::drive(
        &mut client,
        &mirror,
        &probe_ratio_boxes(256, 3, 7),
        budget,
        &mut write_evict::Stream::new(7, 0),
        Duration::from_millis(300),
        &mut out,
        None,
    );
    drop(client);
    server.shutdown();
    assert!(out.tally.failed > 0, "{:?}", out.tally);
}
