//! Experiment harness reproducing every table and figure of the paper's
//! evaluation section (§V).
//!
//! ```text
//! cargo run --release -p eclipse-bench --bin experiments -- all
//! cargo run --release -p eclipse-bench --bin experiments -- table6 fig10
//! cargo run --release -p eclipse-bench --bin experiments -- --full fig10
//! cargo run --release -p eclipse-bench --bin experiments -- --out results/ all
//! ```
//!
//! Without `--full` the scaling experiments stop at n = 2^13 (the paper's
//! largest settings push the quadratic baseline into the 10^4-second range on
//! its own hardware; the shapes are already clear at 2^13).  `--out DIR`
//! additionally writes each table as CSV into DIR.

use std::collections::BTreeSet;
use std::path::PathBuf;

use eclipse_bench::harness::{
    format_secs, run_competitor_repeated, run_index_probes, run_index_probes_batched,
    run_skyline_executor, run_tran_at_threads, run_tree_probes, run_tree_probes_configured,
    skyline_executors, Competitor,
};
use eclipse_bench::workloads::{
    default_ratio_box, hyperplane_workload, probe_boxes, probe_ratio_boxes, probe_root_cell,
    ratio_box, worst_case_dataset, DatasetFamily, HyperplaneFamily, DEFAULT_D, DEFAULT_N,
    DEFAULT_NBA_N, DEFAULT_N_VALUES, PAPER_D_VALUES, PAPER_N_VALUES, PAPER_RATIO_RANGES,
};
use eclipse_core::algo::transform::{eclipse_transform, SkylineBackend};
use eclipse_core::exec::ExecutionContext;
use eclipse_core::index::{EclipseIndex, IndexConfig, IntersectionIndexKind};
use eclipse_core::relations::RelationReport;
use eclipse_data::io::ResultTable;
use eclipse_data::survey::{run_survey, SurveyConfig, SurveySystem};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_exec::ThreadPool;
use eclipse_geom::cutting::{CutRule, CuttingTree, CuttingTreeConfig};
use eclipse_geom::hyperplane::HyperplaneSlab;
use eclipse_geom::quadtree::{HyperplaneQuadtree, QuadtreeConfig, SplitRule};
use eclipse_serve::client::{Client, PipelinedClient};
use eclipse_serve::protocol::IndexKind;
use eclipse_serve::server::Server;

const SEED: u64 = 20210614;

struct Options {
    full: bool,
    quick: bool,
    out_dir: Option<PathBuf>,
    experiments: BTreeSet<String>,
}

fn main() {
    let opts = parse_args();
    let all = opts.experiments.contains("all") || opts.experiments.is_empty();
    let want = |name: &str| all || opts.experiments.contains(name);

    if want("table5") {
        emit(&opts, "table5", table5());
    }
    if want("table6") {
        emit(&opts, "table6", table6(&opts));
    }
    if want("table7") {
        emit(&opts, "table7", table7());
    }
    if want("table8") {
        emit(&opts, "table8", table8());
    }
    if want("fig10") {
        for (name, table) in fig10(&opts) {
            emit(&opts, &name, table);
        }
    }
    if want("fig11") {
        for (name, table) in fig11() {
            emit(&opts, &name, table);
        }
    }
    if want("fig12") {
        for (name, table) in fig12() {
            emit(&opts, &name, table);
        }
    }
    if want("fig13") {
        emit(&opts, "fig13", fig13(&opts));
    }
    if want("fig14") {
        emit(&opts, "fig14", fig14());
    }
    if want("relations") {
        emit(&opts, "relations", relations());
    }
    if want("threads") {
        emit(&opts, "threads", threads_sweep(&opts));
    }
    if want("probes") {
        for (name, table) in probes_sweep(&opts) {
            emit(&opts, &name, table);
        }
    }
    if want("serve") {
        emit(&opts, "serve", serve_sweep(&opts));
    }
    if want("serve_pipeline") {
        emit(&opts, "serve_pipeline", serve_pipeline_sweep(&opts));
    }
    if want("snapshot") {
        emit(&opts, "snapshot", snapshot_sweep(&opts));
    }
    if want("mutate") {
        emit(&opts, "mutate", mutate_sweep(&opts));
    }
    if want("build") {
        for (name, table) in build_sweep(&opts) {
            emit(&opts, &name, table);
        }
    }
    if want("shard") {
        emit(&opts, "shard", shard_sweep(&opts));
    }
    if want("memory") {
        emit(&opts, "memory", memory_sweep(&opts));
    }
}

fn parse_args() -> Options {
    let mut full = false;
    let mut quick = false;
    let mut out_dir = None;
    let mut experiments = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--quick" => quick = true,
            "--out" => {
                out_dir = args.next().map(PathBuf::from);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--full] [--quick] [--out DIR] \
                     [all|table5|table6|table7|table8|fig10|fig11|fig12|fig13|fig14|relations|\
                     threads|probes|serve|serve_pipeline|snapshot|mutate|build|shard|memory]..."
                );
                std::process::exit(0);
            }
            other => {
                experiments.insert(other.to_string());
            }
        }
    }
    Options {
        full,
        quick,
        out_dir,
        experiments,
    }
}

fn emit(opts: &Options, name: &str, table: (String, ResultTable)) {
    let (title, table) = table;
    println!("\n=== {name}: {title} ===");
    print!("{}", table.render());
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = dir.join(format!("{name}.csv"));
        table.write_csv(&path).expect("write CSV");
        println!("[written to {}]", path.display());
    }
}

/// Table V — simulated user study.
fn table5() -> (String, ResultTable) {
    let outcome = run_survey(SurveyConfig::default());
    let mut t = ResultTable::new(&[
        "skyline",
        "top-k",
        "eclipse-ratio",
        "eclipse-weight",
        "eclipse-category",
    ]);
    t.push_row(
        SurveySystem::all()
            .into_iter()
            .map(|s| outcome.count(s).to_string())
            .collect(),
    );
    (
        "Results of case study (simulated respondents)".to_string(),
        t,
    )
}

/// The INDE repetition datasets for Tables VI–VIII: one dataset per
/// repetition seed.  Generated once per (n, d) and shared across every ratio
/// range that probes them — regenerating the identical datasets inside each
/// sweep pass was pure waste.
fn inde_rep_datasets(n: usize, d: usize, repetitions: u64) -> Vec<Vec<eclipse_core::Point>> {
    (0..repetitions)
        .map(|rep| SyntheticConfig::new(n, d, Distribution::Independent, SEED + rep).generate())
        .collect()
}

/// Average number of eclipse points over pre-generated INDE datasets.
fn average_eclipse_count(
    datasets: &[Vec<eclipse_core::Point>],
    d: usize,
    ratio: (f64, f64),
) -> f64 {
    let b = ratio_box(d, ratio.0, ratio.1);
    let total: usize = datasets
        .iter()
        .map(|pts| {
            eclipse_transform(pts, &b, SkylineBackend::Auto)
                .expect("valid workload")
                .len()
        })
        .sum();
    total as f64 / datasets.len() as f64
}

/// Table VI — expected number of eclipse points vs n.
fn table6(opts: &Options) -> (String, ResultTable) {
    let ns: Vec<usize> = if opts.full {
        PAPER_N_VALUES.to_vec()
    } else {
        DEFAULT_N_VALUES.to_vec()
    };
    let mut t = ResultTable::new(&["n", "eclipse_points"]);
    for n in ns {
        let datasets = inde_rep_datasets(n, DEFAULT_D, 5);
        let avg = average_eclipse_count(&datasets, DEFAULT_D, (0.36, 2.75));
        t.push_row(vec![
            format!("2^{}", n.trailing_zeros()),
            format!("{avg:.2}"),
        ]);
    }
    (
        "Expected number of eclipse points vs. n (INDE, d = 3, r ∈ [0.36, 2.75])".to_string(),
        t,
    )
}

/// Table VII — expected number of eclipse points vs d.
fn table7() -> (String, ResultTable) {
    let mut t = ResultTable::new(&["d", "eclipse_points"]);
    for d in PAPER_D_VALUES {
        let datasets = inde_rep_datasets(DEFAULT_N, d, 5);
        let avg = average_eclipse_count(&datasets, d, (0.36, 2.75));
        t.push_row(vec![d.to_string(), format!("{avg:.2}")]);
    }
    (
        "Expected number of eclipse points vs. d (INDE, n = 2^10, r ∈ [0.36, 2.75])".to_string(),
        t,
    )
}

/// Table VIII — expected number of eclipse points vs ratio range.  The five
/// repetition datasets are identical for every range, so they are generated
/// once up front instead of once per range.
fn table8() -> (String, ResultTable) {
    let datasets = inde_rep_datasets(DEFAULT_N, DEFAULT_D, 5);
    let mut t = ResultTable::new(&["r", "eclipse_points"]);
    for (lo, hi) in PAPER_RATIO_RANGES {
        let avg = average_eclipse_count(&datasets, DEFAULT_D, (lo, hi));
        t.push_row(vec![format!("[{lo},{hi}]"), format!("{avg:.2}")]);
    }
    (
        "Expected number of eclipse points vs. r (INDE, n = 2^10, d = 3)".to_string(),
        t,
    )
}

/// Figure 10 — query time of the algorithms vs n on CORR/INDE/ANTI/NBA.
fn fig10(opts: &Options) -> Vec<(String, (String, ResultTable))> {
    let ns: Vec<usize> = if opts.full {
        PAPER_N_VALUES.to_vec()
    } else {
        DEFAULT_N_VALUES.to_vec()
    };
    let nba_ns: Vec<usize> = vec![500, 1000, 1500, 2000, 2384];
    let mut out = Vec::new();
    for family in DatasetFamily::all() {
        let mut t = ResultTable::new(&["n", "BASE", "TRAN", "INDEX"]);
        let sweep: &[usize] = if family == DatasetFamily::Nba {
            &nba_ns
        } else {
            &ns
        };
        for &n in sweep {
            let pts = family.generate(n, DEFAULT_D, SEED);
            let b = default_ratio_box(DEFAULT_D);
            let mut row = vec![n.to_string()];
            for c in Competitor::all() {
                // ANTI skylines explode; keep the quadratic baseline affordable
                // by skipping the largest anti-correlated settings outside
                // --full runs.
                if !opts.full
                    && c == Competitor::Base
                    && family == DatasetFamily::Anti
                    && n > (1 << 12)
                {
                    row.push("-".to_string());
                    continue;
                }
                let m = run_competitor_repeated(c, &pts, &b, 3);
                row.push(format_secs(m.query_secs));
            }
            t.push_row(row);
        }
        out.push((
            format!("fig10_{}", family.label().to_lowercase()),
            (
                format!(
                    "Fig. 10 — query time vs n, {} (d = 3, r ∈ [0.36, 2.75])",
                    family.label()
                ),
                t,
            ),
        ));
    }
    out
}

/// Figure 11 — query time vs d.
fn fig11() -> Vec<(String, (String, ResultTable))> {
    let mut out = Vec::new();
    for family in DatasetFamily::all() {
        let n = if family == DatasetFamily::Nba {
            DEFAULT_NBA_N
        } else {
            DEFAULT_N
        };
        let mut t = ResultTable::new(&["d", "BASE", "TRAN", "INDEX"]);
        for d in PAPER_D_VALUES {
            let pts = family.generate(n, d, SEED);
            let b = default_ratio_box(d);
            let mut row = vec![d.to_string()];
            for c in Competitor::all() {
                let m = run_competitor_repeated(c, &pts, &b, 3);
                row.push(format_secs(m.query_secs));
            }
            t.push_row(row);
        }
        out.push((
            format!("fig11_{}", family.label().to_lowercase()),
            (
                format!(
                    "Fig. 11 — query time vs d, {} (n = {n}, r ∈ [0.36, 2.75])",
                    family.label()
                ),
                t,
            ),
        ));
    }
    out
}

/// Figure 12 — query time of the index-based algorithms vs ratio range.
fn fig12() -> Vec<(String, (String, ResultTable))> {
    let mut out = Vec::new();
    for family in DatasetFamily::all() {
        let n = if family == DatasetFamily::Nba {
            DEFAULT_NBA_N
        } else {
            DEFAULT_N
        };
        let pts = family.generate(n, DEFAULT_D, SEED);
        let mut t = ResultTable::new(&["r", "INDEX"]);
        for (lo, hi) in PAPER_RATIO_RANGES {
            let b = ratio_box(DEFAULT_D, lo, hi);
            let mut row = vec![format!("[{lo},{hi}]")];
            for c in Competitor::index_based() {
                let m = run_competitor_repeated(c, &pts, &b, 5);
                row.push(format_secs(m.query_secs));
            }
            t.push_row(row);
        }
        out.push((
            format!("fig12_{}", family.label().to_lowercase()),
            (
                format!(
                    "Fig. 12 — query time vs r, {} (n = {n}, d = 3)",
                    family.label()
                ),
                t,
            ),
        ));
    }
    out
}

/// Figure 13 — worst-case query time vs number of points, d = 3.
fn fig13(opts: &Options) -> (String, ResultTable) {
    let ns: Vec<usize> = if opts.full {
        vec![1 << 7, 1 << 8, 1 << 9, 1 << 10]
    } else {
        vec![1 << 7, 1 << 8, 1 << 9]
    };
    let mut t = ResultTable::new(&["n", "INDEX"]);
    for n in ns {
        let pts = worst_case_dataset(n, 3, SEED);
        let b = default_ratio_box(3);
        let mut row = vec![n.to_string()];
        for c in Competitor::index_based() {
            let m = run_competitor_repeated(c, &pts, &b, 3);
            row.push(format_secs(m.query_secs));
        }
        t.push_row(row);
    }
    (
        "Fig. 13 — worst case, query time vs n (clustered data, d = 3)".to_string(),
        t,
    )
}

/// Figure 14 — worst-case query time vs dimensionality, n = 2^7.
fn fig14() -> (String, ResultTable) {
    let mut t = ResultTable::new(&["d", "INDEX"]);
    for d in [3usize, 4, 5] {
        let pts = worst_case_dataset(1 << 7, d, SEED);
        let b = default_ratio_box(d);
        let mut row = vec![d.to_string()];
        for c in Competitor::index_based() {
            let m = run_competitor_repeated(c, &pts, &b, 3);
            row.push(format_secs(m.query_secs));
        }
        t.push_row(row);
    }
    (
        "Fig. 14 — worst case, query time vs d (clustered data, n = 2^7)".to_string(),
        t,
    )
}

/// Thread sweep over the parallel execution substrate: serial vs parallel
/// BNL/SFS/DC skyline executors plus end-to-end TRAN, on a 4-dimensional
/// INDE workload (not a figure of the paper — it backs the eclipse-exec
/// crate and the ROADMAP's heavy-traffic north star).
fn threads_sweep(opts: &Options) -> (String, ResultTable) {
    let n = if opts.full { 1 << 17 } else { 1 << 13 };
    let d = 4;
    let pts = DatasetFamily::Inde.generate(n, d, SEED);
    let b = default_ratio_box(d);
    let mut t = ResultTable::new(&["threads", "BNL", "SFS", "DC", "TRAN"]);
    for threads in [1usize, 2, 4, 8] {
        let mut row = vec![threads.to_string()];
        for exec in skyline_executors(threads) {
            let m = run_skyline_executor(exec.as_ref(), &pts, 3);
            row.push(format_secs(m.query_secs));
        }
        let m = run_tran_at_threads(&pts, &b, threads, 3);
        row.push(format_secs(m.query_secs));
        t.push_row(row);
    }
    (
        format!("Thread sweep — skyline executors and TRAN (INDE, n = {n}, d = {d})"),
        t,
    )
}

/// Frozen single-probe latencies of the pre-arena (boxed-node, per-query
/// allocating) intersection indexes, measured at the PR-3 cut (commit
/// ed11cde) on the development container with the exact workloads below (200
/// tree probes / 100 ratio probes, same seeds, minimum over 8 passes).
/// BENCH_pr3.json records the speedup of the current hot path over this
/// baseline so the perf trajectory stays visible across PRs.
const PRE_ARENA_TREE_PROBE_SECS: [(&str, &str, usize, f64); 12] = [
    ("uniform", "QUAD", 10_000, 1.266_31e-4),
    ("uniform", "QUAD", 100_000, 1.436_506e-3),
    ("uniform", "CUTTING", 10_000, 1.810_75e-4),
    ("uniform", "CUTTING", 100_000, 1.663_942e-3),
    ("clustered", "QUAD", 10_000, 1.290_81e-4),
    ("clustered", "QUAD", 100_000, 1.356_305e-3),
    ("clustered", "CUTTING", 10_000, 1.862_82e-4),
    ("clustered", "CUTTING", 100_000, 1.970_606e-3),
    ("anti", "QUAD", 10_000, 1.015_47e-4),
    ("anti", "QUAD", 100_000, 1.181_820e-3),
    ("anti", "CUTTING", 10_000, 1.373_31e-4),
    ("anti", "CUTTING", 100_000, 1.410_911e-3),
];

fn kind_label(kind: IntersectionIndexKind) -> &'static str {
    match kind {
        IntersectionIndexKind::Quadtree => "QUAD",
        IntersectionIndexKind::CuttingTree => "CUTTING",
    }
}

/// Intersection-index probe sweep: tree-level single probes (the paper's
/// structures, against the frozen pre-arena baseline) and end-to-end single
/// vs batched `EclipseIndex` probes.  Writes the machine-readable
/// BENCH_pr3.json next to the CSVs (or into the current directory without
/// `--out`).
fn probes_sweep(opts: &Options) -> Vec<(String, (String, ResultTable))> {
    let sizes: &[usize] = if opts.quick {
        &[10_000]
    } else {
        &[10_000, 100_000]
    };
    let reps = if opts.quick { 2 } else { 8 };
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);

    // Tree level: the same probe set the pre-arena baseline was measured on.
    let tree_probes = probe_boxes(200, 2, 0.05, SEED + 1);
    let mut tree_table = ResultTable::new(&[
        "family",
        "n",
        "tree",
        "build_s",
        "probe_s",
        "pre_probe_s",
        "speedup",
        "hits",
        "nodes",
        "depth",
    ]);
    json.push_str("  \"tree_probes\": [\n");
    let mut first = true;
    for family in HyperplaneFamily::all() {
        for &n in sizes {
            let planes = hyperplane_workload(family, n, 2, SEED);
            for kind in [
                IntersectionIndexKind::Quadtree,
                IntersectionIndexKind::CuttingTree,
            ] {
                let m = run_tree_probes(kind, &planes, probe_root_cell(2), &tree_probes, reps);
                let pre = PRE_ARENA_TREE_PROBE_SECS
                    .iter()
                    .find(|(f, t, pn, _)| {
                        *f == family.label() && *t == kind_label(kind) && *pn == n
                    })
                    .map(|(_, _, _, secs)| *secs);
                let speedup = pre.map(|p| p / m.probe_secs);
                tree_table.push_row(vec![
                    family.label().to_string(),
                    n.to_string(),
                    kind_label(kind).to_string(),
                    format_secs(m.build_secs),
                    format_secs(m.probe_secs),
                    pre.map_or("-".to_string(), format_secs),
                    speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
                    format!("{:.1}", m.mean_hits),
                    m.nodes.to_string(),
                    m.depth.to_string(),
                ]);
                if !first {
                    json.push_str(",\n");
                }
                first = false;
                json.push_str(&format!(
                    "    {{\"family\": \"{}\", \"n\": {}, \"tree\": \"{}\", \
                     \"build_secs\": {:.6}, \"probe_secs\": {:.9}, \
                     \"pre_arena_probe_secs\": {}, \"speedup\": {}, \"mean_hits\": {:.1}, \
                     \"nodes\": {}, \"depth\": {}}}",
                    family.label(),
                    n,
                    kind_label(kind),
                    m.build_secs,
                    m.probe_secs,
                    pre.map_or("null".to_string(), |p| format!("{p:.9}")),
                    speedup.map_or("null".to_string(), |s| format!("{s:.3}")),
                    m.mean_hits,
                    m.nodes,
                    m.depth,
                ));
            }
        }
    }
    json.push_str("\n  ],\n");

    // End-to-end index probes on INDE (bounded skyline): single vs batched.
    let index_ns: &[usize] = if opts.quick {
        &[1 << 13]
    } else {
        &[1 << 13, 1 << 17]
    };
    let ratio_probes = probe_ratio_boxes(100, 3, SEED + 2);
    let mut index_table = ResultTable::new(&[
        "n", "u", "pairs", "build_s", "probe_s", "batch1_s", "batch4_s",
    ]);
    json.push_str("  \"index_probes\": [\n");
    first = true;
    for &n in index_ns {
        let pts = DatasetFamily::Inde.generate(n, 3, SEED);
        let build_start = std::time::Instant::now();
        let index = EclipseIndex::build(&pts, IndexConfig::default()).expect("valid workload");
        let build_secs = build_start.elapsed().as_secs_f64();
        let single = run_index_probes(&index, &ratio_probes, reps);
        let batch1 = run_index_probes_batched(
            &index,
            &ratio_probes,
            &ExecutionContext::with_threads(1),
            reps,
        );
        let batch4 = run_index_probes_batched(
            &index,
            &ratio_probes,
            &ExecutionContext::with_threads(4),
            reps,
        );
        index_table.push_row(vec![
            n.to_string(),
            index.skyline_len().to_string(),
            index.num_intersections().to_string(),
            format_secs(build_secs),
            format_secs(single.query_secs),
            format_secs(batch1.query_secs),
            format_secs(batch4.query_secs),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"dataset\": \"INDE\", \"n\": {}, \"u\": {}, \"pairs\": {}, \
             \"build_secs\": {:.6}, \"probe_secs\": {:.9}, \
             \"batch_probe_secs_t1\": {:.9}, \"batch_probe_secs_t4\": {:.9}}}",
            n,
            index.skyline_len(),
            index.num_intersections(),
            build_secs,
            single.query_secs,
            batch1.query_secs,
            batch4.query_secs,
        ));
    }
    json.push_str("\n  ]\n}\n");

    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_pr3.json");
    std::fs::write(&path, json).expect("write BENCH_pr3.json");
    println!("[probe sweep written to {}]", path.display());

    vec![
        (
            "probes_tree".to_string(),
            (
                "Intersection-index tree probes (200 boxes, side 5%, vs pre-arena baseline)"
                    .to_string(),
                tree_table,
            ),
        ),
        (
            "probes_index".to_string(),
            (
                "EclipseIndex probes — single vs batched (INDE, d = 3, 100 boxes)".to_string(),
                index_table,
            ),
        ),
    ]
}

/// Serving-layer throughput sweep: an in-process `eclipse-serve` server on
/// an ephemeral port, one INDE dataset warmed at registration, one blocking
/// client splitting a fixed probe set into batches of varying size.  Rows
/// report requests/s and probes/s for `QueryBatch` and probes/s for
/// `CountBatch` (minimum-latency pass over the repetitions, i.e. maximum
/// throughput).  Writes BENCH_serve.json next to the CSVs.
fn serve_sweep(opts: &Options) -> (String, ResultTable) {
    let n = if opts.quick { 1 << 12 } else { 1 << 14 };
    let num_probes = if opts.quick { 128usize } else { 512 };
    let reps = if opts.quick { 2 } else { 5 };
    let pts = DatasetFamily::Inde.generate(n, 3, SEED);
    let boxes = probe_ratio_boxes(num_probes, 3, SEED + 3);
    let mut t = ResultTable::new(&[
        "threads",
        "batch",
        "query_req_s",
        "query_probe_s",
        "count_probe_s",
    ]);
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str(&format!(
        "  \"dataset\": {{\"family\": \"INDE\", \"n\": {n}, \"d\": 3, \"probes\": {num_probes}}},\n"
    ));
    json.push_str("  \"serve\": [\n");
    let mut first = true;
    for threads in [1usize, 4] {
        let server = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(threads))
            .expect("bind ephemeral port");
        server
            .register_dataset("inde", pts.clone(), IndexKind::Quadtree)
            .expect("valid workload");
        let handle = server.spawn().expect("spawn server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        for batch in [1usize, 16, 128] {
            let requests = num_probes.div_ceil(batch);
            let mut best_query = f64::INFINITY;
            let mut best_count = f64::INFINITY;
            for _ in 0..reps {
                let start = std::time::Instant::now();
                for chunk in boxes.chunks(batch) {
                    let results = client.query_batch("inde", chunk).expect("query batch");
                    assert_eq!(results.len(), chunk.len());
                }
                best_query = best_query.min(start.elapsed().as_secs_f64());
                let start = std::time::Instant::now();
                for chunk in boxes.chunks(batch) {
                    let counts = client.count_batch("inde", chunk).expect("count batch");
                    assert_eq!(counts.len(), chunk.len());
                }
                best_count = best_count.min(start.elapsed().as_secs_f64());
            }
            let query_req_s = requests as f64 / best_query;
            let query_probe_s = num_probes as f64 / best_query;
            let count_probe_s = num_probes as f64 / best_count;
            t.push_row(vec![
                threads.to_string(),
                batch.to_string(),
                format!("{query_req_s:.0}"),
                format!("{query_probe_s:.0}"),
                format!("{count_probe_s:.0}"),
            ]);
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"threads\": {threads}, \"batch\": {batch}, \"requests\": {requests}, \
                 \"query_requests_per_s\": {query_req_s:.1}, \
                 \"query_probes_per_s\": {query_probe_s:.1}, \
                 \"count_probes_per_s\": {count_probe_s:.1}}}"
            ));
        }
        handle.shutdown();
    }
    json.push_str("\n  ]\n}\n");
    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("[serve sweep written to {}]", path.display());
    (
        format!("Serving throughput — eclipse-serve over TCP (INDE, n = {n}, d = 3, {num_probes} probes)"),
        t,
    )
}

/// Pipeline-depth sweep over the protocol-v2 serving path: single-probe
/// requests (the per-request-overhead-dominated regime) through a
/// [`PipelinedClient`] at depth 1, 8 and 64, against the blocking depth-1
/// client as the baseline.  Every pipelined pass is asserted identical
/// to the blocking client's results, so the speedup column is for the
/// *same* answers.  Writes BENCH_serve_pipeline.json next to the CSVs.
fn serve_pipeline_sweep(opts: &Options) -> (String, ResultTable) {
    let n = if opts.quick { 1 << 12 } else { 1 << 14 };
    let num_probes = if opts.quick { 256usize } else { 1024 };
    let reps = if opts.quick { 2 } else { 5 };
    let pts = DatasetFamily::Inde.generate(n, 3, SEED);
    let boxes = probe_ratio_boxes(num_probes, 3, SEED + 5);
    let mut t = ResultTable::new(&[
        "threads",
        "depth",
        "query_req_s",
        "count_req_s",
        "speedup_vs_blocking",
    ]);
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str(&format!(
        "  \"dataset\": {{\"family\": \"INDE\", \"n\": {n}, \"d\": 3, \"probes\": {num_probes}}},\n"
    ));
    json.push_str("  \"serve_pipeline\": [\n");
    let mut first = true;
    for threads in [1usize, 4] {
        let server = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(threads))
            .expect("bind ephemeral port");
        server
            .register_dataset("inde", pts.clone(), IndexKind::Quadtree)
            .expect("valid workload");
        let handle = server.spawn().expect("spawn server");

        // Blocking baseline: one single-probe request per box, depth 1.
        let mut blocking = Client::connect(handle.addr()).expect("connect");
        let mut expected_rows = Vec::with_capacity(num_probes);
        let mut expected_counts = Vec::with_capacity(num_probes);
        for b in &boxes {
            expected_rows.extend(
                blocking
                    .query_batch("inde", std::slice::from_ref(b))
                    .expect("query"),
            );
            expected_counts.extend(
                blocking
                    .count_batch("inde", std::slice::from_ref(b))
                    .expect("count"),
            );
        }
        let mut blocking_query = f64::INFINITY;
        let mut blocking_count = f64::INFINITY;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            for b in &boxes {
                blocking
                    .query_batch("inde", std::slice::from_ref(b))
                    .expect("query");
            }
            blocking_query = blocking_query.min(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            for b in &boxes {
                blocking
                    .count_batch("inde", std::slice::from_ref(b))
                    .expect("count");
            }
            blocking_count = blocking_count.min(start.elapsed().as_secs_f64());
        }
        let base_query_req_s = num_probes as f64 / blocking_query;
        let base_count_req_s = num_probes as f64 / blocking_count;
        t.push_row(vec![
            threads.to_string(),
            "blocking".to_string(),
            format!("{base_query_req_s:.0}"),
            format!("{base_count_req_s:.0}"),
            "1.000".to_string(),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"mode\": \"blocking\", \"depth\": 1, \
             \"query_requests_per_s\": {base_query_req_s:.1}, \
             \"count_requests_per_s\": {base_count_req_s:.1}, \"speedup_query\": 1.0}}"
        ));

        for depth in [1u32, 8, 64] {
            let mut piped =
                PipelinedClient::connect(handle.addr(), depth).expect("handshake connect");
            // Correctness first: pipelined answers must equal blocking ones.
            assert_eq!(
                piped.query_many("inde", &boxes, 1).expect("query_many"),
                expected_rows,
                "pipelined depth {depth} diverged from blocking queries"
            );
            assert_eq!(
                piped.count_many("inde", &boxes, 1).expect("count_many"),
                expected_counts,
                "pipelined depth {depth} diverged from blocking counts"
            );
            let mut best_query = f64::INFINITY;
            let mut best_count = f64::INFINITY;
            for _ in 0..reps {
                let start = std::time::Instant::now();
                piped.query_many("inde", &boxes, 1).expect("query_many");
                best_query = best_query.min(start.elapsed().as_secs_f64());
                let start = std::time::Instant::now();
                piped.count_many("inde", &boxes, 1).expect("count_many");
                best_count = best_count.min(start.elapsed().as_secs_f64());
            }
            let query_req_s = num_probes as f64 / best_query;
            let count_req_s = num_probes as f64 / best_count;
            let speedup = query_req_s / base_query_req_s;
            t.push_row(vec![
                threads.to_string(),
                depth.to_string(),
                format!("{query_req_s:.0}"),
                format!("{count_req_s:.0}"),
                format!("{speedup:.3}"),
            ]);
            json.push_str(&format!(
                ",\n    {{\"threads\": {threads}, \"mode\": \"pipelined\", \"depth\": {depth}, \
                 \"query_requests_per_s\": {query_req_s:.1}, \
                 \"count_requests_per_s\": {count_req_s:.1}, \
                 \"speedup_query\": {speedup:.3}}}"
            ));
        }
        handle.shutdown();
    }
    json.push_str("\n  ]\n}\n");
    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_serve_pipeline.json");
    std::fs::write(&path, json).expect("write BENCH_serve_pipeline.json");
    println!("[serve pipeline sweep written to {}]", path.display());
    (
        format!(
            "Serving throughput vs pipeline depth — protocol v2, single-probe requests \
             (INDE, n = {n}, d = 3, {num_probes} probes)"
        ),
        t,
    )
}

/// Incremental mutation vs full rebuild: applies an interleaved
/// insert/delete schedule to a warm engine, timing each op, and compares
/// per-op latency against rebuilding the engine (skyline and index) from
/// the mutated dataset.  Representative maintenance ops (dominated
/// inserts, non-skyline deletes) and forced worst-case ops (skyline-entering
/// inserts, skyline-member deletes) are timed separately.  The worst-case
/// ops copy the new skyline's rows into the index.  Every pass asserts the
/// maintained engine is *exactly* the rebuilt one — identical probe answers
/// and byte-identical index snapshots — and that at
/// n = 100k the representative incremental path is at least 10x faster
/// than the rebuild it replaces.
fn mutate_sweep(opts: &Options) -> (String, ResultTable) {
    let ns: &[usize] = if opts.quick {
        &[1 << 13, 100_000]
    } else {
        &[1 << 13, 1 << 15, 100_000]
    };
    let ops = if opts.quick { 24 } else { 64 };
    let reps = if opts.quick { 2 } else { 3 };
    let boxes = probe_ratio_boxes(32, 3, SEED + 4);
    let opts_q = eclipse_core::exec::QueryOptions::default();
    let mut t = ResultTable::new(&[
        "n",
        "ops",
        "incr_op_s",
        "worst_op_s",
        "rebuild_s",
        "speedup",
        "sky_ins",
        "dom_ins",
        "sky_del",
        "plain_del",
        "identical",
    ]);
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str("  \"dataset\": {\"family\": \"INDE\", \"d\": 3},\n");
    json.push_str("  \"mutate\": [\n");
    let mut first = true;
    for &n in ns {
        let pts = DatasetFamily::Inde.generate(n, 3, SEED);
        let inserts = DatasetFamily::Inde.generate(ops, 3, SEED + 9);
        let kind = IntersectionIndexKind::default();
        let engine = eclipse_core::EclipseEngine::new(pts.clone()).expect("valid workload");
        engine.build_index(kind).expect("warm index");
        // Interleaved schedule: even slots insert a fresh INDE point,
        // odd slots delete a pseudo-random id (xorshift, deterministic).
        let mut mirror = pts.clone();
        let mut rng_state = SEED | 1;
        let mut incr_total = 0.0f64;
        let mut incr_count = 0usize;
        let mut worst_total = 0.0f64;
        let mut worst_count = 0usize;
        let mut outcomes = [0usize; 4];
        for (i, p) in inserts.iter().enumerate() {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            // Most ops take the cheap maintenance paths (dominated
            // insert, non-skyline delete); every 8th pair is forced
            // onto the skyline-touching ones — a near-origin insert that
            // enters the skyline, and a delete of a current skyline
            // member — timed into the separate `worst_op_s` column.
            let p = if i % 8 == 0 {
                eclipse_core::Point::new(p.coords().iter().map(|c| c * 0.05).collect())
            } else {
                p.clone()
            };
            let id = if i % 8 == 1 {
                let sky = engine.skyline();
                sky[(rng_state as usize) % sky.len()]
            } else {
                (rng_state as usize) % mirror.len()
            };
            let start = std::time::Instant::now();
            let summary = if i % 2 == 0 {
                engine.insert(p.clone()).expect("insert")
            } else {
                engine.delete(id).expect("delete")
            };
            let elapsed = start.elapsed().as_secs_f64();
            if i % 8 < 2 {
                worst_total += elapsed;
                worst_count += 1;
            } else {
                incr_total += elapsed;
                incr_count += 1;
            }
            use eclipse_core::MutationOutcome::*;
            match summary.outcome {
                InsertedSkyline => outcomes[0] += 1,
                InsertedDominated => outcomes[1] += 1,
                DeletedSkyline => outcomes[2] += 1,
                DeletedNonSkyline => outcomes[3] += 1,
            }
            if i % 2 == 0 {
                mirror.push(p.clone());
            } else {
                mirror.remove(id);
            }
        }
        let incr_op_secs = incr_total / incr_count as f64;
        let worst_op_secs = worst_total / worst_count as f64;
        assert_eq!(engine.epoch(), ops as u64, "every mutation bumps the epoch");
        assert_eq!(engine.len(), mirror.len());
        // Full rebuild over the mutated dataset: what the incremental
        // path replaces (skyline recompute included).
        let mut rebuild_secs = f64::INFINITY;
        let mut rebuilt = None;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            let fresh = eclipse_core::EclipseEngine::new(mirror.clone()).expect("valid workload");
            fresh.build_index(kind).expect("rebuild index");
            rebuild_secs = rebuild_secs.min(start.elapsed().as_secs_f64());
            rebuilt = Some(fresh);
        }
        let rebuilt = rebuilt.expect("at least one rebuild pass");
        // The acceptance gate, every pass: the maintained engine *is*
        // the rebuilt engine — same answers, same arena bytes.
        assert_eq!(
            engine.eclipse_query_batch(&boxes, &opts_q).expect("probes"),
            rebuilt
                .eclipse_query_batch(&boxes, &opts_q)
                .expect("rebuilt probes"),
            "mutated engine must be query-identical to a rebuild (n = {n})"
        );
        assert_eq!(
            engine
                .build_index(kind)
                .expect("maintained index")
                .encode_snapshot(),
            rebuilt
                .build_index(kind)
                .expect("rebuilt index")
                .encode_snapshot(),
            "maintained index must be byte-identical to a rebuild (n = {n})"
        );
        let speedup = rebuild_secs / incr_op_secs;
        if n == 100_000 {
            assert!(
                speedup >= 10.0,
                "incremental mutation must beat a full rebuild 10x at n = 100k \
                 ({incr_op_secs:.6}s/op vs {rebuild_secs:.6}s rebuild)"
            );
        }
        t.push_row(vec![
            n.to_string(),
            ops.to_string(),
            format_secs(incr_op_secs),
            format_secs(worst_op_secs),
            format_secs(rebuild_secs),
            format!("{speedup:.1}x"),
            outcomes[0].to_string(),
            outcomes[1].to_string(),
            outcomes[2].to_string(),
            outcomes[3].to_string(),
            "yes".to_string(),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"n\": {}, \"ops\": {}, \
             \"incr_op_secs\": {:.9}, \"worst_op_secs\": {:.9}, \
             \"rebuild_secs\": {:.6}, \"speedup_vs_rebuild\": {:.2}, \
             \"inserted_skyline\": {}, \"inserted_dominated\": {}, \
             \"deleted_skyline\": {}, \"deleted_non_skyline\": {}, \
             \"identical_to_rebuild\": true}}",
            n,
            ops,
            incr_op_secs,
            worst_op_secs,
            rebuild_secs,
            speedup,
            outcomes[0],
            outcomes[1],
            outcomes[2],
            outcomes[3],
        ));
    }
    json.push_str("\n  ]\n}\n");
    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_mutate.json");
    std::fs::write(&path, json).expect("write BENCH_mutate.json");
    println!("[mutate sweep written to {}]", path.display());
    (
        "Incremental insert/delete vs full rebuild (INDE, d = 3, identity asserted)".to_string(),
        t,
    )
}

/// Snapshot cold-start sweep: full index rebuild (the skyline pass of
/// `EclipseIndex::build`) vs snapshot restore
/// (`EclipseEngine::from_snapshot`, which additionally decodes and validates
/// the whole dataset) at growing n, with the container
/// verification (every section checksum) timed on its own.  The restored
/// engine is asserted query-identical to the rebuilt one on every pass.
/// Writes BENCH_snapshot.json next to the CSVs (or into the current
/// directory without `--out`).
fn snapshot_sweep(opts: &Options) -> (String, ResultTable) {
    let ns: &[usize] = if opts.quick {
        &[1 << 13, 100_000]
    } else {
        &[1 << 13, 1 << 15, 100_000]
    };
    let reps = if opts.quick { 3 } else { 5 };
    let boxes = probe_ratio_boxes(32, 3, SEED + 4);
    let mut t = ResultTable::new(&[
        "n",
        "u",
        "pairs",
        "rebuild_s",
        "save_s",
        "load_s",
        "bytes",
        "speedup",
    ]);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"dataset\": {\"family\": \"INDE\", \"d\": 3},\n");
    json.push_str("  \"snapshot\": [\n");
    let mut first = true;
    for &n in ns {
        let pts = DatasetFamily::Inde.generate(n, 3, SEED);
        let kind = IntersectionIndexKind::default();
        let cfg = IndexConfig::default();
        let mut rebuild_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            let idx = EclipseIndex::build(&pts, cfg).expect("valid workload");
            rebuild_secs = rebuild_secs.min(start.elapsed().as_secs_f64());
            std::hint::black_box(&idx);
        }
        let engine = eclipse_core::EclipseEngine::new(pts.clone()).expect("valid workload");
        let mut save_secs = f64::INFINITY;
        let mut bytes = Vec::new();
        for _ in 0..reps {
            let start = std::time::Instant::now();
            bytes = engine
                .save_snapshot("inde", kind)
                .expect("snapshot encodes");
            save_secs = save_secs.min(start.elapsed().as_secs_f64());
        }
        // Container verification alone: magic, section table and every
        // section checksum, the first thing each restore does.
        let mut verify_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            std::hint::black_box(
                eclipse_persist::SnapshotReader::parse(&bytes).expect("snapshot verifies"),
            );
            verify_secs = verify_secs.min(start.elapsed().as_secs_f64());
        }
        let mut load_secs = f64::INFINITY;
        let mut restored = None;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            let (_, cold) =
                eclipse_core::EclipseEngine::from_snapshot(&bytes).expect("snapshot decodes");
            load_secs = load_secs.min(start.elapsed().as_secs_f64());
            restored = Some(cold);
        }
        let restored = restored.expect("at least one load pass");
        // The acceptance gate: a restored index answers identically.
        let opts_q = eclipse_core::exec::QueryOptions::default();
        assert_eq!(
            restored
                .eclipse_query_batch(&boxes, &opts_q)
                .expect("restored probes"),
            engine.eclipse_query_batch(&boxes, &opts_q).expect("probes"),
            "restored index must be query-identical (n = {n})"
        );
        let index = engine.build_index(kind).expect("cached index");
        let speedup = rebuild_secs / load_secs;
        t.push_row(vec![
            n.to_string(),
            index.skyline_len().to_string(),
            index.num_intersections().to_string(),
            format_secs(rebuild_secs),
            format_secs(save_secs),
            format_secs(load_secs),
            bytes.len().to_string(),
            format!("{speedup:.1}x"),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"n\": {}, \"u\": {}, \"pairs\": {}, \
             \"rebuild_secs\": {:.6}, \"save_secs\": {:.6}, \"verify_secs\": {:.6}, \
             \"load_secs\": {:.6}, \"snapshot_bytes\": {}, \
             \"load_speedup_over_rebuild\": {:.2}}}",
            n,
            index.skyline_len(),
            index.num_intersections(),
            rebuild_secs,
            save_secs,
            verify_secs,
            load_secs,
            bytes.len(),
            speedup,
        ));
    }
    json.push_str("\n  ]\n}\n");
    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_snapshot.json");
    std::fs::write(&path, json).expect("write BENCH_snapshot.json");
    println!("[snapshot sweep written to {}]", path.display());
    (
        "Snapshot cold start — restore vs full index rebuild (INDE, d = 3)".to_string(),
        t,
    )
}

/// Frozen serial tree construction times at the PR-3 cut (same container,
/// same workloads, legacy midpoint/sampled-crossings split rules — the only
/// rules that existed then), from the committed BENCH_pr3.json.  The build
/// sweep reports the current construction time against these.
const PRE_PARALLEL_BUILD_SECS: [(&str, &str, usize, f64); 8] = [
    ("uniform", "QUAD", 10_000, 0.137_486),
    ("uniform", "QUAD", 100_000, 0.337_150),
    ("uniform", "CUTTING", 10_000, 0.172_157),
    ("uniform", "CUTTING", 100_000, 0.120_884),
    ("clustered", "QUAD", 10_000, 0.146_526),
    ("clustered", "QUAD", 100_000, 0.319_927),
    ("clustered", "CUTTING", 10_000, 0.152_482),
    ("clustered", "CUTTING", 100_000, 0.124_445),
];

/// Construction sweep for the arena intersection trees: serial vs
/// pool-parallel builds (asserted identical arena for arena)
/// and legacy vs adaptive split/cut rules, on the uniform and clustered
/// hyperplane workloads.  The workload for each (family, n) is generated
/// once and shared across every tree/thread/repetition pass.  Writes
/// BENCH_build.json next to the CSVs (or into the current directory without
/// `--out`).
fn build_sweep(opts: &Options) -> Vec<(String, (String, ResultTable))> {
    let sizes: &[usize] = if opts.quick {
        &[10_000]
    } else {
        &[10_000, 100_000]
    };
    let reps = if opts.quick { 2 } else { 5 };
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    #[derive(PartialEq)]
    enum Tree {
        Quad(HyperplaneQuadtree),
        Cutting(CuttingTree),
    }
    // Minimum wall-clock over `reps` full builds (slab + tree) on `pool`,
    // plus the last build for the identity check.
    let timed_build = |kind: IntersectionIndexKind,
                       planes: &[eclipse_geom::hyperplane::Hyperplane],
                       pool: &ThreadPool,
                       reps: usize|
     -> (f64, Tree) {
        let cell = probe_root_cell(2);
        let mut best = f64::INFINITY;
        let mut tree = None;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            let built = match kind {
                IntersectionIndexKind::Quadtree => {
                    Tree::Quad(HyperplaneQuadtree::build_from_slab_with(
                        HyperplaneSlab::from_hyperplanes(planes),
                        cell.clone(),
                        QuadtreeConfig::default(),
                        Some(pool),
                    ))
                }
                IntersectionIndexKind::CuttingTree => {
                    Tree::Cutting(CuttingTree::build_from_slab_with(
                        HyperplaneSlab::from_hyperplanes(planes),
                        cell.clone(),
                        CuttingTreeConfig::default(),
                        Some(pool),
                    ))
                }
            };
            best = best.min(start.elapsed().as_secs_f64());
            tree = Some(built);
        }
        (best, tree.expect("at least one build pass"))
    };

    let mut build_table = ResultTable::new(&[
        "family",
        "n",
        "tree",
        "build_t1_s",
        "build_t4_s",
        "t4_identical",
        "pr3_build_s",
        "speedup_vs_pr3",
    ]);
    let mut probe_table = ResultTable::new(&[
        "family",
        "n",
        "tree",
        "rule",
        "probe_s",
        "depth",
        "nodes",
        "speedup_vs_pre_arena",
    ]);
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"build\": [\n");
    let mut build_first = true;
    let mut probe_json = String::new();
    let mut probe_first = true;
    let tree_probes = probe_boxes(200, 2, 0.05, SEED + 1);
    let pool1 = ThreadPool::with_threads(1);
    let pool4 = ThreadPool::with_threads(4);

    for family in [HyperplaneFamily::Uniform, HyperplaneFamily::Clustered] {
        for &n in sizes {
            // Generated once, shared across both trees, both pools and every
            // repetition — the dataset is identical for all of them.
            let planes = hyperplane_workload(family, n, 2, SEED);
            for kind in [
                IntersectionIndexKind::Quadtree,
                IntersectionIndexKind::CuttingTree,
            ] {
                let (serial_secs, serial_tree) = timed_build(kind, &planes, &pool1, reps);
                let (par_secs, par_tree) = timed_build(kind, &planes, &pool4, reps);
                assert!(
                    serial_tree == par_tree,
                    "parallel build must equal the serial arena ({} n={n} {:?})",
                    family.label(),
                    kind
                );
                let pre = PRE_PARALLEL_BUILD_SECS
                    .iter()
                    .find(|(f, t, pn, _)| {
                        *f == family.label() && *t == kind_label(kind) && *pn == n
                    })
                    .map(|(_, _, _, secs)| *secs);
                let speedup = pre.map(|p| p / serial_secs.min(par_secs));
                build_table.push_row(vec![
                    family.label().to_string(),
                    n.to_string(),
                    kind_label(kind).to_string(),
                    format_secs(serial_secs),
                    format_secs(par_secs),
                    "yes".to_string(),
                    pre.map_or("-".to_string(), format_secs),
                    speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
                ]);
                if !build_first {
                    json.push_str(",\n");
                }
                build_first = false;
                json.push_str(&format!(
                    "    {{\"family\": \"{}\", \"n\": {}, \"tree\": \"{}\", \
                     \"build_secs_t1\": {:.6}, \"build_secs_t4\": {:.6}, \
                     \"parallel_identical\": true, \"pr3_build_secs\": {}, \
                     \"speedup_vs_pr3\": {}}}",
                    family.label(),
                    n,
                    kind_label(kind),
                    serial_secs,
                    par_secs,
                    pre.map_or("null".to_string(), |p| format!("{p:.6}")),
                    speedup.map_or("null".to_string(), |s| format!("{s:.3}")),
                ));

                // Probe latency with the adaptive defaults vs the legacy
                // fixed rules, against the frozen pre-arena baseline.
                let legacy = run_tree_probes_configured(
                    kind,
                    &planes,
                    probe_root_cell(2),
                    &tree_probes,
                    reps,
                    QuadtreeConfig {
                        split: SplitRule::Midpoint,
                        ..QuadtreeConfig::default()
                    },
                    CuttingTreeConfig {
                        cut: CutRule::SampledCrossings,
                        ..CuttingTreeConfig::default()
                    },
                );
                let adaptive =
                    run_tree_probes(kind, &planes, probe_root_cell(2), &tree_probes, reps);
                // Regression guard for the clustered-QUAD pathology: census
                // medians landing on the cluster point used to duplicate
                // entries into every child, exhaust `max_entries` early, and
                // leave the adaptive arena shallower (fewer nodes) and
                // measurably slower to probe than the legacy midpoint rule.
                // The per-build midpoint fallback makes that impossible —
                // an adaptive quadtree can never end up more budget-starved
                // than the legacy one — so the node count must hold up, and
                // probe latency must stay within generous timing noise of
                // legacy (the pre-fix regression was ~10%; container timing
                // jitter is of the same order, hence the structural check
                // carries the guarantee and the timing check only catches
                // gross regressions).
                if kind == IntersectionIndexKind::Quadtree {
                    assert!(
                        adaptive.nodes >= legacy.nodes,
                        "adaptive quadtree is budget-starved vs legacy on {} n={}: \
                         {} nodes < {} nodes",
                        family.label(),
                        n,
                        adaptive.nodes,
                        legacy.nodes,
                    );
                    assert!(
                        adaptive.probe_secs <= legacy.probe_secs * 1.5,
                        "adaptive quadtree probes grossly slower than legacy on {} n={}: \
                         {:.3e}s vs {:.3e}s",
                        family.label(),
                        n,
                        adaptive.probe_secs,
                        legacy.probe_secs,
                    );
                }
                let pre_probe = PRE_ARENA_TREE_PROBE_SECS
                    .iter()
                    .find(|(f, t, pn, _)| {
                        *f == family.label() && *t == kind_label(kind) && *pn == n
                    })
                    .map(|(_, _, _, secs)| *secs);
                for (rule, m) in [("legacy", &legacy), ("adaptive", &adaptive)] {
                    let probe_speedup = pre_probe.map(|p| p / m.probe_secs);
                    probe_table.push_row(vec![
                        family.label().to_string(),
                        n.to_string(),
                        kind_label(kind).to_string(),
                        rule.to_string(),
                        format_secs(m.probe_secs),
                        m.depth.to_string(),
                        m.nodes.to_string(),
                        probe_speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
                    ]);
                    if !probe_first {
                        probe_json.push_str(",\n");
                    }
                    probe_first = false;
                    probe_json.push_str(&format!(
                        "    {{\"family\": \"{}\", \"n\": {}, \"tree\": \"{}\", \
                         \"rule\": \"{rule}\", \"probe_secs\": {:.9}, \"depth\": {}, \
                         \"nodes\": {}, \"pre_arena_probe_secs\": {}, \"speedup\": {}}}",
                        family.label(),
                        n,
                        kind_label(kind),
                        m.probe_secs,
                        m.depth,
                        m.nodes,
                        pre_probe.map_or("null".to_string(), |p| format!("{p:.9}")),
                        probe_speedup.map_or("null".to_string(), |s| format!("{s:.3}")),
                    ));
                }
            }
        }
    }
    json.push_str("\n  ],\n  \"adaptive_probes\": [\n");
    json.push_str(&probe_json);
    json.push_str("\n  ]\n}\n");

    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_build.json");
    std::fs::write(&path, json).expect("write BENCH_build.json");
    println!("[build sweep written to {}]", path.display());

    vec![
        (
            "build_construction".to_string(),
            (
                "Arena construction — serial vs 4-thread pool (byte-identity asserted)".to_string(),
                build_table,
            ),
        ),
        (
            "build_probes".to_string(),
            (
                "Probe latency — legacy vs adaptive split rules (200 boxes, side 5%)".to_string(),
                probe_table,
            ),
        ),
    ]
}

/// Table I / Figure 4 — relationship between eclipse and the other operators,
/// plus index diagnostics, on the default INDE workload.
fn relations() -> (String, ResultTable) {
    let pts = DatasetFamily::Inde.generate(DEFAULT_N, DEFAULT_D, SEED);
    let b = default_ratio_box(DEFAULT_D);
    let report = RelationReport::compute(&pts, &b).expect("valid workload");
    let index = EclipseIndex::build(&pts, IndexConfig::default()).expect("valid workload");
    let mut t = ResultTable::new(&["quantity", "value"]);
    t.push_row(vec![
        "skyline points".into(),
        report.skyline.len().to_string(),
    ]);
    t.push_row(vec![
        "convex hull query points".into(),
        report.convex_hull.len().to_string(),
    ]);
    t.push_row(vec![
        "eclipse points".into(),
        report.eclipse.len().to_string(),
    ]);
    t.push_row(vec![
        "eclipse points outside convex hull".into(),
        report.eclipse_only().len().to_string(),
    ]);
    t.push_row(vec![
        "1NN winner inside eclipse".into(),
        report.nn_in_eclipse().to_string(),
    ]);
    t.push_row(vec![
        "eclipse subset of skyline".into(),
        report.eclipse_subset_of_skyline().to_string(),
    ]);
    t.push_row(vec![
        "indexed intersections".into(),
        index.num_intersections().to_string(),
    ]);
    t.push_row(vec![
        "index heap bytes".into(),
        index.heap_bytes().to_string(),
    ]);
    (
        format!("Relationships (INDE, n = {DEFAULT_N}, d = {DEFAULT_D}, {b})"),
        t,
    )
}

/// Sharded-serving sweep over the fault-tolerant router: a replicated
/// dataset probe-space-partitioned across 1, 2 and 4 `eclipse-serve`
/// backends (throughput rows), then a timed failover — one shard killed
/// mid-workload, a standby re-warmed from the shared snapshot directory
/// and promoted.  **Every** routed pass is asserted byte-identical to the
/// unsharded single-process reference, so the throughput and recovery
/// numbers are for provably unchanged answers.  Writes BENCH_shard.json
/// next to the CSVs.
fn shard_sweep(opts: &Options) -> (String, ResultTable) {
    use eclipse_router::fault::{FaultPlan, FaultProxy};
    use eclipse_router::router::{Router, RouterConfig};

    let n = if opts.quick { 1 << 12 } else { 1 << 14 };
    let num_probes = if opts.quick { 96usize } else { 384 };
    let reps = if opts.quick { 2 } else { 3 };
    let batch = 32usize;
    let pts = DatasetFamily::Inde.generate(n, 3, SEED);
    let boxes = probe_ratio_boxes(num_probes, 3, SEED + 9);

    // The unsharded reference: every routed pass must reproduce these
    // results byte for byte.
    let reference =
        Server::bind("127.0.0.1:0", ExecutionContext::with_threads(1)).expect("bind reference");
    reference
        .register_dataset("rep", pts.clone(), IndexKind::Quadtree)
        .expect("valid workload");
    let ref_handle = reference.spawn().expect("spawn reference");
    let mut ref_client = Client::connect(ref_handle.addr()).expect("connect reference");
    let mut expected: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut expected_counts: Vec<Vec<usize>> = Vec::new();
    for chunk in boxes.chunks(batch) {
        expected.push(
            ref_client
                .query_batch("rep", chunk)
                .expect("reference query"),
        );
        expected_counts.push(
            ref_client
                .count_batch("rep", chunk)
                .expect("reference count"),
        );
    }
    ref_handle.shutdown();

    let mut t = ResultTable::new(&["shards", "query_probe_s", "count_probe_s"]);
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str(&format!(
        "  \"dataset\": {{\"family\": \"INDE\", \"n\": {n}, \"d\": 3, \"probes\": {num_probes}, \
         \"batch\": {batch}}},\n"
    ));
    json.push_str("  \"shard\": [\n");
    let mut first = true;
    for shards in [1usize, 2, 4] {
        let backends: Vec<_> = (0..shards)
            .map(|_| {
                let server = Server::bind("127.0.0.1:0", ExecutionContext::with_threads(1))
                    .expect("bind shard");
                server
                    .register_dataset("rep", pts.clone(), IndexKind::Quadtree)
                    .expect("valid workload");
                server.spawn().expect("spawn shard")
            })
            .collect();
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig {
                backends: backends.iter().map(|b| b.addr().to_string()).collect(),
                replicated: vec!["rep".to_string()],
                ..RouterConfig::default()
            },
        )
        .expect("bind router")
        .spawn()
        .expect("spawn router");
        let mut client = Client::connect(router.addr()).expect("connect router");
        let mut best_query = f64::INFINITY;
        let mut best_count = f64::INFINITY;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            for (i, chunk) in boxes.chunks(batch).enumerate() {
                let results = client.query_batch("rep", chunk).expect("routed query");
                assert_eq!(
                    results, expected[i],
                    "routed results diverged at {shards} shards"
                );
            }
            best_query = best_query.min(start.elapsed().as_secs_f64());
            let start = std::time::Instant::now();
            for (i, chunk) in boxes.chunks(batch).enumerate() {
                let counts = client.count_batch("rep", chunk).expect("routed count");
                assert_eq!(
                    counts, expected_counts[i],
                    "routed counts diverged at {shards} shards"
                );
            }
            best_count = best_count.min(start.elapsed().as_secs_f64());
        }
        let query_probe_s = num_probes as f64 / best_query;
        let count_probe_s = num_probes as f64 / best_count;
        t.push_row(vec![
            shards.to_string(),
            format!("{query_probe_s:.0}"),
            format!("{count_probe_s:.0}"),
        ]);
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"query_probes_per_s\": {query_probe_s:.1}, \
             \"count_probes_per_s\": {count_probe_s:.1}}}"
        ));
        router.shutdown();
        for b in backends {
            b.shutdown();
        }
    }
    json.push_str("\n  ],\n");

    // Failover: two shards behind fault proxies, a hash-placed dataset on
    // slot 0, a standby sharing the snapshot directory.  Kill slot 0
    // mid-workload and measure the client-observed gap until results are
    // byte-identical again, plus the router-measured re-warm.
    let hashed: String = (0..)
        .map(|i| format!("ds{i}"))
        .find(|name| eclipse_persist::fnv1a(name.as_bytes()).is_multiple_of(2))
        .expect("some name hashes onto slot 0");
    let snap_dir = std::env::temp_dir().join(format!("eclipse_bench_shard_{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let spawn_member = |load: bool| {
        let server =
            Server::bind("127.0.0.1:0", ExecutionContext::with_threads(1)).expect("bind member");
        server.set_snapshot_dir(&snap_dir);
        if load {
            server
                .register_dataset(&hashed, pts.clone(), IndexKind::Quadtree)
                .expect("valid workload");
        }
        server.spawn().expect("spawn member")
    };
    let backend0 = spawn_member(true);
    let backend1 = spawn_member(false);
    let standby = spawn_member(false);
    let mut owner_client = Client::connect(backend0.addr()).expect("connect owner");
    assert!(
        owner_client
            .save_index(&hashed, IndexKind::Quadtree)
            .expect("snapshot")
            > 0
    );
    let expected_h = owner_client
        .query_batch(&hashed, &boxes[..batch])
        .expect("owner query");
    let proxy0 = FaultProxy::spawn(backend0.addr(), FaultPlan::default()).expect("spawn proxy");
    let proxy1 = FaultProxy::spawn(backend1.addr(), FaultPlan::default()).expect("spawn proxy");
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: vec![proxy0.addr().to_string(), proxy1.addr().to_string()],
            standbys: vec![standby.addr().to_string()],
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    let mut client = Client::connect(router.addr()).expect("connect router");
    assert!(client.allow_partial(true).expect("opt in"));
    assert_eq!(
        client
            .query_batch(&hashed, &boxes[..batch])
            .expect("routed query"),
        expected_h,
        "routed results diverged before the kill"
    );
    proxy0.set_offline(true);
    let killed_at = std::time::Instant::now();
    let mut degraded_replies = 0u64;
    let recovery_ms = loop {
        let rows = client
            .query_batch_degraded(&hashed, &boxes[..batch])
            .expect("degraded query");
        if rows.iter().all(Option::is_some) {
            let rows: Vec<Vec<usize>> = rows.into_iter().map(Option::unwrap).collect();
            assert_eq!(rows, expected_h, "post-failover results diverged");
            break killed_at.elapsed().as_millis() as u64;
        }
        degraded_replies += 1;
        assert!(
            killed_at.elapsed() < std::time::Duration::from_secs(60),
            "failover never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let events = router.failovers();
    assert_eq!(events.len(), 1, "expected exactly one failover: {events:?}");
    let event = &events[0];
    println!(
        "[failover: recovery {recovery_ms} ms client-observed, re-warm {} ms, \
         {} datasets restored, {degraded_replies} degraded replies]",
        event.rewarm_ms, event.datasets_restored
    );
    json.push_str(&format!(
        "  \"failover\": {{\"recovery_ms\": {recovery_ms}, \"rewarm_ms\": {}, \
         \"datasets_restored\": {}, \"snapshots_skipped\": {}, \"degraded_replies\": {degraded_replies}}}\n",
        event.rewarm_ms, event.datasets_restored, event.snapshots_skipped
    ));
    json.push_str("}\n");
    router.shutdown();
    proxy0.shutdown();
    proxy1.shutdown();
    backend0.shutdown();
    backend1.shutdown();
    standby.shutdown();
    let _ = std::fs::remove_dir_all(&snap_dir);

    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_shard.json");
    std::fs::write(&path, json).expect("write BENCH_shard.json");
    println!("[shard sweep written to {}]", path.display());
    (
        format!(
            "Sharded serving — eclipse-router over 1/2/4 shards + timed failover \
             (INDE, n = {n}, d = 3, {num_probes} probes)"
        ),
        t,
    )
}

/// Memory-governance sweep: a budgeted server whose working set is ~2x its
/// byte budget, cycled round-robin so the LRU tier keeps evicting cold
/// datasets to their snapshots and transparently restoring them on the next
/// touch.  **Every** pass is asserted byte-identical to an unbounded
/// reference server, the accounted total is asserted to stay within
/// budget + one dataset after every touch, and the final rows time a
/// snapshot reload against a cold from-points rebuild.  Writes
/// BENCH_memory.json next to the CSVs.
fn memory_sweep(opts: &Options) -> (String, ResultTable) {
    use eclipse_serve::server::ServerConfig;

    let n = if opts.quick { 1 << 11 } else { 1 << 13 };
    let num_datasets = 6usize;
    let num_probes = if opts.quick { 48usize } else { 192 };
    let passes = if opts.quick { 2 } else { 3 };
    let names: Vec<String> = (0..num_datasets).map(|i| format!("ds{i}")).collect();
    let datasets: Vec<Vec<eclipse_core::Point>> = (0..num_datasets)
        .map(|i| DatasetFamily::Inde.generate(n, 3, SEED + i as u64))
        .collect();
    let boxes = probe_ratio_boxes(num_probes, 3, SEED + 11);

    // The unbounded reference: answers are ground truth, and its stats give
    // the true working-set size the budget is derived from.
    let reference =
        Server::bind("127.0.0.1:0", ExecutionContext::with_threads(1)).expect("bind reference");
    for (name, pts) in names.iter().zip(&datasets) {
        reference
            .register_dataset(name, pts.clone(), IndexKind::Quadtree)
            .expect("valid workload");
    }
    let ref_handle = reference.spawn().expect("spawn reference");
    let mut ref_client = Client::connect(ref_handle.addr()).expect("connect reference");
    let ref_stats = ref_client.stats().expect("reference stats");
    let working_set: u64 = ref_stats.datasets.iter().map(|d| d.bytes).sum();
    let largest: u64 = ref_stats.datasets.iter().map(|d| d.bytes).max().unwrap();
    let budget = working_set / 2;
    let expected: Vec<Vec<Vec<usize>>> = names
        .iter()
        .map(|name| {
            ref_client
                .query_batch(name, &boxes)
                .expect("reference query")
        })
        .collect();

    // The budgeted server under test: same datasets, half the bytes.
    let snap_dir =
        std::env::temp_dir().join(format!("eclipse_bench_memory_{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let server = Server::bind_with_config(
        "127.0.0.1:0",
        ExecutionContext::with_threads(1),
        ServerConfig {
            max_memory_bytes: Some(budget),
            ..ServerConfig::default()
        },
    )
    .expect("bind budgeted server");
    server.set_snapshot_dir(&snap_dir);
    for (name, pts) in names.iter().zip(&datasets) {
        server
            .register_dataset(name, pts.clone(), IndexKind::Quadtree)
            .expect("valid workload");
    }
    let handle = server.spawn().expect("spawn budgeted server");
    let mut client = Client::connect(handle.addr()).expect("connect budgeted server");

    let mut t = ResultTable::new(&[
        "pass",
        "accounted_kib",
        "budget_kib",
        "evictions",
        "reloads",
        "identical",
    ]);
    let mut json = format!("{{\n  \"quick\": {},\n", opts.quick);
    json.push_str(&format!(
        "  \"dataset\": {{\"family\": \"INDE\", \"n\": {n}, \"d\": 3, \
         \"datasets\": {num_datasets}, \"probes\": {num_probes}}},\n"
    ));
    json.push_str(&format!(
        "  \"working_set_bytes\": {working_set}, \"budget_bytes\": {budget}, \
         \"largest_dataset_bytes\": {largest},\n"
    ));
    json.push_str("  \"passes\": [\n");
    for pass in 0..passes {
        for (i, name) in names.iter().enumerate() {
            let rows = client.query_batch(name, &boxes).expect("budgeted query");
            assert_eq!(
                rows, expected[i],
                "budgeted server diverged from reference on {name} (pass {pass})"
            );
            let stats = client.stats().expect("budgeted stats");
            assert!(
                stats.total_bytes <= budget + largest,
                "accounted {} exceeds budget {budget} + one dataset {largest} (pass {pass})",
                stats.total_bytes
            );
        }
        let stats = client.stats().expect("budgeted stats");
        t.push_row(vec![
            pass.to_string(),
            (stats.total_bytes / 1024).to_string(),
            (budget / 1024).to_string(),
            stats.evictions.to_string(),
            stats.reloads.to_string(),
            "yes".to_string(),
        ]);
        if pass > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"pass\": {pass}, \"accounted_bytes\": {}, \"evictions\": {}, \
             \"reloads\": {}, \"identical\": true}}",
            stats.total_bytes, stats.evictions, stats.reloads
        ));
    }
    json.push_str("\n  ],\n");
    let final_stats = client.stats().expect("final stats");
    assert!(
        final_stats.evictions > 0 && final_stats.reloads > 0,
        "cycling a 2x-budget working set must evict and reload \
         (evictions {}, reloads {})",
        final_stats.evictions,
        final_stats.reloads
    );

    // Reload latency: find an evicted dataset and time the first query that
    // touches it (snapshot decode, not a rebuild), against the cold
    // from-points build the snapshot skips.
    let evicted = final_stats
        .datasets
        .iter()
        .find(|d| !d.resident)
        .expect("a 2x-budget working set leaves someone evicted")
        .name
        .clone();
    let idx = names.iter().position(|name| *name == evicted).unwrap();
    let start = std::time::Instant::now();
    let rows = client.query_batch(&evicted, &boxes).expect("reload query");
    let reload_s = start.elapsed().as_secs_f64();
    assert_eq!(
        rows, expected[idx],
        "reloaded dataset diverged on {evicted}"
    );
    let start = std::time::Instant::now();
    let engine = eclipse_core::EclipseEngine::new(datasets[idx].clone())
        .expect("valid workload")
        .with_execution_context(ExecutionContext::serial());
    engine
        .build_index(IntersectionIndexKind::Quadtree)
        .expect("build index");
    let cold_s = start.elapsed().as_secs_f64();
    drop(engine);
    println!(
        "[memory: reload {:.1} ms vs cold build {:.1} ms ({:.1}x), \
         {} evictions, {} reloads]",
        reload_s * 1e3,
        cold_s * 1e3,
        cold_s / reload_s,
        final_stats.evictions,
        final_stats.reloads
    );
    json.push_str(&format!(
        "  \"reload\": {{\"dataset\": \"{evicted}\", \"reload_ms\": {:.3}, \
         \"cold_build_ms\": {:.3}}}\n",
        reload_s * 1e3,
        cold_s * 1e3
    ));
    json.push_str("}\n");

    handle.shutdown();
    ref_handle.shutdown();
    let _ = std::fs::remove_dir_all(&snap_dir);

    let dir = opts.out_dir.clone().unwrap_or_default();
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(&dir).expect("create output directory");
    }
    let path = dir.join("BENCH_memory.json");
    std::fs::write(&path, json).expect("write BENCH_memory.json");
    println!("[memory sweep written to {}]", path.display());
    (
        format!(
            "Memory governance — {num_datasets} datasets cycled under a half-working-set \
             budget (INDE, n = {n}, d = 3, {num_probes} probes)"
        ),
        t,
    )
}
