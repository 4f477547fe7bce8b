//! Experiment harness reproducing every table and figure of the paper's
//! evaluation section (§V), plus a thread sweep over the execution
//! substrate.
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
//! additionally writes each table as CSV into DIR.  An unknown experiment
//! name prints the usage to stderr and exits with status 2.
//!
//! The serving, persistence, mutation and sharding paths are measured by
//! the repository benchmark (`perfbench/`, declared in `BENCHMARK.json`),
//! not here.

use std::collections::BTreeSet;
use std::path::PathBuf;

use eclipse_bench::harness::{
    format_secs, run_competitor_repeated, run_skyline_executor, run_tran_at_threads,
    skyline_executors, Competitor,
};
use eclipse_bench::workloads::{
    default_ratio_box, ratio_box, worst_case_dataset, DatasetFamily, DEFAULT_D, DEFAULT_N,
    DEFAULT_NBA_N, DEFAULT_N_VALUES, PAPER_D_VALUES, PAPER_N_VALUES, PAPER_RATIO_RANGES,
};
use eclipse_core::algo::transform::{eclipse_transform, SkylineBackend};
use eclipse_core::index::{EclipseIndex, IndexConfig};
use eclipse_core::relations::RelationReport;
use eclipse_data::io::ResultTable;
use eclipse_data::survey::{run_survey, SurveyConfig, SurveySystem};
use eclipse_data::synthetic::{Distribution, SyntheticConfig};

const SEED: u64 = 20210614;

/// Every experiment `main` runs, in run order; `all` (or no name) runs them
/// all.
const EXPERIMENTS: [&str; 11] = [
    "table5",
    "table6",
    "table7",
    "table8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "relations",
    "threads",
];

struct Options {
    full: bool,
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
}

fn usage() -> String {
    format!(
        "usage: experiments [--full] [--out DIR] [all|{}]...",
        EXPERIMENTS.join("|")
    )
}

/// Prints `problem` and the usage to stderr and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("experiments: {problem}\n{}", usage());
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut full = false;
    let mut out_dir = None;
    let mut experiments = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => usage_error("`--out` needs a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            name if name == "all" || EXPERIMENTS.contains(&name) => {
                experiments.insert(arg);
            }
            other => usage_error(&format!("unknown experiment or option `{other}`")),
        }
    }
    Options {
        full,
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
