//! The repository benchmark.
//!
//! Two seeded closed-loop workloads drive the eclipse crates through their
//! public APIs: pipelined serving, and a write-heavy, memory-governed
//! server.  Every run checks its answers
//! against an in-process reference; `--trace 1` replays the workload with
//! spans recorded around each call into a layer and reports per-layer
//! metrics instead of the end-to-end ones.
//!
//! Datasets come from a fixed dataset seed, while `--seed` draws every
//! per-run input (probe boxes, operation order, inserted points, dataset
//! choice).  A dataset seed that followed `--seed` would move the skyline
//! size, and with it every timing, several-fold between runs (12 to 34
//! skyline points and 0.06 to 2.7 MB of quadtree arena across nine seeds at
//! n = 2^10), which would swamp any change to the code.
//!
//! An in-process workload (`probe_local`: 64-box query and count batches on
//! QUAD and CUTTING engines, no sockets) was dropped: its in-cache probe
//! loop runs about 40% slower for minutes at a time when other tenants load
//! the host, and across ten seeds its `query_p50_us` spread 0.31 to 0.35
//! and `write_p50_us` 0.46 to 0.48 (quartile distance over median), beyond
//! the 0.25 bound.  The traced runs still time the index layers in process
//! (see [`layers::profile`]).

pub mod affinity;
pub mod layers;
pub mod serve;
pub mod trace;
pub mod write_evict;

use std::fmt::Write as _;

use eclipse_bench::workloads::DatasetFamily;
use eclipse_core::weights::WeightRatioBox;
use eclipse_core::{ExecutionContext, Point};
use eclipse_serve::protocol::WireBox;

/// Seed of every dataset the workloads load; `--seed` never changes the
/// data, only the traffic.  It is the `experiments` binary's reference seed
/// (20210614) plus 5: the first offset whose INDE dataset has the median
/// skyline size of 24 consecutive seeds at n = 2^10 (27 points), so probe
/// costs are typical for that n.  The reference seed itself gives 11
/// skyline points, a probe too cheap to stand for the paper's default
/// dataset.
pub const DATASET_SEED: u64 = 20210619;

/// Dimensionality of every dataset.
pub const DIM: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-box requests to an in-process server at pipeline depth 8.
    ServePipelined,
    /// Half mutations, half queries against a memory-budgeted server.
    WriteEvict,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::ServePipelined, Workload::WriteEvict];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePipelined => "serve_pipelined",
            Workload::WriteEvict => "write_evict",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the per-run inputs.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Traced mode: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The outcome of one run: correctness, operation counts, metrics, and the
/// stamp describing what was measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked answer matched its reference.
    pub correct: bool,
    /// Operations issued in the measured phase.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, String)>,
    /// `(key, JSON value)` pairs describing the run.
    pub stamp: Vec<(String, String)>,
    /// `(key, JSON value)` diagnostics that are not metrics.
    pub diagnostics: Vec<(String, String)>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Appends a stamp entry whose value is already JSON.
    pub fn stamp(&mut self, key: &str, json: impl Into<String>) {
        self.stamp.push((key.to_string(), json.into()));
    }

    /// Appends a diagnostic whose value is already JSON.
    pub fn diagnostic(&mut self, key: &str, json: impl Into<String>) {
        self.diagnostics.push((key.to_string(), json.into()));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The stamp line printed before the result line.
    pub fn stamp_json(&self) -> String {
        format!(
            "{{\"stamp\": {}, \"diagnostics\": {}}}",
            json_object(&self.stamp),
            json_object(&self.diagnostics)
        )
    }
}

/// A JSON object from `(key, JSON value)` pairs.
pub fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives it; non-finite values (which no metric should produce)
/// become `null` so the line stays valid JSON.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the inputs here never need escaping beyond
/// quotes and backslashes).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Nearest-rank percentile `p` in `[0, 1]` of unsorted values (0 when
/// empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Pass/fail tally of the correctness gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and whether it passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of operations that passed (1 when nothing was attempted).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// An INDE dataset of `n` points from the fixed dataset seed plus `offset`.
pub fn dataset(n: usize, offset: u64) -> Vec<Point> {
    DatasetFamily::Inde.generate(n, DIM, DATASET_SEED + offset)
}

/// A point strictly dominated by `p` (larger in every coordinate), so its
/// insertion never changes the skyline or any eclipse answer.
pub fn dominated_by(p: &Point) -> Point {
    Point::new(p.coords().iter().map(|c| c * 1.01 + 1e-3).collect())
}

/// A point that dominates the skyline member `p` by a hair (smaller in its
/// first coordinate only): inserting it takes the skyline-entering path and
/// evicts `p`, and deleting it again restores the skyline.
pub fn dominating(p: &Point) -> Point {
    let mut coords = p.coords().to_vec();
    coords[0] -= 1e-6 * coords[0].abs().max(1e-3);
    Point::new(coords)
}

/// A weight-ratio box in wire form.
pub fn wire_box(b: &WeightRatioBox) -> WireBox {
    b.ranges().iter().map(|r| (r.lo(), r.hi())).collect()
}

/// Fills the stamp entries every workload shares: `nproc` is the number of
/// CPUs the process could use before it pinned itself to `cpu`.
pub fn stamp_common(report: &mut Report, cfg: &RunConfig, nproc: usize, cpu: usize) {
    report.stamp("workload", json_string(cfg.workload.name()));
    report.stamp("seed", cfg.seed.to_string());
    report.stamp("dataset_seed", DATASET_SEED.to_string());
    report.stamp("seconds", json_number(cfg.seconds));
    report.stamp("trace", cfg.trace.to_string());
    report.stamp("git_rev", json_string(&git_rev()));
    report.stamp("nproc", nproc.to_string());
    report.stamp("pinned_cpu", cpu.to_string());
}

/// The git revision of the working directory, or `"unknown"` when it is not
/// the root of a git checkout (git is kept from finding an enclosing
/// repository further up).
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload.
///
/// # Errors
/// Set-up failures (a socket that cannot bind, a snapshot directory that
/// cannot be created); wrong answers are reported, not returned as errors.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    // The global pool takes its size from the CPUs the process may use when
    // it is first touched: touch it before pinning, so the traced run's
    // sizing diagnostic sees the host's cores.
    let _ = ExecutionContext::default();
    let (cpu, nproc) = affinity::pin()?;
    let mut report = match cfg.workload {
        Workload::ServePipelined => serve::run(cfg)?,
        Workload::WriteEvict => write_evict::run(cfg)?,
    };
    stamp_common(&mut report, cfg, nproc, cpu);
    Ok(report)
}

/// Names and units of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("probes_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("resident_mb", "MB"),
    ("success_rate", "ratio"),
];

/// The end-to-end metrics every untraced run reports.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Probe boxes answered.
    pub probes: u64,
    /// Operations completed (reads and writes).
    pub ops: u64,
    /// Seconds the measured operations took.
    pub elapsed_s: f64,
    /// Read-call latencies, microseconds.
    pub query: Vec<f64>,
    /// Write-ack latencies, microseconds.
    pub write: Vec<f64>,
    /// Accounted resident bytes after set-up.
    pub resident_bytes: u64,
    /// Correctness tally.
    pub tally: Tally,
}

impl EndToEnd {
    /// Operations per second of measured time.
    fn ops_rate(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    /// Adds another round's counts, time and samples to this one.
    fn absorb(&mut self, other: EndToEnd) {
        self.probes += other.probes;
        self.ops += other.ops;
        self.elapsed_s += other.elapsed_s;
        self.query.extend(other.query);
        self.write.extend(other.write);
        self.tally.add(other.tally);
    }
}

/// A report over measurement rounds of equal length: counts, time and
/// latency samples of every round are pooled, and each rate and percentile
/// is taken over the pool.  No round is set aside, so a stall the code
/// causes in any round shows.  The rounds themselves give steadiness: each
/// starts on a fresh deployment, so one unlucky thread or memory placement
/// sets one round's speed, not the run's.  Every round's rate goes into the
/// stamp.
pub fn rounds_report(setup_s: f64, resident_bytes: u64, rounds: Vec<EndToEnd>) -> Report {
    let rates: Vec<String> = rounds.iter().map(|r| json_number(r.ops_rate())).collect();
    let n_rounds = rounds.len();
    let mut all = EndToEnd::default();
    for r in rounds {
        all.absorb(r);
    }
    let tally = all.tally;
    let mut report = Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    let values = [
        setup_s,
        all.probes as f64 / all.elapsed_s,
        all.ops_rate(),
        percentile(&all.query, 0.5),
        percentile(&all.query, 0.99),
        percentile(&all.write, 0.5),
        percentile(&all.write, 0.99),
        resident_bytes as f64 / 1e6,
        tally.success_rate(),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        report.metric(name, value, unit);
    }
    report.stamp(
        "samples",
        format!(
            "{{\"rounds\": {n_rounds}, \"query\": {}, \"write\": {}}}",
            all.query.len(),
            all.write.len()
        ),
    );
    report.stamp("round_ops_per_s", format!("[{}]", rates.join(", ")));
    report.stamp("error_rate", json_number(1.0 - tally.success_rate()));
    report
}
