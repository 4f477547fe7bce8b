//! The `eclipse-serve` binary: a framed-TCP eclipse query server.
//!
//! ```text
//! eclipse-serve [--addr HOST:PORT] [--threads N] [--snapshot-dir DIR]
//!               [--max-pipeline N] [--max-inflight N] [--idle-timeout-ms N]
//!               [--max-memory-mb N] [--preload NAME=FAMILY:N:D:SEED]...
//! ```
//!
//! * `--addr` — listen address, default `127.0.0.1:7878` (use port 0 for an
//!   ephemeral port; the bound address is printed on startup);
//! * `--threads` — size of the shared query pool (default: the
//!   `ECLIPSE_THREADS` environment variable, then the hardware);
//! * `--snapshot-dir` — enables the snapshot surface: `SaveIndex` persists
//!   dataset+index snapshots into DIR, and at startup every `*.eclsnap`
//!   file found there is warm-loaded (dataset registered, index restored)
//!   instead of rebuilt, so a process bounce skips construction cost;
//! * `--preload` — registers a synthetic dataset before serving, e.g.
//!   `--preload inde=inde:8192:3:42` (families: `corr`, `inde`, `anti`).
//!   Repeatable.  Remote clients can always register datasets with
//!   `LoadDataset`;
//! * `--max-pipeline` — per-connection in-flight cap (the largest pipeline
//!   depth a `Hello` can negotiate; default 128);
//! * `--max-inflight` — global in-flight cap across all connections
//!   (default 1024).  Requests over either cap are rejected with a typed
//!   `Overloaded` response instead of queueing unboundedly;
//! * `--idle-timeout-ms` — how long a freshly accepted connection may sit
//!   without sending a single complete frame before it is reaped (default
//!   30000; 0 disables reaping).  Connections that have spoken are never
//!   idle-reaped;
//! * `--max-memory-mb` — global memory budget for dataset engines (default:
//!   unbounded).  When accounted bytes exceed the budget the least-recently
//!   used datasets are snapshotted (requires `--snapshot-dir`) and evicted;
//!   the next request touching an evicted dataset restores it transparently.

use std::process::ExitCode;

use eclipse_core::exec::ExecutionContext;
use eclipse_data::synthetic::{Distribution, SyntheticConfig};
use eclipse_serve::protocol::IndexKind;
use eclipse_serve::server::{Server, ServerConfig};

struct Options {
    addr: String,
    threads: Option<usize>,
    snapshot_dir: Option<std::path::PathBuf>,
    max_pipeline: Option<u32>,
    max_in_flight: Option<u32>,
    idle_timeout_ms: Option<u64>,
    max_memory_mb: Option<u64>,
    preloads: Vec<(String, Distribution, usize, usize, u64)>,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let exec = match opts.threads {
        Some(threads) => ExecutionContext::with_threads(threads),
        None => ExecutionContext::default(),
    };
    let threads = exec.threads();
    let mut config = ServerConfig::default();
    if let Some(cap) = opts.max_pipeline {
        config.max_pipeline = cap;
    }
    if let Some(cap) = opts.max_in_flight {
        config.max_in_flight = cap;
    }
    if let Some(ms) = opts.idle_timeout_ms {
        config.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(mb) = opts.max_memory_mb {
        config.max_memory_bytes = Some(mb * 1024 * 1024);
    }
    let server = match Server::bind_with_config(&opts.addr, exec, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("eclipse-serve: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &opts.snapshot_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("eclipse-serve: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        server.set_snapshot_dir(dir);
        match server.load_snapshots() {
            Ok(scan) => {
                for (name, summary) in &scan.restored {
                    eprintln!(
                        "eclipse-serve: warm-loaded {name:?} from snapshot \
                         ({} points, d = {}, u = {}, {} intersections)",
                        summary.points, summary.dim, summary.skyline_len, summary.intersections
                    );
                }
                for (path, e) in &scan.skipped {
                    eprintln!("eclipse-serve: skipped snapshot {}: {e}", path.display());
                }
            }
            Err(e) => {
                eprintln!("eclipse-serve: snapshot warm-load failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (name, dist, n, d, seed) in &opts.preloads {
        let points = SyntheticConfig::new(*n, *d, *dist, *seed).generate();
        match server.register_dataset(name, points, IndexKind::default()) {
            Ok(summary) => eprintln!(
                "eclipse-serve: preloaded {name:?} ({} points, d = {}, u = {}, {} intersections)",
                summary.points, summary.dim, summary.skyline_len, summary.intersections
            ),
            Err(e) => {
                eprintln!("eclipse-serve: preload {name:?} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match server.local_addr() {
        Ok(addr) => eprintln!("eclipse-serve: listening on {addr} ({threads} query threads)"),
        Err(e) => eprintln!("eclipse-serve: listening (address unavailable: {e})"),
    }
    if let Err(e) = server.run() {
        eprintln!("eclipse-serve: cannot serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7878".to_string(),
        threads: None,
        snapshot_dir: None,
        max_pipeline: None,
        max_in_flight: None,
        idle_timeout_ms: None,
        max_memory_mb: None,
        preloads: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                opts.addr = args.next().ok_or("--addr needs a HOST:PORT value")?;
            }
            "--threads" => {
                let raw = args.next().ok_or("--threads needs a positive integer")?;
                let threads: usize = raw
                    .parse()
                    .map_err(|_| format!("--threads: {raw:?} is not an integer"))?;
                if threads == 0 {
                    return Err("--threads must be positive".to_string());
                }
                opts.threads = Some(threads);
            }
            "--snapshot-dir" => {
                let dir = args.next().ok_or("--snapshot-dir needs a directory")?;
                opts.snapshot_dir = Some(std::path::PathBuf::from(dir));
            }
            "--max-pipeline" => {
                let raw = args
                    .next()
                    .ok_or("--max-pipeline needs a positive integer")?;
                let cap: u32 = raw
                    .parse()
                    .map_err(|_| format!("--max-pipeline: {raw:?} is not an integer"))?;
                if cap == 0 {
                    return Err("--max-pipeline must be positive".to_string());
                }
                opts.max_pipeline = Some(cap);
            }
            "--max-inflight" => {
                let raw = args
                    .next()
                    .ok_or("--max-inflight needs a positive integer")?;
                let cap: u32 = raw
                    .parse()
                    .map_err(|_| format!("--max-inflight: {raw:?} is not an integer"))?;
                if cap == 0 {
                    return Err("--max-inflight must be positive".to_string());
                }
                opts.max_in_flight = Some(cap);
            }
            "--idle-timeout-ms" => {
                let raw = args
                    .next()
                    .ok_or("--idle-timeout-ms needs a millisecond count")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("--idle-timeout-ms: {raw:?} is not an integer"))?;
                opts.idle_timeout_ms = Some(ms);
            }
            "--max-memory-mb" => {
                let raw = args
                    .next()
                    .ok_or("--max-memory-mb needs a positive integer")?;
                let mb: u64 = raw
                    .parse()
                    .map_err(|_| format!("--max-memory-mb: {raw:?} is not an integer"))?;
                if mb == 0 {
                    return Err("--max-memory-mb must be positive".to_string());
                }
                opts.max_memory_mb = Some(mb);
            }
            "--preload" => {
                let spec = args.next().ok_or("--preload needs NAME=FAMILY:N:D:SEED")?;
                opts.preloads.push(parse_preload(&spec)?);
            }
            "--help" | "-h" => {
                return Err("usage: eclipse-serve [--addr HOST:PORT] [--threads N] \
                     [--snapshot-dir DIR] [--max-pipeline N] [--max-inflight N] \
                     [--idle-timeout-ms N] [--max-memory-mb N] \
                     [--preload NAME=FAMILY:N:D:SEED]..."
                    .to_string());
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

fn parse_preload(spec: &str) -> Result<(String, Distribution, usize, usize, u64), String> {
    let bad = || format!("--preload: {spec:?} is not NAME=FAMILY:N:D:SEED");
    let (name, rest) = spec.split_once('=').ok_or_else(bad)?;
    let parts: Vec<&str> = rest.split(':').collect();
    let [family, n, d, seed] = parts[..] else {
        return Err(bad());
    };
    let dist = match family {
        "corr" => Distribution::Correlated,
        "inde" => Distribution::Independent,
        "anti" => Distribution::AntiCorrelated,
        _ => return Err(format!("--preload: unknown family {family:?}")),
    };
    Ok((
        name.to_string(),
        dist,
        n.parse().map_err(|_| bad())?,
        d.parse().map_err(|_| bad())?,
        seed.parse().map_err(|_| bad())?,
    ))
}
