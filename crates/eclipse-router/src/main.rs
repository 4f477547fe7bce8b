//! The `eclipse-router` binary: a fault-tolerant shard router fronting N
//! `eclipse-serve` backends behind the ordinary client wire protocol.
//!
//! ```text
//! eclipse-router --backend HOST:PORT [--backend HOST:PORT]...
//!                [--addr HOST:PORT] [--standby HOST:PORT]...
//!                [--replicated NAME]... [--pipe-size N]
//!                [--connect-timeout-ms N] [--io-timeout-ms N]
//!                [--check-interval-ms N] [--check-timeout-ms N]
//!                [--fail-threshold N] [--probation-successes N]
//!                [--max-attempts N]
//! ```
//!
//! * `--backend` — one shard slot per flag, in placement order (repeatable,
//!   at least one required).  Slot order is the hash placement domain:
//!   keep it stable across restarts;
//! * `--addr` — client-facing listen address, default `127.0.0.1:7979`
//!   (port 0 for ephemeral; the bound address is printed on startup);
//! * `--standby` — a warm spare sharing the snapshot directory; promoted
//!   (with a snapshot re-warm) into the slot of whichever member dies
//!   first.  Repeatable;
//! * `--replicated` — a dataset name served by *every* member with
//!   probe-space partitioning instead of single-owner hash placement.
//!   Repeatable;
//! * the remaining flags override [`RouterConfig`] / [`HealthPolicy`] /
//!   [`RetryPolicy`] defaults one knob at a time.

use std::process::ExitCode;
use std::time::Duration;

use eclipse_router::router::{Router, RouterConfig};

struct Options {
    addr: String,
    config: RouterConfig,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let backends = opts.config.backends.len();
    let standbys = opts.config.standbys.len();
    let router = match Router::bind(&opts.addr, opts.config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("eclipse-router: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    match router.local_addr() {
        Ok(addr) => eprintln!(
            "eclipse-router: listening on {addr} ({backends} backends, {standbys} standbys)"
        ),
        Err(e) => eprintln!("eclipse-router: listening (address unavailable: {e})"),
    }
    let handle = match router.spawn() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("eclipse-router: cannot start serving loops: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The event loop and the health loop run on background threads; the
    // main thread just keeps the process alive (and reports failovers and
    // standbys dropped as non-viable).
    let mut reported = 0usize;
    let mut standby_pool = handle.standbys();
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let failovers = handle.failovers();
        for event in &failovers[reported..] {
            eprintln!(
                "eclipse-router: slot {} failed over {} -> {} \
                 (re-warm {} ms, {} datasets restored, {} snapshots skipped)",
                event.slot,
                event.from_addr,
                event.to_addr,
                event.rewarm_ms,
                event.datasets_restored,
                event.snapshots_skipped
            );
        }
        let promoted: Vec<&str> = failovers[reported..]
            .iter()
            .map(|e| e.to_addr.as_str())
            .collect();
        reported = failovers.len();
        let remaining = handle.standbys();
        for gone in standby_pool
            .iter()
            .filter(|a| !remaining.contains(a) && !promoted.contains(&a.as_str()))
        {
            eprintln!(
                "eclipse-router: standby {gone} dropped as non-viable \
                 (unreachable, or its snapshot re-warm failed)"
            );
        }
        standby_pool = remaining;
    }
}

fn parse_args() -> Result<Options, String> {
    let mut addr = "127.0.0.1:7979".to_string();
    let mut config = RouterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                addr = args.next().ok_or("--addr needs a HOST:PORT value")?;
            }
            "--backend" => {
                config
                    .backends
                    .push(args.next().ok_or("--backend needs a HOST:PORT value")?);
            }
            "--standby" => {
                config
                    .standbys
                    .push(args.next().ok_or("--standby needs a HOST:PORT value")?);
            }
            "--replicated" => {
                config
                    .replicated
                    .push(args.next().ok_or("--replicated needs a dataset name")?);
            }
            "--pipe-size" => {
                config.pipe_size = positive_u32(&arg, args.next())?;
            }
            "--connect-timeout-ms" => {
                config.connect_timeout = Duration::from_millis(positive_u64(&arg, args.next())?);
            }
            "--io-timeout-ms" => {
                config.io_timeout = Duration::from_millis(positive_u64(&arg, args.next())?);
            }
            "--rewarm-timeout-ms" => {
                config.rewarm_timeout = Duration::from_millis(positive_u64(&arg, args.next())?);
            }
            "--check-interval-ms" => {
                config.health.check_interval =
                    Duration::from_millis(positive_u64(&arg, args.next())?);
            }
            "--check-timeout-ms" => {
                config.health.check_timeout =
                    Duration::from_millis(positive_u64(&arg, args.next())?);
            }
            "--fail-threshold" => {
                config.health.fail_threshold = positive_u32(&arg, args.next())?;
            }
            "--probation-successes" => {
                config.health.probation_successes = positive_u32(&arg, args.next())?;
            }
            "--max-attempts" => {
                config.retry.max_attempts = positive_u32(&arg, args.next())?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: eclipse-router --backend HOST:PORT [--backend HOST:PORT]... \
                     [--addr HOST:PORT] [--standby HOST:PORT]... [--replicated NAME]... \
                     [--pipe-size N] [--connect-timeout-ms N] [--io-timeout-ms N] \
                     [--rewarm-timeout-ms N] [--check-interval-ms N] [--check-timeout-ms N] \
                     [--fail-threshold N] [--probation-successes N] [--max-attempts N]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if config.backends.is_empty() {
        return Err("eclipse-router needs at least one --backend".to_string());
    }
    Ok(Options { addr, config })
}

fn positive_u32(flag: &str, value: Option<String>) -> Result<u32, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a positive integer"))?;
    let parsed: u32 = raw
        .parse()
        .map_err(|_| format!("{flag}: {raw:?} is not an integer"))?;
    if parsed == 0 {
        return Err(format!("{flag} must be positive"));
    }
    Ok(parsed)
}

fn positive_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a positive integer"))?;
    let parsed: u64 = raw
        .parse()
        .map_err(|_| format!("{flag}: {raw:?} is not an integer"))?;
    if parsed == 0 {
        return Err(format!("{flag} must be positive"));
    }
    Ok(parsed)
}
