//! `serve-loadgen` — drive the in-process inference server and report
//! coalesced vs batch-size-1 throughput.
//!
//! ```text
//! serve-loadgen [--quick true] [--clients N] [--requests N] [--dim N]
//!               [--predict-workers N]
//! ```
//!
//! Writes `BENCH_serve.json` (path overridable via the `BENCH_SERVE_JSON`
//! env var); `BENCH_QUICK=1` selects the CI smoke configuration, same as
//! `--quick true`. Exits non-zero if the coalescing run failed to batch
//! at all — a broken batcher must fail loud here, not in production.

use hdc_serve::loadgen::{run, LoadgenConfig};
use std::process::ExitCode;

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == name)?;
    let raw = args.get(pos + 1)?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("cannot parse {name} value '{raw}'");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = flag::<bool>(&args, "--quick")
        .unwrap_or_else(|| std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1"));
    let mut config = if quick { LoadgenConfig::quick() } else { LoadgenConfig::default() };
    if let Some(clients) = flag::<usize>(&args, "--clients") {
        config.clients = clients;
    }
    if let Some(requests) = flag::<usize>(&args, "--requests") {
        config.requests_per_client = requests;
    }
    if let Some(dim) = flag::<usize>(&args, "--dim") {
        config.dim = dim;
    }
    if let Some(workers) = flag::<usize>(&args, "--predict-workers") {
        config.coalesce.predict_workers = workers;
    }

    println!(
        "loadgen: {} clients x {} requests, D = {}, {}x{} inputs, {} predict executor(s), \
         quick = {quick}",
        config.clients,
        config.requests_per_client,
        config.dim,
        config.edge,
        config.edge,
        config.coalesce.predict_workers
    );
    let report = run(&config);
    println!("batch-size-1: {:>8.0} req/s   (p99 {} us)", report.single_rps, report.single_p99_us);
    println!(
        "coalesced:    {:>8.0} req/s   (p99 {} us, mean batch {:.2})",
        report.coalesced_rps, report.coalesced_p99_us, report.coalesced_mean_batch
    );
    println!("SPEEDUP serve_predict {:.2}x", report.speedup());
    println!(
        "binary model:  batch-size-1 {:>8.0} req/s   coalesced {:>8.0} req/s",
        report.single_binary_rps, report.coalesced_binary_rps
    );
    println!("SPEEDUP serve_predict_binary {:.2}x", report.binary_speedup());
    println!(
        "train batch-size-1: {:>8.0} req/s   coalesced: {:>8.0} req/s ({} examples, {} versions)",
        report.single_train_rps,
        report.coalesced_train_rps,
        report.train_requests,
        report.coalesced_final_version
    );
    println!("SPEEDUP serve_train {:.2}x", report.coalesced_train_rps / report.single_train_rps);
    println!(
        "tracing:      on {:>8.0} req/s   off {:>8.0} req/s",
        report.traced_rps, report.untraced_rps
    );
    println!("OVERHEAD serve_trace_overhead {:.3}x (floor 0.9)", report.trace_overhead());
    for point in &report.scale_curve {
        println!(
            "scale w{}: {:>8.0} req/s   ({:.3}x vs 1 worker)",
            point.workers, point.rps, point.speedup
        );
    }

    let path = std::env::var("BENCH_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let json = report.to_bench_json(quick);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if report.coalesced_mean_batch <= 1.0 {
        eprintln!(
            "FAIL: coalescing run never batched (mean batch size {:.2})",
            report.coalesced_mean_batch
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
