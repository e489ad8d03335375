//! Seeded performance benchmark for the prima workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_flow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`cold_flow`, `baseline_signoff` or `serve_mixed`,
//! see `BENCHMARK.json` and `perfbench/LAYERS.md`), checks its outputs,
//! and prints one JSON line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! stamps the environment.

mod circuits;
#[cfg(test)]
mod json;
mod metrics;
mod mix;
mod redrive;
mod util;
mod workloads;

use std::process::ExitCode;

use metrics::Report;

/// Output digests of the workloads, one `<workload> <hex>` per line. The
/// flows' placement and Monte-Carlo seeds are fixed, so a digest is the
/// same for every `--seed`.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The expected digest of `workload`, if one is stored.
fn expected_digest(workload: &str) -> Option<&'static str> {
    EXPECTED_DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload).then(|| hex.trim())
    })
}

/// Output of a command, trimmed, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line describing where the result was measured.
fn environment_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"env\": {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"profile\": \"{}\"}}}}",
        env!("PERFBENCH_RUSTC_VERSION"),
        command_output("git", &["rev-parse", "HEAD"]),
        env!("PERFBENCH_PROFILE"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "cold_flow" => workloads::cold_flow,
        "baseline_signoff" => workloads::baseline_signoff,
        "serve_mixed" => workloads::serve_mixed,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let sampler = args.trace.then(util::ThreadSampler::start);
    let result = run(args.seed, args.seconds, args.trace);
    let threads_peak = sampler.map_or(0, util::ThreadSampler::finish);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut report: Report = outcome.report;
    eprintln!("perfbench: {} digest {}", args.workload, outcome.digest);
    match expected_digest(&args.workload) {
        Some(hex) if hex == outcome.digest => {}
        Some(hex) => report.mismatch(format!("digest {} != expected {hex}", outcome.digest)),
        None => report.mismatch("no expected digest stored".to_string()),
    }
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", util::peak_rss_mb());
    let table = if args.trace {
        report.set("proc.threads_peak", threads_peak as f64);
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let line = report.result_line(&table);
    for m in &report.mismatches {
        eprintln!("perfbench: output check: {m}");
    }
    println!("{}", environment_stamp());
    println!("{line}");
    ExitCode::SUCCESS
}
