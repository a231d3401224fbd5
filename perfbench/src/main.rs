//! `betalike-perfbench` — the repository benchmark.
//!
//! ```text
//! betalike-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    --serve-bin PATH
//! ```
//!
//! `--trace 0` drives the `betalike-serve` binary at `--serve-bin` end to
//! end and prints the end-to-end metrics; `--trace 1` replays the same
//! seeded inputs in process through each layer's public functions and
//! prints the per-layer metrics. Scratch data and traces go to
//! `.perfbench-out/` under the working directory. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md.

mod e2e;
mod serve;
mod stats;
mod trace;
mod workload;

use betalike_microdata::json::Json;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} expects a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {:?})",
            workload::WORKLOADS
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("betalike-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = PathBuf::from(".perfbench-out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("betalike-perfbench: create {}: {e}", out.display());
        std::process::exit(1);
    }
    let ctx = e2e::Ctx {
        bin: serve::ServerBin::Binary(args.serve_bin),
        out,
        seed: args.seed,
        seconds: args.seconds,
        sizes: workload::Sizes::full(),
    };
    let result = if args.trace {
        trace::run(&ctx, &args.workload)
    } else {
        e2e::run(&ctx, &args.workload)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("betalike-perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &outcome.report {
        println!("# {line}");
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // A failed operation is an infinite latency; JSON has no
            // infinity, so it reads as the largest finite number.
            let value = if value.is_finite() { *value } else { f64::MAX };
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
}
