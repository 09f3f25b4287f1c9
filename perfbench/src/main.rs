//! `cold-perfbench` — the COLD benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload seeded_synth --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one named workload on inputs generated from `--seed` for about
//! `--seconds` seconds, checks every output, and prints each metric as a
//! `name value unit` line followed by one JSON result object as the last
//! line of standard output. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` is a separate traced run that times the calls into each
//! layer's public functions and prints the per-layer metrics (its spans
//! are written to `.perfbench_out/` when the run ends). See README.md.

mod batch;
mod layers;
mod served;
mod spans;
mod stats;

use batch::Kind;
use std::path::PathBuf;

const USAGE: &str =
    "usage: cold-perfbench --workload <seeded_synth|ga_large|pareto_front|served_mix> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("cold-perfbench: {msg}\n{USAGE}");
        std::process::exit(2);
    });
    let kind = match args.workload.as_str() {
        "seeded_synth" => Some(Kind::SeededSynth),
        "ga_large" => Some(Kind::GaLarge),
        "pareto_front" => Some(Kind::ParetoFront),
        "served_mix" => None,
        other => {
            eprintln!("cold-perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench_out");
    let outcome = if args.trace {
        let tracer = spans::Tracer::new();
        let outcome = match kind {
            Some(kind) => batch::run_traced(kind, args.seed, args.seconds, &tracer),
            None => served::run(args.seed, args.seconds, Some(&tracer), &out_dir),
        };
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cold-perfbench: spans not written to {}: {e}", path.display());
        }
        outcome
    } else {
        match kind {
            Some(kind) => batch::run(kind, args.seed, args.seconds),
            None => served::run(args.seed, args.seconds, None, &out_dir),
        }
    };
    outcome.print();
}
