//! Command line of the Eden serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc|objects|efs-txn --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints an environment record and the metrics by name with units; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The traced run also
//! writes the per-layer table and a Chrome trace under `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use eden_perfbench::workloads::Workload;
use eden_perfbench::{report, run, RunConfig};

const USAGE: &str =
    "usage: eden-perfbench --workload rpc|objects|efs-txn --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        measure: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print!(
        "{}",
        report::environment(cfg.workload, cfg.seed, cfg.measure.as_secs_f64(), cfg.trace)
    );
    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if cfg.trace {
        let layers = report::per_layer(&result);
        let table = report::table(&layers);
        println!(
            "per-layer metrics ({}, seed {}):",
            cfg.workload.name(),
            cfg.seed
        );
        print!("{table}");
        let stem = cfg
            .out_dir
            .join(format!("{}-seed{}", cfg.workload.name(), cfg.seed));
        let traced = result
            .traced
            .as_ref()
            .expect("traced run has a traced phase");
        for (path, body) in [
            (stem.with_extension("layers.txt"), table),
            (stem.with_extension("trace.json"), traced.chrome.clone()),
        ] {
            match std::fs::write(&path, body) {
                Ok(()) => println!("  wrote {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
        layers
    } else {
        let e2e = report::end_to_end(&result);
        println!(
            "end-to-end metrics ({}, seed {}):",
            cfg.workload.name(),
            cfg.seed
        );
        print!("{}", report::table(&e2e));
        for line in report::end_to_end_notes(&result) {
            println!("  {line}");
        }
        e2e
    };
    for phase in result.all_phases() {
        print!("{}", report::guards(phase));
        for p in &phase.problems {
            println!("  problem: {p}");
        }
    }
    println!(
        "{}",
        report::json_line(
            result.correct(),
            result.attempted(),
            result.failed(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}
