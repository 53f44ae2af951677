//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record, every metric with its unit, and as the last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! A traced run also writes its spans to `perfbench/out/`.

use mbus_perfbench::report::{RunInfo, END_TO_END, PER_LAYER, WORKLOADS};
use mbus_perfbench::{run_workload, trace};
use std::path::Path;
use std::process::ExitCode;

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
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let info = RunInfo::gather(&args.workload, args.seed, args.seconds, args.trace);
    println!("# run {}", info.to_json());
    let (out, spans) = match run_workload(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        println!("# layer spans: name count p50_us total_ms self_ms");
        for (name, row) in trace::layer_table(&spans) {
            println!(
                "#   {name} {} {:.3} {:.3} {:.3}",
                row.count, row.p50_us, row.total_ms, row.self_ms
            );
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &info.to_json(), &spans) {
            Ok(()) => println!(
                "# spans written to perfbench/out/{}",
                path.file_name()
                    .map_or(String::new(), |f| f.to_string_lossy().into_owned())
            ),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# correct {} attempted {} failed {}",
        out.correct, out.attempted, out.failed
    );
    for (name, unit) in registry {
        println!(
            "{name} {} {unit}",
            out.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", out.result_line(registry));
    ExitCode::SUCCESS
}
