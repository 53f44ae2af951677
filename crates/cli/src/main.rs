//! `mbus` — command-line interface to the multibus workspace.
//!
//! Regenerates every table and figure of Chen & Sheu (ICDCS 1988), runs
//! analytical/exact/simulated evaluations of arbitrary configurations, and
//! emits the EXPERIMENTS report. Run `mbus help` for usage.

mod args;
mod commands;
mod fabric_cmd;
#[cfg(test)]
mod parity;
mod serve;
mod trace_cmd;

use args::Args;
use std::process::ExitCode;

/// What a subcommand returns; any error prints as `error: <message>`.
type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

const HELP: &str = "\
mbus - multiple bus interconnection networks (Chen & Sheu, ICDCS 1988)

USAGE:
    mbus <COMMAND> [OPTIONS]

COMMANDS:
    table <1|2|3|4|5|6>   regenerate a paper table (markdown; --csv for CSV)
                          table 1 takes --n --b --g --k (default 16 8 2 8)
    tables                regenerate all bandwidth tables (II-VI)
    figures               re-draw the paper's Figures 1-4 as ASCII art
    render                draw one topology: --scheme full|single|partial|
                          kclass|crossbar --n --b [--groups g] [--classes k]
                          [--dot]
    ratios                print the Section IV bus-halving ratios
    sweep                 CSV bandwidth-vs-B series for all schemes:
                          --n --rate [--workload ...]
    analyze               closed-form evaluation: --scheme --n --b --rate
                          [--workload hier|uniform|favorite] [--clusters c]
                          [--alpha a] [--groups g] [--classes k]
    simulate              simulate the same configuration: adds --cycles
                          --warmup --seed --replications --resubmission
                          [--fail bus@cycle|bus@start-end[,...]]
                          [--trace FILE  record a binary per-cycle event
                          trace for 'mbus trace' (single run only)]
    trace <analyze|vcd>   post-sim analytics over a --trace recording:
                          analyze FILE [--json|--markdown] prints per-bus
                          utilization, backpressure, request-to-grant
                          delay quantiles, and the bottleneck ranking;
                          vcd FILE [--out FILE.vcd] exports a waveform
                          dump for GTKWave-style viewers
    fabric                hierarchical cluster-of-buses fabric: analytic
                          decomposition vs routed multi-hop simulation
                          [--ks 4,4] [--buses 2] [--uplink 1] [--rate 0.5]
                          [--locality 0.6] [--cycles 20000  0 = analytic
                          only] [--warmup c/10] [--seed 42]
                          [--failed link[,link...]  fail links all run]
                          [--trace FILE] [--json];
                          --sweep grids tree depth (from --n, --max-depth)
                          x locality [--localities 0.9,0.6,0.3,0.0];
                          --campaign sweeps uplink-failure combos through
                          the analytic model (availability-weighted E[BW],
                          per-cluster decay) [--max-failures f]
                          [--samples 512] [--limit 5000] [--q 0.05]
    faults                degraded-mode fault campaign: evaluates analytical
                          bandwidth over C(B,f) bus-failure combos
                          (exhaustive or Monte-Carlo past --limit) for the
                          --scheme/--n/--b/--rate configuration
                          [--max-failures f] [--samples 512] [--limit 5000]
                          [--seed s] [--workers w] [--q 0.05] [--json]
                          [--check] [--check-cycles 100000]
    validate              compare analysis vs exact vs simulation on a grid
    lint                  run the workspace static-analysis pass (R1 panic
                          paths, R2 lossy casts, R3 equation traceability,
                          R4 invariant wiring, R5 unsafe SAFETY comments,
                          R6 lock discipline, R7 atomics ordering,
                          R8 unchecked Results, R9 unreached pub fns);
                          [--json] [--sarif] [--unsafe-report] [--root path];
                          non-zero exit on violations
    experiments           print the EXPERIMENTS.md report (paper vs computed)
    serve                 run the bandwidth-query HTTP service:
                          POST /v1/{bandwidth,exact,simulate,degraded,fabric},
                          GET /metrics; graceful drain on SIGTERM/ctrl-c
                          [--addr 127.0.0.1:7700] [--workers cores]
                          [--cache-cap 256] [--queue-cap 64]
                          [--max-cycles 2000000]
    help                  show this message

EXAMPLES:
    mbus table 2
    mbus analyze --scheme kclass --n 16 --b 8 --rate 0.5
    mbus simulate --scheme full --n 8 --b 4 --cycles 100000 --fail 2@50000
    mbus simulate --scheme single --n 16 --b 4 --trace run.mbt
    mbus fabric --ks 4,4 --buses 2 --locality 0.6 --rate 0.5
    mbus fabric --sweep --n 16 --cycles 10000 --json
    mbus trace analyze run.mbt --json
    mbus faults --scheme kclass --n 8 --b 4 --check
    mbus lint --json
    mbus lint --unsafe-report
    mbus render --scheme kclass --n 3 --m 6 --b 4 --classes 3
    mbus serve --addr 127.0.0.1:7700 --workers 4
";

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.command.as_str() {
        "table" => commands::table(&args),
        "tables" => commands::tables(&args),
        "figures" => commands::figures(),
        "render" => commands::render(&args),
        "ratios" => commands::ratios(),
        "analyze" => commands::analyze(&args),
        "simulate" => commands::simulate(&args),
        "faults" => commands::faults(&args),
        "sweep" => commands::sweep(&args),
        "validate" => commands::validate(&args),
        "lint" => commands::lint(&args),
        "experiments" => commands::experiments(),
        "fabric" => fabric_cmd::fabric(&args),
        "trace" => trace_cmd::trace(&args).map_err(Into::into),
        "serve" => serve::serve(&args).map_err(Into::into),
        "help" | "" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'; try 'mbus help'").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
