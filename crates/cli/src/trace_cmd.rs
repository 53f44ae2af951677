//! `mbus trace` — post-sim analysis of binary traces written by
//! `mbus simulate --trace FILE`.
//!
//! Subcommands:
//!
//! * `analyze FILE` — stream the trace once and print per-bus
//!   utilization, backpressure, request-to-grant delay quantiles, and the
//!   bottleneck ranking (`--markdown` for a report section, `--json` for
//!   the document `/v1/simulate` attaches as its `trace` field);
//! * `vcd FILE` — convert the trace to a value-change dump for waveform
//!   viewers (`--out FILE.vcd`, defaulting to the input with a `.vcd`
//!   extension).

use crate::args::Args;
use mbus_core::trace::{analyze, render, vcd, TraceReader};
use mbus_server::service::trace_json;
use std::fs::File;
use std::io::BufReader;

/// Dispatches `mbus trace <analyze|vcd> FILE …`.
///
/// # Errors
///
/// Returns a message for unknown subcommands, missing files, and corrupt
/// or truncated traces.
pub(crate) fn trace(args: &Args) -> Result<(), String> {
    let Some(sub) = args.positional.first() else {
        return Err("usage: mbus trace <analyze|vcd> FILE".into());
    };
    let Some(path) = args.positional.get(1) else {
        return Err(format!("usage: mbus trace {sub} FILE"));
    };
    let open = || -> Result<TraceReader<BufReader<File>>, String> {
        let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
        TraceReader::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    };
    match sub.as_str() {
        "analyze" => {
            let mut reader = open()?;
            let analysis = analyze(&mut reader).map_err(|e| format!("{path}: {e}"))?;
            if args.flag("json") {
                println!("{}", trace_json(&analysis).render());
            } else if args.flag("markdown") {
                print!("{}", render::render_markdown(&analysis));
            } else {
                print!("{}", render::render_text(&analysis));
            }
            Ok(())
        }
        "vcd" => {
            let out_path = match args.get("out") {
                Some(out) => out.to_owned(),
                None => {
                    let stem = path.strip_suffix(".mbt").unwrap_or(path);
                    format!("{stem}.vcd")
                }
            };
            let mut reader = open()?;
            let file = File::create(&out_path).map_err(|e| format!("{out_path}: {e}"))?;
            let mut sink = std::io::BufWriter::new(file);
            vcd::export_vcd(&mut reader, &mut sink).map_err(|e| format!("{out_path}: {e}"))?;
            use std::io::Write as _;
            sink.flush().map_err(|e| format!("{out_path}: {e}"))?;
            println!(
                "wrote {out_path} ({} cycles, {} buses)",
                reader.cycles_read(),
                reader.header().buses
            );
            Ok(())
        }
        other => Err(format!(
            "unknown trace subcommand '{other}' (expected analyze|vcd)"
        )),
    }
}
