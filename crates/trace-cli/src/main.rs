//! `pim-trace`: inspect exported PIM traces.
//!
//! ```text
//! pim-trace phases   <trace.jsonl>   per-phase cost breakdown
//! pim-trace hprofile <trace.jsonl>   distribution of per-round h
//! pim-trace heatmap  <trace.jsonl>   module-imbalance heatmap
//! pim-trace all      <trace.jsonl>   all of the above
//! pim-trace top      <trace.jsonl>   telemetry dashboard over the events
//! pim-trace validate [--strict] <file>...   schema-check exports
//! ```
//!
//! `validate` reads a Prometheus text exposition when the file opens with
//! a `#` comment and a JSONL trace otherwise. It warns when a trace is
//! *incomplete* (`dropped_rounds` / `dropped_events` > 0 — entries evicted
//! by a cap); with `--strict` an incomplete trace fails validation.
//!
//! Exit codes: 0 ok, 1 validation failure, 2 usage or IO error.

use std::process::ExitCode;

use pim_trace_cli::{
    completeness_warning, parse_jsonl, render_heatmap, render_hprofile, render_phases, render_top,
    validate_prometheus, TraceDoc,
};

const USAGE: &str =
    "usage: pim-trace <phases|hprofile|heatmap|all|top|validate> [--strict] <file>...";

fn load(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, files) = args.split_first().ok_or(USAGE)?;
    if files.is_empty() {
        return Err(USAGE.into());
    }
    let renders: &[fn(&TraceDoc) -> String] = match cmd.as_str() {
        "phases" => &[render_phases],
        "hprofile" => &[render_hprofile],
        "heatmap" => &[render_heatmap],
        "all" => &[render_phases, render_hprofile, render_heatmap],
        "top" => &[render_top],
        "validate" => return validate(files),
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    for path in files {
        let doc = parse_jsonl(&load(path)?).map_err(|e| format!("{path}: {e}"))?;
        if files.len() > 1 {
            println!("== {path} ==");
        }
        for (i, render) in renders.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", render(&doc));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn validate(files: &[String]) -> Result<ExitCode, String> {
    let strict = files.iter().any(|f| f == "--strict");
    let files: Vec<&String> = files.iter().filter(|f| *f != "--strict").collect();
    if files.is_empty() {
        return Err(USAGE.into());
    }
    let mut failed = false;
    for path in files {
        let text = load(path)?;
        let result = if text.trim_start().starts_with('#') {
            validate_prometheus(&text).map(|()| None)
        } else {
            parse_jsonl(&text).map(|doc| completeness_warning(&doc))
        };
        match result {
            Ok(None) => println!("{path}: ok"),
            Ok(Some(warning)) if strict => {
                eprintln!("{path}: INVALID (--strict): {warning}");
                failed = true;
            }
            Ok(Some(warning)) => println!("{path}: ok (warning: {warning})"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
