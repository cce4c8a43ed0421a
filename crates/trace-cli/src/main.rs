//! `pim-trace`: inspect exported PIM traces.
//!
//! ```text
//! pim-trace phases  <rounds.jsonl>     per-phase cost breakdown
//! pim-trace hprofile <rounds.jsonl>    distribution of per-round h
//! pim-trace heatmap <rounds.jsonl>     module-imbalance heatmap
//! pim-trace all     <rounds.jsonl>     all of the above
//! pim-trace top     <events.jsonl> [rounds.jsonl]   telemetry dashboard
//! pim-trace validate [--strict] <file>...   schema-check exports
//! ```
//!
//! `validate` auto-detects the artefact format: Chrome trace JSON, the
//! JSONL round log, the telemetry event JSONL log, or a Prometheus text
//! exposition. It warns when a trace or event log is *incomplete*
//! (`dropped_rounds` / `dropped_events` > 0 — entries evicted by a cap);
//! with `--strict` an incomplete artefact fails validation.
//!
//! Exit codes: 0 ok, 1 validation failure, 2 usage or IO error.

use std::process::ExitCode;

use pim_trace_cli::{
    completeness_warning, events_completeness_warning, parse_events_jsonl, parse_jsonl,
    render_heatmap, render_hprofile, render_phases, render_top, validate_chrome,
    validate_prometheus,
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
    match cmd.as_str() {
        "phases" | "hprofile" | "heatmap" | "all" => {
            for path in files {
                let doc = parse_jsonl(&load(path)?).map_err(|e| format!("{path}: {e}"))?;
                if files.len() > 1 {
                    println!("== {path} ==");
                }
                if cmd == "phases" || cmd == "all" {
                    print!("{}", render_phases(&doc));
                }
                if cmd == "hprofile" || cmd == "all" {
                    if cmd == "all" {
                        println!();
                    }
                    print!("{}", render_hprofile(&doc));
                }
                if cmd == "heatmap" || cmd == "all" {
                    if cmd == "all" {
                        println!();
                    }
                    print!("{}", render_heatmap(&doc));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "top" => {
            let events =
                parse_events_jsonl(&load(&files[0])?).map_err(|e| format!("{}: {e}", files[0]))?;
            let rounds = match files.get(1) {
                Some(path) => Some(parse_jsonl(&load(path)?).map_err(|e| format!("{path}: {e}"))?),
                None => None,
            };
            print!("{}", render_top(&events, rounds.as_ref()));
            Ok(ExitCode::SUCCESS)
        }
        "validate" => {
            let strict = files.iter().any(|f| f == "--strict");
            let files: Vec<&String> = files.iter().filter(|f| *f != "--strict").collect();
            if files.is_empty() {
                return Err(USAGE.into());
            }
            let mut failed = false;
            for path in files {
                let text = load(path)?;
                // Format sniffing: Chrome exports are one JSON document
                // with traceEvents; telemetry event logs open with a
                // telemetry-header line; Prometheus expositions open with
                // a # TYPE comment; everything else must be a valid JSONL
                // round log.
                let head = text.trim_start();
                let chrome =
                    head.starts_with('{') && head[1..].trim_start().starts_with("\"traceEvents\"");
                let result = if chrome {
                    validate_chrome(&text)
                } else if head.starts_with('#') {
                    validate_prometheus(&text).map(|()| None)
                } else if head
                    .lines()
                    .next()
                    .is_some_and(|l| l.contains("\"telemetry-header\""))
                {
                    parse_events_jsonl(&text).map(|doc| events_completeness_warning(&doc))
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
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
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
