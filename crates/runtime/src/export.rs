//! Trace export: one JSONL trace of a run.
//!
//! [`rounds_jsonl`] writes one JSON object per line, fully deterministic
//! (no wall-clock, no hashing order — rounds and service ticks are the
//! only clocks):
//!
//! * a `"type":"header"` line carrying `p`, the truncation counts
//!   (`dropped_rounds`, `recorded_rounds`, `events`, `dropped_events`),
//!   the span table and per-module histogram summaries;
//! * one `"type":"round"` line per recorded round, with per-module
//!   message counts and fault records;
//! * one `"type":"event"` line per retained request-lifecycle event of
//!   the bundle's [`Telemetry`], when it has one.
//!
//! This is the format the `pim-trace` CLI consumes.
//!
//! The workspace is dependency-free, so this module carries its own
//! minimal JSON value, writer and parser ([`Json`]); the parser exists so
//! the CLI and the schema-checking tests share one implementation.

use crate::fault::{FaultKind, FaultRecord};
use crate::span::ProbeReport;
use crate::telemetry::Telemetry;
use crate::trace::Trace;

// ---------------------------------------------------------------------------
// Minimal JSON value, writer, parser.
// ---------------------------------------------------------------------------

/// A JSON value. Objects preserve insertion order (determinism).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-integer or negative number.
    Num(f64),
    /// A non-negative integer, exact over the whole `u64` range.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `u64` if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string slice if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialise to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{}", n));
                }
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shorthand for a [`Json::Int`].
pub fn num(v: u64) -> Json {
    Json::Int(v)
}

/// Shorthand for a [`Json::Str`].
pub fn str(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document. Returns the value or an error with the byte
/// offset where parsing failed.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {}", pos));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?;
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Json::Int(n));
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {}", start))
}

// ---------------------------------------------------------------------------
// Export bundle and serialisers.
// ---------------------------------------------------------------------------

/// Everything one export needs: the machine size, the (possibly
/// ring-capped) per-round trace, the optional span report and the
/// optional (possibly ring-capped) request-lifecycle event log.
#[derive(Debug, Clone, Copy)]
pub struct ExportBundle<'a> {
    /// Number of PIM modules.
    pub p: u32,
    /// The recorded rounds.
    pub trace: &'a Trace,
    /// The span/histogram report, when a probe was enabled.
    pub report: Option<&'a ProbeReport>,
    /// The telemetry whose events follow the rounds, when it was enabled.
    pub events: Option<&'a Telemetry>,
}

fn fault_json(f: &FaultRecord) -> Json {
    let mut fields = vec![("module".to_string(), num(u64::from(f.module)))];
    let kind = match f.kind {
        FaultKind::Crash => "crash",
        FaultKind::Stall => "stall",
        FaultKind::DropTask { nth } => {
            fields.push(("nth".to_string(), num(nth)));
            "drop_task"
        }
        FaultKind::DropReply { nth } => {
            fields.push(("nth".to_string(), num(nth)));
            "drop_reply"
        }
        FaultKind::Slow { factor } => {
            fields.push(("factor".to_string(), num(factor)));
            "slow"
        }
    };
    fields.insert(0, ("kind".to_string(), str(kind)));
    Json::Obj(fields)
}

fn stats_fields(m: &crate::metrics::Metrics) -> Vec<(String, Json)> {
    vec![
        ("rounds".to_string(), num(m.rounds)),
        ("io_time".to_string(), num(m.io_time)),
        ("pim_time".to_string(), num(m.pim_time)),
        ("messages".to_string(), num(m.total_messages)),
        ("work".to_string(), num(m.total_pim_work)),
        ("cpu_work".to_string(), num(m.cpu_work)),
        ("cpu_depth".to_string(), num(m.cpu_depth)),
        ("shared_mem_peak".to_string(), num(m.shared_mem_peak)),
        ("retries".to_string(), num(m.retries_issued)),
        ("recovery_rounds".to_string(), num(m.recovery_rounds)),
    ]
}

fn histogram_json(h: &crate::histogram::Histogram) -> Json {
    Json::Obj(vec![
        ("count".to_string(), num(h.count())),
        ("sum".to_string(), num(h.sum())),
        ("max".to_string(), num(h.max())),
        ("p50".to_string(), num(h.p50())),
        ("p95".to_string(), num(h.p95())),
        ("p99".to_string(), num(h.p99())),
        ("p999".to_string(), num(h.p999())),
        (
            "buckets".to_string(),
            Json::Arr(
                h.buckets()
                    .map(|b| {
                        Json::Obj(vec![
                            ("le".to_string(), num(b.upper)),
                            ("count".to_string(), num(b.count)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serialise the bundle to the JSONL trace.
///
/// Line 1 is a `"type":"header"` object (machine size, truncation, span
/// table, per-module histogram summaries); the `"type":"round"` lines
/// follow, then the `"type":"event"` lines. The `pim-trace` CLI consumes
/// this format.
pub fn rounds_jsonl(bundle: &ExportBundle<'_>) -> String {
    let mut header = vec![
        ("type".to_string(), str("header")),
        ("version".to_string(), num(2)),
        ("p".to_string(), num(u64::from(bundle.p))),
        (
            "dropped_rounds".to_string(),
            num(bundle.trace.dropped_rounds()),
        ),
        (
            "recorded_rounds".to_string(),
            num(bundle.trace.rounds.len() as u64),
        ),
        (
            "events".to_string(),
            num(bundle.events.map_or(0, |t| t.events().len() as u64)),
        ),
        (
            "dropped_events".to_string(),
            num(bundle.events.map_or(0, Telemetry::dropped_events)),
        ),
    ];
    if let Some(report) = bundle.report {
        let spans = report
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("id".to_string(), num(u64::from(s.id))),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| num(u64::from(p))),
                    ),
                    ("name".to_string(), str(s.name)),
                    ("path".to_string(), str(&report.path(s.id))),
                    ("depth".to_string(), num(u64::from(s.depth))),
                    ("start_round".to_string(), num(s.start_round)),
                    ("end_round".to_string(), num(s.end_round)),
                ];
                fields.extend(stats_fields(&s.stats));
                Json::Obj(fields)
            })
            .collect();
        header.push(("spans".to_string(), Json::Arr(spans)));
        let modules = (0..report.lanes.p() as usize)
            .map(|m| {
                Json::Obj(vec![
                    ("module".to_string(), num(m as u64)),
                    (
                        "messages".to_string(),
                        histogram_json(&report.lanes.messages[m]),
                    ),
                    ("work".to_string(), histogram_json(&report.lanes.work[m])),
                ])
            })
            .collect();
        header.push(("modules".to_string(), Json::Arr(modules)));
    }

    let mut out = Json::Obj(header).to_json();
    out.push('\n');
    for r in &bundle.trace.rounds {
        let line = Json::Obj(vec![
            ("type".to_string(), str("round")),
            ("round".to_string(), num(r.round)),
            ("h".to_string(), num(r.h)),
            ("max_work".to_string(), num(r.max_work)),
            ("messages".to_string(), num(r.messages)),
            ("work".to_string(), num(r.work)),
            (
                "per_module".to_string(),
                Json::Arr(r.per_module_messages.iter().map(|&v| num(v)).collect()),
            ),
            (
                "faults".to_string(),
                Json::Arr(r.faults.iter().map(fault_json).collect()),
            ),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    for e in bundle.events.iter().flat_map(|t| t.events()) {
        let mut fields = vec![
            ("type".to_string(), str("event")),
            ("kind".to_string(), str(e.kind)),
            ("tick".to_string(), num(e.tick)),
            ("round".to_string(), num(e.round)),
        ];
        fields.extend(e.fields().map(|(k, v)| (k.to_string(), num(v))));
        out.push_str(&Json::Obj(fields).to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRecord};
    use crate::trace::RoundTrace;

    fn sample_trace() -> Trace {
        let mut t = Trace::default();
        t.record(RoundTrace {
            round: 0,
            h: 3,
            max_work: 4,
            messages: 5,
            work: 6,
            per_module_messages: vec![3, 2],
            faults: vec![],
        });
        t.record(RoundTrace {
            round: 1,
            h: 7,
            max_work: 7,
            messages: 7,
            work: 7,
            per_module_messages: vec![0, 7],
            faults: vec![FaultRecord {
                module: 1,
                kind: FaultKind::Slow { factor: 3 },
            }],
        });
        t
    }

    #[test]
    fn json_roundtrip() {
        let v = Json::Obj(vec![
            ("a".to_string(), num(3)),
            ("b".to_string(), str("x\"y\n")),
            (
                "c".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(1.5)]),
            ),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_render_and_parse_back_exactly() {
        for v in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let text = num(v).to_json();
            assert_eq!(text, v.to_string());
            assert_eq!(parse(&text).unwrap().as_u64(), Some(v));
        }
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn jsonl_header_then_rounds() {
        let t = sample_trace();
        let out = rounds_jsonl(&ExportBundle {
            p: 2,
            trace: &t,
            report: None,
            events: None,
        });
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = parse(lines[0]).unwrap();
        assert_eq!(header.get("type").unwrap().as_str(), Some("header"));
        assert_eq!(header.get("p").unwrap().as_u64(), Some(2));
        let round1 = parse(lines[2]).unwrap();
        assert_eq!(round1.get("h").unwrap().as_u64(), Some(7));
        let faults = round1.get("faults").unwrap().as_array().unwrap();
        assert_eq!(faults[0].get("kind").unwrap().as_str(), Some("slow"));
        assert_eq!(faults[0].get("factor").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn jsonl_events_follow_the_rounds() {
        let t = sample_trace();
        let mut telemetry = Telemetry::new().with_max_events(2);
        telemetry.emit("admit", 1, 0, &[("id", 4)]);
        telemetry.emit("admit", 1, 0, &[("id", 5)]);
        telemetry.emit("ack", 2, 1, &[("id", 4), ("latency_ticks", 1)]);
        let out = rounds_jsonl(&ExportBundle {
            p: 2,
            trace: &t,
            report: None,
            events: Some(&telemetry),
        });
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains(r#""recorded_rounds":2,"events":2,"dropped_events":1}"#));
        assert!(lines[2].starts_with(r#"{"type":"round","round":1,"#));
        assert_eq!(
            lines[3],
            r#"{"type":"event","kind":"admit","tick":1,"round":0,"id":5}"#
        );
        assert_eq!(
            lines[4],
            r#"{"type":"event","kind":"ack","tick":2,"round":1,"id":4,"latency_ticks":1}"#
        );
    }

    #[test]
    fn export_is_deterministic() {
        let t = sample_trace();
        let b = ExportBundle {
            p: 2,
            trace: &t,
            report: None,
            events: None,
        };
        assert_eq!(rounds_jsonl(&b), rounds_jsonl(&b));
    }
}
