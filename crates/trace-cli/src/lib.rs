//! Reader and renderers behind the `pim-trace` binary.
//!
//! The input is the JSONL trace `pim_runtime::export::rounds_jsonl`
//! writes: a `"type":"header"` line with the truncation counts, the span
//! table and per-module histogram summaries, then one `"type":"round"`
//! line per recorded round, then one `"type":"event"` line per retained
//! request-lifecycle event. The Prometheus exposition is schema-checked
//! here too, so CI validates both artefacts with one tool.
//!
//! Parsing reuses [`pim_runtime::export::parse`] — the exporter and this
//! consumer share a single JSON implementation, so a schema drift breaks
//! tests instead of silently mis-rendering.

#![warn(missing_docs)]

use pim_runtime::export::{parse, Json};

// ---------------------------------------------------------------------------
// Document model.
// ---------------------------------------------------------------------------

/// One span row from the JSONL header.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span id (0 is the implicit root).
    pub id: u64,
    /// Parent span id (`None` for the root).
    pub parent: Option<u64>,
    /// Leaf name, e.g. `"upsert"` or `"alloc"`.
    pub name: String,
    /// Full ancestry path, e.g. `"run > upsert > alloc"`.
    pub path: String,
    /// Nesting depth (root = 0).
    pub depth: u64,
    /// First round covered by the span.
    pub start_round: u64,
    /// Round at which the span closed.
    pub end_round: u64,
    /// Exclusive §2.1 stats: `(label, value)` in export order.
    pub stats: Vec<(String, u64)>,
}

impl SpanRow {
    /// Look up one exclusive stat by its export label (`"io_time"`, …).
    pub fn stat(&self, label: &str) -> u64 {
        self.stats
            .iter()
            .find(|(k, _)| k == label)
            .map_or(0, |&(_, v)| v)
    }
}

/// Per-module histogram summary (messages or work) from the header.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneSummary {
    /// Rounds observed.
    pub count: u64,
    /// Total over all rounds.
    pub sum: u64,
    /// Per-round maximum.
    pub max: u64,
    /// Median per-round value (log-bucket upper bound).
    pub p50: u64,
    /// 95th-percentile per-round value (log-bucket upper bound).
    pub p95: u64,
}

/// One module's histogram summaries from the header.
#[derive(Debug, Clone, Copy)]
pub struct ModuleRow {
    /// Module id.
    pub module: u64,
    /// Messages-per-round summary.
    pub messages: LaneSummary,
    /// Work-per-round summary.
    pub work: LaneSummary,
}

/// One recorded round.
#[derive(Debug, Clone)]
pub struct RoundRow {
    /// Global round index.
    pub round: u64,
    /// The round's h (max messages through one module).
    pub h: u64,
    /// The round's maximum per-module work.
    pub max_work: u64,
    /// Total messages delivered this round.
    pub messages: u64,
    /// Total work done this round.
    pub work: u64,
    /// Messages per module.
    pub per_module: Vec<u64>,
    /// Fault kinds injected this round (render labels).
    pub faults: Vec<String>,
}

/// One request-lifecycle event.
#[derive(Debug, Clone)]
pub struct EventRow {
    /// Event kind (`"admit"`, `"coalesce"`, `"execute"`, `"reply"`,
    /// `"ack"`, `"fsync"`, …).
    pub kind: String,
    /// Service tick the event occurred on.
    pub tick: u64,
    /// Machine round counter at the event.
    pub round: u64,
    /// Extra integer fields (`id`, `latency_ticks`, …).
    pub fields: Vec<(String, u64)>,
}

impl EventRow {
    /// Look up one extra field by name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// A parsed JSONL trace document.
#[derive(Debug, Clone)]
pub struct TraceDoc {
    /// Number of PIM modules.
    pub p: u64,
    /// Rounds lost to the ring-buffer cap.
    pub dropped_rounds: u64,
    /// Events lost to the event log's cap.
    pub dropped_events: u64,
    /// Spans from the header (empty when the run had no probe).
    pub spans: Vec<SpanRow>,
    /// Per-module summaries from the header (empty without a probe).
    pub modules: Vec<ModuleRow>,
    /// The recorded rounds.
    pub rounds: Vec<RoundRow>,
    /// The retained events, in emission order (empty without telemetry).
    pub events: Vec<EventRow>,
}

fn req_u64(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: missing or non-integer field {key:?}"))
}

fn req_str(v: &Json, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: missing or non-string field {key:?}"))
}

fn lane_summary(v: &Json, what: &str) -> Result<LaneSummary, String> {
    Ok(LaneSummary {
        count: req_u64(v, "count", what)?,
        sum: req_u64(v, "sum", what)?,
        max: req_u64(v, "max", what)?,
        p50: req_u64(v, "p50", what)?,
        p95: req_u64(v, "p95", what)?,
    })
}

/// The exclusive-stat labels every span row must carry, in table order.
pub const STAT_LABELS: [&str; 10] = [
    "rounds",
    "io_time",
    "pim_time",
    "messages",
    "work",
    "cpu_work",
    "cpu_depth",
    "shared_mem_peak",
    "retries",
    "recovery_rounds",
];

/// Warning text when the trace lost rounds or events to a cap (`None`
/// for a complete trace). A schema-valid trace can still be a *partial*
/// record — analyses over it silently undercount — so `pim-trace
/// validate` prints this, and treats it as a failure under `--strict`.
pub fn completeness_warning(doc: &TraceDoc) -> Option<String> {
    let mut lost = Vec::new();
    if doc.dropped_rounds > 0 {
        lost.push(format!(
            "{} round(s) evicted by the ring-buffer cap ({} recorded)",
            doc.dropped_rounds,
            doc.rounds.len()
        ));
    }
    if doc.dropped_events > 0 {
        lost.push(format!(
            "{} event(s) dropped by the cap ({} recorded)",
            doc.dropped_events,
            doc.events.len()
        ));
    }
    (!lost.is_empty()).then(|| format!("incomplete trace: {}", lost.join("; ")))
}

/// Parse a JSONL trace into a [`TraceDoc`]. Errors carry the line number
/// (1-based) and what was wrong — this is also the schema check behind
/// `pim-trace validate`. Each round line must agree with itself and the
/// header: `p` lanes, `h` their maximum and `messages` their sum.
pub fn parse_jsonl(input: &str) -> Result<TraceDoc, String> {
    let mut lines = input.lines().enumerate().filter(|(_, l)| !l.is_empty());
    let (_, first) = lines.next().ok_or("empty input")?;
    let header = parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("type").and_then(Json::as_str) != Some("header") {
        return Err("line 1: expected a \"type\":\"header\" object".into());
    }
    let version = req_u64(&header, "version", "header")?;
    if version != 2 {
        return Err(format!("header: unsupported version {version}"));
    }
    let p = req_u64(&header, "p", "header")?;
    let dropped_rounds = req_u64(&header, "dropped_rounds", "header")?;
    let recorded = req_u64(&header, "recorded_rounds", "header")?;
    let retained = req_u64(&header, "events", "header")?;
    let dropped_events = req_u64(&header, "dropped_events", "header")?;

    let mut spans = Vec::new();
    if let Some(arr) = header.get("spans").and_then(Json::as_array) {
        for (i, s) in arr.iter().enumerate() {
            let what = format!("header span #{i}");
            let stats = STAT_LABELS
                .iter()
                .map(|&label| Ok((label.to_string(), req_u64(s, label, &what)?)))
                .collect::<Result<Vec<_>, String>>()?;
            spans.push(SpanRow {
                id: req_u64(s, "id", &what)?,
                parent: s.get("parent").and_then(Json::as_u64),
                name: req_str(s, "name", &what)?,
                path: req_str(s, "path", &what)?,
                depth: req_u64(s, "depth", &what)?,
                start_round: req_u64(s, "start_round", &what)?,
                end_round: req_u64(s, "end_round", &what)?,
                stats,
            });
        }
    }

    let mut modules = Vec::new();
    if let Some(arr) = header.get("modules").and_then(Json::as_array) {
        for (i, m) in arr.iter().enumerate() {
            let what = format!("header module #{i}");
            let msgs = m
                .get("messages")
                .ok_or_else(|| format!("{what}: missing field \"messages\""))?;
            let work = m
                .get("work")
                .ok_or_else(|| format!("{what}: missing field \"work\""))?;
            modules.push(ModuleRow {
                module: req_u64(m, "module", &what)?,
                messages: lane_summary(msgs, &what)?,
                work: lane_summary(work, &what)?,
            });
        }
        if modules.len() as u64 != p {
            return Err(format!(
                "header: {} module summaries for p = {p}",
                modules.len()
            ));
        }
    }

    let mut rounds = Vec::new();
    let mut events = Vec::new();
    for (lineno, line) in lines {
        let what = format!("line {}", lineno + 1);
        let v = parse(line).map_err(|e| format!("{what}: {e}"))?;
        match v.get("type").and_then(Json::as_str) {
            Some("round") if events.is_empty() => rounds.push(round_row(&v, p, &what)?),
            Some("round") => return Err(format!("{what}: a round line after the events")),
            Some("event") => events.push(event_row(&v, &what)?),
            _ => {
                return Err(format!(
                    "{what}: expected a \"type\":\"round\" or \"type\":\"event\" object"
                ))
            }
        }
    }
    if rounds.len() as u64 != recorded {
        return Err(format!(
            "header says recorded_rounds = {recorded} but {} round lines follow",
            rounds.len()
        ));
    }
    if events.len() as u64 != retained {
        return Err(format!(
            "header says events = {retained} but {} event lines follow",
            events.len()
        ));
    }
    Ok(TraceDoc {
        p,
        dropped_rounds,
        dropped_events,
        spans,
        modules,
        rounds,
        events,
    })
}

fn round_row(v: &Json, p: u64, what: &str) -> Result<RoundRow, String> {
    let per_module = v
        .get("per_module")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what}: missing array field \"per_module\""))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("{what}: bad lane value")))
        .collect::<Result<Vec<_>, _>>()?;
    let faults = v
        .get("faults")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{what}: missing array field \"faults\""))?
        .iter()
        .map(|f| {
            let kind = req_str(f, "kind", what)?;
            let module = req_u64(f, "module", what)?;
            Ok(format!("{kind}(m{module})"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let row = RoundRow {
        round: req_u64(v, "round", what)?,
        h: req_u64(v, "h", what)?,
        max_work: req_u64(v, "max_work", what)?,
        messages: req_u64(v, "messages", what)?,
        work: req_u64(v, "work", what)?,
        per_module,
        faults,
    };
    if row.per_module.len() as u64 != p {
        return Err(format!(
            "{what}: {} per-module counts for p = {p}",
            row.per_module.len()
        ));
    }
    let max = row.per_module.iter().copied().max().unwrap_or(0);
    if row.h != max {
        return Err(format!(
            "{what}: h = {} but the busiest module has {max}",
            row.h
        ));
    }
    let sum = row
        .per_module
        .iter()
        .try_fold(0u64, |acc, &m| acc.checked_add(m));
    if sum != Some(row.messages) {
        return Err(format!(
            "{what}: messages = {} is not the sum of the per-module counts",
            row.messages
        ));
    }
    Ok(row)
}

fn event_row(v: &Json, what: &str) -> Result<EventRow, String> {
    let Json::Obj(pairs) = v else {
        return Err(format!("{what}: not an object"));
    };
    let mut fields = Vec::new();
    for (k, val) in pairs {
        if matches!(k.as_str(), "type" | "kind" | "tick" | "round") {
            continue;
        }
        let n = val
            .as_u64()
            .ok_or_else(|| format!("{what}: non-integer field {k:?}"))?;
        fields.push((k.clone(), n));
    }
    Ok(EventRow {
        kind: req_str(v, "kind", what)?,
        tick: req_u64(v, "tick", what)?,
        round: req_u64(v, "round", what)?,
        fields,
    })
}

/// Schema-check a Prometheus text exposition
/// (`TelemetrySnapshot::render_prometheus` output): every sample belongs
/// to a `# TYPE`-declared metric of a known kind, values are integers,
/// and every histogram carries its `le="+Inf"` bucket agreeing with its
/// `_count`.
pub fn validate_prometheus(input: &str) -> Result<(), String> {
    // (name, kind) in declaration order.
    let mut declared: Vec<(String, String)> = Vec::new();
    // Histogram bookkeeping: name -> (inf_bucket, count, last_cumulative).
    let mut hist: Vec<(String, Option<u64>, Option<u64>, u64)> = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let what = format!("line {}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("{what}: TYPE without name"))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("{what}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("{what}: unknown metric kind {kind:?}"));
            }
            declared.push((name.to_string(), kind.to_string()));
            if kind == "histogram" {
                hist.push((name.to_string(), None, None, 0));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal exposition
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("{what}: sample without value"))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("{what}: non-integer sample value {value:?}"))?;
        let base = series.split('{').next().unwrap_or(series);
        let owner = declared.iter().find(|(n, kind)| {
            base == n
                || (kind == "histogram"
                    && [
                        format!("{n}_bucket"),
                        format!("{n}_sum"),
                        format!("{n}_count"),
                    ]
                    .contains(&base.to_string()))
        });
        let Some((name, kind)) = owner else {
            return Err(format!("{what}: sample {base:?} has no # TYPE declaration"));
        };
        if kind == "histogram" {
            let h = hist
                .iter_mut()
                .find(|(n, ..)| n == name)
                .expect("declared histogram tracked");
            if base.ends_with("_bucket") {
                if h.3 > value {
                    return Err(format!("{what}: non-cumulative histogram bucket"));
                }
                h.3 = value;
                if series.contains("le=\"+Inf\"") {
                    h.1 = Some(value);
                }
            } else if base.ends_with("_count") {
                h.2 = Some(value);
            }
        }
    }
    for (name, inf, count, _) in &hist {
        let inf = inf.ok_or_else(|| format!("histogram {name:?}: missing le=\"+Inf\" bucket"))?;
        let count = count.ok_or_else(|| format!("histogram {name:?}: missing _count sample"))?;
        if inf != count {
            return Err(format!(
                "histogram {name:?}: +Inf bucket {inf} != count {count}"
            ));
        }
    }
    if declared.is_empty() {
        return Err("no # TYPE declarations (not a Prometheus exposition)".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Renderers. All return plain text tables; all are deterministic.
// ---------------------------------------------------------------------------

fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                // Left-align the label column.
                out.push_str(&format!("{:<w$}", cell, w = widths[i]));
            } else {
                out.push_str(&format!("{:>w$}", cell, w = widths[i]));
            }
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    fmt_row(&header_cells, &widths, &mut out);
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    fmt_row(&rule, &widths, &mut out);
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Per-phase cost breakdown: spans aggregated by full path (exclusive
/// stats summed, invocations counted), in first-appearance order.
pub fn render_phases(doc: &TraceDoc) -> String {
    if doc.spans.is_empty() {
        return "no spans in trace (probe was not enabled)\n".to_string();
    }
    let mut order: Vec<&str> = Vec::new();
    let mut agg: Vec<(u64, Vec<u64>)> = Vec::new(); // (count, stats by label)
    for s in &doc.spans {
        let idx = match order.iter().position(|&pth| pth == s.path) {
            Some(i) => i,
            None => {
                order.push(&s.path);
                agg.push((0, vec![0; STAT_LABELS.len()]));
                order.len() - 1
            }
        };
        agg[idx].0 += 1;
        for (j, &label) in STAT_LABELS.iter().enumerate() {
            if label == "shared_mem_peak" {
                agg[idx].1[j] = agg[idx].1[j].max(s.stat(label));
            } else {
                agg[idx].1[j] += s.stat(label);
            }
        }
    }
    let rows: Vec<Vec<String>> = order
        .iter()
        .zip(&agg)
        .map(|(path, (count, stats))| {
            let mut row = vec![path.to_string(), count.to_string()];
            row.extend(stats.iter().map(u64::to_string));
            row
        })
        .collect();
    let mut headers = vec!["phase", "calls"];
    headers.extend([
        "rounds", "io", "pim", "msgs", "work", "cpu_w", "cpu_d", "shmem", "retry", "recov",
    ]);
    let mut out = render_table(&headers, &rows);
    out.push_str(
        "\n(stats are exclusive: each row owns only the cost not claimed by a nested phase)\n",
    );
    out
}

/// h-profile: distribution of per-round h in powers of two, with total
/// IO time (Σh) and the share contributed by each bucket.
pub fn render_hprofile(doc: &TraceDoc) -> String {
    if doc.rounds.is_empty() {
        return "no rounds recorded\n".to_string();
    }
    // Bucket b holds h in [2^(b-1), 2^b); bucket 0 holds h = 0.
    let mut counts = [0u64; 65];
    let mut sums = [0u128; 65];
    for r in &doc.rounds {
        let b = 64 - r.h.leading_zeros() as usize;
        counts[b] += 1;
        sums[b] += u128::from(r.h);
    }
    let total_io: u128 = sums.iter().sum();
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut rows = Vec::new();
    for (b, (&c, &s)) in counts.iter().zip(&sums).enumerate() {
        if c == 0 {
            continue;
        }
        let label = if b == 0 {
            "0".to_string()
        } else {
            format!("{}..{}", 1u64 << (b - 1), u64::MAX >> (64 - b))
        };
        let bar = "#".repeat(((c * 40).div_ceil(max_count)) as usize);
        let share = (s * 100).checked_div(total_io).unwrap_or(0);
        rows.push(vec![
            label,
            c.to_string(),
            s.to_string(),
            format!("{share}%"),
            bar,
        ]);
    }
    let mut out = render_table(&["h", "rounds", "sum(h)", "io%", ""], &rows);
    out.push_str(&format!(
        "\n{} recorded rounds, io_time = {} ({} dropped by ring cap)\n",
        doc.rounds.len(),
        total_io,
        doc.dropped_rounds
    ));
    out
}

/// Module-imbalance heatmap: modules down, time (round buckets) across,
/// cell brightness = messages relative to the hottest cell; followed by
/// the per-module histogram summary table from the header.
pub fn render_heatmap(doc: &TraceDoc) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    const COLS: usize = 48;
    let p = doc.p as usize;
    if p == 0 {
        return "p = 0\n".to_string();
    }
    let mut out = String::new();
    if doc.rounds.is_empty() {
        out.push_str("no rounds recorded; heatmap unavailable\n");
    } else {
        let n = doc.rounds.len();
        let cols = COLS.min(n);
        let mut cells = vec![vec![0u64; cols]; p];
        for (i, r) in doc.rounds.iter().enumerate() {
            let c = i * cols / n;
            for (m, &v) in r.per_module.iter().enumerate().take(p) {
                cells[m][c] += v;
            }
        }
        let hottest = cells
            .iter()
            .flat_map(|row| row.iter().copied())
            .max()
            .unwrap_or(0)
            .max(1);
        out.push_str(&format!(
            "messages per module over {} rounds ({} columns, hottest cell = {})\n",
            n, cols, hottest
        ));
        for (m, row) in cells.iter().enumerate() {
            out.push_str(&format!("m{:<3} |", m));
            for &v in row {
                let shade = if v == 0 {
                    0
                } else {
                    // Scale 1..=max onto the non-blank shades.
                    1 + (v - 1) as usize * (SHADES.len() - 2) / hottest as usize
                };
                out.push(SHADES[shade.min(SHADES.len() - 1)] as char);
            }
            out.push_str("|\n");
        }
    }
    if !doc.modules.is_empty() {
        let rows: Vec<Vec<String>> = doc
            .modules
            .iter()
            .map(|m| {
                vec![
                    format!("m{}", m.module),
                    m.messages.sum.to_string(),
                    m.messages.max.to_string(),
                    m.messages.p50.to_string(),
                    m.messages.p95.to_string(),
                    m.work.sum.to_string(),
                    m.work.max.to_string(),
                    m.work.p50.to_string(),
                    m.work.p95.to_string(),
                ]
            })
            .collect();
        out.push('\n');
        out.push_str(&render_table(
            &[
                "module", "msgs", "msg_max", "msg_p50", "msg_p95", "work", "work_max", "work_p50",
                "work_p95",
            ],
            &rows,
        ));
        let sums: Vec<u64> = doc.modules.iter().map(|m| m.messages.sum).collect();
        let hot = sums.iter().copied().max().unwrap_or(0);
        let avg = sums.iter().sum::<u64>() / sums.len().max(1) as u64;
        out.push_str(&format!(
            "\nimbalance: hottest module carries {hot} messages vs mean {avg} ({}x)\n",
            if avg == 0 { 0 } else { hot.div_ceil(avg) }
        ));
    }
    out
}

/// Exact `q`-quantile of a sorted sample (rank `ceil(q·n)`; 0 when empty).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `pim-trace top` dashboard over a trace's events: request counts,
/// throughput, queue-depth sparkline, exact latency quantiles and, when
/// the trace recorded rounds, per-module heat, as of the last event.
pub fn render_top(doc: &TraceDoc) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    const COLS: u64 = 48;
    let now = doc.events.iter().map(|e| e.tick).max().unwrap_or(0);
    let view = &doc.events;

    let admitted = view.iter().filter(|e| e.kind == "admit").count() as u64;
    let dispatched = view.iter().filter(|e| e.kind == "coalesce").count() as u64;
    let completed = view
        .iter()
        .filter(|e| e.kind == "reply" || e.kind == "ack")
        .count() as u64;
    let batches = view.iter().filter(|e| e.kind == "execute").count() as u64;
    let batch_ops: u64 = view
        .iter()
        .filter(|e| e.kind == "execute")
        .filter_map(|e| e.field("n"))
        .sum();
    let machine_rounds: u64 = view
        .iter()
        .filter(|e| e.kind == "execute")
        .filter_map(|e| e.field("rounds"))
        .sum();

    let mut lat: Vec<u64> = view
        .iter()
        .filter(|e| e.kind == "reply" || e.kind == "ack")
        .filter_map(|e| e.field("latency_ticks"))
        .collect();
    lat.sort_unstable();

    // Queue depth = admissions so far − dispatches so far. It changes only
    // at the ticks of those events; the sparkline shows the last COLS
    // ticks, whatever the ticks' magnitude.
    let mut steps: Vec<(u64, i64)> = view
        .iter()
        .filter_map(|e| match e.kind.as_str() {
            "admit" => Some((e.tick, 1)),
            "coalesce" => Some((e.tick, -1)),
            _ => None,
        })
        .collect();
    steps.sort_by_key(|&(tick, _)| tick);
    let start = now.saturating_sub(COLS - 1);
    let mut window = vec![0u64; (now - start) as usize + 1];
    let (mut acc, mut peak) = (0i64, 0u64);
    for (i, &(tick, d)) in steps.iter().enumerate() {
        acc += d;
        let next = steps.get(i + 1).map(|&(t, _)| t);
        if next == Some(tick) {
            continue;
        }
        // The depth holds from this tick until the next step.
        let depth = acc.max(0) as u64;
        peak = peak.max(depth);
        let until = next.map_or(now, |t| t - 1);
        for t in tick.max(start)..=until {
            window[(t - start) as usize] = depth;
        }
    }
    let current = window.last().copied().unwrap_or(0);
    let spark: String = window
        .iter()
        .map(|&v| {
            let shade = if v == 0 || peak == 0 {
                0
            } else {
                1 + (v - 1) as usize * (SHADES.len() - 2) / peak as usize
            };
            SHADES[shade.min(SHADES.len() - 1)] as char
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "pim-trace top — tick {now}  ({} events{}{})\n",
        view.len(),
        if doc.dropped_events > 0 {
            ", DROPPED "
        } else {
            ""
        },
        if doc.dropped_events > 0 {
            doc.dropped_events.to_string()
        } else {
            String::new()
        },
    ));
    out.push_str(&format!(
        "requests   admitted {admitted}  dispatched {dispatched}  completed {completed}  in-flight {}\n",
        admitted.saturating_sub(completed)
    ));
    let per_tick = |n: u64| -> String {
        if now == 0 {
            "-".into()
        } else {
            format!("{:.2}", n as f64 / now as f64)
        }
    };
    out.push_str(&format!(
        "throughput {} req/tick  batches {batches}  mean occupancy {}  machine rounds {machine_rounds}\n",
        per_tick(completed),
        if batches == 0 {
            "-".into()
        } else {
            format!("{:.1}", batch_ops as f64 / batches as f64)
        },
    ));
    out.push_str(&format!(
        "latency    p50 {}  p99 {}  p999 {}  max {} ticks  ({} samples, exact)\n",
        exact_quantile(&lat, 0.50),
        exact_quantile(&lat, 0.99),
        exact_quantile(&lat, 0.999),
        lat.last().copied().unwrap_or(0),
        lat.len()
    ));
    out.push_str(&format!(
        "queue      |{spark}|  now {current}  peak {peak}\n"
    ));
    if !doc.rounds.is_empty() {
        let mut sums = vec![0u128; doc.p as usize];
        for round in &doc.rounds {
            for (m, &v) in round.per_module.iter().enumerate() {
                sums[m] += u128::from(v);
            }
        }
        let hottest = sums.iter().copied().max().unwrap_or(0).max(1);
        out.push_str(&format!(
            "module heat (messages over {} recorded rounds)\n",
            doc.rounds.len()
        ));
        for (m, &s) in sums.iter().enumerate() {
            let bar = "#".repeat(((s * 32).div_ceil(hottest)) as usize);
            out.push_str(&format!("  m{m:<3} {bar:<32} {s}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jsonl() -> String {
        concat!(
            r#"{"type":"header","version":2,"p":2,"dropped_rounds":0,"recorded_rounds":2,"events":0,"dropped_events":0,"#,
            r#""spans":[{"id":0,"parent":null,"name":"run","path":"run","depth":0,"start_round":0,"end_round":2,"rounds":1,"io_time":1,"pim_time":1,"messages":1,"work":1,"cpu_work":0,"cpu_depth":0,"shared_mem_peak":4,"retries":0,"recovery_rounds":0},"#,
            r#"{"id":1,"parent":0,"name":"get","path":"run > get","depth":1,"start_round":0,"end_round":1,"rounds":1,"io_time":3,"pim_time":2,"messages":5,"work":4,"cpu_work":7,"cpu_depth":2,"shared_mem_peak":8,"retries":0,"recovery_rounds":0}],"#,
            r#""modules":[{"module":0,"messages":{"count":2,"sum":3,"max":2,"p50":1,"p95":2},"work":{"count":2,"sum":4,"max":3,"p50":1,"p95":3}},"#,
            r#"{"module":1,"messages":{"count":2,"sum":5,"max":4,"p50":1,"p95":4},"work":{"count":2,"sum":2,"max":1,"p50":1,"p95":1}}]}"#,
            "\n",
            r#"{"type":"round","round":0,"h":2,"max_work":3,"messages":3,"work":4,"per_module":[2,1],"faults":[]}"#,
            "\n",
            r#"{"type":"round","round":1,"h":4,"max_work":1,"messages":5,"work":2,"per_module":[1,4],"faults":[{"kind":"slow","module":1,"factor":3}]}"#,
            "\n",
        )
        .to_string()
    }

    #[test]
    fn completeness_warning_flags_dropped_rounds() {
        let complete = parse_jsonl(&sample_jsonl()).unwrap();
        assert_eq!(completeness_warning(&complete), None);
        let partial = sample_jsonl().replace("\"dropped_rounds\":0", "\"dropped_rounds\":7");
        let doc = parse_jsonl(&partial).unwrap();
        let w = completeness_warning(&doc).expect("lossy trace must warn");
        assert!(w.contains("7 round(s)"));
        assert!(w.contains("2 recorded"));
    }

    #[test]
    fn parses_sample_document() {
        let doc = parse_jsonl(&sample_jsonl()).unwrap();
        assert_eq!(doc.p, 2);
        assert_eq!(doc.spans.len(), 2);
        assert_eq!(doc.spans[1].path, "run > get");
        assert_eq!(doc.spans[1].stat("io_time"), 3);
        assert_eq!(doc.rounds.len(), 2);
        assert_eq!(doc.rounds[1].faults, vec!["slow(m1)".to_string()]);
        assert_eq!(doc.modules[1].messages.sum, 5);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"type\":\"round\"}\n").is_err());
        // Header round count must match the body.
        let short = sample_jsonl()
            .lines()
            .take(2)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(parse_jsonl(&short).is_err());
        // A span missing a stat field is a schema error.
        let broken = sample_jsonl().replace("\"io_time\":3,", "");
        assert!(parse_jsonl(&broken).is_err());
    }

    #[test]
    fn a_round_line_must_agree_with_itself_and_the_header() {
        let round = r#""h":2,"max_work":3,"messages":3,"work":4,"per_module":[2,1]"#;
        for (bad, why) in [
            (
                r#""h":2,"max_work":3,"messages":2,"work":4,"per_module":[2]"#,
                "counts",
            ),
            (
                r#""h":9,"max_work":3,"messages":3,"work":4,"per_module":[2,1]"#,
                "busiest",
            ),
            (
                r#""h":2,"max_work":3,"messages":4,"work":4,"per_module":[2,1]"#,
                "sum",
            ),
        ] {
            let doc = sample_jsonl().replace(round, bad);
            let err = parse_jsonl(&doc).unwrap_err();
            assert!(err.starts_with("line 2: ") && err.contains(why), "{err}");
        }
        // `p = 4` with one lane, `h = 9` and one message.
        let doc = sample_jsonl().replace("\"p\":2", "\"p\":4").replace(
            round,
            r#""h":9,"max_work":3,"messages":1,"work":4,"per_module":[1]"#,
        );
        assert!(parse_jsonl(&doc).is_err());
        // Lanes whose sum overflows `u64` cannot match any `messages`.
        let huge = format!(
            r#""h":{m},"max_work":3,"messages":{m},"work":4,"per_module":[{m},1]"#,
            m = u64::MAX
        );
        let err = parse_jsonl(&sample_jsonl().replace(round, &huge)).unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn phases_table_lists_each_path_once() {
        let doc = parse_jsonl(&sample_jsonl()).unwrap();
        let out = render_phases(&doc);
        assert!(out.contains("run > get"));
        assert_eq!(out.matches("run > get").count(), 1);
        assert!(out.contains("phase"));
    }

    #[test]
    fn hprofile_covers_all_rounds() {
        let doc = parse_jsonl(&sample_jsonl()).unwrap();
        let out = render_hprofile(&doc);
        assert!(out.contains("2 recorded rounds"));
        assert!(out.contains("io_time = 6"));
    }

    #[test]
    fn hprofile_labels_each_bucket_by_its_own_range() {
        let mut doc = parse_jsonl(&sample_jsonl()).unwrap();
        let template = doc.rounds[0].clone();
        doc.rounds = [0, 1, 2, 9, u64::MAX]
            .into_iter()
            .map(|h| RoundRow {
                h,
                ..template.clone()
            })
            .collect();
        let out = render_hprofile(&doc);
        let labels: Vec<&str> = out
            .lines()
            .skip(2)
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(
            labels,
            [
                "0",
                "1..1",
                "2..3",
                "8..15",
                "9223372036854775808..18446744073709551615"
            ]
        );
        assert!(out.contains("io_time = 18446744073709551627"), "{out}");
    }

    #[test]
    fn heatmap_has_one_row_per_module() {
        let doc = parse_jsonl(&sample_jsonl()).unwrap();
        let out = render_heatmap(&doc);
        assert!(out.contains("m0"));
        assert!(out.contains("m1"));
        assert!(out.contains("imbalance"));
    }

    /// [`sample_jsonl`] with six events after its rounds.
    fn sample_events() -> String {
        sample_jsonl().replace("\"events\":0", "\"events\":6")
            + concat!(
                r#"{"type":"event","kind":"admit","tick":1,"round":0,"id":0}"#,
                "\n",
                r#"{"type":"event","kind":"admit","tick":1,"round":0,"id":1}"#,
                "\n",
                r#"{"type":"event","kind":"coalesce","tick":2,"round":0,"id":0,"batch":0,"pos":0}"#,
                "\n",
                r#"{"type":"event","kind":"coalesce","tick":2,"round":0,"id":1,"batch":0,"pos":1}"#,
                "\n",
                r#"{"type":"event","kind":"execute","tick":2,"round":9,"batch":0,"n":2,"rounds":9}"#,
                "\n",
                r#"{"type":"event","kind":"reply","tick":2,"round":9,"id":0,"latency_ticks":1,"latency_rounds":9}"#,
                "\n",
            )
    }

    #[test]
    fn parses_event_log() {
        let doc = parse_jsonl(&sample_events()).unwrap();
        assert_eq!(doc.rounds.len(), 2);
        assert_eq!(doc.events.len(), 6);
        assert_eq!(doc.dropped_events, 0);
        assert_eq!(doc.events[0].kind, "admit");
        assert_eq!(doc.events[4].field("n"), Some(2));
        assert_eq!(completeness_warning(&doc), None);
        let lossy = sample_events().replace("\"dropped_events\":0", "\"dropped_events\":5");
        let doc = parse_jsonl(&lossy).unwrap();
        assert!(completeness_warning(&doc).unwrap().contains("5 event(s)"));
    }

    #[test]
    fn event_fields_past_2_pow_53_read_back_exactly() {
        let big = (1u64 << 53) + 1;
        let mut t = pim_runtime::Telemetry::new();
        t.emit(
            "ack",
            u64::MAX,
            big,
            &[("id", u64::MAX), ("latency_rounds", big)],
        );
        let log = pim_runtime::rounds_jsonl(&pim_runtime::ExportBundle {
            p: 0,
            trace: &pim_runtime::Trace::default(),
            report: None,
            events: Some(&t),
        });
        assert!(log.contains(r#""id":18446744073709551615,"latency_rounds":9007199254740993"#));
        let row = &parse_jsonl(&log).unwrap().events[0];
        assert_eq!((row.tick, row.round), (u64::MAX, big));
        assert_eq!(row.field("id"), Some(u64::MAX));
        assert_eq!(row.field("latency_rounds"), Some(big));
    }

    #[test]
    fn rejects_bad_event_logs() {
        // Count mismatch with the header.
        let log = sample_events();
        let lines: Vec<&str> = log.lines().collect();
        assert!(parse_jsonl(&lines[..lines.len() - 1].join("\n")).is_err());
        // Rounds come before the events.
        let mut swapped = lines.clone();
        swapped.swap(2, 3);
        let err = parse_jsonl(&swapped.join("\n")).unwrap_err();
        assert!(err.contains("round line after the events"), "{err}");
        // An event field must be an integer.
        let bad = sample_events().replace("\"pos\":1", "\"pos\":\"x\"");
        assert!(parse_jsonl(&bad).is_err());
    }

    #[test]
    fn prometheus_validation() {
        let good = concat!(
            "# TYPE pim_ops_total counter\n",
            "pim_ops_total{op=\"get\"} 3\n",
            "pim_ops_total{op=\"upsert\"} 2\n",
            "# TYPE pim_lat histogram\n",
            "pim_lat_bucket{le=\"1\"} 1\n",
            "pim_lat_bucket{le=\"+Inf\"} 2\n",
            "pim_lat_sum 6\n",
            "pim_lat_count 2\n",
        );
        assert_eq!(validate_prometheus(good), Ok(()));
        assert!(validate_prometheus("pim_undeclared 1\n").is_err());
        assert!(validate_prometheus("").is_err());
        let no_inf = "# TYPE pim_lat histogram\npim_lat_bucket{le=\"1\"} 1\npim_lat_sum 1\npim_lat_count 1\n";
        assert!(validate_prometheus(no_inf).unwrap_err().contains("+Inf"));
        let mismatch = good.replace("pim_lat_count 2", "pim_lat_count 3");
        assert!(validate_prometheus(&mismatch)
            .unwrap_err()
            .contains("!= count"));
    }

    #[test]
    fn top_renders_the_dashboard() {
        let doc = parse_jsonl(&sample_events()).unwrap();
        let out = render_top(&doc);
        assert!(out.contains("admitted 2"));
        assert!(out.contains("completed 1"));
        assert!(out.contains("in-flight 1"));
        assert!(out.contains("batches 1"));
        assert!(out.contains("p50 1"));
        assert!(out.contains("machine rounds 9"));
        assert!(out.contains("|  now 0  peak 2"));
        // Module heat comes from the trace's rounds.
        assert!(out.contains("module heat"));
        assert!(out.contains("m1"));
    }

    #[test]
    fn top_survives_the_largest_tick() {
        let lines: Vec<String> = sample_events()
            .replace("\"events\":6", "\"events\":1")
            .lines()
            .take(3)
            .map(String::from)
            .chain([format!(
                r#"{{"type":"event","kind":"admit","tick":{},"round":0,"id":0}}"#,
                u64::MAX
            )])
            .collect();
        let doc = parse_jsonl(&lines.join("\n")).unwrap();
        assert_eq!(completeness_warning(&doc), None);
        let out = render_top(&doc);
        assert!(out.contains(&format!("tick {}", u64::MAX)), "{out}");
        assert!(
            out.contains(&format!("|{}.|  now 1  peak 1", " ".repeat(47))),
            "{out}"
        );
    }
}
