//! Always-on metrics registry and request-lifecycle event log.
//!
//! The span/trace layer ([`crate::span`], [`crate::trace`]) answers
//! *offline* questions — where did one instrumented run spend its cost.
//! A server needs *continuous* observability: counters that accumulate
//! across the whole process lifetime, gauges sampled every tick, latency
//! histograms, and a structured log of per-request lifecycle events. This
//! module is that layer, with the same two contracts as every other
//! observer in the runtime:
//!
//! * **Deterministic in the tick/round domain.** Nothing here reads a
//!   wall clock or iterates a hash map: metric identity is an ordered
//!   `(name, labels)` list, events are stamped with the service tick and
//!   machine round, and every rendered artifact (the Prometheus
//!   exposition of [`TelemetrySnapshot::render_prometheus`] and the event
//!   lines of the JSONL trace, [`crate::export::rounds_jsonl`]) is
//!   byte-identical across `PIM_THREADS` settings.
//! * **Zero overhead when dark.** The registry is owned behind an
//!   `Option` by whoever publishes into it; a structure that never
//!   enabled telemetry pays exactly one `is_some` branch per batch.
//!
//! ## Registry shape
//!
//! Metrics are registered once — [`Telemetry::counter`],
//! [`Telemetry::gauge`], [`Telemetry::histogram`] return stable integer
//! handles, idempotently per `(name, labels)` — and updated through the
//! handle at `O(1)` with no allocation. Histograms reuse the power-of-two
//! [`Histogram`], so the Prometheus exposition's `le` boundaries are the
//! same log2 buckets every other exporter in the workspace uses.
//!
//! The event log is bounded ([`Telemetry::with_max_events`]): at the cap
//! it is a ring that keeps the newest events and counts each eviction in
//! `dropped_events`, which every exporter stamps (the same rule as the
//! round trace's `dropped_rounds`). It stores each event as a handful of
//! varints in 64 KiB byte chunks (about 8 bytes per event on the
//! `service` stream, where a fixed record took 72), so a full
//! default-capped ring holds about 8 MiB; [`Telemetry::events`] decodes
//! them back in order.

use std::collections::VecDeque;

use crate::histogram::Histogram;

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (a sampled instantaneous value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// One named series: a metric name plus its ordered label set.
#[derive(Debug, Clone)]
struct Series<T> {
    name: String,
    labels: Vec<(String, String)>,
    value: T,
}

/// Most extra fields one event carries.
const MAX_FIELDS: usize = 4;

/// Bytes per chunk of the event log.
const CHUNK_BYTES: usize = 1 << 16;

/// Longest encoding of one event: a schema index, two clock deltas and
/// `MAX_FIELDS` values, each a varint of at most 10 bytes.
const MAX_EVENT_BYTES: usize = 10 * (3 + MAX_FIELDS);

/// One event shape: its kind and the names of its fields, in order.
#[derive(Debug, Clone)]
struct Schema {
    kind: &'static str,
    names: Vec<&'static str>,
}

/// A read position in the log plus the `(tick, round)` of the event just
/// before it, the base the next event's clock deltas decode against.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    chunk: usize,
    at: usize,
    tick: u64,
    round: u64,
}

/// The event log: a ring of compactly encoded events in fixed-size byte
/// chunks. An event is its schema index, then the zigzag deltas of `tick`
/// and `round` from the previous event (clocks that go backwards still
/// encode), then each field value, all LEB128 varints. The `service`
/// stream averages about 8 bytes per event. An event never spans two
/// chunks; a chunk emptied at the front is cleared and reused at the back.
#[derive(Debug, Clone, Default)]
struct EventLog {
    /// Every event shape emitted so far, in order of first use.
    schemas: Vec<Schema>,
    /// The encoded events, oldest first. Only the last chunk has room.
    chunks: VecDeque<Vec<u8>>,
    /// Cleared chunks waiting to be reused at the back.
    spare: Vec<Vec<u8>>,
    /// The oldest event, always in `chunks[0]`.
    head: Cursor,
    /// `(tick, round)` of the newest event, the base of the next one.
    tail: (u64, u64),
    len: usize,
}

fn put_varint(buf: &mut [u8], at: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*at] = v as u8 | 0x80;
        v >>= 7;
        *at += 1;
    }
    buf[*at] = v as u8;
    *at += 1;
}

fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
    }
    v
}

/// The wrapping difference `to - from` as a zigzag code: small steps
/// either way take one byte.
fn zigzag(from: u64, to: u64) -> u64 {
    let d = to.wrapping_sub(from) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(from: u64, z: u64) -> u64 {
    from.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

impl EventLog {
    fn push(&mut self, kind: &'static str, tick: u64, round: u64, fields: &[(&'static str, u64)]) {
        let same = |s: &Schema| {
            s.kind == kind
                && s.names.len() == fields.len()
                && s.names.iter().zip(fields).all(|(a, (b, _))| a == b)
        };
        let schema = self.schemas.iter().position(same).unwrap_or_else(|| {
            let names = fields.iter().map(|&(name, _)| name).collect();
            self.schemas.push(Schema { kind, names });
            self.schemas.len() - 1
        });
        let (mut buf, mut n) = ([0u8; MAX_EVENT_BYTES], 0);
        put_varint(&mut buf, &mut n, schema as u64);
        put_varint(&mut buf, &mut n, zigzag(self.tail.0, tick));
        put_varint(&mut buf, &mut n, zigzag(self.tail.1, round));
        for &(_, value) in fields {
            put_varint(&mut buf, &mut n, value);
        }
        if self.chunks.back().is_none_or(|c| c.len() + n > CHUNK_BYTES) {
            let chunk = self.spare.pop();
            self.chunks
                .push_back(chunk.unwrap_or_else(|| Vec::with_capacity(CHUNK_BYTES)));
        }
        self.chunks
            .back_mut()
            .expect("a chunk with room")
            .extend_from_slice(&buf[..n]);
        self.tail = (tick, round);
        self.len += 1;
    }

    /// Decode the event at `cur` and step past it, making it the base.
    fn decode(&self, cur: &mut Cursor) -> TelemetryEvent {
        if cur.at == self.chunks[cur.chunk].len() {
            (cur.chunk, cur.at) = (cur.chunk + 1, 0);
        }
        let bytes = &self.chunks[cur.chunk];
        let schema = &self.schemas[get_varint(bytes, &mut cur.at) as usize];
        cur.tick = unzigzag(cur.tick, get_varint(bytes, &mut cur.at));
        cur.round = unzigzag(cur.round, get_varint(bytes, &mut cur.at));
        let mut fields = [("", 0); MAX_FIELDS];
        for (slot, &name) in fields.iter_mut().zip(&schema.names) {
            *slot = (name, get_varint(bytes, &mut cur.at));
        }
        TelemetryEvent {
            kind: schema.kind,
            tick: cur.tick,
            round: cur.round,
            fields,
            len: schema.names.len(),
        }
    }

    /// Evict the oldest event; `false` when the log is empty.
    fn pop_front(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        let mut head = self.head;
        self.decode(&mut head);
        self.head = head;
        self.len -= 1;
        if self.head.at == self.chunks[0].len() {
            let mut drained = self.chunks.pop_front().expect("the oldest event's chunk");
            drained.clear();
            self.spare.push(drained);
            self.head.at = 0;
        }
        true
    }

    /// Keep one cleared chunk in reserve. A full ring's bytes can straddle
    /// one chunk more than filling it took, so with the reserve a steady
    /// stream at the cap never allocates.
    fn reserve_chunk(&mut self) {
        if self.spare.is_empty() {
            self.spare.push(Vec::with_capacity(CHUNK_BYTES));
        }
    }

    /// The events oldest first, decoded.
    fn iter(&self) -> impl ExactSizeIterator<Item = TelemetryEvent> + '_ {
        let mut cur = self.head;
        (0..self.len).map(move |_| self.decode(&mut cur))
    }
}

/// One structured lifecycle event, stamped in the deterministic clocks
/// (service tick + machine round — never wall time), as
/// [`Telemetry::events`] decodes it from the log.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryEvent {
    /// Event kind (`"admit"`, `"coalesce"`, `"execute"`, `"reply"`,
    /// `"ack"`, …).
    pub kind: &'static str,
    /// Service tick the event occurred on (0 outside a service).
    pub tick: u64,
    /// Machine round counter at the event.
    pub round: u64,
    fields: [(&'static str, u64); MAX_FIELDS],
    len: usize,
}

impl TelemetryEvent {
    /// The extra integer fields in emission order, e.g. `("id", request_id)`.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.fields[..self.len].iter().copied()
    }

    /// Look up one extra field by name.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields().find(|(k, _)| *k == name).map(|(_, v)| v)
    }
}

/// Default bound on the retained event log.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// The metrics registry + event log. See the module docs.
#[derive(Debug, Clone)]
pub struct Telemetry {
    counters: Vec<Series<u64>>,
    gauges: Vec<Series<u64>>,
    hists: Vec<Series<Histogram>>,
    events: EventLog,
    max_events: usize,
    dropped_events: u64,
    /// Labels prepended to every series registered in this registry (the
    /// cluster tier stamps `shard="i"` here so per-shard registries stay
    /// distinguishable after a merge). Registration calls pass only their
    /// own labels; the base is invisible to handle-based updates.
    base_labels: Vec<(String, String)>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            events: EventLog::default(),
            max_events: DEFAULT_MAX_EVENTS,
            dropped_events: 0,
            base_labels: Vec::new(),
        }
    }
}

impl Telemetry {
    /// An empty registry with the default event cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the event-log bound (the newest `cap` events are kept,
    /// evictions counted).
    pub fn with_max_events(mut self, cap: usize) -> Self {
        self.max_events = cap;
        self
    }

    /// Prepend `labels` to every series registered from now on (normally
    /// set before any registration — e.g. `shard="3"` on a cluster
    /// shard's registry, so its series keep their identity when merged
    /// into a cluster-wide exposition).
    pub fn with_base_labels(mut self, labels: &[(&str, &str)]) -> Self {
        self.base_labels = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self
    }

    /// The labels every registered series carries (empty by default).
    pub fn base_labels(&self) -> &[(String, String)] {
        &self.base_labels
    }

    fn find_or_insert<T>(
        all: &mut Vec<Series<T>>,
        base: &[(String, String)],
        name: &str,
        labels: &[(&str, &str)],
        fresh: T,
    ) -> usize {
        let matches = |s: &Series<T>| {
            s.name == name
                && s.labels.len() == base.len() + labels.len()
                && s.labels[..base.len()] == *base
                && s.labels[base.len()..]
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        };
        if let Some(i) = all.iter().position(matches) {
            return i;
        }
        let mut full: Vec<(String, String)> = base.to_vec();
        full.extend(labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())));
        all.push(Series {
            name: name.to_string(),
            labels: full,
            value: fresh,
        });
        all.len() - 1
    }

    /// Register (or look up) the counter `name{labels}`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(Self::find_or_insert(
            &mut self.counters,
            &self.base_labels,
            name,
            labels,
            0,
        ))
    }

    /// Register (or look up) the gauge `name{labels}`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(Self::find_or_insert(
            &mut self.gauges,
            &self.base_labels,
            name,
            labels,
            0,
        ))
    }

    /// Register (or look up) the histogram `name{labels}`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistId {
        HistId(Self::find_or_insert(
            &mut self.hists,
            &self.base_labels,
            name,
            labels,
            Histogram::new(),
        ))
    }

    /// Add `v` to a counter.
    pub fn add(&mut self, id: CounterId, v: u64) {
        self.counters[id.0].value += v;
    }

    /// Publish an externally maintained monotonic total into a counter
    /// (used by sources that keep their own running counts, e.g. the
    /// durable layer's fsync total). Never moves the counter backwards.
    pub fn store(&mut self, id: CounterId, total: u64) {
        let c = &mut self.counters[id.0];
        c.value = c.value.max(total);
    }

    /// Set a gauge to its current value.
    pub fn set(&mut self, id: GaugeId, v: u64) {
        self.gauges[id.0].value = v;
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].value.record(v);
    }

    /// Current value of a counter (tests and dashboards).
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0].value
    }

    /// The histogram behind a handle.
    pub fn histogram_value(&self, id: HistId) -> &Histogram {
        &self.hists[id.0].value
    }

    /// Append one lifecycle event of at most four `fields`; at the cap the
    /// oldest one is evicted and counted.
    pub fn emit(
        &mut self,
        kind: &'static str,
        tick: u64,
        round: u64,
        fields: &[(&'static str, u64)],
    ) {
        debug_assert!(fields.len() <= MAX_FIELDS, "{kind}: {fields:?}");
        if self.events.len >= self.max_events {
            self.dropped_events += 1;
            if !self.events.pop_front() {
                return; // a cap of zero keeps nothing
            }
        }
        let fields = &fields[..fields.len().min(MAX_FIELDS)];
        self.events.push(kind, tick, round, fields);
        if self.dropped_events == 0 && self.events.len == self.max_events {
            self.events.reserve_chunk();
        }
    }

    /// The retained events, in emission order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = TelemetryEvent> + '_ {
        self.events.iter()
    }

    /// Events evicted by the cap.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Freeze the registry into a render-ready snapshot (sorted by
    /// `(name, labels)` so the exposition is independent of registration
    /// order). The snapshot stamps the event-log truncation as its own
    /// metric pair (`pim_telemetry_events` / `pim_telemetry_dropped_events`)
    /// so a Prometheus scrape is as truncation-honest as the JSONL trace.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters = self.counters.clone();
        counters.push(Series {
            name: "pim_telemetry_events".to_string(),
            labels: self.base_labels.clone(),
            value: self.events.len as u64,
        });
        counters.push(Series {
            name: "pim_telemetry_dropped_events".to_string(),
            labels: self.base_labels.clone(),
            value: self.dropped_events,
        });
        let mut gauges = self.gauges.clone();
        let mut hists = self.hists.clone();
        fn key<T>(s: &Series<T>) -> (String, Vec<(String, String)>) {
            (s.name.clone(), s.labels.clone())
        }
        counters.sort_by_key(key);
        gauges.sort_by_key(key);
        hists.sort_by_key(key);
        TelemetrySnapshot {
            counters,
            gauges,
            hists,
        }
    }
}

fn lookup<'a, T>(series: &'a [Series<T>], name: &str, labels: &[(&str, &str)]) -> Option<&'a T> {
    series
        .iter()
        .find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
        .map(|s| &s.value)
}

/// A frozen, sorted view of the registry, ready to render.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    counters: Vec<Series<u64>>,
    gauges: Vec<Series<u64>>,
    hists: Vec<Series<Histogram>>,
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

fn write_type_once(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        out.push_str("# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        last.clear();
        last.push_str(name);
    }
}

impl TelemetrySnapshot {
    /// Merge several snapshots into one sorted view — the cluster tier's
    /// exposition path: each shard's registry snapshots independently
    /// (its series carry a `shard="i"` base label, so nothing collides)
    /// and the merged snapshot renders as a single scrape target.
    /// Identical `(name, labels)` series coming from different parts are
    /// kept side by side, not summed; give parts distinct base labels.
    pub fn merged(parts: impl IntoIterator<Item = TelemetrySnapshot>) -> TelemetrySnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for p in parts {
            counters.extend(p.counters);
            gauges.extend(p.gauges);
            hists.extend(p.hists);
        }
        fn key<T>(s: &Series<T>) -> (String, Vec<(String, String)>) {
            (s.name.clone(), s.labels.clone())
        }
        counters.sort_by_key(key);
        gauges.sort_by_key(key);
        hists.sort_by_key(key);
        TelemetrySnapshot {
            counters,
            gauges,
            hists,
        }
    }

    /// Value of the counter with exactly this name and label set.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        lookup(&self.counters, name, labels).copied()
    }

    /// Value of the gauge with exactly this name and label set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        lookup(&self.gauges, name, labels).copied()
    }

    /// The histogram with exactly this name and label set.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        lookup(&self.hists, name, labels)
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4). File- or callback-based — no sockets: write the
    /// returned string wherever a scraper can read it. Histograms render
    /// as cumulative `_bucket{le=…}` series over the log2 bucket bounds,
    /// plus `_sum` and `_count`. Deterministic byte for byte.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last = String::new();
        for s in &self.counters {
            write_type_once(&mut out, &mut last, &s.name, "counter");
            out.push_str(&s.name);
            write_labels(&mut out, &s.labels, None);
            out.push_str(&format!(" {}\n", s.value));
        }
        for s in &self.gauges {
            write_type_once(&mut out, &mut last, &s.name, "gauge");
            out.push_str(&s.name);
            write_labels(&mut out, &s.labels, None);
            out.push_str(&format!(" {}\n", s.value));
        }
        for s in &self.hists {
            write_type_once(&mut out, &mut last, &s.name, "histogram");
            let mut cum = 0u64;
            for b in s.value.buckets() {
                cum += b.count;
                out.push_str(&s.name);
                out.push_str("_bucket");
                write_labels(&mut out, &s.labels, Some(("le", &b.upper.to_string())));
                out.push_str(&format!(" {cum}\n"));
            }
            out.push_str(&s.name);
            out.push_str("_bucket");
            write_labels(&mut out, &s.labels, Some(("le", "+Inf")));
            out.push_str(&format!(" {}\n", s.value.count()));
            out.push_str(&s.name);
            out.push_str("_sum");
            write_labels(&mut out, &s.labels, None);
            out.push_str(&format!(" {}\n", s.value.sum()));
            out.push_str(&s.name);
            out.push_str("_count");
            write_labels(&mut out, &s.labels, None);
            out.push_str(&format!(" {}\n", s.value.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{rounds_jsonl, ExportBundle};
    use crate::trace::Trace;

    /// The JSONL trace of `t`'s events over a run with no recorded rounds.
    fn events_trace(t: &Telemetry) -> String {
        rounds_jsonl(&ExportBundle {
            p: 0,
            trace: &Trace::default(),
            report: None,
            events: Some(t),
        })
    }

    #[test]
    fn registration_is_idempotent_and_handles_are_stable() {
        let mut t = Telemetry::new();
        let a = t.counter("pim_ops_total", &[("op", "get")]);
        let b = t.counter("pim_ops_total", &[("op", "upsert")]);
        let a2 = t.counter("pim_ops_total", &[("op", "get")]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        t.add(a, 3);
        t.add(a2, 2);
        t.add(b, 7);
        assert_eq!(t.counter_value(a), 5);
        assert_eq!(t.counter_value(b), 7);
    }

    #[test]
    fn store_never_regresses_a_counter() {
        let mut t = Telemetry::new();
        let c = t.counter("pim_wal_fsyncs_total", &[]);
        t.store(c, 9);
        t.store(c, 4);
        assert_eq!(t.counter_value(c), 9);
    }

    #[test]
    fn gauges_and_histograms_update_through_handles() {
        let mut t = Telemetry::new();
        let g = t.gauge("pim_service_queue_depth", &[]);
        let h = t.histogram("pim_service_latency_ticks", &[]);
        t.set(g, 11);
        t.set(g, 4);
        t.observe(h, 3);
        t.observe(h, 100);
        assert_eq!(t.gauge_value(g), 4);
        assert_eq!(t.histogram_value(h).count(), 2);
        assert_eq!(t.histogram_value(h).max(), 100);
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let (cap, extra) = (5usize, 3u64);
        let mut t = Telemetry::new().with_max_events(cap);
        for id in 0..cap as u64 + extra {
            t.emit("admit", id / 2, 0, &[("id", id)]);
        }
        assert_eq!(t.dropped_events(), extra);
        let kept: Vec<Option<u64>> = t.events().map(|e| e.field("id")).collect();
        let want: Vec<Option<u64>> = (extra..cap as u64 + extra).map(Some).collect();
        assert_eq!(kept, want, "the last `cap` events, oldest first");
        let log = events_trace(&t);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1 + cap);
        assert!(lines[0].contains("\"events\":5,\"dropped_events\":3"));
        assert!(lines[1].contains("\"kind\":\"admit\"") && lines[1].contains("\"id\":3"));
        assert!(lines[cap].contains("\"id\":7"));
    }

    /// Bytes the log holds for its retained events.
    fn retained_bytes(t: &Telemetry) -> usize {
        let log = &t.events;
        log.chunks.iter().map(Vec::len).sum::<usize>() - log.head.at
    }

    /// Request `i` of a coalescing service's lifecycle, eight per batch:
    /// `admit`, `coalesce`, the batch's `execute` and `ack`.
    fn emit_service_request(t: &mut Telemetry, i: u64) {
        let (tick, round, batch) = (i / 8, 3 * i, i / 8);
        t.emit("admit", tick, round, &[("id", i)]);
        t.emit(
            "coalesce",
            tick + 1,
            round,
            &[("id", i), ("batch", batch), ("pos", i % 8)],
        );
        if i % 8 == 7 {
            t.emit(
                "execute",
                tick + 1,
                round + 40,
                &[("batch", batch), ("n", 8), ("rounds", 40)],
            );
        }
        let ack = [
            ("id", i),
            ("held_ticks", 0),
            ("latency_ticks", 2),
            ("latency_rounds", 40),
        ];
        t.emit("ack", tick + 2, round + 40, &ack);
    }

    #[test]
    fn events_are_compact_and_render_their_fields_in_order() {
        let mut t = Telemetry::new();
        for i in 0..100_000 {
            emit_service_request(&mut t, i);
        }
        let per_event = retained_bytes(&t) as f64 / t.events().len() as f64;
        assert!(per_event <= 12.0, "{per_event:.1} bytes per event");

        let mut t = Telemetry::new();
        t.emit("admit", 1, 2, &[("id", 7)]);
        t.emit(
            "ack",
            3,
            4,
            &[
                ("latency_ticks", 5),
                ("id", 7),
                ("held_ticks", 0),
                ("latency_rounds", 1 << 40),
            ],
        );
        t.emit("tick", 5, 6, &[]);
        let ack = t.events().nth(1).unwrap();
        assert_eq!((ack.kind, ack.tick, ack.round), ("ack", 3, 4));
        assert_eq!(ack.field("id"), Some(7));
        assert_eq!(ack.field("latency_rounds"), Some(1 << 40));
        assert_eq!(ack.field("synced_seq"), None);
        let log = events_trace(&t);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(
            lines[1],
            r#"{"type":"event","kind":"admit","tick":1,"round":2,"id":7}"#
        );
        assert!(lines[2].ends_with(
            r#""round":4,"latency_ticks":5,"id":7,"held_ticks":0,"latency_rounds":1099511627776}"#
        ));
        assert_eq!(
            lines[3],
            r#"{"type":"event","kind":"tick","tick":5,"round":6}"#
        );
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_stamped() {
        let mut t = Telemetry::new();
        let b = t.counter("pim_zzz_total", &[]);
        let a = t.counter("pim_aaa_total", &[("op", "get")]);
        t.add(a, 1);
        t.add(b, 2);
        let h = t.histogram("pim_lat", &[]);
        t.observe(h, 1);
        t.observe(h, 5);
        let text = t.snapshot().render_prometheus();
        let aaa = text.find("pim_aaa_total{op=\"get\"} 1").unwrap();
        let zzz = text.find("pim_zzz_total 2").unwrap();
        assert!(aaa < zzz, "sorted by name");
        assert!(text.contains("# TYPE pim_aaa_total counter"));
        assert!(text.contains("pim_telemetry_dropped_events 0"));
        assert!(text.contains("pim_lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("pim_lat_bucket{le=\"7\"} 2"));
        assert!(text.contains("pim_lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pim_lat_sum 6"));
        assert!(text.contains("pim_lat_count 2"));
    }

    #[test]
    fn snapshot_is_registration_order_independent() {
        let mut x = Telemetry::new();
        let xa = x.counter("pim_a", &[]);
        let xb = x.counter("pim_b", &[]);
        x.add(xa, 1);
        x.add(xb, 2);
        let mut y = Telemetry::new();
        let yb = y.counter("pim_b", &[]);
        let ya = y.counter("pim_a", &[]);
        y.add(yb, 2);
        y.add(ya, 1);
        assert_eq!(
            x.snapshot().render_prometheus(),
            y.snapshot().render_prometheus()
        );
    }

    #[test]
    fn base_labels_stamp_every_series() {
        let mut t = Telemetry::new().with_base_labels(&[("shard", "3")]);
        let c = t.counter("pim_ops_total", &[("op", "get")]);
        let g = t.gauge("pim_depth", &[]);
        let h = t.histogram("pim_lat", &[]);
        t.add(c, 4);
        t.set(g, 2);
        t.observe(h, 1);
        // Handle lookup is idempotent with the base applied.
        assert_eq!(c, t.counter("pim_ops_total", &[("op", "get")]));
        let text = t.snapshot().render_prometheus();
        assert!(text.contains("pim_ops_total{shard=\"3\",op=\"get\"} 4"));
        assert!(text.contains("pim_depth{shard=\"3\"} 2"));
        assert!(text.contains("pim_lat_count{shard=\"3\"} 1"));
        assert!(text.contains("pim_telemetry_events{shard=\"3\"}"));
        // Snapshot lookups use the full (base + given) label set.
        let snap = t.snapshot();
        assert_eq!(
            snap.counter("pim_ops_total", &[("shard", "3"), ("op", "get")]),
            Some(4)
        );
    }

    #[test]
    fn merged_snapshots_render_as_one_sorted_exposition() {
        let mut a = Telemetry::new().with_base_labels(&[("shard", "0")]);
        let mut b = Telemetry::new().with_base_labels(&[("shard", "1")]);
        let ca = a.counter("pim_ops_total", &[("op", "get")]);
        let cb = b.counter("pim_ops_total", &[("op", "get")]);
        a.add(ca, 1);
        b.add(cb, 2);
        let merged = TelemetrySnapshot::merged([a.snapshot(), b.snapshot()]);
        let text = merged.render_prometheus();
        let s0 = text
            .find("pim_ops_total{shard=\"0\",op=\"get\"} 1")
            .unwrap();
        let s1 = text
            .find("pim_ops_total{shard=\"1\",op=\"get\"} 2")
            .unwrap();
        assert!(s0 < s1, "sorted by label value");
        // One TYPE line per metric name, not per part.
        assert_eq!(text.matches("# TYPE pim_ops_total counter").count(), 1);
        // Merge order does not matter: byte-identical either way.
        let swapped = TelemetrySnapshot::merged([b.snapshot(), a.snapshot()]);
        assert_eq!(text, swapped.render_prometheus());
    }

    /// One event of a [`Telemetry::emit`] call, as a reference keeps it.
    type Plain = (&'static str, u64, u64, Vec<(&'static str, u64)>);

    /// Event shapes with 0 to 4 fields; `admit` comes in two.
    const SHAPES: [(&str, &[&str]); 6] = [
        ("tick", &[]),
        ("admit", &["id"]),
        ("admit", &["id", "batch"]),
        ("coalesce", &["id", "batch", "pos"]),
        (
            "ack",
            &["id", "held_ticks", "latency_ticks", "latency_rounds"],
        ),
        ("fsync", &["synced_seq"]),
    ];

    /// Values at the varint byte boundaries and the `f64` exactness edge.
    const EDGES: [u64; 8] = [
        0,
        127,
        128,
        1 << 14,
        (1 << 53) + 1,
        u64::MAX,
        16_383,
        1 << 63,
    ];

    /// A stream from `seed`: clocks mostly step forward but also go
    /// backwards and jump to the ends of `u64`; values hit [`EDGES`].
    fn stream(seed: u64, len: usize) -> Vec<Plain> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut tick, mut round) = (0u64, 0u64);
        let step = |clock: u64, r: u64| match r % 16 {
            0 => clock.wrapping_sub((r >> 8) & 0xff),
            1 => [0, u64::MAX, 1 << 53][(r >> 8) as usize % 3],
            _ => clock.wrapping_add((r >> 8) & 3),
        };
        (0..len)
            .map(|_| {
                let r = next();
                let (kind, names) = SHAPES[r as usize % SHAPES.len()];
                tick = step(tick, next());
                round = step(round, next());
                let fields = names
                    .iter()
                    .map(|&name| {
                        let v = next();
                        let value = if v % 2 == 0 {
                            EDGES[(v >> 1) as usize % 8]
                        } else {
                            v >> (v % 64)
                        };
                        (name, value)
                    })
                    .collect();
                (kind, tick, round, fields)
            })
            .collect()
    }

    /// The JSONL trace of a reference ring, rendered field by field.
    fn reference_jsonl(kept: &VecDeque<Plain>, dropped: u64) -> String {
        let mut out = format!(
            "{{\"type\":\"header\",\"version\":2,\"p\":0,\"dropped_rounds\":0,\"recorded_rounds\":0,\"events\":{},\"dropped_events\":{dropped}}}\n",
            kept.len()
        );
        for (kind, tick, round, fields) in kept {
            out += &format!(
                "{{\"type\":\"event\",\"kind\":\"{kind}\",\"tick\":{tick},\"round\":{round}"
            );
            for (name, value) in fields {
                out += &format!(",\"{name}\":{value}");
            }
            out += "}\n";
        }
        out
    }

    fn decoded(t: &Telemetry) -> Vec<Plain> {
        t.events()
            .map(|e| (e.kind, e.tick, e.round, e.fields().collect()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..Default::default()
        })]

        #[test]
        fn event_log_matches_a_reference_ring(seed in proptest::prelude::any::<u64>()) {
            let events = stream(seed, 12_000);
            let mut unbounded = Telemetry::new();
            for (kind, tick, round, fields) in &events {
                unbounded.emit(kind, *tick, *round, fields);
            }
            // The stream crosses at least two chunk boundaries.
            proptest::prop_assert!(unbounded.events.chunks.len() >= 3);
            proptest::prop_assert_eq!(decoded(&unbounded), events.clone());
            for cap in [0, 1, 2, 7, 1000] {
                let mut t = Telemetry::new().with_max_events(cap);
                let (mut kept, mut dropped) = (VecDeque::new(), 0u64);
                for (i, (kind, tick, round, fields)) in events.iter().enumerate() {
                    t.emit(kind, *tick, *round, fields);
                    if kept.len() == cap {
                        dropped += 1;
                        kept.pop_front();
                    }
                    if cap > 0 {
                        kept.push_back((*kind, *tick, *round, fields.clone()));
                    }
                    if i % 1009 == 0 {
                        proptest::prop_assert_eq!(decoded(&t), Vec::from(kept.clone()));
                    }
                }
                proptest::prop_assert_eq!(t.events().len(), kept.len());
                proptest::prop_assert_eq!(decoded(&t), Vec::from(kept.clone()));
                proptest::prop_assert_eq!(t.dropped_events(), dropped);
                proptest::prop_assert_eq!(
                    events_trace(&t),
                    reference_jsonl(&kept, dropped)
                );
                let snap = t.snapshot();
                let counter = |name| snap.counter(name, &[]);
                proptest::prop_assert_eq!(
                    counter("pim_telemetry_events"),
                    Some(kept.len() as u64)
                );
                proptest::prop_assert_eq!(counter("pim_telemetry_dropped_events"), Some(dropped));
            }
        }
    }
}
