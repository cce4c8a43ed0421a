//! Telemetry artifacts live in the tick/round domain, so the executor
//! thread count must not move a single byte of them: the event lines of
//! the JSONL trace and the Prometheus snapshot rendered from the same
//! service session are compared byte for byte across `PIM_THREADS` 1 and
//! 8, in-process with forced forking (zero parallel thresholds). A second
//! session caps the event log far below what it emits, so the ring wraps
//! many times. Both sessions' event lines are pinned by length and
//! FNV-1a-64 digest: how the log stores its events must not move one byte
//! of what it renders.

use std::sync::Mutex;

use pim_core::{Config, Op, PimSkipList, RangeFunc};
use pim_runtime::pool::{self, ExecConfig};
use pim_runtime::{rounds_jsonl, ExportBundle, Trace};
use pim_service::{PimService, ServiceConfig};

/// The pool configuration is process-global; serialise the ladder steps.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic mixed op stream (splitmix64 of the op index).
fn op_at(i: u64) -> Op {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let key = (x % 4096) as i64;
    match (x >> 8) % 8 {
        0..=2 => Op::Upsert {
            key,
            value: x >> 16,
        },
        3..=4 => Op::Get { key },
        5 => Op::Delete { key },
        6 => Op::Successor { key },
        _ => Op::Range {
            lo: key,
            hi: key + 64,
            func: RangeFunc::Sum,
        },
    }
}

/// The event lines of the uncapped and the 512-event session's JSONL
/// trace (every line after the header): length in bytes and FNV-1a-64
/// digest.
const UNCAPPED_EVENTS: (usize, u64) = (168_582, 0xf91c_5cc8_531d_075b);
const CAPPED_EVENTS: (usize, u64) = (43_766, 0x880f_4b4c_15be_d25c);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Length and digest of a trace's event lines.
fn event_pin(trace: &str) -> (usize, u64) {
    let events = &trace[trace.find('\n').expect("a header line") + 1..];
    (events.len(), fnv1a64(events.as_bytes()))
}

/// One telemetry-lit service session: open-loop arrivals (0–3 per tick),
/// coalescing with a short linger, the event log capped at `max_events`
/// when given. Returns the two serialised artifacts.
fn artifacts(seed: u64, max_events: Option<usize>) -> (String, String) {
    let pairs: Vec<(i64, u64)> = (0..800).map(|i| (i * 5, i as u64)).collect();
    let mut list = PimSkipList::new(Config::new(8, 1 << 12, seed));
    list.bulk_load(&pairs);
    list.enable_telemetry();
    if let Some(cap) = max_events {
        let reg = list.telemetry_mut().expect("telemetry was enabled");
        *reg = std::mem::take(reg).with_max_events(cap);
    }
    let cfg = ServiceConfig::for_list(&list)
        .with_max_linger(2)
        .with_max_queue(1 << 12);
    let mut svc = PimService::new(list, cfg);

    let mut i = 0u64;
    for tick in 0..400u64 {
        for _ in 0..(tick % 4) {
            svc.submit(op_at(i)).expect("queue sized for the stream");
            i += 1;
        }
        svc.tick();
    }
    svc.flush();

    let mut list = svc.into_list();
    let prom = list
        .telemetry_snapshot()
        .expect("telemetry was enabled")
        .render_prometheus();
    let telemetry = list.take_telemetry().expect("telemetry was enabled");
    let events = rounds_jsonl(&ExportBundle {
        p: 8,
        trace: &Trace::default(),
        report: None,
        events: Some(&telemetry),
    });
    (events, prom)
}

fn artifacts_at(threads: usize, seed: u64, max_events: Option<usize>) -> (String, String) {
    pool::configure(ExecConfig {
        threads,
        // Zero thresholds force real forking even on test-sized batches.
        par_threshold: 0,
        sort_threshold: 0,
    });
    let out = artifacts(seed, max_events);
    pool::configure(ExecConfig::from_env());
    out
}

#[test]
fn telemetry_artifacts_are_byte_identical_across_thread_counts() {
    let _guard = POOL_LOCK.lock().unwrap();
    let (events_1, prom_1) = artifacts_at(1, 0xBEEF, None);
    let (events_8, prom_8) = artifacts_at(8, 0xBEEF, None);
    assert_eq!(events_1, events_8, "event log must not see the executor");
    assert_eq!(prom_1, prom_8, "snapshot must not see the executor");
    // Sanity: the session actually produced a full lifecycle worth of
    // events and a populated exposition.
    for kind in ["\"admit\"", "\"coalesce\"", "\"execute\"", "\"reply\""] {
        assert!(events_1.contains(kind), "event log must carry {kind}");
    }
    assert!(prom_1.contains("pim_service_latency_ticks_bucket"));
    assert!(prom_1.contains("pim_ops_total{op=\"get\"}"));
    assert_eq!(event_pin(&events_1), UNCAPPED_EVENTS);
}

#[test]
fn an_overflowing_event_ring_renders_the_same_bytes() {
    let _guard = POOL_LOCK.lock().unwrap();
    let (events_1, prom_1) = artifacts_at(1, 0xBEEF, Some(512));
    let (events_8, prom_8) = artifacts_at(8, 0xBEEF, Some(512));
    assert_eq!(events_1, events_8, "event log must not see the executor");
    assert_eq!(prom_1, prom_8, "snapshot must not see the executor");
    assert!(events_1.lines().next().unwrap().contains("\"events\":512,"));
    assert!(
        !events_1.contains("\"dropped_events\":0"),
        "the ring wrapped"
    );
    assert!(prom_1.contains("pim_telemetry_events 512"));
    assert_eq!(event_pin(&events_1), CAPPED_EVENTS);
}
