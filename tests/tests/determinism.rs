//! The service session's exported artifacts do not see the executor.
//!
//! `experiments service --out DIR` writes one instrumented session as four
//! files: the Chrome trace, the round log, the request-lifecycle event log
//! and the Prometheus snapshot. All four live in the tick/round domain, so
//! the pool's thread count must not move one byte of them. This builds the
//! session in-process at 1 and 8 threads with zero parallel thresholds
//! (real forking even on test-sized regions) and compares the bytes. The
//! event log is also pinned by length and FNV-1a-64 digest, so a change to
//! how the log stores events cannot move what it renders.

use std::path::Path;

use pim_bench::service::service_trace_export;
use pim_runtime::pool::{self, ExecConfig};

/// The seed `experiments` runs every session with.
const SEED: u64 = 0x5EED_2021;

const FILES: [&str; 4] = ["trace.json", "rounds.jsonl", "events.jsonl", "metrics.prom"];

/// `events.jsonl` of the `P = 16`, `n = 4,000` session: its length in
/// bytes and its FNV-1a-64 digest.
const EVENTS_JSONL: (usize, u64) = (519_479, 0x5ed1_0c5b_395e_814f);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four files of one session exported with `threads` pool workers.
fn export_at(threads: usize, dir: &Path) -> Vec<Vec<u8>> {
    pool::configure(ExecConfig {
        threads,
        par_threshold: 0,
        sort_threshold: 0,
    });
    let out = dir.to_str().expect("a UTF-8 temp path");
    service_trace_export(out, 16, 4_000, SEED).expect("export writes its files");
    pool::configure(ExecConfig::from_env());
    FILES
        .iter()
        .map(|f| std::fs::read(dir.join(f)).expect("the export wrote it"))
        .collect()
}

#[test]
fn service_exports_are_byte_identical_across_thread_counts() {
    let root = std::env::temp_dir().join(format!("pim-determinism-{}", std::process::id()));
    let one = export_at(1, &root.join("t1"));
    let eight = export_at(8, &root.join("t8"));
    std::fs::remove_dir_all(&root).expect("remove the temp dir");
    for ((file, a), b) in FILES.iter().zip(&one).zip(&eight) {
        assert!(a == b, "{file} differs between 1 and 8 threads");
    }
    let events = &one[2];
    assert_eq!((events.len(), fnv1a64(events)), EVENTS_JSONL);
}
