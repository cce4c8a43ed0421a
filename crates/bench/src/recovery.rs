//! Recovery-time episode: how long does crash recovery take as a function
//! of WAL length, and how much does snapshot compaction buy?
//!
//! One deterministic mixed op stream is persisted under several snapshot
//! cadences (`none` = replay the full WAL from an empty structure, tighter
//! cadences = bulk-load the newest snapshot and replay only the suffix).
//! Each resulting directory is then recovered with
//! [`PimSkipList::recover_from_dir`] and timed; the table reports what
//! recovery had to read and replay alongside the wall-clock cost, so the
//! snapshot-interval / recovery-time trade-off is directly visible.

use std::time::Instant;

use pim_core::{Config, DurabilityPolicy, FsyncPolicy, Op, PimSkipList, RangeFunc};

/// Deterministic mixed op stream (splitmix64 of the op index).
fn op_at(i: u64) -> Op {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let key = (x % 100_000) as i64;
    match (x >> 8) % 10 {
        0..=4 => Op::Upsert {
            key,
            value: x >> 16,
        },
        5..=6 => Op::Get { key },
        7 => Op::Delete { key },
        8 => Op::Successor { key },
        _ => Op::Range {
            lo: key,
            hi: key + 50,
            func: RangeFunc::Sum,
        },
    }
}

/// Total bytes and file count of the WAL segments in `dir`.
fn wal_footprint(dir: &std::path::Path) -> (u64, usize) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("wal-") && name.ends_with(".log") {
                bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
                files += 1;
            }
        }
    }
    (bytes, files)
}

/// One measured recovery episode.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Snapshot cadence the directory was persisted under (`None`: no
    /// snapshots — full-WAL replay).
    pub snapshot_every: Option<u64>,
    /// Stream position recovery started from (`None`: empty structure).
    pub base_seq: Option<u64>,
    /// Ops replayed from the WAL suffix.
    pub ops_replayed: u64,
    /// Live WAL bytes recovery had to consider.
    pub wal_bytes: u64,
    /// Live WAL segment files.
    pub wal_segments: usize,
    /// Best wall-clock recovery time over the episode's iterations.
    pub recover_ms: f64,
}

/// Persist `total` ops under the given snapshot cadence and time recovery
/// (best of `iters`).
fn episode(total: u64, snapshot_every: Option<u64>, seed: u64, iters: usize) -> RecoveryPoint {
    let dir = std::env::temp_dir().join(format!(
        "pim-bench-recovery-{}-{}",
        std::process::id(),
        snapshot_every.unwrap_or(0)
    ));
    std::fs::remove_dir_all(&dir).ok();

    // Group-commit fsync keeps the (untimed) load phase out of the way;
    // the bytes are all written either way, which is what recovery reads.
    let mut policy = DurabilityPolicy::default().with_fsync(FsyncPolicy::EveryOps(4096));
    if let Some(every) = snapshot_every {
        policy = policy.with_snapshot_every(every);
    }
    let cfg = Config::new(8, total, seed);
    let mut list = PimSkipList::new(cfg.clone());
    list.enable_durability(&dir, policy).unwrap();
    const BATCH: u64 = 64;
    let mut start = 0;
    while start < total {
        let ops: Vec<Op> = (start..(start + BATCH).min(total)).map(op_at).collect();
        list.execute(&ops);
        start += BATCH;
    }
    let final_len = list.len();
    drop(list);

    let (wal_bytes, wal_segments) = wal_footprint(&dir);
    let mut best_ms = f64::INFINITY;
    let mut report = None;
    for _ in 0..iters {
        let t = Instant::now();
        let (rec, rep) = PimSkipList::recover_from_dir(cfg.clone(), &dir, policy).unwrap();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(rec.len(), final_len, "recovery lost or invented items");
        assert_eq!(rep.next_seq, total);
        report = Some(rep);
    }
    std::fs::remove_dir_all(&dir).ok();

    let rep = report.unwrap();
    RecoveryPoint {
        snapshot_every,
        base_seq: rep.snapshot_seq,
        ops_replayed: rep.ops_replayed,
        wal_bytes,
        wal_segments,
        recover_ms: best_ms,
    }
}

/// Print the recovery-time table: snapshot cadence vs WAL left to replay
/// vs wall-clock recovery time, over one fixed op stream.
pub fn run_recovery(quick: bool, seed: u64) {
    let total: u64 = if quick { 20_000 } else { 200_000 };
    let iters = if quick { 2 } else { 3 };
    let intervals = [None, Some(total / 4), Some(total / 16), Some(total / 64)];
    println!("recovery time vs snapshot cadence  (p=8, {total} mixed ops, batch 64)");
    println!(
        "{:>14} {:>12} {:>12} {:>10} {:>9} {:>11}",
        "snapshot_every", "base_seq", "ops_replayed", "wal_KiB", "segments", "recover_ms"
    );
    for every in intervals {
        let pt = episode(total, every, seed, iters);
        let every = pt.snapshot_every.map_or("none".into(), |e| e.to_string());
        let base = pt.base_seq.map_or("empty".into(), |s| s.to_string());
        println!(
            "{every:>14} {base:>12} {:>12} {:>10} {:>9} {:>11.2}",
            pt.ops_replayed,
            pt.wal_bytes / 1024,
            pt.wal_segments,
            pt.recover_ms,
        );
    }
    println!("(base_seq \"empty\": full-WAL replay, bit-identical tier; otherwise");
    println!(" newest-snapshot bulk load + suffix replay, logical-identity tier)");
}
