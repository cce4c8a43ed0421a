//! The pool's thread count changes wall-clock time and nothing else.
//!
//! Each test builds, in-process at 1 and 8 pool threads, what an
//! `experiments` run prints or writes, and compares the two:
//!
//! * `table1 --quick`: every Table 1 row at `P ∈ {8, 16, 32}`, `n = 4,000`;
//! * `trace-export --quick`: the JSONL trace;
//! * `service --quick`: every field but ops/sec of the nine sweep points;
//! * `service --quick --out DIR`: the JSONL trace (spans, rounds and
//!   request-lifecycle events) and the Prometheus snapshot. The trace's
//!   event lines are also pinned by length and FNV-1a-64 digest, so a
//!   change to how the log stores events cannot move what it renders.
//!
//! The sort threshold is zero, and so is the parallel threshold, except in
//! the sweep: there a region forks from [`SWEEP_PAR_THRESHOLD`] work units.
//! Every region forks for real even on test-sized inputs. The pool's config
//! is process-wide, so the tests take turns.

use std::path::Path;
use std::sync::Mutex;

use pim_bench::experiments::{table1_rows, trace_export};
use pim_bench::service::{run_service_point, service_trace_export, ServiceSweep};
use pim_runtime::pool::{self, ExecConfig};

/// The seed `experiments` runs every session with.
const SEED: u64 = 0x5EED_2021;

/// `P` and `n` of `experiments table1 --quick`.
const TABLE1_PS: [u32; 3] = [8, 16, 32];
const TABLE1_N: usize = 4_000;

/// `P` and `n` of the `--quick` trace and service exports.
const EXPORT_P: u32 = 16;
const EXPORT_N: usize = 4_000;

const SERVICE_FILES: [&str; 2] = ["trace.jsonl", "metrics.prom"];
const TRACE_FILES: [&str; 1] = ["trace.jsonl"];

/// The event lines of the `P = 16`, `n = 4,000` session's trace: their
/// length in bytes and their FNV-1a-64 digest.
const EVENT_LINES: (usize, u64) = (519_406, 0xf318_56a0_534a_46a8);

/// The sweep's parallel threshold: the smallest batch it dispatches.
/// (At zero, each of its ~50,000 rounds spawns seven threads: ~15 s of a
/// debug build on two cores, for regions that `service_exports_…` already
/// forks at zero.)
const SWEEP_PAR_THRESHOLD: usize = 64;

static POOL: Mutex<()> = Mutex::new(());

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `f`'s result at 1 and at 8 pool threads; a region forks from
/// `par_threshold` work units.
fn at_1_and_8<T>(par_threshold: usize, f: impl Fn(usize) -> T) -> (T, T) {
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let run = |threads| {
        pool::configure(ExecConfig {
            threads,
            par_threshold,
            sort_threshold: 0,
        });
        let out = f(threads);
        pool::configure(ExecConfig::from_env());
        out
    };
    (run(1), run(8))
}

/// The named files of an export that `write` puts into a fresh directory,
/// at 1 and 8 pool threads.
fn export_at_1_and_8(
    name: &str,
    files: &[&str],
    write: impl Fn(&str) -> std::io::Result<()>,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let root = std::env::temp_dir().join(format!("pim-determinism-{name}-{}", std::process::id()));
    let read = |dir: &Path| -> Vec<Vec<u8>> {
        files
            .iter()
            .map(|f| std::fs::read(dir.join(f)).expect("the export wrote it"))
            .collect()
    };
    let out = at_1_and_8(0, |threads| {
        let dir = root.join(format!("t{threads}"));
        write(dir.to_str().expect("a UTF-8 temp path")).expect("export writes its files");
        read(&dir)
    });
    std::fs::remove_dir_all(&root).expect("remove the temp dir");
    for ((file, a), b) in files.iter().zip(&out.0).zip(&out.1) {
        assert!(a == b, "{name}: {file} differs between 1 and 8 threads");
    }
    out
}

#[test]
fn table1_rows_are_identical_across_thread_counts() {
    let (one, eight) = at_1_and_8(0, |_| {
        TABLE1_PS
            .iter()
            .flat_map(|&p| table1_rows(p, TABLE1_N, SEED))
            .collect::<Vec<_>>()
    });
    assert_eq!(one.len(), 6 * TABLE1_PS.len());
    assert_eq!(one, eight);
}

#[test]
fn trace_exports_are_byte_identical_across_thread_counts() {
    export_at_1_and_8("trace", &TRACE_FILES, |out| {
        trace_export(out, EXPORT_P, EXPORT_N, SEED)
    });
}

#[test]
fn service_sweep_is_identical_across_thread_counts_but_for_wall_clock() {
    let sweep = ServiceSweep::new(true, SEED);
    let (one, eight) = at_1_and_8(SWEEP_PAR_THRESHOLD, |_| {
        sweep
            .policies
            .iter()
            .map(|&(max_batch, max_linger)| {
                let pt = run_service_point(
                    sweep.p,
                    sweep.n,
                    SEED,
                    &sweep.schedule,
                    max_batch,
                    max_linger,
                );
                // The one wall-clock field.
                pim_bench::service::ServicePoint {
                    ops_per_sec: 0.0,
                    ..pt
                }
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(one.len(), 9);
    assert_eq!(one, eight);
}

#[test]
fn service_exports_are_byte_identical_across_thread_counts() {
    let (one, _) = export_at_1_and_8("service", &SERVICE_FILES, |out| {
        service_trace_export(out, EXPORT_P, EXPORT_N, SEED)
    });
    let events: Vec<u8> = one[0]
        .split_inclusive(|&b| b == b'\n')
        .filter(|line| line.starts_with(br#"{"type":"event""#))
        .flatten()
        .copied()
        .collect();
    assert_eq!((events.len(), fnv1a64(&events)), EVENT_LINES);
}
