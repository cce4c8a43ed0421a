//! Regenerate the paper's tables and figures from the simulator.
//!
//! ```text
//! cargo run --release -p pim-bench --bin experiments -- <which> [--quick]
//!
//! which ∈ { table1, space, balls, contention, adversarial, range,
//!           baselines, ablation, hprofile, paths, trace-export,
//!           service, recovery, all }
//!
//! `trace-export [--quick] [--out DIR]` runs an instrumented session and
//! writes its JSONL trace (spans and rounds, the `pim-trace` CLI's input)
//! to `DIR/trace.jsonl`; DIR defaults to `target/trace-export`.
//!
//! `service [--quick] [--out DIR]` sweeps the `pim-service` coalescing
//! policy (max batch × max linger) over a deterministic open-loop mixed
//! stream and prints sustained throughput (ops/round, ops/sec) and
//! p50/p95/p99 request latency. With `--out DIR` it additionally runs one
//! instrumented telemetry-enabled service session and writes
//! `DIR/trace.jsonl` (spans, rounds and request-lifecycle events) and
//! `DIR/metrics.prom` (the Prometheus exposition), both byte-identical at
//! every `PIM_THREADS`; the tier-1 `tests/tests/determinism.rs` compares
//! them.
//!
//! `recovery [--quick]` persists one mixed op stream under several
//! snapshot cadences and times `PimSkipList::recover_from_dir` on each
//! resulting directory — the snapshot-interval / recovery-time trade-off.
//! This measures elapsed time, not a model metric.
//! ```
//!
//! Every table prints *model metrics* (IO time, PIM time, CPU work/depth,
//! rounds, shared-memory peak) as defined in §2.1, measured on the real
//! algorithms running on the simulated machine.

use pim_bench::experiments as exp;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick");
    let seed = 0x5EED_2021;

    let (ps, n, big_n): (&[u32], usize, usize) = if quick {
        (&[8, 16, 32], 4_000, 8_000)
    } else {
        (&[8, 16, 32, 64, 128], 16_000, 65_536)
    };

    let run_table1 = || exp::print_table1(ps, n, seed);
    let run_space = || {
        let ns: Vec<usize> = if quick {
            vec![2_000, 8_000]
        } else {
            vec![4_000, 16_000, big_n]
        };
        exp::space_experiment(ps, &ns, seed);
    };
    let run_balls = || exp::balls_experiment(&[64, 256, 1024], seed);
    let run_contention = || exp::print_contention(ps, seed);
    let run_adversarial = || exp::print_adversarial(ps, seed);
    let run_range = || exp::print_ranges(if quick { 16 } else { 32 }, n, seed);
    let run_baselines = || exp::print_baselines(if quick { 16 } else { 32 }, n, seed);
    let run_ablation = || exp::print_ablation(16, n, seed);
    let run_hprofile = || exp::print_hprofile(if quick { 16 } else { 32 }, seed);
    let run_paths = || exp::print_path_split(seed);
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let run_service = || {
        pim_bench::service::run_service(quick, seed);
        if let Some(out_dir) = flag("--out") {
            let (sp, sn) = if quick { (16, 4_000) } else { (32, 16_000) };
            if let Err(e) = pim_bench::service::service_trace_export(out_dir, sp, sn, seed) {
                eprintln!("service trace export: {e}");
                std::process::exit(1);
            }
        }
    };
    let run_recovery = || pim_bench::recovery::run_recovery(quick, seed);
    let run_trace_export = || {
        let out_dir = flag("--out")
            .map(String::as_str)
            .unwrap_or("target/trace-export");
        let (dp, dn) = if quick { (16, 4_000) } else { (32, 16_000) };
        let p = flag("--p").and_then(|v| v.parse().ok()).unwrap_or(dp);
        let tn = flag("--n").and_then(|v| v.parse().ok()).unwrap_or(dn);
        if let Err(e) = exp::trace_export(out_dir, p, tn, seed) {
            eprintln!("trace-export: {e}");
            std::process::exit(1);
        }
    };

    match which {
        "table1" => run_table1(),
        "space" => run_space(),
        "balls" => run_balls(),
        "contention" => run_contention(),
        "adversarial" => run_adversarial(),
        "range" => run_range(),
        "baselines" => run_baselines(),
        "ablation" => run_ablation(),
        "hprofile" => run_hprofile(),
        "paths" => run_paths(),
        "trace-export" => run_trace_export(),
        "service" => run_service(),
        "recovery" => run_recovery(),
        "all" => {
            run_table1();
            println!();
            run_space();
            println!();
            run_balls();
            println!();
            run_contention();
            println!();
            run_adversarial();
            println!();
            run_range();
            println!();
            run_baselines();
            println!();
            run_ablation();
            println!();
            run_hprofile();
            println!();
            run_paths();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("choose from: table1 space balls contention adversarial range baselines ablation hprofile paths trace-export service recovery all");
            std::process::exit(2);
        }
    }
}
