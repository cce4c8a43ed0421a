//! The repo benchmark. See `README.md` beside this crate for the metrics,
//! the workloads and why each exists, and `../BENCHMARK.json` for the
//! contract the driver runs it under.
//!
//! ```text
//! pim-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! pim-benchmark run --all [--seed N] [--quick] [--self-test]    every workload, each in a child process
//! pim-benchmark repeat --sets K [--vary-seed] [--reverse] [--quick]
//! ```

mod contract;
mod gen;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use contract::{Contract, Json};
use gen::{resident_pairs, Workload, N, P};
use run::{measured_cycles, summarize, Session, Variant};
use stats::{median, quartiles};
use trace::Tracer;

/// `--quick`: the whole set in under 20 s (not for recorded numbers).
const QUICK_SECONDS: f64 = 1.5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    quick: bool,
    all: bool,
    sets: usize,
    vary_seed: bool,
    reverse: bool,
    dir: Option<PathBuf>,
}

fn parse_args(run_seconds: f64) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        self_test: false,
        quick: false,
        all: false,
        sets: 2,
        vary_seed: false,
        reverse: false,
        dir: None,
    };
    let mut explicit_seconds = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "repeat" if a.command.is_none() => a.command = Some(arg),
            "--workload" => {
                let name = value("a workload name")?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                explicit_seconds = true;
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--sets" => {
                a.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--dir" => a.dir = Some(PathBuf::from(value("a directory")?)),
            "--self-test" => a.self_test = true,
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--vary-seed" => a.vary_seed = true,
            "--reverse" => a.reverse = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !explicit_seconds {
        a.seconds = if a.quick { QUICK_SECONDS } else { run_seconds };
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let parsed = Contract::load().and_then(|contract| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if contract.workloads != names {
            return Err(format!(
                "BENCHMARK.json lists workloads {:?}, this binary runs {names:?}",
                contract.workloads
            ));
        }
        let args = parse_args(contract.run_seconds)?;
        Ok((contract, args))
    });
    let (contract, args) = match parsed {
        Ok(both) => both,
        Err(e) => {
            eprintln!("pim-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload) {
        (None, Some(workload)) => one_run(&contract, &args, workload),
        (Some("run"), _) if args.all => run_all(&args),
        (Some("repeat"), _) => repeat(&contract, &args),
        _ => {
            eprintln!("pim-benchmark: give --workload <name>, `run --all` or `repeat --sets K`");
            ExitCode::from(2)
        }
    }
}

/// Where the WAL directory and the span files go: relative to the working
/// directory the driver runs the command from (the checkout root), since a
/// run may read and write only inside its checkout.
const OUT_DIR: &str = "benchmark/out";

fn provenance() {
    let describe = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host_cpus {cpus}  pool_threads {}  git {describe}  P {P}  n {N}",
        pim_runtime::pool::current_num_threads()
    );
}

/// One workload, one process: the end-to-end run (`--trace 0`) or the
/// per-layer run (`--trace 1`). The last line printed is the result.
fn one_run(contract: &Contract, args: &Args, workload: Workload) -> ExitCode {
    // Measure the shipped default path whatever the caller's environment;
    // `PIM_THREADS` stays (pool default = all cores) and is recorded.
    for var in ["PIM_PIPELINE", "PIM_PUSH_PULL", "PIM_SHARDS"] {
        std::env::remove_var(var);
    }
    provenance();
    let out_dir = PathBuf::from(OUT_DIR);
    let dir = args
        .dir
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("wal-{}", std::process::id())));
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (defs, measured, attempted, failed) = if args.trace {
        let layers = layers::per_layer(workload, args.seed, args.seconds, &dir, &out_dir);
        (
            &contract.per_layer,
            layers.values,
            layers.attempted,
            layers.failed,
        )
    } else {
        let (measured, attempted, failed) = end_to_end(args, workload, &dir);
        (&contract.end_to_end, measured, attempted, failed)
    };
    std::fs::remove_dir_all(&dir).ok();
    let metrics = match Contract::report(defs, &measured) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("pim-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!(
        "attempted {attempted}  failed {failed}  fail_ratio {}",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end(args: &Args, workload: Workload, dir: &Path) -> (Vec<(&'static str, f64)>, u64, u64) {
    let pairs = resident_pairs();
    let variant = Variant::shipped(workload);
    let mut setups = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let list = variant.build_list(&pairs, dir);
        setups.push(t.elapsed().as_secs_f64());
        list
    };
    let cycles = measured_cycles(workload, args.seconds);
    let mut session = Session::start(workload, set_up(), args.seed, &Tracer::new(false));
    if args.self_test {
        session.corrupt_next_reply();
    }
    session.advance(cycles);
    let (out, list, _) = session.finish();
    drop(list);
    // The other set-ups come after the run: before it, what they free and
    // fragment moved `peak_rss_mb` by 8 % from run to run.
    for _ in 1..if args.quick { 1 } else { SETUPS } {
        drop(set_up());
    }
    println!("set-ups {setups:.4?} s");

    // The wall clock of this run, for the reader: on the host the benchmark
    // was defined on it does not repeat within any useful bound, so it is a
    // per-layer diagnostic (the `--trace 1` run reports it), not a gate.
    let wall = summarize(&out);
    println!(
        "measured {} ops in {cycles} cycles, {:.3} s inside the system",
        out.ops(),
        out.busy_ns() as f64 / 1e9,
    );
    println!(
        "ops by kind (Get Update Upsert Delete Pred Succ Range) {:?}",
        out.kinds
    );
    let mid = wall.ops_per_s;
    let worst = wall
        .segment_ops_per_s
        .iter()
        .fold(0.0, |w: f64, v| w.max((v - mid).abs() / mid));
    println!(
        "segment ops_per_s {:.0?}  spread {worst:.4}  best {:.0}",
        wall.segment_ops_per_s,
        wall.segment_ops_per_s
            .iter()
            .fold(0.0, |b: f64, &v| b.max(v)),
    );
    println!(
        "wall clock (median of segments, not gated): ops_per_s {:.0} 1/s  latency_ms p50 {:.4} p90 {:.4} p99 {:.4} ms  ({} samples in the thinnest segment)",
        wall.ops_per_s, wall.p50_ms, wall.p90_ms, wall.p99_ms, wall.samples
    );

    let per_op = |cost: u64| cost as f64 / out.ops().max(1) as f64;
    let measured = vec![
        ("setup_s", median(&setups)),
        ("peak_rss_mb", out.peak_rss_mb),
        ("model_io_per_op", per_op(out.model.io_time)),
        ("model_pim_per_op", per_op(out.model.pim_time)),
        ("model_cpu_work_per_op", per_op(out.model.cpu_work)),
        ("model_cpu_depth_per_kop", per_op(out.model.cpu_depth) * 1e3),
        ("model_rounds_per_kop", per_op(out.model.rounds) * 1e3),
        ("model_shared_mem_words", out.model.shared_mem_peak as f64),
    ];
    (measured, out.attempted, out.failed)
}

/// The result line of a child run, parsed back: `(correct, metrics)`.
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let json = Json::parse(line).ok()?;
    let correct = json.get("correct")? == &Json::Bool(true);
    let metrics = json
        .get("metrics")?
        .fields()
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect::<Option<_>>()?;
    Some((correct, metrics))
}

/// Run one workload in a child process, echoing its report; returns the
/// parsed result, `correct` only if the child also exited 0.
fn child(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Option<(bool, Vec<(String, f64)>)> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if args.self_test {
        cmd.arg("--self-test");
    }
    if let Some(dir) = &args.dir {
        cmd.arg("--dir").arg(dir);
    }
    let output = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let (correct, metrics) = parse_result(text.lines().last()?)?;
    Some((correct && output.status.success(), metrics))
}

/// `run --all`: every workload in its own process, every metric by name.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && (args.quick || args.self_test) {
                continue;
            }
            ok &= child(args, workload, args.seed, trace).is_some_and(|(correct, _)| correct);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `repeat --sets K`: the end-to-end set K times (each run a child
/// process), then per workload × metric min / median / max, the range and
/// the interquartile range as shares of the median, against the metric's
/// bound. Non-zero exit when a spread exceeds its bound (`setup_s` is
/// exempt, as it is for the driver).
fn repeat(contract: &Contract, args: &Args) -> ExitCode {
    let mut order = Workload::ALL.to_vec();
    if args.reverse {
        order.reverse();
    }
    let defs = &contract.end_to_end;
    let mut values = vec![vec![Vec::new(); defs.len()]; Workload::ALL.len()];
    let mut ok = true;
    for set in 0..args.sets {
        let seed = args.seed + if args.vary_seed { set as u64 } else { 0 };
        for &workload in &order {
            match child(args, workload, seed, false) {
                Some((correct, metrics)) => {
                    ok &= correct;
                    for (slot, (_, v)) in values[workload as usize].iter_mut().zip(metrics) {
                        slot.push(v);
                    }
                }
                None => ok = false,
            }
        }
    }
    println!(
        "\n{:<8} {:<24} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "range", "iqr", "bound"
    );
    for workload in Workload::ALL {
        for (m, v) in defs.iter().zip(&values[workload as usize]) {
            if v.is_empty() {
                continue;
            }
            let mid = median(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let [q1, _, q3] = quartiles(v);
            let (range, iqr) = ((hi - lo) / mid, (q3 - q1) / mid);
            // Few sets: judge the whole range; enough for quartiles: the
            // spread the driver computes.
            let spread = if v.len() < 4 { range } else { iqr };
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let over = spread > bound && m.name != "setup_s";
            ok &= !over;
            println!(
                "{:<8} {:<24} {lo:>14.4} {mid:>14.4} {hi:>14.4} {range:>8.4} {iqr:>8.4} {bound:>6.2}{}  {}",
                workload.name(),
                m.name,
                if over { "  OVER" } else { "" },
                if m.higher_is_better { "higher is better" } else { "lower is better" },
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
