//! Chaos suite: the skip list under deterministic fault injection.
//!
//! Every test installs a [`FaultPlan`] — crashes, message drops, stalls,
//! slowdowns — and checks the recovery layer's contract end to end:
//!
//! * after any recoverable fault schedule, contents match a fault-free
//!   `BTreeMap` oracle and [`PimSkipList::validate`] passes;
//! * the same plan replays the exact same execution (metrics included);
//! * an *empty* plan is bit-identical to never installing one;
//! * unrecoverable schedules surface [`PimError::RetriesExhausted`]
//!   instead of corrupting state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pim_core::prelude::*;
use pim_core::{FaultKind, FaultPlan};
use pim_workloads::adversary::{contiguous_run, same_successor_flood};

/// A Get run, as `try_execute` takes it.
fn gets(keys: &[i64]) -> Vec<Op> {
    keys.iter().map(|&key| Op::Get { key }).collect()
}

/// An Upsert run.
fn upserts(pairs: &[(i64, u64)]) -> Vec<Op> {
    pairs
        .iter()
        .map(|&(key, value)| Op::Upsert { key, value })
        .collect()
}

/// A Delete run.
fn deletes(keys: &[i64]) -> Vec<Op> {
    keys.iter().map(|&key| Op::Delete { key }).collect()
}

/// A Successor run.
fn successors(keys: &[i64]) -> Vec<Op> {
    keys.iter().map(|&key| Op::Successor { key }).collect()
}

/// The key of a Successor / Predecessor reply.
fn entry_key(reply: &Reply) -> Option<i64> {
    reply.as_entry().flatten().map(|(k, _)| k)
}

/// The adversarial upsert/delete workload shared by several tests:
/// bulk-build, then a contiguous-run insert wave and a contiguous-run
/// delete wave (the Delete-side adversary — one long splice run), then a
/// same-successor query flood.
fn adversarial_workload(list: &mut PimSkipList) -> (Vec<bool>, Vec<Option<u64>>) {
    let base: Vec<(i64, u64)> = (0..300).map(|i| (i * 4, i as u64)).collect();
    list.bulk_load(&base);

    let inserts: Vec<(i64, u64)> = contiguous_run(401, 120)
        .into_iter()
        .map(|k| (k, 7))
        .collect();
    list.batch_upsert(&inserts);

    let dels = contiguous_run(400, 160);
    let deleted = list.batch_delete(&dels);

    // All flood keys live in the (801, 1100) key gap: same successor.
    let queries = same_successor_flood(9, 801, 1100, 64);
    let got = list.batch_get(&queries);
    (deleted, got)
}

/// The oracle for [`adversarial_workload`].
fn adversarial_oracle() -> BTreeMap<i64, u64> {
    let mut m: BTreeMap<i64, u64> = (0..300).map(|i| (i * 4, i as u64)).collect();
    for k in contiguous_run(401, 120) {
        m.insert(k, 7);
    }
    for k in contiguous_run(400, 160) {
        m.remove(&k);
    }
    m
}

#[test]
fn crash_at_fixed_round_recovers_and_matches_oracle() {
    // Dry run to learn where the mutation phase lives on the round axis.
    let mut dry = PimSkipList::new(Config::new(4, 1 << 10, 77));
    let rounds_probe = {
        let base: Vec<(i64, u64)> = (0..300).map(|i| (i * 4, i as u64)).collect();
        dry.bulk_load(&base);
        dry.metrics().rounds
    };
    let mut dry = PimSkipList::new(Config::new(4, 1 << 10, 77));
    let (dry_deleted, dry_got) = adversarial_workload(&mut dry);

    // Chaos run: crash module 1 at a fixed round inside the upsert/delete
    // phase. Execution is deterministic, so the crash strikes mid-batch.
    let crash_round = rounds_probe + (dry.metrics().rounds - rounds_probe) / 2;
    let mut chaotic = PimSkipList::new(Config::new(4, 1 << 10, 77));
    chaotic.set_fault_plan(FaultPlan::new().at(crash_round, 1, FaultKind::Crash));
    let (deleted, got) = adversarial_workload(&mut chaotic);

    let m = chaotic.metrics();
    assert_eq!(m.module_crashes, 1, "the scheduled crash must have struck");
    assert!(m.recovery_rounds > 0, "recovery must have spent rounds");
    assert_eq!(
        deleted, dry_deleted,
        "per-key delete results must survive the crash"
    );
    assert_eq!(got, dry_got, "query results must survive the crash");
    // `validate` compares every module's descent start, and the driver's
    // shadow of it, with the linked levels: `restore_all` re-grew them.
    chaotic.validate().expect("recovered structure valid");
    let oracle = adversarial_oracle();
    assert_eq!(
        chaotic.collect_items(),
        oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        "recovered contents must equal the fault-free oracle"
    );

    // A crash under a read is repaired the same way: `restore_all` rebuilds
    // every module from the journal, the wiped one's descent start with
    // them, and the retried Successor descends from it.
    let crash_round = chaotic.metrics().rounds + 1;
    chaotic.set_fault_plan(FaultPlan::new().at(crash_round, 2, FaultKind::Crash));
    let queries: Vec<i64> = (0..64).map(|i| i * 19 - 3).collect();
    let got = chaotic
        .try_execute(&successors(&queries))
        .expect("successor across the crash");
    for (q, g) in queries.iter().zip(&got) {
        let want = oracle.range(q..).next().map(|(&k, _)| k);
        assert_eq!(entry_key(g), want, "successor({q})");
    }
    assert_eq!(
        chaotic.metrics().module_crashes,
        2,
        "the second crash struck"
    );
    chaotic.validate().expect("valid after the read's restore");
    assert_eq!(
        chaotic.collect_items(),
        oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        "contents after the read's restore must equal the oracle"
    );
}

#[test]
fn random_fault_storm_matches_oracle() {
    // 40 faults over the first 600 rounds, every kind in the mix. A
    // generous retry budget makes exhaustion impossible (each scheduled
    // round can damage at most one attempt), so any error is a real bug.
    let mut list = PimSkipList::new(Config::new(4, 1 << 10, 42).with_max_retries(50));
    list.set_fault_plan(FaultPlan::random(0xC0FFEE, 4, 600, 40));
    let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();

    let base: Vec<(i64, u64)> = (0..200).map(|i| (i * 3, i as u64)).collect();
    list.try_bulk_load(&base).expect("bulk load under storm");
    oracle.extend(base.iter().copied());

    for wave in 0..6i64 {
        let ups: Vec<(i64, u64)> = (0..40)
            .map(|i| (wave * 100 + i * 2 + 1, (wave * 1000 + i) as u64))
            .collect();
        list.try_execute(&upserts(&ups))
            .expect("upsert under storm");
        oracle.extend(ups.iter().copied());

        let dels: Vec<i64> = (0..25).map(|i| wave * 24 + i * 3).collect();
        let res = list
            .try_execute(&deletes(&dels))
            .expect("delete under storm");
        for (i, k) in dels.iter().enumerate() {
            let want = Reply::Deleted(oracle.remove(k).is_some());
            assert_eq!(res[i], want, "delete({k}) verdict");
        }

        let keys: Vec<i64> = (0..50).map(|i| wave * 7 + i * 5 - 20).collect();
        let res = list.try_execute(&gets(&keys)).expect("get under storm");
        for (i, k) in keys.iter().enumerate() {
            let want = Reply::Value(oracle.get(k).copied());
            assert_eq!(res[i], want, "get({k}) under storm");
        }
    }

    list.validate().expect("structure valid after the storm");
    assert_eq!(
        list.collect_items(),
        oracle.into_iter().collect::<Vec<_>>(),
        "contents must equal the fault-free oracle after the storm"
    );
    let m = list.metrics();
    assert!(m.faults_injected > 0, "the storm must actually strike");
}

#[test]
fn same_fault_seed_replays_identically() {
    let run = || {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 7).with_max_retries(50));
        list.set_fault_plan(FaultPlan::random(1234, 4, 400, 25));
        let (deleted, got) = adversarial_workload(&mut list);
        (list.metrics(), deleted, got, list.collect_items())
    };
    let (m1, d1, g1, items1) = run();
    let (m2, d2, g2, items2) = run();
    assert_eq!(m1, m2, "same plan, same seed ⇒ identical metrics");
    assert_eq!(d1, d2);
    assert_eq!(g1, g2);
    assert_eq!(items1, items2);
    assert!(m1.faults_injected > 0, "the plan must actually strike");
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let mut bare = PimSkipList::new(Config::new(8, 1 << 10, 5));
    let bare_out = adversarial_workload(&mut bare);

    let mut planned = PimSkipList::new(Config::new(8, 1 << 10, 5));
    planned.set_fault_plan(FaultPlan::new());
    let planned_out = adversarial_workload(&mut planned);

    assert_eq!(
        bare.metrics(),
        planned.metrics(),
        "an empty plan must not perturb a single metric"
    );
    assert_eq!(bare_out, planned_out);
    assert_eq!(bare.collect_items(), planned.collect_items());
}

#[test]
fn dropped_replies_are_retried_transparently() {
    let mut list = PimSkipList::new(Config::new(4, 1 << 10, 11));
    let pairs: Vec<(i64, u64)> = (0..200).map(|i| (i * 2, i as u64 + 100)).collect();
    list.bulk_load(&pairs);

    // Lose one Get reply from every module on the query round.
    let round = list.metrics().rounds;
    let mut plan = FaultPlan::new();
    for m in 0..4 {
        plan = plan.at(round, m, FaultKind::DropReply { nth: 0 });
    }
    list.set_fault_plan(plan);

    let keys: Vec<i64> = (0..200).map(|i| i * 2).collect();
    let got = list
        .try_execute(&gets(&keys))
        .expect("get with dropped replies");
    for (i, v) in got.iter().enumerate() {
        assert_eq!(
            *v,
            Reply::Value(Some(i as u64 + 100)),
            "value of key {}",
            i * 2
        );
    }
    let m = list.metrics();
    assert!(m.messages_dropped > 0, "the drops must have struck");
    assert!(m.retries_issued > 0, "the batch must have been re-issued");
    list.validate().expect("reads never tear the structure");
}

#[test]
fn stalls_and_slowdowns_never_need_recovery() {
    let mut dry = PimSkipList::new(Config::new(4, 1 << 10, 13));
    let dry_out = adversarial_workload(&mut dry);

    let mut list = PimSkipList::new(Config::new(4, 1 << 10, 13));
    let mut plan = FaultPlan::new();
    for r in (5..100).step_by(7) {
        plan = plan.at(r, (r % 4) as u32, FaultKind::Stall);
        plan = plan.at(r + 2, ((r + 1) % 4) as u32, FaultKind::Slow { factor: 3 });
    }
    list.set_fault_plan(plan);
    let out = adversarial_workload(&mut list);

    assert_eq!(out, dry_out, "stalls/slowdowns only delay, never damage");
    assert_eq!(list.collect_items(), dry.collect_items());
    let m = list.metrics();
    assert!(m.stalled_module_rounds > 0, "the stalls must have struck");
    assert_eq!(m.retries_issued, 0, "no retry may be triggered");
    assert_eq!(m.recovery_rounds, 0, "no recovery may be triggered");
    assert_eq!(m.messages_dropped, 0);
    assert_eq!(m.module_crashes, 0);
    list.validate().expect("valid");
}

#[test]
fn crash_during_mutating_range_applies_add_exactly_once() {
    let mut list = PimSkipList::new(Config::new(4, 1 << 10, 17));
    let pairs: Vec<(i64, u64)> = (0..150).map(|i| (i * 2, i as u64)).collect();
    list.bulk_load(&pairs);

    // Crash module 2 on the broadcast round itself.
    let round = list.metrics().rounds;
    list.set_fault_plan(FaultPlan::new().at(round, 2, FaultKind::Crash));
    list.try_range_broadcast(40, 120, RangeFunc::AddInPlace(5))
        .expect("range add under crash");

    let expect: Vec<(i64, u64)> = pairs
        .iter()
        .map(|&(k, v)| (k, if (40..=120).contains(&k) { v + 5 } else { v }))
        .collect();
    assert_eq!(
        list.collect_items(),
        expect,
        "the add must be applied exactly once despite the crash"
    );
    list.validate().expect("recovered structure valid");
    assert_eq!(list.metrics().module_crashes, 1);
}

#[test]
fn one_crash_costs_about_one_rebuild() {
    // `retry` repairs a crash with one `restore_all`: one rebuild of every
    // module from the journal, so about the rounds of one `bulk_load` of
    // the same contents on a fresh list.
    for n in [1usize << 10, 1 << 12] {
        let pairs: Vec<(i64, u64)> = (0..n as i64).map(|i| (i * 3, i as u64)).collect();
        let cfg = Config::new(16, n as u64, 0xC4A5);
        let mut fresh = PimSkipList::new(cfg.clone());
        fresh.bulk_load(&pairs);
        let build_rounds = fresh.metrics().rounds;

        let mut list = PimSkipList::new(cfg);
        list.bulk_load(&pairs);
        let crash_round = list.metrics().rounds + 2;
        list.set_fault_plan(FaultPlan::new().at(crash_round, 5, FaultKind::Crash));
        let queries: Vec<i64> = (0..256).map(|i| i * 37 + 1).collect();
        let got = list
            .try_execute(&successors(&queries))
            .expect("successors across the crash");
        for (q, g) in queries.iter().zip(&got) {
            assert_eq!(
                entry_key(g),
                Some((q + 2) / 3 * 3).filter(|&k| k < 3 * n as i64)
            );
        }
        let m = list.metrics();
        assert_eq!(m.module_crashes, 1, "n = {n}: the crash struck");
        assert!(
            m.recovery_rounds > 0 && 2 * m.recovery_rounds <= 3 * build_rounds,
            "n = {n}: one crash cost {} recovery rounds, one bulk_load {build_rounds}",
            m.recovery_rounds
        );
        assert_eq!(list.collect_items(), pairs);
    }
}

/// A mixed [`Op`] stream with short runs of every family, so the unified
/// entry point crosses many read/write epoch boundaries.
fn mixed_stream() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..150i64 {
        ops.push(Op::Upsert {
            key: i * 3,
            value: i as u64,
        });
    }
    for i in 0..40i64 {
        ops.push(Op::Get { key: i * 5 });
        ops.push(Op::Delete { key: i * 6 });
        ops.push(Op::Upsert {
            key: 1_000 + i,
            value: (i * 7) as u64,
        });
        ops.push(Op::Successor { key: i * 4 - 10 });
        ops.push(Op::Range {
            lo: i * 2,
            hi: i * 2 + 60,
            func: RangeFunc::Sum,
        });
    }
    for i in 0..30i64 {
        ops.push(Op::Update {
            key: i * 3,
            value: 9_000 + i as u64,
        });
        ops.push(Op::Predecessor { key: i * 8 });
    }
    ops
}

/// Reply equality up to node handles: recovery rebuilds crashed modules,
/// so `Entry` handles are physically relocated — the *keys* are the
/// logical answer and must match exactly.
fn assert_logically_eq(got: &[Reply], want: &[Reply]) {
    assert_eq!(got.len(), want.len(), "reply counts diverge");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Reply::Entry(ge), Reply::Entry(we)) => assert_eq!(
                ge.map(|e| e.0),
                we.map(|e| e.0),
                "entry key diverges at op {i}"
            ),
            _ => assert_eq!(g, w, "reply diverges at op {i}"),
        }
    }
}

/// A fresh directory for one test's WAL.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Exactly-once commit, proven through the WAL: a frame is one committed
/// run, so recovering `dir` from the WAL alone replays every op of `ops`
/// once, and the recovered list is the fault-free run of `ops` on `cfg` —
/// same contents, same metrics, same replies to the stream run again. A
/// run appended twice, or a half-committed one, breaks all three.
fn assert_wal_replays_dry_run(dir: &Path, cfg: Config, ops: &[Op]) {
    let (mut rec, report) =
        PimSkipList::recover_from_dir(cfg.clone(), dir, DurabilityPolicy::default())
            .expect("recover from the WAL");
    assert_eq!(report.snapshot_seq, None, "full-WAL replay");
    assert_eq!(
        report.ops_replayed,
        ops.len() as u64,
        "every op committed exactly once"
    );
    let mut dry = PimSkipList::new(cfg);
    dry.execute(ops);
    assert_eq!(
        rec.collect_items(),
        dry.collect_items(),
        "replayed contents"
    );
    assert_eq!(rec.metrics(), dry.metrics(), "replayed work");
    assert_eq!(rec.execute(ops), dry.execute(ops), "replies after replay");
    assert_eq!(rec.metrics(), dry.metrics());
    rec.validate().expect("replayed structure valid");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn crash_mid_mixed_stream_recovers_and_op_log_replays_identically() {
    // Dry run: fault-free replies and the round budget of the stream.
    let cfg = || Config::new(4, 1 << 10, 91).with_max_retries(50);
    let ops = mixed_stream();
    let mut dry = PimSkipList::new(cfg());
    let dry_replies = dry.try_execute(&ops).expect("fault-free stream");

    // Chaos run, durable: crash module 1 halfway through the stream.
    // Execution is deterministic, so the crash lands inside some
    // mid-stream run.
    let crash_round = dry.metrics().rounds / 2;
    let dir = wal_dir("mixed");
    let mut chaotic = PimSkipList::new(cfg());
    chaotic
        .enable_durability(&dir, DurabilityPolicy::default())
        .expect("fresh wal dir");
    chaotic.set_fault_plan(FaultPlan::new().at(crash_round, 1, FaultKind::Crash));
    let replies = chaotic.try_execute(&ops).expect("recovers mid-stream");

    let m = chaotic.metrics();
    assert_eq!(m.module_crashes, 1, "the scheduled crash must have struck");
    assert!(m.recovery_rounds > 0, "recovery must have spent rounds");
    assert_logically_eq(&replies, &dry_replies);
    chaotic.validate().expect("recovered structure valid");
    assert_eq!(chaotic.collect_items(), dry.collect_items());

    // Despite the retried run, the WAL is a complete recipe: replaying it
    // on a fresh list is the fault-free execution.
    drop(chaotic);
    assert_wal_replays_dry_run(&dir, cfg(), &ops);
}

/// One co-scheduled span: reads, and Updates that conflict with some of
/// its Gets and Ranges. With `with_upserts`, each iteration also ends in an
/// Upsert that only overwrites (its update pass shares rounds), or in two
/// of them one that inserts (it runs alone); every later job waits for an
/// Upsert, so that span runs in smaller groups.
fn co_scheduled_stream(with_upserts: bool) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..16i64 {
        ops.push(Op::Get { key: i * 3 });
        ops.push(Op::Update {
            key: i * 6,
            value: 500 + i as u64,
        });
        ops.push(Op::Successor { key: i * 5 + 1 });
        ops.push(Op::Range {
            lo: i * 4,
            hi: i * 4 + 30,
            func: RangeFunc::Sum,
        });
        if with_upserts {
            // Keys `3j` are resident; `i % 8 == 5` upserts a fresh key.
            let key = if i % 8 == 5 { i * 9 + 1 } else { i * 9 };
            ops.push(Op::Upsert {
                key,
                value: 800 + i as u64,
            });
        }
    }
    ops
}

#[test]
fn fault_in_any_round_of_a_co_scheduled_span_is_retried() {
    // A crash or a lost task in any round of a span: the jobs that finished
    // before it keep their replies, the others re-run alone, and the span
    // still commits as one frame whose replay is the fault-free execution.
    // The read/value span keeps dozens of jobs in flight in its rounds; the
    // Upsert span strikes update passes beside other jobs and lone inserts.
    let cfg = || Config::new(4, 1 << 10, 17).with_max_retries(50);
    let load = upserts(&(0..150).map(|i| (i * 3, i as u64)).collect::<Vec<_>>());
    for with_upserts in [false, true] {
        let ops = co_scheduled_stream(with_upserts);
        let mut dry = PimSkipList::new(cfg());
        dry.execute(&load);
        let start = dry.metrics().rounds;
        let dry_replies = dry.execute(&ops);
        let rounds = dry.metrics().rounds - start;
        assert!(rounds > 4, "the span takes {rounds} rounds");
        let whole: Vec<Op> = load.iter().chain(&ops).copied().collect();
        for r in 0..rounds {
            let kind = if r % 2 == 0 {
                FaultKind::Crash
            } else {
                FaultKind::DropTask { nth: r }
            };
            let context = format!("upserts {with_upserts}, round {r}");
            let dir = wal_dir(&format!("span-{with_upserts}-{r}"));
            let mut list = PimSkipList::new(cfg());
            list.enable_durability(&dir, DurabilityPolicy::default())
                .expect("fresh wal dir");
            list.execute(&load);
            list.set_fault_plan(FaultPlan::new().at(start + r, (r % 4) as u32, kind));
            let replies = list.try_execute(&ops).expect("recovers inside the span");
            assert_logically_eq(&replies, &dry_replies);
            list.validate().expect("recovered structure valid");
            assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            drop(list);
            assert_wal_replays_dry_run(&dir, cfg(), &whole);
        }
    }
}

#[test]
fn a_retry_re_drives_the_unfinished_jobs_co_scheduled() {
    // 32 alternating 1-key Successor and Get runs share their rounds, and
    // every module loses a task in the span's first round, which stops it
    // with every job unfinished. The retry drives them again together, so
    // recovery costs about one fault-free span more, not one run after
    // another.
    let cfg = || Config::new(8, 1 << 10, 61).with_max_retries(2);
    let load = upserts(&(0..96).map(|i| (i * 3, i as u64)).collect::<Vec<_>>());
    let ops: Vec<Op> = (0..16i64)
        .flat_map(|i| [Op::Successor { key: i * 17 + 1 }, Op::Get { key: i * 15 }])
        .collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&load);
    let start = dry.metrics().rounds;
    let want = dry.execute(&ops);
    let rounds = dry.metrics().rounds - start;
    let mut list = PimSkipList::new(cfg());
    list.execute(&load);
    let plan = (0..8).fold(FaultPlan::new(), |plan, m| {
        plan.at(start, m, FaultKind::DropTask { nth: 0 })
    });
    list.set_fault_plan(plan);
    let replies = list.try_execute(&ops).expect("recovers inside the span");
    assert_eq!(
        list.metrics().messages_dropped,
        8,
        "every module lost a task"
    );
    assert_logically_eq(&replies, &want);
    let took = list.metrics().rounds - start;
    assert!(
        took <= 2 * rounds,
        "recovery took {took} rounds, the fault-free span {rounds}"
    );
}

#[test]
fn crash_in_a_lone_insert_of_a_span_is_repaired_before_later_jobs() {
    // A co-scheduled Upsert inserts alone, driving its own search,
    // allocation, wiring and link rounds. A module that crashes there while
    // idle loses nothing in flight, so the insert may still succeed; the
    // wiped module must still be rebuilt before the span's later Get,
    // Update and Upsert read it, or they answer "absent" for resident keys
    // (and the Upsert inserts a duplicate). Their keys cover every module,
    // and every round of the span strikes every module.
    let cfg = || Config::new(8, 1 << 10, 71).with_max_retries(8);
    let load: Vec<(i64, u64)> = (0..96).map(|i| (i * 3, i as u64)).collect();
    let keys: Vec<i64> = load.iter().map(|&(k, _)| k).collect();
    // A leading Get keeps the load and the inserting Upsert apart in `whole`.
    let ops: Vec<Op> = gets(&[1])
        .into_iter()
        .chain(upserts(&[(100, 1)]))
        .chain(gets(&keys))
        .chain(load.iter().map(|&(key, v)| Op::Update {
            key,
            value: 5_000 + v,
        }))
        .chain(upserts(
            &load
                .iter()
                .map(|&(k, v)| (k, 9_000 + v))
                .collect::<Vec<_>>(),
        ))
        .collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&upserts(&load));
    let start = dry.metrics().rounds;
    let dry_replies = dry.execute(&ops);
    let rounds = dry.metrics().rounds - start;
    assert!(rounds > 8, "the span takes {rounds} rounds");
    let whole: Vec<Op> = upserts(&load).into_iter().chain(ops.clone()).collect();
    for r in 0..rounds {
        for m in 0..8 {
            let context = format!("crash on module {m} at round {r}");
            let dir = wal_dir(&format!("lone-{r}-{m}"));
            let mut list = PimSkipList::new(cfg());
            list.enable_durability(&dir, DurabilityPolicy::default())
                .expect("fresh wal dir");
            list.execute(&upserts(&load));
            list.set_fault_plan(FaultPlan::new().at(start + r, m, FaultKind::Crash));
            let replies = list
                .try_execute(&ops)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(list.metrics().module_crashes, 1, "{context}: must strike");
            assert_logically_eq(&replies, &dry_replies);
            list.validate()
                .unwrap_or_else(|e| panic!("{context}: {e:?}"));
            assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            drop(list);
            assert_wal_replays_dry_run(&dir, cfg(), &whole);
        }
    }
}

#[test]
fn crash_in_any_round_of_a_span_with_deletes_matches_one_run_at_a_time() {
    // One span holds a Successor, a Delete of resident keys (its marks
    // share the Successor's rounds, its splice runs alone), a Delete of
    // absent keys (one mark wave, never alone), a Get, an Update and an
    // Upsert of the deleted keys, and a mutating Range. A crash on any
    // module in any round must leave the replies, contents and invariants
    // of one run at a time, and the span commits as one frame whose replay
    // is the fault-free execution. A Delete dropped after its marks took
    // index entries out tears the span: the whole machine is restored.
    let cfg = || Config::new(8, 1 << 10, 29).with_max_retries(8);
    let load: Vec<(i64, u64)> = (0..96).map(|i| (i * 3, i as u64)).collect();
    let gone: Vec<i64> = (0..24).map(|i| i * 12).collect();
    let ops: Vec<Op> = successors(&[40, 100, 200])
        .into_iter()
        .chain(deletes(&gone))
        .chain(deletes(&gone.iter().map(|k| k + 1).collect::<Vec<_>>()))
        .chain(gets(&gone))
        .chain(gone.iter().map(|&key| Op::Update { key, value: 7 }))
        .chain(upserts(&[(gone[5], 55), (gone[9], 99)]))
        .chain([Op::Range {
            lo: 30,
            hi: 150,
            func: RangeFunc::FetchAdd(3),
        }])
        .collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&upserts(&load));
    let mut one_by_one = PimSkipList::new(cfg());
    one_by_one.execute(&upserts(&load));
    let start = dry.metrics().rounds;
    let dry_replies = dry.execute(&ops);
    let rounds = dry.metrics().rounds - start;
    assert!(rounds > 8, "the span takes {rounds} rounds");
    let mut want = Vec::new();
    let mut at = 0;
    while at < ops.len() {
        let end = pim_core::op::run_end(&ops, at);
        want.extend(one_by_one.execute(&ops[at..end]));
        at = end;
    }
    assert_eq!(dry_replies, want, "co-scheduled = one run at a time");
    assert_eq!(dry.collect_items(), one_by_one.collect_items());
    let whole: Vec<Op> = upserts(&load).into_iter().chain(ops.clone()).collect();
    for r in 0..rounds {
        for m in 0..8 {
            let context = format!("crash on module {m} at round {r}");
            let dir = wal_dir(&format!("deletes-{r}-{m}"));
            let mut list = PimSkipList::new(cfg());
            list.enable_durability(&dir, DurabilityPolicy::default())
                .expect("fresh wal dir");
            list.execute(&upserts(&load));
            list.set_fault_plan(FaultPlan::new().at(start + r, m, FaultKind::Crash));
            let replies = list
                .try_execute(&ops)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(list.metrics().module_crashes, 1, "{context}: must strike");
            assert_logically_eq(&replies, &want);
            list.validate()
                .unwrap_or_else(|e| panic!("{context}: {e:?}"));
            assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            drop(list);
            assert_wal_replays_dry_run(&dir, cfg(), &whole);
        }
    }
}

#[test]
fn fault_in_any_round_of_an_insert_search_beside_earlier_jobs_matches_one_run_at_a_time() {
    // One span: a Range Sum run wide enough to search before it deals, a
    // Successor run long enough to deal its stage 2 after that, an
    // inserting Upsert whose coins wait for both last deals and whose
    // search shares rounds with both as they drain, then a Get and an
    // Update behind it. A crash on every module, and separately a lost task on
    // every module, in every round: replies, contents and invariants must
    // be those of one run at a time. A job dropped mid-search has linked
    // nothing; the span is repaired module by module and the job re-runs.
    let cfg = || Config::new(8, 1 << 10, 53).with_max_retries(8);
    let load: Vec<(i64, u64)> = (0..96).map(|i| (i * 3, i as u64)).collect();
    let fresh: Vec<(i64, u64)> = (0..12).map(|i| (190 + i * 7 + 1, 600 + i as u64)).collect();
    let ops: Vec<Op> = [(0, 60), (30, 90), (75, 140)]
        .into_iter()
        .map(|(lo, hi)| Op::Range {
            lo,
            hi,
            func: RangeFunc::Sum,
        })
        .chain(successors(&(0..24).map(|i| i * 11 + 1).collect::<Vec<_>>()))
        .chain(upserts(&fresh))
        .chain(gets(&fresh.iter().map(|&(k, _)| k).collect::<Vec<_>>()))
        .chain((0..32).map(|i| Op::Update {
            key: i * 9,
            value: 70 + i as u64,
        }))
        .collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&upserts(&load));
    let mut one_by_one = PimSkipList::new(cfg());
    one_by_one.execute(&upserts(&load));
    let (start, alone_start) = (dry.metrics().rounds, one_by_one.metrics().rounds);
    let dry_replies = dry.execute(&ops);
    let rounds = dry.metrics().rounds - start;
    let mut want = Vec::new();
    let mut at = 0;
    while at < ops.len() {
        let end = pim_core::op::run_end(&ops, at);
        want.extend(one_by_one.execute(&ops[at..end]));
        at = end;
    }
    let alone_rounds = one_by_one.metrics().rounds - alone_start;
    assert!(
        rounds < alone_rounds,
        "the span takes {rounds} rounds, one run at a time {alone_rounds}"
    );
    assert_eq!(dry_replies, want, "co-scheduled = one run at a time");
    assert_eq!(dry.collect_items(), one_by_one.collect_items());
    assert_eq!(dry.upper_leaf_keys(), one_by_one.upper_leaf_keys());
    for r in 0..rounds {
        let mut dropped = 0;
        for m in 0..8 {
            for kind in [FaultKind::Crash, FaultKind::DropTask { nth: r }] {
                let context = format!("{kind:?} on module {m} at round {r}");
                let mut list = PimSkipList::new(cfg());
                list.execute(&upserts(&load));
                list.set_fault_plan(FaultPlan::new().at(start + r, m, kind));
                let replies = list
                    .try_execute(&ops)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                if kind == FaultKind::Crash {
                    assert_eq!(list.metrics().module_crashes, 1, "{context}: must strike");
                } else {
                    dropped += list.metrics().messages_dropped;
                }
                assert_logically_eq(&replies, &want);
                list.validate()
                    .unwrap_or_else(|e| panic!("{context}: {e:?}"));
                assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            }
        }
        assert!(dropped > 0, "round {r} lost no task");
    }
}

#[test]
fn fault_in_any_round_of_a_delete_splicing_beside_earlier_reads_matches_one_run_at_a_time() {
    // One span: 24 Successors and one answered by a key a later Delete
    // removes, six 1-key Deletes of resident keys with no replicated
    // node, each followed by a Get of its key and a Predecessor it
    // answered, then Successors and an Update. A Delete's links wait only
    // for the reads its removal answers, it then lets the later jobs
    // start, and its frees wait for every earlier job. A crash, a lost
    // task and a lost reply on every module in every round: replies,
    // contents and invariants must be those of one run at a time.
    let cfg = || Config::new(8, 1 << 10, 61).with_max_retries(8);
    let load: Vec<(i64, u64)> = (0..96).map(|i| (i * 3, i as u64)).collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&upserts(&load));
    let upper = dry.upper_leaf_keys();
    let gone: Vec<i64> = (0..96)
        .map(|i| (i * 37 + 5) % 96 * 3)
        .filter(|k| !upper.contains(k))
        .take(6)
        .collect();
    let ops: Vec<Op> = successors(&(0..24).map(|i| i * 11 + 1).collect::<Vec<_>>())
        .into_iter()
        .chain(successors(&[gone[5] - 1]))
        .chain(gone.iter().flat_map(|&key| {
            [
                Op::Delete { key },
                Op::Get { key },
                Op::Predecessor { key: key + 1 },
            ]
        }))
        .chain(successors(&[2, 100, 200]))
        .chain([Op::Update { key: 30, value: 7 }])
        .collect();
    let mut one_by_one = PimSkipList::new(cfg());
    one_by_one.execute(&upserts(&load));
    let (start, alone_start) = (dry.metrics().rounds, one_by_one.metrics().rounds);
    dry.enable_probe();
    let dry_replies = dry.execute(&ops);
    let report = dry.take_probe().expect("probe was enabled");
    let rounds = dry.metrics().rounds - start;
    let mut want = Vec::new();
    let mut at = 0;
    while at < ops.len() {
        let end = pim_core::op::run_end(&ops, at);
        want.extend(one_by_one.execute(&ops[at..end]));
        at = end;
    }
    let alone_rounds = one_by_one.metrics().rounds - alone_start;
    assert!(
        rounds < alone_rounds,
        "the span takes {rounds} rounds, one run at a time {alone_rounds}"
    );
    assert_eq!(entry_key(&want[24]), Some(gone[5]));
    assert_eq!(dry_replies, want, "co-scheduled = one run at a time");
    assert_eq!(dry.collect_items(), one_by_one.collect_items());
    // A splice whose earlier jobs had all finished is recorded as a lone
    // phase; the others freed their nodes after their release.
    assert!(
        report.spans_named("delete/unlink").len() < gone.len(),
        "every Delete splice waited for every earlier job"
    );
    for r in 0..rounds {
        let mut dropped = 0;
        for m in 0..8 {
            for kind in [
                FaultKind::Crash,
                FaultKind::DropTask { nth: r },
                FaultKind::DropReply { nth: 0 },
            ] {
                let context = format!("{kind:?} on module {m} at round {r}");
                let mut list = PimSkipList::new(cfg());
                list.execute(&upserts(&load));
                list.set_fault_plan(FaultPlan::new().at(start + r, m, kind));
                let replies = list
                    .try_execute(&ops)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                if kind == FaultKind::Crash {
                    assert_eq!(list.metrics().module_crashes, 1, "{context}: must strike");
                } else {
                    dropped += list.metrics().messages_dropped;
                }
                assert_logically_eq(&replies, &want);
                list.validate()
                    .unwrap_or_else(|e| panic!("{context}: {e:?}"));
                assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            }
        }
        assert!(dropped > 0, "round {r} lost nothing");
    }
}

#[test]
fn fault_in_any_round_of_an_insert_released_beside_later_jobs_matches_one_run_at_a_time() {
    // One span: two 1-key inserts whose towers stay below h_low, each
    // followed by a Get, a Successor, an overwriting Upsert and a Delete in
    // other gaps. Each insert lets those later jobs start once its search
    // has dealt its last wave, and allocates, wires and links beside them
    // once every earlier job has finished. A crash, a lost task and a lost
    // reply on every module in every round: replies, contents and
    // invariants must be those of one run at a time.
    let cfg = || Config::new(8, 1 << 10, 67).with_max_retries(8);
    let load: Vec<(i64, u64)> = (0..96).map(|i| (i * 3, i as u64)).collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&upserts(&load));
    let upper = dry.upper_leaf_keys();
    // The resident keys strictly between the upper leaves `i` and `j`.
    let inside = |i: usize, j: usize| -> Vec<i64> {
        (upper[i] + 3..upper[j])
            .step_by(3)
            .filter(|k| !upper.contains(k))
            .collect()
    };
    let (a, b) = (upper[1] + 1, upper[6] + 1);
    let (near_a, near_b) = (inside(10, 11), inside(2, 3));
    assert!(near_a.len() >= 4 && near_b.len() >= 4, "{upper:?}");
    let later = |keys: &[i64]| {
        [
            Op::Get { key: keys[0] },
            Op::Successor { key: keys[1] + 1 },
            Op::Upsert {
                key: keys[2],
                value: 800,
            },
            Op::Delete { key: keys[3] },
        ]
    };
    let ops: Vec<Op> = [Op::Upsert { key: a, value: 1 }]
        .into_iter()
        .chain(later(&near_a))
        .chain([Op::Upsert { key: b, value: 2 }])
        .chain(later(&near_b))
        .collect();
    let mut one_by_one = PimSkipList::new(cfg());
    one_by_one.execute(&upserts(&load));
    let (start, alone_start) = (dry.metrics().rounds, one_by_one.metrics().rounds);
    let dry_replies = dry.execute(&ops);
    let rounds = dry.metrics().rounds - start;
    let want: Vec<Reply> = ops
        .iter()
        .flat_map(|op| one_by_one.execute(std::slice::from_ref(op)))
        .collect();
    let alone_rounds = one_by_one.metrics().rounds - alone_start;
    assert!(
        rounds < alone_rounds,
        "the span takes {rounds} rounds, one run at a time {alone_rounds}"
    );
    let upper_after = dry.upper_leaf_keys();
    assert!(
        !upper_after.contains(&a) && !upper_after.contains(&b),
        "both towers stay below h_low"
    );
    assert_eq!(dry_replies, want, "co-scheduled = one run at a time");
    assert_eq!(dry.collect_items(), one_by_one.collect_items());
    for r in 0..rounds {
        let mut dropped = 0;
        for m in 0..8 {
            for kind in [
                FaultKind::Crash,
                FaultKind::DropTask { nth: r },
                FaultKind::DropReply { nth: 0 },
            ] {
                let context = format!("{kind:?} on module {m} at round {r}");
                let mut list = PimSkipList::new(cfg());
                list.execute(&upserts(&load));
                list.set_fault_plan(FaultPlan::new().at(start + r, m, kind));
                let replies = list
                    .try_execute(&ops)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                if kind == FaultKind::Crash {
                    assert_eq!(list.metrics().module_crashes, 1, "{context}: must strike");
                } else {
                    dropped += list.metrics().messages_dropped;
                }
                assert_logically_eq(&replies, &want);
                list.validate()
                    .unwrap_or_else(|e| panic!("{context}: {e:?}"));
                assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            }
        }
        assert!(dropped > 0, "round {r} lost nothing");
    }
}

#[test]
fn fault_in_any_round_of_a_mutating_range_in_a_span_matches_one_run_at_a_time() {
    // One span: Successors and Gets, a FetchAdd run that waits for them to
    // finish and holds every later job back until it has, then Gets, an
    // Update, an AddInPlace run of two ranges and Successors. Its rounds
    // are stepped by the span's own loop, which stops the span at the
    // first round that lost a message or crashed a module. A crash, a lost
    // task and a lost reply on every module in every round: replies,
    // contents and invariants must be those of one run at a time.
    let cfg = || Config::new(8, 1 << 10, 71).with_max_retries(8);
    let load: Vec<(i64, u64)> = (0..96).map(|i| (i * 3, i as u64)).collect();
    let add = |lo, hi, d| Op::Range {
        lo,
        hi,
        func: RangeFunc::AddInPlace(d),
    };
    let ops: Vec<Op> = successors(&(0..16).map(|i| i * 17 + 1).collect::<Vec<_>>())
        .into_iter()
        .chain(gets(&[21, 60, 141, 200]))
        .chain([Op::Range {
            lo: 20,
            hi: 140,
            func: RangeFunc::FetchAdd(3),
        }])
        .chain(gets(&[21, 60, 141, 200]))
        .chain([Op::Update { key: 63, value: 9 }])
        .chain([add(50, 80, 2), add(150, 210, 2)])
        .chain(successors(&[2, 100, 200, 280]))
        .collect();
    let mut dry = PimSkipList::new(cfg());
    dry.execute(&upserts(&load));
    let mut one_by_one = PimSkipList::new(cfg());
    one_by_one.execute(&upserts(&load));
    let (start, alone_start) = (dry.metrics().rounds, one_by_one.metrics().rounds);
    let dry_replies = dry.execute(&ops);
    let rounds = dry.metrics().rounds - start;
    let mut want = Vec::new();
    let mut at = 0;
    while at < ops.len() {
        let end = pim_core::op::run_end(&ops, at);
        want.extend(one_by_one.execute(&ops[at..end]));
        at = end;
    }
    let alone_rounds = one_by_one.metrics().rounds - alone_start;
    assert!(
        rounds < alone_rounds,
        "the span takes {rounds} rounds, one run at a time {alone_rounds}"
    );
    assert_eq!(dry_replies, want, "co-scheduled = one run at a time");
    assert_eq!(dry.collect_items(), one_by_one.collect_items());
    for r in 0..rounds {
        let mut dropped = 0;
        for m in 0..8 {
            for kind in [
                FaultKind::Crash,
                FaultKind::DropTask { nth: r },
                FaultKind::DropReply { nth: 0 },
            ] {
                let context = format!("{kind:?} on module {m} at round {r}");
                let mut list = PimSkipList::new(cfg());
                list.execute(&upserts(&load));
                list.set_fault_plan(FaultPlan::new().at(start + r, m, kind));
                let replies = list
                    .try_execute(&ops)
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                if kind == FaultKind::Crash {
                    assert_eq!(list.metrics().module_crashes, 1, "{context}: must strike");
                } else {
                    dropped += list.metrics().messages_dropped;
                }
                assert_logically_eq(&replies, &want);
                list.validate()
                    .unwrap_or_else(|e| panic!("{context}: {e:?}"));
                assert_eq!(list.collect_items(), dry.collect_items(), "{context}");
            }
        }
        assert!(dropped > 0, "round {r} lost nothing");
    }
}

#[test]
fn a_failed_run_leaves_no_later_update_of_its_span_behind() {
    // No retries, and every module loses a task in two consecutive rounds:
    // the span's first run fails while co-scheduled and again alone. The
    // Update job after it has already written — still in flight behind a
    // one-round Get, finished and journaled beside a longer Successor — and
    // so has an overwriting Upsert's update pass beside the Successor, so
    // the error must take those writes back: the contents are the pre-span
    // ones, exactly what the WAL replays.
    let cfg = || Config::new(4, 1 << 10, 53).with_max_retries(0);
    let load: Vec<(i64, u64)> = (0..100).map(|i| (i * 3, i as u64)).collect();
    let keys: Vec<i64> = load.iter().map(|&(k, _)| k).collect();
    let updates = load.iter().map(|&(key, v)| Op::Update {
        key,
        value: 7_000 + v,
    });
    // Upserts of resident keys: an update pass and nothing to insert.
    let overwrites = upserts(
        &load
            .iter()
            .map(|&(key, v)| (key, 8_000 + v))
            .collect::<Vec<_>>(),
    );
    // Gets of absent keys, so the Updates need not wait for them.
    let absent: Vec<i64> = keys.iter().map(|k| k + 1).collect();
    for (tag, first, writes, lost) in [
        ("get", gets(&absent), updates.clone().collect::<Vec<_>>(), 0),
        ("succ", successors(&keys), updates.clone().collect(), 1),
        ("upsert", successors(&keys), overwrites, 1),
    ] {
        let ops: Vec<Op> = first.into_iter().chain(writes).collect();
        let dir = wal_dir(&format!("undo-{tag}"));
        let mut list = PimSkipList::new(cfg());
        list.enable_durability(&dir, DurabilityPolicy::default())
            .expect("fresh wal dir");
        list.execute(&upserts(&load));
        let start = list.metrics().rounds;
        let mut plan = FaultPlan::new();
        for round in [start + lost, start + lost + 1] {
            for m in 0..4 {
                plan = plan.at(round, m, FaultKind::DropTask { nth: 0 });
            }
        }
        list.set_fault_plan(plan);
        let err = list.try_execute(&ops).expect_err("the first run fails");
        assert!(
            matches!(err, PimError::RetriesExhausted { .. }),
            "{tag}: got {err}"
        );
        assert_holds(&list, &load, tag);
        drop(list);
        let (rec, _) = PimSkipList::recover_from_dir(cfg(), &dir, DurabilityPolicy::default())
            .expect("recover from the WAL");
        assert_eq!(rec.collect_items(), load, "{tag}: WAL replay");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Contents, length and invariants after a recovered run.
fn assert_holds(list: &PimSkipList, want: &[(i64, u64)], context: &str) {
    assert_eq!(list.collect_items(), want, "{context}: contents");
    assert_eq!(list.len(), want.len() as u64, "{context}: len");
    list.validate()
        .unwrap_or_else(|e| panic!("{context}: {e:?}"));
}

#[test]
fn fault_in_a_later_bulk_load_chunk_keeps_the_attempt_atomic() {
    // P = 4 streams the build in chunks of 16 pairs: 100 pairs, 7 chunks.
    let cfg = || Config::new(4, 1 << 8, 31).with_max_retries(4);
    let pairs: Vec<(i64, u64)> = (0..100).map(|i| (i * 3, i as u64)).collect();

    // Dry run: one `bulk_load` span per chunk says where chunk 2 starts.
    let mut dry = PimSkipList::new(cfg());
    dry.enable_probe();
    dry.bulk_load(&pairs);
    let report = dry.take_probe().expect("probe was enabled");
    let chunks = report.spans_named("bulk_load");
    assert_eq!(
        chunks.len(),
        pairs.len().div_ceil(dry.config().batch_large())
    );
    let second_chunk = report.spans[chunks[1] as usize].start_round;

    // Strike every round from there to the end of the build. A chunk that
    // had committed on its own would survive the whole-machine restore and
    // the retry would load onto a non-empty structure.
    let kinds = [FaultKind::Crash, FaultKind::DropTask { nth: 5 }];
    for round in second_chunk..dry.metrics().rounds {
        for (module, kind) in (0..4).flat_map(|m| kinds.map(|k| (m, k))) {
            let context = format!("{kind:?} on module {module} at round {round}");
            let mut list = PimSkipList::new(cfg());
            list.set_fault_plan(FaultPlan::new().at(round, module, kind));
            list.try_bulk_load(&pairs)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let m = list.metrics();
            assert_eq!(m.faults_injected, 1, "{context}: must strike");
            if kind == FaultKind::Crash {
                assert_eq!(m.module_crashes, 1, "{context}");
                assert!(m.retries_issued >= 100, "{context}: must re-issue");
            }
            assert_holds(&list, &pairs, &context);
        }
    }
}

#[test]
fn fault_inside_the_restore_all_rebuild_is_repaired() {
    let cfg = || Config::new(4, 1 << 8, 37).with_max_retries(4);
    let base: Vec<(i64, u64)> = (0..100).map(|i| (i * 4, i as u64)).collect();
    let ups: Vec<(i64, u64)> = (0..20).map(|i| (i * 8 + 1, 7)).collect();
    let mut want = base.clone();
    want.extend(&ups);
    want.sort_unstable();
    // Load fault-free, then upsert under `plan`, probed.
    let run = |plan: FaultPlan| {
        let mut list = PimSkipList::new(cfg());
        list.bulk_load(&base);
        list.set_fault_plan(plan);
        list.enable_probe();
        list.try_execute(&upserts(&ups))
            .expect("upsert under faults");
        list
    };

    // First fault: crash in the upsert's allocation round (its second),
    // which sends the driver into `restore_all`. The probe says which
    // rounds that rebuild occupies.
    let loaded = {
        let mut list = PimSkipList::new(cfg());
        list.bulk_load(&base);
        list.metrics().rounds
    };
    let first = FaultPlan::new().at(loaded + 1, 2, FaultKind::Crash);
    let mut once = run(first.clone());
    let report = once.take_probe().expect("probe was enabled");
    let restore = report.spans_named("recover/restore")[0];
    let chunks: Vec<u64> = report
        .spans_named("bulk_load")
        .into_iter()
        .filter(|&id| report.has_ancestor_or_self(id, restore))
        .map(|id| report.spans[id as usize].start_round)
        .collect();
    assert!(chunks.len() > 2, "the rebuild must stream in chunks");
    assert_holds(&once, &want, "one fault");

    // Second fault: every round of the rebuild from its second chunk on.
    let rebuild_end = report.spans[restore as usize].end_round;
    let kinds = [FaultKind::Crash, FaultKind::DropTask { nth: 3 }];
    for round in chunks[1]..rebuild_end {
        for (module, kind) in (0..4).flat_map(|m| kinds.map(|k| (m, k))) {
            let context = format!("{kind:?} on module {module} at rebuild round {round}");
            let mut list = run(first.clone().at(round, module, kind));
            let m = list.metrics();
            assert_eq!(m.faults_injected, 2, "{context}: must strike");
            if kind == FaultKind::Crash {
                assert!(
                    m.recovery_rounds > once.metrics().recovery_rounds,
                    "{context}: the rebuild must have been re-run"
                );
            }
            assert_holds(&list, &want, &context);
            // The twice-rebuilt replicas and the driver's shadow must still
            // agree on the descent start once towers leave again.
            let gone: Vec<i64> = ups.iter().map(|&(k, _)| k).collect();
            assert!(list.batch_delete(&gone).iter().all(|&found| found));
            assert_holds(&list, &base, &context);
        }
    }
}

#[test]
fn fault_in_any_stage1_round_of_a_search_is_retried() {
    // Stage 1 opens with the one-round entry phase (every pivot walks a
    // replica). Then each pivot group takes the first tier that keeps a
    // lower-part node within the allowance `A` (16 for 64 keys at P = 4),
    // one configuration per tier for the Successor batch: spread-out keys
    // leave every group deferred, so that round is all of stage 1; with
    // `h_low = 7` the upper part has a handful of leaves and the pivots
    // crowd into groups of at most `A` that descend in one more wave; with
    // `h_low = 10` there is no upper-part leaf, every pivot shares the one
    // entry and the recursion runs. A fourth configuration, at P = 8, puts
    // two requests in every bracket: the second starts stage 2 at its right
    // pivot's finger, and an Upsert tower there taller than `h_low` takes
    // its upper-level predecessors from that pivot. Strike every round of
    // both searches, stage 2 included, for a read (Successor) and for the
    // search inside an Upsert.
    let base: Vec<(i64, u64)> = (0..400).map(|i| (i * 5, i as u64)).collect();
    let queries: Vec<i64> = (0..64).map(|i| i * 31 - 7).collect();
    let fresh: Vec<(i64, u64)> = (0..64).map(|i| (i * 35 + 2, 9)).collect();
    let oracle: BTreeMap<i64, u64> = base.iter().copied().collect();
    let want_succ: Vec<Option<i64>> = queries
        .iter()
        .map(|q| oracle.range(q..).next().map(|(&k, _)| k))
        .collect();
    let mut want_items = base.clone();
    want_items.extend(&fresh);
    want_items.sort_unstable();

    for (tier, p, h_low) in [
        ("deferred", 4, None),
        ("one wave", 4, Some(7)),
        ("recursion", 4, Some(10)),
        ("deferred", 8, None),
    ] {
        let cfg = || {
            let cfg = Config::new(p, 1 << 10, 41).with_max_retries(4);
            match h_low {
                Some(h_low) => cfg.with_h_low(h_low),
                None => cfg,
            }
        };

        // The Successor's stage-1 waves, counted on a twin that tracks
        // contention (one entry per wave, then stage 2).
        let waves = {
            let mut twin = PimSkipList::new(cfg().with_contention_tracking());
            twin.bulk_load(&base);
            twin.batch_successor(&queries);
            twin.last_phase_contention.len() - 1
        };

        // Dry run: the probe says which rounds each search occupies.
        let mut dry = PimSkipList::new(cfg());
        dry.bulk_load(&base);
        dry.enable_probe();
        dry.batch_successor(&queries);
        let upper = dry.upper_leaf_keys();
        dry.batch_upsert(&fresh);
        let report = dry.take_probe().expect("probe was enabled");
        if p == 8 {
            // Pivots every third request: the right half of each bracket.
            let grown = dry.upper_leaf_keys();
            let tall_right = (2..fresh.len())
                .step_by(3)
                .map(|i| fresh[i].0)
                .filter(|k| grown.contains(k) && !upper.contains(k))
                .count();
            assert!(tall_right > 0, "no fresh upper tower in a right half");
        }
        let rounds_of = |name| -> Vec<(u64, u64)> {
            report
                .spans_named(name)
                .into_iter()
                .map(|id| {
                    let span = &report.spans[id as usize];
                    (span.start_round, span.end_round)
                })
                .collect()
        };
        let stage1 = rounds_of("search/stage1");
        assert_eq!(stage1.len(), 2, "one search per batch");
        // The Successor's stage-1 span: one round, two waves, or more.
        let (start, end) = stage1[0];
        let shape = match waves {
            1 if end - start == 1 => "deferred",
            2 => "one wave",
            w if w > 2 => "recursion",
            _ => "malformed",
        };
        assert_eq!(shape, tier, "P={p}: {waves} waves in rounds {start}..{end}");

        let kinds = [FaultKind::Crash, FaultKind::DropTask { nth: 0 }];
        let searches = rounds_of("search");
        for round in searches.iter().flat_map(|&(start, end)| start..end) {
            for (module, kind) in (0..p).flat_map(|m| kinds.map(|k| (m, k))) {
                let context =
                    format!("{tier}, P={p}: {kind:?} on module {module} at round {round}");
                let mut list = PimSkipList::new(cfg());
                list.bulk_load(&base);
                list.set_fault_plan(FaultPlan::new().at(round, module, kind));
                let succ = list
                    .try_execute(&successors(&queries))
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                let succ: Vec<Option<i64>> = succ.iter().map(entry_key).collect();
                assert_eq!(succ, want_succ, "{context}");
                list.try_execute(&upserts(&fresh))
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                if kind == FaultKind::Crash {
                    assert_eq!(list.metrics().module_crashes, 1, "{context}");
                }
                assert_holds(&list, &want_items, &context);
            }
        }
    }
}

#[test]
fn fault_in_any_round_of_an_upsert_is_retried() {
    // Strike every round of one Upsert batch — the update pass, the search,
    // the allocation and wiring rounds and the link round, where each new
    // upper-part node is one `LinkUpper` broadcast spliced in locally
    // behind its predecessor — on four of sixteen modules. A crash wipes a
    // module; a dropped task lets the last task of that inbox jump the
    // queue, so a `LinkUpper` may run before the node it splices behind or
    // stacks on. Either way the attempt fails without a panic, the restore
    // reverts it and the retry applies the batch: every replica agrees and
    // the contents are the oracle's.
    let cfg = || Config::new(16, 1 << 10, 43).with_max_retries(4);
    let base: Vec<(i64, u64)> = (0..400).map(|i| (i * 5, i as u64)).collect();
    // Fresh keys in the gaps, and every fifth one an overwrite.
    let ups: Vec<(i64, u64)> = (0..96).map(|i| (i * 21 + 2, 9)).collect();
    let mut want: BTreeMap<i64, u64> = base.iter().copied().collect();
    want.extend(ups.iter().copied());
    let want: Vec<(i64, u64)> = want.into_iter().collect();

    // Dry run: the probe says which rounds the Upsert occupies, and some
    // fresh tower must reach the upper part.
    let mut dry = PimSkipList::new(cfg());
    dry.bulk_load(&base);
    let upper = dry.upper_leaf_keys().len();
    dry.enable_probe();
    dry.batch_upsert(&ups);
    assert!(dry.upper_leaf_keys().len() > upper, "no new upper leaf");
    let report = dry.take_probe().expect("probe was enabled");
    let span = |name| {
        let ids = report.spans_named(name);
        assert_eq!(ids.len(), 1, "one {name} span");
        let span = &report.spans[ids[0] as usize];
        (span.start_round, span.end_round)
    };
    let (start, end) = span("upsert");
    assert_eq!(span("upsert/update_pass").0, start);
    assert_eq!(span("link").1, end, "the link round closes the batch");

    let kinds = [FaultKind::Crash, FaultKind::DropTask { nth: 0 }];
    for round in start..end {
        for (module, kind) in [0, 5, 10, 15]
            .into_iter()
            .flat_map(|m| kinds.map(|k| (m, k)))
        {
            let context = format!("{kind:?} on module {module} at round {round}");
            let mut list = PimSkipList::new(cfg());
            list.bulk_load(&base);
            list.set_fault_plan(FaultPlan::new().at(round, module, kind));
            list.try_execute(&upserts(&ups))
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(list.metrics().faults_injected, 1, "{context}: must strike");
            assert_holds(&list, &want, &context);
        }
    }
}

#[test]
fn unrecoverable_schedule_surfaces_retries_exhausted() {
    // Crash module 0 at every round: no attempt can ever complete. With
    // max_retries = 1 the retry loop gives up after three attempts: the
    // first, then `max_retries + 1` retries.
    let mut list = PimSkipList::new(Config::new(4, 1 << 8, 19).with_max_retries(1));
    let mut plan = FaultPlan::new();
    for r in 0..300 {
        plan = plan.at(r, 0, FaultKind::Crash);
    }
    list.set_fault_plan(plan);

    let pairs: Vec<(i64, u64)> = (0..50).map(|i| (i, i as u64)).collect();
    let err = list
        .try_execute(&upserts(&pairs))
        .expect_err("must exhaust retries");
    assert!(
        matches!(err, PimError::RetriesExhausted { .. }),
        "expected RetriesExhausted, got: {err}"
    );
    assert!(matches!(
        err,
        PimError::RetriesExhausted { attempts: 3, .. }
    ));
}

#[test]
fn a_failed_restore_is_finished_before_the_next_call() {
    // Crash module 0 at every round: the Get fails, and every attempt of
    // the whole-machine restore that follows fails too, so the machine is
    // left half-built. Once the
    // faults stop, the next call must restore it from the journal first.
    let mut list = PimSkipList::new(Config::new(4, 1 << 8, 19).with_max_retries(1));
    let pairs: Vec<(i64, u64)> = (0..50).map(|i| (i, i as u64)).collect();
    list.bulk_load(&pairs);
    let start = list.metrics().rounds;
    let plan =
        (start..start + 300).fold(FaultPlan::new(), |plan, r| plan.at(r, 0, FaultKind::Crash));
    list.set_fault_plan(plan);
    let err = list
        .try_execute(&gets(&[1, 2, 3]))
        .expect_err("restore fails");
    assert!(
        matches!(
            err,
            PimError::RetriesExhausted {
                op: "restore_all",
                ..
            }
        ),
        "got: {err}"
    );
    list.set_fault_plan(FaultPlan::new());
    let replies = list.try_execute(&gets(&[7, 70])).expect("faults stopped");
    assert_eq!(replies, [Reply::Value(Some(7)), Reply::Value(None)]);
    assert_holds(&list, &pairs, "after the failed restore");
}

#[test]
fn invalid_arguments_are_typed_errors_not_retries() {
    let mut list = PimSkipList::new(Config::new(4, 1 << 8, 23));
    list.bulk_load(&[(1, 1), (2, 2)]);
    let err = list.try_bulk_load(&[(3, 3)]).expect_err("non-empty");
    assert!(
        matches!(err, PimError::InvalidArgument { .. }),
        "got: {err}"
    );

    let mut empty = PimSkipList::new(Config::new(4, 1 << 8, 23));
    let err = empty
        .try_bulk_load(&[(2, 2), (1, 1)])
        .expect_err("unsorted");
    assert!(
        matches!(err, PimError::InvalidArgument { .. }),
        "got: {err}"
    );
    assert_eq!(
        list.metrics().retries_issued,
        0,
        "argument errors must not burn retries"
    );
}
