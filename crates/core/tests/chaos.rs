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

    // A crash under a read takes the other repair path: `recover_module`
    // re-installs one replica, whose start must come back with it — the
    // retried Successor descends from it on the rebuilt module too.
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
    chaotic.validate().expect("valid after recover_module");
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
    // max_retries = 1 the wrapper gives up after two attempts.
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
