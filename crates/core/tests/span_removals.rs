//! Pinned `execute` streams for the one co-scheduling rule that lets a
//! Delete write its links while an earlier read is still under way: a
//! removal waits only for the earlier Successor and Predecessor queries it
//! answers (`op::conflicts`, `Probe::Removed`). Each stream is a query of a
//! resident key followed by a Delete of that key — two one-op runs in one
//! span — on a machine and seed where the query's descent is still running
//! when the Delete's splice is ready. Had the rule missed the query, its
//! reply would name the key's neighbour instead of the key itself.
//!
//! The randomized contract is `proptest_execute`; these streams are the
//! boundary cases it reaches only rarely, kept as plain tests.

use pim_core::op::run_end;
use pim_core::{Config, Key, Op, PimSkipList, Reply, Value};

/// The replies of `ops`, each maximal run executed by a call of its own.
fn one_run_at_a_time(list: &mut PimSkipList, ops: &[Op]) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(ops.len());
    let mut start = 0;
    while start < ops.len() {
        let end = run_end(ops, start);
        replies.extend(list.execute(&ops[start..end]));
        start = end;
    }
    replies
}

/// Run `query` of `key` then `Delete { key }` as one span on a `p`-module
/// machine seeded `seed` and loaded with `preload`: the query must answer
/// `key` itself and the Delete must hit, exactly as the two runs answer one
/// at a time.
fn query_then_delete(seed: u64, p: u32, preload: &[(Key, Value)], query: Op, key: Key) {
    let ops = [query, Op::Delete { key }];
    let mut span = PimSkipList::new(Config::new(p, 1 << 10, seed));
    let mut alone = PimSkipList::new(Config::new(p, 1 << 10, seed));
    span.batch_upsert(preload);
    alone.batch_upsert(preload);
    let replies = span.execute(&ops);
    assert_eq!(
        replies,
        one_run_at_a_time(&mut alone, &ops),
        "seed {seed}, P = {p}: {ops:?}"
    );
    assert_eq!(
        replies[0].as_entry().flatten().map(|(k, _)| k),
        Some(key),
        "seed {seed}, P = {p}: {query:?} must see {key} before its Delete"
    );
    assert_eq!(replies[1], Reply::Deleted(true));
    assert_eq!(span.collect_items(), alone.collect_items());
    span.validate().unwrap();
}

#[test]
fn a_delete_waits_for_the_predecessor_of_its_own_key() {
    for (seed, p, preload, key) in [
        (158_220, 3, &[(15, 1), (6, 1)][..], 15),
        (720_833, 3, &[(11, 1), (8, 1)], 11),
        (728_534, 2, &[(0, 1), (9, 1), (7, 1)], 9),
    ] {
        query_then_delete(seed, p, preload, Op::Predecessor { key }, key);
    }
}

#[test]
fn a_delete_waits_for_the_successor_of_its_own_key() {
    for (seed, p, preload, key) in [
        (564_615, 3, &[(5, 1), (3, 1)][..], 5),
        (468_305, 3, &[(3, 1), (0, 1)], 3),
        (886_025, 3, &[(4, 1), (3, 1)], 4),
    ] {
        query_then_delete(seed, p, preload, Op::Successor { key }, key);
    }
}
