//! Reply checking, outside every timed window.
//!
//! `point` and `search` never write, so the resident set stays the loaded
//! arithmetic progression and the expected reply is computed from the key.
//! `churn` and `service` apply each op to a `BTreeMap` in arrival order,
//! with the structure's documented batch semantics inside a run of
//! same-kind writes: duplicate keys are deduplicated first-wins, and every
//! duplicate reports the outcome of its key's first occurrence.

use std::collections::{BTreeMap, HashMap};

use pim_core::op::run_end;
use pim_core::prelude::*;

use crate::gen::{index_of, key_of, resident_pairs, value_of, Workload, N};

pub enum Oracle {
    Arithmetic,
    Map(BTreeMap<Key, Value>),
}

impl Oracle {
    pub fn new(workload: Workload) -> Self {
        match workload {
            Workload::Point | Workload::Search => Oracle::Arithmetic,
            Workload::Churn | Workload::Service => {
                Oracle::Map(resident_pairs().into_iter().collect())
            }
        }
    }

    /// Apply `op` and say whether `reply` is what the structure must have
    /// answered. `Entry` replies are compared by key (handles are
    /// machine-local), `Range` replies by count and wrapping sum.
    fn check(&mut self, op: &Op, reply: &Reply) -> bool {
        match self {
            Oracle::Arithmetic => check_arithmetic(op, reply),
            Oracle::Map(map) => check_map(map, op, reply),
        }
    }

    /// Check one slice as the structure executed it: `ops` in arrival
    /// order, split into the runs `execute` splits it into. Returns the
    /// number of mismatches (a missing reply is a mismatch).
    pub fn check_all(&mut self, ops: &[Op], replies: &[Reply]) -> u64 {
        let mut bad = ops.len().saturating_sub(replies.len()) as u64;
        let ops = &ops[..ops.len().min(replies.len())];
        let mut start = 0;
        while start < ops.len() {
            let end = run_end(ops, start);
            let run = ops[start..end].iter().zip(&replies[start..end]);
            bad += match self {
                Oracle::Map(map) if ops[start].is_write() => check_write_run(map, run),
                _ => run.filter(|(op, reply)| !self.check(op, reply)).count() as u64,
            };
            start = end;
        }
        bad
    }
}

/// One run of same-kind writes: the first occurrence of a key is applied,
/// later ones are dropped and must report what the first reported.
fn check_write_run<'a>(
    map: &mut BTreeMap<Key, Value>,
    run: impl Iterator<Item = (&'a Op, &'a Reply)>,
) -> u64 {
    let mut first: HashMap<Key, Reply> = HashMap::new();
    let mut bad = 0;
    for (op, reply) in run {
        let (Op::Update { key, .. } | Op::Upsert { key, .. } | Op::Delete { key }) = *op else {
            unreachable!("a write run holds writes only");
        };
        let want = first.entry(key).or_insert_with(|| apply_write(map, op));
        bad += u64::from(reply != want);
    }
    bad
}

/// Apply a write to `map`; the reply the structure must give.
fn apply_write(map: &mut BTreeMap<Key, Value>, op: &Op) -> Reply {
    match *op {
        Op::Update { key, value } => {
            Reply::Updated(map.get_mut(&key).map(|v| *v = value).is_some())
        }
        Op::Upsert { key, value } => Reply::Upserted(match map.insert(key, value) {
            Some(_) => UpsertOutcome::Updated,
            None => UpsertOutcome::Inserted,
        }),
        Op::Delete { key } => Reply::Deleted(map.remove(&key).is_some()),
        _ => unreachable!("{op:?} is not a write"),
    }
}

fn entry_key(reply: &Reply) -> Option<Option<Key>> {
    reply.as_entry().map(|e| e.map(|(k, _)| k))
}

fn check_arithmetic(op: &Op, reply: &Reply) -> bool {
    let (lo, hi) = (key_of(0), key_of(N - 1));
    match *op {
        Op::Get { key } => *reply == Reply::Value(index_of(key).map(value_of)),
        Op::Successor { key } => {
            let up = key.div_euclid(4) * 4 + if key.rem_euclid(4) == 0 { 0 } else { 4 };
            entry_key(reply) == Some((up <= hi).then_some(up.max(lo)))
        }
        Op::Predecessor { key } => {
            let down = key.div_euclid(4) * 4;
            entry_key(reply) == Some((down >= lo).then_some(down.min(hi)))
        }
        _ => false,
    }
}

fn check_map(map: &mut BTreeMap<Key, Value>, op: &Op, reply: &Reply) -> bool {
    match *op {
        Op::Get { key } => *reply == Reply::Value(map.get(&key).copied()),
        Op::Update { .. } | Op::Upsert { .. } | Op::Delete { .. } => *reply == apply_write(map, op),
        Op::Predecessor { key } => {
            entry_key(reply) == Some(map.range(..=key).next_back().map(|(k, _)| *k))
        }
        Op::Successor { key } => entry_key(reply) == Some(map.range(key..).next().map(|(k, _)| *k)),
        Op::Range { lo, hi, .. } => {
            let (count, sum) = map
                .range(lo..=hi)
                .fold((0u64, 0u64), |(c, s), (_, v)| (c + 1, s.wrapping_add(*v)));
            matches!(reply, Reply::Range(r) if r.count == count && r.sum == sum)
        }
    }
}

/// A reply of another variant than `reply`, for `--self-test`.
pub fn flipped(reply: &Reply) -> Reply {
    match reply {
        Reply::Updated(_) => Reply::Deleted(true),
        _ => Reply::Updated(true),
    }
}
