//! `docs/MODEL.md`'s steady-state allocation contract, asserted.
//!
//! Once a structure has seen each batch shape, repeating traffic performs
//! O(1) heap allocations per Get / Update batch and a bounded fraction of
//! the batch for the search and write families — never O(batch × rounds).
//! This binary installs a counting `#[global_allocator]` (its own test
//! binary, so no other suite pays for it), pins the pool to one thread —
//! the whole engine then runs on the test's thread and the counts are
//! exact.
//!
//! Each family is counted **alone** and **per batch**. A write family's
//! restore is the next family's counted batch (Upsert of fresh keys, then
//! Delete of the same keys), so no restore ever sits inside a counted
//! window, and the denominator is the batch, not the rounds it took: a
//! change that halves rounds cannot fail this test for it. (The retired
//! per-round CI gate got both wrong — it counted Upsert + restoring Delete
//! as "Upsert" and divided by rounds.)
//!
//! The `Service` row counts one whole dispatch of a [`PimService`] fronting
//! the same list — the submits of a Get + Update batch and the tick that
//! executes it — so its pending ring, dispatch order and op / slot scratch
//! must be recycled, not rebuilt per dispatch.
//!
//! A telemetry event log at its cap is a ring: each event evicts the
//! oldest, and the chunks the evictions empty take the new events.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pim_bench::measure::build_loaded_list_with;
use pim_core::{Config, Key, Op, Value};
use pim_runtime::pool::{self, ExecConfig};
use pim_runtime::Telemetry;
use pim_service::{PimService, ServiceConfig};
use pim_workloads::PointGen;

thread_local! {
    /// Allocations made by this thread (const-initialised, no destructor,
    /// so touching it from inside the allocator never allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every acquisition path. Deallocations
/// are not tracked: the contract is about allocator pressure.
struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f` (reply included).
fn counted<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.get();
    std::hint::black_box(f());
    ALLOCS.get() - before
}

const FAMILIES: [&str; 7] = [
    "Get",
    "Update",
    "Successor",
    "Predecessor",
    "Upsert",
    "Delete",
    "Service",
];

/// One batch per family, Table 1's sizes: `P log P` for the hash-shortcut
/// families, `P log² P` for the search and write families.
struct Batches {
    get: Vec<Key>,
    update: Vec<(Key, Value)>,
    succ: Vec<Key>,
    pred: Vec<Key>,
    fresh: Vec<(Key, Value)>,
    fresh_keys: Vec<Key>,
    /// One service dispatch: the Get batch, then the Update batch.
    requests: Vec<Op>,
}

impl Batches {
    /// Allocations of each family's batch, in [`FAMILIES`] order. Delete
    /// removes exactly what Upsert inserted, so every cycle starts from the
    /// same resident set.
    fn cycle(&self, svc: &mut PimService) -> [u64; 7] {
        let list = svc.list_mut();
        [
            counted(|| list.batch_get(&self.get)),
            counted(|| list.batch_update(&self.update)),
            counted(|| list.batch_successor(&self.succ)),
            counted(|| list.batch_predecessor(&self.pred)),
            counted(|| list.batch_upsert(&self.fresh)),
            counted(|| list.batch_delete(&self.fresh_keys)),
            counted(|| {
                for &op in &self.requests {
                    svc.submit(op).expect("the queue holds one batch");
                }
                let done = svc.tick();
                assert_eq!(done.len(), self.requests.len(), "one full dispatch");
                done
            }),
        ]
    }
}

#[test]
fn steady_state_allocations_stay_within_the_contract() {
    const SEED: u64 = 0x5EED_2021;
    pool::configure(ExecConfig::with_threads(1));
    for (p, n) in [(16u32, 4_000usize), (64, 16_000)] {
        let cfg = Config::new(p, n as u64, SEED);
        let (list, keys) = build_loaded_list_with(cfg, n, SEED);

        let lg = pim_runtime::ceil_log2(u64::from(p)) as usize;
        let small = p as usize * lg;
        let large = small * lg;
        let mut gen = PointGen::new(SEED ^ 0x0A11, 0, (n as i64) * 64);
        let get = gen.from_existing(&keys, small);
        let update = PointGen::with_values(gen.from_existing(&keys, small));
        let succ = gen.uniform(large);
        let pred = gen.uniform(large);
        // Above the resident key range, so every Upsert is an insert.
        let fresh_keys: Vec<Key> = gen
            .distinct_uniform(large)
            .into_iter()
            .map(|k| k + (n as i64) * 128)
            .collect();
        let requests: Vec<Op> = get
            .iter()
            .map(|&key| Op::Get { key })
            .chain(update.iter().map(|&(key, value)| Op::Update { key, value }))
            .collect();
        let mut svc = PimService::new(list, ServiceConfig::new(requests.len()));
        let batches = Batches {
            get,
            update,
            succ,
            pred,
            fresh: PointGen::with_values(fresh_keys.clone()),
            fresh_keys,
            requests,
        };

        for _ in 0..2 {
            batches.cycle(&mut svc);
        }
        let cycles: Vec<[u64; 7]> = (0..3).map(|_| batches.cycle(&mut svc)).collect();

        // Get / Update: O(1) per batch, whatever the batch size — pinned at
        // today's exact counts, so one lost `Scratch` lease (one more
        // allocation) fails. Searches: at most one allocation per two keys.
        // Writes: replies, journal map nodes and leaf chains scale with the
        // batch, never with batch × rounds; their counts move a few percent
        // from cycle to cycle with the tower coins, hence the 1.1× below. A
        // service dispatch of a Get + Update batch: O(1), pinned at today's
        // exact count like the two families it runs. The two runs share
        // their rounds as one co-scheduled span, which allocates its job
        // table, its conflict edges and one boxed future per job (a wave's
        // reply buffer is one allocation fewer than before spans), hence
        // 15 where one run at a time took 13.
        let large = large as u64;
        let ceilings = [7, 8, large / 2, large / 2, large * 5 / 4, large * 5 / 4, 15];
        for (i, family) in FAMILIES.iter().enumerate() {
            let per_cycle: Vec<u64> = cycles.iter().map(|c| c[i]).collect();
            assert!(
                per_cycle.iter().all(|&a| a <= ceilings[i]),
                "{family} at P = {p}, n = {n}: {per_cycle:?} allocations per batch, \
                 ceiling {}",
                ceilings[i]
            );
            assert!(
                10 * per_cycle[2] <= 11 * per_cycle[0],
                "{family} at P = {p}, n = {n}: allocations per batch keep growing: \
                 {per_cycle:?}"
            );
        }
    }
}

/// The lifecycle events of service request `i`, eight requests per batch:
/// `admit`, `coalesce`, the batch's `execute` and `ack`. Returns how many
/// events it emitted.
fn emit_request(t: &mut Telemetry, i: u64) -> usize {
    let (tick, round, batch) = (i / 8, 3 * i, i / 8);
    t.emit("admit", tick, round, &[("id", i)]);
    t.emit(
        "coalesce",
        tick + 1,
        round,
        &[("id", i), ("batch", batch), ("pos", i % 8)],
    );
    let execute = i % 8 == 7;
    if execute {
        t.emit(
            "execute",
            tick + 1,
            round + 40,
            &[("batch", batch), ("n", 8), ("rounds", 40)],
        );
    }
    t.emit(
        "ack",
        tick + 2,
        round + 40,
        &[
            ("id", i),
            ("held_ticks", 0),
            ("latency_ticks", 2),
            ("latency_rounds", 40),
        ],
    );
    3 + usize::from(execute)
}

#[test]
fn a_full_event_ring_allocates_nothing() {
    const CAP: usize = 1 << 14;
    let mut t = Telemetry::new().with_max_events(CAP);
    let mut i = 0;
    while t.events().len() < CAP {
        emit_request(&mut t, i);
        i += 1;
    }
    let allocs = counted(|| {
        let mut emitted = 0;
        while emitted < 100_000 {
            emitted += emit_request(&mut t, i);
            i += 1;
        }
    });
    assert_eq!(allocs, 0, "allocations while 100k events cycle a full ring");
    assert_eq!(t.events().len(), CAP);
}
