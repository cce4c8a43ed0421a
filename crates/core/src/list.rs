//! The CPU-side driver: [`PimSkipList`].
//!
//! The driver plays the role of the model's CPU side: it stages batches in
//! shared memory, runs the CPU-side parallel preprocessing (sort, semisort,
//! hint computation — all charged as CPU work/depth), issues `TaskSend`s,
//! and advances the machine round by round. All structural mutations of the
//! replicated arena flow through CPU broadcasts paired with the
//! [`ShadowAllocator`], keeping every module's replica bit-identical.

use pim_runtime::hashfn;
use pim_runtime::{FaultPlan, Handle, Metrics, ModuleId, PimSystem, Rng};

use crate::arena::{ShadowAllocator, ShadowStart};
use crate::config::{Config, Key, Value};
use crate::journal::Journal;
use crate::module::{ModuleParams, SkipModule};
use crate::node::Node;
use crate::tasks::Task;

/// A PIM-balanced batch-parallel skip list on a simulated PIM machine.
///
/// ```
/// use pim_core::{Config, PimSkipList};
///
/// let mut list = PimSkipList::new(Config::new(4, 1 << 10, 42));
/// list.batch_upsert(&[(10, 100), (20, 200), (30, 300)]);
/// assert_eq!(list.batch_get(&[20, 25]), vec![Some(200), None]);
/// assert_eq!(list.len(), 3);
/// ```
pub struct PimSkipList {
    pub(crate) sys: PimSystem<SkipModule>,
    pub(crate) cfg: Config,
    pub(crate) shadow: ShadowAllocator,
    /// Where descents sent from the CPU side begin: every link and unlink
    /// of the replicated part is recorded here as it is broadcast, so this
    /// equals each healthy module's own [`SkipModule::start`].
    pub(crate) start: ShadowStart,
    pub(crate) rng: Rng,
    pub(crate) len: u64,
    /// Host-DRAM journal of committed contents (recovery source of truth;
    /// unmetered CPU bookkeeping, see [`crate::journal`]).
    pub(crate) journal: Journal,
    /// Per-wave contention of the last pivoted batch (populated only when
    /// [`Config::track_contention`] is set). Entry 0 is phase 0: the
    /// number of pivots the busiest module served (Lemma 2.2). Every later
    /// entry — the stage-1 phases from 1 on, then stage 2 last — is the
    /// max per-node access count over lower-part nodes (Lemma 4.2).
    pub last_phase_contention: Vec<u32>,
    /// Reusable CPU-side staging buffers (capacity recycled across
    /// batches; see [`crate::scratch`]).
    pub(crate) scratch: crate::scratch::Scratch,
    /// Durable persistence layer (`None` unless
    /// [`PimSkipList::enable_durability`] was called — the hot path then
    /// pays exactly one `is_some` branch per committed run).
    pub(crate) durable: Option<Box<crate::durable::Durability>>,
    /// Telemetry registry (`None` unless
    /// [`PimSkipList::enable_telemetry`] was called — same one-branch
    /// dark-mode contract as `durable`).
    pub(crate) telemetry: Option<Box<crate::telem::CoreTelemetry>>,
    /// Bumped at the start of every structural-mutation phase (upsert
    /// link, delete mark, bulk load, recovery); the push-pull hot-node
    /// cache invalidates its snapshots when it observes a new value (see
    /// [`crate::hotcache`]). Plain bookkeeping — maintained whether or
    /// not push-pull is on, so toggling the feature never changes it.
    pub(crate) write_epoch: u64,
    /// Push-pull hot-node cache (`None` unless [`Config::push_pull`] —
    /// the search hot path then pays exactly one `is_some` branch, same
    /// dark-mode contract as `durable`/`telemetry`).
    pub(crate) hot: Option<Box<crate::hotcache::HotNodeCache>>,
}

/// Round-robin module dealer of one wave (see [`PimSkipList::deal`]).
pub(crate) struct Deal {
    next: ModuleId,
    p: u32,
}

impl Deal {
    /// The module the wave's next replicated-start task goes to.
    pub(crate) fn next(&mut self) -> ModuleId {
        let module = self.next;
        self.next = (module + 1) % self.p;
        module
    }
}

impl PimSkipList {
    /// Build an empty structure on `cfg.p` PIM modules.
    pub fn new(cfg: Config) -> Self {
        let params = ModuleParams {
            p: cfg.p,
            h_low: cfg.h_low,
            max_level: cfg.max_level,
            seed: cfg.seed,
            track_contention: cfg.track_contention,
        };
        let sys = PimSystem::new(cfg.p, |id| SkipModule::new(id, params.clone()));
        let mut shadow = ShadowAllocator::new();
        for _ in 0..=cfg.max_level {
            shadow.alloc(); // −∞ tower occupies slots 0..=max_level
        }
        let start = ShadowStart::new(cfg.h_low, cfg.max_level);
        let rng = Rng::new(cfg.seed ^ 0x5EED_5EED);
        let hot = cfg
            .push_pull
            .then(|| Box::new(crate::hotcache::HotNodeCache::new(cfg.push_pull_capacity())));
        PimSkipList {
            sys,
            cfg,
            shadow,
            start,
            rng,
            len: 0,
            journal: Journal::new(),
            last_phase_contention: Vec::new(),
            scratch: crate::scratch::Scratch::default(),
            durable: None,
            telemetry: None,
            write_epoch: 0,
            hot,
        }
    }

    /// Turn push-pull batch search on or off at runtime (see
    /// [`crate::Config::push_pull`]). Turning it off releases the cache
    /// and its charged shared memory; the structure is then byte-identical
    /// in behaviour to one that never had the feature. Turning it on
    /// starts from a cold (empty) cache.
    pub fn set_push_pull(&mut self, on: bool) {
        self.cfg.push_pull = on;
        if on {
            if self.hot.is_none() {
                self.hot = Some(Box::new(crate::hotcache::HotNodeCache::new(
                    self.cfg.push_pull_capacity(),
                )));
            }
        } else if let Some(hot) = self.hot.take() {
            if hot.charged_words > 0 {
                self.sys.sample_shared_mem();
                self.sys.shared_mem().free(hot.charged_words);
            }
        }
    }

    /// Is push-pull batch search currently on?
    pub fn push_pull_enabled(&self) -> bool {
        self.hot.is_some()
    }

    /// Resident hot-node cache records (bench/test instrumentation; 0
    /// with push-pull off).
    pub fn hot_cache_len(&self) -> usize {
        self.hot.as_ref().map_or(0, |h| h.len())
    }

    /// Mark the start of a structural-mutation phase: the push-pull cache
    /// must not trust its snapshots past this point (see
    /// [`crate::hotcache`] for the coherence rule).
    pub(crate) fn bump_write_epoch(&mut self) {
        self.write_epoch = self.write_epoch.wrapping_add(1);
    }

    /// The [`ModuleParams`] every module of this structure was built with
    /// (recovery reconstructs crashed modules from them).
    pub(crate) fn module_params(&self) -> ModuleParams {
        ModuleParams {
            p: self.cfg.p,
            h_low: self.cfg.h_low,
            max_level: self.cfg.max_level,
            seed: self.cfg.seed,
            track_contention: self.cfg.track_contention,
        }
    }

    /// Install a deterministic fault schedule on the underlying machine
    /// (an empty plan removes the injector entirely — execution is then
    /// bit-identical to a machine that never had one).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.sys.set_fault_plan(plan);
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Is the structure empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration this structure was built with.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Number of PIM modules.
    pub fn p(&self) -> u32 {
        self.cfg.p
    }

    /// Snapshot of the machine's accumulated cost metrics.
    pub fn metrics(&self) -> Metrics {
        self.sys.metrics()
    }

    /// Local-memory words per module (Theorem 3.1 measurements).
    pub fn space_per_module(&self) -> Vec<u64> {
        self.sys.local_words_per_module()
    }

    /// Start recording one [`pim_runtime::RoundTrace`] per round
    /// (experiment instrumentation).
    pub fn enable_tracing(&mut self) {
        self.sys.enable_tracing();
    }

    /// Stop tracing and take the recorded rounds.
    pub fn take_trace(&mut self) -> pim_runtime::Trace {
        self.sys.take_trace()
    }

    /// Like [`PimSkipList::enable_tracing`] but keeping only the `cap`
    /// most-recent rounds (ring buffer; evictions are counted).
    pub fn enable_tracing_with_cap(&mut self, cap: usize) {
        self.sys.enable_tracing_with_cap(cap);
    }

    /// Start span-based cost attribution: every batch operation from now
    /// on brackets its phases with spans (see the span taxonomy in
    /// `docs/MODEL.md`), and every cost accrued is attributed to the
    /// innermost open span. Zero overhead for the machine's accounting —
    /// metrics and traces stay bit-identical.
    pub fn enable_probe(&mut self) {
        self.sys.enable_probe();
    }

    /// Stop probing and harvest the span report (`None` if
    /// [`PimSkipList::enable_probe`] was never called).
    pub fn take_probe(&mut self) -> Option<pim_runtime::ProbeReport> {
        self.sys.take_probe()
    }

    /// Run `f` inside a named span (no-op bracketing when no probe is
    /// enabled). The span closes when `f` returns, including on `Err`
    /// propagation from fault-observable attempts.
    pub(crate) fn spanned<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.sys.span_enter(name);
        let out = f(self);
        self.sys.span_exit();
        out
    }

    /// Open a named probe span (no-op when no probe is enabled). Layered
    /// front-ends — the `pim-service` scheduler — bracket their own phases
    /// (`service/coalesce`, `service/dispatch`, `service/reply`) around
    /// the batch entry points with this; every span opened must be closed
    /// with [`PimSkipList::span_exit`] before the probe is harvested.
    pub fn span_enter(&mut self, name: &'static str) {
        self.sys.span_enter(name);
    }

    /// Close the innermost span opened with [`PimSkipList::span_enter`].
    pub fn span_exit(&mut self) {
        self.sys.span_exit();
    }

    /// The replicated −∞ sentinel a descent begins at: the highest one
    /// with a linked `right` (the levels above it are empty), or level
    /// `top` if that is higher — an insert taller than every linked tower
    /// needs a predecessor report from each of its levels.
    pub(crate) fn descent_start(&self, top: u8) -> Handle {
        Handle::replicated(u32::from(self.start.level().max(top)))
    }

    /// The replicated −∞ leaf handle.
    pub(crate) fn inf_leaf(&self) -> Handle {
        Handle::replicated(0)
    }

    /// The module hosting lower-part node `(key, level)`.
    pub(crate) fn module_of(&self, key: Key, level: u8) -> ModuleId {
        hashfn::module_of(self.cfg.seed, key, level, self.cfg.p)
    }

    /// Start dealing one wave's replicated-start tasks: a uniformly random
    /// first module, then round-robin. Replicas are identical and the
    /// adversary never sees the offset, so any module serves as well as any
    /// other — and `k` dealt tasks load no module with more than `⌈k/P⌉`,
    /// where `k` independent draws are balls in bins.
    pub(crate) fn deal(&mut self) -> Deal {
        Deal {
            next: self.rng.below(u64::from(self.cfg.p)) as ModuleId,
            p: self.cfg.p,
        }
    }

    /// Route a write-style task to the module(s) owning `target`:
    /// replicated targets are broadcast (one write per replica), local
    /// targets unicast.
    pub(crate) fn send_write(&mut self, target: Handle, task: Task) {
        if target.is_replicated() {
            self.sys.broadcast(|_| task.clone());
        } else {
            self.sys.send(target.module(), task);
        }
    }

    /// CPU-side inspection of any node (tests, invariants, experiments —
    /// not a model data path; replicas are read from module 0).
    pub(crate) fn inspect(&self, h: Handle) -> &Node {
        if h.is_replicated() {
            self.sys.module(0).node(h)
        } else {
            self.sys.module(h.module()).node(h)
        }
    }

    /// Inspect a replica as seen by a *specific* module (per-module fields
    /// such as `next_leaf`).
    pub(crate) fn inspect_at(&self, module: ModuleId, h: Handle) -> &Node {
        self.sys.module(module).node(h)
    }

    /// Drain module contention counters and return the max count over
    /// replicas and over lower-part nodes, in that order. A replica's count
    /// is per module (a load, Lemma 2.2); only a lower-part node's count is
    /// the per-node contention Lemma 4.2 bounds.
    pub(crate) fn take_max_contention(&mut self) -> (u32, u32) {
        let (mut replica, mut lower) = (0, 0);
        for id in 0..self.cfg.p {
            for (bits, c) in self.sys.module_mut(id).take_contention() {
                if Handle::from_bits(bits).is_replicated() {
                    replica = replica.max(c);
                } else {
                    lower = lower.max(c);
                }
            }
        }
        (replica, lower)
    }

    /// All `(key, value)` pairs in key order, read via CPU inspection of
    /// the level-0 chain (test oracle; does not touch the network).
    pub fn collect_items(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut cur = self.inspect(self.inf_leaf()).right;
        while cur.is_some() {
            let n = self.inspect(cur);
            out.push((n.key, n.value));
            cur = n.right;
        }
        out
    }

    /// All `(key, value)` pairs in key order, fetched **through the model's
    /// data path** (a full-domain broadcast range read) rather than by CPU
    /// inspection — the public export entry point, fully metered.
    pub fn export(&mut self) -> Vec<(Key, Value)> {
        if self.cfg.h_low == 0 {
            // Full-replication ablation: no local leaf lists to stream
            // from; fall back to inspection (documented limitation).
            return self.collect_items();
        }
        self.range_broadcast(Key::MIN + 1, Key::MAX, crate::tasks::RangeFunc::Read)
            .items
    }

    /// Convenience single-key get (wraps a singleton batch; real workloads
    /// should use [`PimSkipList::batch_get`] with the paper's batch sizes).
    pub fn get(&mut self, key: Key) -> Option<Value> {
        self.batch_get(&[key]).pop().expect("singleton batch")
    }

    /// Convenience single-pair upsert.
    pub fn upsert(&mut self, key: Key, value: Value) {
        self.batch_upsert(&[(key, value)]);
    }

    /// Convenience single-key delete; returns whether the key was present.
    pub fn delete(&mut self, key: Key) -> bool {
        self.batch_delete(&[key]).pop().expect("singleton batch")
    }

    /// Load many pairs by running batched upserts of the paper's preferred
    /// size (`P log² P`).
    pub fn load(&mut self, pairs: &[(Key, Value)]) {
        let chunk = self.cfg.batch_large().max(1);
        for c in pairs.chunks(chunk) {
            self.batch_upsert(c);
        }
    }
}

impl PimSkipList {
    /// Drain one module's contention counters (experiment instrumentation;
    /// returns `(handle bits, access count)` pairs recorded since the last
    /// drain). Only populated when [`Config::track_contention`] is set or
    /// [`PimSkipList::set_module_contention_tracking`] was called.
    pub fn drain_contention(
        &mut self,
        module: pim_runtime::ModuleId,
    ) -> std::collections::HashMap<u64, u32> {
        self.sys.module_mut(module).take_contention()
    }

    /// Keys of the upper-part leaves, left to right, by CPU inspection
    /// (test and experiment instrumentation: the searches whose keys lie
    /// between two consecutive leaves enter the lower part at one node).
    pub fn upper_leaf_keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        let mut at = self
            .inspect(Handle::replicated(u32::from(self.cfg.h_low)))
            .right;
        while at.is_some() {
            let leaf = self.inspect(at);
            keys.push(leaf.key);
            at = leaf.right;
        }
        keys
    }

    /// Toggle module-side access counting without touching the driver's
    /// per-phase draining (which stays keyed on the construction-time
    /// [`Config::track_contention`]). With the driver drain off, counts
    /// accumulate until [`PimSkipList::drain_contention`] — the §3.1
    /// path-split probe reads whole search paths this way.
    pub fn set_module_contention_tracking(&mut self, on: bool) {
        for id in 0..self.cfg.p {
            self.sys.module_mut(id).set_contention_tracking(on);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_structure_has_sentinel_only() {
        let list = PimSkipList::new(Config::new(4, 64, 1));
        assert_eq!(list.len(), 0);
        assert!(list.collect_items().is_empty());
        assert_eq!(
            list.descent_start(0),
            Handle::replicated(u32::from(list.cfg.h_low))
        );
        let start = list.inspect(list.descent_start(0));
        assert_eq!(start.key, crate::config::NEG_INF);
        assert!(start.right.is_null());
    }

    #[test]
    fn sentinel_tower_is_wired_vertically() {
        let list = PimSkipList::new(Config::new(4, 64, 1));
        let mut cur = Handle::replicated(u32::from(list.cfg.max_level));
        let mut levels = 0;
        loop {
            let n = list.inspect(cur);
            levels += 1;
            if n.down.is_null() {
                assert_eq!(n.level, 0);
                break;
            }
            cur = n.down;
        }
        assert_eq!(levels, u32::from(list.cfg.max_level) + 1);
    }

    /// Level of the start the driver and (validated) every module agree on.
    fn start_level(list: &PimSkipList) -> u8 {
        list.validate().expect("valid, starts agree");
        list.descent_start(0).slot() as u8
    }

    /// Keys of the towers linked at the start level.
    fn tallest_keys(list: &PimSkipList) -> Vec<Key> {
        let mut keys = Vec::new();
        let mut cur = list.inspect(list.descent_start(0)).right;
        while cur.is_some() {
            let n = list.inspect(cur);
            keys.push(n.key);
            cur = n.right;
        }
        keys
    }

    #[test]
    fn start_falls_with_the_tallest_tower_and_rises_again() {
        for cfg in [
            Config::new(4, 1 << 10, 11),
            Config::new(4, 1 << 10, 11).with_h_low(0),
            // The fine-grained baseline: one replicated level of towers.
            Config::new(4, 1 << 10, 11).with_h_low(Config::new(4, 1 << 10, 11).max_level - 1),
        ] {
            let h_low = cfg.h_low;
            // No tower reaches the fine-grained baseline's replicated level.
            let reached = h_low < cfg.max_level - 1;
            let mut list = PimSkipList::new(cfg);
            assert_eq!(start_level(&list), h_low);
            let pairs: Vec<(Key, Value)> = (0..600).map(|i| (i * 3, i as u64)).collect();
            list.bulk_load(&pairs);
            assert_eq!(start_level(&list) > h_low, reached, "h_low = {h_low}");

            // Peel the top levels off, one level's towers at a time.
            let mut removed = Vec::new();
            while start_level(&list) > h_low {
                let before = start_level(&list);
                let tallest = tallest_keys(&list);
                assert!(list.batch_delete(&tallest).iter().all(|&found| found));
                assert!(start_level(&list) < before, "h_low = {h_low}");
                removed.extend(tallest);
            }
            assert_eq!(list.len() + removed.len() as u64, 600);

            // Fresh coins; at least as many towers as before come back.
            let back: Vec<(Key, Value)> = removed.iter().map(|&k| (k, 1)).collect();
            list.batch_upsert(&back);
            assert_eq!(start_level(&list) > h_low, reached, "h_low = {h_low}");
            assert_eq!(list.len(), 600);
            assert_eq!(
                list.batch_successor(&[-5]).pop().flatten().map(|e| e.0),
                Some(0)
            );
        }
    }

    #[test]
    fn insert_taller_than_every_linked_tower_links_at_each_level() {
        let mut list = PimSkipList::new(Config::new(4, 1 << 10, 5));
        let h_low = list.cfg.h_low;
        let mut jumps = 0;
        for key in 0..400 {
            let before = start_level(&list);
            list.upsert(key, 7);
            let top = start_level(&list);
            assert!(top >= before, "inserts never lower the start");
            // The search began above every linked tower, so the new one is
            // alone behind the sentinel at each level it added.
            for level in before + 1..=top {
                let sentinel = list.inspect(Handle::replicated(u32::from(level)));
                assert_eq!(sentinel.right_key, key);
                assert!(list.inspect(sentinel.right).right.is_null());
            }
            if before > h_low && top > before + 1 {
                jumps += 1;
            }
        }
        assert!(jumps > 0, "no insert jumped two levels over a linked top");
    }

    #[test]
    fn space_accounting_counts_sentinels() {
        let list = PimSkipList::new(Config::new(8, 64, 1));
        let words = list.space_per_module();
        assert_eq!(words.len(), 8);
        assert!(words.iter().all(|&w| w > 0));
    }
}
