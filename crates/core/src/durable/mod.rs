//! Durable persistence: a checksummed write-ahead log plus compacted
//! snapshots, with crash recovery back into a [`PimSkipList`].
//!
//! The simulated PIM machine is volatile — what survives a process crash
//! is this module's on-disk state, in one directory:
//!
//! * `wal-<seq>.log` — append-only segments of checksummed frames, one
//!   frame per *committed span* of [`crate::Op`]s (exactly the unit
//!   [`PimSkipList::try_execute`] commits: the runs of one `execute`
//!   call, which share rounds; only an invalid run or contention tracking
//!   cuts a call into several spans);
//! * `snapshot-<seq>.snap` — the full key/value contents at stream
//!   position `seq`, written atomically.
//!
//! The directory listing ([`scan_dir`]) is the only index. Every file is
//! checksummed and bound to the config fingerprint on its own, so its name
//! is all that recovery and compaction need; compaction lists the
//! directory, so a file a crash left behind is collected at the next
//! snapshot.
//!
//! ## Recovery contract (two tiers)
//!
//! **Tier 1 — WAL-only replay is bit-identical.** When recovery starts
//! from an empty base (no snapshot, or a snapshot taken at a
//! [`PimSkipList::bulk_load`] boundary) and replays every frame through
//! [`PimSkipList::execute`], the recovered structure is *bit-identical*
//! to an uninterrupted process: same tower heights, same handles, same
//! [`pim_runtime::Metrics`], same replies to any subsequent stream. This
//! holds because the structure is a pure function of `(Config, committed
//! spans)`, frames are exactly the committed spans, and replaying a frame
//! cuts it into the same span again.
//!
//! **Tier 2 — snapshot-compacted recovery is logically identical and
//! deterministic.** Recovery through a mid-stream snapshot rebuilds the
//! contents via [`PimSkipList::bulk_load`] and replays the WAL suffix:
//! contents, `len`, `validate()` and the *logical* replies of any
//! subsequent stream all match the oracle, and recovering twice from the
//! same directory is byte-identical — but tower heights (and therefore
//! raw metrics) may differ from the uninterrupted process, because the
//! random draws that shaped the original towers are not replayed.
//!
//! A torn tail (the frame being appended when the process died) is
//! truncated at the last valid frame; corruption that loses *committed*
//! history (an interior frame, a live snapshot whose WAL was compacted
//! away) is a hard [`PimError::Corruption`] carrying file, offset and
//! both checksums.

pub(crate) mod codec;
pub(crate) mod snapshot;
pub(crate) mod wal;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::config::{Config, Key, Value};
use crate::error::{PimError, PimResult};
use crate::list::PimSkipList;
use crate::op::Op;

use snapshot::snapshot_name;
use wal::{segment_name, WalWriter};

/// When the WAL is fsynced relative to op commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every committed run — every acknowledged op is durable.
    /// Safest, slowest.
    EveryFrame,
    /// Fsync once at least this many ops are unsynced (group commit).
    EveryOps(u64),
    /// Only on explicit [`PimSkipList::durable_sync`] (and at snapshots) —
    /// a front-end such as the `pim-service` tick clock drives cadence.
    Manual,
}

/// Configuration of the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Group-commit cadence.
    pub fsync: FsyncPolicy,
    /// Write a compacted snapshot (and drop covered WAL segments) every
    /// this many ops; `None` disables automatic snapshots
    /// ([`PimSkipList::snapshot_now`] still works).
    pub snapshot_every: Option<u64>,
}

/// How many snapshots are retained. The WAL is only compacted up to the
/// *oldest* retained one, so an older snapshot stays usable if the newest
/// is ever damaged.
const KEEP_SNAPSHOTS: usize = 2;

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            fsync: FsyncPolicy::EveryFrame,
            snapshot_every: None,
        }
    }
}

impl DurabilityPolicy {
    /// Set the fsync cadence.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Snapshot (and compact) every `ops` committed operations.
    pub fn with_snapshot_every(mut self, ops: u64) -> Self {
        self.snapshot_every = Some(ops);
        self
    }
}

/// What [`PimSkipList::recover_from_dir`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stream position of the snapshot recovery started from (`None`:
    /// replayed the full WAL from an empty structure — tier-1
    /// bit-identical recovery).
    pub snapshot_seq: Option<u64>,
    /// WAL frames replayed after the base.
    pub frames_replayed: u64,
    /// Operations replayed after the base.
    pub ops_replayed: u64,
    /// Torn-tail bytes truncated from the last segment (0 on a clean
    /// shutdown).
    pub truncated_bytes: u64,
    /// The recovered structure's next op stream index.
    pub next_seq: u64,
}

/// Running I/O counters of the durability layer, for the telemetry
/// registry and dashboards. All monotonic over the life of one
/// `Durability` attachment (recovery re-attaches with fresh counters —
/// the replayed history is the `RecoveryReport`'s story, not this one's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// WAL frames appended (one per committed coalescible run).
    pub wal_frames: u64,
    /// WAL payload bytes appended.
    pub wal_bytes: u64,
    /// fsync calls actually issued (deduplicated syncs don't count).
    pub fsyncs: u64,
    /// Snapshots written (automatic and manual).
    pub snapshots: u64,
    /// WAL segments deleted by snapshot compaction.
    pub compacted_segments: u64,
}

/// The durable files of one directory, by name.
#[derive(Debug, Default)]
pub(crate) struct Listing {
    /// `snapshot-*.snap` seqs, newest first.
    pub snapshots: Vec<u64>,
    /// `wal-*.log` start seqs, ascending.
    pub segments: Vec<u64>,
    /// `snapshot-*.snap.tmp` names: snapshot writes a crash cut short.
    pub tmps: Vec<String>,
}

/// List every well-formed snapshot, segment and snapshot `.tmp` name in
/// `dir`. (Contents are verified later, when the files are actually read.)
pub(crate) fn scan_dir(dir: &Path) -> PimResult<Listing> {
    let mut l = Listing::default();
    let entries = std::fs::read_dir(dir).map_err(|e| PimError::io("dir_scan", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PimError::io("dir_scan", dir, &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = snapshot::parse_snapshot_name(&name) {
            l.snapshots.push(seq);
        } else if let Some(seq) = wal::parse_segment_name(&name) {
            l.segments.push(seq);
        } else if name
            .strip_suffix(".tmp")
            .and_then(snapshot::parse_snapshot_name)
            .is_some()
        {
            l.tmps.push(name.into_owned());
        }
    }
    l.snapshots.sort_unstable_by(|a, b| b.cmp(a));
    l.segments.sort_unstable();
    Ok(l)
}

/// Live durability state attached to a [`PimSkipList`].
pub(crate) struct Durability {
    dir: PathBuf,
    policy: DurabilityPolicy,
    config_fp: u64,
    /// Next op stream index (== ops committed since the beginning).
    pub(crate) seq: u64,
    /// Ops known durable (covered by the last fsync).
    pub(crate) synced_seq: u64,
    unsynced_ops: u64,
    last_snapshot_seq: u64,
    writer: WalWriter,
    pub(crate) stats: DurableStats,
}

impl Durability {
    /// Initialise an empty durable directory (refusing one that already
    /// holds state — that is [`PimSkipList::recover_from_dir`]'s job).
    fn open_fresh(dir: &Path, policy: DurabilityPolicy, cfg: &Config) -> PimResult<Self> {
        std::fs::create_dir_all(dir).map_err(|e| PimError::io("durable_open", dir, &e))?;
        let fp = codec::config_fingerprint(cfg);
        let existing = scan_dir(dir)?;
        if !existing.snapshots.is_empty() || !existing.segments.is_empty() {
            return Err(PimError::InvalidArgument {
                op: "enable_durability",
                reason: format!(
                    "{} already holds durable state; use PimSkipList::recover_from_dir",
                    dir.display()
                ),
            });
        }
        Ok(Durability {
            dir: dir.to_path_buf(),
            policy,
            config_fp: fp,
            seq: 0,
            synced_seq: 0,
            unsynced_ops: 0,
            last_snapshot_seq: 0,
            writer: WalWriter::create(dir, fp, 0)?,
            stats: DurableStats::default(),
        })
    }

    /// Append one committed span and apply the fsync policy.
    fn append_span(&mut self, ops: &[Op]) -> PimResult<()> {
        let bytes_before = self.writer.bytes;
        self.writer.append(self.seq, ops)?;
        self.stats.wal_frames += 1;
        self.stats.wal_bytes += self.writer.bytes - bytes_before;
        self.seq += ops.len() as u64;
        self.unsynced_ops += ops.len() as u64;
        match self.policy.fsync {
            FsyncPolicy::EveryFrame => self.sync(),
            FsyncPolicy::EveryOps(n) => {
                if self.unsynced_ops >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::Manual => Ok(()),
        }
    }

    /// Fsync the WAL: every committed op is durable when this returns.
    fn sync(&mut self) -> PimResult<()> {
        if self.synced_seq < self.seq {
            self.writer.sync()?;
            self.stats.fsyncs += 1;
            self.synced_seq = self.seq;
            self.unsynced_ops = 0;
        }
        Ok(())
    }

    /// Is an automatic snapshot due?
    fn wants_snapshot(&self) -> bool {
        self.policy
            .snapshot_every
            .is_some_and(|n| self.seq - self.last_snapshot_seq >= n.max(1))
    }

    /// Write a snapshot of `items` at the current stream position, rotate
    /// to a fresh segment, and delete what recovery no longer needs.
    /// Crash-ordering: the snapshot is renamed into place before the fresh
    /// segment is created, and both land before any file is deleted —
    /// every intermediate state recovers.
    fn snapshot(&mut self, items: &BTreeMap<Key, Value>) -> PimResult<()> {
        self.sync()?;
        let items = items.iter().map(|(&k, &v)| (k, v));
        snapshot::write_snapshot(&self.dir, self.config_fp, self.seq, items)?;
        if self.writer.start_seq != self.seq {
            self.writer = WalWriter::create(&self.dir, self.config_fp, self.seq)?;
        }
        self.stats.snapshots += 1;
        self.last_snapshot_seq = self.seq;
        self.collect()
    }

    /// Delete every file recovery cannot need: snapshots past the newest
    /// [`KEEP_SNAPSHOTS`], segments older than the oldest kept snapshot,
    /// and stale snapshot `.tmp` files. The listing decides, not a record
    /// of what was written, so a delete that a crash or an I/O error
    /// skipped is retried at the next snapshot.
    fn collect(&mut self) -> PimResult<()> {
        let files = scan_dir(&self.dir)?;
        let keep = KEEP_SNAPSHOTS.min(files.snapshots.len());
        let Some(&oldest_kept) = files.snapshots[..keep].last() else {
            return Ok(());
        };
        for &s in &files.snapshots[keep..] {
            let _ = std::fs::remove_file(self.dir.join(snapshot_name(s)));
        }
        for &s in files.segments.iter().filter(|&&s| s < oldest_kept) {
            if std::fs::remove_file(self.dir.join(segment_name(s))).is_ok() {
                self.stats.compacted_segments += 1;
            }
        }
        for name in &files.tmps {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        Ok(())
    }
}

impl PimSkipList {
    /// Turn on durable persistence into `dir` (which must not already hold
    /// durable state — restart from existing state with
    /// [`PimSkipList::recover_from_dir`]). If the structure is non-empty,
    /// an initial snapshot of its current contents is written immediately,
    /// so the directory alone is always sufficient to recover.
    pub fn enable_durability(
        &mut self,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> PimResult<()> {
        if self.durable.is_some() {
            return Err(PimError::InvalidArgument {
                op: "enable_durability",
                reason: "durability is already enabled".into(),
            });
        }
        let mut d = Durability::open_fresh(dir.as_ref(), policy, &self.cfg)?;
        if !self.is_empty() {
            d.snapshot(&self.journal)?;
        }
        self.durable = Some(Box::new(d));
        Ok(())
    }

    /// Is durable persistence enabled?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Next op stream index of the durability layer (`None` when not
    /// durable).
    pub fn durable_seq(&self) -> Option<u64> {
        self.durable.as_deref().map(|d| d.seq)
    }

    /// Ops covered by the last fsync (`None` when not durable). Equal to
    /// [`PimSkipList::durable_seq`] exactly when nothing is pending.
    pub fn durable_synced_seq(&self) -> Option<u64> {
        self.durable.as_deref().map(|d| d.synced_seq)
    }

    /// Running I/O counters of the durability layer (`None` when not
    /// durable).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.durable.as_deref().map(|d| d.stats)
    }

    /// Fsync pending WAL frames now (no-op without durability — callers
    /// like the service tier can invoke it unconditionally).
    pub fn durable_sync(&mut self) -> PimResult<()> {
        match self.durable.as_deref_mut() {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Write a compacted snapshot of the current contents now and drop WAL
    /// segments no retained snapshot needs.
    pub fn snapshot_now(&mut self) -> PimResult<()> {
        let Some(d) = self.durable.as_deref_mut() else {
            return Err(PimError::InvalidArgument {
                op: "snapshot_now",
                reason: "durability is not enabled".into(),
            });
        };
        d.snapshot(&self.journal)
    }

    /// WAL hook called by [`PimSkipList::try_execute`] for each committed
    /// span (no-op without durability).
    pub(crate) fn durable_record_span(&mut self, span: &[Op]) -> PimResult<()> {
        let Some(d) = self.durable.as_deref_mut() else {
            return Ok(());
        };
        d.append_span(span)?;
        if d.wants_snapshot() {
            d.snapshot(&self.journal)?;
        }
        Ok(())
    }

    /// Rebuild a structure from a durable directory: load the newest valid
    /// snapshot (falling back to an older retained one, or to full-WAL
    /// replay, if it is damaged), replay every complete WAL frame after it
    /// through the normal [`PimSkipList::execute`] path, truncate any torn
    /// tail at the last valid frame, and re-attach the durability layer so
    /// the recovered structure continues appending where the crashed
    /// process stopped. See the module docs for the two-tier identity
    /// contract.
    pub fn recover_from_dir(
        cfg: Config,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> PimResult<(PimSkipList, RecoveryReport)> {
        let dir = dir.as_ref();
        let fp = codec::config_fingerprint(&cfg);
        let Listing {
            snapshots: snaps,
            segments: segs,
            ..
        } = scan_dir(dir)?;
        if snaps.is_empty() && segs.is_empty() {
            return Err(PimError::InvalidArgument {
                op: "recover_from_dir",
                reason: format!("no durable state in {}", dir.display()),
            });
        }

        // A base at seq `s` is usable when the segment chain resumes
        // exactly at `s` — or when every segment predates it (a snapshot
        // taken at the very tip, crash before the rotation landed).
        let covered = |segs: &[u64], s: u64| segs.contains(&s) || segs.iter().all(|&x| x < s);

        // Newest usable snapshot first; full-WAL replay as the fallback.
        let mut base: Option<(u64, codec::Items)> = None;
        let mut first_err: Option<PimError> = None;
        for &s in &snaps {
            if !covered(&segs, s) {
                continue;
            }
            match snapshot::read_snapshot(&dir.join(snapshot_name(s)), fp) {
                Ok((seq, items)) if seq == s => {
                    base = Some((s, items));
                    break;
                }
                Ok((seq, _)) => {
                    first_err.get_or_insert_with(|| {
                        codec::corrupt(
                            &dir.join(snapshot_name(s)),
                            20,
                            s as u32,
                            seq as u32,
                            "snapshot sequence",
                        )
                    });
                }
                Err(e @ PimError::InvalidArgument { .. }) => return Err(e),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let (base_seq, base_items) = match base {
            Some(b) => b,
            None if covered(&segs, 0) && segs.contains(&0) => (0, Vec::new()),
            None => {
                return Err(first_err.unwrap_or_else(|| PimError::InvalidArgument {
                    op: "recover_from_dir",
                    reason: format!(
                        "no usable snapshot and no wal chain from op 0 in {}",
                        dir.display()
                    ),
                }))
            }
        };

        // Scan the segment chain from the base, enforcing continuity; a
        // torn tail is legal only in the final segment.
        let replay_segs: Vec<u64> = segs.iter().copied().filter(|&s| s >= base_seq).collect();
        let mut frames = Vec::new();
        let mut expected = base_seq;
        let mut truncated_bytes = 0u64;
        let mut last_seg: Option<(u64, u64)> = None;
        for (i, &s) in replay_segs.iter().enumerate() {
            let path = dir.join(segment_name(s));
            let sr = wal::read_segment(&path, fp)?;
            if sr.start_seq != s || sr.start_seq != expected {
                return Err(PimError::InvalidArgument {
                    op: "recover_from_dir",
                    reason: format!(
                        "wal chain broken at {}: segment starts at op {} but op {} was next",
                        path.display(),
                        sr.start_seq,
                        expected
                    ),
                });
            }
            let is_last = i + 1 == replay_segs.len();
            if let Some(t) = sr.torn {
                if !is_last {
                    return Err(codec::corrupt(
                        &path,
                        t.offset,
                        t.expected,
                        t.found,
                        "interior wal frame",
                    ));
                }
                let file_len = std::fs::metadata(&path)
                    .map_err(|e| PimError::io("wal_read", &path, &e))?
                    .len();
                truncated_bytes = file_len - sr.valid_len;
            }
            for f in &sr.frames {
                expected = f.seq + f.ops.len() as u64;
            }
            last_seg = Some((s, sr.valid_len));
            frames.extend(sr.frames);
        }
        let next_seq = expected;

        // Rebuild: bulk-load the snapshot contents (if any), then replay
        // every frame through the normal execute path.
        let mut list = PimSkipList::new(cfg);
        if !base_items.is_empty() {
            list.try_bulk_load(&base_items)?;
        }
        let mut ops_replayed = 0u64;
        let frames_replayed = frames.len() as u64;
        for f in &frames {
            ops_replayed += f.ops.len() as u64;
            list.try_execute(&f.ops)?;
        }

        // Re-attach the durability layer at the recovered position. The
        // reopen physically truncates any torn tail.
        let writer = match last_seg {
            Some((s, valid_len)) => WalWriter::reopen(dir, s, valid_len)?,
            None => WalWriter::create(dir, fp, next_seq)?,
        };
        let d = Durability {
            dir: dir.to_path_buf(),
            policy,
            config_fp: fp,
            seq: next_seq,
            synced_seq: next_seq,
            unsynced_ops: 0,
            last_snapshot_seq: base_seq,
            writer,
            stats: DurableStats::default(),
        };
        let report = RecoveryReport {
            snapshot_seq: if base_items.is_empty() && base_seq == 0 {
                None
            } else {
                Some(base_seq)
            },
            frames_replayed,
            ops_replayed,
            truncated_bytes,
            next_seq,
        };
        list.durable = Some(Box::new(d));
        Ok((list, report))
    }
}

/// Fresh per-test scratch directory under the system temp dir.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim-durable-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use std::collections::BTreeMap;

    fn cfg() -> Config {
        Config::new(4, 1 << 10, 42)
    }

    fn ops(lo: i64, n: i64) -> Vec<Op> {
        (lo..lo + n)
            .map(|k| Op::Upsert {
                key: k * 3,
                value: (k * 7) as u64,
            })
            .collect()
    }

    #[test]
    fn wal_only_recovery_is_bit_identical() {
        let dir = test_dir("mod-bitident");
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, DurabilityPolicy::default())
            .unwrap();
        let mut oracle = PimSkipList::new(cfg());
        for round in 0..4 {
            let batch = ops(round * 10, 10);
            let a = live.execute(&batch);
            let b = oracle.execute(&batch);
            assert_eq!(a, b);
        }
        drop(live);

        let (mut rec, report) =
            PimSkipList::recover_from_dir(cfg(), &dir, DurabilityPolicy::default()).unwrap();
        assert_eq!(report.snapshot_seq, None, "tier-1 recovery path");
        assert_eq!(report.ops_replayed, 40);
        assert_eq!(report.truncated_bytes, 0);
        // Bit-identity: metrics, contents, and future replies all match.
        assert_eq!(rec.metrics(), oracle.metrics());
        assert_eq!(rec.collect_items(), oracle.collect_items());
        rec.validate().unwrap();
        let probe = ops(-5, 20)
            .into_iter()
            .chain((0..30).map(|k| Op::Get { key: k }))
            .collect::<Vec<_>>();
        assert_eq!(rec.execute(&probe), oracle.execute(&probe));
        assert_eq!(rec.metrics(), oracle.metrics());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_compaction_drops_covered_segments() {
        let dir = test_dir("mod-compact");
        let policy = DurabilityPolicy::default().with_snapshot_every(8);
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        for round in 0..6 {
            live.execute(&ops(round * 8, 8));
        }
        drop(live);
        let m = scan_dir(&dir).unwrap();
        assert_eq!(m.snapshots, vec![48, 40], "KEEP_SNAPSHOTS honoured");
        assert_eq!(m.segments, vec![40, 48], "older segments are gone");

        // Recovery lands on the newest snapshot and replays the suffix.
        let (rec, report) = PimSkipList::recover_from_dir(cfg(), &dir, policy).unwrap();
        assert_eq!(report.snapshot_seq, Some(m.snapshots[0]));
        assert_eq!(report.next_seq, 48);
        rec.validate().unwrap();
        assert_eq!(rec.len(), 48);
        // Logical equality with a fresh oracle run.
        let mut oracle = PimSkipList::new(cfg());
        for round in 0..6 {
            oracle.execute(&ops(round * 8, 8));
        }
        assert_eq!(rec.collect_items(), oracle.collect_items());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_recovery_is_deterministic() {
        let dir = test_dir("mod-doublerec");
        let policy = DurabilityPolicy::default().with_snapshot_every(10);
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        for round in 0..3 {
            live.execute(&ops(round * 12, 12));
        }
        drop(live);
        let (mut a, ra) = PimSkipList::recover_from_dir(cfg(), &dir, policy).unwrap();
        // Recover again from the directory state the first recovery left.
        let (mut b, rb) = PimSkipList::recover_from_dir(cfg(), &dir, policy).unwrap();
        assert_eq!(ra.next_seq, rb.next_seq);
        assert_eq!(a.collect_items(), b.collect_items());
        assert_eq!(a.metrics(), b.metrics());
        let probe: Vec<Op> = (0..40).map(|k| Op::Get { key: k }).collect();
        assert_eq!(a.execute(&probe), b.execute(&probe));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_load_boundary_snapshot_restores_bit_identity() {
        let dir = test_dir("mod-bulkload");
        let pairs: Vec<(Key, Value)> = (0..200).map(|k| (k * 2, (k * 5) as u64)).collect();
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, DurabilityPolicy::default())
            .unwrap();
        live.try_bulk_load(&pairs).unwrap();
        let tail = ops(200, 15);
        live.execute(&tail);
        drop(live);

        let mut oracle = PimSkipList::new(cfg());
        oracle.try_bulk_load(&pairs).unwrap();
        oracle.execute(&tail);

        let (mut rec, report) =
            PimSkipList::recover_from_dir(cfg(), &dir, DurabilityPolicy::default()).unwrap();
        // The bulk load snapshotted at seq 0, so recovery re-runs the
        // identical bulk load: full bit-identity, metrics included.
        assert_eq!(report.snapshot_seq, Some(0));
        assert_eq!(rec.metrics(), oracle.metrics());
        assert_eq!(rec.collect_items(), oracle.collect_items());
        rec.validate().unwrap();
        let probe: Vec<Op> = (0..100).map(|k| Op::Get { key: k * 4 }).collect();
        assert_eq!(rec.execute(&probe), oracle.execute(&probe));
        assert_eq!(rec.metrics(), oracle.metrics());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuses_wrong_config_and_occupied_dir() {
        let dir = test_dir("mod-refuse");
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, DurabilityPolicy::default())
            .unwrap();
        live.execute(&ops(0, 5));
        // Different p: refused before any replay, by the segment header
        // and, once there is one, by the snapshot header.
        let refused = |dir: &Path| {
            let other = Config::new(8, 1 << 10, 42);
            matches!(
                PimSkipList::recover_from_dir(other, dir, DurabilityPolicy::default()),
                Err(PimError::InvalidArgument { .. })
            )
        };
        assert!(refused(&dir));
        live.snapshot_now().unwrap();
        drop(live);
        assert!(refused(&dir));
        // enable_durability on a dir with state: refused.
        let mut fresh = PimSkipList::new(cfg());
        assert!(matches!(
            fresh.enable_durability(&dir, DurabilityPolicy::default()),
            Err(PimError::InvalidArgument { .. })
        ));
        // Empty dir: nothing to recover.
        let empty = test_dir("mod-refuse-empty");
        assert!(matches!(
            PimSkipList::recover_from_dir(cfg(), &empty, DurabilityPolicy::default()),
            Err(PimError::InvalidArgument { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn damaged_newest_snapshot_falls_back_to_older() {
        let dir = test_dir("mod-snapfallback");
        let policy = DurabilityPolicy::default().with_snapshot_every(10);
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        for round in 0..3 {
            live.execute(&ops(round * 10, 10));
        }
        drop(live);
        let m = scan_dir(&dir).unwrap();
        assert!(m.snapshots.len() >= 2);
        // Flip a byte in the newest snapshot.
        let newest = dir.join(snapshot_name(m.snapshots[0]));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let (rec, report) = PimSkipList::recover_from_dir(cfg(), &dir, policy).unwrap();
        assert_eq!(report.snapshot_seq, Some(m.snapshots[1]));
        rec.validate().unwrap();
        assert_eq!(rec.len(), 30);
        let mut oracle = PimSkipList::new(cfg());
        for round in 0..3 {
            oracle.execute(&ops(round * 10, 10));
        }
        assert_eq!(rec.collect_items(), oracle.collect_items());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manual_fsync_tracks_synced_seq() {
        let dir = test_dir("mod-manual");
        let policy = DurabilityPolicy::default().with_fsync(FsyncPolicy::Manual);
        let mut live = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        live.execute(&ops(0, 7));
        assert_eq!(live.durable_seq(), Some(7));
        assert_eq!(live.durable_synced_seq(), Some(0));
        live.durable_sync().unwrap();
        assert_eq!(live.durable_synced_seq(), Some(7));
        // EveryOps groups commits.
        let dir2 = test_dir("mod-everyops");
        let mut grouped = PimSkipList::new(cfg());
        grouped
            .enable_durability(
                &dir2,
                DurabilityPolicy::default().with_fsync(FsyncPolicy::EveryOps(16)),
            )
            .unwrap();
        grouped.execute(&ops(0, 7));
        assert_eq!(grouped.durable_synced_seq(), Some(0));
        grouped.execute(&ops(7, 9));
        assert_eq!(grouped.durable_synced_seq(), Some(16));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn scan_finds_well_formed_names_only() {
        let dir = test_dir("mod-scan");
        for name in [
            "snapshot-0000000000000010.snap",
            "snapshot-0000000000000002.snap",
            "wal-0000000000000002.log",
            "wal-0000000000000010.log",
            "snapshot-0000000000000099.snap.tmp",
            "wal-2.log",
            "MANIFEST",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let l = scan_dir(&dir).unwrap();
        assert_eq!(l.snapshots, vec![0x10, 0x02]);
        assert_eq!(l.segments, vec![0x02, 0x10]);
        assert_eq!(l.tmps, vec!["snapshot-0000000000000099.snap.tmp"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file of `dir`, by name.
    fn read_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn every_crash_state_of_a_rotation_recovers() {
        // Snapshots at 8 and 16 are retained; the rotation at 24 writes
        // snapshot 24 and segment 24, then deletes snapshot 8 and segment 8.
        let dir = test_dir("mod-rotation");
        let policy = DurabilityPolicy::default();
        let mut live = PimSkipList::new(cfg());
        let mut oracle = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        let mut before = BTreeMap::new();
        for round in 0..3 {
            live.execute(&ops(round * 8, 8));
            oracle.execute(&ops(round * 8, 8));
            before = read_files(&dir);
            live.snapshot_now().unwrap();
        }
        drop(live);
        let after = read_files(&dir);
        let (snap, seg) = (snapshot_name(24), segment_name(24));
        let dropped = [snapshot_name(8), segment_name(8)];
        assert_eq!(
            after
                .keys()
                .filter(|n| !before.contains_key(*n))
                .collect::<Vec<_>>(),
            [&snap, &seg]
        );
        assert_eq!(
            before
                .keys()
                .filter(|n| !after.contains_key(*n))
                .collect::<Vec<_>>(),
            [&dropped[0], &dropped[1]]
        );

        // The states the rotation's file operations pass through, in order:
        // the snapshot's tmp write, its rename, the new segment, then every
        // subset of the deletes (which holds each prefix in either order).
        let mut states = vec![before.clone()];
        let mut state = before;
        let tmp = format!("{snap}.tmp");
        state.insert(tmp.clone(), after[&snap].clone());
        states.push(state.clone());
        state.remove(&tmp);
        state.insert(snap.clone(), after[&snap].clone());
        states.push(state.clone());
        state.insert(seg.clone(), after[&seg].clone());
        states.push(state.clone());
        for mask in 1..4 {
            let mut s = state.clone();
            for (i, name) in dropped.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.remove(name);
                }
            }
            states.push(s);
        }
        assert_eq!(states.last(), Some(&after));

        let want = oracle.collect_items();
        for (i, files) in states.iter().enumerate() {
            let d = test_dir(&format!("mod-rotation-{i}"));
            for (name, bytes) in files {
                std::fs::write(d.join(name), bytes).unwrap();
            }
            let (mut rec, report) = PimSkipList::recover_from_dir(cfg(), &d, policy)
                .unwrap_or_else(|e| panic!("state {i}: {e}"));
            assert_eq!(report.next_seq, 24, "state {i}");
            assert_eq!(rec.collect_items(), want, "state {i}");
            rec.validate().unwrap();
            // The next snapshot collects whatever the crash left behind.
            rec.snapshot_now().unwrap();
            let l = scan_dir(&d).unwrap();
            assert_eq!(l.snapshots, [24, 16], "state {i}");
            assert_eq!(l.segments, [16, 24], "state {i}");
            assert!(l.tmps.is_empty(), "state {i}");
            std::fs::remove_dir_all(&d).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn files_a_crash_left_behind_go_at_the_next_snapshot() {
        let dir = test_dir("mod-leftovers");
        let policy = DurabilityPolicy::default().with_snapshot_every(8);
        let mut live = PimSkipList::new(cfg());
        let mut oracle = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        let mut leftovers = Vec::new();
        for round in 0..6 {
            live.execute(&ops(round * 8, 8));
            oracle.execute(&ops(round * 8, 8));
            if round == 1 {
                // At op 16, snapshot 8 and segment 8 are still retained.
                for name in [snapshot_name(8), segment_name(8)] {
                    let bytes = std::fs::read(dir.join(&name)).unwrap();
                    leftovers.push((name, bytes));
                }
            }
        }
        drop(live);
        // Put back what a crash before an old rotation's deletes, and one
        // inside a snapshot write, would have left.
        for (name, bytes) in &leftovers {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        std::fs::write(dir.join(format!("{}.tmp", snapshot_name(52))), b"torn").unwrap();

        let (mut rec, report) = PimSkipList::recover_from_dir(cfg(), &dir, policy).unwrap();
        assert_eq!(report.snapshot_seq, Some(48));
        rec.execute(&ops(48, 8));
        oracle.execute(&ops(48, 8));
        let l = scan_dir(&dir).unwrap();
        assert_eq!(l.snapshots, [56, 48]);
        assert_eq!(l.segments, [48, 56]);
        assert!(l.tmps.is_empty());
        rec.validate().unwrap();
        assert_eq!(rec.collect_items(), oracle.collect_items());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `MANIFEST` as earlier versions wrote it: magic, format version,
    /// config fingerprint, the snapshot and segment lists, CRC-32.
    fn old_manifest(fp: u64, snapshots: &[u64], segments: &[u64]) -> Vec<u8> {
        let mut b = b"PIMMANI1".to_vec();
        codec::put_u32(&mut b, 1);
        codec::put_u64(&mut b, fp);
        for list in [snapshots, segments] {
            codec::put_u32(&mut b, list.len() as u32);
            for &s in list {
                codec::put_u64(&mut b, s);
            }
        }
        let crc = pim_runtime::crc::crc32(&b);
        codec::put_u32(&mut b, crc);
        b
    }

    #[test]
    fn a_stale_manifest_is_ignored() {
        let dir = test_dir("mod-stale-manifest");
        let policy = DurabilityPolicy::default().with_snapshot_every(8);
        let mut live = PimSkipList::new(cfg());
        let mut oracle = PimSkipList::new(cfg());
        live.enable_durability(&dir, policy).unwrap();
        for round in 0..3 {
            live.execute(&ops(round * 8, 8));
            oracle.execute(&ops(round * 8, 8));
        }
        drop(live);
        // It names files long gone and none of the live ones; the second
        // also carries another configuration's fingerprint.
        let fp = codec::config_fingerprint(&cfg());
        for manifest_fp in [fp, fp ^ 1] {
            std::fs::write(
                dir.join("MANIFEST"),
                old_manifest(manifest_fp, &[8], &[0, 8]),
            )
            .unwrap();
            let (rec, report) = PimSkipList::recover_from_dir(cfg(), &dir, policy).unwrap();
            assert_eq!(report.snapshot_seq, Some(24));
            assert_eq!(report.next_seq, 24);
            rec.validate().unwrap();
            assert_eq!(rec.collect_items(), oracle.collect_items());
        }
        // Nor does it make a directory look occupied.
        let fresh = test_dir("mod-stale-manifest-fresh");
        std::fs::write(fresh.join("MANIFEST"), old_manifest(fp, &[8], &[0, 8])).unwrap();
        PimSkipList::new(cfg())
            .enable_durability(&fresh, policy)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&fresh).ok();
    }
}
