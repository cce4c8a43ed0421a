//! The `MANIFEST`: which snapshot is live and which WAL segments exist.
//!
//! ```text
//! [magic "PIMMANI1"] [version: u32] [config_fp: u64]
//! [snap_count: u32] snap_count × [snapshot_seq: u64]
//! [seg_count: u32]  seg_count  × [segment_start_seq: u64]
//! [crc: u32]
//! ```
//!
//! Rewritten atomically (tmp + fsync + rename + dir fsync) after every
//! snapshot/compaction. The manifest is an *index*, not the source of
//! truth: every file it names is still individually checksummed, and when
//! the manifest is missing or corrupt, recovery falls back to scanning the
//! directory for well-formed `snapshot-*.snap` / `wal-*.log` names.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use pim_runtime::crc::crc32;

use crate::durable::codec::{self, Reader};
use crate::durable::wal::sync_dir;
use crate::durable::{snapshot, wal};
use crate::error::{PimError, PimResult};

pub(crate) const MANIFEST_MAGIC: &[u8; 8] = b"PIMMANI1";
pub(crate) const MANIFEST_VERSION: u32 = 1;
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

/// The durable directory's table of contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Retained snapshot op-seqs, newest first.
    pub snapshots: Vec<u64>,
    /// Live segment start-seqs, ascending.
    pub segments: Vec<u64>,
}

/// Atomically rewrite the manifest.
pub(crate) fn write_manifest(dir: &Path, config_fp: u64, m: &Manifest) -> PimResult<()> {
    let mut bytes = Vec::with_capacity(28 + 8 * (m.snapshots.len() + m.segments.len()));
    bytes.extend_from_slice(MANIFEST_MAGIC);
    codec::put_u32(&mut bytes, MANIFEST_VERSION);
    codec::put_u64(&mut bytes, config_fp);
    codec::put_u32(&mut bytes, m.snapshots.len() as u32);
    for &s in &m.snapshots {
        codec::put_u64(&mut bytes, s);
    }
    codec::put_u32(&mut bytes, m.segments.len() as u32);
    for &s in &m.segments {
        codec::put_u64(&mut bytes, s);
    }
    let crc = crc32(&bytes);
    codec::put_u32(&mut bytes, crc);

    let path = dir.join(MANIFEST_NAME);
    let tmp = dir.join("MANIFEST.tmp");
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(|e| PimError::io("manifest_write", &tmp, &e))?;
    f.write_all(&bytes)
        .map_err(|e| PimError::io("manifest_write", &tmp, &e))?;
    f.sync_all()
        .map_err(|e| PimError::io("manifest_sync", &tmp, &e))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| PimError::io("manifest_rename", &path, &e))?;
    sync_dir(dir)
}

/// Read and verify the manifest. `Ok(None)` when the file does not exist
/// *or* fails its checksum — both send the caller to the directory-scan
/// fallback (the files themselves are still individually verified there).
/// A valid manifest with the wrong config fingerprint is a hard error.
pub(crate) fn read_manifest(dir: &Path, config_fp: u64) -> PimResult<Option<Manifest>> {
    let path = dir.join(MANIFEST_NAME);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PimError::io("manifest_read", &path, &e)),
        Ok(mut f) => f
            .read_to_end(&mut bytes)
            .map_err(|e| PimError::io("manifest_read", &path, &e))?,
    };
    if bytes.len() < 32 {
        return Ok(None);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let claimed = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32(body) != claimed || &body[..8] != MANIFEST_MAGIC {
        return Ok(None);
    }
    let mut r = Reader::new(&body[8..]);
    let (Some(version), Some(fp)) = (r.u32(), r.u64()) else {
        return Ok(None);
    };
    if version != MANIFEST_VERSION {
        return Ok(None);
    }
    if fp != config_fp {
        return Err(PimError::InvalidArgument {
            op: "recover_from_dir",
            reason: format!(
                "{} was written under a different configuration \
                 (fingerprint {fp:#018x}, ours {config_fp:#018x})",
                path.display()
            ),
        });
    }
    let read_list = |r: &mut Reader<'_>| -> Option<Vec<u64>> {
        let n = r.u32()?;
        // `n` is untrusted: the body bounds how many 8-byte words follow.
        let mut v = Vec::with_capacity((n as usize).min(r.remaining() / 8));
        for _ in 0..n {
            v.push(r.u64()?);
        }
        Some(v)
    };
    let (Some(snapshots), Some(segments)) = (read_list(&mut r), read_list(&mut r)) else {
        return Ok(None);
    };
    if !r.is_empty() {
        return Ok(None);
    }
    Ok(Some(Manifest {
        snapshots,
        segments,
    }))
}

/// Directory-scan fallback: list every well-formed snapshot/segment name.
/// (Contents are verified later, when the files are actually read.)
pub(crate) fn scan_dir(dir: &Path) -> PimResult<Manifest> {
    let mut snapshots = Vec::new();
    let mut segments = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| PimError::io("recover_scan", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PimError::io("recover_scan", dir, &e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = snapshot::parse_snapshot_name(&name) {
            snapshots.push(seq);
        } else if let Some(seq) = wal::parse_segment_name(&name) {
            segments.push(seq);
        }
    }
    snapshots.sort_unstable_by(|a, b| b.cmp(a));
    segments.sort_unstable();
    Ok(Manifest {
        snapshots,
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::test_dir;

    #[test]
    fn roundtrip_and_atomic_rewrite() {
        let dir = test_dir("manifest-roundtrip");
        let m1 = Manifest {
            snapshots: vec![],
            segments: vec![0],
        };
        write_manifest(&dir, 9, &m1).unwrap();
        assert_eq!(read_manifest(&dir, 9).unwrap(), Some(m1));
        let m2 = Manifest {
            snapshots: vec![256, 128],
            segments: vec![128, 256],
        };
        write_manifest(&dir, 9, &m2).unwrap();
        assert_eq!(read_manifest(&dir, 9).unwrap(), Some(m2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_corrupt_falls_back_wrong_config_refused() {
        let dir = test_dir("manifest-fallback");
        assert_eq!(read_manifest(&dir, 1).unwrap(), None);
        let m = Manifest {
            snapshots: vec![4],
            segments: vec![4, 9],
        };
        write_manifest(&dir, 1, &m).unwrap();
        assert!(matches!(
            read_manifest(&dir, 2),
            Err(PimError::InvalidArgument { .. })
        ));
        // Corrupt it: reader treats it as absent, not fatal.
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_manifest(&dir, 1).unwrap(), None);
        // So is a CRC-valid manifest whose snapshot or segment list
        // claims `u32::MAX` entries with one word behind it.
        for (snap_count, seg_count) in [(u32::MAX, None), (0, Some(u32::MAX))] {
            let mut bytes = MANIFEST_MAGIC.to_vec();
            codec::put_u32(&mut bytes, MANIFEST_VERSION);
            codec::put_u64(&mut bytes, 1);
            codec::put_u32(&mut bytes, snap_count);
            if let Some(n) = seg_count {
                codec::put_u32(&mut bytes, n);
            }
            codec::put_u64(&mut bytes, 7);
            let crc = crc32(&bytes);
            codec::put_u32(&mut bytes, crc);
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(read_manifest(&dir, 1).unwrap(), None);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_finds_well_formed_names_only() {
        let dir = test_dir("manifest-scan");
        for name in [
            "snapshot-0000000000000010.snap",
            "snapshot-0000000000000002.snap",
            "wal-0000000000000002.log",
            "wal-0000000000000010.log",
            "snapshot-0000000000000099.snap.tmp",
            "MANIFEST",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let m = scan_dir(&dir).unwrap();
        assert_eq!(m.snapshots, vec![0x10, 0x02]);
        assert_eq!(m.segments, vec![0x02, 0x10]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
