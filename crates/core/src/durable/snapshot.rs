//! Compacted snapshots: the full key/value contents at one op-stream
//! position, written atomically.
//!
//! A snapshot file is
//!
//! ```text
//! [magic "PIMSNAP1"] [version: u32] [config_fp: u64] [op_seq: u64]
//! [count: u64] count × ([key: i64] [value: u64]) [crc: u32]
//! ```
//!
//! with `crc` the CRC-32 of everything before it. The file is written to a
//! `.tmp` sibling, fsynced, renamed into place, and the directory fsynced —
//! so a snapshot either exists completely or not at all; a crash mid-write
//! leaves only a `.tmp` that recovery ignores.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use pim_runtime::crc::crc32;

use crate::durable::codec::{self, Items, Reader};
use crate::durable::wal::sync_dir;
use crate::error::{PimError, PimResult};

pub(crate) const SNAP_MAGIC: &[u8; 8] = b"PIMSNAP1";
pub(crate) const SNAP_VERSION: u32 = 1;

/// File name of the snapshot covering ops `[0, seq)`.
pub(crate) fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq:016x}.snap")
}

/// Parse a `snapshot-<hex>.snap` name back to its op sequence.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Write the snapshot for stream position `seq` atomically; returns its
/// final path. Durable (file and directory fsynced) when this returns.
pub(crate) fn write_snapshot(
    dir: &Path,
    config_fp: u64,
    seq: u64,
    items: &[(crate::config::Key, crate::config::Value)],
) -> PimResult<PathBuf> {
    let mut bytes = Vec::with_capacity(36 + items.len() * 16);
    bytes.extend_from_slice(SNAP_MAGIC);
    codec::put_u32(&mut bytes, SNAP_VERSION);
    codec::put_u64(&mut bytes, config_fp);
    codec::put_u64(&mut bytes, seq);
    codec::put_u64(&mut bytes, items.len() as u64);
    for &(k, v) in items {
        codec::put_i64(&mut bytes, k);
        codec::put_u64(&mut bytes, v);
    }
    let crc = crc32(&bytes);
    codec::put_u32(&mut bytes, crc);

    let path = dir.join(snapshot_name(seq));
    let tmp = dir.join(format!("{}.tmp", snapshot_name(seq)));
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&tmp)
        .map_err(|e| PimError::io("snapshot_write", &tmp, &e))?;
    f.write_all(&bytes)
        .map_err(|e| PimError::io("snapshot_write", &tmp, &e))?;
    f.sync_all()
        .map_err(|e| PimError::io("snapshot_sync", &tmp, &e))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| PimError::io("snapshot_rename", &path, &e))?;
    sync_dir(dir)?;
    Ok(path)
}

/// Read and fully verify one snapshot file; returns `(op_seq, items)`.
pub(crate) fn read_snapshot(path: &Path, config_fp: u64) -> PimResult<(u64, Items)> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| PimError::io("snapshot_read", path, &e))?;
    if bytes.len() < 40 {
        return Err(codec::corrupt(path, 0, 0, 0, "snapshot"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let claimed = u32::from_le_bytes(tail.try_into().unwrap());
    let found = crc32(body);
    if found != claimed {
        return Err(codec::corrupt(path, 0, claimed, found, "snapshot"));
    }
    if &body[..8] != SNAP_MAGIC {
        return Err(codec::corrupt(path, 0, claimed, found, "snapshot magic"));
    }
    let mut r = Reader::new(&body[8..]);
    let (version, fp, seq, count) = match (r.u32(), r.u64(), r.u64(), r.u64()) {
        (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
        _ => return Err(codec::corrupt(path, 8, claimed, found, "snapshot header")),
    };
    if version != SNAP_VERSION {
        return Err(codec::corrupt(
            path,
            8,
            SNAP_VERSION,
            version,
            "snapshot version",
        ));
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
    // `count` is untrusted: the body bounds how many 16-byte items follow.
    let mut items = Vec::with_capacity(count.min((r.remaining() / 16) as u64) as usize);
    for _ in 0..count {
        let (Some(k), Some(v)) = (r.i64(), r.u64()) else {
            return Err(codec::corrupt(path, 36, claimed, found, "snapshot items"));
        };
        items.push((k, v));
    }
    if !r.is_empty() {
        return Err(codec::corrupt(path, 36, claimed, found, "snapshot items"));
    }
    Ok((seq, items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::test_dir;

    #[test]
    fn names_roundtrip() {
        assert_eq!(parse_snapshot_name(&snapshot_name(77)), Some(77));
        assert_eq!(parse_snapshot_name("snapshot-xyz.snap"), None);
        assert_eq!(parse_snapshot_name("wal-0.log"), None);
        // The tmp sibling never parses as a live snapshot.
        assert_eq!(
            parse_snapshot_name(&format!("{}.tmp", snapshot_name(1))),
            None
        );
    }

    #[test]
    fn roundtrip_empty_and_full() {
        let dir = test_dir("snap-roundtrip");
        let items = vec![(-5_i64, 50_u64), (0, 0), (9, 99)];
        let p0 = write_snapshot(&dir, 3, 0, &[]).unwrap();
        let p1 = write_snapshot(&dir, 3, 128, &items).unwrap();
        assert_eq!(read_snapshot(&p0, 3).unwrap(), (0, vec![]));
        assert_eq!(read_snapshot(&p1, 3).unwrap(), (128, items));
        // No .tmp remnants after a clean write.
        let tmps = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(tmps, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_and_fingerprint_are_refused() {
        let dir = test_dir("snap-corrupt");
        let p = write_snapshot(&dir, 3, 8, &[(1, 2), (3, 4)]).unwrap();
        assert!(matches!(
            read_snapshot(&p, 4),
            Err(PimError::InvalidArgument { .. })
        ));
        let mut bytes = std::fs::read(&p).unwrap();
        for i in [0, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            bytes[i] ^= 0x10;
            std::fs::write(&p, &bytes).unwrap();
            match read_snapshot(&p, 3) {
                Err(PimError::Corruption { path, .. }) => {
                    assert!(path.ends_with("snapshot-0000000000000008.snap"))
                }
                other => panic!("flip at {i}: expected Corruption, got {other:?}"),
            }
            bytes[i] ^= 0x10;
        }
        // A CRC-valid header claiming `u64::MAX` items with none behind
        // it is refused without reserving space for the claim.
        let mut hostile = SNAP_MAGIC.to_vec();
        codec::put_u32(&mut hostile, SNAP_VERSION);
        codec::put_u64(&mut hostile, 3);
        codec::put_u64(&mut hostile, 8);
        codec::put_u64(&mut hostile, u64::MAX);
        let crc = crc32(&hostile);
        codec::put_u32(&mut hostile, crc);
        std::fs::write(&p, &hostile).unwrap();
        assert!(matches!(
            read_snapshot(&p, 3),
            Err(PimError::Corruption { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
