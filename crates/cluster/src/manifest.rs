//! The cluster manifest: one small checksummed text file (`CLUSTER`) in
//! the cluster's durable directory recording the live shard id →
//! key-range map.
//!
//! The per-shard durable directories are self-describing (each holds its
//! own WAL + snapshots), but after an offline split the *set* of shards
//! and their ranges is cluster-level state the shards themselves cannot
//! answer — so recovery reads this manifest as the authority on which
//! `shard-{id}` directories exist and which range each serves. Writes go
//! through the usual tmp + rename dance, so a crash mid-rewrite leaves
//! the previous manifest intact.
//!
//! Format (text, one record per line, LF):
//!
//! ```text
//! pim-cluster/1
//! shard <id> <lo> <hi>
//! ...
//! crc <crc32-of-preceding-bytes-in-hex>
//! ```

use std::fs;
use std::io::Write as _;
use std::path::Path;

use pim_core::{Key, PimError, PimResult};
use pim_runtime::crc32;

use crate::router::ShardId;

/// File name of the manifest inside the cluster directory.
pub(crate) const MANIFEST: &str = "CLUSTER";
const MAGIC: &str = "pim-cluster/1";

/// One manifest record: shard `id` serves the inclusive range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardRecord {
    pub id: ShardId,
    pub lo: Key,
    pub hi: Key,
}

fn io_err(op: &'static str, path: &Path, err: &std::io::Error) -> PimError {
    PimError::Io {
        op,
        path: path.display().to_string(),
        detail: err.to_string(),
    }
}

/// Atomically (tmp + rename) write the manifest for the given shards.
pub(crate) fn write(dir: &Path, shards: &[ShardRecord]) -> PimResult<()> {
    let mut body = format!("{MAGIC}\n");
    for s in shards {
        body.push_str(&format!("shard {} {} {}\n", s.id, s.lo, s.hi));
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("crc {crc:08x}\n"));

    let path = dir.join(MANIFEST);
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("manifest_write", &tmp, &e))?;
    f.write_all(body.as_bytes())
        .map_err(|e| io_err("manifest_write", &tmp, &e))?;
    f.sync_all()
        .map_err(|e| io_err("manifest_sync", &tmp, &e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| io_err("manifest_rename", &path, &e))?;
    Ok(())
}

/// Read and verify the manifest; shards come back in file = key order.
pub(crate) fn read(dir: &Path) -> PimResult<Vec<ShardRecord>> {
    let path = dir.join(MANIFEST);
    let text = fs::read_to_string(&path).map_err(|e| io_err("manifest_read", &path, &e))?;

    let corrupt = |detail: &str, offset: u64, expected: u32, found: u32| PimError::Corruption {
        path: path.display().to_string(),
        offset,
        expected,
        found,
        detail: detail.to_string(),
    };
    let malformed = |reason: String| PimError::InvalidArgument {
        op: "cluster_manifest",
        reason,
    };

    // The crc line covers every byte before it.
    let crc_at = text
        .rfind("crc ")
        .ok_or_else(|| malformed(format!("{}: missing crc line", path.display())))?;
    let (body, crc_line) = text.split_at(crc_at);
    let claimed = crc_line
        .trim()
        .strip_prefix("crc ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| malformed(format!("{}: unparseable crc line", path.display())))?;
    let actual = crc32(body.as_bytes());
    if actual != claimed {
        return Err(corrupt("cluster manifest", crc_at as u64, claimed, actual));
    }

    let mut lines = body.lines();
    if lines.next() != Some(MAGIC) {
        return Err(malformed(format!(
            "{}: bad magic (want {MAGIC})",
            path.display()
        )));
    }
    let mut shards = Vec::new();
    for line in lines {
        let mut parts = line.split_ascii_whitespace();
        let rec = (|| {
            if parts.next()? != "shard" {
                return None;
            }
            Some(ShardRecord {
                id: parts.next()?.parse().ok()?,
                lo: parts.next()?.parse().ok()?,
                hi: parts.next()?.parse().ok()?,
            })
        })()
        .ok_or_else(|| malformed(format!("{}: bad record {line:?}", path.display())))?;
        shards.push(rec);
    }
    check_tiling(&shards).map_err(|why| malformed(format!("{}: {why}", path.display())))?;
    Ok(shards)
}

/// The router looks a key up by `partition_point` over the records'
/// lower bounds, so a manifest is usable only when its records tile the
/// whole key space in order, under distinct ids.
fn check_tiling(shards: &[ShardRecord]) -> Result<(), String> {
    let (Some(first), Some(last)) = (shards.first(), shards.last()) else {
        return Err("no shard records".into());
    };
    if first.lo != Key::MIN || last.hi != Key::MAX {
        return Err(format!(
            "shards cover [{}, {}], not the whole key space",
            first.lo, last.hi
        ));
    }
    if let Some(s) = shards.iter().find(|s| s.lo > s.hi) {
        return Err(format!("shard {} has an inverted range", s.id));
    }
    if let Some(w) = shards
        .windows(2)
        .find(|w| w[0].hi.checked_add(1) != Some(w[1].lo))
    {
        return Err(format!(
            "shard {} ends at {} but shard {} starts at {}",
            w[0].id, w[0].hi, w[1].id, w[1].lo
        ));
    }
    let mut ids: Vec<ShardId> = shards.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("shard id {} appears twice", w[0]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("pim-cluster-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("roundtrip");
        let shards = vec![
            ShardRecord {
                id: 0,
                lo: i64::MIN,
                hi: -1,
            },
            ShardRecord {
                id: 3,
                lo: 0,
                hi: i64::MAX,
            },
        ];
        write(&dir, &shards).unwrap();
        assert_eq!(read(&dir).unwrap(), shards);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_is_detected() {
        let dir = tmpdir("bitflip");
        write(
            &dir,
            &[ShardRecord {
                id: 0,
                lo: i64::MIN,
                hi: i64::MAX,
            }],
        )
        .unwrap();
        let path = dir.join(MANIFEST);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match read(&dir) {
            Err(PimError::Corruption { .. }) | Err(PimError::InvalidArgument { .. }) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_valid_manifests_that_do_not_tile_the_key_space_are_refused() {
        use pim_core::{Config, DurabilityPolicy, Op};

        use crate::{ClusterConfig, PimCluster};

        let rec = |id, lo, hi| ShardRecord { id, lo, hi };
        for (tag, hostile) in [
            // The router would underflow looking up any key below 0.
            ("low", vec![rec(0, 0, -1), rec(1, 0, i64::MAX)]),
            ("gap", vec![rec(0, i64::MIN, -10), rec(1, 0, i64::MAX)]),
            ("dup", vec![rec(1, i64::MIN, -1), rec(1, 0, i64::MAX)]),
        ] {
            let dir = tmpdir(tag);
            let cfg = ClusterConfig::new(Config::new(4, 1 << 10, 7), 2);
            let mut cluster = PimCluster::new(cfg.clone());
            cluster
                .enable_durability(&dir, DurabilityPolicy::default())
                .unwrap();
            cluster.execute(&[Op::Upsert { key: -5, value: 1 }, Op::Get { key: 5 }]);
            drop(cluster);
            write(&dir, &hostile).unwrap();
            match PimCluster::recover_from_dir(cfg, &dir, DurabilityPolicy::default()) {
                Err(PimError::InvalidArgument { .. }) => {}
                Err(e) => panic!("{tag}: wrong error {e}"),
                Ok(_) => panic!("{tag}: a manifest that does not tile the keys was accepted"),
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
