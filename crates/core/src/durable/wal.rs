//! Write-ahead log segments: append-only files of checksummed frames.
//!
//! A segment file is
//!
//! ```text
//! [magic "PIMWAL01"] [version: u32] [config_fp: u64] [start_seq: u64] [crc: u32]
//! frame*
//! ```
//!
//! (header checksummed like a frame payload), followed by zero or more
//! frames (see [`crate::durable::codec`]). Segments are named
//! `wal-<start_seq:016x>.log`; `start_seq` is the stream index of the
//! first op the segment may contain, which is also how recovery orders
//! them. A new segment starts at every snapshot, so compaction is "delete
//! every segment older than the oldest kept snapshot".

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pim_runtime::crc::crc32;

use crate::durable::codec::{self, Frame, FrameRead, Reader};
use crate::error::{PimError, PimResult};
use crate::op::Op;

pub(crate) const WAL_MAGIC: &[u8; 8] = b"PIMWAL01";
pub(crate) const WAL_VERSION: u32 = 1;
/// Header bytes: magic + version + fingerprint + start_seq + crc.
pub(crate) const WAL_HEADER_LEN: u64 = 8 + 4 + 8 + 8 + 4;

/// File name of the segment whose first op has stream index `start_seq`.
pub(crate) fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:016x}.log")
}

/// Parse a segment name, exactly as [`segment_name`] writes it, back to
/// its start sequence.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let seq = u64::from_str_radix(hex, 16).ok()?;
    (segment_name(seq) == name).then_some(seq)
}

fn encode_header(config_fp: u64, start_seq: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(WAL_HEADER_LEN as usize);
    h.extend_from_slice(WAL_MAGIC);
    codec::put_u32(&mut h, WAL_VERSION);
    codec::put_u64(&mut h, config_fp);
    codec::put_u64(&mut h, start_seq);
    let crc = crc32(&h);
    codec::put_u32(&mut h, crc);
    h
}

/// Fsync a directory so a freshly created/renamed file name is durable.
pub(crate) fn sync_dir(dir: &Path) -> PimResult<()> {
    let d = File::open(dir).map_err(|e| PimError::io("dir_sync", dir, &e))?;
    d.sync_all().map_err(|e| PimError::io("dir_sync", dir, &e))
}

/// An open, appendable WAL segment.
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
    /// Stream index of the segment's first op.
    pub start_seq: u64,
    /// Bytes written (and valid) so far, header included.
    pub bytes: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("start_seq", &self.start_seq)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl WalWriter {
    /// Create a fresh segment starting at `start_seq`, write and sync its
    /// header, and make the file name durable.
    pub fn create(dir: &Path, config_fp: u64, start_seq: u64) -> PimResult<Self> {
        let path = dir.join(segment_name(start_seq));
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| PimError::io("wal_create", &path, &e))?;
        let header = encode_header(config_fp, start_seq);
        file.write_all(&header)
            .map_err(|e| PimError::io("wal_create", &path, &e))?;
        file.sync_all()
            .map_err(|e| PimError::io("wal_sync", &path, &e))?;
        sync_dir(dir)?;
        Ok(WalWriter {
            file,
            path,
            start_seq,
            bytes: WAL_HEADER_LEN,
        })
    }

    /// Re-open an existing segment for appending after recovery, truncating
    /// it to `valid_len` first (dropping any torn tail on disk, not just in
    /// the reader's view).
    pub fn reopen(dir: &Path, start_seq: u64, valid_len: u64) -> PimResult<Self> {
        let path = dir.join(segment_name(start_seq));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| PimError::io("wal_reopen", &path, &e))?;
        file.set_len(valid_len)
            .map_err(|e| PimError::io("wal_truncate", &path, &e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| PimError::io("wal_reopen", &path, &e))?;
        file.sync_all()
            .map_err(|e| PimError::io("wal_sync", &path, &e))?;
        Ok(WalWriter {
            file,
            path,
            start_seq,
            bytes: valid_len,
        })
    }

    /// Append one frame for the committed run `ops` starting at stream
    /// index `seq`. Buffered by the OS until [`WalWriter::sync`].
    pub fn append(&mut self, seq: u64, ops: &[Op]) -> PimResult<()> {
        let frame = codec::encode_frame(seq, ops);
        self.file
            .write_all(&frame)
            .map_err(|e| PimError::io("wal_append", &self.path, &e))?;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Fsync the segment: every appended frame is durable after this
    /// returns.
    pub fn sync(&mut self) -> PimResult<()> {
        self.file
            .sync_data()
            .map_err(|e| PimError::io("wal_sync", &self.path, &e))
    }
}

/// Where and why a segment scan stopped early.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TornTail {
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// Checksum the bad frame claimed (0 if truncated before the header
    /// completed).
    pub expected: u32,
    /// Checksum its bytes hash to (0 if truncated).
    pub found: u32,
}

/// A fully scanned segment.
#[derive(Debug)]
pub(crate) struct SegmentRead {
    /// Stream index of the first op (from the header).
    pub start_seq: u64,
    /// All checksum-valid frames, in file order.
    pub frames: Vec<Frame>,
    /// Prefix length (bytes) covered by the header + valid frames.
    pub valid_len: u64,
    /// Set when the scan stopped at a torn/corrupt frame.
    pub torn: Option<TornTail>,
}

/// Scan one segment file. Header corruption is a hard
/// [`PimError::Corruption`] (a segment that lies about its identity cannot
/// be partially trusted); frame corruption ends the scan with a
/// [`TornTail`] so the caller can decide whether a torn tail is legal
/// (last segment) or fatal (an interior one).
pub(crate) fn read_segment(path: &Path, config_fp: u64) -> PimResult<SegmentRead> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| PimError::io("wal_read", path, &e))?;

    if bytes.len() < WAL_HEADER_LEN as usize {
        return Err(codec::corrupt(path, 0, 0, 0, "wal segment header"));
    }
    let (head, body) = bytes.split_at(WAL_HEADER_LEN as usize);
    let claimed = u32::from_le_bytes(head[WAL_HEADER_LEN as usize - 4..].try_into().unwrap());
    let found = crc32(&head[..WAL_HEADER_LEN as usize - 4]);
    if &head[..8] != WAL_MAGIC || found != claimed {
        return Err(codec::corrupt(
            path,
            0,
            claimed,
            found,
            "wal segment header",
        ));
    }
    let mut hr = Reader::new(&head[8..]);
    let version = hr.u32().unwrap();
    let fp = hr.u64().unwrap();
    let start_seq = hr.u64().unwrap();
    if version != WAL_VERSION {
        return Err(codec::corrupt(path, 8, WAL_VERSION, version, "wal version"));
    }
    if fp != config_fp {
        return Err(PimError::InvalidArgument {
            op: "recover_from_dir",
            reason: format!(
                "{} was written under a different configuration \
                 (fingerprint {fp:#018x}, ours {:#018x})",
                path.display(),
                config_fp
            ),
        });
    }

    let mut frames = Vec::new();
    let mut r = Reader::new(body);
    let mut expected_seq = start_seq;
    let torn = loop {
        let frame_start = r.pos();
        match codec::decode_frame(&mut r) {
            FrameRead::End => break None,
            FrameRead::Ok(f) => {
                // A checksum-valid frame whose sequence breaks the chain
                // means frames were lost or reordered — stop before it.
                if f.seq != expected_seq {
                    break Some(TornTail {
                        offset: WAL_HEADER_LEN + frame_start as u64,
                        expected: 0,
                        found: 0,
                    });
                }
                expected_seq += f.ops.len() as u64;
                frames.push(f);
            }
            FrameRead::Torn {
                offset,
                expected,
                found,
            } => {
                break Some(TornTail {
                    offset: WAL_HEADER_LEN + offset as u64,
                    expected,
                    found,
                })
            }
        }
    };
    let valid_len = torn.map_or(bytes.len() as u64, |t| t.offset);
    Ok(SegmentRead {
        start_seq,
        frames,
        valid_len,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::test_dir;

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(segment_name(0), "wal-0000000000000000.log");
        assert_eq!(parse_segment_name(&segment_name(0xABC)), Some(0xABC));
        assert_eq!(parse_segment_name("wal-zz.log"), None);
        assert_eq!(parse_segment_name("wal-abc.log"), None);
        assert_eq!(parse_segment_name("snapshot-0.snap"), None);
    }

    #[test]
    fn write_read_roundtrip_and_torn_tail() {
        let dir = test_dir("wal-roundtrip");
        let ops1 = vec![
            Op::Upsert { key: 1, value: 10 },
            Op::Upsert { key: 2, value: 20 },
        ];
        let ops2 = vec![Op::Get { key: 1 }];
        let mut w = WalWriter::create(&dir, 7, 0).unwrap();
        w.append(0, &ops1).unwrap();
        w.append(2, &ops2).unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_name(0));

        let read = read_segment(&path, 7).unwrap();
        assert_eq!(read.start_seq, 0);
        assert!(read.torn.is_none());
        assert_eq!(read.frames.len(), 2);
        assert_eq!(read.frames[0].ops, ops1);
        assert_eq!(read.frames[1].seq, 2);
        let full_len = read.valid_len;

        // Chop one byte off: the last frame is torn, the first survives.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let read = read_segment(&path, 7).unwrap();
        assert_eq!(read.frames.len(), 1);
        let t = read.torn.expect("tail must be reported torn");
        assert!(read.valid_len < full_len);
        assert_eq!(read.valid_len, t.offset);

        // Wrong fingerprint is refused outright.
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&path, 8),
            Err(PimError::InvalidArgument { .. })
        ));

        // A corrupted header is a hard Corruption error with the path.
        let mut broken = bytes;
        broken[3] ^= 0xFF;
        std::fs::write(&path, &broken).unwrap();
        match read_segment(&path, 7) {
            Err(PimError::Corruption { path: p, .. }) => {
                assert!(p.ends_with("wal-0000000000000000.log"))
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_truncates_torn_tail_on_disk() {
        let dir = test_dir("wal-reopen");
        let mut w = WalWriter::create(&dir, 1, 5).unwrap();
        w.append(5, &[Op::Delete { key: 9 }]).unwrap();
        w.sync().unwrap();
        let path = dir.join(segment_name(5));
        // Simulate a torn append.
        let mut bytes = std::fs::read(&path).unwrap();
        let valid = bytes.len() as u64;
        bytes.extend_from_slice(&[0xAA; 5]);
        std::fs::write(&path, &bytes).unwrap();

        let read = read_segment(&path, 1).unwrap();
        assert_eq!(read.valid_len, valid);
        let mut w = WalWriter::reopen(&dir, 5, read.valid_len).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
        // Appending after reopen lands on the valid boundary.
        w.append(6, &[Op::Get { key: 9 }]).unwrap();
        w.sync().unwrap();
        let read = read_segment(&path, 1).unwrap();
        assert!(read.torn.is_none());
        assert_eq!(read.frames.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
