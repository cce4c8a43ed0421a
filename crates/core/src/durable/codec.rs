//! Binary encoding of [`Op`] streams and checksummed frames.
//!
//! Everything on disk is little-endian and fixed-layout — no serde, no
//! varints, mirroring the repo's hand-rolled `Json`. An op is a 1-byte tag
//! followed by its fields; a WAL frame is
//!
//! ```text
//! [len: u32] [crc: u32] [payload: len bytes]
//! payload = [seq: u64] [count: u32] count × op
//! ```
//!
//! where `crc` is the CRC-32 of the payload ([`pim_runtime::crc32`]) and
//! `seq` is the stream index of the frame's first operation. A torn or
//! bit-flipped tail therefore fails either the length bound or the
//! checksum, and the reader stops at the last frame that passes both.

use pim_runtime::crc::crc32;

use crate::config::{Key, Value};
use crate::error::PimError;
use crate::op::Op;
use crate::tasks::RangeFunc;

/// Append a little-endian `u32`.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a decode buffer; every read is bounds-checked.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }
}

// Op tags. Stable on-disk values: never renumber, only append.
const TAG_GET: u8 = 0;
const TAG_UPDATE: u8 = 1;
const TAG_UPSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_PREDECESSOR: u8 = 4;
const TAG_SUCCESSOR: u8 = 5;
const TAG_RANGE: u8 = 6;

/// The smallest encoded op: a tag and one key.
const MIN_OP_LEN: usize = 9;

// RangeFunc tags.
const FUNC_READ: u8 = 0;
const FUNC_COUNT: u8 = 1;
const FUNC_SUM: u8 = 2;
const FUNC_MIN: u8 = 3;
const FUNC_MAX: u8 = 4;
const FUNC_FETCH_ADD: u8 = 5;
const FUNC_ADD_IN_PLACE: u8 = 6;

/// Encode one op onto `out`.
pub(crate) fn encode_op(out: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::Get { key } => {
            out.push(TAG_GET);
            put_i64(out, key);
        }
        Op::Update { key, value } => {
            out.push(TAG_UPDATE);
            put_i64(out, key);
            put_u64(out, value);
        }
        Op::Upsert { key, value } => {
            out.push(TAG_UPSERT);
            put_i64(out, key);
            put_u64(out, value);
        }
        Op::Delete { key } => {
            out.push(TAG_DELETE);
            put_i64(out, key);
        }
        Op::Predecessor { key } => {
            out.push(TAG_PREDECESSOR);
            put_i64(out, key);
        }
        Op::Successor { key } => {
            out.push(TAG_SUCCESSOR);
            put_i64(out, key);
        }
        Op::Range { lo, hi, func } => {
            out.push(TAG_RANGE);
            put_i64(out, lo);
            put_i64(out, hi);
            let (tag, operand): (u8, Value) = match func {
                RangeFunc::Read => (FUNC_READ, 0),
                RangeFunc::Count => (FUNC_COUNT, 0),
                RangeFunc::Sum => (FUNC_SUM, 0),
                RangeFunc::Min => (FUNC_MIN, 0),
                RangeFunc::Max => (FUNC_MAX, 0),
                RangeFunc::FetchAdd(d) => (FUNC_FETCH_ADD, d),
                RangeFunc::AddInPlace(d) => (FUNC_ADD_IN_PLACE, d),
            };
            out.push(tag);
            put_u64(out, operand);
        }
    }
}

/// Decode one op; `None` on truncation or an unknown tag.
pub(crate) fn decode_op(r: &mut Reader<'_>) -> Option<Op> {
    let tag = r.u8()?;
    Some(match tag {
        TAG_GET => Op::Get { key: r.i64()? },
        TAG_UPDATE => Op::Update {
            key: r.i64()?,
            value: r.u64()?,
        },
        TAG_UPSERT => Op::Upsert {
            key: r.i64()?,
            value: r.u64()?,
        },
        TAG_DELETE => Op::Delete { key: r.i64()? },
        TAG_PREDECESSOR => Op::Predecessor { key: r.i64()? },
        TAG_SUCCESSOR => Op::Successor { key: r.i64()? },
        TAG_RANGE => {
            let lo = r.i64()?;
            let hi = r.i64()?;
            let func_tag = r.u8()?;
            let operand = r.u64()?;
            let func = match func_tag {
                FUNC_READ => RangeFunc::Read,
                FUNC_COUNT => RangeFunc::Count,
                FUNC_SUM => RangeFunc::Sum,
                FUNC_MIN => RangeFunc::Min,
                FUNC_MAX => RangeFunc::Max,
                FUNC_FETCH_ADD => RangeFunc::FetchAdd(operand),
                FUNC_ADD_IN_PLACE => RangeFunc::AddInPlace(operand),
                _ => return None,
            };
            Op::Range { lo, hi, func }
        }
        _ => return None,
    })
}

/// Encode a full WAL frame (`len`, `crc`, payload) for the span starting at
/// stream index `seq`.
pub(crate) fn encode_frame(seq: u64, ops: &[Op]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + ops.len() * 17);
    put_u64(&mut payload, seq);
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        encode_op(&mut payload, op);
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// A decoded WAL frame.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Stream index of the first op.
    pub seq: u64,
    /// The frame's operations (one committed span).
    pub ops: Vec<Op>,
}

/// Outcome of [`decode_frame`]: a frame, a clean end, or a torn/corrupt
/// tail starting at the reported offset.
pub(crate) enum FrameRead {
    /// A complete, checksum-valid frame.
    Ok(Frame),
    /// The buffer ends exactly at a frame boundary.
    End,
    /// The remaining bytes are not a valid frame (torn write, bit flip,
    /// or garbage). Recovery truncates the file here.
    Torn {
        /// Offset (within the scanned region) where the bad frame starts.
        offset: usize,
        /// Why the frame was rejected (for [`PimError::Corruption`]).
        expected: u32,
        /// The checksum the bytes hash to (0 when the frame was simply
        /// truncated mid-header or mid-payload).
        found: u32,
    },
}

/// Decode the next frame from `r`. Never panics on hostile input.
pub(crate) fn decode_frame(r: &mut Reader<'_>) -> FrameRead {
    if r.is_empty() {
        return FrameRead::End;
    }
    let start = r.pos();
    let torn = |expected, found| FrameRead::Torn {
        offset: start,
        expected,
        found,
    };
    let Some(len) = r.u32() else {
        return torn(0, 0);
    };
    let Some(claimed) = r.u32() else {
        return torn(0, 0);
    };
    let Some(payload) = r.take(len as usize) else {
        return torn(claimed, 0);
    };
    let found = crc32(payload);
    if found != claimed {
        return torn(claimed, found);
    }
    let mut pr = Reader::new(payload);
    let (Some(seq), Some(count)) = (pr.u64(), pr.u32()) else {
        return torn(claimed, found);
    };
    // `count` is untrusted: the payload bounds how many ops can follow.
    let mut ops = Vec::with_capacity((count as usize).min(pr.remaining() / MIN_OP_LEN));
    for _ in 0..count {
        match decode_op(&mut pr) {
            Some(op) => ops.push(op),
            // A checksum-valid payload that fails to decode is a schema
            // violation, not a torn write — but the recovery posture is
            // the same: stop before this frame.
            None => return torn(claimed, found),
        }
    }
    if !pr.is_empty() {
        return torn(claimed, found);
    }
    FrameRead::Ok(Frame { seq, ops })
}

/// Fingerprint of the construction parameters that must match between the
/// on-disk state and the structure recovering from it. (Recovering with a
/// different `p` or seed would replay into a structure that hashes keys to
/// different modules — silently wrong, so it is refused up front.)
pub(crate) fn config_fingerprint(cfg: &crate::config::Config) -> u64 {
    use pim_runtime::hashfn::mix64;
    let mut fp = mix64(0x00D1_D007 ^ u64::from(cfg.p));
    fp = mix64(fp ^ cfg.seed);
    fp = mix64(fp ^ u64::from(cfg.h_low));
    fp = mix64(fp ^ u64::from(cfg.max_level));
    fp
}

/// Decode error shorthand for the segment and snapshot readers.
pub(crate) fn corrupt(
    path: &std::path::Path,
    offset: u64,
    expected: u32,
    found: u32,
    detail: &str,
) -> PimError {
    PimError::Corruption {
        path: path.display().to_string(),
        offset,
        expected,
        found,
        detail: detail.to_string(),
    }
}

/// Sorted `(key, value)` pairs — the snapshot payload type.
pub(crate) type Items = Vec<(Key, Value)>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Get { key: -5 },
            Op::Update { key: 1, value: 2 },
            Op::Upsert {
                key: i64::MAX,
                value: u64::MAX,
            },
            Op::Delete { key: 0 },
            Op::Predecessor { key: 77 },
            Op::Successor { key: -77 },
            Op::Range {
                lo: -10,
                hi: 10,
                func: RangeFunc::FetchAdd(3),
            },
            Op::Range {
                lo: 0,
                hi: 1,
                func: RangeFunc::Min,
            },
        ]
    }

    #[test]
    fn ops_roundtrip() {
        let mut buf = Vec::new();
        for op in sample_ops() {
            encode_op(&mut buf, &op);
        }
        let mut r = Reader::new(&buf);
        for op in sample_ops() {
            assert_eq!(decode_op(&mut r), Some(op));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn frame_roundtrip_and_tail_detection() {
        let ops = sample_ops();
        let frame = encode_frame(42, &ops);
        let mut r = Reader::new(&frame);
        match decode_frame(&mut r) {
            FrameRead::Ok(f) => {
                assert_eq!(f.seq, 42);
                assert_eq!(f.ops, ops);
            }
            _ => panic!("clean frame rejected"),
        }
        assert!(matches!(decode_frame(&mut r), FrameRead::End));

        // Any truncation of the frame is detected.
        for cut in 0..frame.len() {
            let mut r = Reader::new(&frame[..cut]);
            match decode_frame(&mut r) {
                FrameRead::End if cut == 0 => {}
                FrameRead::Torn { .. } if cut > 0 => {}
                _ => panic!("truncation at {cut} undetected"),
            }
        }

        // Any single-byte flip is detected.
        let mut bytes = frame.clone();
        for i in 0..bytes.len() {
            bytes[i] ^= 0x40;
            let mut r = Reader::new(&bytes);
            assert!(
                matches!(decode_frame(&mut r), FrameRead::Torn { .. }),
                "flip at byte {i} undetected"
            );
            bytes[i] ^= 0x40;
        }
    }

    #[test]
    fn hostile_op_count_is_torn_not_an_allocation() {
        // A checksum-valid payload that claims `u32::MAX` ops and holds none.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        put_u32(&mut payload, u32::MAX);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        assert_eq!(frame.len(), 20);
        let mut r = Reader::new(&frame);
        assert!(matches!(
            decode_frame(&mut r),
            FrameRead::Torn { offset: 0, .. }
        ));
    }

    #[test]
    fn fingerprint_separates_configs() {
        let a = crate::Config::new(4, 1 << 10, 1);
        let b = crate::Config::new(8, 1 << 10, 1);
        let c = crate::Config::new(4, 1 << 10, 2);
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
    }
}
