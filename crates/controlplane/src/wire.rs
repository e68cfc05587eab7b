//! Hand-rolled deterministic wire codec for the control-plane protocol.
//!
//! Framing: every message is a little-endian `u32` payload length followed
//! by the payload. Payloads open with a fixed 4-byte header (magic,
//! version, message kind, pad) so a stray connection is rejected on its
//! first frame instead of being misparsed.
//!
//! The encoding is *canonical*: a given [`RequestBatch`]/[`ReplyBatch`]
//! always serializes to the same bytes, and decode(encode(x)) == x; the
//! decoders accept nothing else, so every payload they accept is the
//! encoding of what they return (locked by `tests/proptest_wire.rs`, under
//! byte mutation too). There is no serde involvement — the workspace's
//! vendored serde is a stub — and no self-describing metadata: both ends
//! speak exactly [`VERSION`].
//!
//! Both codecs are on the served path twice per batch, so they cost about
//! what the bytes do: the request encoder writes each op with one
//! `extend`, and the decoders walk the payload as a slice, checking the
//! length of each element's tag and of its fixed-size body once rather
//! than of each field. The reply encoder writes field by field: one
//! `extend` per reply measured no faster there.

use std::io::{self, Read, Write};

use sv2p_packet::{Pip, Vip};

use crate::api::{CtlOp, CtlReply, RejectReason, ReplyBatch, RequestBatch, ServiceStats};

/// First payload byte of every well-formed message.
pub const MAGIC: u8 = 0xC7;
/// Protocol version; bumped on any encoding change.
pub const VERSION: u8 = 1;
/// Payload kind byte: request.
pub const KIND_REQUEST: u8 = 0;
/// Payload kind byte: reply.
pub const KIND_REPLY: u8 = 1;

/// Default cap on accepted payload size (64 MiB) — a 1M-entry snapshot is
/// ~8 MB, so this bounds memory without constraining real use.
pub const MAX_FRAME: usize = 64 << 20;

/// What [`read_frame`] reserves before a frame's body arrives; beyond it the
/// buffer grows only as bytes do, so a peer that announces a large frame
/// and stalls holds no more than this.
const FRAME_RESERVE: usize = 64 << 10;

const TAG_LOOKUP: u8 = 0;
const TAG_INSTALL: u8 = 1;
const TAG_INVALIDATE: u8 = 2;
const TAG_MIGRATE: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_STATS: u8 = 5;

const RTAG_FOUND: u8 = 0;
const RTAG_NOT_FOUND: u8 = 1;
const RTAG_APPLIED: u8 = 2;
const RTAG_REJECTED: u8 = 3;
const RTAG_SNAPSHOT: u8 = 4;
const RTAG_STATS: u8 = 5;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before a field completed.
    Truncated,
    /// Bad magic byte — not our protocol.
    BadMagic(u8),
    /// Version mismatch.
    BadVersion(u8),
    /// Unexpected message kind byte.
    BadKind(u8),
    /// Unknown op/reply tag.
    BadTag(u8),
    /// A flag byte held something other than 0/1, a header's pad byte was
    /// not 0, or a reject code was unknown.
    BadValue(u8),
    /// Payload had bytes left over after the declared contents.
    TrailingBytes(usize),
    /// Declared frame length exceeds the reader's cap.
    FrameTooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unexpected message kind {k}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadValue(v) => write!(f, "invalid field value {v}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after payload"),
            WireError::FrameTooLarge(n) => write!(f, "declared frame of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------

/// `tag` and `word`, little-endian: a keyed op's first five bytes.
fn tagged(tag: u8, word: u32) -> [u8; 5] {
    let [a, b, c, d] = word.to_le_bytes();
    [tag, a, b, c, d]
}

fn put_opt_pip(out: &mut Vec<u8>, p: Option<Pip>) {
    match p {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&p.0.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Splits `N` bytes off the front of `buf`: the one length check a
/// fixed-size field or op body pays.
fn take<const N: usize>(buf: &[u8]) -> Result<(&[u8; N], &[u8]), WireError> {
    buf.split_first_chunk().ok_or(WireError::Truncated)
}

/// The little-endian `u32` at `at` in a fixed-size chunk (no run-time check
/// once `at` is a constant).
fn u32_at<const N: usize>(b: &[u8; N], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// The little-endian `u64` at `at` in a fixed-size chunk.
fn u64_at<const N: usize>(b: &[u8; N], at: usize) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| b[at + i]))
}

/// The payload's trailing bytes, if any, as an error.
fn finish(rest: &[u8]) -> Result<(), WireError> {
    match rest.len() {
        0 => Ok(()),
        left => Err(WireError::TrailingBytes(left)),
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8) {
    // The pad keeps the id field 4-aligned in the payload.
    out.extend_from_slice(&[MAGIC, VERSION, kind, 0]);
}

/// Checks the header and returns the payload after it. Byte by byte, so a
/// stray peer is named by its first byte even in a short frame.
fn check_header(buf: &[u8], want_kind: u8) -> Result<&[u8], WireError> {
    let byte = |i: usize| buf.get(i).copied().ok_or(WireError::Truncated);
    let magic = byte(0)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = byte(1)?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = byte(2)?;
    if kind != want_kind {
        return Err(WireError::BadKind(kind));
    }
    // Only the canonical pad is accepted, so every accepted payload is the
    // encoding of what it decodes to.
    let pad = byte(3)?;
    if pad != 0 {
        return Err(WireError::BadValue(pad));
    }
    Ok(&buf[4..])
}

/// Splits an optional PIP (a flag byte 0, or 1 and the PIP) off `buf`.
fn get_opt_pip(buf: &[u8]) -> Result<(Option<Pip>, &[u8]), WireError> {
    match buf.split_first() {
        Some((0, rest)) => Ok((None, rest)),
        Some((1, rest)) => {
            let (b, rest) = take::<4>(rest)?;
            Ok((Some(Pip(u32::from_le_bytes(*b))), rest))
        }
        Some((&other, _)) => Err(WireError::BadValue(other)),
        None => Err(WireError::Truncated),
    }
}

/// A batch's element count, checked against the bytes left: every element
/// is at least one byte, so a larger count is corrupt, and refusing it caps
/// the pre-allocation.
fn count(buf: &[u8]) -> Result<(usize, &[u8]), WireError> {
    let (b, rest) = take::<4>(buf)?;
    let n = u32::from_le_bytes(*b) as usize;
    if n > rest.len() {
        return Err(WireError::Truncated);
    }
    Ok((n, rest))
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Serializes a request batch into `out` (cleared first), one `extend` per
/// op.
pub fn encode_request(req: &RequestBatch, out: &mut Vec<u8>) {
    out.clear();
    put_header(out, KIND_REQUEST);
    out.extend_from_slice(&req.id.to_le_bytes());
    out.extend_from_slice(&(req.ops.len() as u32).to_le_bytes());
    for op in &req.ops {
        match *op {
            CtlOp::Lookup { vip } => out.extend_from_slice(&tagged(TAG_LOOKUP, vip.0)),
            CtlOp::Install { vip, pip } => {
                let mut b = [0u8; 9];
                b[..5].copy_from_slice(&tagged(TAG_INSTALL, vip.0));
                b[5..].copy_from_slice(&pip.0.to_le_bytes());
                out.extend_from_slice(&b);
            }
            CtlOp::Invalidate { vip } => out.extend_from_slice(&tagged(TAG_INVALIDATE, vip.0)),
            CtlOp::Migrate { vip, to_pip, at_ns } => {
                let mut b = [0u8; 18];
                b[..5].copy_from_slice(&tagged(TAG_MIGRATE, vip.0));
                b[5..9].copy_from_slice(&to_pip.0.to_le_bytes());
                let len = match at_ns {
                    Some(ns) => {
                        b[9] = 1;
                        b[10..].copy_from_slice(&ns.to_le_bytes());
                        18
                    }
                    None => 10,
                };
                out.extend_from_slice(&b[..len]);
            }
            CtlOp::Snapshot => out.push(TAG_SNAPSHOT),
            CtlOp::Stats => out.push(TAG_STATS),
        }
    }
}

/// Parses a request payload, walking it as a slice: each op checks the
/// length of its tag and of its fixed-size body, not of each field.
pub fn decode_request(buf: &[u8]) -> Result<RequestBatch, WireError> {
    let rest = check_header(buf, KIND_REQUEST)?;
    let (id, rest) = take::<8>(rest)?;
    let (n, mut rest) = count(rest)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let (&tag, tail) = rest.split_first().ok_or(WireError::Truncated)?;
        let (op, tail) = match tag {
            TAG_LOOKUP | TAG_INVALIDATE => {
                let (b, tail) = take::<4>(tail)?;
                let vip = Vip(u32::from_le_bytes(*b));
                let op = if tag == TAG_LOOKUP {
                    CtlOp::Lookup { vip }
                } else {
                    CtlOp::Invalidate { vip }
                };
                (op, tail)
            }
            TAG_INSTALL => {
                let (b, tail) = take::<8>(tail)?;
                let (vip, pip) = (Vip(u32_at(b, 0)), Pip(u32_at(b, 4)));
                (CtlOp::Install { vip, pip }, tail)
            }
            TAG_MIGRATE => {
                let (b, tail) = take::<9>(tail)?;
                let (vip, to_pip) = (Vip(u32_at(b, 0)), Pip(u32_at(b, 4)));
                let (at_ns, tail) = match b[8] {
                    0 => (None, tail),
                    1 => {
                        let (ns, tail) = take::<8>(tail)?;
                        (Some(u64::from_le_bytes(*ns)), tail)
                    }
                    other => return Err(WireError::BadValue(other)),
                };
                (CtlOp::Migrate { vip, to_pip, at_ns }, tail)
            }
            TAG_SNAPSHOT => (CtlOp::Snapshot, tail),
            TAG_STATS => (CtlOp::Stats, tail),
            other => return Err(WireError::BadTag(other)),
        };
        ops.push(op);
        rest = tail;
    }
    finish(rest)?;
    Ok(RequestBatch {
        id: u64::from_le_bytes(*id),
        ops,
    })
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// The bytes of a [`ServiceStats`]: its 13 counters in field order.
const STATS_BYTES: usize = 13 * 8;

fn put_stats(out: &mut Vec<u8>, s: &ServiceStats) {
    for v in [
        s.batches,
        s.ops,
        s.lookups,
        s.hits,
        s.installs,
        s.invalidates,
        s.migrates,
        s.rejected,
        s.snapshots,
        s.epoch,
        s.mappings,
        s.exec_p50_ns,
        s.exec_p99_ns,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_stats(b: &[u8; STATS_BYTES]) -> ServiceStats {
    let f = |i: usize| u64_at(b, 8 * i);
    ServiceStats {
        batches: f(0),
        ops: f(1),
        lookups: f(2),
        hits: f(3),
        installs: f(4),
        invalidates: f(5),
        migrates: f(6),
        rejected: f(7),
        snapshots: f(8),
        epoch: f(9),
        mappings: f(10),
        exec_p50_ns: f(11),
        exec_p99_ns: f(12),
    }
}

/// Serializes a reply batch into `out` (cleared first).
pub fn encode_reply(rep: &ReplyBatch, out: &mut Vec<u8>) {
    out.clear();
    put_header(out, KIND_REPLY);
    out.extend_from_slice(&rep.id.to_le_bytes());
    out.extend_from_slice(&rep.epoch.to_le_bytes());
    out.extend_from_slice(&(rep.replies.len() as u32).to_le_bytes());
    for r in &rep.replies {
        match r {
            CtlReply::Found { pip } => {
                out.push(RTAG_FOUND);
                out.extend_from_slice(&pip.0.to_le_bytes());
            }
            CtlReply::NotFound => out.push(RTAG_NOT_FOUND),
            CtlReply::Applied { old, new } => {
                out.push(RTAG_APPLIED);
                put_opt_pip(out, *old);
                put_opt_pip(out, *new);
            }
            CtlReply::Rejected { reason } => {
                out.push(RTAG_REJECTED);
                out.push(reason.code());
            }
            CtlReply::Snapshot { entries } => {
                out.push(RTAG_SNAPSHOT);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for &(v, p) in entries {
                    out.extend_from_slice(&v.0.to_le_bytes());
                    out.extend_from_slice(&p.0.to_le_bytes());
                }
            }
            CtlReply::Stats { stats } => {
                out.push(RTAG_STATS);
                put_stats(out, stats);
            }
        }
    }
}

/// Parses a reply payload, walking it as a slice as [`decode_request`]
/// does.
pub fn decode_reply(buf: &[u8]) -> Result<ReplyBatch, WireError> {
    let rest = check_header(buf, KIND_REPLY)?;
    let (head, rest) = take::<16>(rest)?;
    let (n, mut rest) = count(rest)?;
    let mut replies = Vec::with_capacity(n);
    for _ in 0..n {
        let (&tag, tail) = rest.split_first().ok_or(WireError::Truncated)?;
        let (r, tail) = match tag {
            RTAG_FOUND => {
                let (b, tail) = take::<4>(tail)?;
                let pip = Pip(u32::from_le_bytes(*b));
                (CtlReply::Found { pip }, tail)
            }
            RTAG_NOT_FOUND => (CtlReply::NotFound, tail),
            RTAG_APPLIED => {
                let (old, tail) = get_opt_pip(tail)?;
                let (new, tail) = get_opt_pip(tail)?;
                (CtlReply::Applied { old, new }, tail)
            }
            RTAG_REJECTED => {
                let (&code, tail) = tail.split_first().ok_or(WireError::Truncated)?;
                let reason = RejectReason::from_code(code).ok_or(WireError::BadValue(code))?;
                (CtlReply::Rejected { reason }, tail)
            }
            RTAG_SNAPSHOT => {
                let (b, tail) = take::<4>(tail)?;
                let m = u32::from_le_bytes(*b) as usize;
                let body = tail
                    .get(..m.saturating_mul(8))
                    .ok_or(WireError::Truncated)?;
                let entries = body
                    .chunks_exact(8)
                    .map(|e| {
                        let e: &[u8; 8] = e.try_into().expect("an 8-byte chunk");
                        (Vip(u32_at(e, 0)), Pip(u32_at(e, 4)))
                    })
                    .collect();
                (CtlReply::Snapshot { entries }, &tail[body.len()..])
            }
            RTAG_STATS => {
                let (b, tail) = take::<STATS_BYTES>(tail)?;
                let stats = Box::new(get_stats(b));
                (CtlReply::Stats { stats }, tail)
            }
            other => return Err(WireError::BadTag(other)),
        };
        replies.push(r);
        rest = tail;
    }
    finish(rest)?;
    Ok(ReplyBatch {
        id: u64_at(head, 0),
        epoch: u64_at(head, 8),
        replies,
    })
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame into `buf` (replacing its contents).
///
/// Returns `Ok(false)` on clean EOF at a frame boundary; frames larger than
/// `max` are refused without reading their body. The announced length is
/// the peer's claim, so the buffer grows only as the body arrives.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>, max: usize) -> Result<bool, FrameError> {
    let mut len_bytes = [0u8; 4];
    // EOF before any length byte is a clean close; EOF inside is not.
    match r.read(&mut len_bytes) {
        Ok(0) => return Ok(false),
        Ok(n) => {
            if n < 4 {
                r.read_exact(&mut len_bytes[n..]).map_err(FrameError::Io)?;
            }
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max {
        return Err(FrameError::Wire(WireError::FrameTooLarge(len)));
    }
    buf.clear();
    buf.reserve(len.min(FRAME_RESERVE));
    let got = r
        .take(len as u64)
        .read_to_end(buf)
        .map_err(FrameError::Io)?;
    if got < len {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "frame ends early");
        return Err(FrameError::Io(eof));
    }
    Ok(true)
}

/// A framing failure: transport error or protocol violation.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer violated the protocol.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o: {e}"),
            FrameError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestBatch {
        RequestBatch {
            id: 42,
            ops: vec![
                CtlOp::Lookup { vip: Vip(7) },
                CtlOp::Install {
                    vip: Vip(8),
                    pip: Pip(9),
                },
                CtlOp::Invalidate { vip: Vip(10) },
                CtlOp::Migrate {
                    vip: Vip(11),
                    to_pip: Pip(12),
                    at_ns: Some(13),
                },
                CtlOp::Migrate {
                    vip: Vip(14),
                    to_pip: Pip(15),
                    at_ns: None,
                },
                CtlOp::Snapshot,
                CtlOp::Stats,
            ],
        }
    }

    #[test]
    fn request_round_trip() {
        let req = sample_request();
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(decode_request(&buf).unwrap(), req);
    }

    #[test]
    fn reply_round_trip() {
        let rep = ReplyBatch {
            id: 42,
            epoch: 1234,
            replies: vec![
                CtlReply::Found { pip: Pip(9) },
                CtlReply::NotFound,
                CtlReply::Applied {
                    old: Some(Pip(1)),
                    new: None,
                },
                CtlReply::Applied {
                    old: None,
                    new: Some(Pip(2)),
                },
                CtlReply::Rejected {
                    reason: RejectReason::UnknownVip,
                },
                CtlReply::Snapshot {
                    entries: vec![(Vip(1), Pip(2)), (Vip(3), Pip(4))],
                },
                CtlReply::Stats {
                    stats: Box::new(ServiceStats {
                        batches: 1,
                        ops: 7,
                        lookups: 2,
                        hits: 1,
                        installs: 1,
                        invalidates: 1,
                        migrates: 1,
                        rejected: 1,
                        snapshots: 1,
                        epoch: 1234,
                        mappings: 2,
                        exec_p50_ns: 100,
                        exec_p99_ns: 900,
                    }),
                },
            ],
        };
        let mut buf = Vec::new();
        encode_reply(&rep, &mut buf);
        assert_eq!(decode_reply(&buf).unwrap(), rep);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_request(&sample_request(), &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&sample_request(), &mut buf);
        buf.push(0);
        assert_eq!(decode_request(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn header_violations_are_typed() {
        let mut buf = Vec::new();
        encode_request(&sample_request(), &mut buf);
        let mut bad = buf.clone();
        bad[0] = 0x00;
        assert_eq!(decode_request(&bad), Err(WireError::BadMagic(0)));
        let mut bad = buf.clone();
        bad[1] = 99;
        assert_eq!(decode_request(&bad), Err(WireError::BadVersion(99)));
        let mut bad = buf.clone();
        bad[2] = KIND_REPLY;
        assert_eq!(decode_request(&bad), Err(WireError::BadKind(KIND_REPLY)));
    }

    #[test]
    fn framing_round_trip_and_clean_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").unwrap();
        write_frame(&mut stream, b"").unwrap();
        let mut r = &stream[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf, MAX_FRAME).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, &mut buf, MAX_FRAME).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut r, &mut buf, MAX_FRAME).unwrap());
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[0u8; 100]).unwrap();
        let mut r = &stream[..];
        let mut buf = Vec::new();
        match read_frame(&mut r, &mut buf, 10) {
            Err(FrameError::Wire(WireError::FrameTooLarge(100))) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
