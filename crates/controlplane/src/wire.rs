//! Hand-rolled deterministic wire codec for the control-plane protocol.
//!
//! Framing: every message is a little-endian `u32` payload length followed
//! by the payload. Payloads open with a fixed 4-byte header (magic,
//! version, message kind, pad) so a stray connection is rejected on its
//! first frame instead of being misparsed.
//!
//! The encoding is *canonical*: a given [`RequestBatch`]/[`ReplyBatch`]
//! always serializes to the same bytes, and decode(encode(x)) == x
//! (locked by `tests/proptest_wire.rs`). There is no serde involvement —
//! the workspace's vendored serde is a stub — and no self-describing
//! metadata: both ends speak exactly [`VERSION`].

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
    /// A flag byte held something other than 0/1, or a reject code was
    /// unknown.
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

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over a received payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(WireError::TrailingBytes(left));
        }
        Ok(())
    }
}

fn put_header(out: &mut Vec<u8>, kind: u8) {
    put_u8(out, MAGIC);
    put_u8(out, VERSION);
    put_u8(out, kind);
    put_u8(out, 0); // pad — keeps the id field 4-aligned in the payload
}

fn check_header(c: &mut Cursor<'_>, want_kind: u8) -> Result<(), WireError> {
    let magic = c.u8()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = c.u8()?;
    if kind != want_kind {
        return Err(WireError::BadKind(kind));
    }
    let _pad = c.u8()?;
    Ok(())
}

fn put_opt_pip(out: &mut Vec<u8>, p: Option<Pip>) {
    match p {
        Some(p) => {
            put_u8(out, 1);
            put_u32(out, p.0);
        }
        None => put_u8(out, 0),
    }
}

fn get_opt_pip(c: &mut Cursor<'_>) -> Result<Option<Pip>, WireError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Pip(c.u32()?))),
        other => Err(WireError::BadValue(other)),
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Serializes a request batch into `out` (cleared first).
pub fn encode_request(req: &RequestBatch, out: &mut Vec<u8>) {
    out.clear();
    put_header(out, KIND_REQUEST);
    put_u64(out, req.id);
    put_u32(out, req.ops.len() as u32);
    for op in &req.ops {
        match *op {
            CtlOp::Lookup { vip } => {
                put_u8(out, TAG_LOOKUP);
                put_u32(out, vip.0);
            }
            CtlOp::Install { vip, pip } => {
                put_u8(out, TAG_INSTALL);
                put_u32(out, vip.0);
                put_u32(out, pip.0);
            }
            CtlOp::Invalidate { vip } => {
                put_u8(out, TAG_INVALIDATE);
                put_u32(out, vip.0);
            }
            CtlOp::Migrate { vip, to_pip, at_ns } => {
                put_u8(out, TAG_MIGRATE);
                put_u32(out, vip.0);
                put_u32(out, to_pip.0);
                match at_ns {
                    Some(ns) => {
                        put_u8(out, 1);
                        put_u64(out, ns);
                    }
                    None => put_u8(out, 0),
                }
            }
            CtlOp::Snapshot => put_u8(out, TAG_SNAPSHOT),
            CtlOp::Stats => put_u8(out, TAG_STATS),
        }
    }
}

/// Parses a request payload.
pub fn decode_request(buf: &[u8]) -> Result<RequestBatch, WireError> {
    let mut c = Cursor::new(buf);
    check_header(&mut c, KIND_REQUEST)?;
    let id = c.u64()?;
    let n = c.u32()? as usize;
    // Every op is at least 1 byte; a count beyond the remaining bytes is
    // corrupt, and refusing it caps the pre-allocation.
    if n > buf.len() {
        return Err(WireError::Truncated);
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match c.u8()? {
            TAG_LOOKUP => CtlOp::Lookup { vip: Vip(c.u32()?) },
            TAG_INSTALL => CtlOp::Install {
                vip: Vip(c.u32()?),
                pip: Pip(c.u32()?),
            },
            TAG_INVALIDATE => CtlOp::Invalidate { vip: Vip(c.u32()?) },
            TAG_MIGRATE => {
                let vip = Vip(c.u32()?);
                let to_pip = Pip(c.u32()?);
                let at_ns = match c.u8()? {
                    0 => None,
                    1 => Some(c.u64()?),
                    other => return Err(WireError::BadValue(other)),
                };
                CtlOp::Migrate { vip, to_pip, at_ns }
            }
            TAG_SNAPSHOT => CtlOp::Snapshot,
            TAG_STATS => CtlOp::Stats,
            other => return Err(WireError::BadTag(other)),
        };
        ops.push(op);
    }
    c.finish()?;
    Ok(RequestBatch { id, ops })
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

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
        put_u64(out, v);
    }
}

fn get_stats(c: &mut Cursor<'_>) -> Result<ServiceStats, WireError> {
    Ok(ServiceStats {
        batches: c.u64()?,
        ops: c.u64()?,
        lookups: c.u64()?,
        hits: c.u64()?,
        installs: c.u64()?,
        invalidates: c.u64()?,
        migrates: c.u64()?,
        rejected: c.u64()?,
        snapshots: c.u64()?,
        epoch: c.u64()?,
        mappings: c.u64()?,
        exec_p50_ns: c.u64()?,
        exec_p99_ns: c.u64()?,
    })
}

/// Serializes a reply batch into `out` (cleared first).
pub fn encode_reply(rep: &ReplyBatch, out: &mut Vec<u8>) {
    out.clear();
    put_header(out, KIND_REPLY);
    put_u64(out, rep.id);
    put_u64(out, rep.epoch);
    put_u32(out, rep.replies.len() as u32);
    for r in &rep.replies {
        match r {
            CtlReply::Found { pip } => {
                put_u8(out, RTAG_FOUND);
                put_u32(out, pip.0);
            }
            CtlReply::NotFound => put_u8(out, RTAG_NOT_FOUND),
            CtlReply::Applied { old, new } => {
                put_u8(out, RTAG_APPLIED);
                put_opt_pip(out, *old);
                put_opt_pip(out, *new);
            }
            CtlReply::Rejected { reason } => {
                put_u8(out, RTAG_REJECTED);
                put_u8(out, reason.code());
            }
            CtlReply::Snapshot { entries } => {
                put_u8(out, RTAG_SNAPSHOT);
                put_u32(out, entries.len() as u32);
                for &(v, p) in entries {
                    put_u32(out, v.0);
                    put_u32(out, p.0);
                }
            }
            CtlReply::Stats { stats } => {
                put_u8(out, RTAG_STATS);
                put_stats(out, stats);
            }
        }
    }
}

/// Parses a reply payload.
pub fn decode_reply(buf: &[u8]) -> Result<ReplyBatch, WireError> {
    let mut c = Cursor::new(buf);
    check_header(&mut c, KIND_REPLY)?;
    let id = c.u64()?;
    let epoch = c.u64()?;
    let n = c.u32()? as usize;
    if n > buf.len() {
        return Err(WireError::Truncated);
    }
    let mut replies = Vec::with_capacity(n);
    for _ in 0..n {
        let r = match c.u8()? {
            RTAG_FOUND => CtlReply::Found { pip: Pip(c.u32()?) },
            RTAG_NOT_FOUND => CtlReply::NotFound,
            RTAG_APPLIED => CtlReply::Applied {
                old: get_opt_pip(&mut c)?,
                new: get_opt_pip(&mut c)?,
            },
            RTAG_REJECTED => {
                let code = c.u8()?;
                let reason =
                    RejectReason::from_code(code).ok_or(WireError::BadValue(code))?;
                CtlReply::Rejected { reason }
            }
            RTAG_SNAPSHOT => {
                let m = c.u32()? as usize;
                if m.saturating_mul(8) > buf.len() {
                    return Err(WireError::Truncated);
                }
                let mut entries = Vec::with_capacity(m);
                for _ in 0..m {
                    entries.push((Vip(c.u32()?), Pip(c.u32()?)));
                }
                CtlReply::Snapshot { entries }
            }
            RTAG_STATS => CtlReply::Stats {
                stats: get_stats(&mut c)?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        replies.push(r);
    }
    c.finish()?;
    Ok(ReplyBatch { id, epoch, replies })
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
pub fn read_frame(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    max: usize,
) -> Result<bool, FrameError> {
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
    let got = r.take(len as u64).read_to_end(buf).map_err(FrameError::Io)?;
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
                CtlOp::Install { vip: Vip(8), pip: Pip(9) },
                CtlOp::Invalidate { vip: Vip(10) },
                CtlOp::Migrate { vip: Vip(11), to_pip: Pip(12), at_ns: Some(13) },
                CtlOp::Migrate { vip: Vip(14), to_pip: Pip(15), at_ns: None },
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
                CtlReply::Applied { old: Some(Pip(1)), new: None },
                CtlReply::Applied { old: None, new: Some(Pip(2)) },
                CtlReply::Rejected { reason: RejectReason::UnknownVip },
                CtlReply::Snapshot {
                    entries: vec![(Vip(1), Pip(2)), (Vip(3), Pip(4))],
                },
                CtlReply::Stats {
                    stats: ServiceStats {
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
                    },
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
