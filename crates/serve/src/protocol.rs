//! The wire protocol between `loadgen` (or any client) and `serve`.
//!
//! Frames are length-prefixed: a little-endian `u32` byte count
//! followed by that many bytes, the first of which is the opcode
//! (requests) or status (responses). All multi-byte integers are
//! little-endian. The protocol is deliberately tiny — nine opcodes,
//! fixed-size request bodies — so a client fits in a few dozen lines
//! and a malformed frame is cheap to reject.
//!
//! ```text
//! request  := len:u32  op:u8  body
//!   PING                                   (body empty)
//!   READ     file:u32  offset:u64  nblocks:u32
//!   META                                   (body empty)
//!   STATS                                  (body empty)
//!   SHUTDOWN                               (body empty)
//!   METRICS                                (body empty)
//!   DUMP                                   (body empty)
//!   FAULT    sub:u8  args       (admin chaos frame; see below)
//!   REBUILD  disk:u16            (admin: rebuild a mirror member)
//! response := len:u32  status:u8  payload
//!   READ    OK → payload = nblocks × block_bytes of file data
//!   META    OK → payload = the disk directory's meta.txt (UTF-8)
//!   STATS   OK → payload = a JSON stats snapshot (UTF-8)
//!   METRICS OK → payload = Prometheus text exposition (UTF-8)
//!   DUMP    OK → payload = the flight recorder as JSONL (UTF-8)
//!   errors     → payload = a one-line diagnostic (UTF-8)
//!   ERR        → payload = code:u8 + a one-line diagnostic (UTF-8)
//! ```
//!
//! `ERR` (status [`ST_ERR`]) is the structured failure frame: its
//! first payload byte is an [`ErrorCode`], so clients can distinguish
//! a persistent media error from an offline disk, a deadline timeout,
//! or a load-shedding rejection — and pick a retry strategy per code.
//!
//! `FAULT` is the chaos-engineering admin frame (`sub` selects the
//! action): take a disk offline for a wall-clock window, plant a
//! persistent bad block under a `(file, offset)`, or stall a disk's
//! media path. It exists so a harness ([`crate::chaos`]) can inject
//! component failure into a *running* server deterministically.

use std::io::{self, Read, Write};

/// Liveness probe; empty OK response.
pub const OP_PING: u8 = 1;
/// Read `nblocks` blocks of `file` starting at block `offset`.
pub const OP_READ: u8 = 2;
/// Fetch the serialized disk-array metadata.
pub const OP_META: u8 = 3;
/// Fetch a JSON stats snapshot.
pub const OP_STATS: u8 = 4;
/// Ask the server to drain and exit.
pub const OP_SHUTDOWN: u8 = 5;
/// Fetch the live metric registry as Prometheus text exposition.
pub const OP_METRICS: u8 = 6;
/// Fetch the flight recorder's retained events as JSONL.
pub const OP_DUMP: u8 = 7;
/// Admin chaos frame: inject a fault into the running server.
pub const OP_FAULT: u8 = 8;
/// Admin frame: rebuild a mirrored disk's image from its twin.
pub const OP_REBUILD: u8 = 9;

/// `FAULT` sub-op: take a disk offline for a wall-clock window
/// (`ms = 0` brings it back).
pub const FAULT_OFFLINE: u8 = 1;
/// `FAULT` sub-op: plant a persistent bad block under `(file, offset)`.
pub const FAULT_PLANT: u8 = 2;
/// `FAULT` sub-op: stall a disk's media path for a wall-clock window
/// (ops wait it out instead of failing).
pub const FAULT_STALL: u8 = 3;

/// Request served successfully.
pub const ST_OK: u8 = 0;
/// The frame did not parse (unknown op, bad length).
pub const ST_BAD_REQUEST: u8 = 1;
/// A READ named a file or range the array does not hold.
pub const ST_RANGE: u8 = 2;
/// The server is draining; no further requests will be served.
pub const ST_SHUTTING_DOWN: u8 = 3;
/// The server failed internally (e.g. an image read error).
pub const ST_INTERNAL: u8 = 4;
/// The connection limit was reached; retry later.
pub const ST_BUSY: u8 = 5;
/// Structured failure: the first payload byte is an [`ErrorCode`],
/// the rest a UTF-8 diagnostic.
pub const ST_ERR: u8 = 6;

/// The failure taxonomy carried by `ERR` frames. Codes are stable
/// wire bytes; labels are the metric label values of
/// `forhdc_errors_total{code=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A persistent media error survived the server's retry budget.
    MediaError = 1,
    /// The target disk is inside an offline window; retry later.
    DiskOffline = 2,
    /// The request crossed its deadline (directly, or because the
    /// deadline preempted the remaining retries).
    Timeout = 3,
    /// Admission control shed the request (inflight or per-disk queue
    /// limit); retry after backoff.
    Overload = 4,
}

impl ErrorCode {
    /// Every code, in wire order.
    pub const ALL: [ErrorCode; 4] = [
        ErrorCode::MediaError,
        ErrorCode::DiskOffline,
        ErrorCode::Timeout,
        ErrorCode::Overload,
    ];

    /// The stable label (metric label value and report key).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::MediaError => "media",
            ErrorCode::DiskOffline => "offline",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overload => "overload",
        }
    }

    /// Index into per-code instrument vectors (the [`ErrorCode::ALL`]
    /// position).
    pub fn index(self) -> usize {
        self as usize - 1
    }

    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::MediaError),
            2 => Some(ErrorCode::DiskOffline),
            3 => Some(ErrorCode::Timeout),
            4 => Some(ErrorCode::Overload),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Appends an `ERR` payload — the code byte, then the diagnostic — to
/// a frame begun by [`begin_response`]; seal it with [`ST_ERR`].
pub fn push_error(frame: &mut Vec<u8>, code: ErrorCode, msg: &str) {
    frame.push(code as u8);
    frame.extend_from_slice(msg.as_bytes());
}

/// Splits an `ERR` payload into its code and diagnostic. `None` code
/// means the byte was unknown (a newer server).
pub fn parse_error(payload: &[u8]) -> (Option<ErrorCode>, String) {
    match payload.split_first() {
        Some((&b, rest)) => (
            ErrorCode::from_u8(b),
            String::from_utf8_lossy(rest).into_owned(),
        ),
        None => (None, String::new()),
    }
}

/// Upper bound on a request frame (op + largest fixed body).
pub const MAX_REQUEST_FRAME: u32 = 64;
/// Upper bound a client accepts for a response frame (16 MiB covers
/// the largest permitted READ plus any stats payload).
pub const MAX_RESPONSE_FRAME: u32 = 16 * 1024 * 1024;
/// Largest single READ in blocks (4 MiB of 4-KByte blocks).
pub const MAX_READ_BLOCKS: u32 = 1024;

/// A parsed client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Read a block range of one file.
    Read {
        /// File index in the layout.
        file: u32,
        /// First block, as an offset within the file.
        offset: u64,
        /// Blocks to read (1..=[`MAX_READ_BLOCKS`]).
        nblocks: u32,
    },
    /// Fetch the array metadata.
    Meta,
    /// Fetch a stats snapshot.
    Stats,
    /// Drain and exit.
    Shutdown,
    /// Fetch the Prometheus text exposition.
    Metrics,
    /// Fetch the flight recorder's retained events as JSONL.
    Dump,
    /// Admin: take `disk` offline for `ms` wall-clock milliseconds
    /// (`ms = 0` clears any admin window and brings it back).
    FaultOffline {
        /// Physical disk id.
        disk: u16,
        /// Window length from now, in milliseconds.
        ms: u64,
    },
    /// Admin: plant a persistent bad block under `(file, offset)`.
    FaultPlant {
        /// File index in the layout.
        file: u32,
        /// Block offset within the file.
        offset: u64,
    },
    /// Admin: stall `disk`'s media path for `ms` milliseconds — media
    /// operations wait the window out instead of failing.
    FaultStall {
        /// Physical disk id.
        disk: u16,
        /// Window length from now, in milliseconds.
        ms: u64,
    },
    /// Admin: start a background rebuild of `disk` from its mirror
    /// twin (mirrored arrays only; idempotent while one is running).
    Rebuild {
        /// Physical disk id of the member to reconstruct.
        disk: u16,
    },
}

/// Why an incoming request frame could not be parsed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The bytes arrived but are not a valid request.
    Malformed(String),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "{e}"),
            FrameError::Malformed(m) => write!(f, "{m}"),
        }
    }
}

/// Serializes one request onto `w` (unbuffered callers should wrap `w`
/// in a `BufWriter` and flush).
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    let mut body = Vec::with_capacity(17);
    match req {
        Request::Ping => body.push(OP_PING),
        Request::Read {
            file,
            offset,
            nblocks,
        } => {
            body.push(OP_READ);
            body.extend_from_slice(&file.to_le_bytes());
            body.extend_from_slice(&offset.to_le_bytes());
            body.extend_from_slice(&nblocks.to_le_bytes());
        }
        Request::Meta => body.push(OP_META),
        Request::Stats => body.push(OP_STATS),
        Request::Shutdown => body.push(OP_SHUTDOWN),
        Request::Metrics => body.push(OP_METRICS),
        Request::Dump => body.push(OP_DUMP),
        Request::FaultOffline { disk, ms } => {
            body.push(OP_FAULT);
            body.push(FAULT_OFFLINE);
            body.extend_from_slice(&disk.to_le_bytes());
            body.extend_from_slice(&ms.to_le_bytes());
        }
        Request::FaultPlant { file, offset } => {
            body.push(OP_FAULT);
            body.push(FAULT_PLANT);
            body.extend_from_slice(&file.to_le_bytes());
            body.extend_from_slice(&offset.to_le_bytes());
        }
        Request::FaultStall { disk, ms } => {
            body.push(OP_FAULT);
            body.push(FAULT_STALL);
            body.extend_from_slice(&disk.to_le_bytes());
            body.extend_from_slice(&ms.to_le_bytes());
        }
        Request::Rebuild { disk } => {
            body.push(OP_REBUILD);
            body.extend_from_slice(&disk.to_le_bytes());
        }
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)
}

/// Reads one request frame. `Ok(None)` is a clean end of stream (the
/// peer closed between frames); a close mid-frame or a malformed body
/// is an error.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, FrameError> {
    let mut len4 = [0u8; 4];
    match r.read_exact(&mut len4) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len4);
    if len == 0 || len > MAX_REQUEST_FRAME {
        return Err(FrameError::Malformed(format!(
            "request frame of {len} bytes (limit {MAX_REQUEST_FRAME})"
        )));
    }
    let mut frame = [0u8; MAX_REQUEST_FRAME as usize];
    let body = &mut frame[..len as usize];
    r.read_exact(body)?;
    let op = body[0];
    let args = &body[1..];
    let req = match (op, args.len()) {
        (OP_PING, 0) => Request::Ping,
        (OP_META, 0) => Request::Meta,
        (OP_STATS, 0) => Request::Stats,
        (OP_SHUTDOWN, 0) => Request::Shutdown,
        (OP_METRICS, 0) => Request::Metrics,
        (OP_DUMP, 0) => Request::Dump,
        (OP_READ, 16) => Request::Read {
            file: u32::from_le_bytes(args[0..4].try_into().expect("4-byte slice")),
            offset: u64::from_le_bytes(args[4..12].try_into().expect("8-byte slice")),
            nblocks: u32::from_le_bytes(args[12..16].try_into().expect("4-byte slice")),
        },
        (OP_READ, n) => {
            return Err(FrameError::Malformed(format!(
                "READ body of {n} bytes (want 16)"
            )))
        }
        (OP_FAULT, 11) => {
            let sub = args[0];
            let rest = &args[1..];
            match sub {
                FAULT_OFFLINE | FAULT_STALL => {
                    let disk = u16::from_le_bytes(rest[0..2].try_into().expect("2-byte slice"));
                    let ms = u64::from_le_bytes(rest[2..10].try_into().expect("8-byte slice"));
                    if sub == FAULT_OFFLINE {
                        Request::FaultOffline { disk, ms }
                    } else {
                        Request::FaultStall { disk, ms }
                    }
                }
                other => {
                    return Err(FrameError::Malformed(format!(
                        "unknown FAULT sub-op {other}"
                    )))
                }
            }
        }
        (OP_FAULT, 13) if args[0] == FAULT_PLANT => Request::FaultPlant {
            file: u32::from_le_bytes(args[1..5].try_into().expect("4-byte slice")),
            offset: u64::from_le_bytes(args[5..13].try_into().expect("8-byte slice")),
        },
        (OP_FAULT, n) => {
            return Err(FrameError::Malformed(format!(
                "FAULT body of {n} bytes (want 11 or 13)"
            )))
        }
        (OP_REBUILD, 2) => Request::Rebuild {
            disk: u16::from_le_bytes(args[0..2].try_into().expect("2-byte slice")),
        },
        (OP_REBUILD, n) => {
            return Err(FrameError::Malformed(format!(
                "REBUILD body of {n} bytes (want 2)"
            )))
        }
        (op, _) => return Err(FrameError::Malformed(format!("unknown opcode {op}"))),
    };
    Ok(Some(req))
}

/// Bytes of a response header: `len:u32 status:u8`.
pub const RESPONSE_HEADER: usize = 5;

/// The header of a response carrying `payload_len` bytes after its
/// status byte.
pub fn response_header(status: u8, payload_len: usize) -> [u8; RESPONSE_HEADER] {
    let mut h = [status; RESPONSE_HEADER];
    h[..4].copy_from_slice(&(1 + payload_len as u32).to_le_bytes());
    h
}

/// Starts a response frame in `frame`: clears it and reserves the
/// header. Append the payload, then [`seal_response`] it.
pub fn begin_response(frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0; RESPONSE_HEADER]);
}

/// Fills in the header of a frame begun by [`begin_response`], making
/// `frame` one complete response ready for a single write.
pub fn seal_response(frame: &mut [u8], status: u8) {
    let header = response_header(status, frame.len() - RESPONSE_HEADER);
    frame[..RESPONSE_HEADER].copy_from_slice(&header);
}

/// Serializes one response (status byte + payload) onto `w`.
pub fn write_response<W: Write>(w: &mut W, status: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(1 + payload.len() as u32).to_le_bytes())?;
    w.write_all(&[status])?;
    w.write_all(payload)
}

/// Reads one response frame as `(status, payload)`.
pub fn read_response<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), FrameError> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len == 0 || len > MAX_RESPONSE_FRAME {
        return Err(FrameError::Malformed(format!(
            "response frame of {len} bytes (limit {MAX_RESPONSE_FRAME})"
        )));
    }
    let mut status = [0u8; 1];
    r.read_exact(&mut status)?;
    let mut payload = vec![0u8; len as usize - 1];
    r.read_exact(&mut payload)?;
    Ok((status[0], payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Meta,
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::Dump,
            Request::Read {
                file: 7,
                offset: 123_456_789_012,
                nblocks: 32,
            },
            Request::FaultOffline { disk: 3, ms: 250 },
            Request::FaultPlant {
                file: 11,
                offset: 2,
            },
            Request::FaultStall { disk: 1, ms: 500 },
            Request::Rebuild { disk: 2 },
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_request(&mut buf, r).unwrap();
        }
        let mut c = Cursor::new(buf);
        for r in &reqs {
            assert_eq!(read_request(&mut c).unwrap(), Some(*r));
        }
        assert_eq!(read_request(&mut c).unwrap(), None); // clean EOF
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        write_response(&mut buf, ST_OK, b"hello").unwrap();
        write_response(&mut buf, ST_RANGE, b"").unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_response(&mut c).unwrap(), (ST_OK, b"hello".to_vec()));
        assert_eq!(read_response(&mut c).unwrap(), (ST_RANGE, Vec::new()));
    }

    #[test]
    fn sealed_frames_roundtrip_a_4_mib_payload() {
        let payload: Vec<u8> = (0..4 << 20).map(|i: u32| (i % 251) as u8).collect();
        let mut frame = Vec::new();
        begin_response(&mut frame);
        frame.extend_from_slice(&payload);
        seal_response(&mut frame, ST_OK);
        // A sealed frame is byte-identical to the streamed encoding.
        let mut wire = Vec::new();
        write_response(&mut wire, ST_OK, &payload).unwrap();
        assert!(frame == wire);
        begin_response(&mut frame);
        seal_response(&mut frame, ST_RANGE);
        wire.extend_from_slice(&frame);
        let mut c = Cursor::new(wire);
        let (st, got) = read_response(&mut c).unwrap();
        assert_eq!(st, ST_OK);
        assert!(got == payload);
        assert_eq!(read_response(&mut c).unwrap(), (ST_RANGE, Vec::new()));
    }

    #[test]
    fn oversized_request_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_REQUEST_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 80]);
        match read_request(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("frame"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(99);
        match read_request(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("opcode"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_read_body_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.push(OP_READ);
        buf.extend_from_slice(&[0u8; 4]);
        match read_request(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("READ body"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_frame_roundtrips_codes() {
        let (mut buf, mut frame) = (Vec::new(), Vec::new());
        for code in ErrorCode::ALL {
            begin_response(&mut frame);
            push_error(&mut frame, code, "disk 1: boom");
            seal_response(&mut frame, ST_ERR);
            buf.extend_from_slice(&frame);
        }
        let mut c = Cursor::new(buf);
        for code in ErrorCode::ALL {
            let (st, payload) = read_response(&mut c).unwrap();
            assert_eq!(st, ST_ERR);
            let (parsed, msg) = parse_error(&payload);
            assert_eq!(parsed, Some(code));
            assert_eq!(msg, "disk 1: boom");
        }
        // Unknown code bytes degrade to None, keeping the diagnostic.
        let (parsed, msg) = parse_error(&[200, b'x']);
        assert_eq!(parsed, None);
        assert_eq!(msg, "x");
        assert_eq!(parse_error(&[]), (None, String::new()));
        // Labels are distinct and stable; indices follow ALL order.
        let mut seen = std::collections::HashSet::new();
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            assert!(seen.insert(code.label()));
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
            assert_eq!(code.index(), i);
        }
    }

    #[test]
    fn bad_fault_frames_rejected() {
        // Unknown sub-op.
        let mut buf = Vec::new();
        buf.extend_from_slice(&12u32.to_le_bytes());
        buf.push(OP_FAULT);
        buf.push(99);
        buf.extend_from_slice(&[0u8; 10]);
        match read_request(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("sub-op"), "{m}"),
            other => panic!("{other:?}"),
        }
        // Wrong body size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.push(OP_FAULT);
        buf.push(FAULT_OFFLINE);
        buf.push(0);
        match read_request(&mut Cursor::new(buf)) {
            Err(FrameError::Malformed(m)) => assert!(m.contains("FAULT body"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&17u32.to_le_bytes());
        buf.push(OP_READ); // body cut short
        match read_request(&mut Cursor::new(buf)) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
    }
}
