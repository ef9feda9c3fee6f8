//! The session-server wire protocol: length-prefixed frames over a byte
//! stream (DESIGN.md §5.10).
//!
//! One frame per message, in both directions:
//!
//! ```text
//! frame    := len:u32le payload                (len = payload byte count)
//! request  := 0x01 qlen:varint query:utf8 nparams:varint param…
//! param    := plen:varint ion_lite-value       (one encoded value each)
//! response := 0x81 vlen:varint ion_lite-value  rows (the result value)
//!           | 0x82 str(code) str(message) ndiags:varint diag…
//!           | 0x83 str(message)                overloaded (shed / budget)
//! diag     := str(code) str(message) start:varint end:varint
//! str(x)   := len:varint utf8-bytes
//! ```
//!
//! Varints are the same LEB128 encoding [`crate::ion_lite`] uses, and
//! parameters/rows ride as self-contained ion-lite values — the binary
//! format the engine already round-trips losslessly (bags, MISSING,
//! decimals included), so the protocol adds no type repertoire of its
//! own. Frames are capped at [`MAX_FRAME_LEN`]; a peer announcing a
//! larger frame is malformed and the connection should be dropped rather
//! than buffered.

use std::io::{self, Read, Write};

use sqlpp_value::Value;

use crate::error::FormatError;
use crate::ion_lite::{encode_into, from_ion_lite};

/// Hard upper bound on one frame's payload (64 MiB): large enough for
/// any sane result set, small enough that a corrupt or hostile length
/// prefix cannot make the server allocate unboundedly.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

const TAG_REQUEST: u8 = 0x01;
const TAG_ROWS: u8 = 0x81;
const TAG_ERROR: u8 = 0x82;
const TAG_OVERLOADED: u8 = 0x83;

/// A client→server message: one statement plus optional positional
/// parameters (bound to `?` placeholders in order).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The SQL++ statement text (query or DML).
    pub query: String,
    /// Positional parameter values, if any.
    pub params: Vec<Value>,
}

/// One diagnostic in an error response — the wire projection of the
/// engine's spanned `Diagnostic` type (code, message, byte span into the
/// request's query text). Kept as a plain struct here so the formats
/// crate stays independent of the syntax crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Stable diagnostic code (`E_EXPECTED`, `E_PLAN`, …).
    pub code: String,
    /// Human-readable message.
    pub message: String,
    /// Span start (byte offset into the query text).
    pub start: usize,
    /// Span end (exclusive byte offset).
    pub end: usize,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The statement succeeded; the payload is its result value (a bag
    /// of rows for queries, a summary tuple like `{'inserted': n}` for
    /// DML).
    Rows(Value),
    /// The statement failed with a client-attributable error.
    Error {
        /// Coarse error class (`syntax`, `plan`, `eval`, `schema`, …).
        code: String,
        /// The rendered engine error.
        message: String,
        /// Structured diagnostics with spans, when the front end
        /// produced them (syntax/plan errors).
        diagnostics: Vec<WireDiagnostic>,
    },
    /// The server shed this request: admission control refused it or a
    /// per-session resource budget tripped mid-flight. The session and
    /// engine remain usable; the client may retry later.
    Overloaded {
        /// What was exhausted (`"admission queue full"`, the governor's
        /// structured budget report, …).
        message: String,
    },
}

// ---------------- varint / string primitives ----------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(data: &mut &[u8]) -> Result<u64, FormatError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if shift >= 64 {
            return Err(FormatError::parse("wire", "varint overflow", 0));
        }
        let (&byte, rest) = data
            .split_first()
            .ok_or_else(|| FormatError::parse("wire", "truncated varint", 0))?;
        *data = rest;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_bytes<'a>(data: &mut &'a [u8]) -> Result<&'a [u8], FormatError> {
    let len = get_varint(data)? as usize;
    if data.len() < len {
        return Err(FormatError::parse("wire", "truncated bytes", 0));
    }
    let (head, rest) = data.split_at(len);
    *data = rest;
    Ok(head)
}

fn get_str(data: &mut &[u8]) -> Result<String, FormatError> {
    let bytes = get_bytes(data)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| FormatError::parse("wire", "invalid UTF-8 in string", 0))
}

fn get_tag(data: &mut &[u8]) -> Result<u8, FormatError> {
    let (&tag, rest) = data
        .split_first()
        .ok_or_else(|| FormatError::parse("wire", "empty payload", 0))?;
    *data = rest;
    Ok(tag)
}

/// Bytes reserved for a value's length before it is encoded: the
/// varint width of any length under 2 MiB, so a large response is
/// encoded in place and never moved.
const VLEN_RESERVE: usize = 3;

/// Appends `vlen:varint ion_lite-value`, encoding the value straight
/// into `buf`. Its length is only known afterwards, so the value goes
/// after a [`VLEN_RESERVE`]-byte gap that the length then replaces;
/// a length of another width shifts the value once.
fn put_value(buf: &mut Vec<u8>, v: &Value) {
    let start = buf.len();
    buf.extend_from_slice(&[0; VLEN_RESERVE]);
    encode_into(v, buf);
    let mut vlen = Vec::with_capacity(10);
    put_varint(&mut vlen, (buf.len() - start - VLEN_RESERVE) as u64);
    buf.splice(start..start + VLEN_RESERVE, vlen);
}

fn get_value(data: &mut &[u8]) -> Result<Value, FormatError> {
    from_ion_lite(get_bytes(data)?)
}

// ---------------- payload encoding ----------------

/// Encodes a request payload (frame body, without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + req.query.len());
    buf.push(TAG_REQUEST);
    put_str(&mut buf, &req.query);
    put_varint(&mut buf, req.params.len() as u64);
    for p in &req.params {
        put_value(&mut buf, p);
    }
    buf
}

/// Decodes a request payload. The whole buffer must be consumed.
pub fn decode_request(mut data: &[u8]) -> Result<Request, FormatError> {
    let data = &mut data;
    match get_tag(data)? {
        TAG_REQUEST => {}
        other => {
            return Err(FormatError::parse(
                "wire",
                format!("unknown request tag {other:#04x}"),
                0,
            ))
        }
    }
    let query = get_str(data)?;
    let nparams = get_varint(data)? as usize;
    let mut params = Vec::with_capacity(nparams.min(1024));
    for _ in 0..nparams {
        params.push(get_value(data)?);
    }
    if !data.is_empty() {
        return Err(FormatError::parse("wire", "trailing bytes in request", 0));
    }
    Ok(Request { query, params })
}

/// Encodes a response payload (frame body, without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    match resp {
        Response::Rows(v) => {
            buf.push(TAG_ROWS);
            put_value(&mut buf, v);
        }
        Response::Error {
            code,
            message,
            diagnostics,
        } => {
            buf.push(TAG_ERROR);
            put_str(&mut buf, code);
            put_str(&mut buf, message);
            put_varint(&mut buf, diagnostics.len() as u64);
            for d in diagnostics {
                put_str(&mut buf, &d.code);
                put_str(&mut buf, &d.message);
                put_varint(&mut buf, d.start as u64);
                put_varint(&mut buf, d.end as u64);
            }
        }
        Response::Overloaded { message } => {
            buf.push(TAG_OVERLOADED);
            put_str(&mut buf, message);
        }
    }
    buf
}

/// Decodes a response payload. The whole buffer must be consumed.
pub fn decode_response(mut data: &[u8]) -> Result<Response, FormatError> {
    let data = &mut data;
    let resp = match get_tag(data)? {
        TAG_ROWS => Response::Rows(get_value(data)?),
        TAG_ERROR => {
            let code = get_str(data)?;
            let message = get_str(data)?;
            let ndiags = get_varint(data)? as usize;
            let mut diagnostics = Vec::with_capacity(ndiags.min(1024));
            for _ in 0..ndiags {
                diagnostics.push(WireDiagnostic {
                    code: get_str(data)?,
                    message: get_str(data)?,
                    start: get_varint(data)? as usize,
                    end: get_varint(data)? as usize,
                });
            }
            Response::Error {
                code,
                message,
                diagnostics,
            }
        }
        TAG_OVERLOADED => Response::Overloaded {
            message: get_str(data)?,
        },
        other => {
            return Err(FormatError::parse(
                "wire",
                format!("unknown response tag {other:#04x}"),
                0,
            ))
        }
    };
    if !data.is_empty() {
        return Err(FormatError::parse("wire", "trailing bytes in response", 0));
    }
    Ok(resp)
}

// ---------------- framing over a byte stream ----------------

/// Writes one frame: a little-endian `u32` payload length, then the
/// payload, flushed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed the session); a length prefix over
/// [`MAX_FRAME_LEN`] or a mid-frame EOF is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlpp_value::{bag, tuple};

    #[test]
    fn request_round_trips_with_params() {
        let req = Request {
            query: "SELECT VALUE t.x FROM t AS t WHERE t.x > ?".to_string(),
            params: vec![
                Value::Int(3),
                Value::Null,
                Value::Missing,
                Value::Float(f64::NAN),
                Value::Tuple(tuple! {"a" => 1i64}),
            ],
        };
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back.query, req.query);
        assert_eq!(back.params.len(), 5);
        // NaN breaks PartialEq; compare structurally.
        for (a, b) in back.params.iter().zip(&req.params) {
            assert!(sqlpp_value::cmp::deep_eq(a, b), "{a} != {b}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let rows = Response::Rows(bag![1i64, 2i64, 3i64]);
        assert_eq!(decode_response(&encode_response(&rows)).unwrap(), rows);

        let err = Response::Error {
            code: "syntax".to_string(),
            message: "expected FROM".to_string(),
            diagnostics: vec![WireDiagnostic {
                code: "E_EXPECTED".to_string(),
                message: "expected FROM, found EOF".to_string(),
                start: 7,
                end: 8,
            }],
        };
        assert_eq!(decode_response(&encode_response(&err)).unwrap(), err);

        let shed = Response::Overloaded {
            message: "admission queue full".to_string(),
        };
        assert_eq!(decode_response(&encode_response(&shed)).unwrap(), shed);
    }

    #[test]
    fn values_encode_like_a_separate_buffer_then_a_copy() {
        use crate::ion_lite::to_ion_lite;
        // What `put_value` wrote before it encoded in place: the value in
        // its own buffer, then its length and a copy of it.
        fn copied(v: &Value) -> Vec<u8> {
            let bytes = to_ion_lite(v);
            let mut buf = vec![TAG_ROWS];
            put_varint(&mut buf, bytes.len() as u64);
            buf.extend_from_slice(&bytes);
            buf
        }
        let row = |i: i64| {
            Value::Tuple(tuple! {
                "id" => i,
                "name" => format!("employee {i}"),
                "tags" => bag!["a", "b"],
            })
        };
        // Rows enough for lengths of every varint width from one to four
        // bytes, the last past the reserved gap.
        for rows in [0, 1, 8, 400, 60_000] {
            let v = Value::Bag((0..rows).map(row).collect());
            let encoded = encode_response(&Response::Rows(v.clone()));
            assert_eq!(encoded, copied(&v), "{rows} rows");
        }
        let req = Request {
            query: "SELECT 1".to_string(),
            params: vec![Value::Bag((0..400).map(row).collect()), Value::Null],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err(), "over-cap length");

        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc"); // promises 8, delivers 3
        assert!(read_frame(&mut &buf[..]).is_err(), "mid-frame EOF");

        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes()[..2]); // EOF in prefix
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn garbage_payloads_are_structured_errors_not_panics() {
        assert!(decode_request(b"").is_err());
        assert!(decode_request(&[0xff, 0x01, 0x02]).is_err());
        assert!(decode_response(b"").is_err());
        assert!(decode_response(&[0x7f]).is_err());
        // A request with trailing junk is rejected.
        let mut ok = encode_request(&Request {
            query: "SELECT 1".to_string(),
            params: vec![],
        });
        ok.push(0);
        assert!(decode_request(&ok).is_err());
    }
}
