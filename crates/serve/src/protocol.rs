//! The length-prefixed binary wire protocol.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. One TCP connection carries any number of frames in each
//! direction; clients may pipeline requests, and responses come back in
//! *completion* order (batches finish when they finish), so every
//! request carries a client-chosen `id` that its response echoes.
//!
//! ```text
//! request  := len:u32 | id:u64 | c:u16 | h:u16 | w:u16 | pixels:f32*(c·h·w)
//! response := len:u32 | id:u64 | status:u8 | values:f32*
//! ```
//!
//! `status` is [`Status`]: `Ok` carries the logits, `Shed` means the
//! admission controller rejected the request under overload (retry with
//! backoff), `BadRequest` means the image dimensions did not match the
//! model the server is running. Frames above [`MAX_FRAME_BYTES`] are
//! rejected without buffering, bounding what a misbehaving peer can
//! make either side allocate.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload, requests and responses alike.
/// 16 MiB fits a 2048×2048 three-channel image with header to spare.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Response verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Inference ran; the payload carries one logit vector.
    Ok,
    /// Load-shed by admission control; the payload is empty.
    Shed,
    /// Malformed or wrong-shape request; the payload is empty.
    BadRequest,
}

impl Status {
    fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Shed => 1,
            Status::BadRequest => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Shed),
            2 => Ok(Status::BadRequest),
            other => Err(WireError::Malformed(format!("unknown status byte {other}"))),
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::Shed => "shed",
            Status::BadRequest => "bad-request",
        })
    }
}

/// One inference request: a single `c×h×w` image.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: u64,
    pub c: u16,
    pub h: u16,
    pub w: u16,
    /// Row-major CHW pixels; length must be `c · h · w`.
    pub pixels: Vec<f32>,
}

/// One inference response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id.
    pub id: u64,
    pub status: Status,
    /// Logits for `Ok`, empty otherwise.
    pub values: Vec<f32>,
}

/// Protocol failure.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error (including mid-frame disconnect).
    Io(io::Error),
    /// Structurally invalid frame.
    Malformed(String),
    /// Declared payload length above [`MAX_FRAME_BYTES`].
    TooLarge(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

const REQ_HEADER: usize = 8 + 2 + 2 + 2; // id + c + h + w
const RESP_HEADER: usize = 8 + 1; // id + status

/// Write one request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    let n = req.c as usize * req.h as usize * req.w as usize;
    if req.pixels.len() != n {
        return Err(WireError::Malformed(format!(
            "request {}: {}x{}x{} needs {n} pixels, got {}",
            req.id,
            req.c,
            req.h,
            req.w,
            req.pixels.len()
        )));
    }
    let len = REQ_HEADER + 4 * n;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&req.id.to_le_bytes())?;
    w.write_all(&req.c.to_le_bytes())?;
    w.write_all(&req.h.to_le_bytes())?;
    w.write_all(&req.w.to_le_bytes())?;
    for p in &req.pixels {
        w.write_all(&p.to_le_bytes())?;
    }
    Ok(())
}

/// Write one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    let len = RESP_HEADER + 4 * resp.values.len();
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&resp.id.to_le_bytes())?;
    w.write_all(&[resp.status.to_byte()])?;
    for v in &resp.values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Read one frame payload. `Ok(None)` is a clean end-of-stream: the
/// peer closed the connection *between* frames. A close mid-frame is an
/// [`WireError::Io`] with `UnexpectedEof`.
fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so a clean EOF at the frame boundary is
    // distinguishable from a truncated length prefix.
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a frame header",
            )));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn f32s_from(bytes: &[u8]) -> Result<Vec<f32>, WireError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(WireError::Malformed(format!(
            "f32 payload of {} bytes is not a multiple of 4",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Read one request frame; `Ok(None)` on clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, WireError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    if payload.len() < REQ_HEADER {
        return Err(WireError::Malformed(format!(
            "request frame of {} bytes is shorter than its header",
            payload.len()
        )));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let c = u16::from_le_bytes([payload[8], payload[9]]);
    let h = u16::from_le_bytes([payload[10], payload[11]]);
    let w = u16::from_le_bytes([payload[12], payload[13]]);
    let pixels = f32s_from(&payload[REQ_HEADER..])?;
    let expected = c as usize * h as usize * w as usize;
    if pixels.len() != expected {
        return Err(WireError::Malformed(format!(
            "request {id}: {c}x{h}x{w} needs {expected} pixels, got {}",
            pixels.len()
        )));
    }
    Ok(Some(Request {
        id,
        c,
        h,
        w,
        pixels,
    }))
}

/// Read one response frame; `Ok(None)` on clean end-of-stream.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, WireError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    if payload.len() < RESP_HEADER {
        return Err(WireError::Malformed(format!(
            "response frame of {} bytes is shorter than its header",
            payload.len()
        )));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let status = Status::from_byte(payload[8])?;
    let values = f32s_from(&payload[RESP_HEADER..])?;
    Ok(Some(Response { id, status, values }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(id: u64, c: u16, h: u16, w: u16) -> Request {
        let n = c as usize * h as usize * w as usize;
        Request {
            id,
            c,
            h,
            w,
            pixels: (0..n).map(|i| i as f32 * 0.5 - 1.0).collect(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let mut buf = Vec::new();
        let r1 = req(42, 1, 4, 4);
        let r2 = req(u64::MAX, 3, 2, 5);
        write_request(&mut buf, &r1).unwrap();
        write_request(&mut buf, &r2).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_request(&mut cur).unwrap(), Some(r1));
        assert_eq!(read_request(&mut cur).unwrap(), Some(r2));
        assert_eq!(read_request(&mut cur).unwrap(), None, "clean EOF");
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        let mut buf = Vec::new();
        let ok = Response {
            id: 7,
            status: Status::Ok,
            values: vec![0.25, -1.5, 3.0],
        };
        let shed = Response {
            id: 8,
            status: Status::Shed,
            values: vec![],
        };
        let bad = Response {
            id: 9,
            status: Status::BadRequest,
            values: vec![],
        };
        for r in [&ok, &shed, &bad] {
            write_response(&mut buf, r).unwrap();
        }
        let mut cur = Cursor::new(buf);
        assert_eq!(read_response(&mut cur).unwrap(), Some(ok));
        assert_eq!(read_response(&mut cur).unwrap(), Some(shed));
        assert_eq!(read_response(&mut cur).unwrap(), Some(bad));
        assert_eq!(read_response(&mut cur).unwrap(), None);
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut buf = Vec::new();
        write_request(&mut buf, &req(1, 1, 2, 2)).unwrap();
        buf.truncate(buf.len() - 3); // cut inside the pixel payload
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_request(&mut cur),
            Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn truncated_header_is_an_error() {
        let mut cur = Cursor::new(vec![5u8, 0]); // two of four length bytes
        assert!(matches!(read_request(&mut cur), Err(WireError::Io(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_without_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_request(&mut cur),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn pixel_count_mismatch_is_rejected_on_both_sides() {
        let mut bad = req(1, 2, 2, 2);
        bad.pixels.pop();
        let mut buf = Vec::new();
        assert!(matches!(
            write_request(&mut buf, &bad),
            Err(WireError::Malformed(_))
        ));

        // Hand-craft a frame whose dims disagree with its payload.
        let mut frame = Vec::new();
        let payload_len = REQ_HEADER + 4; // one pixel
        frame.extend_from_slice(&(payload_len as u32).to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&2u16.to_le_bytes()); // c
        frame.extend_from_slice(&2u16.to_le_bytes()); // h
        frame.extend_from_slice(&2u16.to_le_bytes()); // w — needs 8 pixels
        frame.extend_from_slice(&1.0f32.to_le_bytes());
        let mut cur = Cursor::new(frame);
        assert!(matches!(
            read_request(&mut cur),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_status_byte_is_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(RESP_HEADER as u32).to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.push(9); // bogus status
        let mut cur = Cursor::new(frame);
        assert!(matches!(
            read_response(&mut cur),
            Err(WireError::Malformed(_))
        ));
    }
}
