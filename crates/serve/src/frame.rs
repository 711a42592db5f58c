//! FLMC-RPC framing: length-prefixed, versioned message envelopes.
//!
//! Every message on an `flm-serve` connection — request or response — is one
//! frame:
//!
//! ```text
//! "FLMR" | version: u8 (= 1) | kind: u8 | len: u32 BE | body[len]
//! ```
//!
//! The layer is deliberately dumb: it moves an opaque `(kind, body)` pair and
//! enforces exactly three things — the magic, the version, and a body-size
//! cap. Everything semantic (which kinds exist, how bodies decode) lives in
//! [`crate::rpc`], built on [`flm_sim::wire`] just like the `FLMC`
//! certificate format it transports.
//!
//! Decoding is hardened the same way `flm_core::codec` is: a hostile length
//! prefix can never provoke an oversized allocation. [`Frame::decode`]
//! checks the claimed length against both the configured cap and the bytes
//! actually present before touching memory, and [`read_frame`] streams the
//! body through [`std::io::Read::take`], so a peer claiming a huge body that
//! never arrives costs at most the bytes it really sent.

use std::fmt;
use std::io::{self, Read, Write};

/// First four bytes of every frame.
pub const MAGIC: &[u8; 4] = b"FLMR";

/// Current framing version.
pub const VERSION: u8 = 1;

/// Fixed header size: magic + version + kind + body length.
pub const HEADER_BYTES: usize = 10;

/// Default body-size cap. Certificates for every in-tree refutation are a
/// few KiB; 4 MiB leaves generous headroom without letting one connection
/// stage an allocation attack.
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 << 20;

/// The largest body the wire format can carry at all: the length prefix is
/// a `u32`, so anything longer cannot be framed, only rejected.
pub const MAX_ENCODABLE_BODY_BYTES: usize = u32::MAX as usize;

/// One framed message: an opaque kind byte plus body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind; the RPC layer assigns meaning (see [`crate::rpc`]).
    pub kind: u8,
    /// Opaque body bytes.
    pub body: Vec<u8>,
}

/// Structured framing failure. Mirrors `CertDecodeError`'s philosophy:
/// hostile bytes yield a typed error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input does not start with the `FLMR` magic.
    BadMagic,
    /// The version byte is newer than this build understands.
    UnsupportedVersion(u8),
    /// The input ended before the full header or body arrived.
    Truncated,
    /// The length prefix exceeds the configured body cap.
    Oversize {
        /// The claimed body length.
        len: u64,
        /// The cap it exceeded.
        max: usize,
    },
    /// The body is too large for the `u32` length prefix to represent —
    /// an encode-side failure: framing it would silently truncate the
    /// length and desynchronize the stream.
    BodyTooLarge {
        /// The unencodable body length.
        len: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not an FLMC-RPC frame (bad magic)"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversize { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::BodyTooLarge { len } => {
                write!(f, "frame body of {len} bytes exceeds the u32 length prefix")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Failure while reading a frame from a stream: either the transport broke
/// or the bytes that arrived are not a valid frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// The peer closed the connection cleanly before any frame byte.
    Eof,
    /// Transport-level failure (includes read timeouts).
    Io(io::Error),
    /// The bytes read are not a well-formed frame.
    Frame(FrameError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Eof => write!(f, "connection closed"),
            FrameReadError::Io(e) => write!(f, "transport error: {e}"),
            FrameReadError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<FrameError> for FrameReadError {
    fn from(e: FrameError) -> Self {
        FrameReadError::Frame(e)
    }
}

impl Frame {
    /// Builds a frame from a kind byte and body bytes.
    pub fn new(kind: u8, body: Vec<u8>) -> Frame {
        Frame { kind, body }
    }

    /// Encodes the frame to its canonical bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError::BodyTooLarge`] when the body does not fit the `u32`
    /// length prefix. The cast this replaces silently truncated the length
    /// for bodies over 4 GiB, mis-framing every byte after the header.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let len = encodable_body_len(self.body.len())?;
        let mut out = Vec::with_capacity(HEADER_BYTES + self.body.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.kind);
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&self.body);
        Ok(out)
    }

    /// Decodes one frame from the front of `bytes`, returning the frame and
    /// the number of bytes consumed. The claimed body length is checked
    /// against both `max_body` and the bytes actually present before any
    /// allocation, so hostile prefixes are cheap to reject.
    ///
    /// # Errors
    ///
    /// Returns a structured [`FrameError`] on bad magic, an unsupported
    /// version, a truncated header or body, or an oversized length prefix.
    pub fn decode(bytes: &[u8], max_body: usize) -> Result<(Frame, usize), FrameError> {
        if bytes.len() < HEADER_BYTES {
            // Partial magic is still reported as truncation only when the
            // prefix matches; garbage is BadMagic immediately.
            let lead = bytes.len().min(MAGIC.len());
            if bytes[..lead] != MAGIC[..lead] {
                return Err(FrameError::BadMagic);
            }
            return Err(FrameError::Truncated);
        }
        let (kind, len) = parse_header(&bytes[..HEADER_BYTES], max_body)?;
        let rest = &bytes[HEADER_BYTES..];
        if rest.len() < len {
            return Err(FrameError::Truncated);
        }
        Ok((
            Frame {
                kind,
                body: rest[..len].to_vec(),
            },
            HEADER_BYTES + len,
        ))
    }
}

/// Checks a full header's magic, version and length prefix against
/// `max_body`, returning the kind byte and the body length.
fn parse_header(header: &[u8], max_body: usize) -> Result<(u8, usize), FrameError> {
    if header[..4] != MAGIC[..] {
        return Err(FrameError::BadMagic);
    }
    if header[4] != VERSION {
        return Err(FrameError::UnsupportedVersion(header[4]));
    }
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > max_body {
        return Err(FrameError::Oversize {
            len: len as u64,
            max: max_body,
        });
    }
    Ok((header[5], len))
}

/// Reads one frame from a stream, enforcing the `max_body` cap *before*
/// allocating for the body, and streaming the body in so a lying length
/// prefix costs only the bytes the peer really sends.
///
/// # Errors
///
/// [`FrameReadError::Eof`] when the peer closes cleanly between frames,
/// [`FrameReadError::Io`] on transport failures (including read timeouts),
/// and [`FrameReadError::Frame`] when the bytes are not a valid frame.
pub fn read_frame(r: &mut impl Read, max_body: usize) -> Result<Frame, FrameReadError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameReadError::Eof),
            Ok(0) => return Err(FrameError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let (kind, len) = parse_header(&header, max_body)?;
    // `take` bounds what a hostile peer can make us buffer; `read_to_end`
    // grows the vector only as bytes actually arrive.
    let mut body = Vec::new();
    match r.take(len as u64).read_to_end(&mut body) {
        Ok(n) if n == len => Ok(Frame { kind, body }),
        Ok(_) => Err(FrameError::Truncated.into()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated.into()),
        Err(e) => Err(FrameReadError::Io(e)),
    }
}

/// Checks that a body length fits the wire's `u32` length prefix, returning
/// the prefix value. This is the single place the encode-side cap lives —
/// [`Frame::encode`] and anything staging bodies for a write buffer route
/// through it.
///
/// # Errors
///
/// [`FrameError::BodyTooLarge`] past [`MAX_ENCODABLE_BODY_BYTES`].
fn encodable_body_len(len: usize) -> Result<u32, FrameError> {
    u32::try_from(len).map_err(|_| FrameError::BodyTooLarge { len: len as u64 })
}

/// Writes one frame to a stream and flushes it.
///
/// # Errors
///
/// Propagates the underlying [`io::Error`]; an unencodable body surfaces as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let bytes = frame
        .encode()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let frame = Frame::new(0x42, b"hello frame".to_vec());
        let bytes = frame.encode().unwrap();
        let (decoded, consumed) = Frame::decode(&bytes, DEFAULT_MAX_BODY_BYTES).unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn decode_is_canonical() {
        let frame = Frame::new(7, vec![1, 2, 3]);
        let bytes = frame.encode().unwrap();
        let (decoded, consumed) = Frame::decode(&bytes, 1024).unwrap();
        assert_eq!(decoded.encode().unwrap(), bytes[..consumed]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            Frame::decode(b"NOPE\x01\x00\x00\x00\x00\x00", 1024),
            Err(FrameError::BadMagic)
        );
        // A short prefix that cannot be the magic is BadMagic, not Truncated.
        assert_eq!(Frame::decode(b"XY", 1024), Err(FrameError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = Frame::new(1, vec![]).encode().unwrap();
        bytes[4] = 9;
        assert_eq!(
            Frame::decode(&bytes, 1024),
            Err(FrameError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn oversize_length_prefix_rejected_before_allocation() {
        let mut bytes = Frame::new(1, vec![]).encode().unwrap();
        bytes[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Frame::decode(&bytes, 1024),
            Err(FrameError::Oversize {
                len: u64::from(u32::MAX),
                max: 1024,
            })
        );
    }

    #[test]
    fn truncated_body_rejected() {
        let bytes = Frame::new(1, vec![9; 8]).encode().unwrap();
        assert_eq!(
            Frame::decode(&bytes[..bytes.len() - 1], 1024),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn encode_rejects_bodies_past_the_u32_prefix() {
        // The boundary check itself — a real 4 GiB body is not allocatable
        // in a unit test, so the cap is pinned where encode enforces it.
        assert_eq!(encodable_body_len(0).unwrap(), 0);
        assert_eq!(
            encodable_body_len(MAX_ENCODABLE_BODY_BYTES).unwrap(),
            u32::MAX
        );
        assert_eq!(
            encodable_body_len(MAX_ENCODABLE_BODY_BYTES + 1),
            Err(FrameError::BodyTooLarge {
                len: u64::from(u32::MAX) + 1
            })
        );
        let message = FrameError::BodyTooLarge { len: 1 << 33 }.to_string();
        assert!(message.contains("u32 length prefix"), "{message}");
    }

    #[test]
    fn stream_read_round_trip_and_eof() {
        let frame = Frame::new(3, b"abc".to_vec());
        let bytes = frame.encode().unwrap();
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), frame);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameReadError::Eof)
        ));
    }

    #[test]
    fn stream_read_truncated_body_is_structured() {
        let frame = Frame::new(3, vec![7; 32]);
        let bytes = frame.encode().unwrap();
        let mut cursor = std::io::Cursor::new(&bytes[..bytes.len() - 5]);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameReadError::Frame(FrameError::Truncated))
        ));
    }
}
