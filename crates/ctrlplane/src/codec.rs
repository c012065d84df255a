//! Length-prefixed JSON framing.
//!
//! Each frame: 4-byte big-endian payload length, then that many bytes of
//! JSON. A hard size cap protects the server from a malicious or broken
//! peer declaring a multi-gigabyte frame. Framing is synchronous over any
//! [`std::io::Read`]/[`std::io::Write`]; the server gives each connection
//! its own thread, so blocking reads are the natural model.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{Read, Write};

/// Maximum accepted frame payload (1 MiB — control-plane messages are
/// small; anything bigger is a protocol error).
pub(crate) const MAX_FRAME: u32 = 1 << 20;

/// Framing/serialization errors.
#[derive(Debug)]
pub enum CodecError {
    Io(std::io::Error),
    FrameTooLarge(u32),
    Json(serde_json::Error),
    /// Clean EOF between frames (peer hung up).
    Closed,
    /// A read or write deadline expired mid-operation. Framing state is
    /// unrecoverable after this (partial bytes may have moved), so the
    /// connection must be abandoned, not resumed.
    TimedOut,
}

impl CodecError {
    /// Transport-level failure (as opposed to a malformed message): the
    /// peer or the network is at fault and a fresh connection may
    /// succeed. This is the client retry layer's "retryable" predicate.
    pub(crate) fn is_transport(&self) -> bool {
        matches!(self, CodecError::Io(_) | CodecError::Closed | CodecError::TimedOut)
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io: {e}"),
            CodecError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            CodecError::Json(e) => write!(f, "json: {e}"),
            CodecError::Closed => write!(f, "connection closed"),
            CodecError::TimedOut => write!(f, "deadline expired mid-frame"),
        }
    }
}

impl std::error::Error for CodecError {}

/// `true` for the error kinds a socket read/write deadline surfaces as
/// (`SO_RCVTIMEO`/`SO_SNDTIMEO` report `WouldBlock` on Unix, `TimedOut`
/// on Windows).
pub(crate) fn is_io_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        if is_io_timeout(&e) {
            CodecError::TimedOut
        } else {
            CodecError::Io(e)
        }
    }
}

impl From<serde_json::Error> for CodecError {
    fn from(e: serde_json::Error) -> Self {
        CodecError::Json(e)
    }
}

/// Write one frame.
pub fn write_frame<W, T>(writer: &mut W, msg: &T) -> Result<(), CodecError>
where
    W: Write,
    T: Serialize,
{
    let payload = serde_json::to_vec(msg)?;
    let len = u32::try_from(payload.len()).map_err(|_| CodecError::FrameTooLarge(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(len));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&payload);
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Read one frame. Returns [`CodecError::Closed`] on clean EOF at a frame
/// boundary.
pub fn read_frame<R, T>(reader: &mut R) -> Result<T, CodecError>
where
    R: Read,
    T: DeserializeOwned,
{
    let mut len_buf = [0u8; 4];
    match reader.read_exact(&mut len_buf) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(CodecError::Closed),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(CodecError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(serde_json::from_slice(&payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Request, Response};
    use poc_core::entity::EntityId;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping).unwrap();
        let got: Request = read_frame(&mut Cursor::new(wire)).unwrap();
        assert_eq!(got, Request::Ping);
    }

    #[test]
    fn multiple_frames_in_order() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Response::Pong).unwrap();
        write_frame(&mut wire, &Response::Welcome { entity: EntityId(3) }).unwrap();
        let mut cursor = Cursor::new(wire);
        let r1: Response = read_frame(&mut cursor).unwrap();
        let r2: Response = read_frame(&mut cursor).unwrap();
        assert_eq!(r1, Response::Pong);
        assert_eq!(r2, Response::Welcome { entity: EntityId(3) });
    }

    #[test]
    fn eof_reports_closed() {
        let err = read_frame::<_, Request>(&mut Cursor::new(Vec::new())).unwrap_err();
        assert!(matches!(err, CodecError::Closed), "{err:?}");
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping).unwrap();
        wire.truncate(wire.len() - 1);
        let err = read_frame::<_, Request>(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)), "{err:?}");
    }

    #[test]
    fn oversized_frame_rejected() {
        // Hand-craft a bogus length prefix.
        let wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let err = read_frame::<_, Request>(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::FrameTooLarge(_)), "{err:?}");
    }

    #[test]
    fn io_timeout_is_typed() {
        struct StallingReader;
        impl Read for StallingReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "deadline"))
            }
        }
        let err = read_frame::<_, Request>(&mut StallingReader).unwrap_err();
        assert!(matches!(err, CodecError::TimedOut), "{err:?}");
        assert!(err.is_transport());
    }

    #[test]
    fn garbage_json_rejected() {
        let mut wire = 5u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"hello");
        let err = read_frame::<_, Request>(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::Json(_)), "{err:?}");
    }
}
