//! Deterministic fault injection for control-plane tests.
//!
//! [`FaultyTransport`] wraps any `Read + Write` transport and corrupts
//! *outgoing frames* according to a script or a seeded random profile
//! (the in-tree `rand` shim, so every run of a given seed injects the
//! same fault sequence). It understands the codec's framing — each
//! `write` call from [`crate::codec::write_frame`] carries exactly one
//! `[4-byte length][payload]` frame — so faults can surgically target
//! the length prefix, the payload, or the frame boundary:
//!
//! * [`Fault::Passthrough`] — forward unchanged;
//! * [`Fault::Delay`] — sleep, then forward (slow peer);
//! * [`Fault::TruncateMidFrame`] — forward the prefix and half the
//!   payload, then report success (slowloris half-frame: the server
//!   waits on bytes that never come);
//! * [`Fault::GarbagePayload`] — valid prefix, scrambled payload (JSON
//!   parse failure server-side);
//! * [`Fault::OversizedPrefix`] — a length prefix over the codec's
//!   1 MiB frame cap (protocol violation, connection-fatal);
//! * [`Fault::Drop`] — swallow the frame and fail with `BrokenPipe`
//!   (connection torn down mid-request).
//!
//! This module ships in the library (integration tests cannot see
//! `#[cfg(test)]` items) but is a **test harness**: production code must
//! not construct a `FaultyTransport`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::time::Duration;

/// One injected fault, applied to the next outgoing frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    Passthrough,
    Delay(Duration),
    TruncateMidFrame,
    GarbagePayload,
    OversizedPrefix,
    Drop,
}

impl Fault {
    /// Short label for logs and assertions.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Passthrough => "passthrough",
            Fault::Delay(_) => "delay",
            Fault::TruncateMidFrame => "truncate",
            Fault::GarbagePayload => "garbage",
            Fault::OversizedPrefix => "oversize",
            Fault::Drop => "drop",
        }
    }
}

/// Per-frame fault probabilities for random mode. Probabilities are
/// evaluated in field order; the remainder passes through.
#[derive(Clone, Debug)]
pub struct FaultProfile {
    pub p_delay: f64,
    pub p_truncate: f64,
    pub p_garbage: f64,
    pub p_oversize: f64,
    pub p_drop: f64,
    /// Upper bound for random delays.
    pub max_delay: Duration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self {
            p_delay: 0.1,
            p_truncate: 0.1,
            p_garbage: 0.1,
            p_oversize: 0.05,
            p_drop: 0.1,
            max_delay: Duration::from_millis(20),
        }
    }
}

enum Mode {
    /// Fixed fault sequence; exhausted script passes frames through.
    Script(VecDeque<Fault>),
    /// Seeded random faults drawn per frame.
    Random { rng: ChaCha8Rng, profile: FaultProfile },
}

/// A `Read + Write` wrapper that injects faults into outgoing frames.
/// Reads pass through untouched (the interesting failures are what the
/// *server* receives; the client side observes the fallout as transport
/// errors).
pub struct FaultyTransport<T: Read + Write> {
    inner: T,
    mode: Mode,
    injected: Vec<&'static str>,
}

impl<T: Read + Write> FaultyTransport<T> {
    /// Apply `script` to successive frames, then pass through.
    pub fn scripted(inner: T, script: impl IntoIterator<Item = Fault>) -> Self {
        Self { inner, mode: Mode::Script(script.into_iter().collect()), injected: Vec::new() }
    }

    /// Draw one fault per frame from `profile`, deterministically from
    /// `seed`.
    pub fn random(inner: T, seed: u64, profile: FaultProfile) -> Self {
        Self {
            inner,
            mode: Mode::Random { rng: ChaCha8Rng::seed_from_u64(seed), profile },
            injected: Vec::new(),
        }
    }

    /// Labels of the faults injected so far, in order (including
    /// `"passthrough"` frames).
    pub fn injected(&self) -> &[&'static str] {
        &self.injected
    }

    /// The wrapped transport (e.g. to keep a socket open after a
    /// truncated write, stalling the peer).
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn next_fault(&mut self) -> Fault {
        match &mut self.mode {
            Mode::Script(script) => script.pop_front().unwrap_or(Fault::Passthrough),
            Mode::Random { rng, profile } => {
                if rng.gen_bool(profile.p_delay) {
                    let ns = rng.gen_range(0..profile.max_delay.as_nanos().max(1) as u64);
                    Fault::Delay(Duration::from_nanos(ns))
                } else if rng.gen_bool(profile.p_truncate) {
                    Fault::TruncateMidFrame
                } else if rng.gen_bool(profile.p_garbage) {
                    Fault::GarbagePayload
                } else if rng.gen_bool(profile.p_oversize) {
                    Fault::OversizedPrefix
                } else if rng.gen_bool(profile.p_drop) {
                    Fault::Drop
                } else {
                    Fault::Passthrough
                }
            }
        }
    }

    /// Apply `fault` to one full frame in `buf`. Returns the byte count
    /// to report to the codec (always `buf.len()` on success so the
    /// codec believes the frame left intact).
    fn write_faulty(&mut self, buf: &[u8], fault: Fault) -> std::io::Result<usize> {
        match fault {
            Fault::Passthrough => {
                self.inner.write_all(buf)?;
            }
            Fault::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write_all(buf)?;
            }
            Fault::TruncateMidFrame => {
                // Prefix plus half the payload: the receiver's framing
                // now waits for bytes that never arrive.
                let keep = 4 + (buf.len() - 4) / 2;
                self.inner.write_all(&buf[..keep])?;
                self.inner.flush()?;
            }
            Fault::GarbagePayload => {
                let mut corrupted = buf.to_vec();
                for (i, b) in corrupted[4..].iter_mut().enumerate() {
                    // Printable garbage that is never valid JSON.
                    *b = b"#?!*"[i % 4];
                }
                self.inner.write_all(&corrupted)?;
            }
            Fault::OversizedPrefix => {
                let bogus = (crate::codec::MAX_FRAME + 1).to_be_bytes();
                self.inner.write_all(&bogus)?;
                self.inner.flush()?;
            }
            Fault::Drop => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected connection drop",
                ));
            }
        }
        Ok(buf.len())
    }
}

impl<T: Read + Write> Read for FaultyTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<T: Read + Write> Write for FaultyTransport<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Writes shorter than a length prefix are not frames (the codec
        // never produces them); pass through untouched.
        if buf.len() < 4 {
            return self.inner.write(buf);
        }
        let fault = self.next_fault();
        self.injected.push(fault.label());
        self.write_faulty(buf, fault)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame, CodecError, MAX_FRAME};
    use crate::proto::Request;
    use std::io::Cursor;

    /// In-memory sink standing in for a socket.
    #[derive(Default)]
    struct Sink(Vec<u8>);
    impl Read for Sink {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Ok(0)
        }
    }
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frame_of(req: &Request) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, req).unwrap();
        wire
    }

    #[test]
    fn passthrough_preserves_frames() {
        let mut t = FaultyTransport::scripted(Sink::default(), [Fault::Passthrough]);
        write_frame(&mut t, &Request::Ping).unwrap();
        assert_eq!(t.injected(), ["passthrough"]);
        assert_eq!(t.into_inner().0, frame_of(&Request::Ping));
    }

    #[test]
    fn truncate_emits_prefix_and_half_payload() {
        let mut t = FaultyTransport::scripted(Sink::default(), [Fault::TruncateMidFrame]);
        write_frame(&mut t, &Request::Ping).unwrap();
        let full = frame_of(&Request::Ping);
        let wire = t.into_inner().0;
        assert_eq!(wire.len(), 4 + (full.len() - 4) / 2);
        assert_eq!(wire[..], full[..wire.len()], "truncated wire is a prefix of the real frame");
        // The receiver sees an unfinished frame: read_exact hits EOF
        // inside the payload → Io error, not a clean Closed.
        let err = read_frame::<_, Request>(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)), "{err:?}");
    }

    #[test]
    fn garbage_keeps_length_but_breaks_json() {
        let mut t = FaultyTransport::scripted(Sink::default(), [Fault::GarbagePayload]);
        write_frame(&mut t, &Request::Ping).unwrap();
        let full = frame_of(&Request::Ping);
        let wire = t.into_inner().0;
        assert_eq!(wire.len(), full.len());
        assert_eq!(wire[..4], full[..4], "length prefix intact");
        let err = read_frame::<_, Request>(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::Json(_)), "{err:?}");
    }

    #[test]
    fn oversized_prefix_trips_the_cap() {
        let mut t = FaultyTransport::scripted(Sink::default(), [Fault::OversizedPrefix]);
        write_frame(&mut t, &Request::Ping).unwrap();
        let wire = t.into_inner().0;
        assert_eq!(wire, (MAX_FRAME + 1).to_be_bytes().to_vec());
        let err = read_frame::<_, Request>(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(err, CodecError::FrameTooLarge(_)), "{err:?}");
    }

    #[test]
    fn drop_fails_the_write_and_swallows_the_frame() {
        let mut t = FaultyTransport::scripted(Sink::default(), [Fault::Drop]);
        let err = write_frame(&mut t, &Request::Ping).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)), "{err:?}");
        assert!(t.into_inner().0.is_empty(), "no bytes escape a dropped frame");
    }

    #[test]
    fn exhausted_script_passes_through() {
        let mut t = FaultyTransport::scripted(Sink::default(), [Fault::GarbagePayload]);
        write_frame(&mut t, &Request::Ping).unwrap();
        write_frame(&mut t, &Request::Ping).unwrap();
        assert_eq!(t.injected(), ["garbage", "passthrough"]);
    }

    #[test]
    fn random_mode_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut t = FaultyTransport::random(Sink::default(), seed, FaultProfile::default());
            for _ in 0..32 {
                let _ = write_frame(&mut t, &Request::Ping);
            }
            t.injected().to_vec()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seeds diverge");
        // The default profile actually exercises multiple fault kinds.
        let labels = run(42);
        let distinct: std::collections::BTreeSet<_> = labels.iter().collect();
        assert!(distinct.len() >= 3, "profile too tame: {distinct:?}");
    }
}
