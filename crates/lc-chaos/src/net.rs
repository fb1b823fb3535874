//! Chaos-instrumented socket I/O: the live-traffic counterpart of [`crate::fs`].
//!
//! `lc-serve` routes every socket read and write through these wrappers so
//! a [`crate::FaultPlan::serve`] soak can perturb the request path the way
//! a hostile network would:
//!
//! * `EINTR` — absorbed by the same immediate-retry discipline as file
//!   I/O ([`crate::fs::retry_io`]);
//! * **short write** — only a prefix is accepted; the caller continues
//!   with the remainder;
//! * **torn crash** — reinterpreted for sockets as *connection reset*:
//!   for a write, a real prefix reaches the peer first (a torn response
//!   the client must detect by framing), then the call fails with
//!   `ErrorKind::ConnectionReset`. This is terminal for the connection,
//!   not retryable — the server must still account the request as a
//!   structured error, never lose it.
//!
//! The wrappers are generic over `Read`/`Write` so unit tests exercise
//! them on in-memory cursors with the identical fault schedule a live
//! `TcpStream` would see.

use std::io::{self, Read, Write};

use crate::fs::retry_io;
use crate::{fault_at, FaultKind, Site};

/// One `read` with chaos consulted first. A torn-crash draw surfaces as
/// `ConnectionReset` *before* consuming bytes (the peer vanished).
pub(crate) fn chaos_read(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    match fault_at(Site::NetRead) {
        Some(FaultKind::Eintr) => Err(io::Error::from(io::ErrorKind::Interrupted)),
        Some(FaultKind::TornCrash) => Err(io::Error::from(io::ErrorKind::ConnectionReset)),
        _ => r.read(buf),
    }
}

/// One `write` with chaos consulted first. Short writes accept a real
/// prefix; a torn crash puts a prefix on the wire and then resets.
pub(crate) fn chaos_write(w: &mut impl Write, buf: &[u8]) -> io::Result<usize> {
    match fault_at(Site::NetWrite) {
        Some(FaultKind::Eintr) => Err(io::Error::from(io::ErrorKind::Interrupted)),
        Some(FaultKind::ShortWrite) => {
            let n = (buf.len() / 2).max(1);
            w.write(&buf[..n])
        }
        Some(FaultKind::TornCrash) => {
            let n = (buf.len() / 2).max(1);
            w.write_all(&buf[..n])?;
            Err(io::Error::from(io::ErrorKind::ConnectionReset))
        }
        _ => w.write(buf),
    }
}

/// Fill `buf` completely, absorbing interrupts and short reads. EOF
/// before the buffer fills is `UnexpectedEof` (a peer that hung up
/// mid-frame); connection resets propagate as-is.
pub fn read_full(r: &mut impl Read, buf: &mut [u8], tag: u64) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match retry_io(tag, || chaos_read(r, &mut buf[filled..])) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write all of `buf`, absorbing interrupts and short writes. Resets and
/// other hard errors propagate; the caller decides what a torn response
/// means for its accounting.
pub fn write_all(w: &mut impl Write, mut buf: &[u8], tag: u64) -> io::Result<()> {
    while !buf.is_empty() {
        match retry_io(tag, || chaos_write(w, buf)) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => buf = &buf[n..],
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::serial;
    use crate::{install, report, FaultPlan};
    use std::io::Cursor;

    #[test]
    fn clean_world_passes_bytes_through() {
        let _serial = serial();
        let payload = b"frame: the quick brown fox".to_vec();
        let mut src = Cursor::new(payload.clone());
        let mut buf = vec![0u8; payload.len()];
        read_full(&mut src, &mut buf, 1).unwrap();
        assert_eq!(buf, payload);

        let mut dst = Cursor::new(Vec::new());
        write_all(&mut dst, &payload, 2).unwrap();
        assert_eq!(dst.into_inner(), payload);
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let _serial = serial();
        let mut src = Cursor::new(vec![1u8, 2, 3]);
        let mut buf = [0u8; 8];
        let e = read_full(&mut src, &mut buf, 3).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Under the serve plan, every transfer either completes with the
    /// exact bytes or fails with a reset — and on a torn write the
    /// on-wire bytes are a strict prefix of the intended frame.
    #[test]
    fn serve_plan_transfers_complete_or_reset() {
        let _serial = serial();
        let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        let (mut complete, mut reset) = (0, 0);
        for seed in 0..80u64 {
            let guard = install(FaultPlan::serve(seed));
            let mut dst = Cursor::new(Vec::new());
            let r = write_all(&mut dst, &payload, seed);
            let wire = dst.into_inner();
            match r {
                Ok(()) => {
                    complete += 1;
                    assert_eq!(wire, payload, "seed {seed}: complete must be exact");
                }
                Err(e) => {
                    reset += 1;
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "seed {seed}");
                    assert!(
                        payload.starts_with(&wire),
                        "seed {seed}: torn wire bytes must be a payload prefix"
                    );
                    assert!(wire.len() < payload.len(), "seed {seed}");
                }
            }
            let rep = report();
            drop(guard);
            assert!(rep.consults > 0, "seed {seed}: plan must be consulted");
        }
        assert!(complete > 0 && reset > 0, "{complete} ok / {reset} reset");
    }

    #[test]
    fn serve_plan_reads_absorb_transients_or_reset() {
        let _serial = serial();
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 241) as u8).collect();
        let (mut complete, mut reset) = (0, 0);
        for seed in 0..80u64 {
            let guard = install(FaultPlan::serve(seed));
            let mut src = Cursor::new(payload.clone());
            let mut buf = vec![0u8; payload.len()];
            match read_full(&mut src, &mut buf, seed) {
                Ok(()) => {
                    complete += 1;
                    assert_eq!(buf, payload, "seed {seed}");
                }
                Err(e) => {
                    reset += 1;
                    assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "seed {seed}");
                }
            }
            drop(guard);
        }
        assert!(complete > 0 && reset > 0, "{complete} ok / {reset} reset");
    }
}
