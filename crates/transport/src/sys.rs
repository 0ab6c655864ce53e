//! The one system call std does not wrap: `poll(2)`.
//!
//! The TCP reader pool blocks in [`wait`] until one of its sockets (or
//! its wake pipe) is readable. This module holds the crate's only
//! `unsafe` — the foreign declaration and the single call — behind a
//! safe, slice-typed wrapper; everything else in the crate stays under
//! `deny(unsafe_code)`.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::time::Duration;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

/// Data other than high-priority data may be read without blocking.
const POLLIN: c_short = 0x1;

/// One `struct pollfd`: a descriptor, the events waited for, and the
/// events the kernel reported.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `source` to become readable. End-of-file, hang-up and
    /// error conditions are always reported too, so a read never waits
    /// on a dead socket.
    pub(crate) fn readable(source: &impl AsRawFd) -> Self {
        PollFd {
            fd: source.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this descriptor
    /// (readable data, EOF, hang-up or error — each calls for a read).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until at least one descriptor in `fds` is ready or `timeout`
/// passes (`None`: no timeout), then returns how many are ready. An
/// interrupted wait returns `Ok(0)`, like a timeout; callers loop.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        // Round up so a sub-millisecond timeout still waits.
        Some(t) => t
            .as_nanos()
            .div_ceil(1_000_000)
            .try_into()
            .unwrap_or(c_int::MAX),
    };
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    // SAFETY: `PollFd` is `#[repr(C)]` with the field layout of
    // `struct pollfd`, and the pointer/length pair comes from a live
    // exclusive slice, so the kernel reads and writes only memory this
    // call borrows. A stale descriptor number is not unsafe: poll
    // reports it as POLLNVAL.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn wait_reports_only_the_readable_descriptor() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(&a_rx), PollFd::readable(&b_rx)];
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(1))).unwrap(), 0);
        assert!(!fds[0].ready() && !fds[1].ready());

        a_tx.write_all(&[1]).unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
        assert!(!fds[1].ready());
    }

    #[test]
    fn hang_up_counts_as_ready() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        let mut fds = [PollFd::readable(&rx)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        assert!(fds[0].ready());
    }
}
