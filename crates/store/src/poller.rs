//! Readiness notification for the event-loop server: a minimal safe
//! wrapper over poll(2), plus a self-pipe waker.
//!
//! std offers no readiness API, and the workspace is zero-dependency, so
//! this module carries the store crate's single `unsafe` block: one
//! `extern "C"` binding to poll(2) (already linked via libc on every unix
//! target the workspace supports). poll scales linearly with the fd count,
//! which is fine for the server's budget of a few thousand connections —
//! the event-loop structure is what matters, and an epoll backend could
//! slot in behind the same interface without touching callers.

use std::io;
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;

/// Readable-data event (POLLIN).
pub const POLLIN: i16 = 0x001;
/// Writable-space event (POLLOUT).
pub const POLLOUT: i16 = 0x004;
/// Error condition (POLLERR; only ever set in `revents`).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (POLLHUP; only ever set in `revents`).
pub const POLLHUP: i16 = 0x010;

/// One pollable descriptor — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events, filled by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// A descriptor watched for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether the kernel flagged this descriptor readable (or in an
    /// error/hangup state, which reads also surface).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }

    /// Whether the kernel flagged this descriptor writable (or in an
    /// error/hangup state, which writes also surface).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }
}

#[allow(unsafe_code)]
mod sys {
    use super::PollFd;

    extern "C" {
        // int poll(struct pollfd *fds, nfds_t nfds, int timeout);
        fn poll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }

    /// Direct poll(2). The slice pointer/length pair is valid for the
    /// duration of the call, which is all the kernel requires.
    pub(super) fn poll_raw(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-compatible structs; the kernel reads
        // `events` and writes `revents` within the slice bounds.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, timeout_ms) }
    }
}

/// Blocks until at least one descriptor is ready or `timeout_ms` elapses
/// (`-1` blocks indefinitely, `0` polls). Returns how many descriptors
/// have non-zero `revents`; a signal interruption counts as zero ready.
///
/// # Errors
///
/// Propagates poll(2) failures other than `EINTR`.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    match sys::poll_raw(fds, timeout_ms) {
        n if n >= 0 => Ok(n as usize),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        }
    }
}

/// A self-pipe waker: other threads write a byte to pop the owner's
/// event-loop thread out of [`poll`].
///
/// Built on a `UnixStream` pair so no extra FFI is needed; both ends are
/// non-blocking, and a full pipe simply coalesces wakeups.
#[derive(Debug)]
pub struct WakePipe {
    tx: UnixStream,
    rx: UnixStream,
}

impl WakePipe {
    /// A connected, non-blocking waker pair.
    ///
    /// # Errors
    ///
    /// Propagates socketpair failures.
    pub fn new() -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(WakePipe { tx, rx })
    }

    /// The fd the event loop registers for [`POLLIN`].
    pub fn poll_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Wakes the polling thread. Safe from any thread; a full pipe means a
    /// wakeup is already pending, so errors are ignored.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Drains pending wakeup bytes so the next [`poll`] blocks again.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn poll_times_out_on_idle_fd() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.poll_fd(), POLLIN)];
        let start = Instant::now();
        let ready = poll(&mut fds, 30).unwrap();
        assert_eq!(ready, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wake_makes_fd_readable_and_drain_resets_it() {
        let pipe = WakePipe::new().unwrap();
        pipe.wake();
        let mut fds = [PollFd::new(pipe.poll_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].readable());
        pipe.drain();
        assert_eq!(poll(&mut fds, 0).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_unblocks_poll() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = std::sync::Arc::clone(&pipe);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut fds = [PollFd::new(pipe.poll_fd(), POLLIN)];
        let ready = poll(&mut fds, 5000).unwrap();
        assert_eq!(ready, 1);
        handle.join().unwrap();
    }

    #[test]
    fn poll_reports_writable_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        use std::os::fd::AsRawFd;
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(poll(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].writable());
    }
}
