//! The one system call the driver needs that `std` does not wrap: wait for
//! any of a node's sockets, or its next deadline. Neither `libc` nor `mio`
//! is a dependency, so it is declared here, the crate's only `unsafe` code.
//! Linux only. It is `ppoll`, `poll(2)` with a `timespec` timeout: `poll`
//! counts whole milliseconds, the core's deadlines microseconds.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// There is something to read (or an EOF).
pub(crate) const POLLIN: c_short = 0x001;
/// The socket takes writes again.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`. The kernel adds errors and hang-ups to `revents`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        let (fd, revents) = (fd.as_raw_fd(), 0);
        PollFd {
            fd,
            events,
            revents,
        }
    }

    /// Anything happened: readable, writable, an error or a hang-up.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, ts: *const Timespec, mask: *const c_void) -> c_int;
}

/// Waits until one of `fds` is ready or `timeout` has passed; `false` if
/// the wait failed (a signal cutting it short is no failure).
pub(crate) fn poll(fds: &mut [PollFd], timeout: Duration) -> bool {
    let tv_sec = i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX);
    let ts = Timespec {
        tv_sec,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, writable slice of `struct pollfd`s for the
    // whole call and its length is passed with it; `ts` is a valid
    // `timespec`; a null signal mask leaves the thread's mask as it is.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    rc >= 0 || std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
}
