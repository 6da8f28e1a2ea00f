//! The operating-system calls the standard library does not expose: the
//! peak resident set of this process and of its reaped children, a poll
//! with a nanosecond timeout for the open-loop generator, and a
//! parent-death signal so no process of a run outlives it. Linux only.

use std::ffi::OsStr;
use std::os::fd::RawFd;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct RUsage {
    words: [i64; 18],
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: std::ffi::c_ulong = 9;
const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
/// Index of `ru_maxrss` (KiB): after `ru_utime` and `ru_stime`.
const MAXRSS_WORD: usize = 4;

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

/// Have the kernel kill this process when its parent dies, so a killed
/// run leaves nothing behind.
pub fn die_with_parent() {
    // SAFETY: prctl(PR_SET_PDEATHSIG) only sets a flag on this process.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
    }
}

/// A command whose process is killed when the spawning process dies.
pub fn command(program: impl AsRef<OsStr>) -> Command {
    let mut cmd = Command::new(program);
    // SAFETY: the hook runs between fork and exec and only calls prctl,
    // which is async-signal-safe.
    unsafe {
        cmd.pre_exec(|| {
            die_with_parent();
            Ok(())
        });
    }
    cmd
}

/// Largest peak resident set (MiB) of any child process reaped so far,
/// grandchildren included (the kernel folds a reaped child's own maximum
/// over its reaped descendants into its parent's).
pub fn children_peak_rss_mb() -> f64 {
    peak_rss_mb(RUSAGE_CHILDREN)
}

/// Peak resident set (MiB) of this process so far.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb(RUSAGE_SELF)
}

fn peak_rss_mb(who: i32) -> f64 {
    let mut usage = RUsage { words: [0; 18] };
    // SAFETY: `usage` is a valid, writable `struct rusage` of the size the
    // kernel fills for RUSAGE_SELF and RUSAGE_CHILDREN.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.words[MAXRSS_WORD] as f64 / 1024.0
}

/// Wait until `fd` is ready for `events` or `timeout` passes. Returns the
/// ready events (0 on timeout or interruption).
pub fn poll_fd(fd: RawFd, events: i16, timeout: Duration) -> i16 {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc > 0 {
        pfd.revents
    } else {
        0
    }
}
