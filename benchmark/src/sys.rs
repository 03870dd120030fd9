//! What the operating system knows about this process: CPU time consumed,
//! peak resident set, thread count. Linux only (`/proc` and
//! `CLOCK_PROCESS_CPUTIME_ID`).

use std::ffi::{c_int, c_long};

/// `struct timespec` on 64-bit Linux (`time_t` and `long` are both 64-bit).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// User + system CPU time of the whole process (all threads) so far, in
/// microseconds, at the scheduler's nanosecond accounting — `/proc/self/stat`
/// only ticks every 10 ms, too coarse for a per-pass reading.
pub fn process_cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Reads one `Key:   value kB`-style field of `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Threads in the process right now.
pub fn thread_count() -> u64 {
    status_field("Threads").expect("Threads in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_us();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_us() > before);
    }

    #[test]
    fn proc_status_is_readable() {
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_count() >= 1);
    }
}
