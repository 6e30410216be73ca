//! Per-thread CPU time, dependency-free.
//!
//! ALERT measures its own decision overhead and reserves the worst case
//! out of every deadline (paper §3.2 step 2, §4). Measuring that with a
//! *wall* clock conflates the controller's compute with scheduler
//! preemption and lock waits: on an oversubscribed machine the measured
//! "overhead" inflates by the co-runner count (the 1-core runtime bench
//! read 33 µs at 1 worker and 222 µs at 8), and `OverheadPolicy::Measured`
//! then feeds that noise straight back into deadlines. The honest meter
//! for "time the controller itself burned" is the thread CPU clock.
//!
//! Rust's `std` does not expose `CLOCK_THREAD_CPUTIME_ID` and this build
//! environment has no `libc`, so on Linux we issue the `clock_gettime`
//! syscall directly (x86-64 and aarch64); elsewhere the caller falls back
//! to the wall clock. The syscall has no vDSO fast path for the thread
//! clock, costing ~100–200 ns — irrelevant against multi-microsecond
//! decisions, and *stable*, unlike the noise it removes.

use std::time::Duration;

/// `CLOCK_THREAD_CPUTIME_ID` from `linux/time.h`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
const CLOCK_THREAD_CPUTIME_ID: usize = 3;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// CPU time consumed by the calling thread, or `None` where the thread
/// clock is unavailable (non-Linux targets, unsupported architectures).
///
/// The value is an opaque monotonic origin — only differences between two
/// calls on the *same* thread are meaningful.
///
/// # Examples
///
/// ```
/// use alert_stats::cputime::thread_cpu_time;
///
/// if let (Some(a), Some(b)) = (thread_cpu_time(), thread_cpu_time()) {
///     assert!(b >= a, "thread CPU time must be monotone");
/// }
/// ```
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn thread_cpu_time() -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts)` only
    // writes a `struct timespec` through the pointer we hand it, `ts`
    // lives across the call, and the syscall clobbers exactly the
    // registers declared below (rcx/r11 on x86-64; nothing extra on
    // aarch64 beyond the return register).
    let ret: isize = unsafe {
        #[cfg(target_arch = "x86_64")]
        {
            let mut ret: isize;
            std::arch::asm!(
                "syscall",
                inlateout("rax") 228isize => ret, // __NR_clock_gettime
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") &mut ts as *mut Timespec,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            ret
        }
        #[cfg(target_arch = "aarch64")]
        {
            let mut ret: isize;
            std::arch::asm!(
                "svc 0",
                in("x8") 113usize, // __NR_clock_gettime
                inlateout("x0") CLOCK_THREAD_CPUTIME_ID => ret,
                in("x1") &mut ts as *mut Timespec,
                options(nostack),
            );
            ret
        }
    };
    if ret != 0 || ts.tv_sec < 0 || !(0..1_000_000_000).contains(&ts.tv_nsec) {
        return None;
    }
    Some(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// Fallback for targets without a usable thread CPU clock.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn thread_cpu_time() -> Option<Duration> {
    None
}

/// A decision-cost stopwatch: thread-CPU clock when the platform has
/// one, wall clock otherwise.
///
/// This is the *only* sanctioned way for non-bench code to measure its
/// own cost. The wall-clock member exists purely as the fallback for
/// targets without `CLOCK_THREAD_CPUTIME_ID`; keeping it here (in the
/// metering module) rather than at the call site is what lets
/// controller state carry no ambient wall time — `alert-lint`'s
/// `no-wall-clock` rule enforces exactly that boundary.
#[derive(Debug)]
pub struct DecisionStopwatch {
    cpu_start: Option<Duration>,
    wall_start: std::time::Instant,
}

impl DecisionStopwatch {
    /// Starts the stopwatch on the calling thread.
    ///
    /// # Examples
    ///
    /// ```
    /// use alert_stats::cputime::DecisionStopwatch;
    ///
    /// let sw = DecisionStopwatch::start();
    /// let cost = sw.elapsed();
    /// assert!(cost >= std::time::Duration::ZERO);
    /// ```
    pub fn start() -> Self {
        DecisionStopwatch {
            cpu_start: thread_cpu_time(),
            wall_start: std::time::Instant::now(),
        }
    }

    /// Elapsed cost since [`DecisionStopwatch::start`]: CPU time where
    /// the thread clock exists, wall time elsewhere. Can be zero — a
    /// short decision may finish between two ticks of the CPU clock —
    /// so callers that treat zero as "nothing happened" must apply
    /// their own floor.
    pub fn elapsed(&self) -> Duration {
        match (self.cpu_start, thread_cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => self.wall_start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_on_one_thread() {
        let Some(a) = thread_cpu_time() else {
            return; // platform without the clock: nothing to check
        };
        // Burn a little CPU so the clock must advance.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let b = thread_cpu_time().expect("clock stays available");
        assert!(b >= a, "thread CPU time went backwards: {a:?} -> {b:?}");
        assert!(b > a, "2M multiplies must consume measurable CPU time");
    }

    #[test]
    fn excludes_sleep_time() {
        let Some(a) = thread_cpu_time() else {
            return;
        };
        std::thread::sleep(Duration::from_millis(30));
        let b = thread_cpu_time().expect("clock stays available");
        // Sleeping burns (nearly) no CPU: far less than the 30 ms the
        // wall clock would have charged.
        assert!(
            b - a < Duration::from_millis(15),
            "sleep charged {:?} of CPU time",
            b - a
        );
    }
}
