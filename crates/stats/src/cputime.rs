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
//! clock: one read costs 300–330 ns on a 2-vCPU KVM guest, against a
//! whole session step (the repository benchmark's `steady` submit) of
//! ~1.3 µs. It is *stable*, unlike the noise it removes, but two reads
//! on every decision would be a third of the step they meter.
//!
//! So a cost that is only *reported* is sampled: [`SampledStopwatch`]
//! meters one call in [`SAMPLE_STRIDE`] and charges every call in
//! between the most recently metered cost ("sample and hold"). A cost
//! that feeds back into decisions (`OverheadPolicy::Measured` in
//! `alert-core`) is metered on every call instead.

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
    origin: Origin,
}

/// Where a [`DecisionStopwatch`] started: one clock, never both.
#[derive(Debug)]
enum Origin {
    Cpu(Duration),
    Wall(std::time::Instant),
}

impl DecisionStopwatch {
    /// Starts the stopwatch on the calling thread. The wall clock is
    /// read only where the thread clock is unavailable.
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
        let origin = match thread_cpu_time() {
            Some(t) => Origin::Cpu(t),
            None => Origin::Wall(std::time::Instant::now()),
        };
        DecisionStopwatch { origin }
    }

    /// Elapsed cost since [`DecisionStopwatch::start`]: CPU time where
    /// the thread clock exists, wall time elsewhere. Can be zero — a
    /// short decision may finish between two ticks of the CPU clock, and
    /// a thread clock that fails after a successful start reads zero —
    /// so callers that treat zero as "nothing happened" must apply
    /// their own floor.
    pub fn elapsed(&self) -> Duration {
        match self.origin {
            Origin::Cpu(a) => thread_cpu_time().map_or(Duration::ZERO, |b| b.saturating_sub(a)),
            Origin::Wall(a) => a.elapsed(),
        }
    }
}

/// Calls per metered call of a [`SampledStopwatch`]: the first call and
/// then every 32nd. Fixed, not configurable — it trades two clock reads
/// per call for two per 32 calls, and the charged cost stays a
/// measurement (see DESIGN.md §5).
pub const SAMPLE_STRIDE: u32 = 32;

/// A sample-and-hold cost meter for costs that are only reported.
///
/// It meters the first call and then one call in [`SAMPLE_STRIDE`] with
/// a [`DecisionStopwatch`]; every other call is charged the most recently
/// metered cost. [`SampledStopwatch::meter_next`] forces the next call
/// to be metered — after a reset, or on every call where the cost feeds
/// back into decisions.
///
/// A call is bracketed by [`SampledStopwatch::start`] and
/// [`SampledStopwatch::charge`]; a call abandoned between the two (an
/// early `?` return) leaves the meter as it was.
///
/// # Examples
///
/// ```
/// use alert_stats::cputime::{SampledStopwatch, SAMPLE_STRIDE};
///
/// let mut meter = SampledStopwatch::new();
/// let mut metered = Vec::new();
/// let mut held = None;
/// for call in 0..2 * SAMPLE_STRIDE + 1 {
///     let started = meter.start();
///     if started.is_some() {
///         metered.push(call);
///     }
///     let cost = meter.charge(started);
///     if call % SAMPLE_STRIDE == 0 {
///         held = Some(cost);
///     } else {
///         // Unmetered calls are charged the held cost, bit for bit.
///         assert_eq!(Some(cost), held);
///     }
/// }
/// // The first call is metered, then one in 32.
/// assert_eq!(metered, [0, SAMPLE_STRIDE, 2 * SAMPLE_STRIDE]);
/// // A forced call is metered even mid-stride.
/// meter.meter_next();
/// assert!(meter.start().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampledStopwatch {
    /// Unmetered calls left before the next metered one.
    skip: u32,
    /// Cost of the most recently metered call.
    held: Duration,
}

impl SampledStopwatch {
    /// A meter whose first call is metered.
    pub fn new() -> Self {
        SampledStopwatch::default()
    }

    /// Begins a call: a running stopwatch when this call is metered,
    /// `None` when it will be charged the held cost.
    pub fn start(&self) -> Option<DecisionStopwatch> {
        (self.skip == 0).then(DecisionStopwatch::start)
    }

    /// Ends the call begun by [`SampledStopwatch::start`] and returns the
    /// cost charged to it: its own metered cost, or the held one.
    pub fn charge(&mut self, started: Option<DecisionStopwatch>) -> Duration {
        match started {
            Some(stopwatch) => {
                self.held = stopwatch.elapsed();
                self.skip = SAMPLE_STRIDE - 1;
            }
            None => self.skip = self.skip.saturating_sub(1),
        }
        self.held
    }

    /// Forces the next call to be metered.
    pub fn meter_next(&mut self) {
        self.skip = 0;
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

    /// Makes `n` calls on `meter` and returns the ones it metered; a
    /// call for which `abandon` holds is dropped before its charge (an
    /// early error return).
    fn metered_calls(
        meter: &mut SampledStopwatch,
        n: u32,
        abandon: impl Fn(u32) -> bool,
    ) -> Vec<u32> {
        let mut metered = Vec::new();
        for call in 0..n {
            let started = meter.start();
            if abandon(call) {
                continue;
            }
            if started.is_some() {
                metered.push(call);
            }
            meter.charge(started);
        }
        metered
    }

    #[test]
    fn sampled_stopwatch_restarts_its_stride_at_a_forced_call() {
        let mut meter = SampledStopwatch::new();
        assert_eq!(metered_calls(&mut meter, 10, |_| false), [0]);
        meter.meter_next();
        // Forced at call 0 of this run, then a full stride from there.
        assert_eq!(
            metered_calls(&mut meter, 2 * SAMPLE_STRIDE, |_| false),
            [0, SAMPLE_STRIDE]
        );
    }

    #[test]
    fn abandoned_calls_leave_the_sampled_stopwatch_untouched() {
        let mut meter = SampledStopwatch::new();
        // Every odd call is abandoned: only the charged calls count
        // toward the stride, so the second metered call comes 32
        // charged calls after the first.
        let metered = metered_calls(&mut meter, 2 * SAMPLE_STRIDE + 2, |c| c % 2 == 1);
        assert_eq!(metered, [0, 2 * SAMPLE_STRIDE]);
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
