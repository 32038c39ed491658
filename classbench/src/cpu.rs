//! CPU time this process has run, and the share of the machine's CPU time
//! the hypervisor stole.
//!
//! On a virtual machine whose host is oversubscribed, wall time includes
//! time the hypervisor gave the CPU to someone else ("steal"); the
//! kernel's per-task CPU clock excludes it when the guest accounts steal
//! time, so CPU time per unit of work stays steady while wall time swings.

use std::time::Duration;

#[cfg(target_os = "linux")]
fn read_clock() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable timespec with the C layout of the
    // 64-bit Linux ABI, and clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    (rc == 0).then(|| Duration::new(now.tv_sec as u64, now.tv_nsec as u32))
}

#[cfg(not(target_os = "linux"))]
fn read_clock() -> Option<Duration> {
    None
}

/// CPU time used by every thread of this process so far.
pub fn process_cpu_time() -> Result<Duration, String> {
    read_clock().ok_or_else(|| "the process CPU clock is unavailable".to_string())
}

/// Cumulative `(steal, total)` CPU ticks of the machine, from the `cpu`
/// line of `/proc/stat`.
pub fn steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // Fields: user nice system idle iowait irq softirq steal guest ...;
    // guest time is already counted in user, so the total stops at steal.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Measures the stolen share of the machine's CPU time over an interval.
#[derive(Debug, Clone, Copy)]
pub struct StealProbe {
    start: Option<(u64, u64)>,
}

impl StealProbe {
    fn read() -> Option<(u64, u64)> {
        steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Note the counters now.
    pub fn start() -> StealProbe {
        StealProbe {
            start: StealProbe::read(),
        }
    }

    /// Stolen share of all CPU time since [`StealProbe::start`] (0 when the
    /// counters are unavailable).
    pub fn share(&self) -> f64 {
        match (self.start, StealProbe::read()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}
