//! Peak resident-memory growth of this process over a measured run.
//!
//! Before the run, free heap pages go back to the kernel (`malloc_trim`, so
//! memory a warm-up freed but kept does not hide the run's own growth), the
//! kernel's peak counter `VmHWM` is reset by writing `5` to
//! `/proc/self/clear_refs`, and `VmRSS` is read. After it, `VmHWM` minus
//! that `VmRSS` is the most memory the run held beyond what was live before.

use std::io;

/// The value in KiB of a `Key:   1234 kB` line of `/proc/<pid>/status`.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

fn read_status_kib(key: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status_kib(&status, key).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("/proc/self/status has no {key} line"),
        )
    })
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim takes a plain byte count, has no
    // preconditions, and locks each arena itself, so it is safe to call
    // while other threads allocate.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// A started peak-RSS measurement.
#[derive(Debug, Clone, Copy)]
pub struct RssProbe {
    before_kib: u64,
}

impl RssProbe {
    /// Reset the peak counter and note the current resident size.
    pub fn start() -> io::Result<RssProbe> {
        release_free_heap();
        std::fs::write("/proc/self/clear_refs", "5")?;
        Ok(RssProbe {
            before_kib: read_status_kib("VmRSS")?,
        })
    }

    /// Peak resident size since [`RssProbe::start`] minus the size then, in
    /// MiB.
    pub fn growth_mib(&self) -> io::Result<f64> {
        let peak = read_status_kib("VmHWM")?;
        Ok(peak.saturating_sub(self.before_kib) as f64 / 1024.0)
    }
}
