//! Spawns a product binary and reaps it with `wait4`, which returns the
//! child's own resource usage (CPU time, peak RSS) with its exit status.

use std::io;
use std::process::Command;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 / 1e6
    }
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child, MB (10^6 bytes).
    pub peak_rss_mb: f64,
    /// Whether the child exited with code 0.
    pub ok: bool,
}

/// Runs `cmd` to completion and reports its resource usage.
pub fn run(cmd: &mut Command) -> io::Result<ChildUsage> {
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`Rusage` mirrors 64-bit Linux `struct
        // rusage`, enforced by the compile_error above); the pid is a
        // child of this process that nothing else reaps — `child` is
        // never waited on through std.
        let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if r >= 0 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // WIFEXITED && WEXITSTATUS == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ChildUsage {
        wall_s,
        cpu_s: usage.utime.secs() + usage.stime.secs(),
        peak_rss_mb: usage.maxrss_kib as f64 * 1024.0 / 1e6,
        ok,
    })
}

/// This process's own peak RSS, MB (`VmHWM`). A child's `ru_maxrss` can
/// never read lower than this: `exec` folds the spawning process's
/// high-water mark into the child's.
pub fn own_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
