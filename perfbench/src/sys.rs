//! Host facts read from `/proc` and the checkout, for run metadata and
//! resource metrics. Everything degrades to "unknown" rather than failing.

use std::path::Path;

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// CPU time this process has used, all threads (exited ones included), in
/// nanoseconds. Linux charges no time to a thread while the hypervisor
/// has its virtual CPU, so this clock, unlike the wall clock, does not
/// jump when the host takes a CPU away.
pub fn process_cpu_ns() -> Option<u64> {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    (rc == 0).then(|| now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64)
}

/// CPU time the hypervisor has taken from this machine, summed over its
/// CPUs, in nanoseconds (`steal` in `/proc/stat`, counted in 1/100 s).
pub fn steal_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks * 10_000_000)
}

/// Keeps every CPU busy for `busy`. On a virtual machine a CPU left idle
/// is slow to get its host core back — the first second of two-thread
/// work after an idle spell can run at half speed — so timed phases start
/// right after this.
pub fn warm_cpus(busy: std::time::Duration) {
    let until = std::time::Instant::now() + busy;
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let mut x = 0u64;
                while std::time::Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                    }
                }
            });
        }
    });
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout was made from, read from `.git` without
/// running git; "unknown" outside a git working tree.
pub fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&Path::new(".git").join(reference))
            .map(|r| r.trim().to_string())
            .or_else(|| {
                read(Path::new(".git/packed-refs")).and_then(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
                })
            })
            .unwrap_or_else(|| "unknown".into()),
        None => head.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_available_and_sane() {
        let rss = peak_rss_mib().expect("VmHWM");
        assert!(rss > 0.5 && rss < 64.0 * 1024.0, "{rss}");
        let before = process_cpu_ns().expect("cpu time");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns().expect("cpu time") >= before);
        assert!(steal_ns().is_some());
        assert!(nproc() >= 1);
    }
}
