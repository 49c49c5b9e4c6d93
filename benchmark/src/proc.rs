//! Process accounting from `/proc/self`, and CPU pinning.

use std::fs;

/// Size in bytes of the CPU mask handed to the kernel: 1024 CPUs.
const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Pins the calling thread, and so every thread it spawns from now on,
/// to the highest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` when the kernel refuses (the run then goes on unpinned).
///
/// For the workloads with one op in flight, whose path through the
/// driver and the site threads is serial: left to the scheduler of the
/// 2-vCPU host, which moves that path between CPUs at every hand-off,
/// ten identical runs of `scan_miss` ranged from 74 to 109 ops/s, against
/// 115 to 118 for three pinned runs in the same hour.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a live, writable buffer of exactly the length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_BYTES * 8)
        .rev()
        .find(|c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; MASK_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a live buffer of exactly the length passed, and
    // the kernel only reads it.
    (unsafe { sched_setaffinity(0, MASK_BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process's CPU and memory counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User CPU seconds of all threads, dead ones included.
    pub user_s: f64,
    /// System CPU seconds of all threads.
    pub sys_s: f64,
    /// Resident set, MB.
    pub rss_mb: f64,
    /// Peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// Voluntary plus involuntary context switches of the live threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc status has no {key}"))
}

pub fn sample() -> ProcSample {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let ctx_switches = fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|e| fs::read_to_string(e.ok()?.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches")
                + status_field(&s, "nonvoluntary_ctxt_switches")
        })
        .sum();
    ProcSample {
        user_s: ticks(14) / TICKS_PER_S,
        sys_s: ticks(15) / TICKS_PER_S,
        rss_mb: status_field(&status, "VmRSS") as f64 / 1024.0,
        peak_rss_mb: status_field(&status, "VmHWM") as f64 / 1024.0,
        ctx_switches,
    }
}
