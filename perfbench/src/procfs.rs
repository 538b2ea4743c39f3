//! Process and thread accounting read from `/proc` (Linux only; every
//! reader returns 0 where the file is missing, so the benchmark still
//! runs elsewhere and reports the gap as a zero).

use std::fs;

/// On-CPU time of the calling thread in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:") as f64 / 1024.0
}

/// Voluntary plus involuntary context switches summed over the threads
/// alive right now (an exited thread's switches are gone with it).
pub fn ctx_switches_live() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            field(&status, "voluntary_ctxt_switches:")
                + field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// The CPUs the process may run on, as the kernel lists them ("1",
/// "0-1", …; "?" where it does not say).
pub fn cpus_allowed() -> String {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .map_or("?".to_string(), |list| list.trim().to_string())
}

/// (stolen, total) CPU ticks since boot, from `/proc/stat`: of the one
/// CPU the process is pinned to, or of the whole machine when it is
/// allowed on several. Steal is time the hypervisor ran someone else
/// while this VM wanted the CPU.
pub fn machine_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu" is the machine's line, "cpu1" that of CPU 1.
    let label = match cpus_allowed().parse::<u32>() {
        Ok(cpu) => format!("cpu{cpu}"),
        Err(_) => "cpu".to_string(),
    };
    let ticks: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix(label.as_str())?.strip_prefix(' '))
        .unwrap_or("")
        .split_whitespace()
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The first number on the line that starts with `key` (0 if absent).
fn field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
