//! The two things the benchmark needs from the C library that `std` and
//! `/proc` do not give: CPU affinity and a process CPU clock finer than
//! the 10 ms tick of `/proc/self/stat`. The library's only `unsafe`.
#![allow(unsafe_code)]

/// Pins the process to the last CPU it is allowed on and returns which;
/// every thread started afterwards inherits the mask. `None` (and nothing
/// changed) where the kernel refuses or the platform is not Linux.
///
/// A workload here is three to seven threads handing messages to each
/// other. Given two shared cores, where the scheduler puts them and what a
/// wake-up across cores costs the hypervisor that hour decide the result:
/// the same `stream_spec` build read 54 k to 76 k msgs/s, and a loopback
/// round trip 105 us. On one CPU the threads take turns, a wake-up is a
/// local context switch, and the numbers price the code's own work (the
/// same build: 68 k msgs/s within 2 %, round trip 24 us). What that gives
/// up is any measure of speed-up from more cores, which two shared cores
/// cannot carry anyway. The last CPU, because the box's device interrupts
/// land on the first.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `size` bytes of writable, 8-byte aligned memory,
    // which is what the C library's `cpu_set_t` is; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is `size` readable bytes laid out like `allowed`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// See the Linux version.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// User + system CPU time of the whole process, exited threads included,
/// in nanoseconds (0 where the clock is missing).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    /// `struct timespec` of every 64-bit Linux ABI.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return 0;
    }
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// See the 64-bit Linux version.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    0
}
