//! CPU placement for the single-connection workloads.
//!
//! On a small virtual machine one vCPU can run markedly slower than the
//! other for minutes at a time, because its host core is shared. With
//! client and server on different vCPUs every round trip then pays for
//! the slower one, and where the scheduler puts the two threads decides
//! the result. A closed loop over one connection never runs client and
//! server at the same time, so those workloads put both on the CPU that
//! ran a fixed loop fastest just before the run.

use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's allowed CPUs (the first 64), as a bit mask.
fn allowed() -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: the kernel writes at most `cpusetsize` bytes to `mask`,
    // which points at a live `u64` of exactly that size; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    (rc == 0 && mask != 0).then_some(mask)
}

/// Restricts the calling thread, and threads it spawns later, to the
/// CPUs in `mask`. Returns whether the kernel accepted it.
pub fn pin(mask: u64) -> bool {
    // SAFETY: the kernel reads `cpusetsize` bytes from `mask`, which
    // points at a live `u64` of exactly that size; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// A fixed integer loop of a few milliseconds.
fn spin() -> Duration {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..2_000_000 {
        x = std::hint::black_box(x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    start.elapsed()
}

/// The allowed CPU that ran [`spin`] fastest, best of three rounds;
/// `None` with fewer than two CPUs or when affinity cannot be set. The
/// calling thread's affinity is restored before returning.
pub fn fastest_cpu() -> Option<usize> {
    let all = allowed()?;
    let cpus: Vec<usize> = (0..64).filter(|c| all & (1 << c) != 0).collect();
    if cpus.len() < 2 {
        return None;
    }
    let mut best = vec![Duration::MAX; cpus.len()];
    for _ in 0..3 {
        for (i, &cpu) in cpus.iter().enumerate() {
            if !pin(1 << cpu) {
                pin(all);
                return None;
            }
            best[i] = best[i].min(spin());
        }
    }
    pin(all);
    let fastest = (0..cpus.len()).min_by_key(|&i| best[i])?;
    Some(cpus[fastest])
}
