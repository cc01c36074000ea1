//! Where the calling thread runs: read its current CPU, pin it to one.
//!
//! Linux only: `sched_getcpu` and `sched_setaffinity` are two symbols of
//! the libc that `std` already links, declared here by hand — no crate, no
//! build script. On every other target both functions are no-ops (`None` /
//! `false`). The only `unsafe` in the workspace; DESIGN.md §12 ("Hand-off
//! placement") has what the event executor uses it for.

/// CPUs the fixed-size affinity mask can name (glibc's `CPU_SETSIZE`).
const MASK_BITS: usize = 1024;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    pub const WORD_BITS: usize = c_ulong::BITS as usize;
    extern "C" {
        pub fn sched_getcpu() -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
    }
}

/// The CPU the calling thread is executing on right now (advisory unless
/// it is pinned), or `None` where that cannot be asked: a non-Linux
/// target, a failing call, an index ≥ 1024.
pub fn current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    // SAFETY: takes no arguments and touches no memory of ours; the return
    // code (-1 on failure) is checked by `try_from`.
    let cpu = unsafe { sys::sched_getcpu() };
    #[cfg(not(target_os = "linux"))]
    let cpu = -1;
    usize::try_from(cpu).ok().filter(|&c| c < MASK_BITS)
}

/// Restrict the calling thread — and only it — to `cpu`. `false`, with the
/// thread's placement unchanged, when the kernel refuses (CPU offline or
/// outside the process's cpuset), when `cpu` does not fit the mask, or on
/// a non-Linux target.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_BITS {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0; MASK_BITS / sys::WORD_BITS];
        mask[cpu / sys::WORD_BITS] = 1 << (cpu % sys::WORD_BITS);
        // SAFETY: `mask` is a fixed-size 1024-bit array on this stack frame
        // and the length passed is exactly its size; the pointer is only
        // read during the call and does not escape it. `pid 0` is the
        // calling thread, so no other thread's placement changes. The
        // return code is checked: non-zero leaves the affinity as it was.
        unsafe { sys::sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_cpu_is_refused_without_a_call() {
        assert!(!pin_current_thread(MASK_BITS));
        assert!(!pin_current_thread(usize::MAX));
    }

    // On a thread of its own: a pin would outlive the test on a harness
    // thread. That the spawner keeps its mask is `comm`'s launcher test.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_thread_pinned_to_its_current_cpu_stays_there() {
        std::thread::scope(|s| {
            s.spawn(|| {
                let cpu = current_cpu().expect("linux reports a cpu");
                assert!(pin_current_thread(cpu), "own cpu must be allowed");
                for _ in 0..64 {
                    std::thread::yield_now();
                    assert_eq!(current_cpu(), Some(cpu), "pinned thread migrated");
                }
            });
        });
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_cpu_that_is_not_online_is_refused() {
        // No host this runs on has CPU 1023; a refused pin changes nothing.
        assert!(!pin_current_thread(MASK_BITS - 1));
    }

    #[cfg(not(target_os = "linux"))]
    #[test]
    fn other_targets_are_no_ops() {
        assert_eq!(current_cpu(), None);
        assert!(!pin_current_thread(0));
    }
}
