//! Core placement for shard workers.
//!
//! Each shard's worker thread is its device's host thread: it applies every
//! flush and materializes the barrier snapshot, and two of them never share
//! state. Left to the OS, workers that were spawned together (or woken by
//! the same router) can stay stacked on one core for a second or more
//! while another core idles; a 2-shard cluster on a 2-vCPU VM then ran its
//! closed-loop ingest at about half speed (70k against 130k updates/s per
//! round) until the scheduler separated them. When the process may use at
//! least as many cores as there are shards, shard `i` is pinned to the
//! `i`-th of them, so every shard has a core to itself. With fewer cores
//! pinning could only stack shards, and the OS places them.

/// Pin the calling thread, shard `k` of `n`, to the `k`-th core of the set
/// it may run on. Returns `false` and leaves the thread unpinned when that
/// set has fewer than `n` cores (or one), or cannot be read or changed.
#[cfg(target_os = "linux")]
pub(crate) fn pin_shard_thread(k: usize, n: usize) -> bool {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let size = std::mem::size_of_val(&allowed);
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cores: Vec<usize> = (0..WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if k >= n || cores.len() < n.max(2) {
        return false;
    }
    let core = cores[k];
    let mut one = [0u64; WORDS];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
}

/// Elsewhere the OS places the thread.
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_shard_thread(_k: usize, _n: usize) -> bool {
    false
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    /// The calling thread's current core, from `/proc/thread-self/stat`
    /// (field 39).
    fn current_core() -> usize {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let fields: Vec<&str> = stat
            .rsplit(')')
            .next()
            .unwrap()
            .split_whitespace()
            .collect();
        fields[36].parse().unwrap()
    }

    /// Pin shard `k` of `n` on a fresh thread; its core when pinned.
    fn place(k: usize, n: usize) -> Option<usize> {
        std::thread::spawn(move || pin_shard_thread(k, n).then(current_core))
            .join()
            .unwrap()
    }

    #[test]
    fn shards_get_distinct_cores_when_there_are_enough() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        match [place(0, 2), place(1, 2)] {
            [Some(a), Some(b)] => assert_ne!(a, b, "shards 0 and 1 share core {a}"),
            // A single allowed core: nothing to pin.
            [None, None] => assert!(cores < 2, "{cores} cores but no pin"),
            placed => panic!("one pin took and the other did not: {placed:?}"),
        }
        // More shards than cores: every worker stays with the OS.
        assert_eq!(place(0, cores + 1), None);
    }
}
