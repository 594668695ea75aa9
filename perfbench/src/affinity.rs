//! Thread placement. With two or more cores the generator takes the last
//! core for itself and everything the server spawns stays off it, so the
//! measurer never competes with what it measures.

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The generator's own core, when there is one to spare (at most 64 cores
/// are addressed).
pub fn generator_core() -> Option<usize> {
    let n = cores().min(64);
    (n >= 2).then(|| n - 1)
}

/// Pin the calling thread to `cores`; false when the kernel refused.
pub fn pin(cores: &[usize]) -> bool {
    let mask: u64 = cores
        .iter()
        .filter(|&&c| c < 64)
        .fold(0, |m, &c| m | (1u64 << c));
    // SAFETY: pid 0 names the calling thread, `mask` is a live u64 for the
    // whole call, and the size passed is exactly its size in bytes.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Run `f` with the calling thread kept off the generator's core; threads
/// `f` spawns inherit that placement.
pub fn off_generator_core<T>(f: impl FnOnce() -> T) -> T {
    let Some(reserved) = generator_core() else {
        return f();
    };
    let n = cores().min(64);
    let others: Vec<usize> = (0..n).filter(|&c| c != reserved).collect();
    pin(&others);
    let out = f();
    pin(&(0..n).collect::<Vec<_>>());
    out
}
