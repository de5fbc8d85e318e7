//! The machine record: core count, last-level cache size and a
//! std-only memory read bandwidth reference.

use std::time::Instant;

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the largest data or unified cache CPUID reports
/// (deterministic cache parameters, leaf 4). Read from the processor
/// rather than from sysfs so the benchmark touches no file outside its
/// checkout. Falls back to 32 MiB where the leaf is unavailable.
pub fn llc_bytes() -> usize {
    const FALLBACK: usize = 32 << 20;
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // SAFETY: CPUID exists on every x86_64 processor; leaf 0 reports
        // the highest supported leaf and leaf 4 is read only below it.
        #[allow(unused_unsafe)]
        let max_leaf = unsafe { __cpuid(0) }.eax;
        if max_leaf < 4 {
            return FALLBACK;
        }
        let mut best = 0usize;
        for sub in 0..16 {
            // SAFETY: leaf 4 is supported (checked above); an
            // out-of-range subleaf reports cache type 0 and ends the walk.
            #[allow(unused_unsafe)]
            let r = unsafe { __cpuid_count(4, sub) };
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            if kind == 2 {
                continue; // instruction cache
            }
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            best = best.max(ways * partitions * line * sets);
        }
        if best > 0 {
            return best;
        }
    }
    FALLBACK
}

/// Sum `data` with eight independent accumulators, so the loop is bound
/// by memory rather than by the FP-add latency chain.
fn sum8(data: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        for (a, x) in acc.iter_mut().zip(c) {
            *a += x;
        }
    }
    acc.iter().sum::<f64>() + chunks.remainder().iter().sum::<f64>()
}

/// Read bandwidth in GB/s over `data` with `threads` std threads (one
/// contiguous part each), best of `reps` passes.
pub fn read_gbps(data: &[f64], threads: usize, reps: usize) -> f64 {
    let threads = threads.max(1);
    let part = data.len().div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let sum: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(part.max(1))
                .map(|c| s.spawn(move || sum8(std::hint::black_box(c))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bandwidth reader panicked"))
                .sum()
        });
        std::hint::black_box(sum);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::mem::size_of_val(data) as f64 / best / 1e9
}
