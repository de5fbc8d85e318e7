//! Per-layer probes: each times a call into one layer's public function
//! from outside, single-threaded unless the layer is the scheduler
//! itself. Every probe checks what it computed.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::stream::{Channel, MutexChannel, RingChannel};
use pstl::ExecutionPolicy;
use pstl_executor::Executor;

use crate::machine;
use crate::oracle::{self, Tally};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio, Report};

/// Elements of the cache-resident kernel probe (128 KiB of f64).
pub const L2_ELEMS: usize = 1 << 14;
/// Elements of the `pstl::seq` sort probe.
const SORT_ELEMS: usize = 1 << 18;
/// Elements of the `pstl::seq` reduce probe.
const REDUCE_ELEMS: usize = 1 << 16;
/// Elements of each merge input.
const MERGE_ELEMS: usize = 1 << 19;
/// Push/pop pairs of the channel probe.
const CHANNEL_PAIRS: usize = 1 << 20;
/// Empty regions timed per pool.
const DISPATCH_RUNS: usize = 2000;

pub struct Probe<'a> {
    pub report: &'a mut Report,
    pub tally: &'a mut Tally,
    pub spans: &'a mut Spans,
    pub parent: u32,
    pub seed: u64,
}

/// Run `f` repeatedly until `min_time` has passed (at least `min_reps`
/// times) and return the median time per run in nanoseconds, recording
/// one span per run.
fn time_median(
    probe: &mut Probe,
    name: &str,
    min_reps: usize,
    min_time: Duration,
    mut f: impl FnMut(&mut Tally),
) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed() < min_time {
        let t0 = Instant::now();
        f(probe.tally);
        let t1 = Instant::now();
        times.push((t1 - t0).as_nanos() as f64);
        probe.spans.record(name, t0, t1, probe.parent, 0);
    }
    median(&mut times)
}

impl Probe<'_> {
    /// Empty `run(nproc)` regions on each pool: dispatch and wake-up
    /// cost with no work in the region.
    pub fn dispatch(&mut self, pools: &[(&str, Arc<dyn Executor>)]) {
        for (name, exec) in pools {
            let threads = exec.num_threads();
            let mut times = Vec::with_capacity(DISPATCH_RUNS);
            for run in 0..DISPATCH_RUNS {
                let hits = AtomicUsize::new(0);
                let t0 = Instant::now();
                exec.run(threads, &|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                let t1 = Instant::now();
                self.tally.check(hits.load(Ordering::Relaxed) == threads);
                times.push((t1 - t0).as_nanos() as f64 / 1e3);
                if run.is_multiple_of(64) {
                    self.spans
                        .record("probe.dispatch", t0, t1, self.parent, run as u64);
                }
            }
            self.report.put(
                format!("executor.dispatch_p50_us.{name}"),
                percentile(&mut times, 0.5),
                "us",
            );
            self.report.put(
                format!("executor.dispatch_p99_us.{name}"),
                percentile(&mut times, 0.99),
                "us",
            );
        }
    }

    /// Leaf kernels on one thread, cache-resident and DRAM-sized, plus
    /// the first-touch allocator and the std read-bandwidth reference.
    /// `alloc_exec` first-touches the DRAM array.
    pub fn kernels_and_memory(
        &mut self,
        alloc_exec: &Arc<dyn Executor>,
        dram_elems: usize,
        nproc: usize,
    ) {
        let c = Rng::fork(self.seed, 5).next_u64() % 1024;
        let t0 = Instant::now();
        let big = pstl_alloc::alloc_init(alloc_exec, dram_elems, |i| oracle::value(i, c));
        let t1 = Instant::now();
        self.spans
            .record("probe.first_touch", t0, t1, self.parent, 0);
        self.report.put(
            "alloc.first_touch_gbps",
            (dram_elems * 8) as f64 / (t1 - t0).as_secs_f64() / 1e9,
            "GB/s",
        );
        let read_1t = machine::read_gbps(&big, 1, 3);
        self.report.put("mem.read_gbps.1t", read_1t, "GB/s");
        self.report.put(
            "mem.read_gbps.nproc",
            machine::read_gbps(&big, nproc, 3),
            "GB/s",
        );

        let small: Vec<f64> = big[..L2_ELEMS].to_vec();
        let mut out = vec![0.0; dram_elems];
        let mut fold_dram = 0.0;
        for (tier, data, reps, min_time) in [
            ("l2", &small[..], 16, Duration::from_millis(40)),
            ("dram", &big[..], 3, Duration::ZERO),
        ] {
            let n = data.len();
            let fold = time_median(self, "probe.fold_map", reps, min_time, |t| {
                let s =
                    pstl::kernel::reduce::fold_map(black_box(data), &|x: &f64| *x, &|a, b| a + b);
                t.check(oracle::reduce_ok(s.unwrap_or(0.0), n, c));
            }) / n as f64;
            let find = time_median(self, "probe.find_first_in", reps, min_time, |t| {
                let hit = pstl::kernel::compare::find_first_in(0..n, &|i| black_box(data)[i] < 0.0);
                t.check(hit.is_none());
            }) / n as f64;
            let dst = &mut out[..n];
            let scan = time_median(self, "probe.scan_range_into", reps, min_time, |t| {
                pstl::kernel::scan::scan_range_into(
                    dst,
                    0..n,
                    &|i| data[i],
                    &|a: &f64, b: &f64| a + b,
                    None,
                    false,
                );
                t.check(oracle::scan_ok(black_box(&*dst), &[n / 2], c));
            }) / n as f64;
            self.report
                .put(format!("kernel.fold_map_ns_per_elem.{tier}"), fold, "ns");
            self.report.put(
                format!("kernel.find_first_in_ns_per_elem.{tier}"),
                find,
                "ns",
            );
            self.report.put(
                format!("kernel.scan_range_into_ns_per_elem.{tier}"),
                scan,
                "ns",
            );
            fold_dram = fold;
        }
        // Bytes the fold reads per nanosecond (= GB/s) over the machine's
        // one-thread read bandwidth.
        self.report.put(
            "kernel.fold_map_bw_ratio",
            ratio(8.0 / fold_dram, read_1t),
            "ratio",
        );
    }

    /// `pstl::seq` against std on the same inputs.
    pub fn seq_vs_std(&mut self) {
        let mut rng = Rng::fork(self.seed, 6);
        let c = rng.next_u64() % 1024;
        let shuffled = oracle::shuffled(SORT_ELEMS, c, rng.next_u64());
        let checksum = oracle::total(SORT_ELEMS, c);
        let mut work = shuffled.clone();
        let (mut ours, mut std_sort) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            for pstl_side in [true, false] {
                work.copy_from_slice(&shuffled);
                let t0 = Instant::now();
                if pstl_side {
                    pstl::sort_by(
                        &ExecutionPolicy::seq(),
                        black_box(&mut work),
                        f64::total_cmp,
                    );
                } else {
                    black_box(&mut work).sort_unstable_by(f64::total_cmp);
                }
                let t1 = Instant::now();
                self.tally.check(oracle::sort_ok(&work, checksum));
                let name = if pstl_side {
                    "probe.seq_sort"
                } else {
                    "probe.std_sort"
                };
                self.spans.record(name, t0, t1, self.parent, 0);
                let v = (t1 - t0).as_nanos() as f64;
                if pstl_side {
                    ours.push(v)
                } else {
                    std_sort.push(v)
                }
            }
        }
        let ours = median(&mut ours);
        self.report
            .put("seq.sort_ns_per_elem", ours / SORT_ELEMS as f64, "ns");
        self.report.put(
            "seq.sort_vs_std",
            ratio(ours, median(&mut std_sort)),
            "ratio",
        );

        let data: Vec<f64> = (0..REDUCE_ELEMS).map(|i| oracle::value(i, c)).collect();
        let min_time = Duration::from_millis(40);
        let ours = time_median(self, "probe.seq_reduce", 16, min_time, |t| {
            let s = pstl::reduce(&ExecutionPolicy::seq(), black_box(&data), 0.0, |a, b| a + b);
            t.check(oracle::reduce_ok(s, REDUCE_ELEMS, c));
        });
        let std_sum = time_median(self, "probe.std_sum", 16, min_time, |t| {
            let s: f64 = black_box(&data).iter().sum();
            t.check(oracle::reduce_ok(s, REDUCE_ELEMS, c));
        });
        self.report
            .put("seq.reduce_vs_std", ratio(ours, std_sum), "ratio");
    }

    /// `pstl::merge_by` of two sorted halves, sequential and on the
    /// TBB-model policy.
    pub fn merge(&mut self, par: &ExecutionPolicy) {
        // Odd and even values interleave completely: out[i] = i + 1.
        let a: Vec<f64> = (0..MERGE_ELEMS).map(|i| (2 * i + 1) as f64).collect();
        let b: Vec<f64> = (0..MERGE_ELEMS).map(|i| (2 * i + 2) as f64).collect();
        let mut out = vec![0.0; 2 * MERGE_ELEMS];
        for (name, policy) in [("seq", ExecutionPolicy::seq()), ("par", par.clone())] {
            let per = time_median(self, "probe.merge", 5, Duration::ZERO, |t| {
                pstl::merge_by(
                    &policy,
                    black_box(&a),
                    black_box(&b),
                    &mut out,
                    f64::total_cmp,
                );
                t.check(
                    out.iter()
                        .enumerate()
                        .step_by(4099)
                        .all(|(i, &x)| x == (i + 1) as f64)
                        && out.last() == Some(&((2 * MERGE_ELEMS) as f64)),
                );
            });
            self.report.put(
                format!("algorithms.merge_ns_per_elem.{name}"),
                per / (2 * MERGE_ELEMS) as f64,
                "ns",
            );
        }
    }

    /// One thread alternating `try_push` and `try_pop` on each channel.
    pub fn channels(&mut self) {
        let ring: Box<dyn Channel<u64>> = Box::new(RingChannel::new(64));
        let mutex: Box<dyn Channel<u64>> = Box::new(MutexChannel::new(64));
        for (name, ch) in [("ring", ring), ("mutex", mutex)] {
            let t0 = Instant::now();
            let mut ok = true;
            for i in 0..CHANNEL_PAIRS as u64 {
                ok &= ch.try_push(black_box(i)).is_ok();
                ok &= ch.try_pop() == Some(i);
            }
            let t1 = Instant::now();
            self.tally.check(ok);
            self.spans.record("probe.channel", t0, t1, self.parent, 0);
            self.report.put(
                format!("stream.{name}_pair_ns"),
                (t1 - t0).as_nanos() as f64 / CHANNEL_PAIRS as f64,
                "ns",
            );
        }
    }
}
