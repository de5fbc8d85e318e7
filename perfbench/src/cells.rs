//! Cell timing. A cell is one (backend, kernel, n) triple; its value is
//! the median per-call time of `pstl_suite::kernels::run_*` under the
//! policy `BackendHost::policy_for` gives the backend.
//!
//! Cells are visited round-robin in short slices rather than one after
//! another, so slow drift on a shared host lands on every cell alike.
//! Each call is timed on its own and checked by the oracle right after
//! its timed interval ends.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::{ExecutionPolicy, Plan};
use pstl_executor::{Executor, MetricsSnapshot};
use pstl_sim::Backend;
use pstl_suite::{kernels, BackendHost};

use crate::oracle::{self, Tally};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{geomean, median};

/// The paper's CPU backends with their metric suffixes. ICC-TBB is left
/// out: it is the same pool and configuration as GCC-TBB.
pub const BACKENDS: [(Backend, &str); 5] = [
    (Backend::GccSeq, "seq"),
    (Backend::GccTbb, "tbb"),
    (Backend::GccGnu, "gnu"),
    (Backend::GccHpx, "hpx"),
    (Backend::NvcOmp, "nvc_omp"),
];

/// The paper's kernels; `for_each` runs with `k_it` 1 and 1000.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Find,
    ForEachK1,
    ForEachK1000,
    InclusiveScan,
    Reduce,
    Sort,
}

impl Kernel {
    pub const ALL: [Kernel; 6] = [
        Kernel::Find,
        Kernel::ForEachK1,
        Kernel::ForEachK1000,
        Kernel::InclusiveScan,
        Kernel::Reduce,
        Kernel::Sort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Find => "find",
            Kernel::ForEachK1 => "for_each_k1",
            Kernel::ForEachK1000 => "for_each_k1000",
            Kernel::InclusiveScan => "inclusive_scan",
            Kernel::Reduce => "reduce",
            Kernel::Sort => "sort",
        }
    }

    fn reads_src(self) -> bool {
        matches!(self, Kernel::Find | Kernel::InclusiveScan | Kernel::Reduce)
    }

    fn writes_out(self) -> bool {
        matches!(
            self,
            Kernel::ForEachK1 | Kernel::ForEachK1000 | Kernel::InclusiveScan
        )
    }
}

/// Positions the oracle samples in each scan or for_each output.
const SAMPLES: usize = 8;
/// Time one visit to a cell keeps calling it.
const SLICE: Duration = Duration::from_millis(2);
/// Upper bound on calls in one slice (tiny calls would otherwise fill
/// a slice with tens of thousands of samples).
const MAX_CALLS_PER_SLICE: usize = 4096;
/// Calls per slice that get their own span in the traced run (the slice
/// span covers the rest), so thousands of tiny calls do not crowd out
/// the spans of later phases.
const CALL_SPANS_PER_SLICE: usize = 2;

/// Inputs shared by every cell of one size `n`.
struct Inputs {
    n: usize,
    /// `v[i] = i + 1 + c`: read by find, reduce and scan.
    src: Vec<f64>,
    /// Written by scan and for_each.
    out: Vec<f64>,
    /// A seeded permutation of `v`, copied into `work` before each sort.
    shuffled: Vec<f64>,
    work: Vec<f64>,
}

/// Scheduling-counter deltas summed over a cell's slices.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub parks: u64,
    pub wakeups: u64,
    pub tasks: u64,
    pub steals: u64,
    pub steal_attempts: u64,
    pub splits: u64,
    pub wasted: u64,
}

impl Counters {
    fn add(&mut self, d: &MetricsSnapshot) {
        self.parks += d.parks;
        self.wakeups += d.parked_wakeups;
        self.tasks += d.tasks_executed;
        self.steals += d.steals;
        self.steal_attempts += d.steal_attempts;
        self.splits += d.splits;
        self.wasted += d.wasted_chunks;
    }
}

pub struct Cell {
    /// Index into [`BACKENDS`].
    pub backend: usize,
    pub kernel: Kernel,
    pub n: usize,
    input: usize,
    policy: ExecutionPolicy,
    exec: Option<Arc<dyn Executor>>,
    slice_medians: Vec<f64>,
    pub calls: u64,
    pub counters: Counters,
    /// `(utilization, serial_fraction)` of each traced slice.
    pub trace: Vec<(f64, f64)>,
}

impl Cell {
    /// Median per-call time in microseconds (median of slice medians).
    pub fn us(&self) -> f64 {
        median(&mut self.slice_medians.clone()) / 1e3
    }

    /// Chunks one call is split into: the task count of the policy's
    /// plan, or 1 when it runs sequentially.
    pub fn chunks(&self) -> usize {
        match self.policy.plan(self.n) {
            Plan::Sequential => 1,
            Plan::Parallel { tasks, .. } => tasks,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.kernel.name(),
            BACKENDS[self.backend].1,
            self.n
        )
    }
}

/// Every cell of a workload plus the inputs they share.
pub struct Grid {
    pub cells: Vec<Cell>,
    inputs: Vec<Inputs>,
    offset: u64,
    rng: Rng,
    times: Vec<f64>,
    positions: Vec<usize>,
}

impl Grid {
    /// One cell per backend for each `(kernel, n)` of `plan`. Arrays are
    /// allocated and first-touched in parallel on `alloc_exec`.
    pub fn new(
        host: &BackendHost,
        alloc_exec: &Arc<dyn Executor>,
        plan: &[(Kernel, usize)],
        seed: u64,
    ) -> Grid {
        let mut rng = Rng::fork(seed, 1);
        let offset = rng.next_u64() % 1024;
        let mut sizes: Vec<usize> = plan.iter().map(|p| p.1).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let needs =
            |n: usize, pred: fn(Kernel) -> bool| plan.iter().any(|&(k, m)| m == n && pred(k));
        let inputs: Vec<Inputs> = sizes
            .iter()
            .map(|&n| {
                let sort = needs(n, |k| k == Kernel::Sort);
                let src = if needs(n, Kernel::reads_src) {
                    pstl_alloc::alloc_init(alloc_exec, n, |i| oracle::value(i, offset))
                } else {
                    Vec::new()
                };
                let out = if needs(n, Kernel::writes_out) {
                    pstl_alloc::alloc_init(alloc_exec, n, |_| 0.0)
                } else {
                    Vec::new()
                };
                let shuffled = if sort {
                    oracle::shuffled(n, offset, rng.next_u64())
                } else {
                    Vec::new()
                };
                let work = if sort { vec![0.0; n] } else { Vec::new() };
                Inputs {
                    n,
                    src,
                    out,
                    shuffled,
                    work,
                }
            })
            .collect();
        let mut cells = Vec::new();
        for &(kernel, n) in plan {
            let input = sizes.iter().position(|&m| m == n).expect("size listed");
            for (backend, &(b, _)) in BACKENDS.iter().enumerate() {
                let policy = host.policy_for(b).expect("CPU backend");
                let exec = match &policy {
                    ExecutionPolicy::Seq => None,
                    ExecutionPolicy::Par { exec, .. } => Some(Arc::clone(exec)),
                };
                cells.push(Cell {
                    backend,
                    kernel,
                    n,
                    input,
                    policy,
                    exec,
                    slice_medians: Vec::new(),
                    calls: 0,
                    counters: Counters::default(),
                    trace: Vec::new(),
                });
            }
        }
        Grid {
            cells,
            inputs,
            offset,
            rng,
            times: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Bytes of the largest input array.
    pub fn array_bytes(&self) -> usize {
        self.inputs.iter().map(|i| i.n * 8).max().unwrap_or(0)
    }

    /// Visit every cell round-robin, one slice per visit, for whole
    /// rounds: at least `min_rounds`, then as long as another round
    /// still fits in `budget`. With `trace`, each slice's pool trace is
    /// drained and analysed.
    pub fn run(
        &mut self,
        budget: Duration,
        min_rounds: usize,
        tally: &mut Tally,
        spans: &mut Spans,
        parent: u32,
        trace: bool,
    ) {
        let start = Instant::now();
        let order = strided_order(self.cells.len());
        let mut rounds = 0;
        loop {
            let round = Instant::now();
            for &ci in &order {
                self.slice(ci, tally, spans, parent, trace);
            }
            rounds += 1;
            if rounds >= min_rounds && start.elapsed() + round.elapsed() > budget {
                break;
            }
        }
    }

    fn slice(&mut self, ci: usize, tally: &mut Tally, spans: &mut Spans, parent: u32, trace: bool) {
        let cell = &mut self.cells[ci];
        let inp = &mut self.inputs[cell.input];
        if trace {
            // Discard events other cells left on a shared pool.
            if let Some(e) = &cell.exec {
                e.take_trace();
            }
        }
        let before = cell.exec.as_ref().and_then(|e| e.metrics());
        let slice_span = if spans.enabled() {
            spans.open(&cell.label(), parent, ci as u64)
        } else {
            crate::spans::NO_PARENT
        };
        self.times.clear();
        let s0 = Instant::now();
        loop {
            let (t0, t1, ok) =
                timed_call(cell, inp, self.offset, &mut self.rng, &mut self.positions);
            tally.check(ok);
            self.times.push((t1 - t0).as_nanos() as f64);
            if self.times.len() <= CALL_SPANS_PER_SLICE {
                spans.record("call", t0, t1, slice_span, ci as u64);
            }
            if s0.elapsed() >= SLICE || self.times.len() >= MAX_CALLS_PER_SLICE {
                break;
            }
        }
        spans.close(slice_span);
        if let (Some(e), Some(b)) = (&cell.exec, before) {
            let d = e.metrics().expect("pool metrics").since(&b);
            tally.check(oracle::steals_balanced(&d));
            cell.counters.add(&d);
        }
        cell.calls += self.times.len() as u64;
        cell.slice_medians.push(median(&mut self.times));
        if trace {
            if let Some(log) = cell.exec.as_ref().and_then(|e| e.take_trace()) {
                if log.event_count() > 0 {
                    let a = pstl_trace::analyze::analyze_log(&log);
                    cell.trace.push((a.utilization, a.serial_fraction));
                }
            }
        }
    }

    /// Geometric mean of the cell medians (µs) of the cells `pick` keeps.
    pub fn geomean_us(&self, pick: impl Fn(&Cell) -> bool) -> f64 {
        geomean(self.cells.iter().filter(|c| pick(c)).map(Cell::us))
    }
}

/// Visiting order of a round: a stride coprime with the cell count, so
/// the cells of one kernel (adjacent in the grid) and of one backend are
/// spread over the round instead of sharing one stretch of it.
fn strided_order(cells: usize) -> Vec<usize> {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let n = cells.max(1);
    let stride = (7..)
        .find(|&s| gcd(s, n) == 1 && (n <= 2 || s % n != 1))
        .expect("a coprime stride exists");
    (0..cells).map(|j| j * stride % cells).collect()
}

/// Draw `SAMPLES` seeded positions in `0..n` plus both ends.
fn draw_positions(rng: &mut Rng, n: usize, out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..SAMPLES).map(|_| rng.range(0, n)));
    out.push(0);
    out.push(n - 1);
}

/// One timed call of `cell`'s kernel: returns the bounds of the timed
/// interval and the oracle's verdict, computed after it.
fn timed_call(
    cell: &Cell,
    inp: &mut Inputs,
    c: u64,
    rng: &mut Rng,
    pos: &mut Vec<usize>,
) -> (Instant, Instant, bool) {
    let n = inp.n;
    let policy = &cell.policy;
    match cell.kernel {
        Kernel::Find => {
            // Targets fall in the middle tenth of the array, so every
            // call scans about half of it and the median is steady.
            let lo = n * 45 / 100;
            let target = rng.range(lo, (n * 55 / 100).max(lo + 1));
            let t0 = Instant::now();
            let got = kernels::run_find(policy, black_box(&inp.src), oracle::value(target, c));
            let t1 = Instant::now();
            (t0, t1, oracle::find_ok(black_box(got), target))
        }
        Kernel::Reduce => {
            let t0 = Instant::now();
            let got = kernels::run_reduce(policy, black_box(&inp.src));
            let t1 = Instant::now();
            (t0, t1, oracle::reduce_ok(black_box(got), n, c))
        }
        Kernel::InclusiveScan => {
            let t0 = Instant::now();
            kernels::run_inclusive_scan(policy, black_box(&inp.src), black_box(&mut inp.out));
            let t1 = Instant::now();
            draw_positions(rng, n, pos);
            (t0, t1, oracle::scan_ok(&inp.out, pos, c))
        }
        Kernel::ForEachK1 | Kernel::ForEachK1000 => {
            let k = if cell.kernel == Kernel::ForEachK1 {
                1
            } else {
                1000
            };
            draw_positions(rng, n, pos);
            for &p in pos.iter() {
                inp.out[p] = -1.0;
            }
            let t0 = Instant::now();
            kernels::run_for_each(policy, black_box(&mut inp.out), k);
            let t1 = Instant::now();
            (t0, t1, oracle::for_each_ok(&inp.out, pos, k))
        }
        Kernel::Sort => {
            inp.work.copy_from_slice(&inp.shuffled);
            let t0 = Instant::now();
            kernels::run_sort(policy, BACKENDS[cell.backend].0, black_box(&mut inp.work));
            let t1 = Instant::now();
            (t0, t1, oracle::sort_ok(&inp.work, oracle::total(n, c)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_order_visits_every_cell_once() {
        for n in [1, 6, 30, 90] {
            let mut order = strided_order(n);
            assert_ne!(
                order.get(1),
                Some(&1),
                "adjacent cells are not visited back to back"
            );
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
    }
}
