//! The repository benchmark: the paper's kernels × backends on the real
//! `pstl` library at dispatch-bound and DRAM-bound sizes, plus runtime
//! traffic (a streaming pipeline and an open-loop job stream), from one
//! process whose pools are sized to `nproc` and whose only load
//! generator is the main thread.
//!
//! ```text
//! perfbench --workload paper_small|traffic --seed N --seconds S
//!           [--mode e2e|layers|trace] [--out-dir DIR] [--reference-ns X] [--quick]
//! ```
//!
//! * `e2e` prints every end-to-end metric.
//! * `layers` prints the per-layer metrics: counter deltas around the
//!   timed calls, the job stream's breakdown and the layer probes, and
//!   writes the benchmark-side spans to `DIR/spans-<workload>.json`.
//! * `trace` (meant for a `--features trace` build) drains each pool's
//!   event trace after every slice and summarises it; `--reference-ns`
//!   is the untraced cell geomean that `trace.overhead_ratio` divides by.
//!
//! Every run prints `metric <name> <value> <unit>` lines, a `record`
//! line describing the machine and inputs, and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod cells;
mod machine;
mod oracle;
mod probes;
mod rng;
mod spans;
mod stats;
mod traffic;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::ExecutionPolicy;
use pstl_executor::Executor;
use pstl_sim::Backend;
use pstl_suite::BackendHost;

use cells::{Cell, Counters, Grid, Kernel, BACKENDS};
use oracle::Tally;
use spans::{Spans, NO_PARENT};
use stats::{mean, median, percentile, ratio, Report};
use traffic::{JobSamples, JobStream, WordStream, JOB_RATE_PER_S};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    PaperSmall,
    Traffic,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    E2e,
    Layers,
    Trace,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    quick: bool,
    out_dir: PathBuf,
    reference_ns: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperSmall,
        seed: 1,
        seconds: 10.0,
        mode: Mode::E2e,
        quick: false,
        out_dir: PathBuf::from(".bench_out"),
        reference_ns: None,
    };
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "paper_small" => Workload::PaperSmall,
                    "traffic" => Workload::Traffic,
                    _ => return Err(bad("workload")),
                })
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--mode" => {
                args.mode = match value.as_str() {
                    "e2e" => Mode::E2e,
                    "layers" => Mode::Layers,
                    "trace" => Mode::Trace,
                    _ => return Err(bad("mode")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--reference-ns" => {
                args.reference_ns = Some(value.parse().map_err(|_| bad("reference"))?)
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What a workload runs and where its time goes.
struct Shape {
    cells: Vec<(Kernel, usize)>,
    /// Shares of `--seconds` for the cell grid, the pipeline and the job
    /// stream (the rest covers set-up and checks).
    shares: [f64; 3],
    stream_lines: usize,
    setup_reps: usize,
}

/// Elements of the DRAM-sized probe array: the smallest power of two
/// whose f64 array is at least 4× the LLC.
fn dram_elems(llc: usize) -> usize {
    (4 * llc / 8).next_power_of_two().min(1 << 27)
}

fn shape(w: Workload, quick: bool) -> Shape {
    let q = |full: usize, small: usize| if quick { small } else { full };
    match w {
        // Calls of 0.5–50 µs: region dispatch dominates, and the range
        // spans GNU's 2^10 sequential fallback and the crossovers.
        Workload::PaperSmall => Shape {
            cells: [1 << 10, 1 << 13, 1 << 16]
                .iter()
                .flat_map(|&n| Kernel::ALL.map(|k| (k, n)))
                .collect(),
            shares: [0.7, 0.12, 0.12],
            stream_lines: q(100_000, 5_000),
            setup_reps: 5,
        },
        // Long-lived cooperative regions and independent arrivals; the
        // kernels run at one mid size so every metric is still reported.
        Workload::Traffic => Shape {
            cells: Kernel::ALL.map(|k| (k, 1 << 13)).to_vec(),
            shares: [0.45, 0.3, 0.15],
            stream_lines: q(1_000_000, 20_000),
            setup_reps: 5,
        },
    }
}

/// Everything built before measuring: pools, arrays, corpus, service.
struct Setup {
    host: BackendHost,
    fork_join: Arc<dyn Executor>,
    grid: Grid,
    stream: WordStream,
    jobs: JobStream,
}

fn pool_of(host: &BackendHost, b: Backend) -> Arc<dyn Executor> {
    match host.policy_for(b).expect("CPU backend") {
        ExecutionPolicy::Par { exec, .. } => exec,
        ExecutionPolicy::Seq => unreachable!("{b:?} is a parallel backend"),
    }
}

fn build(shape: &Shape, nproc: usize, seed: u64) -> Setup {
    let host = BackendHost::new(nproc);
    let fork_join = pool_of(&host, Backend::GccGnu);
    let grid = Grid::new(&host, &fork_join, &shape.cells, seed);
    Setup {
        grid,
        stream: WordStream::new(shape.stream_lines, seed),
        jobs: JobStream::new(seed),
        fork_join,
        host,
    }
}

/// Set up `reps` times and keep the last; returns it with the median
/// set-up time in seconds.
fn set_up(shape: &Shape, nproc: usize, seed: u64, reps: usize) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..reps.max(1) {
        drop(setup.take()); // release the previous arrays before allocating again
        let t0 = Instant::now();
        setup = Some(build(shape, nproc, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (setup.expect("at least one set-up"), median(&mut times))
}

/// Epochs a run is cut into. Each epoch gives the cells, the pipeline
/// and the job stream their share in turn, so slow drift on a shared host
/// lands on every part alike, as the round-robin slices do for cells.
const EPOCHS: u32 = 8;
/// Job windows per epoch. The job latency metrics are medians over
/// windows of each window's percentile, so a host stall that spoils a
/// few windows does not move them.
const WINDOWS_PER_EPOCH: u32 = 4;

/// Samples of the traffic parts, gathered over all epochs.
#[derive(Default)]
struct Traffic {
    /// Items per second of each pipeline run.
    rates: Vec<f64>,
    /// Push waits per thousand items of each pipeline run.
    waits: Vec<f64>,
    /// p50 and p90 job latency (from due time) of each job window.
    p50: Vec<f64>,
    p90: Vec<f64>,
    jobs: JobSamples,
}

/// Pipeline runs until `budget` is spent (at least one).
fn run_stream(
    s: &Setup,
    budget: Duration,
    t: &mut Traffic,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: u32,
) {
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        if let Some((stats, elapsed)) = s.stream.run(&*s.fork_join, tally) {
            t.rates
                .push(s.stream.lines() as f64 / elapsed.as_secs_f64());
            t.waits
                .push(stats.push_waits as f64 * 1e3 / stats.consumed.max(1) as f64);
        }
        spans.record("pipeline", t0, Instant::now(), parent, t.rates.len() as u64);
        if start.elapsed() >= budget {
            break;
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = machine::nproc();
    let llc = machine::llc_bytes();
    let shape = shape(args.workload, args.quick);
    let total = Duration::from_secs_f64(args.seconds);
    let budget = |share: f64| total.mul_f64(share);

    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut spans = Spans::new(args.mode == Mode::Layers, 1 << 17);
    let root = spans.open(workload_name(args.workload), NO_PARENT, args.seed);

    let reps = if args.mode == Mode::Trace {
        1
    } else {
        shape.setup_reps
    };
    let (mut setup, setup_s) = set_up(&shape, nproc, args.seed, reps);
    let array_bytes = setup.grid.array_bytes();
    let dram_probe_elems = if args.quick { 1 << 16 } else { dram_elems(llc) };
    let cell_count = setup.grid.cells.len();

    // The traced run times the cells only, in one stretch.
    let trace = args.mode == Mode::Trace;
    let (epochs, cell_share, min_rounds) = if trace {
        (1, 1.0, 3)
    } else {
        (EPOCHS, shape.shares[0], 1)
    };
    let jobs = (JOB_RATE_PER_S * budget(shape.shares[2]).as_secs_f64()) as usize;
    let jobs_per_window = (jobs / (EPOCHS * WINDOWS_PER_EPOCH) as usize).max(100);
    let mut traffic = Traffic::default();
    for epoch in 0..epochs {
        let span = spans.open("cells", root, epoch.into());
        let cells = budget(cell_share) / epochs;
        setup
            .grid
            .run(cells, min_rounds, &mut tally, &mut spans, span, trace);
        spans.close(span);
        if trace {
            continue;
        }
        let span = spans.open("stream", root, epoch.into());
        let stream = budget(shape.shares[1]) / EPOCHS;
        run_stream(&setup, stream, &mut traffic, &mut tally, &mut spans, span);
        spans.close(span);
        let span = spans.open("jobs", root, epoch.into());
        for _ in 0..WINDOWS_PER_EPOCH {
            let mut window = setup
                .jobs
                .run(jobs_per_window, &mut tally, &mut spans, span);
            traffic.p50.push(percentile(&mut window.latency, 0.5));
            traffic.p90.push(percentile(&mut window.latency, 0.9));
            traffic.jobs.append(window);
        }
        spans.close(span);
    }
    let all_ns = setup.grid.geomean_us(|_| true) * 1e3;

    match args.mode {
        Mode::E2e => e2e_metrics(&mut report, &setup.grid, &mut traffic, setup_s),
        Mode::Layers => {
            counter_metrics(&mut report, &setup.grid);
            let waits = median(&mut traffic.waits);
            report.put("stream.push_waits_per_kitem", waits, "count");
            service_metrics(&mut report, &mut traffic);
        }
        Mode::Trace => trace_metrics(&mut report, &setup.grid, all_ns, args.reference_ns),
    }
    let mut lag = std::mem::take(&mut traffic.jobs.lag);

    if args.mode == Mode::Layers {
        let pools: Vec<(&str, Arc<dyn Executor>)> = vec![
            ("fork_join", Arc::clone(&setup.fork_join)),
            ("work_stealing", pool_of(&setup.host, Backend::GccTbb)),
            ("task_pool", pool_of(&setup.host, Backend::GccHpx)),
        ];
        let tbb = setup.host.policy_for(Backend::GccTbb).expect("CPU backend");
        let fork_join = Arc::clone(&setup.fork_join);
        // Free the workload's arrays before the DRAM-sized probes.
        let Setup { host, grid, .. } = setup;
        drop(grid);
        let span = spans.open("probes", root, 0);
        let mut probe = probes::Probe {
            report: &mut report,
            tally: &mut tally,
            spans: &mut spans,
            parent: span,
            seed: args.seed,
        };
        probe.dispatch(&pools);
        probe.kernels_and_memory(&fork_join, dram_probe_elems, nproc);
        probe.seq_vs_std();
        probe.merge(&tbb);
        probe.channels();
        spans.close(span);
        drop(host);
        let failed = ratio(tally.failed as f64, tally.attempted as f64);
        report.put("failed_ratio", failed, "ratio");
    }
    spans.close(root);

    if spans.enabled() {
        let path = args
            .out_dir
            .join(format!("spans-{}.json", workload_name(args.workload)));
        match spans.write(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    let lag_p50 = percentile(&mut lag, 0.5);
    let lag_p99 = percentile(&mut lag, 0.99);
    println!(
        "record {{\"workload\": \"{}\", \"mode\": \"{:?}\", \"seed\": {}, \"nproc\": {nproc}, \"pool_threads\": {nproc}, \
         \"llc_bytes\": {llc}, \"array_bytes\": {array_bytes}, \"four_llc_bytes\": {}, \"array_over_4llc\": {:.3}, \
         \"dram_probe_bytes\": {}, \
         \"service_rate_per_s\": {JOB_RATE_PER_S}, \"service_workers\": 1, \"gen_lag_p50_us\": {lag_p50:.3}, \
         \"gen_lag_p99_us\": {lag_p99:.3}, \"cells\": {}, \"cell_geomean_ns\": {all_ns}}}",
        workload_name(args.workload),
        args.mode,
        args.seed,
        4 * llc,
        array_bytes as f64 / (4 * llc) as f64,
        dram_probe_elems * 8,
        cell_count,
    );
    report.print(&tally);
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::PaperSmall => "paper_small",
        Workload::Traffic => "traffic",
    }
}

/// The end-to-end metrics: one geomean per kernel and per backend, the
/// median pipeline rate, and set-up time.
///
/// Job latency is reported per layer (`service.job_*`), not here: on a
/// shared two-vCPU host it swings between runs by more than any bound
/// the benchmark may set (whole runs at p90 > 1 ms), because every job
/// waits on two thread wake-ups and those depend on the host.
fn e2e_metrics(report: &mut Report, grid: &Grid, t: &mut Traffic, setup_s: f64) {
    for k in Kernel::ALL {
        report.put(
            format!("{}_us", k.name()),
            grid.geomean_us(|c| c.kernel == k),
            "us",
        );
    }
    for (b, (_, name)) in BACKENDS.iter().enumerate() {
        report.put(
            format!("{name}_us"),
            grid.geomean_us(|c| c.backend == b),
            "us",
        );
    }
    report.put("stream_items_per_s", median(&mut t.rates), "1/s");
    report.put("setup_s", setup_s, "s");
}

/// Scheduling-counter deltas per call, and the policy's chunking, per
/// parallel backend.
fn counter_metrics(report: &mut Report, grid: &Grid) {
    // Per-call rates are taken per cell and averaged over cells, so the
    // many tiny calls of small cells do not outweigh the rest.
    fn per_call(cells: &[&Cell], count: fn(&Counters) -> u64) -> f64 {
        mean(
            cells
                .iter()
                .map(|c| ratio(count(&c.counters) as f64, c.calls as f64)),
        )
    }
    for (b, (_, name)) in BACKENDS.iter().enumerate().skip(1) {
        let cells: Vec<&Cell> = grid.cells.iter().filter(|c| c.backend == b).collect();
        let finds: Vec<&Cell> = cells
            .iter()
            .copied()
            .filter(|c| c.kernel == Kernel::Find)
            .collect();
        let mut put = |metric: &str, value: f64, unit: &'static str| {
            report.put(format!("{metric}.{name}"), value, unit)
        };
        put(
            "executor.parks_per_call",
            per_call(&cells, |k| k.parks),
            "count",
        );
        put(
            "executor.wakeups_per_call",
            per_call(&cells, |k| k.wakeups),
            "count",
        );
        put(
            "executor.tasks_per_call",
            per_call(&cells, |k| k.tasks),
            "count",
        );
        put(
            "executor.find_wasted_per_call",
            per_call(&finds, |k| k.wasted),
            "count",
        );
        put(
            "policy.chunks_per_call",
            mean(cells.iter().map(|c| c.chunks() as f64)),
            "count",
        );
        if matches!(*name, "tbb" | "hpx") {
            let steals: u64 = cells.iter().map(|c| c.counters.steals).sum();
            let attempts: u64 = cells.iter().map(|c| c.counters.steal_attempts).sum();
            put(
                "executor.steals_per_call",
                per_call(&cells, |k| k.steals),
                "count",
            );
            put(
                "executor.steal_success",
                ratio(steals as f64, attempts as f64),
                "ratio",
            );
            put(
                "policy.splits_per_call",
                per_call(&cells, |k| k.splits),
                "count",
            );
        }
    }
}

/// The job stream, timed from the benchmark side: latency from due time
/// (the median over windows of each window's percentile), and where it
/// went.
fn service_metrics(report: &mut Report, t: &mut Traffic) {
    report.put("service.job_p50_us", median(&mut t.p50), "us");
    report.put("service.job_p90_us", median(&mut t.p90), "us");
    let js = &mut t.jobs;
    report.put(
        "service.submit_p50_us",
        percentile(&mut js.submit, 0.5),
        "us",
    );
    report.put(
        "service.queue_wait_p50_us",
        percentile(&mut js.queue_wait, 0.5),
        "us",
    );
    report.put(
        "service.queue_wait_p90_us",
        percentile(&mut js.queue_wait, 0.9),
        "us",
    );
    report.put("service.exec_p50_us", percentile(&mut js.exec, 0.5), "us");
    report.put(
        "service.job_p99_us",
        percentile(&mut js.latency, 0.99),
        "us",
    );
    report.put(
        "service.job_p999_us",
        percentile(&mut js.latency, 0.999),
        "us",
    );
    report.put(
        "service.gen_lag_p99_us",
        percentile(&mut js.lag, 0.99),
        "us",
    );
    report.put("service.samples", js.latency.len() as f64, "count");
}

/// Pool-trace summaries per parallel backend, and the cost of tracing:
/// this run's cell geomean over the untraced one.
fn trace_metrics(report: &mut Report, grid: &Grid, traced_ns: f64, reference_ns: Option<f64>) {
    for (b, (_, name)) in BACKENDS.iter().enumerate().skip(1) {
        let (mut util, mut serial) = (Vec::new(), Vec::new());
        for c in grid.cells.iter().filter(|c| c.backend == b) {
            for &(u, s) in &c.trace {
                util.push(u);
                serial.push(s);
            }
        }
        report.put(
            format!("trace.utilization.{name}"),
            median(&mut util),
            "ratio",
        );
        report.put(
            format!("trace.serial_fraction.{name}"),
            median(&mut serial),
            "ratio",
        );
    }
    report.put(
        "trace.overhead_ratio",
        ratio(traced_ns, reference_ns.unwrap_or(traced_ns)),
        "ratio",
    );
}
