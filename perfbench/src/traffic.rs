//! Runtime traffic: the same pools used through long-lived cooperative
//! regions (a streaming word count) and independent arrivals (an
//! open-loop job stream into `JobService`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pstl::{ChannelKind, ExecutionPolicy, Pipeline, StreamStats};
use pstl_executor::{Executor, JobHandle, JobOutcome, JobService, JobSpec, ServiceConfig};

use crate::oracle::{self, Tally};
use crate::rng::Rng;
use crate::spans::Spans;

const VOCAB: [&str; 16] = [
    "parallel", "stl", "scales", "with", "threads", "tbb", "gnu", "hpx", "omp", "find", "reduce",
    "scan", "sort", "for", "each", "pool",
];

/// Replicas of the word-count farm.
pub const FARM: usize = 2;

/// A seeded corpus for the streaming word count.
pub struct WordStream {
    lines: Arc<Vec<String>>,
    words: u64,
}

impl WordStream {
    pub fn new(lines: usize, seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 2);
        let mut words = 0u64;
        let lines: Vec<String> = (0..lines)
            .map(|_| {
                let k = rng.range(4, 13);
                words += k as u64;
                (0..k)
                    .map(|_| VOCAB[rng.range(0, VOCAB.len())])
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        WordStream {
            lines: Arc::new(lines),
            words,
        }
    }

    pub fn lines(&self) -> usize {
        self.lines.len()
    }

    /// One pipeline run: source of line indices → ring channel →
    /// unordered farm counting words → sink summing counts. Returns the
    /// stream stats and the elapsed time when the oracle accepts the
    /// result.
    pub fn run(&self, exec: &dyn Executor, tally: &mut Tally) -> Option<(StreamStats, Duration)> {
        let lines = Arc::clone(&self.lines);
        let total = Arc::new(AtomicU64::new(0));
        let sink_total = Arc::clone(&total);
        let t0 = Instant::now();
        let result = Pipeline::source(0..lines.len())
            .channel(ChannelKind::Ring)
            .farm(FARM, move |i: usize| {
                lines[i].split_whitespace().count() as u64
            })
            .sink(move |c| {
                sink_total.fetch_add(c, Ordering::Relaxed);
            })
            .run(exec);
        let elapsed = t0.elapsed();
        let ok = match &result {
            Ok(stats) => oracle::stream_ok(
                stats,
                self.lines.len() as u64,
                total.load(Ordering::Relaxed),
                self.words,
            ),
            Err(_) => false,
        };
        match (tally.check(ok), result) {
            (true, Ok(stats)) => Some((stats, elapsed)),
            _ => None,
        }
    }
}

/// Fixed arrival rate of the open-loop job stream. It is never
/// recalibrated per run, so a slower service shows as higher latency,
/// not as a lower offered load.
pub const JOB_RATE_PER_S: f64 = 10_000.0;
/// f64 elements each job sums.
pub const JOB_LEN: usize = 1 << 14;
/// Tenants the jobs rotate over.
const TENANTS: u64 = 16;
/// One job in this many gets spans in the traced run.
const JOB_SPAN_EVERY: u64 = 64;

/// Per-job samples of one open-loop window, in microseconds.
#[derive(Default)]
pub struct JobSamples {
    /// Due time → resolution: the client-visible latency.
    pub latency: Vec<f64>,
    /// Time inside `submit`.
    pub submit: Vec<f64>,
    /// `submit` returned → body started.
    pub queue_wait: Vec<f64>,
    /// Body start → body end.
    pub exec: Vec<f64>,
    /// Due time → `submit` called: how late the generator ran.
    pub lag: Vec<f64>,
}

impl JobSamples {
    pub fn append(&mut self, mut other: JobSamples) {
        self.latency.append(&mut other.latency);
        self.submit.append(&mut other.submit);
        self.queue_wait.append(&mut other.queue_wait);
        self.exec.append(&mut other.exec);
        self.lag.append(&mut other.lag);
    }
}

struct Pending {
    index: u64,
    due: Instant,
    submitted: Instant,
    handle: JobHandle<(f64, Instant, Instant)>,
}

/// A one-worker `JobService` (the service adds its own dispatcher
/// thread), the array every job sums, and the seeded arrival stream,
/// which successive windows continue.
pub struct JobStream {
    svc: JobService,
    data: Arc<Vec<f64>>,
    sum: f64,
    rng: Rng,
    next_index: u64,
    admitted: u64,
}

impl JobStream {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 3);
        let offset = rng.next_u64() % 1024;
        // Queue and quota far above what the fixed rate needs, so a
        // short host stall queues work instead of refusing it.
        let cfg = ServiceConfig::new(1)
            .with_queue_cap(1 << 16)
            .with_tenant_quota(1 << 16);
        JobStream {
            svc: JobService::new(cfg),
            data: Arc::new((0..JOB_LEN).map(|i| oracle::value(i, offset)).collect()),
            sum: oracle::total(JOB_LEN, offset),
            rng,
            next_index: 0,
            admitted: 0,
        }
    }

    /// One window of the open-loop stream: offer `jobs` jobs at Poisson
    /// arrivals of [`JOB_RATE_PER_S`] from the calling thread, timing
    /// each from its due time, and wait for all of them.
    pub fn run(
        &mut self,
        jobs: usize,
        tally: &mut Tally,
        spans: &mut Spans,
        parent: u32,
    ) -> JobSamples {
        let mut s = JobSamples::default();
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let start = Instant::now() + Duration::from_millis(1);
        let mut at = 0.0f64;
        for _ in 0..jobs {
            let index = self.next_index;
            self.next_index += 1;
            at += self.rng.exp_gap(JOB_RATE_PER_S);
            let due = start + Duration::from_secs_f64(at);
            wait_until(due);
            let called = Instant::now();
            let data = Arc::clone(&self.data);
            let result = self.svc.submit(JobSpec::tenant(index % TENANTS), move |_| {
                let t0 = Instant::now();
                let sum = pstl::reduce(&ExecutionPolicy::seq(), &data, 0.0, |a, b| a + b);
                (sum, t0, Instant::now())
            });
            let submitted = Instant::now();
            s.lag.push(us(called - due));
            s.submit.push(us(submitted - called));
            match result {
                Ok(handle) => {
                    self.admitted += 1;
                    pending.push_back(Pending {
                        index,
                        due,
                        submitted,
                        handle,
                    });
                }
                Err(_) => tally.refused(),
            }
            while pending.front().is_some_and(|p| p.handle.is_resolved()) {
                let p = pending.pop_front().expect("front");
                self.harvest(p, &mut s, tally, spans, parent);
            }
        }
        while let Some(p) = pending.pop_front() {
            self.harvest(p, &mut s, tally, spans, parent);
        }
        tally.check(oracle::service_ok(&self.svc.stats(), self.admitted));
        s
    }

    fn harvest(
        &self,
        p: Pending,
        s: &mut JobSamples,
        tally: &mut Tally,
        spans: &mut Spans,
        parent: u32,
    ) {
        let (outcome, resolved) = p.handle.wait_timed();
        match outcome {
            JobOutcome::Completed((sum, t0, t1)) => {
                if tally.check(oracle::job_sum_ok(sum, self.sum)) {
                    s.latency
                        .push(us(resolved.saturating_duration_since(p.due)));
                    s.queue_wait
                        .push(us(t0.saturating_duration_since(p.submitted)));
                    s.exec.push(us(t1 - t0));
                }
                if p.index.is_multiple_of(JOB_SPAN_EVERY) {
                    let job = spans.record("job", p.due, resolved, parent, p.index);
                    spans.record("job.exec", t0, t1, job, p.index);
                }
            }
            _ => tally.refused(),
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleep until shortly before `due`, then yield until it passes: the
/// generator does not burn a core through long gaps, and does not rely
/// on the timer's wake-up precision (tens of µs late on a virtual
/// machine) for short ones.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}
