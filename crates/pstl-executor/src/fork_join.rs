//! Static fork-join pool (the GNU/NVC OpenMP analog).
//!
//! On each [`run`](crate::Executor::run) the task index space is split
//! into one contiguous partition per thread (OpenMP `schedule(static)`),
//! the partitions are executed, and the caller joins the team on the
//! job's completion latch. The calling thread acts as team master and
//! executes partition 0, matching OpenMP semantics where the
//! encountering thread participates.
//!
//! Scheduling cost profile: one region-slot lock + one epoch bump per
//! run, no per-chunk traffic, but the master cannot start anyone else's
//! partition: every region ends on the slowest worker's arrival. A
//! worker still in the runtime's spin window picks the region up within
//! a microsecond or two; a parked one pays a futex wake-up first (about
//! 15 µs median empty-region dispatch on a 2-vCPU host, against ~2 µs
//! with the spin). The paper credits NVC-OMP's low dispatch overhead
//! for its `for_each` lead; here that overhead is only low while the
//! team is spinning, which is what back-to-back regions keep it doing.
//!
//! The strategy here is nothing but the *partitioning decision*: an
//! epoch-stamped job slot plus the node-contiguous rank map. Lifecycle,
//! parking, panic containment and accounting are the
//! [`runtime`](crate::runtime)'s.

use std::sync::Arc;

use parking_lot::Mutex;
use pstl_trace::EventKind;

use crate::fault::FaultPlan;
use crate::job::Job;
use crate::runtime::{Runtime, RuntimeCore, WorkerCtx, WorkerStrategy};
use crate::topology::Topology;
use crate::{Discipline, Executor};

/// One dispatched region: the job (body + per-index latch + panic
/// slot) stamped with a strictly increasing epoch so a worker never
/// re-executes a region it has already finished.
#[derive(Clone)]
struct FjRegion {
    job: Arc<Job>,
    tasks: usize,
    epoch: usize,
}

/// The fork-join scheduling decision: a single epoch-stamped job slot
/// every team member derives its static partition from.
struct FjStrategy {
    threads: usize,
    /// Node-sorted rank of each worker ([`Topology::partition_rank`]):
    /// worker `w` executes partition `rank[w]`, which makes the chunks
    /// owned by one node's workers contiguous in the index space.
    rank: Vec<usize>,
    region: Mutex<Option<FjRegion>>,
}

impl FjStrategy {
    fn new(topology: &Topology) -> Self {
        FjStrategy {
            threads: topology.threads(),
            rank: topology.partition_rank(),
            region: Mutex::new(None),
        }
    }

    /// Execute `worker`'s static partition of `region` inside the
    /// runtime envelope (one task fragment per partition).
    fn execute_partition(&self, ctx: &WorkerCtx<'_>, region: &FjRegion) {
        let range = static_partition(region.tasks, self.threads, self.rank[ctx.worker]);
        let len = range.len() as u64;
        // SAFETY: the master blocks on the job latch until every index
        // has executed, so the body borrow is live; rank is a
        // permutation, so each partition reaches exactly one member.
        ctx.task_scope(len, || unsafe { region.job.execute_range(range) });
    }
}

impl WorkerStrategy for FjStrategy {
    /// The last epoch this participant executed.
    type Local = usize;

    fn make_local(&self, _worker: usize) -> usize {
        0
    }

    fn try_work(&self, ctx: &WorkerCtx<'_>, last_epoch: &mut usize) -> bool {
        let region = self.region.lock().clone();
        match region {
            Some(region) if region.epoch != *last_epoch => {
                *last_epoch = region.epoch;
                self.execute_partition(ctx, &region);
                true
            }
            _ => false,
        }
    }
}

/// Fork-join pool with static contiguous partitioning.
pub struct ForkJoinPool {
    rt: Runtime<FjStrategy>,
    /// Epoch counter for dispatched regions; locking it serializes
    /// `run` callers (one "team", like OpenMP parallel regions).
    next_epoch: Mutex<usize>,
}

/// The contiguous partition of `tasks` indices assigned to `worker` out of
/// `threads` (balanced to within one index).
pub fn static_partition(tasks: usize, threads: usize, worker: usize) -> std::ops::Range<usize> {
    debug_assert!(worker < threads);
    // Widened intermediate: `tasks * worker` can overflow usize for
    // pathological task counts (same bug class as pstl's chunk_range).
    let lo = (tasks as u128 * worker as u128 / threads as u128) as usize;
    let hi = (tasks as u128 * (worker as u128 + 1) / threads as u128) as usize;
    lo..hi
}

impl ForkJoinPool {
    /// A pool where `threads` threads (including the caller) execute each
    /// run. `threads - 1` worker threads are spawned eagerly.
    pub fn new(threads: usize) -> Self {
        ForkJoinPool::with_topology(Topology::flat(threads))
    }

    /// A pool whose static partitions are laid out node-contiguously
    /// according to `topology`.
    pub fn with_topology(topology: Topology) -> Self {
        Self::with_topology_faulted(topology, FaultPlan::none())
    }

    /// As [`with_topology`](Self::with_topology), with a fault plan
    /// active from construction onwards (spawn faults fire here; see
    /// [`Runtime::build`] for the fewer-workers fallback).
    pub fn with_topology_faulted(topology: Topology, plan: FaultPlan) -> Self {
        ForkJoinPool {
            rt: Runtime::build("fj", topology, plan, FjStrategy::new),
            next_epoch: Mutex::new(0),
        }
    }
}

impl Executor for ForkJoinPool {
    fn num_threads(&self) -> usize {
        self.rt.core().threads()
    }

    fn run(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let mut epoch = self.next_epoch.lock();
        let core = self.rt.core();
        if core.threads() == 1 {
            core.run_inline(tasks, body);
            return;
        }
        *epoch += 1;
        core.metrics().record_run();
        // Track 0 belongs to the master; the epoch lock serializes
        // callers, so the single-producer ring contract holds.
        let ctx = self.rt.caller_ctx();
        ctx.rec.record(EventKind::RegionBegin {
            tasks: tasks as u64,
        });
        let job = Job::with_faults(body, tasks, core.faults().hook());
        let region = FjRegion {
            job: Arc::clone(&job),
            tasks,
            epoch: *epoch,
        };
        *self.rt.strategy().region.lock() = Some(region.clone());
        core.notify();
        // Master executes its ranked partition while the team works,
        // then joins on the per-index latch.
        self.rt.strategy().execute_partition(&ctx, &region);
        job.latch().wait();
        ctx.rec.record(EventKind::RegionEnd);
        job.resume_if_panicked();
    }

    fn discipline(&self) -> Discipline {
        Discipline::ForkJoin
    }

    fn runtime_core(&self) -> Option<&RuntimeCore> {
        Some(self.rt.core())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partition_covers_space_exactly() {
        for tasks in [0usize, 1, 5, 64, 1000, 1001] {
            for threads in [1usize, 2, 3, 7, 32] {
                let mut covered = 0;
                let mut prev_end = 0;
                for w in 0..threads {
                    let r = static_partition(tasks, threads, w);
                    assert_eq!(r.start, prev_end, "partitions must be contiguous");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, tasks);
                assert_eq!(covered, tasks);
            }
        }
    }

    #[test]
    fn partition_is_balanced() {
        let sizes: Vec<usize> = (0..7).map(|w| static_partition(100, 7, w).len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "static partitions differ by more than 1: {sizes:?}"
        );
    }

    #[test]
    fn executes_all_indices() {
        let pool = ForkJoinPool::new(4);
        let hits = AtomicUsize::new(0);
        pool.run(1000, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn consecutive_runs_do_not_replay() {
        let pool = ForkJoinPool::new(3);
        for round in 0..50 {
            let hits = AtomicUsize::new(0);
            pool.run(10 + round, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 10 + round);
        }
    }

    #[test]
    fn concurrent_callers_are_serialized_safely() {
        let pool = Arc::new(ForkJoinPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pool.run(64, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 64);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ForkJoinPool::new(1);
        let tid = std::thread::current().id();
        let same_thread = AtomicUsize::new(0);
        pool.run(8, &|_| {
            if std::thread::current().id() == tid {
                same_thread.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(same_thread.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn interleaved_topology_still_covers_index_space() {
        // Ranks permute which partition each worker runs; coverage and
        // exactly-once execution must be unaffected.
        let pool = ForkJoinPool::with_topology(Topology::from_nodes(vec![0, 1, 0, 1]));
        assert_eq!(pool.topology().nodes(), 2);
        let counts: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn drop_joins_workers() {
        // Mostly a does-not-hang test.
        let pool = ForkJoinPool::new(4);
        pool.run(16, &|_| {});
        drop(pool);
    }
}
