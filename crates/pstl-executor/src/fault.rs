//! Deterministic fault injection for the pools.
//!
//! A [`FaultPlan`] describes a small set of reproducible faults — panic
//! at the *k*-th executed task body, delay one worker's steal rounds,
//! fail the spawn of one worker thread — that the chaos tests use to
//! exercise unwind propagation, graceful degradation, and scheduler
//! recovery on demand instead of waiting for the faults to happen.
//!
//! The machinery follows the `pstl-trace` gating pattern exactly: the
//! plan and injector types always exist, but with the `fault` cargo
//! feature off every hook is an empty `#[inline(always)]` function on a
//! zero-sized type, so production builds carry no branch, no counter,
//! and no lock at the injection sites.
//!
//! Injection points:
//!
//! * **task bodies** — each pool's job execution path calls
//!   [`FaultHook::on_task`] *inside* its existing `catch_unwind`, so an
//!   injected panic takes the same first-panic-wins route as a real
//!   body panic. The hook counts executed bodies with one shared atomic
//!   and fires when the count reaches the plan's index: deterministic
//!   in "fires exactly once, at the k-th body to start", even though
//!   which worker runs that body is scheduling-dependent.
//! * **steal rounds** — the work-stealing pool's `find_task` calls
//!   [`FaultInjector::on_steal_round`], which makes the targeted worker
//!   yield for the planned number of rounds (a slow/preempted-worker
//!   model).
//! * **thread spawn** — pool constructors consult
//!   [`spawn_should_fail`] and treat a hit exactly like a real
//!   `thread::spawn` error, exercising the fewer-workers fallback.
//! * **stream quarantine** — the streaming engine calls
//!   [`FaultInjector::on_quarantine`] after it unlocks a panicked node
//!   and before it poisons the run, so the plan's delay holds open the
//!   window in which other drivers may try to claim that node.

use std::time::Duration;

/// Delay one worker at its steal-round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealDelay {
    /// Worker index to slow down.
    pub worker: usize,
    /// Number of steal rounds at which the worker yields instead of
    /// stealing.
    pub rounds: u64,
}

/// A deterministic set of faults to inject into one pool.
///
/// Install via [`Executor::install_fault_plan`](crate::Executor::install_fault_plan)
/// (task/steal faults, takes effect for subsequent runs) or pass to a
/// pool's `with_topology_faulted` constructor (required for spawn
/// faults, which happen during construction).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside the `index`-th task body to start executing
    /// (counted across runs since the plan was installed).
    pub panic_at_task: Option<u64>,
    /// Slow one worker down at its steal loop.
    pub steal_delay: Option<StealDelay>,
    /// Fail the spawn of the worker thread with this index (1-based
    /// like pool worker indices; the caller is worker 0 and is never
    /// spawned).
    pub fail_spawn: Option<usize>,
    /// Panic inside every `m`-th task body (a sustained transient-fault
    /// rate, as opposed to `panic_at_task`'s single shot). `Some(1)`
    /// panics in every body.
    pub panic_every: Option<u64>,
    /// Reject the `index`-th admission attempt observed by the service
    /// layer (counted across submissions since the plan was installed).
    pub reject_admission: Option<u64>,
    /// Sleep this long between unlocking a panicked stream node and
    /// poisoning the run.
    pub quarantine_delay: Option<Duration>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Panic inside the `index`-th task body to execute.
    pub fn with_panic_at_task(mut self, index: u64) -> Self {
        self.panic_at_task = Some(index);
        self
    }

    /// Delay `worker` for `rounds` steal rounds.
    pub fn with_steal_delay(mut self, worker: usize, rounds: u64) -> Self {
        self.steal_delay = Some(StealDelay { worker, rounds });
        self
    }

    /// Fail the spawn of worker thread `worker`.
    pub fn with_spawn_failure(mut self, worker: usize) -> Self {
        self.fail_spawn = Some(worker);
        self
    }

    /// Panic inside every `m`-th task body (`m >= 1`).
    pub fn with_panic_every(mut self, m: u64) -> Self {
        self.panic_every = Some(m.max(1));
        self
    }

    /// Reject the `index`-th admission attempt seen by the service.
    pub fn with_reject_admission(mut self, index: u64) -> Self {
        self.reject_admission = Some(index);
        self
    }

    /// Hold a panicked stream node's quarantine window open for `delay`.
    pub fn with_quarantine_delay(mut self, delay: Duration) -> Self {
        self.quarantine_delay = Some(delay);
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.panic_at_task.is_none()
            && self.steal_delay.is_none()
            && self.fail_spawn.is_none()
            && self.panic_every.is_none()
            && self.reject_admission.is_none()
            && self.quarantine_delay.is_none()
    }

    /// Derive a small reproducible plan from a seed: one task panic in
    /// the first ~100 bodies plus one worker slowed for a few steal
    /// rounds. Spawn failures change the pool's shape, so they are
    /// never seeded — opt in with
    /// [`with_spawn_failure`](Self::with_spawn_failure).
    pub fn seeded(seed: u64) -> Self {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        FaultPlan::none()
            .with_panic_at_task(next() % 97)
            .with_steal_delay((next() % 4) as usize, 1 + next() % 7)
    }
}

/// The message prefix of injected panics, so tests can tell them from
/// real failures.
pub const INJECTED_PANIC: &str = "injected fault";

/// Whether this build injects faults (`fault` cargo feature).
pub const fn enabled() -> bool {
    cfg!(feature = "fault")
}

/// Whether a plan asks the spawn of worker `worker` to fail. Always
/// `false` with the `fault` feature off.
#[inline]
pub fn spawn_should_fail(plan: &FaultPlan, worker: usize) -> bool {
    enabled() && plan.fail_spawn == Some(worker)
}

#[cfg(feature = "fault")]
mod imp {
    use super::FaultPlan;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct State {
        plan: FaultPlan,
        tasks_started: AtomicU64,
        delays_left: AtomicU64,
        admissions_seen: AtomicU64,
    }

    /// Pool-side owner of the installed plan (`fault` feature on).
    #[derive(Default)]
    pub struct FaultInjector {
        state: Mutex<Option<Arc<State>>>,
    }

    /// Cheap per-job handle onto the installed plan; cloned into jobs
    /// at `run` time, so mid-run reinstalls affect only later runs.
    #[derive(Clone, Default)]
    pub struct FaultHook {
        state: Option<Arc<State>>,
    }

    impl FaultInjector {
        pub fn new() -> Self {
            Self::default()
        }

        /// Install `plan`, replacing any previous one and resetting its
        /// task counter. An empty plan uninstalls.
        pub fn install(&self, plan: FaultPlan) {
            *self.state.lock() = if plan.is_empty() {
                None
            } else {
                let delays = plan.steal_delay.map_or(0, |d| d.rounds);
                Some(Arc::new(State {
                    plan,
                    tasks_started: AtomicU64::new(0),
                    delays_left: AtomicU64::new(delays),
                    admissions_seen: AtomicU64::new(0),
                }))
            };
        }

        /// Handle for task-body injection, captured once per job.
        pub fn hook(&self) -> FaultHook {
            FaultHook {
                state: self.state.lock().clone(),
            }
        }

        /// Admission injection point: returns `true` when the plan says
        /// this admission attempt must be rejected. Counts every call,
        /// so the `index`-th submission is refused deterministically no
        /// matter which tenant or priority it carries.
        #[inline]
        pub fn on_admission(&self) -> bool {
            let state = self.state.lock().clone();
            if let Some(s) = state {
                if let Some(idx) = s.plan.reject_admission {
                    let k = s.admissions_seen.fetch_add(1, Ordering::Relaxed);
                    return k == idx;
                }
            }
            false
        }

        /// Steal-round injection point: if the plan targets `worker`
        /// and has delay rounds left, consume one and yield.
        #[inline]
        pub fn on_steal_round(&self, worker: usize) {
            let state = self.state.lock().clone();
            if let Some(s) = state {
                if s.plan.steal_delay.is_some_and(|d| d.worker == worker)
                    && consume_one(&s.delays_left)
                {
                    std::thread::yield_now();
                }
            }
        }

        /// Stream-quarantine injection point: sleep for the plan's
        /// delay, if it has one.
        #[inline]
        pub fn on_quarantine(&self) {
            let state = self.state.lock().clone();
            if let Some(delay) = state.and_then(|s| s.plan.quarantine_delay) {
                std::thread::sleep(delay);
            }
        }
    }

    fn consume_one(counter: &AtomicU64) -> bool {
        let mut left = counter.load(Ordering::Relaxed);
        while left > 0 {
            match counter.compare_exchange_weak(
                left,
                left - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => left = observed,
            }
        }
        false
    }

    impl FaultHook {
        /// Task-body injection point; called inside the pools'
        /// `catch_unwind` so the injected panic propagates like a real
        /// one.
        #[inline]
        pub fn on_task(&self) {
            if let Some(s) = &self.state {
                let k = s.tasks_started.fetch_add(1, Ordering::Relaxed);
                if s.plan.panic_at_task == Some(k) {
                    panic!("{}: panic at task #{k}", super::INJECTED_PANIC);
                }
                if s.plan.panic_every.is_some_and(|m| (k + 1) % m == 0) {
                    panic!("{}: periodic panic at task #{k}", super::INJECTED_PANIC);
                }
            }
        }
    }
}

#[cfg(not(feature = "fault"))]
mod imp {
    use super::FaultPlan;

    /// No-op twin of the injector (`fault` feature off).
    #[derive(Default)]
    pub struct FaultInjector;

    /// No-op twin of the per-job handle.
    #[derive(Clone, Copy, Default)]
    pub struct FaultHook;

    impl FaultInjector {
        #[inline(always)]
        pub fn new() -> Self {
            FaultInjector
        }

        #[inline(always)]
        pub fn install(&self, _plan: FaultPlan) {}

        #[inline(always)]
        pub fn hook(&self) -> FaultHook {
            FaultHook
        }

        #[inline(always)]
        pub fn on_steal_round(&self, _worker: usize) {}

        #[inline(always)]
        pub fn on_quarantine(&self) {}

        /// Always admits: the check disappears at build time.
        #[inline(always)]
        pub fn on_admission(&self) -> bool {
            false
        }
    }

    impl FaultHook {
        /// Compiles to nothing: the check disappears at build time.
        #[inline(always)]
        pub fn on_task(&self) {}
    }
}

pub use imp::{FaultHook, FaultInjector};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_nonempty() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.panic_at_task.is_some());
        assert!(a.steal_delay.is_some());
        assert!(a.fail_spawn.is_none(), "spawn faults are never seeded");
        assert_ne!(
            FaultPlan::seeded(1).panic_at_task,
            FaultPlan::seeded(2).panic_at_task
        );
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().with_panic_at_task(3).is_empty());
        assert!(!FaultPlan::none().with_spawn_failure(1).is_empty());
        assert!(!FaultPlan::none().with_reject_admission(0).is_empty());
        assert!(!FaultPlan::none().with_panic_every(5).is_empty());
        assert!(!FaultPlan::none()
            .with_quarantine_delay(Duration::from_millis(1))
            .is_empty());
    }

    #[test]
    fn panic_every_clamps_to_one() {
        assert_eq!(FaultPlan::none().with_panic_every(0).panic_every, Some(1));
    }

    #[cfg(feature = "fault")]
    #[test]
    fn admission_rejection_fires_exactly_once_at_index() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::none().with_reject_admission(1));
        assert!(!inj.on_admission(), "admission #0 passes");
        assert!(inj.on_admission(), "admission #1 is rejected");
        assert!(!inj.on_admission(), "admission #2 passes again");
    }

    #[cfg(feature = "fault")]
    #[test]
    fn panic_every_fires_periodically() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::none().with_panic_every(3));
        let hook = inj.hook();
        let mut panics = 0;
        for _ in 0..9 {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook.on_task())).is_err() {
                panics += 1;
            }
        }
        assert_eq!(panics, 3, "every third body panics");
    }

    #[cfg(not(feature = "fault"))]
    #[test]
    fn disabled_admission_hook_always_admits() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::none().with_reject_admission(0));
        assert!(!inj.on_admission());
        assert!(!inj.on_admission());
    }

    #[cfg(feature = "fault")]
    #[test]
    fn installed_panic_fires_exactly_once_at_index() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::none().with_panic_at_task(2));
        let hook = inj.hook();
        hook.on_task();
        hook.on_task();
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook.on_task()));
        assert!(hit.is_err(), "third body must panic");
        hook.on_task();
    }

    #[cfg(not(feature = "fault"))]
    #[test]
    fn disabled_injector_is_zero_sized_and_inert() {
        assert!(!enabled());
        assert_eq!(std::mem::size_of::<FaultInjector>(), 0);
        assert_eq!(std::mem::size_of::<FaultHook>(), 0);
        let inj = FaultInjector::new();
        inj.install(FaultPlan::none().with_panic_at_task(0));
        inj.hook().on_task();
        assert!(!spawn_should_fail(
            &FaultPlan::none().with_spawn_failure(1),
            1
        ));
    }
}
