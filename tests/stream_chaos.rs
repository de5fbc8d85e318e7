//! Chaos suite for the streaming layer, mirroring `chaos_unwind.rs`:
//! inject panics into the source, a stage, a farm replica, and the
//! sink; cancel mid-stream manually and by deadline; and verify on
//! every pool discipline × channel backend that
//!
//! - the failure surfaces as a *typed* [`PipelineError`] (never an
//!   unwind out of `run`),
//! - the flow accounting balances (`produced == consumed + dropped`),
//! - by exact live-object counting, no item leaks or double-drops, and
//! - the pool is immediately reusable for clean work afterwards.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pstl::stream::{ChannelKind, Pipeline, PipelineErrorKind, StreamStats};
use pstl_executor::{build_pool, CancelToken, Discipline};

/// Net count of live [`Elem`] values; zero between cases means perfect
/// drop balance. Each `#[test]` owns its counter, because cargo runs the
/// tests of this file concurrently, and snapshots it before and after
/// every pipeline run.
type Live = Arc<AtomicIsize>;

#[derive(Debug)]
struct Elem(u64, Live);

impl Elem {
    fn new(v: u64, live: &Live) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Elem(v, Arc::clone(live))
    }
}

impl Drop for Elem {
    fn drop(&mut self) {
        self.1.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `Elem::new` bound to `live`, for `Iterator::map`.
fn mint(live: &Live) -> impl Fn(u64) -> Elem + Send + 'static {
    let live = Arc::clone(live);
    move |v| Elem::new(v, &live)
}

const DISCIPLINES: [Discipline; 5] = [
    Discipline::ForkJoin,
    Discipline::WorkStealing,
    Discipline::TaskPool,
    Discipline::Futures,
    Discipline::ServicePool,
];

fn assert_balanced(label: &str, stats: &StreamStats, live: &Live, live_before: isize) {
    assert_eq!(
        stats.produced,
        stats.consumed + stats.dropped,
        "{label}: flow accounting must balance"
    );
    assert_eq!(
        live.load(Ordering::SeqCst),
        live_before,
        "{label}: drop imbalance (leak or double drop)"
    );
}

/// After any chaotic run the same pool must still do clean work.
fn assert_reusable(label: &str, pool: &std::sync::Arc<dyn pstl_executor::Executor>) {
    let again = Pipeline::source(0..200u64)
        .ordered_farm(2, |x| x + 1)
        .collect(&**pool)
        .unwrap();
    assert_eq!(again.len(), 200, "{label}: pool wedged after chaos");
    assert_eq!(again[199], 200, "{label}: pool wedged after chaos");
}

#[test]
fn panics_in_source_stage_farm_and_sink_surface_typed_and_balanced() {
    let live = Live::default();
    for d in DISCIPLINES {
        let pool = build_pool(d, 3);
        for kind in ChannelKind::ALL {
            let label = format!("{d:?}/{}", kind.name());

            // Panic in the source iterator itself (stage 0).
            let before = live.load(Ordering::SeqCst);
            let elem = mint(&live);
            let err = Pipeline::source((0u64..).map(move |i| {
                if i == 321 {
                    panic!("source boom");
                }
                elem(i)
            }))
            .channel(kind)
            .stage(|e: Elem| e)
            .sink(drop)
            .run(&*pool)
            .unwrap_err();
            match &err.kind {
                PipelineErrorKind::StagePanicked { stage, message } => {
                    assert_eq!(*stage, 0, "{label}: source is stage 0");
                    assert!(message.contains("source boom"), "{label}: {message}");
                }
                other => panic!("{label}: expected StagePanicked, got {other:?}"),
            }
            assert_balanced(&format!("{label}/source"), &err.stats, &live, before);

            // Panic in a plain stage (stage 1), mid-stream.
            let before = live.load(Ordering::SeqCst);
            let err = Pipeline::source((0..5_000u64).map(mint(&live)))
                .channel(kind)
                .stage(|e: Elem| {
                    if e.0 == 1_234 {
                        panic!("stage boom");
                    }
                    e
                })
                .sink(drop)
                .run(&*pool)
                .unwrap_err();
            match &err.kind {
                PipelineErrorKind::StagePanicked { stage, message } => {
                    assert_eq!(*stage, 1, "{label}: first stage is 1");
                    assert!(message.contains("stage boom"), "{label}: {message}");
                }
                other => panic!("{label}: expected StagePanicked, got {other:?}"),
            }
            assert_balanced(&format!("{label}/stage"), &err.stats, &live, before);

            // Panic inside one replica of an unordered farm (stage 1):
            // the other replicas must drain and stop, not hang.
            let before = live.load(Ordering::SeqCst);
            let err = Pipeline::source((0..5_000u64).map(mint(&live)))
                .channel(kind)
                .farm(3, |e: Elem| {
                    if e.0 == 777 {
                        panic!("farm boom");
                    }
                    e
                })
                .sink(drop)
                .run(&*pool)
                .unwrap_err();
            match &err.kind {
                PipelineErrorKind::StagePanicked { stage, message } => {
                    assert_eq!(*stage, 1, "{label}: farm is stage 1");
                    assert!(message.contains("farm boom"), "{label}: {message}");
                }
                other => panic!("{label}: expected StagePanicked, got {other:?}"),
            }
            assert_balanced(&format!("{label}/farm"), &err.stats, &live, before);

            // Panic in the sink (last stage): upstream items in flight
            // must be dropped exactly once during teardown.
            let before = live.load(Ordering::SeqCst);
            let err = Pipeline::source((0..5_000u64).map(mint(&live)))
                .channel(kind)
                .stage(|e: Elem| e)
                .sink(|e: Elem| {
                    if e.0 == 2_000 {
                        panic!("sink boom");
                    }
                })
                .run(&*pool)
                .unwrap_err();
            match &err.kind {
                PipelineErrorKind::StagePanicked { stage, message } => {
                    assert_eq!(*stage, 2, "{label}: sink is stage 2");
                    assert!(message.contains("sink boom"), "{label}: {message}");
                }
                other => panic!("{label}: expected StagePanicked, got {other:?}"),
            }
            assert_balanced(&format!("{label}/sink"), &err.stats, &live, before);

            assert_reusable(&label, &pool);
        }
    }
}

#[test]
fn manual_cancel_mid_stream_balances_on_every_backend() {
    let live = Live::default();
    for d in DISCIPLINES {
        let pool = build_pool(d, 3);
        for kind in ChannelKind::ALL {
            let label = format!("{d:?}/{}", kind.name());
            let before = live.load(Ordering::SeqCst);

            let token = CancelToken::new();
            let observer = token.clone();
            let err = Pipeline::source((0u64..).map(mint(&live)))
                .channel(kind)
                .with_cancel(token)
                .stage(move |e: Elem| {
                    if e.0 == 800 {
                        observer.cancel();
                    }
                    e
                })
                .sink(drop)
                .run(&*pool)
                .unwrap_err();
            assert_eq!(err.kind, PipelineErrorKind::Cancelled, "{label}");
            assert_balanced(&label, &err.stats, &live, before);
            assert!(
                err.stats.produced < 5_000_000,
                "{label}: teardown not prompt, produced {}",
                err.stats.produced
            );
            assert_reusable(&label, &pool);
        }
    }
}

#[test]
fn deadline_cancel_mid_stream_balances_on_every_backend() {
    let live = Live::default();
    for d in DISCIPLINES {
        let pool = build_pool(d, 2);
        let label = format!("{d:?}");
        let before = live.load(Ordering::SeqCst);

        let elem = mint(&live);
        let err = Pipeline::source((0u64..).map(move |i| {
            std::thread::sleep(Duration::from_micros(20));
            elem(i)
        }))
        .with_cancel(CancelToken::with_deadline(Duration::from_millis(25)))
        .ordered_farm(2, |e: Elem| e)
        .sink(drop)
        .run(&*pool)
        .unwrap_err();
        assert_eq!(err.kind, PipelineErrorKind::Cancelled, "{label}");
        assert_balanced(&label, &err.stats, &live, before);
        assert_reusable(&label, &pool);
    }
}

#[test]
fn pools_interleave_chaotic_and_clean_streams_without_residue() {
    // Alternate a failing stream and a clean full pass on the same
    // pool, several rounds per discipline: chaos must leave no residue
    // in the runtime (mirrors `pools_rerun_cleanly_after_chaos`).
    for d in DISCIPLINES {
        let pool = build_pool(d, 3);
        for round in 0..8u64 {
            let trip = round * 113;
            let err = Pipeline::source(0..2_000u64)
                .farm(2, move |x| {
                    if x == trip {
                        panic!("boom round");
                    }
                    x
                })
                .sink(|_| {})
                .run(&*pool)
                .unwrap_err();
            assert!(
                matches!(err.kind, PipelineErrorKind::StagePanicked { .. }),
                "{d:?} round {round}"
            );

            let got = Pipeline::source(0..2_000u64)
                .ordered_farm(3, |x| x * 2)
                .collect(&*pool)
                .unwrap();
            let want: Vec<u64> = (0..2_000).map(|x| x * 2).collect();
            assert_eq!(got, want, "{d:?} round {round}: clean run after chaos");
        }
    }
}

/// Regression for a quarantine race: the driver that contains a node's
/// panic used to unlock the node before marking it done, so another
/// driver could claim and step it again and overwrite the in-hand item
/// teardown counts (`produced 1300 != consumed + dropped 1299`). The
/// fault plan holds the window between unlocking the panicked node and
/// poisoning the run open for 20 ms, which is ample time for the other
/// two drivers, which spin on the node list, to try to claim it.
#[cfg(feature = "fault")]
#[test]
fn panicked_node_stays_quarantined_until_the_run_is_poisoned() {
    use pstl_executor::FaultPlan;

    let live = Live::default();
    for d in DISCIPLINES {
        let pool = build_pool(d, 3);
        pool.install_fault_plan(FaultPlan::none().with_quarantine_delay(Duration::from_millis(20)));
        for kind in ChannelKind::ALL {
            let label = format!("{d:?}/{}", kind.name());
            let before = live.load(Ordering::SeqCst);
            let err = Pipeline::source((0..5_000u64).map(mint(&live)))
                .channel(kind)
                .stage(|e: Elem| {
                    if e.0 == 1_234 {
                        panic!("stage boom");
                    }
                    e
                })
                .sink(drop)
                .run(&*pool)
                .unwrap_err();
            assert!(
                matches!(err.kind, PipelineErrorKind::StagePanicked { stage: 1, .. }),
                "{label}: {:?}",
                err.kind
            );
            assert_balanced(&label, &err.stats, &live, before);
        }
    }
}
