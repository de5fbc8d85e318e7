//! The pipeline execution engine: node graph + cooperative drivers.
//!
//! A built pipeline is a linear chain of *node replicas* (one source,
//! one per plain stage, `R` per farm, one implicit reorder node behind
//! an ordered farm, one sink) connected by bounded channel *edges*.
//! Execution maps the replicas onto an existing [`Executor`] without
//! any new worker machinery: `run(M, driver)` is called once with
//! `M = min(threads, replicas)` *driver* bodies, and each driver loops
//! over every replica round-robin, claiming one at a time with a
//! `try_lock` and stepping it for a bounded burst.
//!
//! The load-bearing invariant is that **any single driver can finish
//! the whole pipeline alone**: a step never blocks (channels are
//! try-only; a full downstream edge stalls the item inside the node and
//! the driver moves on), so the engine cannot deadlock even when the
//! executor runs the `M` bodies sequentially (fork-join with more tasks
//! than threads, a task pool whose caller drains everything inline).
//! Extra drivers only add parallelism.
//!
//! Termination and teardown:
//!
//! * normal end-of-stream propagates by producer counting — the last
//!   finishing producer of an edge closes its channel, consumers treat
//!   *closed observed before an empty pop* as final (see the channel
//!   module's close protocol);
//! * a panic in any user closure is contained through
//!   [`runtime::contain`] (the §14 envelope — this module adds no
//!   containment machinery of its own), poisons the run, and surfaces as
//!   [`PipelineError`](super::PipelineError) with the first-panicking
//!   stage's index (first panic wins, like the pools);
//! * a tripped [`CancelToken`] poisons the run the same way with skip
//!   semantics — drivers notice within one burst-bounded pass.
//!
//! After `run` returns, the *caller* (which now has exclusive access)
//! drains every node's in-hand/stalled/buffered items and every edge's
//! queue exactly once, so `produced == consumed + dropped` holds on
//! every exit path — the drop-balance contract the chaos suite checks.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pstl_executor::runtime;
use pstl_executor::{CancelToken, Executor};

use super::channel::{Channel, ChannelKind};
use super::{PipelineError, PipelineErrorKind, StreamStats};

/// Items processed per node claim before the driver moves on — bounds
/// both cancellation latency and per-stage monopolization.
const BURST: usize = 32;

/// Every item carries the sequence number its source stamped; ordered
/// farms restore this order, unordered farms ignore it.
type Seq<V> = (u64, V);

/// Channel plus the number of still-active producers feeding it. The
/// last producer to finish closes the channel.
struct Edge<V> {
    chan: Arc<dyn Channel<Seq<V>>>,
    producers: AtomicUsize,
}

impl<V> Edge<V> {
    fn producer_done(&self) {
        if self.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.chan.close();
        }
    }

    /// Closed-before-empty end-of-stream check (see channel docs: the
    /// flag must be read *before* the failed pop to be conclusive).
    fn pop_or_eos(&self) -> PopResult<Seq<V>> {
        let closed = self.chan.is_closed();
        match self.chan.try_pop() {
            Some(item) => PopResult::Item(item),
            None if closed => PopResult::EndOfStream,
            None => PopResult::Empty,
        }
    }
}

enum PopResult<T> {
    Item(T),
    Empty,
    EndOfStream,
}

/// Cross-driver run state.
pub(super) struct Shared {
    pub(super) produced: AtomicU64,
    pub(super) consumed: AtomicU64,
    pub(super) push_waits: AtomicU64,
    finished_nodes: AtomicUsize,
    poisoned: AtomicBool,
    cancelled: AtomicBool,
    /// First panicking stage (index, payload message); first wins.
    panic: Mutex<Option<(usize, String)>>,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Shared {
            produced: AtomicU64::new(0),
            consumed: AtomicU64::new(0),
            push_waits: AtomicU64::new(0),
            finished_nodes: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            panic: Mutex::new(None),
        })
    }

    fn poison_panic(&self, stage: usize, payload: runtime::PanicPayload) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some((stage, payload_message(&payload)));
        }
        drop(slot);
        self.poisoned.store(true, Ordering::Release);
    }

    fn poison_cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.poisoned.store(true, Ordering::Release);
    }
}

fn payload_message(payload: &runtime::PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What one bounded step of a node reports back to its driver.
struct StepOut {
    /// Items this step moved (drives the `StageBurst` trace event).
    items: u64,
    /// Whether anything at all happened (stall cleared counts too).
    progress: bool,
    /// The node reached its terminal state during this step. Latched
    /// internally — stepping a finished node again reports an idle
    /// no-op, so a racing second driver cannot double-finish it.
    finished: bool,
}

impl StepOut {
    fn idle() -> Self {
        StepOut {
            items: 0,
            progress: false,
            finished: false,
        }
    }
}

/// One schedulable replica. Implementations own typed handles on their
/// edges; the graph stores them type-erased.
trait Node: Send {
    fn step(&mut self, shared: &Shared) -> StepOut;

    /// Teardown: drop whatever the node still holds (stalled output,
    /// in-hand item lost to a panic, reorder buffer) and report how
    /// many items that was. Called exactly once, after the run.
    fn drain(&mut self) -> u64;
}

/// A replica slot in the graph: stage index for attribution plus the
/// claimable node.
struct NodeSlot {
    stage: usize,
    done: AtomicBool,
    node: Mutex<Box<dyn Node>>,
}

/// The Sync half of a built pipeline, shared by reference with every
/// driver body.
pub(super) struct Graph {
    nodes: Vec<NodeSlot>,
    shared: Arc<Shared>,
    cancel: Option<CancelToken>,
}

/// Accumulates the graph while the type-erased stage makers run.
pub(super) struct Build {
    pub(super) kind: ChannelKind,
    pub(super) capacity: usize,
    nodes: Vec<NodeSlot>,
    edge_drains: Vec<Box<dyn FnMut() -> u64 + Send>>,
    shared: Arc<Shared>,
}

impl Build {
    pub(super) fn new(kind: ChannelKind, capacity: usize) -> Self {
        Build {
            kind,
            capacity,
            nodes: Vec::new(),
            edge_drains: Vec::new(),
            shared: Shared::new(),
        }
    }

    fn new_edge<V: Send + 'static>(&mut self, producers: usize) -> Arc<Edge<V>> {
        let edge = Arc::new(Edge {
            chan: self.kind.make::<Seq<V>>(self.capacity),
            producers: AtomicUsize::new(producers),
        });
        let drain = Arc::clone(&edge);
        self.edge_drains.push(Box::new(move || {
            let mut n = 0;
            while drain.chan.try_pop().is_some() {
                n += 1;
            }
            n
        }));
        edge
    }

    fn push_node(&mut self, stage: usize, node: Box<dyn Node>) {
        self.nodes.push(NodeSlot {
            stage,
            done: AtomicBool::new(false),
            node: Mutex::new(node),
        });
    }
}

/// Type-erased edge handle passed between stage makers; each maker
/// downcasts it back to the `Arc<Edge<T>>` its typed builder context
/// guarantees.
pub(super) type AnyEdge = Box<dyn Any>;

fn downcast_edge<V: Send + 'static>(any: AnyEdge) -> Arc<Edge<V>> {
    *any.downcast::<Arc<Edge<V>>>()
        .expect("stage maker chain preserves the item type")
}

// ---------------------------------------------------------------------
// Stage makers: called at run() time by the builder, in pipeline order.
// ---------------------------------------------------------------------

pub(super) fn make_source<I>(build: &mut Build, iter: I) -> AnyEdge
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    let out = build.new_edge::<I::Item>(1);
    let shared = Arc::clone(&build.shared);
    build.push_node(
        0,
        Box::new(SourceNode {
            iter: Some(iter),
            next_seq: 0,
            out: Arc::clone(&out),
            stall: None,
            shared,
            finished: false,
        }),
    );
    Box::new(out)
}

pub(super) fn make_stage<T, U, F>(build: &mut Build, stage: usize, f: F, input: AnyEdge) -> AnyEdge
where
    T: Send + 'static,
    U: Send + 'static,
    F: FnMut(T) -> U + Send + 'static,
{
    let input = downcast_edge::<T>(input);
    let out = build.new_edge::<U>(1);
    build.push_node(
        stage,
        Box::new(WorkNode {
            f: StageFn::Exclusive(Box::new(f)),
            input,
            out: Arc::clone(&out),
            stall: None,
            in_hand: 0,
            finished: false,
            _marker: std::marker::PhantomData,
        }),
    );
    Box::new(out)
}

pub(super) fn make_farm<T, U, F>(
    build: &mut Build,
    stage: usize,
    replicas: usize,
    ordered: bool,
    f: F,
    input: AnyEdge,
) -> AnyEdge
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(T) -> U + Send + Sync + 'static,
{
    let replicas = replicas.max(1);
    let input = downcast_edge::<T>(input);
    let mid = build.new_edge::<U>(replicas);
    let f: Arc<dyn Fn(T) -> U + Send + Sync> = Arc::new(f);
    for _ in 0..replicas {
        build.push_node(
            stage,
            Box::new(WorkNode {
                f: StageFn::Shared(Arc::clone(&f)),
                input: Arc::clone(&input),
                out: Arc::clone(&mid),
                stall: None,
                in_hand: 0,
                finished: false,
                _marker: std::marker::PhantomData,
            }),
        );
    }
    if !ordered {
        return Box::new(mid);
    }
    let out = build.new_edge::<U>(1);
    build.push_node(
        stage,
        Box::new(ReorderNode {
            input: mid,
            out: Arc::clone(&out),
            buf: BTreeMap::new(),
            next_seq: 0,
            stall: None,
            flushing: false,
            finished: false,
        }),
    );
    Box::new(out)
}

pub(super) fn make_sink<T, F>(build: &mut Build, stage: usize, f: F, input: AnyEdge)
where
    T: Send + 'static,
    F: FnMut(T) + Send + 'static,
{
    let input = downcast_edge::<T>(input);
    build.push_node(
        stage,
        Box::new(SinkNode {
            f,
            input,
            in_hand: 0,
            finished: false,
        }),
    );
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

struct SourceNode<I: Iterator> {
    iter: Option<I>,
    next_seq: u64,
    out: Arc<Edge<I::Item>>,
    stall: Option<Seq<I::Item>>,
    shared: Arc<Shared>,
    finished: bool,
}

impl<I> Node for SourceNode<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + 'static,
{
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        if let Some(item) = self.stall.take() {
            match self.out.chan.try_push(item) {
                Ok(()) => {
                    out.progress = true;
                    out.items += 1;
                }
                Err(item) => {
                    self.stall = Some(item);
                    shared.push_waits.fetch_add(1, Ordering::Relaxed);
                    return out;
                }
            }
        }
        while out.items < BURST as u64 {
            let Some(iter) = self.iter.as_mut() else {
                break;
            };
            // May panic (chaos: faulty source); nothing is in hand yet,
            // so a panic here loses no produced item.
            match iter.next() {
                Some(v) => {
                    self.shared.produced.fetch_add(1, Ordering::Relaxed);
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    match self.out.chan.try_push((seq, v)) {
                        Ok(()) => {
                            out.progress = true;
                            out.items += 1;
                        }
                        Err(item) => {
                            self.stall = Some(item);
                            shared.push_waits.fetch_add(1, Ordering::Relaxed);
                            return out;
                        }
                    }
                }
                None => {
                    self.iter = None;
                }
            }
        }
        if self.iter.is_none() && self.stall.is_none() {
            self.finished = true;
            self.out.producer_done();
            out.progress = true;
            out.finished = true;
        }
        out
    }

    fn drain(&mut self) -> u64 {
        u64::from(self.stall.take().is_some())
    }
}

/// A plain stage's exclusive closure or a farm replica's shared one.
enum StageFn<T, U> {
    Exclusive(Box<dyn FnMut(T) -> U + Send>),
    Shared(Arc<dyn Fn(T) -> U + Send + Sync>),
}

impl<T, U> StageFn<T, U> {
    fn call(&mut self, v: T) -> U {
        match self {
            StageFn::Exclusive(f) => f(v),
            StageFn::Shared(f) => f(v),
        }
    }
}

struct WorkNode<T, U> {
    f: StageFn<T, U>,
    input: Arc<Edge<T>>,
    out: Arc<Edge<U>>,
    stall: Option<Seq<U>>,
    /// Items popped but not yet re-queued or stalled — set around the
    /// user closure so a panic mid-item still balances the drop
    /// accounting (the in-hand item is counted by `drain`).
    in_hand: u64,
    finished: bool,
    _marker: std::marker::PhantomData<fn(T) -> U>,
}

impl<T, U> Node for WorkNode<T, U>
where
    T: Send + 'static,
    U: Send + 'static,
{
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        if let Some(item) = self.stall.take() {
            match self.out.chan.try_push(item) {
                Ok(()) => {
                    out.progress = true;
                    out.items += 1;
                }
                Err(item) => {
                    self.stall = Some(item);
                    shared.push_waits.fetch_add(1, Ordering::Relaxed);
                    return out;
                }
            }
        }
        while out.items < BURST as u64 {
            match self.input.pop_or_eos() {
                PopResult::Item((seq, v)) => {
                    self.in_hand = 1;
                    let u = self.f.call(v); // may panic: in_hand covers v
                    self.in_hand = 0;
                    match self.out.chan.try_push((seq, u)) {
                        Ok(()) => {
                            out.progress = true;
                            out.items += 1;
                        }
                        Err(item) => {
                            self.stall = Some(item);
                            shared.push_waits.fetch_add(1, Ordering::Relaxed);
                            return out;
                        }
                    }
                }
                PopResult::EndOfStream => {
                    self.finished = true;
                    self.out.producer_done();
                    out.progress = true;
                    out.finished = true;
                    return out;
                }
                PopResult::Empty => break,
            }
        }
        out
    }

    fn drain(&mut self) -> u64 {
        self.in_hand + u64::from(self.stall.take().is_some())
    }
}

/// The implicit node behind an ordered farm: buffers out-of-order
/// results by source sequence number and releases them in order.
struct ReorderNode<V> {
    input: Arc<Edge<V>>,
    out: Arc<Edge<V>>,
    buf: BTreeMap<u64, V>,
    next_seq: u64,
    stall: Option<Seq<V>>,
    /// Input closed: emit whatever is buffered (skipping gaps, which
    /// only a poisoned run can produce) instead of waiting forever.
    flushing: bool,
    finished: bool,
}

impl<V: Send + 'static> Node for ReorderNode<V> {
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        loop {
            if let Some(item) = self.stall.take() {
                match self.out.chan.try_push(item) {
                    Ok(()) => {
                        out.progress = true;
                        out.items += 1;
                    }
                    Err(item) => {
                        self.stall = Some(item);
                        shared.push_waits.fetch_add(1, Ordering::Relaxed);
                        return out;
                    }
                }
            }
            if out.items >= BURST as u64 {
                return out;
            }
            // Release the longest in-order run already buffered.
            if let Some(v) = self.buf.remove(&self.next_seq) {
                self.stall = Some((self.next_seq, v));
                self.next_seq += 1;
                continue;
            }
            if self.flushing {
                // Gaps cannot fill any more: jump to the next buffered
                // sequence, or finish when the buffer is dry.
                if let Some((&seq, _)) = self.buf.iter().next() {
                    let v = self.buf.remove(&seq).unwrap();
                    self.stall = Some((seq, v));
                    self.next_seq = seq + 1;
                    continue;
                }
                self.finished = true;
                self.out.producer_done();
                out.progress = true;
                out.finished = true;
                return out;
            }
            match self.input.pop_or_eos() {
                PopResult::Item((seq, v)) => {
                    self.buf.insert(seq, v);
                    out.progress = true;
                }
                PopResult::EndOfStream => {
                    self.flushing = true;
                    out.progress = true;
                }
                PopResult::Empty => return out,
            }
        }
    }

    fn drain(&mut self) -> u64 {
        let n = self.buf.len() as u64 + u64::from(self.stall.take().is_some());
        self.buf.clear();
        n
    }
}

struct SinkNode<T, F> {
    f: F,
    input: Arc<Edge<T>>,
    in_hand: u64,
    finished: bool,
}

impl<T, F> Node for SinkNode<T, F>
where
    T: Send + 'static,
    F: FnMut(T) + Send + 'static,
{
    fn step(&mut self, shared: &Shared) -> StepOut {
        if self.finished {
            return StepOut::idle();
        }
        let mut out = StepOut::idle();
        while out.items < BURST as u64 {
            match self.input.pop_or_eos() {
                PopResult::Item((_seq, v)) => {
                    self.in_hand = 1;
                    (self.f)(v); // may panic: in_hand covers v
                    self.in_hand = 0;
                    shared.consumed.fetch_add(1, Ordering::Relaxed);
                    out.progress = true;
                    out.items += 1;
                }
                PopResult::EndOfStream => {
                    self.finished = true;
                    out.progress = true;
                    out.finished = true;
                    return out;
                }
                PopResult::Empty => break,
            }
        }
        out
    }

    fn drain(&mut self) -> u64 {
        self.in_hand
    }
}

// ---------------------------------------------------------------------
// Drivers + run
// ---------------------------------------------------------------------

fn drive(graph: &Graph, origin: usize, exec: &dyn Executor) {
    let n = graph.nodes.len();
    let shared = &*graph.shared;
    loop {
        if shared.poisoned.load(Ordering::Acquire)
            || shared.finished_nodes.load(Ordering::Acquire) == n
        {
            return;
        }
        if let Some(token) = &graph.cancel {
            if token.is_cancelled() {
                shared.poison_cancel();
                return;
            }
        }
        let mut progress = false;
        for k in 0..n {
            let slot = &graph.nodes[(origin + k) % n];
            if slot.done.load(Ordering::Relaxed) {
                continue;
            }
            let Some(mut node) = slot.node.try_lock() else {
                continue;
            };
            // Re-check under the lock: a panicking driver quarantines
            // its node before unlocking it, possibly after this
            // driver's first check. The unlock (release) and this
            // driver's lock (acquire) order that store before this
            // load, so `Relaxed` suffices.
            if slot.done.load(Ordering::Relaxed) {
                continue;
            }
            match runtime::contain(|| node.step(shared)) {
                Ok(step) => {
                    drop(node);
                    progress |= step.progress;
                    if pstl_trace::enabled() && step.items > 0 {
                        exec.record_stage_burst(slot.stage as u64, step.items);
                    }
                    if step.finished {
                        slot.done.store(true, Ordering::Relaxed);
                        shared.finished_nodes.fetch_add(1, Ordering::AcqRel);
                    }
                }
                Err(payload) => {
                    // Quarantine the panicked node before unlocking it:
                    // a driver that steps it again would overwrite the
                    // in-hand item teardown must count. Teardown still
                    // drains it (the lock is parking_lot, so there are
                    // no poisoning semantics to undo).
                    slot.done.store(true, Ordering::Relaxed);
                    drop(node);
                    if let Some(core) = exec.runtime_core() {
                        core.faults().on_quarantine();
                    }
                    shared.poison_panic(slot.stage, payload);
                    return;
                }
            }
            if shared.poisoned.load(Ordering::Acquire) {
                return;
            }
        }
        if !progress {
            std::thread::yield_now();
        }
    }
}

pub(super) fn run_graph(
    build: Build,
    cancel: Option<CancelToken>,
    exec: &dyn Executor,
) -> Result<StreamStats, PipelineError> {
    let Build {
        nodes,
        mut edge_drains,
        shared,
        ..
    } = build;
    let graph = Graph {
        nodes,
        shared: Arc::clone(&shared),
        cancel,
    };
    let drivers = exec.num_threads().max(1).min(graph.nodes.len().max(1));
    exec.run(drivers, &|origin| drive(&graph, origin, exec));

    // Exclusive teardown: every driver has returned, so plain locks
    // cannot contend. Each node and each edge is drained exactly once.
    let mut dropped = 0u64;
    for slot in &graph.nodes {
        dropped += slot.node.lock().drain();
    }
    for drain in &mut edge_drains {
        dropped += drain();
    }

    let push_waits = shared.push_waits.load(Ordering::Relaxed);
    exec.record_stream(push_waits, dropped);
    let stats = StreamStats {
        produced: shared.produced.load(Ordering::Relaxed),
        consumed: shared.consumed.load(Ordering::Relaxed),
        dropped,
        push_waits,
    };
    let panic = shared.panic.lock().take();
    if let Some((stage, message)) = panic {
        return Err(PipelineError {
            kind: PipelineErrorKind::StagePanicked { stage, message },
            stats,
        });
    }
    if shared.cancelled.load(Ordering::Acquire) {
        return Err(PipelineError {
            kind: PipelineErrorKind::Cancelled,
            stats,
        });
    }
    Ok(stats)
}
