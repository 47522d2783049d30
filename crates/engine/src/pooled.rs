//! The pool runtime: the interpreter's hooks over the worker pool.
//!
//! Each submission gets one [`SubCtx`], shared by its steps through an
//! `Arc`. Muscles run inline in the step that reaches them. A
//! single-continuation step ([`Runtime::run_step`]) runs inline on the
//! current worker with no closure box and no dispatch while the depth cap
//! allows, then via the pool's TLS next-task slot
//! (`ResizablePool::submit_next`) — one trip through the worker loop that
//! resets the stack — and from non-worker threads (the initial
//! submission) as a plain pool submit. Steady-state chains therefore
//! touch neither deque nor injector (see `docs/ARCHITECTURE.md`).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use askel_events::{ListenerRegistry, Trace};
use askel_pool::{ResizablePool, Task};
use askel_skeletons::{Clock, Data, MuscleId, Node, Skel, TimeNs};

use crate::error::{panic_message, EngineError};
use crate::exec::{start, Runtime, Step};
use crate::future::{pair, Promise, SkelFuture};
use crate::metrics::{EngineMetrics, SpanProbe};

/// Per-submission context: engine services plus the poisoning machinery.
pub(crate) struct SubCtx {
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    /// Whether any listener was registered when this submission started.
    /// Sampled once at submit time: when false, the whole event path —
    /// instance ids, trace extension (an allocation per scheduled node)
    /// and emission — is skipped for the submission's lifetime.
    tracing: bool,
    /// Shared zero-allocation stand-in trace used when `tracing` is off.
    empty_trace: Trace,
    /// Span probe for the metrics hub, sampled once at submit time like
    /// `tracing`: `None` whenever the hub was disabled, making every
    /// per-step check a plain discriminant test.
    span: Option<SpanProbe>,
    failed: AtomicBool,
    fail_fn: Box<dyn Fn(EngineError) + Send + Sync>,
}

impl SubCtx {
    fn poison(&self, err: EngineError) {
        self.failed.store(true, Ordering::SeqCst);
        if let Some(span) = &self.span {
            span.finish(&*self.clock);
        }
        (self.fail_fn)(err); // the promise keeps only the first resolution
    }

    /// Stamps the span's first worker step (a no-op after the first).
    fn note_start(&self) {
        if let Some(span) = &self.span {
            span.note_start(&*self.clock);
        }
    }

    /// Wraps a step into a guarded pool task.
    fn task(self: &Arc<Self>, node: Arc<Node>, step: impl Step<Arc<Self>>) -> Task {
        let mut ctx = Arc::clone(self);
        Box::new(move || {
            ctx.note_start();
            ctx.guarded(|ctx| step(ctx, node));
        })
    }
}

/// How deep inline continuation execution may nest on one worker before
/// deferring to the pool's next-task slot. Balanced d&C recursions stay
/// logarithmic and never get near this; the cap keeps degenerate shapes
/// (a one-element-per-level split, a long while/pipe chain) from
/// growing the worker's stack without bound — past it, the chain takes
/// one slot round-trip through the worker loop and the depth resets.
const MAX_INLINE_DEPTH: usize = 64;

thread_local! {
    /// Current inline nesting depth on this thread.
    static INLINE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Runtime for Arc<SubCtx> {
    type Batch = Vec<Task>;

    /// Executes a step **inline in the current task** when the calling
    /// thread is a pool worker and the depth cap allows — guarded, but
    /// with no closure box and no dispatch — and otherwise boxes it and
    /// defers to the pool ([`ResizablePool::submit_next`]: the worker's
    /// TLS slot on a worker, a plain submit elsewhere — the latter keeps
    /// `Engine::submit` non-blocking on the caller's thread).
    ///
    /// Inline execution behaves exactly like pool execution: the same
    /// poison short-circuit and panic guard apply, and the enclosing
    /// pool task is still running, so `wait_idle` cannot miss it.
    fn run_step(&mut self, node: Arc<Node>, step: impl Step<Self>) {
        if self.pool.on_worker_thread() {
            let depth = INLINE_DEPTH.get();
            if depth < MAX_INLINE_DEPTH {
                INLINE_DEPTH.set(depth + 1);
                self.note_start();
                self.guarded(|ctx| step(ctx, node));
                INLINE_DEPTH.set(depth);
                return;
            }
        }
        let task = self.task(node, step);
        self.pool.submit_next(task);
    }

    fn submit(&mut self, node: Arc<Node>, step: impl Step<Self>) {
        let task = self.task(node, step);
        self.pool.submit(task);
    }

    fn new_batch(&self, siblings: usize) -> Vec<Task> {
        Vec::with_capacity(siblings)
    }

    fn push_batch(&mut self, batch: &mut Vec<Task>, node: Arc<Node>, step: impl Step<Self>) {
        batch.push(self.task(node, step));
    }

    fn submit_batch(&mut self, batch: Vec<Task>) {
        self.pool.submit_batch(batch);
    }

    /// Real muscles take real time: nothing to meter.
    fn meter(&mut self, _muscle: MuscleId, _items: usize, _input: &dyn Any) {}

    /// The muscle already ran on this thread: continue right here.
    fn resume<T: Send + 'static>(
        &mut self,
        value: T,
        then: impl FnOnce(&mut Self, T) + Send + 'static,
    ) {
        then(self, value);
    }

    fn now(&self) -> TimeNs {
        self.clock.now()
    }

    fn registry(&self) -> &ListenerRegistry {
        &self.registry
    }

    fn tracing(&self) -> bool {
        self.tracing
    }

    fn empty_trace(&self) -> Trace {
        self.empty_trace.clone()
    }

    fn fail(&mut self, err: EngineError) {
        self.poison(err);
    }

    fn guarded(&mut self, step: impl FnOnce(&mut Self)) {
        if self.failed.load(Ordering::SeqCst) {
            return;
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| step(self))) {
            self.poison(EngineError::MusclePanic(panic_message(p.as_ref())));
        }
    }
}

/// A fresh submission context whose failures reject `promise`.
fn context<R: Send + 'static>(
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    tracing: bool,
    span: Option<SpanProbe>,
    promise: &Promise<R>,
) -> Arc<SubCtx> {
    let fail_promise = promise.clone();
    Arc::new(SubCtx {
        pool,
        registry,
        clock,
        tracing,
        empty_trace: Trace::empty(),
        span,
        failed: AtomicBool::new(false),
        fail_fn: Box::new(move |e| fail_promise.fail(e)),
    })
}

/// The root continuation: closes the span and fulfills the promise.
fn deliver<R: Send + 'static>(promise: Promise<R>) -> impl FnOnce(&mut Arc<SubCtx>, Data) + Send {
    move |ctx, data| {
        if let Some(span) = &ctx.span {
            span.finish(&*ctx.clock);
        }
        match data.downcast::<R>() {
            Ok(r) => promise.fulfill(*r),
            Err(_) => promise.fail(EngineError::MusclePanic(
                "internal error: root result had an unexpected type".into(),
            )),
        }
    }
}

/// Entry point used by [`crate::Engine::submit`].
pub(crate) fn submit<P, R>(
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    metrics: Arc<EngineMetrics>,
    skel: &Skel<P, R>,
    input: P,
) -> SkelFuture<R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    let (future, promise) = pair::<R>();
    let tracing = !registry.is_empty();
    let span = metrics.probe(&*clock);
    let mut ctx = context(pool, registry, clock, tracing, span, &promise);
    start(&mut ctx, skel.node(), Box::new(input), deliver(promise));
    future
}

/// Entry point used by [`crate::Engine::submit_batch`].
///
/// Each input gets its own submission context, future and promise —
/// poisoning stays per item, exactly as with [`submit`] — but instead of
/// scheduling each root step individually (one injector push and one
/// worker wake per item), the whole batch is handed to the pool through
/// one `ResizablePool::submit_batch` call. The root step (including a
/// structural root's inline recursion) therefore runs on a worker rather
/// than the submitting thread; structural kinds carry no muscle-thread
/// guarantee, so the event contract is unchanged.
pub(crate) fn submit_batch<P, R>(
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    metrics: Arc<EngineMetrics>,
    skel: &Skel<P, R>,
    inputs: Vec<P>,
) -> Vec<SkelFuture<R>>
where
    P: Send + 'static,
    R: Send + 'static,
{
    let tracing = !registry.is_empty();
    // One enabled check and one clock read for the whole batch; every
    // item's span shares the submit timestamp.
    let submitted_at = if metrics.enabled() {
        Some(clock.now().0.max(1))
    } else {
        None
    };
    let mut futures = Vec::with_capacity(inputs.len());
    let mut tasks: Vec<Task> = Vec::with_capacity(inputs.len());
    for input in inputs {
        let (future, promise) = pair::<R>();
        let span = submitted_at.map(|at| metrics.probe_at(at));
        let ctx = context(
            pool.clone(),
            Arc::clone(&registry),
            Arc::clone(&clock),
            tracing,
            span,
            &promise,
        );
        let done = deliver(promise);
        tasks.push(ctx.task(Arc::clone(skel.node()), move |ctx, node| {
            start(ctx, &node, Box::new(input), done)
        }));
        futures.push(future);
    }
    pool.submit_batch(tasks);
    futures
}
