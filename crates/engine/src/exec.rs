//! The continuation-passing skeleton interpreter, written once and run by
//! two runtimes.
//!
//! The per-kind interpretation below is generic over a [`Runtime`]: the
//! threaded engine runs it over the worker pool (`SubCtx`, see
//! `pooled.rs`), and `askel-sim` runs the very same code under virtual
//! time on its discrete-event scheduler. Everything that differs between
//! the two is a trait hook — dispatch, the muscle call, the clock, event
//! emission, failure and the step guard — so both runtimes raise the same
//! event sequences by construction (`docs/ARCHITECTURE.md`, "One
//! interpreter, two runtimes").
//!
//! Execution discipline:
//!
//! * kinds that own muscles (`seq`, `map`, `fork`, `d&C`, `while`, `if`)
//!   run each muscle inside **one dispatched step**, emitting the
//!   bracketing events on the thread that executes it; the muscle call
//!   itself goes through [`Runtime::meter`] and [`Runtime::resume`], so a
//!   runtime may charge it a duration and resume the step later;
//! * purely structural kinds (`farm`, `pipe`, `for`) emit their
//!   skeleton-level events inline on the scheduling/continuation thread —
//!   they have no muscle for the thread guarantee to bind to;
//! * `map`/`fork`/`d&C` children are fanned out via a `Join`; the
//!   merge is started by the last child to finish, on its thread;
//! * every step body (muscle + listeners + continuation) runs under the
//!   runtime's step guard ([`Runtime::guarded`]): a panic poisons the
//!   submission and short-circuits its remaining steps.
//!
//! Dispatch detail: a fan-out hands all children *but the last* to the
//! runtime — [`Runtime::submit`] for the binary d&C case, one batch
//! ([`Runtime::push_batch`], [`Runtime::submit_batch`]) for wider splits
//! — and then schedules the last child with [`Runtime::run_step`], like
//! rayon's `join`: sequential by default, parallel when workers are idle
//! and steal the batched siblings. Single-continuation steps (pipe
//! stages, while/for iterations, the fan-out merge returned by
//! `Join::complete` to its last-completing child, the last child
//! itself) also go through [`Runtime::run_step`]. The pool runtime runs
//! such a step inline on the current worker while a depth cap allows;
//! the discrete-event runtime queues every dispatched step on its ready
//! pool, one scheduler event each.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;

use askel_events::{Event, EventInfo, ListenerRegistry, Payload, Trace, When, Where};
use askel_skeletons::{
    Data, EvalError, InstanceId, KindTag, MuscleId, MuscleRole, Node, NodeKind, TimeNs,
};

use crate::error::EngineError;

/// A dispatched step: resumes interpretation on the runtime, receiving
/// back the node it was dispatched for.
pub trait Step<R>: FnOnce(&mut R, Arc<Node>) + Send + 'static {}

impl<R, F: FnOnce(&mut R, Arc<Node>) + Send + 'static> Step<R> for F {}

/// The machine the interpreter runs on.
///
/// Implemented by the threaded engine's per-submission context and by
/// the simulator's discrete-event runtime. All calls are statically
/// dispatched: the interpreter is monomorphized once per runtime.
pub trait Runtime: Sized + 'static {
    /// A fan-out's sibling steps awaiting one bulk submission.
    type Batch;

    /// Dispatches a single-continuation step: a muscle kind's entry in
    /// tail position, a while iteration, a merge, a fan-out's last child.
    fn run_step(&mut self, node: Arc<Node>, step: impl Step<Self>);

    /// Dispatches the lone sibling of a binary fan-out.
    fn submit(&mut self, node: Arc<Node>, step: impl Step<Self>);

    /// An empty batch with room for `siblings` steps.
    fn new_batch(&self, siblings: usize) -> Self::Batch;

    /// Adds one sibling of a wider fan-out to `batch`.
    fn push_batch(&mut self, batch: &mut Self::Batch, node: Arc<Node>, step: impl Step<Self>);

    /// Hands a fan-out's batched siblings over in one submission.
    fn submit_batch(&mut self, batch: Self::Batch);

    /// Announces the muscle call about to run, before it consumes its
    /// input: `items` is 1 for single values and the list length for a
    /// merge, `input` the payload the muscle receives.
    fn meter(&mut self, muscle: MuscleId, items: usize, input: &dyn Any);

    /// Continues a step after its muscle call produced `value`: now, or
    /// once the metered duration has elapsed.
    fn resume<T: Send + 'static>(
        &mut self,
        value: T,
        then: impl FnOnce(&mut Self, T) + Send + 'static,
    );

    /// Event timestamp source.
    fn now(&self) -> TimeNs;

    /// The listeners events are emitted to.
    fn registry(&self) -> &ListenerRegistry;

    /// Whether this submission builds instance ids and traces and emits
    /// events at all. When false the whole event path is skipped.
    fn tracing(&self) -> bool;

    /// The stand-in trace for instances of an untraced submission.
    fn empty_trace(&self) -> Trace;

    /// Poisons the submission (the first failure wins).
    fn fail(&mut self, err: EngineError);

    /// Runs `step` unless the submission is poisoned, and poisons it
    /// with [`EngineError::MusclePanic`] if the step panics. Every
    /// dispatched step runs under this guard.
    fn guarded(&mut self, step: impl FnOnce(&mut Self));

    /// Emits one event to the registry's listeners.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        node: &Node,
        trace: &Trace,
        index: InstanceId,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) {
        if !self.tracing() || self.registry().is_empty() {
            return;
        }
        let event = Event {
            node: node.id,
            kind: node.tag(),
            when,
            wher,
            index,
            trace: trace.clone(),
            timestamp: self.now(),
            info,
        };
        self.registry().emit(payload, &event);
    }
}

/// Interprets `node` on `input` under the runtime's step guard; `done`
/// receives the root result on the thread (or at the virtual instant)
/// that produced it.
pub fn start<R: Runtime>(
    rt: &mut R,
    node: &Arc<Node>,
    input: Data,
    done: impl FnOnce(&mut R, Data) + Send + 'static,
) {
    rt.guarded(|rt| schedule_node(rt, node, None, input, Cont::f(done)));
}

/// Continuation invoked with a node's result, on the thread that produced
/// it.
///
/// The `Join` variant is the fan-out fast path: instead of boxing a
/// fresh closure (plus `Arc` bumps for the parent node and trace) for
/// every child, a child carries only the shared join handle and its
/// slot index — the parent context lives once, inside the [`Join`].
type BoxedCont<R> = Box<dyn FnOnce(&mut R, Data) + Send>;

enum Cont<R> {
    /// A boxed general continuation.
    F(BoxedCont<R>),
    /// The k-th child of a fan-out completes into its join.
    Join { join: Arc<Join<R>>, k: usize },
}

impl<R: Runtime> Cont<R> {
    fn f(f: impl FnOnce(&mut R, Data) + Send + 'static) -> Self {
        Cont::F(Box::new(f))
    }

    fn run(self, rt: &mut R, mut data: Data) {
        match self {
            Cont::F(f) => f(rt, data),
            Cont::Join { join, k } => {
                rt.emit(
                    &join.node,
                    &join.trace,
                    join.inst,
                    When::After,
                    Where::NestedSkeleton,
                    EventInfo::ChildIndex(k),
                    &mut Payload::Single(&mut data),
                );
                match join.complete(k, data) {
                    Ok(Some((slots, cont))) => spawn_merge(
                        rt,
                        Arc::clone(&join.node),
                        join.trace.clone(),
                        join.inst,
                        slots,
                        cont,
                    ),
                    Ok(None) => {}
                    // A racing failure (e.g. a sibling's poisoned retry
                    // path) left the join inconsistent: poison the
                    // submission instead of panicking the worker.
                    Err(msg) => rt.fail(EngineError::Internal(msg)),
                }
            }
        }
    }
}

/// Collects fan-out results in sub-problem order and owns the parent's
/// continuation plus the parent instance's identity (node, trace,
/// instance id) — stored once here rather than cloned into every child;
/// the closer (last child) receives the full result vector together with
/// the continuation.
struct Join<R> {
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    /// Slots, countdown and continuation under **one** lock: a
    /// completing child takes exactly one uncontended lock acquisition
    /// instead of a lock + an atomic (+ two more locks for the closer).
    state: Mutex<JoinState<R>>,
}

struct JoinState<R> {
    slots: Vec<Option<Data>>,
    remaining: usize,
    cont: Option<Cont<R>>,
}

impl<R: Runtime> Join<R> {
    fn new(n: usize, cont: Cont<R>, node: Arc<Node>, trace: Trace, inst: InstanceId) -> Arc<Self> {
        Arc::new(Join {
            node,
            trace,
            inst,
            state: Mutex::new(JoinState {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
                cont: Some(cont),
            }),
        })
    }

    /// Records child `k`'s result. For the closing child, returns the
    /// full slot vector (in sub-problem order, every slot filled)
    /// together with the parent's continuation — handed over **as-is**,
    /// without re-collecting into a `Vec<Data>`; the merge consumes it
    /// directly via [`askel_skeletons::MergeFn::call_slots`].
    ///
    /// Inconsistencies (a child completing twice, the continuation
    /// already consumed) are reported as `Err` instead of panicking: the
    /// caller routes them through [`Runtime::fail`], so a race against a
    /// poisoned sibling poisons the submission rather than the worker.
    #[allow(clippy::type_complexity)]
    fn complete(
        &self,
        k: usize,
        value: Data,
    ) -> Result<Option<(Vec<Option<Data>>, Cont<R>)>, &'static str> {
        let mut state = self.state.lock();
        match state.slots.get_mut(k) {
            Some(slot @ None) => *slot = Some(value),
            Some(Some(_)) => return Err("fan-out child completed its join twice"),
            None => return Err("fan-out child index out of join bounds"),
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            let slots = std::mem::take(&mut state.slots);
            match state.cont.take() {
                Some(cont) => Ok(Some((slots, cont))),
                None => Err("fan-out join continuation consumed twice"),
            }
        } else {
            Ok(None)
        }
    }
}

/// Allocates the instance identity (fresh id + extended trace) for one
/// scheduled node — or the shared zero-cost stand-ins when no listener
/// can observe this submission.
fn instance<R: Runtime>(rt: &R, node: &Node, parent: Option<&Trace>) -> (InstanceId, Trace) {
    if rt.tracing() {
        let inst = InstanceId::fresh();
        let trace = match parent {
            Some(t) => t.child(node.id, inst, node.tag()),
            None => Trace::root(node.id, inst, node.tag()),
        };
        (inst, trace)
    } else {
        // No listener can observe this submission: skip the id and the
        // per-node trace allocation entirely.
        (InstanceId(0), rt.empty_trace())
    }
}

/// Runs the entry step of a muscle-owning kind. Must not be called for
/// structural kinds — the dispatchers below route those to `exec_*`.
fn muscle_step<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
) {
    match node.tag() {
        KindTag::Seq => step_seq(rt, node, trace, inst, data, cont),
        KindTag::While => step_while(rt, node, trace, inst, data, cont, 0),
        KindTag::If => step_if(rt, node, trace, inst, data, cont),
        KindTag::Map => step_map(rt, node, trace, inst, data, cont),
        KindTag::Fork => step_fork(rt, node, trace, inst, data, cont),
        KindTag::DivideConquer => step_dac(rt, node, trace, inst, data, cont),
        tag => unreachable!("muscle_step on structural kind {tag:?}"),
    }
}

/// Where a scheduled muscle-kind step goes. Structural kinds always
/// execute inline regardless of the sink; this only picks the dispatch
/// hook for the entry step of muscle-owning kinds.
enum Sink<'a, R: Runtime> {
    /// [`Runtime::run_step`] — the tail-position single-continuation
    /// path.
    Run,
    /// [`Runtime::submit`] (a binary fan-out's lone sibling).
    Submit,
    /// [`Runtime::push_batch`] into a fan-out batch.
    Batch(&'a mut R::Batch),
}

/// Schedules the execution of `node` on `data` into `sink`; `cont`
/// receives the result.
///
/// Structural kinds (`farm`, `pipe`, `for`) emit their events and
/// recurse inline, as always. For muscle kinds, [`Sink::Run`] call
/// sites are tail positions scheduling exactly one follow-on step (a
/// pipe's next stage, an if/farm/d&C-leaf body, a for iteration, a
/// fan-out's last child); fan-out siblings use
/// [`Sink::Submit`]/[`Sink::Batch`] so thieves can take them.
fn schedule_node_to<R: Runtime>(
    rt: &mut R,
    node: &Arc<Node>,
    parent: Option<&Trace>,
    data: Data,
    cont: Cont<R>,
    sink: Sink<'_, R>,
) {
    let (inst, trace) = instance(rt, node, parent);
    let node = Arc::clone(node);
    match node.tag() {
        KindTag::Farm => exec_farm(rt, node, trace, inst, data, cont),
        KindTag::Pipe => exec_pipe(rt, node, trace, inst, data, cont),
        KindTag::For => exec_for(rt, node, trace, inst, data, cont),
        _ => {
            let step = move |rt: &mut R, node| muscle_step(rt, node, trace, inst, data, cont);
            match sink {
                Sink::Run => rt.run_step(node, step),
                Sink::Submit => rt.submit(node, step),
                Sink::Batch(batch) => rt.push_batch(batch, node, step),
            }
        }
    }
}

/// [`schedule_node_to`] with the [`Sink::Run`] path — the common
/// single-continuation case.
fn schedule_node<R: Runtime>(
    rt: &mut R,
    node: &Arc<Node>,
    parent: Option<&Trace>,
    data: Data,
    cont: Cont<R>,
) {
    schedule_node_to(rt, node, parent, data, cont, Sink::Run);
}

fn step_seq<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
) {
    let mut data = data;
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Seq { fe } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    rt.meter(MuscleId::new(node.id, MuscleRole::Execute), 1, &*data);
    let out = fe.call(data);
    rt.resume(out, move |rt, mut out| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut out),
        );
        cont.run(rt, out);
    });
}

/// The continuation closing a single-child instance (a farm body, an if
/// branch, a d&C base case): `After` the nested child `k`, then `After`
/// the skeleton. The wrapper only emits events, so with no listener the
/// parent's continuation passes through without a fresh box.
fn close_after_child<R: Runtime>(
    rt: &R,
    node: &Arc<Node>,
    trace: &Trace,
    inst: InstanceId,
    k: usize,
    cont: Cont<R>,
) -> Cont<R> {
    if !rt.tracing() {
        return cont;
    }
    let node = Arc::clone(node);
    let trace = trace.clone();
    Cont::f(move |rt: &mut R, mut out| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::NestedSkeleton,
            EventInfo::ChildIndex(k),
            &mut Payload::Single(&mut out),
        );
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut out),
        );
        cont.run(rt, out);
    })
}

fn exec_farm<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont<R>,
) {
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::ChildIndex(0),
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Farm { inner } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let inner = Arc::clone(inner);
    let cont = close_after_child(rt, &node, &trace, inst, 0, cont);
    schedule_node(rt, &inner, Some(&trace), data, cont);
}

fn exec_pipe<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont<R>,
) {
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    pipe_stage(rt, node, trace, inst, data, cont, 0);
}

fn pipe_stage<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont<R>,
    k: usize,
) {
    let NodeKind::Pipe { stages } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    if k == stages.len() {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
        cont.run(rt, data);
        return;
    }
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::ChildIndex(k),
        &mut Payload::Single(&mut data),
    );
    let stage = Arc::clone(&stages[k]);
    let node2 = Arc::clone(&node);
    let trace2 = trace.clone();
    schedule_node(
        rt,
        &stage,
        Some(&trace),
        data,
        Cont::f(move |rt: &mut R, mut out| {
            rt.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::NestedSkeleton,
                EventInfo::ChildIndex(k),
                &mut Payload::Single(&mut out),
            );
            pipe_stage(rt, node2, trace2, inst, out, cont, k + 1);
        }),
    );
}

fn step_while<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
    iter: usize,
) {
    let mut data = data;
    if iter == 0 {
        rt.emit(
            &node,
            &trace,
            inst,
            When::Before,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
    }
    let NodeKind::While { fc, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Condition,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    rt.meter(MuscleId::new(node.id, MuscleRole::Condition), 1, &*data);
    let verdict = fc.call(&data);
    rt.resume(verdict, move |rt, verdict| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Condition,
            EventInfo::ConditionResult(verdict),
            &mut Payload::Single(&mut data),
        );
        if verdict {
            rt.emit(
                &node,
                &trace,
                inst,
                When::Before,
                Where::NestedSkeleton,
                EventInfo::ChildIndex(iter),
                &mut Payload::Single(&mut data),
            );
            let NodeKind::While { inner, .. } = &node.kind else {
                unreachable!("tag checked by dispatcher")
            };
            let inner = Arc::clone(inner);
            let node2 = Arc::clone(&node);
            let trace2 = trace.clone();
            schedule_node(
                rt,
                &inner,
                Some(&trace),
                data,
                Cont::f(move |rt: &mut R, mut out| {
                    rt.emit(
                        &node2,
                        &trace2,
                        inst,
                        When::After,
                        Where::NestedSkeleton,
                        EventInfo::ChildIndex(iter),
                        &mut Payload::Single(&mut out),
                    );
                    rt.run_step(node2, move |rt, node| {
                        step_while(rt, node, trace2, inst, out, cont, iter + 1)
                    });
                }),
            );
        } else {
            rt.emit(
                &node,
                &trace,
                inst,
                When::After,
                Where::Skeleton,
                EventInfo::None,
                &mut Payload::Single(&mut data),
            );
            cont.run(rt, data);
        }
    });
}

fn step_if<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
) {
    let mut data = data;
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::If { fc, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Condition,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    rt.meter(MuscleId::new(node.id, MuscleRole::Condition), 1, &*data);
    let verdict = fc.call(&data);
    rt.resume(verdict, move |rt, verdict| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Condition,
            EventInfo::ConditionResult(verdict),
            &mut Payload::Single(&mut data),
        );
        let NodeKind::If {
            then_branch,
            else_branch,
            ..
        } = &node.kind
        else {
            unreachable!("tag checked by dispatcher")
        };
        let (branch, k) = if verdict {
            (Arc::clone(then_branch), 0)
        } else {
            (Arc::clone(else_branch), 1)
        };
        rt.emit(
            &node,
            &trace,
            inst,
            When::Before,
            Where::NestedSkeleton,
            EventInfo::ChildIndex(k),
            &mut Payload::Single(&mut data),
        );
        let cont = close_after_child(rt, &node, &trace, inst, k, cont);
        schedule_node(rt, &branch, Some(&trace), data, cont);
    });
}

fn exec_for<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont<R>,
) {
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::For { n, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let n = *n;
    if n == 0 {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
        cont.run(rt, data);
        return;
    }
    for_iteration(rt, node, trace, inst, data, cont, 0, n);
}

#[allow(clippy::too_many_arguments)]
fn for_iteration<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont<R>,
    k: usize,
    n: usize,
) {
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::Iteration(k),
        &mut Payload::Single(&mut data),
    );
    let NodeKind::For { inner, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let inner = Arc::clone(inner);
    let node2 = Arc::clone(&node);
    let trace2 = trace.clone();
    schedule_node(
        rt,
        &inner,
        Some(&trace),
        data,
        Cont::f(move |rt: &mut R, mut out| {
            rt.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::NestedSkeleton,
                EventInfo::Iteration(k),
                &mut Payload::Single(&mut out),
            );
            if k + 1 < n {
                for_iteration(rt, node2, trace2, inst, out, cont, k + 1, n);
            } else {
                rt.emit(
                    &node2,
                    &trace2,
                    inst,
                    When::After,
                    Where::Skeleton,
                    EventInfo::None,
                    &mut Payload::Single(&mut out),
                );
                cont.run(rt, out);
            }
        }),
    );
}

fn step_map<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
) {
    let mut data = data;
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Map { fs, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Split,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    rt.meter(MuscleId::new(node.id, MuscleRole::Split), 1, &*data);
    let parts = fs.call(data);
    rt.resume(parts, move |rt, mut parts| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Split,
            EventInfo::SplitCardinality(parts.len()),
            &mut Payload::Many(&mut parts),
        );
        fan_out(rt, node, trace, inst, parts, cont, |node, _| {
            let NodeKind::Map { inner, .. } = &node.kind else {
                unreachable!()
            };
            Arc::clone(inner)
        });
    });
}

fn step_fork<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
) {
    let mut data = data;
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Fork { fs, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Split,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    rt.meter(MuscleId::new(node.id, MuscleRole::Split), 1, &*data);
    let parts = fs.call(data);
    rt.resume(parts, move |rt, mut parts| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Split,
            EventInfo::SplitCardinality(parts.len()),
            &mut Payload::Many(&mut parts),
        );
        let NodeKind::Fork { inners, .. } = &node.kind else {
            unreachable!("tag checked by dispatcher")
        };
        if parts.len() != inners.len() {
            rt.fail(EngineError::Eval(EvalError::ForkArityMismatch {
                node: node.id,
                branches: inners.len(),
                produced: parts.len(),
            }));
            return;
        }
        fan_out(rt, node, trace, inst, parts, cont, |node, k| {
            let NodeKind::Fork { inners, .. } = &node.kind else {
                unreachable!()
            };
            Arc::clone(&inners[k])
        });
    });
}

fn step_dac<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont<R>,
) {
    let mut data = data;
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::DivideConquer { fc, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    rt.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Condition,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    rt.meter(MuscleId::new(node.id, MuscleRole::Condition), 1, &*data);
    let divide = fc.call(&data);
    rt.resume(divide, move |rt, divide| {
        rt.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Condition,
            EventInfo::ConditionResult(divide),
            &mut Payload::Single(&mut data),
        );
        let NodeKind::DivideConquer { fs, inner, .. } = &node.kind else {
            unreachable!("tag checked by dispatcher")
        };
        if divide {
            rt.emit(
                &node,
                &trace,
                inst,
                When::Before,
                Where::Split,
                EventInfo::None,
                &mut Payload::Single(&mut data),
            );
            rt.meter(MuscleId::new(node.id, MuscleRole::Split), 1, &*data);
            let parts = fs.call(data);
            rt.resume(parts, move |rt, mut parts| {
                rt.emit(
                    &node,
                    &trace,
                    inst,
                    When::After,
                    Where::Split,
                    EventInfo::SplitCardinality(parts.len()),
                    &mut Payload::Many(&mut parts),
                );
                if parts.is_empty() {
                    rt.fail(EngineError::Eval(EvalError::EmptySplit { node: node.id }));
                    return;
                }
                // Children are new instances of this same d&C node.
                fan_out(rt, node, trace, inst, parts, cont, |node, _| {
                    Arc::clone(node)
                });
            });
        } else {
            rt.emit(
                &node,
                &trace,
                inst,
                When::Before,
                Where::NestedSkeleton,
                EventInfo::ChildIndex(0),
                &mut Payload::Single(&mut data),
            );
            let inner = Arc::clone(inner);
            let cont = close_after_child(rt, &node, &trace, inst, 0, cont);
            schedule_node(rt, &inner, Some(&trace), data, cont);
        }
    });
}

/// Fans `parts` out to child skeletons chosen by `pick_child(node, k)`,
/// joins the results in order, then schedules the merge step which also
/// closes the parent instance (`After, Merge` then `After, Skeleton`).
///
/// All children but the last are handed to the runtime as **one batch**
/// (structural children still start inline), so a wide split costs the
/// pool one queue-lock acquisition instead of one per child. The **last
/// child goes through [`Runtime::run_step`]**: on the pool it runs
/// inline in the parent's task — the parent would otherwise die right
/// after submitting it, and under LIFO scheduling this worker would pop
/// that exact task next anyway — while idle workers steal the batched
/// siblings.
fn fan_out<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    parts: Vec<Data>,
    cont: Cont<R>,
    pick_child: impl Fn(&Arc<Node>, usize) -> Arc<Node> + Copy,
) {
    if parts.is_empty() {
        spawn_merge(rt, node, trace, inst, Vec::new(), cont);
        return;
    }
    let n = parts.len();
    let join = Join::new(n, cont, node, trace, inst);
    // A binary fan-out (every recursive d&C) has exactly one batched
    // sibling: submit it directly and skip the batch.
    let mut batch = rt.new_batch(if n > 2 { n - 1 } else { 0 });
    let mut last: Option<(Arc<Node>, Data)> = None;
    for (k, mut part) in parts.into_iter().enumerate() {
        rt.emit(
            &join.node,
            &join.trace,
            inst,
            When::Before,
            Where::NestedSkeleton,
            EventInfo::ChildIndex(k),
            &mut Payload::Single(&mut part),
        );
        let child = pick_child(&join.node, k);
        if k + 1 == n {
            // Held back: the last child starts only after its siblings
            // are handed over for thieves.
            last = Some((child, part));
        } else {
            let child_cont = Cont::Join {
                join: Arc::clone(&join),
                k,
            };
            let sink = if n == 2 {
                Sink::Submit
            } else {
                Sink::Batch(&mut batch)
            };
            schedule_node_to(rt, &child, Some(&join.trace), part, child_cont, sink);
        }
    }
    rt.submit_batch(batch);
    if let Some((child, part)) = last {
        let child_cont = Cont::Join {
            join: Arc::clone(&join),
            k: n - 1,
        };
        schedule_node(rt, &child, Some(&join.trace), part, child_cont);
    }
}

/// Runs the merge as the step that follows the join's closing child —
/// started by the last child and, on the pool, run on its thread (the
/// paper's discipline and its listener thread guarantee).
fn spawn_merge<R: Runtime>(
    rt: &mut R,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    slots: Vec<Option<Data>>,
    cont: Cont<R>,
) {
    rt.run_step(node, move |rt, node| {
        let fm = match &node.kind {
            NodeKind::Map { fm, .. }
            | NodeKind::Fork { fm, .. }
            | NodeKind::DivideConquer { fm, .. } => fm,
            _ => unreachable!("merge scheduled on a kind without a merge muscle"),
        };
        let muscle = MuscleId::new(node.id, MuscleRole::Merge);
        let out = if rt.tracing() {
            // Listeners may transform the partial results, so the
            // event payload needs the plain vector shape.
            let mut results: Vec<Data> = slots
                .into_iter()
                .map(|s| s.expect("fan-out result slot unfilled at merge"))
                .collect();
            rt.emit(
                &node,
                &trace,
                inst,
                When::Before,
                Where::Merge,
                EventInfo::None,
                &mut Payload::Many(&mut results),
            );
            rt.meter(muscle, results.len(), &results);
            fm.call(results)
        } else {
            // No listener can observe this submission: the join's slot
            // vector feeds the merge muscle as-is, with no re-collect.
            rt.meter(muscle, slots.len(), &slots);
            fm.call_slots(slots)
        };
        rt.resume(out, move |rt, mut out| {
            rt.emit(
                &node,
                &trace,
                inst,
                When::After,
                Where::Merge,
                EventInfo::None,
                &mut Payload::Single(&mut out),
            );
            rt.emit(
                &node,
                &trace,
                inst,
                When::After,
                Where::Skeleton,
                EventInfo::None,
                &mut Payload::Single(&mut out),
            );
            cont.run(rt, out);
        });
    });
}
