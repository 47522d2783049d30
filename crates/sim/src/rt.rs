//! The discrete-event runtime: virtual clock, worker slots, policy-ordered
//! ready/completion queues, and component ticks — and the [`Runtime`]
//! hooks that run `askel-engine`'s interpreter on them.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use askel_engine::error::panic_message;
use askel_engine::exec::{self, Runtime, Step};
use askel_engine::EngineError;
use askel_events::{ListenerRegistry, Trace};
use askel_pool::PoolTelemetry;
use askel_skeletons::{Clock, Data, ManualClock, MuscleId, Node, TimeNs};

use crate::components::{Command, Component};
use crate::cost::{CostModel, MuscleCall};
use crate::sched::{EventQueue, OrderingPolicy, ReadyQueue};
use crate::workers::WorkerModel;
use crate::{SimError, SimLpControl};

/// A unit of simulated work: a dispatched step, or the rest of a step
/// resumed when its muscle's virtual duration has elapsed.
type SimWork = Box<dyn FnOnce(&mut SimRt)>;

/// A ready task plus the placement annotation of the node that produced
/// it (`None` = run anywhere).
struct ReadyTask {
    placement: Option<Arc<str>>,
    work: SimWork,
}

/// A scheduled chain continuation: the slot it occupies and the work to
/// resume. Timing and tie-breaking live in the [`EventQueue`].
struct Completion {
    work: SimWork,
    slot: usize,
}

/// The simulator's mutable state, threaded through every work step.
pub(crate) struct SimRt {
    now: TimeNs,
    clock: Arc<ManualClock>,
    registry: Arc<ListenerRegistry>,
    cost: Arc<dyn CostModel>,
    telemetry: Arc<PoolTelemetry>,
    lp_control: SimLpControl,
    ready: ReadyQueue<ReadyTask>,
    completions: EventQueue<Completion>,
    workers: Box<dyn WorkerModel>,
    /// Slots currently running a chain.
    occupied: BTreeSet<usize>,
    /// Slots below capacity and not occupied — kept in lock-step with
    /// `occupied` so slot picks are O(log n) instead of O(capacity).
    free: BTreeSet<usize>,
    muscle_counts: HashMap<MuscleId, u64>,
    /// Duration of the muscle the running step just metered.
    metered: TimeNs,
    /// Set by [`Runtime::resume`]: the running step's chain stays busy
    /// for the duration, then continues with the work.
    pending: Option<(TimeNs, SimWork)>,
    /// Scheduler events processed: work-step executions + component ticks.
    events: u64,
    /// Results of finished stream items, filled by per-item root
    /// continuations during [`run_stream`].
    stream_done: Vec<(usize, Data)>,
    error: Option<SimError>,
}

impl SimRt {
    /// Queues a dispatched step on the policy-ordered ready pool, tagged
    /// with the placement annotation of its node.
    fn push_ready(&mut self, node: Arc<Node>, step: impl Step<Self>) {
        self.ready.push(ReadyTask {
            placement: node.placement.clone(),
            work: Box::new(move |rt| step(rt, node)),
        });
    }

    /// Poisons the run (first failure wins).
    fn poison(&mut self, err: SimError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    /// Recomputes the free-slot set from capacity and occupancy. Called on
    /// construction, capacity changes, and stream error resets.
    fn rebuild_free(&mut self) {
        let capacity = self.workers.capacity();
        self.free = (0..capacity)
            .filter(|s| !self.occupied.contains(s))
            .collect();
    }

    fn apply_lp_request(&mut self) {
        if let Some(lp) = self.lp_control.take() {
            if lp != self.workers.capacity() {
                self.workers.set_capacity(lp);
                self.telemetry
                    .record_target(self.now, self.workers.capacity());
                self.rebuild_free();
            }
        }
    }

    /// Picks the next `(ready index, worker slot)` pair to start, or
    /// `None` if nothing can start right now.
    ///
    /// Candidates are visited in the ordering policy's dispatch order
    /// (LIFO under `Deterministic` — the pre-refactor discipline). An
    /// unannotated task always takes the lowest free slot. A task whose
    /// placement names a currently-enabled node is **hard-constrained** to
    /// that node's slots (it waits, letting older ready tasks start, when
    /// the node is fully busy); a placement naming no enabled slot falls
    /// back to running anywhere, so placement can never stall the run.
    fn pick_ready(&self) -> Option<(usize, usize)> {
        let capacity = self.workers.capacity();
        let lowest_free = *self.free.first()?;
        for i in self.ready.order() {
            match &self.ready.get(i).placement {
                Some(p) if self.workers.placement_enabled(p) => {
                    // Prefer the model's contiguous slot-block hint
                    // (O(log n)); fall back to probing each free slot.
                    let slot = match self.workers.slot_range(p) {
                        Some((lo, hi)) => self
                            .free
                            .range(lo.max(lowest_free)..hi.min(capacity))
                            .next()
                            .copied(),
                        None => self
                            .free
                            .range(lowest_free..capacity)
                            .find(|&&s| self.workers.slot_matches(s, p))
                            .copied(),
                    };
                    if let Some(slot) = slot {
                        return Some((i, slot));
                    }
                    // The node exists but is fully busy: this task waits
                    // for it; another candidate may still start elsewhere.
                }
                _ => return Some((i, lowest_free)),
            }
        }
        None
    }

    fn execute(&mut self, work: SimWork, slot: usize, overhead: TimeNs) {
        self.events += 1;
        self.guarded(work);
        match self.pending.take() {
            Some((dur, then)) => {
                // Asymmetric node speeds: the slot's cost factor scales
                // the muscle duration (not the communication overhead).
                let factor = self.workers.cost_factor(slot);
                let dur = if factor == 1.0 {
                    dur
                } else {
                    TimeNs(((dur.0 as f64) * factor.max(0.0)).round() as u64)
                };
                self.workers.note_busy(slot, dur + overhead);
                self.completions
                    .push(self.now + dur + overhead, Completion { work: then, slot });
            }
            None => {
                self.occupied.remove(&slot);
                if slot < self.workers.capacity() {
                    self.free.insert(slot);
                }
                self.telemetry.record_task_end(self.now, false);
            }
        }
    }

    /// One scheduling round: apply pending LP requests, start every ready
    /// task a free slot will take, then advance virtual time to the next
    /// component tick or completion (ties tick components first, so a
    /// component observes the world as of strictly-earlier events).
    ///
    /// Returns `false` when the machine can make no further progress —
    /// drained, stalled, or poisoned.
    fn step(&mut self, components: &mut [Box<dyn Component>]) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.apply_lp_request();
        // Start ready work while worker slots are free. The slot's
        // communication overhead (zero for local workers) is charged on
        // the chain's first busy segment.
        loop {
            if self.ready.is_empty() {
                break;
            }
            let Some((index, slot)) = self.pick_ready() else {
                break;
            };
            self.occupied.insert(slot);
            self.free.remove(&slot);
            let task = self.ready.remove(index);
            let overhead = self.workers.chain_overhead(slot);
            self.telemetry.record_task_start(self.now);
            self.execute(task.work, slot, overhead);
            if self.error.is_some() {
                return false;
            }
            self.apply_lp_request();
        }
        // Advance virtual time. Components only tick while completions
        // are pending: an idle machine costs nothing and the simulation
        // terminates regardless of what components would like next.
        let Some(completion_at) = self.completions.peek_at() else {
            if !self.ready.is_empty() && self.occupied.is_empty() {
                let (at, ready) = (self.now, self.ready.len());
                self.poison(SimError::Stalled { at, ready });
            }
            return false;
        };
        if !components.is_empty() {
            let due: Vec<(usize, TimeNs)> = components
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.next_tick(self.now).map(|t| (i, t)))
                .collect();
            if let Some(tick_at) = due
                .iter()
                .map(|&(_, t)| t)
                .min()
                .filter(|&t| t <= completion_at)
            {
                self.now = self.now.max(tick_at);
                self.clock.advance_to(self.now);
                for (i, t) in due {
                    if t <= self.now {
                        self.events += 1;
                        for cmd in components[i].tick(self.now) {
                            match cmd {
                                Command::RequestLp(lp) => self.lp_control.request(lp),
                            }
                        }
                    }
                }
                return true;
            }
        }
        let Some((at, c)) = self.completions.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        self.clock.advance_to(self.now);
        self.execute(c.work, c.slot, TimeNs::ZERO);
        true
    }

    /// Drops every queued task and in-flight completion (stream error
    /// recovery: the whole simulated machine is poisoned and reset).
    fn reset_machine(&mut self) {
        self.ready.clear();
        self.completions.clear();
        self.stream_done.clear();
        self.occupied.clear();
        self.rebuild_free();
    }
}

/// Scheduler totals for one streamed run (erased layer).
pub(crate) struct StreamStats {
    /// Scheduler events processed (work steps + component ticks).
    pub(crate) events: u64,
    /// Virtual time when the stream drained.
    pub(crate) finished_at: TimeNs,
}

/// Streams items through one persistent simulated machine.
///
/// The runtime survives across items: worker occupancy, virtual time,
/// *and per-muscle invocation counters* carry over — matching a
/// long-lived threaded engine fed a stream, which is exactly the regime
/// the adapt stack tunes. Up to `window` items are in flight at once
/// (`window == 1` is strict lock-step: `source(i)` → run → `sink(i)` →
/// `source(i + 1)`). `source` is polled with the next item index and
/// ends the stream by returning `None`; `sink` observes every item's
/// outcome in completion order.
///
/// Error semantics: a failure poisons the *whole machine* — every item
/// then in flight is reported failed with the same error and the queues
/// are reset — because in-flight items share worker slots and one
/// poisoned chain cannot be unwound from under its neighbours. With
/// `window == 1` this degrades to the obvious per-item error reporting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stream(
    registry: Arc<ListenerRegistry>,
    clock: Arc<ManualClock>,
    telemetry: Arc<PoolTelemetry>,
    cost: Arc<dyn CostModel>,
    workers: Box<dyn WorkerModel>,
    lp_control: SimLpControl,
    policy: OrderingPolicy,
    window: usize,
    source: &mut dyn FnMut(usize) -> Option<(Arc<Node>, Data)>,
    sink: &mut dyn FnMut(usize, Result<Data, SimError>),
    components: &mut [Box<dyn Component>],
) -> (StreamStats, Box<dyn WorkerModel>) {
    let window = window.max(1);
    let mut rt = SimRt {
        now: clock.now(),
        clock,
        registry,
        cost,
        telemetry,
        lp_control,
        ready: ReadyQueue::new(policy),
        completions: EventQueue::new(policy),
        workers,
        occupied: BTreeSet::new(),
        free: BTreeSet::new(),
        muscle_counts: HashMap::new(),
        metered: TimeNs::ZERO,
        pending: None,
        events: 0,
        stream_done: Vec::new(),
        error: None,
    };
    rt.rebuild_free();
    let mut next_index = 0usize;
    let mut in_flight: Vec<usize> = Vec::new();
    let mut source_done = false;
    loop {
        while !source_done && in_flight.len() < window {
            match source(next_index) {
                Some((node, input)) => {
                    let index = next_index;
                    next_index += 1;
                    in_flight.push(index);
                    exec::start(&mut rt, &node, input, move |rt: &mut SimRt, data| {
                        rt.stream_done.push((index, data));
                    });
                }
                None => source_done = true,
            }
        }
        if in_flight.is_empty() {
            // The submit loop only exits with nothing in flight once the
            // source is exhausted.
            break;
        }
        // Drive the machine until an item finishes, the run poisons, or
        // nothing can make progress.
        loop {
            let progressed = rt.step(components);
            if !rt.stream_done.is_empty() || rt.error.is_some() || !progressed {
                break;
            }
        }
        if let Some(err) = rt.error.take() {
            for index in in_flight.drain(..) {
                sink(index, Err(err.clone()));
            }
            rt.reset_machine();
            continue;
        }
        if rt.stream_done.is_empty() {
            // Machine drained with items still in flight: stalled.
            let err = SimError::Stalled {
                at: rt.now,
                ready: rt.ready.len(),
            };
            for index in in_flight.drain(..) {
                sink(index, Err(err.clone()));
            }
            rt.reset_machine();
            continue;
        }
        for (index, data) in std::mem::take(&mut rt.stream_done) {
            in_flight.retain(|&i| i != index);
            sink(index, Ok(data));
        }
    }
    // An LP request made by the last event outlives the stream, as it
    // would on a threaded engine.
    rt.apply_lp_request();
    let stats = StreamStats {
        events: rt.events,
        finished_at: rt.now,
    };
    (stats, rt.workers)
}

/// The discrete-event implementation of the interpreter's hooks. Every
/// dispatch hook queues the step on the ready pool under its node's
/// placement, so each muscle-kind step, merge and while iteration is one
/// scheduler event; a muscle call is charged its cost-model duration
/// and the step resumes as a completion that much later.
impl Runtime for SimRt {
    type Batch = ();

    fn run_step(&mut self, node: Arc<Node>, step: impl Step<Self>) {
        self.push_ready(node, step);
    }

    fn submit(&mut self, node: Arc<Node>, step: impl Step<Self>) {
        self.push_ready(node, step);
    }

    fn new_batch(&self, _siblings: usize) {}

    fn push_batch(&mut self, _batch: &mut (), node: Arc<Node>, step: impl Step<Self>) {
        self.push_ready(node, step);
    }

    fn submit_batch(&mut self, _batch: ()) {}

    /// Asks the cost model for this invocation's duration and advances
    /// the muscle's invocation counter.
    fn meter(&mut self, muscle: MuscleId, items: usize, input: &dyn Any) {
        let count = self.muscle_counts.entry(muscle).or_insert(0);
        let seq_no = *count;
        *count += 1;
        self.metered = self.cost.duration(&MuscleCall {
            muscle,
            role: muscle.role,
            seq_no,
            items,
            payload: input,
        });
    }

    fn resume<T: Send + 'static>(
        &mut self,
        value: T,
        then: impl FnOnce(&mut Self, T) + Send + 'static,
    ) {
        let dur = std::mem::replace(&mut self.metered, TimeNs::ZERO);
        debug_assert!(self.pending.is_none(), "one resume per step");
        self.pending = Some((dur, Box::new(move |rt| then(rt, value))));
    }

    fn now(&self) -> TimeNs {
        self.now
    }

    fn registry(&self) -> &ListenerRegistry {
        &self.registry
    }

    /// Always on: instance identities are built whether or not a
    /// listener is registered yet, and cost models see a merge's input
    /// as the plain `Vec<Data>` of partial results.
    fn tracing(&self) -> bool {
        true
    }

    fn empty_trace(&self) -> Trace {
        Trace::empty()
    }

    fn fail(&mut self, err: EngineError) {
        self.poison(err.into());
    }

    fn guarded(&mut self, step: impl FnOnce(&mut Self)) {
        if self.error.is_some() {
            return;
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| step(self))) {
            self.pending = None;
            self.metered = TimeNs::ZERO;
            self.poison(SimError::MusclePanic(panic_message(p.as_ref())));
        }
    }
}
