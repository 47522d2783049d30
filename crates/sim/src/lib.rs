//! Deterministic discrete-event simulation of skeleton execution.
//!
//! The paper's evaluation ran on a 12-core / 24-thread Xeon; the autonomic
//! *mechanism*, however, is platform independent (the paper says so
//! explicitly, §4/§6). This crate provides that platform as a simulator: it
//! runs `askel-engine`'s interpreter (`askel_engine::exec`) on the same AST,
//! emits the same events through the same listener registry, and honours
//! the same LIFO / no-preemption scheduling discipline — but time is
//! **virtual**: muscle durations come from a [`cost::CostModel`] and a
//! [`ManualClock`] advances through a completion-event queue.
//!
//! Why this exists:
//!
//! * the evaluation figures (Figs. 5–7) need 24 hardware threads to
//!   reproduce; the simulator provides any LP on any host, deterministically;
//! * the autonomic controller (`askel-core`) is a plain event listener with
//!   an LP actuator, so the *identical* controller code runs against either
//!   engine — the simulator changes only where timestamps come from.
//!
//! Internally the simulator is a priority-queue **discrete-event
//! scheduler** ([`sched`]): completions and ready tasks are ordered by
//! virtual timestamp, and *same-timestamp* ties are broken by a pluggable
//! [`OrderingPolicy`]. `Deterministic` (the default) reproduces the
//! historical stable schedule byte-for-byte; `SeededRandom(seed)`
//! permutes exactly the genuinely-concurrent events, turning the
//! simulator into a replay-exact concurrency **fuzzer** for the
//! adapt/offload decision stack (set the `ASKEL_SIM_SEED` env var to
//! reproduce a failing seed from the command line). Long-lived actors —
//! provisioning-policy review points, telemetry samplers — plug in as
//! [`components::Component`]s that tick on virtual time, and
//! [`SimEngine::run_stream`] feeds a whole item stream through one
//! persistent simulated machine (thousands of nodes, millions of items,
//! idle nodes cost nothing).
//!
//! ```
//! use std::sync::Arc;
//! use askel_sim::{cost::TableCost, SimEngine};
//! use askel_skeletons::{map, seq, MuscleId, MuscleRole, TimeNs};
//!
//! let program = map(
//!     |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
//!     seq(|v: Vec<i64>| v[0]),
//!     |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
//! );
//! // Every muscle takes 1s of virtual time.
//! let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
//! let mut sim = SimEngine::new(2, cost);
//! let outcome = sim.run(&program, vec![1, 2, 3, 4]).unwrap();
//! assert_eq!(outcome.result, 10);
//! // split(1s) + 4 executes over 2 workers (2s) + merge(1s) = 4s
//! assert_eq!(outcome.wct, TimeNs::from_secs(4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod components;
pub mod cost;
mod rt;
pub mod sched;
pub mod workers;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_engine::EngineError;
use askel_events::ListenerRegistry;
use askel_pool::PoolTelemetry;
use askel_skeletons::{Clock, Data, EvalError, ManualClock, Skel, TimeNs};

use components::Component;
use cost::CostModel;
pub use sched::OrderingPolicy;
use workers::{UniformWorkers, WorkerModel};

/// Why a simulated run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Structural error (same vocabulary as the reference interpreter).
    Eval(EvalError),
    /// A muscle (or listener) panicked; the panic was caught.
    MusclePanic(String),
    /// Work remained but no worker could ever pick it up (LP driven to 0).
    Stalled {
        /// Virtual time at which the simulation stalled.
        at: TimeNs,
        /// Ready tasks that could not start.
        ready: usize,
    },
    /// The root result failed to downcast (impossible through the typed
    /// API).
    WrongResultType,
    /// The interpreter detected an internal inconsistency (see
    /// [`EngineError::Internal`]).
    Internal(&'static str),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Eval(e) => write!(f, "structural error: {e}"),
            SimError::MusclePanic(m) => write!(f, "muscle panicked: {m}"),
            SimError::Stalled { at, ready } => {
                write!(
                    f,
                    "simulation stalled at {at} with {ready} ready task(s) and LP 0"
                )
            }
            SimError::WrongResultType => write!(f, "root result had an unexpected type"),
            SimError::Internal(m) => write!(f, "interpreter internal error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

/// The interpreter's failures, as the simulator reports them.
impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Eval(e) => SimError::Eval(e),
            EngineError::MusclePanic(m) => SimError::MusclePanic(m),
            EngineError::Internal(m) => SimError::Internal(m),
            EngineError::Shutdown => SimError::Internal("engine shut down"),
        }
    }
}

/// Result of one simulated submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome<R> {
    /// The skeleton's result (computed by the real muscle functions).
    pub result: R,
    /// Virtual time at which the run started.
    pub started_at: TimeNs,
    /// Virtual time at which the result was delivered.
    pub finished_at: TimeNs,
    /// `finished_at - started_at`: the run's wall-clock time.
    pub wct: TimeNs,
}

/// Handle through which a listener (the autonomic controller) requests LP
/// changes while the simulation runs. Requests are applied at the current
/// virtual instant; shrinking never preempts running activities.
#[derive(Clone)]
pub struct SimLpControl {
    request: Arc<AtomicUsize>,
}

impl SimLpControl {
    const NONE: usize = usize::MAX;

    /// Requests that the LP become `lp`.
    pub fn request(&self, lp: usize) {
        self.request.store(lp, Ordering::SeqCst);
    }

    pub(crate) fn take(&self) -> Option<usize> {
        let v = self.request.swap(Self::NONE, Ordering::SeqCst);
        (v != Self::NONE).then_some(v)
    }
}

/// The discrete-event skeleton simulator.
///
/// Reusable: consecutive [`run`](SimEngine::run) calls share the clock
/// (time keeps advancing), the telemetry and the registry, so listeners
/// accumulate history across runs exactly as they would on a long-lived
/// engine.
pub struct SimEngine {
    registry: Arc<ListenerRegistry>,
    clock: Arc<ManualClock>,
    telemetry: Arc<PoolTelemetry>,
    cost: Arc<dyn CostModel>,
    workers: Option<Box<dyn WorkerModel>>,
    lp_control: SimLpControl,
    ordering: OrderingPolicy,
}

impl SimEngine {
    /// A simulator with `lp` identical local workers and the given cost
    /// model.
    pub fn new(lp: usize, cost: Arc<dyn CostModel>) -> Self {
        Self::with_workers(Box::new(UniformWorkers::new(lp)), cost)
    }

    /// A simulator over an explicit worker model (heterogeneous clusters,
    /// per-slot communication overheads — see `askel-dist`).
    pub fn with_workers(workers: Box<dyn WorkerModel>, cost: Arc<dyn CostModel>) -> Self {
        SimEngine {
            registry: ListenerRegistry::new(),
            clock: ManualClock::new(),
            telemetry: Arc::new(PoolTelemetry::new()),
            cost,
            workers: Some(workers),
            lp_control: SimLpControl {
                request: Arc::new(AtomicUsize::new(SimLpControl::NONE)),
            },
            ordering: OrderingPolicy::from_env(),
        }
    }

    /// Sets the same-timestamp [`OrderingPolicy`] (builder style). The
    /// default comes from [`OrderingPolicy::from_env`]: `Deterministic`
    /// unless the `ASKEL_SIM_SEED` env var names a fuzz seed.
    pub fn ordering(mut self, policy: OrderingPolicy) -> Self {
        self.ordering = policy;
        self
    }

    /// The listener registry (identical type to the threaded engine's).
    pub fn registry(&self) -> &Arc<ListenerRegistry> {
        &self.registry
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Arc<ManualClock> {
        &self.clock
    }

    /// Telemetry: active-activity timeline, peak LP, etc.
    pub fn telemetry(&self) -> &Arc<PoolTelemetry> {
        &self.telemetry
    }

    /// The LP-request handle to hand to an autonomic controller.
    pub fn lp_control(&self) -> SimLpControl {
        self.lp_control.clone()
    }

    /// Current LP (between runs; during a run the pending request applies).
    pub fn lp(&self) -> usize {
        self.workers.as_ref().map(|w| w.capacity()).unwrap_or(0)
    }

    /// Sets the LP used by the next run (clamped by the worker model).
    pub fn set_lp(&mut self, lp: usize) {
        if let Some(w) = self.workers.as_mut() {
            w.set_capacity(lp);
        }
    }

    /// Runs one submission to completion in virtual time: a one-item
    /// [`run_stream`](SimEngine::run_stream) with no components.
    pub fn run<P, R>(&mut self, skel: &Skel<P, R>, input: P) -> Result<SimOutcome<R>, SimError>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let mut item = Some((skel.clone(), input));
        let mut outcome = Err(SimError::Internal("the item was never reported"));
        let report = self.run_stream(1, |_| item.take(), |_, r| outcome = r, &mut []);
        Ok(SimOutcome {
            result: outcome?,
            started_at: report.started_at,
            finished_at: report.finished_at,
            wct: report.finished_at.saturating_sub(report.started_at),
        })
    }

    /// Streams items through one **persistent** simulated machine.
    ///
    /// Unlike repeated [`run`](SimEngine::run) calls — which build a
    /// fresh runtime per item — the machine survives across items:
    /// worker occupancy, in-flight chains, and per-muscle invocation
    /// counters (cost-model `seq_no`s) all carry over, matching a
    /// long-lived threaded engine fed a stream. Up to `window` items are
    /// in flight at once; `window == 1` is strict lock-step
    /// (`source(i)` → run → `on_result(i)` → `source(i + 1)`), the
    /// natural place for safe-point adaptation between items.
    ///
    /// `source` is polled with the next item index and may return a
    /// different skeleton each time (reconfiguration between items);
    /// `None` ends the stream. `on_result` observes every item in
    /// completion order. `components` tick on virtual time while work is
    /// in flight (see [`components::Component`]).
    ///
    /// A failure poisons the whole machine: every item in flight reports
    /// the same error and the queues reset (at `window == 1` that is
    /// plain per-item error reporting).
    pub fn run_stream<P, R>(
        &mut self,
        window: usize,
        mut source: impl FnMut(usize) -> Option<(Skel<P, R>, P)>,
        mut on_result: impl FnMut(usize, Result<R, SimError>),
        components: &mut [Box<dyn Component>],
    ) -> StreamReport
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let started_at = self.clock.now();
        let workers = self
            .workers
            .take()
            .expect("worker model is always restored");
        self.telemetry.record_target(started_at, workers.capacity());
        let mut items = 0usize;
        let mut raw_source = |index: usize| {
            source(index).map(|(skel, input)| (Arc::clone(skel.node()), Box::new(input) as Data))
        };
        let mut raw_sink = |index: usize, outcome: Result<Data, SimError>| {
            items += 1;
            let typed = outcome.and_then(|data| {
                data.downcast::<R>()
                    .map(|b| *b)
                    .map_err(|_| SimError::WrongResultType)
            });
            on_result(index, typed);
        };
        let (stats, workers) = rt::run_stream(
            Arc::clone(&self.registry),
            Arc::clone(&self.clock),
            Arc::clone(&self.telemetry),
            Arc::clone(&self.cost),
            workers,
            self.lp_control.clone(),
            self.ordering,
            window,
            &mut raw_source,
            &mut raw_sink,
            components,
        );
        self.workers = Some(workers);
        StreamReport {
            items,
            events: stats.events,
            started_at,
            finished_at: stats.finished_at,
        }
    }
}

/// Scheduler totals for one [`SimEngine::run_stream`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Items delivered to `on_result` (successes and failures).
    pub items: usize,
    /// Scheduler events processed: work-step executions plus component
    /// ticks — the unit the throughput bench records per second.
    pub events: u64,
    /// Virtual time when the stream started.
    pub started_at: TimeNs,
    /// Virtual time when the stream drained.
    pub finished_at: TimeNs,
}
