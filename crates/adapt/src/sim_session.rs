//! The adaptive loop over the discrete-event simulator: safe-point
//! evaluation driven off scheduler ticks.
//!
//! [`AdaptiveSimSession`] is [`AdaptiveSession`](crate::AdaptiveSession)'s
//! simulated twin: it streams items through one **persistent** simulated
//! machine ([`SimEngine::run_stream`]) and runs the
//! [`Reconfigurator`] safe point before each submission — same feed
//! order as the threaded session (harvest outcomes → input-size hint →
//! arbitrated rewrite → feed), but in virtual time, so every decision
//! (timestamps included) replays deterministically. Combined with
//! [`OrderingPolicy::SeededRandom`](askel_sim::OrderingPolicy), it is the
//! harness the fuzz suite uses to shake scheduling-order assumptions out
//! of the adapt/offload/arbitration stack.
//!
//! Long-lived actors that review on virtual time — most importantly
//! `askel_dist::ProvisioningReview` — ride along as scheduler
//! [`Component`]s, actuating capacity through the same LP channel an
//! external controller would use.

use std::sync::Arc;

use askel_sim::components::Component;
use askel_sim::{SimEngine, SimError, StreamReport};
use askel_skeletons::{Clock, Skel};

use crate::arbitration::ConflictPolicy;
use crate::session::{Reconfigurator, VersionedSkel};
use crate::trigger::TriggerEngine;

/// The per-item input-size probe (see
/// [`input_size`](AdaptiveSimSession::input_size)).
type SizeProbe<P> = Box<dyn Fn(&P) -> usize>;

/// An adaptive stream over the discrete-event simulator; see the module
/// docs. Construction wires a [`Reconfigurator`] to the simulator's
/// registry and virtual clock; registering the trigger as an event
/// listener on `sim.registry()` stays the caller's choice, exactly as
/// with the threaded session.
pub struct AdaptiveSimSession<P, R> {
    sim: SimEngine,
    reconf: Reconfigurator,
    vskel: VersionedSkel<P, R>,
    size_of: Option<SizeProbe<P>>,
    window: usize,
    last_report: Option<StreamReport>,
}

impl<P, R> AdaptiveSimSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// A session streaming `skel` through `sim`, adapted by `trigger`'s
    /// rules at the safe point before each submission. Lock-step
    /// (`window == 1`) by default — the strongest safe-point guarantee;
    /// see [`window`](AdaptiveSimSession::window).
    pub fn new(sim: SimEngine, skel: &Skel<P, R>, trigger: Arc<TriggerEngine>) -> Self {
        let clock: Arc<dyn Clock> = Arc::clone(sim.clock()) as Arc<dyn Clock>;
        let reconf = Reconfigurator::new(Arc::clone(sim.registry()), clock, trigger);
        AdaptiveSimSession {
            sim,
            reconf,
            vskel: VersionedSkel::new(skel),
            size_of: None,
            window: 1,
            last_report: None,
        }
    }

    /// Items in flight at once (≥ 1). Above 1, safe points still run
    /// before each submission but items already in flight finish on the
    /// tree they were submitted with.
    pub fn window(mut self, n: usize) -> Self {
        self.window = n.max(1);
        self
    }

    /// Forwards to [`Reconfigurator::lp_source`]: where width rules read
    /// the current level of parallelism.
    pub fn lp_source(mut self, f: impl Fn() -> usize + Send + Sync + 'static) -> Self {
        self.reconf = self.reconf.lp_source(f);
        self
    }

    /// Forwards to [`Reconfigurator::conflict_policy`].
    pub fn conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.reconf = self.reconf.conflict_policy(policy);
        self
    }

    /// Records `f(input)` as an input-size hint per submission
    /// (`Trigger::InputSizeAtLeast` rules gate on the EWMA of these).
    pub fn input_size(mut self, f: impl Fn(&P) -> usize + 'static) -> Self {
        self.size_of = Some(Box::new(f));
        self
    }

    /// Streams `items` to completion, returning their outcomes in item
    /// order. `components` tick on virtual time while work is in flight
    /// (pass `&mut []` for none).
    pub fn run_stream(
        &mut self,
        items: impl IntoIterator<Item = P>,
        components: &mut [Box<dyn Component>],
    ) -> Vec<Result<R, SimError>> {
        let mut iter = items.into_iter();
        let AdaptiveSimSession {
            sim,
            reconf,
            vskel,
            size_of,
            window,
            last_report,
        } = self;
        let trigger = Arc::clone(reconf.trigger());
        let feed_trigger = Arc::clone(&trigger);
        let mut indexed: Vec<(usize, Result<R, SimError>)> = Vec::new();
        let report = sim.run_stream(
            *window,
            |_index| {
                let input = iter.next()?;
                // The threaded session's feed order, replayed in virtual
                // time: outcomes were recorded by the sink as results
                // completed; hint the input size, run the safe point,
                // submit on the (possibly rewritten) current tree.
                if let Some(size_of) = size_of {
                    feed_trigger.observe_input_size(size_of(&input));
                }
                reconf.apply(vskel);
                Some((vskel.skel().clone(), input))
            },
            |index, outcome| {
                trigger.record_outcome(outcome.is_ok());
                indexed.push((index, outcome));
            },
            components,
        );
        *last_report = Some(report);
        indexed.sort_by_key(|(index, _)| *index);
        indexed.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Scheduler totals for the most recent
    /// [`run_stream`](AdaptiveSimSession::run_stream) call.
    pub fn report(&self) -> Option<StreamReport> {
        self.last_report
    }

    /// The current skeleton version (rewrites applied so far).
    pub fn version(&self) -> u64 {
        self.vskel.version()
    }

    /// The skeleton the next submission will use.
    pub fn skeleton(&self) -> &Skel<P, R> {
        self.vskel.skel()
    }

    /// The trigger engine (decision log, statistics).
    pub fn trigger(&self) -> &Arc<TriggerEngine> {
        self.reconf.trigger()
    }

    /// The underlying simulator (registry, clock, telemetry).
    pub fn sim(&self) -> &SimEngine {
        &self.sim
    }
}
