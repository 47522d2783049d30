//! The autonomic controller: guarantees a Wall-Clock-Time (WCT) QoS goal
//! by self-optimizing the Level of Parallelism (LP) of a running skeleton.
//!
//! The controller is *just an event listener* (the paper's separation of
//! concerns): register it on an engine's `ListenerRegistry` and hand it an
//! [`LpActuator`] for that engine. On every `After` event it
//!
//! 1. feeds the event through the state machines ([`SmTracker`]),
//! 2. once every muscle has an estimate (the analysis gate), builds the
//!    ADG and runs the scheduling strategies,
//! 3. decides:
//!    * **raise** — if the limited-LP completion estimate misses the
//!      deadline, set LP to the *smallest* value that meets it (binary
//!      search over the limited-LP estimator, valid under the paper's
//!      monotonic-speedup assumption), capped by the optimal LP and
//!      `max_lp`; if no value meets it, jump to the cap (best possible);
//!    * **halve** — if the goal would still be met with half the threads,
//!      halve (the paper decreases conservatively because computing the
//!      minimal LP exactly is NP-complete);
//!    * otherwise leave LP alone.
//!
//! Every decision is recorded with its inputs so tests and benches can
//! audit the control loop.
//!
//! The controller's [`SmTracker`] is the stream's monitor. A trigger
//! engine synced to it (`askel_adapt::Reconfigurator::sync_controller`)
//! reads and writes the same tracker instead of replaying events
//! through a second one ([`AutonomicController::tracker`]), so both
//! managers decide from one monitored view and differ only in the plan
//! they make from it.

use std::sync::Arc;

use parking_lot::Mutex;

use askel_events::{Event, Listener, Payload, When, Where};
use askel_skeletons::{MuscleDescriptor, Node, TimeNs};

use crate::adg::{Adg, AdgBuilder, FoldCache};
use crate::estimate::{EstimatorTable, Snapshot};
use crate::strategy::{best_effort, LpLayout};
use crate::tracker::SmTracker;

/// Something that can change an engine's level of parallelism.
///
/// The threaded engine's pool and the simulator's LP handle both adapt to
/// this trait through [`FnActuator`]; the controller stays engine-agnostic
/// (the paper's platform-independence claim, made concrete).
pub trait LpActuator: Send + Sync {
    /// Requests that the engine's LP become `lp`.
    fn set_lp(&self, lp: usize);
}

/// Adapter: any `Fn(usize)` is an actuator.
pub struct FnActuator<F>(pub F);

impl<F> LpActuator for FnActuator<F>
where
    F: Fn(usize) + Send + Sync,
{
    fn set_lp(&self, lp: usize) {
        (self.0)(lp)
    }
}

/// How aggressively may the controller *raise* the LP per analysis?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaisePolicy {
    /// Jump straight to the computed target (ablation; reacts fastest but
    /// lets one early analysis with immature estimates lock in a high LP).
    Unbounded,
    /// At most `2·current + 1` per analysis (default): LP 1 may reach 3 in
    /// one step — the paper's Fig. 5 "increments to 3 threads" — and the
    /// ramp then doubles per analysis. Mirrors the progressive ramp-up
    /// visible in the paper's Figs. 5–7: analyses are frequent, so a
    /// justified raise still completes within a few events, but a single
    /// wild estimate cannot overshoot.
    Doubling,
}

/// When may the controller *lower* the LP?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecreasePolicy {
    /// The paper's rule: halve when the goal is safe at half the threads.
    Halve,
    /// Never decrease (ablation).
    Never,
    /// Decrease to the minimal sufficient LP (greedy search; ablation —
    /// more reactive than the paper, at the cost of more analysis work
    /// and oscillation risk).
    ToMinimal,
}

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// The WCT goal, measured from each submission's start.
    pub wct_goal: TimeNs,
    /// Upper bound for the LP (the paper's overload guard).
    pub max_lp: usize,
    /// Lower bound for the LP (≥ 1 keeps the engine live).
    pub min_lp: usize,
    /// The estimators' ρ.
    pub rho: f64,
    /// The LP the engine starts with (the controller's initial belief).
    pub initial_lp: usize,
    /// Decrease policy.
    pub decrease: DecreasePolicy,
    /// Raise policy.
    pub raise: RaisePolicy,
    /// Multiplies the computed raise target (≥ 1.0). The paper's controller
    /// visibly over-provisions relative to the minimal sufficient LP
    /// (§5: 8 threads at 6.4 s where ~4 would do; ramps to 17) and prefers
    /// finishing early over missing the goal on immature estimates; 1.0 is
    /// the exact-minimal policy.
    pub raise_headroom: f64,
    /// A decrease requires the predicted WCT to meet the goal with this
    /// margin (fraction of the goal). Models the paper's conservative
    /// decrease ("does not reduce the LP as fast as it increases it");
    /// 0.0 is the pure halving rule.
    pub decrease_safety: f64,
    /// Minimum time between two *decreases* ("Skandium does not reduce
    /// the LP as fast as it increases it", §4/§5).
    pub decrease_cooldown: TimeNs,
    /// When `true`, events only feed the state machines; analyses run
    /// exclusively through
    /// [`AutonomicController::force_analyze`] (snapshot studies, benches).
    pub manual_analysis: bool,
    /// Estimator aliases (shared muscle objects, Skandium-style): each
    /// `(muscle, canonical)` pair makes `muscle` share `canonical`'s
    /// estimators. Applied at construction and re-applied after
    /// [`AutonomicController::init_estimates`].
    pub aliases: Vec<(askel_skeletons::MuscleId, askel_skeletons::MuscleId)>,
}

impl ControllerConfig {
    /// A config with the paper's defaults: `min_lp` 1, ρ 0.5, initial LP 1,
    /// halving decrease, an analysis on every `After` event.
    pub fn new(wct_goal: TimeNs, max_lp: usize) -> Self {
        ControllerConfig {
            wct_goal,
            max_lp: max_lp.max(1),
            min_lp: 1,
            rho: 0.5,
            initial_lp: 1,
            decrease: DecreasePolicy::Halve,
            raise: RaisePolicy::Doubling,
            raise_headroom: 1.0,
            decrease_safety: 0.0,
            decrease_cooldown: TimeNs::ZERO,
            manual_analysis: false,
            aliases: Vec::new(),
        }
    }

    /// Sets the initial LP belief.
    pub fn initial_lp(mut self, lp: usize) -> Self {
        self.initial_lp = lp.max(1);
        self
    }

    /// Sets ρ.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho.clamp(0.0, 1.0);
        self
    }

    /// Sets the decrease policy.
    pub fn decrease(mut self, policy: DecreasePolicy) -> Self {
        self.decrease = policy;
        self
    }

    /// Disables automatic analysis (see
    /// [`ControllerConfig::manual_analysis`]).
    pub fn manual_analysis(mut self, manual: bool) -> Self {
        self.manual_analysis = manual;
        self
    }

    /// Sets the raise policy.
    pub fn raise(mut self, policy: RaisePolicy) -> Self {
        self.raise = policy;
        self
    }

    /// Sets the raise headroom factor (clamped to ≥ 1.0).
    pub fn raise_headroom(mut self, factor: f64) -> Self {
        self.raise_headroom = factor.max(1.0);
        self
    }

    /// Sets the decrease safety margin (fraction of the goal, ≥ 0).
    pub fn decrease_safety(mut self, margin: f64) -> Self {
        self.decrease_safety = margin.max(0.0);
        self
    }

    /// Sets the decrease cooldown.
    pub fn decrease_cooldown(mut self, cooldown: TimeNs) -> Self {
        self.decrease_cooldown = cooldown;
        self
    }

    /// Declares shared-muscle estimator aliases.
    pub fn alias(
        mut self,
        muscle: askel_skeletons::MuscleId,
        canonical: askel_skeletons::MuscleId,
    ) -> Self {
        self.aliases.push((muscle, canonical));
        self
    }
}

/// Why the controller changed the LP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionReason {
    /// Raised to the minimal LP whose limited-LP estimate meets the goal.
    RaiseToMeetGoal,
    /// Goal unreachable even at the cap; raised to the best possible LP.
    RaiseBestPossible,
    /// Goal safe at half the threads; halved.
    Decrease,
}

/// One audited LP change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// When the decision was taken.
    pub at: TimeNs,
    /// LP before.
    pub from_lp: usize,
    /// LP after.
    pub to_lp: usize,
    /// Why.
    pub reason: DecisionReason,
    /// The limited-LP completion estimate at `to_lp` when deciding.
    pub predicted_wct: TimeNs,
}

/// One analysis, recorded for prediction-accuracy studies: compare
/// `predicted_finish` (at the then-current LP) against the run's actual
/// completion time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisRecord {
    /// When the analysis ran.
    pub at: TimeNs,
    /// The LP the prediction assumed.
    pub lp: usize,
    /// The limited-LP completion estimate at that LP.
    pub predicted_finish: TimeNs,
    /// The best-effort (infinite-LP) completion estimate.
    pub best_effort_finish: TimeNs,
}

struct Inner {
    /// Finished subtrees of the live submission, folded once.
    folds: FoldCache,
    /// The previous analysis' graph, rebuilt in place by the next one.
    spare: Adg,
    current_lp: usize,
    deadline: Option<TimeNs>,
    last_decrease: Option<TimeNs>,
    decisions: Vec<Decision>,
    analysis_log: Vec<AnalysisRecord>,
    analyses: usize,
}

/// The autonomic controller. See the module docs.
pub struct AutonomicController {
    ast: Arc<Node>,
    muscles: Vec<MuscleDescriptor>,
    config: ControllerConfig,
    actuator: Arc<dyn LpActuator>,
    inner: Mutex<Inner>,
    /// The state machines this controller feeds. Locked after `inner`,
    /// never before it; see [`tracker`](Self::tracker).
    tracker: Arc<Mutex<SmTracker>>,
}

impl AutonomicController {
    /// A controller for submissions of the skeleton rooted at `ast`,
    /// driving `actuator`.
    pub fn new(
        ast: Arc<Node>,
        config: ControllerConfig,
        actuator: Arc<dyn LpActuator>,
    ) -> Arc<Self> {
        let muscles = ast.collect_muscles();
        let initial_lp = config.initial_lp;
        let mut tracker = SmTracker::new(config.rho);
        for (m, canonical) in &config.aliases {
            tracker.estimates_mut().set_alias(*m, *canonical);
        }
        Arc::new(AutonomicController {
            ast,
            muscles,
            config: config.clone(),
            actuator,
            tracker: Arc::new(Mutex::new(tracker)),
            inner: Mutex::new(Inner {
                folds: FoldCache::new(),
                spare: Adg::default(),
                current_lp: initial_lp,
                deadline: None,
                last_decrease: None,
                decisions: Vec::new(),
                analysis_log: Vec::new(),
                analyses: 0,
            }),
        })
    }

    /// Initializes the estimators from a previous run's snapshot (the
    /// paper's "Goal with initialization" scenario). Configured aliases
    /// are re-applied to the fresh table.
    pub fn init_estimates(&self, snapshot: &Snapshot) {
        let mut table = EstimatorTable::from_snapshot(snapshot);
        for (m, canonical) in &self.config.aliases {
            table.set_alias(*m, *canonical);
        }
        *self.tracker.lock().estimates_mut() = table;
    }

    /// Initializes the estimators programmatically.
    pub fn with_estimates(&self, f: impl FnOnce(&mut EstimatorTable)) {
        f(self.tracker.lock().estimates_mut());
    }

    /// Snapshot of the current estimates (feed it to the next run).
    pub fn snapshot(&self) -> Snapshot {
        self.tracker.lock().estimates().snapshot()
    }

    /// Read access to the live estimator table, for other autonomic layers
    /// that want to share this controller's statistics. The tracker lock
    /// is held for the duration of `f`; keep it short.
    pub fn read_estimates<T>(&self, f: impl FnOnce(&EstimatorTable) -> T) -> T {
        f(self.tracker.lock().estimates())
    }

    /// The state machines this controller feeds from its events. A
    /// trigger engine synced to this controller
    /// (`askel_adapt::Reconfigurator::sync_controller`) reads and writes
    /// its estimates here instead of keeping a second tracker, so a
    /// stream running both managers replays each event once.
    ///
    /// Lock order: the controller takes its own state, then this
    /// tracker; a holder of the tracker lock must not call back into
    /// the controller.
    pub fn tracker(&self) -> &Arc<Mutex<SmTracker>> {
        &self.tracker
    }

    /// Forecasts the WCT of one fresh submission of the skeleton rooted
    /// at `root` under `lp` workers, from this controller's **live**
    /// estimator table ([`crate::strategy::predictive_wct`] over
    /// [`read_estimates`](Self::read_estimates)).
    ///
    /// `root` need not be this controller's own AST: the
    /// self-configuration layer passes candidate *rewritten* trees here
    /// to gate promotions on forecast improvement. `None` while the
    /// table does not cover `root`'s muscles.
    pub fn forecast_wct(&self, root: &Arc<Node>, lp: usize) -> Option<TimeNs> {
        crate::strategy::predictive_wct(self.tracker.lock().estimates(), root, lp)
    }

    /// The LP the controller believes the engine has.
    pub fn current_lp(&self) -> usize {
        self.inner.lock().current_lp
    }

    /// Every decision taken so far.
    pub fn decisions(&self) -> Vec<Decision> {
        self.inner.lock().decisions.clone()
    }

    /// How many full analyses ran.
    pub fn analyses(&self) -> usize {
        self.inner.lock().analyses
    }

    /// Every analysis with its completion predictions (accuracy studies:
    /// compare against the run's actual finish time).
    pub fn analysis_log(&self) -> Vec<AnalysisRecord> {
        self.inner.lock().analysis_log.clone()
    }

    /// The config.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Forces an analysis at `now` (tests and benches).
    pub fn force_analyze(&self, now: TimeNs) {
        let mut inner = self.inner.lock();
        let tracker = self.tracker.lock();
        self.analyze(&mut inner, &tracker, now);
    }

    fn analyze(&self, inner: &mut Inner, tracker: &SmTracker, now: TimeNs) {
        let Some(deadline) = inner.deadline else {
            return;
        };
        // Analysis gate: every muscle estimated at least once (§4).
        if !tracker.estimates().covers(&self.muscles) {
            return;
        }
        let root_live = tracker
            .current_root()
            .map(|r| !r.is_finished())
            .unwrap_or(false);
        if !root_live {
            return;
        }
        inner.analyses += 1;

        let spare = std::mem::take(&mut inner.spare);
        let adg = AdgBuilder::new(tracker)
            .recycle(spare)
            .fold_finished(now, &mut inner.folds)
            .build(&self.ast);
        if !adg.is_empty() {
            self.decide(inner, &adg, now, deadline);
        }
        inner.spare = adg;
    }

    /// Lays `adg` out and changes the LP if the goal asks for it.
    fn decide(&self, inner: &mut Inner, adg: &Adg, now: TimeNs, deadline: TimeNs) {
        let layout = LpLayout::new(adg);
        let limited_lp = |lp: usize| layout.limited_lp(now, lp).finish;
        let cur = inner.current_lp;
        let cur_finish = limited_lp(cur);
        let be = best_effort(adg, now);
        inner.analysis_log.push(AnalysisRecord {
            at: now,
            lp: cur,
            predicted_finish: cur_finish,
            best_effort_finish: be.finish,
        });

        if cur_finish > deadline {
            // Self-configuration: more threads — up to the cap, which
            // never exceeds `max_lp`; at `max_lp` already, skip the
            // concurrency sweep.
            if cur >= self.config.max_lp {
                return;
            }
            let opt = be.max_concurrency_from(now).max(self.config.min_lp);
            let cap = opt.min(self.config.max_lp);
            if cap <= cur {
                return; // nothing a raise could do
            }
            let cap_finish = limited_lp(cap);
            // Minimal LP achieving `target_finish`, by binary search (WCT
            // is non-increasing in LP under the paper's assumption).
            let minimal_for = |target_finish: TimeNs| -> usize {
                let mut lo = cur + 1;
                let mut hi = cap;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if limited_lp(mid) <= target_finish {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            };
            let (target, reason) = if cap_finish <= deadline {
                (minimal_for(deadline), DecisionReason::RaiseToMeetGoal)
            } else {
                // Goal unreachable even at the cap: the smallest LP that
                // achieves the best possible completion.
                (minimal_for(cap_finish), DecisionReason::RaiseBestPossible)
            };
            let target = ((target as f64 * self.config.raise_headroom).round() as usize).min(cap);
            let to_lp = match self.config.raise {
                RaisePolicy::Unbounded => target,
                RaisePolicy::Doubling => target.min(cur * 2 + 1),
            };
            let predicted = limited_lp(to_lp);
            self.apply(inner, now, to_lp, reason, predicted);
        } else {
            // Self-optimization: fewer threads when safe.
            if let Some(last) = inner.last_decrease {
                if self.config.decrease_cooldown > TimeNs::ZERO
                    && now < last + self.config.decrease_cooldown
                {
                    return;
                }
            }
            // A decrease must keep the goal safe with margin.
            let margin = TimeNs::from_secs_f64(
                self.config.wct_goal.as_secs_f64() * self.config.decrease_safety,
            );
            let safe_deadline = deadline.saturating_sub(margin);
            match self.config.decrease {
                DecreasePolicy::Never => {}
                DecreasePolicy::Halve => {
                    let half = (cur / 2).max(self.config.min_lp);
                    if half < cur {
                        let predicted = limited_lp(half);
                        if predicted <= safe_deadline {
                            self.apply(inner, now, half, DecisionReason::Decrease, predicted);
                        }
                    }
                }
                DecreasePolicy::ToMinimal => {
                    let mut lo = self.config.min_lp;
                    let mut hi = cur;
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if limited_lp(mid) <= safe_deadline {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    if lo < cur {
                        let predicted = limited_lp(lo);
                        self.apply(inner, now, lo, DecisionReason::Decrease, predicted);
                    }
                }
            }
        }
    }

    fn apply(
        &self,
        inner: &mut Inner,
        now: TimeNs,
        to_lp: usize,
        reason: DecisionReason,
        predicted_wct: TimeNs,
    ) {
        let from_lp = inner.current_lp;
        if to_lp == from_lp {
            return;
        }
        if to_lp < from_lp {
            inner.last_decrease = Some(now);
        }
        inner.current_lp = to_lp;
        inner.decisions.push(Decision {
            at: now,
            from_lp,
            to_lp,
            reason,
            predicted_wct,
        });
        self.actuator.set_lp(to_lp);
    }
}

impl Listener for AutonomicController {
    fn on_event(&self, _payload: &mut Payload<'_>, event: &Event) {
        let mut inner = self.inner.lock();
        let mut tracker = self.tracker.lock();
        // A new submission of our skeleton starts its WCT window.
        if event.node == self.ast.id
            && event.when == When::Before
            && event.wher == Where::Skeleton
            && event.trace.depth() == 1
        {
            tracker.prune_finished();
            inner.folds.clear();
            inner.deadline = Some(event.timestamp + self.config.wct_goal);
        }
        tracker.observe(event);
        // Estimates only change on After events; analyze there.
        if event.when == When::After && !self.config.manual_analysis {
            self.analyze(&mut inner, &tracker, event.timestamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fn_actuator_forwards() {
        let v = Arc::new(AtomicUsize::new(0));
        let v2 = Arc::clone(&v);
        let a = FnActuator(move |lp| v2.store(lp, Ordering::SeqCst));
        a.set_lp(7);
        assert_eq!(v.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn config_builder_clamps() {
        let c = ControllerConfig::new(TimeNs::from_secs(1), 0)
            .initial_lp(0)
            .rho(2.0);
        assert_eq!(c.max_lp, 1);
        assert_eq!(c.initial_lp, 1);
        assert_eq!(c.rho, 1.0);
    }
}
