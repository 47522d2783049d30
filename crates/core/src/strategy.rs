//! Scheduling strategies over the ADG: the paper's **best effort** and
//! **limited LP** estimators, the **optimal LP** computation, and the
//! active-thread timeline of Fig. 2.
//!
//! Formulas (§4):
//!
//! * best effort assumes infinite LP: `ti = max(pred tf)`, `tf = ti + t(m)`,
//!   and both are clamped to `currentTime` when they fall in the past;
//! * limited LP adds the constraint that at no instant more than `lp`
//!   activities run; we realize it as greedy non-idling list scheduling
//!   with a LIFO-flavoured tie-break (highest activity index first), which
//!   mirrors the runtime's LIFO ready stack;
//! * the optimal LP is the maximum concurrency of the best-effort timeline
//!   (Fig. 2: "a maximum requirement of 3 active threads … therefore the
//!   optimal LP is 3").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use askel_skeletons::TimeNs;

use crate::adg::{ActState, Adg};

/// A laid-out ADG: one `[start, end)` span per activity (index-aligned).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Per-activity spans, aligned with `Adg::activities`.
    pub spans: Vec<(TimeNs, TimeNs)>,
    /// Completion time of the whole graph (`max end`); this is the
    /// estimated WCT measured from the submission's time origin.
    pub finish: TimeNs,
}

impl Schedule {
    /// The active-activity step function: how many activities run at each
    /// instant (zero-duration activities are skipped). This is the series
    /// plotted in Fig. 2.
    pub fn timeline(&self) -> Vec<TimelinePoint> {
        let mut deltas: Vec<(TimeNs, i64)> = Vec::with_capacity(self.spans.len() * 2);
        for &(s, e) in &self.spans {
            if e > s {
                deltas.push((s, 1));
                deltas.push((e, -1));
            }
        }
        deltas.sort_unstable();
        let mut out: Vec<TimelinePoint> = vec![TimelinePoint {
            at: TimeNs::ZERO,
            active: 0,
        }];
        let mut active: i64 = 0;
        for (t, d) in deltas {
            active += d;
            match out.last_mut() {
                Some(last) if last.at == t => last.active = active as usize,
                _ => out.push(TimelinePoint {
                    at: t,
                    active: active as usize,
                }),
            }
        }
        // Collapse consecutive equal values for readability.
        out.dedup_by(|b, a| a.active == b.active);
        out
    }

    /// Maximum concurrency over the whole timeline (the paper's optimal
    /// LP when applied to the best-effort schedule).
    pub fn max_concurrency(&self) -> usize {
        self.timeline().iter().map(|p| p.active).max().unwrap_or(0)
    }

    /// Maximum concurrency at or after `t` — the forward-looking variant
    /// the controller uses (history cannot be rescheduled).
    pub fn max_concurrency_from(&self, t: TimeNs) -> usize {
        let mut deltas: Vec<(TimeNs, i64)> = Vec::new();
        let mut at_t: i64 = 0;
        for &(s, e) in &self.spans {
            if e <= s || e <= t {
                continue;
            }
            if s <= t {
                at_t += 1;
            } else {
                deltas.push((s, 1));
            }
            deltas.push((e, -1));
        }
        deltas.sort_unstable();
        let mut max = at_t;
        let mut cur = at_t;
        for (_, d) in deltas {
            cur += d;
            max = max.max(cur);
        }
        max.max(0) as usize
    }
}

/// A point of a concurrency timeline: from `at` on, `active` activities
/// run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Interval start.
    pub at: TimeNs,
    /// Concurrency during the interval.
    pub active: usize,
}

/// Best-effort schedule: infinite LP.
pub fn best_effort(adg: &Adg, now: TimeNs) -> Schedule {
    let mut spans: Vec<(TimeNs, TimeNs)> = Vec::with_capacity(adg.len());
    let mut finish = TimeNs::ZERO;
    for a in &adg.activities {
        let span = match a.state {
            ActState::Done { start, end } => (start, end),
            ActState::Running { start } => (start, (start + a.est).max(now)),
            ActState::Pending => {
                let ti = a.preds.iter().map(|&p| spans[p].1).fold(now, TimeNs::max); // past-clamp: ti ≥ now
                (ti, ti + a.est)
            }
        };
        finish = finish.max(span.1);
        spans.push(span);
    }
    Schedule { spans, finish }
}

/// Limited-LP schedule: greedy list scheduling with at most `lp`
/// concurrently running activities from `now` on. Already-running
/// activities keep their workers (no preemption); `lp == 0` with pending
/// work yields `finish == TimeNs::MAX`.
///
/// Note that greedy list scheduling is subject to *Graham's anomaly*: on
/// adversarial DAGs a larger `lp` can occasionally produce a slightly
/// later finish. The paper assumes non-decreasing speedup ("for
/// simplicity … we assume that the LP produces a non-strictly increasing
/// speedup", §4) and so does the controller's binary search; Graham's
/// bound still guarantees every `lp ≥ 1` is at least as good as serial
/// execution (property-tested in `tests/strategy_properties.rs`).
pub fn limited_lp(adg: &Adg, now: TimeNs, lp: usize) -> Schedule {
    LpLayout::new(adg).limited_lp(now, lp)
}

/// One ADG prepared for [`limited_lp`] layouts: the successor lists of
/// its pending activities in compressed sparse row form. The controller
/// lays one ADG out at several LPs per analysis and builds this once.
/// A layout costs O((n + e) log n) for n activities and e edges.
pub(crate) struct LpLayout<'a> {
    adg: &'a Adg,
    /// `succs[succ_start[i]..succ_start[i + 1]]` are the pending
    /// activities that wait on activity `i`, in index order.
    succ_start: Vec<usize>,
    succs: Vec<usize>,
}

impl<'a> LpLayout<'a> {
    pub(crate) fn new(adg: &'a Adg) -> Self {
        let n = adg.len();
        let pending = || {
            adg.activities
                .iter()
                .enumerate()
                .filter(|(_, a)| matches!(a.state, ActState::Pending))
        };
        let mut succ_start = vec![0usize; n + 1];
        for (_, a) in pending() {
            for &p in &a.preds {
                succ_start[p + 1] += 1;
            }
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut fill = succ_start[..n].to_vec();
        let mut succs = vec![0usize; succ_start[n]];
        for (i, a) in pending() {
            for &p in &a.preds {
                succs[fill[p]] = i;
                fill[p] += 1;
            }
        }
        LpLayout {
            adg,
            succ_start,
            succs,
        }
    }

    /// [`limited_lp`] of the prepared graph.
    ///
    /// Ready activities wait in a min-heap on their ready time until the
    /// clock reaches it, then in a max-heap on their index: among the
    /// released ones the highest index starts first (the runtime's LIFO
    /// stack). The clock only moves to the next completion, or — when
    /// nothing runs — to the earliest ready time.
    pub(crate) fn limited_lp(&self, now: TimeNs, lp: usize) -> Schedule {
        let acts = &self.adg.activities;
        let n = acts.len();
        let mut spans = vec![(TimeNs::ZERO, TimeNs::ZERO); n];
        let mut finish = TimeNs::ZERO;
        let mut wait = vec![
            Wait {
                missing_preds: 0,
                ready_time: now,
            };
            n
        ];
        let mut completions: BinaryHeap<Reverse<(TimeNs, usize)>> = BinaryHeap::new();
        let mut in_use = 0usize;
        let mut pending_left = 0usize;

        for (i, a) in acts.iter().enumerate() {
            match a.state {
                ActState::Done { start, end } => {
                    spans[i] = (start, end);
                    finish = finish.max(end);
                }
                ActState::Running { start } => {
                    let end = (start + a.est).max(now);
                    spans[i] = (start, end);
                    finish = finish.max(end);
                    in_use += 1;
                    completions.push(Reverse((end, i)));
                }
                ActState::Pending => {
                    pending_left += 1;
                    wait[i].missing_preds = a.preds.len();
                }
            }
        }
        if pending_left > 0 && lp == 0 {
            return Schedule {
                spans,
                finish: TimeNs::MAX,
            };
        }

        let mut t = now;
        let mut ready = Ready::default();
        // Done activities release their successors up front; Running ones
        // when their completion fires.
        for (i, a) in acts.iter().enumerate() {
            if let ActState::Done { end, .. } = a.state {
                self.resolve(i, end, t, &mut wait, &mut ready);
            }
        }
        // Pending activities without predecessors were never anyone's
        // successor; every other one with all predecessors Done is
        // already queued.
        for (i, a) in acts.iter().enumerate() {
            if matches!(a.state, ActState::Pending) && a.preds.is_empty() {
                ready.push(now, i, t);
            }
        }

        loop {
            ready.release(t);
            while in_use < lp {
                let Some(i) = ready.released.pop() else { break };
                let est = acts[i].est;
                spans[i] = (t, t + est);
                finish = finish.max(t + est);
                pending_left -= 1;
                if est.0 == 0 {
                    // Zero-duration activities complete instantly and do
                    // not occupy a worker.
                    self.resolve(i, t, t, &mut wait, &mut ready);
                } else {
                    in_use += 1;
                    completions.push(Reverse((t + est, i)));
                }
            }
            if pending_left == 0 && completions.is_empty() {
                break;
            }
            let Some(Reverse((et, i))) = completions.pop() else {
                // Nothing runs but work is left: every ready time lies
                // ahead of the clock — jump to the earliest.
                let Some(&Reverse((rt, _))) = ready.waiting.peek() else {
                    break;
                };
                t = t.max(rt);
                continue;
            };
            t = t.max(et);
            in_use -= 1;
            self.resolve(i, et, t, &mut wait, &mut ready);
            // Drain simultaneous completions.
            while let Some(&Reverse((et2, j))) = completions.peek() {
                if et2 != t {
                    break;
                }
                completions.pop();
                in_use -= 1;
                self.resolve(j, et2, t, &mut wait, &mut ready);
            }
        }

        Schedule { spans, finish }
    }

    /// Activity `i` finished at `end` (its span is final): raise each
    /// successor's ready time to `end` and queue every successor whose
    /// last predecessor this was. Ready times start at `now`, so each one
    /// ends up as its latest predecessor's end, never before `now`.
    fn resolve(&self, i: usize, end: TimeNs, t: TimeNs, wait: &mut [Wait], ready: &mut Ready) {
        for &s in &self.succs[self.succ_start[i]..self.succ_start[i + 1]] {
            let w = &mut wait[s];
            w.ready_time = w.ready_time.max(end);
            w.missing_preds -= 1;
            if w.missing_preds == 0 {
                ready.push(w.ready_time, s, t);
            }
        }
    }
}

/// What a pending activity still waits for in a [`LpLayout::limited_lp`]
/// run.
#[derive(Clone, Copy)]
struct Wait {
    /// Predecessors not finished yet.
    missing_preds: usize,
    /// Latest end among the finished ones (at least `now`).
    ready_time: TimeNs,
}

/// The ready pending activities of a [`LpLayout::limited_lp`] run, split
/// at the clock: `released` (ready time ≤ clock) by index, highest
/// first; `waiting` by ready time, earliest first.
#[derive(Default)]
struct Ready {
    released: BinaryHeap<usize>,
    waiting: BinaryHeap<Reverse<(TimeNs, usize)>>,
}

impl Ready {
    fn push(&mut self, ready_time: TimeNs, i: usize, t: TimeNs) {
        if ready_time <= t {
            self.released.push(i);
        } else {
            self.waiting.push(Reverse((ready_time, i)));
        }
    }

    /// Moves every waiting activity whose ready time the clock `t` reached.
    fn release(&mut self, t: TimeNs) {
        while let Some(&Reverse((rt, i))) = self.waiting.peek() {
            if rt > t {
                break;
            }
            self.waiting.pop();
            self.released.push(i);
        }
    }
}

/// The paper's optimal LP: the maximum concurrency of the best-effort
/// schedule.
pub fn optimal_lp(adg: &Adg, now: TimeNs) -> usize {
    best_effort(adg, now).max_concurrency()
}

/// Cold predictive completion estimate: expands the purely-predictive ADG
/// of `root` from `estimates` and lays it out at `lp` — the WCT one
/// submission of `root` is forecast to take from scratch.
///
/// `None` when `estimates` does not cover every muscle of `root` (the
/// same analysis gate the controller applies: never decide from a guess)
/// or when the tree expands to an empty graph. This is the read path the
/// self-configuration layer's forecast-gated rules share with the
/// controller ([`AutonomicController::forecast_wct`](crate::controller::AutonomicController::forecast_wct)).
pub fn predictive_wct(
    estimates: &crate::estimate::EstimatorTable,
    root: &std::sync::Arc<askel_skeletons::Node>,
    lp: usize,
) -> Option<TimeNs> {
    if !estimates.covers(&root.collect_muscles()) {
        return None;
    }
    let adg = crate::adg::AdgBuilder::from_estimates(estimates).build_predictive(root);
    if adg.is_empty() {
        return None;
    }
    Some(limited_lp(&adg, TimeNs::ZERO, lp.max(1)).finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adg::Activity;
    use askel_skeletons::{MuscleId, MuscleRole, NodeId};

    fn act(state: ActState, est: u64, preds: Vec<usize>) -> Activity {
        Activity {
            muscle: MuscleId::new(NodeId(1), MuscleRole::Execute),
            state,
            est: TimeNs(est),
            preds,
        }
    }

    /// split(10) → 3 × fe(15) → merge(5), nothing started.
    fn fan_adg() -> Adg {
        Adg {
            activities: vec![
                act(ActState::Pending, 10, vec![]),
                act(ActState::Pending, 15, vec![0]),
                act(ActState::Pending, 15, vec![0]),
                act(ActState::Pending, 15, vec![0]),
                act(ActState::Pending, 5, vec![1, 2, 3]),
            ],
        }
    }

    #[test]
    fn best_effort_is_critical_path() {
        let s = best_effort(&fan_adg(), TimeNs::ZERO);
        assert_eq!(s.finish, TimeNs(30));
        assert_eq!(s.max_concurrency(), 3);
    }

    #[test]
    fn limited_lp_serializes() {
        let s = limited_lp(&fan_adg(), TimeNs::ZERO, 1);
        assert_eq!(s.finish, TimeNs(10 + 45 + 5));
        let s2 = limited_lp(&fan_adg(), TimeNs::ZERO, 2);
        assert_eq!(s2.finish, TimeNs(10 + 30 + 5));
    }

    #[test]
    fn limited_lp_with_big_lp_equals_best_effort() {
        let be = best_effort(&fan_adg(), TimeNs::ZERO);
        let ll = limited_lp(&fan_adg(), TimeNs::ZERO, 64);
        assert_eq!(be.finish, ll.finish);
    }

    #[test]
    fn running_activities_hold_their_workers() {
        // Two running activities (est 10, started at 0), one pending (5),
        // LP 2, now = 2: the pending one must wait until 10.
        let adg = Adg {
            activities: vec![
                act(ActState::Running { start: TimeNs(0) }, 10, vec![]),
                act(ActState::Running { start: TimeNs(0) }, 10, vec![]),
                act(ActState::Pending, 5, vec![]),
            ],
        };
        let s = limited_lp(&adg, TimeNs(2), 2);
        assert_eq!(s.spans[2], (TimeNs(10), TimeNs(15)));
        assert_eq!(s.finish, TimeNs(15));
    }

    #[test]
    fn overdue_running_activity_is_clamped_to_now() {
        // Started at 0 with est 10, but now = 25: tf = now (paper rule).
        let adg = Adg {
            activities: vec![act(ActState::Running { start: TimeNs(0) }, 10, vec![])],
        };
        let s = best_effort(&adg, TimeNs(25));
        assert_eq!(s.spans[0], (TimeNs(0), TimeNs(25)));
    }

    #[test]
    fn pending_start_is_clamped_to_now() {
        // Pred finished at 5, now = 20: the pending activity starts at 20.
        let adg = Adg {
            activities: vec![
                act(
                    ActState::Done {
                        start: TimeNs(0),
                        end: TimeNs(5),
                    },
                    5,
                    vec![],
                ),
                act(ActState::Pending, 10, vec![0]),
            ],
        };
        let s = best_effort(&adg, TimeNs(20));
        assert_eq!(s.spans[1], (TimeNs(20), TimeNs(30)));
        let s = limited_lp(&adg, TimeNs(20), 1);
        assert_eq!(s.spans[1], (TimeNs(20), TimeNs(30)));
    }

    #[test]
    fn done_history_is_preserved_and_does_not_take_capacity() {
        let adg = Adg {
            activities: vec![
                act(
                    ActState::Done {
                        start: TimeNs(0),
                        end: TimeNs(100),
                    },
                    100,
                    vec![],
                ),
                act(ActState::Pending, 10, vec![]),
            ],
        };
        let s = limited_lp(&adg, TimeNs(100), 1);
        assert_eq!(s.spans[0], (TimeNs(0), TimeNs(100)));
        assert_eq!(s.spans[1], (TimeNs(100), TimeNs(110)));
    }

    #[test]
    fn zero_lp_with_pending_work_never_finishes() {
        let s = limited_lp(&fan_adg(), TimeNs::ZERO, 0);
        assert_eq!(s.finish, TimeNs::MAX);
    }

    #[test]
    fn zero_duration_activities_do_not_occupy_workers() {
        // Three zero-cost activities + one real one, LP 1: all zero-cost
        // ones run "instantly" alongside.
        let adg = Adg {
            activities: vec![
                act(ActState::Pending, 0, vec![]),
                act(ActState::Pending, 0, vec![0]),
                act(ActState::Pending, 7, vec![1]),
                act(ActState::Pending, 0, vec![2]),
            ],
        };
        let s = limited_lp(&adg, TimeNs::ZERO, 1);
        assert_eq!(s.finish, TimeNs(7));
    }

    #[test]
    fn timeline_shows_the_fan() {
        let s = best_effort(&fan_adg(), TimeNs::ZERO);
        let tl = s.timeline();
        assert_eq!(
            tl,
            vec![
                TimelinePoint {
                    at: TimeNs(0),
                    active: 1
                },
                TimelinePoint {
                    at: TimeNs(10),
                    active: 3
                },
                TimelinePoint {
                    at: TimeNs(25),
                    active: 1
                },
                TimelinePoint {
                    at: TimeNs(30),
                    active: 0
                },
            ]
        );
        assert_eq!(s.max_concurrency_from(TimeNs(26)), 1);
        assert_eq!(s.max_concurrency_from(TimeNs(10)), 3);
    }

    #[test]
    fn optimal_lp_matches_max_concurrency() {
        assert_eq!(optimal_lp(&fan_adg(), TimeNs::ZERO), 3);
    }

    #[test]
    fn wct_is_monotonically_nonincreasing_in_lp() {
        let adg = fan_adg();
        let mut prev = limited_lp(&adg, TimeNs::ZERO, 1).finish;
        for lp in 2..8 {
            let cur = limited_lp(&adg, TimeNs::ZERO, lp).finish;
            assert!(cur <= prev, "lp {lp}: {cur:?} > {prev:?}");
            prev = cur;
        }
    }
}
