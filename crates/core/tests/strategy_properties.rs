//! Property tests over the scheduling strategies: randomly generated ADGs
//! must satisfy the invariants the controller's decisions rely on.

use proptest::prelude::*;

use askel_core::{best_effort, limited_lp, ActState, Activity, Adg, Schedule};
use askel_skeletons::{MuscleId, MuscleRole, NodeId, TimeNs};

/// A random DAG in topological order: each activity picks predecessors
/// among earlier indices; a prefix of activities is Done (historical),
/// possibly followed by Running ones, then Pending.
fn adg_strategy() -> impl Strategy<Value = (Adg, TimeNs)> {
    let n_range = 1usize..24;
    n_range
        .prop_flat_map(|n| {
            let durations = proptest::collection::vec(0u64..40, n);
            let pred_seeds =
                proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..3), n);
            let done_cut = 0..=n;
            (Just(n), durations, pred_seeds, done_cut, 0usize..4)
        })
        .prop_map(|(n, durations, pred_seeds, done_cut, running_extra)| {
            let mut activities = Vec::with_capacity(n);
            let mut clock = 0u64;
            let running_end = (done_cut + running_extra).min(n);
            for i in 0..n {
                let preds: Vec<usize> = if i == 0 {
                    vec![]
                } else {
                    let mut p: Vec<usize> =
                        pred_seeds[i].iter().map(|s| (*s as usize) % i).collect();
                    p.sort_unstable();
                    p.dedup();
                    p
                };
                let est = TimeNs(durations[i] * 1_000);
                let state = if i < done_cut {
                    // Historical: sequential-ish spans in the past.
                    let start = TimeNs(clock);
                    let end = TimeNs(clock + durations[i] * 1_000);
                    clock += durations[i] * 1_000;
                    ActState::Done { start, end }
                } else if i < running_end {
                    ActState::Running {
                        start: TimeNs(clock),
                    }
                } else {
                    ActState::Pending
                };
                activities.push(Activity {
                    muscle: MuscleId::new(NodeId(i as u64 + 1), MuscleRole::Execute),
                    state,
                    est,
                    preds,
                });
            }
            let now = TimeNs(clock);
            (Adg { activities }, now)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn limited_lp_with_huge_lp_equals_best_effort((adg, now) in adg_strategy()) {
        let be = best_effort(&adg, now);
        let ll = limited_lp(&adg, now, adg.len() + 8);
        prop_assert_eq!(be.finish, ll.finish);
    }

    #[test]
    fn more_workers_never_lose_to_one_worker((adg, now) in adg_strategy()) {
        // Strict monotonicity in LP does NOT hold for greedy list
        // scheduling on arbitrary DAGs (Graham's anomaly) — the paper
        // *assumes* non-decreasing speedup rather than proving it. What
        // greedy non-idling scheduling does guarantee is Graham's bound,
        // which implies no LP is worse than fully serial.
        let serial = limited_lp(&adg, now, 1).finish;
        for lp in 2..=(adg.len() + 2) {
            let cur = limited_lp(&adg, now, lp).finish;
            prop_assert!(cur <= serial, "lp {} beat by serial: {:?} > {:?}", lp, cur, serial);
        }
    }

    #[test]
    fn best_effort_is_a_lower_bound((adg, now) in adg_strategy()) {
        let be = best_effort(&adg, now).finish;
        for lp in 1..=4usize {
            let ll = limited_lp(&adg, now, lp).finish;
            prop_assert!(ll >= be, "limited({lp}) {:?} beat best effort {:?}", ll, be);
        }
    }

    #[test]
    fn schedules_respect_precedence((adg, now) in adg_strategy()) {
        for sched in [best_effort(&adg, now), limited_lp(&adg, now, 2)] {
            for (i, a) in adg.activities.iter().enumerate() {
                if matches!(a.state, ActState::Pending) {
                    for &p in &a.preds {
                        prop_assert!(
                            sched.spans[i].0 >= sched.spans[p].1,
                            "activity {} starts {:?} before pred {} ends {:?}",
                            i, sched.spans[i].0, p, sched.spans[p].1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pending_never_starts_in_the_past((adg, now) in adg_strategy()) {
        for sched in [best_effort(&adg, now), limited_lp(&adg, now, 3)] {
            for (i, a) in adg.activities.iter().enumerate() {
                if matches!(a.state, ActState::Pending) {
                    prop_assert!(sched.spans[i].0 >= now);
                }
            }
        }
    }

    #[test]
    fn limited_lp_respects_the_bound_from_now((adg, now) in adg_strategy(), lp in 1usize..6) {
        // Count concurrency over the future part of the schedule; running
        // activities occupy workers too, but a shrink below the number of
        // already-running activities legitimately exceeds the bound (no
        // preemption), so the bound only applies once they finish.
        let running = adg
            .activities
            .iter()
            .filter(|a| matches!(a.state, ActState::Running { .. }))
            .count();
        let sched = limited_lp(&adg, now, lp);
        let effective_bound = lp.max(running);
        // Sweep concurrency over non-done activities with positive length.
        let mut deltas: Vec<(TimeNs, i64)> = Vec::new();
        for (i, a) in adg.activities.iter().enumerate() {
            if matches!(a.state, ActState::Done { .. }) {
                continue;
            }
            let (s, e) = sched.spans[i];
            if e > s {
                deltas.push((s, 1));
                deltas.push((e, -1));
            }
        }
        deltas.sort_by_key(|&(t, d)| (t, d));
        let mut cur = 0i64;
        for (_, d) in deltas {
            cur += d;
            prop_assert!(
                cur as usize <= effective_bound,
                "{} concurrent > bound {}",
                cur,
                effective_bound
            );
        }
    }

    #[test]
    fn done_history_is_never_rewritten((adg, now) in adg_strategy()) {
        for sched in [best_effort(&adg, now), limited_lp(&adg, now, 2)] {
            for (i, a) in adg.activities.iter().enumerate() {
                if let ActState::Done { start, end } = a.state {
                    prop_assert_eq!(sched.spans[i], (start, end));
                }
            }
        }
    }

    #[test]
    fn running_ends_are_past_clamped((adg, now) in adg_strategy()) {
        let sched = best_effort(&adg, now);
        for (i, a) in adg.activities.iter().enumerate() {
            if let ActState::Running { start } = a.state {
                let expected = (start + a.est).max(now);
                prop_assert_eq!(sched.spans[i].1, expected);
            }
        }
    }

    #[test]
    fn optimal_lp_bounds_useful_parallelism((adg, now) in adg_strategy()) {
        // Giving the scheduler the optimal LP must recover the best-effort
        // finish time (that's what "optimal" means in the paper).
        let be = best_effort(&adg, now);
        let opt = be.max_concurrency_from(now).max(1);
        let ll = limited_lp(&adg, now, opt);
        prop_assert_eq!(
            ll.finish, be.finish,
            "optimal LP {} did not recover best effort", opt
        );
    }

    #[test]
    fn timeline_integrates_to_total_work((adg, now) in adg_strategy()) {
        // ∑ span lengths == ∫ timeline (conservation of work).
        let sched = limited_lp(&adg, now, 2);
        let total: u128 = sched.spans.iter().map(|(s, e)| (e.0 - s.0) as u128).sum();
        let tl = sched.timeline();
        let mut integral: u128 = 0;
        for w in tl.windows(2) {
            integral += (w[1].at.0 - w[0].at.0) as u128 * w[0].active as u128;
        }
        // The last point has active = 0, so the integral is complete.
        prop_assert_eq!(total, integral);
    }
}

// ---- oracle: the quadratic list scheduler ---------------------------------

/// The original O(n²) `limited_lp`, kept verbatim as the oracle for the
/// heap-based scheduler: a linear scan of the ready list per start, and a
/// quadratic seeding scan.
fn quadratic_limited_lp(adg: &Adg, now: TimeNs, lp: usize) -> Schedule {
    let n = adg.len();
    let mut spans: Vec<(TimeNs, TimeNs)> = vec![(TimeNs::ZERO, TimeNs::ZERO); n];
    let mut scheduled = vec![false; n];
    let mut finish = TimeNs::ZERO;

    // Reverse adjacency + pending-predecessor counts.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut missing_preds = vec![0usize; n];
    for (i, a) in adg.activities.iter().enumerate() {
        if matches!(a.state, ActState::Pending) {
            for &p in &a.preds {
                succs[p].push(i);
            }
            missing_preds[i] = a.preds.len();
        }
    }

    // Completion events: (time, activity index).
    let mut events: std::collections::BinaryHeap<std::cmp::Reverse<(TimeNs, usize)>> =
        std::collections::BinaryHeap::new();
    // Ready pending activities: (ready_time, idx).
    let mut ready: Vec<(TimeNs, usize)> = Vec::new();
    let mut in_use = 0usize;
    let mut pending_left = 0usize;

    let resolve = |i: usize,
                   end: TimeNs,
                   missing_preds: &mut Vec<usize>,
                   ready: &mut Vec<(TimeNs, usize)>,
                   spans: &Vec<(TimeNs, TimeNs)>,
                   succs: &Vec<Vec<usize>>,
                   scheduled: &Vec<bool>,
                   adg: &Adg| {
        let _ = end;
        for &s in &succs[i] {
            if missing_preds[s] > 0 {
                missing_preds[s] -= 1;
                if missing_preds[s] == 0 {
                    let ready_time = adg.activities[s]
                        .preds
                        .iter()
                        .map(|&p| spans[p].1)
                        .fold(now, TimeNs::max);
                    debug_assert!(scheduled.iter().len() >= s);
                    ready.push((ready_time, s));
                }
            }
        }
    };

    // Seed with Done and Running activities.
    for (i, a) in adg.activities.iter().enumerate() {
        match a.state {
            ActState::Done { start, end } => {
                spans[i] = (start, end);
                scheduled[i] = true;
                finish = finish.max(end);
            }
            ActState::Running { start } => {
                let end = (start + a.est).max(now);
                spans[i] = (start, end);
                scheduled[i] = true;
                finish = finish.max(end);
                in_use += 1;
                events.push(std::cmp::Reverse((end, i)));
            }
            ActState::Pending => pending_left += 1,
        }
    }
    // Resolve successors of *Done* activities only — Running ones resolve
    // when their completion event fires (resolving them here too would
    // count them twice and let successors start before their preds end).
    for i in 0..n {
        if matches!(adg.activities[i].state, ActState::Done { .. }) {
            let end = spans[i].1;
            resolve(
                i,
                end,
                &mut missing_preds,
                &mut ready,
                &spans,
                &succs,
                &scheduled,
                adg,
            );
        }
    }
    // Pending activities with no pending preds at all (their preds were
    // all Done/Running, already handled) — also those with zero preds.
    for (i, a) in adg.activities.iter().enumerate() {
        if matches!(a.state, ActState::Pending) && missing_preds[i] == 0 {
            let ready_time = a.preds.iter().map(|&p| spans[p].1).fold(now, TimeNs::max);
            if !ready.iter().any(|&(_, j)| j == i) {
                ready.push((ready_time, i));
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
    loop {
        // Start everything ready and startable at time t, LIFO-ish.
        loop {
            if in_use >= lp {
                break;
            }
            // Eligible: ready_time ≤ t; pick the highest index (mirrors
            // the runtime's LIFO stack on ties).
            let mut best: Option<usize> = None; // position in `ready`
            for (pos, &(rt, idx)) in ready.iter().enumerate() {
                if rt <= t {
                    match best {
                        Some(b) if ready[b].1 >= idx => {}
                        _ => best = Some(pos),
                    }
                }
            }
            let Some(pos) = best else { break };
            let (_, i) = ready.swap_remove(pos);
            let est = adg.activities[i].est;
            spans[i] = (t, t + est);
            scheduled[i] = true;
            finish = finish.max(t + est);
            pending_left -= 1;
            if est.0 == 0 {
                // Zero-duration activities complete instantly and do not
                // occupy a worker.
                resolve(
                    i,
                    t,
                    &mut missing_preds,
                    &mut ready,
                    &spans,
                    &succs,
                    &scheduled,
                    adg,
                );
            } else {
                in_use += 1;
                events.push(std::cmp::Reverse((t + est, i)));
            }
        }
        if pending_left == 0 && events.is_empty() {
            break;
        }
        // Advance to the next completion.
        let Some(std::cmp::Reverse((et, i))) = events.pop() else {
            // No running activity but work left: only possible when every
            // ready_time is in the future relative to t — advance to the
            // earliest.
            let Some(&(rt, _)) = ready.iter().min_by_key(|&&(rt, _)| rt) else {
                break;
            };
            t = t.max(rt);
            continue;
        };
        t = t.max(et);
        in_use -= 1;
        resolve(
            i,
            et,
            &mut missing_preds,
            &mut ready,
            &spans,
            &succs,
            &scheduled,
            adg,
        );
        // Drain simultaneous completions.
        while let Some(&std::cmp::Reverse((et2, _))) = events.peek() {
            if et2 != t {
                break;
            }
            let std::cmp::Reverse((_, j)) = events.pop().expect("peeked");
            in_use -= 1;
            resolve(
                j,
                t,
                &mut missing_preds,
                &mut ready,
                &spans,
                &succs,
                &scheduled,
                adg,
            );
        }
    }

    Schedule { spans, finish }
}

/// A random DAG for the oracle: states mixed in any order, zero-duration
/// activities, duplicate predecessor edges, Running starts and Done ends
/// on either side of `now` (threaded events reach the controller's lock
/// out of timestamp order).
fn oracle_adg_strategy() -> impl Strategy<Value = (Adg, TimeNs)> {
    (1usize..40)
        .prop_flat_map(|n| {
            let acts = proptest::collection::vec(
                (
                    0u8..3,
                    prop_oneof![Just(0u64), 0u64..20],
                    0u64..120,
                    proptest::collection::vec(any::<u32>(), 0..4),
                ),
                n,
            );
            (acts, 0u64..120)
        })
        .prop_map(|(acts, now)| {
            let activities = acts
                .into_iter()
                .enumerate()
                .map(|(i, (kind, dur, start, pred_seeds))| {
                    let preds = if i == 0 {
                        vec![]
                    } else {
                        pred_seeds.iter().map(|s| *s as usize % i).collect()
                    };
                    let state = match kind {
                        0 => ActState::Done {
                            start: TimeNs(start),
                            end: TimeNs(start + dur),
                        },
                        1 => ActState::Running {
                            start: TimeNs(start),
                        },
                        _ => ActState::Pending,
                    };
                    Activity {
                        muscle: MuscleId::new(NodeId(i as u64 + 1), MuscleRole::Execute),
                        state,
                        est: TimeNs(dur),
                        preds,
                    }
                })
                .collect();
            (Adg { activities }, TimeNs(now))
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn heap_scheduler_matches_the_quadratic_oracle(
        (adg, now) in oracle_adg_strategy(),
        lp in 0usize..=9,
    ) {
        prop_assert_eq!(limited_lp(&adg, now, lp), quadratic_limited_lp(&adg, now, lp));
    }
}
