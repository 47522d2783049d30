//! Folding finished history out of the controller's ADG is exact.
//!
//! At every `After` event of simulated runs — where the controller
//! analyzes — the folded graph and the full graph must give the
//! controller identical answers: the limited-LP finish at every LP it
//! may try, the best-effort finish, and the forward concurrency that
//! caps a raise.

use std::sync::{Arc, Mutex};

use askel_bench::PaperScenarios;
use autonomic_skeletons::core::{best_effort, limited_lp, AdgBuilder, FoldCache, SmTracker};
use autonomic_skeletons::events::Event;
use autonomic_skeletons::prelude::*;
use autonomic_skeletons::skeletons::{MuscleId, Node};
use autonomic_skeletons::workloads::numeric::mergesort;

/// Replays events into a tracker as the controller does and compares the
/// full and the folded ADG after each `After` event.
struct FoldChecker {
    root: Arc<Node>,
    tracker: SmTracker,
    folds: FoldCache,
    analyses: usize,
    /// Activities the folded graphs dropped, summed over all analyses.
    folded_away: usize,
}

impl FoldChecker {
    fn new(root: Arc<Node>, aliases: &[(MuscleId, MuscleId)]) -> Self {
        let mut tracker = SmTracker::new(0.5);
        for (m, canonical) in aliases {
            tracker.estimates_mut().set_alias(*m, *canonical);
        }
        FoldChecker {
            root,
            tracker,
            folds: FoldCache::new(),
            analyses: 0,
            folded_away: 0,
        }
    }

    fn observe(&mut self, e: &Event) {
        if e.node == self.root.id
            && e.when == When::Before
            && e.wher == Where::Skeleton
            && e.trace.depth() == 1
        {
            self.tracker.prune_finished();
            self.folds.clear();
        }
        self.tracker.observe(e);
        if e.when != When::After {
            return;
        }
        let now = e.timestamp;
        let full = AdgBuilder::new(&self.tracker).build(&self.root);
        let folded = AdgBuilder::new(&self.tracker)
            .fold_finished(now, &mut self.folds)
            .build(&self.root);
        let at = format!("event {e:?}");
        for lp in 1..=8 {
            assert_eq!(
                limited_lp(&full, now, lp).finish,
                limited_lp(&folded, now, lp).finish,
                "limited-LP finish at lp {lp}, {at}"
            );
        }
        let (full_be, folded_be) = (best_effort(&full, now), best_effort(&folded, now));
        assert_eq!(full_be.finish, folded_be.finish, "best effort, {at}");
        assert_eq!(
            full_be.max_concurrency_from(now),
            folded_be.max_concurrency_from(now),
            "forward concurrency, {at}"
        );
        self.analyses += 1;
        self.folded_away += full.len() - folded.len();
    }
}

/// Runs `runs` submissions through `sim` with a [`FoldChecker`] attached;
/// returns `(analyses, folded_away)`.
fn check_runs<P: Clone + Send + 'static, R: Send + 'static>(
    sim: &mut SimEngine,
    skel: &Skel<P, R>,
    aliases: &[(MuscleId, MuscleId)],
    input: P,
    runs: usize,
) -> (usize, usize) {
    let checker = Arc::new(Mutex::new(FoldChecker::new(skel.node().clone(), aliases)));
    let sink = Arc::clone(&checker);
    sim.registry().add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, e: &Event| sink.lock().expect("checker lock").observe(e),
    )));
    for _ in 0..runs {
        sim.run(skel, input.clone()).expect("simulated run");
    }
    let c = checker.lock().expect("checker lock");
    (c.analyses, c.folded_away)
}

#[test]
fn folding_is_exact_on_the_dc_mergesort() {
    let skel = mergesort(64);
    let input: Vec<i64> = (0..1 << 12).map(|i: i64| (i * 7919) % 4093).collect();
    for lp in [1, 2, 3] {
        let cost = JitterCost::new(TableCost::new(TimeNs::from_micros(100)), 0.5, lp as u64);
        let mut sim = SimEngine::new(lp, Arc::new(cost));
        let (analyses, folded_away) = check_runs(&mut sim, &skel, &[], input.clone(), 2);
        assert!(analyses > 500, "lp {lp}: only {analyses} analyses");
        assert!(folded_away > 0, "lp {lp}: nothing folded");
    }
}

#[test]
fn folding_is_exact_on_the_paper_word_count() {
    let scenarios = PaperScenarios::default();
    let program = &scenarios.program;
    let aliases = program.shared_muscle_aliases();
    for lp in [1, 3, 8] {
        let mut sim = SimEngine::new(lp, scenarios.cost_model());
        let (analyses, folded_away) = check_runs(
            &mut sim,
            &program.skel,
            &aliases,
            scenarios.corpus_clone(),
            2,
        );
        assert!(analyses > 100, "lp {lp}: only {analyses} analyses");
        assert!(folded_away > 0, "lp {lp}: nothing folded");
    }
}
