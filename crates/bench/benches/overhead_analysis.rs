//! Micro-bench for the autonomic analysis pipeline: ADG construction and
//! both scheduling strategies at growing problem sizes. Substantiates the
//! paper's claim that runtime estimation (no pre-calculated estimates) is
//! affordable.
//!
//! The `live_adg` group measures one controller analysis the way a live
//! run pays for it: a 256-leaf d&C mergesort, replayed from a
//! `SimEngine` event log into the controller and an `SmTracker` up to the
//! middle of the run, so half the recursion has finished and folds out
//! of the controller's graph.

use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use askel_core::{
    best_effort, limited_lp, AdgBuilder, AutonomicController, ControllerConfig, FnActuator,
    FoldCache, SmTracker,
};
use askel_events::{Event, FnListener, Payload, When};
use askel_sim::cost::{JitterCost, TableCost};
use askel_sim::SimEngine;
use askel_skeletons::{map, seq, MuscleId, MuscleRole, Skel, TimeNs};
use askel_workloads::numeric::mergesort;

/// Nested map whose predicted ADG has ≈ `card²` activities.
fn tracker_for(card: usize) -> (SmTracker, Skel<Vec<i64>, i64>) {
    let inner = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let skel: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| vec![v],
        inner,
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let mut tracker = SmTracker::new(0.5);
    let est = tracker.estimates_mut();
    for m in skel.node().collect_muscles() {
        est.init_duration(m.id, TimeNs::from_millis(10));
        if m.id.role == MuscleRole::Split {
            est.init_cardinality(m.id, card as f64);
        }
    }
    let _ = MuscleId::new(skel.id(), MuscleRole::Split);
    (tracker, skel)
}

fn bench_adg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("adg_build_predictive");
    group.sample_size(30);
    for card in [4usize, 16, 32] {
        let (tracker, skel) = tracker_for(card);
        group.bench_with_input(BenchmarkId::new("card", card), &card, |b, _| {
            b.iter(|| AdgBuilder::new(&tracker).build_predictive(skel.node()))
        });
    }
    group.finish();
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategies");
    group.sample_size(30);
    for card in [4usize, 16, 32] {
        let (tracker, skel) = tracker_for(card);
        let adg = AdgBuilder::new(&tracker).build_predictive(skel.node());
        group.bench_with_input(
            BenchmarkId::new("best_effort", adg.len()),
            &adg,
            |b, adg| b.iter(|| best_effort(adg, TimeNs::ZERO)),
        );
        group.bench_with_input(
            BenchmarkId::new("limited_lp_8", adg.len()),
            &adg,
            |b, adg| b.iter(|| limited_lp(adg, TimeNs::ZERO, 8)),
        );
        let _ = card;
    }
    group.finish();
}

/// Every event of two back-to-back `SimEngine` runs of a 256-leaf
/// mergesort at LP 2, one log per run.
fn mergesort_events(skel: &Skel<Vec<i64>, Vec<i64>>) -> [Vec<Event>; 2] {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let cost = JitterCost::new(TableCost::new(TimeNs::from_micros(100)), 0.5, 7);
    let mut sim = SimEngine::new(2, Arc::new(cost));
    sim.registry().add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, e: &Event| sink.lock().expect("event log lock").push(e.clone()),
    )));
    [1i64, 2].map(|seed| {
        let input: Vec<i64> = (0..1 << 16)
            .map(|i: i64| (i * 7919 * seed) % 65_521)
            .collect();
        sim.run(skel, input).expect("mergesort run");
        std::mem::take(&mut *log.lock().expect("event log lock"))
    })
}

fn bench_live_adg(c: &mut Criterion) {
    let skel = mergesort(256);
    // The first run teaches every estimate (the d&C depth is only known
    // once a recursion completes); the second stops half-way.
    let [warm, second] = mergesort_events(&skel);
    let afters: Vec<usize> = (0..second.len())
        .filter(|&i| second[i].when == When::After)
        .collect();
    let half = &second[..=afters[afters.len() / 2]];
    let now = half.last().expect("a half-way event").timestamp;

    // The batch workload's steady state: LP at its cap, goal missed, so
    // an analysis is one layout at the current LP plus best effort.
    let config = ControllerConfig::new(TimeNs::from_millis(1), 2).initial_lp(2);
    let controller = || {
        AutonomicController::new(
            skel.node().clone(),
            config.clone(),
            Arc::new(FnActuator(|_| {})),
        )
    };
    let replay = |events: &[Event]| {
        let c = controller();
        for e in warm.iter().chain(events) {
            askel_events::Listener::on_event(&*c, &mut Payload::None, e);
        }
        c
    };
    let mut group = c.benchmark_group("live_adg");
    group.sample_size(10);
    // Every analysis of one job, as the controller runs them on the
    // job's `After` events.
    group.bench_function(
        BenchmarkId::new("job_analyses", replay(&second).analyses()),
        |b| b.iter(|| replay(&second)),
    );
    let controller = AutonomicController::new(
        skel.node().clone(),
        config.clone().manual_analysis(true),
        Arc::new(FnActuator(|_| {})),
    );
    let mut tracker = SmTracker::new(0.5);
    for e in warm.iter().chain(half) {
        askel_events::Listener::on_event(&*controller, &mut Payload::None, e);
        tracker.observe(e);
    }
    let mut folds = FoldCache::new();
    let full = AdgBuilder::new(&tracker).build(skel.node());
    let folded = AdgBuilder::new(&tracker)
        .fold_finished(now, &mut folds)
        .build(skel.node());

    group.bench_function("controller_analysis", |b| {
        b.iter(|| controller.force_analyze(now))
    });
    assert!(controller.analyses() > 0, "the analysis gate must be open");
    group.bench_function(BenchmarkId::new("build_full", full.len()), |b| {
        b.iter(|| AdgBuilder::new(&tracker).build(skel.node()))
    });
    group.bench_function(BenchmarkId::new("build_folded", folded.len()), |b| {
        b.iter(|| {
            AdgBuilder::new(&tracker)
                .fold_finished(now, &mut folds)
                .build(skel.node())
        })
    });
    for (name, adg) in [("full", &full), ("folded", &folded)] {
        group.bench_function(BenchmarkId::new("limited_lp_2", name), |b| {
            b.iter(|| limited_lp(adg, now, 2))
        });
        group.bench_function(BenchmarkId::new("best_effort", name), |b| {
            b.iter(|| best_effort(adg, now))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adg_build, bench_strategies, bench_live_adg);
criterion_main!(benches);
