//! End-to-end self-configuration: the adaptive word count reshapes itself
//! mid-stream (promotion, width retune, fallback-swap), every rewrite is
//! announced through `Reconfigured` events and audited in the decision
//! log, results match the unadapted reference — and on the simulator the
//! whole decision sequence replays deterministically, virtual timestamps
//! included.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use autonomic_skeletons::adapt::Reconfigurator;
use autonomic_skeletons::prelude::*;
use autonomic_skeletons::skeletons::MuscleId;
use autonomic_skeletons::workloads::adaptive::{AdaptiveWordCount, POISON};
use autonomic_skeletons::workloads::{generate_corpus, TweetGenConfig};

fn corpus(tweets: usize) -> Vec<String> {
    generate_corpus(&TweetGenConfig::with_tweets(tweets))
}

fn poisoned(tweets: usize) -> Vec<String> {
    let mut c = corpus(tweets);
    c.push(format!("linea rota {POISON} @usuario2"));
    c
}

/// The acceptance scenario: two structural rewrites (a promotion and a
/// fallback-swap) plus a knob retune happen mid-stream on the threaded
/// engine, visible in the emitted `Reconfigured` events and the decision
/// log, with results identical to the unadapted (robust) reference.
#[test]
fn adaptive_wordcount_reshapes_mid_stream() {
    let wc = AdaptiveWordCount::new(4);
    let engine = Engine::new(2);

    // Collect every Reconfigured event.
    let reconfigured = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&reconfigured);
    engine.registry().add_filtered(
        EventFilter::all().wher(Where::Reconfigured),
        Arc::new(FnListener(
            move |_: &mut Payload<'_>, e: &autonomic_skeletons::events::Event| {
                sink.lock().unwrap().push((e.paper_notation(), e.node));
            },
        )),
    );

    let trigger = TriggerEngine::new(0.5);
    engine.registry().add_listener(trigger.clone());
    trigger.add_rule(
        Promote::new(&wc.count, &wc.parallel)
            .named("promote-count")
            .when(Trigger::InputSizeAtLeast(200.0)),
    );
    let par_split = MuscleId::new(wc.parallel.id(), MuscleRole::Split);
    trigger.add_rule(
        RetuneWidth::new(Knob::from_shared("count-width", Arc::clone(&wc.width)), 3)
            .bounds(2, 64)
            .when(Trigger::CardinalityAtLeast(par_split, 1.0)),
    );
    trigger.add_rule(FallbackSwap::new(&wc.filter, &wc.robust, 2).named("swap-filter"));

    let mut stream = AdaptiveSession::new(&engine, &wc.program, trigger.clone())
        .input_size(|c: &Vec<String>| c.len());

    let mut items: Vec<Vec<String>> = Vec::new();
    items.extend((0..3).map(|_| corpus(40)));
    items.extend((0..3).map(|_| corpus(600)));
    items.extend((0..3).map(|_| poisoned(400)));
    items.push(corpus(200));

    let mut results = Vec::new();
    for item in &items {
        stream.feed(item.clone());
        results.push(stream.next_result().expect("lock-step"));
    }
    assert_eq!(stream.version(), 3);
    engine.shutdown();

    // Exactly the two streak items fail; every success equals the
    // unadapted reference result.
    let errors: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_err().then_some(i))
        .collect();
    assert_eq!(errors, vec![6, 7], "the first two corrupt items fail");
    for (i, (item, result)) in items.iter().zip(&results).enumerate() {
        if let Ok(counts) = result {
            assert_eq!(counts, &wc.reference(item), "item {i} diverged");
        }
    }

    // The rewrites are visible through both channels.
    let events = reconfigured.lock().unwrap().clone();
    assert_eq!(events.len(), 3, "{events:?}");
    assert!(events[0].0.contains("@rc(i1, v=1)"), "{events:?}");
    assert!(events[2].0.contains("v=3"), "{events:?}");
    let log = trigger.decision_log();
    let rules: Vec<&str> = log.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["promote-count", "width-retune", "swap-filter"]);
    assert_eq!(log[0].target, Some(wc.count.id()));
    assert_eq!(log[2].target, Some(wc.filter.id()));
    assert_eq!(wc.width.load(Ordering::SeqCst), 6, "lp 2 × 3 per worker");
    assert!(log.iter().all(|d| !d.why.is_empty()));
}

/// The same loop driven by the `Reconfigurator` over the discrete-event
/// simulator: rewrite decisions (virtual timestamps included) replay
/// identically across runs.
#[test]
fn sim_rewrite_decisions_are_deterministic() {
    fn run_once() -> (Vec<(TimeNs, u64, String)>, Vec<i64>) {
        let v1: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let v2: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| vec![v],
            seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        // Every muscle costs 1s of virtual time.
        let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
        let mut sim = SimEngine::new(2, cost);
        let trigger = TriggerEngine::new(0.5);
        sim.registry().add_listener(trigger.clone());
        let fe = MuscleId::new(v1.node().children()[0].id, MuscleRole::Execute);
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("collapse-fan")
                .when(Trigger::DurationAtLeast(fe, TimeNs::from_millis(500))),
        );
        let reconf = Reconfigurator::new(
            Arc::clone(sim.registry()),
            sim.clock().clone(),
            trigger.clone(),
        )
        .lp_source(|| 2);
        let mut vskel = VersionedSkel::new(&v1);
        let mut outputs = Vec::new();
        for round in 0..4 {
            let input: Vec<i64> = (0..=round as i64).collect();
            let out = sim.run(vskel.skel(), input).expect("sim run");
            trigger.record_outcome(true);
            outputs.push(out.result);
            reconf.apply(&mut vskel);
        }
        assert_eq!(vskel.version(), 1, "the promotion fired exactly once");
        let log: Vec<(TimeNs, u64, String)> = trigger
            .decision_log()
            .into_iter()
            .map(|d| (d.at, d.version, d.rule))
            .collect();
        (log, outputs)
    }

    let (log_a, out_a) = run_once();
    let (log_b, out_b) = run_once();
    assert_eq!(out_a, out_b);
    assert_eq!(out_a, vec![0, 1, 3, 6]);
    assert_eq!(log_a.len(), 1);
    assert_eq!(
        log_a, log_b,
        "decision log (virtual timestamps included) must replay identically"
    );
}

/// The PR 5 acceptance scenario: oscillating load on a skewed two-node
/// cluster. Exactly one audited `Offload` fires, provisioning brings the
/// hub online, the hysteresis-damped grain knob never reverses direction
/// within its cooldown window, stream results are identical to the
/// sequential reference — and the whole decision sequence (virtual
/// timestamps included) replays deterministically.
#[test]
fn skewed_cluster_offload_acceptance() {
    use autonomic_skeletons::dist::{Cluster, NodeSpec, ProvisionAction, ProvisioningPolicy};
    use autonomic_skeletons::skeletons::KindTag;
    use autonomic_skeletons::workloads::{GrainedSquareSum, OscillatingLoad};

    const COOLDOWN: usize = 4;

    struct Run {
        /// `(at, version, rule)` — action strings are excluded because
        /// they embed process-global fresh `NodeId`s.
        decisions: Vec<(TimeNs, u64, String)>,
        actions: Vec<String>,
        provisions: Vec<(TimeNs, String, usize)>,
        outputs: Vec<i64>,
        grain_trace: Vec<(usize, usize)>, // (item index, grain after apply)
        hub_busy: TimeNs,
    }

    fn run_once() -> Run {
        let scenario = GrainedSquareSum::new(32);
        let load = OscillatingLoad::new(4, 160, 3);
        let items = load.inputs(18);
        let leaf = MuscleId::new(
            scenario.program.node().children()[0].id,
            MuscleRole::Execute,
        );
        let cost = PerMuscleCost::new(Arc::new(TableCost::new(TimeNs::from_millis(1)))).route(
            leaf,
            Arc::new(
                LinearCost::new(TimeNs::ZERO, TimeNs::from_millis(1))
                    .with_probe(|p| p.downcast_ref::<Vec<i64>>().map(Vec::len)),
            ),
        );
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 4, TimeNs::from_millis(2)).with_speed(2.0),
        ])
        .with_capacity(1);
        let telemetry = cluster.telemetry();
        let mut sim = SimEngine::with_workers(Box::new(cluster), Arc::new(cost));

        let trigger = TriggerEngine::new(0.5);
        sim.registry().add_listener(trigger.clone());
        trigger.add_rule(
            RetuneGrain::new(
                Knob::from_shared("grain", Arc::clone(&scenario.grain)),
                leaf,
                TimeNs::from_millis(10),
            )
            .bounds(4, 256)
            .hysteresis(autonomic_skeletons::adapt::Hysteresis::new(COOLDOWN, 0.2)),
        );
        trigger.add_rule(
            Offload::new(&scenario.program, "hub", telemetry.clone()).water_marks(0.7, 0.2),
        );
        let lp_view = telemetry.clone();
        let reconf = Reconfigurator::new(
            Arc::clone(sim.registry()),
            sim.clock().clone(),
            trigger.clone(),
        )
        .lp_source(move || lp_view.capacity().max(1));
        let mut policy = ProvisioningPolicy::new(0.8, 0.0).cooldown(3).announce_via(
            Arc::clone(sim.registry()),
            scenario.program.id(),
            KindTag::Map,
        );

        let mut vskel = VersionedSkel::new(&scenario.program);
        let clock = sim.clock().clone();
        let mut outputs = Vec::new();
        let mut grain_trace = Vec::new();
        for (k, input) in items.iter().enumerate() {
            let out = sim.run(vskel.skel(), input.clone()).expect("sim run");
            outputs.push(out.result);
            trigger.record_outcome(true);
            if let Some(capacity) = policy.review(&telemetry, clock.now()) {
                sim.set_lp(capacity);
            }
            if reconf.apply(&mut vskel) > 0 {
                grain_trace.push((k, scenario.grain.load(Ordering::SeqCst)));
            }
        }
        // Results identical to the sequential reference.
        for (k, input) in items.iter().enumerate() {
            assert_eq!(
                outputs[k],
                GrainedSquareSum::reference(input),
                "item {k} diverged"
            );
        }
        Run {
            decisions: trigger
                .decision_log()
                .iter()
                .map(|d| (d.at, d.version, d.rule.clone()))
                .collect(),
            actions: trigger
                .decision_log()
                .into_iter()
                .map(|d| format!("{}: {}", d.rule, d.action))
                .collect(),
            provisions: policy
                .log()
                .iter()
                .filter(|r| r.action == ProvisionAction::Add)
                .map(|r| (r.at, r.node.clone(), r.capacity))
                .collect(),
            outputs,
            grain_trace,
            hub_busy: telemetry.busy_per_node()[1],
        }
    }

    let a = run_once();
    // Exactly one audited Offload fired, onto the hub.
    let offloads: Vec<_> = a
        .actions
        .iter()
        .filter(|d| d.starts_with("offload:"))
        .collect();
    assert_eq!(offloads.len(), 1, "{:?}", a.actions);
    assert!(offloads[0].contains("`hub`"), "{:?}", offloads[0]);
    // Provisioning brought the hub online and offloaded work ran there.
    assert_eq!(a.provisions.len(), 1, "{:?}", a.provisions);
    assert_eq!(a.provisions[0].1, "hub");
    assert_eq!(a.provisions[0].2, 5, "edge slot + 4 hub slots");
    assert!(a.hub_busy > TimeNs::ZERO);
    // The grain knob moved, and never reversed direction within the
    // cooldown window (safe points = items here).
    assert!(!a.grain_trace.is_empty());
    let mut prev: Option<(usize, i64)> = None; // (item, direction)
    let mut grain = 32i64;
    for &(item, value) in &a.grain_trace {
        let dir = (value as i64 - grain).signum();
        if let Some((last_item, last_dir)) = prev {
            if dir != last_dir {
                assert!(
                    item - last_item >= COOLDOWN,
                    "grain reversed after {} items (cooldown {COOLDOWN}): {:?}",
                    item - last_item,
                    a.grain_trace
                );
            }
        }
        prev = Some((item, dir));
        grain = value as i64;
    }
    // Deterministic: the whole decision sequence replays identically.
    let b = run_once();
    assert_eq!(a.decisions, b.decisions, "virtual timestamps included");
    assert_eq!(a.provisions, b.provisions);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.grain_trace, b.grain_trace);
}

/// LP-coupled promotion: the forecast gate (fed through the controller's
/// `read_estimates`/`seed_from` path, or read straight from the
/// controller's tracker after `sync_controller`) blocks an unprofitable
/// promotion at LP 1, opens at LP 4, and the decision log audits the
/// predicted WCT against the realized WCT of the first item under the new
/// version.
#[test]
fn forecast_gated_promotion_audits_predicted_vs_realized() {
    use autonomic_skeletons::core::{AutonomicController, ControllerConfig, FnActuator};

    let v1: Skel<Vec<i64>, i64> = seq(|v: Vec<i64>| v.iter().sum::<i64>());
    let v2: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(4).map(|c| c.to_vec()).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let v1_fe = MuscleId::new(v1.id(), MuscleRole::Execute);
    let v2_fe = MuscleId::new(v2.node().children()[0].id, MuscleRole::Execute);
    let v2_fs = MuscleId::new(v2.id(), MuscleRole::Split);
    let v2_fm = MuscleId::new(v2.id(), MuscleRole::Merge);

    // The controller owns the estimates; the trigger seeds from it — the
    // two autonomic layers decide from one shared view of the world.
    let seeded_controller = || {
        let controller = AutonomicController::new(
            v1.node().clone(),
            ControllerConfig::new(TimeNs::from_secs(1), 4),
            Arc::new(FnActuator(|_| {})),
        );
        controller.with_estimates(|est| {
            est.init_duration(v1_fe, TimeNs::from_millis(800));
            est.init_duration(v2_fe, TimeNs::from_millis(200));
            est.init_duration(v2_fs, TimeNs::from_millis(1));
            est.init_duration(v2_fm, TimeNs::from_millis(1));
            est.init_cardinality(v2_fs, 4.0);
        });
        controller
    };
    let controller = seeded_controller();
    // The controller's own read path agrees with what the gate will see.
    let at1 = controller.forecast_wct(v2.node(), 1).unwrap();
    let at4 = controller.forecast_wct(v2.node(), 4).unwrap();
    assert!(at4 < at1);

    let run = |lp: usize, synced: bool| {
        let cost = Arc::new(
            TableCost::new(TimeNs::from_millis(1))
                .with(v1_fe, TimeNs::from_millis(800))
                .with(v2_fe, TimeNs::from_millis(200)),
        );
        let mut sim = SimEngine::new(lp, cost);
        let trigger = TriggerEngine::new(0.5);
        if !synced {
            trigger.seed_from(&controller);
        }
        sim.registry().add_listener(trigger.clone());
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("gated-promote")
                .when(Trigger::InputSizeAtLeast(1.0))
                .forecast_gated(0.2),
        );
        let mut reconf = Reconfigurator::new(
            Arc::clone(sim.registry()),
            sim.clock().clone(),
            trigger.clone(),
        )
        .lp_source(move || lp);
        if synced {
            // One tracker: a controller seeded the same way listens on
            // the sim and feeds the table the trigger reads.
            let own = seeded_controller();
            sim.registry().add_listener(own.clone());
            reconf = reconf.sync_controller(own);
        }
        let mut vskel = VersionedSkel::new(&v1);
        let mut realized_wcts = Vec::new();
        for round in 0..3 {
            // Round 0's safe point sees no input-size EWMA yet, so the
            // earliest possible fire is round 1's — item 0 always runs
            // on v1, giving the audit a pre-rewrite item to skip.
            reconf.apply(&mut vskel);
            let input: Vec<i64> = (0..16).collect();
            let out = sim.run(vskel.skel(), input).expect("sim run");
            assert_eq!(out.result, 120, "round {round}");
            trigger.observe_input_size(16);
            trigger.record_outcome(true);
            realized_wcts.push(out.wct);
        }
        (vskel.version(), trigger.decision_log(), realized_wcts)
    };

    for synced in [false, true] {
        // LP 1: the fan-out buys nothing — the gate stays closed.
        let (version, log, _) = run(1, synced);
        assert_eq!(version, 0, "unprofitable promotion blocked: {log:?}");
        assert!(log.is_empty());

        // LP 4: the forecast improves by far more than the 20% margin.
        let (version, log, wcts) = run(4, synced);
        assert_eq!(version, 1, "synced: {synced}");
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].rule, "gated-promote");
        let forecast = log[0].forecast.expect("gated fire carries its forecast");
        assert!(
            forecast.predicted < forecast.baseline,
            "gate only opens on improvement: {forecast:?}"
        );
        assert!(log[0].why.contains("forecast"), "{}", log[0].why);
        // The realized WCT of the first item under the new version closed
        // the audit — and the promotion really was faster.
        let realized = forecast.realized.expect("first post-rewrite item audited");
        assert_eq!(realized, wcts[1], "the audit records the item's WCT");
        assert!(realized < wcts[0], "promotion paid off: {wcts:?}");
    }
}

/// One tracker per stream: a synced trigger registered next to the
/// controller changes nothing the controller sees. The controller alone
/// feeds the shared tracker, so no event is observed twice.
#[test]
fn synced_trigger_leaves_the_controller_fed_once() {
    use autonomic_skeletons::core::{AutonomicController, ControllerConfig, FnActuator};

    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let run = |with_trigger: bool| {
        // Jittered costs: an event replayed twice would move the EWMAs.
        let cost = Arc::new(JitterCost::new(
            TableCost::new(TimeNs::from_millis(10)),
            0.5,
            7,
        ));
        let mut sim = SimEngine::new(1, cost);
        let lp = sim.lp_control();
        let controller = AutonomicController::new(
            program.node().clone(),
            ControllerConfig::new(TimeNs::from_millis(40), 8),
            Arc::new(FnActuator(move |n| lp.request(n))),
        );
        let trigger = TriggerEngine::new(0.5);
        if with_trigger {
            sim.registry().add_listener(trigger.clone());
            let _synced = Reconfigurator::new(
                Arc::clone(sim.registry()),
                sim.clock().clone(),
                trigger.clone(),
            )
            .sync_controller(Arc::clone(&controller));
        }
        sim.registry().add_listener(controller.clone());
        let results: Vec<i64> = (0..6)
            .map(|n| {
                sim.run(&program, (0..=n).collect())
                    .expect("sim run")
                    .result
            })
            .collect();
        if with_trigger {
            assert_eq!(
                trigger.read_estimates(|t| t.snapshot()),
                controller.snapshot(),
                "the synced trigger reads the controller's table"
            );
        }
        (
            controller.snapshot(),
            controller.decisions(),
            controller.analysis_log(),
            results,
        )
    };
    let alone = run(false);
    assert!(!alone.1.is_empty(), "the goal makes the controller act");
    assert_eq!(run(true), alone);
}

/// Sharing the estimator view: the self-configuration layer can seed its
/// trigger statistics from the self-optimization controller's live table,
/// and after `sync_controller` both read and write one table.
#[test]
fn trigger_seeds_from_controller_estimates() {
    use autonomic_skeletons::core::{AutonomicController, ControllerConfig, FnActuator};

    let program: Skel<i64, i64> = seq(|x: i64| x + 1);
    let fe = MuscleId::new(program.id(), MuscleRole::Execute);
    let controller = AutonomicController::new(
        program.node().clone(),
        ControllerConfig::new(TimeNs::from_secs(1), 4),
        Arc::new(FnActuator(|_| {})),
    );
    controller.with_estimates(|est| est.init_duration(fe, TimeNs::from_millis(7)));

    let trigger = TriggerEngine::new(0.5);
    assert_eq!(trigger.read_estimates(|t| t.duration(fe)), None);
    trigger.seed_from(&controller);
    assert_eq!(
        trigger.read_estimates(|t| t.duration(fe)),
        Some(TimeNs::from_millis(7)),
        "trigger adopted the controller's live estimates"
    );

    let sim = SimEngine::new(1, Arc::new(ZeroCost));
    let _reconf = Reconfigurator::new(
        Arc::clone(sim.registry()),
        sim.clock().clone(),
        Arc::clone(&trigger),
    )
    .sync_controller(Arc::clone(&controller));
    trigger.with_estimates(|est| est.init_duration(fe, TimeNs::from_millis(9)));
    assert_eq!(
        controller.read_estimates(|t| t.duration(fe)),
        Some(TimeNs::from_millis(9)),
        "a synced trigger writes the controller's table"
    );
    controller.with_estimates(|est| est.init_duration(fe, TimeNs::from_millis(11)));
    assert_eq!(
        trigger.read_estimates(|t| t.duration(fe)),
        Some(TimeNs::from_millis(11)),
        "a synced trigger reads the controller's table"
    );
}

/// The engine-facing suppressed-panic noise check: a fragile muscle panic
/// inside a stream never tears the session, and the error streak is what
/// drives the swap (already covered above); here we pin the version
/// counter's visibility through the facade prelude.
#[test]
fn facade_exports_adaptive_surface() {
    let engine = Engine::new(1);
    let program: Skel<i64, i64> = seq(|x: i64| x * 2);
    let trigger = TriggerEngine::new(0.5);
    let mut stream = AdaptiveSession::new(&engine, &program, trigger);
    stream.feed(21);
    let out: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
    assert_eq!(out, vec![42]);
    engine.shutdown();
    // Re-exported rule/record types are nameable through the prelude.
    let _ = |r: AdaptRecord| r.version;
    let _ = |v: VersionedSkel<i64, i64>| v.version();
    let _ = Reconfigurator::new;
    let _ = RetuneGrain::new;
}
