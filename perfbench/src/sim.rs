//! `sim`: virtual-time what-if runs.
//!
//! The paper's §5 word count (5×7 nested map with `PaperScenarios`'
//! calibrated jitter costs) streamed through `SimEngine::run_stream` over
//! an `askel-dist` cluster of one local and two remote nodes, with the
//! WCT controller on the sim registry, a `ProvisioningReview` component
//! and `Deterministic` ordering. Each job builds a fresh simulated
//! machine, so every job replays the same schedule: its makespan, the
//! controller's decisions and the provisioning actions must equal the
//! recorded reference below. The seed picks the corpus text only; costs
//! are virtual and fixed. This is the only workload where the simulator's
//! scheduler and interpreter and dist's worker model do the work, with no
//! real threads.
//!
//! Its times are reported at reference host speed: each job is followed
//! by a [`host::probe_ms`] reading and its set-up and run times are
//! scaled by [`host::factor`], so a run that the shared host slows as a
//! whole still reads like the others.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use askel_bench::{PaperScenarios, ScenarioParams};
use autonomic_skeletons::core::FnActuator;
use autonomic_skeletons::prelude::*;
use autonomic_skeletons::sim::cost::CostModel;
use autonomic_skeletons::workloads::wordcount::{count_tokens, Counts, WordCountProgram};
use autonomic_skeletons::workloads::{generate_corpus, TweetGenConfig};

use crate::gen::Gen;
use crate::host;
use crate::probe::{count_events, us};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Outcome};

/// A multiple of 5×7, so every split yields its full cardinality and the
/// virtual schedule does not depend on the corpus.
const TWEETS: usize = 70;
const STREAM_ITEMS: usize = 6;
const WINDOW: usize = 2;
const GOAL: TimeNs = TimeNs::from_millis(9_500);
const REVIEW_EVERY: TimeNs = TimeNs::from_secs(1);

/// The recorded schedule every job must replay exactly.
const REFERENCE_MAKESPAN_NS: u64 = 34_448_781_264;
/// `at:from->to` per controller decision.
const REFERENCE_DECISIONS: &str = "7542969242:1->4,7733627149:4->2,8336159542:2->6,\
15464670420:6->3,16475593047:3->1,23648220304:1->6,23734520241:6->3,24840901075:3->1,\
32080999579:1->6,32201704062:6->3,33255914348:3->1";
/// `at:node:action:capacity` per provisioning change.
const REFERENCE_PROVISIONS: &str =
    "1000000000:master:Add:4,3000000000:edge:Add:12,9000000000:edge:Retire:4,15000000000:edge:Add:12";

fn cluster() -> Cluster {
    Cluster::new(vec![
        NodeSpec::local("master", 4),
        NodeSpec::remote("edge", 8, TimeNs::from_millis(50)).with_speed(0.9),
        NodeSpec::remote("cloud", 12, TimeNs::from_millis(250)),
    ])
    .with_capacity(1)
}

struct Machine {
    sim: SimEngine,
    controller: Arc<AutonomicController>,
    components: Vec<Box<dyn Component>>,
    provisioning: Arc<std::sync::Mutex<ProvisioningPolicy>>,
}

fn setup(program: &WordCountProgram, cost: &Arc<dyn CostModel>) -> Machine {
    let cluster = cluster();
    let telemetry = cluster.telemetry();
    let max_lp = cluster.provisioned();
    let sim = SimEngine::with_workers(Box::new(cluster), Arc::clone(cost))
        .ordering(OrderingPolicy::Deterministic);
    let p = ScenarioParams::default();
    let mut config = ControllerConfig::new(GOAL, max_lp)
        .decrease_cooldown(p.decrease_cooldown)
        .raise_headroom(p.raise_headroom)
        .decrease_safety(p.decrease_safety)
        .raise(p.raise_policy);
    for (m, canonical) in program.shared_muscle_aliases() {
        config = config.alias(m, canonical);
    }
    let lp = sim.lp_control();
    let controller = AutonomicController::new(
        program.skel.node().clone(),
        config,
        Arc::new(FnActuator(move |n| lp.request(n))),
    );
    sim.registry().add_listener(controller.clone());
    let review = ProvisioningReview::new(
        ProvisioningPolicy::new(0.85, 0.3).cooldown(2),
        telemetry,
        REVIEW_EVERY,
    );
    let provisioning = review.policy();
    Machine {
        sim,
        controller,
        components: vec![Box::new(review)],
        provisioning,
    }
}

/// The decision log in a canonical text form.
fn decisions_text(controller: &AutonomicController) -> String {
    controller
        .decisions()
        .iter()
        .map(|d| format!("{}:{}->{}", d.at.0, d.from_lp, d.to_lp))
        .collect::<Vec<_>>()
        .join(",")
}

fn provisions_text(policy: &ProvisioningPolicy) -> String {
    policy
        .log()
        .iter()
        .map(|r| format!("{}:{}:{:?}:{}", r.at.0, r.node, r.action, r.capacity))
        .collect::<Vec<_>>()
        .join(",")
}

pub fn run(cfg: Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Built once per process: the cost model's jitter is keyed by node
    // ids, so a second build (the traced run) would replay a different
    // schedule.
    static SCENARIOS: OnceLock<PaperScenarios> = OnceLock::new();
    let scenarios = SCENARIOS.get_or_init(|| PaperScenarios::new(ScenarioParams::default()));
    let cost = scenarios.cost_model();
    let program = &scenarios.program;
    let corpus = generate_corpus(&TweetGenConfig {
        tweets: TWEETS,
        seed: Gen::fork(cfg.seed, 5).next_u64(),
        ..Default::default()
    });
    let expected: Counts = count_tokens(&corpus);
    let max_lp = cluster().provisioned();

    let mut run_s = Vec::new();
    let mut probes = Vec::new();
    let mut events_total = 0u64;
    let mut listener_events = 0u64;
    let mut analyses = 0usize;
    let mut makespan = TimeNs::ZERO;
    let mut decisions = 0usize;
    let mut analysis_log = 0usize;
    let mut provisions = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut job = 0u64;
    while job == 0 || Instant::now() < deadline {
        let t = Instant::now();
        let mut m = setup(program, &cost);
        let setup_s = t.elapsed().as_secs_f64();
        let counted = tracer.enabled().then(|| count_events(m.sim.registry()));

        let mut produced = 0;
        let mut wrong = 0;
        let skel = &program.skel;
        let t = Instant::now();
        let token = tracer.begin("sim.run_stream", job);
        let report = m.sim.run_stream(
            WINDOW,
            |_| {
                (produced < STREAM_ITEMS).then(|| {
                    produced += 1;
                    (skel.clone(), corpus.clone())
                })
            },
            |_, r| {
                if r.as_ref().ok() != Some(&expected) {
                    wrong += 1;
                }
            },
            &mut m.components,
        );
        tracer.end(token);
        let wall = t.elapsed().as_secs_f64();
        let probe = host::probe_ms();
        let f = host::factor(probe);
        probes.push(probe);
        out.setup_s.push(setup_s * f);
        out.latency_ms.push(wall * f * 1e3);
        run_s.push(wall);
        out.attempted += STREAM_ITEMS as u64;
        out.wall_s += wall * f;
        out.done.push((out.wall_s, report.items as u64));
        events_total += report.events;

        makespan = report.finished_at.saturating_sub(report.started_at);
        let policy = m.provisioning.lock().expect("provisioning policy");
        let (got_decisions, got_provisions) =
            (decisions_text(&m.controller), provisions_text(&policy));
        let replayed = makespan.0 == REFERENCE_MAKESPAN_NS
            && got_decisions == REFERENCE_DECISIONS
            && got_provisions == REFERENCE_PROVISIONS;
        // A job that misses the reference schedule fails all its items.
        out.failed += if replayed {
            wrong + (STREAM_ITEMS - report.items) as u64
        } else {
            STREAM_ITEMS as u64
        };
        if !replayed && out.notes.is_empty() {
            out.note(format!(
                "schedule differs from the reference: makespan {} decisions \
                 [{got_decisions}] provisions [{got_provisions}]",
                makespan.0
            ));
        }
        decisions = m.controller.decisions().len();
        analyses += m.controller.analyses();
        analysis_log = m.controller.analysis_log().len();
        provisions = policy.log().len();
        drop(policy);
        if let Some(c) = counted {
            listener_events += c.load(std::sync::atomic::Ordering::Relaxed);
            tracer.call("core.forecast_wct", job, || {
                m.controller.forecast_wct(program.skel.node(), max_lp)
            });
        }
        job += 1;
    }
    out.note(format!(
        "{job} jobs of {STREAM_ITEMS} items (window {WINDOW}); virtual makespan {:.3} s, {decisions} decisions, {provisions} provisioning actions",
        makespan.as_secs_f64()
    ));
    let run_total_s: f64 = run_s.iter().sum();
    let run = Samples::new(run_s);
    let probes = Samples::new(probes);
    out.note(format!(
        "host probe: p50 {:.4} ms, p5 {:.4} ms, p95 {:.4} ms over {} jobs (reference {} ms); \
         run_stream p50 {:.4} ms as measured",
        probes.median(),
        probes.percentile(5.0),
        probes.percentile(95.0),
        probes.len(),
        host::REFERENCE_MS,
        run.median() * 1e3,
    ));

    if tracer.enabled() {
        let items = out.items().max(1) as f64;
        out.layer("sim.events_per_s", events_total as f64 / run_total_s);
        out.layer_pct("sim.run_stream_s", &run, 50.0);
        out.layer("dist.provision_actions", provisions as f64);
        out.layer("core.analyses_per_item", analyses as f64 / items);
        out.layer("core.decisions", decisions as f64);
        out.layer("core.analysis_log_len", analysis_log as f64);
        out.layer("events.per_item", listener_events as f64 / items);
        out.layer_pct(
            "core.forecast_us.p50",
            &us(tracer.durations("core.forecast_wct")),
            50.0,
        );
        let c = corpus.clone();
        let t = Instant::now();
        std::hint::black_box(program.skel.apply(c));
        out.layer(
            "skeletons.apply_us_per_item",
            t.elapsed().as_secs_f64() * 1e6,
        );
    }
    out
}
