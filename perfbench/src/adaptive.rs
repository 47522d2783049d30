//! `adaptive`: one self-configuring stream, closed loop.
//!
//! The paper's adaptive word count in an `AdaptiveSession` with
//! `Promote` and `RetuneWidth` armed, a `TriggerEngine` and an
//! `AutonomicController` (paper defaults except the LP floor, goal below
//! reach so the LP sits at `nproc`) listening, and the session synced to
//! the controller. Corpora are log-uniform between 10 and 400 tweets; the
//! client keeps 2×`nproc` items in flight. Each item is 0.1–0.3 ms of
//! muscle work wrapped in a few dozen events (map fan-out after the
//! promotion), the trigger's and the controller's trackers, and one safe
//! point: events, adapt, engine fan-out and core dominate; serve is
//! bypassed. Whether the controller keeps analysing after the first
//! rewrite depends on timing (none in most runs, about 13 per item in
//! some).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use autonomic_skeletons::core::FnActuator;
use autonomic_skeletons::prelude::*;
use autonomic_skeletons::workloads::adaptive::AdaptiveWordCount;
use autonomic_skeletons::workloads::wordcount::Counts;
use autonomic_skeletons::workloads::{generate_corpus, TweetGenConfig};

use crate::gen::Gen;
use crate::probe::{count_events, hub_layers, timeline_off, us, PoolSampler};
use crate::trace::Tracer;
use crate::{Config, Outcome};

/// Distinct corpora the stream cycles through (in seeded order).
const CORPORA: usize = 48;
const MIN_TWEETS: usize = 10;
const MAX_TWEETS: usize = 400;
/// Promote the count stage once the EWMA of corpus sizes reaches this.
const PROMOTE_AT: f64 = 150.0;
/// Below one item's reach, so the controller holds the LP at its cap.
const GOAL: TimeNs = TimeNs::from_micros(10);
const SETUPS: usize = 20;
/// Items between two timed `forecast_wct` calls in the traced run.
const FORECAST_EVERY: u64 = 64;

/// The size of corpus `k`: the midpoint of the `k`-th of [`CORPORA`]
/// equal-probability strata of the log-uniform distribution. Every seed
/// then gets the same size mix (only the text and the order change), so
/// the work per item does not depend on the seed.
fn log_uniform_stratum(k: usize) -> usize {
    let (a, b) = ((MIN_TWEETS as f64).ln(), (MAX_TWEETS as f64).ln());
    (a + (k as f64 + 0.5) / CORPORA as f64 * (b - a))
        .exp()
        .round() as usize
}

/// Seeded corpora with their reference counts.
struct Inputs {
    corpora: Vec<Vec<String>>,
    references: Vec<Counts>,
    order: Gen,
    /// A seeded permutation of the corpora, redrawn every pass, so each
    /// pass of [`CORPORA`] items carries the whole mix once.
    pass: Vec<usize>,
}

impl Inputs {
    fn new(seed: u64, wc: &AdaptiveWordCount) -> Self {
        let mut g = Gen::fork(seed, 2);
        let corpora: Vec<Vec<String>> = (0..CORPORA)
            .map(|k| {
                let tweets = log_uniform_stratum(k);
                generate_corpus(&TweetGenConfig {
                    tweets,
                    seed: g.next_u64(),
                    ..Default::default()
                })
            })
            .collect();
        let references = corpora.iter().map(|c| wc.reference(c)).collect();
        Inputs {
            corpora,
            references,
            order: Gen::fork(seed, 3),
            pass: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.pass.is_empty() {
            self.pass = (0..CORPORA).collect();
            for i in (1..CORPORA).rev() {
                let j = self.order.below(i as u64 + 1) as usize;
                self.pass.swap(i, j);
            }
        }
        self.pass.pop().expect("refilled above")
    }
}

struct Setup {
    engine: Engine,
    wc: AdaptiveWordCount,
    controller: Arc<AutonomicController>,
    session: AdaptiveSession<Vec<String>, Counts>,
}

fn setup(nproc: usize) -> (Setup, f64) {
    let started = Instant::now();
    let engine = Engine::new(nproc);
    timeline_off(&engine);
    let wc = AdaptiveWordCount::new(4);
    let trigger = TriggerEngine::new(0.5);
    trigger.attach_metrics(engine.metrics_hub());
    trigger.add_rule(
        Promote::new(&wc.count, &wc.parallel)
            .named("promote-count")
            .when(Trigger::InputSizeAtLeast(PROMOTE_AT)),
    );
    let split = MuscleId::new(wc.parallel.id(), MuscleRole::Split);
    trigger.add_rule(
        RetuneWidth::new(Knob::from_shared("count-width", Arc::clone(&wc.width)), 3)
            .bounds(2, 64)
            .when(Trigger::CardinalityAtLeast(split, 1.0)),
    );
    let pool = engine.pool().clone();
    // The LP floor is `nproc` too: with the default floor of 1 the
    // controller halves a fresh stream to one worker in about half the
    // runs (the unpromoted pipe has no parallelism), and the stream then
    // stays at one worker, so throughput would depend on a coin toss.
    let mut config = ControllerConfig::new(GOAL, nproc).initial_lp(nproc);
    config.min_lp = nproc;
    let controller = AutonomicController::new(
        wc.program.node().clone(),
        config,
        Arc::new(FnActuator(move |lp| pool.set_target_workers(lp))),
    );
    engine.registry().add_listener(trigger.clone());
    engine.registry().add_listener(controller.clone());
    let session = AdaptiveSession::new(&engine, &wc.program, trigger)
        .max_in_flight(2 * nproc)
        .input_size(|c: &Vec<String>| c.len())
        .sync_controller(Arc::clone(&controller));
    let secs = started.elapsed().as_secs_f64();
    (
        Setup {
            engine,
            wc,
            controller,
            session,
        },
        secs,
    )
}

pub fn run(cfg: Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut built: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = built.take() {
            old.engine.shutdown();
        }
        let (s, secs) = setup(cfg.nproc);
        out.setup_s.push(secs);
        built = Some(s);
    }
    let mut s = built.expect("at least one set-up");
    let mut inputs = Inputs::new(cfg.seed, &s.wc);
    let events = tracer.enabled().then(|| count_events(s.engine.registry()));
    s.engine.metrics_hub().set_enabled(tracer.enabled());
    let trigger = Arc::clone(s.session.trigger());
    let (safe0, evals0, analyses0) = (
        trigger.safe_points(),
        trigger.evaluations(),
        s.controller.analyses(),
    );
    let mut sampler = PoolSampler::default();
    let mut used = vec![0u64; CORPORA];
    let mut in_flight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut next_id = 0u64;
    let window = 2 * cfg.nproc;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);

    let feed = |s: &mut Setup,
                inputs: &mut Inputs,
                in_flight: &mut VecDeque<(u64, usize, Instant)>,
                next_id: &mut u64,
                tracer: &mut Tracer| {
        let idx = inputs.next();
        let corpus = inputs.corpora[idx].clone();
        let at = Instant::now();
        tracer.call("adapt.feed", *next_id, || s.session.feed(corpus));
        in_flight.push_back((*next_id, idx, at));
        *next_id += 1;
    };

    let start = Instant::now();
    for _ in 0..window {
        feed(&mut s, &mut inputs, &mut in_flight, &mut next_id, tracer);
    }
    while let Some((id, idx, at)) = in_flight.pop_front() {
        let r = tracer.call("adapt.next_result", id, || s.session.next_result());
        out.latency_ms.push(at.elapsed().as_secs_f64() * 1e3);
        out.done.push((start.elapsed().as_secs_f64(), 1));
        out.attempted += 1;
        used[idx] += 1;
        match r {
            Some(Ok(counts)) if counts == inputs.references[idx] => {}
            _ => out.failed += 1,
        }
        if tracer.enabled() {
            sampler.sample(s.engine.pool());
            if id % FORECAST_EVERY == 0 {
                let root = s.session.skeleton().node().clone();
                tracer.call("core.forecast_wct", id, || {
                    s.controller.forecast_wct(&root, cfg.nproc)
                });
            }
        }
        if Instant::now() < deadline {
            feed(&mut s, &mut inputs, &mut in_flight, &mut next_id, tracer);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    let rewrites = s.session.version();
    out.note(format!(
        "{} items, {rewrites} rewrites, decision log: {:?}",
        out.items(),
        trigger
            .decision_log()
            .iter()
            .map(|d| format!("{}: {}", d.rule, d.action))
            .collect::<Vec<_>>()
    ));
    if rewrites == 0 {
        out.note("the stream never rewrote itself".to_string());
        out.failed += 1;
    }

    if tracer.enabled() {
        let items = out.items().max(1) as f64;
        let feed_us = us(tracer.durations("adapt.feed"));
        out.layer_pct("adapt.feed_us.p50", &feed_us, 50.0);
        out.layer_pct("adapt.feed_us.p99", &feed_us, 99.0);
        out.layer_pct(
            "adapt.next_result_us.p50",
            &us(tracer.durations("adapt.next_result")),
            50.0,
        );
        out.layer_pct(
            "core.forecast_us.p50",
            &us(tracer.durations("core.forecast_wct")),
            50.0,
        );
        out.layer(
            "adapt.safe_points_per_item",
            (trigger.safe_points() - safe0) as f64 / items,
        );
        out.layer(
            "adapt.evaluations_per_item",
            (trigger.evaluations() - evals0) as f64 / items,
        );
        out.layer("adapt.rewrites", rewrites as f64);
        out.layer(
            "core.analyses_per_item",
            (s.controller.analyses() - analyses0) as f64 / items,
        );
        out.layer("core.decisions", s.controller.decisions().len() as f64);
        out.layer(
            "core.analysis_log_len",
            s.controller.analysis_log().len() as f64,
        );
        if let Some(events) = &events {
            out.layer(
                "events.per_item",
                events.load(std::sync::atomic::Ordering::Relaxed) as f64 / items,
            );
        }
        // The single-threaded baseline over the same item mix.
        let mut apply_s = 0.0;
        for (corpus, &n) in inputs.corpora.iter().zip(&used) {
            if n > 0 {
                let corpus = corpus.clone();
                let t = Instant::now();
                std::hint::black_box(s.wc.program.apply(corpus));
                apply_s += t.elapsed().as_secs_f64() * n as f64;
            }
        }
        out.layer("skeletons.apply_us_per_item", apply_s * 1e6 / items);
        let snap = s.engine.metrics_hub().snapshot();
        hub_layers(&mut out, &snap, items);
        out.hub = Some(snap);
        sampler.report(&mut out);
    }
    s.engine.shutdown();
    out
}
