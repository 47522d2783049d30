//! `batch`: one-shot divide-and-conquer jobs under the paper's
//! self-optimization loop.
//!
//! An `AutonomicEngine` runs the d&C mergesort over 2^20 seeded i64 at
//! grain 4096 (256 leaves), with the controller's defaults (analysis on
//! every `After` event) and a WCT goal below what `nproc` workers reach,
//! so the LP rises to `nproc` and stays. One untimed warm-up job, then
//! submit → `get` → check, repeated. Core's ADG and limited-LP analysis
//! runs on every event over a deep tree, on top of d&C dispatch in engine
//! and pool; serve and adapt are bypassed.

use std::time::{Duration, Instant};

use autonomic_skeletons::prelude::*;
use autonomic_skeletons::workloads::numeric::mergesort;

use crate::gen::Gen;
use crate::probe::{count_events, hub_layers, timeline_off, us, PoolSampler};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Outcome};

const LEN: usize = 1 << 20;
const GRAIN: usize = 4096;
/// Distinct seeded inputs the jobs alternate over.
const INPUTS: usize = 2;
/// Below any job's reach, so the controller raises the LP to its cap.
const GOAL: TimeNs = TimeNs::from_millis(1);
const SETUPS: usize = 20;

fn setup(nproc: usize) -> (AutonomicEngine<Vec<i64>, Vec<i64>>, f64) {
    let started = Instant::now();
    let engine = AutonomicEngine::new(mergesort(GRAIN), ControllerConfig::new(GOAL, nproc));
    timeline_off(engine.engine());
    (engine, started.elapsed().as_secs_f64())
}

pub fn run(cfg: Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut built: Option<AutonomicEngine<Vec<i64>, Vec<i64>>> = None;
    for _ in 0..SETUPS {
        if let Some(old) = built.take() {
            old.shutdown();
        }
        let (e, secs) = setup(cfg.nproc);
        out.setup_s.push(secs);
        built = Some(e);
    }
    let auto = built.expect("at least one set-up");

    let mut g = Gen::fork(cfg.seed, 4);
    let inputs: Vec<Vec<i64>> = (0..INPUTS)
        .map(|_| (0..LEN).map(|_| g.next_u64() as i64).collect())
        .collect();
    let mut apply_s = Vec::new();
    let references: Vec<Vec<i64>> = inputs
        .iter()
        .map(|input| {
            let input = input.clone();
            let t = Instant::now();
            let sorted = auto.skeleton().apply(input);
            apply_s.push(t.elapsed().as_secs_f64());
            sorted
        })
        .collect();
    let sorted: Vec<bool> = references
        .iter()
        .map(|r| r.windows(2).all(|w| w[0] <= w[1]))
        .collect();
    if sorted.contains(&false) {
        out.note("the sequential reference is not sorted".to_string());
    }

    let check = |out: &mut Outcome, job: usize, r: Result<Vec<i64>, EngineError>| {
        out.attempted += 1;
        if !sorted[job % INPUTS] || r.as_ref().ok() != Some(&references[job % INPUTS]) {
            out.failed += 1;
        }
    };
    let warm = auto.submit(inputs[0].clone()).get();
    check(&mut out, 0, warm);

    let events = tracer
        .enabled()
        .then(|| count_events(auto.engine().registry()));
    auto.engine().metrics_hub().set_enabled(tracer.enabled());
    let controller = auto.controller();
    let analyses0 = controller.analyses();
    let mut sampler = PoolSampler::default();
    let root = auto.skeleton().node().clone();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut job = 0;
    while job == 0 || Instant::now() < deadline {
        job += 1;
        let input = inputs[job % INPUTS].clone();
        let t = Instant::now();
        let fut = tracer.call("engine.submit", job as u64, || auto.submit(input));
        let r = if tracer.enabled() {
            // Poll so the client can sample the pool while the job runs.
            let token = tracer.begin("engine.get", job as u64);
            let mut fut = fut;
            let r = loop {
                sampler.sample(auto.engine().pool());
                match fut.get_timeout(Duration::from_micros(500)) {
                    Ok(r) => break r,
                    Err(pending) => fut = pending,
                }
            };
            tracer.end(token);
            r
        } else {
            fut.get()
        };
        out.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.done.push((start.elapsed().as_secs_f64(), 1));
        check(&mut out, job, r);
        if tracer.enabled() {
            tracer.call("core.forecast_wct", job as u64, || {
                controller.forecast_wct(&root, cfg.nproc)
            });
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    let decisions = controller.decisions();
    out.note(format!(
        "{job} jobs of {LEN} keys at grain {GRAIN}; LP now {}, decisions {:?}",
        auto.engine().lp(),
        decisions
            .iter()
            .map(|d| (d.from_lp, d.to_lp))
            .collect::<Vec<_>>()
    ));

    if tracer.enabled() {
        let jobs = job as f64;
        let apply = Samples::new(apply_s);
        out.layer_pct(
            "engine.submit_us.p50",
            &us(tracer.durations("engine.submit")),
            50.0,
        );
        let get_ms = Samples::new(
            tracer
                .durations("engine.get")
                .iter()
                .map(|&d| d as f64 / 1e6)
                .collect(),
        );
        out.layer_pct("engine.get_ms.p50", &get_ms, 50.0);
        out.layer_pct("skeletons.apply_s", &apply, 50.0);
        let job_s = Samples::new(out.latency_ms.clone()).median() / 1e3;
        out.layer("engine.overhead_x", job_s / apply.median());
        out.layer_pct(
            "core.forecast_us.p50",
            &us(tracer.durations("core.forecast_wct")),
            50.0,
        );
        out.layer(
            "core.analyses_per_item",
            (controller.analyses() - analyses0) as f64 / jobs,
        );
        out.layer("core.decisions", decisions.len() as f64);
        out.layer(
            "core.analysis_log_len",
            controller.analysis_log().len() as f64,
        );
        if let Some(events) = &events {
            out.layer(
                "events.per_item",
                events.load(std::sync::atomic::Ordering::Relaxed) as f64 / jobs,
            );
        }
        let snap = auto.engine().metrics_hub().snapshot();
        hub_layers(&mut out, &snap, jobs);
        out.hub = Some(snap);
        sampler.report(&mut out);
    }
    auto.shutdown();
    out
}
