//! `tenants`: many-tenant serving, open loop.
//!
//! 10 000 plain tenants on a `ShardedServe` with one shard per core; tenant
//! popularity is Zipf(1.0); each request is one `feed_batch` of 4 items
//! whose muscle is about 1 µs of arithmetic. Phase 1, three quarters of
//! the time, sends Poisson arrivals at a nominal 1 000 requests/s and
//! times each request from its due time to the `take_ready` that returns
//! its last result. Phase 2 sends the same mix back to back with a bounded
//! window of outstanding requests and measures items per second. Almost no muscle work and no
//! event routes: serve's admission, backlog, drain and harvest and the
//! shard drivers dominate; events, core and adapt are bypassed.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use autonomic_skeletons::prelude::*;

use crate::gen::{Gen, Zipf};
use crate::probe::{hub_layers, timeline_off, us, PoolSampler};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Outcome};

const TENANTS: usize = 10_000;
const BATCH: usize = 4;
const NOMINAL_RPS: f64 = 1_000.0;
/// Share of the run spent in the nominal (latency) phase.
const NOMINAL_SHARE: f64 = 0.75;
const QUOTA: usize = 8;
/// Far above what the hottest tenant can queue, so nothing is shed.
const BACKLOG: usize = 1 << 16;
/// Outstanding requests the saturation phase keeps.
const SAT_WINDOW: usize = 256;
/// Rounds of [`mix`] that make the muscle about 1 µs.
const MUSCLE_ROUNDS: u32 = 300;
const SETUPS: usize = 3;
/// How long the client may wait for outstanding items before they count
/// as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn program() -> Skel<u64, u64> {
    seq(|x: u64| (0..MUSCLE_ROUNDS).fold(std::hint::black_box(x), |h, _| mix(h)))
}

/// One generated request: which tenant (Zipf rank), the gap before it,
/// and its items.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub tenant: usize,
    pub gap_ns: u64,
    pub items: [u64; BATCH],
}

/// The seeded request stream: the same seed gives the same requests,
/// however many are drawn.
pub struct Requests {
    gen: Gen,
    zipf: Zipf,
}

impl Requests {
    pub fn new(seed: u64) -> Self {
        Requests {
            gen: Gen::fork(seed, 1),
            zipf: Zipf::new(TENANTS, 1.0),
        }
    }
}

impl Iterator for Requests {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let tenant = self.zipf.sample(&mut self.gen);
        let gap_ns = self.gen.exp_gap_ns(1e9 / NOMINAL_RPS);
        let items = std::array::from_fn(|_| self.gen.next_u64());
        Some(Request {
            tenant,
            gap_ns,
            items,
        })
    }
}

struct Pending {
    due: Instant,
    items: [u64; BATCH],
    /// Items admitted (the rest were rejected).
    admitted: usize,
    got: usize,
}

/// What the client records as results arrive.
enum Phase {
    /// Each request's latency from its due time.
    Nominal,
    /// Items completed, timed from the phase start.
    Saturation(Instant),
}

/// The load-generating client: sends requests, polls tenants with
/// outstanding items, and keeps every (input, output) pair for the check.
struct Client<'a> {
    phase: Phase,
    latency_ms: Vec<f64>,
    done: Vec<(f64, u64)>,
    serve: &'a ShardedServe<u64, u64>,
    ids: &'a [TenantId],
    pending: Vec<VecDeque<Pending>>,
    /// Tenants with outstanding items, polled round robin.
    active: Vec<usize>,
    cursor: usize,
    outstanding: usize,
    next_req: u64,
    checks: Vec<(u64, u64)>,
    attempted: u64,
    /// Items that errored or never returned.
    failed: u64,
    rejected: u64,
    queued: u64,
    shard_items: Vec<u64>,
    sampler: PoolSampler,
}

impl<'a> Client<'a> {
    fn new(serve: &'a ShardedServe<u64, u64>, ids: &'a [TenantId]) -> Self {
        Client {
            phase: Phase::Nominal,
            latency_ms: Vec::new(),
            done: Vec::new(),
            serve,
            ids,
            pending: (0..ids.len()).map(|_| VecDeque::new()).collect(),
            active: Vec::new(),
            cursor: 0,
            outstanding: 0,
            next_req: 0,
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            rejected: 0,
            queued: 0,
            shard_items: vec![0; serve.shards()],
            sampler: PoolSampler::default(),
        }
    }

    fn send(&mut self, req: &Request, due: Instant, tracer: &mut Tracer) {
        let id = self.ids[req.tenant];
        let item = self.next_req;
        self.next_req += 1;
        let out = tracer.call("serve.feed_batch", item, || {
            self.serve.feed_batch(id, req.items.to_vec())
        });
        self.attempted += BATCH as u64;
        self.rejected += out.rejected as u64;
        self.queued += out.queued as u64;
        if tracer.enabled() {
            self.shard_items[self.serve.shard_of(id)] += BATCH as u64;
        }
        let admitted = out.submitted + out.queued;
        if admitted == 0 {
            return;
        }
        if self.pending[req.tenant].is_empty() {
            self.active.push(req.tenant);
        }
        self.pending[req.tenant].push_back(Pending {
            due,
            items: req.items,
            admitted,
            got: 0,
        });
        self.outstanding += 1;
    }

    /// Polls the next active tenant; records the latency of every request
    /// it completes. Returns how many results arrived.
    fn poll(&mut self, tracer: &mut Tracer) -> usize {
        if self.active.is_empty() {
            return 0;
        }
        if tracer.enabled() {
            self.sampler.sample(self.serve.engine().pool());
        }
        self.cursor %= self.active.len();
        let t = self.active[self.cursor];
        let results = tracer.call("serve.take_ready", t as u64, || {
            self.serve.take_ready(self.ids[t])
        });
        let now = Instant::now();
        let n = results.len();
        if let (Phase::Saturation(start), true) = (&self.phase, n > 0) {
            self.done
                .push((now.duration_since(*start).as_secs_f64(), n as u64));
        }
        for r in results {
            let p = self.pending[t].front_mut().expect("a result has a request");
            match r {
                Ok(v) => self.checks.push((p.items[p.got], v)),
                Err(_) => self.failed += 1,
            }
            p.got += 1;
            if p.got == p.admitted {
                if let Phase::Nominal = self.phase {
                    self.latency_ms
                        .push(now.duration_since(p.due).as_secs_f64() * 1e3);
                }
                self.pending[t].pop_front();
                self.outstanding -= 1;
            }
        }
        if self.pending[t].is_empty() {
            self.active.swap_remove(self.cursor);
        } else {
            self.cursor += 1;
        }
        n
    }

    /// Polls until every outstanding request completed, or the deadline
    /// passes (the rest then count as failed).
    fn drain(&mut self, tracer: &mut Tracer) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut idle = 0;
        while self.outstanding > 0 {
            if self.poll(tracer) > 0 {
                idle = 0;
            } else {
                idle += 1;
                if idle >= self.active.len() {
                    idle = 0;
                    if Instant::now() > deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(20));
                }
            }
        }
        for q in &mut self.pending {
            for p in q.drain(..) {
                self.failed += (p.admitted - p.got) as u64;
            }
        }
        self.active.clear();
        self.outstanding = 0;
    }
}

struct Setup {
    engine: Engine,
    serve: ShardedServe<u64, u64>,
    ids: Vec<TenantId>,
}

fn setup(nproc: usize, tracer: &mut Tracer) -> (Setup, f64) {
    let started = Instant::now();
    let engine = Engine::new(nproc);
    timeline_off(&engine);
    let policy = AdmissionPolicy::default()
        .max_in_flight(QUOTA)
        .max_backlog(BACKLOG);
    let serve = ShardedServe::new(&engine, nproc, policy);
    let skel = program();
    let ids = (0..TENANTS)
        .map(|i| tracer.call("serve.register", i as u64, || serve.register(&skel)))
        .collect();
    let secs = started.elapsed().as_secs_f64();
    (Setup { engine, serve, ids }, secs)
}

pub fn run(cfg: Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut built = None;
    for _ in 0..SETUPS {
        if let Some(old) = built.take() {
            teardown(old);
        }
        let (s, secs) = setup(cfg.nproc, tracer);
        out.setup_s.push(secs);
        built = Some(s);
    }
    let s = built.expect("at least one set-up");
    s.engine.metrics_hub().set_enabled(tracer.enabled());
    let mut requests = Requests::new(cfg.seed);
    let mut client = Client::new(&s.serve, &s.ids);
    // The nominal phase gets three quarters of the time: its tail needs
    // the samples more than the saturation rate does.
    let nominal_phase = Duration::from_secs_f64(cfg.seconds * NOMINAL_SHARE);
    let saturation_phase = Duration::from_secs_f64(cfg.seconds * (1.0 - NOMINAL_SHARE));

    // Phase 1: Poisson arrivals at the nominal rate.
    let mut lag_ms = Vec::new();
    // A fixed request count keeps the sample count, and so the reported
    // percentiles, the same from run to run.
    let nominal = (NOMINAL_RPS * nominal_phase.as_secs_f64()).round().max(1.0) as usize;
    let start = Instant::now();
    let mut due = start;
    for _ in 0..nominal {
        let req = requests.next().expect("endless stream");
        due += Duration::from_nanos(req.gap_ns);
        let mut idle = 0;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if client.poll(tracer) > 0 {
                idle = 0;
                continue;
            }
            idle += 1;
            if idle >= client.active.len() {
                idle = 0;
                let wait = due - now;
                if wait > Duration::from_micros(200) {
                    std::thread::sleep(
                        (wait - Duration::from_micros(100)).min(Duration::from_micros(500)),
                    );
                } else {
                    std::thread::yield_now();
                }
            }
        }
        lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        client.send(&req, due, tracer);
    }
    client.drain(tracer);
    let lag = Samples::new(lag_ms);
    out.note(format!(
        "nominal phase: {} requests at {NOMINAL_RPS}/s, send lag p50 {:.4} ms p99 {:.4} ms max {:.4} ms",
        lag.len(),
        lag.median(),
        lag.percentile(99.0),
        lag.max()
    ));
    out.layer_pct("client.send_lag_p99_ms", &lag, 99.0);

    // Phase 2: saturation, the same mix back to back.
    let start = Instant::now();
    client.phase = Phase::Saturation(start);
    let mut idle = 0;
    while start.elapsed() < saturation_phase {
        if client.outstanding < SAT_WINDOW {
            let req = requests.next().expect("endless stream");
            client.send(&req, Instant::now(), tracer);
        } else if client.poll(tracer) > 0 {
            idle = 0;
        } else {
            idle += 1;
            if idle >= client.active.len() {
                idle = 0;
                std::thread::yield_now();
            }
        }
    }
    let q = Instant::now();
    tracer.call("serve.quiesce", 0, || s.serve.quiesce());
    let quiesce_ms = q.elapsed().as_secs_f64() * 1e3;
    client.drain(tracer);
    out.wall_s = start.elapsed().as_secs_f64();
    out.latency_ms = std::mem::take(&mut client.latency_ms);
    out.done = std::mem::take(&mut client.done);

    // Every item against the sequential interpreter.
    let skel = program();
    let t = Instant::now();
    let wrong = client
        .checks
        .iter()
        .filter(|&&(input, output)| skel.apply(input) != output)
        .count();
    let apply_us = t.elapsed().as_secs_f64() * 1e6 / client.checks.len().max(1) as f64;
    let returned = client.checks.len() as u64;
    out.attempted = client.attempted;
    out.failed = client.failed + client.rejected + wrong as u64;
    out.note(format!(
        "{} items fed, {returned} returned, {wrong} wrong; saturation {} items in {:.3} s",
        client.attempted,
        out.items(),
        out.wall_s
    ));

    if tracer.enabled() {
        let feed = us(tracer.durations("serve.feed_batch"));
        out.layer_pct("serve.feed_batch_us.p50", &feed, 50.0);
        out.layer_pct("serve.feed_batch_us.p99", &feed, 99.0);
        out.layer_pct(
            "serve.take_ready_us.p50",
            &us(tracer.durations("serve.take_ready")),
            50.0,
        );
        out.layer_pct(
            "serve.register_us.p50",
            &us(tracer.durations("serve.register")),
            50.0,
        );
        out.layer("serve.quiesce_ms", quiesce_ms);
        let fed = client.attempted.max(1) as f64;
        out.layer("serve.queued_share", client.queued as f64 / fed);
        out.layer("serve.rejected_share", client.rejected as f64 / fed);
        let shards = Samples::new(client.shard_items.iter().map(|&n| n as f64).collect());
        out.layer(
            "serve.shard_items.max_over_mean",
            shards.max() / shards.mean().max(1.0),
        );
        out.layer("skeletons.apply_us_per_item", apply_us);
        let snap = s.serve.export_snapshot();
        hub_layers(&mut out, &snap, returned as f64);
        out.hub = Some(snap);
        std::mem::take(&mut client.sampler).report(&mut out);
    }
    drop(client);
    teardown(s);
    out
}

fn teardown(s: Setup) {
    s.serve.quiesce();
    s.serve.join();
    s.engine.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a: Vec<Request> = Requests::new(11).take(500).collect();
        let b: Vec<Request> = Requests::new(11).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<Request> = Requests::new(12).take(500).collect();
        assert_ne!(a, c);
        assert!(a.iter().all(|r| r.tenant < TENANTS));
        let mean_gap = a.iter().map(|r| r.gap_ns as f64).sum::<f64>() / a.len() as f64;
        assert!((0.8e6..1.2e6).contains(&mean_gap), "{mean_gap}");
    }
}
