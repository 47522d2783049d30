//! Serve-layer scale: ≥ 10 000 concurrent sessions over one shared pool,
//! and the batched-ingestion amortization of the per-submit floor.
//!
//! Three measurements:
//!
//! * `serve_10k_tenants_drive` — the acceptance run: 10 000 registered
//!   tenants each feed a 4-item batch onto one shared 2-worker pool
//!   (40 000 in-flight items at peak), then round-robin drain cycles run
//!   everything down. Prints throughput and p50/p95/p99 **sojourn
//!   latency** (feed → muscle execution, measured inside the muscle).
//! * `serve_feed_item_4k` / `serve_feed_batch_4k` — the same 4 096 items
//!   into one tenant, item-at-a-time (one pool transaction per item, the
//!   ~2 µs submit→future floor pinned by `seq_roundtrip_lp1`) versus one
//!   `feed_batch` call (one safe point, one pool transaction). The
//!   per-item gap is the amortization the batched path buys.
//! * `serve_sharded_drive` — the multi-threaded ingress curve: the same
//!   tenant population over a [`ShardedServe`] with `threads` ∈ {1, 2, 4}
//!   shards and as many concurrent ingress threads, all on one shared
//!   pool. The front runs no thread of its own: each ingress thread
//!   serves the tenants it feeds, and `quiesce` drains on the calling
//!   thread. With fewer than 4 cores the 4-thread point oversubscribes
//!   the machine and is printed as **provisional**.
//!
//! Recorded in `BENCH_serve.json`. Smoke: `CRITERION_MEASUREMENT_TIME_MS=0`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use askel_engine::Engine;
use askel_obs::{ChromeTrace, HistogramSnapshot, Json, MetricsSnapshot};
use askel_pool::telemetry_to_chrome;
use askel_serve::{AdmissionPolicy, ServeRegistry, ShardedServe, TenantId};
use askel_skeletons::{seq, Skel};

const TENANTS: usize = 10_000;
const ITEMS_PER_TENANT: usize = 4;
const COMPARE_ITEMS: usize = 4096;

/// The serving workload: each item carries its feed timestamp; the
/// muscle reports the sojourn so far (queue + dispatch latency).
fn probe() -> Skel<Instant, Duration> {
    seq(|fed_at: Instant| fed_at.elapsed())
}

/// One completed drive: the timing, the muscle-measured sojourns, and
/// the registry itself (kept alive so the acceptance run can check the
/// hub exporters against it).
struct Driven {
    wall: f64,
    latencies: Vec<Duration>,
    registry: ServeRegistry<Instant, Duration>,
    tenants: Vec<TenantId>,
}

/// Registers `n` tenants, feeds each a batch, and drains everything.
fn drive(engine: &Engine, n: usize, per_tenant: usize) -> Driven {
    let program = probe();
    let policy = AdmissionPolicy::default().max_in_flight(per_tenant);
    let mut registry: ServeRegistry<Instant, Duration> =
        ServeRegistry::new(engine).with_policy(policy);
    let tenants: Vec<TenantId> = (0..n).map(|_| registry.register(&program)).collect();
    let started = Instant::now();
    for &t in &tenants {
        let batch: Vec<Instant> = (0..per_tenant).map(|_| Instant::now()).collect();
        registry.feed_batch(t, batch);
    }
    registry.quiesce();
    let wall = started.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(n * per_tenant);
    for &t in &tenants {
        for r in registry.take_ready(t) {
            latencies.push(r.expect("no failures in the probe workload"));
        }
    }
    assert_eq!(latencies.len(), n * per_tenant, "every item completed");
    Driven {
        wall,
        latencies,
        registry,
        tenants,
    }
}

/// Feeds `items` into one tenant item-at-a-time; returns wall seconds.
fn drive_items(engine: &Engine, items: usize) -> f64 {
    let mut registry: ServeRegistry<Instant, Duration> =
        ServeRegistry::new(engine).with_policy(AdmissionPolicy::default().max_in_flight(items));
    let t = registry.register(&probe());
    let started = Instant::now();
    for _ in 0..items {
        registry.feed(t, Instant::now());
    }
    registry.quiesce();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(registry.take_ready(t).len(), items);
    wall
}

/// Feeds `items` into one tenant as a single batch; returns wall seconds.
fn drive_batch(engine: &Engine, items: usize) -> f64 {
    let mut registry: ServeRegistry<Instant, Duration> =
        ServeRegistry::new(engine).with_policy(AdmissionPolicy::default().max_in_flight(items));
    let t = registry.register(&probe());
    let started = Instant::now();
    registry.feed_batch(t, (0..items).map(|_| Instant::now()).collect());
    registry.quiesce();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(registry.take_ready(t).len(), items);
    wall
}

/// The multi-threaded ingress drive: `threads` shards and `threads`
/// concurrent ingress threads feed `n` tenants (one batch each) through
/// a [`ShardedServe`] over the shared engine; every feed serves its
/// tenant and `quiesce` drains the rest on this thread. Returns wall
/// seconds for the whole run (ingress through quiesce).
fn drive_sharded(engine: &Engine, threads: usize, n: usize, per_tenant: usize) -> f64 {
    let program = probe();
    let policy = AdmissionPolicy::default().max_in_flight(per_tenant);
    let serve: ShardedServe<Instant, Duration> = ShardedServe::new(engine, threads, policy);
    let tenants: Vec<TenantId> = (0..n).map(|_| serve.register(&program)).collect();
    let started = Instant::now();
    std::thread::scope(|s| {
        for lane in 0..threads {
            let serve = &serve;
            let tenants = &tenants;
            s.spawn(move || {
                for &t in tenants.iter().skip(lane).step_by(threads) {
                    let batch: Vec<Instant> = (0..per_tenant).map(|_| Instant::now()).collect();
                    serve.feed_batch(t, batch);
                }
            });
        }
    });
    serve.quiesce();
    let wall = started.elapsed().as_secs_f64();
    let harvested: usize = tenants.iter().map(|&t| serve.take_ready(t).len()).sum();
    assert_eq!(harvested, n * per_tenant, "every item completed");
    serve.join();
    wall
}

/// Round-trips the 10k-tenant run through all three exporters:
/// Prometheus text must scrape back the per-tenant sojourn p99 the
/// registry computed, JSON must parse back equal, and the Chrome trace
/// must load with monotonic timestamps.
fn export_roundtrip(engine: &Engine, out: &Driven) {
    let snap = out.registry.export_snapshot();
    let t = out.tenants[0];
    let tenant_hist = out
        .registry
        .tenant_sojourn(t)
        .expect("hub was on: per-tenant sojourns recorded");

    let text = snap.to_prometheus();
    let series = format!("serve_sojourn_ns{{tenant=\"{t}\",quantile=\"0.99\"}}");
    let scraped = MetricsSnapshot::scrape(&text, &series).expect("p99 series exported");
    assert_eq!(
        scraped,
        tenant_hist.percentile(0.99) as f64,
        "prometheus text must carry the registry's own p99"
    );

    let back = MetricsSnapshot::from_json(&snap.to_json()).expect("json parses back");
    assert_eq!(
        back.histogram(&format!("serve_sojourn_ns{{tenant=\"{t}\"}}")),
        Some(tenant_hist),
        "json round-trip must preserve the tenant histogram exactly"
    );
    assert_eq!(
        back.counter("serve_admit_submitted_total"),
        snap.counter("serve_admit_submitted_total"),
    );

    let mut trace = ChromeTrace::new();
    telemetry_to_chrome(&engine.pool().telemetry().samples(), &mut trace);
    let loaded = Json::parse(&trace.render()).expect("trace loads as json");
    let events = loaded
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "the run left a timeline");
    let ts: Vec<f64> = events
        .iter()
        .map(|e| e.get("ts").and_then(|t| t.as_f64()).expect("ts field"))
        .collect();
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "trace timestamps must be monotonic"
    );
    println!(
        "serve: exporters round-tripped the 10k-tenant run \
         ({} prometheus lines, {} trace events, tenant {t} p99 {:.1}us)",
        text.lines().count(),
        events.len(),
        scraped / 1e3,
    );
}

fn bench_serve(c: &mut Criterion) {
    let engine = Engine::new(2);

    // Criterion-repeatable measurements (small enough to iterate).
    c.bench_function("serve_1k_tenants_drive", |b| {
        b.iter(|| drive(&engine, 1000, ITEMS_PER_TENANT).wall)
    });
    c.bench_function("serve_feed_item_4k", |b| {
        b.iter(|| drive_items(&engine, COMPARE_ITEMS))
    });
    c.bench_function("serve_feed_batch_4k", |b| {
        b.iter(|| drive_batch(&engine, COMPARE_ITEMS))
    });
    c.bench_function("serve_sharded_drive_t4", |b| {
        b.iter(|| drive_sharded(&engine, 4, 1000, ITEMS_PER_TENANT))
    });

    // The acceptance run, printed for BENCH_serve.json — with the hub
    // on, so the exporters can be checked against a full 10k-tenant run.
    engine.metrics_hub().set_enabled(true);
    let out = drive(&engine, TENANTS, ITEMS_PER_TENANT);
    engine.metrics_hub().set_enabled(false);
    let wall = out.wall;
    let total = TENANTS * ITEMS_PER_TENANT;
    println!(
        "serve: {TENANTS} tenants x {ITEMS_PER_TENANT} items on one shared pool: \
         {total} items in {wall:.3}s = {:.0} items/sec",
        total as f64 / wall
    );
    // The percentile math is the shared obs histogram (bounded relative
    // error ≤ 1/32), not a private sort — the same shape every exporter
    // reports.
    let mut sojourn = HistogramSnapshot::new();
    for d in &out.latencies {
        sojourn.record(d.as_nanos() as u64);
    }
    println!(
        "serve: sojourn latency p50 {:.1}us p95 {:.1}us p99 {:.1}us max {:.1}us",
        sojourn.percentile(0.50) as f64 / 1e3,
        sojourn.percentile(0.95) as f64 / 1e3,
        sojourn.percentile(0.99) as f64 / 1e3,
        sojourn.max() as f64 / 1e3,
    );
    export_roundtrip(&engine, &out);
    let item_wall = drive_items(&engine, COMPARE_ITEMS);
    let batch_wall = drive_batch(&engine, COMPARE_ITEMS);
    println!(
        "serve: {COMPARE_ITEMS} items one tenant: item-at-a-time {:.2}us/item, \
         feed_batch {:.2}us/item ({:.2}x)",
        item_wall / COMPARE_ITEMS as f64 * 1e6,
        batch_wall / COMPARE_ITEMS as f64 * 1e6,
        item_wall / batch_wall,
    );

    // The sharded ingress scaling curve: the same 10k-tenant population
    // through 1, 2, and 4 shards + ingress threads. A point with more
    // threads than cores is provisional.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t1 = drive_sharded(&engine, 1, TENANTS, ITEMS_PER_TENANT);
    let t2 = drive_sharded(&engine, 2, TENANTS, ITEMS_PER_TENANT);
    let t4 = drive_sharded(&engine, 4, TENANTS, ITEMS_PER_TENANT);
    println!(
        "serve: sharded ingress {total} items, threads 1/2/4: \
         {:.0}/{:.0}/{:.0} items/sec (t4 {:.2}x t1, {cores} core(s){})",
        total as f64 / t1,
        total as f64 / t2,
        total as f64 / t4,
        t1 / t4,
        if cores < 4 { ", provisional" } else { "" },
    );
    engine.shutdown();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
