//! Per-layer readings the workloads share: client-side pool samples,
//! the metrics hub's pool and engine series, and an event counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use autonomic_skeletons::events::{Event, ListenerRegistry};
use autonomic_skeletons::obs::MetricsSnapshot;
use autonomic_skeletons::pool::ResizablePool;
use autonomic_skeletons::prelude::{Engine, FnListener, Payload};

use crate::stats::Samples;
use crate::Outcome;

/// Turns off the pool's task timeline. It logs every task start and end
/// without bound, so peak memory would step with the log's capacity
/// doublings as a run's item count crosses powers of two, and a faster
/// program would read as a bigger one.
pub fn timeline_off(engine: &Engine) {
    engine.pool().telemetry().set_recording(false);
}

/// Samples of the pool's queue depth and live workers, taken by the
/// client at most once per millisecond.
#[derive(Default)]
pub struct PoolSampler {
    queued: Vec<f64>,
    live: Vec<f64>,
    last: Option<Instant>,
}

impl PoolSampler {
    pub fn sample(&mut self, pool: &ResizablePool) {
        let now = Instant::now();
        if self
            .last
            .is_some_and(|t| now.duration_since(t) < Duration::from_millis(1))
        {
            return;
        }
        self.last = Some(now);
        self.queued.push(pool.queued_tasks() as f64);
        self.live.push(pool.live_workers() as f64);
    }

    pub fn report(self, out: &mut Outcome) {
        let queued = Samples::new(self.queued);
        let live = Samples::new(self.live);
        out.note(format!("pool samples: {}", queued.len()));
        out.layer("pool.queued_tasks.max", queued.max());
        out.layer("pool.queued_tasks.mean", queued.mean());
        out.layer("pool.live_workers.mean", live.mean());
    }
}

/// The hub's pool and engine series, per completed item.
pub fn hub_layers(out: &mut Outcome, snap: &MetricsSnapshot, items: f64) {
    let items = items.max(1.0);
    let hist = |name: &str, p: f64| {
        snap.histogram(name)
            .map_or((0.0, 0), |h| (h.percentile(p / 100.0) as f64, h.count()))
    };
    for (metric, series, p) in [
        ("pool.wake_latency_ns.p50", "pool_wake_latency_ns", 50.0),
        ("pool.wake_latency_ns.p99", "pool_wake_latency_ns", 99.0),
        ("engine.queue_delay_ns.p50", "engine_queue_delay_ns", 50.0),
        ("engine.queue_delay_ns.p99", "engine_queue_delay_ns", 99.0),
        ("engine.service_ns.p50", "engine_service_ns", 50.0),
    ] {
        let (v, n) = hist(series, p);
        out.note(format!("{metric}: p{p} of hub {series} over {n} samples"));
        out.layer(metric, v);
    }
    let per_item = |name: &str| snap.counter(name).unwrap_or(0) as f64 / items;
    out.layer("pool.steals_per_item", per_item("pool_steals_total"));
    out.layer("pool.parks_per_item", per_item("pool_parks_total"));
}

/// Registers a listener that counts every event `registry` emits.
pub fn count_events(registry: &ListenerRegistry) -> Arc<AtomicU64> {
    let count = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&count);
    registry.add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, _: &Event| {
            sink.fetch_add(1, Ordering::Relaxed);
        },
    )));
    count
}

/// Span durations in microseconds.
pub fn us(durations_ns: &[u64]) -> Samples {
    Samples::new(durations_ns.iter().map(|&d| d as f64 / 1e3).collect())
}
