//! Sharded ingress: N registries over one engine, served by the
//! callers' own threads.
//!
//! A single [`ServeRegistry`] multiplexes any number of tenants, but
//! behind one `&mut` every ingress call serializes on one lock — the
//! opposite of the paper's goal of exploiting "the maximum number of
//! active threads" the hardware allows. [`ShardedServe`] splits the
//! tenant population over `N` independent `ServeRegistry` shards, each
//! behind its own mutex, chosen by hash of [`TenantId`] (the mapping is
//! pure, so there is never anything to rebalance). The autonomic loop
//! of every tenant stays local to its shard; what the shards share is
//! exactly the global capacity plane:
//!
//! * **one [`Engine`] / pool** — all shards submit into the same
//!   workers, so capacity decisions (LP, provisioning) stay global;
//! * **one [`ServeMonitor`]** — still the *single* registered listener;
//!   its route table is shard-aware (each route carries its shard tag)
//!   and delivery walks only the monitor's own lock, so an event can
//!   never serialize two shards on each other;
//! * **one [`SharedEstimators`] pool** — a clonable `Arc`-shared,
//!   lock-guarded handle, so structural twins warm-start each other
//!   *across* shards and the latency-aware admission gate prices every
//!   shard's tenants from the same history.
//!
//! **Each call serves its tenant.** The front owns no thread. Every
//! per-tenant call takes only the owning shard's lock and, under it,
//! runs that tenant's service step (harvest, backlog dispatch up to the
//! quota, route and estimator refresh): after admission in
//! [`feed`](ShardedServe::feed) / [`feed_batch`](ShardedServe::feed_batch),
//! before reading in [`take_ready`](ShardedServe::take_ready),
//! [`stats`](ShardedServe::stats) and
//! [`tenant_sojourn`](ShardedServe::tenant_sojourn). Work itself runs on
//! the pool; a backlog moves whenever its owner polls, and
//! [`quiesce`](ShardedServe::quiesce) runs full drain cycles on the
//! caller's thread. `K` callers on tenants of different shards proceed
//! in parallel. All registry semantics (admission gates, key-rotating
//! round-robin fairness, per-tenant result order) hold per shard
//! unchanged. A user [`Rule`](askel_adapt::Rule) that panics at a
//! dispatch safe point unwinds into the call that ran it; the shard
//! lock is released on the way out and its other tenants keep serving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use askel_adapt::TriggerEngine;
use askel_core::AutonomicController;
use askel_engine::{Engine, EngineError};
use askel_obs::{HistogramSnapshot, MetricsSnapshot};
use askel_skeletons::Skel;

use crate::admission::{Admission, AdmissionPolicy, BatchAdmission};
use crate::estimators::SharedEstimators;
use crate::mux::ServeMonitor;
use crate::registry::{ServeRegistry, TenantId, TenantStats};

/// SplitMix64 — the tenant→shard hash. Any fixed mixing function works
/// (the mapping must only be pure and well-spread); this one is already
/// the repo's standard mixer (`askel-sim`'s tie keys).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// N `ServeRegistry` shards over one shared engine, served by the
/// threads that call into them; see the module docs.
pub struct ShardedServe<P, R> {
    engine: Engine,
    monitor: Arc<ServeMonitor>,
    shared: SharedEstimators,
    shards: Vec<Mutex<ServeRegistry<P, R>>>,
    next_tenant: AtomicU64,
}

impl<P, R> ShardedServe<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// `shards` registries (≥ 1) over a non-owning clone of `engine`,
    /// with `policy` applied to every shard. Shutting the engine down
    /// remains the caller's job (after [`quiesce`](Self::quiesce)).
    pub fn new(engine: &Engine, shards: usize, policy: AdmissionPolicy) -> Self {
        let monitor = ServeMonitor::new();
        let shared = SharedEstimators::new(0.5);
        let registered = Arc::new(AtomicBool::new(false));
        let shards = (0..shards.max(1))
            .map(|i| {
                Mutex::new(ServeRegistry::new_shard(
                    engine,
                    Arc::clone(&monitor),
                    shared.clone(),
                    Arc::clone(&registered),
                    i as u32,
                    policy,
                ))
            })
            .collect();
        ShardedServe {
            engine: engine.clone(),
            monitor,
            shared,
            shards,
            next_tenant: AtomicU64::new(0),
        }
    }

    fn shard(&self, tenant: TenantId) -> &Mutex<ServeRegistry<P, R>> {
        &self.shards[self.shard_of(tenant)]
    }

    /// Attaches one shared WCT controller to the multiplexed loop (all
    /// shards; see [`ServeRegistry::attach_controller`]).
    pub fn attach_controller(&self, controller: Arc<AutonomicController>) {
        for shard in &self.shards {
            shard.lock().attach_controller(Arc::clone(&controller));
        }
    }

    /// Registers a plain tenant on its hash-owned shard (see
    /// [`ServeRegistry::register`]).
    pub fn register(&self, skel: &Skel<P, R>) -> TenantId {
        let id = self.next_tenant.fetch_add(1, Ordering::SeqCst);
        self.shard(TenantId(id)).lock().register_with_id(id, skel)
    }

    /// Registers an adaptive tenant on its hash-owned shard: events are
    /// routed through the shared monitor, and the trigger warm-starts
    /// from the global estimator pool — history absorbed on *any* shard
    /// warms structural twins on every shard (see
    /// [`ServeRegistry::register_adaptive`]).
    pub fn register_adaptive(&self, skel: &Skel<P, R>, trigger: Arc<TriggerEngine>) -> TenantId {
        let id = self.next_tenant.fetch_add(1, Ordering::SeqCst);
        self.shard(TenantId(id))
            .lock()
            .register_adaptive_with_id(id, skel, trigger)
    }

    /// Feeds one item through the owning shard's admission gates, then
    /// serves the tenant. Only the owning shard's lock is taken.
    pub fn feed(&self, tenant: TenantId, input: P) -> Admission {
        let mut shard = self.shard(tenant).lock();
        let out = shard.feed(tenant, input);
        shard.service(tenant.0);
        out
    }

    /// Feeds a batch through the owning shard's admission gates (one
    /// depth sample, one pool transaction per admitted chunk), then
    /// serves the tenant.
    pub fn feed_batch(&self, tenant: TenantId, inputs: Vec<P>) -> BatchAdmission {
        let mut shard = self.shard(tenant).lock();
        let out = shard.feed_batch(tenant, inputs);
        shard.service(tenant.0);
        out
    }

    /// Serves the tenant, then takes every result it has finished, in
    /// submission order, without blocking (see
    /// [`ServeRegistry::take_ready`]). Polling this alone drains the
    /// tenant's backlog.
    pub fn take_ready(&self, tenant: TenantId) -> Vec<Result<R, EngineError>> {
        let mut shard = self.shard(tenant).lock();
        shard.service(tenant.0);
        shard.take_ready(tenant)
    }

    /// Detaches the tenant from its shard, flushing its backlog and
    /// returning its remaining results (see [`ServeRegistry::detach`]).
    /// Safe to call while another thread drains the shard: the shard
    /// lock serializes them, and the key-rotating cursor skips over
    /// removed tenants without re-favoring anyone.
    pub fn detach(&self, tenant: TenantId) -> Option<Vec<Result<R, EngineError>>> {
        self.shard(tenant).lock().detach(tenant)
    }

    /// Serves the tenant, then snapshots its counters; `None` if
    /// unknown.
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        let mut shard = self.shard(tenant).lock();
        shard.service(tenant.0);
        shard.stats(tenant)
    }

    /// Serves the tenant, then clones its sojourn histogram out of its
    /// shard; `None` for an unknown tenant.
    pub fn tenant_sojourn(&self, tenant: TenantId) -> Option<HistogramSnapshot> {
        let mut shard = self.shard(tenant).lock();
        shard.service(tenant.0);
        shard.tenant_sojourn(tenant).cloned()
    }

    /// Blocks until every shard is settled — no backlogged or in-flight
    /// items anywhere; every fed item's result is then harvestable via
    /// [`take_ready`](Self::take_ready). Runs drain cycles on the
    /// caller's thread, taking each shard's lock once per pass and
    /// never while waiting.
    pub fn quiesce(&self) {
        loop {
            let mut settled = true;
            for shard in &self.shards {
                let mut shard = shard.lock();
                shard.drain_cycle();
                settled &= shard.settled();
            }
            if settled {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// How many tenants are registered, over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no tenants are registered on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many registry shards the front holds.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index that owns `tenant` (pure hash — stable for the
    /// front's lifetime).
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        (splitmix64(tenant.0) % self.shards.len() as u64) as usize
    }

    /// The shared engine (non-owning clone).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The single multiplexed event monitor all shards route through.
    pub fn monitor(&self) -> &Arc<ServeMonitor> {
        &self.monitor
    }

    /// The global cross-shard estimator pool.
    pub fn shared_estimators(&self) -> &SharedEstimators {
        &self.shared
    }

    /// One unified metrics snapshot: the shared hub's series plus every
    /// shard's per-tenant sojourn histograms.
    pub fn export_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.metrics_hub().snapshot();
        for shard in &self.shards {
            shard.lock().append_tenant_histograms(&mut snap);
        }
        snap
    }

    /// Consumes the front. It owns no threads, so there is nothing to
    /// stop; in-flight work is not awaited — call
    /// [`quiesce`](Self::quiesce) first if every fed item must
    /// complete.
    pub fn join(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::seq;

    #[test]
    fn tenants_spread_over_shards_and_results_stay_per_tenant() {
        let engine = Engine::new(2);
        let serve: ShardedServe<i64, i64> =
            ShardedServe::new(&engine, 4, AdmissionPolicy::default());
        assert_eq!(serve.shards(), 4);
        let tenants: Vec<TenantId> = (0..16)
            .map(|i| serve.register(&seq(move |x: i64| x * 10 + i)))
            .collect();
        let mut used = std::collections::BTreeSet::new();
        for &t in &tenants {
            used.insert(serve.shard_of(t));
        }
        assert!(used.len() > 1, "16 tenants hash onto more than one shard");
        for (i, &t) in tenants.iter().enumerate() {
            for x in 0..4 {
                assert_ne!(
                    serve.feed(t, x),
                    Admission::Rejected(crate::RejectReason::UnknownTenant),
                    "tenant {i} routed to the wrong shard"
                );
            }
        }
        serve.quiesce();
        for (i, &t) in tenants.iter().enumerate() {
            let got: Vec<i64> = serve
                .take_ready(t)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let want: Vec<i64> = (0..4).map(|x| x * 10 + i as i64).collect();
            assert_eq!(got, want, "tenant {i}");
        }
        serve.join();
        engine.shutdown();
    }

    #[test]
    fn drivers_dispatch_backlogs_without_explicit_drain_calls() {
        let engine = Engine::new(2);
        // Quota 1 forces nearly everything through the backlog: only
        // the quiescing caller's drain cycles can dispatch it.
        let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(512);
        let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 4, policy);
        let t = serve.register(&seq(|x: i64| x + 1));
        let out = serve.feed_batch(t, (0..64).collect());
        assert_eq!(out.submitted + out.queued, 64, "nothing shed");
        serve.quiesce();
        let got: Vec<i64> = serve
            .take_ready(t)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
        serve.join();
        engine.shutdown();
    }

    /// Caller-driven progress: a client that only polls `take_ready`
    /// (no `quiesce`, no `stats`) still drains a whole backlog, because
    /// every poll serves the tenant it reads.
    #[test]
    fn take_ready_polling_alone_drains_a_backlog() {
        let engine = Engine::new(2);
        let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(512);
        let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 2, policy);
        let t = serve.register(&seq(|x: i64| x + 1));
        let out = serve.feed_batch(t, (0..64).collect());
        assert_eq!(out.submitted + out.queued, 64, "nothing shed");
        assert!(out.queued >= 62, "quota 1 backlogs nearly everything");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < 64 {
            assert!(
                std::time::Instant::now() < deadline,
                "backlog stalled at {} of 64 results",
                got.len()
            );
            got.extend(serve.take_ready(t).into_iter().map(|r| r.unwrap()));
            std::thread::yield_now();
        }
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
        serve.join();
        engine.shutdown();
    }

    #[test]
    fn empty_front_joins_cleanly() {
        let engine = Engine::new(1);
        let serve: ShardedServe<i64, i64> =
            ShardedServe::new(&engine, 2, AdmissionPolicy::default());
        assert!(serve.is_empty());
        serve.quiesce();
        drop(serve); // nothing to stop: the front owns no threads
        engine.shutdown();
    }
}
