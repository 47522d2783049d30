//! Multi-tenant serving: many sessions, one pool, one autonomic loop.
//!
//! A [`ServeRegistry`] shards per-tenant adaptive sessions over a single
//! shared engine. This example walks the three serve-layer mechanisms:
//!
//! 1. **Admission and fairness** — tenants feed through per-tenant
//!    in-flight quotas; items beyond the quota queue in a backlog that a
//!    round-robin drain cycle dispatches starvation-free.
//! 2. **Batched ingestion** — `feed_batch` hands a whole chunk to the
//!    engine in one pool transaction (and one safe point), instead of
//!    paying the submit→future floor per item.
//! 3. **Cross-tenant warm-start** — tenant A's estimator history is
//!    published to a structure-keyed shared pool; tenant B, running a
//!    structurally identical program, warm-starts from it, so B's
//!    forecast gate (`predictive_wct`) is open from its very first safe
//!    point instead of after its own warm-up.
//! 4. **Sharded ingress** — `ShardedServe` splits the tenant population
//!    over N registry shards (pure hash of the tenant id), all over the
//!    same shared engine. It runs no thread of its own: each call locks
//!    only the owning shard and serves its tenant there, and `quiesce`
//!    drains every backlog on the calling thread.
//!
//! Run with: `cargo run --example serve_multi_tenant`

use autonomic_skeletons::core::predictive_wct;
use autonomic_skeletons::prelude::*;

/// The tenant program: square every element in parallel, then sum.
fn program() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

fn reference(v: &[i64]) -> i64 {
    v.iter().map(|x| x * x).sum()
}

fn main() {
    let engine = Engine::new(4);
    let policy = AdmissionPolicy::default().max_in_flight(8).max_backlog(64);
    let mut registry: ServeRegistry<Vec<i64>, i64> =
        ServeRegistry::new(&engine).with_policy(policy);

    // --- 1. Bulk tenants over one pool, with admission control --------
    let tenants: Vec<TenantId> = (0..6).map(|_| registry.register(&program())).collect();
    let mut queued = 0;
    for round in 0..4 {
        for (i, &t) in tenants.iter().enumerate() {
            let item: Vec<i64> = (0..=(round + i) as i64).collect();
            match registry.feed(t, item) {
                Admission::Submitted => {}
                Admission::Queued => queued += 1,
                Admission::Rejected(reason) => panic!("unexpected rejection: {reason:?}"),
            }
        }
    }
    registry.quiesce();
    for (i, &t) in tenants.iter().enumerate() {
        let results = registry.take_ready(t);
        assert_eq!(results.len(), 4, "{t}: every admitted item completed");
        for (round, r) in results.into_iter().enumerate() {
            let item: Vec<i64> = (0..=(round + i) as i64).collect();
            assert_eq!(
                r.unwrap(),
                reference(&item),
                "{t} diverged on round {round}"
            );
        }
    }
    println!(
        "{} tenants shared {} workers; {} feeds rode the backlog through the round-robin drain",
        tenants.len(),
        engine.pool().target_workers(),
        queued,
    );

    // --- 2. Batched ingestion ----------------------------------------
    let bulk = registry.register(&program());
    let batch: Vec<Vec<i64>> = (0..32).map(|n| vec![n, n + 1]).collect();
    let outcome = registry.feed_batch(bulk, batch.clone());
    println!(
        "feed_batch({} items): {} submitted in one transaction, {} queued for the drain cycle",
        batch.len(),
        outcome.submitted,
        outcome.queued,
    );
    registry.quiesce();
    let results = registry.take_ready(bulk);
    assert_eq!(results.len(), batch.len());
    for (item, r) in batch.iter().zip(results) {
        assert_eq!(r.unwrap(), reference(item));
    }

    // --- 3. Cross-tenant estimator warm-start ------------------------
    // Tenant A is adaptive: its trigger engine receives the engine's
    // events (routed by the multiplexed monitor) and builds estimator
    // history as its traffic flows.
    let trig_a = TriggerEngine::new(0.5);
    let a = registry.register_adaptive(&program(), trig_a.clone());
    for n in 0..12 {
        registry.feed(a, (0..=n).collect());
    }
    registry.quiesce();
    registry.drain_cycle(); // publishes A's history to the shared pool
    let lp = engine.pool().target_workers();
    assert!(
        registry.shared_estimators().structures() >= 1,
        "A's history reached the shared pool"
    );

    // Tenant B runs a *structurally identical* program — independently
    // constructed, so it shares no NodeIds with A. Registration warms its
    // trigger from the shared pool: the forecast gate is open before B
    // has run a single item.
    let trig_b = TriggerEngine::new(0.5);
    let b_program = program();
    let b = registry.register_adaptive(&b_program, trig_b.clone());
    let warmed = trig_b.read_estimates(|est| predictive_wct(est, b_program.node(), lp));
    let forecast = warmed.expect("warm-started tenant forecasts before its first item");
    println!(
        "tenant {b} warm-started from tenant {a}'s history: first forecast {} ns at lp {lp}",
        forecast.0,
    );
    registry.feed_batch(b, (0..8).map(|n| vec![n, n + 2]).collect());
    registry.quiesce();
    assert_eq!(registry.take_ready(b).len(), 8);

    let stats = registry.stats(a).unwrap();
    println!(
        "tenant {a} stats: submitted {} completed {} rejected {}",
        stats.submitted, stats.completed, stats.rejected,
    );

    // --- 4. Sharded multi-threaded ingress ---------------------------
    // The same engine now also carries a ShardedServe: tenants hash onto
    // 4 registry shards. Feeds from concurrent ingress threads lock only
    // the owning shard and serve their tenant under that lock; quiesce
    // then drains every backlog on this thread.
    let serve: ShardedServe<Vec<i64>, i64> =
        ShardedServe::new(&engine, 4, AdmissionPolicy::default().max_in_flight(4));
    let shard_tenants: Vec<TenantId> = (0..8).map(|_| serve.register(&program())).collect();
    std::thread::scope(|s| {
        for lane in 0..2 {
            let serve = &serve;
            let shard_tenants = &shard_tenants;
            s.spawn(move || {
                for &t in shard_tenants.iter().skip(lane).step_by(2) {
                    serve.feed_batch(t, (0..16).map(|n| vec![n, n + 1]).collect());
                }
            });
        }
    });
    serve.quiesce();
    for &t in &shard_tenants {
        let results = serve.take_ready(t);
        assert_eq!(results.len(), 16, "{t}: every item completed");
        for (n, r) in results.into_iter().enumerate() {
            let n = n as i64;
            assert_eq!(r.unwrap(), reference(&[n, n + 1]));
        }
    }
    println!(
        "{} tenants over {} shards: 2 ingress threads fed {} items, \
         quiesce drained them all on the calling thread",
        shard_tenants.len(),
        serve.shards(),
        shard_tenants.len() * 16,
    );
    serve.join();

    engine.shutdown();
    println!("all tenants served correct results over one shared pool");
}
