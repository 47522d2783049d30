//! Sharded-serve integration: per-tenant correctness with concurrent
//! ingress threads serving their own tenants, including detach under a
//! live drain and a rule that panics while `quiesce` drains its shard.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use askel_adapt::{Rule, RuleCtx, RuleFire, TriggerEngine};
use askel_engine::Engine;
use askel_serve::{Admission, AdmissionPolicy, RejectReason, ShardedServe};
use askel_skeletons::{map, pipe, seq, Skel};

/// The shared tenant program: square every element in parallel, sum.
fn fan() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

/// A structurally different program over the same types.
fn chain() -> Skel<Vec<i64>, i64> {
    pipe(
        seq(|v: Vec<i64>| v.into_iter().map(|x| x * x).collect::<Vec<i64>>()),
        seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
    )
}

const TENANTS: usize = 6;
const INGRESS_THREADS: usize = 3;

/// One op in an interleaved schedule, applied by the ingress thread
/// that owns the op's tenant (so each tenant sees a well-defined feed
/// order while ops on *other* tenants race on other threads).
#[derive(Clone, Debug)]
enum OpKind {
    Feed(Vec<i64>),
    Batch(Vec<Vec<i64>>),
    Detach,
}

fn op_strategy() -> impl Strategy<Value = (usize, OpKind)> {
    let item = proptest::collection::vec(-50i64..50, 1..4);
    (
        0usize..TENANTS,
        prop_oneof![
            6 => item.clone().prop_map(OpKind::Feed),
            3 => proptest::collection::vec(item, 2..5).prop_map(OpKind::Batch),
            1 => Just(OpKind::Detach),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Six tenants over four shards, fed from three concurrent
    /// ingress threads with random feed/feed_batch/detach interleavings:
    /// every tenant's harvested results equal its sequential reference —
    /// the items it fed before its detach, applied in feed order.
    #[test]
    fn concurrent_shards_match_sequential_references(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let engine = Engine::new(2);
        let serve: ShardedServe<Vec<i64>, i64> =
            ShardedServe::new(&engine, 4, AdmissionPolicy::default());
        let programs: Vec<Skel<Vec<i64>, i64>> =
            (0..TENANTS).map(|i| if i % 2 == 0 { fan() } else { chain() }).collect();
        let tenants: Vec<_> = programs.iter().map(|p| serve.register(p)).collect();

        // Each tenant's sequential reference: the items fed before its
        // detach (feeds after a detach are rejected as unknown).
        let mut expected: Vec<Vec<i64>> = vec![Vec::new(); TENANTS];
        let mut detached = [false; TENANTS];
        for (tenant, kind) in &ops {
            match kind {
                OpKind::Feed(item) if !detached[*tenant] => {
                    expected[*tenant].push(programs[*tenant].apply(item.clone()));
                }
                OpKind::Batch(items) if !detached[*tenant] => {
                    for item in items {
                        expected[*tenant].push(programs[*tenant].apply(item.clone()));
                    }
                }
                OpKind::Detach => detached[*tenant] = true,
                _ => {}
            }
        }

        // Partition ops by owning ingress thread (tenant % threads), in
        // order — each tenant's schedule stays sequential on its owner
        // while the owners race each other over the four shards.
        let mut lanes: Vec<Vec<(usize, OpKind)>> = vec![Vec::new(); INGRESS_THREADS];
        for op in ops {
            lanes[op.0 % INGRESS_THREADS].push(op);
        }
        let harvested: Vec<Vec<Vec<i64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| {
                    let serve = &serve;
                    let tenants = &tenants;
                    s.spawn(move || {
                        let mut got: Vec<Vec<i64>> = vec![Vec::new(); TENANTS];
                        for (tenant, kind) in lane {
                            let id = tenants[tenant];
                            match kind {
                                OpKind::Feed(item) => {
                                    serve.feed(id, item);
                                }
                                OpKind::Batch(items) => {
                                    serve.feed_batch(id, items);
                                }
                                OpKind::Detach => {
                                    if let Some(results) = serve.detach(id) {
                                        got[tenant]
                                            .extend(results.into_iter().map(|r| r.unwrap()));
                                    }
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        serve.quiesce();
        for (i, &t) in tenants.iter().enumerate() {
            // A detached tenant's results came back from detach (on its
            // owning ingress thread); a live tenant's are harvested now.
            let mut got: Vec<i64> = harvested.iter().flat_map(|lane| lane[i].clone()).collect();
            got.extend(serve.take_ready(t).into_iter().map(|r| r.unwrap()));
            prop_assert_eq!(got, expected[i].clone(), "tenant {} diverged", i);
        }
        serve.join();
        engine.shutdown();
    }
}

/// Detaching a tenant while its backlog is still draining loses nothing: every admitted item's result comes back, in
/// submission order, and later feeds are rejected as unknown.
#[test]
fn detach_while_driver_is_draining_loses_nothing() {
    let engine = Engine::new(2);
    // Quota 1 + deep backlog: each service dispatches one item, so the
    // backlog drains gradually while we detach mid-flight.
    let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(512);
    let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 4, policy);
    let t = serve.register(&seq(|x: i64| x * 3));
    let out = serve.feed_batch(t, (0..200).collect());
    assert_eq!(out.submitted + out.queued, 200, "nothing shed");
    // Let the backlog make some progress (each `stats` call serves the
    // tenant), then yank the tenant out from under it.
    while serve.stats(t).map(|s| s.completed).unwrap_or(0) == 0 {
        std::thread::yield_now();
    }
    let results = serve.detach(t).expect("tenant was live");
    let got: Vec<i64> = results.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(
        serve.feed(t, 7),
        Admission::Rejected(RejectReason::UnknownTenant),
        "a detached tenant is gone"
    );
    assert_eq!(serve.detach(t), None, "second detach finds nothing");
    serve.quiesce();
    serve.join();
    engine.shutdown();
}

/// A rule that panics on its second evaluation and stays silent
/// otherwise.
struct PanicsOnSecond {
    evaluations: AtomicUsize,
}

impl Rule for PanicsOnSecond {
    fn name(&self) -> &str {
        "panics-on-second"
    }

    fn evaluate(&self, _ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        if self.evaluations.fetch_add(1, Ordering::SeqCst) == 1 {
            panic!("rule panics on its second evaluation");
        }
        None
    }
}

/// A user rule that panics at a backlog-dispatch safe point must neither
/// hang `quiesce` nor stall the shard: `quiesce` returns or unwinds
/// within the watchdog, and a plain tenant on the same shard still
/// serves correct results afterwards.
#[test]
fn panicking_rule_neither_hangs_quiesce_nor_stalls_the_shard() {
    let engine = Engine::new(2);
    let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(64);
    let serve: Arc<ShardedServe<i64, i64>> = Arc::new(ShardedServe::new(&engine, 1, policy));
    // The first item holds until the gate opens, so the second (whose
    // dispatch runs the panicking safe point) cannot leave the backlog
    // inside `feed_batch`.
    let gate = Arc::new(AtomicBool::new(false));
    let open = Arc::clone(&gate);
    let gated = seq(move |x: i64| {
        while !open.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        x * 2
    });
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(PanicsOnSecond {
        evaluations: AtomicUsize::new(0),
    });
    let adaptive = serve.register_adaptive(&gated, trigger);
    let out = serve.feed_batch(adaptive, vec![1, 2, 3]);
    assert_eq!((out.submitted, out.queued), (1, 2), "quota 1 backlogs two");
    gate.store(true, Ordering::Release);

    let (done, watchdog) = mpsc::channel();
    let quiescing = Arc::clone(&serve);
    let quiescer = std::thread::spawn(move || {
        let _ = catch_unwind(AssertUnwindSafe(|| quiescing.quiesce()));
        let _ = done.send(());
    });
    watchdog
        .recv_timeout(Duration::from_secs(10))
        .expect("quiesce neither returned nor unwound within 10 s");
    quiescer.join().expect("the unwind was caught");

    let plain = serve.register(&seq(|x: i64| x + 1));
    assert_eq!(serve.shard_of(plain), serve.shard_of(adaptive), "one shard");
    let out = serve.feed_batch(plain, (0..8).collect());
    assert_eq!(out.submitted + out.queued, 8, "nothing shed");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < 8 && Instant::now() < deadline {
        got.extend(serve.take_ready(plain).into_iter().map(|r| r.unwrap()));
        std::thread::yield_now();
    }
    assert_eq!(got, (1..=8).collect::<Vec<_>>());
    engine.shutdown();
}
