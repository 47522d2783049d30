//! Property tests: the threaded engine, the simulator and the sequential
//! reference interpreter must agree on every program — for randomly
//! generated skeleton ASTs over `i64` — and the two runtimes of the
//! shared interpreter must emit the same events.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use askel_engine::Engine;
use askel_events::util::EventCollector;
use askel_sim::cost::ZeroCost;
use askel_sim::SimEngine;
use askel_skeletons::{dac, fork, map, pipe, seq, sfor, sif, swhile, Skel};

/// A generated program: the skeleton plus a description for shrinking
/// diagnostics.
#[derive(Clone)]
struct Program {
    skel: Skel<i64, i64>,
    desc: String,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.desc)
    }
}

fn leaf_strategy() -> impl Strategy<Value = Program> {
    prop_oneof![
        (0i64..20).prop_map(|k| Program {
            skel: seq(move |x: i64| x.wrapping_add(k)),
            desc: format!("seq(+{k})"),
        }),
        Just(Program {
            skel: seq(|x: i64| x.wrapping_mul(3)),
            desc: "seq(*3)".into(),
        }),
        Just(Program {
            skel: seq(|x: i64| x ^ 0x5A),
            desc: "seq(^0x5A)".into(),
        }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Program> {
    leaf_strategy().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // pipe(a, b)
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Program {
                skel: pipe(a.skel, b.skel),
                desc: format!("pipe({}, {})", a.desc, b.desc),
            }),
            // farm(a)
            inner.clone().prop_map(|a| Program {
                skel: askel_skeletons::farm(a.skel),
                desc: format!("farm({})", a.desc),
            }),
            // for(n, a) — body must be i64 → i64, which it is.
            (0usize..4, inner.clone()).prop_map(|(n, a)| Program {
                skel: sfor(n, a.skel),
                desc: format!("for({n}, {})", a.desc),
            }),
            // while(x < bound, clamp-up body) after a — guaranteed to
            // terminate: the body strictly increases below the bound and
            // first lifts the value to at least -bound, so the loop runs
            // O(bound) iterations. (Running `a` *inside* the body is not
            // safe: an arbitrary sub-program can drift the value down by
            // a little every iteration, and the loop then needs ~2^63
            // steps to wrap around.)
            (1i64..50, inner.clone()).prop_map(|(bound, a)| Program {
                skel: pipe(
                    a.skel,
                    swhile(
                        move |x: &i64| *x < bound,
                        seq(move |x: i64| bound.min(x.max(-bound).saturating_add(7))),
                    ),
                ),
                desc: format!("pipe({}, while(<{bound}, +7))", a.desc),
            }),
            // if(even, a, b)
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Program {
                skel: sif(|x: &i64| x % 2 == 0, a.skel, b.skel),
                desc: format!("if(even, {}, {})", a.desc, b.desc),
            }),
            // map: split into c parts, apply a, sum.
            (1usize..5, inner.clone()).prop_map(|(c, a)| Program {
                skel: map(
                    move |x: i64| (0..c as i64).map(|k| x.wrapping_add(k)).collect::<Vec<_>>(),
                    a.skel,
                    |parts: Vec<i64>| parts.iter().fold(0i64, |s, v| s.wrapping_add(*v)),
                ),
                desc: format!("map({c}, {})", a.desc),
            }),
            // fork with 2 distinct branches.
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Program {
                skel: fork(
                    |x: i64| vec![x, x.wrapping_add(1)],
                    vec![a.skel, b.skel],
                    |parts: Vec<i64>| parts.iter().fold(0i64, |s, v| s.wrapping_add(*v)),
                ),
                desc: format!("fork({}, {})", a.desc, b.desc),
            }),
            // d&C: normalize into [0, 200) — upstream stages can inflate
            // the value arbitrarily (wrapping products), and the split
            // produces ~x/threshold leaves — then halve values above the
            // threshold; base = a.
            (4i64..32, inner).prop_map(|(threshold, a)| Program {
                skel: pipe(
                    seq(|x: i64| x.rem_euclid(200)),
                    dac(
                        move |x: &i64| *x > threshold,
                        |x: i64| vec![x / 2, x - x / 2],
                        a.skel,
                        |parts: Vec<i64>| parts.iter().fold(0i64, |s, v| s.wrapping_add(*v)),
                    ),
                ),
                desc: format!("dac(>{threshold}, %200 {})", a.desc),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn threaded_engine_agrees_with_reference(program in program_strategy(), input in -100i64..100) {
        let expected = program.skel.apply(input);
        let engine = Engine::new(2);
        let got = engine
            .submit(&program.skel, input)
            .get_timeout(Duration::from_secs(60))
            .expect("engine timed out")
            .expect("engine failed");
        engine.shutdown();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn simulator_agrees_with_reference(program in program_strategy(), input in -100i64..100) {
        let expected = program.skel.apply(input);
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        let got = sim.run(&program.skel, input).expect("sim failed");
        prop_assert_eq!(got.result, expected);
    }

    #[test]
    fn both_runtimes_emit_the_same_events(program in program_strategy(), input in -100i64..100) {
        // Arrival order differs between threads; the multiset may not.
        let multiset = |events: &EventCollector| {
            let mut keys: Vec<String> = events
                .snapshot()
                .iter()
                .map(|e| format!("{:?} {:?} {:?} {:?}", e.node, e.when, e.wher, e.info))
                .collect();
            keys.sort_unstable();
            keys
        };
        let engine = Engine::new(2);
        let threaded = EventCollector::new();
        engine.registry().add_listener(threaded.clone());
        engine
            .submit(&program.skel, input)
            .get_timeout(Duration::from_secs(60))
            .expect("engine timed out")
            .expect("engine failed");
        engine.shutdown();
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        let simulated = EventCollector::new();
        sim.registry().add_listener(simulated.clone());
        sim.run(&program.skel, input).expect("sim failed");
        prop_assert!(!simulated.is_empty());
        prop_assert_eq!(multiset(&threaded), multiset(&simulated));
    }

    #[test]
    fn simulator_result_is_lp_invariant(program in program_strategy(), input in -100i64..100) {
        // Functional result must not depend on the LP.
        let mut results = Vec::new();
        for lp in [1usize, 2, 7] {
            let mut sim = SimEngine::new(lp, Arc::new(ZeroCost));
            results.push(sim.run(&program.skel, input).expect("sim failed").result);
        }
        prop_assert_eq!(results[0], results[1]);
        prop_assert_eq!(results[1], results[2]);
    }
}
