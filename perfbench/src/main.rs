//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tenants|adaptive|batch|sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the stack from one client thread over engines
//! with `available_parallelism` workers, checks every output, and prints
//! `# `-prefixed detail lines (machine stamp, sample counts, percentiles)
//! followed by one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics ([`END_TO_END`]).
//! * `--trace 1` runs the workload twice for half the time each — once
//!   plain, once with the metrics hub enabled and spans recorded around
//!   every timed public call — and reports the per-layer metrics
//!   ([`PER_LAYER`]); a layer the workload bypasses reports 0. The spans
//!   are written as a Chrome trace and the hub snapshot as JSON under
//!   `perfbench/out/`.
//!
//! A wrong output, a failed or rejected item, or a missed reference makes
//! the run fail (`"correct": false`, exit code 1).

mod adaptive;
mod batch;
mod gen;
mod host;
mod probe;
mod sim;
mod stats;
mod sys;
mod tenants;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use autonomic_skeletons::obs::{Json, MetricsSnapshot};

use stats::Samples;
use trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`. The
/// latency tail is printed with every run but not gated: on a shared
/// 2-core host the serving workload's p95 moves by a fifth to a quarter
/// from one set of runs to the next.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("client.send_lag_p99_ms", "ms"),
    ("serve.feed_batch_us.p50", "us"),
    ("serve.feed_batch_us.p99", "us"),
    ("serve.take_ready_us.p50", "us"),
    ("serve.register_us.p50", "us"),
    ("serve.quiesce_ms", "ms"),
    ("serve.queued_share", "ratio"),
    ("serve.rejected_share", "ratio"),
    ("serve.shard_items.max_over_mean", "ratio"),
    ("pool.queued_tasks.max", "count"),
    ("pool.queued_tasks.mean", "count"),
    ("pool.live_workers.mean", "count"),
    ("pool.wake_latency_ns.p50", "ns"),
    ("pool.wake_latency_ns.p99", "ns"),
    ("pool.steals_per_item", "count"),
    ("pool.parks_per_item", "count"),
    ("engine.submit_us.p50", "us"),
    ("engine.get_ms.p50", "ms"),
    ("engine.queue_delay_ns.p50", "ns"),
    ("engine.queue_delay_ns.p99", "ns"),
    ("engine.service_ns.p50", "ns"),
    ("engine.overhead_x", "x"),
    ("events.per_item", "count"),
    ("core.analyses_per_item", "count"),
    ("core.forecast_us.p50", "us"),
    ("core.decisions", "count"),
    ("core.analysis_log_len", "count"),
    ("adapt.feed_us.p50", "us"),
    ("adapt.feed_us.p99", "us"),
    ("adapt.next_result_us.p50", "us"),
    ("adapt.safe_points_per_item", "count"),
    ("adapt.evaluations_per_item", "count"),
    ("adapt.rewrites", "count"),
    ("skeletons.apply_us_per_item", "us"),
    ("skeletons.apply_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("sim.run_stream_s", "s"),
    ("dist.provision_actions", "count"),
    ("obs.tracing_overhead_x", "x"),
];

pub const WORKLOADS: [&str; 4] = ["tenants", "adaptive", "batch", "sim"];

/// What one workload run is given.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// One duration per set-up repetition.
    pub setup_s: Vec<f64>,
    /// `(seconds since the throughput window opened, items)` per
    /// completion.
    pub done: Vec<(f64, u64)>,
    /// Length of the throughput window.
    pub wall_s: f64,
    /// Latency samples in completion order.
    pub latency_ms: Vec<f64>,
    pub attempted: u64,
    /// Failed, rejected or wrong items.
    pub failed: u64,
    /// Per-layer values (reported by traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The metrics hub snapshot of a traced run.
    pub hub: Option<MetricsSnapshot>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn items(&self) -> u64 {
        self.done.iter().map(|&(_, n)| n).sum()
    }

    pub fn throughput(&self) -> f64 {
        stats::median(stats::rate_windows(&self.done, self.wall_s))
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records a percentile of `samples` as a per-layer metric, noting
    /// the sample count behind it.
    pub fn layer_pct(&mut self, name: &'static str, samples: &Samples, p: f64) {
        self.notes
            .push(format!("{name}: p{p} over {} samples", samples.len()));
        self.layer(name, samples.percentile(p));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn run_workload(name: &str, cfg: Config, tracer: &mut Tracer) -> Outcome {
    match name {
        "tenants" => tenants::run(cfg, tracer),
        "adaptive" => adaptive::run(cfg, tracer),
        "batch" => batch::run(cfg, tracer),
        "sim" => sim::run(cfg, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::Str(unit.to_string())),
    ])
}

/// Rounds per measured run. Each round builds the workload afresh (new
/// engine, new threads); the end-to-end values pool the windows of every
/// round, so one bad stretch on a shared 2-core host moves a few windows,
/// not the run. The threaded workloads with sub-millisecond items need
/// it: their rates and tails swing from one engine to the next with how
/// shard drivers, workers and the client share the cores. Second-long
/// batch jobs are steady in one round, and so is the single-threaded
/// simulator, whose times are scaled to reference host speed ([`host`]).
fn rounds(workload: &str) -> usize {
    match workload {
        "tenants" => 16,
        "adaptive" => 4,
        _ => 1,
    }
}

fn end_to_end(rounds: &[Outcome]) -> Vec<(String, Json)> {
    let setup = Samples::new(rounds.iter().flat_map(|r| r.setup_s.clone()).collect());
    let latency = Samples::new(rounds.iter().flat_map(|r| r.latency_ms.clone()).collect());
    let (mut rates, mut p95s) = (Vec::new(), Vec::new());
    for (i, r) in rounds.iter().enumerate() {
        let round_rates = stats::rate_windows(&r.done, r.wall_s);
        let round_p95s = stats::latency_windows(&r.latency_ms, 95.0);
        println!(
            "# round {i}: {} items in {} completions over {:.3} s, {} latency samples; \
             items/s per window {:.1?}; p95 ms per window {:.4?}",
            r.items(),
            r.done.len(),
            r.wall_s,
            r.latency_ms.len(),
            round_rates,
            round_p95s,
        );
        rates.extend(round_rates);
        p95s.extend(round_p95s);
    }
    let tail = latency.tail();
    println!(
        "# setup_s: median of {} set-ups; throughput: median of {} windows; latency: {} \
         samples, p50 over all; tail: latency_p95_ms {:.4} (median of {} windows), \
         latency_p99_ms {:.4} over all ({} beyond), highest percentile with {} beyond \
         p{} = {:.4} ms ({} beyond)",
        setup.len(),
        rates.len(),
        latency.len(),
        stats::median(p95s.clone()),
        p95s.len(),
        latency.percentile(99.0),
        latency.beyond(99.0),
        stats::MIN_BEYOND,
        tail.percentile,
        tail.value,
        tail.beyond
    );
    let values = [setup.median(), stats::median(rates), latency.median()];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), metric(v, unit)))
        .collect()
}

fn write_trace(workload: &str, seed: u64, tracer: &Tracer, hub: Option<&MetricsSnapshot>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let base = dir.join(format!("{workload}-seed{seed}"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| tracer.to_chrome().save(base.with_extension("trace.json")))
        .and_then(|_| match hub {
            Some(snap) => std::fs::write(base.with_extension("hub.json"), snap.to_json().render()),
            None => Ok(()),
        });
    match written {
        Ok(()) => println!(
            "# trace: {} spans ({} kept) -> {}.trace.json",
            tracer.total_spans(),
            tracer.kept().len(),
            base.display()
        ),
        Err(e) => println!("# trace not written: {e}"),
    }
    for (layer, ns) in tracer.self_ns() {
        println!("# self time {layer}: {:.3} ms", *ns as f64 / 1e6);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# stamp: {} workload={} seed={}",
        sys::stamp(),
        args.workload,
        args.seed
    );
    let mut cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        nproc: sys::nproc(),
    };
    let (outs, metrics) = if args.trace {
        // Half the time plain, half traced: the ratio is the tracing cost.
        cfg.seconds = args.seconds / 2.0;
        let plain = run_workload(&args.workload, cfg, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let mut traced = run_workload(&args.workload, cfg, &mut tracer);
        let overhead = plain.throughput() / traced.throughput().max(f64::MIN_POSITIVE);
        traced.layer("obs.tracing_overhead_x", overhead);
        write_trace(&args.workload, args.seed, &tracer, traced.hub.as_ref());
        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = traced.layers.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(v, unit))
            })
            .collect();
        (vec![plain, traced], metrics)
    } else {
        let n = rounds(&args.workload);
        cfg.seconds = args.seconds / n as f64;
        let outs: Vec<Outcome> = (0..n)
            .map(|_| run_workload(&args.workload, cfg, &mut Tracer::new(false)))
            .collect();
        let metrics = end_to_end(&outs);
        (outs, metrics)
    };
    for line in outs.iter().flat_map(|o| &o.notes) {
        println!("# {line}");
    }
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let finite = metrics.iter().all(|(_, m)| {
        m.get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
    });
    let correct = failed == 0 && attempted > 0 && finite;
    println!(
        "# attempted {attempted} failed {failed} error_rate {}; peak_rss_mb {}",
        failed as f64 / attempted.max(1) as f64,
        sys::peak_rss_mb()
    );
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
