//! A host-speed probe for the single-threaded `sim` workload.
//!
//! On a shared host the speed of one core swings by up to a factor of
//! two for seconds to minutes at a time, with what the host's other
//! tenants run beside it. Code with a large footprint — allocation,
//! string formatting and parsing, hashing, dynamic dispatch — slows the
//! most, and the simulator is such code. A whole measured run can fall
//! into the slow state, so no amount of averaging inside a run removes
//! it. [`probe_ms`] times a fixed kernel of the same kind of work, built
//! on the standard library only, right after each simulated job; the job
//! is then reported at the speed where the kernel takes [`REFERENCE_MS`]
//! ([`factor`]). A faster simulator still reads faster; a slower
//! host does not.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The kernel's time on a quiet core of the 2-core Xeon (family 6,
/// model 207) the benchmark was built on.
pub const REFERENCE_MS: f64 = 1.25;

type FixedHash = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// Runs the kernel once and returns its wall time in milliseconds. The
/// work is fixed: the same 1 500 strings are formatted, parsed, hashed
/// and sorted on every call.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut words: HashMap<String, u64, FixedHash> = HashMap::default();
    let mut tree: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let ops: [Box<dyn Fn(f64) -> f64>; 4] = [
        Box::new(|v| v * 1.5),
        Box::new(f64::sqrt),
        Box::new(|v| v + 3.0),
        Box::new(f64::ln_1p),
    ];
    let mut acc = 0.0;
    for i in 0..1_500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = format!("w{}-{:.3}", x % 997, (x % 10_000) as f64 / 7.0);
        let num: f64 = word
            .split('-')
            .nth(1)
            .and_then(|f| f.parse().ok())
            .expect("the kernel formats a number after the dash");
        *words.entry(word.clone()).or_default() += i;
        let v = ops[(x % 4) as usize](num);
        acc += v;
        tree.entry(word).or_default().push(v);
    }
    let mut keys: Vec<&String> = words.keys().collect();
    keys.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    std::hint::black_box((acc, keys.len(), tree.len()));
    t.elapsed().as_secs_f64() * 1e3
}

/// What a time measured beside a probe reading of `probe_ms` is
/// multiplied by to give the time at reference speed.
pub fn factor(probe_ms: f64) -> f64 {
    REFERENCE_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_speed() {
        assert_eq!(factor(2.0 * REFERENCE_MS), 0.5);
        assert_eq!(factor(REFERENCE_MS), 1.0);
        assert!(probe_ms() > 0.0);
    }
}
