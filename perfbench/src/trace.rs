//! Spans around the benchmark's calls into each layer's public API.
//!
//! Only the traced run (`--trace 1`) records: the measured runs hold a
//! disabled [`Tracer`], whose `begin`/`end` do nothing. A span's layer is
//! its name up to the first `.` (`serve.feed_batch` → `serve`); a layer's
//! self time is its spans' durations minus the time their child spans
//! cover. Spans stay in memory and are written once, at exit, as a Chrome
//! trace.

use std::collections::BTreeMap;
use std::time::Instant;

use autonomic_skeletons::obs::{ChromeTrace, Json, TraceEvent};
use autonomic_skeletons::prelude::TimeNs;

/// Spans kept for the Chrome trace; durations and self times still cover
/// every span past the cap.
const MAX_KEPT: usize = 100_000;

/// One finished span. Times are ns since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the kept list, if it was kept.
    pub parent: Option<usize>,
    /// The request, item or job the call served.
    pub item: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// Each span's self time: its duration minus its direct children's.
fn self_ns_per_span(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

struct Open {
    name: &'static str,
    item: u64,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Token(());

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    kept: Vec<Span>,
    open: Vec<Open>,
    durations: BTreeMap<&'static str, Vec<u64>>,
    self_ns: BTreeMap<&'static str, u64>,
    total: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            kept: Vec::new(),
            open: Vec::new(),
            durations: BTreeMap::new(),
            self_ns: BTreeMap::new(),
            total: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, item: u64) -> Token {
        if self.enabled {
            let t = self.now_ns();
            self.begin_at(name, item, t);
        }
        Token(())
    }

    pub fn end(&mut self, token: Token) {
        if self.enabled {
            let t = self.now_ns();
            self.end_at(token, t);
        }
    }

    /// Times `f` as one span.
    pub fn call<T>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name, item);
        let out = f();
        self.end(token);
        out
    }

    fn begin_at(&mut self, name: &'static str, item: u64, start_ns: u64) {
        self.open.push(Open {
            name,
            item,
            start_ns,
            child_ns: 0,
            kept: None,
        });
    }

    fn end_at(&mut self, _token: Token, end_ns: u64) {
        let open = self.open.pop().expect("end matches a begin");
        let dur = end_ns.saturating_sub(open.start_ns);
        *self.self_ns.entry(layer_of(open.name)).or_insert(0) += dur.saturating_sub(open.child_ns);
        self.durations.entry(open.name).or_default().push(dur);
        self.total += 1;
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            &mut p.kept
        });
        // Children end before their parent: the first kept child reserves
        // the parent's slot, which the parent fills when it ends.
        if self.kept.len() < MAX_KEPT {
            let parent_idx = match parent {
                Some(slot) => {
                    if slot.is_none() {
                        *slot = Some(self.kept.len());
                        self.kept.push(placeholder());
                    }
                    *slot
                }
                None => None,
            };
            let span = Span {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: parent_idx,
                item: open.item,
            };
            match open.kept {
                Some(i) => self.kept[i] = span,
                None => self.kept.push(span),
            }
        } else if let Some(i) = open.kept {
            // Past the cap a reserved slot still gets its real bounds.
            self.kept[i] = Span {
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent: None,
                item: open.item,
            };
        }
    }

    /// Every recorded duration of the span `name`, in ns.
    pub fn durations(&self, name: &str) -> &[u64] {
        self.durations.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Self time per layer over every span recorded.
    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    pub fn total_spans(&self) -> u64 {
        self.total
    }

    /// The kept spans as complete events (self time in their args), plus
    /// one summary event carrying every layer's total self time.
    pub fn to_chrome(&self) -> ChromeTrace {
        let self_ns = self_ns_per_span(&self.kept);
        let mut trace = ChromeTrace::new();
        for (i, s) in self.kept.iter().enumerate() {
            trace.push(TraceEvent {
                name: s.name.to_string(),
                cat: s.layer().to_string(),
                ph: 'X',
                ts: TimeNs(s.start_ns),
                dur: Some(s.dur_ns()),
                pid: 1,
                tid: 0,
                args: vec![
                    ("span".to_string(), Json::Num(i as f64)),
                    ("item".to_string(), Json::Num(s.item as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns".to_string(), Json::Num(self_ns[i] as f64)),
                ],
            });
        }
        let end = self.kept.iter().map(|s| s.end_ns).max().unwrap_or(0);
        trace.push(TraceEvent {
            name: "layer_self_time_ns".to_string(),
            cat: "summary".to_string(),
            ph: 'i',
            ts: TimeNs(end),
            dur: None,
            pid: 1,
            tid: 0,
            args: self
                .self_ns
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v as f64)))
                .collect(),
        });
        trace
    }
}

fn placeholder() -> Span {
    Span {
        name: "",
        start_ns: 0,
        end_ns: 0,
        parent: None,
        item: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// client.item [0, 100) ⊃ adapt.feed [10, 40) ⊃ engine.submit [20, 30),
    /// then adapt.next_result [50, 90); a second root serve.x [200, 205).
    fn nested() -> Tracer {
        let mut t = Tracer::new(true);
        t.begin_at("client.item", 1, 0);
        t.begin_at("adapt.feed", 1, 10);
        t.begin_at("engine.submit", 1, 20);
        t.end_at(Token(()), 30);
        t.end_at(Token(()), 40);
        t.begin_at("adapt.next_result", 1, 50);
        t.end_at(Token(()), 90);
        t.end_at(Token(()), 100);
        t.begin_at("serve.x", 2, 200);
        t.end_at(Token(()), 205);
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = nested();
        let want: BTreeMap<&str, u64> = [
            ("client", 100 - 30 - 40),
            ("adapt", (30 - 10) + 40),
            ("engine", 10),
            ("serve", 5),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.self_ns(), &want, "accumulated while tracing");
        let mut from_spans = BTreeMap::new();
        for (s, ns) in t.kept().iter().zip(self_ns_per_span(t.kept())) {
            *from_spans.entry(s.layer()).or_insert(0) += ns;
        }
        assert_eq!(from_spans, want, "recomputed from the kept spans");
        // Self times partition the root spans' wall time.
        assert_eq!(want.values().sum::<u64>(), 100 + 5);
    }

    #[test]
    fn kept_spans_link_to_their_parents() {
        let t = nested();
        let by_name = |n: &str| t.kept().iter().position(|s| s.name == n).unwrap();
        let root = by_name("client.item");
        let feed = by_name("adapt.feed");
        assert_eq!(t.kept()[root].parent, None);
        assert_eq!(t.kept()[root].dur_ns(), 100);
        assert_eq!(t.kept()[feed].parent, Some(root));
        assert_eq!(t.kept()[by_name("engine.submit")].parent, Some(feed));
        assert_eq!(t.kept()[by_name("adapt.next_result")].parent, Some(root));
        assert_eq!(t.durations("adapt.feed"), &[30]);
        assert_eq!(t.total_spans(), 5);
        // Four spans plus the summary event.
        assert_eq!(t.to_chrome().len(), 6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.call("serve.x", 0, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.total_spans(), 0);
        assert!(t.durations("serve.x").is_empty());
    }
}
