//! Event-driven state machines tracking skeleton execution.
//!
//! The paper (Figs. 3–4) tracks execution with one state machine per
//! skeleton *instance*, fed by events and guarded by the instance index
//! (`[idx == i]`). The state machines have two jobs:
//!
//! 1. **update the estimators** — e.g. the Map machine updates `t(fs)` and
//!    `|fs|` on `map@as(i, fsCard)`, `t(fm)` on `map@am(i)`; the Seq machine
//!    updates `t(fe)` on `seq@a(i)`;
//! 2. **maintain the live execution record** the ADG is built from: which
//!    instances exist, which muscle executions started/finished when, what
//!    each split produced, how often each `while` condition held, how deep
//!    each `d&C` recursion went.
//!
//! [`SmTracker`] implements both for all nine skeleton kinds (the paper
//! gives Seq and Map and leaves If/Fork "under construction"; supporting
//! them is part of this reproduction's realized future work).
//!
//! The tracker is a plain state container — registering it as a listener is
//! the controller's job (`askel-core::controller`), which feeds it and
//! analyzes it under its own state lock. A stream running both managers
//! has one tracker: a synced trigger engine (`askel-adapt`) reads the
//! controller's rather than feeding a second. An unsynced trigger engine
//! feeds its own.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use askel_events::{Event, EventInfo, When, Where};
use askel_skeletons::{InstanceId, KindTag, MuscleId, MuscleRole, NodeId, TimeNs};

use crate::estimate::EstimatorTable;

/// Hasher for ids the program mints itself (instance and node counters):
/// one rotate-xor-multiply per word. Ids are dense and never chosen from
/// outside, so SipHash's protection against crafted collisions buys
/// nothing on the per-event and per-analysis lookups.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap`/`HashSet` state for [`IdHasher`].
pub(crate) type IdHash = BuildHasherDefault<IdHasher>;

/// One muscle execution observed at runtime (possibly still running).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// When the muscle started (its Before event).
    pub started: TimeNs,
    /// When it finished (its After event), if it has.
    pub finished: Option<TimeNs>,
}

impl Span {
    fn start(t: TimeNs) -> Self {
        Span {
            started: t,
            finished: None,
        }
    }
}

/// One observed condition evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CondSpan {
    /// The evaluation's span.
    pub span: Span,
    /// Its verdict, known at the After event.
    pub verdict: Option<bool>,
}

/// Everything known about one skeleton instance.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// The AST node this is an instance of.
    pub node: NodeId,
    /// The node's kind.
    pub kind: KindTag,
    /// The instance index `i`.
    pub id: InstanceId,
    /// The enclosing instance, if any.
    pub parent: Option<InstanceId>,
    /// When the instance began (its skeleton-Before event).
    pub started: TimeNs,
    /// When it ended (its skeleton-After event).
    pub finished: Option<TimeNs>,
    /// The split muscle execution, if the kind has one and it started.
    pub split: Option<Span>,
    /// What the split produced (`fsCard`), known at split-After.
    pub split_card: Option<usize>,
    /// The merge muscle execution.
    pub merge: Option<Span>,
    /// Condition evaluations, in order (`while` has many).
    pub conds: Vec<CondSpan>,
    /// Child instances, in arrival order of their skeleton-Before events.
    pub children: Vec<InstanceId>,
    /// How many condition evaluations returned `true` so far.
    pub cond_trues: usize,
    /// Recursion depth for `d&C` instances (root = 1); 1 otherwise.
    pub dc_depth: usize,
    /// For the root instance of a `d&C` recursion: deepest instance seen.
    pub dc_max_depth: usize,
}

impl InstanceRecord {
    /// `true` once the skeleton-After event arrived.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }
}

/// Event-driven execution tracker + estimator updater.
pub struct SmTracker {
    estimates: EstimatorTable,
    instances: HashMap<InstanceId, InstanceRecord, IdHash>,
    /// Root instances in arrival order; the last is the current submission.
    roots: Vec<InstanceId>,
}

impl SmTracker {
    /// A tracker with a fresh estimator table using weight `rho`.
    pub fn new(rho: f64) -> Self {
        Self::with_estimates(EstimatorTable::new(rho))
    }

    /// A tracker over a pre-initialized estimator table (the paper's
    /// "with initialization" scenario).
    pub fn with_estimates(estimates: EstimatorTable) -> Self {
        SmTracker {
            estimates,
            instances: HashMap::default(),
            roots: Vec::new(),
        }
    }

    /// The estimator table (shared view).
    pub fn estimates(&self) -> &EstimatorTable {
        &self.estimates
    }

    /// Mutable access to the estimator table (for initialization).
    pub fn estimates_mut(&mut self) -> &mut EstimatorTable {
        &mut self.estimates
    }

    /// The current (most recent) root instance.
    pub fn current_root(&self) -> Option<&InstanceRecord> {
        self.roots.last().and_then(|id| self.instances.get(id))
    }

    /// Looks an instance up.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceRecord> {
        self.instances.get(&id)
    }

    /// Number of instances currently recorded.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Drops the records of finished roots (estimates are kept); reduces
    /// memory on long-lived engines.
    pub fn prune_finished(&mut self) {
        let keep_root = match self.roots.last() {
            Some(id) => match self.instances.get(id) {
                Some(r) if !r.is_finished() => Some(*id),
                _ => None,
            },
            None => None,
        };
        match keep_root {
            Some(root) => {
                // Keep only instances belonging to the live root.
                let live: HashSet<InstanceId, IdHash> = self
                    .instances
                    .values()
                    .filter(|r| self.root_of(r.id) == Some(root))
                    .map(|r| r.id)
                    .collect();
                self.instances.retain(|id, _| live.contains(id));
                self.roots.retain(|id| *id == root);
            }
            None => {
                self.instances.clear();
                self.roots.clear();
            }
        }
    }

    fn root_of(&self, mut id: InstanceId) -> Option<InstanceId> {
        loop {
            let rec = self.instances.get(&id)?;
            match rec.parent {
                Some(p) if self.instances.contains_key(&p) => id = p,
                Some(_) => return None,
                None => return Some(id),
            }
        }
    }

    /// Feeds one event through the state machines.
    pub fn observe(&mut self, event: &Event) {
        match (event.when, event.wher) {
            (When::Before, Where::Skeleton) => self.on_instance_begin(event),
            (When::After, Where::Skeleton) => self.on_instance_end(event),
            (When::Before, Where::Split) => self.on_muscle_begin(event, MuscleRole::Split),
            (When::After, Where::Split) => self.on_split_end(event),
            (When::Before, Where::Merge) => self.on_muscle_begin(event, MuscleRole::Merge),
            (When::After, Where::Merge) => self.on_merge_end(event),
            (When::Before, Where::Condition) => self.on_cond_begin(event),
            (When::After, Where::Condition) => self.on_cond_end(event),
            // Children announce themselves through their own Skeleton
            // events; the parent-side nesting events carry no extra state.
            (_, Where::NestedSkeleton) => {}
            // Structural rewrites (askel-adapt) are session-level
            // announcements, not muscle executions: nothing to estimate.
            (_, Where::Reconfigured) => {}
        }
    }

    fn on_instance_begin(&mut self, event: &Event) {
        let parent = event.trace.parent().map(|p| p.instance);
        let dc_depth = if event.kind == KindTag::DivideConquer {
            match parent.and_then(|p| self.instances.get(&p)) {
                Some(pr) if pr.node == event.node => pr.dc_depth + 1,
                _ => 1,
            }
        } else {
            1
        };
        let record = InstanceRecord {
            node: event.node,
            kind: event.kind,
            id: event.index,
            parent,
            started: event.timestamp,
            finished: None,
            split: None,
            split_card: None,
            merge: None,
            conds: Vec::new(),
            children: Vec::new(),
            cond_trues: 0,
            dc_depth,
            dc_max_depth: dc_depth,
        };
        if let Some(p) = parent {
            if let Some(pr) = self.instances.get_mut(&p) {
                pr.children.push(event.index);
            }
        }
        // Propagate d&C depth to the recursion root.
        if event.kind == KindTag::DivideConquer {
            let mut cur = parent;
            let mut root = None;
            while let Some(c) = cur {
                match self.instances.get(&c) {
                    Some(r) if r.node == event.node => {
                        root = Some(c);
                        cur = r.parent;
                    }
                    _ => break,
                }
            }
            if let Some(root) = root {
                if let Some(rr) = self.instances.get_mut(&root) {
                    rr.dc_max_depth = rr.dc_max_depth.max(dc_depth);
                }
            }
        }
        if parent.is_none() {
            self.roots.push(event.index);
        }
        self.instances.insert(event.index, record);
    }

    fn on_instance_end(&mut self, event: &Event) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        rec.finished = Some(event.timestamp);
        match rec.kind {
            KindTag::Seq => {
                // Fig. 3: t(fe) updated at seq@a with (now − eti).
                let dur = event.timestamp.saturating_sub(rec.started);
                self.estimates
                    .observe_duration(MuscleId::new(event.node, MuscleRole::Execute), dur);
            }
            KindTag::While => {
                // |fc| of a while = number of `true` verdicts this run.
                let trues = rec.cond_trues as f64;
                self.estimates
                    .observe_cardinality(MuscleId::new(event.node, MuscleRole::Condition), trues);
            }
            KindTag::DivideConquer if rec.dc_depth == 1 => {
                // |fc| of a d&C = depth of the recursion tree.
                let depth = rec.dc_max_depth as f64;
                self.estimates
                    .observe_cardinality(MuscleId::new(event.node, MuscleRole::Condition), depth);
            }
            _ => {}
        }
    }

    fn on_muscle_begin(&mut self, event: &Event, role: MuscleRole) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let span = Span::start(event.timestamp);
        match role {
            MuscleRole::Split => rec.split = Some(span),
            MuscleRole::Merge => rec.merge = Some(span),
            _ => unreachable!("on_muscle_begin only handles split/merge"),
        }
    }

    fn on_split_end(&mut self, event: &Event) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let started = match rec.split {
            Some(s) => s.started,
            None => rec.started,
        };
        rec.split = Some(Span {
            started,
            finished: Some(event.timestamp),
        });
        let muscle = MuscleId::new(event.node, MuscleRole::Split);
        self.estimates
            .observe_duration(muscle, event.timestamp.saturating_sub(started));
        if let EventInfo::SplitCardinality(card) = event.info {
            rec.split_card = Some(card);
            self.estimates.observe_cardinality(muscle, card as f64);
        }
    }

    fn on_merge_end(&mut self, event: &Event) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let started = match rec.merge {
            Some(s) => s.started,
            None => rec.started,
        };
        rec.merge = Some(Span {
            started,
            finished: Some(event.timestamp),
        });
        self.estimates.observe_duration(
            MuscleId::new(event.node, MuscleRole::Merge),
            event.timestamp.saturating_sub(started),
        );
    }

    fn on_cond_begin(&mut self, event: &Event) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        rec.conds.push(CondSpan {
            span: Span::start(event.timestamp),
            verdict: None,
        });
    }

    fn on_cond_end(&mut self, event: &Event) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let verdict = event.info.condition_result();
        let started = match rec.conds.last_mut() {
            Some(c) => {
                c.span.finished = Some(event.timestamp);
                c.verdict = verdict;
                c.span.started
            }
            None => {
                rec.conds.push(CondSpan {
                    span: Span {
                        started: rec.started,
                        finished: Some(event.timestamp),
                    },
                    verdict,
                });
                rec.started
            }
        };
        if verdict == Some(true) {
            rec.cond_trues += 1;
        }
        self.estimates.observe_duration(
            MuscleId::new(event.node, MuscleRole::Condition),
            event.timestamp.saturating_sub(started),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_events::Trace;

    #[allow(clippy::too_many_arguments)]
    fn ev(
        node: u64,
        kind: KindTag,
        when: When,
        wher: Where,
        index: u64,
        parent: Option<(u64, KindTag, u64)>,
        at: u64,
        info: EventInfo,
    ) -> Event {
        let trace = match parent {
            Some((pn, pk, pi)) => Trace::root(NodeId(pn), InstanceId(pi), pk).child(
                NodeId(node),
                InstanceId(index),
                kind,
            ),
            None => Trace::root(NodeId(node), InstanceId(index), kind),
        };
        Event {
            node: NodeId(node),
            kind,
            when,
            wher,
            index: InstanceId(index),
            trace,
            timestamp: TimeNs(at),
            info,
        }
    }

    #[test]
    fn seq_machine_updates_t_fe() {
        // Fig. 3 exactly: @b stores eti, @a updates t(fe) = ρ(now−eti)+(1−ρ)t(fe).
        let mut t = SmTracker::new(0.5);
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            10,
            None,
            100,
            EventInfo::None,
        ));
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::After,
            Where::Skeleton,
            10,
            None,
            160,
            EventInfo::None,
        ));
        let fe = MuscleId::new(NodeId(1), MuscleRole::Execute);
        assert_eq!(t.estimates().duration(fe), Some(TimeNs(60)));
        // Second run: 100ns → estimate (60+100)/2 = 80.
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            11,
            None,
            200,
            EventInfo::None,
        ));
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::After,
            Where::Skeleton,
            11,
            None,
            300,
            EventInfo::None,
        ));
        assert_eq!(t.estimates().duration(fe), Some(TimeNs(80)));
    }

    #[test]
    fn map_machine_updates_split_card_and_merge() {
        // Fig. 4: t(fs), |fs| at @as; t(fm) at @am.
        let mut t = SmTracker::new(0.5);
        let map = |when, wher, at, info| ev(5, KindTag::Map, when, wher, 20, None, at, info);
        t.observe(&map(When::Before, Where::Skeleton, 0, EventInfo::None));
        t.observe(&map(When::Before, Where::Split, 0, EventInfo::None));
        t.observe(&map(
            When::After,
            Where::Split,
            10,
            EventInfo::SplitCardinality(3),
        ));
        t.observe(&map(When::Before, Where::Merge, 65, EventInfo::None));
        t.observe(&map(When::After, Where::Merge, 70, EventInfo::None));
        t.observe(&map(When::After, Where::Skeleton, 70, EventInfo::None));
        let fs = MuscleId::new(NodeId(5), MuscleRole::Split);
        let fm = MuscleId::new(NodeId(5), MuscleRole::Merge);
        assert_eq!(t.estimates().duration(fs), Some(TimeNs(10)));
        assert_eq!(t.estimates().cardinality(fs), Some(3.0));
        assert_eq!(t.estimates().duration(fm), Some(TimeNs(5)));
        let root = t.current_root().unwrap();
        assert!(root.is_finished());
        assert_eq!(root.split_card, Some(3));
    }

    #[test]
    fn children_attach_to_parents_in_order() {
        let mut t = SmTracker::new(0.5);
        t.observe(&ev(
            5,
            KindTag::Map,
            When::Before,
            Where::Skeleton,
            20,
            None,
            0,
            EventInfo::None,
        ));
        for (i, at) in [(30u64, 10u64), (31, 10), (32, 65)] {
            t.observe(&ev(
                6,
                KindTag::Seq,
                When::Before,
                Where::Skeleton,
                i,
                Some((5, KindTag::Map, 20)),
                at,
                EventInfo::None,
            ));
        }
        let root = t.current_root().unwrap();
        assert_eq!(
            root.children,
            vec![InstanceId(30), InstanceId(31), InstanceId(32)]
        );
        let child = t.instance(InstanceId(31)).unwrap();
        assert_eq!(child.parent, Some(InstanceId(20)));
        assert!(!child.is_finished());
    }

    #[test]
    fn while_counts_trues_and_updates_cardinality() {
        let mut t = SmTracker::new(0.5);
        let w = |when, wher, at, info| ev(7, KindTag::While, when, wher, 40, None, at, info);
        t.observe(&w(When::Before, Where::Skeleton, 0, EventInfo::None));
        for (k, verdict) in [true, true, true, false].iter().enumerate() {
            let at = (k as u64) * 10;
            t.observe(&w(When::Before, Where::Condition, at, EventInfo::None));
            t.observe(&w(
                When::After,
                Where::Condition,
                at + 2,
                EventInfo::ConditionResult(*verdict),
            ));
        }
        t.observe(&w(When::After, Where::Skeleton, 40, EventInfo::None));
        let fc = MuscleId::new(NodeId(7), MuscleRole::Condition);
        assert_eq!(t.estimates().cardinality(fc), Some(3.0));
        assert_eq!(t.estimates().duration(fc), Some(TimeNs(2)));
        assert_eq!(t.current_root().unwrap().conds.len(), 4);
    }

    #[test]
    fn dac_depth_reaches_the_recursion_root() {
        let mut t = SmTracker::new(0.5);
        // Root d&C instance 50 → child 51 → grandchild 52 (same node 9).
        t.observe(&ev(
            9,
            KindTag::DivideConquer,
            When::Before,
            Where::Skeleton,
            50,
            None,
            0,
            EventInfo::None,
        ));
        t.observe(&ev(
            9,
            KindTag::DivideConquer,
            When::Before,
            Where::Skeleton,
            51,
            Some((9, KindTag::DivideConquer, 50)),
            10,
            EventInfo::None,
        ));
        // Grandchild: trace root(9,#50)/(9,#51)/(9,#52) — build manually.
        let trace = Trace::root(NodeId(9), InstanceId(50), KindTag::DivideConquer)
            .child(NodeId(9), InstanceId(51), KindTag::DivideConquer)
            .child(NodeId(9), InstanceId(52), KindTag::DivideConquer);
        t.observe(&Event {
            node: NodeId(9),
            kind: KindTag::DivideConquer,
            when: When::Before,
            wher: Where::Skeleton,
            index: InstanceId(52),
            trace,
            timestamp: TimeNs(20),
            info: EventInfo::None,
        });
        assert_eq!(t.instance(InstanceId(52)).unwrap().dc_depth, 3);
        assert_eq!(t.instance(InstanceId(50)).unwrap().dc_max_depth, 3);
        // Root completion records |fc| = 3.
        t.observe(&ev(
            9,
            KindTag::DivideConquer,
            When::After,
            Where::Skeleton,
            50,
            None,
            99,
            EventInfo::None,
        ));
        let fc = MuscleId::new(NodeId(9), MuscleRole::Condition);
        assert_eq!(t.estimates().cardinality(fc), Some(3.0));
    }

    #[test]
    fn new_root_becomes_current() {
        let mut t = SmTracker::new(0.5);
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            60,
            None,
            0,
            EventInfo::None,
        ));
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::After,
            Where::Skeleton,
            60,
            None,
            5,
            EventInfo::None,
        ));
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            61,
            None,
            10,
            EventInfo::None,
        ));
        assert_eq!(t.current_root().unwrap().id, InstanceId(61));
    }

    #[test]
    fn prune_keeps_live_root_only() {
        let mut t = SmTracker::new(0.5);
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            70,
            None,
            0,
            EventInfo::None,
        ));
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::After,
            Where::Skeleton,
            70,
            None,
            5,
            EventInfo::None,
        ));
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            71,
            None,
            10,
            EventInfo::None,
        ));
        assert_eq!(t.instance_count(), 2);
        t.prune_finished();
        assert_eq!(t.instance_count(), 1);
        assert_eq!(t.current_root().unwrap().id, InstanceId(71));
        // Estimates survive pruning.
        assert!(t
            .estimates()
            .duration(MuscleId::new(NodeId(1), MuscleRole::Execute))
            .is_some());
    }

    #[test]
    fn stray_after_events_are_tolerated() {
        let mut t = SmTracker::new(0.5);
        // After without Before: no panic, no record.
        t.observe(&ev(
            1,
            KindTag::Seq,
            When::After,
            Where::Skeleton,
            80,
            None,
            5,
            EventInfo::None,
        ));
        assert!(t.current_root().is_none());
    }
}
