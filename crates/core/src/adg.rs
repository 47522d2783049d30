//! The Activity Dependency Graph (ADG) of Fig. 1.
//!
//! An ADG snapshots one skeleton execution at analysis time `now`: each
//! **activity** is a muscle execution — already finished (actual start and
//! end), currently running (actual start, estimated end), or predicted
//! (estimated duration, dependencies from the skeleton structure). The
//! predicted part is expanded from the AST using the estimator table:
//! an unexecuted `map` contributes a split, `round(|fs|)` child subtrees
//! and a merge; a half-done `while` contributes its remaining estimated
//! iterations; a `d&C` expands its estimated recursion tree to the
//! estimated depth, and so on.
//!
//! Scheduling strategies (`crate::strategy`) then lay the ADG on a
//! timeline; the controller compares the resulting completion times with
//! the WCT goal.
//!
//! Design notes beyond the paper:
//! * `if` is supported by predicting the *more expensive* branch while the
//!   verdict is unknown (conservative WCT; the paper left `if` unsupported
//!   because naive support duplicates the graph);
//! * `fork` is supported using its statically-known branch count (the
//!   paper's objection was state-machine non-determinism, which our
//!   per-instance records avoid);
//! * the controller re-analyzes on every `After` event, so its graphs fold
//!   finished instances into single Done activities
//!   ([`AdgBuilder::fold_finished`]): an analysis then costs about the
//!   work still ahead, not the job so far, with the same decisions.

use std::collections::HashMap;
use std::sync::Arc;

use askel_skeletons::{InstanceId, KindTag, MuscleId, MuscleRole, Node, NodeKind, TimeNs};

use crate::estimate::EstimatorTable;
use crate::tracker::{IdHash, InstanceRecord, SmTracker, Span};

/// Execution state of one activity at analysis time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActState {
    /// Finished: actual start and end.
    Done {
        /// Actual start time.
        start: TimeNs,
        /// Actual end time.
        end: TimeNs,
    },
    /// Started but not finished; its end is estimated as
    /// `max(start + est, now)` (the paper's past-clamp).
    Running {
        /// Actual start time.
        start: TimeNs,
    },
    /// Not started; both start and end are up to the strategy.
    Pending,
}

/// One node of the ADG: a (possibly predicted) muscle execution.
#[derive(Clone, Debug)]
pub struct Activity {
    /// The muscle this activity executes.
    pub muscle: MuscleId,
    /// Execution state.
    pub state: ActState,
    /// Estimated duration `t(m)` (for `Done`, the actual duration).
    pub est: TimeNs,
    /// Indices of activities that must finish before this one starts.
    /// Builder invariant: every predecessor index is smaller than the
    /// activity's own index, so index order is a topological order.
    pub preds: Vec<usize>,
}

/// The Activity Dependency Graph.
#[derive(Clone, Debug, Default)]
pub struct Adg {
    /// Activities in topological (insertion) order.
    pub activities: Vec<Activity>,
}

impl Adg {
    /// Number of activities.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// `true` if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// Count of activities in each state: `(done, running, pending)`.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for a in &self.activities {
            match a.state {
                ActState::Done { .. } => c.0 += 1,
                ActState::Running { .. } => c.1 += 1,
                ActState::Pending => c.2 += 1,
            }
        }
        c
    }
}

/// The folded spans of finished instances, kept across the controller's
/// analyses of one submission (see [`AdgBuilder::fold_finished`]).
///
/// A finished instance never changes again, so whether its subtree folds
/// — and into which span — is computed once, on the first analysis that
/// meets it finished. Clear the cache whenever the tracker prunes its
/// records.
#[derive(Debug, Default)]
pub struct FoldCache {
    /// `None`: the instance's subtree does not fold (an activity is not
    /// Done, or its exits end before its last activity does).
    folds: HashMap<InstanceId, Option<Folded>, IdHash>,
}

impl FoldCache {
    /// An empty cache.
    pub fn new() -> Self {
        FoldCache::default()
    }

    /// Forgets every folded span.
    pub fn clear(&mut self) {
        self.folds.clear();
    }
}

/// One finished subtree collapsed into a single Done activity.
#[derive(Clone, Copy, Debug)]
struct Folded {
    /// The exit activity's muscle (labels the folded activity).
    muscle: MuscleId,
    /// First start over the subtree.
    start: TimeNs,
    /// End of the subtree's exits, which is also its last end.
    end: TimeNs,
}

/// Folding state of a controller analysis at time `now`.
struct Fold<'c> {
    now: TimeNs,
    cache: &'c mut FoldCache,
}

/// Estimates of one AST's muscles, looked up once per build.
#[derive(Clone, Copy)]
struct Resolved {
    dur: TimeNs,
    card: Option<f64>,
}

/// A run of activity indices on the builder's scratch stack: the
/// predecessor set handed to a subtree, or the exit set it returns.
#[derive(Clone, Copy, Debug)]
struct Ids {
    start: usize,
    end: usize,
}

impl Ids {
    fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// Builds ADGs from tracker state + estimator table + AST.
///
/// Predecessor and exit sets live on one scratch stack of indices, so the
/// only allocations are the activities' own `preds` — and none at all
/// when the builder recycles a previous graph's storage.
pub struct AdgBuilder<'a> {
    /// The live execution records; `None` for purely predictive graphs.
    tracker: Option<&'a SmTracker>,
    est: &'a EstimatorTable,
    fold: Option<Fold<'a>>,
    resolved: HashMap<MuscleId, Resolved, IdHash>,
    /// `adg.activities[..len]` is the graph built so far; slots past
    /// `len` are recycled storage.
    adg: Adg,
    len: usize,
    ids: Vec<usize>,
}

impl<'a> AdgBuilder<'a> {
    /// A builder over the tracker's live state and its estimator table.
    pub fn new(tracker: &'a SmTracker) -> Self {
        AdgBuilder {
            tracker: Some(tracker),
            ..Self::from_estimates(tracker.estimates())
        }
    }

    /// A builder over an estimator table alone, for predictive graphs
    /// ([`build_predictive`](Self::build_predictive)); with no execution
    /// records, [`build`](Self::build) returns an empty graph.
    pub fn from_estimates(est: &'a EstimatorTable) -> Self {
        AdgBuilder {
            tracker: None,
            est,
            fold: None,
            resolved: HashMap::default(),
            adg: Adg::default(),
            len: 0,
            ids: Vec::new(),
        }
    }

    /// Folds finished history out of the graph, for an analysis at `now`.
    ///
    /// A finished instance whose activities are all Done, ended at or
    /// before `now`, and whose exits end last becomes one Done activity
    /// spanning its first start to its exit end. Every strategy output the
    /// controller reads is unchanged: successors see the same ready time,
    /// the `finish` maximum is the same, Done activities never hold a
    /// worker, and spans ending by `now` do not count in
    /// [`Schedule::max_concurrency_from`](crate::strategy::Schedule::max_concurrency_from)`(now)`.
    /// Only the full-history views ([`Schedule::timeline`](crate::strategy::Schedule::timeline),
    /// Fig. 1) need the unfolded graph.
    pub fn fold_finished(mut self, now: TimeNs, cache: &'a mut FoldCache) -> Self {
        self.fold = Some(Fold { now, cache });
        self
    }

    /// Builds into `spare`'s storage, reusing its activities' allocations
    /// (the controller hands back its previous analysis' graph).
    pub(crate) fn recycle(mut self, spare: Adg) -> Self {
        self.adg = spare;
        self
    }

    /// Builds the ADG of the tracker's current root submission executing
    /// `ast`. Returns an empty graph when no submission is live.
    ///
    /// Estimates must cover every muscle of `ast`
    /// ([`EstimatorTable::covers`]); missing estimates fall back to zero
    /// duration / cardinality 1, which the controller's analysis gate
    /// prevents from ever being used for decisions.
    pub fn build(mut self, ast: &Arc<Node>) -> Adg {
        if let Some(root) = self.tracker.and_then(SmTracker::current_root) {
            if root.node == ast.id {
                self.resolve_estimates(ast);
                let none = self.empty();
                self.instance_exits(root, ast, none);
            }
        }
        self.finish()
    }

    /// Builds a purely predictive ADG (no execution started yet): the
    /// graph a cold analysis would use if estimates were initialized.
    pub fn build_predictive(mut self, ast: &Arc<Node>) -> Adg {
        self.resolve_estimates(ast);
        let none = self.empty();
        self.node_exits(ast, none, None);
        self.finish()
    }

    fn finish(mut self) -> Adg {
        self.adg.activities.truncate(self.len);
        self.adg
    }

    // ---- estimates ---------------------------------------------------

    fn resolve_estimates(&mut self, node: &Node) {
        for &role in node.own_roles() {
            let m = MuscleId::new(node.id, role);
            if !self.resolved.contains_key(&m) {
                let resolved = Resolved {
                    dur: self.est.duration(m).unwrap_or(TimeNs::ZERO),
                    card: self.est.cardinality(m),
                };
                self.resolved.insert(m, resolved);
            }
        }
        for child in node.children() {
            self.resolve_estimates(child);
        }
    }

    fn resolved(&self, m: MuscleId) -> Resolved {
        self.resolved.get(&m).copied().unwrap_or_else(|| Resolved {
            dur: self.est.duration(m).unwrap_or(TimeNs::ZERO),
            card: self.est.cardinality(m),
        })
    }

    fn dur(&self, node: &Node, role: MuscleRole) -> TimeNs {
        self.resolved(MuscleId::new(node.id, role)).dur
    }

    /// `|m|`, as [`EstimatorTable::cardinality`].
    fn raw_card(&self, node: &Node, role: MuscleRole) -> Option<f64> {
        self.resolved(MuscleId::new(node.id, role)).card
    }

    /// `|m|` rounded, as [`EstimatorTable::cardinality_rounded`], falling
    /// back to `min.max(1)`.
    fn card(&self, node: &Node, role: MuscleRole, min: usize) -> usize {
        self.raw_card(node, role)
            .map(|v| (v.round().max(0.0) as usize).max(min))
            .unwrap_or(min.max(1))
    }

    /// Estimated depth of a `d&C` recursion (≥ 1).
    fn dc_depth(&self, node: &Node) -> usize {
        self.card(node, MuscleRole::Condition, 1)
    }

    fn record(&self, id: InstanceId) -> Option<&'a InstanceRecord> {
        self.tracker.and_then(|t| t.instance(id))
    }

    // ---- index sets ------------------------------------------------------

    /// An empty set.
    fn empty(&self) -> Ids {
        let at = self.ids.len();
        Ids { start: at, end: at }
    }

    /// The set `{idx}`.
    fn one(&mut self, idx: usize) -> Ids {
        let start = self.ids.len();
        self.ids.push(idx);
        Ids {
            start,
            end: start + 1,
        }
    }

    /// Appends the set `more` to `gathered`, whose end may sit under
    /// scratch a finished subtree left on the stack; the scratch above
    /// `gathered` is dropped. `more` lies below `gathered` (a set handed
    /// down) or above it (one the subtree returned).
    fn gather(&mut self, gathered: &mut Ids, more: Ids) {
        let end = gathered.end + (more.end - more.start);
        if self.ids.len() < end {
            self.ids.resize(end, 0);
        }
        self.ids.copy_within(more.start..more.end, gathered.end);
        self.ids.truncate(end);
        gathered.end = end;
    }

    // ---- activity helpers ---------------------------------------------

    fn push(&mut self, muscle: MuscleId, state: ActState, est: TimeNs, preds: Ids) -> Ids {
        let idx = self.len;
        let preds = &self.ids[preds.start..preds.end];
        debug_assert!(
            preds.iter().all(|&p| p < idx),
            "ADG builder broke the topological invariant"
        );
        match self.adg.activities.get_mut(idx) {
            Some(a) => {
                a.muscle = muscle;
                a.state = state;
                a.est = est;
                a.preds.clear();
                a.preds.extend_from_slice(preds);
            }
            None => self.adg.activities.push(Activity {
                muscle,
                state,
                est,
                preds: preds.to_vec(),
            }),
        }
        self.len += 1;
        self.one(idx)
    }

    fn push_span(&mut self, node: &Node, role: MuscleRole, span: Option<Span>, preds: Ids) -> Ids {
        let (state, est) = match span {
            Some(Span {
                started,
                finished: Some(end),
            }) => (
                ActState::Done {
                    start: started,
                    end,
                },
                end.saturating_sub(started),
            ),
            Some(Span { started, .. }) => {
                (ActState::Running { start: started }, self.dur(node, role))
            }
            None => (ActState::Pending, self.dur(node, role)),
        };
        self.push(MuscleId::new(node.id, role), state, est, preds)
    }

    fn push_pending(&mut self, node: &Node, role: MuscleRole, preds: Ids) -> Ids {
        self.push_span(node, role, None, preds)
    }

    // ---- actual (record-driven) expansion ------------------------------

    /// Appends the activities of a live instance; returns the exit set.
    /// Under [`fold_finished`](Self::fold_finished), a finished instance
    /// that folds is appended as its one folded activity.
    fn instance_exits(&mut self, rec: &'a InstanceRecord, node: &Arc<Node>, preds: Ids) -> Ids {
        let Some(fold) = self.fold.as_ref().filter(|_| rec.is_finished()) else {
            return self.expand_instance(rec, node, preds);
        };
        let now = fold.now;
        let folded = match fold.cache.folds.get(&rec.id) {
            Some(folded) => *folded,
            None => {
                let first = self.len;
                let exits = self.expand_instance(rec, node, preds);
                let folded = self.fold_range(first, exits);
                if let Some(fold) = self.fold.as_mut() {
                    fold.cache.folds.insert(rec.id, folded);
                }
                match folded {
                    Some(f) if f.end <= now => self.len = first,
                    _ => return exits,
                }
                folded
            }
        };
        match folded {
            Some(f) if f.end <= now => {
                let state = ActState::Done {
                    start: f.start,
                    end: f.end,
                };
                self.push(f.muscle, state, f.end.saturating_sub(f.start), preds)
            }
            _ => self.expand_instance(rec, node, preds),
        }
    }

    /// The fold of the activities appended since `first` with exit set
    /// `exits`, if they fold: all Done, exits among them, and the exits'
    /// end is the range's last end.
    fn fold_range(&self, first: usize, exits: Ids) -> Option<Folded> {
        let range = &self.adg.activities[first..self.len];
        let exits = &self.ids[exits.start..exits.end];
        if range.is_empty() || exits.iter().any(|&e| e < first) {
            return None;
        }
        let mut start = TimeNs::MAX;
        let mut last_end = TimeNs::ZERO;
        for a in range {
            let ActState::Done { start: s, end } = a.state else {
                return None;
            };
            start = start.min(s);
            last_end = last_end.max(end);
        }
        let (end, muscle) = exits
            .iter()
            .filter_map(|&e| match self.adg.activities[e] {
                Activity {
                    state: ActState::Done { end, .. },
                    muscle,
                    ..
                } => Some((end, muscle)),
                _ => None,
            })
            .max_by_key(|&(end, _)| end)?;
        (end == last_end).then_some(Folded { muscle, start, end })
    }

    /// Appends every activity of a live instance; returns the exit set.
    fn expand_instance(&mut self, rec: &'a InstanceRecord, node: &Arc<Node>, preds: Ids) -> Ids {
        debug_assert_eq!(rec.node, node.id, "record/AST mismatch");
        match (&node.kind, rec.kind) {
            (NodeKind::Seq { .. }, KindTag::Seq) => {
                let span = Span {
                    started: rec.started,
                    finished: rec.finished,
                };
                self.push_span(node, MuscleRole::Execute, Some(span), preds)
            }
            (NodeKind::Farm { inner }, KindTag::Farm) => {
                self.chain_children(rec, std::slice::from_ref(inner), preds, 1)
            }
            (NodeKind::Pipe { stages }, KindTag::Pipe) => {
                self.chain_children(rec, stages, preds, stages.len())
            }
            (NodeKind::For { n, inner }, KindTag::For) => {
                self.chain_children(rec, std::slice::from_ref(inner), preds, *n)
            }
            (NodeKind::While { inner, .. }, KindTag::While) => {
                self.while_exits(rec, node, inner, preds)
            }
            (
                NodeKind::If {
                    then_branch,
                    else_branch,
                    ..
                },
                KindTag::If,
            ) => self.if_exits(rec, node, then_branch, else_branch, preds),
            (NodeKind::Map { inner, .. }, KindTag::Map) => {
                self.fan_exits(rec, node, FanChildren::Uniform(inner), preds)
            }
            (NodeKind::Fork { inners, .. }, KindTag::Fork) => {
                self.fan_exits(rec, node, FanChildren::PerBranch(inners), preds)
            }
            (NodeKind::DivideConquer { .. }, KindTag::DivideConquer) => {
                self.dac_exits(rec, node, preds)
            }
            _ => {
                debug_assert!(false, "record kind does not match AST node kind");
                preds
            }
        }
    }

    /// The exits of child `child` (an instance id, if one started) running
    /// `ast`: its recorded activities, or a prediction when it has none.
    fn child_exits(&mut self, child: Option<&InstanceId>, ast: &Arc<Node>, preds: Ids) -> Ids {
        match child.and_then(|c| self.record(*c)) {
            Some(rec) => self.instance_exits(rec, ast, preds),
            None => self.node_exits(ast, preds, None),
        }
    }

    /// farm/pipe/for: children run sequentially; no own muscles.
    fn chain_children(
        &mut self,
        rec: &'a InstanceRecord,
        stages: &[Arc<Node>],
        preds: Ids,
        total: usize,
    ) -> Ids {
        let mut preds = preds;
        for k in 0..total {
            // Pipe stages differ per k; farm/for repeat one inner.
            let stage = if stages.len() == total {
                &stages[k]
            } else {
                &stages[0]
            };
            preds = self.child_exits(rec.children.get(k), stage, preds);
        }
        preds
    }

    fn while_exits(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        inner: &Arc<Node>,
        preds: Ids,
    ) -> Ids {
        let mut preds = preds;
        // Actual history: cond_0, body_0, cond_1, body_1, …
        let mut bodies = 0usize;
        for (k, cond) in rec.conds.iter().enumerate() {
            preds = self.push_span(node, MuscleRole::Condition, Some(cond.span), preds);
            match cond.verdict {
                Some(true) => {
                    // The k-th body follows this cond.
                    preds = self.child_exits(rec.children.get(k), inner, preds);
                    bodies += 1;
                }
                Some(false) => return preds, // loop exited
                None => return preds,        // cond still running: unknown rest
            }
        }
        if rec.is_finished() {
            return preds;
        }
        // Predict the remaining iterations.
        let est_trues = self
            .raw_card(node, MuscleRole::Condition)
            .map(|v| v.round().max(0.0) as usize)
            .unwrap_or(0);
        let remaining = est_trues.saturating_sub(bodies);
        for _ in 0..remaining {
            let cond = self.push_pending(node, MuscleRole::Condition, preds);
            preds = self.node_exits(inner, cond, None);
        }
        // The final (false) evaluation.
        self.push_pending(node, MuscleRole::Condition, preds)
    }

    fn if_exits(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        then_branch: &Arc<Node>,
        else_branch: &Arc<Node>,
        preds: Ids,
    ) -> Ids {
        let cond = rec.conds.first();
        let preds = self.push_span(node, MuscleRole::Condition, cond.map(|c| c.span), preds);
        match cond.and_then(|c| c.verdict) {
            Some(verdict) => {
                let branch = if verdict { then_branch } else { else_branch };
                self.child_exits(rec.children.first(), branch, preds)
            }
            None => {
                // Verdict unknown: predict the more expensive branch.
                let branch = self.pick_heavier_branch(then_branch, else_branch);
                self.node_exits(branch, preds, None)
            }
        }
    }

    fn fan_exits(
        &mut self,
        rec: &'a InstanceRecord,
        node: &Arc<Node>,
        children: FanChildren<'_>,
        preds: Ids,
    ) -> Ids {
        let split = self.push_span(node, MuscleRole::Split, rec.split, preds);
        let expected = match rec.split_card {
            Some(card) => card,
            None => match children {
                FanChildren::Uniform(_) => self.card(node, MuscleRole::Split, 1),
                FanChildren::PerBranch(inners) => inners.len(),
            },
        };
        // Children may *arrive* in any order (the LIFO runtime starts the
        // last-pushed child first), so records are matched to branch ASTs
        // by node identity, consuming each record once.
        let mut used = vec![false; rec.children.len()];
        let mut child_exits = self.empty();
        for k in 0..expected {
            let child_ast = match children {
                FanChildren::Uniform(inner) => inner,
                FanChildren::PerBranch(inners) => &inners[k.min(inners.len() - 1)],
            };
            let record = rec
                .children
                .iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .filter_map(|(i, cid)| self.record(*cid).map(|r| (i, r)))
                .find(|(_, r)| r.node == child_ast.id);
            let exits = match record {
                Some((i, child)) => {
                    used[i] = true;
                    self.instance_exits(child, child_ast, split)
                }
                None => self.node_exits(child_ast, split, None),
            };
            self.gather(&mut child_exits, exits);
        }
        if child_exits.is_empty() {
            self.gather(&mut child_exits, split);
        }
        self.push_span(node, MuscleRole::Merge, rec.merge, child_exits)
    }

    fn dac_exits(&mut self, rec: &'a InstanceRecord, node: &Arc<Node>, preds: Ids) -> Ids {
        let NodeKind::DivideConquer { inner, .. } = &node.kind else {
            unreachable!("dac_exits on a non-d&C node")
        };
        let cond = rec.conds.first();
        let preds = self.push_span(node, MuscleRole::Condition, cond.map(|c| c.span), preds);
        let est_depth = self.dc_depth(node);
        match cond.and_then(|c| c.verdict) {
            Some(true) => {
                let split = self.push_span(node, MuscleRole::Split, rec.split, preds);
                let expected = rec
                    .split_card
                    .unwrap_or_else(|| self.card(node, MuscleRole::Split, 1));
                let mut child_exits = self.empty();
                for k in 0..expected {
                    let exits = match rec.children.get(k).and_then(|c| self.record(*c)) {
                        Some(child) => self.instance_exits(child, node, split),
                        None => {
                            // A child sits one level deeper: it divides
                            // only while est_depth still exceeds its own
                            // depth (rec.dc_depth + 1).
                            let depth_left = est_depth.saturating_sub(rec.dc_depth + 1);
                            self.node_exits(node, split, Some(depth_left))
                        }
                    };
                    self.gather(&mut child_exits, exits);
                }
                if child_exits.is_empty() {
                    self.gather(&mut child_exits, split);
                }
                self.push_span(node, MuscleRole::Merge, rec.merge, child_exits)
            }
            Some(false) => self.child_exits(rec.children.first(), inner, preds),
            None => {
                // Verdict unknown: predict by remaining estimated depth.
                let depth_left = est_depth.saturating_sub(rec.dc_depth);
                if depth_left >= 1 {
                    self.dac_divide(node, preds, depth_left - 1)
                } else {
                    self.node_exits(inner, preds, None)
                }
            }
        }
    }

    // ---- predictive (AST-driven) expansion ------------------------------

    /// Appends the predicted activities of an unexecuted subtree.
    /// `dc_depth_left` carries the remaining recursion budget when the
    /// subtree is a `d&C` child of itself: a cond, then — budget
    /// permitting — split, `|fs|` recursive subtrees, merge; otherwise the
    /// base skeleton.
    fn node_exits(&mut self, node: &Arc<Node>, preds: Ids, dc_depth_left: Option<usize>) -> Ids {
        match &node.kind {
            NodeKind::Seq { .. } => self.push_pending(node, MuscleRole::Execute, preds),
            NodeKind::Farm { inner } => self.node_exits(inner, preds, None),
            NodeKind::Pipe { stages } => {
                let mut preds = preds;
                for s in stages {
                    preds = self.node_exits(s, preds, None);
                }
                preds
            }
            NodeKind::For { n, inner } => {
                let mut preds = preds;
                for _ in 0..*n {
                    preds = self.node_exits(inner, preds, None);
                }
                preds
            }
            NodeKind::While { inner, .. } => {
                let iters = self
                    .raw_card(node, MuscleRole::Condition)
                    .map(|v| v.round().max(0.0) as usize)
                    .unwrap_or(0);
                let mut preds = preds;
                for _ in 0..iters {
                    let cond = self.push_pending(node, MuscleRole::Condition, preds);
                    preds = self.node_exits(inner, cond, None);
                }
                self.push_pending(node, MuscleRole::Condition, preds)
            }
            NodeKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.push_pending(node, MuscleRole::Condition, preds);
                let branch = self.pick_heavier_branch(then_branch, else_branch);
                self.node_exits(branch, cond, None)
            }
            NodeKind::Map { inner, .. } => {
                let split = self.push_pending(node, MuscleRole::Split, preds);
                let fan = self.card(node, MuscleRole::Split, 1);
                let mut child_exits = self.empty();
                for _ in 0..fan {
                    let exits = self.node_exits(inner, split, None);
                    self.gather(&mut child_exits, exits);
                }
                self.push_pending(node, MuscleRole::Merge, child_exits)
            }
            NodeKind::Fork { inners, .. } => {
                let split = self.push_pending(node, MuscleRole::Split, preds);
                let mut child_exits = self.empty();
                for inner in inners {
                    let exits = self.node_exits(inner, split, None);
                    self.gather(&mut child_exits, exits);
                }
                self.push_pending(node, MuscleRole::Merge, child_exits)
            }
            NodeKind::DivideConquer { inner, .. } => {
                let depth_left = dc_depth_left.unwrap_or_else(|| self.dc_depth(node) - 1);
                let cond = self.push_pending(node, MuscleRole::Condition, preds);
                if depth_left >= 1 {
                    self.dac_divide(node, cond, depth_left - 1)
                } else {
                    self.node_exits(inner, cond, None)
                }
            }
        }
    }

    /// A predicted `d&C` division: split, `|fs|` recursive subtrees with
    /// `depth_left` levels below them, merge.
    fn dac_divide(&mut self, node: &Arc<Node>, preds: Ids, depth_left: usize) -> Ids {
        let split = self.push_pending(node, MuscleRole::Split, preds);
        let fan = self.card(node, MuscleRole::Split, 1);
        let mut child_exits = self.empty();
        for _ in 0..fan {
            let exits = self.node_exits(node, split, Some(depth_left));
            self.gather(&mut child_exits, exits);
        }
        self.push_pending(node, MuscleRole::Merge, child_exits)
    }

    /// Rough sequential-work comparison used to pick the `if` branch to
    /// predict while the verdict is unknown (conservative choice).
    fn pick_heavier_branch<'b>(
        &self,
        then_branch: &'b Arc<Node>,
        else_branch: &'b Arc<Node>,
    ) -> &'b Arc<Node> {
        if self.seq_work(then_branch, 0) >= self.seq_work(else_branch, 0) {
            then_branch
        } else {
            else_branch
        }
    }

    /// Total estimated sequential work of a subtree (sum of all predicted
    /// activity durations).
    fn seq_work(&self, node: &Arc<Node>, depth_guard: usize) -> f64 {
        if depth_guard > 64 {
            return 0.0; // runaway recursion guard for degenerate estimates
        }
        let d = |role: MuscleRole| self.dur(node, role).0 as f64;
        match &node.kind {
            NodeKind::Seq { .. } => d(MuscleRole::Execute),
            NodeKind::Farm { inner } => self.seq_work(inner, depth_guard + 1),
            NodeKind::Pipe { stages } => stages
                .iter()
                .map(|s| self.seq_work(s, depth_guard + 1))
                .sum(),
            NodeKind::For { n, inner } => *n as f64 * self.seq_work(inner, depth_guard + 1),
            NodeKind::While { inner, .. } => {
                let iters = self
                    .raw_card(node, MuscleRole::Condition)
                    .unwrap_or(0.0)
                    .max(0.0);
                (iters + 1.0) * d(MuscleRole::Condition)
                    + iters * self.seq_work(inner, depth_guard + 1)
            }
            NodeKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                d(MuscleRole::Condition)
                    + self
                        .seq_work(then_branch, depth_guard + 1)
                        .max(self.seq_work(else_branch, depth_guard + 1))
            }
            NodeKind::Map { inner, .. } => {
                let fan = self.card(node, MuscleRole::Split, 1) as f64;
                d(MuscleRole::Split)
                    + fan * self.seq_work(inner, depth_guard + 1)
                    + d(MuscleRole::Merge)
            }
            NodeKind::Fork { inners, .. } => {
                d(MuscleRole::Split)
                    + inners
                        .iter()
                        .map(|i| self.seq_work(i, depth_guard + 1))
                        .sum::<f64>()
                    + d(MuscleRole::Merge)
            }
            NodeKind::DivideConquer { inner, .. } => {
                let depth = self.dc_depth(node) as f64;
                let fan = self.card(node, MuscleRole::Split, 1) as f64;
                // Geometric expansion of the estimated recursion tree.
                let leaves = fan.powf((depth - 1.0).max(0.0));
                let internal = if fan > 1.0 {
                    (leaves - 1.0) / (fan - 1.0)
                } else {
                    (depth - 1.0).max(0.0)
                };
                internal * (d(MuscleRole::Condition) + d(MuscleRole::Split) + d(MuscleRole::Merge))
                    + leaves * (d(MuscleRole::Condition) + self.seq_work(inner, depth_guard + 1))
            }
        }
    }
}

enum FanChildren<'b> {
    Uniform(&'b Arc<Node>),
    PerBranch(&'b [Arc<Node>]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{map, seq, Skel};

    fn nested_map() -> Skel<Vec<i64>, i64> {
        let inner = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        );
        map(
            |v: Vec<i64>| vec![v.clone(), v],
            inner,
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        )
    }

    fn init_estimates(t: &mut SmTracker, skel: &Skel<Vec<i64>, i64>, card: f64) {
        let node = skel.node().clone();
        let est = t.estimates_mut();
        for m in node.collect_muscles() {
            let d = match m.id.role {
                MuscleRole::Split => TimeNs(10),
                MuscleRole::Execute => TimeNs(15),
                MuscleRole::Merge => TimeNs(5),
                MuscleRole::Condition => TimeNs(1),
            };
            est.init_duration(m.id, d);
            if m.id.role == MuscleRole::Split {
                est.init_cardinality(m.id, card);
            }
        }
    }

    #[test]
    fn predictive_nested_map_has_paper_shape() {
        // map(fs, map(fs, seq(fe), fm), fm) with |fs| = 3:
        // 1 split + 3×(split + 3×fe + merge) + 1 merge = 17 activities.
        let skel = nested_map();
        let mut tracker = SmTracker::new(0.5);
        init_estimates(&mut tracker, &skel, 3.0);
        let adg = AdgBuilder::new(&tracker).build_predictive(skel.node());
        assert_eq!(adg.len(), 1 + 3 * (1 + 3 + 1) + 1);
        let (done, running, pending) = adg.state_counts();
        assert_eq!((done, running), (0, 0));
        assert_eq!(pending, adg.len());
        // Topological invariant.
        for (i, a) in adg.activities.iter().enumerate() {
            assert!(a.preds.iter().all(|&p| p < i));
        }
        // Final merge depends on the three inner merges.
        let last = adg.activities.last().unwrap();
        assert_eq!(last.muscle.role, MuscleRole::Merge);
        assert_eq!(last.preds.len(), 3);
    }

    #[test]
    fn empty_without_live_submission() {
        let skel = nested_map();
        let tracker = SmTracker::new(0.5);
        let adg = AdgBuilder::new(&tracker).build(skel.node());
        assert!(adg.is_empty());
    }

    /// Events of a nested map whose first inner map finished at 35 while
    /// the outer one still runs: `(inner map, outer map)` nodes.
    fn half_done_nested_map(t: &mut SmTracker, skel: &Skel<Vec<i64>, i64>) {
        use askel_events::{Event, EventInfo, Trace, When, Where};
        use askel_skeletons::InstanceId;
        let outer = skel.node();
        let inner = outer.children()[0];
        let leaf = inner.children()[0];
        let root = Trace::root(outer.id, InstanceId(100), KindTag::Map);
        let mid = root.child(inner.id, InstanceId(101), KindTag::Map);
        let mut feed = |trace: &Trace, when, wher, at, info| {
            let e = trace.leaf().expect("non-empty trace");
            t.observe(&Event {
                node: e.node,
                kind: e.kind,
                when,
                wher,
                index: e.instance,
                trace: trace.clone(),
                timestamp: TimeNs(at),
                info,
            });
        };
        let none = EventInfo::None;
        feed(&root, When::Before, Where::Skeleton, 0, none);
        feed(&root, When::Before, Where::Split, 0, none);
        feed(
            &root,
            When::After,
            Where::Split,
            10,
            EventInfo::SplitCardinality(2),
        );
        feed(&mid, When::Before, Where::Skeleton, 10, none);
        feed(&mid, When::Before, Where::Split, 10, none);
        feed(
            &mid,
            When::After,
            Where::Split,
            12,
            EventInfo::SplitCardinality(2),
        );
        for (i, end) in [(102, 20), (103, 30)] {
            let fe = mid.child(leaf.id, InstanceId(i), KindTag::Seq);
            feed(&fe, When::Before, Where::Skeleton, 12, none);
            feed(&fe, When::After, Where::Skeleton, end, none);
        }
        feed(&mid, When::Before, Where::Merge, 30, none);
        feed(&mid, When::After, Where::Merge, 35, none);
        feed(&mid, When::After, Where::Skeleton, 35, none);
    }

    #[test]
    fn finished_instances_fold_only_once_their_end_is_past() {
        use crate::strategy::{best_effort, limited_lp};
        let skel = nested_map();
        let mut tracker = SmTracker::new(0.5);
        init_estimates(&mut tracker, &skel, 2.0);
        half_done_nested_map(&mut tracker, &skel);
        let full = AdgBuilder::new(&tracker).build(skel.node());
        let mut folds = FoldCache::new();
        // Events can reach the controller out of timestamp order: at 34
        // the inner map's merge (ended 35) still lies ahead — no fold.
        for (now, folded_len) in [(34, full.len()), (35, full.len() - 3)] {
            let now = TimeNs(now);
            let folded = AdgBuilder::new(&tracker)
                .fold_finished(now, &mut folds)
                .build(skel.node());
            assert_eq!(folded.len(), folded_len);
            for lp in 0..4 {
                assert_eq!(
                    limited_lp(&full, now, lp).finish,
                    limited_lp(&folded, now, lp).finish
                );
            }
            let (a, b) = (best_effort(&full, now), best_effort(&folded, now));
            assert_eq!(a.finish, b.finish);
            assert_eq!(a.max_concurrency_from(now), b.max_concurrency_from(now));
        }
        // The inner map and its two leaves each hold one verdict.
        assert_eq!(folds.folds.len(), 3);
        let inner_map = AdgBuilder::new(&tracker)
            .fold_finished(TimeNs(35), &mut folds)
            .build(skel.node())
            .activities[1]
            .clone();
        assert_eq!(
            inner_map.state,
            ActState::Done {
                start: TimeNs(10),
                end: TimeNs(35)
            }
        );
    }

    #[test]
    fn cardinality_fallback_is_one() {
        // No estimates at all → every split predicts one child.
        let skel = nested_map();
        let tracker = SmTracker::new(0.5);
        let adg = AdgBuilder::new(&tracker).build_predictive(skel.node());
        // 1 split + 1×(1 split + 1 fe + 1 merge) + 1 merge = 5
        assert_eq!(adg.len(), 5);
    }
}
