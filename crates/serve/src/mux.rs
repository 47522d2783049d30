//! The multiplexed monitor: one registered listener for all tenants.
//!
//! Registering every tenant's [`TriggerEngine`] as its own listener on
//! the shared engine would make event delivery O(tenants) — every
//! listener sees every tenant's events and discards the foreign ones.
//! [`ServeMonitor`] inverts that: it is the **single** listener the
//! registry installs, and it routes each event to the trigger engines of
//! the tenants whose tree contains the event's node (an O(1) map
//! lookup).
//!
//! Routing is by `NodeId`, so tenants running *the same* `Skel` clone
//! (shared identity) both receive events for their shared nodes — the
//! Skandium semantics: shared skeleton objects share estimator history.
//! Tenants with distinct trees never overlap. The registry keeps routes
//! current across safe-point rewrites (a rewrite changes the tree's node
//! set) via its drain cycle.
//!
//! Under a [`ShardedServe`](crate::ShardedServe) the monitor stays the
//! single registered listener for **all** shards: each route carries the
//! owning shard's index, and delivery walks only this table's own
//! `RwLock` — a worker thread emitting an event never touches any
//! shard's registry lock, so the event path cannot serialize ingress or
//! drain on another shard. The shard tag is bookkeeping for
//! diagnostics ([`shard_routes`](ServeMonitor::shard_routes)) and route
//! audits; delivery itself stays a flat `NodeId` lookup.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use askel_adapt::TriggerEngine;
use askel_events::{Event, Listener, Payload};
use askel_skeletons::{Node, NodeId};

/// One node's route: the owning tenant, its shard, and its trigger.
struct Route {
    tenant: u64,
    shard: u32,
    trigger: Arc<TriggerEngine>,
}

/// The single serve-layer listener; see the module docs. Created and
/// managed by [`ServeRegistry`](crate::ServeRegistry) /
/// [`ShardedServe`](crate::ShardedServe).
#[derive(Default)]
pub struct ServeMonitor {
    routes: RwLock<HashMap<NodeId, Vec<Route>>>,
}

impl ServeMonitor {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ServeMonitor::default())
    }

    /// Routes every node of `root`'s tree to `tenant`'s trigger engine
    /// (tagged with the owning `shard`), returning the routed ids (the
    /// registry keeps them for unrouting after a rewrite or a detach).
    pub(crate) fn route(
        &self,
        tenant: u64,
        shard: u32,
        trigger: &Arc<TriggerEngine>,
        root: &Arc<Node>,
    ) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = root.collect_nodes().iter().map(|n| n.id).collect();
        let mut routes = self.routes.write();
        for &id in &nodes {
            let owners = routes.entry(id).or_default();
            if !owners.iter().any(|r| r.tenant == tenant) {
                owners.push(Route {
                    tenant,
                    shard,
                    trigger: Arc::clone(trigger),
                });
            }
        }
        nodes
    }

    /// Removes `tenant`'s routes for `ids`.
    pub(crate) fn unroute(&self, tenant: u64, ids: &[NodeId]) {
        let mut routes = self.routes.write();
        for id in ids {
            if let Some(owners) = routes.get_mut(id) {
                owners.retain(|r| r.tenant != tenant);
                if owners.is_empty() {
                    routes.remove(id);
                }
            }
        }
    }

    /// How many node ids currently have at least one route (tests,
    /// diagnostics).
    pub fn routed_nodes(&self) -> usize {
        self.routes.read().len()
    }

    /// How many `(node, tenant)` routes belong to `shard` (tests,
    /// diagnostics — e.g. auditing that a detached shard left nothing
    /// behind).
    pub fn shard_routes(&self, shard: u32) -> usize {
        self.routes
            .read()
            .values()
            .map(|owners| owners.iter().filter(|r| r.shard == shard).count())
            .sum()
    }
}

impl Listener for ServeMonitor {
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        // Collect the owners under the read lock, deliver outside it: a
        // trigger callback must never run while the route table is
        // locked (a rewrite on another thread may be re-routing), and
        // delivery must never wait on a shard's registry lock.
        let owners: Vec<Arc<TriggerEngine>> = {
            let routes = self.routes.read();
            match routes.get(&event.node) {
                Some(owners) => owners.iter().map(|r| Arc::clone(&r.trigger)).collect(),
                None => return,
            }
        };
        for trigger in owners {
            trigger.on_event(payload, event);
        }
    }
}
