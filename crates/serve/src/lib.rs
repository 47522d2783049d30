//! Multi-tenant serving: many adaptive sessions over one shared engine.
//!
//! Everything below `askel-serve` is single-session: one
//! [`AdaptiveSession`](askel_adapt::AdaptiveSession) owns one
//! [`TriggerEngine`](askel_adapt::TriggerEngine) and implicitly the whole
//! worker pool. This crate scales the paper's MAPE loop to *many* managed
//! skeletons at once — the direction Aldinucci, Danelutto & Kilpatrick
//! take with hierarchies of autonomic managers over many behavioural
//! skeleton instances:
//!
//! * **[`ServeRegistry`]** shards per-tenant sessions over one shared
//!   [`Engine`](askel_engine::Engine)/pool, with per-tenant admission
//!   quotas ([`AdmissionPolicy`]) and a starvation-free round-robin
//!   drain ([`ServeRegistry::drain_cycle`]).
//! * **Batched ingestion** ([`ServeRegistry::feed_batch`]) rides the
//!   engine's batched submission path end to end: one pool transaction
//!   per bound-sized chunk instead of one per item, amortizing the
//!   per-submission dispatch floor across a whole ingress call.
//! * **[`ShardedServe`]** splits the tenant population over `N`
//!   independent registry shards (pure hash of [`TenantId`] — nothing
//!   to rebalance), all over the **one** shared engine, one metrics
//!   hub, one monitor, and one cross-shard estimator pool. It runs no
//!   thread of its own: each call serves its tenant under the owning
//!   shard's lock (harvest, backlog dispatch, route and estimator
//!   refresh), and [`ShardedServe::quiesce`] drains on the caller's
//!   thread. A rule that panics at a safe point unwinds into the call
//!   that ran it.
//! * **A multiplexed autonomic loop**: one registered listener
//!   ([`ServeMonitor`]) routes events to the owning tenants' trigger
//!   engines, and [`SharedEstimators`] pools estimator history across
//!   tenants by **skeleton structure**
//!   ([`Skel::structure_key`](askel_skeletons::Skel::structure_key)):
//!   tenant N's observations warm tenant N+1's forecast gates when —
//!   and only when — they run structurally identical programs.
//!   Safe-point arbitration stays strictly per tenant.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod estimators;
mod metrics;
mod mux;
mod registry;
mod shard;

pub use admission::{Admission, AdmissionPolicy, BatchAdmission, RejectReason};
pub use estimators::SharedEstimators;
pub use mux::ServeMonitor;
pub use registry::{ServeRegistry, TenantId, TenantStats};
pub use shard::ShardedServe;
