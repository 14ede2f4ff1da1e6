//! Resilient multi-engine serving: a health-checked pool of ephemeral
//! vector engines with deadlines, retries, and circuit breaking.
//!
//! The paper builds one ephemeral engine per core; a chip that *serves*
//! with them needs a layer that keeps answering when engines brown out,
//! silently corrupt, or die. This crate is that layer, as a
//! deterministic discrete-event model grounded in the rest of the
//! workspace:
//!
//! - [`ServiceProfile`] prices requests with the real `eve-sim` timing
//!   model (per-workload EVE and O3+DV cycle counts, plus the measured
//!   shared-LLC/DRAM contention curve from [`eve_sim::contention_profile`]).
//! - [`CircuitBreaker`] is the closed → open → half-open machine that
//!   stands between the scheduler and each engine; [`health`] converts
//!   PR 4's `ShadowChecker` escalation-ladder snapshots
//!   ([`eve_sim::EngineHealth`]) into breaker signals.
//! - [`Backoff`] spaces retries with capped exponential delays and
//!   deterministic per-request jitter.
//! - [`queue`] sheds load at the door when the queue is full or the
//!   deadline-feasibility bound says admission would be wasted work.
//! - [`FaultStorm`] scripts engine-health timelines (brownouts, silent
//!   windows, kills) deterministically from a seed.
//! - [`ServeSim`] ties it together on a simulated clock and produces a
//!   [`ServeReport`]; [`audit_serve`] replays a traced run against the
//!   report and enforces the serving conservation identities.
//!
//! At fleet scale, [`ClusterSim`] grows the single pool into a sharded
//! cluster: a seeded consistent-hash [`Router`] places requests across
//! N shards, [`TenantQueues`] drain fair-share multi-tenant traffic by
//! weighted deficit round-robin, [`BatchPolicy`] coalesces same-kernel
//! requests into amortized dispatches, idle shards work-steal from
//! unroutable peers, and the [`Ladder`] degrades service gracefully
//! (full → batch-only → shed low-weight tenants → fallback-only)
//! instead of collapsing. The [`ElasticController`] makes the
//! engine/L2-way split itself elastic: it spawns engines under vector
//! pressure (paying the measured way-partition flush cost), retires
//! them through a safe drain when traffic recedes, and guards the
//! partition with dwell hysteresis, a thrash window, and rollback.
//! [`audit_cluster`] extends the replay identity to routing, stealing,
//! shedding, and reconfiguration decisions. Arrivals
//! come from a seeded [`TrafficShape`] — the uniform baseline, a
//! diurnal load curve, count-based bursts, or a periodic hot-key
//! storm — all pure functions of the traffic seed.
//!
//! The [`net`] module makes the router↔shard wire itself unreliable:
//! with [`NetPolicy`] enabled, every request, response, cancel, and
//! heartbeat is a message on a seeded lossy [`Link`] (delay, loss,
//! duplication, reordering), and the cluster rebuilds exactly-once
//! *effects* from at-least-once *delivery* — sender-side timeouts and
//! retransmits, a per-shard idempotency [`DedupTable`] that answers
//! redelivered requests from cache, windowed-p99 hedged requests with
//! first-response-wins cancellation, and a heartbeat failure
//! [`Detector`] whose suspicion feeds routing and the [`Ladder`]. A
//! partition becomes nothing but 100% loss on a link, and
//! [`audit_cluster`] replays two new identities: per-link message
//! conservation and zero double-applied executions.
//!
//! # Examples
//!
//! ```
//! use eve_serve::{FaultStorm, ServeConfig, ServeSim, ServiceProfile, TrafficConfig};
//!
//! let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 4);
//! let storm = FaultStorm::kill_one(1, 50_000);
//! let report = ServeSim::new(
//!     ServeConfig::default(),
//!     profile,
//!     TrafficConfig::default(),
//!     storm,
//! )
//! .unwrap()
//! .run();
//! // One dead engine out of four: the breaker isolates it and the
//! // pool keeps serving.
//! assert!(report.availability >= 0.99);
//! assert_eq!(report.sdc, 0);
//! ```

pub mod audit;
pub mod backoff;
pub mod batch;
pub mod breaker;
pub mod cluster;
pub mod cluster_report;
pub mod degrade;
pub mod elastic;
pub mod health;
pub mod net;
pub mod profile;
pub mod queue;
pub mod report;
pub mod router;
pub mod shape;
pub mod sim;
pub mod storm;
pub mod tenancy;

pub use audit::{
    audit_cluster, audit_serve, ClusterAuditSummary, ServeAuditFailure, ServeAuditSummary,
};
pub use backoff::{Backoff, BackoffPolicy};
pub use batch::BatchPolicy;
pub use breaker::{BreakerPolicy, BreakerState, BreakerStats, CircuitBreaker};
pub use cluster::{ClusterConfig, ClusterSim, ClusterTraffic, StealPolicy};
pub use cluster_report::{ClusterReport, ShardReport, TenantReport};
pub use degrade::{Ladder, LadderEvent, LadderPolicy, ServiceLevel};
pub use elastic::{
    ElasticAction, ElasticController, ElasticEvent, ElasticEventKind, ElasticPolicy, ShardSignal,
};
pub use health::{apply_signal, engine_health, signals, spawn_target_ok, HealthSignal};
pub use net::{
    ClassStats, DedupTable, Deliveries, Detector, DetectorEvent, Fate, Link, MsgClass, NetCounters,
    NetPolicy, RttWindow,
};
pub use profile::ServiceProfile;
pub use queue::{admit, estimated_wait, AdmissionPolicy, AdmissionView, ShedReason};
pub use report::{EngineReport, ServeReport};
pub use router::RouteError;
pub use router::Router;
pub use shape::{arrivals, Arrival, TrafficShape};
pub use sim::{ServeConfig, ServeError, ServeSim, TrafficConfig};
pub use storm::{FaultStorm, StormEvent, StormEventKind};
pub use tenancy::{tenant_mix, TenantQueues, TenantSpec};
