//! The sharded cluster simulation.
//!
//! [`ClusterSim`] composes everything the serving layer has grown so
//! far into one deterministic event loop: N shards (each a pool of
//! engines with per-engine circuit breakers) behind a seeded
//! consistent-hash [`Router`](crate::Router), per-tenant queues
//! drained by weighted deficit round-robin
//! ([`TenantQueues`](crate::TenantQueues)), and request batching that
//! coalesces compatible same-kernel requests into one engine dispatch
//! ([`BatchPolicy`](crate::BatchPolicy)).
//!
//! The robustness headline is the failure path:
//!
//! * when a shard becomes unroutable (scripted partition, or every
//!   breaker open), arrivals re-route along the hash ring and idle
//!   shards **work-steal** its queued requests, re-pricing each stolen
//!   request against the thief's own backlog and failing over the ones
//!   that can no longer meet their deadline;
//! * a cluster-level **graceful-degradation ladder**
//!   ([`Ladder`](crate::Ladder)) watches windowed failure rate,
//!   backlog, and shard availability, and sheds *features → tenants →
//!   the accelerator itself* instead of collapsing, with every
//!   transition recorded, traced, and audited.
//!
//! Everything runs on a simulated cycle clock — no wall time, no
//! global RNG — so identically-configured runs produce byte-identical
//! [`ClusterReport`]s at any campaign thread count.

use crate::backoff::{Backoff, BackoffPolicy};
use crate::batch::BatchPolicy;
use crate::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use crate::cluster_report::{
    ClusterReport, LinkClassReport, LinkReport, ShardReport, TenantReport,
};
use crate::degrade::{Ladder, LadderPolicy, ServiceLevel};
use crate::elastic::{
    ElasticAction, ElasticController, ElasticEvent, ElasticEventKind, ElasticPolicy, ShardSignal,
};
use crate::health::spawn_target_ok;
use crate::net::{
    DedupTable, Deliveries, Detector, DetectorEvent, Link, MsgClass, NetCounters, NetPolicy,
    RttWindow,
};
use crate::profile::ServiceProfile;
use crate::queue::{admit, estimated_wait, AdmissionPolicy, AdmissionView, ShedReason};
use crate::report::EngineReport;
use crate::router::Router;
use crate::shape::TrafficShape;
use crate::sim::ServeError;
use crate::storm::{FaultStorm, StormEvent, StormEventKind};
use crate::tenancy::{TenantQueues, TenantSpec};
use eve_obs::Tracer;
use std::collections::BinaryHeap;

/// Work-stealing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Whether idle shards steal from unroutable peers at all.
    pub enabled: bool,
    /// Most requests moved per steal pass.
    pub max_per_pass: usize,
}

impl Default for StealPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            max_per_pass: 8,
        }
    }
}

/// Cluster topology and policy knobs for one run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Shard count.
    pub shards: usize,
    /// Engines per shard.
    pub engines_per_shard: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Per-engine breaker tuning.
    pub breaker: BreakerPolicy,
    /// Retry-delay schedule.
    pub backoff: BackoffPolicy,
    /// Per-shard admission control.
    pub admission: AdmissionPolicy,
    /// Batch coalescing.
    pub batch: BatchPolicy,
    /// Degradation-ladder thresholds.
    pub ladder: LadderPolicy,
    /// Work stealing.
    pub steal: StealPolicy,
    /// Elastic engine/L2-way reconfiguration (disabled keeps the
    /// historical static partition).
    pub elastic: ElasticPolicy,
    /// The lossy router↔shard transport (disabled keeps the historical
    /// instantaneous-reliable dispatch, byte for byte).
    pub net: NetPolicy,
    /// Engine dispatch attempts per request before failover.
    pub max_attempts: u32,
    /// Cycles from dispatch onto faulty silicon to the detected
    /// failure.
    pub detect_latency: u64,
    /// Whether results are checked (silent windows become detected
    /// failures instead of SDCs).
    pub checked: bool,
    /// Seed for the hash ring and per-request jitter streams.
    pub seed: u64,
}

impl ClusterConfig {
    /// Physical engine slots per shard: the base pool plus however
    /// many extra slots the elastic ceiling can spawn into. Storm
    /// addressing and report shapes are in slot space, so a run's
    /// geometry is fixed whether or not the controller ever acts.
    #[must_use]
    pub fn slots_per_shard(&self) -> usize {
        if self.elastic.enabled {
            self.engines_per_shard.max(self.elastic.max_engines)
        } else {
            self.engines_per_shard
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            engines_per_shard: 4,
            vnodes: 16,
            breaker: BreakerPolicy::default(),
            backoff: BackoffPolicy::default(),
            admission: AdmissionPolicy::default(),
            batch: BatchPolicy::default(),
            ladder: LadderPolicy::default(),
            steal: StealPolicy::default(),
            elastic: ElasticPolicy::default(),
            net: NetPolicy::default(),
            max_attempts: 3,
            detect_latency: 500,
            checked: true,
            seed: 0xC1_0537,
        }
    }
}

/// The multi-tenant open-loop arrival process.
#[derive(Debug, Clone)]
pub struct ClusterTraffic {
    /// Requests to generate.
    pub requests: usize,
    /// Mean inter-arrival gap in cycles.
    pub mean_gap: u64,
    /// The arrival-process family (diurnal curve, bursts, key storm);
    /// [`TrafficShape::Uniform`] is the historical baseline.
    pub shape: TrafficShape,
    /// Deadline slack over the slower of the two solo service paths.
    pub deadline_slack: f64,
    /// Routing-key space: keys are uniform on `[0, keys)` outside
    /// hot-key-skew windows.
    pub keys: u64,
    /// The tenant mix; traffic splits by `share`, scheduling by
    /// `weight`.
    pub tenants: Vec<TenantSpec>,
    /// Seed for arrivals, tenants, workloads, and keys.
    pub seed: u64,
}

impl Default for ClusterTraffic {
    fn default() -> Self {
        Self {
            requests: 400,
            mean_gap: 1_000,
            shape: TrafficShape::Uniform,
            deadline_slack: 6.0,
            keys: 1024,
            tenants: crate::tenancy::tenant_mix(3),
            seed: 0x7E4A47,
        }
    }
}

/// Heap events, processed in `(at, seq)` order.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Storm event `idx` fires.
    Storm(usize),
    /// Request `idx` arrives.
    Arrival(usize),
    /// Request `idx` re-enters a queue after backoff.
    Retry(usize),
    /// Batch `idx`'s dispatch resolves.
    BatchDone(usize),
    /// Request `req` completes on the fallback path.
    FallbackDone(usize),
    /// Engine `(shard, slot)`'s spawn warmup flush finishes.
    SpawnReady(usize, usize),
    /// A copy of request `req` reaches shard `shard` over its link.
    DeliverReq(usize, usize),
    /// A response copy for request `req` from `shard` reaches the
    /// router; `ok` (success vs nack) and the corruption bit ride the
    /// wire.
    DeliverResp(usize, usize, bool, bool),
    /// A first-response-wins cancellation for `req` reaches `shard`.
    DeliverCancel(usize, usize),
    /// Request `req`'s retransmit timer fires; live only while the
    /// transmission sequence still matches.
    NetTimeout(usize, u32),
    /// Request `req`'s hedge timer fires.
    HedgeFire(usize, u32),
    /// Shard `shard`'s failure detector is due: a suspicion onset, a
    /// recovery, or a point where its heartbeat scan resumes.
    Detect(usize),
}

struct Entry {
    at: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One request's lifecycle state.
struct Request {
    arrival: u64,
    deadline: u64,
    workload: usize,
    tenant: usize,
    key: u64,
    /// The shard whose queue currently holds (or last held) it.
    shard: usize,
    attempts: u32,
    backoff: Backoff,
    admitted: bool,
    completed_at: Option<u64>,
    corrupted: bool,
}

/// Where one engine slot is in the elastic lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineMode {
    /// Holding donated L2 ways and serving.
    Active,
    /// Ways donated, warmup flush in flight; online at `ready_at`
    /// unless the slot goes unhealthy first (spawn rollback).
    Spawning { ready_at: u64 },
    /// Quiescing: no new admissions, the in-flight batch since
    /// `since` decides commit (ways returned) vs rollback.
    Draining { since: u64 },
    /// A plain scalar core: its L2 runs full-width for the cache.
    Parked,
}

/// One engine's simulated state (mirrors the single-pool model).
struct Engine {
    breaker: CircuitBreaker,
    mode: EngineMode,
    busy: bool,
    dead: bool,
    brown_until: u64,
    silent_until: u64,
    fault_epoch: u64,
    silent_epoch: u64,
    dispatches: u64,
    completions: u64,
    failures: u64,
}

impl Engine {
    fn faulty_at(&self, now: u64) -> bool {
        self.dead || now < self.brown_until
    }

    fn silent_at(&self, now: u64) -> bool {
        now < self.silent_until
    }

    fn is_active(&self) -> bool {
        self.mode == EngineMode::Active
    }
}

/// One shard: a pool of engines plus its tenant queues.
struct Shard {
    engines: Vec<Engine>,
    queues: TenantQueues,
    partition_until: u64,
    routed: u64,
    rerouted_in: u64,
    steals_in: u64,
    steals_out: u64,
    batches: u64,
    batched_requests: u64,
    completions: u64,
    failures: u64,
    spawns: u64,
    retires: u64,
    spawn_rollbacks: u64,
    retire_rollbacks: u64,
}

impl Shard {
    fn active_engines(&self) -> usize {
        self.engines.iter().filter(|e| e.is_active()).count()
    }
}

/// One in-flight coalesced dispatch.
struct BatchRec {
    shard: usize,
    engine: usize,
    members: Vec<usize>,
    fault_epoch: u64,
    silent_epoch: u64,
}

/// Per-request transport bookkeeping (net mode only).
#[derive(Debug, Clone, Copy, Default)]
struct NetReqState {
    /// The router accepted a response or failed the request over;
    /// everything that arrives afterwards is stale.
    resolved: bool,
    /// Resolved by accepting a response (vs failing over).
    accepted: bool,
    /// Effective executions: fresh idempotency-table records across
    /// all shards. `execs - accepted` is this request's wasted work.
    execs: u32,
    /// Bit per shard: a copy is queued or executing there. Set on
    /// delivery, cleared when the batch resolves (or a steal/cancel
    /// pulls the copy), so a shard never runs the same request twice.
    queued_mask: u64,
    /// Every shard this request was ever transmitted to.
    sent_mask: u64,
    /// Transmission sequence; timers and hedges carry the sequence
    /// they were armed under and go stale when it moves on.
    xmit_seq: u32,
    retransmits_left: u32,
    /// When the live transmission left the router (RTT sampling).
    sent_at: u64,
    /// The first shard this request was sent to.
    primary: usize,
    hedged: bool,
    /// Valid only when `hedged`.
    hedge_shard: usize,
}

/// The transport layer's run state (`None` = historical
/// instantaneous-reliable dispatch).
struct NetState {
    /// The policy with `rto` resolved (0 ⇒ derived from the profile).
    policy: NetPolicy,
    /// One seeded lossy link per shard, its loss windows taken from
    /// the storm up front.
    links: Vec<Link>,
    /// Per-shard idempotency tables: request id → cached corruption
    /// bit.
    dedup: Vec<DedupTable>,
    /// Windowed heartbeat failure detector over all links, with the
    /// heartbeats in closed form.
    detector: Detector,
    /// Sliding RTT window feeding the hedge delay (windowed p99).
    rtt: RttWindow,
    reqs: Vec<NetReqState>,
    /// Admitted requests not yet resolved.
    open: u64,
    /// Arrivals not yet handled. Heartbeats (and the detector) stop
    /// once this and `open` are both zero: the run needs them no more.
    arrivals_left: usize,
    counters: NetCounters,
}

/// Static per-shard trace categories (shards beyond eight are
/// simulated but not instant-traced — the tracer requires static
/// names).
const SHARD_CATS: [&str; 8] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];

/// The cluster simulation: build, optionally attach a tracer, then
/// [`ClusterSim::run`].
pub struct ClusterSim {
    cfg: ClusterConfig,
    profile: ServiceProfile,
    tracer: Option<Tracer>,
    router: Router,
    ladder: Ladder,
    elastic: ElasticController,

    heap: BinaryHeap<Entry>,
    seq: u64,
    requests: Vec<Request>,
    net: Option<NetState>,
    shards: Vec<Shard>,
    storm: Vec<StormEvent>,
    batches: Vec<BatchRec>,
    fallback_free_at: u64,
    now: u64,

    tenant_names: Vec<String>,
    tenant_weights: Vec<u32>,
    min_weight: u32,
    tenant_arrivals: Vec<u64>,
    tenant_admitted: Vec<u64>,
    tenant_shed: Vec<u64>,

    // Cluster tallies.
    admitted: u64,
    shed_capacity: u64,
    shed_infeasible: u64,
    shed_tenant: u64,
    direct_fallback: u64,
    dispatches: u64,
    batched_requests: u64,
    batch_failures: u64,
    request_failures: u64,
    retries: u64,
    failovers: u64,
    steals: u64,
    steal_failovers: u64,
    rerouted: u64,
    completed_eve: u64,
    completed_fallback: u64,
    sdc: u64,
}

impl ClusterSim {
    /// Builds a cluster run: generates the multi-tenant arrival
    /// schedule (hot-key-skew windows folded in), seeds every
    /// per-request backoff stream, and validates the storm against the
    /// topology — all up front, so the run is a pure function of its
    /// arguments.
    ///
    /// # Errors
    ///
    /// Rejects an empty topology, profile, traffic, or tenant mix as
    /// [`ServeError::Config`]; storms addressing silicon the cluster
    /// does not have are [`ServeError::Storm`].
    pub fn new(
        cfg: ClusterConfig,
        profile: ServiceProfile,
        traffic: ClusterTraffic,
        storm: FaultStorm,
    ) -> Result<Self, ServeError> {
        if cfg.shards == 0 || cfg.engines_per_shard == 0 {
            return Err(ServeError::Config(
                "cluster needs at least one shard with one engine".into(),
            ));
        }
        if cfg.vnodes == 0 {
            return Err(ServeError::Config("ring needs at least one vnode".into()));
        }
        if cfg.max_attempts == 0 {
            return Err(ServeError::Config("max_attempts must be at least 1".into()));
        }
        if profile.is_empty() {
            return Err(ServeError::Config(
                "service profile has no workloads".into(),
            ));
        }
        if traffic.requests == 0 {
            return Err(ServeError::Config("traffic must carry requests".into()));
        }
        if traffic.tenants.is_empty() {
            return Err(ServeError::Config(
                "traffic needs at least one tenant".into(),
            ));
        }
        let total_share: f64 = traffic.tenants.iter().map(|t| t.share.max(0.0)).sum();
        if total_share <= 0.0 {
            return Err(ServeError::Config(
                "tenant shares must sum to something positive".into(),
            ));
        }
        if cfg.elastic.enabled {
            let e = cfg.elastic;
            if e.min_engines == 0 {
                return Err(ServeError::Config(
                    "elastic.min_engines must be at least 1".into(),
                ));
            }
            if e.min_engines > cfg.engines_per_shard || cfg.engines_per_shard > e.max_engines {
                return Err(ServeError::Config(format!(
                    "elastic bounds must bracket the base pool: {} <= {} <= {} fails",
                    e.min_engines, cfg.engines_per_shard, e.max_engines
                )));
            }
            if e.scale_down_backlog >= e.scale_up_backlog {
                return Err(ServeError::Config(
                    "elastic scale_down_backlog must sit below scale_up_backlog".into(),
                ));
            }
        }
        if cfg.net.enabled {
            if cfg.shards > 64 {
                return Err(ServeError::Config(
                    "the transport tracks per-shard request copies in a 64-bit mask; \
                     at most 64 shards with net enabled"
                        .into(),
                ));
            }
            cfg.net.validate().map_err(ServeError::Config)?;
        }
        // Storms address slot space so a scripted fault can target a
        // slot the controller has not spawned into yet.
        let total_engines = cfg.shards * cfg.slots_per_shard();
        for (i, e) in storm.events.iter().enumerate() {
            match e.kind {
                StormEventKind::Brownout { .. }
                | StormEventKind::Silent { .. }
                | StormEventKind::Kill
                | StormEventKind::Recover => {
                    if e.engine >= total_engines {
                        return Err(ServeError::Storm(format!(
                            "event {i} targets engine {} of a {total_engines}-engine cluster",
                            e.engine
                        )));
                    }
                }
                StormEventKind::ShardPartition { .. } => {
                    if e.engine >= cfg.shards {
                        return Err(ServeError::Storm(format!(
                            "event {i} partitions shard {} of {}",
                            e.engine, cfg.shards
                        )));
                    }
                }
                StormEventKind::LinkDegrade { .. } => {
                    if !cfg.net.enabled {
                        return Err(ServeError::Storm(format!(
                            "event {i} degrades a link, but the transport layer is disabled"
                        )));
                    }
                    if e.engine >= cfg.shards {
                        return Err(ServeError::Storm(format!(
                            "event {i} degrades the link of shard {} of {}",
                            e.engine, cfg.shards
                        )));
                    }
                }
                StormEventKind::HotKeySkew { .. } => {}
            }
        }
        let router = Router::try_new(cfg.seed, cfg.shards, cfg.vnodes)?;
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, e) in storm.events.iter().enumerate() {
            heap.push(Entry {
                at: e.at,
                seq,
                ev: Ev::Storm(i),
            });
            seq += 1;
        }
        // Hot-key windows shape key generation; scanning them up front
        // keeps the arrival schedule a pure function of (traffic,
        // storm).
        let hot_windows: Vec<(u64, u64, u64)> = storm
            .events
            .iter()
            .filter_map(|e| match e.kind {
                StormEventKind::HotKeySkew { key, duration } => {
                    Some((e.at, e.at + duration.max(1), key))
                }
                _ => None,
            })
            .collect();
        let schedule = crate::shape::arrivals(&traffic, profile.len(), &hot_windows);
        let mut requests = Vec::with_capacity(traffic.requests);
        for (i, a) in schedule.into_iter().enumerate() {
            let solo = profile
                .eve_service(a.workload, 1)
                .max(profile.fallback_service(a.workload));
            let slack = (solo as f64 * traffic.deadline_slack).round() as u64;
            requests.push(Request {
                arrival: a.at,
                deadline: a.at + slack.max(1),
                workload: a.workload,
                tenant: a.tenant,
                key: a.key,
                shard: router.route(a.key),
                attempts: 0,
                backoff: Backoff::new(cfg.backoff, cfg.seed.wrapping_add(1 + i as u64)),
                admitted: false,
                completed_at: None,
                corrupted: false,
            });
            heap.push(Entry {
                at: a.at,
                seq,
                ev: Ev::Arrival(i),
            });
            seq += 1;
        }
        let weights: Vec<u32> = traffic.tenants.iter().map(|t| t.weight).collect();
        let quantum = profile.mean_eve_cycles();
        let shards = (0..cfg.shards)
            .map(|_| Shard {
                engines: (0..cfg.slots_per_shard())
                    .map(|slot| Engine {
                        breaker: CircuitBreaker::new(cfg.breaker),
                        // Slots beyond the base pool start parked:
                        // scalar cores the controller can spawn into.
                        mode: if slot < cfg.engines_per_shard {
                            EngineMode::Active
                        } else {
                            EngineMode::Parked
                        },
                        busy: false,
                        dead: false,
                        brown_until: 0,
                        silent_until: 0,
                        fault_epoch: 0,
                        silent_epoch: 0,
                        dispatches: 0,
                        completions: 0,
                        failures: 0,
                    })
                    .collect(),
                queues: TenantQueues::new(&weights, quantum),
                partition_until: 0,
                routed: 0,
                rerouted_in: 0,
                steals_in: 0,
                steals_out: 0,
                batches: 0,
                batched_requests: 0,
                completions: 0,
                failures: 0,
                spawns: 0,
                retires: 0,
                spawn_rollbacks: 0,
                retire_rollbacks: 0,
            })
            .collect();
        let net = if cfg.net.enabled {
            let mut policy = cfg.net;
            if policy.rto == 0 {
                // Derive the retransmit timeout from the topology: a
                // round trip at worst-case link delay plus queueing
                // headroom in units of the mean service time.
                policy.rto = profile.rto_hint(policy.base_delay, policy.jitter);
            }
            policy.rto = policy.rto.max(1);
            // Link storms become loss windows now, so a message's fate
            // depends on its send cycle alone: a partition is 100% loss
            // on the link, a degrade its own loss, each for its span.
            let mut links: Vec<Link> = (0..cfg.shards).map(|s| Link::new(cfg.seed, s)).collect();
            for e in &storm.events {
                let (loss, duration) = match e.kind {
                    StormEventKind::ShardPartition { duration } => (1.0, duration),
                    StormEventKind::LinkDegrade { loss_pct, duration } => {
                        (f64::from(loss_pct.min(100)) / 100.0, duration)
                    }
                    _ => continue,
                };
                links[e.engine].degrade(e.at, e.at + duration.max(1), loss);
            }
            let detector = Detector::new(&mut links, &policy);
            for s in 0..cfg.shards {
                heap.push(Entry {
                    at: detector.next_at(s).expect("a new detector runs"),
                    seq,
                    ev: Ev::Detect(s),
                });
                seq += 1;
            }
            Some(NetState {
                links,
                dedup: vec![DedupTable::new(); cfg.shards],
                detector,
                rtt: RttWindow::new(64),
                reqs: vec![NetReqState::default(); requests.len()],
                open: 0,
                arrivals_left: requests.len(),
                counters: NetCounters::default(),
                policy,
            })
        } else {
            None
        };
        let tenant_count = traffic.tenants.len();
        Ok(Self {
            ladder: Ladder::new(cfg.ladder),
            elastic: ElasticController::new(cfg.elastic, cfg.shards),
            min_weight: weights.iter().copied().min().unwrap_or(1),
            tenant_names: traffic.tenants.iter().map(|t| t.name.clone()).collect(),
            tenant_weights: weights,
            tenant_arrivals: vec![0; tenant_count],
            tenant_admitted: vec![0; tenant_count],
            tenant_shed: vec![0; tenant_count],
            cfg,
            profile,
            tracer: None,
            router,
            heap,
            seq,
            requests,
            net,
            shards,
            storm: storm.events,
            batches: Vec::new(),
            fallback_free_at: 0,
            now: 0,
            admitted: 0,
            shed_capacity: 0,
            shed_infeasible: 0,
            shed_tenant: 0,
            direct_fallback: 0,
            dispatches: 0,
            batched_requests: 0,
            batch_failures: 0,
            request_failures: 0,
            retries: 0,
            failovers: 0,
            steals: 0,
            steal_failovers: 0,
            rerouted: 0,
            completed_eve: 0,
            completed_fallback: 0,
            sdc: 0,
        })
    }

    /// Attaches a tracer: the run emits `cluster`-track instants
    /// (routing, steals, ladder transitions) and mirrors its tallies
    /// into the counter registry for the auditor.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    fn push(&mut self, at: u64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, ev });
    }

    fn instant(&self, cat: &'static str, name: &'static str, at: u64) {
        if let Some(t) = &self.tracer {
            t.instant("cluster", cat, name, at);
        }
    }

    fn count(&self, name: &str, amount: u64) {
        if let Some(t) = &self.tracer {
            t.count(name, amount);
        }
    }

    /// Whether `shard` can accept a dispatch right now: reachable (not
    /// partitioned in the legacy model, not heartbeat-suspected in net
    /// mode), and at least one *active* engine's breaker is not open
    /// (spawning, draining, and parked slots are not admission
    /// channels).
    fn shard_available(&mut self, s: usize) -> bool {
        let now = self.now;
        let blocked = match &self.net {
            Some(net) => net.detector.suspected(s, now),
            None => now < self.shards[s].partition_until,
        };
        if blocked {
            return false;
        }
        self.shards[s]
            .engines
            .iter_mut()
            .any(|e| e.is_active() && e.breaker.state_at(now) != BreakerState::Open)
    }

    fn availability_mask(&mut self) -> Vec<bool> {
        (0..self.cfg.shards)
            .map(|s| self.shard_available(s))
            .collect()
    }

    /// Non-open *active* engine count in `shard` (its serving
    /// channels).
    fn shard_channels(&mut self, s: usize) -> usize {
        let now = self.now;
        self.shards[s]
            .engines
            .iter_mut()
            .filter(|e| e.is_active())
            .map(|e| e.breaker.state_at(now))
            .filter(|s| *s != BreakerState::Open)
            .count()
    }

    /// The admission estimator's snapshot of one shard, priced for
    /// `workload`: queued work priced per-request (WDRR order does not
    /// change the total), in-flight engines charged their residual.
    fn shard_view(&mut self, s: usize, workload: usize) -> AdmissionView {
        let channels = self.shard_channels(s).max(1);
        let requests = &self.requests;
        let profile = &self.profile;
        let shard = &self.shards[s];
        let queued_cost = shard
            .queues
            .iter()
            .map(|(_, r)| profile.eve_service(requests[r].workload, channels))
            .sum();
        AdmissionView {
            queued: shard.queues.len(),
            queued_cost,
            inflight: shard.engines.iter().filter(|e| e.busy).count(),
            channels,
            mean_service: profile.mean_eve_cycles(),
            service_estimate: profile.eve_service(workload, channels),
        }
    }

    /// Scalar-side cache-pressure multiplier on the O3+DV path: every
    /// active engine holds donated L2 ways on its core, so the more of
    /// the fleet is spawned, the slower scalar working sets run
    /// (saturating at the measured [`ServiceProfile::scalar_slowdown`]
    /// when every slot is an engine). Exactly 1.0 with the controller
    /// disabled, so static runs price the fallback as they always did.
    fn fallback_mult(&self) -> f64 {
        if !self.cfg.elastic.enabled {
            return 1.0;
        }
        let slots = (self.cfg.shards * self.cfg.slots_per_shard()).max(1);
        let active: usize = self.shards.iter().map(Shard::active_engines).sum();
        1.0 + (active as f64 / slots as f64) * (self.profile.scalar_slowdown - 1.0)
    }

    /// Fallback service time of `workload` under the current engine
    /// footprint's cache pressure.
    fn fallback_cost(&self, workload: usize) -> u64 {
        let base = self.profile.fallback_service(workload);
        ((base as f64) * self.fallback_mult()).round().max(1.0) as u64
    }

    /// The O3+DV path's view: one FIFO channel plus its current
    /// backlog, priced under the current scalar-interference level.
    fn fallback_view(&self, workload: usize) -> AdmissionView {
        let mult = self.fallback_mult();
        AdmissionView {
            queued: 0,
            queued_cost: self.fallback_free_at.saturating_sub(self.now),
            inflight: 0,
            channels: 1,
            mean_service: ((self.profile.mean_fallback_cycles() as f64) * mult)
                .round()
                .max(1.0) as u64,
            service_estimate: self.fallback_cost(workload),
        }
    }

    /// Runs the event loop to quiescence and produces the report.
    /// Retries are bounded, batches and the fallback always complete,
    /// and the post-drain sweep fails over anything still queued on
    /// unroutable shards, so the loop terminates.
    #[must_use]
    pub fn run(mut self) -> ClusterReport {
        loop {
            while let Some(Entry { at, ev, .. }) = self.heap.pop() {
                if matches!(ev, Ev::Detect(_))
                    && self.net.as_ref().is_some_and(|n| n.detector.stopped())
                {
                    // The heartbeats stopped with the run's work; a
                    // detector event past that point is not part of the
                    // run and must not stretch its end.
                    continue;
                }
                debug_assert!(at >= self.now, "time runs forward");
                self.now = at;
                self.handle(ev);
            }
            // Anything still queued sat on a shard nobody could steal
            // for (stealing disabled, or every shard unroutable): the
            // fallback is the terminal safety net.
            let mut leftover = Vec::new();
            for s in 0..self.cfg.shards {
                leftover.extend(
                    self.shards[s]
                        .queues
                        .drain_upto(usize::MAX)
                        .into_iter()
                        .map(|(_, r)| r),
                );
            }
            if leftover.is_empty() {
                break;
            }
            for r in leftover {
                self.failover(r);
            }
        }
        self.report()
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Storm(i) => self.on_storm(i),
            Ev::Arrival(r) => self.on_arrival(r),
            Ev::Retry(r) => self.on_retry(r),
            Ev::BatchDone(b) => self.on_batch_done(b),
            Ev::FallbackDone(r) => {
                self.requests[r].completed_at = Some(self.now);
                self.completed_fallback += 1;
                self.instant("serve", "complete_fallback", self.now);
            }
            Ev::SpawnReady(s, e) => self.on_spawn_ready(s, e),
            Ev::DeliverReq(r, s) => self.on_deliver_req(r, s),
            Ev::DeliverResp(r, s, ok, corrupt) => self.on_deliver_resp(r, s, ok, corrupt),
            Ev::DeliverCancel(r, s) => self.on_deliver_cancel(r, s),
            Ev::NetTimeout(r, seq) => self.on_net_timeout(r, seq),
            Ev::HedgeFire(r, seq) => self.on_hedge_fire(r, seq),
            Ev::Detect(s) => {
                if !self.on_detect(s) {
                    // A scan resume point changes no state.
                    return;
                }
            }
        }
        // Every state change re-evaluates pressure, lets the elastic
        // controller repartition, lets idle shards steal, and pumps
        // whatever became placeable.
        self.evaluate_ladder();
        self.evaluate_elastic();
        self.steal_pass();
        self.pump_all();
        self.stop_heartbeats_when_done();
    }

    fn on_storm(&mut self, i: usize) {
        let ev = self.storm[i];
        let now = self.now;
        match ev.kind {
            StormEventKind::ShardPartition { duration } => {
                let until = now + duration.max(1);
                // With the transport on, a partition is not a special
                // mechanism: it is 100% loss on the link, a window
                // the link has carried since the run was built. The
                // shard's engines stay healthy and keep draining their
                // queue — their responses just never get out, and the
                // heartbeat detector discovers the silence.
                if self.net.is_none() {
                    let shard = &mut self.shards[ev.engine];
                    shard.partition_until = shard.partition_until.max(until);
                    // The partition severs in-flight work too: epoch
                    // bumps turn every outstanding batch into a
                    // detected failure.
                    for e in &mut shard.engines {
                        e.fault_epoch += 1;
                    }
                }
                if ev.engine < SHARD_CATS.len() {
                    self.instant(SHARD_CATS[ev.engine], "partition", now);
                }
            }
            StormEventKind::LinkDegrade { .. } => {
                // Build-time validation guarantees the transport is on;
                // the loss window was added to the link then.
                if ev.engine < SHARD_CATS.len() {
                    self.instant(SHARD_CATS[ev.engine], "link_degrade", now);
                }
            }
            StormEventKind::HotKeySkew { .. } => {
                // Traffic shaping only; keys were folded in at build
                // time. The instant marks the window for trace readers.
                self.instant("storm", "hot_key", now);
            }
            kind => {
                let slots = self.cfg.slots_per_shard();
                let s = ev.engine / slots;
                let e = &mut self.shards[s].engines[ev.engine % slots];
                match kind {
                    StormEventKind::Brownout { duration } => {
                        e.brown_until = e.brown_until.max(now + duration.max(1));
                        e.fault_epoch += 1;
                    }
                    StormEventKind::Silent { duration } => {
                        e.silent_until = e.silent_until.max(now + duration.max(1));
                        e.silent_epoch += 1;
                    }
                    StormEventKind::Kill => {
                        if !e.dead {
                            e.dead = true;
                            e.fault_epoch += 1;
                        }
                    }
                    StormEventKind::Recover => {
                        e.dead = false;
                        e.brown_until = now;
                        e.silent_until = now;
                        e.fault_epoch += 1;
                    }
                    _ => unreachable!("cluster-scoped kinds handled above"),
                }
            }
        }
    }

    fn on_arrival(&mut self, r: usize) {
        let now = self.now;
        if let Some(net) = &mut self.net {
            net.arrivals_left -= 1;
        }
        let tenant = self.requests[r].tenant;
        self.tenant_arrivals[tenant] += 1;
        self.instant("serve", "arrive", now);
        // Rung 2: the lowest-weight tenant class is refused at the
        // door while the ladder holds there or below.
        if self.ladder.level() >= ServiceLevel::ShedLowWeight
            && self.tenant_weights[tenant] == self.min_weight
        {
            self.shed_tenant += 1;
            self.tenant_shed[tenant] += 1;
            self.instant("serve", "shed_tenant", now);
            return;
        }
        let (key, workload, deadline) = {
            let req = &self.requests[r];
            (req.key, req.workload, req.deadline)
        };
        let home = self.router.route(key);
        let dest = if self.ladder.level() == ServiceLevel::FallbackOnly {
            None
        } else {
            let avail = self.availability_mask();
            self.router.route_healthy(key, |s| avail[s])
        };
        match dest {
            Some(s) => {
                let view = self.shard_view(s, workload);
                match admit(&self.cfg.admission, now, deadline, &view) {
                    Ok(()) => {
                        self.admitted += 1;
                        self.tenant_admitted[tenant] += 1;
                        self.requests[r].admitted = true;
                        self.shards[home].routed += 1;
                        if s != home {
                            self.rerouted += 1;
                            self.shards[s].rerouted_in += 1;
                            self.instant("serve", "reroute", now);
                        }
                        self.requests[r].shard = s;
                        if self.net.is_some() {
                            self.net_open_request(r, s);
                        } else {
                            self.shards[s].queues.push(tenant, r);
                        }
                        self.instant("serve", "admit", now);
                    }
                    Err(reason) => self.shed(r, reason),
                }
            }
            None => {
                // No routable shard (or a fallback-only brownout):
                // price against the O3+DV path directly.
                let view = self.fallback_view(workload);
                match admit(&self.cfg.admission, now, deadline, &view) {
                    Ok(()) => {
                        self.admitted += 1;
                        self.tenant_admitted[tenant] += 1;
                        self.requests[r].admitted = true;
                        self.direct_fallback += 1;
                        if let Some(net) = &mut self.net {
                            // Opened and immediately resolved by the
                            // failover below; the open/resolve pairing
                            // keeps the conservation arithmetic exact.
                            net.open += 1;
                        }
                        self.failover(r);
                    }
                    Err(reason) => self.shed(r, reason),
                }
            }
        }
    }

    fn shed(&mut self, r: usize, reason: ShedReason) {
        let tenant = self.requests[r].tenant;
        self.tenant_shed[tenant] += 1;
        match reason {
            ShedReason::Capacity => {
                self.shed_capacity += 1;
                self.instant("serve", "shed_capacity", self.now);
            }
            ShedReason::Infeasible => {
                self.shed_infeasible += 1;
                self.instant("serve", "shed_infeasible", self.now);
            }
        }
    }

    fn on_retry(&mut self, r: usize) {
        if let Some(net) = &mut self.net {
            // A duplicate nack can race the retry against a failover;
            // a resolved request never re-enters the cluster.
            if net.reqs[r].resolved {
                net.counters.stale_drops += 1;
                return;
            }
        }
        self.instant("serve", "retry_due", self.now);
        let avail = self.availability_mask();
        let (cur, key, tenant) = {
            let req = &self.requests[r];
            (req.shard, req.key, req.tenant)
        };
        let dest = if avail[cur] {
            Some(cur)
        } else {
            self.router.route_healthy(key, |s| avail[s])
        };
        match dest {
            Some(s) => {
                self.requests[r].shard = s;
                if self.net.is_some() {
                    self.net_send_req(r, s);
                } else {
                    self.shards[s].queues.push(tenant, r);
                }
            }
            None => self.failover(r),
        }
    }

    fn pump_all(&mut self) {
        // The bottom ladder rung runs nothing on engines: queues drain
        // straight to the fallback until the ladder climbs back.
        if self.ladder.level() == ServiceLevel::FallbackOnly {
            for s in 0..self.cfg.shards {
                let drained: Vec<usize> = self.shards[s]
                    .queues
                    .drain_upto(usize::MAX)
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect();
                for r in drained {
                    self.failover(r);
                }
            }
            return;
        }
        for s in 0..self.cfg.shards {
            self.pump_shard(s);
        }
    }

    /// Drains one shard's queues onto its free engines: WDRR picks the
    /// next head, then same-tenant same-kernel riders coalesce into the
    /// batch (the ceiling doubles once the ladder leaves full service —
    /// trading tail latency for throughput is rung 1's whole point).
    fn pump_shard(&mut self, s: usize) {
        let now = self.now;
        if now < self.shards[s].partition_until {
            return;
        }
        loop {
            if self.shards[s].queues.is_empty() {
                return;
            }
            let mut pick = None;
            for (i, e) in self.shards[s].engines.iter_mut().enumerate() {
                if !e.is_active() || e.busy || !e.breaker.allows(now) {
                    continue;
                }
                match (e.breaker.state_at(now), pick) {
                    (BreakerState::Closed, _) => {
                        pick = Some(i);
                        break;
                    }
                    (BreakerState::HalfOpen, None) => pick = Some(i),
                    _ => {}
                }
            }
            let Some(eng) = pick else { return };
            let channels = self.shard_channels(s).max(1);
            let requests = &self.requests;
            let profile = &self.profile;
            let Some((tenant, head)) = self.shards[s]
                .queues
                .pop_next(|r| profile.eve_service(requests[r].workload, channels))
            else {
                return;
            };
            let workload = requests[head].workload;
            let max_batch = if self.ladder.level() >= ServiceLevel::BatchOnly {
                self.cfg.batch.max_batch * 2
            } else {
                self.cfg.batch.max_batch
            };
            let requests = &self.requests;
            let riders =
                self.shards[s]
                    .queues
                    .extract_matching(tenant, max_batch.saturating_sub(1), |r| {
                        requests[r].workload == workload
                    });
            let mut members = vec![head];
            members.extend(riders);
            self.dispatch_batch(s, eng, workload, members);
        }
    }

    fn dispatch_batch(&mut self, s: usize, eng: usize, workload: usize, members: Vec<usize>) {
        let now = self.now;
        let k = members.len();
        let busy_after = self.shards[s].engines.iter().filter(|e| e.busy).count() + 1;
        let service = if self.shards[s].engines[eng].faulty_at(now) {
            self.cfg.detect_latency.max(1)
        } else {
            let solo = self.profile.eve_service(workload, busy_after);
            self.cfg.batch.batch_cycles(solo, k)
        };
        self.dispatches += 1;
        self.batched_requests += k as u64;
        self.ladder.observe_dispatch(now);
        for &m in &members {
            self.requests[m].attempts += 1;
        }
        let shard = &mut self.shards[s];
        shard.batches += 1;
        shard.batched_requests += k as u64;
        let e = &mut shard.engines[eng];
        e.breaker.on_dispatch(now);
        e.busy = true;
        e.dispatches += 1;
        let (fault_epoch, silent_epoch) = (e.fault_epoch, e.silent_epoch);
        let b = self.batches.len();
        self.batches.push(BatchRec {
            shard: s,
            engine: eng,
            members,
            fault_epoch,
            silent_epoch,
        });
        if s < SHARD_CATS.len() {
            self.instant(SHARD_CATS[s], "batch", now);
        }
        self.push(now + service, Ev::BatchDone(b));
    }

    fn on_batch_done(&mut self, b: usize) {
        let now = self.now;
        let (s, eng) = (self.batches[b].shard, self.batches[b].engine);
        let members = std::mem::take(&mut self.batches[b].members);
        let e = &mut self.shards[s].engines[eng];
        e.busy = false;
        let fault_overlap = self.batches[b].fault_epoch != e.fault_epoch || e.faulty_at(now);
        let silent_overlap = self.batches[b].silent_epoch != e.silent_epoch || e.silent_at(now);
        let failed = fault_overlap || (silent_overlap && self.cfg.checked);
        if failed {
            e.failures += 1;
            e.breaker.on_failure(now);
            self.batch_failures += 1;
            self.shards[s].failures += 1;
            self.request_failures += members.len() as u64;
            self.ladder.observe_failure(now);
            if self.net.is_some() {
                // Nack every member over the link: the router owns the
                // retry decision. The queued bit clears so a
                // retransmitted copy can legitimately land here again.
                for &m in &members {
                    if let Some(net) = &mut self.net {
                        net.reqs[m].queued_mask &= !(1u64 << s);
                    }
                    self.net_send_resp(m, s, false, false);
                }
            } else {
                for &m in &members {
                    self.retry_or_failover(m);
                }
            }
        } else {
            e.breaker.on_success(now);
            e.completions += 1;
            self.shards[s].completions += members.len() as u64;
            let leak = silent_overlap && !self.cfg.checked;
            if self.net.is_some() {
                // Effective execution: the idempotency table records it
                // (result and corruption bit become the cached answer)
                // and the response rides the link. Acceptance — and the
                // completion/SDC ledger — happens at the router, once,
                // whichever copy wins.
                for &m in &members {
                    if let Some(net) = &mut self.net {
                        net.reqs[m].queued_mask &= !(1u64 << s);
                        if net.dedup[s].record(m as u64, leak) {
                            net.reqs[m].execs += 1;
                        } else {
                            // Structurally unreachable (the queued bit
                            // blocks same-shard re-entry); counted so
                            // the auditor can prove it stayed zero.
                            net.counters.double_applied += 1;
                        }
                    }
                    self.net_send_resp(m, s, true, leak);
                }
                self.instant("serve", "executed", now);
            } else {
                self.completed_eve += members.len() as u64;
                for &m in &members {
                    self.requests[m].completed_at = Some(now);
                    if leak {
                        self.sdc += 1;
                        self.requests[m].corrupted = true;
                        self.instant("serve", "sdc", now);
                    }
                }
                self.instant("serve", "complete", now);
            }
        }
        self.resolve_drain(s, eng, failed);
    }

    /// A draining engine's in-flight batch just resolved: the drain is
    /// over either way (that batch was the only work it still held, so
    /// nothing was dropped and nothing can double-run). Pressure that
    /// returned mid-drain aborts the retire — the engine snaps back to
    /// active with its ways intact. Otherwise the retire commits and
    /// the ways return to the cache; if the drain *failed* because the
    /// engine went unhealthy, its members have already failed over via
    /// the ring-walk above, so committing is the rollback-safe choice.
    fn resolve_drain(&mut self, s: usize, eng: usize, failed: bool) {
        let EngineMode::Draining { since } = self.shards[s].engines[eng].mode else {
            return;
        };
        let now = self.now;
        self.elastic.add_drain_cycles(now.saturating_sub(since));
        let capacity = self.cfg.admission.queue_capacity.max(1);
        let backlog = self.shards[s].queues.len() as f64 / capacity as f64;
        let pressure_back = !failed && backlog >= self.cfg.elastic.scale_up_backlog;
        if pressure_back {
            self.shards[s].engines[eng].mode = EngineMode::Active;
            self.shards[s].retire_rollbacks += 1;
            self.record_elastic(s, ElasticEventKind::RetireRollback);
        } else {
            self.shards[s].engines[eng].mode = EngineMode::Parked;
            self.shards[s].retires += 1;
            self.record_elastic(s, ElasticEventKind::RetireCommit);
        }
    }

    fn retry_or_failover(&mut self, r: usize) {
        let now = self.now;
        let (attempts, deadline, workload) = {
            let req = &self.requests[r];
            (req.attempts, req.deadline, req.workload)
        };
        // Rung 1 and below disable retries: a struggling cluster stops
        // feeding failed work back into itself.
        if self.ladder.level() == ServiceLevel::Full && attempts < self.cfg.max_attempts {
            let delay = self.requests[r].backoff.delay(attempts - 1).max(1);
            let avail = self.availability_mask();
            let cur = self.requests[r].shard;
            let dest = if avail[cur] {
                Some(cur)
            } else {
                self.router
                    .route_healthy(self.requests[r].key, |s| avail[s])
            };
            if let Some(s) = dest {
                let view = self.shard_view(s, workload);
                let eta = now
                    .saturating_add(delay)
                    .saturating_add(estimated_wait(&view))
                    .saturating_add(view.service_estimate);
                if eta <= deadline {
                    self.retries += 1;
                    self.requests[r].shard = s;
                    if let Some(net) = &mut self.net {
                        // Supersede the old transmission: its pending
                        // timeout and hedge no longer own this
                        // request (the Retry event does).
                        net.reqs[r].xmit_seq += 1;
                    }
                    self.instant("serve", "retry", now);
                    self.push(now + delay, Ev::Retry(r));
                    return;
                }
            }
        }
        self.failover(r);
    }

    fn failover(&mut self, r: usize) {
        let now = self.now;
        if let Some(net) = &mut self.net {
            let req = &mut net.reqs[r];
            if req.resolved {
                // A stale copy of a request that already resolved
                // (accepted elsewhere, or already failed over).
                net.counters.stale_drops += 1;
                return;
            }
            req.resolved = true;
            req.xmit_seq += 1;
            net.open -= 1;
        }
        self.failovers += 1;
        self.instant("serve", "failover", now);
        let start = self.fallback_free_at.max(now);
        let done = start + self.fallback_cost(self.requests[r].workload);
        self.fallback_free_at = done;
        self.push(done, Ev::FallbackDone(r));
    }

    /// One steal pass: the emptiest eligible thief (available, a free
    /// engine, no backlog of its own) takes up to `max_per_pass`
    /// requests from the most-backlogged unroutable victim, re-pricing
    /// each against its own queue — stolen work that can no longer make
    /// its deadline goes straight to the fallback instead of dying in a
    /// second queue.
    fn steal_pass(&mut self) {
        if !self.cfg.steal.enabled || self.ladder.level() == ServiceLevel::FallbackOnly {
            return;
        }
        let now = self.now;
        let avail = self.availability_mask();
        let mut victim: Option<(usize, usize)> = None; // (queued, shard)
        for (s, open) in avail.iter().enumerate() {
            let queued = self.shards[s].queues.len();
            if !open && queued > 0 && victim.is_none_or(|(q, _)| queued > q) {
                victim = Some((queued, s));
            }
        }
        let Some((_, v)) = victim else { return };
        let thief = (0..self.cfg.shards).find(|&s| {
            avail[s]
                && self.shards[s].queues.is_empty()
                && self.shards[s]
                    .engines
                    .iter_mut()
                    .any(|e| e.is_active() && !e.busy && e.breaker.allows(now))
        });
        let Some(t) = thief else { return };
        let stolen = self.shards[v]
            .queues
            .drain_upto(self.cfg.steal.max_per_pass);
        for (tenant, r) in stolen {
            self.steals += 1;
            self.shards[v].steals_out += 1;
            if let Some(net) = &mut self.net {
                // The copy left the victim's queue with the thief.
                net.reqs[r].queued_mask &= !(1u64 << v);
            }
            let (workload, deadline) = {
                let req = &self.requests[r];
                (req.workload, req.deadline)
            };
            let view = self.shard_view(t, workload);
            let eta = now
                .saturating_add(estimated_wait(&view))
                .saturating_add(view.service_estimate);
            if let Some(tr) = &self.tracer {
                tr.instant_arg("cluster", "steal", "steal", now, ("from", v as u64));
            }
            if eta <= deadline {
                self.shards[t].steals_in += 1;
                if self.net.is_some() {
                    // Through the landing logic, not a blind push: the
                    // thief may already hold this request's answer in
                    // its idempotency cache.
                    self.net_enqueue(r, t);
                } else {
                    self.requests[r].shard = t;
                    self.shards[t].queues.push(tenant, r);
                }
            } else {
                self.steal_failovers += 1;
                self.failover(r);
            }
        }
    }

    fn evaluate_ladder(&mut self) {
        let now = self.now;
        let capacity = (self.cfg.shards * self.cfg.admission.queue_capacity).max(1);
        let queued: usize = self.shards.iter().map(|s| s.queues.len()).sum();
        let avail = self.availability_mask();
        let down = avail.iter().filter(|a| !**a).count();
        let backlog = queued as f64 / capacity as f64;
        let unavailable = down as f64 / self.cfg.shards as f64;
        if let Some(ev) = self.ladder.evaluate(now, backlog, unavailable) {
            self.instant("ladder", ev.to.as_str(), now);
        }
    }

    /// Records one reconfiguration event: the controller keeps the
    /// ledger (tallies, dwell stamps, thrash window) and the trace gets
    /// a per-shard instant. Call *after* the mode mutation so
    /// `active_after` reflects the post-event partition.
    fn record_elastic(&mut self, s: usize, kind: ElasticEventKind) {
        let event = ElasticEvent {
            at: self.now,
            shard: s,
            kind,
            active_after: self.shards[s].active_engines(),
        };
        self.elastic.record(event);
        if s < SHARD_CATS.len() {
            self.instant(SHARD_CATS[s], kind.as_str(), self.now);
        }
    }

    /// One controller pass: each unpartitioned shard's windowed
    /// pressure is read and at most one reconfiguration per shard is
    /// started, subject to the controller's dwell hysteresis and the
    /// cluster-wide thrash budget. The bottom ladder rung suppresses
    /// the controller entirely — a cluster serving from the fallback
    /// should not be donating more L2 ways to engines.
    fn evaluate_elastic(&mut self) {
        if !self.cfg.elastic.enabled || self.ladder.level() == ServiceLevel::FallbackOnly {
            return;
        }
        let now = self.now;
        let capacity = self.cfg.admission.queue_capacity.max(1);
        for s in 0..self.cfg.shards {
            if now < self.shards[s].partition_until {
                continue;
            }
            let shard = &self.shards[s];
            let signal = ShardSignal {
                backlog: shard.queues.len() as f64 / capacity as f64,
                active: shard.active_engines(),
                spawning: shard
                    .engines
                    .iter()
                    .filter(|e| matches!(e.mode, EngineMode::Spawning { .. }))
                    .count(),
                draining: shard
                    .engines
                    .iter()
                    .filter(|e| matches!(e.mode, EngineMode::Draining { .. }))
                    .count(),
            };
            match self.elastic.decide(now, s, &signal) {
                Some(ElasticAction::Spawn) => self.start_spawn(s),
                Some(ElasticAction::Retire) => self.start_retire(s),
                None => {}
            }
        }
    }

    /// Begins a spawn on `s`: the first parked slot that is healthy
    /// enough ([`spawn_target_ok`]) donates its L2 ways and starts the
    /// measured warmup flush; the engine is only real at `ready_at`.
    /// No healthy slot → no action (and no thrash charge).
    fn start_spawn(&mut self, s: usize) {
        let now = self.now;
        let mut target = None;
        for i in 0..self.shards[s].engines.len() {
            let e = &mut self.shards[s].engines[i];
            if e.mode != EngineMode::Parked {
                continue;
            }
            let faulty = e.faulty_at(now);
            if spawn_target_ok(&mut e.breaker, faulty, now) {
                target = Some(i);
                break;
            }
        }
        let Some(i) = target else { return };
        let ready_at = now + self.profile.spawn_flush_cycles.max(1);
        self.shards[s].engines[i].mode = EngineMode::Spawning { ready_at };
        self.record_elastic(s, ElasticEventKind::SpawnStart);
        self.push(ready_at, Ev::SpawnReady(s, i));
    }

    /// Begins a retire on `s`, from the top slot down so the base pool
    /// is the last to go. An idle engine has nothing in flight: its
    /// ways return immediately (start and commit coincide). A busy
    /// engine quiesces instead — it stops admitting work and its
    /// in-flight batch decides the drain in [`ClusterSim::resolve_drain`].
    fn start_retire(&mut self, s: usize) {
        let now = self.now;
        let engines = &self.shards[s].engines;
        let pick = |busy: bool| {
            (0..engines.len())
                .rev()
                .find(|&i| engines[i].is_active() && engines[i].busy == busy)
        };
        if let Some(i) = pick(false) {
            self.shards[s].engines[i].mode = EngineMode::Parked;
            self.record_elastic(s, ElasticEventKind::RetireStart);
            self.shards[s].retires += 1;
            self.record_elastic(s, ElasticEventKind::RetireCommit);
        } else if let Some(i) = pick(true) {
            self.shards[s].engines[i].mode = EngineMode::Draining { since: now };
            self.record_elastic(s, ElasticEventKind::RetireStart);
        }
    }

    /// The warmup flush finished: if the slot is still healthy the
    /// engine comes online; if it went unhealthy mid-warmup the spawn
    /// rolls back — ways return to the cache, the slot re-parks, and
    /// traffic keeps failing over via the existing ring-walk.
    fn on_spawn_ready(&mut self, s: usize, i: usize) {
        let now = self.now;
        let ok = {
            let e = &mut self.shards[s].engines[i];
            let EngineMode::Spawning { ready_at } = e.mode else {
                return;
            };
            debug_assert_eq!(ready_at, now, "spawn readiness fires on schedule");
            let faulty = e.faulty_at(now);
            spawn_target_ok(&mut e.breaker, faulty, now)
        };
        if ok {
            self.shards[s].engines[i].mode = EngineMode::Active;
            self.shards[s].spawns += 1;
            self.record_elastic(s, ElasticEventKind::SpawnCommit);
        } else {
            self.shards[s].engines[i].mode = EngineMode::Parked;
            self.shards[s].spawn_rollbacks += 1;
            self.record_elastic(s, ElasticEventKind::SpawnRollback);
        }
    }

    // ---- The lossy transport (net mode only) ------------------------
    //
    // Every router↔shard exchange below is a message on a seeded lossy
    // link, scheduled through the same calendar as everything else.
    // Handlers are no-ops when the transport is disabled, so the
    // historical instantaneous-dispatch schedule is untouched byte for
    // byte.

    /// Transmits one message over `shard`'s link, returning the
    /// scheduled delivery cycles (empty = every copy was lost).
    fn net_transmit(&mut self, shard: usize, class: MsgClass) -> Deliveries {
        let now = self.now;
        let Some(net) = &mut self.net else {
            return Deliveries::default();
        };
        let policy = net.policy;
        net.links[shard].transmit(now, class, &policy)
    }

    /// Opens request `r` on the transport: first transmission toward
    /// `dest` with the full retransmit budget, plus a hedge timer once
    /// the RTT estimator is warm enough to quote a p99.
    fn net_open_request(&mut self, r: usize, dest: usize) {
        let now = self.now;
        let hedge = {
            let Some(net) = &mut self.net else { return };
            net.open += 1;
            let policy = net.policy;
            let req = &mut net.reqs[r];
            req.primary = dest;
            req.retransmits_left = policy.max_retransmits;
            if policy.hedge {
                net.rtt
                    .hedge_delay(policy.hedge_min_samples, policy.hedge_floor)
            } else {
                None
            }
        };
        self.net_send_req(r, dest);
        if let Some(d) = hedge {
            // Sequence 1 is the first transmission; a retransmit or
            // retry supersedes the hedge along with the timeout.
            self.push(now + d, Ev::HedgeFire(r, 1));
        }
    }

    /// Sends (or retransmits) request `r` to `dest`: bumps the
    /// transmission sequence — invalidating older timers and hedges —
    /// transmits the copies, and arms a fresh retransmit timeout.
    fn net_send_req(&mut self, r: usize, dest: usize) {
        let now = self.now;
        let (seq, rto) = {
            let Some(net) = &mut self.net else { return };
            let req = &mut net.reqs[r];
            req.xmit_seq += 1;
            req.sent_at = now;
            req.sent_mask |= 1u64 << dest;
            (req.xmit_seq, net.policy.rto)
        };
        for at in self.net_transmit(dest, MsgClass::Req) {
            self.push(at, Ev::DeliverReq(r, dest));
        }
        self.push(now + rto, Ev::NetTimeout(r, seq));
    }

    /// Shard `s` answers request `r` over its link: `ok` for a
    /// successful execution (fresh or cached), false for a nack.
    fn net_send_resp(&mut self, r: usize, s: usize, ok: bool, corrupt: bool) {
        for at in self.net_transmit(s, MsgClass::Resp) {
            self.push(at, Ev::DeliverResp(r, s, ok, corrupt));
        }
    }

    /// A request copy reached shard `s`'s side of the link.
    fn on_deliver_req(&mut self, r: usize, s: usize) {
        if let Some(net) = &mut self.net {
            net.links[s].on_delivered(MsgClass::Req);
        } else {
            return;
        }
        self.net_enqueue(r, s);
    }

    /// Lands request `r` at shard `s`: a request this shard already
    /// executed answers from the idempotency cache, a copy already
    /// queued or executing here is suppressed, anything else enters
    /// the tenant queue. This is the exactly-once half the shard owns —
    /// at-least-once delivery upstream, at-most-one effect here.
    fn net_enqueue(&mut self, r: usize, s: usize) {
        enum Landing {
            Queue,
            Cached(bool),
            Suppress,
        }
        let landing = {
            let Some(net) = &mut self.net else { return };
            if let Some(corrupt) = net.dedup[s].lookup(r as u64) {
                net.counters.dedup_hits += 1;
                Landing::Cached(corrupt)
            } else if net.reqs[r].queued_mask & (1u64 << s) != 0 {
                net.counters.dup_suppressed += 1;
                Landing::Suppress
            } else {
                net.reqs[r].queued_mask |= 1u64 << s;
                Landing::Queue
            }
        };
        match landing {
            Landing::Queue => {
                let tenant = self.requests[r].tenant;
                self.requests[r].shard = s;
                self.shards[s].queues.push(tenant, r);
            }
            Landing::Cached(corrupt) => self.net_send_resp(r, s, true, corrupt),
            Landing::Suppress => {}
        }
    }

    /// A response copy reached the router. The first successful
    /// response wins: it resolves the request, samples the RTT, and
    /// cancels every other outstanding copy. Later copies are late;
    /// nacks re-enter the backoff/retry path.
    fn on_deliver_resp(&mut self, r: usize, s: usize, ok: bool, corrupt: bool) {
        let now = self.now;
        enum Outcome {
            Accept { hedge_win: bool, cancels: u64 },
            Late,
            Nack,
        }
        let outcome = {
            let Some(net) = &mut self.net else { return };
            net.links[s].on_delivered(MsgClass::Resp);
            let req = &mut net.reqs[r];
            if req.resolved {
                net.counters.late_responses += 1;
                Outcome::Late
            } else if !ok {
                Outcome::Nack
            } else {
                req.resolved = true;
                req.accepted = true;
                let hedge_win = req.hedged && req.hedge_shard == s;
                let cancels = req.sent_mask & !(1u64 << s);
                let rtt = now.saturating_sub(req.sent_at).max(1);
                net.open -= 1;
                net.rtt.record(rtt);
                if hedge_win {
                    net.counters.hedge_wins += 1;
                }
                Outcome::Accept { hedge_win, cancels }
            }
        };
        match outcome {
            Outcome::Late => {}
            Outcome::Nack => self.retry_or_failover(r),
            Outcome::Accept { hedge_win, cancels } => {
                self.completed_eve += 1;
                self.requests[r].completed_at = Some(now);
                if corrupt {
                    self.sdc += 1;
                    self.requests[r].corrupted = true;
                    self.instant("serve", "sdc", now);
                }
                self.instant("serve", "complete", now);
                if hedge_win {
                    self.instant("serve", "hedge_win", now);
                }
                for t in 0..self.cfg.shards {
                    if cancels & (1u64 << t) != 0 {
                        for at in self.net_transmit(t, MsgClass::Cancel) {
                            self.push(at, Ev::DeliverCancel(r, t));
                        }
                    }
                }
            }
        }
    }

    /// A first-response-wins cancellation reached shard `s`: a copy
    /// still sitting in the queue is pulled out; anything already
    /// dispatched or finished is a miss (its answer simply arrives
    /// late and is dropped at the router).
    fn on_deliver_cancel(&mut self, r: usize, s: usize) {
        if let Some(net) = &mut self.net {
            net.links[s].on_delivered(MsgClass::Cancel);
        } else {
            return;
        }
        let tenant = self.requests[r].tenant;
        let removed = self.shards[s].queues.remove(tenant, r);
        let Some(net) = &mut self.net else { return };
        if removed {
            net.reqs[r].queued_mask &= !(1u64 << s);
            net.counters.hedge_cancelled += 1;
        } else {
            net.counters.cancel_missed += 1;
        }
    }

    /// A retransmit timer fired. Stale timers (resolved request, or a
    /// newer transmission owns it) drop silently; a live one
    /// retransmits along the healthy ring until the budget runs out,
    /// then fails over to O3+DV.
    fn on_net_timeout(&mut self, r: usize, seq: u32) {
        enum Action {
            Retransmit,
            Exhausted,
        }
        let action = {
            let Some(net) = &mut self.net else { return };
            let req = &mut net.reqs[r];
            if req.resolved || req.xmit_seq != seq {
                return;
            }
            net.counters.timeouts += 1;
            if req.retransmits_left == 0 {
                Action::Exhausted
            } else {
                req.retransmits_left -= 1;
                net.counters.retransmits += 1;
                Action::Retransmit
            }
        };
        match action {
            Action::Exhausted => self.failover(r),
            Action::Retransmit => {
                self.instant("serve", "retransmit", self.now);
                let avail = self.availability_mask();
                let (cur, key) = {
                    let req = &self.requests[r];
                    (req.shard, req.key)
                };
                let dest = if avail[cur] {
                    Some(cur)
                } else {
                    self.router.route_healthy(key, |s| avail[s])
                };
                match dest {
                    Some(s) => {
                        self.requests[r].shard = s;
                        self.net_send_req(r, s);
                    }
                    None => self.failover(r),
                }
            }
        }
    }

    /// The hedge timer fired: if the first transmission has neither
    /// answered nor been superseded, one hedge copy goes to the next
    /// healthy shard past the primary. First response wins; the loser
    /// is cancelled on acceptance.
    fn on_hedge_fire(&mut self, r: usize, seq: u32) {
        let primary = {
            let Some(net) = &self.net else { return };
            let req = &net.reqs[r];
            if req.resolved || req.hedged || req.xmit_seq != seq {
                return;
            }
            req.primary
        };
        let avail = self.availability_mask();
        let key = self.requests[r].key;
        let Some(dest) = self.router.route_healthy(key, |s| s != primary && avail[s]) else {
            return;
        };
        if let Some(net) = &mut self.net {
            let req = &mut net.reqs[r];
            req.hedged = true;
            req.hedge_shard = dest;
            req.sent_mask |= 1u64 << dest;
            net.counters.hedges += 1;
        }
        self.instant("serve", "hedge", self.now);
        // The hedge copy deliberately leaves the transmission sequence
        // and `sent_at` alone: the primary's timeout still governs the
        // request, and the RTT sample stays anchored to first send.
        for at in self.net_transmit(dest, MsgClass::Req) {
            self.push(at, Ev::DeliverReq(r, dest));
        }
    }

    /// Shard `s`'s detector event is due: applies the transition it
    /// marks, if any, and books the link's next one. Returns whether
    /// the shard's suspicion changed.
    fn on_detect(&mut self, s: usize) -> bool {
        let Some(net) = &mut self.net else {
            return false;
        };
        let policy = net.policy;
        let ev = net.detector.advance(s, &mut net.links[s], &policy);
        if let Some(at) = net.detector.next_at(s) {
            self.push(at, Ev::Detect(s));
        }
        match ev {
            Some(e) => {
                self.trace_detector(e);
                true
            }
            None => false,
        }
    }

    fn trace_detector(&self, e: DetectorEvent) {
        if e.shard < SHARD_CATS.len() {
            let name = if e.suspected {
                "suspect"
            } else {
                "suspect_clear"
            };
            self.instant(SHARD_CATS[e.shard], name, e.at);
        }
    }

    /// Stops the heartbeats, and with them the detector, once every
    /// arrival has been handled and nothing is open: from then on no
    /// request can be routed, so silence means nothing.
    fn stop_heartbeats_when_done(&mut self) {
        let now = self.now;
        let Some(net) = &mut self.net else { return };
        if net.detector.stopped() || net.arrivals_left > 0 || net.open > 0 {
            return;
        }
        let policy = net.policy;
        for e in net.detector.stop(now, &mut net.links, &policy) {
            self.trace_detector(e);
        }
    }

    fn report(mut self) -> ClusterReport {
        let end = self.now;
        let time_at_level = self.ladder.finish(end);
        let mut sojourns: Vec<u64> = Vec::new();
        let mut late = 0u64;
        let mut served_ok = 0u64;
        let tenant_count = self.tenant_names.len();
        let mut t_completed = vec![0u64; tenant_count];
        let mut t_ok = vec![0u64; tenant_count];
        for req in &self.requests {
            if let Some(done) = req.completed_at {
                sojourns.push(done - req.arrival);
                let missed = done > req.deadline;
                if missed {
                    late += 1;
                }
                t_completed[req.tenant] += 1;
                if !missed && !req.corrupted {
                    served_ok += 1;
                    t_ok[req.tenant] += 1;
                }
            }
        }
        sojourns.sort_unstable();
        let pct = |p: f64| -> u64 {
            if sojourns.is_empty() {
                return 0;
            }
            sojourns[((sojourns.len() - 1) as f64 * p).round() as usize]
        };
        let completed = sojourns.len() as u64;
        let arrivals = self.requests.len() as u64;
        let availability = if self.admitted == 0 {
            1.0
        } else {
            served_ok as f64 / self.admitted as f64
        };
        let goodput = if arrivals == 0 {
            0.0
        } else {
            (completed - late) as f64 / arrivals as f64
        };
        let deadline_miss_rate = if completed == 0 {
            0.0
        } else {
            late as f64 / completed as f64
        };
        let tenants: Vec<TenantReport> = (0..tenant_count)
            .map(|t| TenantReport {
                name: self.tenant_names[t].clone(),
                weight: self.tenant_weights[t],
                arrivals: self.tenant_arrivals[t],
                admitted: self.tenant_admitted[t],
                shed: self.tenant_shed[t],
                completed: t_completed[t],
                served_ok: t_ok[t],
                availability: if self.tenant_admitted[t] == 0 {
                    1.0
                } else {
                    t_ok[t] as f64 / self.tenant_admitted[t] as f64
                },
            })
            .collect();
        let shards_detail: Vec<ShardReport> = self
            .shards
            .iter_mut()
            .map(|s| ShardReport {
                routed: s.routed,
                rerouted_in: s.rerouted_in,
                steals_in: s.steals_in,
                steals_out: s.steals_out,
                batches: s.batches,
                batched_requests: s.batched_requests,
                completions: s.completions,
                failures: s.failures,
                spawns: s.spawns,
                retires: s.retires,
                spawn_rollbacks: s.spawn_rollbacks,
                retire_rollbacks: s.retire_rollbacks,
                final_active: s.active_engines() as u64,
                engines: s
                    .engines
                    .iter_mut()
                    .map(|e| EngineReport {
                        dispatches: e.dispatches,
                        completions: e.completions,
                        failures: e.failures,
                        dead: e.dead,
                        final_state: e.breaker.state_at(end),
                        breaker: e.breaker.stats(),
                    })
                    .collect(),
            })
            .collect();
        // The shard-side execution ledger vs the router-side acceptance
        // ledger: with the transport on they differ by exactly the
        // wasted executions (hedge losers, responses lost past the
        // retransmit budget) — the auditor holds us to that.
        let executed_ok: u64 = self.shards.iter().map(|s| s.completions).sum();
        let (net_counters, wasted_executions, links, detector_events, net_max_retransmits) =
            match &self.net {
                Some(net) => {
                    let mut c = net.counters;
                    c.suspicions = net.detector.suspicions();
                    c.recoveries = net.detector.recoveries();
                    let wasted = net
                        .reqs
                        .iter()
                        .map(|q| u64::from(q.execs.saturating_sub(u32::from(q.accepted))))
                        .sum();
                    let links = net
                        .links
                        .iter()
                        .enumerate()
                        .map(|(i, l)| LinkReport {
                            shard: i as u64,
                            req: LinkClassReport::from_stats(l.stats(MsgClass::Req)),
                            resp: LinkClassReport::from_stats(l.stats(MsgClass::Resp)),
                            cancel: LinkClassReport::from_stats(l.stats(MsgClass::Cancel)),
                            heartbeat: LinkClassReport::from_stats(l.stats(MsgClass::Heartbeat)),
                            ack: LinkClassReport::from_stats(l.stats(MsgClass::Ack)),
                        })
                        .collect();
                    (
                        c,
                        wasted,
                        links,
                        net.detector.events().to_vec(),
                        u64::from(net.policy.max_retransmits),
                    )
                }
                None => (
                    NetCounters::default(),
                    0,
                    Vec::new(),
                    Vec::new(),
                    u64::from(self.cfg.net.max_retransmits),
                ),
            };
        // Mirror the tallies into the counter registry: the auditor
        // replays routing, stealing, and shedding against these.
        self.count("cluster.arrivals", arrivals);
        self.count("cluster.admitted", self.admitted);
        self.count(
            "cluster.shed",
            self.shed_capacity + self.shed_infeasible + self.shed_tenant,
        );
        self.count("cluster.shed_tenant", self.shed_tenant);
        self.count("cluster.dispatches", self.dispatches);
        self.count("cluster.batched_requests", self.batched_requests);
        self.count("cluster.failures", self.batch_failures);
        self.count("cluster.retries", self.retries);
        self.count("cluster.failovers", self.failovers);
        self.count("cluster.steals", self.steals);
        self.count("cluster.rerouted", self.rerouted);
        self.count("cluster.completed_eve", self.completed_eve);
        self.count("cluster.completed_fallback", self.completed_fallback);
        self.count("cluster.sdc", self.sdc);
        self.count("cluster.executed_ok", executed_ok);
        // The net mirror is unconditional (zeros when disabled) so the
        // auditor's cross-checks never depend on key presence.
        let (sent, delivered, dropped) = links.iter().fold((0, 0, 0), |acc, l| {
            MsgClass::ALL.iter().fold(acc, |(s, d, x), &class| {
                let c = l.class(class);
                (s + c.sent, d + c.delivered, x + c.dropped)
            })
        });
        self.count("net.sent", sent);
        self.count("net.delivered", delivered);
        self.count("net.dropped", dropped);
        self.count("net.retransmits", net_counters.retransmits);
        self.count("net.timeouts", net_counters.timeouts);
        self.count("net.hedges", net_counters.hedges);
        self.count("net.hedge_wins", net_counters.hedge_wins);
        self.count("net.dedup_hits", net_counters.dedup_hits);
        self.count("net.dup_suppressed", net_counters.dup_suppressed);
        self.count("net.late_responses", net_counters.late_responses);
        self.count("net.stale_drops", net_counters.stale_drops);
        self.count("net.double_applied", net_counters.double_applied);
        self.count("net.wasted_executions", wasted_executions);
        self.count("net.suspicions", net_counters.suspicions);
        self.count("net.recoveries", net_counters.recoveries);
        self.count("cluster.ladder_steps", self.ladder.events().len() as u64);
        self.count("elastic.spawns", self.elastic.spawns());
        self.count("elastic.retires", self.elastic.retires());
        self.count(
            "elastic.rollbacks",
            self.elastic.spawn_rollbacks() + self.elastic.retire_rollbacks(),
        );
        self.count("elastic.drain_cycles", self.elastic.drain_cycles());
        for (i, s) in shards_detail.iter().enumerate() {
            self.count(&format!("cluster.routed.s{i}"), s.routed);
            self.count(&format!("cluster.steals_in.s{i}"), s.steals_in);
        }
        ClusterReport {
            shards: self.cfg.shards,
            engines_per_shard: self.cfg.engines_per_shard,
            requests: arrivals,
            end_cycle: end,
            arrivals,
            admitted: self.admitted,
            shed_capacity: self.shed_capacity,
            shed_infeasible: self.shed_infeasible,
            shed_tenant: self.shed_tenant,
            direct_fallback: self.direct_fallback,
            dispatches: self.dispatches,
            batched_requests: self.batched_requests,
            batch_failures: self.batch_failures,
            request_failures: self.request_failures,
            retries: self.retries,
            failovers: self.failovers,
            steals: self.steals,
            steal_failovers: self.steal_failovers,
            rerouted: self.rerouted,
            completed_eve: self.completed_eve,
            completed_fallback: self.completed_fallback,
            sdc: self.sdc,
            net_enabled: self.cfg.net.enabled,
            executed_ok,
            wasted_executions,
            net_max_retransmits,
            net: net_counters,
            links,
            detector_events,
            availability,
            goodput,
            deadline_miss_rate,
            p50_sojourn: pct(0.50),
            p99_sojourn: pct(0.99),
            ladder: self.ladder.events().to_vec(),
            final_level: self.ladder.level(),
            time_at_level,
            elastic_spawns: self.elastic.spawns(),
            elastic_retires: self.elastic.retires(),
            elastic_spawn_rollbacks: self.elastic.spawn_rollbacks(),
            elastic_retire_rollbacks: self.elastic.retire_rollbacks(),
            elastic_drain_cycles: self.elastic.drain_cycles(),
            elastic_window: self.cfg.elastic.window,
            elastic_max_per_window: self.cfg.elastic.max_reconfigs_per_window,
            elastic_events: self.elastic.events().to_vec(),
            shards_detail,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(storm: FaultStorm) -> ClusterReport {
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 11,
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 300,
            mean_gap: 600,
            seed: 5,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(3, 1000, 4000, 2);
        ClusterSim::new(cfg, profile, traffic, storm).unwrap().run()
    }

    fn check_conservation(r: &ClusterReport) {
        assert_eq!(
            r.arrivals,
            r.admitted + r.shed_capacity + r.shed_infeasible + r.shed_tenant
        );
        assert_eq!(r.admitted, r.completed_eve + r.completed_fallback);
        // Two ledgers: shards count what they ran, the router counts
        // what it accepted. They reconcile through wasted executions.
        assert_eq!(r.batched_requests, r.executed_ok + r.request_failures);
        assert_eq!(r.executed_ok, r.completed_eve + r.wasted_executions);
        assert_eq!(r.failovers, r.completed_fallback);
        assert_eq!(r.net.double_applied, 0, "a shard re-applied a request");
        let mut cancels_delivered = 0;
        for l in &r.links {
            for class in MsgClass::ALL {
                let c = l.class(class);
                assert_eq!(
                    c.sent,
                    c.delivered + c.dropped + c.in_flight,
                    "link {} {class:?} leaks copies",
                    l.shard
                );
                assert_eq!(
                    c.in_flight, 0,
                    "link {} {class:?} still has copies on the wire at end",
                    l.shard
                );
            }
            cancels_delivered += l.cancel.delivered;
        }
        assert_eq!(
            cancels_delivered,
            r.net.hedge_cancelled + r.net.cancel_missed,
            "every delivered cancel either pulled a copy or missed"
        );
        assert!(
            r.net.retransmits <= r.admitted * r.net_max_retransmits,
            "retransmits exceed the per-request budget"
        );
        assert!(r.net.hedge_wins <= r.net.hedges);
        assert_eq!(
            r.dispatches,
            r.shards_detail.iter().map(|s| s.batches).sum::<u64>()
        );
        assert_eq!(
            r.arrivals,
            r.tenants.iter().map(|t| t.arrivals).sum::<u64>()
        );
        assert_eq!(
            r.admitted,
            r.tenants.iter().map(|t| t.admitted).sum::<u64>()
        );
        for t in &r.tenants {
            assert_eq!(t.admitted, t.completed, "tenant {} leaked work", t.name);
        }
        assert_eq!(r.time_at_level.iter().sum::<u64>(), r.end_cycle);
    }

    #[test]
    fn a_calm_cluster_serves_everything_at_full_service() {
        let r = quick(FaultStorm::none());
        check_conservation(&r);
        assert_eq!(r.sdc, 0);
        assert_eq!(r.steals, 0);
        assert_eq!(r.final_level, ServiceLevel::Full);
        assert!(r.ladder.is_empty());
        assert!((r.availability - 1.0).abs() < 1e-12);
        // Every shard saw traffic: the ring spreads 1024 keys.
        for (i, s) in r.shards_detail.iter().enumerate() {
            assert!(s.routed > 0, "shard {i} owned no keys");
        }
    }

    #[test]
    fn runs_are_byte_deterministic() {
        let storm = FaultStorm::synth(9, 8, 300_000, 1.5);
        let a = quick(storm.clone());
        let b = quick(storm);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn bursty_traffic_coalesces_into_batches() {
        let cfg = ClusterConfig {
            shards: 2,
            engines_per_shard: 2,
            seed: 3,
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 300,
            mean_gap: 120, // heavy load: queues form, riders coalesce
            keys: 8,
            seed: 7,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(2, 1500, 5000, 2);
        let r = ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
            .unwrap()
            .run();
        check_conservation(&r);
        assert!(
            r.batched_requests > r.dispatches,
            "no coalescing happened: {} batches carried {} requests",
            r.dispatches,
            r.batched_requests
        );
    }

    #[test]
    fn a_dead_shard_is_stolen_from_and_work_completes() {
        let storm =
            FaultStorm::kill_shard(1, 2, 60_000).merged(FaultStorm::hot_key(0, 50_000, 120_000));
        // Aim the hot key at the doomed shard so its queue is deep when
        // it dies.
        let r = quick(storm);
        check_conservation(&r);
        assert_eq!(r.sdc, 0);
        // The shard's engines died and its breakers opened.
        let dead = &r.shards_detail[1];
        assert!(dead.engines.iter().all(|e| e.dead));
        assert!(r.rerouted > 0, "arrivals must re-route off the dead shard");
        assert!(r.availability >= 0.9, "availability {}", r.availability);
    }

    #[test]
    fn a_partition_heals_and_the_shard_returns() {
        let r = quick(FaultStorm::partition(2, 40_000, 60_000));
        check_conservation(&r);
        assert_eq!(r.sdc, 0);
        // During the window traffic re-routed; afterwards the shard
        // served again.
        let p = &r.shards_detail[2];
        assert!(p.batches > 0, "healed shard never served");
        assert!(r.rerouted > 0 || r.steals > 0);
    }

    fn net_quick(loss: f64, storm: FaultStorm) -> ClusterReport {
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 11,
            net: NetPolicy::lossy(loss),
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 300,
            mean_gap: 600,
            seed: 5,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(3, 1000, 4000, 2);
        ClusterSim::new(cfg, profile, traffic, storm).unwrap().run()
    }

    #[test]
    fn a_lossy_transport_still_balances_every_ledger() {
        let r = net_quick(0.05, FaultStorm::none());
        check_conservation(&r);
        assert!(r.net_enabled);
        assert_eq!(r.sdc, 0);
        let req_sent: u64 = r.links.iter().map(|l| l.req.sent).sum();
        let req_dropped: u64 = r.links.iter().map(|l| l.req.dropped).sum();
        assert!(req_sent > 300, "requests ride the wire");
        assert!(req_dropped > 0, "5% loss drops something over ~1k sends");
        assert!(
            r.net.retransmits > 0,
            "dropped requests must trigger retransmits"
        );
        let hb: u64 = r.links.iter().map(|l| l.heartbeat.sent).sum();
        assert!(hb > 0, "heartbeats flow");
        assert!(
            r.availability > 0.95,
            "retransmits should absorb 5% loss, got {}",
            r.availability
        );
    }

    #[test]
    fn lossy_runs_are_byte_deterministic() {
        let storm = FaultStorm::synth(9, 8, 300_000, 1.0);
        let a = net_quick(0.08, storm.clone());
        let b = net_quick(0.08, storm);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn duplication_is_absorbed_by_dedup_and_suppression() {
        let cfg = ClusterConfig {
            shards: 2,
            engines_per_shard: 2,
            seed: 3,
            net: NetPolicy {
                duplicate: 0.5,
                reorder: 0.2,
                ..NetPolicy::lossy(0.05)
            },
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 400,
            mean_gap: 400,
            seed: 7,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(2, 1000, 4000, 2);
        let r = ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
            .unwrap()
            .run();
        check_conservation(&r);
        let dup: u64 = r.links.iter().map(|l| l.req.dup_copies).sum();
        assert!(dup > 0, "50% duplication mints extra copies");
        assert!(
            r.net.dup_suppressed + r.net.dedup_hits > 0,
            "duplicate copies must hit the queued mask or the cache"
        );
        assert_eq!(r.net.double_applied, 0);
        assert_eq!(r.sdc, 0);
    }

    #[test]
    fn a_partition_under_the_transport_is_loss_the_detector_catches() {
        let r = net_quick(0.02, FaultStorm::partition(2, 40_000, 60_000));
        check_conservation(&r);
        assert_eq!(r.sdc, 0);
        assert!(
            r.detector_events
                .iter()
                .any(|e| e.shard == 2 && e.suspected),
            "the heartbeat detector must suspect the partitioned link"
        );
        assert!(
            r.detector_events
                .iter()
                .any(|e| e.shard == 2 && !e.suspected),
            "and clear the suspicion once the link heals"
        );
        assert!(r.net.suspicions >= 1);
        assert_eq!(r.net.suspicions, r.net.recoveries, "partition healed");
        // Unlike the legacy model, the shard's engines never went
        // unhealthy — the link did. Work queued behind the partition
        // still executed (some of it wasted) and the shard serves
        // again after the heal.
        let p = &r.shards_detail[2];
        assert!(p.batches > 0, "partitioned shard never served");
        assert!(r.availability >= 0.9, "availability {}", r.availability);
    }

    #[test]
    fn hedges_fire_under_a_degraded_link_and_win() {
        // Warm the RTT estimator with clean traffic, then degrade one
        // link to 90% loss: primaries stall, hedges answer.
        let storm = FaultStorm::link_degrade(1, 90, 60_000, 80_000);
        let r = net_quick(0.0, storm);
        check_conservation(&r);
        assert!(r.net.hedges > 0, "hedge timers must fire on the stall");
        assert!(r.net.hedge_wins > 0, "some hedges must beat the primary");
        assert!(
            r.net.hedge_cancelled + r.net.cancel_missed > 0,
            "first-response-wins must cancel the losers"
        );
    }

    #[test]
    fn net_misconfigurations_are_typed_errors() {
        let profile = ServiceProfile::synthetic(1, 100, 200, 1);
        let bad_prob = ClusterConfig {
            net: NetPolicy::lossy(1.5),
            ..ClusterConfig::default()
        };
        assert!(matches!(
            ClusterSim::new(
                bad_prob,
                profile.clone(),
                ClusterTraffic::default(),
                FaultStorm::none()
            ),
            Err(ServeError::Config(_))
        ));
        let too_wide = ClusterConfig {
            shards: 65,
            net: NetPolicy::lossy(0.1),
            ..ClusterConfig::default()
        };
        assert!(matches!(
            ClusterSim::new(
                too_wide,
                profile.clone(),
                ClusterTraffic::default(),
                FaultStorm::none()
            ),
            Err(ServeError::Config(_))
        ));
        // A link-degrade storm needs the transport to exist at all.
        let err = ClusterSim::new(
            ClusterConfig::default(),
            profile,
            ClusterTraffic::default(),
            FaultStorm::link_degrade(0, 50, 100, 1_000),
        )
        .err()
        .unwrap();
        assert!(matches!(err, ServeError::Storm(_)), "{err}");
        assert!(err.to_string().contains("transport"), "{err}");
    }

    #[test]
    fn malformed_cluster_storms_are_typed_errors() {
        let cfg = ClusterConfig {
            shards: 2,
            engines_per_shard: 2,
            ..ClusterConfig::default()
        };
        let profile = ServiceProfile::synthetic(1, 100, 200, 2);
        let err = ClusterSim::new(
            cfg,
            profile.clone(),
            ClusterTraffic::default(),
            FaultStorm::kill_one(9, 100),
        )
        .err()
        .unwrap();
        assert!(matches!(err, ServeError::Storm(_)), "{err}");
        let err = ClusterSim::new(
            cfg,
            profile,
            ClusterTraffic::default(),
            FaultStorm::partition(5, 0, 100),
        )
        .err()
        .unwrap();
        assert!(matches!(err, ServeError::Storm(_)), "{err}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let profile = ServiceProfile::synthetic(1, 100, 200, 1);
        for cfg in [
            ClusterConfig {
                shards: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                engines_per_shard: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                vnodes: 0,
                ..ClusterConfig::default()
            },
            ClusterConfig {
                max_attempts: 0,
                ..ClusterConfig::default()
            },
        ] {
            assert!(matches!(
                ClusterSim::new(
                    cfg,
                    profile.clone(),
                    ClusterTraffic::default(),
                    FaultStorm::none()
                ),
                Err(ServeError::Config(_))
            ));
        }
        let no_tenants = ClusterTraffic {
            tenants: Vec::new(),
            ..ClusterTraffic::default()
        };
        assert!(ClusterSim::new(
            ClusterConfig::default(),
            profile,
            no_tenants,
            FaultStorm::none()
        )
        .is_err());
    }

    #[test]
    fn shaped_traffic_keeps_every_conservation_identity() {
        // Each non-uniform shape runs the full cluster and still
        // balances the books, byte-deterministically.
        let horizon = 300 * 600u64;
        for shape in [
            TrafficShape::Diurnal {
                period: horizon / 2,
            },
            TrafficShape::Bursty {
                burst: 16,
                quiet: 48,
                gain: 8,
            },
            TrafficShape::HotKeyStorm {
                key: 11,
                every: horizon / 3,
                duration: horizon / 9,
            },
        ] {
            let run = || {
                let cfg = ClusterConfig {
                    shards: 4,
                    engines_per_shard: 2,
                    seed: 11,
                    ..ClusterConfig::default()
                };
                let traffic = ClusterTraffic {
                    requests: 300,
                    mean_gap: 600,
                    shape,
                    seed: 5,
                    ..ClusterTraffic::default()
                };
                let profile = ServiceProfile::synthetic(3, 1000, 4000, 2);
                ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
                    .unwrap()
                    .run()
            };
            let r = run();
            check_conservation(&r);
            assert_eq!(r.sdc, 0, "{shape:?}");
            assert_eq!(
                r.to_json().to_pretty(),
                run().to_json().to_pretty(),
                "{shape:?}: not deterministic"
            );
        }
    }

    #[test]
    fn arrival_side_key_storm_skews_routing_like_a_storm_event() {
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 11,
            ..ClusterConfig::default()
        };
        let router = Router::new(cfg.seed, 4, 16);
        let hot = router.key_for_shard(2, 10_000).unwrap();
        let traffic = ClusterTraffic {
            requests: 300,
            mean_gap: 600,
            shape: TrafficShape::HotKeyStorm {
                key: hot,
                every: 1,
                duration: 1,
            },
            seed: 5,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(3, 1000, 4000, 2);
        let r = ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
            .unwrap()
            .run();
        check_conservation(&r);
        let hot_share = r.shards_detail[2].routed as f64 / r.admitted.max(1) as f64;
        assert!(
            hot_share > 0.5,
            "storm shard owned only {hot_share:.2} of routed traffic"
        );
    }

    fn elastic_cfg() -> ClusterConfig {
        ClusterConfig {
            shards: 2,
            engines_per_shard: 1,
            elastic: ElasticPolicy {
                enabled: true,
                min_engines: 1,
                max_engines: 3,
                scale_up_backlog: 0.2,
                scale_down_backlog: 0.05,
                dwell: 4_000,
                ..ElasticPolicy::default()
            },
            seed: 11,
            ..ClusterConfig::default()
        }
    }

    fn elastic_run(cfg: ClusterConfig, storm: FaultStorm) -> ClusterReport {
        let traffic = ClusterTraffic {
            requests: 250,
            mean_gap: 300,
            seed: 5,
            ..ClusterTraffic::default()
        };
        ClusterSim::new(
            cfg,
            ServiceProfile::synthetic(3, 1000, 4000, 3),
            traffic,
            storm,
        )
        .unwrap()
        .run()
    }

    #[test]
    fn pressure_spawns_engines_and_the_tail_retires_them() {
        let r = elastic_run(elastic_cfg(), FaultStorm::none());
        check_conservation(&r);
        assert_eq!(r.sdc, 0);
        assert!(r.elastic_spawns > 0, "sustained pressure never spawned");
        assert!(r.elastic_retires > 0, "the quiet tail never retired");
        // The ledger and the final partition agree, shard by shard.
        for s in &r.shards_detail {
            assert_eq!(s.final_active + s.retires, 1 + s.spawns);
            // Slot space: every shard carries max_engines slots.
            assert_eq!(s.engines.len(), 3);
        }
        // Every start resolved exactly once.
        let starts = r
            .elastic_events
            .iter()
            .filter(|e| e.kind.is_start())
            .count() as u64;
        assert_eq!(
            starts,
            r.elastic_spawns
                + r.elastic_retires
                + r.elastic_spawn_rollbacks
                + r.elastic_retire_rollbacks
        );
    }

    #[test]
    fn elastic_runs_are_byte_deterministic() {
        let a = elastic_run(elastic_cfg(), FaultStorm::none());
        let b = elastic_run(elastic_cfg(), FaultStorm::none());
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn pinned_bounds_never_reconfigure() {
        let mut cfg = elastic_cfg();
        cfg.elastic.min_engines = 1;
        cfg.elastic.max_engines = 1;
        let r = elastic_run(cfg, FaultStorm::none());
        check_conservation(&r);
        assert_eq!(r.elastic_spawns + r.elastic_retires, 0);
        assert!(r.elastic_events.is_empty());
    }

    #[test]
    fn elastic_storms_address_slot_space() {
        // Engine index 2 is shard 0's third slot: meaningless in the
        // 2×1 static geometry, valid once the elastic ceiling is 3.
        let cfg = elastic_cfg();
        let r = elastic_run(cfg, FaultStorm::kill_one(2, 10_000));
        check_conservation(&r);
        let mut off = cfg;
        off.elastic.enabled = false;
        let traffic = ClusterTraffic::default();
        let err = ClusterSim::new(
            off,
            ServiceProfile::synthetic(3, 1000, 4000, 3),
            traffic,
            FaultStorm::kill_one(2, 10_000),
        )
        .err()
        .unwrap();
        assert!(matches!(err, ServeError::Storm(_)), "{err}");
    }

    #[test]
    fn invalid_elastic_policies_are_rejected() {
        let profile = ServiceProfile::synthetic(1, 100, 200, 1);
        for tweak in [
            |e: &mut ElasticPolicy| e.min_engines = 0,
            |e: &mut ElasticPolicy| e.min_engines = 2,
            |e: &mut ElasticPolicy| e.max_engines = 0,
            |e: &mut ElasticPolicy| e.scale_down_backlog = 0.9,
        ] {
            let mut cfg = ClusterConfig {
                shards: 2,
                engines_per_shard: 1,
                elastic: ElasticPolicy {
                    enabled: true,
                    min_engines: 1,
                    max_engines: 2,
                    ..ElasticPolicy::default()
                },
                ..ClusterConfig::default()
            };
            tweak(&mut cfg.elastic);
            assert!(matches!(
                ClusterSim::new(
                    cfg,
                    profile.clone(),
                    ClusterTraffic::default(),
                    FaultStorm::none()
                ),
                Err(ServeError::Config(_))
            ));
        }
    }

    #[test]
    fn hot_key_windows_skew_routing() {
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 11,
            ..ClusterConfig::default()
        };
        let router = Router::new(cfg.seed, 4, 16);
        let hot = router.key_for_shard(3, 10_000).unwrap();
        let traffic = ClusterTraffic {
            requests: 300,
            mean_gap: 600,
            seed: 5,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(3, 1000, 4000, 2);
        let r = ClusterSim::new(
            cfg,
            profile,
            traffic,
            FaultStorm::hot_key(hot, 0, u64::MAX / 2),
        )
        .unwrap()
        .run();
        check_conservation(&r);
        let hot_share = r.shards_detail[3].routed as f64 / r.admitted.max(1) as f64;
        assert!(
            hot_share > 0.5,
            "hot shard owned only {hot_share:.2} of routed traffic"
        );
    }
}
