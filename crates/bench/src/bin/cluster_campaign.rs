//! Cluster-resilience campaign: sweeps shard count × tenant count ×
//! storm shape over one measured service profile, running the sharded
//! cluster simulation for every cell and replaying each cell's trace
//! through the cluster auditor (routing, stealing, and shedding
//! identities included).
//!
//! Output is a deterministic JSON document — the same flags always
//! produce byte-identical bytes, serial or parallel (cell seeds are
//! pre-derived serially in grid order, the service profile is measured
//! once before the fan-out, and results merge in grid order; set
//! `EVE_BENCH_THREADS=1` to force one thread). A panicking or hung
//! cell becomes an error row, is summarized on stderr, and fails the
//! process — as does any audit violation or SDC.
//!
//! ```text
//! cluster_campaign [--seed N] [--factor N] [--shards S1,S2,..]
//!                  [--tenants T1,T2,..]
//!                  [--shapes calm,mixed,partition,hotkey,shardkill,diurnal,bursty,keystorm,phased]
//!                  [--requests N] [--gap CYCLES] [--slack F]
//!                  [--workloads N] [--elastic] [--net [L1,L2,..]]
//! ```
//!
//! Storm shapes:
//!
//! * `calm` — no faults at all; the fairness/batching baseline.
//! * `mixed` — a synthetic storm of brownouts, silent windows, and
//!   kills at intensity 1.0.
//! * `partition` — a light synthetic storm plus a scripted shard
//!   partition that heals mid-run.
//! * `hotkey` — a light synthetic storm plus a hot-key-skew window
//!   aimed at one shard.
//! * `shardkill` — a hot-key window aimed at a victim shard whose
//!   engines are then all killed mid-window: the work-stealing and
//!   degradation-ladder stress case.
//!
//! Traffic shapes (seeded arrival processes under a light storm):
//!
//! * `diurnal` — the arrival rate follows a triangle wave over the
//!   run, peak load at twice the trough.
//! * `bursty` — count-based request bursts at 8× the nominal rate,
//!   mean rate conserved; the batching/admission stress case.
//! * `keystorm` — a periodic arrival-side viral-key storm aimed at
//!   one shard, with no fault storm at all: pure load skew.
//! * `phased` — a one-shot lead → burst → tail trace with no fault
//!   storm: the elastic-reconfiguration stress case (pair it with
//!   `--elastic`).
//!
//! `--elastic` turns on the elastic engine/L2-way controller for every
//! cell, with headroom of two extra engine slots per shard above the
//! configured base; the summary then rolls up cluster-wide spawn /
//! retire / rollback tallies. It is off by default so historical
//! campaign bytes replay unchanged.
//!
//! `--net [L1,L2,..]` adds a lossy-transport axis to the grid: each
//! listed loss percentage becomes one more sweep dimension, running
//! every (shards × tenants × shape) cell again with the deterministic
//! interconnect enabled at that loss rate (duplication at half the
//! loss rate and 5% reordering ride along, per
//! [`NetPolicy::lossy`]). With no value the axis defaults to
//! `0,2,5`. The summary rolls up retransmit / hedge / dedup /
//! suspicion tallies — plus `net_partition_suspicions`, the
//! suspicions whose onset falls inside a partition window of the
//! suspected shard — and the exit-code policy also fails the run on
//! any double-applied request. Off by default, so transport-free
//! campaign bytes replay unchanged.

use eve_bench::pool;
use eve_common::json::JsonValue;
use eve_common::SplitMix64;
use eve_obs::Tracer;
use eve_serve::{
    audit_cluster, tenant_mix, ClusterConfig, ClusterSim, ClusterTraffic, ElasticPolicy,
    FaultStorm, NetPolicy, Router, ServiceProfile, StormEventKind, TrafficShape,
};
use eve_workloads::Workload;
use std::sync::Arc;

/// One sweep cell's coordinates, seeds pre-derived in grid order.
#[derive(Debug, Clone, Copy)]
struct Cell {
    shards: usize,
    tenants: usize,
    shape: &'static str,
    /// Transport loss percentage for this cell; `None` runs the
    /// historical direct-dispatch path.
    loss_pct: Option<u8>,
    storm_seed: u64,
    cluster_seed: u64,
    traffic_seed: u64,
}

struct Plan {
    seed: u64,
    factor: u32,
    shards: Vec<usize>,
    tenants: Vec<usize>,
    shapes: Vec<&'static str>,
    engines_per_shard: usize,
    requests: usize,
    /// Mean inter-arrival gap; `None` (the default) derives it from
    /// the measured profile so offered load tracks the workload suite.
    mean_gap: Option<u64>,
    deadline_slack: f64,
    /// Elastic engine/L2-way reconfiguration for every cell.
    elastic: bool,
    /// Lossy-transport axis: loss percentages to sweep, or `None` to
    /// keep the historical direct-dispatch grid.
    net: Option<Vec<u8>>,
}

impl Default for Plan {
    fn default() -> Self {
        Self {
            seed: 0xC1_0537_CA3E,
            factor: 8,
            shards: vec![2, 4],
            tenants: vec![1, 3],
            shapes: vec![
                "calm",
                "mixed",
                "partition",
                "hotkey",
                "shardkill",
                "diurnal",
                "bursty",
                "keystorm",
            ],
            engines_per_shard: 4,
            requests: 300,
            mean_gap: None,
            deadline_slack: 6.0,
            elastic: false,
            net: None,
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn shape_name(s: &str) -> &'static str {
    match s {
        "calm" => "calm",
        "mixed" => "mixed",
        "partition" => "partition",
        "hotkey" => "hotkey",
        "shardkill" => "shardkill",
        "diurnal" => "diurnal",
        "bursty" => "bursty",
        "keystorm" => "keystorm",
        "phased" => "phased",
        other => panic!(
            "unknown shape {other:?} \
             (calm|mixed|partition|hotkey|shardkill|diurnal|bursty|keystorm|phased)"
        ),
    }
}

/// Expands the plan into its cell list. Seed derivation must stay
/// here — serial, in grid order — or parallel runs would diverge from
/// serial ones.
fn cells(plan: &Plan) -> Vec<Cell> {
    let mut seeder = SplitMix64::new(plan.seed);
    // No `--net`: a single `None` axis point keeps the historical
    // grid (and its seed stream) byte-for-byte.
    let losses: Vec<Option<u8>> = match &plan.net {
        Some(l) => l.iter().map(|&p| Some(p)).collect(),
        None => vec![None],
    };
    let mut out = Vec::new();
    for &shards in &plan.shards {
        for &tenants in &plan.tenants {
            for &shape in &plan.shapes {
                for &loss_pct in &losses {
                    out.push(Cell {
                        shards,
                        tenants,
                        shape,
                        loss_pct,
                        storm_seed: seeder.next_u64(),
                        cluster_seed: seeder.next_u64(),
                        traffic_seed: seeder.next_u64(),
                    });
                }
            }
        }
    }
    out
}

/// Builds the cell's fault storm. The victim shard for targeted shapes
/// is the last one, and hot keys are found by probing the same seeded
/// ring the simulation will build, so the skew provably lands on the
/// victim.
fn build_storm(cell: Cell, cfg: &ClusterConfig, keys: u64, horizon: u64) -> FaultStorm {
    // Synthetic storms address the *slot* space so elastic cells can
    // lose engines that only exist once the controller spawns them.
    let engines = cfg.shards * cfg.slots_per_shard();
    let victim = cfg.shards - 1;
    let ring = Router::new(cfg.seed, cfg.shards, cfg.vnodes);
    let hot = ring.key_for_shard(victim, keys).unwrap_or(0);
    match cell.shape {
        "calm" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.0),
        "mixed" => FaultStorm::synth(cell.storm_seed, engines, horizon, 1.0),
        "partition" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5)
            .merged(FaultStorm::partition(victim, horizon / 4, horizon / 4)),
        "hotkey" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5)
            .merged(FaultStorm::hot_key(hot, horizon / 4, horizon / 2)),
        "shardkill" => FaultStorm::hot_key(hot, horizon / 4, horizon / 2).merged(
            FaultStorm::kill_shard(victim, cfg.engines_per_shard, horizon * 3 / 8),
        ),
        // Traffic shapes keep the silicon calm-to-lightly-stormy: the
        // interesting pressure comes from the arrival process.
        "diurnal" | "bursty" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.5),
        "keystorm" | "phased" => FaultStorm::synth(cell.storm_seed, engines, horizon, 0.0),
        other => panic!("unknown shape {other:?}"),
    }
}

/// Builds the cell's arrival-process shape. Fault-storm shapes keep
/// the uniform baseline; traffic shapes modulate arrivals, with the
/// key-storm victim found by probing the same seeded ring as
/// [`build_storm`].
fn traffic_shape(
    cell: Cell,
    cfg: &ClusterConfig,
    keys: u64,
    horizon: u64,
    requests: usize,
) -> TrafficShape {
    match cell.shape {
        "diurnal" => TrafficShape::Diurnal {
            period: (horizon / 2).max(2),
        },
        "phased" => TrafficShape::Phased {
            lead: requests as u64 / 4,
            burst: requests as u64 / 2,
            gain: 4,
        },
        "bursty" => TrafficShape::Bursty {
            burst: 24,
            quiet: 72,
            gain: 8,
        },
        "keystorm" => {
            let victim = cfg.shards - 1;
            let ring = Router::new(cfg.seed, cfg.shards, cfg.vnodes);
            TrafficShape::HotKeyStorm {
                key: ring.key_for_shard(victim, keys).unwrap_or(0),
                every: (horizon / 2).max(1),
                duration: (horizon / 4).max(1),
            }
        }
        _ => TrafficShape::Uniform,
    }
}

/// One finished cell: its JSON row plus the numbers the summary and
/// exit-code policy need.
struct CellOutcome {
    row: JsonValue,
    availability: f64,
    min_tenant_availability: f64,
    sdc: u64,
    steals: u64,
    step_downs: u64,
    step_ups: u64,
    elastic_spawns: u64,
    elastic_retires: u64,
    elastic_rollbacks: u64,
    retransmits: u64,
    hedges: u64,
    hedge_wins: u64,
    dedup_absorbed: u64,
    suspicions: u64,
    partition_suspicions: u64,
    double_applied: u64,
}

/// Runs one cell: build the storm, run the cluster simulation under a
/// fresh tracer, audit the trace, and render the row.
fn run_cell(plan: &Plan, profile: &ServiceProfile, cell: Cell) -> Result<CellOutcome, String> {
    let mean_gap = plan.mean_gap.unwrap_or_else(|| profile.mean_eve_cycles());
    let horizon = plan.requests as u64 * mean_gap;
    let cfg = ClusterConfig {
        shards: cell.shards,
        engines_per_shard: plan.engines_per_shard,
        elastic: ElasticPolicy {
            enabled: plan.elastic,
            min_engines: 1,
            max_engines: plan.engines_per_shard + 2,
            ..ElasticPolicy::default()
        },
        net: match cell.loss_pct {
            Some(p) => NetPolicy::lossy(f64::from(p) / 100.0),
            None => NetPolicy::default(),
        },
        seed: cell.cluster_seed,
        ..ClusterConfig::default()
    };
    let traffic = ClusterTraffic {
        requests: plan.requests,
        mean_gap,
        shape: traffic_shape(
            cell,
            &cfg,
            ClusterTraffic::default().keys,
            horizon,
            plan.requests,
        ),
        deadline_slack: plan.deadline_slack,
        tenants: tenant_mix(cell.tenants),
        seed: cell.traffic_seed,
        ..ClusterTraffic::default()
    };
    let storm = build_storm(cell, &cfg, traffic.keys, horizon);
    let partitions: Vec<(usize, u64, u64)> = storm
        .events
        .iter()
        .filter_map(|e| match e.kind {
            StormEventKind::ShardPartition { duration } => {
                Some((e.engine, e.at, e.at + duration.max(1)))
            }
            _ => None,
        })
        .collect();
    let tracer = Tracer::new();
    let report = ClusterSim::new(cfg, profile.clone(), traffic, storm)
        .map_err(|e| e.to_string())?
        .with_tracer(&tracer)
        .run();
    let audit = audit_cluster(&tracer, &report).map_err(|e| format!("audit: {e}"))?;
    let min_tenant_availability = report
        .tenants
        .iter()
        .filter(|t| t.admitted > 0)
        .map(|t| t.availability)
        .fold(1.0f64, f64::min);
    let mut fields = vec![
        ("shards", JsonValue::from(cell.shards as u64)),
        ("tenants", JsonValue::from(cell.tenants as u64)),
        ("shape", JsonValue::from(cell.shape)),
        ("storm_seed", JsonValue::from(cell.storm_seed)),
    ];
    if let Some(p) = cell.loss_pct {
        fields.push(("loss_pct", JsonValue::from(u64::from(p))));
    }
    fields.extend([
        ("audited_events", JsonValue::from(audit.events as u64)),
        (
            "audited_identities",
            JsonValue::from(audit.identities as u64),
        ),
        (
            "min_tenant_availability",
            JsonValue::from(min_tenant_availability),
        ),
        ("report", report.to_json()),
    ]);
    let row = JsonValue::object(fields);
    Ok(CellOutcome {
        row,
        availability: report.availability,
        min_tenant_availability,
        sdc: report.sdc,
        steals: report.steals,
        step_downs: report.step_downs(),
        step_ups: report.step_ups(),
        elastic_spawns: report.elastic_spawns,
        elastic_retires: report.elastic_retires,
        elastic_rollbacks: report.elastic_spawn_rollbacks + report.elastic_retire_rollbacks,
        retransmits: report.net.retransmits,
        hedges: report.net.hedges,
        hedge_wins: report.net.hedge_wins,
        dedup_absorbed: report.net.dedup_hits + report.net.dup_suppressed,
        suspicions: report.net.suspicions,
        partition_suspicions: report
            .detector_events
            .iter()
            .filter(|e| {
                e.suspected
                    && partitions
                        .iter()
                        .any(|&(s, from, until)| s == e.shard && (from..until).contains(&e.at))
            })
            .count() as u64,
        double_applied: report.net.double_applied,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut plan = Plan::default();
    if let Some(seed) = flag_value(&args, "--seed") {
        plan.seed = seed.parse().expect("--seed takes a u64");
    }
    if let Some(factor) = flag_value(&args, "--factor") {
        plan.factor = factor.parse().expect("--factor takes a u32");
    }
    if let Some(shards) = flag_value(&args, "--shards") {
        plan.shards = shards
            .split(',')
            .map(|s| s.parse().expect("--shards takes comma-separated counts"))
            .collect();
    }
    if let Some(tenants) = flag_value(&args, "--tenants") {
        plan.tenants = tenants
            .split(',')
            .map(|t| t.parse().expect("--tenants takes comma-separated counts"))
            .collect();
    }
    if let Some(shapes) = flag_value(&args, "--shapes") {
        plan.shapes = shapes.split(',').map(shape_name).collect();
    }
    if let Some(requests) = flag_value(&args, "--requests") {
        plan.requests = requests.parse().expect("--requests takes a count");
    }
    if let Some(gap) = flag_value(&args, "--gap") {
        plan.mean_gap = Some(gap.parse().expect("--gap takes cycles"));
    }
    if let Some(slack) = flag_value(&args, "--slack") {
        plan.deadline_slack = slack.parse().expect("--slack takes a float");
    }
    if args.iter().any(|a| a == "--elastic") {
        plan.elastic = true;
    }
    if let Some(i) = args.iter().position(|a| a == "--net") {
        // `--net` takes an optional comma-separated list of loss
        // percentages; bare `--net` (or `--net` followed by another
        // flag) sweeps the default 0/2/5 axis.
        let losses = match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => v
                .split(',')
                .map(|p| {
                    let p: u8 = p.parse().expect("--net takes comma-separated percentages");
                    assert!(p <= 100, "--net percentages must be <= 100");
                    p
                })
                .collect(),
            _ => vec![0, 2, 5],
        };
        plan.net = Some(losses);
    }
    let workloads: Vec<Workload> = match flag_value(&args, "--workloads") {
        Some(n) => Workload::tiny_suite()
            .into_iter()
            .take(n.parse().expect("--workloads takes a count"))
            .collect(),
        None => Workload::tiny_suite(),
    };
    // The profile is measured ONCE with the real timing model, before
    // the fan-out, so every cell prices service identically and the
    // measurement never races the sweep.
    let profile = Arc::new(
        ServiceProfile::measured(plan.factor, &workloads, plan.engines_per_shard)
            .expect("profile measurement succeeds"),
    );
    let grid = Arc::new(cells(&plan));
    let plan = Arc::new(plan);
    let results = pool::try_run_jobs(grid.len(), {
        let grid = Arc::clone(&grid);
        let plan = Arc::clone(&plan);
        let profile = Arc::clone(&profile);
        move |i| run_cell(&plan, &profile, grid[i])
    });

    let mut rows = Vec::with_capacity(results.len());
    let mut errors: Vec<(Cell, String)> = Vec::new();
    let mut min_availability = f64::INFINITY;
    let mut min_tenant_availability = f64::INFINITY;
    let mut total_sdc = 0u64;
    let mut steals = 0u64;
    let mut step_downs = 0u64;
    let mut step_ups = 0u64;
    let mut elastic_spawns = 0u64;
    let mut elastic_retires = 0u64;
    let mut elastic_rollbacks = 0u64;
    let mut retransmits = 0u64;
    let mut hedges = 0u64;
    let mut hedge_wins = 0u64;
    let mut dedup_absorbed = 0u64;
    let mut suspicions = 0u64;
    let mut partition_suspicions = 0u64;
    let mut double_applied = 0u64;
    for (result, &cell) in results.into_iter().zip(grid.iter()) {
        match result {
            Ok(Ok(outcome)) => {
                min_availability = min_availability.min(outcome.availability);
                min_tenant_availability =
                    min_tenant_availability.min(outcome.min_tenant_availability);
                total_sdc += outcome.sdc;
                steals += outcome.steals;
                step_downs += outcome.step_downs;
                step_ups += outcome.step_ups;
                elastic_spawns += outcome.elastic_spawns;
                elastic_retires += outcome.elastic_retires;
                elastic_rollbacks += outcome.elastic_rollbacks;
                retransmits += outcome.retransmits;
                hedges += outcome.hedges;
                hedge_wins += outcome.hedge_wins;
                dedup_absorbed += outcome.dedup_absorbed;
                suspicions += outcome.suspicions;
                partition_suspicions += outcome.partition_suspicions;
                double_applied += outcome.double_applied;
                rows.push(outcome.row);
            }
            Ok(Err(msg)) => errors.push((cell, msg)),
            Err(job_err) => errors.push((cell, job_err.to_string())),
        }
    }
    for (cell, msg) in &errors {
        rows.push(JsonValue::object([
            ("shards", JsonValue::from(cell.shards as u64)),
            ("tenants", JsonValue::from(cell.tenants as u64)),
            ("shape", JsonValue::from(cell.shape)),
            ("storm_seed", JsonValue::from(cell.storm_seed)),
            ("error", JsonValue::from(msg.as_str())),
        ]));
    }
    eprintln!(
        "cluster_campaign: {} cells, {} error rows, min availability {:.4}, \
         min tenant availability {:.4}, {} SDCs, {} steals, {} down / {} up, \
         elastic {} spawned / {} retired / {} rolled back, \
         net {} retransmits / {} hedges ({} won) / {} deduped / {} suspicions \
         ({} in partitions) / {} double-applied",
        grid.len(),
        errors.len(),
        if min_availability.is_finite() {
            min_availability
        } else {
            0.0
        },
        if min_tenant_availability.is_finite() {
            min_tenant_availability
        } else {
            0.0
        },
        total_sdc,
        steals,
        step_downs,
        step_ups,
        elastic_spawns,
        elastic_retires,
        elastic_rollbacks,
        retransmits,
        hedges,
        hedge_wins,
        dedup_absorbed,
        suspicions,
        partition_suspicions,
        double_applied
    );
    for (cell, msg) in &errors {
        eprintln!(
            "  error cell: shards={} tenants={} shape={}: {}",
            cell.shards, cell.tenants, cell.shape, msg
        );
    }
    let mut summary = vec![
        ("cells", JsonValue::from(grid.len() as u64)),
        ("failed", JsonValue::from(errors.len() as u64)),
        (
            "min_availability",
            JsonValue::from(if min_availability.is_finite() {
                min_availability
            } else {
                0.0
            }),
        ),
        (
            "min_tenant_availability",
            JsonValue::from(if min_tenant_availability.is_finite() {
                min_tenant_availability
            } else {
                0.0
            }),
        ),
        ("total_sdc", JsonValue::from(total_sdc)),
        ("steals", JsonValue::from(steals)),
        ("ladder_step_downs", JsonValue::from(step_downs)),
        ("ladder_step_ups", JsonValue::from(step_ups)),
        ("elastic", JsonValue::from(plan.elastic)),
        ("elastic_spawns", JsonValue::from(elastic_spawns)),
        ("elastic_retires", JsonValue::from(elastic_retires)),
        ("elastic_rollbacks", JsonValue::from(elastic_rollbacks)),
        ("net", JsonValue::from(plan.net.is_some())),
        ("net_retransmits", JsonValue::from(retransmits)),
        ("net_hedges", JsonValue::from(hedges)),
        ("net_hedge_wins", JsonValue::from(hedge_wins)),
        ("net_dedup_absorbed", JsonValue::from(dedup_absorbed)),
        ("net_suspicions", JsonValue::from(suspicions)),
    ];
    if plan.net.is_some() {
        // Only with the transport on, so transport-free campaign bytes
        // stay as they were.
        summary.push((
            "net_partition_suspicions",
            JsonValue::from(partition_suspicions),
        ));
    }
    summary.push(("net_double_applied", JsonValue::from(double_applied)));
    let doc = JsonValue::object([
        ("seed", JsonValue::from(plan.seed)),
        ("factor", JsonValue::from(u64::from(plan.factor))),
        (
            "engines_per_shard",
            JsonValue::from(plan.engines_per_shard as u64),
        ),
        (
            "profile",
            JsonValue::object([
                (
                    "workloads",
                    JsonValue::Array(
                        profile
                            .names
                            .iter()
                            .map(|n| JsonValue::from(n.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "eve_cycles",
                    JsonValue::Array(profile.eve_cycles.iter().map(|&c| c.into()).collect()),
                ),
                (
                    "fallback_cycles",
                    JsonValue::Array(profile.fallback_cycles.iter().map(|&c| c.into()).collect()),
                ),
            ]),
        ),
        ("summary", JsonValue::object(summary)),
        ("runs", JsonValue::Array(rows)),
    ]);
    println!("{}", doc.to_pretty());
    if !errors.is_empty() || total_sdc > 0 || double_applied > 0 {
        std::process::exit(1);
    }
}
