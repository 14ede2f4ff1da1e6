//! The serving stack: `ServiceProfile::measured` → `ClusterSim::new`
//! → `ClusterSim::run`, on seeded multi-tenant open-loop traffic.

use crate::progress::Repeated;
use crate::util::{digest, median, peak_rss_mb, ratio, reset_peak_rss, rss_mb, CpuTimer};
use crate::Outcome;
use eve_common::SplitMix64;
use eve_core::EveEngine;
use eve_cpu::VectorUnit;
use eve_isa::Interpreter;
use eve_obs::Tracer;
use eve_serve::{
    arrivals, audit_cluster, tenant_mix, ClusterConfig, ClusterReport, ClusterSim, ClusterTraffic,
    FaultStorm, MsgClass, NetPolicy, ServiceProfile, TrafficShape,
};
use eve_workloads::Workload;
use std::hint::black_box;
use std::time::Instant;

/// EVE factor the service profile is measured at.
const FACTOR: u32 = 8;
/// Engines per shard; also the profile's contention-sweep pool.
const ENGINES: usize = 4;
/// Timed runs between two measurements of the profile, which repeat
/// through the timed phase for `setup_s`.
const PROFILE_EVERY: usize = 5;
/// Trace-buffer events reserved per request; the traced run also
/// checks that nothing was dropped.
const EVENTS_PER_REQ: usize = 64;

/// A serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Shards behind the router.
    pub shards: usize,
    /// Requests in the whole workload, which gives the service-quality
    /// metrics.
    pub requests: usize,
    /// Requests in each timed run: the first ones of the same inputs.
    /// Short runs repeat often enough in one benchmark run for
    /// [`crate::progress`] to take the host's interference out.
    pub timed_requests: usize,
    /// Offered load as a share of nominal pool capacity (one request
    /// per mean EVE service time per engine); `None` offers one request
    /// per mean EVE service time to the whole cluster.
    pub load: Option<f64>,
    /// The lossy transport, or `None` for the transport off.
    pub loss: Option<f64>,
}

impl ClusterSpec {
    /// The named serving workload, if `name` is one.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "cluster_lossy" => Some(Self {
                shards: 16,
                requests: 20_000,
                timed_requests: 2_000,
                load: None,
                loss: Some(0.05),
            }),
            "cluster_ideal" => Some(Self {
                shards: 64,
                requests: 1_000_000,
                timed_requests: 50_000,
                load: Some(0.25),
                loss: None,
            }),
            _ => None,
        }
    }

    /// The cluster configuration and traffic for `seed` against
    /// `profile`.
    #[must_use]
    pub fn inputs(&self, profile: &ServiceProfile, seed: u64) -> (ClusterConfig, ClusterTraffic) {
        let mut rng = SplitMix64::new(seed);
        let mean = profile.mean_eve_cycles();
        let mean_gap = match self.load {
            Some(load) => {
                let engines = (self.shards * ENGINES) as f64;
                ((mean as f64 / (engines * load)).round() as u64).max(1)
            }
            None => mean,
        };
        let cfg = ClusterConfig {
            shards: self.shards,
            engines_per_shard: ENGINES,
            net: self.loss.map_or_else(NetPolicy::default, NetPolicy::lossy),
            seed: rng.next_u64(),
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: self.requests,
            mean_gap,
            shape: TrafficShape::Uniform,
            tenants: tenant_mix(3),
            seed: rng.next_u64(),
            ..ClusterTraffic::default()
        };
        (cfg, traffic)
    }
}

/// The kernels requests draw from.
fn kernels() -> Vec<Workload> {
    Workload::tiny_suite()
}

/// Measures the service profile the cluster prices work with.
///
/// # Panics
///
/// If the tiny suite fails to simulate — a simulator bug.
#[must_use]
pub fn measure_profile() -> ServiceProfile {
    ServiceProfile::measured(FACTOR, &kernels(), ENGINES).expect("the tiny suite simulates")
}

/// Simulated instructions each kernel retires on the profile's EVE
/// engine, index-aligned with the profile.
fn kernel_insts() -> Vec<u64> {
    let hw_vl = EveEngine::new(FACTOR).expect("EVE-8 is valid").hw_vl();
    kernels()
        .iter()
        .map(|w| {
            let b = w.build();
            Interpreter::new(b.vector, b.memory, hw_vl)
                .run_to_halt()
                .expect("tiny kernels halt")
        })
        .collect()
}

/// Why a report fails the identities every run must keep, if it does.
#[must_use]
pub fn broken_identity(r: &ClusterReport) -> Option<String> {
    if r.sdc != 0 {
        return Some(format!("sdc = {}", r.sdc));
    }
    if r.net.double_applied != 0 {
        return Some(format!("double_applied = {}", r.net.double_applied));
    }
    if r.executed_ok != r.completed_eve + r.wasted_executions {
        return Some("executed_ok != completed_eve + wasted_executions".into());
    }
    for link in &r.links {
        for class in MsgClass::ALL {
            let c = link.class(class);
            if c.sent != c.delivered + c.dropped || c.in_flight != 0 {
                return Some(format!("link {} {class:?} does not balance", link.shard));
            }
        }
    }
    None
}

/// One run's outputs and host time.
struct RunOut {
    report: ClusterReport,
    json: String,
    /// CPU seconds in `ClusterSim::new`.
    new_s: f64,
}

/// Builds a `ClusterSim` and runs it as the next repetition of `run`.
fn run_once(
    profile: &ServiceProfile,
    cfg: ClusterConfig,
    traffic: &ClusterTraffic,
    tracer: Option<&Tracer>,
    run: &mut Repeated,
) -> RunOut {
    let t = CpuTimer::start();
    let mut sim = ClusterSim::new(cfg, profile.clone(), traffic.clone(), FaultStorm::none())
        .expect("the benchmark's cluster configuration is valid");
    let new_s = t.seconds();
    if let Some(tr) = tracer {
        sim = sim.with_tracer(tr);
    }
    let report = run.run(|| sim.run());
    let json = report.to_json().to_compact();
    RunOut {
        report,
        json,
        new_s,
    }
}

/// One run of `ClusterSim` and its CPU seconds.
fn run_timed(
    profile: &ServiceProfile,
    cfg: ClusterConfig,
    traffic: &ClusterTraffic,
    tracer: Option<&Tracer>,
) -> (RunOut, f64) {
    let mut run = Repeated::default();
    let out = run_once(profile, cfg, traffic, tracer, &mut run);
    (out, run.seconds())
}

/// The digest line of a report's JSON.
fn report_digest(json: &str) -> String {
    format!(
        "digest report {:016x} ({} bytes)",
        digest(json.as_bytes()),
        json.len()
    )
}

/// Attempted and failed requests for one report: a broken identity
/// (a wrong answer is one: `sdc == 0`) fails every request. Shed and
/// late requests are the modelled service outcome, reported as
/// `availability` and `goodput`.
fn failures(r: &ClusterReport) -> (u64, u64) {
    let attempted = r.arrivals;
    match broken_identity(r) {
        Some(why) => {
            eprintln!("report identity broken: {why}");
            (attempted, attempted)
        }
        None => (attempted, 0),
    }
}

/// The untraced run: the profile; one run of the whole workload,
/// which gives the service-quality metrics; then, for the rest of
/// `seconds`, fresh `ClusterSim`s on the first `timed_requests`
/// requests of the same inputs (at least one run), with the profile
/// measured again after every [`PROFILE_EVERY`] of them.
#[must_use]
pub fn run(spec: &ClusterSpec, seed: u64, seconds: f64) -> Outcome {
    let mut measuring = Repeated::default();
    let profile = measuring.run(measure_profile);
    let insts = kernel_insts();
    let start = Instant::now();
    let (cfg, traffic) = spec.inputs(&profile, seed);
    let (whole, _) = run_timed(&profile, cfg, &traffic, None);
    let timed = ClusterTraffic {
        requests: spec.timed_requests,
        ..traffic
    };
    let mut running = Repeated::default();
    let mut runs: Vec<RunOut> = Vec::new();
    loop {
        let wall = Instant::now();
        if !runs.is_empty() && runs.len().is_multiple_of(PROFILE_EVERY) {
            black_box(measuring.run(measure_profile));
        }
        runs.push(run_once(&profile, cfg, &timed, None, &mut running));
        if start.elapsed().as_secs_f64() + wall.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    if !running.aligned() || !measuring.aligned() {
        eprintln!("cluster runs or profiles allocated differently; timed whole");
    }
    let first = &runs[0];
    let consistent = runs.iter().all(|r| r.json == first.json);
    let (mut attempted, mut failed) = failures(&whole.report);
    for r in &runs {
        let (a, f) = failures(&r.report);
        attempted += a;
        failed += f;
    }
    let new_s = median(&runs.iter().map(|r| r.new_s).collect::<Vec<_>>());
    let host_s = running.seconds();
    let offered: u64 = arrivals(&timed, profile.len(), &[])
        .iter()
        .map(|a| insts[a.workload])
        .sum();
    let rep = &whole.report;
    let mut out = Outcome::new(attempted, failed, consistent);
    out.digests = vec![
        format!("{} whole", report_digest(&whole.json)),
        format!("{} timed", report_digest(&first.json)),
    ];
    out.set("setup_s", measuring.seconds() + new_s);
    out.set("host_s", host_s);
    out.set("ns_per_inst", ratio(host_s * 1e9, offered as f64));
    out.set(
        "ns_per_req",
        ratio(host_s * 1e9, first.report.arrivals as f64),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("availability", rep.availability);
    out.set("goodput", rep.goodput);
    out.set("p50_sojourn_kcycles", rep.p50_sojourn as f64 / 1e3);
    out.set("p99_sojourn_kcycles", rep.p99_sojourn as f64 / 1e3);
    out
}

/// The traced run: untraced, traced and untraced again on the same
/// inputs; the overhead ratio divides by the mean of the untraced
/// pair, so neither side always runs on a colder process. The traced
/// run carries a tracer sized so nothing drops, and must pass
/// `audit_cluster` and match the untraced reports byte for byte;
/// otherwise every request counts as failed.
#[must_use]
pub fn run_traced(spec: &ClusterSpec, seed: u64) -> Outcome {
    let t = CpuTimer::start();
    for w in kernels() {
        black_box(w.build());
    }
    let build_s = t.seconds();
    let t = CpuTimer::start();
    let profile = measure_profile();
    let measure_s = t.seconds();
    let profile_peak = peak_rss_mb();
    let (cfg, traffic) = spec.inputs(&profile, seed);
    if !reset_peak_rss() {
        eprintln!("cannot reset the RSS high-water mark; cluster.rss_growth_mb includes set-up");
    }
    let before = rss_mb();
    let (plain, plain_s) = run_timed(&profile, cfg, &traffic, None);
    let growth = peak_rss_mb() - before;
    let tracer = Tracer::with_capacity(spec.requests * EVENTS_PER_REQ + 1_000_000);
    let (traced, traced_s) = run_timed(&profile, cfg, &traffic, Some(&tracer));
    let (again, again_s) = run_timed(&profile, cfg, &traffic, None);
    let (attempted, mut failed) = failures(&traced.report);
    let dropped = tracer.dropped();
    let audit = audit_cluster(&tracer, &traced.report);
    let same = traced.json == plain.json && again.json == plain.json;
    if dropped > 0 || audit.is_err() || !same {
        eprintln!(
            "traced run rejected: dropped {dropped}, audit {:?}, reports match: {same}",
            audit.err(),
        );
        failed = attempted;
    }
    let r = &traced.report;
    let per_req = |x: u64| ratio(x as f64, r.arrivals as f64);
    let sent = |class: MsgClass| -> u64 { r.links.iter().map(|l| l.class(class).sent).sum() };
    let msgs: u64 = MsgClass::ALL.iter().map(|&c| sent(c)).sum();
    let mut out = Outcome::new(attempted, failed, true);
    out.digests = vec![report_digest(&plain.json)];
    out.set("workloads.build_s", build_s);
    out.set("profile.measure_s", measure_s);
    out.set("shape.new_s", plain.new_s);
    out.set("net.heartbeats_per_req", per_req(sent(MsgClass::Heartbeat)));
    out.set("net.msgs_per_req", per_req(msgs));
    out.set("net.retransmits_per_req", per_req(r.net.retransmits));
    out.set(
        "net.hedge_win_ratio",
        ratio(r.net.hedge_wins as f64, r.net.hedges as f64),
    );
    out.set(
        "net.wasted_exec_ratio",
        ratio(r.wasted_executions as f64, r.executed_ok as f64),
    );
    out.set("net.suspicions", r.net.suspicions as f64);
    out.set("degrade.step_downs", r.step_downs() as f64);
    out.set("cluster.run_s", plain_s);
    out.set(
        "batch.mean_size",
        ratio(r.batched_requests as f64, r.dispatches as f64),
    );
    out.set("queue.shed_share", per_req(r.shed()));
    out.set("cluster.rss_growth_mb", growth);
    out.set("profile.peak_rss_mb", profile_peak);
    out.set(
        "trace.overhead_ratio",
        ratio(2.0 * traced_s, plain_s + again_s),
    );
    out
}
