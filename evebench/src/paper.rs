//! The paper stack: (kernel, system) cells run through `Runner::run`,
//! and a traced driver that times each layer's public calls.
//!
//! The traced driver rebuilds the runner's loop by hand — the
//! interpreter steps a chunk of instructions, `Characterization`
//! records them, and the core retires them — and times each phase
//! separately. Splitting the loop is sound because the interpreter
//! never reads timing state. Vector units are wrapped in [`Timed`], a
//! shim implementing the public `VectorUnit` trait, so the core's own
//! time can be separated from the unit it drives. Every traced cell
//! must reproduce `Runner::run`'s cycles, instruction count and
//! statistics, or it counts as failed.

use crate::progress::Repeated;
use crate::util::{ns_since, rank_quantile, ratio, CpuTimer, Fnv};
use crate::Outcome;
use eve_common::{Cycle, Stats};
use eve_core::EveEngine;
use eve_cpu::{EngineError, IoCore, NoVector, O3Core, VectorPlacement, VectorUnit};
use eve_isa::{Characterization, Interpreter, MemEffect, Retired};
use eve_mem::{Hierarchy, HierarchyConfig, Level};
use eve_obs::Tracer;
use eve_sim::{Runner, SimError, SystemKind};
use eve_vector::DecoupledVector;
use eve_workloads::{Built, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Instructions the traced driver moves through each layer per timed
/// call batch.
const CHUNK: usize = 4096;

/// The 11 kernels of `Workload::suite()` at about a sixteenth of its
/// work, so that one pass over a workload's cells takes well under a
/// second and a run repeats every cell a few dozen times (see
/// [`crate::progress`]).
#[must_use]
pub fn suite() -> Vec<Workload> {
    vec![
        Workload::Vvadd { n: 4096 },
        Workload::Mmult { n: 76 },
        Workload::Kmeans {
            points: 1024,
            features: 34,
            clusters: 4,
        },
        Workload::Pathfinder { rows: 8, cols: 512 },
        Workload::Jacobi2d { n: 96, steps: 2 },
        Workload::Backprop {
            inputs: 3072,
            hidden: 16,
        },
        Workload::Sw { n: 128 },
        Workload::Spmv {
            rows: 24,
            cols: 1024,
            max_nnz: 256,
        },
        Workload::Histogram { n: 2048, bins: 256 },
        Workload::Blackscholes { n: 3072 },
        Workload::Scan { n: 3072 },
    ]
}

/// A paper workload: every kernel on every system.
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Kernels, at the sizes they are built at.
    pub kernels: Vec<Workload>,
    /// Simulated systems.
    pub systems: Vec<SystemKind>,
}

impl PaperSpec {
    /// The named paper workload, if `name` is one.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "paper_scalar" => Some(Self {
                kernels: suite()
                    .into_iter()
                    .filter(|w| ["kmeans", "backprop", "jacobi-2d", "sw"].contains(&w.name()))
                    .collect(),
                systems: vec![SystemKind::Io, SystemKind::O3],
            }),
            "paper_vector" => Some(Self {
                kernels: suite(),
                systems: vec![
                    SystemKind::O3Dv,
                    SystemKind::EveN(1),
                    SystemKind::EveN(8),
                    SystemKind::EveN(32),
                ],
            }),
            _ => None,
        }
    }

    /// Every (kernel, system) cell, kernel-major.
    #[must_use]
    pub fn cells(&self) -> Vec<(Workload, SystemKind)> {
        self.kernels
            .iter()
            .flat_map(|&w| self.systems.iter().map(move |&s| (w, s)))
            .collect()
    }
}

/// What a cell simulated: the numbers a speed-only change must leave
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired simulated instructions.
    pub dyn_insts: u64,
    /// Core, hierarchy and vector-unit statistics.
    pub stats: Stats,
}

impl CellResult {
    /// One digest line: the cell's cycles, instructions, and an FNV
    /// digest of every statistic.
    #[must_use]
    pub fn digest_line(&self, w: &Workload, s: SystemKind) -> String {
        let mut h = Fnv::default();
        for (k, v) in self.stats.iter() {
            h.write(k.as_bytes());
            h.write(&v.to_le_bytes());
        }
        format!(
            "digest cell {} {s} cycles={} insts={} stats={:016x}",
            w.name(),
            self.cycles,
            self.dyn_insts,
            h.finish()
        )
    }
}

/// One cell through the real entry point.
///
/// # Errors
///
/// Any [`SimError`], including a golden-output mismatch.
pub fn run_cell(w: &Workload, s: SystemKind) -> Result<CellResult, SimError> {
    let r = Runner::new().run(s, w)?;
    Ok(CellResult {
        cycles: r.cycles.0,
        dyn_insts: r.dyn_insts,
        stats: r.stats,
    })
}

/// Builds every kernel of `spec`: the paper workloads' set-up.
fn build_all(spec: &PaperSpec) {
    for w in &spec.kernels {
        black_box(w.build());
    }
}

/// What the timed passes measured, with the first pass's results.
struct Passes {
    /// Building every kernel, repeated once per pass.
    setup: Repeated,
    /// Per cell: its `Runner::run`, repeated once per pass.
    cells: Vec<Repeated>,
    results: Vec<Result<CellResult, SimError>>,
    attempted: u64,
    failed: u64,
    consistent: bool,
}

/// Runs the set-up and then every cell once per pass, for as many
/// passes as fit in `seconds` of wall time (at least one). A later pass
/// that simulates anything differently marks the run inconsistent.
fn timed_passes(spec: &PaperSpec, cells: &[(Workload, SystemKind)], seconds: f64) -> Passes {
    let start = Instant::now();
    let mut p = Passes {
        setup: Repeated::default(),
        cells: vec![Repeated::default(); cells.len()],
        results: Vec::with_capacity(cells.len()),
        attempted: 0,
        failed: 0,
        consistent: true,
    };
    // Wall seconds of the latest set-up and of each cell's latest run.
    let mut last_setup = 0.0;
    let mut last_wall = vec![0.0; cells.len()];
    'passes: for pass in 0.. {
        if pass > 0 && start.elapsed().as_secs_f64() + last_setup > seconds {
            break;
        }
        let wall = Instant::now();
        p.setup.run(|| build_all(spec));
        last_setup = wall.elapsed().as_secs_f64();
        for (i, (w, s)) in cells.iter().enumerate() {
            if pass > 0 && start.elapsed().as_secs_f64() + last_wall[i] > seconds {
                break 'passes;
            }
            let wall = Instant::now();
            let r = p.cells[i].run(|| run_cell(w, *s));
            last_wall[i] = wall.elapsed().as_secs_f64();
            p.attempted += 1;
            if r.is_err() {
                p.failed += 1;
            }
            if pass == 0 {
                p.results.push(r);
            } else if r != p.results[i] {
                p.consistent = false;
            }
        }
    }
    for (c, (w, s)) in p.cells.iter().zip(cells) {
        if !c.aligned() {
            eprintln!(
                "{} on {s}: repetitions allocated differently; timed whole",
                w.name()
            );
        }
    }
    p
}

/// The untraced run: set-up, then the timed cells.
#[must_use]
pub fn run(spec: &PaperSpec, seconds: f64) -> Outcome {
    let cells = spec.cells();
    let p = timed_passes(spec, &cells, seconds);
    let mut out = Outcome::new(p.attempted, p.failed, p.consistent);
    let ok: Vec<&CellResult> = p.results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let host_s: f64 = p.cells.iter().map(Repeated::seconds).sum();
    let insts: u64 = ok.iter().map(|r| r.dyn_insts).sum();
    let mut kcycles: Vec<u64> = ok.iter().map(|r| r.cycles).collect();
    kcycles.sort_unstable();
    let served = ok.len() as f64 / cells.len() as f64;
    out.digests = digest_lines(&cells, &p.results);
    out.set("setup_s", p.setup.seconds());
    out.set("host_s", host_s);
    out.set("ns_per_inst", ratio(host_s * 1e9, insts as f64));
    out.set("ns_per_req", host_s * 1e9 / cells.len() as f64);
    out.set("peak_rss_mb", crate::util::peak_rss_mb());
    out.set("availability", served);
    out.set("goodput", served);
    out.set(
        "p50_sojourn_kcycles",
        rank_quantile(&kcycles, 0.50) as f64 / 1e3,
    );
    out.set(
        "p99_sojourn_kcycles",
        rank_quantile(&kcycles, 0.99) as f64 / 1e3,
    );
    out
}

fn digest_lines(
    cells: &[(Workload, SystemKind)],
    results: &[Result<CellResult, SimError>],
) -> Vec<String> {
    let mut all = Fnv::default();
    let mut lines: Vec<String> = cells
        .iter()
        .zip(results)
        .map(|((w, s), r)| match r {
            Ok(c) => c.digest_line(w, *s),
            Err(e) => format!("digest cell {} {s} error={e}", w.name()),
        })
        .inspect(|l| all.write(l.as_bytes()))
        .collect();
    lines.push(format!("digest workload {:016x}", all.finish()));
    lines
}

/// Host time a [`Timed`] unit spent inside its inner unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitTime {
    /// Nanoseconds in `issue` and `drain`.
    pub ns: u64,
    /// Vector instructions issued.
    pub issued: u64,
}

/// A `VectorUnit` shim that times every call into the unit it wraps
/// and otherwise forwards unchanged.
#[derive(Debug)]
pub struct Timed<V> {
    inner: V,
    time: UnitTime,
}

impl<V> Timed<V> {
    /// Wraps `inner`.
    pub fn new(inner: V) -> Self {
        Self {
            inner,
            time: UnitTime::default(),
        }
    }
}

impl<V: VectorUnit> VectorUnit for Timed<V> {
    fn hw_vl(&self) -> u32 {
        self.inner.hw_vl()
    }

    fn issue(
        &mut self,
        r: &Retired,
        ready: Cycle,
        commit: Cycle,
        mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError> {
        let t = Instant::now();
        let placed = self.inner.issue(r, ready, commit, mem);
        self.time.ns += ns_since(t);
        self.time.issued += 1;
        placed
    }

    fn drain(&mut self, mem: &mut Hierarchy) -> Cycle {
        let t = Instant::now();
        let done = self.inner.drain(mem);
        self.time.ns += ns_since(t);
        done
    }

    fn stats(&self) -> Stats {
        self.inner.stats()
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.inner.attach_tracer(tracer);
    }
}

/// The timing-model surface the traced driver needs from a core.
trait Core {
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError>;
    fn finish(&mut self) -> Cycle;
    fn stats(&self) -> Stats;
    fn hw_vl(&self) -> u32;
    fn unit_time(&self) -> UnitTime;
}

impl Core for IoCore {
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        IoCore::retire(self, r)
    }
    fn finish(&mut self) -> Cycle {
        IoCore::finish(self)
    }
    fn stats(&self) -> Stats {
        IoCore::stats(self)
    }
    fn hw_vl(&self) -> u32 {
        1
    }
    fn unit_time(&self) -> UnitTime {
        UnitTime::default()
    }
}

impl<V: VectorUnit> Core for O3Core<Timed<V>> {
    fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        O3Core::retire(self, r)
    }
    fn finish(&mut self) -> Cycle {
        O3Core::finish(self)
    }
    fn stats(&self) -> Stats {
        O3Core::stats(self)
    }
    fn hw_vl(&self) -> u32 {
        O3Core::hw_vl(self)
    }
    fn unit_time(&self) -> UnitTime {
        self.vector_unit().time
    }
}

/// Host nanoseconds per layer for one traced cell, plus the counts
/// the per-layer ratios divide by.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// `Interpreter::step`.
    pub interp_ns: u64,
    /// `Characterization::record`.
    pub record_ns: u64,
    /// Core `retire` and `finish`, vector unit included.
    pub retire_ns: u64,
    /// The vector unit alone.
    pub unit: UnitTime,
    /// Replaying the scalar data addresses through a fresh hierarchy.
    pub replay_ns: u64,
    /// Scalar data accesses replayed.
    pub replay_accesses: u64,
    /// The replay hierarchy's statistics.
    pub replay_stats: Stats,
}

/// A traced cell: what it simulated and where the host time went.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// Must equal `Runner::run`'s result.
    pub result: CellResult,
    /// Per-layer host time.
    pub layers: LayerTimes,
}

/// Replays a chunk's scalar data accesses through `h`. Loads wait for
/// their data; stores retire a cycle later.
fn replay(h: &mut Hierarchy, now: &mut Cycle, chunk: &[Retired]) -> u64 {
    let mut n = 0;
    for r in chunk {
        if let MemEffect::Scalar { addr, store, .. } = r.mem {
            let a = h.access(Level::L1D, addr, store, *now);
            *now = if store { *now } else { a.complete.max(*now) } + Cycle(1);
            n += 1;
        }
    }
    n
}

fn drive<C: Core>(mut core: C, built: &Built, vector: bool) -> Result<TracedCell, SimError> {
    let program = if vector { &built.vector } else { &built.scalar };
    let mut interp = Interpreter::new(program.clone(), built.memory.clone(), core.hw_vl());
    let mut charz = Characterization::new();
    let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
    let mut mem_now = Cycle(0);
    let mut lt = LayerTimes::default();
    let mut chunk: Vec<Retired> = Vec::with_capacity(CHUNK);
    loop {
        let t = Instant::now();
        while chunk.len() < CHUNK {
            match interp.step()? {
                Some(r) => chunk.push(r),
                None => break,
            }
        }
        lt.interp_ns += ns_since(t);
        let t = Instant::now();
        for r in &chunk {
            charz.record(r);
        }
        lt.record_ns += ns_since(t);
        let t = Instant::now();
        for r in &chunk {
            core.retire(r)?;
        }
        lt.retire_ns += ns_since(t);
        let t = Instant::now();
        lt.replay_accesses += replay(&mut mem, &mut mem_now, &chunk);
        lt.replay_ns += ns_since(t);
        if chunk.len() < CHUNK {
            break;
        }
        chunk.clear();
    }
    black_box(&charz);
    let t = Instant::now();
    let cycles = core.finish();
    lt.retire_ns += ns_since(t);
    built
        .verify(interp.memory())
        .map_err(SimError::Verification)?;
    lt.unit = core.unit_time();
    lt.replay_stats = mem.collect_stats();
    Ok(TracedCell {
        result: CellResult {
            cycles: cycles.0,
            dyn_insts: interp.retired_count(),
            stats: core.stats(),
        },
        layers: lt,
    })
}

/// One cell through the traced driver.
///
/// # Errors
///
/// Any [`SimError`] the runner would return for the same cell, and
/// [`SimError::Config`] for a system the driver does not model.
pub fn traced_cell(w: &Workload, s: SystemKind) -> Result<TracedCell, SimError> {
    let built = w.build();
    let cfg = HierarchyConfig::table_iii();
    match s {
        SystemKind::Io => drive(IoCore::with_config(cfg), &built, false),
        SystemKind::O3 => drive(O3Core::with_unit(Timed::new(NoVector), cfg), &built, false),
        SystemKind::O3Dv => drive(
            O3Core::with_unit(Timed::new(DecoupledVector::new()), cfg),
            &built,
            true,
        ),
        SystemKind::EveN(n) => {
            let engine = EveEngine::new(n).map_err(|e| SimError::Config(e.to_string()))?;
            drive(O3Core::with_unit(Timed::new(engine), cfg), &built, true)
        }
        SystemKind::O3Iv => Err(SimError::Config(
            "the traced driver does not model O3+IV".into(),
        )),
    }
}

/// Sums of the per-layer numbers over the traced cells.
#[derive(Debug, Default)]
struct Totals {
    insts: u64,
    interp_ns: u64,
    record_ns: u64,
    io_ns: u64,
    io_insts: u64,
    o3_self_ns: u64,
    o3_insts: u64,
    replay_ns: u64,
    replay_accesses: u64,
    replay: Stats,
    eve_ns: u64,
    eve_vinsts: u64,
    eve_cycles: u64,
    dv_ns: u64,
    dv_vinsts: u64,
    uprog_hits: u64,
    uprog_misses: u64,
}

impl Totals {
    fn add(&mut self, s: SystemKind, c: &TracedCell) {
        let l = &c.layers;
        let insts = c.result.dyn_insts;
        self.insts += insts;
        self.interp_ns += l.interp_ns;
        self.record_ns += l.record_ns;
        self.replay_ns += l.replay_ns;
        self.replay_accesses += l.replay_accesses;
        self.replay.merge(&l.replay_stats);
        if s == SystemKind::Io {
            self.io_ns += l.retire_ns;
            self.io_insts += insts;
        } else {
            self.o3_self_ns += l.retire_ns.saturating_sub(l.unit.ns);
            self.o3_insts += insts;
        }
        match s {
            SystemKind::EveN(_) => {
                self.eve_ns += l.unit.ns;
                self.eve_vinsts += l.unit.issued;
                self.eve_cycles += c.result.cycles;
                self.uprog_hits += c.result.stats.get("vsu.uprog_cache_hits");
                self.uprog_misses += c.result.stats.get("vsu.uprog_cache_misses");
            }
            SystemKind::O3Dv => {
                self.dv_ns += l.unit.ns;
                self.dv_vinsts += l.unit.issued;
            }
            _ => {}
        }
    }

    fn miss_ratio(&self, level: &str) -> f64 {
        let misses = self.replay.get(&format!("{level}.misses")) as f64;
        let hits = self.replay.get(&format!("{level}.hits")) as f64;
        ratio(misses, hits + misses)
    }
}

/// The traced run: every cell once through `Runner::run` and once
/// through the traced driver, which must reproduce it. The two run
/// back to back, in alternating order so neither side always runs on
/// a colder process.
#[must_use]
pub fn run_traced(spec: &PaperSpec) -> Outcome {
    let t = CpuTimer::start();
    build_all(spec);
    let build_s = t.seconds();
    let cells = spec.cells();
    let mut totals = Totals::default();
    let mut results = Vec::with_capacity(cells.len());
    let (mut failed, mut untraced_ns, mut traced_ns) = (0u64, 0u64, 0u64);
    for (i, (w, s)) in cells.iter().enumerate() {
        let mut want = None;
        let mut got = None;
        for side in [i % 2, 1 - i % 2] {
            let t = Instant::now();
            if side == 0 {
                want = Some(run_cell(w, *s));
                untraced_ns += ns_since(t);
            } else {
                let c = traced_cell(w, *s);
                traced_ns +=
                    ns_since(t).saturating_sub(c.as_ref().map_or(0, |c| c.layers.replay_ns));
                got = Some(c);
            }
        }
        let (want, got) = (want.expect("ran untraced"), got.expect("ran traced"));
        match (&want, got) {
            (Ok(want), Ok(c)) if c.result == *want => totals.add(*s, &c),
            (_, got) => {
                failed += 1;
                if let Ok(c) = got {
                    eprintln!(
                        "traced {} on {s} diverged from Runner::run: {} cycles / {} insts",
                        w.name(),
                        c.result.cycles,
                        c.result.dyn_insts
                    );
                }
            }
        }
        results.push(want);
    }
    let t = &totals;
    let per_inst = |ns: u64| ratio(ns as f64, t.insts as f64);
    let mut out = Outcome::new(cells.len() as u64, failed, true);
    out.digests = digest_lines(&cells, &results);
    out.set("workloads.build_s", build_s);
    out.set("isa.interp_ns_per_inst", per_inst(t.interp_ns));
    out.set("isa.characterize_ns_per_inst", per_inst(t.record_ns));
    out.set(
        "cpu.io_self_ns_per_inst",
        ratio(t.io_ns as f64, t.io_insts as f64),
    );
    out.set(
        "cpu.o3_self_ns_per_inst",
        ratio(t.o3_self_ns as f64, t.o3_insts as f64),
    );
    out.set(
        "mem.ns_per_access",
        ratio(t.replay_ns as f64, t.replay_accesses as f64),
    );
    out.set(
        "mem.accesses_per_inst",
        ratio(t.replay_accesses as f64, t.insts as f64),
    );
    out.set("mem.l1d_miss_ratio", t.miss_ratio("l1d"));
    out.set("mem.l2_miss_ratio", t.miss_ratio("l2"));
    out.set("mem.llc_miss_ratio", t.miss_ratio("llc"));
    out.set(
        "core.eve_ns_per_sim_cycle",
        ratio(t.eve_ns as f64, t.eve_cycles as f64),
    );
    out.set(
        "core.eve_ns_per_vinst",
        ratio(t.eve_ns as f64, t.eve_vinsts as f64),
    );
    out.set(
        "vector.dv_ns_per_vinst",
        ratio(t.dv_ns as f64, t.dv_vinsts as f64),
    );
    out.set(
        "core.uprog_cache_hit_ratio",
        ratio(t.uprog_hits as f64, (t.uprog_hits + t.uprog_misses) as f64),
    );
    out.set(
        "trace.overhead_ratio",
        ratio(traced_ns as f64, untraced_ns as f64),
    );
    out
}
