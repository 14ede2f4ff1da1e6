//! The engine proper: VCU + VSU + VMU + VRU + DTUs on two decoupled
//! timelines (compute and memory), with full Fig 7 cycle attribution.

use crate::mapping::macro_ops;
use crate::stats::StallBreakdown;
use eve_common::{ConfigError, ConfigResult, Counter, Cycle, Stats};
use eve_cpu::{EngineError, VectorPlacement, VectorUnit};
use eve_isa::{Inst, MemEffect, RegId, Retired, VStride};
use eve_mem::{Hierarchy, Level, Tlb, LINE_BYTES};
use eve_obs::Tracer;
use eve_sram::{LayoutModel, SramGeometry};
use eve_uop::fuse::{self, TierProfile, TierStats};
use eve_uop::{HybridConfig, LatencyTable, MacroOpKind};
use std::collections::{HashMap, VecDeque};

/// Static track names for the first DTUs; higher slots share "dtu".
#[cfg(feature = "obs")]
const DTU_TRACKS: [&str; 8] = [
    "dtu0", "dtu1", "dtu2", "dtu3", "dtu4", "dtu5", "dtu6", "dtu7",
];

#[cfg(feature = "obs")]
fn dtu_track(slot: usize) -> &'static str {
    DTU_TRACKS.get(slot).copied().unwrap_or("dtu")
}

/// EVE arrays available when half of the 512 KB L2's ways are donated:
/// 256 KB of 8 KB arrays (two banked 256×128 sub-arrays each).
pub const EVE_ARRAYS: u32 = 32;
/// Extra μop cycles for a mask prologue on `v0.t`-masked instructions.
const MASK_PROLOGUE: u64 = 2;

/// Tunable engine parameters (defaults match the paper; the ablation
/// benches sweep them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTuning {
    /// Data transpose units (§VII-B: the paper uses eight, each half a
    /// sub-array).
    pub dtus: usize,
    /// VCU instruction-queue depth.
    pub queue_depth: usize,
    /// VRU pipeline depth for the dot + linear reduction (§V-D).
    pub vru_pipeline: u64,
    /// VSU execution pipes. The paper's EVE has one (Table III);
    /// values above one explore the §IX future-work idea of dynamic
    /// μop scheduling: independent compute macro-ops dispatch onto
    /// separate array groups and overlap.
    pub exec_pipes: usize,
}

impl Default for EngineTuning {
    fn default() -> Self {
        Self {
            dtus: 8,
            queue_depth: 8,
            vru_pipeline: 40,
            exec_pipes: 1,
        }
    }
}

/// How the detection layer protects each SRAM row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EccMode {
    /// No per-row protection; nothing is charged.
    Off,
    /// One interleaved parity bit per row: detect-only, escalation
    /// handles repair.
    #[default]
    Parity,
    /// SECDED Hamming+P check planes per row: single-bit errors are
    /// corrected in place, double-bit errors flagged uncorrectable.
    Secded,
}

/// Timing model of the detection layer: parity or SECDED check planes
/// per SRAM row, verified when a μprogram reads its operand rows. The
/// checker is a narrow tree shared per array, so it retires a few rows
/// per cycle; the charge lands in the `parity_stall` breakdown bucket.
/// SECDED additionally pays per corrected event (`ecc_correct_stall`),
/// per remapped row (`remap_stall`), and — when a scrub interval is
/// set — a periodic background sweep (`scrub_stall`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Protection scheme per row.
    pub mode: EccMode,
    /// Check-plane rows the shared checker verifies per cycle.
    pub check_rows_per_cycle: u64,
    /// Background scrub period in VSU cycles (0 disables scrubbing).
    pub scrub_interval_cycles: u64,
    /// Read-modify-write cycles to repair one corrected event.
    pub ecc_correct_cycles: u64,
    /// Cycles to copy one retired row into its spare and update the
    /// remap latches.
    pub remap_cycles: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            mode: EccMode::Parity,
            check_rows_per_cycle: 4,
            scrub_interval_cycles: 0,
            ecc_correct_cycles: 3,
            remap_cycles: 64,
        }
    }
}

impl ResilienceConfig {
    /// The SECDED preset: correct-in-place with a background scrub
    /// every 4096 VSU cycles.
    #[must_use]
    pub fn secded() -> Self {
        Self {
            mode: EccMode::Secded,
            scrub_interval_cycles: 4096,
            ..Self::default()
        }
    }

    /// Cycles to verify both operand registers of a compute macro-op
    /// (`segments` rows each). Zero when protection is off.
    #[must_use]
    pub fn check_cycles(&self, segments: u64) -> Cycle {
        if matches!(self.mode, EccMode::Off) {
            return Cycle::ZERO;
        }
        Cycle((2 * segments).div_ceil(self.check_rows_per_cycle.max(1)))
    }

    /// Cycles for one background scrub sweep over the register file
    /// (32 vregs × `segments` rows, through the same shared checker).
    #[must_use]
    pub fn scrub_cycles(&self, segments: u64) -> Cycle {
        Cycle((32 * segments).div_ceil(self.check_rows_per_cycle.max(1)))
    }
}

/// The ephemeral vector engine.
#[derive(Debug)]
pub struct EveEngine {
    cfg: HybridConfig,
    tuning: EngineTuning,
    hw_vl: u32,
    segments: u64,
    lat: LatencyTable,
    spawned: bool,
    queue_done: VecDeque<Cycle>,
    /// VSU/compute timeline (pipe 0; memory and VRU traffic always
    /// use this one).
    vsu_now: Cycle,
    /// Additional compute pipes (§IX exploration); empty in the
    /// paper's single-pipe configuration.
    extra_pipes: Vec<Cycle>,
    /// VMU request-generation timeline.
    vmu_now: Cycle,
    vru_free: Cycle,
    dtu_free: Vec<Cycle>,
    dtu_rr: usize,
    vreg_ready: [Cycle; 32],
    pending_store_done: Cycle,
    breakdown: StallBreakdown,
    /// Detection-layer timing model, when fault checking is enabled.
    resilience: Option<ResilienceConfig>,
    /// VSU time of the next background scrub sweep (SECDED only).
    next_scrub: Cycle,
    /// Cycles the VMU spent unable to issue to the LLC (Fig 8).
    llc_issue_stall: Cycle,
    tlb: Tlb,
    counters: EngineCounters,
    /// Per-macro-op compiled-tier profiles: the VSU's program cache,
    /// modeled. A macro-op's first issue is a miss (the specializer
    /// compiles while the interpreter runs); every later issue retires
    /// through the compiled tier.
    uprog_profiles: HashMap<MacroOpKind, TierProfile>,
    /// Tier-ladder counters mirroring the cache's lifetime.
    tier: TierStats,
    /// Reused scratch for per-instruction line-request lists, so the
    /// retire hot path allocates nothing.
    line_buf: Vec<u64>,
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    tracer: Option<Tracer>,
}

/// The engine's own counters, rendered by its `stats()`.
#[derive(Debug, Clone, Copy, Default)]
struct EngineCounters {
    ecc_correct_cycles: Counter,
    ecc_corrected_events: Counter,
    remap_cycles: Counter,
    remapped_rows: Counter,
    retires: Counter,
    scrub_cycles: Counter,
    scrub_sweeps: Counter,
    vmu_line_requests: Counter,
    loads: Counter,
    stores: Counter,
    vru_ops: Counter,
    compute_ops: Counter,
    uop_cycles: Counter,
    parity_check_cycles: Counter,
    spawn_commit_cycle: Counter,
    spawn_cycles: Counter,
    issued: Counter,
    queue_stall_cycles: Counter,
}

impl EveEngine {
    /// An EVE-`n` engine with the paper's default tuning.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n` is not a valid parallelization
    /// factor (1, 2, 4, 8, 16, 32).
    pub fn new(n: u32) -> ConfigResult<Self> {
        Self::with_tuning(n, EngineTuning::default())
    }

    /// An EVE-`n` engine with custom tuning (ablation studies).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `n` is invalid or the tuning is
    /// degenerate (zero DTUs with n < 32, zero queue depth).
    pub fn with_tuning(n: u32, tuning: EngineTuning) -> ConfigResult<Self> {
        let cfg = HybridConfig::new(n)?;
        if tuning.queue_depth == 0 {
            return Err(ConfigError::new("queue depth must be nonzero"));
        }
        if tuning.exec_pipes == 0 {
            return Err(ConfigError::new("need at least one exec pipe"));
        }
        if tuning.dtus == 0 && !cfg.is_bit_parallel() {
            return Err(ConfigError::new("transposed layouts need at least one DTU"));
        }
        let layout = LayoutModel::new(SramGeometry::PAPER, 32, 32, n)?;
        let hw_vl = layout.lanes() * EVE_ARRAYS;
        if hw_vl == 0 {
            return Err(ConfigError::new("layout yields zero lanes"));
        }
        Ok(Self {
            segments: u64::from(cfg.segments()),
            lat: LatencyTable::new(cfg),
            cfg,
            hw_vl,
            spawned: false,
            queue_done: VecDeque::new(),
            vsu_now: Cycle::ZERO,
            extra_pipes: vec![Cycle::ZERO; tuning.exec_pipes.saturating_sub(1)],
            vmu_now: Cycle::ZERO,
            vru_free: Cycle::ZERO,
            dtu_free: vec![Cycle::ZERO; tuning.dtus.max(1)],
            tuning,
            dtu_rr: 0,
            vreg_ready: [Cycle::ZERO; 32],
            pending_store_done: Cycle::ZERO,
            breakdown: StallBreakdown::default(),
            resilience: None,
            next_scrub: Cycle::ZERO,
            llc_issue_stall: Cycle::ZERO,
            tlb: Tlb::new(),
            counters: EngineCounters::default(),
            uprog_profiles: HashMap::new(),
            tier: TierStats::default(),
            line_buf: Vec::new(),
            tracer: None,
        })
    }

    /// The bit-hybrid configuration.
    #[must_use]
    pub fn config(&self) -> HybridConfig {
        self.cfg
    }

    /// The Fig 7 cycle attribution so far.
    #[must_use]
    pub fn breakdown(&self) -> &StallBreakdown {
        &self.breakdown
    }

    /// Enables the detection layer: every compute macro-op pays for
    /// verifying the check planes of its operand rows, and (with a
    /// scrub interval set) the VSU periodically pays for a background
    /// sweep of the whole register file.
    pub fn enable_resilience(&mut self, cfg: ResilienceConfig) {
        self.resilience = Some(cfg);
        self.next_scrub = self.vsu_now + Cycle(cfg.scrub_interval_cycles);
    }

    /// Charges `events` SECDED single-bit corrections to the VSU
    /// timeline (`ecc_correct_stall`). The functional array reports
    /// corrected-event counts after each op; the controller calls this
    /// so the repair writebacks show up in the attribution.
    pub fn charge_ecc_corrections(&mut self, events: u64) {
        let Some(res) = self.resilience else { return };
        let cost = Cycle(events.saturating_mul(res.ecc_correct_cycles.max(1)));
        if cost == Cycle::ZERO {
            return;
        }
        self.trace_vsu("ecc_correct_stall", "ecc_correct", self.vsu_now, cost);
        self.breakdown.ecc_correct_stall += cost;
        self.vsu_now += cost;
        self.counters.ecc_correct_cycles.add(cost.0);
        self.counters.ecc_corrected_events.add(events);
    }

    /// Charges `rows` spare-row remaps to the VSU timeline
    /// (`remap_stall`): each retired row is copied into its spare and
    /// the remap latches updated before execution resumes.
    pub fn charge_remaps(&mut self, rows: u64) {
        let Some(res) = self.resilience else { return };
        let cost = Cycle(rows.saturating_mul(res.remap_cycles.max(1)));
        if cost == Cycle::ZERO {
            return;
        }
        self.trace_vsu("remap_stall", "row_remap", self.vsu_now, cost);
        self.breakdown.remap_stall += cost;
        self.vsu_now += cost;
        self.counters.remap_cycles.add(cost.0);
        self.counters.remapped_rows.add(rows);
    }

    /// Retires the ephemeral engine: returns the donated L2 ways to
    /// the scalar cache via [`Hierarchy::despawn_vector_mode`] (free —
    /// the vector ways were invalidated at spawn and VMU stores write
    /// through, so there is nothing to flush, §V-E) and re-arms the
    /// lazy spawn, so the next vector instruction pays the full
    /// way-partition + flush cost again. A retired-then-respawned
    /// engine therefore accumulates `spawn_cycles` across its
    /// lifetimes, which is exactly the cost an elastic controller must
    /// weigh before bouncing an engine. No-op before the first spawn.
    pub fn retire(&mut self, mem: &mut Hierarchy, now: Cycle) -> Cycle {
        if !self.spawned {
            return now;
        }
        self.spawned = false;
        self.counters.retires.incr();
        mem.despawn_vector_mode(now)
    }

    /// Pays for any background scrub sweeps whose deadline has passed
    /// on the VSU timeline. Called on the compute path so scrub time
    /// serializes with μprogram execution, like a real port steal.
    fn charge_due_scrubs(&mut self) {
        let Some(res) = self.resilience else { return };
        if res.scrub_interval_cycles == 0 || !matches!(res.mode, EccMode::Secded) {
            return;
        }
        let interval = Cycle(res.scrub_interval_cycles);
        let cost = res.scrub_cycles(self.segments);
        while self.vsu_now >= self.next_scrub {
            self.trace_vsu("scrub_stall", "scrub_sweep", self.vsu_now, cost);
            self.breakdown.scrub_stall += cost;
            self.vsu_now += cost;
            self.counters.scrub_cycles.add(cost.0);
            self.counters.scrub_sweeps.incr();
            self.next_scrub += interval;
        }
    }

    /// The detection-layer configuration, if checking is enabled.
    #[must_use]
    pub fn resilience(&self) -> Option<ResilienceConfig> {
        self.resilience
    }

    /// Cycles the VMU could not issue to the LLC (Fig 8 numerator).
    #[must_use]
    pub fn llc_issue_stall(&self) -> Cycle {
        self.llc_issue_stall
    }

    /// Cycles per 64-byte line in a DTU: one pass per segment row;
    /// bit-parallel layout needs no transpose at all (§VII-B).
    fn dtu_line_cycles(&self) -> u64 {
        if self.cfg.is_bit_parallel() {
            0
        } else {
            self.segments
        }
    }

    /// Emits one attributed slice of the VSU timeline. Every cycle the
    /// breakdown accounts flows through here, so the `vsu` track tiles
    /// `[spawn, vsu_end)` exactly — the property the stall-attribution
    /// auditor replays (see `eve-sim`'s audit module).
    #[inline]
    fn trace_vsu(&self, cat: &'static str, name: &'static str, ts: Cycle, dur: Cycle) {
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            tr.span("vsu", cat, name, ts.0, dur.0);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (cat, name, ts, dur);
    }

    /// Advances the VSU timeline to `t`, attributing the gap to the
    /// breakdown bucket `category` selects; `cat` is the same bucket's
    /// name, as recorded by [`StallBreakdown::entries`].
    #[inline]
    fn advance_vsu(
        &mut self,
        t: Cycle,
        cat: &'static str,
        category: fn(&mut StallBreakdown) -> &mut Cycle,
    ) {
        if t > self.vsu_now {
            self.trace_vsu(cat, cat, self.vsu_now, t - self.vsu_now);
            *category(&mut self.breakdown) += t - self.vsu_now;
            self.vsu_now = t;
        }
    }

    #[inline]
    fn busy(&mut self, name: &'static str, cycles: Cycle) {
        self.trace_vsu("busy", name, self.vsu_now, cycles);
        self.breakdown.busy += cycles;
        self.vsu_now += cycles;
    }

    #[inline]
    fn vreg_dep_time(&self, r: &Retired) -> Cycle {
        let mut t = Cycle::ZERO;
        for dep in r.reads.iter().flatten() {
            if let RegId::V(v) = dep {
                t = t.max(self.vreg_ready[v.index() as usize]);
            }
        }
        t
    }

    #[inline]
    fn set_write_ready(&mut self, r: &Retired, t: Cycle) {
        if let Some(RegId::V(v)) = r.write {
            self.vreg_ready[v.index() as usize] = t;
        }
    }

    /// Collects a memory effect's deduplicated line requests into
    /// `lines` — a caller-owned scratch buffer (see `line_buf`), so
    /// the per-instruction hot path does not allocate.
    fn fill_line_requests(lines: &mut Vec<u64>, mem: &MemEffect) {
        lines.clear();
        match mem {
            MemEffect::VecUnit { base, bytes, .. } => {
                if *bytes == 0 {
                    return;
                }
                let first = base / LINE_BYTES;
                let last = (base + bytes - 1) / LINE_BYTES;
                lines.extend(first..=last);
            }
            MemEffect::VecStrided {
                base,
                stride,
                count,
                ..
            } => lines.extend(
                (0..u64::from(*count))
                    .map(|i| ((*base as i64 + stride * i as i64) as u64) / LINE_BYTES),
            ),
            MemEffect::VecIndexed { addrs, .. } => {
                lines.extend(addrs.iter().map(|a| a / LINE_BYTES));
            }
            _ => {}
        }
        lines.dedup();
    }

    /// One VMU line request: generation + translation (one cycle),
    /// retried while the LLC has no free MSHR.
    fn vmu_request(
        &mut self,
        line: u64,
        store: bool,
        t: Cycle,
        mem: &mut Hierarchy,
    ) -> (Cycle, Cycle) {
        let issued = self.tlb.translate(line * LINE_BYTES, t);
        let a = mem.access(Level::Llc, line * LINE_BYTES, store, issued);
        self.llc_issue_stall += a.mshr_wait;
        self.counters.vmu_line_requests.incr();
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            let cat = if store { "store" } else { "load" };
            tr.instant_arg(
                "vmu",
                cat,
                "line_req",
                issued.0,
                ("mshr_wait", a.mshr_wait.0),
            );
        }
        // The VMU's generation slot is occupied for the MSHR wait too.
        (issued + a.mshr_wait, a.complete)
    }

    fn handle_load(&mut self, r: &Retired, accept: Cycle, mem: &mut Hierarchy) -> Cycle {
        self.counters.loads.incr();
        self.advance_vsu(accept, "empty_stall", |b| &mut b.empty_stall);
        let deps = self.vreg_dep_time(r);
        self.advance_vsu(deps, "dep_stall", |b| &mut b.dep_stall);

        let indexed = matches!(
            r.inst,
            Inst::VLoad {
                stride: VStride::Indexed(_),
                ..
            }
        );
        if indexed {
            // The VSU reads the index register rows for the VMU (§V-C).
            self.busy("index_read", Cycle(self.segments + 1));
        }
        let masked = matches!(r.inst, Inst::VLoad { masked: true, .. });
        if masked {
            self.busy("mask_prologue", Cycle(MASK_PROLOGUE));
        }

        let mut lines = std::mem::take(&mut self.line_buf);
        Self::fill_line_requests(&mut lines, &r.mem);
        let mut t = self
            .vmu_now
            .max(accept)
            .max(if indexed { self.vsu_now } else { Cycle::ZERO });
        let dt = self.dtu_line_cycles();
        let mut mem_done = t;
        let mut data_done = t;
        for &line in &lines {
            let (next_t, complete) = self.vmu_request(line, false, t, mem);
            t = next_t;
            mem_done = mem_done.max(complete);
            let transposed = if dt == 0 {
                complete
            } else {
                let slot = self.dtu_rr;
                self.dtu_rr = (self.dtu_rr + 1) % self.dtu_free.len();
                let start = complete.max(self.dtu_free[slot]);
                self.dtu_free[slot] = start + Cycle(dt);
                #[cfg(feature = "obs")]
                if let Some(tr) = &self.tracer {
                    tr.span(dtu_track(slot), "transpose", "line", start.0, dt);
                }
                start + Cycle(dt)
            };
            data_done = data_done.max(transposed);
        }
        self.line_buf = lines;
        self.vmu_now = t;

        // Attribute the VSU's wait: the part beyond raw memory arrival
        // is transpose backlog, the rest is memory.
        if data_done > self.vsu_now {
            let wait = data_done - self.vsu_now;
            let dt_part = data_done.saturating_since(mem_done).min(wait);
            self.trace_vsu("ld_mem_stall", "ld_mem_stall", self.vsu_now, wait - dt_part);
            self.trace_vsu(
                "ld_dt_stall",
                "ld_dt_stall",
                self.vsu_now + (wait - dt_part),
                dt_part,
            );
            self.breakdown.ld_dt_stall += dt_part;
            self.breakdown.ld_mem_stall += wait - dt_part;
            self.vsu_now = data_done;
        }
        // Row writes into the arrays: one per segment row.
        self.busy("row_write", Cycle(self.segments));
        self.set_write_ready(r, self.vsu_now);
        self.vsu_now
    }

    fn handle_store(&mut self, r: &Retired, accept: Cycle, mem: &mut Hierarchy) -> Cycle {
        self.counters.stores.incr();
        self.advance_vsu(accept, "empty_stall", |b| &mut b.empty_stall);
        let deps = self.vreg_dep_time(r);
        self.advance_vsu(deps, "dep_stall", |b| &mut b.dep_stall);
        let indexed = matches!(
            r.inst,
            Inst::VStore {
                stride: VStride::Indexed(_),
                ..
            }
        );
        if indexed {
            self.busy("index_read", Cycle(self.segments + 1));
        }
        if matches!(r.inst, Inst::VStore { masked: true, .. }) {
            self.busy("mask_prologue", Cycle(MASK_PROLOGUE));
        }
        // VSU reads the data rows out.
        self.busy("row_read", Cycle(self.segments));

        // Detranspose on the DTUs; a deep backlog stalls the VSU.
        let dt = self.dtu_line_cycles();
        let mut lines = std::mem::take(&mut self.line_buf);
        Self::fill_line_requests(&mut lines, &r.mem);
        let mut detr_done = self.vsu_now;
        for _ in &lines {
            if dt == 0 {
                break;
            }
            let slot = self.dtu_rr;
            self.dtu_rr = (self.dtu_rr + 1) % self.dtu_free.len();
            let start = self.vsu_now.max(self.dtu_free[slot]);
            self.dtu_free[slot] = start + Cycle(dt);
            #[cfg(feature = "obs")]
            if let Some(tr) = &self.tracer {
                tr.span(dtu_track(slot), "detranspose", "line", start.0, dt);
            }
            detr_done = detr_done.max(start + Cycle(dt));
        }
        let backlog_limit = self.vsu_now + Cycle(4 * self.segments);
        if detr_done > backlog_limit {
            let stall = detr_done - backlog_limit;
            self.trace_vsu("st_dt_stall", "st_dt_stall", self.vsu_now, stall);
            self.breakdown.st_dt_stall += stall;
            self.vsu_now += stall;
        }

        // VMU sends the line stores once detransposed.
        let mut t = self.vmu_now.max(detr_done);
        for &line in &lines {
            let (next_t, complete) = self.vmu_request(line, true, t, mem);
            t = next_t;
            self.pending_store_done = self.pending_store_done.max(complete);
        }
        self.line_buf = lines;
        // If the VMU falls far behind, the VSU blocks on the store path.
        let vmu_slack = Cycle(64);
        if t > self.vsu_now + vmu_slack {
            let stall = t - (self.vsu_now + vmu_slack);
            self.trace_vsu("st_mem_stall", "st_mem_stall", self.vsu_now, stall);
            self.breakdown.st_mem_stall += stall;
            self.vsu_now += stall;
        }
        self.vmu_now = t;
        self.vsu_now
    }

    fn handle_vru(&mut self, r: &Retired, accept: Cycle) -> Cycle {
        self.counters.vru_ops.incr();
        self.advance_vsu(accept, "empty_stall", |b| &mut b.empty_stall);
        let deps = self.vreg_dep_time(r);
        self.advance_vsu(deps, "dep_stall", |b| &mut b.dep_stall);
        // VRU structural hazard.
        self.advance_vsu(self.vru_free, "vru_stall", |b| &mut b.vru_stall);
        // The VSU streams B/n elements per cycle, one segment at a
        // time (§V-D): lanes/8 element groups x S segment beats.
        let lanes = u64::from(self.hw_vl / EVE_ARRAYS);
        let stream = match r.inst {
            Inst::VMvSX { .. } | Inst::VMvXS { .. } => Cycle(self.segments + 2),
            _ => Cycle((lanes / 8).max(1) * self.segments),
        };
        self.busy("stream", stream);
        let pipeline = match r.inst {
            Inst::VMvSX { .. } | Inst::VMvXS { .. } => Cycle(4),
            _ => Cycle(self.tuning.vru_pipeline),
        };
        let done = self.vsu_now + pipeline;
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            // The VRU drains off the VSU timeline; its own track shows
            // the pipeline occupancy (starts follow in-order issue).
            tr.span("vru", "vru", "reduce", self.vsu_now.0, pipeline.0);
        }
        self.vru_free = done;
        self.set_write_ready(r, done);
        done
    }

    fn handle_compute(&mut self, r: &Retired, accept: Cycle, ops: &[MacroOpKind]) -> Cycle {
        self.counters.compute_ops.incr();
        let masked = matches!(r.inst, Inst::VOp { masked: true, .. });
        let mut total = Cycle(if masked { MASK_PROLOGUE } else { 0 });
        for &op in ops {
            let cycles = self.lat.latency(op);
            total += cycles;
            // Tier ladder: first sight of a macro-op misses the program
            // cache (the specializer compiles while the interpreter
            // executes); every later issue retires compiled.
            match self.uprog_profiles.get(&op) {
                Some(p) => {
                    self.tier.hits += 1;
                    self.tier.record_tier2(p.cycles, p.uops, p.fused);
                    #[cfg(feature = "obs")]
                    if let Some(tr) = &self.tracer {
                        tr.count("uprog_tier2_ops", 1);
                        tr.count("uprog_tier2_fused", p.fused);
                    }
                }
                None => {
                    let p = fuse::profile(&self.lat.library().program(op));
                    debug_assert_eq!(p.cycles, cycles, "{op:?}: profiler drifted");
                    self.uprog_profiles.insert(op, p);
                    self.tier.misses += 1;
                    self.tier.record_tier1(cycles);
                    #[cfg(feature = "obs")]
                    if let Some(tr) = &self.tracer {
                        tr.count("uprog_tier1_ops", 1);
                    }
                }
            }
        }
        self.counters.uop_cycles.add(total.0);
        let deps = self.vreg_dep_time(r);
        // §IX exploration: with extra pipes, dispatch onto whichever
        // frees first instead of serializing on the single VSU.
        if let Some(best) = self
            .extra_pipes
            .iter_mut()
            .min_by_key(|p| **p)
            .filter(|p| **p < self.vsu_now)
        {
            let start = (*best).max(accept).max(deps);
            let done = start + total;
            *best = done;
            self.breakdown.busy += total;
            // Extra-pipe work runs off the attributed VSU timeline, so
            // it gets its own (untiled) track.
            #[cfg(feature = "obs")]
            if let Some(tr) = &self.tracer {
                tr.span("vsu_extra", "busy", "uprog", start.0, total.0);
            }
            self.set_write_ready(r, done);
            return done;
        }
        self.advance_vsu(accept, "empty_stall", |b| &mut b.empty_stall);
        self.advance_vsu(deps, "dep_stall", |b| &mut b.dep_stall);
        // Detection layer: verify operand-row check planes before
        // latching the first bit-line compute (serializes with the
        // VSU), and pay for any background scrub whose deadline
        // passed.
        self.charge_due_scrubs();
        if let Some(res) = self.resilience {
            let check = res.check_cycles(self.segments);
            if check > Cycle::ZERO {
                self.trace_vsu("parity_stall", "parity_check", self.vsu_now, check);
                self.breakdown.parity_stall += check;
                self.vsu_now += check;
                self.counters.parity_check_cycles.add(check.0);
            }
        }
        self.busy("uprog", total);
        self.set_write_ready(r, self.vsu_now);
        self.vsu_now
    }
}

impl VectorUnit for EveEngine {
    fn hw_vl(&self) -> u32 {
        self.hw_vl
    }

    fn issue(
        &mut self,
        r: &Retired,
        _ready: Cycle,
        commit: Cycle,
        mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError> {
        // Spawn lazily on first vector work: way-partition the L2 and
        // invalidate the donated ways (§V-E).
        if !self.spawned {
            let done = mem.spawn_vector_mode(commit);
            self.counters.spawn_commit_cycle.set(commit.0);
            // `add`, not `set`: respawns after a retire accumulate.
            self.counters
                .spawn_cycles
                .add(done.saturating_since(commit).0);
            // The spawn span opens the attributed VSU timeline; the
            // auditor counts it alongside the breakdown buckets.
            self.trace_vsu("spawn", "spawn", commit, done.saturating_since(commit));
            self.vsu_now = done;
            self.vmu_now = done;
            self.spawned = true;
            // The scrub clock starts when the arrays come into
            // existence, not at construction time.
            if let Some(res) = self.resilience {
                self.next_scrub = done + Cycle(res.scrub_interval_cycles);
            }
        }
        self.counters.issued.incr();

        // VCU queue back-pressure.
        let mut accept = commit;
        while self.queue_done.len() >= self.tuning.queue_depth {
            let oldest = self.queue_done.pop_front().expect("nonempty");
            if oldest > accept {
                self.counters
                    .queue_stall_cycles
                    .add(oldest.saturating_since(accept).0);
                accept = oldest;
            }
        }

        if matches!(r.inst, Inst::VMFence) {
            let done = self
                .pending_store_done
                .max(self.vmu_now)
                .max(self.vsu_now)
                .max(accept);
            return Ok(VectorPlacement::Decoupled {
                accept,
                writeback: Some(done),
            });
        }

        let completion = match &r.inst {
            Inst::VLoad { .. } => self.handle_load(r, accept, mem),
            Inst::VStore { .. } => self.handle_store(r, accept, mem),
            Inst::VRed { .. }
            | Inst::VSlide { .. }
            | Inst::VRGather { .. }
            | Inst::VId { .. }
            | Inst::VMvXS { .. }
            | Inst::VMvSX { .. } => self.handle_vru(r, accept),
            inst => {
                let Some(ops) = macro_ops(inst, r.scalar_operand) else {
                    return Err(EngineError::UnmappedInstruction {
                        inst: format!("{inst:?}"),
                        pc: u64::from(r.pc),
                    });
                };
                self.handle_compute(r, accept, &ops)
            }
        };

        self.queue_done.push_back(completion);
        let writeback = match r.inst {
            Inst::VMvXS { .. } => Some(completion),
            _ => None,
        };
        Ok(VectorPlacement::Decoupled { accept, writeback })
    }

    fn drain(&mut self, _mem: &mut Hierarchy) -> Cycle {
        let pipes = self
            .extra_pipes
            .iter()
            .copied()
            .max()
            .unwrap_or(Cycle::ZERO);
        self.vsu_now
            .max(self.vmu_now)
            .max(self.pending_store_done)
            .max(self.vru_free)
            .max(pipes)
    }

    fn stats(&self) -> Stats {
        let c = &self.counters;
        let mut s = Stats::new();
        s.publish_all([
            ("ecc_correct_cycles", c.ecc_correct_cycles),
            ("ecc_corrected_events", c.ecc_corrected_events),
            ("remap_cycles", c.remap_cycles),
            ("remapped_rows", c.remapped_rows),
            ("retires", c.retires),
            ("scrub_cycles", c.scrub_cycles),
            ("scrub_sweeps", c.scrub_sweeps),
            ("vmu.line_requests", c.vmu_line_requests),
            ("loads", c.loads),
            ("stores", c.stores),
            ("vru_ops", c.vru_ops),
            ("compute_ops", c.compute_ops),
            ("uop_cycles", c.uop_cycles),
            ("parity_check_cycles", c.parity_check_cycles),
            ("spawn_commit_cycle", c.spawn_commit_cycle),
            ("spawn_cycles", c.spawn_cycles),
            ("issued", c.issued),
            ("queue_stall_cycles", c.queue_stall_cycles),
        ]);
        s.set("hw_vl", u64::from(self.hw_vl));
        s.set("vmu.llc_issue_stall_cycles", self.llc_issue_stall.0);
        // The attributed VSU timeline's endpoint: spawn + busy + every
        // stall bucket sums to exactly this (the auditor's identity).
        s.set("vsu.end_cycles", self.vsu_now.0);
        s.set("exec_pipes", self.tuning.exec_pipes as u64);
        // The μprogram tier ladder (see eve_uop::fuse): cache traffic
        // and per-tier retirement for every compute macro-op issued.
        s.set("vsu.uprog_cache_hits", self.tier.hits);
        s.set("vsu.uprog_cache_misses", self.tier.misses);
        s.set("vsu.uprog_tier1_cycles", self.tier.tier1_cycles);
        s.set("vsu.uprog_tier2_cycles", self.tier.tier2_cycles);
        s.set("vsu.uprog_tier2_uops", self.tier.tier2_uops);
        s.set("vsu.uprog_tier2_fused", self.tier.tier2_fused);
        s.merge(&self.breakdown.as_stats());
        for (k, v) in self.tlb.stats().iter() {
            s.add(&format!("tlb.{k}"), v);
        }
        s
    }

    fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::{vreg, xreg, VArithOp, VOperand};
    use eve_mem::HierarchyConfig;

    fn retired(inst: Inst, vl: u32) -> Retired {
        Retired {
            seq: 0,
            pc: 0,
            inst,
            reads: [None; 4],
            write: Some(RegId::V(vreg::V3)),
            mem: MemEffect::None,
            vl,
            branch: None,
            scalar_operand: None,
        }
    }

    fn vadd() -> Inst {
        Inst::VOp {
            op: VArithOp::Add,
            vd: vreg::V3,
            vs1: vreg::V1,
            rhs: VOperand::Reg(vreg::V2),
            masked: false,
        }
    }

    fn vmul() -> Inst {
        Inst::VOp {
            op: VArithOp::Mul,
            vd: vreg::V3,
            vs1: vreg::V1,
            rhs: VOperand::Reg(vreg::V2),
            masked: false,
        }
    }

    #[test]
    fn hardware_vector_lengths_match_table_iii() {
        for (n, vl) in [
            (1u32, 2048u32),
            (2, 2048),
            (4, 2048),
            (8, 1024),
            (16, 512),
            (32, 256),
        ] {
            assert_eq!(EveEngine::new(n).unwrap().hw_vl(), vl, "EVE-{n}");
        }
    }

    #[test]
    fn invalid_factor_rejected() {
        assert!(EveEngine::new(3).is_err());
        assert!(EveEngine::new(0).is_err());
    }

    #[test]
    fn spawn_reconfigures_l2_once() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        // Warm the L2 so reconfiguration has lines to flush.
        for i in 0..32u64 {
            mem.access(Level::L1D, 0x8000 + i * 64, true, Cycle(i * 200));
        }
        e.issue(&retired(vadd(), 1024), Cycle(0), Cycle(10_000), &mut mem)
            .unwrap();
        assert!(e.stats().get("spawn_cycles") > 0);
        assert_eq!(mem.cache(Level::L2).config().ways, 4);
        let spawn1 = e.stats().get("spawn_cycles");
        e.issue(&retired(vadd(), 1024), Cycle(0), Cycle(20_000), &mut mem)
            .unwrap();
        assert_eq!(e.stats().get("spawn_cycles"), spawn1, "spawns once");
    }

    #[test]
    fn retire_returns_the_ways_and_a_respawn_pays_again() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let warm = |mem: &mut Hierarchy, base: u64, at: u64| {
            for i in 0..32u64 {
                mem.access(Level::L1D, base + i * 64, true, Cycle(at + i * 200));
            }
        };
        // Retiring before any spawn is a no-op.
        assert_eq!(e.retire(&mut mem, Cycle(5)), Cycle(5));
        assert_eq!(e.stats().get("retires"), 0);

        warm(&mut mem, 0x8000, 0);
        e.issue(&retired(vadd(), 1024), Cycle(0), Cycle(10_000), &mut mem)
            .unwrap();
        let first = e.stats().get("spawn_cycles");
        let lines1 = mem.collect_stats().get("l2_reconfig_lines");
        assert!(first > 0 && lines1 > 0);

        // Retire: ways come back immediately, despawn itself is free.
        assert_eq!(e.retire(&mut mem, Cycle(50_000)), Cycle(50_000));
        assert_eq!(mem.cache(Level::L2).config().ways, 8);
        assert_eq!(e.stats().get("retires"), 1);

        // Respawn on the rewarmed cache: the flush bill lands again
        // and `spawn_cycles` accumulates across lifetimes.
        warm(&mut mem, 0x2_0000, 60_000);
        e.issue(&retired(vadd(), 1024), Cycle(0), Cycle(100_000), &mut mem)
            .unwrap();
        assert_eq!(mem.cache(Level::L2).config().ways, 4);
        assert!(e.stats().get("spawn_cycles") > first, "respawn was free");
        assert!(
            mem.collect_stats().get("l2_reconfig_lines") > lines1,
            "second partition flushed nothing"
        );
    }

    #[test]
    fn compute_latency_tracks_uop_programs() {
        // add on EVE-8: 2*4+1 = 9 cycles of busy work.
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        e.issue(&retired(vadd(), 1024), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        assert_eq!(e.breakdown().busy, Cycle(9));
    }

    #[test]
    fn mul_latency_falls_with_parallelization_but_serial_has_more_lanes() {
        let mut lat = Vec::new();
        for n in [1u32, 8, 32] {
            let mut e = EveEngine::new(n).unwrap();
            let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
            e.issue(&retired(vmul(), e.hw_vl()), Cycle(0), Cycle(0), &mut mem)
                .unwrap();
            lat.push(e.breakdown().busy.0);
        }
        assert!(lat[0] > lat[1] && lat[1] > lat[2], "{lat:?}");
    }

    #[test]
    fn dependent_ops_serialize_independent_ops_do_not_stall() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        e.issue(&retired(vadd(), 1024), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        let busy1 = e.breakdown().busy;
        // Dependent on v3.
        let mut dep = retired(vadd(), 1024);
        dep.reads[0] = Some(RegId::V(vreg::V3));
        e.issue(&dep, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert_eq!(e.breakdown().busy, busy1 * 2);
        // Single in-order pipe: no dep_stall beyond serialization.
        assert_eq!(e.breakdown().dep_stall, Cycle::ZERO);
    }

    #[test]
    fn loads_attribute_memory_stalls() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V3,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let mut r = retired(ld, 1024);
        r.mem = MemEffect::VecUnit {
            base: 0x10_0000,
            bytes: 4096,
            store: false,
        };
        e.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        let b = e.breakdown();
        assert!(b.ld_mem_stall > Cycle::ZERO, "{b:?}");
        assert!(b.busy >= Cycle(4), "row writes counted as busy: {b:?}");
        assert_eq!(e.stats().get("vmu.line_requests"), 64);
    }

    #[test]
    fn eve32_skips_transpose() {
        let ld = Inst::VLoad {
            vd: vreg::V3,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let mk = |vl: u32| {
            let mut r = retired(ld, vl);
            r.mem = MemEffect::VecUnit {
                base: 0x10_0000,
                bytes: u64::from(vl) * 4,
                store: false,
            };
            r
        };
        let mut e32 = EveEngine::new(32).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        e32.issue(&mk(256), Cycle(0), Cycle(0), &mut mem).unwrap();
        assert_eq!(e32.breakdown().ld_dt_stall, Cycle::ZERO);
        // EVE-1 on the same footprint pays transpose time somewhere
        // (dt stall or overlapped) - its DTU line cost is 32 cycles.
        let mut e1 = EveEngine::new(1).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        e1.issue(&mk(256), Cycle(0), Cycle(0), &mut mem).unwrap();
        let total1 = e1.breakdown().total();
        assert!(total1 > Cycle::ZERO);
    }

    #[test]
    fn large_stride_saturates_llc_mshrs() {
        // backprop-style: stride larger than a line, one line per
        // element, hw_vl 1024 -> 1024 requests against 32 MSHRs.
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V3,
            base: xreg::A0,
            stride: VStride::Strided(xreg::A1),
            masked: false,
        };
        let mut r = retired(ld, 1024);
        r.mem = MemEffect::VecStrided {
            base: 0x40_0000,
            stride: 4096,
            count: 1024,
            store: false,
        };
        e.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert!(
            e.llc_issue_stall() > Cycle(1000),
            "expected heavy MSHR stalling, got {:?}",
            e.llc_issue_stall()
        );
    }

    #[test]
    fn fence_waits_for_stores() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let st = Inst::VStore {
            vs: vreg::V1,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let mut r = retired(st, 1024);
        r.mem = MemEffect::VecUnit {
            base: 0x20_0000,
            bytes: 4096,
            store: true,
        };
        r.write = None;
        e.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        let f = e
            .issue(&retired(Inst::VMFence, 1024), Cycle(1), Cycle(1), &mut mem)
            .unwrap();
        match f {
            VectorPlacement::Decoupled {
                writeback: Some(wb),
                ..
            } => assert!(wb > Cycle(60), "{wb:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reductions_occupy_the_vru() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let red = Inst::VRed {
            op: eve_isa::RedOp::Sum,
            vd: vreg::V3,
            vs2: vreg::V1,
            vs1: vreg::V2,
        };
        e.issue(&retired(red, 1024), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        e.issue(&retired(red, 1024), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        assert!(e.breakdown().vru_stall > Cycle::ZERO);
        assert_eq!(e.stats().get("vru_ops"), 2);
    }

    #[test]
    fn vmv_xs_reports_writeback() {
        let mut e = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let mv = Inst::VMvXS {
            rd: xreg::T0,
            vs: vreg::V1,
        };
        let mut r = retired(mv, 1024);
        r.write = Some(RegId::X(xreg::T0));
        match e.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap() {
            VectorPlacement::Decoupled {
                writeback: Some(_), ..
            } => {}
            other => panic!("expected writeback, got {other:?}"),
        }
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let mut e = EveEngine::new(4).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        for i in 0..20u64 {
            e.issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem)
                .unwrap();
        }
        let b = *e.breakdown();
        // The VSU timeline (minus spawn) equals the attributed total.
        assert_eq!(
            b.total() + Cycle(e.stats().get("spawn_cycles")),
            e.drain(&mut mem),
        );
    }

    #[test]
    fn resilience_charges_parity_stall() {
        let mut plain = EveEngine::new(8).unwrap();
        let mut checked = EveEngine::new(8).unwrap();
        checked.enable_resilience(ResilienceConfig::default());
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let mut mem2 = Hierarchy::new(HierarchyConfig::table_iii());
        for i in 0..10u64 {
            plain
                .issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem)
                .unwrap();
            checked
                .issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem2)
                .unwrap();
        }
        assert_eq!(plain.breakdown().parity_stall, Cycle::ZERO);
        let parity = checked.breakdown().parity_stall;
        // EVE-8 has 4 segments: 2 regs * 4 rows / 4 per cycle = 2
        // cycles per compute macro-op, 10 ops issued.
        assert_eq!(parity, Cycle(20));
        assert_eq!(checked.stats().get("parity_check_cycles"), 20);
        // Checking slows the engine down by exactly the charged time,
        // and the attribution identity still holds.
        let plain_done = plain.drain(&mut mem);
        let checked_done = checked.drain(&mut mem2);
        assert_eq!(checked_done, plain_done + parity);
        let b = *checked.breakdown();
        assert_eq!(
            b.total() + Cycle(checked.stats().get("spawn_cycles")),
            checked_done,
        );
    }

    #[test]
    fn ecc_off_charges_nothing() {
        let mut off = EveEngine::new(8).unwrap();
        off.enable_resilience(ResilienceConfig {
            mode: EccMode::Off,
            ..ResilienceConfig::default()
        });
        let mut plain = EveEngine::new(8).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let mut mem2 = Hierarchy::new(HierarchyConfig::table_iii());
        for i in 0..10u64 {
            off.issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem)
                .unwrap();
            plain
                .issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem2)
                .unwrap();
        }
        assert_eq!(off.breakdown().parity_stall, Cycle::ZERO);
        assert_eq!(off.drain(&mut mem), plain.drain(&mut mem2));
    }

    #[test]
    fn correction_and_remap_charges_keep_the_identity() {
        let mut e = EveEngine::new(8).unwrap();
        e.enable_resilience(ResilienceConfig::secded());
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        for i in 0..4u64 {
            e.issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem)
                .unwrap();
            e.charge_ecc_corrections(2);
        }
        e.charge_remaps(1);
        let b = *e.breakdown();
        let res = ResilienceConfig::secded();
        assert_eq!(b.ecc_correct_stall, Cycle(8 * res.ecc_correct_cycles));
        assert_eq!(b.remap_stall, Cycle(res.remap_cycles));
        assert_eq!(e.stats().get("ecc_corrected_events"), 8);
        assert_eq!(e.stats().get("remapped_rows"), 1);
        assert_eq!(
            b.total() + Cycle(e.stats().get("spawn_cycles")),
            e.drain(&mut mem),
        );
    }

    #[test]
    fn scrub_interval_charges_periodic_sweeps() {
        let mut e = EveEngine::new(8).unwrap();
        e.enable_resilience(ResilienceConfig {
            scrub_interval_cycles: 200,
            ..ResilienceConfig::secded()
        });
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        for i in 0..40u64 {
            e.issue(&retired(vadd(), 2048), Cycle(0), Cycle(i * 3), &mut mem)
                .unwrap();
        }
        let b = *e.breakdown();
        assert!(b.scrub_stall > Cycle::ZERO, "scrub sweeps should charge");
        // EVE-8: 32 vregs * 4 segment rows / 4 rows per cycle = 32
        // cycles per sweep.
        let sweeps = e.stats().get("scrub_sweeps");
        assert!(sweeps >= 1);
        assert_eq!(b.scrub_stall, Cycle(32 * sweeps));
        assert_eq!(
            b.total() + Cycle(e.stats().get("spawn_cycles")),
            e.drain(&mut mem),
        );
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use eve_isa::{vreg, xreg, VStride};
    use eve_mem::HierarchyConfig;

    fn retired(inst: Inst, vl: u32) -> Retired {
        Retired {
            seq: 0,
            pc: 0,
            inst,
            reads: [None; 4],
            write: Some(RegId::V(vreg::V3)),
            mem: MemEffect::None,
            vl,
            branch: None,
            scalar_operand: None,
        }
    }

    #[test]
    fn stores_detranspose_and_track_pending() {
        let mut e = EveEngine::new(4).unwrap();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let st = Inst::VStore {
            vs: vreg::V1,
            base: xreg::A0,
            stride: VStride::Unit,
            masked: false,
        };
        let mut r = retired(st, 2048);
        r.write = None;
        r.mem = MemEffect::VecUnit {
            base: 0x20_0000,
            bytes: 8192,
            store: true,
        };
        e.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert_eq!(e.stats().get("stores"), 1);
        assert_eq!(e.stats().get("vmu.line_requests"), 128);
        assert!(e.pending_store_done > Cycle::ZERO);
        // Row reads count as busy work.
        assert!(e.breakdown().busy >= Cycle(8));
    }

    #[test]
    fn indexed_loads_pay_the_index_read_prologue() {
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let mk = |stride: VStride| {
            let ld = Inst::VLoad {
                vd: vreg::V3,
                base: xreg::A0,
                stride,
                masked: false,
            };
            let mut r = retired(ld, 1024);
            r.mem = match stride {
                VStride::Indexed(_) => MemEffect::VecIndexed {
                    addrs: (0..1024u64).map(|i| 0x10_0000 + i * 4).collect(),
                    store: false,
                },
                _ => MemEffect::VecUnit {
                    base: 0x10_0000,
                    bytes: 4096,
                    store: false,
                },
            };
            r
        };
        let mut e_unit = EveEngine::new(8).unwrap();
        e_unit
            .issue(&mk(VStride::Unit), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        let unit_busy = e_unit.breakdown().busy;
        let mut mem2 = Hierarchy::new(HierarchyConfig::table_iii());
        let mut e_idx = EveEngine::new(8).unwrap();
        e_idx
            .issue(
                &mk(VStride::Indexed(vreg::V2)),
                Cycle(0),
                Cycle(0),
                &mut mem2,
            )
            .unwrap();
        // The VSU reads the index register rows before the VMU starts.
        assert!(e_idx.breakdown().busy > unit_busy);
    }

    #[test]
    fn masked_ops_pay_the_mask_prologue() {
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let mk = |masked: bool| {
            retired(
                Inst::VOp {
                    op: eve_isa::VArithOp::Add,
                    vd: vreg::V3,
                    vs1: vreg::V1,
                    rhs: eve_isa::VOperand::Reg(vreg::V2),
                    masked,
                },
                1024,
            )
        };
        let mut plain = EveEngine::new(8).unwrap();
        plain
            .issue(&mk(false), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        let mut masked = EveEngine::new(8).unwrap();
        masked
            .issue(&mk(true), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        assert_eq!(
            masked.breakdown().busy,
            plain.breakdown().busy + Cycle(2),
            "mask prologue is two tuples"
        );
    }

    #[test]
    fn queue_backpressure_counts_stalls() {
        let mut e = EveEngine::new(1).unwrap(); // slow compute
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let mul = Inst::VOp {
            op: eve_isa::VArithOp::Mul,
            vd: vreg::V3,
            vs1: vreg::V1,
            rhs: eve_isa::VOperand::Reg(vreg::V2),
            masked: false,
        };
        for _ in 0..12 {
            e.issue(&retired(mul, 2048), Cycle(0), Cycle(0), &mut mem)
                .unwrap();
        }
        assert!(e.stats().get("queue_stall_cycles") > 0);
    }

    #[test]
    fn tuned_engine_respects_dtu_and_queue_overrides() {
        assert!(EveEngine::with_tuning(
            8,
            EngineTuning {
                dtus: 0,
                ..EngineTuning::default()
            }
        )
        .is_err());
        // EVE-32 needs no DTUs at all.
        assert!(EveEngine::with_tuning(
            32,
            EngineTuning {
                dtus: 0,
                ..EngineTuning::default()
            }
        )
        .is_ok());
        assert!(EveEngine::with_tuning(
            8,
            EngineTuning {
                queue_depth: 0,
                ..EngineTuning::default()
            }
        )
        .is_err());
        assert!(EveEngine::with_tuning(
            8,
            EngineTuning {
                exec_pipes: 0,
                ..EngineTuning::default()
            }
        )
        .is_err());
    }
}
