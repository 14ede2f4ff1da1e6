//! The out-of-order core (Table III "O3") and its vector socket.
//!
//! A trace-scheduling model of an 8-wide out-of-order machine: each
//! committed instruction is assigned a dispatch slot (bounded by fetch
//! width, ROB occupancy, and branch-mispredict redirects), starts
//! executing when its register dependences resolve, and commits in
//! order. Loads time through the `eve-mem` hierarchy at *execute* time,
//! so independent misses overlap — the memory-level parallelism that
//! separates O3 from IO.
//!
//! Vector instructions are delegated to the plugged-in
//! [`VectorUnit`]: in-window units (IV) return a
//! completion like any ALU; decoupled units (DV, EVE) receive the
//! instruction at commit and only `vmv.x.s`-style writebacks or
//! `vmfence` stall the core (§V-A).

use crate::branch::BranchPredictor;
use crate::vector_if::{EngineError, NoVector, VectorPlacement, VectorUnit};
use crate::CODE_BASE;
use eve_common::{Counter, Cycle, Stats};
use eve_isa::{Inst, MemEffect, RegId, Retired, ScalarOp};
use eve_mem::{Hierarchy, HierarchyConfig, Level};
use eve_obs::Tracer;
use std::collections::VecDeque;

/// O3 pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct O3Config {
    /// Dispatch/commit width per cycle.
    pub width: u64,
    /// Reorder-buffer capacity.
    pub window: usize,
    /// Cycles lost on a branch mispredict.
    pub mispredict_penalty: u64,
    /// Multiplier latency.
    pub mul_latency: u64,
    /// Divider latency.
    pub div_latency: u64,
}

impl Default for O3Config {
    fn default() -> Self {
        Self {
            width: 8,
            window: 192,
            mispredict_penalty: 12,
            mul_latency: 3,
            div_latency: 20,
        }
    }
}

/// The out-of-order core, generic over its vector unit.
#[derive(Debug)]
pub struct O3Core<V: VectorUnit = NoVector> {
    cfg: O3Config,
    mem: Hierarchy,
    vu: V,
    reg_ready: [Cycle; 64],
    commit_ring: VecDeque<Cycle>,
    last_commit: Cycle,
    dispatch_cycle: Cycle,
    dispatch_count: u64,
    fetch_floor: Cycle,
    bp: BranchPredictor,
    end: Cycle,
    counters: O3Counters,
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    tracer: Option<Tracer>,
}

/// The O3 core's own counters, rendered by [`O3Core::stats`].
#[derive(Debug, Clone, Copy, Default)]
struct O3Counters {
    insts: Counter,
    vector_insts: Counter,
    vector_writeback_stalls: Counter,
    loads: Counter,
    stores: Counter,
    mispredicts: Counter,
    rob_stall_cycles: Counter,
}

impl O3Core<NoVector> {
    /// A scalar-only O3 core with the Table III hierarchy.
    #[must_use]
    pub fn scalar() -> Self {
        Self::with_unit(NoVector, HierarchyConfig::table_iii())
    }
}

impl<V: VectorUnit> O3Core<V> {
    /// An O3 core with the given vector unit and memory configuration.
    #[must_use]
    pub fn with_unit(vu: V, mem_cfg: HierarchyConfig) -> Self {
        Self::with_unit_and_hierarchy(vu, Hierarchy::new(mem_cfg))
    }

    /// An O3 core over a prebuilt hierarchy — the CMP path, where the
    /// hierarchy's LLC handle is shared with other cores.
    #[must_use]
    pub fn with_unit_and_hierarchy(vu: V, mem: Hierarchy) -> Self {
        Self {
            cfg: O3Config::default(),
            mem,
            vu,
            reg_ready: [Cycle::ZERO; 64],
            commit_ring: VecDeque::new(),
            last_commit: Cycle::ZERO,
            dispatch_cycle: Cycle::ZERO,
            dispatch_count: 0,
            fetch_floor: Cycle::ZERO,
            bp: BranchPredictor::new(4096),
            end: Cycle::ZERO,
            counters: O3Counters::default(),
            tracer: None,
        }
    }

    /// Overrides the pipeline parameters.
    pub fn set_config(&mut self, cfg: O3Config) {
        self.cfg = cfg;
    }

    /// Attaches a tracer to the core, its hierarchy, and its vector
    /// unit. Retired instructions then emit dispatch→commit spans on
    /// the `o3` track (when built with the `obs` feature).
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.mem.set_tracer(tracer);
        self.vu.attach_tracer(tracer);
        self.tracer = Some(tracer.clone());
    }

    /// The plugged-in vector unit.
    #[must_use]
    pub fn vector_unit(&self) -> &V {
        &self.vu
    }

    /// Mutable access to the plugged-in vector unit (reconfiguration,
    /// fault-recovery actions like retiring EVE ways).
    pub fn vector_unit_mut(&mut self) -> &mut V {
        &mut self.vu
    }

    /// The hardware vector length the attached unit provides.
    #[must_use]
    pub fn hw_vl(&self) -> u32 {
        self.vu.hw_vl()
    }

    fn reg_slot(r: RegId) -> usize {
        match r {
            RegId::X(x) => x.index() as usize,
            RegId::V(v) => 32 + v.index() as usize,
        }
    }

    fn dispatch_slot(&mut self) -> Cycle {
        let mut d = self.dispatch_cycle.max(self.fetch_floor);
        if d > self.dispatch_cycle {
            self.dispatch_cycle = d;
            self.dispatch_count = 0;
        }
        // ROB full: wait for the oldest in-flight instruction to commit.
        if self.commit_ring.len() >= self.cfg.window {
            let oldest = self.commit_ring.pop_front().expect("nonempty");
            if oldest > d {
                self.counters
                    .rob_stall_cycles
                    .add(oldest.saturating_since(d).0);
                d = oldest;
                self.dispatch_cycle = d;
                self.dispatch_count = 0;
            }
        }
        if self.dispatch_count >= self.cfg.width {
            d += Cycle(1);
            self.dispatch_cycle = d;
            self.dispatch_count = 0;
        }
        self.dispatch_count += 1;
        d
    }

    fn deps_ready(&self, r: &Retired, after: Cycle) -> Cycle {
        let mut t = after;
        for dep in r.reads.iter().flatten() {
            t = t.max(self.reg_ready[Self::reg_slot(*dep)]);
        }
        t
    }

    /// Accounts one committed instruction.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] from the vector unit when a vector
    /// instruction cannot be handled (no unit, no μprogram mapping).
    pub fn retire(&mut self, r: &Retired) -> Result<(), EngineError> {
        self.counters.insts.incr();
        let d = self.dispatch_slot();
        let ready = self.deps_ready(r, d);

        let completion;
        let mut commit_floor = Cycle::ZERO;
        // Resolve time of a mispredicted branch, for the redirect
        // instant (emitted after this instruction's span so the `o3`
        // track stays monotone).
        let mut _redirect_at: Option<Cycle> = None;

        if r.inst.is_vector() && !matches!(r.inst, Inst::SetVl { .. }) {
            self.counters.vector_insts.incr();
            // Vector instructions reach decoupled units at commit time
            // (§V-A); integrated units issue when dependences resolve.
            let commit_est = ready.max(self.last_commit);
            match self.vu.issue(r, ready, commit_est, &mut self.mem)? {
                VectorPlacement::InWindow { completion: c } => {
                    completion = c;
                }
                VectorPlacement::Decoupled { accept, writeback } => {
                    completion = ready + Cycle(1);
                    commit_floor = accept;
                    if let Some(wb) = writeback {
                        commit_floor = commit_floor.max(wb);
                        self.counters.vector_writeback_stalls.incr();
                    }
                }
            }
        } else {
            completion = match (&r.inst, &r.mem) {
                (
                    _,
                    MemEffect::Scalar {
                        addr, store: false, ..
                    },
                ) => {
                    self.counters.loads.incr();
                    self.mem.access(Level::L1D, *addr, false, ready).complete
                }
                (_, MemEffect::Scalar { store: true, .. }) => {
                    self.counters.stores.incr();
                    // Stores execute at commit; charged below.
                    ready + Cycle(1)
                }
                (Inst::Op { op, .. } | Inst::OpImm { op, .. }, _) => match op {
                    ScalarOp::Mul => ready + Cycle(self.cfg.mul_latency),
                    ScalarOp::Div | ScalarOp::Rem => ready + Cycle(self.cfg.div_latency),
                    _ => ready + Cycle(1),
                },
                (Inst::Branch { .. } | Inst::Jump { .. }, _) => {
                    let resolve = ready + Cycle(1);
                    if let Some((taken, _)) = r.branch {
                        let predicted = match r.inst {
                            Inst::Jump { .. } => true,
                            _ => self.bp.predict(r.pc),
                        };
                        self.bp.update(r.pc, taken);
                        if predicted != taken {
                            self.counters.mispredicts.incr();
                            self.fetch_floor = resolve + Cycle(self.cfg.mispredict_penalty);
                            _redirect_at = Some(resolve);
                        }
                    }
                    resolve
                }
                _ => ready + Cycle(1),
            };
        }

        // I-cache: charge one fetch access per line transition, folded
        // into the fetch floor.
        let fetch_addr = CODE_BASE + u64::from(r.pc) * 4;
        if r.seq.is_multiple_of(16) {
            let f = self.mem.access(Level::L1I, fetch_addr, false, d);
            if f.hit_level != Level::L1I {
                self.fetch_floor = self.fetch_floor.max(f.complete);
            }
        }

        // In-order commit.
        let ct = completion.max(self.last_commit).max(commit_floor);
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            let cat = if r.inst.is_vector() {
                "vector"
            } else {
                match (&r.inst, &r.mem) {
                    (_, MemEffect::Scalar { store: false, .. }) => "load",
                    (_, MemEffect::Scalar { store: true, .. }) => "store",
                    (Inst::Branch { .. } | Inst::Jump { .. }, _) => "branch",
                    _ => "alu",
                }
            };
            // Dispatch slots are monotone, so the track stays ordered
            // even though commits of neighbouring instructions overlap.
            tr.span("o3", cat, cat, d.0, (ct - d).0);
            if let Some(resolve) = _redirect_at {
                tr.instant("o3", "redirect", "mispredict", resolve.0);
            }
            tr.count("o3.insts", 1);
        }
        self.last_commit = ct;
        self.commit_ring.push_back(ct);
        self.end = self.end.max(ct);

        // Stores access memory at commit, off the critical path.
        if let MemEffect::Scalar {
            addr, store: true, ..
        } = r.mem
        {
            self.mem.access(Level::L1D, addr, true, ct);
        }

        if let Some(w) = r.write {
            self.reg_ready[Self::reg_slot(w)] = completion.max(commit_floor);
        }
        Ok(())
    }

    /// Finishes simulation: drains the vector unit and returns total
    /// cycles.
    pub fn finish(&mut self) -> Cycle {
        let vu_done = self.vu.drain(&mut self.mem);
        self.end = self.end.max(vu_done);
        self.end
    }

    /// Core + hierarchy + vector-unit statistics.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let c = &self.counters;
        let mut s = Stats::new();
        s.publish_all([
            ("insts", c.insts),
            ("vector_insts", c.vector_insts),
            ("vector_writeback_stalls", c.vector_writeback_stalls),
            ("loads", c.loads),
            ("stores", c.stores),
            ("mispredicts", c.mispredicts),
            ("rob_stall_cycles", c.rob_stall_cycles),
        ]);
        s.merge(&self.mem.collect_stats());
        s.merge(&self.vu.stats());
        s
    }

    /// The memory hierarchy (inspection / reconfiguration).
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.mem
    }

    /// Mutable hierarchy access (EVE spawn/despawn).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::{xreg, Asm, Interpreter, Memory};

    fn run_o3(asm: Asm) -> (Cycle, Stats) {
        let mut i = Interpreter::new(asm.assemble().unwrap(), Memory::new(1 << 20), 1);
        let mut core = O3Core::scalar();
        while let Some(r) = i.step().unwrap() {
            core.retire(&r).unwrap();
        }
        (core.finish(), core.stats())
    }

    fn run_io(asm: Asm) -> Cycle {
        let mut i = Interpreter::new(asm.assemble().unwrap(), Memory::new(1 << 20), 1);
        let mut core = crate::IoCore::new();
        while let Some(r) = i.step().unwrap() {
            core.retire(&r).unwrap();
        }
        core.finish()
    }

    fn loop_program(chained: bool) -> Asm {
        // A hot loop of 8 adds per iteration: chained (serial) or
        // independent (8-wide dispatch can overlap them).
        let mut a = Asm::new();
        a.li(xreg::T0, 500);
        a.label("l");
        for k in 0..8 {
            if chained {
                a.addi(xreg::T1, xreg::T1, 1);
            } else {
                let rd = [
                    xreg::T1,
                    xreg::T2,
                    xreg::T3,
                    xreg::T4,
                    xreg::T5,
                    xreg::T6,
                    xreg::S0,
                    xreg::S1,
                ][k];
                a.addi(rd, rd, 1);
            }
        }
        a.addi(xreg::T0, xreg::T0, -1);
        a.bnez(xreg::T0, "l");
        a.halt();
        a
    }

    #[test]
    fn wide_dispatch_on_independent_work() {
        let (c_par, _) = run_o3(loop_program(false));
        let (c_chain, _) = run_o3(loop_program(true));
        assert!(
            c_par.0 * 2 < c_chain.0,
            "independent {c_par} vs chain {c_chain}"
        );
    }

    #[test]
    fn o3_beats_io_on_pointer_chasing_free_loads() {
        // 64 independent loads to distinct lines: O3 overlaps the
        // misses, IO serializes them.
        let mut a = Asm::new();
        a.li(xreg::A0, 0x100);
        for k in 0..64 {
            a.lw(xreg::T0, xreg::A0, k * 64);
        }
        a.halt();
        let (o3, _) = run_o3({
            let mut b = Asm::new();
            b.li(xreg::A0, 0x100);
            for k in 0..64 {
                b.lw(xreg::T0, xreg::A0, k * 64);
            }
            b.halt();
            b
        });
        let io = run_io(a);
        assert!(io.0 > o3.0 * 3, "io {io} vs o3 {o3}");
    }

    #[test]
    fn mispredicts_cost_redirects() {
        // A data-dependent unpredictable-ish branch pattern (alternating)
        // still trains a 2-bit counter poorly vs an always-taken loop.
        let mut alternating = Asm::new();
        alternating.li(xreg::T0, 400);
        alternating.label("top");
        alternating.andi(xreg::T1, xreg::T0, 1);
        alternating.beqz(xreg::T1, "skip");
        alternating.addi(xreg::T2, xreg::T2, 1);
        alternating.label("skip");
        alternating.addi(xreg::T0, xreg::T0, -1);
        alternating.bnez(xreg::T0, "top");
        alternating.halt();
        let (_, stats) = run_o3(alternating);
        assert!(
            stats.get("mispredicts") > 100,
            "{}",
            stats.get("mispredicts")
        );
    }

    #[test]
    fn rob_bounds_runahead() {
        // One very long dependence chain mixed with a giant independent
        // stream: the window limits how far ahead the core runs, so
        // cycles exceed insts/width substantially when a load blocks.
        let mut a = Asm::new();
        a.li(xreg::A0, 0x100);
        a.lw(xreg::T0, xreg::A0, 0); // cold miss ~80 cycles
        for _ in 0..3000 {
            a.addi(xreg::T5, xreg::T5, 1);
        }
        a.halt();
        let (_, stats) = run_o3(a);
        // The chain of 3000 adds executes fine; ROB stalls appear only
        // if the window wraps — with one 80-cycle load and window 192,
        // some stall is expected but bounded.
        assert!(stats.get("insts") == 3003);
    }

    #[test]
    fn setvl_is_handled_by_the_core_not_the_unit() {
        // NoVector panics on vector issue; SetVl must not reach it.
        let mut a = Asm::new();
        a.li(xreg::A0, 16);
        a.setvl(xreg::T0, xreg::A0);
        a.halt();
        let (_, stats) = run_o3(a);
        assert_eq!(stats.get("insts"), 3);
    }
}
