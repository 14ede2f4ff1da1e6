//! The integrated vector unit (Table III "O3+IV").
//!
//! A 4-element-VL unit sharing the O3 core's resources: two arithmetic
//! pipes and the memory pipe / load-store queue. Vector memory
//! operations — including constant strides and gathers — are decomposed
//! into per-element scalar accesses handled by the LSQ, exactly the
//! behaviour the paper describes (§VII-A: "constant strides and indexed
//! memory operations are decomposed to micro-operations and handled as
//! scalar loads/stores by the load-store queue").

use crate::pipes::{classify_pipe, element_cost, PipeClass};
use eve_common::{Counter, Cycle, Stats};
use eve_cpu::{EngineError, VectorPlacement, VectorUnit};
use eve_isa::{Inst, MemEffect, Retired};
use eve_mem::{Hierarchy, Level};

/// Hardware vector length (elements) — conventional SIMD width.
pub const IV_HW_VL: u32 = 4;

/// The integrated vector unit.
#[derive(Debug, Default)]
pub struct IntegratedVector {
    arith_pipes: [Cycle; 2],
    mem_pipe: Cycle,
    pending_store_done: Cycle,
    issued: Counter,
    lsq_uops: Counter,
}

impl IntegratedVector {
    /// A fresh unit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn claim_arith(&mut self, at: Cycle) -> Cycle {
        let pipe = if self.arith_pipes[0] <= self.arith_pipes[1] {
            0
        } else {
            1
        };
        let start = at.max(self.arith_pipes[pipe]);
        self.arith_pipes[pipe] = start + Cycle(1);
        start
    }

    fn element_addrs(mem: &MemEffect) -> Vec<u64> {
        match mem {
            MemEffect::VecUnit { base, bytes, .. } => {
                (0..bytes / 4).map(|i| base + i * 4).collect()
            }
            MemEffect::VecStrided {
                base,
                stride,
                count,
                ..
            } => (0..u64::from(*count))
                .map(|i| (*base as i64 + stride * i as i64) as u64)
                .collect(),
            MemEffect::VecIndexed { addrs, .. } => addrs.clone(),
            _ => Vec::new(),
        }
    }
}

impl VectorUnit for IntegratedVector {
    fn hw_vl(&self) -> u32 {
        IV_HW_VL
    }

    fn issue(
        &mut self,
        r: &Retired,
        ready: Cycle,
        _commit: Cycle,
        mem: &mut Hierarchy,
    ) -> Result<VectorPlacement, EngineError> {
        let class = classify_pipe(&r.inst).unwrap_or(PipeClass::Simple);
        self.issued.incr();
        let completion = match class {
            PipeClass::Memory if matches!(r.inst, Inst::VMFence) => {
                // Shares the LSQ: fence waits for pending stores.
                ready.max(self.pending_store_done) + Cycle(1)
            }
            PipeClass::Memory => {
                // Decompose into per-element scalar LSQ operations.
                let store = r.mem.is_store();
                let addrs = Self::element_addrs(&r.mem);
                self.lsq_uops.add(addrs.len() as u64);
                let mut done = ready;
                let mut t = ready;
                for addr in addrs {
                    // One LSQ slot per cycle on the shared memory pipe.
                    t = t.max(self.mem_pipe);
                    self.mem_pipe = t + Cycle(1);
                    let a = mem.access(Level::L1D, addr, store, t);
                    done = done.max(a.complete);
                }
                if store {
                    self.pending_store_done = self.pending_store_done.max(done);
                    // Stores retire into the LSQ; completion for the
                    // window is issue-bounded.
                    t + Cycle(1)
                } else {
                    done
                }
            }
            PipeClass::Simple => self.claim_arith(ready) + Cycle(1),
            PipeClass::Complex => self.claim_arith(ready) + Cycle(3),
            PipeClass::Iterative => {
                let per = element_cost(class, &r.inst);
                let start = self.claim_arith(ready);
                start + Cycle(per * u64::from(r.vl.max(1)))
            }
        };
        Ok(VectorPlacement::InWindow { completion })
    }

    fn drain(&mut self, _mem: &mut Hierarchy) -> Cycle {
        self.pending_store_done
    }

    fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.publish_all([("issued", self.issued), ("lsq_uops", self.lsq_uops)]);
        s.set("hw_vl", u64::from(IV_HW_VL));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_isa::{vreg, xreg, RegId, VArithOp, VOperand};
    use eve_mem::HierarchyConfig;

    fn retired(inst: Inst, vl: u32, memeff: MemEffect) -> Retired {
        Retired {
            seq: 0,
            pc: 0,
            inst,
            reads: [None; 4],
            write: Some(RegId::V(vreg::V1)),
            mem: memeff,
            vl,
            branch: None,
            scalar_operand: None,
        }
    }

    #[test]
    fn arith_uses_two_pipes() {
        let mut iv = IntegratedVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let add = Inst::VOp {
            op: VArithOp::Add,
            vd: vreg::V1,
            vs1: vreg::V2,
            rhs: VOperand::Imm(1),
            masked: false,
        };
        let c: Vec<Cycle> = (0..3)
            .map(|_| {
                match iv
                    .issue(
                        &retired(add, 4, MemEffect::None),
                        Cycle(0),
                        Cycle(0),
                        &mut mem,
                    )
                    .unwrap()
                {
                    VectorPlacement::InWindow { completion } => completion,
                    other => panic!("{other:?}"),
                }
            })
            .collect();
        // Two pipes absorb two ops at t=0; the third queues.
        assert_eq!(c[0], Cycle(1));
        assert_eq!(c[1], Cycle(1));
        assert_eq!(c[2], Cycle(2));
    }

    #[test]
    fn memory_decomposes_per_element() {
        let mut iv = IntegratedVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V1,
            base: xreg::A0,
            stride: eve_isa::VStride::Unit,
            masked: false,
        };
        let eff = MemEffect::VecUnit {
            base: 0x1000,
            bytes: 16,
            store: false,
        };
        iv.issue(&retired(ld, 4, eff), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        assert_eq!(iv.stats().get("lsq_uops"), 4);
    }

    #[test]
    fn fence_waits_for_stores() {
        let mut iv = IntegratedVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let st = Inst::VStore {
            vs: vreg::V1,
            base: xreg::A0,
            stride: eve_isa::VStride::Unit,
            masked: false,
        };
        let eff = MemEffect::VecUnit {
            base: 0x2000,
            bytes: 16,
            store: true,
        };
        iv.issue(&retired(st, 4, eff), Cycle(0), Cycle(0), &mut mem)
            .unwrap();
        let f = iv
            .issue(
                &retired(Inst::VMFence, 4, MemEffect::None),
                Cycle(0),
                Cycle(0),
                &mut mem,
            )
            .unwrap();
        match f {
            VectorPlacement::InWindow { completion } => {
                assert!(
                    completion > Cycle(50),
                    "fence before store done: {completion:?}"
                )
            }
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod gather_tests {
    use super::*;
    use eve_isa::{vreg, xreg, RegId, VStride};
    use eve_mem::HierarchyConfig;

    #[test]
    fn gathers_decompose_to_one_uop_per_element() {
        let mut iv = IntegratedVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V1,
            base: xreg::A0,
            stride: VStride::Indexed(vreg::V2),
            masked: false,
        };
        let r = Retired {
            seq: 0,
            pc: 0,
            inst: ld,
            reads: [None; 4],
            write: Some(RegId::V(vreg::V1)),
            mem: MemEffect::VecIndexed {
                addrs: vec![0x1000, 0x9000, 0x2000, 0x8000],
                store: false,
            },
            vl: 4,
            branch: None,
            scalar_operand: None,
        };
        iv.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert_eq!(iv.stats().get("lsq_uops"), 4);
    }

    #[test]
    fn strided_access_also_goes_through_the_lsq() {
        let mut iv = IntegratedVector::new();
        let mut mem = Hierarchy::new(HierarchyConfig::table_iii());
        let ld = Inst::VLoad {
            vd: vreg::V1,
            base: xreg::A0,
            stride: VStride::Strided(xreg::A1),
            masked: false,
        };
        let r = Retired {
            seq: 0,
            pc: 0,
            inst: ld,
            reads: [None; 4],
            write: Some(RegId::V(vreg::V1)),
            mem: MemEffect::VecStrided {
                base: 0x4000,
                stride: 256,
                count: 4,
                store: false,
            },
            vl: 4,
            branch: None,
            scalar_operand: None,
        };
        iv.issue(&r, Cycle(0), Cycle(0), &mut mem).unwrap();
        assert_eq!(iv.stats().get("lsq_uops"), 4);
        // Distinct lines: four L1D misses.
        assert_eq!(mem.cache(Level::L1D).stats().get("misses"), 4);
    }
}
