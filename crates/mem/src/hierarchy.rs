//! The assembled three-level hierarchy.

use crate::cache::Cache;
use crate::config::{CacheConfig, HierarchyConfig};
use crate::shared::SharedLlc;
use eve_common::{Counter, Cycle, Stats};
use eve_obs::Tracer;

/// Where a request enters (or is satisfied in) the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Instruction L1.
    L1I,
    /// Data L1.
    L1D,
    /// Private unified L2.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

impl Level {
    /// Stable lowercase name, used as the trace category for accesses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::L1I => "l1i",
            Self::L1D => "l1d",
            Self::L2 => "l2",
            Self::Llc => "llc",
            Self::Dram => "dram",
        }
    }
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// When the requested data is available to the requester.
    pub complete: Cycle,
    /// The level that supplied the line.
    pub hit_level: Level,
    /// Total cycles spent waiting for MSHRs along the way.
    pub mshr_wait: Cycle,
}

/// A private L1I/L1D + L2 in front of a shared LLC and DRAM.
///
/// Different requesters enter at different levels: scalar cores at the
/// L1s, the decoupled vector engine at the L2, and EVE's VMU directly
/// at the LLC (its L2 ways *are* the engine).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    shared: SharedLlc,
    accesses: Counter,
    l2_reconfig_lines: Counter,
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    tracer: Option<Tracer>,
}

impl Hierarchy {
    /// Builds a single-core hierarchy: this core is the sole owner of
    /// its LLC and memory channel.
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> Self {
        let shared = SharedLlc::new(cfg.llc.clone(), cfg.dram);
        Self::with_shared(cfg, shared)
    }

    /// Builds one core's private levels in front of an existing shared
    /// LLC + DRAM (CMP construction: clone the handle per core).
    #[must_use]
    pub fn with_shared(cfg: HierarchyConfig, shared: SharedLlc) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            shared,
            accesses: Counter::default(),
            l2_reconfig_lines: Counter::default(),
            tracer: None,
        }
    }

    /// Attaches a tracer; memory accesses then emit instants on the
    /// `mem` track (when built with the `obs` feature).
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// The shared LLC handle (clone it to attach more cores).
    #[must_use]
    pub fn shared_llc(&self) -> SharedLlc {
        self.shared.clone()
    }

    /// Performs one access entering at `entry` for byte address `addr`
    /// at time `now`.
    pub fn access(&mut self, entry: Level, addr: u64, store: bool, now: Cycle) -> Access {
        self.accesses.incr();
        let mut wait = Cycle::ZERO;
        let levels: &[Level] = match entry {
            Level::L1I => &[Level::L1I, Level::L2],
            Level::L1D => &[Level::L1D, Level::L2],
            Level::L2 => &[Level::L2],
            Level::Llc | Level::Dram => &[],
        };
        let mut t = now;
        // At most two private levels miss (L1 then L2), so the misses
        // and their MSHR slots fit in a fixed array.
        let mut missed = [(Level::Dram, None); 2];
        let mut n_missed = 0;
        let mut hit_level = Level::Dram;
        let mut found = false;
        for &lv in levels {
            let out = self.cache_mut(lv).lookup(addr, store, t);
            wait += out.mshr_wait;
            t = out.ready;
            if out.hit {
                hit_level = lv;
                found = true;
                break;
            }
            missed[n_missed] = (lv, out.mshr_slot);
            n_missed += 1;
        }
        if !found {
            let a = self.shared.access(addr, store, t);
            t = a.complete;
            wait += a.mshr_wait;
            hit_level = a.hit_level;
        }
        // Fill the missed private levels top-down, releasing each
        // level's MSHR at the fill time; dirty evictions charge
        // downstream bandwidth.
        for &(lv, slot) in missed[..n_missed].iter().rev() {
            let evicted = self.cache_mut(lv).fill_slot(addr, store, t, slot);
            if let Some(line) = evicted {
                self.writeback_below(lv, line * crate::LINE_BYTES, t);
            }
        }
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            // Stamp at the *request* time: completions are out of order
            // under an O3 core, so request order keeps the track usable.
            let name = if store { "store" } else { "load" };
            tr.instant_arg("mem", hit_level.name(), name, now.0, ("mshr_wait", wait.0));
            tr.record("mem.latency", (t - now).0);
            if wait > Cycle::ZERO {
                tr.record("mem.mshr_wait", wait.0);
            }
        }
        Access {
            complete: t,
            hit_level,
            mshr_wait: wait,
        }
    }

    fn writeback_below(&mut self, from: Level, addr: u64, now: Cycle) {
        match from {
            Level::L1I | Level::L1D => {
                let out = self.l2.lookup(addr, true, now);
                if !out.hit {
                    // Allocate-on-writeback.
                    let t = out.ready;
                    if let Some(l2evict) = self.l2.fill_slot(addr, true, t, out.mshr_slot) {
                        self.writeback_below(Level::L2, l2evict * crate::LINE_BYTES, t);
                    }
                }
            }
            Level::L2 => self.shared.writeback(addr, now),
            Level::Llc | Level::Dram => {}
        }
    }

    fn cache_mut(&mut self, lv: Level) -> &mut Cache {
        match lv {
            Level::L1I => &mut self.l1i,
            Level::L1D => &mut self.l1d,
            Level::L2 => &mut self.l2,
            Level::Llc | Level::Dram => {
                unreachable!("the LLC and DRAM are shared; use SharedLlc")
            }
        }
    }

    /// Shared read access to a *private* level's cache (stats, line
    /// counts).
    ///
    /// # Panics
    ///
    /// Panics for [`Level::Llc`]/[`Level::Dram`]: those are shared —
    /// use [`Hierarchy::shared_llc`].
    #[must_use]
    pub fn cache(&self, lv: Level) -> &Cache {
        match lv {
            Level::L1I => &self.l1i,
            Level::L1D => &self.l1d,
            Level::L2 => &self.l2,
            Level::Llc | Level::Dram => {
                panic!("the LLC and DRAM are shared; use shared_llc()")
            }
        }
    }

    /// Whether `lv` has no free MSHR at `now` — the VMU's issue-stall
    /// probe (Fig 8).
    #[must_use]
    pub fn mshr_full_at(&self, lv: Level, now: Cycle) -> bool {
        match lv {
            Level::Llc => self.shared.mshr_full_at(now),
            _ => self.cache(lv).mshr_full_at(now),
        }
    }

    /// Reconfigures the private L2 for EVE's vector mode (§V-E):
    /// invalidates everything resident (the donated ways' lines), with
    /// dirty lines written back to the LLC, each line costing a
    /// constant number of cycles. Returns when reconfiguration is done.
    pub fn spawn_vector_mode(&mut self, now: Cycle) -> Cycle {
        const CYCLES_PER_LINE: u64 = 2;
        let (clean, dirty) = self.l2.invalidate_all();
        self.shared.spawn_flush(dirty, now);
        self.l2 = Cache::new(CacheConfig::l2_vector_mode());
        self.l2_reconfig_lines.add(clean + dirty);
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            tr.instant_arg(
                "mem",
                "reconfig",
                "spawn_flush",
                now.0,
                ("lines", clean + dirty),
            );
        }
        now + Cycle((clean + dirty) * CYCLES_PER_LINE)
    }

    /// Returns the L2 to cache duty: no overhead, lines start invalid
    /// (§V-E).
    pub fn despawn_vector_mode(&mut self, now: Cycle) -> Cycle {
        self.l2 = Cache::new(CacheConfig::l2());
        now
    }

    /// Repartitions the private L2 to `ways` cache ways (the rest
    /// donated to engines) — the elastic controller's generalization of
    /// [`Hierarchy::spawn_vector_mode`]. A no-op when the split already
    /// matches; otherwise every resident line is invalidated (dirty
    /// lines written back) at the same per-line cost as a spawn flush,
    /// and the same `l2_reconfig_lines` stat attributes the work.
    /// Returns when the repartition is done.
    pub fn repartition_l2(&mut self, ways: u32, now: Cycle) -> Cycle {
        const CYCLES_PER_LINE: u64 = 2;
        if self.l2.config().ways == ways {
            return now;
        }
        let (clean, dirty) = self.l2.invalidate_all();
        self.shared.spawn_flush(dirty, now);
        self.l2 = Cache::new(CacheConfig::l2_with_ways(ways));
        self.l2_reconfig_lines.add(clean + dirty);
        #[cfg(feature = "obs")]
        if let Some(tr) = &self.tracer {
            tr.instant_arg(
                "mem",
                "reconfig",
                "repartition",
                now.0,
                ("lines", clean + dirty),
            );
        }
        now + Cycle((clean + dirty) * CYCLES_PER_LINE)
    }

    /// Collects all statistics under dotted prefixes.
    #[must_use]
    pub fn collect_stats(&self) -> Stats {
        let mut s = Stats::new();
        for (lv, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            for (k, v) in c.stats().iter() {
                s.add(&format!("{lv}.{k}"), v);
            }
        }
        // In a CMP the shared counters appear in every core's roll-up;
        // aggregate reporting must de-duplicate by reading one core.
        s.merge(&self.shared.collect_stats());
        s.publish("accesses", self.accesses);
        s.publish("l2_reconfig_lines", self.l2_reconfig_lines);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::table_iii())
    }

    #[test]
    fn cold_miss_reaches_dram_and_fills_all_levels() {
        let mut h = hier();
        let a = h.access(Level::L1D, 0x4000, false, Cycle(0));
        assert_eq!(a.hit_level, Level::Dram);
        // 2 (L1D) + 8 (L2) + 12 (LLC) + 60 (DRAM) plus queueing.
        assert!(a.complete >= Cycle(82), "{a:?}");
        let b = h.access(Level::L1D, 0x4000, false, a.complete + Cycle(1));
        assert_eq!(b.hit_level, Level::L1D);
    }

    #[test]
    fn l2_entry_skips_l1() {
        let mut h = hier();
        h.access(Level::L1D, 0x4000, false, Cycle(0));
        // New line entering at L2: hits LLC? no - not resident; goes to
        // DRAM without touching L1 stats further.
        let before = h.cache(Level::L1D).stats().get("misses");
        let a = h.access(Level::L2, 0x9000, false, Cycle(0));
        assert_eq!(a.hit_level, Level::Dram);
        assert_eq!(h.cache(Level::L1D).stats().get("misses"), before);
    }

    #[test]
    fn llc_hit_after_l2_eviction_path() {
        let mut h = hier();
        let a = h.access(Level::L1D, 0x4000, false, Cycle(0));
        // Direct LLC probe of the same line hits.
        let b = h.access(Level::Llc, 0x4000, false, a.complete);
        assert_eq!(b.hit_level, Level::Llc);
    }

    #[test]
    fn vector_mode_reconfig_costs_scale_with_lines() {
        let mut h = hier();
        // Touch a bunch of lines, some dirty.
        for i in 0..64u64 {
            h.access(Level::L1D, 0x10000 + i * 64, i % 2 == 0, Cycle(i * 200));
        }
        let resident = h.cache(Level::L2).resident_lines();
        assert!(resident > 0);
        let done = h.spawn_vector_mode(Cycle(100_000));
        assert_eq!(done, Cycle(100_000 + resident * 2));
        // L2 is now half-sized.
        assert_eq!(h.cache(Level::L2).config().ways, 4);
        let back = h.despawn_vector_mode(done);
        assert_eq!(back, done);
        assert_eq!(h.cache(Level::L2).config().ways, 8);
        assert_eq!(h.cache(Level::L2).resident_lines(), 0);
    }

    #[test]
    fn repartition_generalizes_spawn() {
        let mut h = hier();
        for i in 0..64u64 {
            h.access(Level::L1D, 0x10000 + i * 64, i % 2 == 0, Cycle(i * 200));
        }
        let resident = h.cache(Level::L2).resident_lines();
        assert!(resident > 0);
        // Matching split: free, nothing flushed.
        assert_eq!(h.repartition_l2(8, Cycle(50_000)), Cycle(50_000));
        assert_eq!(h.cache(Level::L2).resident_lines(), resident);
        // Narrowing to 2 ways flushes everything at 2 cycles/line.
        let done = h.repartition_l2(2, Cycle(100_000));
        assert_eq!(done, Cycle(100_000 + resident * 2));
        assert_eq!(h.cache(Level::L2).config().ways, 2);
        assert_eq!(h.cache(Level::L2).resident_lines(), 0);
        assert_eq!(h.collect_stats().get("l2_reconfig_lines"), resident);
        // Widening back is a flush of whatever is resident (nothing).
        assert_eq!(h.repartition_l2(8, done), done);
        assert_eq!(h.cache(Level::L2).config().ways, 8);
    }

    #[test]
    fn stats_roll_up() {
        let mut h = hier();
        h.access(Level::L1D, 0, false, Cycle(0));
        h.access(Level::L1D, 0, false, Cycle(200));
        let s = h.collect_stats();
        assert_eq!(s.get("l1d.hits"), 1);
        assert_eq!(s.get("l1d.misses"), 1);
        assert_eq!(s.get("dram.accesses"), 1);
        assert_eq!(s.get("accesses"), 2);
    }

    #[test]
    fn mshr_probe() {
        let mut h = hier();
        assert!(!h.mshr_full_at(Level::Llc, Cycle(0)));
        // Saturate the LLC's 32 MSHRs with distinct-line misses at t=0.
        for i in 0..40u64 {
            h.access(Level::Llc, 0x100_0000 + i * 64, false, Cycle(0));
        }
        assert!(h.mshr_full_at(Level::Llc, Cycle(0)));
    }
}
