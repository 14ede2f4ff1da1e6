//! One cache level: tags, LRU, banks, and MSHRs.

use crate::config::CacheConfig;
use crate::line_of;
use eve_common::{Counter, Cycle, Stats};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

#[derive(Debug, Clone, Copy)]
struct TagEntry {
    line: u64,
    dirty: bool,
    last_used: u64,
}

/// Outcome of a tag lookup plus resource accounting at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// When this level can deliver (hit) or start the downstream miss
    /// (miss): request time + bank wait + hit latency.
    pub ready: Cycle,
    /// Cycles spent waiting for a free MSHR (misses only).
    pub mshr_wait: Cycle,
    /// The MSHR slot this miss claimed; the caller must release it via
    /// [`Cache::fill`].
    pub mshr_slot: Option<usize>,
}

/// One cache level.
///
/// The cache tracks *timing state* (tags, bank busy times, MSHR busy
/// times, in-flight fills) but no data — the functional interpreter
/// owns the bytes. This mirrors the paper's split between functional
/// execution and timing (§VII-A).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u64,
    tags: Vec<Vec<Option<TagEntry>>>,
    banks: Vec<Cycle>,
    mshrs: Vec<Cycle>,
    /// Fill completion time of every distinct line ever filled. An
    /// entry stays until a later miss to its line finds the fill long
    /// done (a stale miss) and removes it, or until `invalidate_all`
    /// clears the map; hits consult it so a line still in flight
    /// cannot deliver early.
    inflight: HashMap<u64, Cycle, BuildHasherDefault<LineHasher>>,
    use_clock: u64,
    counters: CacheCounters,
}

/// One cache level's counters, rendered by [`Cache::stats`].
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    mshr_coalesced: Counter,
    mshr_wait_cycles: Counter,
    writebacks: Counter,
}

/// Hashes a line number with a single multiply (the FxHash step).
/// Line keys are plain integers chosen by the simulated program, not
/// an adversary, and the `inflight` map's iteration order is never
/// observed, so SipHash's DoS resistance buys nothing on the hit path.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (checked by presets and
    /// tests; see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets().expect("valid cache configuration");
        Self {
            tags: vec![vec![None; cfg.ways as usize]; sets as usize],
            banks: vec![Cycle::ZERO; cfg.banks as usize],
            mshrs: vec![Cycle::ZERO; cfg.mshrs as usize],
            inflight: HashMap::default(),
            use_clock: 0,
            sets,
            cfg,
            counters: CacheCounters::default(),
        }
    }

    /// The level's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The accumulated counters (`hits`, `misses`, `mshr_coalesced`,
    /// `mshr_wait_cycles`, `writebacks`), rendered into a new owned
    /// table; a counter never written has no key.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let c = &self.counters;
        let mut s = Stats::new();
        s.publish_all([
            ("hits", c.hits),
            ("misses", c.misses),
            ("mshr_coalesced", c.mshr_coalesced),
            ("mshr_wait_cycles", c.mshr_wait_cycles),
            ("writebacks", c.writebacks),
        ]);
        s
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize
    }

    fn bank_of(&self, line: u64) -> usize {
        (line % u64::from(self.cfg.banks)) as usize
    }

    /// Claims the line's bank from `now`, returning when the access can
    /// proceed (each access occupies its bank for one cycle).
    fn claim_bank(&mut self, line: u64, now: Cycle) -> Cycle {
        let b = self.bank_of(line);
        let start = now.max(self.banks[b]);
        self.banks[b] = start + Cycle(1);
        start
    }

    /// Looks up `addr` at time `now`. On a hit the line's LRU state and
    /// dirtiness are updated. On a miss an MSHR is claimed (waiting for
    /// a free one if needed); the caller must later call
    /// [`Cache::fill`] with the downstream completion time.
    ///
    /// A miss to a line already in flight coalesces: reported as a miss
    /// with `ready` equal to the in-flight completion and zero MSHR
    /// cost; the caller must treat it as already handled downstream.
    pub fn lookup(&mut self, addr: u64, store: bool, now: Cycle) -> LevelOutcome {
        let line = line_of(addr);
        let start = self.claim_bank(line, now);
        let set = self.set_of(line);
        self.use_clock += 1;
        let clock = self.use_clock;
        if let Some(entry) = self.tags[set].iter_mut().flatten().find(|e| e.line == line) {
            entry.last_used = clock;
            entry.dirty |= store;
            self.counters.hits.incr();
            // A line whose fill is still in flight cannot deliver until
            // the fill lands.
            let pending = self.inflight.get(&line).copied().unwrap_or(Cycle::ZERO);
            return LevelOutcome {
                hit: true,
                ready: (start + Cycle(self.cfg.hit_latency)).max(pending),
                mshr_wait: Cycle::ZERO,
                mshr_slot: None,
            };
        }
        self.counters.misses.incr();
        let lookup_done = start + Cycle(self.cfg.hit_latency);
        if let Some(&fill_done) = self.inflight.get(&line) {
            if fill_done > lookup_done {
                // Genuinely in flight: coalesce onto the pending fill.
                // Reported as a hit — this level supplies the data
                // when the outstanding fill lands, and the request
                // must not propagate downstream again.
                self.counters.mshr_coalesced.incr();
                return LevelOutcome {
                    hit: true,
                    ready: fill_done,
                    mshr_wait: Cycle::ZERO,
                    mshr_slot: None,
                };
            }
            // The old fill completed long ago (and the line has since
            // been evicted): this is a fresh miss.
            self.inflight.remove(&line);
        }
        // Claim the earliest-free MSHR; it stays held until `fill`
        // releases it at the downstream completion time.
        let (slot, &free_at) = self
            .mshrs
            .iter()
            .enumerate()
            .min_by_key(|(_, &c)| c)
            .expect("mshrs nonzero");
        let issue = lookup_done.max(free_at);
        let wait = issue.saturating_since(lookup_done);
        self.counters.mshr_wait_cycles.add(wait.0);
        self.mshrs[slot] = Cycle(u64::MAX); // held until fill
        LevelOutcome {
            hit: false,
            ready: issue,
            mshr_wait: wait,
            mshr_slot: Some(slot),
        }
    }

    /// Whether a request arriving `now` would have to wait for an MSHR
    /// (used by vector memory units to count issue stalls without
    /// side effects).
    #[must_use]
    pub fn mshr_full_at(&self, now: Cycle) -> bool {
        self.mshrs.iter().all(|&c| c > now)
    }

    /// Completes a miss: installs `addr`'s line, releases the claimed
    /// MSHR slot at `fill_done`, and returns the evicted dirty line
    /// (if any) that must be written back downstream.
    pub fn fill(&mut self, addr: u64, store: bool, fill_done: Cycle) -> Option<u64> {
        self.fill_slot(addr, store, fill_done, None)
    }

    /// Like [`Cache::fill`], releasing the specific slot claimed by the
    /// matching [`Cache::lookup`].
    pub fn fill_slot(
        &mut self,
        addr: u64,
        store: bool,
        fill_done: Cycle,
        slot: Option<usize>,
    ) -> Option<u64> {
        let line = line_of(addr);
        let set = self.set_of(line);
        self.inflight.insert(line, fill_done);
        match slot {
            Some(s) => self.mshrs[s] = fill_done,
            None => {
                // No slot tracked (caller used the simple API):
                // release the longest-held slot.
                if let Some(s) = self.mshrs.iter_mut().max_by_key(|c| **c) {
                    *s = fill_done;
                }
            }
        }
        self.use_clock += 1;
        let clock = self.use_clock;
        // Install: prefer an invalid way, else evict true-LRU.
        let ways = &mut self.tags[set];
        let victim = match ways.iter().position(Option::is_none) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.as_ref().map_or(0, |t| t.last_used))
                .map(|(i, _)| i)
                .expect("ways nonzero"),
        };
        let evicted = ways[victim].filter(|e| e.dirty).map(|e| e.line);
        ways[victim] = Some(TagEntry {
            line,
            dirty: store,
            last_used: clock,
        });
        if evicted.is_some() {
            self.counters.writebacks.incr();
        }
        evicted
    }

    /// Invalidates every line, returning `(clean, dirty)` line counts —
    /// the §V-E reconfiguration cost drivers.
    pub fn invalidate_all(&mut self) -> (u64, u64) {
        let mut clean = 0;
        let mut dirty = 0;
        for set in &mut self.tags {
            for way in set.iter_mut() {
                if let Some(e) = way.take() {
                    if e.dirty {
                        dirty += 1;
                    } else {
                        clean += 1;
                    }
                }
            }
        }
        self.inflight.clear();
        (clean, dirty)
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.tags
            .iter()
            .map(|s| s.iter().flatten().count() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            name: "t".into(),
            size_bytes: 4 * 2 * 64, // 4 sets? no: sets = size/(ways*64) = 4
            ways: 2,
            hit_latency: 2,
            mshrs: 2,
            banks: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let m = c.lookup(0x1000, false, Cycle(0));
        assert!(!m.hit);
        c.fill(0x1000, false, Cycle(50));
        let h = c.lookup(0x1008, false, Cycle(60));
        assert!(h.hit);
        assert_eq!(h.ready, Cycle(62));
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.stats().get("misses"), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // 4 sets; lines 0, 4, 8 map to set 0 (line % 4).
        for (i, line) in [0u64, 4, 8].iter().enumerate() {
            let addr = line * 64;
            c.lookup(addr, false, Cycle(i as u64 * 10));
            c.fill(addr, false, Cycle(i as u64 * 10 + 5));
        }
        // Line 0 (oldest) must be gone; 4 and 8 resident.
        assert!(!c.lookup(0, false, Cycle(100)).hit);
        assert!(c.lookup(4 * 64, false, Cycle(101)).hit);
        assert!(c.lookup(8 * 64, false, Cycle(102)).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.lookup(0, true, Cycle(0));
        c.fill(0, true, Cycle(5));
        c.lookup(4 * 64, false, Cycle(10));
        c.fill(4 * 64, false, Cycle(15));
        c.lookup(8 * 64, false, Cycle(20));
        let evicted = c.fill(8 * 64, false, Cycle(25));
        assert_eq!(evicted, Some(0));
        assert_eq!(c.stats().get("writebacks"), 1);
    }

    #[test]
    fn mshr_exhaustion_delays() {
        let mut c = small();
        // Two MSHRs: the third simultaneous miss must wait.
        let a = c.lookup(0, false, Cycle(0));
        c.fill(0, false, Cycle(100));
        let b = c.lookup(64, false, Cycle(0));
        c.fill(64, false, Cycle(100));
        let third = c.lookup(128, false, Cycle(0));
        assert!(third.mshr_wait > Cycle::ZERO, "{third:?}");
        assert!(a.mshr_wait == Cycle::ZERO && b.mshr_wait == Cycle::ZERO);
        assert!(c.stats().get("mshr_wait_cycles") > 0);
    }

    #[test]
    fn second_access_to_inflight_line_waits_for_fill() {
        let mut c = small();
        c.lookup(0x40, false, Cycle(0));
        c.fill(0x40, false, Cycle(80));
        // The line is tagged but its fill lands at 80: an access at
        // t=1 "hits" yet cannot complete before the data arrives.
        let co = c.lookup(0x48, false, Cycle(1));
        assert!(co.hit);
        assert_eq!(co.ready, Cycle(80));
        assert_eq!(co.mshr_wait, Cycle::ZERO);
        // Once the fill has landed, hits are fast again.
        let h = c.lookup(0x40, false, Cycle(200));
        assert_eq!(h.ready, Cycle(202));
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = small();
        c.lookup(0, false, Cycle(0));
        c.fill(0, false, Cycle(2));
        c.lookup(4 * 64, false, Cycle(10));
        c.fill(4 * 64, false, Cycle(12));
        // Two hits in the same cycle to the single bank: second starts
        // a cycle later.
        let h1 = c.lookup(0, false, Cycle(20));
        let h2 = c.lookup(4 * 64, false, Cycle(20));
        assert_eq!(h1.ready, Cycle(22));
        assert_eq!(h2.ready, Cycle(23));
    }

    #[test]
    fn invalidate_counts_clean_and_dirty() {
        let mut c = small();
        c.lookup(0, true, Cycle(0));
        c.fill(0, true, Cycle(2));
        c.lookup(64, false, Cycle(5));
        c.fill(64, false, Cycle(7));
        assert_eq!(c.resident_lines(), 2);
        let (clean, dirty) = c.invalidate_all();
        assert_eq!((clean, dirty), (1, 1));
        assert_eq!(c.resident_lines(), 0);
    }
}
