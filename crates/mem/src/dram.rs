//! Single-channel DRAM latency/bandwidth model.

use crate::config::DramConfig;
use eve_common::{Counter, Cycle, Stats};

/// A DDR4-like memory channel: fixed access latency plus a channel
/// occupancy per line that bounds sustained bandwidth.
///
/// # Examples
///
/// ```
/// use eve_common::Cycle;
/// use eve_mem::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig::ddr4_2400());
/// let first = dram.access(Cycle(0));
/// let second = dram.access(Cycle(0)); // same-cycle: queued behind
/// assert!(second > first);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    channel_free: Cycle,
    accesses: Counter,
    queue_cycles: Counter,
    writebacks: Counter,
}

impl Dram {
    /// A channel with the given configuration.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Self {
            cfg,
            channel_free: Cycle::ZERO,
            accesses: Counter::default(),
            queue_cycles: Counter::default(),
            writebacks: Counter::default(),
        }
    }

    /// Performs one line access issued at `now`; returns when the data
    /// is available.
    pub fn access(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.channel_free);
        self.channel_free = start + Cycle(self.cfg.cycles_per_line);
        self.accesses.incr();
        self.queue_cycles.add(start.saturating_since(now).0);
        start + Cycle(self.cfg.latency)
    }

    /// Charges channel occupancy for a writeback without modelling its
    /// completion (writebacks are off the critical path).
    pub fn writeback(&mut self, now: Cycle) {
        let start = now.max(self.channel_free);
        self.channel_free = start + Cycle(self.cfg.cycles_per_line);
        self.writebacks.incr();
    }

    /// The accumulated counters (`accesses`, `queue_cycles`,
    /// `writebacks`), rendered into a new owned table; a counter never
    /// written has no key.
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.publish_all([
            ("accesses", self.accesses),
            ("queue_cycles", self.queue_cycles),
            ("writebacks", self.writebacks),
        ]);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_applied() {
        let mut d = Dram::new(DramConfig {
            latency: 50,
            cycles_per_line: 4,
        });
        assert_eq!(d.access(Cycle(10)), Cycle(60));
    }

    #[test]
    fn bandwidth_bound() {
        let mut d = Dram::new(DramConfig {
            latency: 50,
            cycles_per_line: 4,
        });
        // Burst of 10 simultaneous requests: completions spaced by the
        // per-line occupancy.
        let done: Vec<Cycle> = (0..10).map(|_| d.access(Cycle(0))).collect();
        for (i, c) in done.iter().enumerate() {
            assert_eq!(*c, Cycle(50 + 4 * i as u64));
        }
        assert!(d.stats().get("queue_cycles") > 0);
    }

    #[test]
    fn writebacks_consume_bandwidth() {
        let mut d = Dram::new(DramConfig {
            latency: 50,
            cycles_per_line: 4,
        });
        d.writeback(Cycle(0));
        // The read behind the writeback starts late.
        assert_eq!(d.access(Cycle(0)), Cycle(54));
    }
}
