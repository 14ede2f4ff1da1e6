//! Address-translation model.
//!
//! The paper's VMU "uses its TLB port to translate addresses for each
//! generated cacheline memory request. Our model accounts for the
//! request generation and address translation with one cycle and it
//! assumes translated addresses always hit in the TLB" (§VII-A). This
//! model matches that: a fixed one-cycle charge, with a translation
//! counter kept for reporting.

use eve_common::{Counter, Cycle, Stats};

/// A TLB port with the paper's always-hit, one-cycle behaviour.
///
/// # Examples
///
/// ```
/// use eve_common::Cycle;
/// use eve_mem::Tlb;
/// let mut tlb = Tlb::new();
/// assert_eq!(tlb.translate(0x1234, Cycle(10)), Cycle(11));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tlb {
    translations: Counter,
}

impl Tlb {
    /// A fresh TLB.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Translates `addr` at `now`: one cycle, always a hit.
    pub fn translate(&mut self, _addr: u64, now: Cycle) -> Cycle {
        self.translations.incr();
        now + Cycle(1)
    }

    /// The accumulated `translations` counter, rendered into a new
    /// owned table (empty until the first translation).
    #[must_use]
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        s.publish("translations", self.translations);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_always() {
        let mut t = Tlb::new();
        assert_eq!(t.translate(0, Cycle(0)), Cycle(1));
        assert_eq!(t.translate(u64::MAX, Cycle(100)), Cycle(101));
        assert_eq!(t.stats().get("translations"), 2);
    }
}
