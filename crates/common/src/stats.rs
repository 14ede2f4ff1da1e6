//! Named statistic counters.
//!
//! Every timing model in the workspace exposes its measurements through a
//! [`Stats`] table so the experiment runner can collect them uniformly —
//! the same role gem5's stats framework plays for the paper's evaluation.
//! Hot paths count into typed [`Counter`] fields instead, and publish
//! them into a table only when a report is built.

use std::collections::BTreeMap;
use std::fmt;

/// A typed hot-path counter that remembers whether it was ever written.
///
/// Timing models keep one plain `Counter` field per statistic and
/// render them into a [`Stats`] table only when a report is built (see
/// [`Stats::publish`]). The touched flag carries the table's
/// key-presence rule over to the typed fields: a key exists iff it was
/// written, so `add(0)` still makes its key appear and a counter that
/// was never written renders no key at all.
///
/// # Examples
///
/// ```
/// use eve_common::{Counter, Stats};
/// let mut hits = Counter::default();
/// let mut stalls = Counter::default();
/// let idle = Counter::default();
/// hits.add(3);
/// hits.incr();
/// stalls.add(0);
/// let mut s = Stats::new();
/// s.publish("hits", hits);
/// s.publish("stalls", stalls);
/// s.publish("idle", idle);
/// assert_eq!(s.get("hits"), 4);
/// assert_eq!(s.len(), 2); // "stalls" is present at 0, "idle" absent
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    value: u64,
    touched: bool,
}

impl Counter {
    /// Adds `amount` to the counter.
    #[inline]
    pub fn add(&mut self, amount: u64) {
        self.value += amount;
        self.touched = true;
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Sets the counter to `value`.
    #[inline]
    pub fn set(&mut self, value: u64) {
        self.value = value;
        self.touched = true;
    }

    /// Current value (zero if never written).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Whether any `add`, `incr` or `set` has been applied.
    #[must_use]
    pub fn touched(&self) -> bool {
        self.touched
    }
}

/// A table of named counters, keyed by a dotted path such as
/// `"l2.misses"` or `"vmu.llc_stall_cycles"`.
///
/// Keys are created on first use; reading a key that was never written
/// returns zero, which keeps report code free of `Option` plumbing.
///
/// # Examples
///
/// ```
/// use eve_common::Stats;
/// let mut stats = Stats::new();
/// stats.add("l2.misses", 10);
/// stats.incr("l2.misses");
/// assert_eq!(stats.get("l2.misses"), 11);
/// assert_eq!(stats.get("never.touched"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
}

impl Stats {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `amount` to the counter named `key`, creating it if absent.
    pub fn add(&mut self, key: &str, amount: u64) {
        *self.entry(key) += amount;
    }

    /// Adds one to the counter named `key`, creating it if absent.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Sets the counter named `key` to `value`.
    pub fn set(&mut self, key: &str, value: u64) {
        *self.entry(key) = value;
    }

    /// Adds a typed counter under `key` if it was ever written; a
    /// never-touched counter leaves the table unchanged. Into a table
    /// without `key` this renders exactly what the same sequence of
    /// `add`/`incr`/`set` calls on `key` would have produced.
    pub fn publish(&mut self, key: &str, counter: Counter) {
        if counter.touched() {
            self.add(key, counter.value());
        }
    }

    /// Publishes every `(key, counter)` pair (see [`Stats::publish`]).
    pub fn publish_all<'a>(&mut self, counters: impl IntoIterator<Item = (&'a str, Counter)>) {
        for (key, counter) in counters {
            self.publish(key, counter);
        }
    }

    fn entry(&mut self, key: &str) -> &mut u64 {
        // Look up by `&str` first so the common existing-key path does
        // not allocate a `String`.
        if !self.counters.contains_key(key) {
            self.counters.insert(key.to_owned(), 0);
        }
        self.counters.get_mut(key).expect("just inserted")
    }

    /// Value of the counter named `key`, or zero if never written.
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another table into this one, summing matching keys.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Number of distinct counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<48} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_key_reads_zero() {
        let stats = Stats::new();
        assert_eq!(stats.get("nope"), 0);
        assert!(stats.is_empty());
    }

    #[test]
    fn add_incr_set() {
        let mut stats = Stats::new();
        stats.add("a", 5);
        stats.incr("a");
        stats.set("b", 100);
        assert_eq!(stats.get("a"), 6);
        assert_eq!(stats.get("b"), 100);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn merge_sums_keys() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut stats = Stats::new();
        stats.incr("b");
        stats.incr("a");
        stats.incr("c");
        let names: Vec<&str> = stats.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn display_lists_counters() {
        let mut stats = Stats::new();
        stats.set("one", 1);
        let out = stats.to_string();
        assert!(out.contains("one"));
        assert!(out.trim().ends_with('1'));
    }

    #[test]
    fn typed_counters_render_like_string_keys() {
        use crate::SplitMix64;
        // The last two keys are never written: they must render no key.
        const KEYS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "never.x", "never.y"];
        const WRITTEN: u64 = 6;
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut typed = [Counter::default(); KEYS.len()];
            let mut keyed = Stats::new();
            let steps = rng.below(40);
            for _ in 0..steps {
                let k = rng.below(WRITTEN) as usize;
                // Zero amounts are common so that add(_, 0) is covered.
                let amount = if rng.chance(0.3) { 0 } else { rng.below(1000) };
                match rng.below(3) {
                    0 => {
                        typed[k].incr();
                        keyed.incr(KEYS[k]);
                    }
                    1 => {
                        typed[k].add(amount);
                        keyed.add(KEYS[k], amount);
                    }
                    _ => {
                        typed[k].set(amount);
                        keyed.set(KEYS[k], amount);
                    }
                }
            }
            let mut rendered = Stats::new();
            rendered.publish_all(KEYS.iter().copied().zip(typed));
            assert_eq!(rendered, keyed, "seed {seed}");
            assert_eq!(rendered.to_string(), keyed.to_string(), "seed {seed}");
            for key in &KEYS[WRITTEN as usize..] {
                assert!(rendered.iter().all(|(k, _)| k != *key), "seed {seed}");
            }
        }
    }

    #[test]
    fn untouched_counter_renders_no_key_and_zero_add_does() {
        let mut s = Stats::new();
        s.publish("idle", Counter::default());
        assert!(s.is_empty());
        let mut zero = Counter::default();
        zero.add(0);
        s.publish("zero", zero);
        assert_eq!(s.iter().collect::<Vec<_>>(), [("zero", 0)]);
    }
}
