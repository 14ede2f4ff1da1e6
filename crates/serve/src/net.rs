//! The deterministic lossy interconnect between the router and shards.
//!
//! Until this layer existed, router→shard and shard→router messaging
//! was an instantaneous, perfectly-reliable in-process call — the one
//! failure class the cluster could not see. [`Link`] makes delivery
//! explicit: every request, response, cancel, and heartbeat becomes a
//! message with a seeded per-link delay distribution, loss
//! probability, duplication, and extra-delay reordering, so runs stay
//! byte-identical at any campaign thread count.
//!
//! On top of the raw link the cluster builds exactly-once *effects*
//! from at-least-once *delivery*:
//!
//! * [`DedupTable`] is the per-shard idempotency table: the first
//!   execution of a request is recorded with its result, and every
//!   redelivered copy resends the cached response instead of
//!   re-executing — no double-spent warmup flushes, no duplicate SDC
//!   exposure.
//! * [`RttWindow`] is the windowed RTT estimator behind hedged
//!   requests: once enough samples exist, a hedge fires after the
//!   windowed p99 delay and the first response wins.
//! * [`Detector`] is the windowed heartbeat failure detector: the
//!   router pings every shard over the same lossy link; a shard whose
//!   acks go quiet for more than the miss window is *suspected* and
//!   routed around, and recovers the moment an ack lands. A partition
//!   is now just 100% loss on a link — the blunt
//!   [`ShardPartition`](crate::storm::StormEventKind::ShardPartition)
//!   oracle is only kept for the historical (net-disabled) mode.
//!
//! Everything here is a pure function of the seed. Link draws are
//! *counter-based*: a message's fate is keyed by (seed, link, class,
//! per-class sequence number, copy, field), so it never depends on how
//! many other messages the link carried before it. Heartbeat `k` on a
//! link is sent at `phase + k·heartbeat_every`, and its ping and ack
//! fates are pure functions of (seed, link, `k`) and the link's loss
//! windows, which is what lets the detector evaluate heartbeats in
//! closed form instead of as calendar events.

use eve_common::SplitMix64;
use std::collections::{HashMap, VecDeque};

/// The SplitMix64 state increment, which lets [`stream_at`] jump
/// straight to any position of a stream.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stream positions each message owns: its draws are fields
/// `0..FIELDS` of block `seq` in its class's stream.
const FIELDS: u64 = 8;

/// Heartbeat ticks one detector scan evaluates before it hands back a
/// resume point instead of a transition. Bounds the work behind one
/// calendar event on a link that never goes quiet (or never recovers),
/// and how far the scan can run ahead of a run's end.
const SCAN_TICKS: u32 = 128;

/// Transport knobs for one cluster run. Disabled (the default) keeps
/// the historical instantaneous-reliable dispatch path byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPolicy {
    /// Whether the transport layer is modeled at all.
    pub enabled: bool,
    /// Minimum one-way delay per message copy, cycles.
    pub base_delay: u64,
    /// Uniform extra delay on `[0, jitter]`, cycles.
    pub jitter: u64,
    /// Per-copy drop probability.
    pub loss: f64,
    /// Probability a transmit emits two copies instead of one.
    pub duplicate: f64,
    /// Probability a copy picks up `reorder_extra` additional delay,
    /// letting later messages overtake it.
    pub reorder: f64,
    /// The overtaking delay, cycles.
    pub reorder_extra: u64,
    /// Sender-side retransmit timeout. Zero derives it from the
    /// service profile ([`crate::ServiceProfile::rto_hint`]).
    pub rto: u64,
    /// Retransmits per request before the sender fails over.
    pub max_retransmits: u32,
    /// Whether hedged requests fire at all.
    pub hedge: bool,
    /// RTT samples required before the hedge estimator arms.
    pub hedge_min_samples: usize,
    /// Floor on the hedge delay, cycles (a tiny p99 must not hedge
    /// every request).
    pub hedge_floor: u64,
    /// Heartbeat period per link, cycles.
    pub heartbeat_every: u64,
    /// Consecutive silent heartbeat periods before suspicion.
    pub suspect_misses: u32,
}

impl Default for NetPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            base_delay: 40,
            jitter: 24,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_extra: 96,
            rto: 0,
            max_retransmits: 3,
            hedge: true,
            hedge_min_samples: 16,
            hedge_floor: 1_000,
            heartbeat_every: 2_000,
            suspect_misses: 3,
        }
    }
}

impl NetPolicy {
    /// An enabled policy with `loss` drop probability, half that much
    /// duplication, and mild reordering — the standard chaos preset
    /// campaigns sweep.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        Self {
            enabled: true,
            loss,
            duplicate: loss / 2.0,
            reorder: 0.05,
            ..Self::default()
        }
    }

    /// Validates the probability fields.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when a probability
    /// leaves `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss", self.loss),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("net.{name} must be a probability, got {p}"));
            }
        }
        Ok(())
    }
}

/// Message classes a link carries, each conserved independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Router→shard request dispatch.
    Req = 0,
    /// Shard→router response (success or nack).
    Resp = 1,
    /// Router→shard hedge/first-response-wins cancellation.
    Cancel = 2,
    /// Router→shard heartbeat ping.
    Heartbeat = 3,
    /// Shard→router heartbeat ack.
    Ack = 4,
}

impl MsgClass {
    /// Every class, in wire order.
    pub const ALL: [MsgClass; 5] = [
        MsgClass::Req,
        MsgClass::Resp,
        MsgClass::Cancel,
        MsgClass::Heartbeat,
        MsgClass::Ack,
    ];

    /// Stable lowercase name for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MsgClass::Req => "req",
            MsgClass::Resp => "resp",
            MsgClass::Cancel => "cancel",
            MsgClass::Heartbeat => "heartbeat",
            MsgClass::Ack => "ack",
        }
    }
}

/// One message class's conservation ledger on one link. Counts are in
/// *copies* (a duplicated transmit is two sends), so
/// `sent == delivered + dropped + in-flight` holds exactly — the
/// auditor's message-conservation identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Copies handed to the link.
    pub sent: u64,
    /// Copies that reached the far end (late copies included).
    pub delivered: u64,
    /// Copies the link dropped at transmit time.
    pub dropped: u64,
    /// Extra copies the duplication draw emitted.
    pub dup_copies: u64,
}

impl ClassStats {
    /// Copies scheduled but not yet delivered — zero once a run's
    /// event heap has drained.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.sent - self.delivered - self.dropped
    }

    /// The ledger of one transmit: its copies, duplicates and drops,
    /// plus its deliveries when `delivered` (closed-form classes book
    /// them at once; calendar classes book them as copies land).
    fn of(fate: Fate, delivered: bool) -> Self {
        let copies = u64::from(fate.copies);
        let landed = fate.landed.len() as u64;
        Self {
            sent: copies,
            delivered: if delivered { landed } else { 0 },
            dropped: copies - landed,
            dup_copies: copies - 1,
        }
    }

    fn add(&mut self, d: Self) {
        self.sent += d.sent;
        self.delivered += d.delivered;
        self.dropped += d.dropped;
        self.dup_copies += d.dup_copies;
    }

    fn sub(&mut self, d: Self) {
        self.sent -= d.sent;
        self.delivered -= d.delivered;
        self.dropped -= d.dropped;
        self.dup_copies -= d.dup_copies;
    }
}

/// The delivery cycles of one transmit's surviving copies — at most
/// two, held inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deliveries {
    at: [u64; 2],
    len: u8,
}

impl Deliveries {
    fn push(&mut self, at: u64) {
        self.at[usize::from(self.len)] = at;
        self.len += 1;
    }

    /// Surviving copies.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether every copy dropped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl IntoIterator for Deliveries {
    type Item = u64;
    type IntoIter = std::iter::Take<std::array::IntoIter<u64, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.at.into_iter().take(usize::from(self.len))
    }
}

/// One message's fate on a link: how many copies it became and when
/// each surviving copy lands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fate {
    /// Copies emitted: 2 when the duplication draw fires, else 1.
    pub copies: u8,
    /// Delivery cycles of the copies that survived the loss draw.
    pub landed: Deliveries,
}

/// A `[from, until)` window during which a link drops each copy with
/// probability at least `loss`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LossWindow {
    from: u64,
    until: u64,
    loss: f64,
}

/// The SplitMix64 stream seeded at `key`, advanced `i` positions in
/// O(1): its next output is a counter-based draw, independent of every
/// other position.
fn stream_at(key: u64, i: u64) -> SplitMix64 {
    SplitMix64::new(key.wrapping_add(i.wrapping_mul(GAMMA)))
}

/// A Bernoulli trial that is `true` with probability `p`, taking a
/// uniform `[0, 1)` value from `unit` only when the outcome is not
/// certain. Skipping a draw is safe because no other draw depends on
/// its position.
fn hit(p: f64, unit: impl FnOnce() -> f64) -> bool {
    p > 0.0 && (p >= 1.0 || unit() < p)
}

/// One router↔shard link: per-class draw keys, its loss windows (how
/// partitions and [`LinkDegrade`](crate::storm::StormEventKind::LinkDegrade)
/// storms are modeled), per-class sequence counters, and per-class
/// conservation counters.
#[derive(Debug, Clone)]
pub struct Link {
    keys: [u64; MsgClass::ALL.len()],
    windows: Vec<LossWindow>,
    seqs: [u64; MsgClass::ALL.len()],
    classes: [ClassStats; MsgClass::ALL.len()],
}

impl Link {
    /// A link for `shard`, its draw keys derived from the cluster seed
    /// so adding a shard never perturbs another link's draws.
    #[must_use]
    pub fn new(seed: u64, shard: usize) -> Self {
        let link =
            seed ^ 0x6C62_272E_07BB_0142 ^ (shard as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        Self {
            keys: MsgClass::ALL.map(|c| stream_at(link, c as u64).next_u64()),
            windows: Vec::new(),
            seqs: [0; MsgClass::ALL.len()],
            classes: [ClassStats::default(); MsgClass::ALL.len()],
        }
    }

    /// Adds a loss window: copies sent in `[from, until)` drop with
    /// probability `loss` (if worse than the baseline). Windows are
    /// independent: each covers only its own span, and overlapping
    /// windows take the worse loss where they overlap.
    pub fn degrade(&mut self, from: u64, until: u64, loss: f64) {
        self.windows.push(LossWindow {
            from,
            until,
            loss: loss.clamp(0.0, 1.0),
        });
    }

    /// Whether a loss window covers `now`.
    #[must_use]
    pub fn degraded_at(&self, now: u64) -> bool {
        self.windows.iter().any(|w| w.from <= now && now < w.until)
    }

    /// The drop probability at `now`: the baseline or the worst window
    /// covering `now`, whichever is higher.
    fn loss_at(&self, now: u64, base: f64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.from <= now && now < w.until)
            .fold(base, |l, w| l.max(w.loss))
    }

    /// The fate of message `seq` of `class` sent at `now`, from the
    /// fields of block `seq` of the class's draw stream: field 0 draws
    /// duplication; copy `c` draws loss from field `1 + 2c` and, if it
    /// survives, jitter (high half) and reordering (low half) from
    /// field `2 + 2c`. A pure function of (seed, link, class, seq,
    /// `now`) and the loss windows; it touches no ledger.
    #[must_use]
    pub fn fate(&self, class: MsgClass, seq: u64, now: u64, p: &NetPolicy) -> Fate {
        let key = self.keys[class as usize];
        let block = seq.wrapping_mul(FIELDS);
        let copies: u8 = if hit(p.duplicate, || stream_at(key, block).next_f64()) {
            2
        } else {
            1
        };
        let loss = self.loss_at(now, p.loss);
        let mut landed = Deliveries::default();
        for c in 0..u64::from(copies) {
            let f = block + 1 + 2 * c;
            if hit(loss, || stream_at(key, f).next_f64()) {
                continue;
            }
            let x = stream_at(key, f + 1).next_u64();
            let mut delay = p.base_delay.max(1);
            if p.jitter > 0 {
                delay += ((u128::from(x >> 32) * u128::from(p.jitter + 1)) >> 32) as u64;
            }
            if hit(p.reorder, || f64::from(x as u32) / (1u64 << 32) as f64) {
                delay += p.reorder_extra;
            }
            landed.push(now + delay);
        }
        Fate { copies, landed }
    }

    /// Transmits the next message of `class` at `now` (its sequence
    /// number is the class's send count) and books its copies in the
    /// class ledger. Returns the delivery time of each surviving copy;
    /// the caller reports each landing through [`Link::on_delivered`].
    pub fn transmit(&mut self, now: u64, class: MsgClass, p: &NetPolicy) -> Deliveries {
        let seq = self.seqs[class as usize];
        self.seqs[class as usize] += 1;
        let fate = self.fate(class, seq, now, p);
        self.classes[class as usize].add(ClassStats::of(fate, false));
        fate.landed
    }

    /// Records one copy reaching the far end.
    pub fn on_delivered(&mut self, class: MsgClass) {
        self.classes[class as usize].delivered += 1;
    }

    /// One class's ledger.
    #[must_use]
    pub fn stats(&self, class: MsgClass) -> ClassStats {
        self.classes[class as usize]
    }

    /// Heartbeat `k`, sent at `sent`: the ping, and the ack answering
    /// each delivered ping copy — ack `2k + i` answers copy `i` and is
    /// sent the cycle that copy lands.
    fn heartbeat(&self, k: u64, sent: u64, p: &NetPolicy) -> (Fate, [Fate; 2]) {
        let ping = self.fate(MsgClass::Heartbeat, k, sent, p);
        let mut acks = [Fate::default(); 2];
        for (i, at) in ping.landed.into_iter().enumerate() {
            acks[i] = self.fate(MsgClass::Ack, 2 * k + i as u64, at, p);
        }
        (ping, acks)
    }
}

/// A shard's idempotency table: request id → cached result (whether
/// the cached answer is silently corrupt). Redelivered copies of an
/// executed request hit the cache and resend the recorded response
/// instead of re-executing — the exactly-once half of the transport.
#[derive(Debug, Clone, Default)]
pub struct DedupTable {
    done: HashMap<u64, bool>,
}

impl DedupTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `id`'s execution with its result. Returns `true` when
    /// this is the first (effective) application; `false` means the
    /// caller was about to double-apply — the auditor requires that
    /// count to be zero.
    pub fn record(&mut self, id: u64, corrupt: bool) -> bool {
        self.done.insert(id, corrupt).is_none()
    }

    /// The cached result of `id`, if it already executed here.
    #[must_use]
    pub fn lookup(&self, id: u64) -> Option<bool> {
        self.done.get(&id).copied()
    }

    /// Distinct requests executed here.
    #[must_use]
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether nothing executed here yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }
}

/// A fixed-capacity sliding window of RTT samples with an exact p99 —
/// the hedge-delay estimator. The ring keeps arrival order (which
/// sample to evict next) and a sorted copy of the same samples is
/// maintained incrementally, so a query is one index and the estimate
/// is deterministic.
#[derive(Debug, Clone)]
pub struct RttWindow {
    samples: Vec<u64>,
    sorted: Vec<u64>,
    next: usize,
    cap: usize,
}

impl RttWindow {
    /// An empty window holding up to `cap` samples.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            samples: Vec::with_capacity(cap),
            sorted: Vec::with_capacity(cap),
            next: 0,
            cap,
        }
    }

    /// Records one round-trip sample, evicting the oldest at capacity.
    pub fn record(&mut self, rtt: u64) {
        if self.samples.len() < self.cap {
            self.samples.push(rtt);
        } else {
            let old = std::mem::replace(&mut self.samples[self.next], rtt);
            let i = self.sorted.partition_point(|&s| s < old);
            self.sorted.remove(i);
        }
        let i = self.sorted.partition_point(|&s| s < rtt);
        self.sorted.insert(i, rtt);
        self.next = (self.next + 1) % self.cap;
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The windowed 99th-percentile RTT, `None` while empty.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        let idx = ((self.sorted.len().checked_sub(1)?) as f64 * 0.99).round() as usize;
        Some(self.sorted[idx])
    }

    /// The hedge delay: windowed p99 clamped up to `floor`, and `None`
    /// until `min_samples` RTTs have been observed (hedging on a cold
    /// estimator would fire on noise).
    #[must_use]
    pub fn hedge_delay(&self, min_samples: usize, floor: u64) -> Option<u64> {
        if self.samples.len() < min_samples.max(1) {
            return None;
        }
        self.p99().map(|p| p.max(floor))
    }
}

/// One failure-detector transition, kept as replayable history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorEvent {
    /// When the transition happened.
    pub at: u64,
    /// Which shard's link.
    pub shard: usize,
    /// `true` = became suspected, `false` = recovered.
    pub suspected: bool,
}

/// One link's view of its own ack stream.
#[derive(Debug, Clone)]
struct Monitor {
    /// Send cycle of heartbeat 0 (phases are staggered across links).
    phase: u64,
    /// Heartbeats `0..next_tick` have been evaluated.
    next_tick: u64,
    /// Known ack landings after `last_ack`, ascending.
    acks: VecDeque<u64>,
    /// The latest ack landing the detector has consumed.
    last_ack: u64,
    suspected: bool,
    /// This link's next detector event.
    next_at: u64,
    /// Whether `next_at` is a transition rather than a scan resume
    /// point.
    flips: bool,
}

impl Monitor {
    fn tick_at(&self, k: u64, every: u64) -> u64 {
        self.phase + k * every
    }

    /// Every ack landing at or before this cycle is known: a heartbeat
    /// not yet evaluated cannot land an ack before two cycles after it
    /// is sent (a one-cycle ping, then a one-cycle ack).
    fn known_through(&self, every: u64) -> u64 {
        self.tick_at(self.next_tick, every) + 1
    }

    /// Evaluates the next heartbeat: books its ping and acks in the
    /// link ledger and queues its ack landings.
    fn eval_tick(&mut self, link: &mut Link, every: u64, p: &NetPolicy) {
        let k = self.next_tick;
        self.next_tick += 1;
        let (ping, acks) = link.heartbeat(k, self.tick_at(k, every), p);
        link.classes[MsgClass::Heartbeat as usize].add(ClassStats::of(ping, true));
        for ack in &acks[..ping.landed.len()] {
            link.classes[MsgClass::Ack as usize].add(ClassStats::of(*ack, true));
            for at in ack.landed {
                if self.acks.back().is_none_or(|&b| b <= at) {
                    self.acks.push_back(at);
                } else {
                    let i = self.acks.partition_point(|&a| a <= at);
                    self.acks.insert(i, at);
                }
            }
        }
    }

    /// Scans the ack stream ahead to this link's next detector event:
    /// a healthy link's onset is the first cycle more than `threshold`
    /// after an ack with no later ack in between; a suspected link's
    /// recovery is the next ack to land. After [`SCAN_TICKS`]
    /// heartbeats without either, the event is a resume point instead,
    /// strictly before any transition still to come.
    fn scan(&mut self, link: &mut Link, every: u64, threshold: u64, p: &NetPolicy) {
        let mut budget = SCAN_TICKS;
        loop {
            let known = self.known_through(every);
            let front = self.acks.front().copied().filter(|&a| a <= known);
            if self.suspected {
                if let Some(a) = front {
                    (self.next_at, self.flips) = (a, true);
                    return;
                }
            } else {
                let onset = self.last_ack + threshold + 1;
                if let Some(a) = front.filter(|&a| a <= onset) {
                    self.last_ack = a;
                    self.acks.pop_front();
                    continue;
                }
                if onset <= known {
                    (self.next_at, self.flips) = (onset, true);
                    return;
                }
            }
            if budget == 0 {
                (self.next_at, self.flips) = (known, false);
                return;
            }
            budget -= 1;
            self.eval_tick(link, every, p);
        }
    }
}

/// The windowed heartbeat failure detector, evaluated in closed form.
///
/// Link `s` pings at `phase_s + k·heartbeat_every`; each tick's ping
/// and ack fates come from the link's keyed draws, so the detector
/// reads its links' ack streams directly instead of being fed
/// delivery events. A shard is suspected exactly while
/// `now − last_ack(now) > heartbeat_every × (suspect_misses + 1)` —
/// the whole miss window went silent — and recovers the instant an ack
/// lands. Each link has one pending detector event, at its next
/// transition (or at a scan resume point), so the calendar carries
/// transitions rather than heartbeats. Ticks are evaluated once, in
/// order, and booked in the link's Heartbeat and Ack ledgers.
///
/// [`Detector::stop`] ends the heartbeats when the run no longer needs
/// them: the detector freezes, and ticks the scans evaluated past the
/// stop are taken back out of the ledgers.
#[derive(Debug, Clone)]
pub struct Detector {
    every: u64,
    threshold: u64,
    monitors: Vec<Monitor>,
    stopped: bool,
    events: Vec<DetectorEvent>,
    suspicions: u64,
    recoveries: u64,
}

impl Detector {
    /// A detector over `links`, with staggered heartbeat phases so N
    /// links never ping in the same cycle. Scans every link to its
    /// first detector event ([`Detector::next_at`]).
    #[must_use]
    pub fn new(links: &mut [Link], p: &NetPolicy) -> Self {
        let every = p.heartbeat_every.max(1);
        let threshold = every * (u64::from(p.suspect_misses.max(1)) + 1);
        let shards = links.len() as u64;
        let mut monitors: Vec<Monitor> = (0..shards)
            .map(|s| Monitor {
                phase: (s * every) / shards,
                next_tick: 0,
                acks: VecDeque::new(),
                last_ack: 0,
                suspected: false,
                next_at: 0,
                flips: false,
            })
            .collect();
        for (m, link) in monitors.iter_mut().zip(links.iter_mut()) {
            m.scan(link, every, threshold, p);
        }
        Self {
            every,
            threshold,
            monitors,
            stopped: false,
            events: Vec::new(),
            suspicions: 0,
            recoveries: 0,
        }
    }

    /// The cycle of `shard`'s next detector event, `None` once stopped.
    #[must_use]
    pub fn next_at(&self, shard: usize) -> Option<u64> {
        (!self.stopped).then(|| self.monitors[shard].next_at)
    }

    /// `shard`'s detector event fires (at [`Detector::next_at`]):
    /// applies the transition due then, if there is one, and scans
    /// ahead to the next event. Does nothing once stopped.
    pub fn advance(
        &mut self,
        shard: usize,
        link: &mut Link,
        p: &NetPolicy,
    ) -> Option<DetectorEvent> {
        if self.stopped {
            return None;
        }
        let ev = self.monitors[shard].flips.then(|| self.flip(shard));
        self.monitors[shard].scan(link, self.every, self.threshold, p);
        ev
    }

    fn flip(&mut self, shard: usize) -> DetectorEvent {
        let m = &mut self.monitors[shard];
        m.flips = false;
        m.suspected = !m.suspected;
        if m.suspected {
            self.suspicions += 1;
        } else {
            m.last_ack = m.acks.pop_front().expect("a recovery is an ack landing");
            self.recoveries += 1;
        }
        let ev = DetectorEvent {
            at: m.next_at,
            shard,
            suspected: m.suspected,
        };
        self.events.push(ev);
        ev
    }

    /// Stops the heartbeats at `now` and freezes the detector. A
    /// transition due by `now` still happens (it is returned); every
    /// heartbeat sent after `now` is taken back out of the Heartbeat
    /// and Ack ledgers, so they count exactly the ticks sent by the
    /// stop — every copy delivered or dropped, none in flight.
    pub fn stop(&mut self, now: u64, links: &mut [Link], p: &NetPolicy) -> Vec<DetectorEvent> {
        if self.stopped {
            return Vec::new();
        }
        self.stopped = true;
        let every = self.every;
        let mut flips = Vec::new();
        for (s, link) in links.iter_mut().enumerate() {
            let m = &self.monitors[s];
            if m.flips && m.next_at <= now {
                flips.push(self.flip(s));
            }
            let m = &mut self.monitors[s];
            m.flips = false;
            while m.tick_at(m.next_tick, every) <= now {
                m.eval_tick(link, every, p);
            }
            let sent = if now < m.phase {
                0
            } else {
                (now - m.phase) / every + 1
            };
            for k in sent..m.next_tick {
                let (ping, acks) = link.heartbeat(k, m.tick_at(k, every), p);
                link.classes[MsgClass::Heartbeat as usize].sub(ClassStats::of(ping, true));
                for ack in &acks[..ping.landed.len()] {
                    link.classes[MsgClass::Ack as usize].sub(ClassStats::of(*ack, true));
                }
            }
            m.next_tick = sent;
        }
        flips
    }

    /// Whether the heartbeats have stopped.
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Whether `shard` is suspected at `now`: its state after the last
    /// transition, or the next one if that is due by `now` but its
    /// calendar event has not been handled yet.
    #[must_use]
    pub fn suspected(&self, shard: usize, now: u64) -> bool {
        let m = &self.monitors[shard];
        m.suspected != (m.flips && now >= m.next_at)
    }

    /// Transition history, in observation order.
    #[must_use]
    pub fn events(&self) -> &[DetectorEvent] {
        &self.events
    }

    /// Suspicion transitions observed.
    #[must_use]
    pub fn suspicions(&self) -> u64 {
        self.suspicions
    }

    /// Recovery transitions observed.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }
}

/// The transport tallies a cluster run reports and the auditor
/// replays. All zeros while the layer is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Sender-side retransmits after timeouts.
    pub retransmits: u64,
    /// Timeouts that fired while their transmission was still live.
    pub timeouts: u64,
    /// Hedged requests fired.
    pub hedges: u64,
    /// Requests whose hedge copy won the race.
    pub hedge_wins: u64,
    /// Cancels that pulled a superseded copy out of a queue in time.
    pub hedge_cancelled: u64,
    /// Cancels that arrived too late (copy already dispatched or done).
    pub cancel_missed: u64,
    /// Redelivered requests answered from the idempotency cache.
    pub dedup_hits: u64,
    /// Request copies suppressed because the shard already held one.
    pub dup_suppressed: u64,
    /// Response copies that arrived after their request resolved.
    pub late_responses: u64,
    /// Stale queue entries dropped after their request resolved
    /// elsewhere.
    pub stale_drops: u64,
    /// Executions the dedup table would have double-applied — the
    /// exactly-once identity requires this to be zero.
    pub double_applied: u64,
    /// Failure-detector suspicion transitions.
    pub suspicions: u64,
    /// Failure-detector recovery transitions.
    pub recoveries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_are_seed_deterministic_and_conserve_copies() {
        let p = NetPolicy {
            loss: 0.2,
            duplicate: 0.3,
            reorder: 0.2,
            ..NetPolicy::lossy(0.2)
        };
        let run = || {
            let mut l = Link::new(42, 1);
            let mut deliveries = Vec::new();
            for i in 0..500u64 {
                let at = i * 100;
                for t in l.transmit(at, MsgClass::Req, &p) {
                    assert!(t > at, "delivery must take time");
                    deliveries.push(t);
                    l.on_delivered(MsgClass::Req);
                }
            }
            (deliveries, l.stats(MsgClass::Req))
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.sent, sa.delivered + sa.dropped);
        assert_eq!(sa.in_flight(), 0);
        assert!(sa.dropped > 0, "20% loss dropped nothing in 500 sends");
        assert!(sa.dup_copies > 0, "30% duplication duplicated nothing");
        assert!(sa.sent > 500, "duplicates add copies");
    }

    #[test]
    fn different_links_draw_different_streams() {
        let p = NetPolicy::lossy(0.3);
        let mut a = Link::new(42, 0);
        let mut b = Link::new(42, 1);
        let da: Vec<Deliveries> = (0..50)
            .map(|i| a.transmit(i * 10, MsgClass::Req, &p))
            .collect();
        let db: Vec<Deliveries> = (0..50)
            .map(|i| b.transmit(i * 10, MsgClass::Req, &p))
            .collect();
        assert_ne!(da, db, "links must fork independent streams");
    }

    #[test]
    fn a_fate_does_not_depend_on_other_traffic() {
        // Counter-based draws: message 7 of a class lands the same
        // whatever else the link carried first.
        let p = NetPolicy::lossy(0.3);
        let quiet = Link::new(9, 2);
        let mut busy = Link::new(9, 2);
        for i in 0..40 {
            busy.transmit(i, MsgClass::Resp, &p);
            busy.transmit(i, MsgClass::Cancel, &p);
        }
        for i in 0..7 {
            busy.transmit(i, MsgClass::Req, &p);
        }
        assert_eq!(
            busy.transmit(500, MsgClass::Req, &p),
            quiet.fate(MsgClass::Req, 7, 500, &p).landed
        );
    }

    #[test]
    fn degrade_windows_drop_everything_then_heal() {
        let p = NetPolicy {
            loss: 0.0,
            duplicate: 0.0,
            ..NetPolicy::lossy(0.0)
        };
        let mut l = Link::new(7, 0);
        l.degrade(0, 1_000, 1.0);
        assert!(l.degraded_at(500));
        assert!(!l.degraded_at(1_000));
        for i in 0..20u64 {
            assert!(l.transmit(i, MsgClass::Resp, &p).is_empty());
        }
        assert_eq!(l.stats(MsgClass::Resp).dropped, 20);
        // Past the window the baseline (0% loss) applies again.
        assert_eq!(l.transmit(2_000, MsgClass::Resp, &p).len(), 1);
    }

    #[test]
    fn loss_windows_do_not_leak_past_their_own_span() {
        let base = 0.05;
        // A partition, then a mild degrade of the same link: the
        // degrade's window must see its own 10%, not the partition's
        // 100%.
        let mut l = Link::new(1, 0);
        l.degrade(1_000, 2_000, 1.0);
        l.degrade(5_000, 6_000, 0.1);
        assert_eq!(l.loss_at(500, base), base);
        assert_eq!(l.loss_at(1_500, base), 1.0);
        assert_eq!(l.loss_at(3_000, base), base);
        assert_eq!(l.loss_at(5_500, base), 0.1);
        assert_eq!(l.loss_at(6_000, base), base);
        let p = NetPolicy {
            duplicate: 0.0,
            ..NetPolicy::lossy(0.0)
        };
        let survived = (0..1_000u64)
            .filter(|&i| !l.transmit(5_000 + i % 1_000, MsgClass::Req, &p).is_empty())
            .count();
        assert!(
            (850..=950).contains(&survived),
            "a 10% degrade delivered {survived} of 1000"
        );

        // A degrade overlapping a partition: 100% loss ends with the
        // partition, the degrade's 30% runs on to its own end.
        let mut l = Link::new(1, 0);
        l.degrade(1_000, 2_000, 1.0);
        l.degrade(1_500, 4_000, 0.3);
        assert_eq!(l.loss_at(1_200, base), 1.0);
        assert_eq!(l.loss_at(1_800, base), 1.0);
        assert_eq!(l.loss_at(2_000, base), 0.3);
        assert_eq!(l.loss_at(3_999, base), 0.3);
        assert_eq!(l.loss_at(4_000, base), base);
        // A window milder than the baseline never lowers it.
        l.degrade(10_000, 11_000, 0.01);
        assert_eq!(l.loss_at(10_500, base), base);
    }

    #[test]
    fn dedup_never_double_applies() {
        let mut d = DedupTable::new();
        assert!(d.record(3, false), "first application is effective");
        assert!(!d.record(3, false), "second application is refused");
        assert_eq!(d.lookup(3), Some(false));
        assert!(d.record(4, true));
        assert_eq!(d.lookup(4), Some(true), "cache keeps the corrupt bit");
        assert_eq!(d.lookup(5), None);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn rtt_window_slides_and_p99_is_exact() {
        let mut w = RttWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.p99(), None);
        for s in [10, 20, 30, 40] {
            w.record(s);
        }
        assert_eq!(w.p99(), Some(40));
        // Capacity 4: recording 100 evicts 10; the window max is 100.
        w.record(100);
        assert_eq!(w.len(), 4);
        assert_eq!(w.p99(), Some(100));
    }

    #[test]
    fn rtt_window_p99_matches_an_exact_sort() {
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(0x5077_0000 + seed);
            let cap = 1 + rng.below(80) as usize;
            let mut w = RttWindow::new(cap);
            let mut history = Vec::new();
            // Several times around the ring, with a narrow value range
            // so duplicate samples get evicted too.
            for _ in 0..cap * 3 + rng.below(50) as usize {
                let rtt = if rng.chance(0.5) {
                    rng.below(8)
                } else {
                    rng.below(100_000)
                };
                w.record(rtt);
                history.push(rtt);
                let mut window: Vec<u64> = history[history.len().saturating_sub(cap)..].to_vec();
                window.sort_unstable();
                let idx = ((window.len() - 1) as f64 * 0.99).round() as usize;
                assert_eq!(w.p99(), Some(window[idx]), "seed {seed} cap {cap}");
                assert_eq!(w.len(), window.len());
            }
        }
    }

    #[test]
    fn hedge_delay_needs_samples_and_respects_the_floor() {
        let mut w = RttWindow::new(64);
        assert_eq!(w.hedge_delay(4, 500), None, "cold estimator must not arm");
        for _ in 0..4 {
            w.record(120);
        }
        assert_eq!(w.hedge_delay(4, 500), Some(500), "floor clamps a tiny p99");
        for _ in 0..16 {
            w.record(9_000);
        }
        assert_eq!(w.hedge_delay(4, 500), Some(9_000));
    }

    /// Drives a detector to `stop` the way the cluster's calendar
    /// does: each link's next event in time order.
    fn drive(det: &mut Detector, links: &mut [Link], p: &NetPolicy, stop: u64) {
        loop {
            let next = (0..links.len())
                .filter_map(|s| det.next_at(s).map(|at| (at, s)))
                .min();
            match next {
                Some((at, s)) if at <= stop => {
                    det.advance(s, &mut links[s], p);
                }
                _ => break,
            }
        }
        det.stop(stop, links, p);
    }

    #[test]
    fn detector_suspects_after_the_miss_window_and_recovers_on_ack() {
        // A jitter-free, lossless link: tick k's ack lands exactly
        // 2 × 40 cycles after it is sent, until a partition swallows
        // the pings sent in [10_000, 20_000).
        let p = NetPolicy {
            jitter: 0,
            reorder: 0.0,
            heartbeat_every: 1_000,
            suspect_misses: 3,
            ..NetPolicy::lossy(0.0)
        };
        let mut links = vec![Link::new(5, 0), Link::new(5, 1)];
        links[0].degrade(10_000, 20_000, 1.0);
        let mut det = Detector::new(&mut links, &p);
        // Acks flowing: no suspicion. The last ack before the window
        // lands at 9_080; silence past every × (misses + 1) = 4000.
        assert!(!det.suspected(0, 13_080));
        assert_eq!(det.next_at(0), Some(13_081));
        assert!(det.suspected(0, 13_081), "due transitions count at once");
        let ev = det.advance(0, &mut links[0], &p).expect("onset");
        assert_eq!(
            ev,
            DetectorEvent {
                at: 13_081,
                shard: 0,
                suspected: true
            }
        );
        // The first ping after the window (sent at 20_000) is acked at
        // 20_080: recovery.
        assert_eq!(det.next_at(0), Some(20_080));
        assert!(det.suspected(0, 20_079));
        assert!(!det.suspected(0, 20_080));
        let ev = det.advance(0, &mut links[0], &p).expect("recovery");
        assert!(!ev.suspected);
        drive(&mut det, &mut links, &p, 50_000);
        assert_eq!(det.suspicions(), 1);
        assert_eq!(det.recoveries(), 1);
        assert_eq!(det.events().len(), 2);
        // Shard 1 was never touched.
        assert!(!det.suspected(1, 50_000));
        // Ticks 0..=50 were sent on link 0 by the stop (phase 0); the
        // ten inside the partition dropped their pings.
        let hb = links[0].stats(MsgClass::Heartbeat);
        assert_eq!((hb.sent, hb.dropped, hb.delivered), (51, 10, 41));
        let ack = links[0].stats(MsgClass::Ack);
        assert_eq!((ack.sent, ack.dropped, ack.delivered), (41, 0, 41));
    }

    #[test]
    fn a_stopped_detector_is_frozen() {
        let p = NetPolicy {
            heartbeat_every: 1_000,
            ..NetPolicy::lossy(0.0)
        };
        let mut links = vec![Link::new(3, 0)];
        let mut det = Detector::new(&mut links, &p);
        drive(&mut det, &mut links, &p, 7_500);
        assert!(det.stopped());
        assert_eq!(det.next_at(0), None);
        // Long after the last heartbeat, the shard is not suspected:
        // the detector stopped with the heartbeats.
        assert!(!det.suspected(0, 1_000_000));
        assert_eq!(det.advance(0, &mut links[0], &p), None);
        assert_eq!(links[0].stats(MsgClass::Heartbeat).sent, 8);
        assert!(det.events().is_empty());
    }

    #[test]
    fn policy_validation_rejects_non_probabilities() {
        assert!(NetPolicy::default().validate().is_ok());
        assert!(NetPolicy::lossy(0.05).validate().is_ok());
        for tweak in [
            |p: &mut NetPolicy| p.loss = 1.5,
            |p: &mut NetPolicy| p.duplicate = -0.1,
            |p: &mut NetPolicy| p.reorder = 2.0,
        ] {
            let mut p = NetPolicy::lossy(0.05);
            tweak(&mut p);
            assert!(p.validate().is_err());
        }
    }
}
