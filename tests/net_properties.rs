//! Property tests for the lossy-interconnect primitives and the
//! end-to-end retry/hedge machinery, in the style of
//! `ladder_properties.rs`: seeded random streams checked against the
//! invariants directly, not against golden outputs:
//!
//! * the dedup table accepts each request id exactly once no matter
//!   how deliveries are duplicated, reordered, or dropped — the
//!   exactly-once kernel;
//! * a link's message ledger balances (`sent == delivered + dropped`,
//!   nothing in flight once every copy lands) under any policy, and a
//!   fully degraded window drops everything;
//! * the failure detector's event stream is time-ordered, alternates
//!   suspicion/recovery per shard, and is a pure function of the ack
//!   stream;
//! * the closed-form heartbeats agree exactly with a reference walker
//!   that steps through every ping and ack as calendar events: the
//!   same Heartbeat/Ack ledgers and the same detector history, under
//!   partitions and degraded links;
//! * a calm, lossless run ends with no suspicion and no ladder step:
//!   the detector stops with the heartbeats;
//! * whole cluster runs under random loss/duplication/reordering are
//!   byte-deterministic, never double-apply a request, and keep
//!   retransmit/hedge tallies inside their caps.

use eve::serve::{
    tenant_mix, ClassStats, ClusterConfig, ClusterSim, ClusterTraffic, DedupTable, Detector,
    DetectorEvent, Fate, FaultStorm, Link, MsgClass, NetPolicy, ServiceProfile,
};
use eve_common::SplitMix64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const SEEDS: u64 = 40;

#[test]
fn dedup_accepts_each_id_exactly_once_under_any_delivery_order() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0xDED0_0000 + seed);
        let ids = 1 + rng.below(120);
        // Build a delivery stream with 1..=4 copies of each id, then
        // shuffle it: duplication and reordering in one stream. Ids
        // with zero copies model loss — they must stay unknown.
        let mut stream = Vec::new();
        let mut copies = vec![0u64; ids as usize];
        for (id, c) in copies.iter_mut().enumerate() {
            *c = rng.below(5); // 0 = lost entirely
            for _ in 0..*c {
                stream.push(id as u64);
            }
        }
        for i in (1..stream.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            stream.swap(i, j);
        }

        // The shard's protocol: look the id up first; a hit answers
        // from the cache, a miss executes and records — `record`
        // returning `false` would mean a double application.
        let mut table = DedupTable::new();
        let mut fresh = vec![0u64; ids as usize];
        let mut flag = vec![false; ids as usize];
        for &id in &stream {
            match table.lookup(id) {
                Some(cached) => assert_eq!(
                    cached, flag[id as usize],
                    "seed {seed}: cache flipped its answer for id {id}"
                ),
                None => {
                    let corrupt = rng.chance(0.1);
                    assert!(
                        table.record(id, corrupt),
                        "seed {seed}: fresh record for id {id} claimed a double apply"
                    );
                    fresh[id as usize] += 1;
                    flag[id as usize] = corrupt;
                }
            }
        }
        for (id, &c) in copies.iter().enumerate() {
            let expect = u64::from(c > 0);
            assert_eq!(
                fresh[id], expect,
                "seed {seed}: id {id} applied {} times over {c} copies",
                fresh[id]
            );
            assert_eq!(table.lookup(id as u64).is_some(), c > 0, "seed {seed}");
        }
        assert_eq!(
            table.len() as u64,
            copies.iter().filter(|&&c| c > 0).count() as u64,
            "seed {seed}: table size disagrees with delivered ids"
        );
    }
}

#[test]
fn a_link_ledger_balances_under_any_policy() {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(0x11CC_0000 + seed);
        let policy = NetPolicy {
            enabled: true,
            loss: rng.next_f64() * 0.4,
            duplicate: rng.next_f64() * 0.4,
            reorder: rng.next_f64() * 0.4,
            ..NetPolicy::default()
        };
        policy.validate().expect("generated policy is valid");
        let mut link = Link::new(seed, 0);
        let mut now = 0u64;
        for _ in 0..300 {
            now += 1 + rng.below(200);
            let class = MsgClass::ALL[rng.below(5) as usize];
            for at in link.transmit(now, class, &policy) {
                assert!(at > now, "seed {seed}: delivery not strictly in the future");
                link.on_delivered(class);
            }
        }
        for class in MsgClass::ALL {
            let s = link.stats(class);
            // `sent` counts copies (duplicates included), so the
            // auditor's identity holds exactly once every copy lands.
            assert_eq!(
                s.sent,
                s.delivered + s.dropped,
                "seed {seed}: {} ledger out of balance",
                class.as_str()
            );
            assert_eq!(s.in_flight(), 0, "seed {seed}: copies left in flight");
        }

        // A fully degraded window is pure loss: every transmit inside
        // it drops every copy, and the window expires on its own.
        let before = link.stats(MsgClass::Req);
        link.degrade(now, now + 10_000, 1.0);
        for _ in 0..50 {
            now += 100;
            assert!(
                link.transmit(now, MsgClass::Req, &policy).is_empty(),
                "seed {seed}: a 100%-loss window delivered a message"
            );
        }
        let after = link.stats(MsgClass::Req);
        assert_eq!(after.delivered, before.delivered, "seed {seed}");
        assert_eq!(
            after.dropped - before.dropped,
            after.sent - before.sent,
            "seed {seed}: a degraded copy escaped the drop ledger"
        );
        now += 10_000;
        assert!(!link.degraded_at(now), "seed {seed}: degrade never healed");
    }
}

#[test]
fn the_detector_is_a_pure_function_of_the_ack_stream() {
    for seed in 0..SEEDS {
        let shards = 2 + rng_shards(seed);
        let run = |seed: u64| {
            let mut rng = SplitMix64::new(0xFD00_0000 + seed);
            // Heavy loss, so silences long enough to trip the miss
            // threshold really happen.
            let p = NetPolicy {
                enabled: true,
                loss: 0.3 + rng.next_f64() * 0.4,
                duplicate: rng.next_f64() * 0.3,
                reorder: rng.next_f64() * 0.3,
                heartbeat_every: 2_000,
                suspect_misses: 3,
                ..NetPolicy::default()
            };
            let mut links: Vec<Link> = (0..shards).map(|s| Link::new(seed, s)).collect();
            let mut det = Detector::new(&mut links, &p);
            drive(&mut det, &mut links, &p, 1_600_000);
            det.events().to_vec()
        };
        let events = run(seed);
        assert_eq!(events, run(seed), "seed {seed}: detector not a pure replay");

        // Time-ordered, and per shard the stream strictly alternates
        // suspicion -> recovery -> suspicion.
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "seed {seed}: events out of order");
        }
        for s in 0..shards {
            let mut suspected = false;
            for e in events.iter().filter(|e| e.shard == s) {
                assert_ne!(
                    e.suspected, suspected,
                    "seed {seed}: shard {s} repeated a detector state"
                );
                suspected = e.suspected;
            }
        }
    }
}

fn rng_shards(seed: u64) -> usize {
    SplitMix64::new(seed).below(4) as usize
}

/// Runs a detector to `stop` the way the cluster's calendar does:
/// each link's next detector event, in (cycle, shard) order.
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

/// A seeded heartbeat setup: a policy whose reordering can let one
/// tick's ack overtake the previous tick's, 1–4 links with partitions
/// and degraded windows, and the cycle the heartbeats stop.
fn heartbeat_setup(seed: u64) -> (NetPolicy, Vec<Link>, u64) {
    let mut rng = SplitMix64::new(0xB347_0000 + seed);
    let every = 500 + rng.below(3_000);
    let p = NetPolicy {
        enabled: true,
        base_delay: rng.below(80),
        jitter: rng.below(300),
        loss: rng.next_f64() * 0.5,
        duplicate: rng.next_f64() * 0.4,
        reorder: rng.next_f64() * 0.4,
        reorder_extra: rng.below(3 * every),
        heartbeat_every: every,
        suspect_misses: rng.below(4) as u32,
        ..NetPolicy::default()
    };
    let shards = 1 + rng.below(4) as usize;
    let stop = every * (50 + rng.below(400));
    let mut links: Vec<Link> = (0..shards).map(|s| Link::new(seed, s)).collect();
    for _ in 0..1 + rng.below(5) {
        let s = rng.below(shards as u64) as usize;
        let from = rng.below(stop);
        let until = from + 1 + rng.below(stop / 4);
        let loss = if rng.chance(0.5) { 1.0 } else { rng.next_f64() };
        links[s].degrade(from, until, loss);
    }
    (p, links, stop)
}

/// Books one transmit's copies the way a calendar sender does:
/// deliveries are counted later, as each copy lands.
fn book(ledger: &mut ClassStats, fate: Fate) {
    let copies = u64::from(fate.copies);
    ledger.sent += copies;
    ledger.dup_copies += copies - 1;
    ledger.dropped += copies - fate.landed.len() as u64;
}

/// The heartbeat calendar the closed form replaced, walked event by
/// event: a tick pings and re-arms while it is due by `stop`, a
/// delivered ping is acked at once (ack `2k + i` for copy `i` of
/// heartbeat `k`), and every ack landing by `stop` refreshes the
/// detector. A shard is suspected from the first cycle more than the
/// miss window after its last ack until the next ack lands.
fn reference_heartbeats(
    p: &NetPolicy,
    links: &[Link],
    stop: u64,
) -> (Vec<[ClassStats; 2]>, Vec<DetectorEvent>) {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Tick(u64),
        Ping(u64, u64),
        Ack,
    }
    let every = p.heartbeat_every.max(1);
    let threshold = every * (u64::from(p.suspect_misses.max(1)) + 1);
    let n = links.len();
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, at: u64, s: usize, ev: Ev| {
        heap.push(Reverse((at, seq, s, ev)));
        seq += 1;
    };
    for s in 0..n {
        let phase = (s as u64 * every) / n as u64;
        if phase <= stop {
            push(&mut heap, phase, s, Ev::Tick(0));
        }
    }
    let mut ledgers = vec![[ClassStats::default(); 2]; n];
    let mut last_ack = vec![0u64; n];
    let mut suspected = vec![false; n];
    let mut events = Vec::new();
    while let Some(Reverse((at, _, s, ev))) = heap.pop() {
        match ev {
            Ev::Tick(k) => {
                let ping = links[s].fate(MsgClass::Heartbeat, k, at, p);
                book(&mut ledgers[s][0], ping);
                for (i, t) in ping.landed.into_iter().enumerate() {
                    push(&mut heap, t, s, Ev::Ping(k, i as u64));
                }
                if at + every <= stop {
                    push(&mut heap, at + every, s, Ev::Tick(k + 1));
                }
            }
            Ev::Ping(k, i) => {
                ledgers[s][0].delivered += 1;
                let ack = links[s].fate(MsgClass::Ack, 2 * k + i, at, p);
                book(&mut ledgers[s][1], ack);
                for t in ack.landed {
                    push(&mut heap, t, s, Ev::Ack);
                }
            }
            Ev::Ack => {
                ledgers[s][1].delivered += 1;
                if at > stop {
                    // The detector stopped with the heartbeats.
                    continue;
                }
                if !suspected[s] && at - last_ack[s] > threshold + 1 {
                    suspected[s] = true;
                    events.push(DetectorEvent {
                        at: last_ack[s] + threshold + 1,
                        shard: s,
                        suspected: true,
                    });
                }
                last_ack[s] = at;
                if suspected[s] {
                    suspected[s] = false;
                    events.push(DetectorEvent {
                        at,
                        shard: s,
                        suspected: false,
                    });
                }
            }
        }
    }
    for s in 0..n {
        if !suspected[s] && last_ack[s] + threshold < stop {
            events.push(DetectorEvent {
                at: last_ack[s] + threshold + 1,
                shard: s,
                suspected: true,
            });
        }
    }
    events.sort_by_key(|e| (e.at, e.shard));
    (ledgers, events)
}

#[test]
fn closed_form_heartbeats_match_the_event_walk() {
    let mut transitions = 0;
    for seed in 0..SEEDS {
        let (p, links, stop) = heartbeat_setup(seed);
        let (want_ledgers, want_events) = reference_heartbeats(&p, &links, stop);
        let mut links = links;
        let mut det = Detector::new(&mut links, &p);
        drive(&mut det, &mut links, &p, stop);
        for (s, l) in links.iter().enumerate() {
            assert_eq!(
                [l.stats(MsgClass::Heartbeat), l.stats(MsgClass::Ack)],
                want_ledgers[s],
                "seed {seed}: link {s} heartbeat/ack ledger"
            );
        }
        assert_eq!(
            det.events(),
            &want_events[..],
            "seed {seed}: detector history"
        );
        assert_eq!(
            det.suspicions(),
            want_events.iter().filter(|e| e.suspected).count() as u64,
            "seed {seed}"
        );
        transitions += want_events.len();
    }
    assert!(
        transitions > 4 * SEEDS as usize,
        "the sweep must exercise the detector, saw {transitions} transitions"
    );
}

#[test]
fn a_calm_lossless_run_ends_without_a_suspicion() {
    // Without loss no heartbeat ever goes missing, so any suspicion
    // is an artefact — classically, of a detector that kept counting
    // misses after the heartbeats stopped at the end of the run. A
    // 2k-cycle mean service puts the derived retransmit timeout (and
    // so the stale timers that outlive the last request) well past
    // the 8k-cycle miss window.
    for seed in 0..8 {
        let cfg = ClusterConfig {
            shards: 4,
            engines_per_shard: 2,
            seed: 21 + seed,
            net: NetPolicy::lossy(0.0),
            ..ClusterConfig::default()
        };
        let traffic = ClusterTraffic {
            requests: 300,
            mean_gap: 1_200,
            tenants: tenant_mix(3),
            seed: 0xCA1 + seed,
            ..ClusterTraffic::default()
        };
        let profile = ServiceProfile::synthetic(3, 2_000, 8_000, 2);
        let r = ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
            .expect("valid calm setup")
            .run();
        assert_eq!(r.net.suspicions, 0, "seed {seed}: {:?}", r.detector_events);
        assert_eq!(r.step_downs(), 0, "seed {seed}: {:?}", r.ladder);
        let hb: u64 = r.links.iter().map(|l| l.heartbeat.sent).sum();
        assert!(hb > 0, "seed {seed}: heartbeats flow");
    }
}

/// One small cluster run under a seeded random transport policy.
fn chaos_sim(seed: u64) -> eve::serve::ClusterReport {
    let mut rng = SplitMix64::new(0xC4A0_0000 + seed);
    let cfg = ClusterConfig {
        shards: 3,
        engines_per_shard: 2,
        seed: 11 + seed,
        net: NetPolicy {
            enabled: true,
            loss: rng.next_f64() * 0.12,
            duplicate: rng.next_f64() * 0.12,
            reorder: rng.next_f64() * 0.25,
            ..NetPolicy::default()
        },
        ..ClusterConfig::default()
    };
    let traffic = ClusterTraffic {
        requests: 160,
        mean_gap: 700,
        deadline_slack: 8.0,
        tenants: tenant_mix(2),
        seed: 0x5EED + seed,
        ..ClusterTraffic::default()
    };
    let profile = ServiceProfile::synthetic(3, 1_000, 4_000, 2);
    ClusterSim::new(cfg, profile, traffic, FaultStorm::none())
        .expect("valid property setup")
        .run()
}

#[test]
fn random_lossy_runs_never_double_apply_and_respect_every_cap() {
    for seed in 0..SEEDS {
        let r = chaos_sim(seed);
        // Exactly-once: no request's effects applied twice on a shard.
        assert_eq!(r.net.double_applied, 0, "seed {seed}: double execution");
        // The two execution ledgers reconcile.
        assert_eq!(
            r.executed_ok,
            r.completed_eve + r.wasted_executions,
            "seed {seed}: execution ledgers disagree"
        );
        // Cap bounds: retransmits per request, hedges win at most once.
        assert!(
            r.net.retransmits <= r.admitted * r.net_max_retransmits,
            "seed {seed}: retransmit budget exceeded"
        );
        assert!(r.net.hedge_wins <= r.net.hedges, "seed {seed}");
        // Message conservation on every link and class.
        for l in &r.links {
            for c in [l.req, l.resp, l.cancel, l.heartbeat, l.ack] {
                assert_eq!(c.sent, c.delivered + c.dropped, "seed {seed}");
                assert_eq!(c.in_flight, 0, "seed {seed}");
            }
        }
        // Cancels are fully accounted.
        let cancels: u64 = r.links.iter().map(|l| l.cancel.delivered).sum();
        assert_eq!(
            cancels,
            r.net.hedge_cancelled + r.net.cancel_missed,
            "seed {seed}: cancel ledger out of balance"
        );
    }
}

#[test]
fn random_lossy_runs_are_byte_deterministic() {
    // Distinct policies per seed, identical bytes per rerun — the
    // whole timeout -> retransmit -> hedge -> cancel schedule replays.
    for seed in (0..SEEDS).step_by(5) {
        let a = chaos_sim(seed).to_json().to_pretty();
        let b = chaos_sim(seed).to_json().to_pretty();
        assert_eq!(a, b, "seed {seed}: rerun diverged");
    }
}
