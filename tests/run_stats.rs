//! Golden snapshot of every run's counters.
//!
//! Pins cycles, committed instructions, and the full `Stats` key/value
//! table of every tiny-suite kernel on IO, O3, O3+IV, O3+DV, EVE-1,
//! EVE-8 and EVE-32. Counter storage inside the timing models may
//! change freely; the table they render to may not. A key that
//! appears or vanishes (including a zero-valued one) fails here.

use eve_sim::{Runner, SystemKind};
use eve_workloads::Workload;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/run_stats.txt");

const REGEN: &str = "EVE_UPDATE_FIXTURES=1 cargo test --test run_stats";

const SYSTEMS: [SystemKind; 7] = [
    SystemKind::Io,
    SystemKind::O3,
    SystemKind::O3Iv,
    SystemKind::O3Dv,
    SystemKind::EveN(1),
    SystemKind::EveN(8),
    SystemKind::EveN(32),
];

/// One line per value: `<system> <kernel> <key> <value>`.
fn snapshot() -> String {
    let runner = Runner::new();
    let mut out = String::new();
    for w in Workload::tiny_suite() {
        for sys in SYSTEMS {
            let r = runner
                .run(sys, &w)
                .unwrap_or_else(|e| panic!("{sys} on {}: {e}", w.name()));
            let tag = format!("{sys} {}", w.name());
            writeln!(out, "{tag} cycles {}", r.cycles.0).unwrap();
            writeln!(out, "{tag} dyn_insts {}", r.dyn_insts).unwrap();
            for (k, v) in r.stats.iter() {
                writeln!(out, "{tag} stats.{k} {v}").unwrap();
            }
        }
    }
    out
}

#[test]
fn run_stats_match_the_checked_in_fixture() {
    let got = snapshot();
    if std::env::var_os("EVE_UPDATE_FIXTURES").is_some() {
        std::fs::write(FIXTURE, &got).expect("fixture writes");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|_| panic!("missing fixture {FIXTURE}; regenerate with: {REGEN}"));
    // Compare line by line so a failure names the first drifted counter
    // instead of dumping two multi-thousand-line strings.
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} drifted; if intentional: {REGEN}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count changed; if intentional: {REGEN}"
    );
}
