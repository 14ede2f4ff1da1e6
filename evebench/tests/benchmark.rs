//! The benchmark's own checks: the traced driver reproduces the
//! runner, cluster failures are detected, progress segments line up
//! across repetitions, and the metric tables match `BENCHMARK.json`.

use eve_common::json::JsonValue;
use eve_sim::SystemKind;
use eve_workloads::Workload;
use evebench::cluster::{broken_identity, ClusterSpec};
use evebench::paper::{run_cell, traced_cell, PaperSpec};
use evebench::progress::{every_for, record, Recording, Repeated, SegmentMins};
use evebench::util::{END_TO_END, PER_LAYER};

const SYSTEMS: [SystemKind; 6] = [
    SystemKind::Io,
    SystemKind::O3,
    SystemKind::O3Dv,
    SystemKind::EveN(1),
    SystemKind::EveN(8),
    SystemKind::EveN(32),
];

#[test]
fn traced_driver_matches_runner_on_the_tiny_suite() {
    for w in Workload::tiny_suite() {
        for s in SYSTEMS {
            let want = run_cell(&w, s).expect("runner simulates");
            let got = traced_cell(&w, s).expect("traced driver simulates");
            assert_eq!(got.result, want, "{} on {s}", w.name());
            let l = &got.layers;
            assert!(l.interp_ns > 0 && l.retire_ns > 0, "{} on {s}", w.name());
            if s.is_vector() {
                assert!(
                    l.unit.issued > 0,
                    "{} on {s} issued no vector work",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn paper_run_reports_every_end_to_end_metric() {
    let spec = PaperSpec {
        kernels: vec![Workload::vvadd(300), Workload::mmult(12)],
        systems: vec![SystemKind::Io, SystemKind::EveN(8)],
    };
    let out = evebench::paper::run(&spec, 0.0);
    assert!(out.correct);
    assert_eq!((out.attempted, out.failed), (4, 0));
    for (name, _) in END_TO_END {
        let v = out.metrics[name];
        assert!(v > 0.0, "{name} = {v}");
    }
    // One line per cell plus the workload digest.
    assert_eq!(out.digests.len(), 5);
}

#[test]
fn traced_paper_run_matches_and_times_every_layer() {
    let spec = PaperSpec {
        kernels: vec![Workload::vvadd(300)],
        systems: vec![SystemKind::Io, SystemKind::O3Dv, SystemKind::EveN(8)],
    };
    let out = evebench::paper::run_traced(&spec);
    assert!(out.correct);
    assert_eq!(out.failed, 0);
    for name in [
        "isa.interp_ns_per_inst",
        "cpu.io_self_ns_per_inst",
        "cpu.o3_self_ns_per_inst",
        "mem.ns_per_access",
        "core.eve_ns_per_vinst",
        "vector.dv_ns_per_vinst",
        "trace.overhead_ratio",
    ] {
        assert!(out.metrics[name] > 0.0, "{name}");
    }
}

#[test]
fn traced_cluster_run_passes_the_audit_and_identities_catch_cooked_reports() {
    let spec = ClusterSpec {
        shards: 4,
        requests: 300,
        timed_requests: 100,
        load: None,
        loss: Some(0.05),
    };
    let out = evebench::cluster::run_traced(&spec, 7);
    assert!(out.correct);
    assert_eq!((out.attempted, out.failed), (300, 0));
    assert!(out.metrics["net.heartbeats_per_req"] > 0.0);

    let profile = evebench::cluster::measure_profile();
    let (cfg, traffic) = spec.inputs(&profile, 7);
    let report = eve_serve::ClusterSim::new(cfg, profile, traffic, eve_serve::FaultStorm::none())
        .expect("valid")
        .run();
    assert_eq!(broken_identity(&report), None);
    let mut cooked = report.clone();
    cooked.sdc = 1;
    assert!(broken_identity(&cooked).is_some());
    let mut cooked = report.clone();
    cooked.links[0].heartbeat.delivered += 1;
    assert!(broken_identity(&cooked).is_some());
    let mut cooked = report;
    cooked.wasted_executions += 1;
    assert!(broken_identity(&cooked).is_some());
}

#[test]
fn cluster_run_times_a_prefix_of_the_whole_workload() {
    let spec = ClusterSpec {
        shards: 4,
        requests: 300,
        timed_requests: 100,
        load: None,
        loss: Some(0.05),
    };
    let profile = eve_serve::ServiceProfile::synthetic(3, 1000, 4000, 4);
    let (_, whole) = spec.inputs(&profile, 3);
    let timed = eve_serve::ClusterTraffic {
        requests: spec.timed_requests,
        ..whole.clone()
    };
    let all = eve_serve::arrivals(&whole, profile.len(), &[]);
    let prefix = eve_serve::arrivals(&timed, profile.len(), &[]);
    assert_eq!(prefix.as_slice(), &all[..100]);

    // No time budget: the whole run and one timed run.
    let out = evebench::cluster::run(&spec, 3, 0.0);
    assert!(out.correct);
    assert_eq!((out.attempted, out.failed), (400, 0));
    for (name, _) in END_TO_END {
        let v = out.metrics[name];
        assert!(v > 0.0, "{name} = {v}");
    }
    assert_eq!(out.digests.len(), 2);
}

/// Allocates `n` small vectors, as a deterministic simulation would.
fn allocating(n: usize) -> usize {
    (0..n).map(|i| std::hint::black_box(vec![i; 4]).len()).sum()
}

#[test]
fn progress_segments_line_up_across_repetitions() {
    let (_, first) = record(0, || allocating(5000));
    assert_eq!(first.segments.len(), 1);
    assert!(first.allocs >= 5000);
    let every = 100;
    let (_, a) = record(every, || allocating(5000));
    let (_, b) = record(every, || allocating(5000));
    assert_eq!(a.allocs, first.allocs);
    assert_eq!(a.segments.len() as u64, first.allocs / every + 1);
    assert_eq!(a.segments.len(), b.segments.len());
    assert!(a.segments.iter().all(|&s| s >= 0.0));

    let mut mins = SegmentMins::default();
    mins.add(&a);
    mins.add(&b);
    assert!(mins.aligned());
    assert_eq!(mins.reps(), 2);
    assert!(mins.seconds() <= a.seconds().min(b.seconds()));

    // Each thread's recording is its own.
    let threads: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || record(every, || allocating(5000)).1))
        .collect();
    for t in threads {
        let r = t.join().expect("recording thread");
        assert_eq!(r.segments.len(), a.segments.len());
        assert!(r.segments.iter().all(|&s| s >= 0.0));
    }

    let mut repeated = Repeated::default();
    for _ in 0..3 {
        assert_eq!(repeated.run(|| allocating(5000)), allocating(5000));
    }
    assert!(repeated.aligned());
    assert!(repeated.seconds() > 0.0);

    assert_eq!(every_for(0, 1.0), 0);
    assert_eq!(every_for(1_000_000, 1.0), 100);
    assert_eq!(every_for(10, 1.0), 1);
}

#[test]
fn segment_minima_fall_back_to_the_fastest_whole_run_when_misaligned() {
    let rec = |segments: &[f64]| Recording {
        segments: segments.to_vec(),
        allocs: 0,
    };
    let mut mins = SegmentMins::default();
    mins.add(&rec(&[1.0, 3.0]));
    mins.add(&rec(&[2.0, 1.0]));
    assert!(mins.aligned());
    assert_eq!(mins.seconds(), 2.0);
    mins.add(&rec(&[2.5]));
    assert!(!mins.aligned());
    assert_eq!(mins.seconds(), 2.5);
}

#[test]
fn seeds_change_cluster_inputs() {
    let profile = eve_serve::ServiceProfile::synthetic(3, 1000, 4000, 4);
    let spec = ClusterSpec::named("cluster_ideal").expect("a workload");
    let (a, ta) = spec.inputs(&profile, 1);
    let (b, tb) = spec.inputs(&profile, 2);
    assert_ne!(a.seed, b.seed);
    assert_ne!(ta.seed, tb.seed);
    assert_eq!(spec.inputs(&profile, 1).1.seed, ta.seed);
    // 25% of 64 × 4 engines at a 1000-cycle mean service time.
    assert_eq!(ta.mean_gap, 16);
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    match v {
        JsonValue::Object(pairs) => {
            &pairs
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .1
        }
        other => panic!("{key}: not an object: {other:?}"),
    }
}

fn str_of(v: &JsonValue) -> &str {
    match v {
        JsonValue::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn table(v: &JsonValue) -> Vec<(String, String)> {
    match v {
        JsonValue::Array(items) => items
            .iter()
            .map(|m| {
                (
                    str_of(field(m, "name")).to_owned(),
                    str_of(field(m, "unit")).to_owned(),
                )
            })
            .collect(),
        other => panic!("not an array: {other:?}"),
    }
}

fn owned(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(table(field(&doc, "end_to_end")), owned(&END_TO_END));
    assert_eq!(table(field(&doc, "per_layer")), owned(&PER_LAYER));
    let workloads: Vec<String> = match field(&doc, "workloads") {
        JsonValue::Array(items) => items
            .iter()
            .map(|w| str_of(field(w, "name")).to_owned())
            .collect(),
        other => panic!("not an array: {other:?}"),
    };
    assert_eq!(workloads, evebench::WORKLOADS);
}
