//! Smoke-size checks of the benchmark itself: deterministic counters
//! repeat exactly on one seed, a different seed changes the inputs, the
//! traced replay agrees with the untraced run, each mode reports exactly
//! the metrics `BENCHMARK.json` lists for it, and the CLI takes the seed
//! as a required argument.

use raf_perfbench::workload::{self, Op};
use raf_perfbench::{run, RunOptions};
use std::process::Command;

/// The metric names one section of `BENCHMARK.json` lists, in order.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = text.find(&format!("\"{section}\": [")).expect(section);
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

fn names(report: &raf_perfbench::Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn run_smoke(spec: &workload::WorkloadSpec, seed: u64, trace: bool) -> raf_perfbench::Report {
    let options = RunOptions { seed, seconds: 2.0, trace };
    run(spec, options)
}

#[test]
fn counters_repeat_exactly_on_one_seed() {
    for spec in workload::workloads() {
        let smoke = spec.smoke();
        let a = run_smoke(&smoke, 7, false);
        let b = run_smoke(&smoke, 7, false);
        assert!(a.correct, "{}: {:?}", spec.name, a.notes);
        assert_eq!(a.failed, 0, "{}: {:?}", spec.name, a.notes);
        assert_eq!(a.counters, b.counters, "{}", spec.name);
        assert!(a.counters.hits > 0 && a.counters.misses > 0, "{}: {:?}", spec.name, a.counters);
        assert!(
            a.counters.evictions > 0,
            "{}: the smoke cache must evict: {:?}",
            spec.name,
            a.counters
        );
        assert!(a.counters.repaired > 0, "{}: deltas must repair pools", spec.name);
        assert_eq!(names(&a), listed("end_to_end"), "{}", spec.name);
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let smoke = workload::workloads()[0].smoke();
    let (snap, _) = workload::build_snapshot(&smoke);
    let inputs = |seed| workload::generate_inputs(&smoke, seed, &snap, 60);
    let (a, b) = (inputs(1), inputs(2));
    assert_ne!(format!("{:?}", a.ops), format!("{:?}", b.ops), "the seed draws the traffic");
    assert_eq!(format!("{:?}", inputs(1).ops), format!("{:?}", a.ops), "one seed, one stream");
    // The population is the workload's, not the seed's.
    assert_eq!(a.pairs, b.pairs);
    let (again, _) = workload::build_snapshot(&smoke);
    assert!(again.social.edges().eq(snap.social.edges()));
}

#[test]
fn the_stream_interleaves_every_op_type() {
    let spec = &workload::workloads()[1];
    let smoke = spec.smoke();
    let (snap, _) = workload::build_snapshot(&smoke);
    let ops = workload::generate_inputs(&smoke, 3, &snap, 2 * workload::DELTA_EVERY).ops;
    let count = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
    assert_eq!(count(|op| matches!(op, Op::Delta { remove: true, .. })), 2);
    assert_eq!(count(|op| matches!(op, Op::Delta { remove: false, .. })), 2);
    assert_eq!(
        count(|op| matches!(op, Op::Campaign(_))),
        2 * workload::DELTA_EVERY / workload::CAMPAIGN_EVERY
    );
    // Every removal is followed at once by its restore.
    for pair in ops.windows(2) {
        if let Op::Delta { remove: true, .. } = pair[0] {
            assert!(matches!(pair[1], Op::Delta { remove: false, .. }));
        }
    }
}

#[test]
fn the_traced_replay_agrees_and_accounts_for_op_time() {
    for spec in workload::workloads() {
        let report = run_smoke(&spec.smoke(), 5, true);
        assert!(report.correct, "{}: {:?}", spec.name, report.notes);
        let metric = |name: &str| {
            report.metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
        };
        assert!(metric("trace.unexplained_share") < 0.10, "{}: {:?}", spec.name, report.metrics);
        assert!(metric("model.sample_ms") > 0.0);
        assert!(metric("serve.hit_ratio") > 0.0 && metric("serve.hit_ratio") < 1.0);
        assert!(!report.spans.is_empty());
        assert_eq!(names(&report), listed("per_layer"), "{}", spec.name);
    }
}

#[test]
fn the_seed_is_a_required_argument() {
    let bin = env!("CARGO_BIN_EXE_raf-perfbench");
    let out = Command::new(bin)
        .args(["--workload", "wiki-dense", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed"));
    assert!(out.stdout.is_empty(), "no result line without a seed");
    let out = Command::new(bin)
        .args(["--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
}
