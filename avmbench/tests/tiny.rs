//! Every workload at its tiny shape: the runs report exactly the metrics
//! `BENCHMARK.json` declares, pass their golden checks, and report a
//! corrupted golden as a failed operation.

use std::collections::BTreeMap;

use avmbench::workload::setup;
use avmbench::{
    golden, run_traced, run_untraced, Options, RunResult, Scale, Workload, DEFAULT_SEED,
};

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn opts(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        scale: Scale::Tiny,
        seed,
        seconds: 0.0,
    }
}

fn goldens() -> BTreeMap<String, u64> {
    golden::parse(golden::GOLDEN).expect("golden.txt parses")
}

fn untraced(o: &Options, goldens: &BTreeMap<String, u64>) -> RunResult {
    let mut probe = || {
        setup(o.workload, o.scale, o.seed);
        Ok(())
    };
    run_untraced(o, goldens, &mut probe).expect("untraced run")
}

fn names(r: &RunResult) -> Vec<String> {
    let mut n: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
    n.sort();
    n
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_and_match_goldens() {
    let g = goldens();
    for w in Workload::ALL {
        let r = untraced(&opts(w, DEFAULT_SEED), &g);
        assert_eq!(r.failed, 0, "{}: failed ops", w.name());
        assert!(r.attempted > 0);
        assert_eq!(names(&r), sorted(declared("end_to_end")), "{}", w.name());
        for m in &r.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let g = goldens();
    for w in Workload::ALL {
        let r = run_traced(&opts(w, DEFAULT_SEED), &g);
        assert_eq!(r.failed, 0, "{}: failed ops", w.name());
        assert_eq!(names(&r), sorted(declared("per_layer")), "{}", w.name());
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn corrupted_golden_is_a_failed_operation() {
    let mut g = goldens();
    let key = "tiny.fleet_uniform.fleet";
    *g.get_mut(key).expect("golden for the tiny uniform fleet") ^= 1;
    let r = untraced(&opts(Workload::FleetUniform, DEFAULT_SEED), &g);
    assert!(r.attempted >= 3);
    assert_eq!(
        r.failed, r.attempted,
        "every pass misses the corrupted golden"
    );
    assert!(r.to_json().starts_with("{\"correct\": false, "));

    g.remove(key);
    let r = untraced(&opts(Workload::FleetUniform, DEFAULT_SEED), &g);
    assert_eq!(r.failed, r.attempted, "a missing golden fails too");
}

#[test]
fn other_seeds_are_checked_for_repetition() {
    let g = goldens();
    for w in [Workload::FleetIncast, Workload::FragBff] {
        let r = untraced(&opts(w, 7), &g);
        assert_eq!(r.failed, 0, "{}: passes at seed 7 diverged", w.name());
    }
}

#[test]
fn result_line_has_the_contract_keys() {
    let r = untraced(&opts(Workload::FleetUniform, DEFAULT_SEED), &goldens());
    let json = r.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(json.contains(", \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": "));
    assert!(json.contains("\"unit\": \"s\"}"));
    assert!(!json.contains('\n'));
}
