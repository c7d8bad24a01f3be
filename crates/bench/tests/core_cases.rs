//! Runs every `core_bench` layer case once at a tiny shape and checks the
//! element count it reports, so a case that silently stops doing its work
//! (or counts the wrong thing) fails here rather than as a bogus rate.

use std::collections::HashSet;

use bench_harness::experiments::{CoreSizes, ScaleConfig, CORE_CASES};

fn tiny() -> CoreSizes {
    CoreSizes {
        queue_occupancy: 64,
        queue_churn: 1000,
        storm_pages: 16,
        storm_accesses: 1000,
        scan_pages: 128,
        scan_passes: 3,
        drain_total: 512,
        drain_owned: 40,
        ping_pong_rounds: 100,
        fanout_pages: 50,
        fanout_readers: 3,
        first_touch_pages: 300,
        pscpu_cycles: 200,
        fabric_sends: 250,
        fragbff: ScaleConfig {
            nodes: 20,
            arrivals: 100,
            seed: 42,
            sample_every: 0,
        }
        .autosample(),
        dispatch_vcpus: 3,
        dispatch_cycles: 50,
        fleet_shards: 2,
        fleet_tenants: 4,
        fleet_rounds: 2,
        fleet_jobs: 2,
    }
}

#[test]
fn case_names_are_unique() {
    let mut seen = HashSet::new();
    for &(name, _) in CORE_CASES {
        assert!(seen.insert(name), "duplicate case {name}");
    }
}

#[test]
fn every_case_reports_its_deterministic_element_count() {
    let s = tiny();
    let count = |name: &str| {
        let &(_, case) = CORE_CASES
            .iter()
            .find(|&&(n, _)| n == name)
            .unwrap_or_else(|| panic!("no case {name}"));
        case(&s)
    };
    let expected: &[(&str, u64)] = &[
        ("queue_churn_heap", 2 * 64 + 2 * 1000),
        ("dsm_hit_storm", 1000),
        ("dsm_batch_scan", 128 * 3),
        ("dsm_drain", 40),
        ("dsm_write_ping_pong", 100),
        ("dsm_read_fanout", 50 * 3),
        ("dsm_first_touch", 300),
        ("pscpu_cycle", 200),
        ("fabric_send", 250),
        // One event per burst and one more per vCPU, plus one for the VM.
        ("vm_dispatch", 3 * (50 + 1) + 1),
    ];
    for &(name, want) in expected {
        assert_eq!(count(name), want, "{name}");
    }

    // Event-driven cases: the count is the simulator's own event tally,
    // identical on a rerun and across worker counts.
    let fragbff = count("fragbff_replay");
    assert!(fragbff > 0);
    assert_eq!(count("fragbff_replay"), fragbff);
    let fleet = count("fleet_serial");
    assert!(fleet > 0);
    assert_eq!(count("fleet_parallel"), fleet);

    // Every registered case is covered above.
    let covered: HashSet<&str> = expected
        .iter()
        .map(|&(n, _)| n)
        .chain(["fragbff_replay", "fleet_serial", "fleet_parallel"])
        .collect();
    for &(name, _) in CORE_CASES {
        assert!(covered.contains(name), "case {name} has no expected count");
    }
}
