//! One function per paper figure.
//!
//! See `DESIGN.md` §4 for the experiment index. All functions are pure
//! (deterministic, seed-fixed) and return a [`crate::report::Table`].
//!
//! # Determinism contract
//!
//! Every experiment derives all randomness from its own fixed seeds and
//! touches no shared mutable state, so the figure set can be generated in
//! any order — or concurrently — and produce identical tables.
//! [`all_parallel`] relies on this: it fans the experiments out over a
//! thread pool, then reassembles the results in paper order, so its output
//! (and the JSON/Markdown rendered from it) is byte-identical to [`all`].

mod apps;
mod chaos;
mod corebench;
mod extensions;
mod fault_recovery;
mod fleet;
mod io;
mod memelastic;
mod micro;
mod npb;
mod partition;
mod qos;
mod resilience;
mod scale;
mod sched;

pub use apps::{fig12_lemp, fig13_openlambda};
pub use chaos::chaos_soak;
pub use corebench::{CoreCase, CoreSizes, CORE_CASES};
pub use extensions::{
    ablation_study, interference_study, memory_borrowing_study, provisioning_study,
    reliability_study,
};
pub use fault_recovery::fault_recovery_study;
pub use fleet::{fleet_study, fleet_study_at, FleetShape};
pub use io::{fig06_net_delegation, fig07_storage_delegation};
pub use memelastic::memory_pressure_study;
pub use micro::{fig01_sharing_study, fig04_dsm_fault_overhead, fig05_concurrent_writes};
pub use npb::{fig08_npb_overcommit, fig09_npb_giantvm, fig10_guest_opts};
pub use partition::partition_study;
pub use qos::qos_fabric_study;
pub use resilience::fig11_checkpoint;
pub use scale::{
    fragbff_scale_study, run_all, run_policy, scale_json, scale_table, PolicyRun, ScaleConfig,
    POLICIES,
};
pub use sched::fig14_sched_migration;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::report::Table;

/// A named figure generator: `(name, zero-argument experiment fn)`.
pub type Figure = (&'static str, fn() -> Table);

/// Every figure experiment in paper order.
///
/// [`all`] and [`all_parallel`] both draw from this list, so the serial
/// and parallel runners can never diverge on coverage or order.
pub const FIGURES: &[Figure] = &[
    ("fig01_sharing_study", fig01_sharing_study),
    ("fig04_dsm_fault_overhead", fig04_dsm_fault_overhead),
    ("fig05_concurrent_writes", fig05_concurrent_writes),
    ("fig06_net_delegation", fig06_net_delegation),
    ("fig07_storage_delegation", fig07_storage_delegation),
    ("fig08_npb_overcommit", fig08_npb_overcommit),
    ("fig09_npb_giantvm", fig09_npb_giantvm),
    ("fig10_guest_opts", fig10_guest_opts),
    ("fig11_checkpoint", fig11_checkpoint),
    ("fig12_lemp", fig12_lemp),
    ("fig13_openlambda", fig13_openlambda),
    ("fig14_sched_migration", fig14_sched_migration),
];

/// Looks up one figure by its exact [`FIGURES`] name.
///
/// # Errors
///
/// Returns a message listing every valid name if `name` is not one.
pub fn figure(name: &str) -> Result<Figure, String> {
    FIGURES
        .iter()
        .find(|&&(n, _)| n == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
            format!("unknown figure `{name}`; valid names: {}", names.join(", "))
        })
}

/// Runs every figure experiment serially, in paper order.
pub fn all() -> Vec<Table> {
    FIGURES.iter().map(|&(_, f)| f()).collect()
}

/// The order workers claim figures in: longest-running first, from
/// measured release-build durations (fig05's contended-writes sweep
/// dominates at ~0.5 s, fig01's sharing study is next at ~0.2 s, the
/// tail is near-instant). Starting the long poles first bounds the
/// makespan by `longest + sum(tail)/jobs` instead of leaving a worker
/// alone on fig05 at the end.
///
/// Must be a permutation of `0..FIGURES.len()` (checked by a test); the
/// claim order only affects wall-clock, never output — results are
/// reassembled in paper order.
const CLAIM_ORDER: [usize; 12] = [2, 0, 5, 6, 9, 7, 3, 11, 1, 4, 10, 8];

/// Runs every figure experiment on up to `jobs` worker threads and returns
/// the tables in paper order.
///
/// Workers claim experiments from a shared counter walking `CLAIM_ORDER`
/// (longest first, so the slowest figure is never scheduled last). Output
/// is byte-identical to [`all`] regardless of `jobs` — see the
/// module-level determinism contract. `jobs == 1` short-circuits to the
/// serial runner.
///
/// # Panics
///
/// Panics if any experiment panics (the panic is propagated once all other
/// workers finish).
pub fn all_parallel(jobs: usize) -> Vec<Table> {
    let jobs = jobs.clamp(1, FIGURES.len());
    if jobs == 1 {
        return all();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Table)>> = Mutex::new(Vec::with_capacity(FIGURES.len()));
    std::thread::scope(|s| {
        for w in 0..jobs {
            let (next, done) = (&next, &done);
            // Simulated guests can nest deeply; give workers the same 8 MiB
            // the main thread gets rather than the 2 MiB spawn default.
            std::thread::Builder::new()
                .name(format!("figures-{w}"))
                .stack_size(8 << 20)
                .spawn_scoped(s, move || loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = CLAIM_ORDER.get(slot) else {
                        break;
                    };
                    let (_, f) = FIGURES[i];
                    let table = f();
                    done.lock().expect("figure result lock").push((i, table));
                })
                .expect("spawn figure worker");
        }
    });
    let mut done = done.into_inner().expect("figure result lock");
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claim order must cover every figure exactly once, or the
    /// parallel runner would skip or double-run experiments.
    #[test]
    fn claim_order_is_a_permutation_of_figures() {
        let mut seen = [false; 12];
        assert_eq!(CLAIM_ORDER.len(), FIGURES.len());
        for &i in &CLAIM_ORDER {
            assert!(!seen[i], "figure index {i} claimed twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Every name selects exactly its own entry; anything else, including
    /// a prefix of a valid name, is an error naming every valid figure.
    #[test]
    fn figure_selects_by_exact_name() {
        for &(name, f) in FIGURES {
            let (got, g) = figure(name).expect("listed figure");
            assert_eq!(got, name);
            assert!(std::ptr::fn_addr_eq(f, g), "{name} picked another fn");
        }
        for bad in ["", "fig01", "fig02_missing", "FIG12_LEMP"] {
            let err = figure(bad).expect_err(bad);
            for &(name, _) in FIGURES {
                assert!(err.contains(name), "{err:?} does not list {name}");
            }
        }
    }
}
