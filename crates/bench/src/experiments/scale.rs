//! Data-center-scale FragBFF cluster study (ROADMAP item 1; §6/§7.3).
//!
//! Replays one seeded mixed-shape arrival trace — thousands of nodes,
//! tens of thousands of VMs — under four placement policies: FragBFF
//! with both consolidation objectives, plus first-fit and worst-fit
//! single-machine baselines (which can only delay VMs that fit nowhere,
//! the behaviour the paper argues against). Reported per policy:
//! fragmentation over time (time-series in `BENCH_SCHED.json`),
//! Aggregate-VM spawn rate, delayed-placement rate, consolidation
//! migration count, and simulator events/sec as a first-class metric —
//! the harness shape of dslab's `iaas-benchmark`.
//!
//! The simulated trajectory is deterministic per seed; only the
//! events/sec column reflects wall-clock and varies between hosts.

use std::time::Instant;

use cluster::MachineSpec;
use scheduler::{ArrivalTrace, ConsolidationPolicy, DatacenterSim, PlacementPolicy, SimReport};
use sim_core::rng::DetRng;
use sim_core::time::SimTime;

use crate::report::{f2, Table};

/// Mean VM lifetime fed to the trace generator.
const MEAN_LIFETIME_SECS: f64 = 60.0;

/// Average vCPUs per VM under the Protean size mix.
const MEAN_VCPUS: f64 = 3.5;

/// Target offered CPU load (fraction of cluster capacity). Deliberately
/// past saturation: fragmentation — the phenomenon under study — only
/// appears when free capacity is scarce and scattered; at mild loads
/// best-fit packs every VM whole and all four policies coincide.
const TARGET_LOAD: f64 = 1.05;

/// `generate_mixed`'s long-runner mix (matches `trace.rs`): this share of
/// VMs live this multiple of the mean lifetime.
const LONG_RUNNER_SHARE: f64 = 0.10;
const LONG_RUNNER_FACTOR: f64 = 8.0;

/// The four policies of the study, in report order.
pub const POLICIES: [PlacementPolicy; 4] = [
    PlacementPolicy::FragBff(ConsolidationPolicy::MinFragmentation),
    PlacementPolicy::FragBff(ConsolidationPolicy::MinNodes),
    PlacementPolicy::FirstFit,
    PlacementPolicy::WorstFit,
];

/// One study configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Homogeneous fig14-spec nodes in the cluster.
    pub nodes: usize,
    /// VM arrivals in the trace.
    pub arrivals: usize,
    /// Trace seed.
    pub seed: u64,
    /// Timeline decimation: one sample per this many simulator events.
    pub sample_every: u64,
}

impl ScaleConfig {
    /// The default study: 2,000 nodes × 50,000 arrivals.
    pub fn full() -> Self {
        ScaleConfig {
            nodes: 2000,
            arrivals: 50_000,
            seed: 42,
            sample_every: 0, // auto
        }
        .autosample()
    }

    /// The CI smoke config: 500 nodes × 5,000 arrivals.
    pub fn smoke() -> Self {
        ScaleConfig {
            nodes: 500,
            arrivals: 5_000,
            seed: 42,
            sample_every: 0,
        }
        .autosample()
    }

    /// Reads the config from the environment: `FRAGBFF_SMOKE=1` selects
    /// [`ScaleConfig::smoke`], anything else [`ScaleConfig::full`].
    pub fn from_env() -> Self {
        if std::env::var("FRAGBFF_SMOKE").is_ok_and(|v| v == "1") {
            Self::smoke()
        } else {
            Self::full()
        }
    }

    /// Picks a decimation rate targeting ~512 timeline samples when none
    /// was set explicitly (a run processes ≈ 2 events per arrival).
    pub fn autosample(mut self) -> Self {
        if self.sample_every == 0 {
            self.sample_every = ((self.arrivals as u64 * 2) / 512).max(1);
        }
        self
    }

    /// Mean inter-arrival time that offers `TARGET_LOAD` of the cluster's
    /// CPU capacity: each arrival brings `MEAN_VCPUS` CPUs for an
    /// *effective* lifetime that counts the ~10% long-runners only for the
    /// part of their 8× lifetime the trace window can actually realize.
    /// The window span depends on the inter-arrival time being solved for,
    /// so the estimate is iterated to its fixed point; without the
    /// correction, long windows (big runs) overshoot the target — the
    /// delayed queue diverges and retry passes dominate runtime — while
    /// short windows undershoot it and never fragment. `span / 3`
    /// approximates the mean in-window residence of a long-runner whose
    /// lifetime rivals the window itself.
    pub fn mean_interarrival(&self) -> SimTime {
        let total_cpus = f64::from(MachineSpec::fig14().cpus) * self.nodes as f64;
        let per_arrival = MEAN_VCPUS / (total_cpus * TARGET_LOAD);
        let mut secs = MEAN_LIFETIME_SECS * per_arrival;
        for _ in 0..8 {
            let span = self.arrivals as f64 * secs;
            let eff_long = (LONG_RUNNER_FACTOR * MEAN_LIFETIME_SECS).min(span / 3.0);
            let eff_lifetime =
                (1.0 - LONG_RUNNER_SHARE) * MEAN_LIFETIME_SECS + LONG_RUNNER_SHARE * eff_long;
            secs = eff_lifetime * per_arrival;
        }
        SimTime::from_secs_f64(secs)
    }

    /// The study's seeded mixed-shape trace (identical for every policy).
    pub fn trace(&self) -> ArrivalTrace {
        let mut rng = DetRng::new(self.seed);
        ArrivalTrace::generate_mixed(
            &mut rng,
            self.arrivals,
            self.mean_interarrival(),
            SimTime::from_secs_f64(MEAN_LIFETIME_SECS),
        )
    }
}

/// The outcome of one policy's run.
pub struct PolicyRun {
    /// The policy that ran.
    pub policy: PlacementPolicy,
    /// Its full simulation report.
    pub report: SimReport,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
}

impl PolicyRun {
    /// Simulator events per wall-clock second — the harness throughput
    /// metric.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.report.events_processed as f64 / self.wall_secs
        } else {
            f64::INFINITY
        }
    }

    /// Mean stranded fraction over the sampled timeline.
    pub fn mean_stranded(&self) -> f64 {
        let s = &self.report.frag_series;
        if s.is_empty() {
            return 0.0;
        }
        s.iter().map(|(_, f)| f.stranded_fraction).sum::<f64>() / s.len() as f64
    }

    /// Peak stranded fraction over the sampled timeline.
    pub fn peak_stranded(&self) -> f64 {
        self.report
            .frag_series
            .iter()
            .map(|(_, f)| f.stranded_fraction)
            .fold(0.0, f64::max)
    }

    /// Mean provisioning wait (seconds from arrival to start) over all
    /// placed VMs — the paper's delayed-allocation cost.
    pub fn mean_wait_secs(&self) -> f64 {
        let w = &self.report.wait_times;
        if w.is_empty() {
            return 0.0;
        }
        w.iter().map(|&(_, t)| t.as_secs_f64()).sum::<f64>() / w.len() as f64
    }
}

/// Runs one policy over the configured trace.
pub fn run_policy(cfg: &ScaleConfig, policy: PlacementPolicy) -> PolicyRun {
    let trace = cfg.trace();
    let started = Instant::now();
    let report = DatacenterSim::with_policy(cfg.nodes, MachineSpec::fig14(), policy, trace)
        .sample_every(cfg.sample_every)
        .run();
    PolicyRun {
        policy,
        report,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs all four policies over the same trace.
pub fn run_all(cfg: &ScaleConfig) -> Vec<PolicyRun> {
    POLICIES.iter().map(|&p| run_policy(cfg, p)).collect()
}

/// Renders the study table from finished runs.
pub fn scale_table(cfg: &ScaleConfig, runs: &[PolicyRun]) -> Table {
    let mut t = Table::new(
        "exp_fragbff_scale",
        &format!(
            "trace-driven cluster study: {} nodes x {} arrivals (seed {}, \
             mixed shapes, ~{:.0}% offered load)",
            cfg.nodes,
            cfg.arrivals,
            cfg.seed,
            TARGET_LOAD * 100.0
        ),
        &[
            "policy",
            "singles",
            "aggregates",
            "agg rate",
            "delayed",
            "delay rate",
            "retries",
            "migrations",
            "mean wait",
            "mean stranded",
            "peak stranded",
            "events",
            "events/sec",
        ],
    );
    for r in runs {
        let n = cfg.arrivals as f64;
        t.row(vec![
            r.policy.name().to_string(),
            r.report.singles.to_string(),
            r.report.aggregates.to_string(),
            format!("{:.2}%", r.report.aggregates as f64 / n * 100.0),
            r.report.delayed.to_string(),
            format!("{:.2}%", r.report.delayed as f64 / n * 100.0),
            r.report.retry_attempts.to_string(),
            r.report.migrations.to_string(),
            format!("{}s", f2(r.mean_wait_secs())),
            format!("{:.2}%", r.mean_stranded() * 100.0),
            format!("{:.2}%", r.peak_stranded() * 100.0),
            r.report.events_processed.to_string(),
            format!("{:.0}", r.events_per_sec()),
        ]);
    }
    t.note(
        "FragBFF turns the baselines' delayed placements into Aggregate-VM \
         spawns and consolidates them as capacity frees up; the baselines \
         can only queue. The simulated trajectory is deterministic per \
         seed; events/sec is wall-clock and varies between hosts.",
    );
    t
}

/// Extension study entry point: four policies at the environment-selected
/// scale (`FRAGBFF_SMOKE=1` for the CI smoke run).
pub fn fragbff_scale_study() -> Table {
    let cfg = ScaleConfig::from_env();
    scale_table(&cfg, &run_all(&cfg))
}

/// Renders runs as the `BENCH_SCHED.json` document: config, per-policy
/// counters, events/sec, and the decimated fragmentation trajectory.
pub fn scale_json(cfg: &ScaleConfig, runs: &[PolicyRun]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"arrivals\": {}, \"seed\": {}, \
         \"sample_every\": {}, \"mean_interarrival_secs\": {:.6}, \
         \"mean_lifetime_secs\": {:.1}, \"target_load\": {:.2}}},\n",
        cfg.nodes,
        cfg.arrivals,
        cfg.seed,
        cfg.sample_every,
        cfg.mean_interarrival().as_secs_f64(),
        MEAN_LIFETIME_SECS,
        TARGET_LOAD
    ));
    out.push_str("  \"policies\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"singles\": {}, \"aggregates\": {}, \
             \"delayed\": {}, \"retry_attempts\": {}, \"migrations\": {}, \
             \"events_processed\": {}, \"events_per_sec\": {:.0}, \
             \"wall_secs\": {:.3}, \"mean_wait_secs\": {:.3}, \
             \"mean_stranded\": {:.4}, \
             \"peak_stranded\": {:.4}, \"final_free_cpus\": {},\n",
            r.policy.name(),
            r.report.singles,
            r.report.aggregates,
            r.report.delayed,
            r.report.retry_attempts,
            r.report.migrations,
            r.report.events_processed,
            r.events_per_sec(),
            r.wall_secs,
            r.mean_wait_secs(),
            r.mean_stranded(),
            r.peak_stranded(),
            r.report.final_fragmentation.free_cpus,
        ));
        // Keep the committed trajectory compact: at most 128 points.
        let series = &r.report.frag_series;
        let step = (series.len() / 128).max(1);
        out.push_str("     \"trajectory\": [");
        let mut first = true;
        for (t, f) in series.iter().step_by(step) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "[{:.1}, {}, {}]",
                t.as_secs_f64(),
                f.free_cpus,
                f.stranded_cpus
            ));
        }
        out.push_str("]}");
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            nodes: 50,
            arrivals: 800,
            seed: 7,
            sample_every: 0,
        }
        .autosample()
    }

    #[test]
    fn four_policies_produce_distinct_curves() {
        let cfg = tiny();
        let runs = run_all(&cfg);
        assert_eq!(runs.len(), 4);
        for r in &runs {
            // Every run drains and keeps its bookkeeping linear.
            assert_eq!(
                r.report.final_fragmentation.free_cpus,
                cfg.nodes as u32 * MachineSpec::fig14().cpus
            );
            assert_eq!(
                r.report.free_cpus.len() as u64,
                r.report.events_processed.div_ceil(cfg.sample_every)
            );
        }
        let (frag, base) = (&runs[0], &runs[2]);
        assert!(frag.report.aggregates > 0, "FragBFF must spawn aggregates");
        assert!(frag.report.migrations > 0, "consolidation must fire");
        assert_eq!(base.report.aggregates, 0, "baselines never aggregate");
        // The curves genuinely differ: FragBFF harvests the fragments the
        // baseline strands, and VMs start sooner for it.
        assert!(frag.mean_stranded() < base.mean_stranded());
        assert!(frag.mean_wait_secs() < base.mean_wait_secs());
        // And the two FragBFF objectives behave differently too.
        let minnodes = &runs[1].report;
        assert!(
            (frag.report.migrations, frag.report.singles)
                != (minnodes.migrations, minnodes.singles),
            "minfrag and minnodes produced identical runs"
        );
    }

    #[test]
    fn simulated_trajectory_is_deterministic() {
        let cfg = tiny();
        let a = run_policy(&cfg, POLICIES[0]);
        let b = run_policy(&cfg, POLICIES[0]);
        assert_eq!(a.report.events, b.report.events);
        assert_eq!(a.report.frag_series, b.report.frag_series);
        // The JSON differs only in wall-clock fields.
        assert_eq!(a.mean_stranded(), b.mean_stranded());
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let cfg = ScaleConfig {
            nodes: 20,
            arrivals: 200,
            seed: 3,
            sample_every: 0,
        }
        .autosample();
        let runs = run_all(&cfg);
        let j = scale_json(&cfg, &runs);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        for p in ["minfrag", "minnodes", "firstfit", "worstfit"] {
            assert!(j.contains(&format!("\"policy\": \"{p}\"")), "missing {p}");
        }
        assert!(j.contains("\"events_per_sec\""));
        assert!(j.contains("\"trajectory\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
