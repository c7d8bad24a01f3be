//! The four workloads: their inputs (built from the seed), one pass of
//! simulation each, and the digests a pass is checked with.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bench_harness::experiments::{ScaleConfig, FIGURES, POLICIES};
use cluster::{FragmentationReport, MachineSpec};
use hypervisor::fleet::{scenario, FleetConfig, FleetReport, FleetSim, TenantSpec};
use scheduler::{ArrivalTrace, DatacenterSim, PlacementKind, PlacementPolicy, SimReport};
use sim_core::{digest::fnv1a, Fnv1a};

/// The seed the committed golden digests were taken at.
pub const DEFAULT_SEED: u64 = 42;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 12 paper figures, serially in paper order.
    Figures,
    /// The fleet, every tenant talking to the tenant half the fleet away.
    FleetUniform,
    /// The same fleet with every tenant converging on one ingress line.
    FleetIncast,
    /// The FragBFF cluster replay under all four placement policies.
    FragBff,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::FleetUniform,
        Workload::FleetIncast,
        Workload::FragBff,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::FleetUniform => "fleet_uniform",
            Workload::FleetIncast => "fleet_incast",
            Workload::FragBff => "fragbff",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the measured shape, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured shape.
    Full,
    /// Seconds-long shapes that still cross shards and saturate the cluster.
    Tiny,
}

impl Scale {
    /// Prefix of this scale's golden keys.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// `(shards, tenants per shard, rounds)`. Full is `exp_fleet`'s
    /// geometry; 16 rounds give 16,000 latency samples, 16 beyond p999.
    fn fleet(self) -> (u32, u32, u32) {
        match self {
            Scale::Full => (4, 250, 16),
            Scale::Tiny => (2, 8, 3),
        }
    }

    /// `(nodes, arrivals per trace, traces)`. The retry and consolidation
    /// work of a saturated cluster depends on the trace: one
    /// `exp_fragbff_scale`-size trace (2,000 nodes × 50,000 arrivals)
    /// varies ±20% in run time from seed to seed, and one 250 × 6,250
    /// trace by 17% (coefficient of variation). A pass replays 32 of the
    /// small traces, which averages the seed's effect down to ~3%.
    fn fragbff(self) -> (usize, usize, u64) {
        match self {
            Scale::Full => (250, 6_250, 32),
            Scale::Tiny => (40, 400, 2),
        }
    }
}

/// Fleet worker threads: one per core, at most one per shard.
pub fn fleet_jobs(sim: &FleetSim) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(sim.config().shards as usize)
}

/// A ready fleet and the rounds each client must complete.
pub struct Fleet {
    /// The fleet.
    pub sim: FleetSim,
    /// Rounds per tenant.
    pub rounds: u32,
}

impl Fleet {
    /// Builds the peer map and the `FleetSim`: every tenant converges on
    /// tenant 0 for [`Workload::FleetIncast`], and calls the tenant half
    /// the fleet away otherwise.
    pub fn build(workload: Workload, scale: Scale, seed: u64) -> Self {
        let (shards, per_shard, rounds) = scale.fleet();
        let mut cfg = FleetConfig::new(shards, per_shard);
        cfg.seed = seed;
        let total = cfg.tenants();
        let peers = if workload == Workload::FleetIncast {
            scenario::incast(total)
        } else {
            scenario::uniform(total)
        };
        let specs = peers
            .into_iter()
            .map(|peer| TenantSpec {
                rounds,
                ..TenantSpec::new(peer)
            })
            .collect();
        Fleet {
            sim: FleetSim::new(cfg, specs),
            rounds,
        }
    }
}

/// Seeded arrival traces replayed over `nodes` fig14 machines.
pub struct Traces {
    /// Cluster size.
    pub nodes: usize,
    /// Timeline decimation passed to `DatacenterSim::sample_every`.
    pub sample_every: u64,
    /// One trace per independent replay.
    pub traces: Vec<ArrivalTrace>,
}

impl Traces {
    /// Generates the traces; trace `i` is seeded `seed × count + i`.
    pub fn build(scale: Scale, seed: u64) -> Self {
        let (nodes, arrivals, count) = scale.fragbff();
        let configs: Vec<ScaleConfig> = (0..count)
            .map(|i| {
                ScaleConfig {
                    nodes,
                    arrivals,
                    seed: seed.wrapping_mul(count).wrapping_add(i),
                    sample_every: 0,
                }
                .autosample()
            })
            .collect();
        Traces {
            nodes,
            sample_every: configs[0].sample_every,
            traces: configs.iter().map(ScaleConfig::trace).collect(),
        }
    }
}

/// Everything a workload builds before its first simulated event.
#[allow(clippy::large_enum_variant)] // built once per run
pub enum Inputs {
    /// The figures are seed-fixed and build their own scenarios.
    Figures,
    /// The fleet workloads.
    Fleet(Fleet),
    /// The FragBFF replay.
    FragBff(Traces),
}

/// Builds `workload`'s inputs for `seed`.
pub fn setup(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    match workload {
        Workload::Figures => Inputs::Figures,
        Workload::FleetUniform | Workload::FleetIncast => {
            Inputs::Fleet(Fleet::build(workload, scale, seed))
        }
        Workload::FragBff => Inputs::FragBff(Traces::build(scale, seed)),
    }
}

/// One checked unit of work: a figure, a fleet run or a policy replay.
pub struct Op<T> {
    /// Golden key suffix, e.g. `fig05_concurrent_writes` or `t3.minfrag`.
    pub key: String,
    /// Host seconds spent in the simulator call.
    pub secs: f64,
    /// The simulator's output, or the panic it raised.
    pub out: Result<T, String>,
}

impl<T> Op<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Op<U> {
        Op {
            key: self.key,
            secs: self.secs,
            out: self.out.map(f),
        }
    }
}

fn timed<T>(key: String, f: impl FnOnce() -> T) -> Op<T> {
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let secs = started.elapsed().as_secs_f64();
    Op {
        key,
        secs,
        out: out.map_err(|p| {
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string())
        }),
    }
}

/// One figures pass: every `FIGURES` entry, serially, in paper order.
/// Each op carries the digest of the rendered table.
pub fn figures_pass() -> Vec<Op<u64>> {
    FIGURES
        .iter()
        .map(|&(name, f)| timed(name.to_string(), f).map(|t| fnv1a(t.render().as_bytes())))
        .collect()
}

/// One fleet run on `jobs` workers.
pub fn fleet_run(sim: &FleetSim, jobs: usize) -> Op<FleetReport> {
    timed("fleet".to_string(), || sim.run(jobs))
}

/// Digest of everything a fleet report shows; `Err` if a client did not
/// finish all of its rounds.
pub fn fleet_digest(report: &FleetReport, rounds: u32) -> Result<u64, String> {
    let mut h = Fnv1a::new();
    for v in [
        report.digest,
        report.windows,
        report.events,
        report.fleet_msgs,
        report.finish.as_nanos(),
    ] {
        h.write_u64(v);
    }
    for t in &report.tenants {
        if t.samples.len() != rounds as usize {
            return Err(format!(
                "tenant {} finished {} of {rounds} rounds",
                t.tenant,
                t.samples.len()
            ));
        }
        h.write_u64(u64::from(t.tenant));
        t.samples.iter().for_each(|&s| h.write_u64(s));
    }
    Ok(h.finish())
}

/// What the checks and the per-layer metrics need from one replay. The
/// full `SimReport` is dropped once summarized, so memory peaks as in a
/// single replay rather than growing with the number of replays.
#[derive(Debug, Clone)]
pub struct Replay {
    /// [`sim_digest`] of the report.
    pub digest: u64,
    /// Arrivals and departures processed.
    pub events: u64,
    /// Arrivals delayed at least once.
    pub delayed: u64,
    /// Re-placement attempts for delayed VMs.
    pub retries: u64,
    /// Consolidation migrations.
    pub migrations: u64,
    /// Delayed VMs that were eventually placed.
    pub placed_late: u64,
    /// Fragmentation timeline samples retained.
    pub samples: u64,
    /// Mean stranded-CPU fraction over the timeline.
    pub stranded_mean: f64,
}

impl Replay {
    fn of(r: &SimReport) -> Self {
        let series = &r.frag_series;
        Replay {
            digest: sim_digest(r),
            events: r.events_processed,
            delayed: r.delayed,
            retries: r.retry_attempts,
            migrations: r.migrations,
            placed_late: r
                .wait_times
                .iter()
                .filter(|(_, w)| w.as_nanos() > 0)
                .count() as u64,
            samples: series.len() as u64,
            stranded_mean: series.iter().map(|(_, f)| f.stranded_fraction).sum::<f64>()
                / series.len().max(1) as f64,
        }
    }
}

/// One FragBFF pass: every trace under every policy.
pub fn fragbff_pass(t: &Traces) -> Vec<(PlacementPolicy, Op<Replay>)> {
    let (nodes, sample_every) = (t.nodes, t.sample_every);
    let mut ops = Vec::with_capacity(t.traces.len() * POLICIES.len());
    for (i, trace) in t.traces.iter().enumerate() {
        for policy in POLICIES {
            let trace = trace.clone();
            let op = timed(format!("t{i}.{}", policy.name()), || {
                DatacenterSim::with_policy(nodes, MachineSpec::fig14(), policy, trace)
                    .sample_every(sample_every)
                    .run()
            });
            ops.push((policy, op.map(|r| Replay::of(&r))));
        }
    }
    ops
}

fn write_frag(h: &mut Fnv1a, f: &FragmentationReport) {
    for v in [
        f.free_cpus,
        f.stranded_cpus,
        f.fragmented_machines,
        f.largest_free_block,
    ] {
        h.write_u64(u64::from(v));
    }
    h.write_u64(f.stranded_fraction.to_bits());
}

/// Digest of a replay's counters, placement log and sampled timeline.
fn sim_digest(r: &SimReport) -> u64 {
    let mut h = Fnv1a::new();
    for v in [
        r.singles,
        r.aggregates,
        r.delayed,
        r.retry_attempts,
        r.migrations,
        r.events_processed,
    ] {
        h.write_u64(v);
    }
    write_frag(&mut h, &r.final_fragmentation);
    for e in &r.events {
        h.write_u64(e.at.as_nanos());
        h.write_u64(u64::from(e.vm.0));
        let (tag, detail) = match &e.kind {
            PlacementKind::Single(n) => (0, u64::from(n.0)),
            PlacementKind::Aggregate(slices) => (
                1,
                slices.iter().fold(0u64, |acc, (n, c)| {
                    acc.wrapping_mul(31) ^ (u64::from(n.0) << 32 | u64::from(*c))
                }),
            ),
            PlacementKind::Delayed => (2, 0),
            PlacementKind::DelayedStart(n) => (3, u64::from(n.0)),
            PlacementKind::Finished => (4, 0),
            PlacementKind::Migrated(cmds) => (5, cmds.len() as u64),
        };
        h.write_u64(tag);
        h.write_u64(detail);
    }
    for (at, f) in &r.frag_series {
        h.write_u64(at.as_nanos());
        write_frag(&mut h, f);
    }
    for (vm, wait) in &r.wait_times {
        h.write_u64(u64::from(vm.0));
        h.write_u64(wait.as_nanos());
    }
    h.finish()
}
