//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hypervisor::fleet::FleetReport;
use scheduler::PlacementPolicy;

use crate::alloc;
use crate::golden::Checker;
use crate::workload::{
    figures_pass, fleet_digest, fleet_jobs, fleet_run, fragbff_pass, setup, Fleet, Inputs, Op,
    Replay, Scale, Traces, Workload, DEFAULT_SEED,
};

/// Passes at least, whatever `--seconds` says; the first one warms
/// caches and is left out of the median.
const MIN_PASSES: usize = 3;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input size.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// How long to keep repeating passes.
    pub seconds: f64,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's verdict and metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Ops checked.
    pub attempted: u64,
    /// Ops that panicked, diverged or missed their reference.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample (as `exp_fleet` reports).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Process high-water RSS in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn checker(workload: Workload, opts: &Options, goldens: &BTreeMap<String, u64>) -> Checker {
    let prefix = format!("{}.{}", opts.scale.name(), workload.name());
    Checker::new(prefix, (opts.seed == DEFAULT_SEED).then_some(goldens))
}

/// The output of one pass of some workload.
enum Pass {
    Figures(Vec<Op<u64>>),
    Fleet(Op<FleetReport>, u32),
    FragBff(Vec<(PlacementPolicy, Op<Replay>)>),
}

impl Pass {
    fn run(inputs: &Inputs) -> Pass {
        match inputs {
            Inputs::Figures => Pass::Figures(figures_pass()),
            Inputs::Fleet(f) => Pass::Fleet(fleet_run(&f.sim, fleet_jobs(&f.sim)), f.rounds),
            Inputs::FragBff(t) => Pass::FragBff(fragbff_pass(t)),
        }
    }

    /// Each op's key and output digest.
    fn digests(&self) -> Vec<(&str, Result<u64, String>)> {
        match self {
            Pass::Figures(ops) => ops.iter().map(|o| (&*o.key, o.out.clone())).collect(),
            Pass::Fleet(op, rounds) => {
                vec![(
                    &*op.key,
                    op.out.clone().and_then(|r| fleet_digest(&r, *rounds)),
                )]
            }
            Pass::FragBff(ops) => ops
                .iter()
                .map(|(_, o)| {
                    (
                        &*o.key,
                        o.out.as_ref().map(|r| r.digest).map_err(Clone::clone),
                    )
                })
                .collect(),
        }
    }

    /// Checks every op; returns the pass's simulator seconds and its work
    /// items (simulator events, or figure tables for the figures).
    fn check(&self, checker: &mut Checker) -> (f64, u64) {
        for (key, digest) in self.digests() {
            checker.check(key, &digest);
        }
        match self {
            Pass::Figures(ops) => (ops.iter().map(|o| o.secs).sum(), ops.len() as u64),
            Pass::Fleet(op, _) => (op.secs, op.out.as_ref().map_or(0, |r| r.events)),
            Pass::FragBff(ops) => ops.iter().fold((0.0, 0), |(secs, events), (_, o)| {
                (
                    secs + o.secs,
                    events + o.out.as_ref().map_or(0, |r| r.events),
                )
            }),
        }
    }
}

/// The golden lines of every workload at `scale` and the default seed,
/// in the format of `golden.txt`.
pub fn golden_lines(scale: Scale) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let pass = Pass::run(&setup(w, scale, DEFAULT_SEED));
        for (key, digest) in pass.digests() {
            let digest = digest.map_err(|e| format!("{}.{}.{key}: {e}", scale.name(), w.name()))?;
            lines.push(format!("{}.{}.{key} {digest:016x}", scale.name(), w.name()));
        }
    }
    Ok(lines)
}

/// The untraced run: `setup_s` from repeated set-ups through `probe`,
/// then checked passes for `opts.seconds`, reporting medians.
///
/// `probe` performs one complete set-up; the binary passes one that
/// starts a fresh process, so `setup_s` includes process start.
pub fn run_untraced(
    opts: &Options,
    goldens: &BTreeMap<String, u64>,
    probe: &mut dyn FnMut() -> Result<(), String>,
) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        probe()?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = setup(opts.workload, opts.scale, opts.seed);
    let mut checker = checker(opts.workload, opts, goldens);
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut work = 0;
    while walls.len() < MIN_PASSES || started.elapsed() < budget {
        let (secs, items) = Pass::run(&inputs).check(&mut checker);
        walls.push(secs);
        work = work.max(items);
    }
    let wall = median(&walls[1..]);
    eprintln!(
        "{} passes, median {wall:.6} s: {}",
        walls.len(),
        walls
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metric = |name: &str, value, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    Ok(RunResult {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            metric("wall_s", wall, "s"),
            metric("events_per_s", work as f64 / wall, "1/s"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ],
    })
}

/// Per-layer values of one traced profile, by metric name.
type Layers = BTreeMap<String, (f64, &'static str)>;

fn put(layers: &mut Layers, name: &str, value: f64, unit: &'static str) {
    layers.insert(name.to_string(), (value, unit));
}

/// One checker per workload, kept across the profiles of a traced run
/// so that every repeat is checked against the same reference.
struct Checkers<'a> {
    opts: &'a Options,
    goldens: &'a BTreeMap<String, u64>,
    by_workload: BTreeMap<&'static str, Checker>,
}

impl Checkers<'_> {
    fn of(&mut self, workload: Workload) -> &mut Checker {
        self.by_workload
            .entry(workload.name())
            .or_insert_with(|| checker(workload, self.opts, self.goldens))
    }
}

/// What a layer's traced pass cost the host.
#[derive(Default)]
struct Host {
    /// Simulator seconds of the pass.
    secs: f64,
    /// Allocations of its single-threaded execution.
    allocs: u64,
    /// Work items of that execution.
    work: u64,
}

fn figures_layer(layers: &mut Layers, checker: &mut Checker) -> Host {
    let before = alloc::allocs();
    let ops = figures_pass();
    let allocs = alloc::allocs() - before;
    for op in &ops {
        checker.check(&op.key, &op.out);
        let fig = op.key.split('_').next().unwrap_or(&op.key);
        put(layers, &format!("figures.{fig}_s"), op.secs, "s");
    }
    Host {
        secs: ops.iter().map(|o| o.secs).sum(),
        allocs,
        work: ops.len() as u64,
    }
}

/// Runs the fleet serially and sharded; the two reports must match.
fn fleet_layer(
    workload: Workload,
    opts: &Options,
    layers: &mut Layers,
    checker: &mut Checker,
) -> Host {
    let started = Instant::now();
    let Fleet { sim, rounds } = Fleet::build(workload, opts.scale, opts.seed);
    put(
        layers,
        "fleet.setup_s",
        started.elapsed().as_secs_f64(),
        "s",
    );
    let before = alloc::allocs();
    let serial = fleet_run(&sim, 1);
    let allocs = alloc::allocs() - before;
    let sharded = fleet_run(&sim, fleet_jobs(&sim));
    let [a, b] = [&serial, &sharded].map(|op| {
        let digest = op.out.clone().and_then(|r| fleet_digest(&r, rounds));
        checker.check(&op.key, &digest);
        digest
    });
    checker.expect(
        "serial and sharded fleet reports differ",
        a.is_ok() && a == b,
    );

    let report = sharded.out.as_ref().ok();
    let (windows, events, msgs) = report.map_or((0, 0, 0), |r| (r.windows, r.events, r.fleet_msgs));
    let mut samples: Vec<u64> = report
        .into_iter()
        .flat_map(|r| r.tenants.iter().flat_map(|t| t.samples.iter().copied()))
        .collect();
    samples.sort_unstable();
    put(layers, "fleet.windows", windows as f64, "count");
    put(layers, "fleet.events", events as f64, "count");
    put(
        layers,
        "fleet.events_per_window",
        events as f64 / windows.max(1) as f64,
        "events/window",
    );
    put(layers, "comm.fleet_msgs", msgs as f64, "count");
    put(layers, "fleet.samples", samples.len() as f64, "count");
    put(layers, "fleet.serial_s", serial.secs, "s");
    put(layers, "fleet.sharded_s", sharded.secs, "s");
    put(layers, "fleet.speedup", serial.secs / sharded.secs, "x");
    put(
        layers,
        "hypervisor.ns_per_event",
        serial.secs * 1e9 / events.max(1) as f64,
        "ns",
    );
    for (name, p) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
        let us = pct(&samples, p) as f64 / 1e3;
        put(layers, &format!("fleet.vlat_{name}_us"), us, "us");
    }
    Host {
        secs: sharded.secs,
        allocs,
        work: events,
    }
}

/// Sums of one policy's replays over every trace.
#[derive(Default)]
struct PolicySums {
    secs: f64,
    runs: u64,
    delayed: u64,
    retries: u64,
    migrations: u64,
    placed_late: u64,
    stranded_mean: f64,
}

fn fragbff_layer(opts: &Options, layers: &mut Layers, checker: &mut Checker) -> Host {
    let started = Instant::now();
    let traces = Traces::build(opts.scale, opts.seed);
    put(
        layers,
        "scheduler.trace_s",
        started.elapsed().as_secs_f64(),
        "s",
    );
    let before = alloc::allocs();
    let ops = fragbff_pass(&traces);
    let allocs = alloc::allocs() - before;

    let mut sums: BTreeMap<&str, PolicySums> = BTreeMap::new();
    let (mut events, mut samples) = (0, 0);
    for (policy, op) in &ops {
        checker.check(
            &op.key,
            &op.out.as_ref().map(|r| r.digest).map_err(Clone::clone),
        );
        let Ok(r) = &op.out else { continue };
        let s = sums.entry(policy.name()).or_default();
        s.secs += op.secs;
        s.runs += 1;
        s.delayed += r.delayed;
        s.retries += r.retries;
        s.migrations += r.migrations;
        s.placed_late += r.placed_late;
        s.stranded_mean += r.stranded_mean;
        events += r.events;
        samples += r.samples;
    }
    let zero = PolicySums::default();
    let get = |name: &str| sums.get(name).unwrap_or(&zero);
    for name in ["minfrag", "minnodes", "firstfit", "worstfit"] {
        put(layers, &format!("scheduler.{name}_s"), get(name).secs, "s");
    }
    let (ff, wf, minfrag) = (get("firstfit"), get("worstfit"), get("minfrag"));
    let retries = (ff.retries + wf.retries).max(1) as f64;
    let arrivals = traces.traces.first().map_or(1, |t| t.arrivals.len()) as f64;
    let runs = minfrag.runs.max(1) as f64;
    put(
        layers,
        "scheduler.migrations",
        (get("minnodes").migrations + minfrag.migrations) as f64,
        "count",
    );
    put(
        layers,
        "scheduler.retries",
        ff.retries as f64 + wf.retries as f64,
        "count",
    );
    put(
        layers,
        "scheduler.ns_per_retry",
        (ff.secs + wf.secs) * 1e9 / retries,
        "ns",
    );
    put(
        layers,
        "scheduler.retry_yield",
        (ff.placed_late + wf.placed_late) as f64 / retries,
        "placed/retry",
    );
    put(layers, "cluster.samples", samples as f64, "count");
    put(
        layers,
        "scheduler.delayed_pct",
        minfrag.delayed as f64 * 100.0 / (arrivals * runs),
        "%",
    );
    put(
        layers,
        "scheduler.stranded_mean_pct",
        minfrag.stranded_mean * 100.0 / runs,
        "%",
    );
    Host {
        secs: ops.iter().map(|(_, o)| o.secs).sum(),
        allocs,
        work: events,
    }
}

/// One traced profile: an untraced pass of the named workload, then a
/// traced pass through every layer with allocation counting on. The
/// named workload supplies its own layers; the figures, the uniform fleet
/// and the FragBFF replay stand in for the layers it does not reach, so
/// every per-layer metric is reported on every workload. `host.*`
/// describe the named workload's own traced pass.
fn profile(opts: &Options, checkers: &mut Checkers) -> Layers {
    let w = opts.workload;
    let inputs = setup(w, opts.scale, opts.seed);
    let (plain, _) = Pass::run(&inputs).check(checkers.of(w));
    drop(inputs);

    let mut layers = Layers::new();
    alloc::set_counting(true);
    let fleet = if w == Workload::FleetIncast {
        Workload::FleetIncast
    } else {
        Workload::FleetUniform
    };
    let hosts = [
        (
            Workload::Figures,
            figures_layer(&mut layers, checkers.of(Workload::Figures)),
        ),
        (
            fleet,
            fleet_layer(fleet, opts, &mut layers, checkers.of(fleet)),
        ),
        (
            Workload::FragBff,
            fragbff_layer(opts, &mut layers, checkers.of(Workload::FragBff)),
        ),
    ];
    alloc::set_counting(false);

    let host = hosts
        .into_iter()
        .find_map(|(hw, h)| (hw == w).then_some(h))
        .unwrap_or_default();
    put(&mut layers, "host.allocs", host.allocs as f64, "count");
    let per_event = host.allocs as f64 / host.work.max(1) as f64;
    put(
        &mut layers,
        "host.allocs_per_event",
        per_event,
        "allocs/event",
    );
    let overhead = (host.secs - plain) / plain * 100.0;
    put(&mut layers, "host.trace_overhead_pct", overhead, "%");
    layers
}

/// The traced run: traced profiles for `opts.seconds` (at least one),
/// reporting each per-layer metric's median.
pub fn run_traced(opts: &Options, goldens: &BTreeMap<String, u64>) -> RunResult {
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut checkers = Checkers {
        opts,
        goldens,
        by_workload: BTreeMap::new(),
    };
    let mut values: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    loop {
        for (name, (value, unit)) in profile(opts, &mut checkers) {
            values
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .push(value);
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    let checks = checkers.by_workload.values();
    RunResult {
        attempted: checks.clone().map(|c| c.attempted).sum(),
        failed: checks.map(|c| c.failed).sum(),
        metrics: values
            .into_iter()
            .map(|(name, (values, unit))| Metric {
                name,
                value: median(&values),
                unit,
            })
            .collect(),
    }
}
