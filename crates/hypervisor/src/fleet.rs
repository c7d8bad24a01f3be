//! The sharded parallel fleet engine: thousands of Aggregate VMs under
//! one deterministic conservative-DES merge.
//!
//! A *fleet* is `shards` independent [`VmWorld`](crate::vm::VmWorld)s, each hosting
//! `tenants_per_shard` tenants (an RPC client vCPU plus a server vCPU per
//! tenant) on a small cluster of nodes. Tenants exchange cross-shard RPCs
//! over a shared datacenter link ([`FleetConfig::fleet_link`]); intra-shard
//! traffic rides the shard's own fabric as usual.
//!
//! # Conservative windows
//!
//! Shards advance in lock-step windows of width `W =`
//! [`LinkProfile::lookahead`] of the cross-shard link. A message staged by
//! [`Op::FleetSend`] in window `k` departs at some `t ≥ start_k`, so its
//! earliest possible arrival `t + W ≥ start_k + W = end_k` falls in window
//! `k+1` or later — no shard can ever receive a message for a time it has
//! already simulated, which is exactly the conservative synchronization
//! invariant (null-message-free, because the window *is* the lookahead).
//!
//! # Deterministic merge
//!
//! At each barrier the coordinator collects every shard's outbox, sorts
//! the union by the unique key `(depart, src_shard, src_seq)`
//! ([`StagedMsg::key`]), and feeds it in that order through a single
//! [`IngressLine`] that serializes deliveries per destination tenant and
//! applies the tenant's weighted-fair stretch. Because the merge order,
//! the ingress-line state, and the per-shard injection order are all
//! functions of simulation state only — never of host thread timing — a
//! run with `jobs = 1` and a run with `jobs = N` produce byte-identical
//! results ([`FleetReport::digest`]).
//!
//! # Parallelism
//!
//! Workers own disjoint shard subsets (round-robin by shard id) for the
//! whole run. The calling thread is the coordinator and worker 0: it runs
//! its own shards. `jobs - 1` helper threads build theirs *inside* the
//! thread, so no non-`Send` state ever crosses a thread boundary, and
//! `jobs = 1` spawns no thread at all. Each worker trades plain data with
//! the coordinator through one `Port` whose buffers live for the whole
//! run, and the two sides meet once per window on an atomic generation
//! `Barrier` that polls briefly and then parks. Drop guards on both
//! sides turn a panic anywhere into a panic of [`FleetSim::run`], never a
//! hang.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use comm::{ClassWeights, IngressLine, LinkProfile, MsgClass, StagedMsg};
use dsm::Access;
use guest::memory::Region;
use sim_core::time::SimTime;
use sim_core::units::ByteSize;
use sim_core::Fnv1a;

use crate::profile::HypervisorProfile;
use crate::program::{GuestMsg, Op, ProgCtx, Program};
use crate::vm::{Event, Placement, VmBuilder, VmSim};
use crate::VcpuId;

/// Tag carried by request messages (client → server vCPU).
const TAG_REQ: u64 = 0;
/// Tag carried by reply messages (server → client vCPU).
const TAG_REP: u64 = 1;

/// One tenant's shape: who it talks to and how hard it works.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Global tenant id of the peer this tenant's client sends RPCs to.
    pub peer: u32,
    /// Number of request/reply rounds the client performs.
    pub rounds: u32,
    /// Request/reply payload size in bytes.
    pub bytes: u64,
    /// Server-side compute per request.
    pub service: SimTime,
    /// Client-side think time between rounds (jittered ±25%).
    pub think: SimTime,
    /// Guest pages the server writes per request (0 = no DSM traffic).
    pub pages: u64,
    /// Traffic class: its weighted-fair share stretches this tenant's
    /// deliveries when the destination's ingress line is backlogged.
    pub class: MsgClass,
}

impl TenantSpec {
    /// A balanced default tenant talking to `peer`.
    pub fn new(peer: u32) -> Self {
        TenantSpec {
            peer,
            rounds: 4,
            bytes: 4096,
            service: SimTime::from_micros(20),
            think: SimTime::from_micros(40),
            pages: 4,
            class: MsgClass::Io,
        }
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (each one [`VmWorld`](crate::vm::VmWorld)).
    pub shards: u32,
    /// Tenants hosted per shard (two vCPUs each).
    pub tenants_per_shard: u32,
    /// Cluster nodes per shard.
    pub nodes_per_shard: u32,
    /// pCPUs per node; tenants overcommit the shared slab beyond
    /// `nodes_per_shard * pcpus_per_node` vCPUs.
    pub pcpus_per_node: u32,
    /// Cost model for each shard's hypervisor.
    pub profile: HypervisorProfile,
    /// The cross-shard datacenter link; its [`LinkProfile::lookahead`] is
    /// the conservative window width.
    pub fleet_link: LinkProfile,
    /// Weighted-fair shares applied per tenant class at ingress.
    pub weights: ClassWeights,
    /// Determinism seed (each shard derives its own stream).
    pub seed: u64,
    /// Safety cap on window barriers before declaring the fleet hung.
    pub max_windows: u64,
}

impl FleetConfig {
    /// A fleet of `shards` shards with `tenants_per_shard` tenants each,
    /// on FragVisor-profile shards joined by a 1G datacenter link.
    pub fn new(shards: u32, tenants_per_shard: u32) -> Self {
        FleetConfig {
            shards,
            tenants_per_shard,
            nodes_per_shard: 4,
            pcpus_per_node: 4,
            profile: HypervisorProfile::fragvisor(),
            fleet_link: LinkProfile::ethernet_1g(),
            weights: ClassWeights::default_qos(),
            seed: 0xF1EE7,
            max_windows: 20_000_000,
        }
    }

    /// Total tenants in the fleet.
    pub fn tenants(&self) -> u32 {
        self.shards * self.tenants_per_shard
    }
}

/// Per-tenant output: the client's observed request latencies.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Global tenant id.
    pub tenant: u32,
    /// One latency sample (ns) per completed round, in completion order.
    pub samples: Vec<u64>,
}

/// The result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant latency samples, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Order-sensitive digest over every shard's final state, combined in
    /// shard order; byte-identical across `jobs` settings.
    pub digest: u64,
    /// Window barriers crossed.
    pub windows: u64,
    /// Events delivered across all shard engines.
    pub events: u64,
    /// Cross-shard messages merged.
    pub fleet_msgs: u64,
    /// Virtual completion time (max over shards).
    pub finish: SimTime,
}

/// A fleet of Aggregate VMs ready to run.
#[derive(Debug, Clone)]
pub struct FleetSim {
    config: FleetConfig,
    tenants: Vec<TenantSpec>,
}

/// A merged cross-shard message scheduled into a destination shard.
struct Delivery {
    shard: u32,
    at: SimTime,
    vcpu: u32,
    conn: u64,
    bytes: u64,
}

/// One shard as its worker owns it for the whole run.
struct Shard {
    id: u32,
    sim: VmSim,
    /// Next `src_seq` this shard stages (the merge tie-breaker).
    seq: u64,
}

/// The plain data one worker exchanges with the coordinator per window.
/// Its buffers are cleared, never dropped, so a steady-state window
/// allocates nothing.
#[derive(Default)]
struct Port {
    /// End of the window to run.
    end: SimTime,
    /// Deliveries to inject first, in global merge order.
    deliveries: Vec<Delivery>,
    /// Messages every owned shard staged this window.
    staged: Vec<StagedMsg>,
    /// Whether every client on the owned shards has finished.
    clients_done: bool,
}

/// How long a waiter at the window barrier polls before it parks. A
/// window on a dispatch-bound fleet takes tens of microseconds, so a
/// balanced pair of workers meets while polling; a waiter stuck behind a
/// long window sleeps instead.
const POLL: Duration = Duration::from_micros(50);

/// Polls `ready`, yielding the core between polls, for up to [`POLL`],
/// then parks until it holds. Yielding rather than a busy `spin_loop`
/// matters when workers outnumber free cores (more `jobs` than cores, or
/// a neighbour on one of them): the thread being waited for then shares
/// the waiter's core and gets it at once, instead of after a whole spin.
/// Wakers set the condition before they unpark, and an unpark that lands
/// before the park makes the park return at once, so no wake-up is lost.
fn wait_until(ready: impl Fn() -> bool) {
    if ready() {
        return;
    }
    let start = Instant::now();
    while !ready() {
        if start.elapsed() < POLL {
            thread::yield_now();
        } else {
            thread::park();
        }
    }
}

/// The atomic generation barrier between the coordinator and its helpers.
///
/// Ordering: the coordinator fills the helpers' [`Port`]s, then stores
/// `gen` with `Release`; a helper loads it with `Acquire` before it locks
/// its port. A helper releases its port, then bumps `arrived` with
/// `Release`; the coordinator loads it with `Acquire` before it reads the
/// ports. So each side's port writes happen before the other side's reads.
#[derive(Default)]
struct Barrier {
    /// The window the helpers may run (window numbers start at 1).
    gen: AtomicU64,
    /// Windows finished, summed over helpers.
    arrived: AtomicU64,
    /// The run is over, normally or by a coordinator panic.
    stop: AtomicBool,
    /// A helper panicked.
    failed: AtomicBool,
}

/// Ends the helpers' wait loop when dropped, so they exit when the
/// coordinator finishes *or* panics (say, on the `max_windows` cap).
struct StopGuard<'a> {
    barrier: &'a Barrier,
    helpers: Vec<Thread>,
}

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.barrier.stop.store(true, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
    }
}

/// Tells the coordinator when its helper unwinds, so the coordinator's
/// barrier wait never outlives a dead helper.
struct FailGuard<'a> {
    barrier: &'a Barrier,
    coordinator: &'a Thread,
}

impl Drop for FailGuard<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.barrier.failed.store(true, Ordering::Release);
            self.coordinator.unpark();
        }
    }
}

struct ShardResult {
    shard: u32,
    digest: u64,
    events: u64,
    finish: SimTime,
    /// `(global tenant id, client samples)`, in local tenant order.
    tenants: Vec<(u32, Vec<u64>)>,
}

const POISONED: &str = "fleet port poisoned by a panicking helper";

impl FleetSim {
    /// Builds a fleet; `tenants[t]` describes global tenant `t`, which
    /// lives on shard `t / tenants_per_shard`.
    ///
    /// # Panics
    ///
    /// Panics if the spec list does not cover exactly
    /// `shards * tenants_per_shard` tenants or a peer id is out of range.
    pub fn new(config: FleetConfig, tenants: Vec<TenantSpec>) -> Self {
        assert_eq!(
            tenants.len(),
            config.tenants() as usize,
            "one TenantSpec per tenant"
        );
        assert!(
            tenants.iter().all(|t| t.peer < config.tenants()),
            "peer id out of range"
        );
        FleetSim { config, tenants }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the fleet on `jobs` workers (clamped to `[1, shards]`) and
    /// returns the merged report. The calling thread is worker 0 and the
    /// coordinator; `jobs - 1` helper threads run the other shards, so
    /// `jobs = 1` spawns no thread. The report — including its digest —
    /// is independent of `jobs`: every run executes the same windowed
    /// algorithm in the same merge order.
    ///
    /// # Panics
    ///
    /// Panics if the fleet exceeds [`FleetConfig::max_windows`] barriers
    /// without every client finishing (a deadlocked tenant graph), or
    /// with a shard's own panic payload if simulating that shard panics.
    pub fn run(&self, jobs: usize) -> FleetReport {
        let shards = self.config.shards as usize;
        let jobs = jobs.clamp(1, shards.max(1));
        assert!(
            !self.config.fleet_link.lookahead().is_zero(),
            "cross-shard link needs nonzero latency"
        );

        let barrier = Barrier::default();
        let ports: Vec<Mutex<Port>> = (0..jobs).map(|_| Mutex::default()).collect();
        let coordinator = thread::current();
        thread::scope(|scope| {
            // Helpers build and own their shards for the whole run
            // (worlds hold non-Send state, so they never move).
            let handles: Vec<_> = (1..jobs)
                .map(|w| {
                    let (barrier, port, coordinator) = (&barrier, &ports[w], &coordinator);
                    scope.spawn(move || self.helper(w, jobs, barrier, port, coordinator))
                })
                .collect();
            let stop = StopGuard {
                barrier: &barrier,
                helpers: handles.iter().map(|h| h.thread().clone()).collect(),
            };

            let mut own = self.build_shards(0, jobs);
            let windowed = self.coordinate(&mut own, jobs, &barrier, &ports, &stop.helpers);
            drop(stop);

            let mut results: Vec<ShardResult> =
                own.iter().map(|s| shard_result(&self.config, s)).collect();
            for h in handles {
                // A helper's panic resurfaces here with its own payload.
                results.extend(h.join().unwrap_or_else(|p| panic::resume_unwind(p)));
            }
            let (windows, fleet_msgs) = windowed.expect("only a helper panic aborts the windows");
            self.report(results, windows, fleet_msgs)
        })
    }

    /// The coordinator's window loop; returns `(windows, fleet_msgs)`, or
    /// `None` if a helper panicked.
    fn coordinate(
        &self,
        own: &mut [Shard],
        jobs: usize,
        barrier: &Barrier,
        ports: &[Mutex<Port>],
        helpers: &[Thread],
    ) -> Option<(u64, u64)> {
        let cfg = &self.config;
        let window = cfg.fleet_link.lookahead();
        let mut ingress = IngressLine::new(cfg.fleet_link);
        let mut pending: Vec<Vec<Delivery>> = (0..jobs).map(|_| Vec::new()).collect();
        let mut merged: Vec<StagedMsg> = Vec::new();
        let mut windows = 0u64;
        let mut fleet_msgs = 0u64;
        loop {
            windows += 1;
            assert!(
                windows <= cfg.max_windows,
                "fleet exceeded {} windows without finishing \
                 (deadlocked tenant graph?)",
                cfg.max_windows
            );
            let end = SimTime::from_nanos(window.as_nanos() * windows);
            for (port, next) in ports.iter().zip(&mut pending) {
                let mut port = port.lock().expect(POISONED);
                port.end = end;
                // The port's old deliveries were drained, so this hands
                // their buffer back for the next window's merge.
                std::mem::swap(&mut port.deliveries, next);
            }
            barrier.gen.store(windows, Ordering::Release);
            for h in helpers {
                h.unpark();
            }

            self.step(own, jobs, &mut ports[0].lock().expect(POISONED));
            let target = windows * helpers.len() as u64;
            wait_until(|| {
                barrier.arrived.load(Ordering::Acquire) >= target
                    || barrier.failed.load(Ordering::Acquire)
            });
            if barrier.failed.load(Ordering::Acquire) {
                return None;
            }

            // Deterministic merge: global (depart, src_shard, src_seq)
            // order, then per-destination ingress serialization.
            // A fleet with every client Done has no in-flight
            // messages (a pending request or reply implies a blocked,
            // unfinished client), so `all_done` plus an empty merge is
            // a safe quiescence test.
            merged.clear();
            let mut all_done = true;
            for port in ports {
                let port = port.lock().expect(POISONED);
                merged.extend_from_slice(&port.staged);
                all_done &= port.clients_done;
            }
            comm::merge_windows(&mut merged);
            fleet_msgs += merged.len() as u64;
            for m in &merged {
                let spec = &self.tenants[m.src as usize];
                let weight = cfg.weights.weight(spec.class).max(1);
                let stretch = (cfg.weights.total() / weight).max(1);
                let at = ingress.admit(m.dst, m.depart, ByteSize::bytes(m.bytes), stretch);
                let dst_shard = m.dst / cfg.tenants_per_shard;
                let local = m.dst % cfg.tenants_per_shard;
                // Requests land on the server vCPU, replies on the
                // client vCPU.
                let vcpu = 2 * local + u32::from(m.tag == TAG_REQ);
                pending[dst_shard as usize % jobs].push(Delivery {
                    shard: dst_shard,
                    at,
                    vcpu,
                    conn: u64::from(m.src),
                    bytes: m.bytes,
                });
            }

            if all_done && merged.is_empty() {
                return Some((windows, fleet_msgs));
            }
        }
    }

    /// A helper's life: build worker `w`'s shards, run one window per
    /// barrier generation, and return their final state once stopped.
    fn helper(
        &self,
        w: usize,
        jobs: usize,
        barrier: &Barrier,
        port: &Mutex<Port>,
        coordinator: &Thread,
    ) -> Vec<ShardResult> {
        let _fail = FailGuard {
            barrier,
            coordinator,
        };
        let mut shards = self.build_shards(w, jobs);
        let helpers = jobs as u64 - 1;
        let mut seen = 0u64;
        loop {
            wait_until(|| {
                barrier.gen.load(Ordering::Acquire) > seen || barrier.stop.load(Ordering::Acquire)
            });
            if barrier.stop.load(Ordering::Acquire) {
                break;
            }
            seen += 1;
            self.step(&mut shards, jobs, &mut port.lock().expect(POISONED));
            // The last helper to arrive wakes the coordinator.
            if barrier.arrived.fetch_add(1, Ordering::Release) + 1 == seen * helpers {
                coordinator.unpark();
            }
        }
        shards
            .iter()
            .map(|s| shard_result(&self.config, s))
            .collect()
    }

    /// Worker `w`'s shards (round-robin by shard id), built on the
    /// calling thread.
    fn build_shards(&self, w: usize, jobs: usize) -> Vec<Shard> {
        (0..self.config.shards)
            .filter(|s| *s as usize % jobs == w)
            .map(|id| Shard {
                id,
                sim: self.build_shard(id),
                seq: 0,
            })
            .collect()
    }

    /// One window on one worker: inject the merged deliveries, run every
    /// owned shard to `port.end`, and stage what the shards sent.
    fn step(&self, shards: &mut [Shard], jobs: usize, port: &mut Port) {
        let cfg = &self.config;
        let Port {
            end,
            deliveries,
            staged,
            clients_done,
        } = port;
        for d in deliveries.drain(..) {
            // Shard `s` is its worker's `s / jobs`-th (round-robin).
            let shard = &mut shards[d.shard as usize / jobs];
            shard.sim.engine.external_ctx().schedule_at(
                d.at,
                Event::FleetDeliver {
                    vcpu: VcpuId::new(d.vcpu),
                    msg: GuestMsg::Net {
                        conn: d.conn,
                        bytes: d.bytes,
                    },
                },
            );
        }
        staged.clear();
        *clients_done = true;
        for shard in shards.iter_mut() {
            shard.sim.run_until(*end);
            let id = shard.id;
            let seq = &mut shard.seq;
            staged.extend(shard.sim.world.drain_fleet_outbox().map(|m| {
                let src_seq = *seq;
                *seq += 1;
                StagedMsg {
                    depart: m.depart,
                    src_shard: id,
                    src_seq,
                    src: id * cfg.tenants_per_shard + m.src_vcpu.0 / 2,
                    dst: m.dst,
                    bytes: m.bytes,
                    tag: m.tag,
                }
            }));
            *clients_done &= (0..cfg.tenants_per_shard)
                .all(|t| shard.sim.world.stats.vcpu_finish[2 * t as usize].is_some());
        }
    }

    /// Combines per-shard results in shard order: the digest is a pure
    /// function of simulation state.
    fn report(&self, mut results: Vec<ShardResult>, windows: u64, fleet_msgs: u64) -> FleetReport {
        results.sort_unstable_by_key(|r| r.shard);
        let mut digest = Fnv1a::new();
        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut events = 0u64;
        let mut finish = SimTime::ZERO;
        for r in results {
            digest.write_u64(r.digest);
            events += r.events;
            finish = finish.max(r.finish);
            for (tenant, samples) in r.tenants {
                tenants.push(TenantStats { tenant, samples });
            }
        }
        FleetReport {
            tenants,
            digest: digest.finish(),
            windows,
            events,
            fleet_msgs,
            finish,
        }
    }

    /// Builds one shard: a small cluster hosting this shard's tenants,
    /// two vCPUs each, round-robin over the shared pCPU slab.
    fn build_shard(&self, shard: u32) -> VmSim {
        let cfg = &self.config;
        let nodes = cfg.nodes_per_shard;
        let base = shard * cfg.tenants_per_shard;
        let mut b = VmBuilder::new(cfg.profile, nodes as usize)
            .seed(cfg.seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(u64::from(shard) + 1)));
        for local in 0..cfg.tenants_per_shard {
            let tenant = base + local;
            let spec = self.tenants[tenant as usize];
            // Client and server land on different nodes so every RPC's
            // DSM traffic crosses the shard fabric.
            for role in 0..2u32 {
                let v = 2 * local + role;
                let node = v % nodes;
                let pcpu = (v / nodes) % cfg.pcpus_per_node;
                let prog: Box<dyn Program> = if role == 0 {
                    Box::new(FleetClient::new(spec))
                } else {
                    Box::new(FleetServer::new(tenant, spec))
                };
                b = b.vcpu(Placement::new(node, pcpu), prog);
            }
        }
        let mut sim = b.build();
        sim.world.enable_fleet();
        sim
    }
}

/// Digest + stats for one finished shard.
fn shard_result(cfg: &FleetConfig, shard: &Shard) -> ShardResult {
    let (shard, sim) = (shard.id, &shard.sim);
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(shard));
    h.write_u64(sim.engine.delivered());
    h.write_u64(sim.engine.now().as_nanos());
    h.write_u64(sim.world.mem.dsm.state_digest());
    let stats = &sim.world.stats;
    for f in &stats.vcpu_finish {
        h.write_u64(f.map_or(u64::MAX, SimTime::as_nanos));
    }
    for s in &stats.samples {
        h.write_u64(s.len() as u64);
        for &x in s {
            h.write_u64(x);
        }
    }
    let base = shard * cfg.tenants_per_shard;
    let tenants = (0..cfg.tenants_per_shard)
        .map(|local| (base + local, stats.samples[2 * local as usize].clone()))
        .collect();
    ShardResult {
        shard,
        digest: h.finish(),
        events: sim.engine.delivered(),
        finish: stats.makespan(),
        tenants,
    }
}

/// Client phase machine: think → send → recv → observe, `rounds` times.
#[derive(Debug, Clone, Copy)]
enum ClientPhase {
    Think,
    Send,
    Recv,
    Observe,
}

/// The per-tenant RPC client: issues one request per round to the peer
/// tenant's server and records the observed round-trip latency.
struct FleetClient {
    spec: TenantSpec,
    phase: ClientPhase,
    round: u32,
    t0: SimTime,
}

impl FleetClient {
    fn new(spec: TenantSpec) -> Self {
        FleetClient {
            spec,
            phase: ClientPhase::Think,
            round: 0,
            t0: SimTime::ZERO,
        }
    }
}

impl Program for FleetClient {
    fn next(&mut self, cx: &mut ProgCtx<'_>) -> Op {
        match self.phase {
            ClientPhase::Think => {
                if self.round >= self.spec.rounds {
                    return Op::Done;
                }
                self.phase = ClientPhase::Send;
                // ±25% jitter keeps tenants out of lock-step without
                // perturbing the mean load.
                let base = self.spec.think.as_nanos();
                let jitter = cx.rng.range(0, base / 2 + 1);
                Op::Compute(SimTime::from_nanos(base * 3 / 4 + jitter))
            }
            ClientPhase::Send => {
                self.t0 = cx.now;
                self.phase = ClientPhase::Recv;
                Op::FleetSend {
                    dst: self.spec.peer,
                    bytes: self.spec.bytes,
                    tag: TAG_REQ,
                }
            }
            ClientPhase::Recv => {
                self.phase = ClientPhase::Observe;
                Op::NetRecv
            }
            ClientPhase::Observe => {
                self.round += 1;
                self.phase = ClientPhase::Think;
                Op::Observe {
                    value_ns: (cx.now - self.t0).as_nanos(),
                }
            }
        }
    }

    fn label(&self) -> &str {
        "fleet-client"
    }
}

/// Server phase machine: recv → compute → touch → reply, forever.
#[derive(Debug, Clone, Copy)]
enum ServerPhase {
    Recv,
    Work,
    Touch,
    Reply,
}

/// The per-tenant RPC server: echoes each request back to its sender
/// after a service burst and a page-write sweep over its heap region.
struct FleetServer {
    tenant: u32,
    spec: TenantSpec,
    phase: ServerPhase,
    region: Option<Region>,
    cursor: u64,
    reply_to: u32,
}

impl FleetServer {
    fn new(tenant: u32, spec: TenantSpec) -> Self {
        FleetServer {
            tenant,
            spec,
            phase: ServerPhase::Recv,
            region: None,
            cursor: 0,
            reply_to: 0,
        }
    }
}

impl Program for FleetServer {
    fn next(&mut self, cx: &mut ProgCtx<'_>) -> Op {
        match self.phase {
            ServerPhase::Recv => {
                self.phase = ServerPhase::Work;
                Op::NetRecv
            }
            ServerPhase::Work => {
                if let Some(GuestMsg::Net { conn, .. }) = cx.delivered {
                    self.reply_to = conn as u32;
                }
                self.phase = ServerPhase::Touch;
                Op::Compute(self.spec.service)
            }
            ServerPhase::Touch => {
                self.phase = ServerPhase::Reply;
                if self.spec.pages == 0 {
                    return self.next(cx);
                }
                let region = self.region.get_or_insert_with(|| {
                    cx.alloc
                        .alloc(&format!("tenant{}.heap", self.tenant), self.spec.pages * 8)
                });
                let touches = (0..self.spec.pages)
                    .map(|i| {
                        let p = region.page((self.cursor + i) % (self.spec.pages * 8));
                        (p, Access::Write)
                    })
                    .collect();
                self.cursor += self.spec.pages;
                Op::TouchBatch(touches)
            }
            ServerPhase::Reply => {
                self.phase = ServerPhase::Recv;
                Op::FleetSend {
                    dst: self.reply_to,
                    bytes: self.spec.bytes,
                    tag: TAG_REP,
                }
            }
        }
    }

    fn label(&self) -> &str {
        "fleet-server"
    }
}

/// Peer maps for the standard fleet scenarios.
pub mod scenario {
    /// Uniform all-to-all: tenant `t` pairs with the tenant half the
    /// fleet away, so every RPC crosses shards once `shards > 1`.
    pub fn uniform(total: u32) -> Vec<u32> {
        (0..total).map(|t| (t + total / 2) % total).collect()
    }

    /// Noisy neighbor: every `fan`-th tenant floods tenant 0's shard
    /// neighborhood; the rest behave as in [`uniform`].
    pub fn noisy_neighbor(total: u32, fan: u32) -> Vec<u32> {
        (0..total)
            .map(|t| {
                if t != 0 && t % fan == 0 {
                    0
                } else {
                    (t + total / 2) % total
                }
            })
            .collect()
    }

    /// Incast: all tenants converge on tenant 0 (one hot ingress line).
    pub fn incast(total: u32) -> Vec<u32> {
        (0..total)
            .map(|t| if t == 0 { total / 2 } else { 0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(shards: u32, tenants_per_shard: u32, seed: u64) -> FleetSim {
        fleet_of(shards, tenants_per_shard, seed, scenario::uniform)
    }

    fn fleet_of(
        shards: u32,
        tenants_per_shard: u32,
        seed: u64,
        peers: fn(u32) -> Vec<u32>,
    ) -> FleetSim {
        let mut cfg = FleetConfig::new(shards, tenants_per_shard);
        cfg.seed = seed;
        let total = cfg.tenants();
        let specs: Vec<TenantSpec> = peers(total).into_iter().map(TenantSpec::new).collect();
        FleetSim::new(cfg, specs)
    }

    fn assert_same(a: &FleetReport, b: &FleetReport) {
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fleet_msgs, b.fleet_msgs);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.tenants.len(), b.tenants.len());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn fleet_completes_and_samples_every_round() {
        let report = small_fleet(2, 4, 7).run(1);
        assert_eq!(report.tenants.len(), 8);
        for t in &report.tenants {
            assert_eq!(t.samples.len(), 4, "tenant {} rounds", t.tenant);
            assert!(t.samples.iter().all(|&s| s > 0));
        }
        assert!(report.fleet_msgs >= 2 * 8 * 4); // request + reply per round
        assert!(report.windows > 1);
    }

    #[test]
    fn serial_and_parallel_runs_are_byte_identical() {
        // At 3 jobs over 4 shards the coordinator runs shards 0 and 3 and
        // each helper runs one shard; every split must merge identically.
        for peers in [scenario::uniform, scenario::incast] {
            let fleet = fleet_of(4, 3, 11, peers);
            let serial = fleet.run(1);
            for jobs in 2..=4 {
                assert_same(&serial, &fleet.run(jobs));
            }
        }
    }

    #[test]
    fn incast_serializes_on_the_hot_ingress_line() {
        let incast = fleet_of(2, 4, 3, scenario::incast).run(2);
        let uniform = small_fleet(2, 4, 3).run(2);
        let max = |r: &FleetReport| {
            r.tenants
                .iter()
                .flat_map(|t| t.samples.iter().copied())
                .max()
                .unwrap_or(0)
        };
        assert!(
            max(&incast) > max(&uniform),
            "incast tail {} should exceed uniform tail {}",
            max(&incast),
            max(&uniform)
        );
    }

    fn capped_fleet(jobs: usize) {
        let mut cfg = FleetConfig::new(4, 2);
        cfg.max_windows = 3;
        let specs = scenario::uniform(cfg.tenants())
            .into_iter()
            .map(TenantSpec::new)
            .collect();
        FleetSim::new(cfg, specs).run(jobs);
    }

    #[test]
    #[should_panic(expected = "fleet exceeded")]
    fn window_cap_panics_serial() {
        capped_fleet(1);
    }

    #[test]
    #[should_panic(expected = "fleet exceeded")]
    fn window_cap_releases_one_helper() {
        capped_fleet(2);
    }

    #[test]
    #[should_panic(expected = "fleet exceeded")]
    fn window_cap_releases_three_helpers() {
        capped_fleet(4);
    }

    /// Tenant 1 lives on shard 1, which a helper owns at `jobs = 2`; its
    /// server's heap cannot fit in guest memory, so the first request it
    /// serves panics inside that helper.
    #[test]
    #[should_panic(expected = "guest out of memory")]
    fn helper_panic_surfaces_at_the_coordinator() {
        let cfg = FleetConfig::new(2, 1);
        let mut specs: Vec<TenantSpec> = scenario::uniform(cfg.tenants())
            .into_iter()
            .map(TenantSpec::new)
            .collect();
        specs[1].pages = 1 << 40;
        FleetSim::new(cfg, specs).run(2);
    }

    #[test]
    fn digest_depends_on_seed() {
        let a = small_fleet(2, 2, 1).run(1);
        let b = small_fleet(2, 2, 2).run(1);
        assert_ne!(a.digest, b.digest);
    }
}
