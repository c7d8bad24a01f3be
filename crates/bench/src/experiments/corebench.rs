//! The layer cases of `core_bench`: the simulator's own inner loops,
//! exercised in isolation so their throughput can be tracked as a
//! first-class trajectory (`BENCH_CORE.json`) and gated in CI.
//!
//! Each case is a pure, deterministic workload returning the number of
//! elements it processed; `core_bench` times it and divides. [`CORE_CASES`]
//! is the one registry of cases. Sizes are the fields of [`CoreSizes`]:
//! [`CoreSizes::full`] for the committed trajectory, [`CoreSizes::smoke`]
//! for CI, and the tests build a tiny one to check each case's count.

use std::hint::black_box;

use comm::{Fabric, LinkProfile, Message, MsgClass, NodeId};
use dsm::{Access, Dsm, DsmConfig, PageClass, PageId};
use hypervisor::fleet::{scenario, FleetConfig, FleetSim, TenantSpec};
use hypervisor::program::{Op, ProgCtx, Program};
use hypervisor::vm::{Placement, VmBuilder};
use hypervisor::HypervisorProfile;
use sim_core::engine::EventQueue;
use sim_core::pscpu::PsCpu;
use sim_core::time::SimTime;
use sim_core::units::ByteSize;

use super::scale::{run_policy, ScaleConfig};
use super::POLICIES;

/// Case sizes for one suite run.
#[derive(Debug, Clone, Copy)]
pub struct CoreSizes {
    /// Live events held during queue churn (fig-scale occupancy).
    pub queue_occupancy: usize,
    /// Pop+push steady-state operations during queue churn.
    pub queue_churn: usize,
    /// Directory pages for the hit storm.
    pub storm_pages: u32,
    /// Accesses in the hit storm.
    pub storm_accesses: u32,
    /// Run length for the batched sequential scan.
    pub scan_pages: u32,
    /// Scan passes (first pass faults, the rest hit).
    pub scan_passes: u32,
    /// Directory size for the drain case.
    pub drain_total: u32,
    /// Pages owned by the drained node.
    pub drain_owned: u32,
    /// Alternating-writer rounds on one shared page.
    pub ping_pong_rounds: u32,
    /// Pages in the read-share fan-out.
    pub fanout_pages: u32,
    /// Remote readers that each fault in every fan-out page.
    pub fanout_readers: u32,
    /// Never-seen pages written in the first-touch case.
    pub first_touch_pages: u32,
    /// Add→complete cycles on one processor-sharing CPU.
    pub pscpu_cycles: u32,
    /// Messages sent through the fabric.
    pub fabric_sends: u32,
    /// FragBFF replay configuration.
    pub fragbff: ScaleConfig,
    /// vCPUs in the dispatch-cycle case.
    pub dispatch_vcpus: u32,
    /// Compute cycles per vCPU in the dispatch-cycle case.
    pub dispatch_cycles: u32,
    /// Shards in the fleet cases.
    pub fleet_shards: u32,
    /// Tenants per shard in the fleet cases.
    pub fleet_tenants: u32,
    /// RPC rounds per tenant in the fleet cases.
    pub fleet_rounds: u32,
    /// Worker threads for the parallel fleet case.
    pub fleet_jobs: usize,
}

impl CoreSizes {
    /// The committed-trajectory sizes.
    pub fn full() -> Self {
        CoreSizes {
            queue_occupancy: 16_384,
            queue_churn: 1_000_000,
            storm_pages: 4096,
            storm_accesses: 1_000_000,
            scan_pages: 65_536,
            scan_passes: 16,
            drain_total: 204_800,
            drain_owned: 4096,
            ping_pong_rounds: 1_000_000,
            fanout_pages: 65_536,
            fanout_readers: 7,
            first_touch_pages: 262_144,
            pscpu_cycles: 1_000_000,
            fabric_sends: 1_000_000,
            fragbff: ScaleConfig::smoke(),
            dispatch_vcpus: 8,
            dispatch_cycles: 200_000,
            fleet_shards: 4,
            fleet_tenants: 250,
            fleet_rounds: 4,
            fleet_jobs: 4,
        }
    }

    /// Small shapes for CI: big enough that each case runs for
    /// milliseconds (sub-millisecond cases time mostly scheduler noise,
    /// which would make the regression gate flake), small enough that
    /// the whole suite finishes in a couple of seconds.
    pub fn smoke() -> Self {
        CoreSizes {
            queue_occupancy: 2048,
            queue_churn: 131_072,
            storm_pages: 512,
            storm_accesses: 1_048_576,
            scan_pages: 16_384,
            scan_passes: 8,
            drain_total: 25_600,
            drain_owned: 1024,
            ping_pong_rounds: 131_072,
            fanout_pages: 32_768,
            fanout_readers: 3,
            first_touch_pages: 65_536,
            pscpu_cycles: 262_144,
            fabric_sends: 131_072,
            fragbff: ScaleConfig {
                nodes: 100,
                arrivals: 1000,
                seed: 42,
                sample_every: 0,
            }
            .autosample(),
            dispatch_vcpus: 4,
            dispatch_cycles: 50_000,
            fleet_shards: 2,
            fleet_tenants: 16,
            fleet_rounds: 2,
            fleet_jobs: 2,
        }
    }
}

/// A named layer case: `(name, workload)`, where the workload runs at the
/// given sizes and returns the elements it processed.
pub type CoreCase = (&'static str, fn(&CoreSizes) -> u64);

/// Every layer case, in the order `core_bench` runs and prints them. The
/// names are the metric keys of `BENCH_CORE.json`.
pub const CORE_CASES: &[CoreCase] = &[
    ("queue_churn_heap", |s| {
        queue_churn(s.queue_occupancy, s.queue_churn)
    }),
    ("dsm_hit_storm", |s| {
        dsm_hit_storm(s.storm_pages, s.storm_accesses)
    }),
    ("dsm_batch_scan", |s| {
        dsm_batch_scan(s.scan_pages, s.scan_passes)
    }),
    ("dsm_drain", |s| dsm_drain(s.drain_total, s.drain_owned)),
    ("dsm_write_ping_pong", |s| {
        dsm_write_ping_pong(s.ping_pong_rounds)
    }),
    ("dsm_read_fanout", |s| {
        dsm_read_fanout(s.fanout_pages, s.fanout_readers)
    }),
    ("dsm_first_touch", |s| dsm_first_touch(s.first_touch_pages)),
    ("pscpu_cycle", |s| pscpu_cycle(s.pscpu_cycles)),
    ("fabric_send", |s| fabric_send(s.fabric_sends)),
    ("fragbff_replay", |s| fragbff_replay(&s.fragbff)),
    ("vm_dispatch", |s| {
        vm_dispatch(s.dispatch_vcpus, s.dispatch_cycles)
    }),
    ("fleet_serial", |s| {
        fleet_run(s.fleet_shards, s.fleet_tenants, s.fleet_rounds, 1)
    }),
    ("fleet_parallel", |s| {
        fleet_run(
            s.fleet_shards,
            s.fleet_tenants,
            s.fleet_rounds,
            s.fleet_jobs,
        )
    }),
];

/// Steady-state event-queue churn at a fixed occupancy: seed the queue,
/// then pop the head and schedule a successor a short delta ahead (with an
/// occasional far-future timer), then drain. Returns total push+pop
/// operations.
fn queue_churn(occupancy: usize, churn: usize) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(occupancy);
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 11
    };
    let mut ops = 0u64;
    for i in 0..occupancy {
        q.push(SimTime(next() % 1_000_000_000), i as u64);
        ops += 1;
    }
    for i in 0..churn {
        let (t, _) = black_box(q.pop()).expect("queue under-run");
        let delta = if i % 64 == 0 {
            5_000_000_000 + next() % 60_000_000_000
        } else {
            next() % 2_000_000
        };
        q.push(t + SimTime::from_nanos(delta), i as u64);
        ops += 2;
    }
    while black_box(q.pop()).is_some() {
        ops += 1;
    }
    ops
}

/// All-hit access storm on a warm directory (the common-case fast path).
/// Returns accesses performed.
fn dsm_hit_storm(pages: u32, accesses: u32) -> u64 {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    for i in 0..pages {
        d.ensure_page(PageId::new(i), NodeId::new(0), PageClass::Private);
    }
    for i in 0..accesses {
        black_box(d.access(NodeId::new(0), PageId::new(i % pages), Access::Read));
    }
    u64::from(accesses)
}

/// Batched sequential scan: a remote reader sweeps the whole region
/// `passes` times through [`Dsm::access_batch`]. The first pass is a
/// fault train (one directory transition per page), the rest are pure
/// hit runs resolved one aggregated pass at a time. Returns touches.
fn dsm_batch_scan(pages: u32, passes: u32) -> u64 {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    for i in 0..pages {
        d.ensure_page(PageId::new(i), NodeId::new(0), PageClass::Private);
    }
    let mut touched = 0u64;
    for _ in 0..passes {
        let out = black_box(d.access_batch(
            NodeId::new(1),
            PageId::new(0),
            pages,
            Access::Read,
            PageClass::Private,
            None,
        ));
        touched += out.hits + out.faults.len() as u64;
    }
    touched
}

/// Drains a fixed-footprint node out of a much larger directory (the
/// generation-stamp fast path). Returns pages moved.
fn dsm_drain(total: u32, owned: u32) -> u64 {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    for i in 0..owned {
        d.ensure_page(PageId::new(i), NodeId::new(1), PageClass::Private);
    }
    for i in owned..total {
        d.ensure_page(PageId::new(i), NodeId::new(0), PageClass::Private);
        if i % 16 == 0 {
            let _ = d.access(NodeId::new(2), PageId::new(i), Access::Read);
        }
    }
    let moved = black_box(d.drain_node(NodeId::new(1), NodeId::new(0)));
    assert_eq!(moved, u64::from(owned));
    moved
}

/// Write ping-pong: nodes 1 and 2 take turns writing one shared page, so
/// every access is a write fault that invalidates the other node's copy.
/// Returns writes performed.
fn dsm_write_ping_pong(rounds: u32) -> u64 {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    d.ensure_page(PageId::new(0), NodeId::new(0), PageClass::AppShared);
    for i in 0..rounds {
        black_box(d.access(NodeId::new(i % 2 + 1), PageId::new(0), Access::Write));
    }
    u64::from(rounds)
}

/// Read-share fan-out: `readers` remote nodes each read every page homed
/// on node 0, so each page's sharer set grows one node at a time. Returns
/// reads performed (`pages * readers`).
fn dsm_read_fanout(pages: u32, readers: u32) -> u64 {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    for i in 0..pages {
        d.ensure_page(PageId::new(i), NodeId::new(0), PageClass::AppShared);
    }
    for r in 1..=readers {
        for i in 0..pages {
            black_box(d.access(NodeId::new(r), PageId::new(i), Access::Read));
        }
    }
    u64::from(pages) * u64::from(readers)
}

/// First touch: node 0 writes `pages` pages the directory has never seen,
/// so every access allocates a directory entry. Returns pages touched.
fn dsm_first_touch(pages: u32) -> u64 {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    for i in 0..pages {
        black_box(d.access(NodeId::new(0), PageId::new(i), Access::Write));
    }
    u64::from(pages)
}

/// The `PsCpu` add→complete cycle of a dedicated vCPU: add one burst,
/// then deliver its completion event, `cycles` times. Returns tasks
/// completed.
fn pscpu_cycle(cycles: u32) -> u64 {
    let mut cpu = PsCpu::new(1.0);
    let mut done = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..cycles {
        let c = cpu.add(now, u64::from(i), SimTime::from_micros(10));
        now = c.at;
        cpu.on_completion_event_into(now, c.epoch, &mut done);
        black_box(&done);
    }
    done.len() as u64
}

/// `Fabric::send` of 4 KiB DSM messages around a ring of four nodes on
/// InfiniBand links, with the send clock trailing deliveries so the links
/// stay backlogged. Returns messages sent.
fn fabric_send(sends: u32) -> u64 {
    let mut f = Fabric::homogeneous(4, LinkProfile::infiniband_56g());
    let mut t = SimTime::ZERO;
    for i in 0..sends {
        let m = Message::new(
            NodeId::new(i % 4),
            NodeId::new((i + 1) % 4),
            ByteSize::kib(4),
            MsgClass::Dsm,
        );
        let d = f.send(t, m).expect("ring nodes are in range");
        t = t.max(d.deliver_at.saturating_sub(SimTime::from_micros(5)));
    }
    black_box(f.messages_sent())
}

/// Replays the FragBFF cluster study under MinFragmentation and returns
/// simulator events processed (the `exp_fragbff_scale` headline metric,
/// here at a bench-friendly scale).
fn fragbff_replay(cfg: &ScaleConfig) -> u64 {
    run_policy(cfg, POLICIES[0]).report.events_processed
}

/// A program that issues `cycles` short compute bursts and halts — the
/// leanest possible workload, so the VM dispatch cycle (VcpuStep →
/// `Program::next` → op match → pCPU charge → CpuDone) dominates.
struct DispatchLoop {
    remaining: u32,
}

impl Program for DispatchLoop {
    fn next(&mut self, _cx: &mut ProgCtx<'_>) -> Op {
        if self.remaining == 0 {
            return Op::Done;
        }
        self.remaining -= 1;
        Op::Compute(SimTime::from_nanos(500))
    }

    fn label(&self) -> &str {
        "dispatch-loop"
    }
}

/// Pure VM dispatch-cycle churn: `vcpus` vCPUs on dedicated pCPUs each
/// burn `cycles` tiny compute bursts. No DSM, no I/O, no sharing — the
/// measured rate is the per-event hypervisor dispatch overhead. Returns
/// engine events delivered.
fn vm_dispatch(vcpus: u32, cycles: u32) -> u64 {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 1);
    for i in 0..vcpus {
        b = b.vcpu(
            Placement::new(0, i),
            Box::new(DispatchLoop { remaining: cycles }),
        );
    }
    let mut sim = b.build();
    black_box(sim.run());
    sim.engine.delivered()
}

/// Runs a uniform all-to-all fleet of `shards * tenants_per_shard`
/// tenants on `jobs` worker threads and returns total engine events
/// delivered across shards. `fleet_serial` / `fleet_parallel` pairs of
/// this case give the sharded engine's wall-clock speedup, and either one
/// exercises the whole conservative window-barrier merge path.
fn fleet_run(shards: u32, tenants_per_shard: u32, rounds: u32, jobs: usize) -> u64 {
    let cfg = FleetConfig::new(shards, tenants_per_shard);
    let total = cfg.tenants();
    let specs: Vec<TenantSpec> = scenario::uniform(total)
        .into_iter()
        .map(|peer| {
            let mut s = TenantSpec::new(peer);
            s.rounds = rounds;
            s
        })
        .collect();
    let report = black_box(FleetSim::new(cfg, specs).run(jobs));
    report.events
}
