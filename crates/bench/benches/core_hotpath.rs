//! Microbenchmarks of the simulator core's hot paths: event-queue churn,
//! the DSM directory fast and slow paths (hit storm, batched scan,
//! read-share fan-out, write ping-pong, node drain) and a FragBFF cluster
//! replay. These are the loops every figure experiment runs millions of
//! times, so their throughput bounds the simulator's own speed.
//!
//! The shared workload bodies live in `bench_harness::experiments`
//! (`corebench`), so this bench, the `core_bench` binary behind
//! `BENCH_CORE.json`, and the CI gate all run identical shapes.
//!
//! The drain benchmarks grow the *non-owned* part of the directory 10x
//! while the drained node's footprint stays fixed: with the per-node owned
//! index and generation stamps, drain time must stay flat (O(pages owned
//! by the drained node)), not scale with directory size.
//!
//! Set `CORE_SMOKE=1` to run a single tiny iteration of each case
//! (the CI smoke mode; numbers are meaningless but the harness is proven).

use bench_harness::experiments::{
    dsm_batch_scan, dsm_hit_storm, fragbff_replay, queue_churn, CoreSizes,
};
use comm::NodeId;
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dsm::{Access, Dsm, DsmConfig, PageClass, PageId};

fn smoke() -> bool {
    std::env::var_os("CORE_SMOKE").is_some()
}

fn sizes() -> CoreSizes {
    if smoke() {
        CoreSizes::smoke()
    } else {
        CoreSizes::full()
    }
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn p(i: u32) -> PageId {
    PageId::new(i)
}

fn queue(c: &mut Criterion) {
    let s = sizes();
    let mut g = c.benchmark_group("core_hotpath");
    g.throughput(Throughput::Elements(
        (s.queue_occupancy * 2 + s.queue_churn * 2) as u64,
    ));
    g.bench_function("queue_churn_heap", |b| {
        b.iter(|| black_box(queue_churn(s.queue_occupancy, s.queue_churn)))
    });
    g.finish();
}

fn hit_storm(c: &mut Criterion) {
    let s = sizes();
    let mut g = c.benchmark_group("core_hotpath");
    g.throughput(Throughput::Elements(u64::from(s.storm_accesses)));
    g.bench_function("hit_storm", |b| {
        b.iter(|| black_box(dsm_hit_storm(s.storm_pages, s.storm_accesses)))
    });
    g.finish();
}

fn batch_scan(c: &mut Criterion) {
    let s = sizes();
    let mut g = c.benchmark_group("core_hotpath");
    g.throughput(Throughput::Elements(
        u64::from(s.scan_pages) * u64::from(s.scan_passes),
    ));
    g.bench_function("batch_scan", |b| {
        b.iter(|| black_box(dsm_batch_scan(s.scan_pages, s.scan_passes)))
    });
    g.finish();
}

fn read_share_fanout(c: &mut Criterion) {
    let (pages, readers) = if smoke() { (64u32, 3u32) } else { (2048, 7) };
    let mut g = c.benchmark_group("core_hotpath");
    g.throughput(Throughput::Elements(pages as u64 * readers as u64));
    g.bench_function("read_share_fanout", |b| {
        b.iter_batched(
            || {
                let mut d = Dsm::new(DsmConfig::fragvisor());
                for i in 0..pages {
                    d.ensure_page(p(i), n(0), PageClass::AppShared);
                }
                d
            },
            |mut d| {
                for r in 1..=readers {
                    for i in 0..pages {
                        black_box(d.access(n(r), p(i), Access::Read));
                    }
                }
                d
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn write_ping_pong(c: &mut Criterion) {
    let rounds = if smoke() { 256 } else { 16_384u32 };
    let mut d = Dsm::new(DsmConfig::fragvisor());
    d.ensure_page(p(0), n(0), PageClass::AppShared);
    let mut g = c.benchmark_group("core_hotpath");
    g.throughput(Throughput::Elements(rounds as u64));
    g.bench_function("write_ping_pong", |b| {
        b.iter(|| {
            for i in 0..rounds {
                black_box(d.access(n(i % 2 + 1), p(0), Access::Write));
            }
        })
    });
    g.finish();
}

/// A directory with `total` pages: the first `owned` homed on node 1, the
/// rest on node 0. Node 2 shares every 16th of node 0's pages so drain
/// also exercises the shared-copy drop path. (Same shape as
/// [`dsm_drain`], but split so only the drain itself is timed.)
fn directory(total: u32, owned: u32) -> Dsm {
    let mut d = Dsm::new(DsmConfig::fragvisor());
    for i in 0..owned {
        d.ensure_page(p(i), n(1), PageClass::Private);
    }
    for i in owned..total {
        d.ensure_page(p(i), n(0), PageClass::Private);
        if i % 16 == 0 {
            let _ = d.access(n(2), p(i), Access::Read);
        }
    }
    d
}

fn drain(c: &mut Criterion) {
    // The drained node's footprint is fixed; the directory grows 10x.
    let (owned, sizes): (u32, [u32; 2]) = if smoke() {
        (64, [256, 2560])
    } else {
        (4096, [20_480, 204_800])
    };
    for total in sizes {
        let mut g = c.benchmark_group("core_hotpath");
        g.throughput(Throughput::Elements(owned as u64));
        g.sample_size(if smoke() { 1 } else { 10 });
        g.bench_function(&format!("drain_{owned}_of_{total}"), |b| {
            b.iter_batched(
                || directory(total, owned),
                |mut d| {
                    let moved = d.drain_node(n(1), n(0));
                    assert_eq!(moved, owned as u64);
                    d
                },
                BatchSize::LargeInput,
            )
        });
        g.finish();
    }
}

fn fragbff(c: &mut Criterion) {
    let s = sizes();
    let mut g = c.benchmark_group("core_hotpath");
    g.sample_size(if smoke() { 1 } else { 10 });
    g.bench_function("fragbff_replay", |b| {
        b.iter(|| black_box(fragbff_replay(&s.fragbff)))
    });
    g.finish();
}

criterion_group! {
    name = core_hotpath;
    config = Criterion::default().sample_size(if smoke() { 1 } else { 20 });
    targets = queue, hit_storm, batch_scan, read_share_fanout, write_ping_pong, drain, fragbff
}
criterion_main!(core_hotpath);
