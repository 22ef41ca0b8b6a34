//! Benchmarks of PRESS's cooperative-caching data structures and the
//! workload generator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use press::cache::{DigestLog, Directory, LruCache};
use simnet::fabric::NodeId;
use simnet::SimRng;
use std::hint::black_box;
use workload::Zipf;

fn lru_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert_churn_16k", |b| {
        let mut cache = LruCache::new(16_384);
        for f in 0..16_384 {
            cache.insert(f);
        }
        let mut f = 16_384u32;
        b.iter(|| {
            f = f.wrapping_add(1) % 60_000;
            black_box(cache.insert(f))
        })
    });
    group.bench_function("touch_hot", |b| {
        let mut cache = LruCache::new(16_384);
        for f in 0..16_384 {
            cache.insert(f);
        }
        let mut f = 0u32;
        b.iter(|| {
            f = (f + 37) % 16_384;
            black_box(cache.touch(f))
        })
    });
    group.finish();
}

fn directory_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("directory");
    group.bench_function("add_remove", |b| {
        let mut d = Directory::new(60_000);
        let mut f = 0u32;
        b.iter(|| {
            f = (f + 101) % 60_000;
            d.add(f, NodeId((f % 4) as usize));
            d.remove(f, NodeId((f % 4) as usize));
        })
    });
    // Every file already has three holders, so each add spills the slot
    // to the side map and each remove moves it back inline.
    group.bench_function("add_remove_spill", |b| {
        let mut d = Directory::new(60_000);
        for f in 0..60_000 {
            for n in 0..3 {
                d.add(f, NodeId(n));
            }
        }
        let mut f = 0u32;
        b.iter(|| {
            f = (f + 101) % 60_000;
            d.add(f, NodeId(3 + (f % 4) as usize));
            d.remove(f, NodeId(3 + (f % 4) as usize));
        })
    });
    group.bench_function("drop_node_60k_files", |b| {
        b.iter_batched(
            || {
                let mut d = Directory::new(60_000);
                for f in 0..60_000 {
                    d.add(f, NodeId((f % 4) as usize));
                }
                d
            },
            |mut d| {
                d.drop_node(NodeId(3));
                black_box(d.entries())
            },
            BatchSize::SmallInput,
        )
    });
    // The `scale64` workload's size: 96,000 files over 64 nodes, one to
    // four holders per file, so a quarter of the files are spilled.
    group.bench_function("drop_node_96k_files_64_nodes", |b| {
        b.iter_batched(
            || {
                let mut d = Directory::new(96_000);
                for f in 0..96_000u32 {
                    for k in 0..=f % 4 {
                        d.add(f, NodeId(((f + k) % 64) as usize));
                    }
                }
                d
            },
            |mut d| {
                d.drop_node(NodeId(3));
                black_box(d.entries())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One `scale64` digest period per iteration: 32 caching deltas, then
/// flushes to the next 2 of 64 peers round-robin and a collection at
/// the slowest peer's watermark. Each peer's turn comes every 32
/// periods, so the log holds about 1,000 deltas.
fn digest_ops(c: &mut Criterion) {
    const PEERS: usize = 64;
    let mut group = c.benchmark_group("digest");
    group.bench_function("flush_1k", |b| {
        let mut log = DigestLog::default();
        let mut seen = [0u64; PEERS];
        let (mut k, mut cursor) = (0u32, 0);
        let mut period = move || {
            // Files from a multiplicative hash over 2,048 ids, so some
            // deltas coalesce with older ones still in the log.
            for _ in 0..32 {
                k = k.wrapping_add(1);
                let file = (k.wrapping_mul(0x9E37_79B9) >> 20) % 2_048;
                log.record(file, file % 3 != 0);
            }
            let mut sent = 0;
            for _ in 0..2 {
                cursor = (cursor + 1) % PEERS;
                let (adds, evicts) = log.unsent_since(seen[cursor]);
                sent += adds.len() + evicts.len();
                seen[cursor] = log.gen();
            }
            log.gc(*seen.iter().min().expect("peers"));
            sent
        };
        // Two rounds of every peer fill the log to its steady size.
        for _ in 0..PEERS {
            period();
        }
        b.iter(|| black_box(period()))
    });
    group.finish();
}

fn zipf_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf");
    group.throughput(Throughput::Elements(1));
    for n in [6_000u32, 60_000] {
        group.bench_function(format!("sample_{n}"), |b| {
            let z = Zipf::new(n, 0.8);
            let mut rng = SimRng::seed_from(1);
            b.iter(|| black_box(z.sample(&mut rng)))
        });
    }
    group.finish();
}

criterion_group!(benches, lru_ops, directory_ops, digest_ops, zipf_sampling);
criterion_main!(benches);
