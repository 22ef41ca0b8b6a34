//! Benchmarks of PRESS's cooperative-caching data structures and the
//! workload generator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use press::cache::{Directory, LruCache};
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

criterion_group!(benches, lru_ops, directory_ops, zipf_sampling);
criterion_main!(benches);
