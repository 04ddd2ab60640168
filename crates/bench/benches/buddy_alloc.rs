//! Micro-benchmarks for the buddy allocator — the substrate
//! whose behaviour Page Steering manipulates.

use hh_bench::harness::{BatchSize, Criterion};
use hh_bench::{criterion_group, criterion_main};
use hh_buddy::{BuddyAllocator, MigrateType, PcpConfig};

fn frames(mib: u64) -> u64 {
    mib << 20 >> 12
}

fn bench_alloc_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("buddy");

    group.bench_function("alloc_free_order0_movable", |b| {
        b.iter_batched_ref(
            || BuddyAllocator::new(frames(64)),
            |buddy| {
                let p = buddy.alloc(0, MigrateType::Movable).unwrap();
                buddy.free(p, 0);
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("alloc_free_order9_pinned", |b| {
        b.iter_batched_ref(
            || BuddyAllocator::new(frames(64)),
            |buddy| {
                let p = buddy.alloc(9, MigrateType::Movable).unwrap();
                buddy.set_migrate_type(p, 9, MigrateType::Unmovable);
                buddy.free(p, 9);
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("pcp_hit_path", |b| {
        let mut buddy = BuddyAllocator::with_pcp(frames(64), PcpConfig::standard());
        // Warm the cache.
        let p = buddy.alloc_page(MigrateType::Unmovable).unwrap();
        buddy.free_page(p);
        b.iter(|| {
            let p = buddy.alloc_page(MigrateType::Unmovable).unwrap();
            buddy.free_page(p);
        })
    });

    group.bench_function("steal_path_first_unmovable", |b| {
        b.iter_batched_ref(
            || BuddyAllocator::new(frames(64)),
            |buddy| {
                // First unmovable alloc on a movable-only zone: steal.
                let p = buddy.alloc(0, MigrateType::Unmovable).unwrap();
                buddy.free(p, 0);
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("fragmentation_churn_1k", |b| {
        b.iter_batched_ref(
            || BuddyAllocator::new(frames(64)),
            |buddy| {
                let mut held = Vec::with_capacity(1000);
                for i in 0..1000u64 {
                    let order = (i % 4) as u8;
                    held.push((buddy.alloc(order, MigrateType::Unmovable).unwrap(), order));
                }
                for (p, order) in held {
                    buddy.free(p, order);
                }
            },
            BatchSize::SmallInput,
        )
    });

    // The Page Steering drain and VM teardown shape: take every page of
    // a `tiny`-sized zone one by one through the PCP, then give each
    // back. Almost every allocation splits and almost every free merges.
    group.bench_function("drain_teardown_512mib", |b| {
        b.iter_batched_ref(
            || {
                let buddy = BuddyAllocator::with_pcp(frames(512), PcpConfig::standard());
                let held = Vec::with_capacity(frames(512) as usize);
                (buddy, held)
            },
            |(buddy, held)| {
                while let Ok(p) = buddy.alloc_page(MigrateType::Unmovable) {
                    held.push(p);
                }
                for p in held.drain(..) {
                    buddy.free_page(p);
                }
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_alloc_free);
criterion_main!(benches);
