//! Micro-benchmarks for the noise-exhaustion hot path: vIOMMU
//! map/unmap against a group already holding many live windows, IOPT
//! page setup, and magic-stamp page resets on fresh and reused pages.

use hh_bench::harness::{BatchSize, Criterion};
use hh_bench::{criterion_group, criterion_main};
use hh_dram::store::SparseStore;
use hh_hv::{Host, HostConfig, IommuGroup};
use hh_sim::addr::{Hpa, Iova, HUGE_PAGE_SIZE, PAGE_SIZE};
use std::hint::black_box;

/// A group with `live` mappings spaced 2 MiB apart, as noise
/// exhaustion maps them: one IOPT page per mapping.
fn populated(live: u64) -> (Host, IommuGroup) {
    let mut host = Host::new(HostConfig::small_test());
    let mut group = IommuGroup::new();
    for i in 0..live {
        group
            .map(&mut host, Iova::new(i * HUGE_PAGE_SIZE), Hpa::new(0x5000))
            .unwrap();
    }
    (host, group)
}

/// Stamps every page of a 2 MiB store the way `Vm::stamp_region` does.
fn stamp_2mib(store: &mut SparseStore) {
    for page in 0..HUGE_PAGE_SIZE / PAGE_SIZE {
        let hpa = Hpa::new(page * PAGE_SIZE);
        store.reset_page_with_word(hpa, 0x55, 0, 0x4848_0000_0000 | page);
    }
}

fn bench_viommu_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("viommu");

    // One map and one unmap in a fresh window: allocates and frees its
    // IOPT page, next to `live` other windows.
    for (name, live) in [
        ("map_unmap_1k_live", 1 << 10),
        ("map_unmap_8k_live", 8 << 10),
    ] {
        group.bench_function(name, |b| {
            let (mut host, mut iommu) = populated(live);
            let iova = Iova::new(live * HUGE_PAGE_SIZE);
            b.iter(|| {
                iommu.map(&mut host, iova, Hpa::new(0x9000)).unwrap();
                iommu.unmap(&mut host, iova).unwrap();
            })
        });
    }

    // A zeroed IOPT page with its first entry, through the PCP.
    group.bench_function("iopt_page_setup", |b| {
        let mut host = Host::new(HostConfig::small_test());
        b.iter(|| {
            let pt = host.alloc_iopt_page(0x40, 0x9003).unwrap();
            host.free_iopt_page(black_box(pt));
        })
    });
    group.finish();

    let mut group = c.benchmark_group("store");
    group.sample_size(50);
    // Every page still shared with a fork sibling: each reset takes a
    // fresh page allocation.
    group.bench_function("magic_stamp_2mib_fresh", |b| {
        b.iter_batched_ref(
            || {
                let mut store = SparseStore::new(HUGE_PAGE_SIZE);
                stamp_2mib(&mut store);
                let sibling = store.clone();
                (store, sibling)
            },
            |(store, _sibling)| stamp_2mib(store),
            BatchSize::SmallInput,
        )
    });
    // Pages this store alone owns, stamped before: reset in place.
    group.bench_function("magic_stamp_2mib_reused", |b| {
        let mut store = SparseStore::new(HUGE_PAGE_SIZE);
        stamp_2mib(&mut store);
        b.iter(|| stamp_2mib(&mut store))
    });
    group.finish();
}

criterion_group!(benches, bench_viommu_store);
criterion_main!(benches);
