//! Property-based tests on hypervisor invariants, driven by the
//! deterministic `hh_sim::check` harness.

use hh_hv::ept::MappingLevel;
use hh_hv::{Host, HostConfig, VmConfig};
use hh_sim::addr::{Gpa, HUGE_PAGE_SIZE, PAGE_SIZE};
use hh_sim::check;

fn small_setup() -> (Host, hh_hv::Vm) {
    let mut host = Host::new(HostConfig::small_test());
    let vm = host.create_vm(VmConfig::small_test()).unwrap();
    (host, vm)
}

const CASES: usize = 32;

/// Translation agrees with the hypercall for every mapped address —
/// until corruption, the EPT walk and hypervisor bookkeeping are two
/// views of one truth.
#[test]
fn translate_matches_hypercall() {
    check::cases(0x4a01, CASES, |rng| {
        let off = rng.gen_range(0u64..36 << 20);
        let (host, vm) = small_setup();
        let gpa = Gpa::new(off);
        let walked = vm.translate_gpa(&host, gpa).unwrap().hpa;
        let hypercall = vm.hypercall_gpa_to_hpa(gpa).unwrap();
        assert_eq!(walked, hypercall);
    });
}

/// Splitting a hugepage never changes any translation in its window.
#[test]
fn split_is_translation_invariant() {
    check::cases(0x4a02, CASES, |rng| {
        let chunk = rng.gen_range(0u64..18);
        let probes: Vec<u64> = (0..8)
            .map(|_| rng.gen_range(0u64..HUGE_PAGE_SIZE))
            .collect();
        let (mut host, mut vm) = small_setup();
        let base = Gpa::new(chunk * HUGE_PAGE_SIZE);
        let before: Vec<_> = probes
            .iter()
            .map(|&p| vm.translate_gpa(&host, base.add(p)).unwrap().hpa)
            .collect();
        vm.exec_gpa(&mut host, base).unwrap();
        for (i, &p) in probes.iter().enumerate() {
            let t = vm.translate_gpa(&host, base.add(p)).unwrap();
            assert_eq!(t.hpa, before[i]);
            assert_eq!(t.level, MappingLevel::Page4K);
        }
    });
}

/// Unplug/plug cycles conserve host free pages exactly, whatever the
/// order of operations.
#[test]
fn virtio_mem_cycles_conserve_memory() {
    check::cases(0x4a03, CASES, |rng| {
        let ops = check::vec_of(rng, 1, 40, |r| (r.gen_range(0u64..16), r.gen_bool(0.5)));
        let (mut host, mut vm) = small_setup();
        let free_at_start = host.buddy().free_pages();
        let region = vm.virtio_mem().region_base();
        for (block, plug) in ops {
            let gpa = region.add(block * HUGE_PAGE_SIZE);
            if plug {
                let _ = vm.virtio_mem_plug(&mut host, gpa);
            } else {
                let _ = vm.virtio_mem_unplug(&mut host, gpa);
            }
        }
        // Re-plug everything, then free pages must match the start.
        vm.virtio_mem_set_requested(vm.virtio_mem().region_size());
        vm.virtio_mem_sync_to_target(&mut host).unwrap();
        assert_eq!(host.buddy().free_pages(), free_at_start);
        vm.destroy(&mut host);
    });
}

/// Released sub-blocks are always logged with exactly 512 consecutive
/// frames starting at an order-9-aligned frame.
#[test]
fn released_blocks_are_aligned_order9() {
    check::cases(0x4a04, 16, |rng| {
        let block = rng.gen_range(0u64..16);
        let (mut host, mut vm) = small_setup();
        let gpa = vm.virtio_mem().region_base().add(block * HUGE_PAGE_SIZE);
        vm.virtio_mem_unplug(&mut host, gpa).unwrap();
        let log = host.released_log();
        assert_eq!(log.len(), 512);
        assert_eq!(log[0].index() % 512, 0);
        for (i, pfn) in log.iter().enumerate() {
            assert_eq!(pfn.index(), log[0].index() + i as u64);
        }
    });
}

/// Balloon inflate/deflate round-trips preserve both translations and
/// free-page accounting.
#[test]
fn balloon_roundtrip() {
    check::cases(0x4a05, CASES, |rng| {
        let mut pages = std::collections::BTreeSet::new();
        let want = rng.gen_range(1usize..12);
        while pages.len() < want {
            pages.insert(rng.gen_range(0u64..1024));
        }
        let (mut host, mut vm) = small_setup();
        let _free_at_start = host.buddy().free_pages();
        let targets: Vec<Gpa> = pages.iter().map(|&p| Gpa::new(p * PAGE_SIZE)).collect();
        for &gpa in &targets {
            vm.balloon_inflate(&mut host, gpa).unwrap();
            assert!(vm.translate_gpa(&host, gpa).is_err());
        }
        for &gpa in &targets {
            vm.balloon_deflate(&mut host, gpa).unwrap();
            assert!(vm.translate_gpa(&host, gpa).is_ok());
        }
        // Inflation freed pages net of EPT pages allocated by splits;
        // deflation re-allocated them: the *guest-visible* state is
        // consistent and the balloon is empty.
        assert_eq!(vm.balloon().inflated_pages(), 0);
        vm.destroy(&mut host);
        assert_eq!(
            host.buddy().free_pages(),
            host.buddy().total_frames() - {
                // Boot noise stays allocated; recompute from a fresh host.
                let fresh = Host::new(HostConfig::small_test());
                fresh.buddy().total_frames() - fresh.buddy().free_pages()
            }
        );
    });
}

/// vIOMMU map/unmap sequences never leak IOPT pages.
#[test]
fn viommu_no_leaks() {
    check::cases(0x4a06, CASES, |rng| {
        let windows = check::vec_of(rng, 1, 32, |r| r.gen_range(0u64..64));
        let (mut host, mut vm) = small_setup();
        let free_before = host.buddy().free_pages();
        let mut mapped = Vec::new();
        for w in windows {
            let iova = hh_sim::Iova::new(w * HUGE_PAGE_SIZE);
            if vm.iommu_map(&mut host, 0, iova, Gpa::new(0)).is_ok() {
                mapped.push(iova);
            }
        }
        for iova in mapped {
            vm.iommu_unmap(&mut host, 0, iova).unwrap();
        }
        assert_eq!(host.buddy().free_pages(), free_before);
    });
}

/// Random map/unmap/destroy sequences on one IOMMU group, against a
/// model of its live mappings: one IOPT page per window with a live
/// mapping, every entry of every IOPT page in DRAM agrees with
/// `translate`, and `destroy` gives every page back, in window order.
#[test]
fn viommu_windows_track_live_mappings() {
    use hh_buddy::MigrateType;
    use hh_hv::{HvError, IommuGroup};
    use hh_sim::addr::{Hpa, Iova};
    use std::collections::btree_map::{BTreeMap, Entry};

    check::cases(0x4a10, CASES, |rng| {
        let mut host = Host::new(HostConfig::small_test());
        let free_at_start = host.buddy().free_pages();
        let mut group = IommuGroup::new();
        // IOVA page index → HPA; windows are spread far apart so their
        // indices are sparse, as the attack's 2 MiB-strided IOVAs are.
        let mut model: BTreeMap<u64, Hpa> = BTreeMap::new();
        let windows: Vec<u64> = (0..6).map(|_| rng.gen_range(0u64..1 << 20)).collect();
        let per_window = HUGE_PAGE_SIZE / PAGE_SIZE;
        for _ in 0..rng.gen_range(1u64..120) {
            let window = windows[rng.gen_range(0..windows.len() as u64) as usize];
            let page = window * per_window + rng.gen_range(0u64..8);
            let iova = Iova::new(page * PAGE_SIZE);
            match rng.gen_range(0u32..20) {
                0..=10 => {
                    let hpa = Hpa::new(rng.gen_range(0u64..(256 << 20) / PAGE_SIZE) * PAGE_SIZE);
                    let got = group.map(&mut host, iova, hpa);
                    match model.entry(page) {
                        Entry::Occupied(_) => {
                            assert_eq!(got, Err(HvError::IovaAlreadyMapped(iova)));
                        }
                        Entry::Vacant(e) => {
                            got.unwrap();
                            e.insert(hpa);
                        }
                    }
                }
                11..=18 => {
                    let got = group.unmap(&mut host, iova);
                    if model.remove(&page).is_some() {
                        got.unwrap();
                    } else {
                        assert_eq!(got, Err(HvError::IovaNotMapped(iova)));
                    }
                }
                _ => {
                    group.destroy(&mut host);
                    model.clear();
                    assert_eq!(host.buddy().free_pages(), free_at_start);
                }
            }
            let live: std::collections::BTreeSet<u64> =
                model.keys().map(|p| p / per_window).collect();
            assert_eq!(group.iopt_page_count(), live.len());
            assert_eq!(group.mapping_count(), model.len());
            for &window in &live {
                let base = Iova::new(window * HUGE_PAGE_SIZE);
                let pt = group.iopt_page(base).expect("live window has a page");
                for slot in 0..per_window {
                    let iova = base.add(slot * PAGE_SIZE);
                    let raw = host.dram().store().read_u64(pt.base_hpa().add(slot * 8));
                    let want = group.translate(iova).map_or(0, |hpa| hpa.raw() | 0b11);
                    assert_eq!(raw, want, "IOPT entry for {iova:?}");
                }
            }
        }

        // Teardown frees in window order: the PCP lane is LIFO, so the
        // pages come back out in reverse window order.
        let pts: Vec<_> = model
            .keys()
            .map(|p| p / per_window)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|w| group.iopt_page(Iova::new(w * HUGE_PAGE_SIZE)).unwrap())
            .collect();
        let lane = host.buddy().pagetypeinfo().pcp_pages[0];
        assert!(
            lane + pts.len() as u64 <= 512,
            "no PCP drain during teardown"
        );
        group.destroy(&mut host);
        assert_eq!(host.buddy().free_pages(), free_at_start);
        assert_eq!(group.iopt_page_count(), 0);
        for &pt in pts.iter().rev() {
            assert_eq!(host.buddy_mut().alloc_page(MigrateType::Unmovable), Ok(pt));
        }
    });
}
