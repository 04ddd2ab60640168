//! Layer replay probes: each times one layer's public call on a host
//! instantiated from the workload's own template, at the call count
//! the traced cells made per attempt. Every probe repeats on a fresh
//! host and reports the median, so a single slow repetition cannot
//! move it.

use std::time::{Duration, Instant};

use hh_buddy::MigrateType;
use hh_dram::HammerPattern;
use hh_hv::{FaultConfig, HvError};
use hh_sim::addr::{Gpa, Hpa, Iova, HUGE_PAGE_SIZE, PAGE_SIZE};
use hyperhammer::{AttackDriver, Machine, MachineTemplate, Scenario};

use crate::stats::median;

/// Repetitions of each probe.
const REPS: usize = 5;

/// Host time per call, from the median repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Nanoseconds per call.
    pub ns_per_call: f64,
    /// Calls timed in one repetition.
    pub calls: u64,
}

fn repeat(mut once: impl FnMut() -> Result<(Duration, u64), HvError>) -> Result<Probe, HvError> {
    let mut ns = Vec::with_capacity(REPS);
    let mut calls = 0;
    for _ in 0..REPS {
        let (elapsed, n) = once()?;
        calls = n;
        ns.push(elapsed.as_nanos() as f64 / n.max(1) as f64);
    }
    Ok(Probe {
        ns_per_call: median(&ns).expect("REPS > 0"),
        calls,
    })
}

/// `Vm::iommu_map` then `Vm::iommu_unmap` of up to `want` IOVAs spaced
/// 2 MiB apart, as noise exhaustion maps them; one call is one
/// map-unmap pair.
///
/// # Errors
///
/// Propagates hypervisor errors other than the map limit.
pub fn viommu_map_unmap(
    template: &MachineTemplate,
    scenario: &Scenario,
    seed: u64,
    want: u64,
) -> Result<Probe, HvError> {
    let iova_base = scenario.steering_params().iova_base;
    repeat(|| {
        let mut host = template.instantiate(seed);
        let mut vm = host.create_vm(scenario.vm_config())?;
        let start = Instant::now();
        let mut mapped = 0;
        while mapped < want {
            let iova = Iova::new(iova_base + mapped * HUGE_PAGE_SIZE);
            match vm.iommu_map(&mut host, 0, iova, Gpa::new(0)) {
                Ok(()) => mapped += 1,
                Err(HvError::IommuMapLimit | HvError::OutOfHostMemory(_)) => break,
                Err(e) => return Err(e),
            }
        }
        for i in 0..mapped {
            vm.iommu_unmap(&mut host, 0, Iova::new(iova_base + i * HUGE_PAGE_SIZE))?;
        }
        let elapsed = start.elapsed();
        vm.destroy(&mut host);
        Ok((elapsed, mapped))
    })
}

/// `BuddyAllocator::alloc_page` then `free_page` of up to `want`
/// order-0 unmovable pages; one call is one alloc-free pair.
///
/// # Errors
///
/// Never fails; the signature matches the other probes.
pub fn buddy_alloc_free(
    template: &MachineTemplate,
    seed: u64,
    want: u64,
) -> Result<Probe, HvError> {
    repeat(|| {
        let mut host = template.instantiate(seed);
        let buddy = host.buddy_mut();
        let n = want.min(buddy.free_pages() / 2);
        let mut pages = Vec::with_capacity(n as usize);
        let start = Instant::now();
        for _ in 0..n {
            match buddy.alloc_page(MigrateType::Unmovable) {
                Ok(pfn) => pages.push(pfn),
                Err(_) => break,
            }
        }
        for &pfn in &pages {
            buddy.free_page(pfn);
        }
        Ok((start.elapsed(), pages.len() as u64))
    })
}

/// `SparseStore::write_u64` to the first word of `want` distinct pages,
/// each a first touch, as magic stamping writes them.
///
/// # Errors
///
/// Never fails; the signature matches the other probes.
pub fn store_write(template: &MachineTemplate, seed: u64, want: u64) -> Result<Probe, HvError> {
    repeat(|| {
        let mut host = template.instantiate(seed);
        let pages = want.min(host.dram().geometry().size_bytes() / PAGE_SIZE);
        let store = host.dram_mut().store_mut();
        let start = Instant::now();
        for i in 0..pages {
            store.write_u64(Hpa::new(i * PAGE_SIZE), std::hint::black_box(i));
        }
        Ok((start.elapsed(), pages))
    })
}

/// `DramDevice::hammer` of double-sided patterns at the scenario's
/// profiling round count: `cold` hammers `want` distinct patterns, each
/// compiling its plan; `warm` hammers one pre-compiled pattern `want`
/// times.
///
/// # Errors
///
/// Never fails; the signature matches the other probes.
pub fn dram_hammer(
    template: &MachineTemplate,
    scenario: &Scenario,
    seed: u64,
    want: u64,
) -> Result<(Probe, Probe), HvError> {
    let rounds = scenario.profile_params().hammer_rounds;
    let cold = repeat(|| {
        let mut host = template.instantiate(seed);
        let dram = host.dram_mut();
        let geometry = dram.geometry().clone();
        let rows = geometry.row_count();
        let banks = u64::from(geometry.bank_count());
        let patterns: Vec<HammerPattern> = (0..want)
            .map(|i| {
                let bank = (i % banks) as u32;
                let row = 1 + (3 * (i / banks)) % (rows - 2);
                HammerPattern::double_sided_for(&geometry, bank, row)
            })
            .collect();
        let start = Instant::now();
        for p in &patterns {
            std::hint::black_box(dram.hammer(p, rounds));
        }
        Ok((start.elapsed(), want))
    })?;
    let warm = repeat(|| {
        let mut host = template.instantiate(seed);
        let dram = host.dram_mut();
        let pattern = HammerPattern::double_sided_for(&dram.geometry().clone(), 0, 1);
        dram.warm_plan(&pattern);
        let start = Instant::now();
        for _ in 0..want {
            std::hint::black_box(dram.hammer(&pattern, rounds));
        }
        Ok((start.elapsed(), want))
    })?;
    Ok((cold, warm))
}

/// The EPT split `Vm::exec_gpa` triggers on a 2 MiB mapping, over up to
/// `want` of the VM's hugepages; one call is one split.
///
/// # Errors
///
/// Propagates hypervisor errors.
pub fn ept_split(
    template: &MachineTemplate,
    scenario: &Scenario,
    seed: u64,
    want: u64,
) -> Result<Probe, HvError> {
    repeat(|| {
        let mut host = template.instantiate(seed);
        let mut vm = host.create_vm(scenario.vm_config())?;
        let hugepages: Vec<Gpa> = vm
            .usable_ranges()
            .into_iter()
            .flat_map(|(base, len)| {
                (0..len)
                    .step_by(HUGE_PAGE_SIZE as usize)
                    .map(move |o| base.add(o))
            })
            .take(want as usize)
            .collect();
        let start = Instant::now();
        let mut splits = 0;
        for hp in hugepages {
            match vm.exec_gpa(&mut host, hp) {
                Ok(split) => splits += u64::from(split),
                Err(HvError::OutOfHostMemory(_)) => break,
                Err(e) => return Err(e),
            }
        }
        let elapsed = start.elapsed();
        vm.destroy(&mut host);
        Ok((elapsed, splits))
    })
}

/// Median host times of the machine snapshot calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotTimes {
    /// `Machine::snapshot`.
    pub encode_ms: f64,
    /// `Machine::restore`.
    pub restore_ms: f64,
    /// `Machine::fork`.
    pub fork_ms: f64,
    /// Encoded snapshot size.
    pub bytes: usize,
}

/// Times `Machine::snapshot`, `Machine::restore` and `Machine::fork` on
/// a `tiny` machine booted with `seed` and profiled once, so the
/// snapshot carries a flip catalogue and a populated store.
///
/// # Errors
///
/// Boot, profiling or restore failed, or a restored machine differs.
pub fn snapshot_times(
    seed: u64,
    params: &hyperhammer::driver::DriverParams,
) -> Result<SnapshotTimes, String> {
    let mut machine = Machine::boot("tiny", seed, FaultConfig::default())?;
    let scenario = machine.scenario().clone();
    let driver = AttackDriver::new(params.clone());
    let host = machine.host_mut();
    let mut vm = host
        .create_vm(scenario.vm_config())
        .map_err(|e| e.to_string())?;
    let catalog = driver.profile_and_catalog(host, &mut vm, scenario.profile_params());
    vm.destroy(host);
    machine.set_catalog(catalog.map_err(|e| e.to_string())?);

    let time_ms = |f: &mut dyn FnMut()| {
        let mut ms = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let start = Instant::now();
            f();
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        median(&ms).expect("REPS > 0")
    };
    let mut bytes = Vec::new();
    let encode_ms = time_ms(&mut || bytes = std::hint::black_box(machine.snapshot()));
    let mut restored = Ok(None);
    let restore_ms = time_ms(&mut || restored = Machine::restore(&bytes).map(Some));
    let restored = restored.map_err(|e| e.to_string())?.expect("restore ran");
    if restored.digest() != machine.digest() {
        return Err("restored machine differs from the snapshotted one".into());
    }
    let mut fork = None;
    let fork_ms = time_ms(&mut || fork = Some(std::hint::black_box(machine.fork())));
    if fork.map(|f| f.digest()) != Some(machine.digest()) {
        return Err("forked machine differs from its parent".into());
    }
    Ok(SnapshotTimes {
        encode_ms,
        restore_ms,
        fork_ms,
        bytes: bytes.len(),
    })
}
