//! Drives one campaign cell stage by stage through the public calls
//! `CampaignGrid::run_cell` and `AttackDriver::run_attempt` make,
//! timing each call from outside with a host clock.
//!
//! The sequence mirrors the library's, call for call, so the resulting
//! [`CellResult`] and trace counters must equal `run_cell`'s; the
//! traced run checks that. Fault injection is off in every benchmark
//! workload, so the library's transient-fault retry wrapper never
//! retries and is not reproduced here.

use std::time::{Duration, Instant};

use hh_buddy::MigrateType;
use hh_hv::{Host, HvError, Vm};
use hh_sim::addr::{Gpa, Hpa, HUGE_PAGE_SIZE};
use hh_trace::{Stage, TraceMode, Tracer};
use hyperhammer::driver::{AttemptRecord, DriverParams, RelocatedBit};
use hyperhammer::parallel::CampaignCell;
use hyperhammer::{
    AttackDriver, AttackVariant, AttemptOutcome, BalloonSteering, CampaignStats, CellResult,
    Exploiter, FlipCatalog, JobSpec, MachineTemplate, PageSteering,
};

/// The planted witness value a successful escape must read back.
const WITNESS: u64 = 0x4b56_4d45_5343_4150;

/// A timed row of the wall-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// `MachineTemplate::instantiate`.
    TemplateInstantiate,
    /// `AttackDriver::profile_and_catalog_with`.
    Profile,
    /// `Host::create_vm` plus `Vm::destroy` (Xen: domain create and
    /// destroy).
    VmRespawn,
    /// `PageSteering::exhaust_noise`.
    ExhaustNoise,
    /// `Exploiter::stamp_magic`.
    StampMagic,
    /// `PageSteering::release_hugepages`.
    ReleaseHugepages,
    /// `PageSteering::spray_ept`.
    SprayEpt,
    /// `BalloonSteering::steer`.
    BalloonSteer,
    /// `Exploiter::run` / `Exploiter::run_gb`.
    Exploit,
}

impl Row {
    /// Every row, in attribution-table order.
    pub const ALL: [Row; 9] = [
        Row::Profile,
        Row::ExhaustNoise,
        Row::StampMagic,
        Row::ReleaseHugepages,
        Row::SprayEpt,
        Row::BalloonSteer,
        Row::Exploit,
        Row::VmRespawn,
        Row::TemplateInstantiate,
    ];

    /// The per-layer metric name of the row.
    pub fn metric(self) -> &'static str {
        match self {
            Row::TemplateInstantiate => "core.template_instantiate.ms",
            Row::Profile => "core.profile.ms",
            Row::VmRespawn => "core.vm_respawn.ms",
            Row::ExhaustNoise => "core.exhaust_noise.ms",
            Row::StampMagic => "core.stamp_magic.ms",
            Row::ReleaseHugepages => "core.release_hugepages.ms",
            Row::SprayEpt => "core.spray_ept.ms",
            Row::BalloonSteer => "core.balloon_steer.ms",
            Row::Exploit => "core.exploit.ms",
        }
    }
}

/// Host time per attribution row, plus call counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowTimes {
    time: [Duration; Row::ALL.len()],
    calls: [u64; Row::ALL.len()],
}

impl RowTimes {
    fn slot(row: Row) -> usize {
        Row::ALL
            .iter()
            .position(|&r| r == row)
            .expect("every row is listed")
    }

    /// Host time spent in `row`.
    pub fn get(&self, row: Row) -> Duration {
        self.time[Self::slot(row)]
    }

    /// Calls timed under `row`.
    pub fn calls(&self, row: Row) -> u64 {
        self.calls[Self::slot(row)]
    }

    /// Sum over every row.
    pub fn total(&self) -> Duration {
        self.time.iter().sum()
    }

    /// Adds `other` row by row.
    pub fn add(&mut self, other: &RowTimes) {
        for i in 0..self.time.len() {
            self.time[i] += other.time[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Replaces `row` with `from`'s time and calls for it.
    pub fn copy_row(&mut self, row: Row, from: &RowTimes) {
        let slot = Self::slot(row);
        self.time[slot] = from.time[slot];
        self.calls[slot] = from.calls[slot];
    }

    fn time<T>(&mut self, row: Row, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let slot = Self::slot(row);
        self.time[slot] += start.elapsed();
        self.calls[slot] += 1;
        out
    }
}

/// One cell driven stage by stage.
#[derive(Debug, Clone)]
pub struct StagedCell {
    /// The cell's result, comparable with `CampaignGrid::run_cell`.
    pub result: CellResult,
    /// Host time per row.
    pub rows: RowTimes,
    /// Host time of the whole cell, instantiate to result.
    pub wall: Duration,
}

impl StagedCell {
    /// Wall time no row accounts for: relocation, bit selection, the
    /// witness page and the timing itself.
    pub fn unattributed(&self) -> Duration {
        self.wall.saturating_sub(self.rows.total())
    }
}

/// The driver parameters `JobSpec::grid_for` gives every cell of
/// `spec`'s grid.
pub fn driver_params(spec: &JobSpec) -> DriverParams {
    DriverParams {
        bits_per_attempt: spec.bits,
        retry: spec.retry_policy(),
        ..DriverParams::paper()
    }
}

/// Runs `cell` on a host instantiated from `template`, exactly as
/// `CampaignGrid::run_cell` does, timing each public call.
///
/// # Errors
///
/// Propagates hypervisor errors.
pub fn drive_cell(
    params: &DriverParams,
    max_attempts: usize,
    cell: &CampaignCell,
    template: &MachineTemplate,
    trace: TraceMode,
) -> Result<StagedCell, HvError> {
    let start = Instant::now();
    let mut rows = RowTimes::default();
    let variant = cell.scenario.variant();
    let driver = AttackDriver::new(params.clone()).with_variant(variant);
    let mut host = rows.time(Row::TemplateInstantiate, || template.instantiate(cell.seed));
    let tracer = Tracer::new(trace);
    tracer.set_cell(cell.index);
    host.attach_tracer(tracer.clone());
    let catalog = if variant == AttackVariant::Xen {
        FlipCatalog {
            entries: Vec::new(),
            host_mem: cell.scenario.profile_params().host_mem,
        }
    } else {
        let mut vm = rows.time(Row::VmRespawn, || host.create_vm(cell.scenario.vm_config()))?;
        let catalog = rows.time(Row::Profile, || {
            driver.profile_and_catalog_with(
                &mut host,
                &mut vm,
                cell.scenario.profile_params(),
                Some(template.tables()),
            )
        });
        rows.time(Row::VmRespawn, || vm.destroy(&mut host));
        catalog?
    };
    let stages = Stages::new(params, variant);
    let stats = if variant == AttackVariant::Xen {
        xen_campaign(params, &cell.scenario, &mut host, max_attempts, &mut rows)?
    } else {
        stages.campaign(
            &driver,
            &cell.scenario,
            &mut host,
            &catalog,
            max_attempts,
            &mut rows,
        )?
    };
    let result = CellResult {
        scenario: cell.scenario.name,
        variant,
        seed: cell.seed,
        catalog_bits: catalog.entries.len(),
        stats,
        trace: tracer.take_sink(),
    };
    Ok(StagedCell {
        result,
        rows,
        wall: start.elapsed(),
    })
}

/// The stage objects `AttackDriver` builds for itself.
struct Stages {
    steering: PageSteering,
    exploiter: Exploiter,
    variant: AttackVariant,
    bits_per_attempt: usize,
}

impl Stages {
    fn new(params: &DriverParams, variant: AttackVariant) -> Self {
        Self {
            steering: PageSteering::new(params.steering.clone()).with_retry(params.retry),
            exploiter: Exploiter::new(params.exploit.clone()).with_variant(variant),
            variant,
            bits_per_attempt: params.bits_per_attempt,
        }
    }

    /// `AttackDriver::campaign` for the KVM variants.
    fn campaign(
        &self,
        driver: &AttackDriver,
        scenario: &hyperhammer::Scenario,
        host: &mut Host,
        catalog: &FlipCatalog,
        max_attempts: usize,
        rows: &mut RowTimes,
    ) -> Result<CampaignStats, HvError> {
        let witness = host
            .buddy_mut()
            .alloc_page(MigrateType::Unmovable)
            .map_err(HvError::from)?;
        host.dram_mut()
            .store_mut()
            .write_u64(witness.base_hpa(), WITNESS);
        let campaign_start = host.now();
        let mut stats = CampaignStats::default();
        for _ in 0..max_attempts {
            let respawn_start = host.now();
            let vm = rows.time(Row::VmRespawn, || host.create_vm(scenario.vm_config()))?;
            let mut record = self.attempt(driver, host, vm, catalog, witness.base_hpa(), rows)?;
            record.duration = host.elapsed_since(respawn_start);
            let success = record.outcome.is_success();
            stats.attempts.push(record);
            if success {
                break;
            }
        }
        stats.total_time = host.elapsed_since(campaign_start);
        Ok(stats)
    }

    /// `AttackDriver::run_attempt`.
    fn attempt(
        &self,
        driver: &AttackDriver,
        host: &mut Host,
        mut vm: Vm,
        catalog: &FlipCatalog,
        target_hpa: Hpa,
        rows: &mut RowTimes,
    ) -> Result<AttemptRecord, HvError> {
        let start = host.now();
        let bits = self.select_bits(driver.relocate(&vm, catalog));
        if bits.is_empty() {
            let duration = host.elapsed_since(start);
            rows.time(Row::VmRespawn, || vm.destroy(host));
            return Ok(AttemptRecord {
                outcome: AttemptOutcome::NoUsableBits,
                duration,
                bits_targeted: 0,
                released: 0,
            });
        }
        let result = self.steer_and_exploit(host, &mut vm, &bits, target_hpa, rows);
        let (outcome, released) = match result {
            Ok(pair) => pair,
            Err(e) => {
                rows.time(Row::VmRespawn, || vm.destroy(host));
                return Err(e);
            }
        };
        let duration = host.elapsed_since(start);
        rows.time(Row::VmRespawn, || vm.destroy(host));
        Ok(AttemptRecord {
            outcome,
            duration,
            bits_targeted: bits.len(),
            released,
        })
    }

    /// The driver's greedy conflict-free bit selection.
    fn select_bits(&self, candidates: Vec<RelocatedBit>) -> Vec<RelocatedBit> {
        let mut bits: Vec<RelocatedBit> = Vec::new();
        let mut victim_set: Vec<Gpa> = Vec::new();
        let mut aggressor_set: Vec<Gpa> = Vec::new();
        for bit in candidates {
            let victim_hp = bit.hugepage_base();
            let aggr_hp = bit.aggressors[0].align_down(HUGE_PAGE_SIZE);
            if aggressor_set.contains(&victim_hp) || victim_set.contains(&aggr_hp) {
                continue;
            }
            victim_set.push(victim_hp);
            aggressor_set.push(aggr_hp);
            bits.push(bit);
            if bits.len() >= self.bits_per_attempt {
                break;
            }
        }
        bits
    }

    fn steer_and_exploit(
        &self,
        host: &mut Host,
        vm: &mut Vm,
        bits: &[RelocatedBit],
        target_hpa: Hpa,
        rows: &mut RowTimes,
    ) -> Result<(AttemptOutcome, usize), HvError> {
        let victims: Vec<Gpa> = bits.iter().map(RelocatedBit::hugepage_base).collect();
        match self.variant {
            AttackVariant::Balloon => {
                rows.time(Row::StampMagic, || self.exploiter.stamp_magic(host, vm))?;
                let mut pool = balloon_pool(vm, bits);
                host.tracer().stage_start(Stage::BalloonSteer);
                let steered = rows.time(Row::BalloonSteer, || {
                    BalloonSteering::new().steer(host, vm, bits, &mut pool)
                });
                host.tracer().stage_end(Stage::BalloonSteer);
                let stats = steered?;
                let outcome = match rows.time(Row::Exploit, || {
                    self.exploiter.run(host, vm, bits, target_hpa)
                })? {
                    Ok(proof) => AttemptOutcome::Success(proof),
                    Err(failure) => AttemptOutcome::Failed(failure),
                };
                Ok((outcome, stats.pages_released as usize))
            }
            AttackVariant::GbHammer => {
                rows.time(Row::ExhaustNoise, || self.steering.exhaust_noise(host, vm))?;
                let released = self.release_and_spray(host, vm, &victims, rows)?;
                let outcome =
                    match rows.time(Row::Exploit, || self.exploiter.run_gb(host, vm, bits))? {
                        Ok(corruption) => AttemptOutcome::PteCorrupted(corruption),
                        Err(failure) => AttemptOutcome::Failed(failure),
                    };
                Ok((outcome, released))
            }
            AttackVariant::VirtioMem | AttackVariant::PtHammer | AttackVariant::Xen => {
                rows.time(Row::ExhaustNoise, || self.steering.exhaust_noise(host, vm))?;
                rows.time(Row::StampMagic, || self.exploiter.stamp_magic(host, vm))?;
                let released = self.release_and_spray(host, vm, &victims, rows)?;
                let outcome = match rows.time(Row::Exploit, || {
                    self.exploiter.run(host, vm, bits, target_hpa)
                })? {
                    Ok(proof) => AttemptOutcome::Success(proof),
                    Err(failure) => AttemptOutcome::Failed(failure),
                };
                Ok((outcome, released))
            }
        }
    }

    fn release_and_spray(
        &self,
        host: &mut Host,
        vm: &mut Vm,
        victims: &[Gpa],
        rows: &mut RowTimes,
    ) -> Result<usize, HvError> {
        let released = rows.time(Row::ReleaseHugepages, || {
            self.steering.release_hugepages(host, vm, victims)
        })?;
        rows.time(Row::SprayEpt, || {
            self.steering
                .spray_ept(host, vm, PageSteering::spray_budget(released.len()))
        })?;
        Ok(released.len())
    }
}

/// The driver's balloon spray pool: every virtio-mem hugepage except
/// the ones holding a victim cell or an aggressor pair, in region order.
fn balloon_pool(vm: &Vm, bits: &[RelocatedBit]) -> Vec<Gpa> {
    let region = vm.virtio_mem();
    let base = region.region_base();
    let reserved: Vec<Gpa> = bits
        .iter()
        .flat_map(|b| {
            [
                b.hugepage_base(),
                b.aggressors[0].align_down(HUGE_PAGE_SIZE),
            ]
        })
        .collect();
    (0..region.region_size())
        .step_by(HUGE_PAGE_SIZE as usize)
        .map(|off| base.add(off))
        .filter(|hp| !reserved.contains(hp))
        .collect()
}

/// `AttackDriver`'s Xen campaign: one p2m steering experiment per
/// attempt on a fresh domain.
fn xen_campaign(
    params: &DriverParams,
    scenario: &hyperhammer::Scenario,
    host: &mut Host,
    max_attempts: usize,
    rows: &mut RowTimes,
) -> Result<CampaignStats, HvError> {
    let mem_bytes = scenario.vm_config().total_mem().bytes();
    let blocks = params.bits_per_attempt as u64;
    let demotions = blocks * 10;
    let campaign_start = host.now();
    let mut stats = CampaignStats::default();
    for _ in 0..max_attempts {
        let attempt_start = host.now();
        let mut dom = rows.time(Row::VmRespawn, || {
            hh_hv::xen::XenDomain::create(host, mem_bytes)
        })?;
        host.tracer().stage_start(Stage::XenSteer);
        let reuse = hh_hv::xen::steering_experiment(host, &mut dom, blocks, demotions);
        host.tracer().stage_end(Stage::XenSteer);
        rows.time(Row::VmRespawn, || dom.destroy(host));
        let reuse = reuse?;
        let record = AttemptRecord {
            outcome: AttemptOutcome::Steered {
                released: reuse.released,
                p2m_pages: reuse.p2m_pages,
                reused: reuse.reused,
            },
            duration: host.elapsed_since(attempt_start),
            bits_targeted: blocks as usize,
            released: reuse.released as usize,
        };
        let success = record.outcome.is_success();
        stats.attempts.push(record);
        if success {
            break;
        }
    }
    stats.total_time = host.elapsed_since(campaign_start);
    Ok(stats)
}
