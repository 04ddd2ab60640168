//! Deterministic parallel campaign engine.
//!
//! Table 3 and the §5.3.2 ablation sweeps repeat full attack campaigns —
//! profile, steer, hammer, escape — over a grid of (scenario ×
//! experiment-seed) cells. The cells are independent by construction:
//! each owns a freshly-booted [`Host`](hh_hv::Host) whose every RNG
//! stream descends from the cell's own seed, so running them on worker
//! threads changes wall-clock time and nothing else.
//!
//! Every grid run goes through one method, [`CampaignGrid::stream`]:
//!
//! * [`RunOpts`] says how to run — the worker count, optional
//!   caller-owned per-scenario templates (the campaign server keeps them
//!   warm across jobs), an optional [`CancelToken`] and an optional
//!   `skip(index)` predicate (checkpoint resume).
//! * Each worker folds the cells it finishes into its own
//!   [`CellConsumer`], in that worker's scheduling order, so a run holds
//!   O(workers) state. Consumers spill shards
//!   ([`streamref`](crate::streamref)), append to a
//!   [`CellLog`](crate::CellLog), publish lines, or simply collect.
//! * [`CampaignGrid::run`] is the collecting consumer: it scatters every
//!   result into grid order, so in-memory and streamed output come from
//!   the same path. [`CampaignGrid::run_serial`] stays a plain loop — the
//!   independent reference the tests compare against.
//!
//! Two properties make the engine *deterministic*, not merely parallel:
//!
//! 1. **Seed splitting.** Cell seeds come from
//!    [`SimRng::split_seed`]`(base, index)` — a pure function of the grid's
//!    base seed and the cell's position, never of worker count or
//!    scheduling order.
//! 2. **Indexed results.** Every cell reaches its consumer with its grid
//!    index, and every failure and panic is reported by lowest grid
//!    index, so a 1-worker run and an 8-worker run of the same grid
//!    produce bit-identical [`CampaignStats`].
//!
//! Scheduling is *work-stealing*: every worker starts with its own
//! deque of index chunks and, once drained, steals whole chunks from
//! the back of its neighbours' deques. Stragglers (a cell whose
//! campaign runs long) therefore never serialize the tail of the grid
//! the way a static split would, and *which worker* runs a cell never
//! influences *what the cell computes*. One worker runs inline on the
//! calling thread. [`parallel_map`], the general fan-out the benchmark
//! harness's sweeps use, shares the same scheduler.
//!
//! [`RunOpts::new`] and [`parallel_map`] clamp the worker count to the
//! machine's available parallelism: more workers than CPUs only adds
//! contention (on a 1-CPU host it made 4-worker runs ~24 % *slower*
//! than serial), and because results are scheduling-independent the
//! clamp is unobservable in the output. Tests that must exercise
//! cross-thread scheduling on any machine set [`RunOpts::jobs`]
//! directly.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hh_hv::{FaultConfig, HvError};
use hh_sim::rng::SimRng;
use hh_trace::{TraceMode, TraceSink, Tracer};

use crate::driver::{AttackDriver, CampaignStats, DriverParams};
use crate::machine::{AttackVariant, Scenario};
use crate::profile::FlipCatalog;
use crate::steering::{with_retries, RetryPolicy};
use crate::template::MachineTemplate;

/// The machine's available parallelism (1 when it cannot be queried).
fn available_cpus() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Clamps a worker count to [`available_cpus`]; results never depend on
/// the width, so the clamp only removes contention.
fn clamp_to_cpus(jobs: NonZeroUsize) -> NonZeroUsize {
    jobs.min(available_cpus())
}

/// Resolves a `--jobs`-style request: `None` means "use all available
/// parallelism", and a request is clamped to at least one worker.
pub fn resolve_jobs(requested: Option<usize>) -> NonZeroUsize {
    requested.map_or_else(available_cpus, |n| {
        NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero")
    })
}

/// Applies `f` to every item on up to `jobs` scoped workers, returning
/// results in input order.
///
/// The effective worker count is clamped to the machine's available
/// parallelism (and to the item count); see the [module docs](self).
/// `f` must itself be deterministic per item for the full determinism
/// guarantee to hold; the campaign engine arranges that by deriving
/// every cell's RNG from its own seed.
///
/// # Panics
///
/// Propagates the input-order-first panic from `f` once all workers
/// have stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: NonZeroUsize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_on_workers(items, clamp_to_cpus(jobs).get(), f)
}

/// [`parallel_map`] on exactly `min(workers, items)` workers.
fn map_on_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let parts = schedule(
        n,
        workers,
        |_| Vec::new(),
        |out, i| {
            let item = tasks[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("each task index is claimed exactly once");
            out.push((i, f(i, item)));
        },
    );
    in_index_order(n, parts.into_iter().flatten())
}

/// Scatters `(index, value)` pairs that cover `0..n` once each into
/// index order.
fn in_index_order<R>(n: usize, pairs: impl IntoIterator<Item = (usize, R)>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, value) in pairs {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is delivered exactly once"))
        .collect()
}

/// Chunk granularity: a few chunks per worker so early finishers have
/// something to steal, but no smaller than one item.
fn chunk_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers * 4).max(1)
}

/// Per-worker chunk deques with work stealing: a worker pops its own
/// deque from the front (oldest chunk first) and steals from victims'
/// backs, so an owner and a thief never contend for the same end until
/// a deque is nearly empty. Chunks are only ever *removed*, so a full
/// empty scan means the grid is done.
struct ChunkQueues {
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
}

impl ChunkQueues {
    /// Deals contiguous index chunks round-robin onto `workers` deques.
    fn deal(n: usize, workers: usize) -> Self {
        let chunk = chunk_len(n, workers);
        let mut deques: Vec<VecDeque<Range<usize>>> =
            (0..workers).map(|_| VecDeque::new()).collect();
        let mut start = 0;
        let mut next_worker = 0;
        while start < n {
            let end = (start + chunk).min(n);
            deques[next_worker].push_back(start..end);
            next_worker = (next_worker + 1) % workers;
            start = end;
        }
        Self {
            queues: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Claims the next chunk for worker `me`: own deque first, then a
    /// fixed-ring scan of the victims.
    fn claim(&self, me: usize) -> Option<Range<usize>> {
        let workers = self.queues.len();
        if let Some(range) = self.queues[me].lock().expect("queue poisoned").pop_front() {
            return Some(range);
        }
        for offset in 1..workers {
            let victim = (me + offset) % workers;
            if let Some(range) = self.queues[victim]
                .lock()
                .expect("queue poisoned")
                .pop_back()
            {
                return Some(range);
            }
        }
        None
    }
}

/// Keeps the value recorded at the lowest grid index across workers —
/// exactly what a serial run would have hit first, whatever the
/// scheduling. Holds the run's first panic payload and the streamed
/// run's first error.
struct GridFirst<T> {
    slot: Mutex<Option<(usize, T)>>,
}

impl<T> Default for GridFirst<T> {
    fn default() -> Self {
        Self {
            slot: Mutex::new(None),
        }
    }
}

impl<T> GridFirst<T> {
    fn record(&self, index: usize, value: T) {
        let mut slot = self.slot.lock().expect("grid-first slot poisoned");
        if slot.as_ref().is_none_or(|(held, _)| index < *held) {
            *slot = Some((index, value));
        }
    }

    fn into_inner(self) -> Option<T> {
        self.slot
            .into_inner()
            .expect("grid-first slot poisoned")
            .map(|(_, value)| value)
    }
}

/// The one work-stealing scheduler: folds every index in `0..n` into
/// the accumulator of the worker that claims it, on exactly
/// `min(workers, n)` workers, and returns the accumulators in worker
/// order. A single worker runs inline on the calling thread.
///
/// Indices arrive in ascending order *within* a contiguous chunk, but
/// chunks interleave under stealing, so deterministic output needs
/// folds that commute across chunks (indexed slots, sums, per-index
/// spill shards).
///
/// # Panics
///
/// Every index still runs, then the grid-order-first panic from `fold`
/// resumes with its original payload on the calling thread.
fn schedule<A, G, F>(n: usize, workers: usize, new_acc: G, fold: F) -> Vec<A>
where
    A: Send,
    G: Fn(usize) -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        // Serial fast path: no threads, and a panic propagates on its
        // own — necessarily the lowest-index one.
        let mut acc = new_acc(0);
        for i in 0..n {
            fold(&mut acc, i);
        }
        return vec![acc];
    }

    let queues = ChunkQueues::deal(n, workers);
    let first_panic: GridFirst<Box<dyn Any + Send>> = GridFirst::default();
    let accs: Vec<Mutex<Option<A>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let (queues, accs, new_acc, fold, first_panic) =
                (&queues, &accs, &new_acc, &fold, &first_panic);
            scope.spawn(move || {
                let mut acc = new_acc(me);
                while let Some(range) = queues.claim(me) {
                    for i in range {
                        // Catch per index so a panic surfaces with its
                        // own payload (not a poisoned-mutex or generic
                        // scope panic) after every worker stops.
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| fold(&mut acc, i))) {
                            first_panic.record(i, payload);
                        }
                    }
                }
                *accs[me].lock().expect("acc slot poisoned") = Some(acc);
            });
        }
    });
    if let Some(payload) = first_panic.into_inner() {
        resume_unwind(payload);
    }
    accs.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("acc slot poisoned")
                .expect("every worker parks its accumulator")
        })
        .collect()
}

/// Cooperative cancellation handle for streamed grid runs.
///
/// Cancellation is *cell-granular and leak-free by construction*: a
/// worker checks the token before claiming each cell, so an in-flight
/// cell always completes its normal path (every faulted try destroys
/// its VM before retrying, and `free_pages()` accounting is asserted by
/// the driver), while unstarted cells are skipped without ever booting
/// a host. The campaign server's `DELETE /jobs/{id}` is built on this.
///
/// Clones share the flag; cancelling any clone cancels the run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: no new cells start after this returns.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One (scenario × seed) cell of a campaign grid.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Position in the grid, row-major (scenario-major, then seed).
    pub index: usize,
    /// The scenario, already re-seeded for this cell.
    pub scenario: Scenario,
    /// The experiment seed applied to the scenario.
    pub seed: u64,
}

/// The outcome of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// The attack variant this cell ran.
    pub variant: AttackVariant,
    /// The cell's experiment seed.
    pub seed: u64,
    /// Exploitable bits in the reused profiling catalogue.
    pub catalog_bits: usize,
    /// The campaign statistics (Table 3 raw material).
    pub stats: CampaignStats,
    /// The cell's trace recording, when the grid runs with
    /// [`CampaignGrid::with_trace`]. Cells are independent, so merging
    /// the sinks in grid order is deterministic regardless of `--jobs`.
    pub trace: Option<TraceSink>,
}

/// A grid of (scenario × experiment-seed) campaign cells plus the attack
/// parameters shared by every cell.
///
/// # Examples
///
/// ```
/// use hyperhammer::machine::Scenario;
/// use hyperhammer::driver::DriverParams;
/// use hyperhammer::parallel::CampaignGrid;
/// use std::num::NonZeroUsize;
///
/// let params = DriverParams { bits_per_attempt: 4, ..DriverParams::paper() };
/// let grid = CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2)
///     .with_seed_count(0xbeef, 2);
/// let serial = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
/// let parallel = grid.run(NonZeroUsize::new(2).unwrap()).unwrap();
/// assert_eq!(serial, parallel);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    params: DriverParams,
    max_attempts: usize,
    trace: TraceMode,
}

impl CampaignGrid {
    /// Creates a grid over `scenarios` with one default cell seed (0);
    /// widen with [`CampaignGrid::with_seeds`] or
    /// [`CampaignGrid::with_seed_count`].
    pub fn new(scenarios: Vec<Scenario>, params: DriverParams, max_attempts: usize) -> Self {
        Self {
            scenarios,
            seeds: vec![0],
            params,
            max_attempts,
            trace: TraceMode::Off,
        }
    }

    /// Records per-cell traces at the given level; each [`CellResult`]
    /// then carries its cell's [`TraceSink`].
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Applies a hostile-host fault plan to every scenario in the grid.
    /// Each cell still derives its own injection stream: the plan mixes
    /// the cell's host seed, which [`CampaignGrid::cells`] re-splits per
    /// cell, so no two cells share a fault schedule and determinism per
    /// cell (hence across `--jobs`) is preserved.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        for scenario in &mut self.scenarios {
            *scenario = scenario.clone().with_faults(faults);
        }
        self
    }

    /// Replaces the transient-fault recovery policy used by every cell.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.params.retry = retry;
        self
    }

    /// Uses these explicit experiment seeds for every scenario.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a grid needs at least one seed");
        self.seeds = seeds;
        self
    }

    /// Derives `count` seeds from `base` via [`SimRng::split_seed`] —
    /// the canonical seed-splitting scheme, reproducible from `base`
    /// alone.
    pub fn with_seed_count(self, base: u64, count: usize) -> Self {
        assert!(count > 0, "a grid needs at least one seed");
        let seeds = (0..count as u64)
            .map(|i| SimRng::split_seed(base, i))
            .collect();
        self.with_seeds(seeds)
    }

    /// The grid's scenarios, in row order — one [`MachineTemplate`] per
    /// entry is what [`RunOpts::templates`] expects.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The grid's cells in row-major (scenario-major) order, each with
    /// its re-seeded scenario.
    pub fn cells(&self) -> Vec<CampaignCell> {
        (0..self.len()).map(|i| self.cell_at(i)).collect()
    }

    /// Builds the cell at row-major `index` on demand — the streaming
    /// path materializes one cell per worker at a time instead of the
    /// whole grid.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cell_at(&self, index: usize) -> CampaignCell {
        assert!(index < self.len(), "cell index {index} out of range");
        let scenario = &self.scenarios[index / self.seeds.len()];
        let seed = self.seeds[index % self.seeds.len()];
        CampaignCell {
            index,
            scenario: scenario.clone().with_seed(seed),
            seed,
        }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// `true` when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One [`MachineTemplate`] per scenario, in scenario order; cell
    /// `i` uses entry `i / seeds`. Callers that share templates across
    /// runs build these once and pass them as [`RunOpts::templates`].
    pub fn scenario_templates(&self) -> Vec<MachineTemplate> {
        self.scenarios
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect()
    }

    /// Runs one cell exactly as the serial path would: boot, profile,
    /// catalogue, then campaign to first success or the attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors.
    pub fn run_cell(&self, cell: &CampaignCell) -> Result<CellResult, HvError> {
        self.run_cell_on(
            cell,
            &MachineTemplate::for_scenario(&cell.scenario),
            0,
            None,
        )
    }

    /// [`CampaignGrid::run_cell`] against a prebuilt template. The
    /// `events_hint` pre-sizes the cell's trace arena and `recycled`
    /// hands it a spent sink's arena (see [`TraceSink::recycle`]) —
    /// capacity only, so a scheduling-dependent hint can never change
    /// recorded output.
    fn run_cell_on(
        &self,
        cell: &CampaignCell,
        template: &MachineTemplate,
        events_hint: usize,
        recycled: Option<TraceSink>,
    ) -> Result<CellResult, HvError> {
        let variant = cell.scenario.variant();
        let driver = AttackDriver::new(self.params.clone()).with_variant(variant);
        let mut host = template.instantiate(cell.seed);
        // Attach after boot: boot-time noise is outside the campaign.
        let tracer = Tracer::with_recycled(self.trace, events_hint, recycled);
        tracer.set_cell(cell.index);
        host.attach_tracer(tracer.clone());
        // An active fault plan can trip the profiling stage too (VM
        // creation jitter, EPT splits under the profiler's hammering).
        // Retry the whole stage on a fresh VM: the faulted try destroys
        // its VM before the backoff, so nothing leaks between tries.
        // The Xen variant steers p2m allocations instead of hammering
        // catalogued bits, so its cells skip profiling outright.
        let catalog = if variant == AttackVariant::Xen {
            FlipCatalog {
                entries: Vec::new(),
                host_mem: cell.scenario.profile_params().host_mem,
            }
        } else {
            with_retries(&self.params.retry, &mut host, |h| {
                let mut vm = h.create_vm(cell.scenario.vm_config())?;
                let result = driver.profile_and_catalog_with(
                    h,
                    &mut vm,
                    cell.scenario.profile_params(),
                    Some(template.tables()),
                );
                vm.destroy(h);
                result
            })?
        };
        let stats = driver.campaign(&cell.scenario, &mut host, &catalog, self.max_attempts)?;
        Ok(CellResult {
            scenario: cell.scenario.name,
            variant,
            seed: cell.seed,
            catalog_bits: catalog.entries.len(),
            stats,
            trace: tracer.take_sink(),
        })
    }

    /// Runs the whole grid on `jobs` workers (clamped like
    /// [`RunOpts::new`]); results are in grid order and identical for
    /// every `jobs` value. This is [`CampaignGrid::stream`] with a
    /// collecting consumer.
    ///
    /// # Errors
    ///
    /// Returns the first (grid-order) hypervisor error.
    pub fn run(&self, jobs: NonZeroUsize) -> Result<Vec<CellResult>, HvError> {
        struct Collect(Vec<(usize, CellResult)>);
        impl CellConsumer for Collect {
            fn consume(
                &mut self,
                index: usize,
                result: CellResult,
            ) -> std::io::Result<Option<TraceSink>> {
                self.0.push((index, result));
                Ok(None)
            }
        }
        let parts = self
            .stream(&RunOpts::new(jobs), |_| Collect(Vec::new()))
            .map_err(|e| match e {
                StreamError::Hv(e) => e,
                StreamError::Io(_) | StreamError::Cancelled => {
                    unreachable!("a collecting run neither spills nor cancels: {e}")
                }
            })?;
        Ok(in_index_order(
            self.len(),
            parts.into_iter().flat_map(|c| c.0),
        ))
    }

    /// Runs the grid serially on the calling thread — the reference the
    /// parallel path is tested against. Shares the per-scenario
    /// template machinery with [`CampaignGrid::stream`], so "serial vs
    /// parallel" compares scheduling only.
    ///
    /// # Errors
    ///
    /// Returns the first hypervisor error.
    pub fn run_serial(&self) -> Result<Vec<CellResult>, HvError> {
        let templates = self.scenario_templates();
        let seeds_per_scenario = self.seeds.len();
        self.cells()
            .iter()
            .map(|cell| {
                self.run_cell_on(cell, &templates[cell.index / seeds_per_scenario], 0, None)
            })
            .collect()
    }

    /// Runs the grid as `opts` says, folding every finished
    /// [`CellResult`] into the finishing worker's [`CellConsumer`]
    /// (built by `new_consumer(worker)`); returns the consumers in
    /// worker order.
    ///
    /// Cells are materialized one per worker at a time, so a run holds
    /// O(workers) state, and spent trace sinks a consumer hands back are
    /// recycled for that worker's next cell. Consumers observe cells in
    /// scheduling order; deterministic output therefore needs
    /// order-insensitive folds (indexed slots, mergeable sketches,
    /// per-index spill shards). Cancellation is checked before each cell,
    /// so an in-flight cell always completes and an unstarted one never
    /// boots a host; skipped cells never reach a consumer.
    ///
    /// # Errors
    ///
    /// Every cell still runs, and the grid-order-first failure —
    /// hypervisor error, consumer I/O, or [`StreamError::Cancelled`] for
    /// a cell the cancellation kept from starting — is returned.
    ///
    /// # Panics
    ///
    /// Panics if [`RunOpts::templates`] is given with a length other
    /// than the scenario count.
    pub fn stream<C, G>(&self, opts: &RunOpts<'_>, new_consumer: G) -> Result<Vec<C>, StreamError>
    where
        C: CellConsumer + Send,
        G: Fn(usize) -> C + Sync,
    {
        let owned: Vec<MachineTemplate>;
        let templates: Vec<&MachineTemplate> = match opts.templates {
            Some(shared) => shared.to_vec(),
            None => {
                owned = self.scenario_templates();
                owned.iter().collect()
            }
        };
        assert_eq!(
            templates.len(),
            self.scenarios.len(),
            "one template per scenario, in scenario order"
        );
        let seeds_per_scenario = self.seeds.len();
        // High-water mark of per-cell event counts, used to pre-size
        // later cells' trace arenas (capacity only, see run_cell_on).
        let events_hint = AtomicUsize::new(0);
        let first_error: GridFirst<StreamError> = GridFirst::default();
        let states = schedule(
            self.len(),
            opts.jobs.get(),
            |worker| (new_consumer(worker), None),
            |(consumer, recycled): &mut (C, Option<TraceSink>), index| {
                if opts.cancel.is_some_and(CancelToken::is_cancelled) {
                    first_error.record(index, StreamError::Cancelled);
                    return;
                }
                if opts.skip.is_some_and(|skip| skip(index)) {
                    return;
                }
                let cell = self.cell_at(index);
                let template = templates[index / seeds_per_scenario];
                let hint = events_hint.load(Ordering::Relaxed);
                let outcome = self
                    .run_cell_on(&cell, template, hint, recycled.take())
                    .map_err(StreamError::Hv)
                    .and_then(|result| {
                        if let Some(sink) = &result.trace {
                            events_hint.fetch_max(sink.events().len(), Ordering::Relaxed);
                        }
                        consumer.consume(index, result).map_err(StreamError::Io)
                    });
                match outcome {
                    Ok(sink) => *recycled = sink,
                    Err(e) => first_error.record(index, e),
                }
            },
        );
        match first_error.into_inner() {
            Some(e) => Err(e),
            None => Ok(states.into_iter().map(|(consumer, _)| consumer).collect()),
        }
    }
}

/// How [`CampaignGrid::stream`] runs a grid. Build with
/// [`RunOpts::new`] and set the optional fields with struct-update
/// syntax.
#[derive(Clone, Copy)]
pub struct RunOpts<'a> {
    /// Worker threads. [`RunOpts::new`] clamps the request to the
    /// machine's available parallelism; set the field directly to pin
    /// an exact width (the determinism tests do).
    pub jobs: NonZeroUsize,
    /// Caller-owned per-scenario templates, one per
    /// [`CampaignGrid::scenarios`] entry in order; `None` builds them
    /// for this run. Results are bit-identical either way — templates
    /// only hoist scenario-invariant work.
    pub templates: Option<&'a [&'a MachineTemplate]>,
    /// Once cancelled, no further cell starts.
    pub cancel: Option<&'a CancelToken>,
    /// Cells for which this returns `true` are skipped without booting a
    /// host or touching a consumer — checkpoint resume.
    pub skip: Option<&'a (dyn Fn(usize) -> bool + Sync)>,
}

impl RunOpts<'_> {
    /// Runs on `jobs` workers, clamped to the machine's available
    /// parallelism, with fresh templates, no cancellation and no
    /// skipped cells.
    pub fn new(jobs: NonZeroUsize) -> Self {
        Self {
            jobs: clamp_to_cpus(jobs),
            templates: None,
            cancel: None,
            skip: None,
        }
    }
}

impl std::fmt::Debug for RunOpts<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOpts")
            .field("jobs", &self.jobs)
            .field("templates", &self.templates.map(<[_]>::len))
            .field("cancel", &self.cancel)
            .field("skip", &self.skip.is_some())
            .finish()
    }
}

/// Per-worker sink for [`CampaignGrid::stream`]: receives every
/// finished [`CellResult`] of its worker, in that worker's scheduling
/// order, and may hand the cell's spent [`TraceSink`] back so the
/// engine can recycle its arena for the worker's next cell.
pub trait CellConsumer {
    /// Folds cell `index`'s finished result into the consumer's state.
    ///
    /// # Errors
    ///
    /// Spill I/O failures; the run reports the grid-order-first one.
    fn consume(&mut self, index: usize, result: CellResult) -> std::io::Result<Option<TraceSink>>;
}

/// A streaming run's failure: the cell computation itself
/// ([`HvError`]), the consumer's spill I/O, or cooperative
/// cancellation.
#[derive(Debug)]
pub enum StreamError {
    /// A cell failed the way [`CampaignGrid::run`] can fail.
    Hv(HvError),
    /// A consumer failed to spill or merge its shard output.
    Io(std::io::Error),
    /// A [`CancelToken`] stopped the run before this grid reached the
    /// cell; already-consumed cells are valid, the rest never ran.
    Cancelled,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Hv(e) => write!(f, "{e}"),
            StreamError::Io(e) => write!(f, "stream spill I/O: {e}"),
            StreamError::Cancelled => write!(f, "campaign run cancelled"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<HvError> for StreamError {
    fn from(e: HvError) -> Self {
        StreamError::Hv(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid(seeds: usize) -> CampaignGrid {
        let params = DriverParams {
            bits_per_attempt: 4,
            stable_bits_only: true,
            ..DriverParams::paper()
        };
        CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2).with_seed_count(0x717e, seeds)
    }

    /// Options pinned to exactly `jobs` workers, whatever the CPU count.
    fn exact(jobs: usize) -> RunOpts<'static> {
        let jobs = NonZeroUsize::new(jobs).unwrap();
        RunOpts {
            jobs,
            ..RunOpts::new(jobs)
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_every_item() {
        let items: Vec<u64> = (0..37).collect();
        // Exactly 4 real workers even on a 1-CPU machine, so
        // cross-thread stealing is actually exercised.
        let out = map_on_workers(items.clone(), 4, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let clamped = parallel_map(items.clone(), NonZeroUsize::new(4).unwrap(), |_, x| x * 2);
        assert_eq!(clamped, out, "CPU clamp must not change results");
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscribed() {
        let jobs = NonZeroUsize::new(8).unwrap();
        let empty: Vec<u8> = parallel_map(Vec::<u8>::new(), jobs, |_, x| x);
        assert!(empty.is_empty());
        let two = map_on_workers(vec![1, 2], 8, |_, x| x + 1);
        assert_eq!(two, vec![2, 3]);
    }

    #[test]
    fn work_stealing_survives_pathological_imbalance() {
        // Front-loaded cost: item 0 is ~3 orders of magnitude heavier
        // than the rest. A static split would strand worker 0's whole
        // initial share behind it; stealing lets the other workers
        // drain it, and the output must stay in input order either way.
        let items: Vec<u64> = (0..64).collect();
        let out = map_on_workers(items, 4, |i, x| {
            let spins = if i == 0 { 2_000_000 } else { 2_000 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn chunks_cover_every_index_without_overlap() {
        for n in [1usize, 2, 5, 16, 37, 100] {
            for workers in [1usize, 2, 4, 8] {
                let chunk = chunk_len(n, workers);
                assert!(chunk >= 1);
                // Reconstruct the dealing loop and check coverage.
                let mut seen = vec![false; n];
                let mut start = 0;
                while start < n {
                    let end = (start + chunk).min(n);
                    for (i, slot) in seen.iter_mut().enumerate().take(end).skip(start) {
                        assert!(!*slot, "index {i} dealt twice (n={n}, w={workers})");
                        *slot = true;
                    }
                    start = end;
                }
                assert!(seen.iter().all(|&s| s), "coverage gap (n={n}, w={workers})");
            }
        }
    }

    #[test]
    fn grid_cells_enumerate_row_major() {
        let grid = tiny_grid(3);
        let cells = grid.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(grid.len(), 3);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, SimRng::split_seed(0x717e, i as u64));
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = tiny_grid(2);
        let serial = grid.run_serial().unwrap();
        let one = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        let four = grid.run(NonZeroUsize::new(4).unwrap()).unwrap();
        assert_eq!(serial, one);
        assert_eq!(serial, four);
        assert_eq!(serial.len(), 2);
        for cell in &serial {
            assert!(!cell.stats.attempts.is_empty());
        }
    }

    #[test]
    fn resolve_jobs_clamps_and_defaults() {
        assert_eq!(resolve_jobs(Some(0)).get(), 1);
        assert_eq!(resolve_jobs(Some(6)).get(), 6);
        assert!(resolve_jobs(None).get() >= 1);
    }

    /// Runs `f`, catches its panic, and returns the `&str`/`String`
    /// payload — the message a user would see.
    fn panic_message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
        let payload = catch_unwind(f).expect_err("closure must panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload should be a string")
    }

    #[test]
    fn parallel_map_propagates_original_panic_payload() {
        // The original payload must surface — not a slot-mutex
        // "poisoned" panic from the collection phase.
        for workers in [1usize, 4] {
            let msg = panic_message(move || {
                map_on_workers((0..16u64).collect(), workers, |i, x| {
                    assert!(i != 11, "cell 11 exploded");
                    x
                });
            });
            assert!(msg.contains("cell 11 exploded"), "got: {msg}");
        }
        let msg = panic_message(|| {
            parallel_map(
                (0..4u64).collect(),
                NonZeroUsize::new(2).unwrap(),
                |_, _| panic!("clamped path panic"),
            );
        });
        assert!(msg.contains("clamped path panic"), "got: {msg}");
    }

    #[test]
    fn first_grid_order_panic_wins_regardless_of_scheduling() {
        // Several items panic; the one surfacing must be the lowest
        // index — what a serial run would hit first — even though a
        // later-index worker may panic earlier in wall-clock time.
        let msg = panic_message(|| {
            map_on_workers((0..64usize).collect(), 4, |i, _| {
                if i >= 5 {
                    panic!("panicked at index {i}");
                }
            });
        });
        assert_eq!(msg, "panicked at index 5");
    }

    #[test]
    fn reduce_path_propagates_original_panic_payload() {
        let msg = panic_message(|| {
            schedule(
                32,
                4,
                |_| 0u64,
                |acc, i| {
                    assert!(i != 7, "reducer died on 7");
                    *acc += 1;
                },
            );
        });
        assert!(msg.contains("reducer died on 7"), "got: {msg}");
    }

    #[test]
    fn reduce_partitions_every_index_exactly_once() {
        for workers in [1usize, 2, 4, 8] {
            let accs = schedule(37, workers, |_| Vec::new(), |acc, i| acc.push(i));
            assert_eq!(accs.len(), workers.min(37));
            let mut all: Vec<usize> = accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..37).collect::<Vec<_>>());
        }
        assert!(schedule(0, 4, |_| 0u8, |_, _| {}).is_empty());
    }

    struct Collect(Vec<(usize, CellResult)>);
    impl CellConsumer for Collect {
        fn consume(
            &mut self,
            index: usize,
            mut result: CellResult,
        ) -> std::io::Result<Option<TraceSink>> {
            let sink = result.trace.take();
            self.0.push((index, result));
            Ok(sink)
        }
    }

    #[test]
    fn shared_templates_and_idle_token_match_plain_streamed_run() {
        let grid = tiny_grid(3);
        let reference = grid.run_serial().unwrap();
        // Caller-owned templates, as the campaign server shares them
        // across jobs; an uncancelled token must be unobservable.
        let templates: Vec<MachineTemplate> = grid
            .scenarios()
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect();
        let refs: Vec<&MachineTemplate> = templates.iter().collect();
        let token = CancelToken::new();
        let opts = RunOpts {
            templates: Some(&refs),
            cancel: Some(&token),
            ..RunOpts::new(NonZeroUsize::new(2).unwrap())
        };
        let consumers = grid.stream(&opts, |_| Collect(Vec::new())).unwrap();
        let mut streamed: Vec<(usize, CellResult)> =
            consumers.into_iter().flat_map(|c| c.0).collect();
        streamed.sort_by_key(|(i, _)| *i);
        assert_eq!(streamed.len(), reference.len());
        for ((i, got), want) in streamed.iter().zip(reference.iter()) {
            let mut want = want.clone();
            want.trace = None;
            assert_eq!(got, &want, "cell {i} diverged under shared templates");
        }
    }

    #[test]
    fn cancelled_token_skips_unstarted_cells() {
        let grid = tiny_grid(4);

        // Cancelled before the run starts: nothing runs at all.
        let token = CancelToken::new();
        token.cancel();
        let opts = RunOpts {
            cancel: Some(&token),
            ..RunOpts::new(NonZeroUsize::new(2).unwrap())
        };
        let Err(err) = grid.stream(&opts, |_| Collect(Vec::new())) else {
            panic!("a pre-cancelled run must not succeed");
        };
        assert!(matches!(err, StreamError::Cancelled), "got: {err:?}");

        // Cancelled mid-run (from the consumer after the first cell, on
        // one worker so scheduling is fixed): the started cell's result
        // is delivered, later cells are skipped.
        struct CancelAfterFirst {
            token: CancelToken,
            consumed: std::sync::Arc<Mutex<Vec<usize>>>,
        }
        impl CellConsumer for CancelAfterFirst {
            fn consume(
                &mut self,
                index: usize,
                mut result: CellResult,
            ) -> std::io::Result<Option<TraceSink>> {
                self.consumed.lock().unwrap().push(index);
                self.token.cancel();
                Ok(result.trace.take())
            }
        }
        let token = CancelToken::new();
        let consumed = std::sync::Arc::new(Mutex::new(Vec::new()));
        let opts = RunOpts {
            cancel: Some(&token),
            ..RunOpts::new(NonZeroUsize::new(1).unwrap())
        };
        let Err(err) = grid.stream(&opts, |_| CancelAfterFirst {
            token: token.clone(),
            consumed: consumed.clone(),
        }) else {
            panic!("a mid-run cancellation must surface");
        };
        assert!(matches!(err, StreamError::Cancelled), "got: {err:?}");
        let consumed = consumed.lock().unwrap();
        assert_eq!(*consumed, vec![0], "exactly the in-flight cell completes");
    }

    #[test]
    fn resume_skips_done_cells_and_matches_a_full_run() {
        let grid = tiny_grid(4);
        let reference = grid.run_serial().unwrap();
        // Cells 0 and 2 were "already completed" by the interrupted run.
        let done = |index: usize| index == 0 || index == 2;
        for jobs in [1usize, 2] {
            let opts = RunOpts {
                skip: Some(&done),
                ..exact(jobs)
            };
            let consumers = grid.stream(&opts, |_| Collect(Vec::new())).unwrap();
            let mut resumed: Vec<(usize, CellResult)> =
                consumers.into_iter().flat_map(|c| c.0).collect();
            resumed.sort_by_key(|(i, _)| *i);
            let indexes: Vec<usize> = resumed.iter().map(|(i, _)| *i).collect();
            assert_eq!(indexes, vec![1, 3], "done cells must never run");
            for (i, got) in &resumed {
                let mut want = reference[*i].clone();
                want.trace = None;
                assert_eq!(got, &want, "resumed cell {i} diverged at jobs={jobs}");
            }
        }
    }

    #[test]
    fn streamed_run_matches_in_memory_results() {
        let grid = tiny_grid(3);
        let reference = grid.run_serial().unwrap();
        for jobs in [1usize, 2, 8] {
            let consumers = grid.stream(&exact(jobs), |_| Collect(Vec::new())).unwrap();
            let mut streamed: Vec<(usize, CellResult)> =
                consumers.into_iter().flat_map(|c| c.0).collect();
            streamed.sort_by_key(|(i, _)| *i);
            assert_eq!(streamed.len(), reference.len());
            for ((i, got), want) in streamed.iter().zip(reference.iter()) {
                let mut want = want.clone();
                want.trace = None;
                assert_eq!(got, &want, "cell {i} diverged at jobs={jobs}");
            }
        }
    }
}
