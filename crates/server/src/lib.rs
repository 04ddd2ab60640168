//! # hh-server — persistent campaign daemon
//!
//! A std-only campaign server: a hand-rolled HTTP/1.1 listener (module
//! [`http`]) in front of a priority job queue feeding the core crate's
//! work-stealing campaign runner, with per-scenario
//! [`MachineTemplate`]s kept warm in a shared cache so repeat jobs skip
//! the cold host-profiling setup the CLI pays on every invocation.
//!
//! The two layers are separable on purpose:
//!
//! * [`JobManager`] is the engine — submit/status/cancel/stream over an
//!   in-process job table, one runner thread draining a priority queue
//!   into [`CampaignGrid::stream`]. Benches drive it
//!   directly to compare warm-server submissions against cold starts.
//! * [`CampaignServer`] wraps a manager with the HTTP API:
//!   `POST /jobs`, `GET /jobs/{id}`, `GET /jobs/{id}/stream` (chunked
//!   NDJSON in grid order), `DELETE /jobs/{id}`, `GET /healthz`,
//!   `GET /metrics` and `POST /shutdown`.
//!
//! ## Byte-identity
//!
//! A job's streamed NDJSON is byte-identical to the serial CLI run of
//! the same spec: grids are built through [`JobSpec::grid_for`] (so
//! parameters cannot drift) and the per-cell line formatter is injected
//! by the CLI itself — the server never formats cells on its own.
//!
//! ## Leak-free cancellation
//!
//! `DELETE /jobs/{id}` cancels a queued job immediately and flips a
//! running job's [`CancelToken`]; in-flight cells complete normally
//! (every host teardown still runs, so the buddy allocator's
//! `free_pages` invariant holds) and not-yet-started cells never boot a
//! host.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod json;

use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hh_trace::{Counter, Metrics};
use hyperhammer::parallel::{resolve_jobs, CellConsumer, RunOpts, StreamError};
use hyperhammer::streamref::CampaignAggregate;
use hyperhammer::{CancelToken, CellLog, CellResult, JobSpec, MachineTemplate};

use http::{error_response, json_escape, ChunkedWriter, Method, Request, Response};

/// Per-cell NDJSON line formatter, injected by the CLI so the server
/// cannot drift from `campaign --json` output.
pub type CellFormatter = fn(&CellResult, &mut String);

/// A job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the priority queue.
    Queued,
    /// Being executed by the runner thread.
    Running,
    /// Every cell completed.
    Done,
    /// Cancelled before all cells ran; completed cells remain valid.
    Cancelled,
    /// The run failed (hypervisor error); the message says how.
    Failed(String),
}

impl JobStatus {
    /// Stable lower-case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }

    /// Whether the job will never make further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed(_)
        )
    }
}

/// Point-in-time view of one job, as returned by [`JobManager::status`].
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Queue priority the job was submitted with.
    pub priority: u8,
    /// Total cells in the job's grid.
    pub cells: usize,
    /// Cells completed so far.
    pub completed: usize,
    /// Execution order assigned when the runner picked the job up
    /// (0-based); `None` while still queued.
    pub start_order: Option<u64>,
    /// Aggregate statistics over the completed cells.
    pub aggregate: CampaignAggregate,
}

impl JobSnapshot {
    /// Serializes the snapshot as the `GET /jobs/{id}` response body.
    pub fn to_json(&self) -> String {
        let error = match &self.status {
            JobStatus::Failed(msg) => format!(", \"error\": {}", json_escape(msg)),
            _ => String::new(),
        };
        format!(
            "{{\"id\": {}, \"status\": {}, \"priority\": {}, \"cells\": {}, \
             \"completed\": {}, \"succeeded\": {}, \"attempts\": {}, \
             \"aborted_attempts\": {}{error}}}",
            self.id,
            json_escape(self.status.name()),
            self.priority,
            self.cells,
            self.completed,
            self.aggregate.succeeded,
            self.aggregate.attempts,
            self.aggregate.aborted_attempts,
        )
    }
}

/// What [`JobManager::wait_line`] found at a grid index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineWait {
    /// The cell finished; here is its NDJSON line (newline included).
    Line(String),
    /// The job is terminal and this cell never completed.
    End(JobStatus),
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    /// Per-cell NDJSON lines, indexed by grid order; `None` until the
    /// cell completes. Filled out of order by workers, drained in grid
    /// order by streamers.
    lines: Vec<Option<String>>,
    completed: usize,
    start_order: Option<u64>,
    aggregate: CampaignAggregate,
}

/// Where one job persists itself when the manager runs with a spool
/// directory: the spec as JSON (written at submit) and a [`CellLog`]
/// with one record per completed cell (fsynced as each cell finishes).
/// Both are deleted once the job goes terminal, so after a crash the
/// spool holds exactly the unfinished jobs.
#[derive(Debug)]
struct JobSpool {
    spec_path: PathBuf,
    lines_path: PathBuf,
}

impl JobSpool {
    fn for_job(dir: &Path, id: u64) -> Self {
        Self {
            spec_path: dir.join(format!("job-{id}.json")),
            lines_path: dir.join(format!("job-{id}.ndjson")),
        }
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.spec_path);
        let _ = std::fs::remove_file(&self.lines_path);
    }
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    cancel: CancelToken,
    state: Mutex<JobState>,
    wake: Condvar,
    spool: Option<JobSpool>,
}

impl Job {
    fn set_status(&self, status: JobStatus) {
        let terminal = status.is_terminal();
        {
            let mut state = self.state.lock().expect("job state poisoned");
            state.status = status;
            self.wake.notify_all();
        }
        if terminal {
            if let Some(spool) = &self.spool {
                spool.remove();
            }
        }
    }
}

/// Queue key: higher priority first; FIFO (lower submission sequence)
/// among equals.
#[derive(Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: u8,
    seq: u64,
    id: u64,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct Registry {
    next_id: u64,
    next_seq: u64,
    next_start: u64,
    jobs: HashMap<u64, Arc<Job>>,
    queue: BinaryHeap<QueueEntry>,
    shutting_down: bool,
}

/// Cache key for warm [`MachineTemplate`]s. The template is built from
/// the *faulted* scenario (`Scenario::host_config` embeds the fault
/// plan), so the key must carry everything the resolved scenario does:
/// the base name, the attack variant (same-named jobs targeting
/// different variants must not share a template), and the fault
/// parameters. The fault rate is normalized before `to_bits` so `-0.0`
/// and `0.0` — equal rates — cannot split into two cache entries.
type TemplateKey = (&'static str, &'static str, u64, u64);

#[derive(Debug)]
struct Shared {
    fmt_cell: CellFormatter,
    registry: Mutex<Registry>,
    queue_wake: Condvar,
    templates: Mutex<HashMap<TemplateKey, Arc<MachineTemplate>>>,
    metrics: Mutex<Metrics>,
    /// Spool directory the queue persists to, when configured.
    spool: Option<PathBuf>,
}

impl Shared {
    fn bump(&self, counter: Counter, by: u64) {
        self.metrics
            .lock()
            .expect("metrics poisoned")
            .bump(counter, by);
    }
}

/// Per-worker sink: formats each finished cell with the injected
/// formatter, appends it to the job's spool log (if any) and publishes
/// it on the job's line table.
struct LineSink<'a> {
    job: &'a Job,
    log: Option<&'a CellLog>,
    fmt_cell: CellFormatter,
}

impl CellConsumer for LineSink<'_> {
    fn consume(
        &mut self,
        index: usize,
        result: CellResult,
    ) -> io::Result<Option<hh_trace::TraceSink>> {
        let mut line = String::new();
        (self.fmt_cell)(&result, &mut line);
        // Persist before publishing: a line a streamer saw must survive
        // a crash, the other way round merely re-runs a cell.
        if let Some(log) = self.log {
            log.append(index, &line)?;
        }
        let mut state = self.job.state.lock().expect("job state poisoned");
        state.aggregate.observe(&result);
        state.lines[index] = Some(line);
        state.completed += 1;
        self.job.wake.notify_all();
        Ok(None)
    }
}

/// The campaign engine: a priority job queue, a single runner thread
/// fanning each job out over the work-stealing pool, and a process-wide
/// warm template cache. All methods take `&self`; share it in an
/// [`Arc`].
#[derive(Debug)]
pub struct JobManager {
    shared: Arc<Shared>,
    runner: Mutex<Option<JoinHandle<()>>>,
}

impl JobManager {
    /// Starts the manager (and its runner thread) with the given
    /// per-cell line formatter. In-memory only — the queue dies with
    /// the process; use [`JobManager::with_spool`] to persist it.
    pub fn new(fmt_cell: CellFormatter) -> Self {
        Self::with_spool(fmt_cell, None).expect("an in-memory manager does no I/O")
    }

    /// Starts the manager with an optional spool directory. When given,
    /// every submitted spec and completed cell line is persisted there,
    /// and any unfinished job found on disk is restored under its
    /// original id (FIFO by id, original priority) with its completed
    /// cells pre-filled — the runner skips them and their streamed
    /// bytes stay identical to an uninterrupted run. Aggregate
    /// statistics only cover cells run after the restart.
    ///
    /// # Errors
    ///
    /// Spool directory creation or scan failures.
    pub fn with_spool(fmt_cell: CellFormatter, spool: Option<PathBuf>) -> io::Result<Self> {
        let mut registry = Registry::default();
        if let Some(dir) = &spool {
            std::fs::create_dir_all(dir)?;
            restore_spool(dir, &mut registry)?;
        }
        let shared = Arc::new(Shared {
            fmt_cell,
            registry: Mutex::new(registry),
            queue_wake: Condvar::new(),
            templates: Mutex::new(HashMap::new()),
            metrics: Mutex::new(Metrics::default()),
            spool,
        });
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hh-job-runner".to_string())
                .spawn(move || runner_loop(&shared))
                .expect("spawn runner thread")
        };
        Ok(Self {
            shared,
            runner: Mutex::new(Some(runner)),
        })
    }

    /// Validates and enqueues a job; returns its id.
    ///
    /// # Errors
    ///
    /// The spec's own validation message, or a refusal while the
    /// manager is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        spec.validate()?;
        let cells = spec.cell_count();
        let mut registry = self.shared.registry.lock().expect("registry poisoned");
        if registry.shutting_down {
            return Err("server is shutting down".to_string());
        }
        let id = registry.next_id;
        registry.next_id += 1;
        let seq = registry.next_seq;
        registry.next_seq += 1;
        let spool = match &self.shared.spool {
            Some(dir) => {
                let spool = JobSpool::for_job(dir, id);
                // Spec on disk before the job is visible: the spool
                // never holds a job it cannot rebuild.
                std::fs::write(&spool.spec_path, json::job_spec_to_json(&spec))
                    .map_err(|e| format!("spool write failed: {e}"))?;
                Some(spool)
            }
            None => None,
        };
        let job = Arc::new(Job {
            spec: spec.clone(),
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                lines: vec![None; cells],
                completed: 0,
                start_order: None,
                aggregate: CampaignAggregate::default(),
            }),
            wake: Condvar::new(),
            spool,
        });
        registry.jobs.insert(id, job);
        registry.queue.push(QueueEntry {
            priority: spec.priority,
            seq,
            id,
        });
        drop(registry);
        self.shared.bump(Counter::ServerJobsSubmitted, 1);
        self.shared.queue_wake.notify_all();
        Ok(id)
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.shared
            .registry
            .lock()
            .expect("registry poisoned")
            .jobs
            .get(&id)
            .cloned()
    }

    /// A point-in-time snapshot of a job, or `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let job = self.job(id)?;
        let state = job.state.lock().expect("job state poisoned");
        Some(JobSnapshot {
            id,
            status: state.status.clone(),
            priority: job.spec.priority,
            cells: state.lines.len(),
            completed: state.completed,
            start_order: state.start_order,
            aggregate: state.aggregate.clone(),
        })
    }

    /// Cancels a job: a queued job becomes [`JobStatus::Cancelled`]
    /// immediately, a running job has its [`CancelToken`] flipped (the
    /// runner marks it cancelled once in-flight cells drain). Returns
    /// the status observed at cancel time, or `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        let observed = state.status.clone();
        match state.status {
            JobStatus::Queued => {
                state.status = JobStatus::Cancelled;
                job.wake.notify_all();
                drop(state);
                if let Some(spool) = &job.spool {
                    spool.remove();
                }
                self.shared.bump(Counter::ServerJobsCancelled, 1);
            }
            JobStatus::Running => {
                job.cancel.cancel();
            }
            _ => {}
        }
        Some(observed)
    }

    /// Blocks until cell `index` of job `id` completes (returning its
    /// NDJSON line) or the job goes terminal without it. `None` for
    /// unknown ids or out-of-range indices.
    pub fn wait_line(&self, id: u64, index: usize) -> Option<LineWait> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        if index >= state.lines.len() {
            return None;
        }
        loop {
            if let Some(line) = &state.lines[index] {
                return Some(LineWait::Line(line.clone()));
            }
            if state.status.is_terminal() {
                return Some(LineWait::End(state.status.clone()));
            }
            state = job.wake.wait(state).expect("job state poisoned");
        }
    }

    /// Blocks until the job is terminal; returns the final snapshot
    /// (`None` for unknown ids).
    pub fn wait(&self, id: u64) -> Option<JobSnapshot> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        while !state.status.is_terminal() {
            state = job.wake.wait(state).expect("job state poisoned");
        }
        drop(state);
        self.status(id)
    }

    /// Serializes the `GET /metrics` body: queue depth, job/template
    /// counts, and the server counters.
    pub fn metrics_json(&self) -> String {
        let (depth, jobs) = {
            let registry = self.shared.registry.lock().expect("registry poisoned");
            (registry.queue.len(), registry.jobs.len())
        };
        let templates = self
            .shared
            .templates
            .lock()
            .expect("templates poisoned")
            .len();
        let metrics = self
            .shared
            .metrics
            .lock()
            .expect("metrics poisoned")
            .clone();
        let counters = [
            Counter::ServerRequests,
            Counter::ServerJobsSubmitted,
            Counter::ServerJobsCompleted,
            Counter::ServerJobsCancelled,
            Counter::ServerTemplateHits,
            Counter::ServerTemplateMisses,
        ]
        .iter()
        .map(|&c| format!("\"{}\": {}", c.name(), metrics.get(c)))
        .collect::<Vec<_>>()
        .join(", ");
        format!(
            "{{\"queue_depth\": {depth}, \"jobs\": {jobs}, \"templates\": {templates}, \
             \"counters\": {{{counters}}}}}"
        )
    }

    /// Current value of one server counter (used by tests/benches).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.shared
            .metrics
            .lock()
            .expect("metrics poisoned")
            .get(counter)
    }

    /// Begins shutdown: refuses new submissions, cancels every queued
    /// job, and tells the runner to exit after the job it is currently
    /// executing. Idempotent; does not block.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<Job>> = {
            let mut registry = self.shared.registry.lock().expect("registry poisoned");
            if registry.shutting_down {
                return;
            }
            registry.shutting_down = true;
            let ids: Vec<u64> = registry.queue.drain().map(|e| e.id).collect();
            ids.iter()
                .filter_map(|id| registry.jobs.get(id).cloned())
                .collect()
        };
        for job in drained {
            let mut state = job.state.lock().expect("job state poisoned");
            if state.status == JobStatus::Queued {
                state.status = JobStatus::Cancelled;
                job.wake.notify_all();
                drop(state);
                if let Some(spool) = &job.spool {
                    spool.remove();
                }
                self.shared.bump(Counter::ServerJobsCancelled, 1);
            }
        }
        self.shared.queue_wake.notify_all();
    }

    /// Blocks until the runner thread has exited (call after
    /// [`JobManager::shutdown`]). Idempotent.
    pub fn join(&self) {
        let handle = self.runner.lock().expect("runner handle poisoned").take();
        if let Some(handle) = handle {
            handle.join().expect("runner thread panicked");
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// Rebuilds the registry from a spool directory: every `job-<id>.json`
/// spec becomes a queued job under its original id (FIFO by id among
/// equal priorities), with the completed cell lines recorded in
/// `job-<id>.ndjson` pre-filled so the runner skips those cells.
fn restore_spool(dir: &Path, registry: &mut Registry) -> io::Result<()> {
    let mut found: Vec<(u64, JobSpec)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name
            .strip_prefix("job-")
            .and_then(|n| n.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let text = std::fs::read_to_string(entry.path())?;
        match json::job_spec_from_json(&text).and_then(|s| s.validate().map(|()| s)) {
            Ok(spec) => found.push((id, spec)),
            Err(msg) => eprintln!("spool: skipping unreadable {name}: {msg}"),
        }
    }
    found.sort_by_key(|(id, _)| *id);
    for (id, spec) in found {
        let cells = spec.cell_count();
        let spool = JobSpool::for_job(dir, id);
        // A torn final record or a corrupt one only costs a re-run of
        // that cell.
        let text = std::fs::read_to_string(&spool.lines_path).unwrap_or_default();
        let records = CellLog::parse(&text, 0, cells);
        for line in &records.corrupt {
            eprintln!(
                "spool: ignoring corrupt record {}:{line}",
                spool.lines_path.display()
            );
        }
        let lines = records.lines;
        let completed = lines.iter().filter(|l| l.is_some()).count();
        let priority = spec.priority;
        let job = Arc::new(Job {
            spec,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                lines,
                completed,
                start_order: None,
                aggregate: CampaignAggregate::default(),
            }),
            wake: Condvar::new(),
            spool: Some(spool),
        });
        registry.next_id = registry.next_id.max(id + 1);
        let seq = registry.next_seq;
        registry.next_seq += 1;
        registry.jobs.insert(id, job);
        registry.queue.push(QueueEntry { priority, seq, id });
    }
    Ok(())
}

fn runner_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut registry = shared.registry.lock().expect("registry poisoned");
            loop {
                if let Some(entry) = registry.queue.pop() {
                    if let Some(job) = registry.jobs.get(&entry.id).cloned() {
                        // Skip entries cancelled while queued.
                        let queued = {
                            let state = job.state.lock().expect("job state poisoned");
                            state.status == JobStatus::Queued
                        };
                        if queued {
                            let order = registry.next_start;
                            registry.next_start += 1;
                            break Some((job, order));
                        }
                    }
                    continue;
                }
                if registry.shutting_down {
                    break None;
                }
                registry = shared.queue_wake.wait(registry).expect("registry poisoned");
            }
        };
        let Some((job, order)) = job else { return };
        {
            let mut state = job.state.lock().expect("job state poisoned");
            state.status = JobStatus::Running;
            state.start_order = Some(order);
            job.wake.notify_all();
        }
        run_job(shared, &job);
    }
}

/// Fetches (or builds) the warm template for one scenario of a job.
fn warm_template(
    shared: &Shared,
    spec: &JobSpec,
    scenario: &hyperhammer::Scenario,
) -> Arc<MachineTemplate> {
    let rate = if spec.fault_rate == 0.0 {
        0.0_f64 // collapse -0.0 into +0.0: equal rates, one entry
    } else {
        spec.fault_rate
    };
    let key: TemplateKey = (
        scenario.name,
        scenario.variant().label(),
        rate.to_bits(),
        spec.fault_seed,
    );
    let mut cache = shared.templates.lock().expect("templates poisoned");
    if let Some(template) = cache.get(&key) {
        shared.bump(Counter::ServerTemplateHits, 1);
        return Arc::clone(template);
    }
    shared.bump(Counter::ServerTemplateMisses, 1);
    let template = Arc::new(MachineTemplate::for_scenario(scenario));
    cache.insert(key, Arc::clone(&template));
    template
}

fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    let grid = match job.spec.to_grid() {
        Ok(grid) => grid,
        Err(msg) => {
            job.set_status(JobStatus::Failed(msg));
            return;
        }
    };
    // Templates are built from the grid's scenarios (fault plan already
    // applied), keyed so only truly identical machines share.
    let templates: Vec<Arc<MachineTemplate>> = grid
        .scenarios()
        .iter()
        .map(|scenario| warm_template(shared, &job.spec, scenario))
        .collect();
    let refs: Vec<&MachineTemplate> = templates.iter().map(Arc::as_ref).collect();
    let log = match job
        .spool
        .as_ref()
        .map(|spool| CellLog::open(&spool.lines_path, 1))
        .transpose()
    {
        Ok(log) => log,
        Err(e) => {
            job.set_status(JobStatus::Failed(format!("spool open failed: {e}")));
            return;
        }
    };
    // Cells restored from the spool (or already present for any other
    // reason) are skipped; their published lines stay as-is.
    let done: Vec<bool> = {
        let state = job.state.lock().expect("job state poisoned");
        state.lines.iter().map(Option::is_some).collect()
    };
    let opts = RunOpts {
        templates: Some(&refs),
        cancel: Some(&job.cancel),
        skip: Some(&|i| done[i]),
        ..RunOpts::new(resolve_jobs(job.spec.jobs))
    };
    let outcome = grid
        .stream(&opts, |_| LineSink {
            job,
            log: log.as_ref(),
            fmt_cell: shared.fmt_cell,
        })
        .map(drop);
    // Closed before a terminal status deletes the spool files.
    drop(log);
    match outcome {
        Ok(_) => {
            job.set_status(JobStatus::Done);
            shared.bump(Counter::ServerJobsCompleted, 1);
        }
        Err(StreamError::Cancelled) => {
            job.set_status(JobStatus::Cancelled);
            shared.bump(Counter::ServerJobsCancelled, 1);
        }
        Err(e) => {
            job.set_status(JobStatus::Failed(e.to_string()));
        }
    }
}

/// How long idle connection reads wait before re-checking the shutdown
/// flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// How long a client may take to send one request's head and body,
/// counted from its first byte.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// A connection's read half. Between requests each read waits at most
/// [`READ_POLL`], so idle keep-alive connections notice shutdown; once
/// a request has begun, its reads share one deadline instead, so a
/// client pausing mid-request is not mistaken for an idle one.
struct ConnReader {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Read for ConnReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.deadline {
            None => READ_POLL,
            Some(deadline) => deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::TimedOut, "request deadline passed")
                })?,
        };
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.read(buf)
    }
}

#[derive(Debug)]
struct ServerCtx {
    manager: Arc<JobManager>,
    addr: SocketAddr,
    shutdown: AtomicBool,
}

/// The HTTP front of a [`JobManager`]: accepts connections on a
/// `TcpListener`, one handler thread per connection, keep-alive aware.
#[derive(Debug)]
pub struct CampaignServer {
    ctx: Arc<ServerCtx>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl CampaignServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving on background threads.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn start(addr: &str, fmt_cell: CellFormatter) -> io::Result<Self> {
        Self::start_with_spool(addr, fmt_cell, None)
    }

    /// [`CampaignServer::start`] with an optional spool directory the
    /// job queue persists to (see [`JobManager::with_spool`]): after a
    /// crash or kill, restarting with the same directory resumes every
    /// unfinished job from its last completed cell.
    ///
    /// # Errors
    ///
    /// Socket bind or spool directory failures.
    pub fn start_with_spool(
        addr: &str,
        fmt_cell: CellFormatter,
        spool: Option<PathBuf>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let ctx = Arc::new(ServerCtx {
            manager: Arc::new(JobManager::with_spool(fmt_cell, spool)?),
            addr: local,
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("hh-accept".to_string())
                .spawn(move || accept_loop(&listener, &ctx))
                .expect("spawn accept thread")
        };
        Ok(Self {
            ctx,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The underlying engine (benches and tests drive it directly).
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.ctx.manager
    }

    /// Begins shutdown: stops accepting, cancels queued jobs, lets the
    /// in-flight job finish. Idempotent; does not block.
    pub fn shutdown(&self) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.ctx.manager.shutdown();
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.ctx.addr);
    }

    /// Blocks until every server thread (accept loop, connection
    /// handlers, job runner) has exited. Returns once a client's
    /// `POST /shutdown` — or a local [`CampaignServer::shutdown`] —
    /// has drained the server.
    pub fn join(&self) {
        let handle = self.accept.lock().expect("accept handle poisoned").take();
        if let Some(handle) = handle {
            handle.join().expect("accept thread panicked");
        }
        self.ctx.manager.join();
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ServerCtx>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Reap finished handlers so long-lived servers don't accumulate
        // join handles.
        handlers.retain(|h| !h.is_finished());
        let ctx = Arc::clone(ctx);
        let handle = std::thread::Builder::new()
            .name("hh-conn".to_string())
            .spawn(move || handle_connection(stream, &ctx))
            .expect("spawn connection thread");
        handlers.push(handle);
    }
    for handle in handlers {
        handle.join().expect("connection thread panicked");
    }
}

fn handle_connection(stream: TcpStream, ctx: &Arc<ServerCtx>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(ConnReader {
        stream,
        deadline: None,
    });
    loop {
        // Idle until the first byte of the next request arrives.
        match reader.fill_buf().map(|buf| buf.is_empty()) {
            Ok(false) => {}
            Ok(true) => return, // the peer closed the connection
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        reader.get_mut().deadline = Some(Instant::now() + REQUEST_DEADLINE);
        let parsed = http::read_request(&mut reader);
        reader.get_mut().deadline = None;
        let request = match parsed {
            Ok(request) => request,
            Err(err) => {
                if let Some(resp) = error_response(&err) {
                    let _ = resp.write_to(&mut writer, false);
                }
                return;
            }
        };
        ctx.manager.shared.bump(Counter::ServerRequests, 1);
        let keep_alive = request.keep_alive;
        match route(ctx, &request, &mut writer) {
            Ok(Handled::Response(resp)) => {
                if resp.write_to(&mut writer, keep_alive).is_err() {
                    return;
                }
            }
            // Streamed bodies write themselves and always close.
            Ok(Handled::Streamed) => return,
            Err(_) => return,
        }
        if !keep_alive || ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

enum Handled {
    Response(Response),
    Streamed,
}

fn route(ctx: &Arc<ServerCtx>, request: &Request, writer: &mut TcpStream) -> io::Result<Handled> {
    let manager = &ctx.manager;
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let resp = match (request.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => Response::json(200, "{\"ok\": true}"),
        (Method::Get, ["metrics"]) => Response::json(200, manager.metrics_json()),
        (Method::Post, ["shutdown"]) => {
            let resp = Response::json(200, "{\"shutting_down\": true}");
            resp.write_to(writer, false)?;
            shutdown_from_handler(ctx);
            return Ok(Handled::Streamed);
        }
        (Method::Post, ["jobs"]) => match submit_body(manager, &request.body) {
            Ok((id, cells)) => Response::json(202, format!("{{\"id\": {id}, \"cells\": {cells}}}")),
            Err(msg) => Response::json(400, format!("{{\"error\": {}}}", json_escape(&msg))),
        },
        (Method::Get, ["jobs", id]) => {
            match id.parse::<u64>().ok().and_then(|id| manager.status(id)) {
                Some(snapshot) => Response::json(200, snapshot.to_json()),
                None => not_found(),
            }
        }
        (Method::Delete, ["jobs", id]) => match id.parse::<u64>().ok() {
            Some(id) => match manager.cancel(id) {
                Some(observed) => Response::json(
                    202,
                    format!(
                        "{{\"id\": {id}, \"was\": {}}}",
                        json_escape(observed.name())
                    ),
                ),
                None => not_found(),
            },
            None => not_found(),
        },
        (Method::Get, ["jobs", id, "stream"]) => match id.parse::<u64>().ok() {
            Some(id) if manager.status(id).is_some() => {
                stream_job(manager, id, writer)?;
                return Ok(Handled::Streamed);
            }
            _ => not_found(),
        },
        _ => Response::json(404, "{\"error\": \"no such route\"}"),
    };
    Ok(Handled::Response(resp))
}

fn not_found() -> Response {
    Response::json(404, "{\"error\": \"no such job\"}")
}

fn submit_body(manager: &JobManager, body: &[u8]) -> Result<(u64, usize), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body must be UTF-8 JSON".to_string())?;
    if text.trim().is_empty() {
        return Err("POST /jobs needs a JSON job spec body (with Content-Length)".to_string());
    }
    let spec = json::job_spec_from_json(text)?;
    let cells = spec.cell_count();
    let id = manager.submit(spec)?;
    Ok((id, cells))
}

/// Streams a job's NDJSON lines in grid order as a chunked response,
/// blocking on each cell until it completes. A cancelled job's stream
/// ends cleanly at the first cell that never ran.
fn stream_job(manager: &JobManager, id: u64, writer: &mut TcpStream) -> io::Result<()> {
    // Streaming writes must not inherit the poll-read timeout semantics
    // on platforms where it also bounds writes; reads are done anyway.
    let mut chunked = ChunkedWriter::start(writer, 200, "application/x-ndjson")?;
    let mut index = 0;
    while let Some(wait) = manager.wait_line(id, index) {
        match wait {
            LineWait::Line(line) => {
                chunked.write_chunk(line.as_bytes())?;
                index += 1;
            }
            LineWait::End(_) => break,
        }
    }
    chunked.finish()
}

/// Shutdown initiated from inside a connection handler: run the
/// blocking part on a detached thread so the handler (which the accept
/// loop joins) can exit immediately.
fn shutdown_from_handler(ctx: &Arc<ServerCtx>) {
    if ctx.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    ctx.manager.shutdown();
    let _ = TcpStream::connect(ctx.addr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::num::NonZeroUsize;

    /// Deterministic test formatter (the real one lives in the CLI).
    fn fmt(result: &CellResult, out: &mut String) {
        out.push_str(&format!(
            "{{\"scenario\": \"{}\", \"seed\": {}}}\n",
            result.scenario, result.seed
        ));
    }

    fn tiny_spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["tiny".to_string()],
            seeds: 2,
            attempts: 2,
            bits: 4,
            base_seed: 0xbeef,
            ..JobSpec::default()
        }
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        heap.push(QueueEntry {
            priority: 1,
            seq: 0,
            id: 10,
        });
        heap.push(QueueEntry {
            priority: 5,
            seq: 1,
            id: 11,
        });
        heap.push(QueueEntry {
            priority: 5,
            seq: 2,
            id: 12,
        });
        heap.push(QueueEntry {
            priority: 0,
            seq: 3,
            id: 13,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![11, 12, 10, 13]);
    }

    #[test]
    fn manager_runs_jobs_to_byte_identical_lines() {
        let manager = JobManager::new(fmt);
        let spec = tiny_spec();
        let id = manager.submit(spec.clone()).unwrap();
        let done = manager.wait(id).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(done.completed, spec.cell_count());
        assert!(done.aggregate.cells == spec.cell_count() as u64);

        // Reference: serial in-process run through the same spec path.
        let grid = spec.to_grid().unwrap();
        let results = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        for (index, result) in results.iter().enumerate() {
            let mut expected = String::new();
            fmt(result, &mut expected);
            assert_eq!(
                manager.wait_line(id, index),
                Some(LineWait::Line(expected)),
                "cell {index} line must match the serial run"
            );
        }
    }

    #[test]
    fn warm_templates_are_shared_across_jobs() {
        let manager = JobManager::new(fmt);
        let first = manager.submit(tiny_spec()).unwrap();
        manager.wait(first).unwrap();
        assert_eq!(manager.counter(Counter::ServerTemplateMisses), 1);
        assert_eq!(manager.counter(Counter::ServerTemplateHits), 0);

        let second = manager.submit(tiny_spec()).unwrap();
        manager.wait(second).unwrap();
        assert_eq!(
            manager.counter(Counter::ServerTemplateMisses),
            1,
            "cache stays warm"
        );
        assert_eq!(manager.counter(Counter::ServerTemplateHits), 1);

        // A different fault plan must not share the warm template.
        let mut faulted = tiny_spec();
        faulted.fault_rate = 0.05;
        faulted.fault_seed = 7;
        let third = manager.submit(faulted).unwrap();
        manager.wait(third).unwrap();
        assert_eq!(manager.counter(Counter::ServerTemplateMisses), 2);
    }

    #[test]
    fn warm_templates_never_shared_across_variants() {
        let manager = JobManager::new(fmt);
        let base = manager.submit(tiny_spec()).unwrap();
        manager.wait(base).unwrap();
        assert_eq!(manager.counter(Counter::ServerTemplateMisses), 1);

        // Same base scenario name, different attack variant: the key
        // must differ even though `Scenario::name` is identical.
        let mut balloon = tiny_spec();
        balloon.scenarios = vec!["tiny@balloon".to_string()];
        let job = manager.submit(balloon).unwrap();
        manager.wait(job).unwrap();
        assert_eq!(
            manager.counter(Counter::ServerTemplateMisses),
            2,
            "tiny and tiny@balloon must not share a warm template"
        );
        assert_eq!(manager.counter(Counter::ServerTemplateHits), 0);

        // Re-submitting the variant job hits its own cached template.
        let mut again = tiny_spec();
        again.scenarios = vec!["tiny@balloon".to_string()];
        let job = manager.submit(again).unwrap();
        manager.wait(job).unwrap();
        assert_eq!(manager.counter(Counter::ServerTemplateMisses), 2);
        assert_eq!(manager.counter(Counter::ServerTemplateHits), 1);
    }

    #[test]
    fn warm_template_key_collapses_negative_zero_rate() {
        let manager = JobManager::new(fmt);
        let first = manager.submit(tiny_spec()).unwrap();
        manager.wait(first).unwrap();
        assert_eq!(manager.counter(Counter::ServerTemplateMisses), 1);

        // -0.0 == 0.0: the same (absent) fault plan must reuse the
        // template instead of splitting the cache on the sign bit.
        let mut negzero = tiny_spec();
        negzero.fault_rate = -0.0;
        let job = manager.submit(negzero).unwrap();
        manager.wait(job).unwrap();
        assert_eq!(manager.counter(Counter::ServerTemplateMisses), 1);
        assert_eq!(manager.counter(Counter::ServerTemplateHits), 1);
    }

    #[test]
    fn priority_decides_execution_order_behind_a_blocker() {
        let manager = JobManager::new(fmt);
        // While the blocker runs, both rivals sit in the queue; the
        // runner must pick the high-priority one first. Submit them only
        // once the blocker runs: a runner waking between the two submits
        // would otherwise find `low` alone in the queue.
        let blocker = manager.submit(tiny_spec()).unwrap();
        while manager.status(blocker).unwrap().status == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut low = tiny_spec();
        low.priority = 1;
        let mut high = tiny_spec();
        high.priority = 9;
        let low = manager.submit(low).unwrap();
        let high = manager.submit(high).unwrap();
        manager.wait(blocker).unwrap();
        manager.wait(low).unwrap();
        manager.wait(high).unwrap();
        let low_order = manager.status(low).unwrap().start_order.unwrap();
        let high_order = manager.status(high).unwrap().start_order.unwrap();
        assert!(
            high_order < low_order,
            "priority 9 (order {high_order}) must start before priority 1 (order {low_order})"
        );
    }

    #[test]
    fn cancelling_a_queued_job_never_runs_it() {
        let manager = JobManager::new(fmt);
        let blocker = manager.submit(tiny_spec()).unwrap();
        let victim = manager.submit(tiny_spec()).unwrap();
        // The runner is busy with the blocker (or about to be); either
        // way the victim sits behind it in FIFO order, so cancel wins.
        let observed = manager.cancel(victim).unwrap();
        let done = manager.wait(victim).unwrap();
        if observed == JobStatus::Queued {
            assert_eq!(done.status, JobStatus::Cancelled);
            assert_eq!(done.completed, 0, "a queued-cancelled job runs no cells");
            assert_eq!(done.start_order, None);
        }
        manager.wait(blocker).unwrap();
        // The manager keeps serving after a cancellation.
        let after = manager.submit(tiny_spec()).unwrap();
        assert_eq!(manager.wait(after).unwrap().status, JobStatus::Done);
    }

    #[test]
    fn cancelling_a_running_job_keeps_finished_lines_valid() {
        let manager = JobManager::new(fmt);
        let mut spec = tiny_spec();
        spec.seeds = 12;
        spec.jobs = Some(1);
        let id = manager.submit(spec).unwrap();
        // Wait for the first cell so the job is demonstrably mid-run.
        let first = manager.wait_line(id, 0).unwrap();
        assert!(matches!(first, LineWait::Line(_)));
        manager.cancel(id).unwrap();
        let done = manager.wait(id).unwrap();
        assert!(done.completed >= 1);
        match done.status {
            JobStatus::Cancelled => assert!(done.completed < done.cells),
            JobStatus::Done => assert_eq!(done.completed, done.cells),
            other => panic!("unexpected terminal status {other:?}"),
        }
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_joins() {
        let manager = JobManager::new(fmt);
        let running = manager.submit(tiny_spec()).unwrap();
        let queued = manager.submit(tiny_spec()).unwrap();
        manager.shutdown();
        assert!(
            manager.submit(tiny_spec()).is_err(),
            "no submissions during shutdown"
        );
        manager.join();
        assert!(manager.wait(running).unwrap().status.is_terminal());
        let queued = manager.wait(queued).unwrap();
        assert!(queued.status.is_terminal());
    }

    #[test]
    fn spool_restores_unfinished_jobs_and_skips_completed_cells() {
        let dir = std::env::temp_dir().join(format!("hh-spool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a killed server: a spec on disk plus one completed
        // cell whose line carries marker bytes a re-run could never
        // produce — if it survives, the cell was really skipped.
        let spec = tiny_spec();
        std::fs::write(dir.join("job-7.json"), json::job_spec_to_json(&spec)).unwrap();
        std::fs::write(dir.join("job-7.ndjson"), "0\t{\"marker\": true}\n").unwrap();

        let manager = JobManager::with_spool(fmt, Some(dir.clone())).unwrap();
        let done = manager.wait(7).expect("job restored under its original id");
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(done.completed, spec.cell_count());
        assert_eq!(
            manager.wait_line(7, 0),
            Some(LineWait::Line("{\"marker\": true}\n".to_string()))
        );
        // The re-run cell matches the serial reference byte-for-byte.
        let grid = spec.to_grid().unwrap();
        let results = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        let mut expected = String::new();
        fmt(&results[1], &mut expected);
        assert_eq!(manager.wait_line(7, 1), Some(LineWait::Line(expected)));
        // Terminal jobs clean up their spool files, and fresh ids
        // continue past the restored ones.
        assert!(!dir.join("job-7.json").exists());
        assert!(!dir.join("job-7.ndjson").exists());
        let next = manager.submit(tiny_spec()).unwrap();
        assert_eq!(next, 8, "ids continue after the restored job");
        manager.wait(next).unwrap();
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_client_pausing_mid_request_is_not_cut_off() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        // Longer than the idle poll: the request must survive it.
        std::thread::sleep(Duration::from_millis(500));
        conn.write_all(b"Host: x\r\n\r\n").unwrap();
        let mut status = String::new();
        BufReader::new(&conn).read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 200"), "got: {status:?}");
        drop(conn);
        server.shutdown();
        server.join();
    }

    #[test]
    fn http_round_trip_submit_stream_cancel_shutdown() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let addr = server.local_addr().to_string();
        let api = client::Client::new(&addr);

        assert!(api.healthz().unwrap().contains("true"));

        let spec = tiny_spec();
        let body = json::job_spec_to_json(&spec);
        let id = api.submit(&body).unwrap();
        let mut streamed = Vec::new();
        api.stream(id, &mut streamed).unwrap();

        // Byte-identity vs the in-process serial run.
        let grid = spec.to_grid().unwrap();
        let results = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        let mut expected = String::new();
        for result in &results {
            fmt(result, &mut expected);
        }
        assert_eq!(String::from_utf8(streamed).unwrap(), expected);

        let status = api.status(id).unwrap();
        assert!(status.contains("\"status\": \"done\""), "got: {status}");

        // Unknown jobs 404, bad specs 400.
        assert!(api.status(999).is_err());
        assert!(api.submit("{\"scenarios\": [\"warp9\"]}").is_err());
        let metrics = api.metrics().unwrap();
        assert!(metrics.contains("server_jobs_submitted"), "got: {metrics}");

        // DELETE an (already finished) job answers with its status.
        let cancel = api.cancel(id).unwrap();
        assert!(cancel.contains("\"was\""), "got: {cancel}");

        api.shutdown().unwrap();
        server.join();
    }
}
