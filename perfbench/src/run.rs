//! One benchmark run of one workload: the timed end-to-end run with
//! tracing off, or the traced per-layer run.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use hh_server::client::Client;
use hh_trace::{Counter, Metrics, TraceMode};
use hyperhammer::{AttackVariant, CampaignGrid, JobSpec, MachineTemplate};
use hyperhammer_cli::commands::campaign_cell_line;

use crate::cli::{Cli, ServeProcess};
use crate::probes;
use crate::report::Report;
use crate::server::{closed_loop, metrics_counter, JobSample};
use crate::stages::{drive_cell, driver_params, Row, RowTimes, StagedCell};
use crate::stats::{median, tail};
use crate::workloads::{grid_args, nproc, Workload};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-cell NDJSON records of a `campaign --json` stdout, without
/// the per-variant summary rows multi-variant grids append.
fn cell_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"scenario\": "))
        .collect()
}

/// The raw text of a top-level scalar field of a flat JSON record.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(rest[..rest.find([',', '}'])?].trim_matches('"'))
}

/// Checks a `campaign --json` stdout against the grid it should have
/// run: one record per cell in grid order, each with the cell's
/// scenario and seed and an attempt count within the budget. Returns
/// the attempts per cell.
fn check_cells(stdout: &str, grid: &CampaignGrid, max_attempts: usize) -> Result<Vec<u64>, String> {
    let lines = cell_lines(stdout);
    let cells = grid.cells();
    if lines.len() != cells.len() {
        return Err(format!(
            "{} cell records for {} cells",
            lines.len(),
            cells.len()
        ));
    }
    lines
        .iter()
        .zip(&cells)
        .map(|(line, cell)| {
            let variant = cell.scenario.variant();
            let label = if variant == AttackVariant::default() {
                cell.scenario.name.to_string()
            } else {
                format!("{}@{}", cell.scenario.name, variant.label())
            };
            let attempts: u64 = field(line, "attempts")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("no attempt count in {line}"))?;
            if field(line, "scenario") != Some(label.as_str())
                || field(line, "seed") != Some(cell.seed.to_string().as_str())
                || attempts == 0
                || attempts > max_attempts as u64
            {
                return Err(format!(
                    "cell {} ({label}, seed {}) reported as {line}",
                    cell.index, cell.seed
                ));
            }
            Ok(attempts)
        })
        .collect()
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The machine-template set-up of a grid: the median of [`SETUPS`]
/// builds in seconds, and the last build's templates.
fn template_setup(grid: &CampaignGrid) -> (f64, Vec<MachineTemplate>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut templates = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        templates = grid.scenario_templates();
        secs.push(start.elapsed().as_secs_f64());
    }
    (median(&secs).expect("SETUPS > 0"), templates)
}

/// The cell records of a `campaign --json` stdout, one line each.
fn cell_records(stdout: &str) -> String {
    cell_lines(stdout)
        .iter()
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The cell records the library produces for `grid` with hh-trace
/// counters on, in grid order: the reference every timed CLI run must
/// reproduce byte for byte.
fn traced_reference(grid: &CampaignGrid) -> Result<String, String> {
    let jobs = NonZeroUsize::new(nproc().min(grid.len())).expect("grids are non-empty");
    let results = grid
        .clone()
        .with_trace(TraceMode::Metrics)
        .run(jobs)
        .map_err(|e| format!("reference grid: {e}"))?;
    let mut out = String::new();
    for result in &results {
        campaign_cell_line(result, &mut out);
    }
    Ok(out)
}

/// The end-to-end run of a CLI workload: untraced CLI runs cycling
/// through the workload's grids until `seconds` have passed, each
/// compared byte for byte with its traced in-process reference.
///
/// # Errors
///
/// The CLI could not be run or a grid could not be built.
pub fn cli_e2e(cli: &Cli, workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let specs: Vec<JobSpec> = (0..workload.distinct_jobs())
        .map(|k| workload.spec(seed, k))
        .collect();
    let grids = specs
        .iter()
        .map(JobSpec::to_grid)
        .collect::<Result<Vec<_>, _>>()?;
    let mut report = Report::default();

    let (setup_s, _) = template_setup(&grids[0]);
    let references: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = grids
            .iter()
            .map(|g| scope.spawn(|| traced_reference(g)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut expected = Vec::with_capacity(specs.len());
    for ((reference, grid), spec) in references.into_iter().zip(&grids).zip(&specs) {
        let reference = reference?;
        let attempts: u64 = match check_cells(&reference, grid, spec.attempts) {
            Ok(attempts) => attempts.iter().sum(),
            Err(e) => {
                eprintln!("reference for base seed {}: {e}", spec.base_seed);
                report.broken = true;
                0
            }
        };
        expected.push((reference, attempts));
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut job_ms, mut rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    // Whole rounds, so every grid runs equally often and no median
    // depends on which grid the window happened to end in.
    while job_ms.is_empty() || Instant::now() < deadline {
        for ((spec, grid), (reference, attempts)) in specs.iter().zip(&grids).zip(&expected) {
            // One worker: on a shared host, a job split across racing
            // workers takes as long as its slowest one, which swings
            // from run to run.
            let run = cli.run(&grid_args("campaign", spec, 1))?;
            let same = run.ok && cell_records(&run.stdout) == *reference;
            for cell in 0..grid.len() {
                report.check(same, || {
                    format!(
                        "{} cell {cell}: output differs from the traced reference",
                        workload.name()
                    )
                });
            }
            // A job whose output differs completes no attempts.
            rates.push(if same {
                *attempts as f64 / run.wall.as_secs_f64()
            } else {
                0.0
            });
            job_ms.push(ms(run.wall));
            rss.extend(run.peak_rss_kib.map(|k| k as f64 / 1024.0));
        }
    }
    report.broken |= rss.len() != job_ms.len();
    set_e2e(
        &mut report,
        median(&rates).expect("one job ran"),
        setup_s,
        rss.iter().copied().fold(f64::NAN, f64::max),
        &job_ms,
    );
    Ok(report)
}

fn set_e2e(report: &mut Report, attempts_per_s: f64, setup_s: f64, rss_mib: f64, job_ms: &[f64]) {
    let t = tail(job_ms).expect("at least one job ran");
    println!(
        "  jobs: {} samples, tail at p{:.2}, failed {}/{} (failed_ratio {:.6})",
        t.samples,
        t.percentile,
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    report.set("attempts_per_s", attempts_per_s);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mib", rss_mib);
    report.set("job_ms_p50", median(job_ms).expect("at least one job ran"));
    report.set("job_ms_tail", t.value);
}

/// The NDJSON a server job streams for `spec`: the cell records of
/// `campaign --json`.
fn server_reference(cli: &Cli, spec: &JobSpec, report: &mut Report) -> Result<Vec<u8>, String> {
    let run = cli.run(&grid_args("campaign", spec, nproc().min(spec.cell_count())))?;
    let grid = spec.to_grid()?;
    if let Err(e) = check_cells(&run.stdout, &grid, spec.attempts) {
        eprintln!("reference for base seed {}: {e}", spec.base_seed);
        report.broken = true;
    }
    report.broken |= !run.ok;
    Ok(cell_records(&run.stdout).into_bytes())
}

/// Compares each streamed job with its reference and returns the
/// simulated attempts of the matching ones.
fn check_jobs(samples: &[JobSample], references: &[Vec<u8>], report: &mut Report) -> u64 {
    let mut attempts = 0;
    for s in samples {
        let ok = s.stream.as_ref().is_ok_and(|b| *b == references[s.spec]);
        report.check(ok, || match &s.stream {
            Ok(_) => format!(
                "server job for spec {} streamed other bytes than campaign --json",
                s.spec
            ),
            Err(e) => format!("server job for spec {}: {e}", s.spec),
        });
        if ok {
            let text = String::from_utf8_lossy(&references[s.spec]).into_owned();
            attempts += cell_lines(&text)
                .iter()
                .filter_map(|l| field(l, "attempts")?.parse::<u64>().ok())
                .sum::<u64>();
        }
    }
    attempts
}

/// The end-to-end run of `server_micro`: a closed loop of clients
/// against one `serve` process until `seconds` have passed.
///
/// # Errors
///
/// The server or CLI could not be run.
pub fn server_e2e(cli: &Cli, seed: u64, seconds: f64) -> Result<Report, String> {
    let workload = Workload::ServerMicro;
    let mut report = Report::default();
    let specs: Vec<JobSpec> = (0..workload.distinct_jobs())
        .map(|k| workload.spec(seed, k))
        .collect();
    let references = specs
        .iter()
        .map(|s| server_reference(cli, s, &mut report))
        .collect::<Result<Vec<_>, _>>()?;

    let mut spawns = Vec::new();
    for _ in 1..SETUPS {
        let (server, took) = ServeProcess::start(cli)?;
        spawns.push(took.as_secs_f64());
        server.stop()?;
    }
    let (server, took) = ServeProcess::start(cli)?;
    spawns.push(took.as_secs_f64());

    // Warm the template cache: a user of a long-lived server pays the
    // template build once, not per job.
    let (warm, _) = closed_loop(&server.addr, &specs[..1], 1, far_future(), Some(1), false);
    check_jobs(&warm, &references, &mut report);

    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let (samples, wall) = closed_loop(&server.addr, &specs, nproc(), until, None, false);
    let attempts = check_jobs(&samples, &references, &mut report);
    let rss = server
        .peak_rss_kib()
        .map_or(f64::NAN, |k| k as f64 / 1024.0);
    server.stop()?;

    let job_ms: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    set_e2e(
        &mut report,
        attempts as f64 / wall.as_secs_f64(),
        median(&spawns).expect("SETUPS > 0"),
        rss,
        &job_ms,
    );
    Ok(report)
}

fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// Stage-by-stage cells of one grid, with their merged counters.
#[derive(Default)]
struct Staged {
    rows: RowTimes,
    wall: Duration,
    unattributed: Duration,
    attempts: u64,
    successes: u64,
    counters: Metrics,
}

impl Staged {
    fn add(&mut self, cell: &StagedCell) {
        self.rows.add(&cell.rows);
        self.wall += cell.wall;
        self.unattributed += cell.unattributed();
        let attempts = &cell.result.stats.attempts;
        self.attempts += attempts.len() as u64;
        self.successes += attempts.iter().filter(|a| a.outcome.is_success()).count() as u64;
        if let Some(sink) = &cell.result.trace {
            self.counters.merge(sink.metrics());
        }
    }

    fn per_attempt(&self, count: u64) -> f64 {
        count as f64 / self.attempts.max(1) as f64
    }
}

/// Drives every cell of `spec`'s grid stage by stage and cross-checks
/// each against `CampaignGrid::run_cell` and, when given, against the
/// CLI's record of the cell.
fn stage_grid(
    spec: &JobSpec,
    templates: &[MachineTemplate],
    cli_lines: Option<&[&str]>,
    report: &mut Report,
) -> Result<Staged, String> {
    let grid = spec.to_grid()?.with_trace(TraceMode::Metrics);
    let params = driver_params(spec);
    let per_template = spec.seeds;
    let mut staged = Staged::default();
    for cell in grid.cells() {
        let template = &templates[cell.index / per_template];
        let ours = drive_cell(&params, spec.attempts, &cell, template, TraceMode::Metrics)
            .map_err(|e| format!("staged cell {}: {e}", cell.index))?;
        let reference = grid
            .run_cell(&cell)
            .map_err(|e| format!("run_cell {}: {e}", cell.index))?;
        let counters_match = Counter::ALL.iter().all(|&c| {
            let get = |r: &hyperhammer::CellResult| r.trace.as_ref().map(|t| t.metrics().get(c));
            get(&ours.result) == get(&reference)
        });
        report.check(ours.result == reference && counters_match, || {
            format!(
                "staged cell {} differs from CampaignGrid::run_cell",
                cell.index
            )
        });
        if let Some(lines) = cli_lines {
            let mut line = String::new();
            campaign_cell_line(&ours.result, &mut line);
            report.check(
                lines.get(cell.index).map(|l| format!("{l}\n")) == Some(line),
                || format!("staged cell {} differs from the CLI's record", cell.index),
            );
        }
        staged.add(&ours);
    }
    Ok(staged)
}

/// Prints the wall-time attribution of the staged cells.
fn print_attribution(workload: Workload, staged: &Staged) {
    let wall = ms(staged.wall);
    println!(
        "  wall-time attribution over {} attempts ({wall:.1} ms):",
        staged.attempts
    );
    let mut sum = 0.0;
    for row in Row::ALL {
        let t = ms(staged.rows.get(row));
        sum += t;
        println!(
            "    {:<30} {t:>12.3} ms  {:>6.2}%",
            row.metric(),
            100.0 * t / wall
        );
    }
    let un = ms(staged.unattributed);
    sum += un;
    println!(
        "    {:<30} {un:>12.3} ms  {:>6.2}%",
        "core.unattributed.ms",
        100.0 * un / wall
    );
    println!("    {:<30} {sum:>12.3} ms  (cell wall {wall:.3} ms)", "sum");
    if workload == Workload::TinyAttack {
        let mut stages: Vec<Row> = Row::ALL[..7].to_vec();
        stages.sort_by_key(|&r| std::cmp::Reverse(staged.rows.get(r)));
        let holds = stages[..2] == [Row::ExhaustNoise, Row::StampMagic];
        println!(
            "  ordering exhaust_noise > stamp_magic > other stages: {}",
            if holds { "reproduced" } else { "diverges" }
        );
    }
}

/// The traced run: stage-by-stage cells with counters, the layer
/// replay probes, the server probe and the tracing overhead.
///
/// # Errors
///
/// A run could not be set up.
pub fn traced(cli: &Cli, workload: Workload, seed: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let spec = workload.spec(seed, 0);
    let grid = spec.to_grid()?;
    let (build_s, templates) = template_setup(&grid);

    // Tracing overhead: the same grid through `campaign` (tracing off)
    // and `trace` (hh-trace counters on). The staged cells must
    // reproduce the campaign's records and the trace's counter totals.
    let (plain_args, traced_args) = (
        grid_args("campaign", &spec, 1),
        grid_args("trace", &spec, 1),
    );
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut records, mut counters) = (String::new(), String::new());
    let budget = Instant::now() + Duration::from_secs(2);
    while on.is_empty() || Instant::now() < budget {
        let plain = cli.run(&plain_args)?;
        let traced = cli.run(&traced_args)?;
        report.broken |= !(plain.ok && traced.ok);
        off.push(plain.wall.as_secs_f64());
        on.push(traced.wall.as_secs_f64());
        records = plain.stdout;
        counters = traced.stdout.lines().last().unwrap_or_default().to_string();
    }

    let staged = stage_grid(&spec, &templates, Some(&cell_lines(&records)), &mut report)?;
    report.check(
        Counter::ALL.iter().all(|&c| {
            field(&counters, c.name()) == Some(staged.counters.get(c).to_string().as_str())
        }),
        || format!("staged counter totals differ from `trace`: {counters}"),
    );
    print_attribution(workload, &staged);

    // Stage rows the workload's own cells never run are measured on
    // companion cells, so every row is a time: the balloon and the
    // virtio-mem variant of the same machine, then of `tiny` when the
    // machine's profile finds no usable bits (`micro`).
    let mut rows = staged.rows.clone();
    let mut row_attempts = [staged.attempts; Row::ALL.len()];
    let mut missing: Vec<Row> = Row::ALL
        .into_iter()
        .filter(|&r| staged.rows.calls(r) == 0)
        .collect();
    let base = spec.scenarios[0]
        .split('@')
        .next()
        .expect("split yields one part");
    for machine in [base, "tiny"] {
        for variant in ["@balloon", ""] {
            if missing.is_empty() {
                break;
            }
            let companion = JobSpec {
                scenarios: vec![format!("{machine}{variant}")],
                seeds: 1,
                attempts: spec.attempts.min(3),
                ..spec.clone()
            };
            let templates = companion.to_grid()?.scenario_templates();
            let extra = stage_grid(&companion, &templates, None, &mut report)?;
            let filled: Vec<Row> = missing
                .iter()
                .copied()
                .filter(|&r| extra.rows.calls(r) > 0)
                .collect();
            for &row in &filled {
                rows.copy_row(row, &extra.rows);
                row_attempts[Row::ALL.iter().position(|&r| r == row).expect("listed")] =
                    extra.attempts;
            }
            missing.retain(|r| !filled.contains(r));
            if !filled.is_empty() {
                let names: Vec<&str> = filled.iter().map(|r| r.metric()).collect();
                println!(
                    "  measured on {machine}{variant} ({} attempts): {}",
                    extra.attempts,
                    names.join(", ")
                );
            }
        }
    }
    report.broken |= !missing.is_empty();
    for (i, row) in Row::ALL.into_iter().enumerate() {
        report.set(
            row.metric(),
            ms(rows.get(row)) / row_attempts[i].max(1) as f64,
        );
    }
    report.set(
        "core.unattributed.ms",
        ms(staged.unattributed) / staged.attempts.max(1) as f64,
    );
    report.set(
        "core.unattributed.share",
        staged.unattributed.as_secs_f64() / staged.wall.as_secs_f64(),
    );
    report.set(
        "core.template_build.ms",
        build_s * 1e3 / templates.len() as f64,
    );

    let c = &staged.counters;
    for (name, counter) in [
        ("hv.viommu.maps", Counter::ViommuMaps),
        ("hv.ept.splits", Counter::EptSplits),
        ("buddy.allocs", Counter::BuddyAllocs),
        ("buddy.splits", Counter::BuddySplits),
        ("buddy.merges", Counter::BuddyMerges),
        ("buddy.exhaustions", Counter::BuddyExhaustions),
        ("dram.hammer_calls", Counter::DramHammerCalls),
    ] {
        report.set(name, staged.per_attempt(c.get(counter)));
    }
    let (hits, compiles) = (
        c.get(Counter::DramPlanHits),
        c.get(Counter::DramPlanCompiles),
    );
    report.set("dram.plan_lookups", staged.per_attempt(hits + compiles));
    report.set(
        "dram.plan_hit_ratio",
        hits as f64 / (hits + compiles).max(1) as f64,
    );
    report.set("attack.attempts", staged.attempts as f64);
    report.set(
        "attack.success_ratio",
        staged.successes as f64 / staged.attempts.max(1) as f64,
    );

    layer_probes(&grid, &templates, &staged, &spec, &mut report)?;
    server_probe(cli, seed, &mut report)?;
    report.set(
        "bench.trace_overhead_ratio",
        median(&on).expect("one run") / median(&off).expect("one run"),
    );
    Ok(report)
}

/// Calls per probe repetition: the traced cells' count per attempt,
/// kept between `lo` and `hi` so every probe is long enough to time and
/// short enough to repeat.
fn want(per_attempt: f64, lo: u64, hi: u64) -> u64 {
    (per_attempt.round() as u64).clamp(lo, hi)
}

fn layer_probes(
    grid: &CampaignGrid,
    templates: &[MachineTemplate],
    staged: &Staged,
    spec: &JobSpec,
    report: &mut Report,
) -> Result<(), String> {
    let cell = grid.cell_at(0);
    let (template, scenario, seed) = (&templates[0], &cell.scenario, cell.seed);
    let c = &staged.counters;
    let hv = |e: hh_hv::HvError| e.to_string();

    // Unmapping scans every live mapping of the group, so the pair's
    // cost grows with the live count; the cap keeps the probe short and
    // fixes the live count it measures at.
    let maps = want(staged.per_attempt(c.get(Counter::ViommuMaps)), 1_000, 8_192);
    let p = probes::viommu_map_unmap(template, scenario, seed, maps).map_err(hv)?;
    report.set("hv.viommu.map_unmap_ns", p.ns_per_call);
    let mut calls = vec![("viommu", p.calls)];
    let splits = want(staged.per_attempt(c.get(Counter::EptSplits)), 256, 8_192);
    let p = probes::ept_split(template, scenario, seed, splits).map_err(hv)?;
    report.set("hv.ept.split_ns", p.ns_per_call);
    calls.push(("ept", p.calls));
    let allocs = want(
        staged.per_attempt(c.get(Counter::BuddyAllocs)),
        1_000,
        50_000,
    );
    let p = probes::buddy_alloc_free(template, seed, allocs).map_err(hv)?;
    report.set("buddy.alloc_free_ns", p.ns_per_call);
    calls.push(("buddy", p.calls));
    let hammers = want(
        staged.per_attempt(c.get(Counter::DramHammerCalls)),
        64,
        1_024,
    );
    let (cold, warm) = probes::dram_hammer(template, scenario, seed, hammers).map_err(hv)?;
    report.set("dram.hammer_cold_ns", cold.ns_per_call);
    report.set("dram.hammer_warm_ns", warm.ns_per_call);
    calls.push(("hammer", cold.calls));
    let p = probes::store_write(template, seed, 65_536).map_err(hv)?;
    report.set("dram.store_write_ns", p.ns_per_call);
    calls.push(("store", p.calls));

    let calls: Vec<String> = calls.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!("  probe calls per repetition: {}", calls.join(", "));

    let snap = probes::snapshot_times(seed, &driver_params(spec))?;
    report.check(snap.bytes > 0, || "empty machine snapshot".into());
    report.set("snapshot.encode_ms", snap.encode_ms);
    report.set("snapshot.restore_ms", snap.restore_ms);
    report.set("snapshot.fork_ms", snap.fork_ms);
    Ok(())
}

/// The server layer on `server_micro`'s jobs: engine overhead per cell
/// against the same cells driven in process, and queue wait, stream
/// time and template hits over HTTP.
fn server_probe(cli: &Cli, seed: u64, report: &mut Report) -> Result<(), String> {
    let workload = Workload::ServerMicro;
    let spec = JobSpec {
        jobs: Some(1),
        ..workload.spec(seed, 0)
    };

    // In process: the engine's job wall time against the sum of the
    // same cells' stage-by-stage wall times on warm templates.
    let manager = hh_server::JobManager::new(campaign_cell_line);
    let grid = spec.to_grid()?;
    let templates = grid.scenario_templates();
    let params = driver_params(&spec);
    let job = |report: &mut Report| -> Result<f64, String> {
        let start = Instant::now();
        let id = manager.submit(spec.clone())?;
        let done = manager.wait(id).ok_or("submitted job vanished")?;
        report.check(done.status == hh_server::JobStatus::Done, || {
            format!("engine job ended {:?}", done.status)
        });
        Ok(ms(start.elapsed()))
    };
    // On a thread of its own, as the engine's worker runs them: the
    // allocator serves the main thread from a different arena.
    let cells = || -> Result<f64, String> {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut sum = 0.0;
                    for cell in grid.cells() {
                        let t = &templates[cell.index / spec.seeds];
                        let staged = drive_cell(&params, spec.attempts, &cell, t, TraceMode::Off)
                            .map_err(|e| e.to_string())?;
                        sum += ms(staged.wall);
                    }
                    Ok(sum)
                })
                .join()
                .expect("staged cells panicked")
        })
    };
    // The first job builds the manager's templates. The pairs then
    // alternate which side runs first, so drift cancels.
    job(report)?;
    let mut overhead_ms = Vec::new();
    for rep in 0..16 {
        let (j, c) = if rep % 2 == 0 {
            (job(report)?, cells()?)
        } else {
            let c = cells()?;
            (job(report)?, c)
        };
        overhead_ms.push(j - c);
    }
    manager.shutdown();
    manager.join();
    let overhead = median(&overhead_ms).expect("jobs ran");
    report.set("engine.overhead_ms_per_cell", overhead / grid.len() as f64);

    // Over HTTP: a closed loop of clients, each polling its job's status
    // until it leaves the queue.
    let specs: Vec<JobSpec> = (0..workload.distinct_jobs())
        .map(|k| workload.spec(seed, k))
        .collect();
    let references = specs
        .iter()
        .map(|s| server_reference(cli, s, report))
        .collect::<Result<Vec<_>, _>>()?;
    let (server, _) = ServeProcess::start(cli)?;
    let (samples, _) = closed_loop(&server.addr, &specs, nproc(), far_future(), Some(12), true);
    check_jobs(&samples, &references, report);
    let metrics = Client::new(&server.addr).metrics()?;
    server.stop()?;
    let queue: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.queue_wait.map(ms))
        .collect();
    let stream: Vec<f64> = samples
        .iter()
        .filter_map(|s| Some(ms(s.latency - s.queue_wait?)))
        .collect();
    let hits = metrics_counter(&metrics, Counter::ServerTemplateHits.name())
        .ok_or("no template hits counter")?;
    let misses = metrics_counter(&metrics, Counter::ServerTemplateMisses.name())
        .ok_or("no template misses counter")?;
    report.set("server.queue_wait_ms", median(&queue).unwrap_or(f64::NAN));
    report.set("server.stream_ms", median(&stream).unwrap_or(f64::NAN));
    report.set(
        "server.template_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}
