//! Streaming equivalence (satellite of the bounded-memory PR): the
//! spill-shard streaming path must be byte-identical to serializing an
//! in-memory run — for every worker count, with and without tracing,
//! and including the awkward shapes (empty grid, one cell, more
//! workers than cells, faulted campaigns with aborted attempts).

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use hh_hv::FaultConfig;
use hh_trace::TraceMode;
use hyperhammer::driver::{AttemptOutcome, DriverParams};
use hyperhammer::machine::Scenario;
use hyperhammer::parallel::{CampaignGrid, CellResult, RunOpts, StreamError};
use hyperhammer::steering::RetryPolicy;
use hyperhammer::streamref::{merge_shards, CampaignAggregate, CampaignStreamer};

/// The formatters must be pure functions of the cell; `Debug` of the
/// stats is deterministic and covers every field the CLI would print.
fn fmt_cell(result: &CellResult, out: &mut String) {
    writeln!(
        out,
        "{{\"scenario\":\"{}\",\"seed\":{},\"bits\":{},\"stats\":\"{:?}\"}}",
        result.scenario, result.seed, result.catalog_bits, result.stats
    )
    .expect("write to String");
}

fn fmt_trace(result: &CellResult, out: &mut String) {
    if let Some(sink) = &result.trace {
        for event in sink.events() {
            writeln!(out, "{} {event:?}", sink.cell()).expect("write to String");
        }
    }
}

type Fmt = fn(&CellResult, &mut String);

/// Everything the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Output {
    cells: String,
    traces: String,
    aggregate: CampaignAggregate,
}

/// The in-memory reference: run serially, serialize in grid order,
/// fold the aggregate in grid order.
fn in_memory(grid: &CampaignGrid) -> Result<Output, StreamError> {
    let results = grid.run_serial()?;
    let mut out = Output {
        cells: String::new(),
        traces: String::new(),
        aggregate: CampaignAggregate::default(),
    };
    for result in &results {
        out.aggregate.observe(result);
        fmt_cell(result, &mut out.cells);
        fmt_trace(result, &mut out.traces);
    }
    Ok(out)
}

/// The streaming path: exactly `jobs` OS threads (no parallelism
/// clamp), per-worker spill shards, grid-order merge.
fn streamed(
    grid: &CampaignGrid,
    jobs: usize,
    with_traces: bool,
    dir: &Path,
) -> Result<Output, StreamError> {
    let jobs = NonZeroUsize::new(jobs).expect("non-zero jobs");
    let opts = RunOpts {
        jobs,
        ..RunOpts::new(jobs)
    };
    let consumers = grid.stream(&opts, |worker| {
        CampaignStreamer::new(dir, worker, with_traces, fmt_cell as Fmt, fmt_trace as Fmt)
    })?;
    let mut aggregates = Vec::new();
    let mut cell_shards = Vec::new();
    let mut trace_shards = Vec::new();
    for consumer in consumers {
        let (aggregate, cells, traces) = consumer.finish().expect("spill flush");
        aggregates.push(aggregate);
        cell_shards.extend(cells);
        trace_shards.extend(traces);
    }
    let mut cells = Vec::new();
    merge_shards(cell_shards, grid.len(), &mut cells).expect("cell shards tile the grid");
    let mut traces = Vec::new();
    if with_traces {
        merge_shards(trace_shards, grid.len(), &mut traces).expect("trace shards tile the grid");
    }
    Ok(Output {
        cells: String::from_utf8(cells).expect("shards hold UTF-8 lines"),
        traces: String::from_utf8(traces).expect("shards hold UTF-8 lines"),
        aggregate: CampaignAggregate::merged(&aggregates),
    })
}

/// A scratch dir under the system temp root, removed on drop so failed
/// assertions don't strand spill files across runs.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hh-stream-eq-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn micro_grid(cells: usize, trace: TraceMode) -> CampaignGrid {
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    };
    CampaignGrid::new(vec![Scenario::micro_demo()], params, 2)
        .with_seed_count(0x57e4_11ed, cells)
        .with_trace(trace)
}

/// Asserts byte-identity (cells, traces, merged aggregate) between the
/// in-memory reference and the streaming path at several worker counts.
fn assert_equivalent(grid: &CampaignGrid, with_traces: bool, tag: &str) {
    let reference = in_memory(grid).expect("reference grid runs");
    for jobs in [1usize, 2, 8] {
        let scratch = ScratchDir::new(&format!("{tag}-j{jobs}"));
        let got = streamed(grid, jobs, with_traces, &scratch.0).expect("streamed grid runs");
        assert_eq!(
            got, reference,
            "{tag}: streaming diverged from in-memory at {jobs} workers"
        );
    }
}

#[test]
fn traced_grid_streams_byte_identically_at_1_2_8_workers() {
    assert_equivalent(&micro_grid(6, TraceMode::Full), true, "traced");
}

#[test]
fn untraced_grid_streams_byte_identically() {
    let grid = micro_grid(5, TraceMode::Off);
    assert_equivalent(&grid, false, "untraced");
    // Untraced cells contribute no flip samples — the aggregate must
    // reflect that rather than recording zeros.
    let reference = in_memory(&grid).expect("reference grid runs");
    assert_eq!(reference.aggregate.flips.count(), 0);
    assert_eq!(reference.aggregate.cells, 5);
}

#[test]
fn empty_grid_streams_to_empty_output() {
    let params = DriverParams {
        bits_per_attempt: 4,
        ..DriverParams::paper()
    };
    let grid = CampaignGrid::new(Vec::new(), params, 2).with_trace(TraceMode::Full);
    assert!(grid.is_empty());
    for jobs in [1usize, 4] {
        let scratch = ScratchDir::new(&format!("empty-j{jobs}"));
        let got = streamed(&grid, jobs, true, &scratch.0).expect("empty grid streams");
        assert_eq!(got.cells, "");
        assert_eq!(got.traces, "");
        assert_eq!(got.aggregate, CampaignAggregate::default());
    }
}

#[test]
fn single_cell_and_more_workers_than_cells_match() {
    assert_equivalent(&micro_grid(1, TraceMode::Full), true, "one-cell");
    // 3 cells on up to 8 workers: most workers never see a cell and
    // must contribute empty shard manifests, not coverage gaps.
    assert_equivalent(&micro_grid(3, TraceMode::Full), true, "starved-workers");
}

/// A grid spanning every attack variant streams byte-identically too —
/// variant cells spill, merge and aggregate like any other, and the
/// aggregate's per-variant counters tile the totals exactly.
#[test]
fn variant_grid_streams_byte_identically() {
    use hyperhammer::machine::AttackVariant;
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    };
    let scenarios: Vec<Scenario> = AttackVariant::ALL
        .iter()
        .map(|v| Scenario::tiny_demo().with_variant(*v))
        .collect();
    let grid = CampaignGrid::new(scenarios, params, 2)
        .with_seed_count(0x7a57e, 1)
        .with_trace(TraceMode::Full);
    assert_equivalent(&grid, true, "variants");

    let reference = in_memory(&grid).expect("reference grid runs");
    let agg = &reference.aggregate;
    assert_eq!(agg.variant_cells.iter().sum::<u64>(), agg.cells);
    assert_eq!(agg.variant_attempts.iter().sum::<u64>(), agg.attempts);
    assert_eq!(agg.variant_succeeded.iter().sum::<u64>(), agg.succeeded);
    assert_eq!(
        agg.variant_cells,
        [1; AttackVariant::COUNT],
        "one cell per variant lands in its own counter slot"
    );
}

/// Faulted campaigns stream identically too — aborted attempts and
/// their trace events are per-cell state, so scheduling cannot move
/// them between cells.
#[test]
fn faulted_campaign_with_aborted_cells_streams_identically() {
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        retry: RetryPolicy::none(),
        ..DriverParams::paper()
    };
    // Same rate regime as the chaos tests: ~10⁵ choke-point draws per
    // attempt, so 3e-6 aborts a sizeable fraction of attempts.
    let grid = CampaignGrid::new(vec![Scenario::tiny_demo()], params, 4)
        .with_faults(FaultConfig::uniform(3e-6).with_seed(0xabad_fa57))
        .with_seed_count(0x5eed_cafe, 2)
        .with_trace(TraceMode::Full);

    let reference = in_memory(&grid).expect("faulted reference runs");
    assert!(
        reference.aggregate.aborted_attempts > 0,
        "fault seed produced no aborted attempts — the test is vacuous"
    );
    for jobs in [1usize, 2, 8] {
        let scratch = ScratchDir::new(&format!("faulted-j{jobs}"));
        let got = streamed(&grid, jobs, true, &scratch.0).expect("faulted grid streams");
        assert_eq!(
            got, reference,
            "faulted streaming diverged from in-memory at {jobs} workers"
        );
    }
}

/// When a cell dies, the streaming run must report the same grid-order
/// first error the in-memory path would, at every worker count.
#[test]
fn streaming_reports_the_grid_order_first_error() {
    // A brutal fault rate with zero retries kills cells during
    // profiling, before any attempt exists. Attempt-stage faults only
    // abort attempts (not the cell), so probe fault seeds for one that
    // actually dies rather than pinning a curated survivor.
    let grid_for = |fault_seed: u64| {
        let params = DriverParams {
            bits_per_attempt: 4,
            retry: RetryPolicy::none(),
            ..DriverParams::paper()
        };
        CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2)
            .with_faults(FaultConfig::uniform(0.9).with_seed(fault_seed))
            .with_seed_count(0xfa57_5eed, 2)
    };
    let (grid, reference) = (0u64..8)
        .find_map(|s| {
            let grid = grid_for(0xdead_beef ^ s);
            grid.run_serial().err().map(|e| (grid, e))
        })
        .expect("a 90% fault rate with no retries kills some cell");
    for jobs in [1usize, 2, 8] {
        let scratch = ScratchDir::new(&format!("error-j{jobs}"));
        let err = streamed(&grid, jobs, false, &scratch.0)
            .expect_err("streamed run must fail like the serial one");
        match err {
            StreamError::Hv(e) => assert_eq!(
                e, reference,
                "streaming surfaced a different first error at {jobs} workers"
            ),
            StreamError::Io(e) => panic!("expected a hypervisor error, got I/O: {e}"),
            StreamError::Cancelled => panic!("expected a hypervisor error, got cancellation"),
        }
    }
}

/// The merged aggregate is a plain fold of the serial results — spot
/// check the headline numbers against a hand fold.
#[test]
fn aggregate_matches_a_hand_fold_of_serial_results() {
    let grid = micro_grid(4, TraceMode::Off);
    let results = grid.run_serial().expect("serial grid runs");
    let scratch = ScratchDir::new("hand-fold");
    let got = streamed(&grid, 2, false, &scratch.0).expect("streamed grid runs");

    let attempts: u64 = results.iter().map(|r| r.stats.attempts.len() as u64).sum();
    let succeeded = results
        .iter()
        .filter(|r| r.stats.first_success().is_some())
        .count() as u64;
    let aborted = results
        .iter()
        .flat_map(|r| r.stats.attempts.iter())
        .filter(|a| matches!(a.outcome, AttemptOutcome::Aborted(_)))
        .count() as u64;
    assert_eq!(got.aggregate.cells, 4);
    assert_eq!(got.aggregate.attempts, attempts);
    assert_eq!(got.aggregate.succeeded, succeeded);
    assert_eq!(got.aggregate.aborted_attempts, aborted);
    assert_eq!(got.aggregate.catalog_bits.count(), 4);
}
