//! Streaming campaign reducers: bounded-memory aggregation and
//! grid-order shard spill/merge.
//!
//! A 10⁵–10⁶-cell campaign (Table-3-style sweeps at production scale)
//! cannot hold every [`CellResult`] and trace arena in RAM. This module
//! supplies the per-worker state that
//! [`CampaignGrid::stream`](crate::parallel::CampaignGrid::stream)
//! folds finished cells into:
//!
//! * [`CampaignAggregate`] — success counts, flip histograms and
//!   per-stage time quantiles via [`QuantileSketch`], a deterministic
//!   mergeable sketch. Every field is a commutative sum, so merging the
//!   per-worker aggregates yields the same totals no matter how the
//!   scheduler partitioned the grid.
//! * [`ShardWriter`] — spills each cell's serialized NDJSON record to
//!   disk as the cell finishes. A worker's consecutive indices go to
//!   one shard file, so every shard is a sorted contiguous index run;
//!   [`merge_shards`] concatenates the runs in grid order, producing
//!   output byte-identical to serializing an in-memory run — for any
//!   `--jobs`, because each cell's bytes are a pure function of the
//!   cell.
//!
//! The memory story: a streaming run holds O(workers) aggregates, one
//! open spill file per [`ShardWriter`], and one recycled trace arena
//! per worker — never a whole-campaign buffer.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use hh_trace::{Counter, Stage, TraceSink};

use crate::driver::AttemptOutcome;
use crate::machine::AttackVariant;
use crate::parallel::{CellConsumer, CellResult};

/// A deterministic, mergeable quantile sketch over `u64` samples.
///
/// Samples land in 65 power-of-two buckets (bucket `b` holds values
/// whose bit length is `b`), so recording is order-insensitive and
/// [`merge`](Self::merge) is element-wise addition — two workers'
/// sketches combine into exactly the sketch a single worker would have
/// built. Quantile queries return the upper bound of the selected
/// bucket: a conservative estimate with bounded (2×) relative error,
/// which is what a campaign summary needs from stage latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: [u64; 65],
    count: u64,
    total: u128,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            total: 0,
        }
    }
}

impl QuantileSketch {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total += u128::from(value);
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total as f64 / self.count as f64
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1: the rank of the sample we want.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match b {
                    0 => 0,
                    64 => u64::MAX,
                    b => (1u64 << b) - 1,
                };
            }
        }
        u64::MAX
    }

    /// Adds another sketch's samples into this one.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total += other.total;
    }
}

/// Incremental whole-campaign aggregate: what the streaming path can
/// still report once per-cell results are spilled to disk.
///
/// Built per worker, merged across workers — every field is a
/// commutative, associative fold of per-cell contributions, so the
/// merged aggregate is independent of scheduling (and equals a serial
/// fold in grid order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignAggregate {
    /// Cells observed.
    pub cells: u64,
    /// Cells whose campaign reached a success.
    pub succeeded: u64,
    /// Attempts across all cells.
    pub attempts: u64,
    /// Attempts abandoned by a transient fault outliving its retries.
    pub aborted_attempts: u64,
    /// Catalogued exploitable bits per cell.
    pub catalog_bits: QuantileSketch,
    /// Per-attempt simulated duration (nanoseconds).
    pub attempt_nanos: QuantileSketch,
    /// Simulated time to first success (nanoseconds; successes only).
    pub success_nanos: QuantileSketch,
    /// DRAM bit flips per cell (traced runs only — untraced cells
    /// contribute no samples).
    pub flips: QuantileSketch,
    /// Per-cell simulated nanoseconds spent in each pipeline stage
    /// (traced runs only), indexed by [`Stage::index`] order.
    pub stage_nanos: [QuantileSketch; Stage::COUNT],
    /// Cells observed per attack variant, indexed by
    /// [`AttackVariant::index`] — the raw material of the per-variant
    /// comparison report on the streamed path.
    pub variant_cells: [u64; AttackVariant::COUNT],
    /// Successful cells per attack variant, same indexing.
    pub variant_succeeded: [u64; AttackVariant::COUNT],
    /// Attempts per attack variant, same indexing.
    pub variant_attempts: [u64; AttackVariant::COUNT],
}

impl CampaignAggregate {
    /// Folds one finished cell into the aggregate.
    pub fn observe(&mut self, result: &CellResult) {
        self.cells += 1;
        let v = result.variant.index();
        self.variant_cells[v] += 1;
        if result.stats.first_success().is_some() {
            self.succeeded += 1;
            self.variant_succeeded[v] += 1;
        }
        self.attempts += result.stats.attempts.len() as u64;
        self.variant_attempts[v] += result.stats.attempts.len() as u64;
        self.catalog_bits.record(result.catalog_bits as u64);
        for attempt in &result.stats.attempts {
            if matches!(attempt.outcome, AttemptOutcome::Aborted(_)) {
                self.aborted_attempts += 1;
            }
            self.attempt_nanos.record(attempt.duration.as_nanos());
        }
        if let Some(t) = result.stats.time_to_first_success() {
            self.success_nanos.record(t.as_nanos());
        }
        if let Some(sink) = &result.trace {
            let metrics = sink.metrics();
            self.flips.record(metrics.get(Counter::DramBitFlips));
            for stage in Stage::ALL {
                self.stage_nanos[stage.index()].record(metrics.stage_nanos(stage));
            }
        }
    }

    /// Adds another worker's aggregate into this one.
    pub fn merge(&mut self, other: &Self) {
        self.cells += other.cells;
        self.succeeded += other.succeeded;
        self.attempts += other.attempts;
        self.aborted_attempts += other.aborted_attempts;
        self.catalog_bits.merge(&other.catalog_bits);
        self.attempt_nanos.merge(&other.attempt_nanos);
        self.success_nanos.merge(&other.success_nanos);
        self.flips.merge(&other.flips);
        for (mine, theirs) in self.stage_nanos.iter_mut().zip(other.stage_nanos.iter()) {
            mine.merge(theirs);
        }
        for i in 0..AttackVariant::COUNT {
            self.variant_cells[i] += other.variant_cells[i];
            self.variant_succeeded[i] += other.variant_succeeded[i];
            self.variant_attempts[i] += other.variant_attempts[i];
        }
    }

    /// Merges a slice of per-worker aggregates into one.
    pub fn merged(parts: &[Self]) -> Self {
        let mut out = Self::default();
        for part in parts {
            out.merge(part);
        }
        out
    }
}

/// One spill file: a contiguous run of grid indices starting at
/// `start`, `count` cells long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// First grid index in the file.
    pub start: usize,
    /// Number of cells the file covers.
    pub count: usize,
    /// The file's path.
    pub path: PathBuf,
}

/// Spills per-cell NDJSON payloads to sorted shard files.
///
/// Workers receive ascending indices within each work-stealing chunk;
/// whenever the next index is not `previous + 1` the writer closes the
/// current shard and opens a new one named after the run's start index.
/// Every shard is therefore a sorted, contiguous, disjoint index run,
/// and [`merge_shards`] restores full grid order by concatenation.
#[derive(Debug)]
pub struct ShardWriter {
    dir: PathBuf,
    prefix: String,
    current: Option<(BufWriter<File>, usize)>,
    shards: Vec<ShardInfo>,
}

impl ShardWriter {
    /// Creates a writer spilling `prefix`-named shards into `dir`
    /// (which must exist).
    pub fn new(dir: &Path, prefix: &str) -> Self {
        Self {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            current: None,
            shards: Vec::new(),
        }
    }

    /// Appends cell `index`'s payload (zero or more complete
    /// newline-terminated lines).
    ///
    /// # Errors
    ///
    /// Propagates spill I/O failures.
    pub fn append(&mut self, index: usize, payload: &str) -> io::Result<()> {
        let continues = matches!(self.current, Some((_, next)) if next == index);
        if !continues {
            self.finish_current()?;
            let path = self
                .dir
                .join(format!("{}-{index:010}.ndjson.part", self.prefix));
            self.shards.push(ShardInfo {
                start: index,
                count: 0,
                path: path.clone(),
            });
            self.current = Some((BufWriter::new(File::create(path)?), index));
        }
        let (writer, next) = self.current.as_mut().expect("opened above");
        writer.write_all(payload.as_bytes())?;
        *next = index + 1;
        let shard = self.shards.last_mut().expect("pushed above");
        shard.count = index + 1 - shard.start;
        Ok(())
    }

    /// Flushes and closes the open shard, if any.
    fn finish_current(&mut self) -> io::Result<()> {
        if let Some((writer, _)) = self.current.take() {
            writer.into_inner().map_err(io::Error::other)?.sync_all()?;
        }
        Ok(())
    }

    /// Finishes writing and returns the shard manifest.
    ///
    /// # Errors
    ///
    /// Propagates the final flush's I/O failure.
    pub fn finish(mut self) -> io::Result<Vec<ShardInfo>> {
        self.finish_current()?;
        Ok(self.shards)
    }
}

/// Concatenates shards in grid order into `out`, verifying that they
/// tile `0..cells` exactly, and deletes each spill file once copied.
///
/// # Errors
///
/// `InvalidData` when the shards overlap or leave coverage gaps
/// (a worker died or a manifest is stale); otherwise I/O failures.
pub fn merge_shards(
    mut shards: Vec<ShardInfo>,
    cells: usize,
    out: &mut impl Write,
) -> io::Result<()> {
    shards.sort_by_key(|s| s.start);
    let mut next = 0usize;
    for shard in &shards {
        if shard.start != next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard coverage broken at cell {next}: next shard starts at {} ({})",
                    shard.start,
                    shard.path.display()
                ),
            ));
        }
        next += shard.count;
    }
    if next != cells {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shards cover {next} cells, grid has {cells}"),
        ));
    }
    let mut buf = [0u8; 64 * 1024];
    for shard in &shards {
        let mut file = File::open(&shard.path)?;
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            out.write_all(&buf[..n])?;
        }
        std::fs::remove_file(&shard.path)?;
    }
    out.flush()
}

/// The standard streaming consumer: folds every cell into a
/// [`CampaignAggregate`], spills the cell's NDJSON record (and,
/// when tracing, its event lines) to shards, and hands the spent trace
/// sink back for arena reuse.
///
/// `fmt_cell` and `fmt_trace` append complete newline-terminated lines
/// for one cell; they must be pure functions of the [`CellResult`] so
/// shard contents stay scheduling-independent.
pub struct CampaignStreamer<FC, FT> {
    aggregate: CampaignAggregate,
    cells: ShardWriter,
    traces: Option<ShardWriter>,
    fmt_cell: FC,
    fmt_trace: FT,
    line: String,
}

impl<FC, FT> std::fmt::Debug for CampaignStreamer<FC, FT> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignStreamer")
            .field("aggregate", &self.aggregate)
            .field("cells", &self.cells)
            .field("traces", &self.traces)
            .finish_non_exhaustive()
    }
}

impl<FC, FT> CampaignStreamer<FC, FT>
where
    FC: Fn(&CellResult, &mut String),
    FT: Fn(&CellResult, &mut String),
{
    /// Creates worker `worker`'s streamer, spilling into `dir`. Pass
    /// `with_traces = true` to spill per-event trace lines alongside
    /// the cell records.
    pub fn new(dir: &Path, worker: usize, with_traces: bool, fmt_cell: FC, fmt_trace: FT) -> Self {
        // Worker id in the prefix keeps two workers from ever opening
        // the same spill file; merge order is by start index alone, so
        // the rest of the name is free.
        Self {
            aggregate: CampaignAggregate::default(),
            cells: ShardWriter::new(dir, &format!("cells-w{worker}")),
            traces: with_traces.then(|| ShardWriter::new(dir, &format!("trace-w{worker}"))),
            fmt_cell,
            fmt_trace,
            line: String::new(),
        }
    }

    /// The worker's aggregate so far.
    pub const fn aggregate(&self) -> &CampaignAggregate {
        &self.aggregate
    }

    /// Finishes spilling; returns the aggregate plus the cell-record
    /// and trace shard manifests.
    ///
    /// # Errors
    ///
    /// Propagates the final flush's I/O failure.
    pub fn finish(self) -> io::Result<(CampaignAggregate, Vec<ShardInfo>, Vec<ShardInfo>)> {
        let cells = self.cells.finish()?;
        let traces = match self.traces {
            Some(w) => w.finish()?,
            None => Vec::new(),
        };
        Ok((self.aggregate, cells, traces))
    }
}

impl<FC, FT> CellConsumer for CampaignStreamer<FC, FT>
where
    FC: Fn(&CellResult, &mut String),
    FT: Fn(&CellResult, &mut String),
{
    fn consume(&mut self, index: usize, mut result: CellResult) -> io::Result<Option<TraceSink>> {
        self.aggregate.observe(&result);
        self.line.clear();
        (self.fmt_cell)(&result, &mut self.line);
        self.cells.append(index, &self.line)?;
        if let Some(traces) = &mut self.traces {
            self.line.clear();
            (self.fmt_trace)(&result, &mut self.line);
            traces.append(index, &self.line)?;
        }
        Ok(result.trace.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_quantiles_bound_their_samples() {
        let mut s = QuantileSketch::default();
        for v in [0u64, 1, 2, 3, 100, 1_000, 65_535, 1 << 40] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        // Every quantile is an upper bound of some recorded sample's
        // bucket: p0 covers the smallest sample, p100 the largest.
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), (1u64 << 41) - 1);
        let p50 = s.quantile(0.5);
        assert!((3..=127).contains(&p50), "median bucket bound, got {p50}");
        assert!(s.mean() > 0.0);
        assert_eq!(QuantileSketch::default().quantile(0.5), 0);
    }

    #[test]
    fn sketch_merge_is_order_insensitive() {
        let samples: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let mut whole = QuantileSketch::default();
        for &v in &samples {
            whole.record(v);
        }
        // Any partition, folded in any order, merges to the same sketch.
        let mut left = QuantileSketch::default();
        let mut right = QuantileSketch::default();
        for (i, &v) in samples.iter().enumerate() {
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = QuantileSketch::default();
        merged.merge(&right);
        merged.merge(&left);
        assert_eq!(merged, whole);
    }

    #[test]
    fn shard_writer_splits_on_noncontiguous_indices() {
        let dir = std::env::temp_dir().join(format!("hh-shards-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = ShardWriter::new(&dir, "cells");
        // Two contiguous runs: 0..3 and 7..9 (a stolen chunk).
        for i in 0..3 {
            w.append(i, &format!("cell {i}\n")).unwrap();
        }
        for i in 7..9 {
            w.append(i, &format!("cell {i}\n")).unwrap();
        }
        let shards = w.finish().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!((shards[0].start, shards[0].count), (0, 3));
        assert_eq!((shards[1].start, shards[1].count), (7, 2));

        // Fill the gap from a "second worker" and merge.
        let mut w2 = ShardWriter::new(&dir, "cells");
        for i in 3..7 {
            w2.append(i, &format!("cell {i}\n")).unwrap();
        }
        let mut all = shards;
        all.extend(w2.finish().unwrap());
        let mut out = Vec::new();
        merge_shards(all, 9, &mut out).unwrap();
        let expected: String = (0..9).map(|i| format!("cell {i}\n")).collect();
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_gaps_and_overlaps() {
        let gap = vec![ShardInfo {
            start: 1,
            count: 2,
            path: PathBuf::from("/nonexistent"),
        }];
        assert!(merge_shards(gap, 3, &mut Vec::new()).is_err());
        let short = vec![ShardInfo {
            start: 0,
            count: 2,
            path: PathBuf::from("/nonexistent"),
        }];
        assert!(merge_shards(short, 3, &mut Vec::new()).is_err());
        // Empty grid: zero shards merge to zero bytes.
        let mut out = Vec::new();
        merge_shards(Vec::new(), 0, &mut out).unwrap();
        assert!(out.is_empty());
    }
}
