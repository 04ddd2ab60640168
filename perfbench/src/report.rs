//! The metric catalogue and the result line the benchmark prints.

/// One metric: its name, unit, and what it is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The end-to-end metric and workload a change to this metric
    /// should move (for per-layer metrics), or what it measures.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef { name, unit, moves }
}

/// Metrics of a `--trace 0` run, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "attempts_per_s",
        "1/s",
        "simulated attack attempts completed per host second",
    ),
    m(
        "setup_s",
        "s",
        "fixed start-up: the grid's machine templates, or serve spawn until /healthz",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        "peak RSS of the CLI or server process",
    ),
    m(
        "job_ms_p50",
        "ms",
        "median job latency: CLI spawn to exit, or submit to last NDJSON line",
    ),
    m(
        "job_ms_tail",
        "ms",
        "job latency at the highest percentile with ten jobs beyond it",
    ),
];

/// Metrics of a `--trace 1` run. Stage rows and counts are per
/// simulated attempt of the workload's own cells.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "core.exhaust_noise.ms",
        "ms/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "core.stamp_magic.ms",
        "ms/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "core.release_hugepages.ms",
        "ms/attempt",
        "attempts_per_s on tiny_attack and variant_mix",
    ),
    m(
        "core.spray_ept.ms",
        "ms/attempt",
        "attempts_per_s on tiny_attack and variant_mix",
    ),
    m(
        "core.balloon_steer.ms",
        "ms/attempt",
        "attempts_per_s on variant_mix",
    ),
    m(
        "core.profile.ms",
        "ms/attempt",
        "attempts_per_s on s1_profile",
    ),
    m(
        "core.exploit.ms",
        "ms/attempt",
        "attempts_per_s on s1_profile",
    ),
    m(
        "core.vm_respawn.ms",
        "ms/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "core.unattributed.ms",
        "ms/attempt",
        "attempts_per_s on every workload",
    ),
    m(
        "core.unattributed.share",
        "ratio",
        "share of the cells' wall time no row accounts for",
    ),
    m("core.template_build.ms", "ms", "setup_s on s1_profile"),
    m(
        "core.template_instantiate.ms",
        "ms/attempt",
        "attempts_per_s on server_micro",
    ),
    m(
        "hv.viommu.maps",
        "count/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "hv.viommu.map_unmap_ns",
        "ns/call",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "hv.ept.splits",
        "count/attempt",
        "attempts_per_s on tiny_attack and variant_mix",
    ),
    m(
        "hv.ept.split_ns",
        "ns/call",
        "attempts_per_s on tiny_attack and variant_mix",
    ),
    m(
        "buddy.allocs",
        "count/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "buddy.splits",
        "count/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "buddy.merges",
        "count/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "buddy.exhaustions",
        "count/attempt",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "buddy.alloc_free_ns",
        "ns/call",
        "attempts_per_s on tiny_attack and variant_mix",
    ),
    m(
        "dram.hammer_calls",
        "count/attempt",
        "attempts_per_s on s1_profile",
    ),
    m(
        "dram.plan_lookups",
        "count/attempt",
        "base of dram.plan_hit_ratio",
    ),
    m(
        "dram.plan_hit_ratio",
        "ratio",
        "attempts_per_s on s1_profile",
    ),
    m(
        "dram.hammer_cold_ns",
        "ns/call",
        "attempts_per_s on s1_profile",
    ),
    m(
        "dram.hammer_warm_ns",
        "ns/call",
        "attempts_per_s on s1_profile",
    ),
    m(
        "dram.store_write_ns",
        "ns/call",
        "attempts_per_s on tiny_attack",
    ),
    m(
        "snapshot.encode_ms",
        "ms",
        "nothing today; a fork-based respawn would move tiny_attack",
    ),
    m(
        "snapshot.restore_ms",
        "ms",
        "nothing today; a fork-based respawn would move tiny_attack",
    ),
    m(
        "snapshot.fork_ms",
        "ms",
        "nothing today; a fork-based respawn would move tiny_attack",
    ),
    m(
        "engine.overhead_ms_per_cell",
        "ms/cell",
        "job_ms_p50 on server_micro",
    ),
    m("server.queue_wait_ms", "ms", "job_ms_p50 on server_micro"),
    m("server.stream_ms", "ms", "job_ms_p50 on server_micro"),
    m(
        "server.template_hit_ratio",
        "ratio",
        "job_ms_p50 on server_micro",
    ),
    m("attack.attempts", "count", "base of attack.success_ratio"),
    m(
        "attack.success_ratio",
        "ratio",
        "nothing: a speed-only change must leave it exactly as is",
    ),
    m(
        "bench.trace_overhead_ratio",
        "ratio",
        "nothing: traced over untraced wall time of the same grid",
    ),
];

/// One run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Units attempted: CLI cells, server jobs, cross-checked cells.
    pub attempted: u64,
    /// Units that failed or produced output other than the reference.
    pub failed: u64,
    /// A check outside the per-unit counts failed.
    pub broken: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one attempted unit and whether it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Sets a catalogued metric, printing it with its unit.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            self.broken = true;
        }
        println!("  {name:<32} {value:>16.6} {:<14} {}", def.unit, def.moves);
        self.metrics.push((name.to_string(), value, def.unit));
    }

    /// Names set so far.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Folds another run's counts in, and its metrics under
    /// `prefix.name`, so one line can report several workloads.
    pub fn absorb_prefixed(&mut self, prefix: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.broken |= other.broken;
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .map(|(name, value, unit)| (format!("{prefix}.{name}"), value, unit)),
        );
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        !self.broken && self.failed == 0 && self.attempted > 0
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
