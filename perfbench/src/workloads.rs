//! The benchmark's workloads: which campaign grid each one runs and
//! why. Every grid is a [`JobSpec`], so the CLI arguments, the server
//! job body and the in-process reference all describe the same cells.

use hh_sim::rng::SimRng;
use hyperhammer::JobSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `campaign --scenarios tiny`: noise exhaustion, magic stamping and
    /// VM respawn dominate. No `tiny` cell succeeds within 50 attempts at
    /// 12 bits, so every seed runs the same number of attempts.
    TinyAttack,
    /// `campaign --scenarios s1`: the paper-scale 16 GiB host, dominated
    /// by profiling (DRAM hammer, plan compile, scan) and memory.
    S1Profile,
    /// `campaign --scenarios tiny@balloon,tiny@gbhammer,tiny@xen`: the
    /// same buddy and hypervisor layers driven through the §6 variants.
    VariantMix,
    /// Closed loop of clients submitting small `micro@all` jobs to a
    /// long-lived `serve` process: per-cell fixed costs, JSON and HTTP.
    ServerMicro,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::TinyAttack,
        Workload::S1Profile,
        Workload::VariantMix,
        Workload::ServerMicro,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TinyAttack => "tiny_attack",
            Workload::S1Profile => "s1_profile",
            Workload::VariantMix => "variant_mix",
            Workload::ServerMicro => "server_micro",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign grid of one timed job. `index` picks among the
    /// [`Workload::distinct_jobs`] a run cycles through; the first one
    /// takes the run's seed as its `--base-seed`.
    pub fn spec(self, seed: u64, index: u64) -> JobSpec {
        let base_seed = if index == 0 {
            seed
        } else {
            SimRng::split_seed(seed, index)
        };
        let (scenarios, seeds, attempts): (&[&str], usize, usize) = match self {
            Workload::TinyAttack => (&["tiny"], 1, 50),
            Workload::S1Profile => (&["s1"], 1, 3),
            // One attempt per cell: campaigns stop at the first success,
            // and gbhammer and balloon cells succeed after a number of
            // attempts that swings with the seed. A fixed attempt count
            // keeps the work per seed the same; eight seeds per variant
            // keep the balloon and gbhammer paths a steady share.
            Workload::VariantMix => (&["tiny@balloon", "tiny@gbhammer", "tiny@xen"], 8, 1),
            // `micro@all`, expanded the way the CLI expands it: job specs
            // name registered scenarios only.
            Workload::ServerMicro => (
                &[
                    "micro",
                    "micro@balloon",
                    "micro@xen",
                    "micro@pthammer",
                    "micro@gbhammer",
                ],
                2,
                50,
            ),
        };
        JobSpec {
            scenarios: scenarios.iter().map(|s| s.to_string()).collect(),
            seeds,
            base_seed,
            attempts,
            ..JobSpec::default()
        }
    }

    /// Distinct job specs one run cycles through: several seeds per
    /// run, so no single seed's cells sway it.
    pub fn distinct_jobs(self) -> u64 {
        match self {
            Workload::TinyAttack => 2,
            Workload::VariantMix => 2,
            Workload::ServerMicro => 16,
            _ => 1,
        }
    }
}

/// Worker threads, clients and connections a workload may use: the
/// machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `hyperhammer-sim` arguments that run `spec` through `command`
/// (`campaign`, or `trace` for the same grid with counters on) with
/// `--json` output on `jobs` workers.
pub fn grid_args(command: &str, spec: &JobSpec, jobs: usize) -> Vec<String> {
    vec![
        command.into(),
        "--scenarios".into(),
        spec.scenarios.join(","),
        "--seeds".into(),
        spec.seeds.to_string(),
        "--base-seed".into(),
        spec.base_seed.to_string(),
        "--attempts".into(),
        spec.attempts.to_string(),
        "--bits".into(),
        spec.bits.to_string(),
        "--jobs".into(),
        jobs.to_string(),
        "--json".into(),
    ]
}
