//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the release `hyperhammer-sim` binary from this checkout, runs
//! the named workload and prints every metric with its unit, then one
//! JSON result line. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` makes the traced per-layer run instead.
//! `--workload all` runs every workload end to end and then traced.
//! Exits non-zero when any output differs from its reference.

use std::process::ExitCode;

use perfbench::cli::Cli;
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::run;
use perfbench::workloads::{nproc, Workload};

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let all = workload == "all";
    let workloads = if all {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        all,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run_one(cli: &Cli, workload: Workload, args: &Args, traced: bool) -> Result<Report, String> {
    let mode = if traced {
        "traced per-layer run"
    } else {
        "end to end, tracing off"
    };
    println!(
        "{} (seed {}, {} cpus): {mode}",
        workload.name(),
        args.seed,
        nproc()
    );
    let mut report = match (traced, workload) {
        (true, _) => run::traced(cli, workload, args.seed)?,
        (false, Workload::ServerMicro) => run::server_e2e(cli, args.seed, args.seconds)?,
        (false, _) => run::cli_e2e(cli, workload, args.seed, args.seconds)?,
    };
    // Every run reports exactly the metrics of its kind.
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut want: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
    let mut got = report.names();
    want.sort_unstable();
    got.sort_unstable();
    if got != want {
        eprintln!(
            "perfbench: {} reported {got:?}, want {want:?}",
            workload.name()
        );
        report.broken = true;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = (|| {
        let cli = Cli::build()?;
        if !args.all {
            return run_one(&cli, args.workloads[0], &args, args.trace);
        }
        let mut all = Report::default();
        for traced in [false, true] {
            for &w in &args.workloads {
                let report = run_one(&cli, w, &args, traced)?;
                all.absorb_prefixed(w.name(), report);
            }
        }
        Ok(all)
    })();
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output differs from its reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
