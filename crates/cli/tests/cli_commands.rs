//! Integration tests driving the CLI command implementations directly.

use hyperhammer_cli::commands;
use hyperhammer_cli::opts::Options;

fn run(words: &[&str]) -> Result<(), String> {
    let opts = Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        .map_err(|e| e.to_string())?;
    commands::run(&opts).map_err(|e| e.to_string())
}

#[test]
fn recon_runs_on_every_preset() {
    for scenario in ["s1", "s2", "s3", "small", "tiny"] {
        run(&["recon", "--scenario", scenario]).unwrap_or_else(|e| {
            panic!("recon failed on {scenario}: {e}");
        });
    }
}

#[test]
fn profile_with_early_stop() {
    run(&["profile", "--scenario", "tiny", "--stop-after", "1"]).unwrap();
    run(&["profile", "--scenario", "tiny", "--json"]).unwrap();
}

#[test]
fn steer_json_and_text() {
    run(&[
        "steer",
        "--scenario",
        "tiny",
        "--blocks",
        "3",
        "--spray-gib",
        "1",
    ])
    .unwrap();
    run(&[
        "steer",
        "--scenario",
        "tiny",
        "--blocks",
        "2",
        "--spray-gib",
        "1",
        "--json",
    ])
    .unwrap();
}

#[test]
fn steer_under_quarantine_fails_gracefully() {
    let err = run(&["steer", "--scenario", "tiny", "--quarantine"]).unwrap_err();
    assert!(err.contains("quarantine"), "got: {err}");
}

#[test]
fn attack_bounded_attempts() {
    run(&[
        "attack",
        "--scenario",
        "tiny",
        "--attempts",
        "2",
        "--bits",
        "2",
    ])
    .unwrap();
}

#[test]
fn analyse_prints() {
    run(&["analyse"]).unwrap();
}

/// Reads a checkpoint file into (cell index → NDJSON record) pairs,
/// skipping the magic and job-spec header.
fn checkpoint_records(path: &std::path::Path) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(path).expect("checkpoint readable");
    let mut records: Vec<(usize, String)> = text
        .lines()
        .skip(2)
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (index, json) = l.split_once('\t').expect("index\\tjson record");
            (index.parse().expect("numeric index"), json.to_string())
        })
        .collect();
    records.sort();
    records
}

/// Variant cells survive checkpoint/resume: an interrupted multi-variant
/// sweep resumed to completion holds exactly the records of an
/// uninterrupted run — including the `@variant` scenario names the grid
/// is rebuilt from on resume.
#[test]
fn variant_campaign_survives_checkpoint_resume() {
    let dir = std::env::temp_dir().join(format!("hh-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let full = dir.join("full.ckpt");
    let split = dir.join("split.ckpt");
    let grid_args = |rest: &[&str]| {
        let mut words = vec![
            "campaign",
            "--scenarios",
            "micro@all",
            "--seeds",
            "1",
            "--attempts",
            "2",
            "--bits",
            "2",
            "--jobs",
            "2",
        ];
        words.extend_from_slice(rest);
        words.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };

    let full_path = full.to_str().expect("utf-8 temp path");
    let split_path = split.to_str().expect("utf-8 temp path");
    run(&grid_args(&["--checkpoint", full_path])
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>())
    .expect("uninterrupted checkpointed run");
    run(
        &grid_args(&["--checkpoint", split_path, "--stop-after-cells", "2"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    )
    .expect("interrupted run stops cleanly");
    assert!(
        checkpoint_records(&split).len() < checkpoint_records(&full).len(),
        "the interrupted run must have left cells unfinished"
    );
    run(&["campaign", "--resume", split_path]).expect("resume finishes the sweep");

    let reference = checkpoint_records(&full);
    assert_eq!(
        reference.len(),
        5,
        "micro@all is one cell per attack variant"
    );
    assert_eq!(
        checkpoint_records(&split),
        reference,
        "resumed records must equal the uninterrupted run's"
    );
    for qualified in [
        "micro@balloon",
        "micro@xen",
        "micro@pthammer",
        "micro@gbhammer",
    ] {
        assert!(
            reference
                .iter()
                .any(|(_, json)| json.contains(&format!("\"scenario\": \"{qualified}\""))),
            "checkpoint must carry the {qualified} cell"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_changes_results_deterministically() {
    // Two runs with the same seed must both succeed (determinism is
    // asserted in depth by tests/determinism.rs; here we check the CLI
    // threads the seed through).
    run(&[
        "profile",
        "--scenario",
        "tiny",
        "--seed",
        "7",
        "--stop-after",
        "1",
    ])
    .unwrap();
    run(&[
        "profile",
        "--scenario",
        "tiny",
        "--seed",
        "7",
        "--stop-after",
        "1",
    ])
    .unwrap();
}

/// Runs the real binary, asserting it succeeds; returns its stdout.
fn sim_stdout(args: &[&str]) -> Vec<u8> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperhammer-sim"))
        .args(args)
        .output()
        .expect("run hyperhammer-sim");
    assert!(
        out.status.success(),
        "hyperhammer-sim {args:?} failed: {out:?}"
    );
    out.stdout
}

/// The small grid the checkpoint-format tests run.
const CKPT_GRID: [&str; 11] = [
    "campaign",
    "--scenarios",
    "micro",
    "--seeds",
    "3",
    "--attempts",
    "2",
    "--bits",
    "2",
    "--json",
    "--jobs",
];

/// A checkpoint torn mid-record (a kill during an append) resumes to
/// NDJSON byte-identical to an uninterrupted run, and a corrupt record
/// before the final one is refused with its file line number.
#[test]
fn torn_checkpoint_resumes_and_corrupt_record_is_refused() {
    let dir = std::env::temp_dir().join(format!("hh-cli-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let reference = sim_stdout(&[&CKPT_GRID[..], &["1"]].concat());

    let torn = dir.join("torn.ckpt");
    let torn_path = torn.to_str().expect("utf-8 temp path");
    sim_stdout(&[&CKPT_GRID[..], &["2", "--checkpoint", torn_path]].concat());
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&torn)
        .expect("open checkpoint");
    let len = file.metadata().expect("stat checkpoint").len();
    file.set_len(len - 5).expect("tear the last record");
    drop(file);
    let resumed = sim_stdout(&["campaign", "--resume", torn_path, "--jobs", "2", "--json"]);
    assert_eq!(
        String::from_utf8(resumed).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
        "resuming a torn checkpoint must reproduce the uninterrupted bytes"
    );
    assert_eq!(
        checkpoint_records(&torn).len(),
        3,
        "the re-run cell replaces the torn record"
    );

    // Line 3 is the first record, after the magic and job-spec lines.
    let text = std::fs::read_to_string(&torn).expect("checkpoint readable");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[2] = "not a record";
    let corrupt = dir.join("corrupt.ckpt");
    std::fs::write(&corrupt, lines.join("\n") + "\n").expect("write corrupt checkpoint");
    let corrupt_path = corrupt.to_str().expect("utf-8 temp path");
    let err = run(&["campaign", "--resume", corrupt_path]).unwrap_err();
    assert!(
        err.contains(&format!("corrupt checkpoint record at {corrupt_path}:3")),
        "got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed `ckpt-v1` fixture, written by an earlier revision's
/// `campaign --checkpoint ... --stop-after-cells 2` over [`CKPT_GRID`],
/// still resumes to the uninterrupted run's bytes.
#[test]
fn committed_ckpt_v1_fixture_still_resumes() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/ckpt-v1.ckpt"
    );
    let dir = std::env::temp_dir().join(format!("hh-cli-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    // Resuming appends, so work on a copy.
    let copy = dir.join("ckpt-v1.ckpt");
    std::fs::copy(fixture, &copy).expect("copy fixture");
    let reference = sim_stdout(&[&CKPT_GRID[..], &["1"]].concat());
    let copy_path = copy.to_str().expect("utf-8 temp path");
    let resumed = sim_stdout(&["campaign", "--resume", copy_path, "--json"]);
    assert_eq!(
        String::from_utf8(resumed).expect("UTF-8"),
        String::from_utf8(reference).expect("UTF-8"),
        "a ckpt-v1 checkpoint must resume byte-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed `tiny-campaign-v1` fixture, written by an earlier
/// revision's release binary, is reproduced byte for byte: the
/// determinism suites compare the code against itself, this pins the
/// bytes across revisions of the allocator, vIOMMU and store paths.
#[test]
fn committed_tiny_campaign_v1_fixture_is_reproduced() {
    let fixture = include_str!("../../../tests/fixtures/tiny-campaign-v1.ndjson");
    let out = sim_stdout(&[
        "campaign",
        "--scenarios",
        "tiny,tiny@gbhammer,tiny@balloon",
        "--seeds",
        "2",
        "--attempts",
        "3",
        "--bits",
        "12",
        "--json",
    ]);
    assert_eq!(
        String::from_utf8(out).expect("UTF-8"),
        fixture,
        "campaign NDJSON must match the committed tiny-campaign-v1 bytes"
    );
}
