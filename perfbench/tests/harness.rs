//! Tests of the benchmark harness itself.

use hh_trace::{Counter, TraceMode};
use hyperhammer::JobSpec;
use perfbench::stages::{drive_cell, driver_params};

/// Driving every cell of a one-scenario grid stage by stage reproduces
/// `CampaignGrid::run_cell`: the same result, event stream and counters.
fn assert_staged_matches_run_cell(scenario: &str) {
    let spec = JobSpec {
        scenarios: vec![scenario.to_string()],
        seeds: 2,
        base_seed: 7,
        attempts: 2,
        ..JobSpec::default()
    };
    let grid = spec.to_grid().unwrap().with_trace(TraceMode::Full);
    let templates = grid.scenario_templates();
    for cell in grid.cells() {
        let staged = drive_cell(
            &driver_params(&spec),
            spec.attempts,
            &cell,
            &templates[0],
            TraceMode::Full,
        )
        .unwrap();
        let reference = grid.run_cell(&cell).unwrap();
        let (ours, theirs) = (
            staged.result.trace.as_ref().unwrap().metrics(),
            reference.trace.as_ref().unwrap().metrics(),
        );
        for counter in Counter::ALL {
            assert_eq!(ours.get(counter), theirs.get(counter), "{}", counter.name());
        }
        assert!(ours.get(Counter::BuddyAllocs) > 0);
        assert_eq!(staged.result, reference, "{scenario} cell {}", cell.index);
        assert!(staged.rows.total() <= staged.wall);
    }
}

#[test]
fn staged_tiny_matches_run_cell() {
    assert_staged_matches_run_cell("tiny");
}

#[test]
fn staged_tiny_balloon_matches_run_cell() {
    assert_staged_matches_run_cell("tiny@balloon");
}

#[test]
fn staged_tiny_gbhammer_and_xen_match_run_cell() {
    assert_staged_matches_run_cell("tiny@gbhammer");
    assert_staged_matches_run_cell("tiny@xen");
}

/// `(name, unit)` of every metric object in one array of
/// `BENCHMARK.json`, read with a plain scan of its fixed layout.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{section}\": [")).unwrap();
    let body = &text[start..start + text[start..].find(']').unwrap()];
    let value = |obj: &str, key: &str| {
        let from = obj.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
        obj[from..from + obj[from..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (value(obj, "name"), value(obj, "unit")))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let catalogue = |defs: &[perfbench::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(
        listed("end_to_end"),
        catalogue(perfbench::report::END_TO_END)
    );
    assert_eq!(listed("per_layer"), catalogue(perfbench::report::PER_LAYER));
}
