//! # aim-bench — experiment harness shared helpers
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation section (see `DESIGN.md` for the per-experiment index).
//! This library holds the small amount of shared plumbing: consistent table
//! printing, JSON result dumps, and the reduced-cost pipeline configurations
//! used when an experiment only needs the *shape* of a result rather than a
//! long simulation.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use aim_core::pipeline::AimConfig;
use serde::Serialize;

/// Directory where experiment binaries drop their JSON result dumps.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Serialises an experiment result to `experiments/<name>.json`.
///
/// Failures to write are reported on stderr but never abort the experiment —
/// the printed tables remain the primary output.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
    }
}

/// Path of the repo-root benchmark-trajectory file shared by the smoke
/// benchmarks (`perf_smoke`, `serve_smoke`).
#[must_use]
pub fn bench_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_chip_sim.json")
}

/// Appends a labelled record to `BENCH_chip_sim.json`, preserving earlier
/// records by splicing into the writer-produced `"records": [...]` array
/// (the JSON shim has no parser, and the file format is owned by the smoke
/// binaries).  Failures are reported on stderr but never abort a benchmark.
pub fn append_bench_record<T: Serialize>(record: &T) {
    let path = bench_json_path();
    let existing = fs::read_to_string(&path).ok();
    match fs::write(&path, splice_record(existing.as_deref(), record)) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// The trajectory `existing` with `record` appended as the last element of
/// its `"records"` array (a fresh trajectory when there is none).
fn splice_record<T: Serialize>(existing: Option<&str>, record: &T) -> String {
    let indented: String = serde_json::to_string_pretty(record)
        .expect("the JSON shim writer never fails")
        .lines()
        .map(|l| format!("    {l}\n"))
        .collect::<String>()
        .trim()
        .to_string();
    match existing.and_then(|e| e.rfind("\n  ]").map(|end| e.split_at(end))) {
        Some((head, tail)) => format!("{head},\n    {indented}{tail}"),
        None => format!(
            "{{\n  \"benchmark\": \"chip_sim\",\n  \"records\": [\n    {indented}\n  ]\n}}\n"
        ),
    }
}

/// Keys under which the serving smoke records carry their request count,
/// one per record kind.
pub const REQUEST_COUNT_KEYS: [&str; 7] = [
    "serve_requests",
    "serve_ana_requests",
    "serve_online_requests",
    "serve_fleet_requests",
    "serve_dag_requests",
    "serve_global_requests",
    "serve_hyper_requests",
];

/// Numeric `field` of the last `BENCH_chip_sim.json` record that ran
/// `requests` requests (under one of [`REQUEST_COUNT_KEYS`]).  Smoke
/// binaries compare a fresh run against it, so a run is only ever gated
/// against a run of the same size.
#[must_use]
pub fn last_bench_value(field: &str, requests: usize) -> Option<f64> {
    last_value_in(
        &fs::read_to_string(bench_json_path()).ok()?,
        field,
        requests,
    )
}

/// [`last_bench_value`] over an in-memory trajectory.  The writer closes
/// every record at four-space indent, so splitting there yields one record
/// per chunk (the JSON shim has no parser).
fn last_value_in(trajectory: &str, field: &str, requests: usize) -> Option<f64> {
    trajectory
        .rsplit("\n    }")
        .filter(|record| {
            REQUEST_COUNT_KEYS
                .iter()
                .any(|key| number_in::<usize>(record, key) == Some(requests))
        })
        .find_map(|record| number_in::<f64>(record, field))
}

/// The number after `"key":` in one record's text, if present and not null.
fn number_in<T: std::str::FromStr>(record: &str, key: &str) -> Option<T> {
    let needle = format!("\"{key}\":");
    let rest = record[record.find(&needle)? + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Prints a section header for an experiment binary.
pub fn header(experiment: &str, paper_reference: &str) {
    println!("=== {experiment} ===");
    println!("(reproduces {paper_reference})");
    println!();
}

/// Standard reduced-cost pipeline configuration used by the chip-level
/// experiments: a stride over the operator list and shorter slices keep the
/// runtime of each figure in the seconds-to-a-minute range while preserving
/// the operator mix (conv vs attention vs MLP) of the workload.
#[must_use]
pub fn quick_pipeline(base: AimConfig, stride: usize) -> AimConfig {
    AimConfig {
        operator_stride: Some(stride.max(1)),
        cycles_per_slice: 150,
        ..base
    }
}

/// Formats a ratio as `x.xx×`.
#[must_use]
pub fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn percent(value: f64) -> String {
    format!("{:.1} %", 100.0 * value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        assert!(results_dir().exists());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(2.288), "2.29x");
        assert_eq!(percent(0.692), "69.2 %");
    }

    #[test]
    fn quick_pipeline_overrides_stride() {
        let cfg = quick_pipeline(AimConfig::baseline(), 0);
        assert_eq!(cfg.operator_stride, Some(1));
    }

    #[test]
    fn last_bench_value_scans_the_committed_trajectory() {
        // The committed trajectory carries the million-request hyperscale
        // baseline the CI job gates against.
        let v = last_bench_value("serve_hyper_virtual_rps", 1_000_000);
        assert!(v.is_some_and(|v| v > 0.0));
        assert_eq!(last_bench_value("no_such_field", 1_000_000), None);
    }

    #[test]
    fn last_bench_value_gates_against_a_run_of_the_same_size() {
        let record = |requests: usize, rps: f64| {
            serde::Value::Object(vec![
                ("label".to_string(), serde::Value::Str("r".to_string())),
                (
                    "serve_hyper_requests".to_string(),
                    serde::Value::UInt(requests as u64),
                ),
                (
                    "serve_hyper_virtual_rps".to_string(),
                    serde::Value::Float(rps),
                ),
            ])
        };
        let full = splice_record(None, &record(1_000_000, 15_959_308.87));
        let trajectory = splice_record(Some(&full), &record(200_000, 21_970_042.75));
        let value = |requests| last_value_in(&trajectory, "serve_hyper_virtual_rps", requests);
        // The later, smaller run must not become the million-request baseline.
        assert_eq!(value(1_000_000), Some(15_959_308.87));
        assert_eq!(value(200_000), Some(21_970_042.75));
        assert_eq!(value(100_000), None);
    }
}
