//! The benchmark's self-test, at Train scale: every metric named in
//! `BENCHMARK.json` is printed, a corrupted reference is counted as a
//! failure, and the traced run's span file is one well-nested tree.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::spans::{check_tree, from_json_lines};
use perfbench::WorkloadId;
use privateer_telemetry::json::{self, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The metric names of one list (`end_to_end` or `per_layer`) in
/// `BENCHMARK.json`.
fn declared(list: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

struct Run {
    code: Option<i32>,
    result: Json,
    out_dir: PathBuf,
}

/// Run the benchmark binary at Train scale and parse its last line.
fn bench(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}-{}", extra.len()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--scale", "train", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    let result = json::parse(last).unwrap_or_else(|e| panic!("last line {last:?}: {e:?}"));
    Run {
        code: out.status.code(),
        result,
        out_dir,
    }
}

fn printed(run: &Run) -> BTreeSet<String> {
    match run.result.get("metrics") {
        Some(Json::Obj(m)) => {
            for (name, v) in m {
                let value = v.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {v:?}");
                assert!(v.get("unit").and_then(Json::as_str).is_some(), "{name}");
            }
            m.keys().cloned().collect()
        }
        other => panic!("no metrics object: {other:?}"),
    }
}

fn num(run: &Run, key: &str) -> f64 {
    run.result.get(key).and_then(Json::as_f64).unwrap()
}

#[test]
fn every_declared_metric_is_printed_and_outputs_match() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WorkloadId::ALL {
        let untraced = bench(w.name(), false, &[]);
        assert_eq!(untraced.code, Some(0), "{}", w.name());
        assert_eq!(untraced.result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(num(&untraced, "failed"), 0.0);
        assert!(num(&untraced, "attempted") >= 1.0);
        assert_eq!(printed(&untraced), end_to_end, "{}", w.name());

        let traced = bench(w.name(), true, &[]);
        assert_eq!(traced.code, Some(0), "{}", w.name());
        assert_eq!(printed(&traced), per_layer, "{}", w.name());
    }
}

#[test]
fn workload_all_prints_every_workloads_metrics() {
    let run = bench("all", false, &[]);
    assert_eq!(run.code, Some(0));
    assert_eq!(run.result.get("correct"), Some(&Json::Bool(true)));
    let want: BTreeSet<String> = WorkloadId::ALL
        .iter()
        .flat_map(|w| {
            declared("end_to_end")
                .into_iter()
                .map(move |m| format!("{}.{m}", w.name()))
        })
        .collect();
    assert_eq!(printed(&run), want);
}

#[test]
fn corrupted_reference_counts_every_run_as_failed() {
    let run = bench("alvinn", true, &["--corrupt-reference"]);
    assert_eq!(run.code, Some(1), "a mismatch must fail the command");
    assert_eq!(run.result.get("correct"), Some(&Json::Bool(false)));
    let attempted = num(&run, "attempted");
    assert!(attempted >= 1.0);
    assert_eq!(num(&run, "failed"), attempted);
    let ratio = run.result.get("metrics").and_then(|m| m.get("fail_ratio"));
    assert_eq!(ratio.and_then(|r| r.get("value")), Some(&Json::Num(1.0)));
}

#[test]
fn span_file_is_one_nested_tree_per_run() {
    let run = bench("misspec_mix", true, &["--seed", "5"]);
    assert_eq!(run.code, Some(0));
    let path = run.out_dir.join("spans-misspec_mix-5.jsonl");
    let text = std::fs::read_to_string(&path).expect("span file written");
    let spans = from_json_lines(&text).expect("span file parses");
    check_tree(&spans).expect("one root per run, children inside parents");
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for layer_call in [
        "workloads::build",
        "vm::load_module",
        "profile::profile_module",
        "core::pipeline::privatize",
        "vm::Interp::run_main/sequential",
        "vm::Interp::run_main/parallel",
    ] {
        assert!(names.contains(layer_call), "no `{layer_call}` span");
    }
    // Three programs, each under the root, each with its own layer calls.
    let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
    let programs = spans.iter().filter(|s| s.parent == Some(root.id)).count();
    assert_eq!(programs, 3);
    let parallel = spans
        .iter()
        .filter(|s| s.name == "vm::Interp::run_main/parallel")
        .count();
    assert_eq!(parallel, 3);
}
