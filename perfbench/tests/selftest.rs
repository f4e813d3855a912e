//! Self-test of the benchmark: every workload once at `--tiny` size.
//!
//! Checks that each run emits exactly the metrics `BENCHMARK.json` names,
//! with their units, that the metrics of the layers a workload exercises
//! are measured (non-zero) while the layers it is predicted flat on read
//! zero, and that a deliberately corrupted result is counted as failed.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use pselinv_trace::Json;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fem3d", "poles", "scale"];

/// Runs the benchmark binary and returns its exit status and the parsed
/// last line of standard output (if it is JSON).
fn bench(args: &[&str]) -> (bool, Option<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_pselinv-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    (out.status.success(), last)
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> Json {
    let mut args =
        vec!["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace];
    args.push("--tiny");
    args.extend_from_slice(extra);
    let (ok, result) = bench(&args);
    assert!(ok, "{workload} trace {trace} {extra:?}: non-zero exit");
    result.unwrap_or_else(|| panic!("{workload} trace {trace}: last line is not JSON"))
}

/// `(name, unit)` of the metrics `BENCHMARK.json` lists under `key`.
fn spec(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key} missing"))
}

/// Asserts the result's metrics are exactly `expected`, in order, with
/// their units; returns `name → value`.
fn metrics(result: &Json, expected: &[(String, String)], what: &str) -> Vec<(String, f64)> {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}: not correct");
    assert!(num(result, "attempted") >= 1.0, "{what}: nothing attempted");
    assert_eq!(num(result, "failed"), 0.0, "{what}: failures");
    let Some(Json::Obj(pairs)) = result.get("metrics") else { panic!("{what}: no metrics object") };
    let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "{what}: metric names differ from BENCHMARK.json");
    pairs
        .iter()
        .zip(expected)
        .map(|((name, m), (_, unit))| {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{what}: {name} unit"
            );
            let v = num(m, "value");
            assert!(v.is_finite() && v >= 0.0, "{what}: {name} = {v}");
            (name.clone(), v)
        })
        .collect()
}

#[test]
fn end_to_end_metrics_are_emitted_with_units_and_never_zero() {
    let spec = spec("end_to_end");
    for w in WORKLOADS {
        for (name, v) in metrics(&tiny(w, "0", &[]), &spec, w) {
            assert!(v > 0.0, "{w}: {name} is 0");
        }
    }
}

#[test]
fn traced_runs_emit_the_ledger_and_measure_their_layers() {
    let spec = spec("per_layer");
    // Metrics that each workload's own layers must make non-zero, and
    // metrics of layers it does not exercise, which must read 0.
    let measured: [(&str, &[&str], &[&str]); 3] = [
        (
            "fem3d",
            &[
                "order.analyze_s",
                "order.nnz_l",
                "factor.flops",
                "factor.gflops",
                "factor.factorize_s",
                "selinv.flops",
                "selinv.gflops",
                "selinv.seq_s",
                "dist.selinv_s",
                "dist.serial_1x1_s",
                "dist.serial_over_seq",
                "dist.selinv_gflops",
                "pool.executed",
                "pool.busy_s",
                "pool.utilization",
                "trace.overhead_ratio",
            ],
            &["mpisim.msgs", "mpisim.bytes_sent", "des.simulate_s", "dist.batch_s"],
        ),
        (
            "poles",
            &[
                "order.analyze_s",
                "dist.plan_s",
                "factor.flops",
                "factor.poles_s",
                "mpisim.msgs",
                "mpisim.bytes_sent",
                "mpisim.sent_max_over_mean",
                "mpisim.span_s.col_bcast",
                "mpisim.span_s.row_reduce",
                "dist.outstanding_hwm",
                "dist.batch_s",
                "dist.poles_per_s",
                "trace.overhead_ratio",
            ],
            &["pool.executed", "pool.busy_s", "des.simulate_s", "selinv.seq_s"],
        ),
        (
            "scale",
            &[
                "order.analyze_s",
                "order.nnz_l",
                "trees.col_bcast_max_over_mean",
                "trees.row_reduce_max_over_mean",
                "dist.replay_s",
                "dist.taskgraph_s",
                "dist.taskgraph_tasks",
                "dist.taskgraph_edges",
                "des.simulate_s",
                "des.messages",
                "des.bytes",
                "des.msgs_per_s",
                "des.makespan_s",
                "des.comm_to_comp",
                "trace.overhead_ratio",
            ],
            &["factor.flops", "mpisim.msgs", "pool.executed", "dist.selinv_s"],
        ),
    ];
    for (w, nonzero, zero) in measured {
        let values = metrics(&tiny(w, "1", &[]), &spec, w);
        let get = |n: &str| values.iter().find(|(k, _)| k == n).map(|&(_, v)| v).expect(n);
        for n in nonzero {
            assert!(get(n) > 0.0, "{w}: {n} not measured");
        }
        for n in zero {
            assert_eq!(get(n), 0.0, "{w}: {n} should not be exercised");
        }
    }
}

#[test]
fn corrupted_result_is_counted_as_failed() {
    for w in WORKLOADS {
        let result = tiny(w, "0", &["--corrupt-rep", "2"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}: corruption not detected");
        assert_eq!(num(&result, "failed"), 1.0, "{w}: corrupted repetition not counted");
        assert!(num(&result, "attempted") >= 3.0, "{w}: too few repetitions");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--workload", "fem3d", "--trace", "2"], &["--bogus"]]
    {
        let (ok, result) = bench(args);
        assert!(!ok, "{args:?} exited 0");
        assert!(result.is_none(), "{args:?} printed a result");
    }
}
