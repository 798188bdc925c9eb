//! Self-tests: every workload at reduced sizes, checked for the
//! properties the benchmark's numbers rely on.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::common::Ctx;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::{run_workload, Scale};
use serde::Deserialize;
use std::path::PathBuf;

/// How far the p50-window mean may sit from the client-side p50 when
/// the layer terms are summed.
const BREAKDOWN_TOLERANCE: f64 = 0.25;

fn ctx(workload: &str) -> Ctx {
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_work")
        .join(format!("selftest-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    usep_par::set_threads(2);
    Ctx {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1,
        threads: 2,
        work_dir,
        journal_fs: "test".to_string(),
        scale: Scale::small(),
    }
}

/// Runs `workload` untraced and traced and checks what every workload
/// must satisfy; returns the traced report.
fn check(workload: &str) -> Report {
    let ctx = ctx(workload);
    let plain = run_workload(&ctx, false).expect("untraced run");
    assert!(plain.correct(), "{workload}: {:?}", plain.problems);
    plain
        .result_line(&END_TO_END)
        .expect("every end-to-end metric measured");
    for (name, _, _) in END_TO_END {
        let v = plain.get(name).expect("measured");
        assert!(
            v > 0.0,
            "{workload}: end-to-end metric {name} is {v}, and must never be 0"
        );
    }
    let (p50, tail) = (
        plain.get("p50_ms").expect("p50"),
        plain.get("tail_ms").expect("tail"),
    );
    assert!(tail >= p50, "{workload}: tail {tail} below p50 {p50}");

    let traced = run_workload(&ctx, true).expect("traced run");
    assert!(traced.correct(), "{workload}: {:?}", traced.problems);
    traced
        .result_line(&PER_LAYER)
        .expect("every per-layer metric measured");
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    traced
}

fn layer(r: &Report, name: &str) -> f64 {
    r.get(name).unwrap_or_else(|| panic!("{name} missing"))
}

/// The p50-window terms sum to the client-side p50 within tolerance,
/// and none of them is negative.
fn assert_breakdown(r: &Report, terms: &[f64]) {
    assert!(
        terms.iter().all(|&t| t >= -1e-6),
        "negative layer term in {terms:?}"
    );
    let sum: f64 = terms.iter().sum();
    let p50 = layer(r, "p50_ms");
    assert!(
        (sum - p50).abs() <= BREAKDOWN_TOLERANCE * p50,
        "layer terms sum to {sum} ms, client p50 is {p50} ms"
    );
}

#[test]
fn solve_fig4_small() {
    let r = check("solve-fig4");
    for (_, _, share) in crate::common::SOLVERS {
        let v = layer(&r, share);
        assert!((0.0..=1.0).contains(&v), "{share} = {v}");
    }
    assert!(layer(&r, "algos.heap_pops") > 0.0);
    assert!(layer(&r, "algos.dp_cells") > 0.0);
    assert!(layer(&r, "algos.augment_s") > 0.0);
    assert_eq!(
        layer(&r, "serve.admission_ms"),
        0.0,
        "no serve code runs on solve-fig4"
    );
}

#[test]
fn serve_city_small() {
    let r = check("serve-city");
    let terms: Vec<f64> = ["admission", "queue_wait", "solve", "backoff", "wire"]
        .iter()
        .map(|t| layer(&r, &format!("serve.{t}_ms")))
        .collect();
    assert_breakdown(&r, &terms);
    assert_eq!(
        layer(&r, "journal.fsyncs_per_op"),
        2.0,
        "accept and completion records"
    );
    assert_eq!(
        layer(&r, "delta.apply_ms"),
        0.0,
        "no delta session runs on serve-city"
    );
}

#[test]
fn delta_session_small() {
    let r = check("delta-session");
    let journal = layer(&r, "journal.append_ms") * layer(&r, "journal.appends_per_op")
        + layer(&r, "journal.fsync_ms") * layer(&r, "journal.fsyncs_per_op");
    assert_breakdown(
        &r,
        &[
            layer(&r, "delta.apply_ms"),
            journal,
            layer(&r, "delta.wire_ms"),
        ],
    );
    assert_eq!(
        layer(&r, "journal.fsyncs_per_op"),
        1.0,
        "one DeltaMutate record per mutation"
    );
    assert!(layer(&r, "delta.repair_share") > 0.0);
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit_and_direction() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let bench: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, ["solve-fig4", "serve-city", "delta-session"]);
    for (listed, table) in [
        (&bench.end_to_end, &END_TO_END[..]),
        (&bench.per_layer, &PER_LAYER[..]),
    ] {
        assert_eq!(listed.len(), table.len());
        for (m, &(name, unit, better)) in listed.iter().zip(table) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (name, unit));
            assert_eq!(m.better, better.name(), "{name}");
        }
    }
}
