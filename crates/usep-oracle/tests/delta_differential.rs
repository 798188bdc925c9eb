//! Mutation-trace differential suite: incremental vs cold, refereed by
//! the independent oracle after **every** mutation.
//!
//! 200+ seeded traces run through `usep-delta`'s engine with the
//! oracle's from-scratch constraint validator on the referee's
//! external-check hook. Any failure is shrunk kind-preservingly and
//! printed as a self-contained JSON repro (replay with
//! `usep delta --trace-in <file>`).
//!
//! The bulk runs with `check_patching: false` (the patch-layer
//! byte-identity differential is quadratic per step and is covered
//! densely by a smaller sweep below plus `usep-core`'s own patch
//! tests); planning validity, oracle validity and the Ω drift bound are
//! asserted on every step of every trace.

use usep_delta::{
    generate_trace, minimize_trace, run_trace, FailureKind, MutationTrace, RefereeConfig,
    TraceGenConfig,
};
use usep_oracle::oracle_step_check;
use usep_trace::NOOP;

fn repro(trace: &MutationTrace, cfg: &RefereeConfig, kind: FailureKind) -> String {
    let min = minimize_trace(trace, &|cand| {
        matches!(run_trace(cand, cfg, &NOOP, &oracle_step_check), Err(f) if f.kind == kind)
    });
    serde_json::to_string(&min).unwrap_or_else(|e| format!("<repro serialization failed: {e}>"))
}

fn sweep(seeds: std::ops::Range<u64>, gen: TraceGenConfig, cfg: RefereeConfig) {
    let mut total_steps = 0u64;
    let mut total_repairs = 0u64;
    for seed in seeds {
        let trace = generate_trace(&TraceGenConfig { seed, ..gen });
        match run_trace(&trace, &cfg, &NOOP, &oracle_step_check) {
            Ok(r) => {
                total_steps += r.steps as u64;
                total_repairs += r.repairs;
            }
            Err(f) => {
                panic!(
                    "seed {seed}: {f}\nminimized repro (usep delta --trace-in):\n{}",
                    repro(&trace, &cfg, f.kind)
                );
            }
        }
    }
    assert!(total_steps > 0);
    // the engine must mostly stay on the bounded-repair path
    assert!(
        total_repairs as f64 >= 0.8 * total_steps as f64,
        "repair fraction {:.3} below 0.8 across the sweep",
        total_repairs as f64 / total_steps as f64
    );
}

#[test]
fn differential_sweep_small_instances() {
    // 100 traces × 30 mutations on small instances
    sweep(
        0..100,
        TraceGenConfig { seed: 0, mutations: 30, events: 5, users: 7 },
        RefereeConfig { check_patching: false, ..RefereeConfig::default() },
    );
}

#[test]
fn differential_sweep_medium_instances() {
    // 80 traces × 40 mutations on medium instances
    sweep(
        1000..1080,
        TraceGenConfig { seed: 0, mutations: 40, events: 9, users: 14 },
        RefereeConfig { check_patching: false, ..RefereeConfig::default() },
    );
}

#[test]
fn differential_sweep_with_patch_byte_identity() {
    // 30 traces with the quadratic patched-instance differential on:
    // records and every derived array must equal a from-scratch
    // rebuild after every single mutation
    sweep(
        5000..5030,
        TraceGenConfig { seed: 0, mutations: 25, events: 6, users: 8 },
        RefereeConfig { check_patching: true, ..RefereeConfig::default() },
    );
}

#[test]
fn differential_sweep_adversarial_churn() {
    // crank structural churn: tiny instances where removals, shrinks
    // and μ-zeroing hit assigned pairs constantly
    sweep(
        7000..7040,
        TraceGenConfig { seed: 0, mutations: 50, events: 3, users: 4 },
        RefereeConfig { check_patching: true, ..RefereeConfig::default() },
    );
}

#[test]
fn acceptance_500_mutation_trace_seed_42() {
    // The PR acceptance gate: on a 500-mutation seeded trace, ≥90% of
    // mutations resolve via bounded repair, every intermediate planning
    // passes the oracle, and the final Ω lands within the drift
    // threshold of a cold solve.
    let trace =
        generate_trace(&TraceGenConfig { seed: 42, mutations: 500, events: 10, users: 16 });
    let cfg = RefereeConfig { check_patching: false, ..RefereeConfig::default() };
    let report = run_trace(&trace, &cfg, &NOOP, &oracle_step_check)
        .unwrap_or_else(|f| panic!("seed 42: {f}\nrepro:\n{}", repro(&trace, &cfg, f.kind)));
    assert_eq!(report.steps, 500);
    assert!(
        report.repair_fraction() >= 0.9,
        "repair fraction {:.3} below the 0.9 acceptance floor (repairs {}, fallbacks {})",
        report.repair_fraction(),
        report.repairs,
        report.fallbacks
    );
    assert!(
        report.final_omega + 1e-9 >= (1.0 - cfg.drift_bound) * report.final_omega_cold,
        "final Ω {:.4} outside drift bound of cold Ω {:.4}",
        report.final_omega,
        report.final_omega_cold
    );
}
