//! Core hot-path microbenchmarks over the instance's lowered arrays.
//!
//! Times the four inner-loop primitives the solvers lean on:
//!
//! * **feasibility_check** — `insertion_point` against populated
//!   schedules (conflict-bitmask word probes);
//! * **inc_cost** — Eq. (3) insertion deltas over the precomputed
//!   contiguous leg and event-pair rows;
//! * **mu_row_sweep** — the Lemma-1-prefiltered candidate sweep over
//!   `μ`-rows, the per-user setup loop of DeDP/DeDPO/DeGreedy;
//! * **dp_single** — `optimal_user_schedule` (Alg. 2, `DPSingle`) for
//!   every user over every event, the kernel of DeDP, DeDPO and the
//!   capacity-relaxed bound.
//!
//! Besides the usual criterion output, the run exports a
//! machine-readable summary (median ns per section, the instance shape
//! and the hardware thread count) to `BENCH_core.json` at the workspace
//! root — path overridable via the `BENCH_CORE_JSON` environment
//! variable — so CI can track the hot-path trajectory across commits.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use usep_algos::optimal_user_schedule;
use usep_bench::BENCH_USERS;
use usep_core::{EventId, Instance, Schedule, UserId};
use usep_gen::{generate, SyntheticConfig};

fn bench_instance() -> Instance {
    let cfg = SyntheticConfig::default()
        .with_events(50)
        .with_users(BENCH_USERS)
        .with_conflict_ratio(0.5);
    generate(&cfg, 2015)
}

/// One greedily-filled feasible schedule per user — the realistic
/// mid-solve occupancy the feasibility and inc-cost probes run against.
fn filled_schedules(inst: &Instance) -> Vec<Vec<EventId>> {
    (0..inst.num_users() as u32)
        .map(|u| {
            let mut s = Schedule::new();
            for v in inst.event_ids() {
                let _ = s.try_insert(inst, UserId(u), v);
            }
            s.events().to_vec()
        })
        .collect()
}

/// Time-feasibility probe of every event against every user's schedule.
fn feasibility(inst: &Instance, schedules: &[Vec<EventId>]) -> u64 {
    let mut feasible = 0u64;
    for events in schedules {
        for v in inst.event_ids() {
            if inst.insertion_point(events, v).is_some() {
                feasible += 1;
            }
        }
    }
    feasible
}

/// Eq. (3) insertion deltas for every (user, event) pair against the
/// user's schedule.
fn inc_cost(inst: &Instance, schedules: &[Vec<EventId>]) -> u64 {
    let mut acc = 0u64;
    for (u, events) in schedules.iter().enumerate() {
        let u = UserId(u as u32);
        for v in inst.event_ids() {
            if let Some(c) = inst.inc_cost(events, u, v).finite_value() {
                acc = acc.wrapping_add(u64::from(c));
            }
        }
    }
    acc
}

/// The per-user candidate sweep (positive utility + Lemma-1 budget
/// prefilter) that opens every decomposed solver's user loop.
fn mu_row_sweep(inst: &Instance) -> f64 {
    let mut total = 0.0;
    for u in inst.user_ids() {
        let budget = inst.user(u).budget;
        for (v, &m) in inst.mu_row(u).iter().enumerate() {
            if m > 0.0 && inst.round_trip(u, EventId(v as u32)) <= budget {
                total += f64::from(m);
            }
        }
    }
    total
}

/// Every user's `DPSingle`-optimal schedule over all events, summed.
fn dp_single(inst: &Instance) -> f64 {
    inst.user_ids()
        .map(|u| {
            let cands: Vec<(EventId, f64)> =
                inst.event_ids().map(|v| (v, inst.mu(v, u))).collect();
            optimal_user_schedule(inst, u, &cands).1
        })
        .sum()
}

/// The four sections as (name, run) pairs over one instance.
type Section<'a> = (&'static str, Box<dyn Fn() -> f64 + 'a>);

fn sections<'a>(inst: &'a Instance, schedules: &'a [Vec<EventId>]) -> Vec<Section<'a>> {
    vec![
        ("feasibility_check", Box::new(move || feasibility(inst, schedules) as f64)),
        ("inc_cost", Box::new(move || inc_cost(inst, schedules) as f64)),
        ("mu_row_sweep", Box::new(move || mu_row_sweep(inst))),
        ("dp_single", Box::new(move || dp_single(inst))),
    ]
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("core_hot_paths");
    g.sample_size(10).warm_up_time(Duration::from_secs(1)).measurement_time(Duration::from_secs(2));
    let inst = bench_instance();
    let schedules = filled_schedules(&inst);
    for (name, run) in sections(&inst, &schedules) {
        g.bench_with_input(BenchmarkId::new(name, "lowered"), &(), |b, ()| {
            b.iter(|| black_box(run()))
        });
    }
    g.finish();
}

/// Medians from a small fixed-shape sample, independent of criterion's
/// calibration, feeding the JSON export.
fn median_ns(run: &dyn Fn() -> f64, samples: usize) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn export_summary() {
    let inst = bench_instance();
    let schedules = filled_schedules(&inst);
    let mut entries = Vec::new();
    for (name, run) in sections(&inst, &schedules) {
        black_box(run()); // warm-up
        let median = median_ns(run.as_ref(), 7);
        entries.push(format!("{{\"section\":\"{name}\",\"median_ns\":{median}}}"));
    }
    let json = format!(
        "{{\"bench\":\"core_hot_paths\",\"events\":{},\"users\":{},\"conflict_ratio\":0.5,\
         \"hardware_threads\":{},\"sections\":[{}]}}\n",
        inst.num_events(),
        inst.num_users(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries.join(",")
    );
    // `BENCH_CORE_JSON` overrides; the default resolves to the
    // workspace root (cargo runs benches from the package dir)
    let path = std::env::var("BENCH_CORE_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| usep_bench::workspace_root_path("BENCH_core.json"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench);

fn main() {
    // mirror the harness's test-mode gate: `cargo test` builds and runs
    // harness=false bench binaries without `--bench`
    if !std::env::args().skip(1).any(|a| a == "--bench") {
        return;
    }
    benches();
    export_summary();
}
