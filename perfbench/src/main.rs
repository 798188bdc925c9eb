//! The USEP benchmark: three workloads, twelve end-to-end metrics, and a
//! traced run that splits each end-to-end timing into the repository's
//! layers (`usep-core`, `usep-algos`, `usep-par`, `usep-serve` with its
//! journal, `usep-delta`).
//!
//! ```text
//! usep-perfbench --workload solve-fig4|serve-city|delta-session
//!                --seed N --seconds S --trace 0|1 [--work-dir DIR] [--journal-fs NAME]
//! ```
//!
//! Lines before the last are JSON details (environment, sample counts,
//! breakdowns); the last line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). `perfbench/run.py` builds this binary and runs it.

mod city;
mod common;
mod delta;
mod fig4;
mod report;
#[cfg(test)]
mod selftest;

use common::{map, Ctx};
use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use usep_trace::json::Value;

#[global_allocator]
static ALLOC: usep_metrics::CountingAllocator = usep_metrics::CountingAllocator;

/// Input sizes and repetition counts. `full` is the benchmark; the
/// self-tests run `small`.
#[derive(Clone, Debug)]
pub struct Scale {
    pub fig4_events: usize,
    pub fig4_users: usize,
    pub fig4_capacity: u32,
    /// Solves per round of each solver (RatioGreedy, DeDPO, DeDPO+RG,
    /// DeGreedy, DeGreedy+RG).
    pub fig4_round: [usize; 5],
    /// Set-ups per run; `setup_s` is their median. solve-fig4's set-up
    /// takes a tenth of a second, and its median of three spread by a
    /// third between seeds, so it takes more.
    pub setup_reps: usize,
    pub fig4_setup_reps: usize,
    /// serve-city arrival rate, requests per second, and how long the
    /// open loop lasts per second of `--seconds`.
    pub city_rate: f64,
    pub city_span: f64,
    /// Seconds of in-process reference solves per run (serve-city and
    /// delta-session).
    pub ref_budget_s: f64,
    /// serve-city snapshot shapes (Auckland- and Singapore-sized), mixed
    /// in proportion to their user counts.
    pub cities: [usep_gen::CityConfig; 2],
    pub delta_events: usize,
    pub delta_users: usize,
    /// delta-session mutations per session per second of `--seconds`.
    pub delta_rate: f64,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            fig4_events: 200,
            fig4_users: 2500,
            fig4_capacity: 200,
            fig4_round: [1, 1, 1, 4, 4],
            setup_reps: 3,
            fig4_setup_reps: 15,
            city_rate: 2.0,
            city_span: 1.0,
            ref_budget_s: 4.5,
            cities: [
                usep_gen::CityConfig::auckland(),
                usep_gen::CityConfig::singapore(),
            ],
            delta_events: 400,
            delta_users: 4000,
            delta_rate: 7.0,
        }
    }

    /// Reduced sizes for the self-tests: every code path of the full
    /// benchmark, in seconds.
    #[cfg(test)]
    pub fn small() -> Scale {
        let city = |name: &str, num_events, num_users| usep_gen::CityConfig {
            name: name.to_string(),
            num_events,
            num_users,
            num_groups: 4,
            ..usep_gen::CityConfig::auckland()
        };
        Scale {
            fig4_events: 30,
            fig4_users: 300,
            fig4_capacity: 20,
            fig4_round: [1, 1, 1, 4, 4],
            setup_reps: 2,
            fig4_setup_reps: 2,
            city_rate: 40.0,
            city_span: 1.0,
            ref_budget_s: 0.0,
            cities: [city("small-a", 8, 60), city("small-b", 16, 150)],
            delta_events: 30,
            delta_users: 200,
            delta_rate: 20.0,
        }
    }

    /// solve-fig4 rounds in a run: one per ten seconds, and at least two,
    /// so that the per-solve latencies have a tail.
    pub fn fig4_rounds(&self, seconds: u64) -> u64 {
        (seconds / 10).max(2)
    }

    /// serve-city requests in a run: the rate times the open loop's
    /// length, each snapshot sent twice.
    pub fn city_requests(&self, seconds: u64) -> usize {
        let n = (self.city_rate * self.city_span * seconds as f64).round() as usize;
        n.div_ceil(2).max(12) * 2
    }

    /// Mutations per delta session: fixed by the run length, not by
    /// how fast the server answers, so that every commit resumes the
    /// same history.
    pub fn delta_mutations(&self, seconds: u64) -> usize {
        ((self.delta_rate * seconds as f64).round() as usize).max(20)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: std::path::PathBuf,
    journal_fs: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        work_dir: std::path::PathBuf::from(".bench_work"),
        journal_fs: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            "--work-dir" => args.work_dir = value.into(),
            "--journal-fs" => args.journal_fs = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs one workload once.
pub fn run_workload(ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let mut report = match ctx.workload.as_str() {
        "solve-fig4" => fig4::run(ctx, traced)?,
        "serve-city" => city::run(ctx, traced)?,
        "delta-session" => delta::run(ctx, traced)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if traced {
        if report.get("par.threads").is_none() {
            report.layer("par.threads", usep_par::current_threads() as f64);
        }
        // layers this workload never enters read 0
        for (name, _, _) in PER_LAYER {
            if report.get(name).is_none() {
                report.layer(name, 0.0);
            }
        }
    }
    Ok(report)
}

/// A traced run: the per-layer metrics, plus the traced run's own
/// end-to-end numbers as a detail line, to set beside an untraced run of
/// the same seed (the difference is the tracing overhead).
fn run(ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let mut report = run_workload(ctx, traced)?;
    if traced {
        let e2e = report
            .e2e
            .iter()
            .map(|(name, v)| (name.to_string(), Value::F64(*v)))
            .collect();
        report.detail("traced_end_to_end", Value::Map(e2e));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usep-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    // pinned explicitly, so that USEP_THREADS cannot leak in
    usep_par::set_threads(hardware);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("usep-perfbench: work dir {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        threads: hardware,
        work_dir: args.work_dir.clone(),
        journal_fs: args.journal_fs.clone(),
        scale: Scale::full(),
    };
    let env = map(vec![
        ("workload", Value::Str(ctx.workload.clone())),
        ("seed", Value::U64(ctx.seed)),
        ("seconds", Value::U64(ctx.seconds)),
        ("trace", Value::U64(u64::from(args.trace))),
        ("hardware_threads", Value::U64(hardware as u64)),
        (
            "usep_par_threads",
            Value::U64(usep_par::current_threads() as u64),
        ),
        (
            "usep_threads_env_ignored",
            Value::Str(std::env::var("USEP_THREADS").unwrap_or_default()),
        ),
        ("journal_fs", Value::Str(ctx.journal_fs.clone())),
    ]);
    let report = match run(&ctx, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("usep-perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    let defs: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = match report.result_line(defs) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("usep-perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    let mut detail = vec![("env".to_string(), env)];
    detail.extend(report.detail.iter().cloned());
    if !report.problems.is_empty() {
        let problems = report
            .problems
            .iter()
            .map(|p| Value::Str(p.clone()))
            .collect();
        detail.push(("problems".to_string(), Value::Seq(problems)));
    }
    println!(
        "{}",
        Value::Map(vec![("detail".to_string(), Value::Map(detail))]).render()
    );
    println!("{line}");
    ExitCode::SUCCESS
}
