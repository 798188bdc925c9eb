//! `solve-fig4`: one Fig. 4 scal-200 instance solved in process by the
//! five scalable solvers. Offline use at paper scale; no serve code runs
//! in the timed phase.

use crate::common::{
    core_layers, map, oracle_ok, secs, timed, unattributed, CountingIo, Ctx, PeakHeap, SinkSnap,
    SOLVERS,
};
use crate::report::{median, Report, SplitMix};

/// Generator seed of the fixed scal-200 instance.
const INSTANCE_SEED: u64 = 7;
use std::sync::Arc;
use std::time::Instant;
use usep_algos::{augment_with_ratio_greedy, solve_with_probe, TraceSink, NOOP};
use usep_core::{Instance, Planning};
use usep_serve::{
    Journal, JournalIo, JournalRecord, JournalState, SolveRequest, SolveResponse, Status, StdIo,
};
use usep_trace::json::Value;

pub fn run(ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let s = &ctx.scale;
    let mut report = Report::default();
    let cfg = usep_gen::SyntheticConfig::default()
        .with_events(s.fig4_events)
        .with_users(s.fig4_users)
        .with_capacity_mean(s.fig4_capacity);
    // the instance is fixed: its DP tables, and so DeDPO's time and
    // memory, vary enough from draw to draw to move the numbers between
    // seeds on their own. The seed draws the order of the solves.
    let input = serde_json::to_string(&usep_gen::generate(&cfg, INSTANCE_SEED))
        .map_err(|e| e.to_string())?;
    report.detail(
        "instance",
        map(vec![
            ("events", Value::U64(s.fig4_events as u64)),
            ("users", Value::U64(s.fig4_users as u64)),
            ("capacity_mean", Value::U64(u64::from(s.fig4_capacity))),
            ("json_bytes", Value::U64(input.len() as u64)),
        ]),
    );

    // set-up: parse + validate + lower, several times; the last copy is
    // the one the solvers use
    let mut setups = Vec::new();
    let mut inst = None;
    for _ in 0..s.fig4_setup_reps {
        let (parsed, t) = timed(|| -> Result<Instance, String> {
            let parsed: Instance = serde_json::from_str(&input).map_err(|e| e.to_string())?;
            parsed.validate().map_err(|e| e.to_string())?;
            parsed.freeze();
            Ok(parsed)
        });
        setups.push(t);
        inst = Some(parsed?);
    }
    let inst = inst.expect("at least one set-up");
    report.e2e("setup_s", median(&setups));
    report.detail("setup_samples", Value::U64(setups.len() as u64));

    // timed phase: rounds, one per ten seconds of `--seconds` (about
    // ten seconds each). A round runs every solver, the fast ones
    // several times, in an order drawn from the seed, so that each
    // solver's samples spread over the whole run and a slow spell on a
    // shared machine falls on all of them alike. An untimed DeGreedy
    // solve first takes the process's first-use costs.
    std::hint::black_box(solve_with_probe(SOLVERS[3].0, &inst, &NOOP));
    let mut rng = SplitMix(ctx.seed);
    let started = Instant::now();
    let rounds = s.fig4_rounds(ctx.seconds);
    let mut walls: [Vec<f64>; 5] = Default::default();
    let mut peaks: [Vec<f64>; 5] = Default::default();
    let mut all_ms = Vec::new();
    let mut first: [Option<(Planning, f64, SinkSnap)>; 5] = Default::default();
    let mut solves = 0;
    for r in 0..rounds {
        // a host so slow that the rounds overrun `--seconds` stops early,
        // so that a benchmark check stays within its time limit
        if r >= 2 && secs(started.elapsed()) >= ctx.seconds as f64 {
            break;
        }
        let mut round: Vec<usize> = (0..s.fig4_round.len())
            .flat_map(|k| std::iter::repeat_n(k, s.fig4_round[k]))
            .collect();
        for i in (1..round.len()).rev() {
            round.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for k in round {
            solves += 1;
            let alg = SOLVERS[k].0;
            let sink = traced.then(TraceSink::new);
            let heap = PeakHeap::start();
            let (planning, t) = timed(|| match &sink {
                Some(sink) => solve_with_probe(alg, &inst, sink),
                None => solve_with_probe(alg, &inst, &NOOP),
            });
            peaks[k].push(heap.mb());
            walls[k].push(t);
            all_ms.push(t * 1e3);
            let omega = planning.omega(&inst);
            match &first[k] {
                None => {
                    let snap = sink.as_ref().map(SinkSnap::of).unwrap_or_default();
                    first[k] = Some((planning, omega, snap));
                }
                Some((_, omega0, _)) if omega.to_bits() != omega0.to_bits() => {
                    report.failed += 1;
                    report.problem(format!(
                        "{}: Ω {omega} differs from its first run's {omega0}",
                        alg.name()
                    ));
                }
                Some(_) => {}
            }
        }
    }
    report.detail("timed_s", Value::F64(secs(started.elapsed())));
    // each solver's working set above its input, summed like Ω
    report.e2e("peak_mb", peaks.iter().map(|p| median(p)).sum());
    report.attempted = solves;
    let first: Vec<(Planning, f64, SinkSnap)> = first
        .into_iter()
        .map(|f| f.expect("every solver ran"))
        .collect();

    let mut omega = 0.0;
    for (k, &(alg, e2e, layer)) in SOLVERS.iter().enumerate() {
        report.e2e(e2e, median(&walls[k]));
        let (planning, omega_k, snap) = &first[k];
        omega += omega_k;
        if let Err(e) = oracle_ok(&inst, planning, *omega_k) {
            report.failed += 1;
            report.problem(format!("{}: {e}", alg.name()));
        }
        if traced {
            report.layer(layer, unattributed(snap, walls[k][0]));
        }
    }
    report.e2e("omega", omega);
    report.latency(&all_ms)?;
    report.detail("rounds", Value::U64(walls[0].len() as u64));
    report.detail(
        "solves",
        map(SOLVERS
            .iter()
            .enumerate()
            .map(|(k, s)| (s.0.name(), Value::U64(walls[k].len() as u64)))
            .collect()),
    );

    if traced {
        let mut totals = SinkSnap::default();
        for (_, _, snap) in &first {
            totals.add(snap);
        }
        totals.record(&mut report);
        // the +RG pass alone, timed through its public call on clones of
        // the DeDPO and DeGreedy plannings
        let mut augment = 0.0;
        for base in [1, 3] {
            let mut planning = first[base].0.clone();
            augment += timed(|| augment_with_ratio_greedy(&inst, &mut planning)).1;
        }
        report.layer("algos.augment_s", augment);
        core_layers(&mut report, &inst, s.setup_reps);
    }

    journal_phase(ctx, &inst, &first, traced, &mut report)?;
    Ok(report)
}

/// What journaling the five solves would cost: each solve written as
/// the `Accepted` + `Completed` pair a server would write for it, then
/// the journal replayed as a restarted server would. Outside the timed
/// phase, through the public `Journal` API.
fn journal_phase(
    ctx: &Ctx,
    inst: &Instance,
    first: &[(Planning, f64, SinkSnap)],
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let path = ctx.work_dir.join("solve-fig4.journal");
    let _ = std::fs::remove_file(&path);
    let counting = if traced {
        Some(Arc::new(
            CountingIo::open(&path).map_err(|e| e.to_string())?,
        ))
    } else {
        None
    };
    let io: Arc<dyn JournalIo> = match &counting {
        Some(c) => c.clone(),
        None => Arc::new(StdIo::open(&path).map_err(|e| e.to_string())?),
    };
    let journal = Journal::from_io(io, None).map_err(|e| e.to_string())?;
    let shared = Arc::new(inst.clone());
    let before = counting.as_ref().map(|c| c.counts()).unwrap_or_default();
    for (k, (planning, omega, _)) in first.iter().enumerate() {
        let alg = SOLVERS[k].0;
        let id = format!("fig4-{}-{k}", ctx.seed);
        let request = SolveRequest {
            id: id.clone(),
            instance: Arc::clone(&shared),
            algorithm: Some(alg.name().to_string()),
            timeout_ms: None,
            mem_budget_mb: None,
            city: None,
        };
        let response = SolveResponse {
            omega: *omega,
            assignments: planning.num_assignments() as u64,
            executed: Some(alg.name().to_string()),
            planning: Some(planning.clone()),
            ..SolveResponse::bare(id, Status::Complete)
        };
        for record in [
            JournalRecord::Accepted { request },
            JournalRecord::Completed { response },
        ] {
            journal.append(&record).map_err(|e| e.to_string())?;
        }
    }
    let ops = first.len();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    report.e2e("journal_kb", bytes as f64 / 1024.0 / ops as f64);
    if let Some(c) = &counting {
        c.counts().minus(&before).record(report, ops);
    }
    let mut replays = Vec::new();
    for _ in 0..ctx.scale.setup_reps {
        let (state, t) = timed(|| JournalState::replay(&path));
        let state = state.map_err(|e| e.to_string())?;
        replays.push(t);
        let same = state.completed.len() == ops
            && first.iter().enumerate().all(|(k, (_, omega, _))| {
                state
                    .completed
                    .get(&format!("fig4-{}-{k}", ctx.seed))
                    .is_some_and(|r| r.omega.to_bits() == omega.to_bits())
            });
        if !same {
            report.problem("replayed journal does not hold the five completions");
        }
    }
    report.e2e("resume_s", median(&replays));
    report.layer("journal.replay_s", median(&replays));
    let _ = std::fs::remove_file(&path);
    Ok(())
}
