//! `delta-session`: one closed-loop `{"verb":"mutate"}` session per
//! hardware thread, each on its own persistent connection, replaying a
//! `usep_delta::generate_trace` mutation stream; then the server is
//! restarted with `resume` on the same journal.

use crate::common::{
    core_layers, map, oracle_ok, start_server, timed, Conn, Ctx, PeakHeap, Reference, Served,
    SinkSnap, REF_SLOTS,
};
use crate::report::{mean_over, median, median_window, Report, SplitMix};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use usep_algos::{TraceSink, NOOP};
use usep_delta::{generate_trace, DeltaConfig, DeltaEngine, MutationTrace, TraceGenConfig};
use usep_serve::{JournalState, MutateRequest, MutateResponse};
use usep_trace::json::Value;
use usep_trace::Probe;

/// Trace-generator seeds of the sessions' traces and of the fixed
/// reference-solve instance.
const TRACE_SEED: u64 = 0xde17a;
const REFERENCE_SEED: u64 = 0x5eed;

/// One mutation's latency (ms) and reply line.
type Sample = (f64, Result<String, String>);

/// A session's connection and its samples.
type Stream = (Conn, Vec<Sample>);

/// One session's inputs, encoded before anything is timed.
struct Session {
    name: String,
    trace: MutationTrace,
    open: Vec<u8>,
    mutations: Vec<Vec<u8>>,
    query: Vec<u8>,
}

fn line(req: &MutateRequest) -> Vec<u8> {
    let mut out = serde_json::to_string(req)
        .expect("requests serialize")
        .into_bytes();
    out.push(b'\n');
    out
}

fn request(session: &str) -> MutateRequest {
    MutateRequest {
        verb: "mutate".to_string(),
        session: session.to_string(),
        open: None,
        fallback_threshold: None,
        mutation_id: None,
        mutation: None,
        query: false,
        close: false,
    }
}

fn parse(reply: &str) -> Result<MutateResponse, String> {
    let r: MutateResponse = serde_json::from_str(reply.trim_end()).map_err(|e| e.to_string())?;
    if r.ok {
        Ok(r)
    } else {
        Err(format!(
            "session {} refused: {}",
            r.session,
            r.error.unwrap_or_default()
        ))
    }
}

/// Opens every session concurrently, one connection each.
fn open_sessions(addr: SocketAddr, sessions: &[Session]) -> Result<Vec<Conn>, String> {
    std::thread::scope(|scope| {
        let opens: Vec<_> = sessions
            .iter()
            .map(|s| {
                scope.spawn(move || -> Result<Conn, String> {
                    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
                    parse(&conn.call(&s.open).map_err(|e| e.to_string())?)?;
                    Ok(conn)
                })
            })
            .collect();
        opens
            .into_iter()
            .map(|h| h.join().expect("open threads do not panic"))
            .collect()
    })
}

/// Runs mutations `range` of every session, each on its own connection
/// and thread, closed loop; returns the connections with the samples.
fn closed_loop(
    conns: Vec<Conn>,
    sessions: &[Session],
    range: std::ops::Range<usize>,
) -> Vec<Stream> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(sessions)
            .map(|(mut conn, session)| {
                let range = range.clone();
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(range.len());
                    for m in &session.mutations[range] {
                        let t = Instant::now();
                        let reply = conn.call(m).map_err(|e| e.to_string());
                        out.push((t.elapsed().as_secs_f64() * 1e3, reply));
                    }
                    (conn, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session threads do not panic"))
            .collect()
    })
}

/// The identity a session must keep across a restart.
fn same_state(a: &MutateResponse, b: &MutateResponse) -> bool {
    a.omega.to_bits() == b.omega.to_bits()
        && a.drift.to_bits() == b.drift.to_bits()
        && (a.assignments, a.mutations, a.repairs, a.fallbacks)
            == (b.assignments, b.mutations, b.repairs, b.fallbacks)
}

/// What replaying one session's trace in process found.
struct Replay {
    open_s: f64,
    apply_ms: Vec<f64>,
    /// Mutations where the server and the replay disagree.
    disagreements: u64,
    problems: Vec<String>,
}

/// Replays `session`'s trace through `DeltaEngine::new`/`apply` and
/// checks it against the server's replies and its pre-restart state.
fn replay(
    session: &Session,
    replies: &[Option<MutateResponse>],
    pre: &MutateResponse,
    probe: &dyn Probe,
) -> Replay {
    let (mut engine, open_s) = timed(|| {
        DeltaEngine::new(
            session.trace.instance.clone(),
            DeltaConfig::default(),
            probe,
        )
    });
    let mut out = Replay {
        open_s,
        apply_ms: Vec::with_capacity(replies.len()),
        disagreements: 0,
        problems: Vec::new(),
    };
    for (j, m) in session.trace.mutations.iter().enumerate() {
        let (outcome, t) = timed(|| engine.apply(m, probe));
        out.apply_ms.push(t * 1e3);
        let agrees = match (&outcome, &replies[j]) {
            (Ok(o), Some(r)) => {
                o.omega.to_bits() == r.omega.to_bits()
                    && (o.evicted as u64, o.added as u64, o.touched as u64)
                        == (r.evicted, r.added, r.touched)
            }
            _ => false,
        };
        if !agrees && replies[j].is_some() {
            out.disagreements += 1;
            eprintln!(
                "perfbench: {} mutation {j}: server and in-process replay disagree",
                session.name
            );
        }
    }
    if engine.omega().to_bits() != pre.omega.to_bits()
        || engine.planning().num_assignments() as u64 != pre.assignments
    {
        out.problems.push(format!(
            "{}: in-process replay ends at Ω {}, server at {}",
            session.name,
            engine.omega(),
            pre.omega
        ));
    }
    if let Err(e) = oracle_ok(engine.instance(), engine.planning(), engine.omega()) {
        out.problems.push(format!("{}: {e}", session.name));
    }
    out
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let s = &ctx.scale;
    let mut report = Report::default();
    let per_session = s.delta_mutations(ctx.seconds);
    // the traces are a fixed corpus; the seed names the sessions and
    // mutation ids. A trace's share of large event-add records varies
    // enough from draw to draw to move journal_kb between seeds on its own.
    let mut rng = SplitMix(TRACE_SEED);
    let sessions: Vec<Session> = (0..ctx.threads)
        .map(|k| {
            let name = format!("delta-{}-{k}", ctx.seed);
            let trace = generate_trace(&TraceGenConfig {
                seed: rng.next_u64(),
                mutations: per_session,
                events: s.delta_events,
                users: s.delta_users,
            });
            let open = line(&MutateRequest {
                open: Some(Arc::new(trace.instance.clone())),
                ..request(&name)
            });
            let mutations = trace
                .mutations
                .iter()
                .enumerate()
                .map(|(j, m)| {
                    line(&MutateRequest {
                        mutation_id: Some(format!("{name}-{j}")),
                        mutation: Some(m.clone()),
                        ..request(&name)
                    })
                })
                .collect();
            let query = line(&MutateRequest {
                query: true,
                ..request(&name)
            });
            Session {
                name,
                trace,
                open,
                mutations,
                query,
            }
        })
        .collect();
    let total = per_session * sessions.len();
    report.detail(
        "workload",
        map(vec![
            ("sessions", Value::U64(sessions.len() as u64)),
            ("events", Value::U64(s.delta_events as u64)),
            ("users", Value::U64(s.delta_users as u64)),
            ("mutations_per_session", Value::U64(per_session as u64)),
            ("open_json_bytes", Value::U64(sessions[0].open.len() as u64)),
        ]),
    );

    // the five solvers in process on a fixed instance of the sessions'
    // shape, in slots while no mutation is in flight: before the server
    // starts, between the halves of the timed phase, and after the resume
    let corpus = generate_trace(&TraceGenConfig {
        seed: REFERENCE_SEED,
        mutations: 0,
        events: s.delta_events,
        users: s.delta_users,
    });
    let mut reference = Reference::default();
    reference.rounds(&[&corpus.instance], s.ref_budget_s / REF_SLOTS);

    // set-up: server start plus every session's open (cold solve and a
    // journaled DeltaOpen), several times; the last one stays up
    let path = ctx.work_dir.join("delta-session.journal");
    let mut setups = Vec::new();
    let mut live: Option<(Served, Vec<Conn>)> = None;
    for _ in 0..s.setup_reps {
        if let Some((old, conns)) = live.take() {
            drop(conns);
            old.stop();
        }
        let _ = std::fs::remove_file(&path);
        let (started, t) = timed(|| -> Result<(Served, Vec<Conn>), String> {
            let served =
                start_server(&path, ctx.threads, traced, false).map_err(|e| e.to_string())?;
            let conns = open_sessions(served.addr(), &sessions)?;
            Ok((served, conns))
        });
        live = Some(started?);
        setups.push(t);
    }
    let (server, conns) = live.expect("at least one set-up");
    report.e2e("setup_s", median(&setups));
    report.detail("setup_samples", Value::U64(setups.len() as u64));
    let journal_before = server.journal_len();
    let io_before = server.io_counts();

    // timed phase: each session sends its next mutation when the last
    // reply is in. It runs in two halves, with the second reference
    // slot between them while the sessions wait.
    let heap = PeakHeap::start();
    let half = per_session / 2;
    let (conns, outs): (Vec<Conn>, Vec<Vec<Sample>>) =
        closed_loop(conns, &sessions, 0..half).into_iter().unzip();
    let first_peak = heap.mb();
    reference.rounds(&[&corpus.instance], s.ref_budget_s / REF_SLOTS);
    let carried = heap.retained_mb(0);
    let between = PeakHeap::start();
    let second = closed_loop(conns, &sessions, half..per_session);
    let server_peak = first_peak.max(carried + between.mb());
    let streams: Vec<Stream> = second
        .into_iter()
        .zip(outs)
        .map(|((conn, rest), mut out)| {
            out.extend(rest);
            (conn, out)
        })
        .collect();
    // peak_mb is the heap the server keeps after the timed phase (session
    // state, the per-session reply caches, journal and metrics state)
    // above the live bytes before it, less the client's reply lines. The
    // phase's high-water mark is a detail: it depends on whether the two
    // sessions' cold fallback solves overlap, and took one of two values
    // (89 or 113 MB) from run to run; the median of 2-second windows of it
    // spread by a sixth between seeds.
    let client_bytes: usize = streams
        .iter()
        .map(|(_, out)| {
            out.capacity() * std::mem::size_of::<(f64, Result<String, String>)>()
                + out
                    .iter()
                    .map(|(_, r)| match r {
                        Ok(line) | Err(line) => line.capacity(),
                    })
                    .sum::<usize>()
        })
        .sum();
    report.e2e("peak_mb", heap.retained_mb(client_bytes));
    report.detail("server_peak_mb", Value::F64(server_peak));
    report.attempted = total as u64;
    let io_timed = server.io_counts().minus(&io_before);
    let journal_kb = (server.journal_len() - journal_before) as f64 / 1024.0 / total as f64;
    report.e2e("journal_kb", journal_kb);

    let mut before_restart = Vec::new();
    let mut replies: Vec<Vec<Option<MutateResponse>>> = Vec::new();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    for ((mut conn, out), session) in streams.into_iter().zip(&sessions) {
        let mut parsed = Vec::with_capacity(out.len());
        for (latency, reply) in out {
            match reply.and_then(|r| parse(&r)) {
                Ok(r) => {
                    latencies.push(latency);
                    parsed.push(Some(r));
                }
                Err(e) => {
                    eprintln!("perfbench: mutation failed: {e}");
                    report.failed += 1;
                    latencies.push(f64::MAX);
                    parsed.push(None);
                }
            }
        }
        replies.push(parsed);
        let q = conn
            .call(&session.query)
            .map_err(|e| e.to_string())
            .and_then(|r| parse(&r))?;
        before_restart.push(q);
    }
    // a failed mutation misses every limit: it counts as the slowest
    let slowest = latencies
        .iter()
        .copied()
        .filter(|&l| l < f64::MAX)
        .fold(0.0, f64::max);
    for l in &mut latencies {
        if *l == f64::MAX {
            *l = slowest;
        }
    }
    let q = report.latency(&latencies)?;
    let kinds: Vec<&str> = sessions
        .iter()
        .flat_map(|s| s.trace.mutations.iter().map(|m| m.kind()))
        .collect();
    let mut by_kind: Vec<&str> = kinds.clone();
    by_kind.sort_unstable();
    by_kind.dedup();
    let by_kind = by_kind
        .into_iter()
        .map(|kind| {
            let lat: Vec<f64> = (0..total)
                .filter(|&i| kinds[i] == kind)
                .map(|i| latencies[i])
                .collect();
            let max = lat.iter().copied().fold(0.0, f64::max);
            let summary = vec![
                ("mutations", Value::U64(lat.len() as u64)),
                ("p50_ms", Value::F64(median(&lat))),
                ("max_ms", Value::F64(max)),
            ];
            (kind.to_string(), map(summary))
        })
        .collect();
    report.detail("latency_by_kind", Value::Map(by_kind));
    report.e2e("omega", before_restart.iter().map(|r| r.omega).sum());
    if traced {
        let (state, t) = timed(|| JournalState::replay(&path));
        state.map_err(|e| e.to_string())?;
        report.layer("journal.replay_s", t);
    }
    server.stop();

    // restart: resume_s runs until every session answers a query with
    // its pre-restart state
    let (resumed, t) = timed(|| -> Result<(Served, Vec<MutateResponse>), String> {
        let served = start_server(&path, ctx.threads, false, true).map_err(|e| e.to_string())?;
        let mut after = Vec::new();
        for session in &sessions {
            let mut conn = Conn::open(served.addr()).map_err(|e| e.to_string())?;
            after.push(parse(
                &conn.call(&session.query).map_err(|e| e.to_string())?,
            )?);
        }
        Ok((served, after))
    });
    let (served, after) = resumed?;
    served.stop();
    report.e2e("resume_s", t);
    for (a, b) in before_restart.iter().zip(&after) {
        if !same_state(a, b) {
            report.problem(format!(
                "session {} resumed as {:?}, was {:?}",
                a.session, b, a
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    reference.rounds(&[&corpus.instance], s.ref_budget_s / REF_SLOTS);

    // referee: the same traces replayed in process must give the server's
    // Ω after every mutation, and the final plannings must pass the oracle
    let sink = traced.then(TraceSink::new);
    let probe: &dyn Probe = match &sink {
        Some(s) => s,
        None => &NOOP,
    };
    let replay_peak = PeakHeap::start();
    // untraced, the sessions are replayed side by side, which keeps the
    // run short; traced, one after the other, so that each apply is
    // timed alone
    let jobs = sessions.iter().zip(&replies).zip(&before_restart);
    let replays: Vec<Replay> = if traced {
        jobs.map(|((s, r), pre)| replay(s, r, pre, probe)).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .map(|((s, r), pre)| scope.spawn(move || replay(s, r, pre, probe)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay threads do not panic"))
                .collect()
        })
    };
    let mut opens = Vec::new();
    let mut apply_ms: Vec<f64> = Vec::with_capacity(total);
    for r in replays {
        opens.push(r.open_s);
        apply_ms.extend(r.apply_ms);
        report.failed += r.disagreements;
        for p in r.problems {
            report.problem(p);
        }
    }

    report.detail("replay_peak_mb", Value::F64(replay_peak.mb()));

    if traced {
        let window = median_window(&latencies);
        let journal_ms = io_timed.ms_per_op(total);
        let apply = mean_over(&window, |i| apply_ms[i]);
        report.layer("delta.open_s", median(&opens));
        report.layer("delta.apply_ms", apply);
        report.layer(
            "delta.wire_ms",
            mean_over(&window, |i| latencies[i]) - apply - journal_ms,
        );
        let (mutations, repairs, fallbacks) =
            before_restart.iter().fold((0, 0, 0), |(m, r, f), q| {
                (m + q.mutations, r + q.repairs, f + q.fallbacks)
            });
        report.layer(
            "delta.repair_share",
            repairs as f64 / mutations.max(1) as f64,
        );
        report.layer("delta.fallbacks", fallbacks as f64);
        let flat = replies.iter().flatten().flatten();
        report.layer(
            "delta.evicted",
            flat.clone().map(|r| r.evicted as f64).sum(),
        );
        report.layer("delta.touched", flat.map(|r| r.touched as f64).sum());
        report.detail(
            "p50_breakdown",
            map(vec![
                ("window_mutations", Value::U64(window.len() as u64)),
                (
                    "window_mean_ms",
                    Value::F64(mean_over(&window, |i| latencies[i])),
                ),
                ("journal_ms_per_mutation", Value::F64(journal_ms)),
                ("p50_ms", Value::F64(q.p50)),
            ]),
        );
        io_timed.record(&mut report, total);
        SinkSnap::of(sink.as_ref().expect("traced")).record(&mut report);
        report.layer("client.late_ms", 0.0);
        report.layer("client.sent", total as f64);
        report.layer("client.failed", report.failed as f64);
        core_layers(&mut report, &sessions[0].trace.instance, s.setup_reps);
    }
    if traced {
        reference.trace(&[&corpus.instance]);
    }
    reference.record(&mut report, traced);
    Ok(report)
}
