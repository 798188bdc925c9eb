//! `serve-city`: an open loop of solve requests against an in-process
//! `usep serve` whose journal is a real file.
//!
//! Requests carry Auckland- and Singapore-sized `generate_city`
//! snapshots, mixed in proportion to the two cities' user counts in the
//! paper's Table 6 (569 and 1500). Each snapshot is sent
//! twice under distinct ids, once for DeDPO and once for DeGreedy+RG,
//! so half of the requests repeat an instance the journal already
//! holds. Requests arrive evenly spaced at a fixed rate, in an order
//! the seed draws. Every request opens a fresh connection, as
//! `send_request` does.

use crate::common::{
    core_layers, map, ms, oracle_ok, record_peak, secs, start_server, timed, Conn, Ctx,
    PeakWindows, Reference, Served, SinkSnap, REF_SLOTS,
};
use crate::report::{mean_over, median, median_window, Report, SplitMix};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use usep_core::Instance;
use usep_gen::CityConfig;
use usep_serve::{JournalState, SolveResponse, Status};
use usep_trace::json::Value;

const ALGORITHMS: [&str; 2] = ["dedpo", "degreedy+rg"];

/// Generator seeds of the request corpus and of the warm-up and
/// reference corpus.
const CORPUS_SEED: u64 = 0xc0;
const WARMUP_SEED: u64 = 0x5eed;

/// One request line and what it asks for.
struct Request {
    line: Vec<u8>,
    snapshot: usize,
    algorithm: &'static str,
}

/// One client-side observation.
struct Sample {
    /// When the request was sent and answered, seconds into the phase.
    sent_s: f64,
    done_s: f64,
    late_ms: f64,
    latency_ms: f64,
    reply: Result<String, String>,
}

/// Which of the two cities snapshot `i` is sized after: 0 or 1, mixed
/// in proportion to their user counts and spread evenly, so that the
/// first k snapshots hold round(k × share) of the first city.
fn city_of(cities: &[CityConfig; 2], i: usize) -> usize {
    let share = cities[0].num_users as f64 / (cities[0].num_users + cities[1].num_users) as f64;
    usize::from(((i + 1) as f64 * share).round() <= (i as f64 * share).round())
}

/// Snapshot `i` of a run.
fn snapshot(cities: &[CityConfig; 2], seed: u64, i: usize) -> (String, Instance) {
    let cfg = &cities[city_of(cities, i)];
    let inst = usep_gen::generate_city(cfg, SplitMix(seed ^ (i as u64) << 20).next_u64());
    (cfg.name.clone(), inst)
}

fn request_line(id: &str, algorithm: &str, instance_json: &str) -> Vec<u8> {
    format!("{{\"id\":\"{id}\",\"algorithm\":\"{algorithm}\",\"instance\":{instance_json}}}\n")
        .into_bytes()
}

/// Sends `lines` one after another, each on a fresh connection; the
/// warm-up batch of a set-up.
fn send_batch(addr: SocketAddr, lines: &[Vec<u8>]) -> Result<(), String> {
    for line in lines {
        let reply = Conn::open(addr)
            .and_then(|mut c| c.call(line))
            .map_err(|e| e.to_string())?;
        let r: SolveResponse = serde_json::from_str(reply.trim_end()).map_err(|e| e.to_string())?;
        if r.status != Status::Complete {
            return Err(format!(
                "warm-up request {} answered {}",
                r.id,
                r.status.describe()
            ));
        }
    }
    Ok(())
}

/// Solver threads per server worker: the workers together use every
/// hardware thread, as `usep serve --workers N --threads 1` on N cores.
const SOLVER_THREADS: usize = 1;

pub fn run(ctx: &Ctx, traced: bool) -> Result<Report, String> {
    usep_par::set_threads(SOLVER_THREADS);
    let out = serve_city(ctx, traced);
    usep_par::set_threads(ctx.threads);
    out
}

fn serve_city(ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let s = &ctx.scale;
    let mut report = Report::default();
    let n = s.city_requests(ctx.seconds);
    let snapshots = n / 2;

    // inputs, all encoded before anything is timed: a fixed corpus of
    // snapshots, sent in an order drawn from the seed. The corpus is
    // fixed because the snapshots' sizes vary enough from draw to draw
    // to move the p50 between seeds on their own.
    let mut instances = Vec::with_capacity(snapshots);
    let mut requests = Vec::with_capacity(n);
    let mut sizes = Vec::new();
    for i in 0..snapshots {
        let (city, inst) = snapshot(&s.cities, CORPUS_SEED, i);
        let json = serde_json::to_string(&inst).map_err(|e| e.to_string())?;
        if i < 2 {
            sizes.push((city, inst.num_events(), inst.num_users(), json.len()));
        }
        for alg in ALGORITHMS {
            let id = format!("city-{}-{i}-{alg}", ctx.seed);
            requests.push(Request {
                line: request_line(&id, alg, &json),
                snapshot: i,
                algorithm: alg,
            });
        }
        instances.push(inst);
    }
    let mut rng = SplitMix(ctx.seed ^ 0xc17e);
    for i in (1..n).rev() {
        requests.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    // evenly spaced arrivals at the fixed rate: a Poisson schedule's
    // bursts, with two senders, made the p50 depend on the seed's draw
    let due: Vec<Duration> = (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / s.city_rate))
        .collect();
    // the warm-up batch and the reference solves use a second corpus
    let warmup: Vec<Vec<u8>> = (0..2)
        .flat_map(|i| {
            let (_, inst) = snapshot(&s.cities, WARMUP_SEED, i);
            let json = serde_json::to_string(&inst).expect("instances serialize");
            ALGORITHMS.map(|alg| request_line(&format!("warmup-{i}-{alg}"), alg, &json))
        })
        .collect();
    report.detail(
        "workload",
        map(vec![
            ("requests", Value::U64(n as u64)),
            ("rate_per_s", Value::F64(s.city_rate)),
            (
                "repeat_share",
                Value::F64((n - snapshots) as f64 / n as f64),
            ),
            (
                "snapshots_per_city",
                map((0..2)
                    .map(|c| {
                        let k = (0..snapshots).filter(|&i| city_of(&s.cities, i) == c);
                        (s.cities[c].name.as_str(), Value::U64(k.count() as u64))
                    })
                    .collect()),
            ),
            ("client_threads", Value::U64(ctx.threads as u64)),
            ("server_workers", Value::U64(ctx.threads as u64)),
            ("solver_threads", Value::U64(SOLVER_THREADS as u64)),
            (
                "snapshots",
                Value::Seq(
                    sizes
                        .iter()
                        .map(|(c, e, u, b)| {
                            map(vec![
                                ("city", Value::Str(c.clone())),
                                ("events", Value::U64(*e as u64)),
                                ("users", Value::U64(*u as u64)),
                                ("json_bytes", Value::U64(*b as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );

    // the five solvers in process on the warm-up corpus, in slots while
    // no request is in flight, so that no server or disk work overlaps
    // them: the first before the server starts
    let corpus: Vec<Instance> = (0..2)
        .map(|i| snapshot(&s.cities, WARMUP_SEED, i).1)
        .collect();
    let refs: Vec<&Instance> = corpus.iter().collect();
    let mut reference = Reference::default();
    reference.rounds(&refs, s.ref_budget_s / REF_SLOTS);

    // set-up: server start plus the warm-up batch, several times over a
    // fresh journal; the last server stays up
    let path = ctx.work_dir.join("serve-city.journal");
    let mut setups = Vec::new();
    let mut server: Option<Served> = None;
    for _ in 0..s.setup_reps {
        if let Some(old) = server.take() {
            old.stop();
        }
        let _ = std::fs::remove_file(&path);
        let (started, t) = timed(|| -> Result<Served, String> {
            let served =
                start_server(&path, ctx.threads, traced, false).map_err(|e| e.to_string())?;
            send_batch(served.addr(), &warmup)?;
            Ok(served)
        });
        server = Some(started?);
        setups.push(t);
    }
    let server = server.expect("at least one set-up");
    report.e2e("setup_s", median(&setups));
    report.detail("setup_samples", Value::U64(setups.len() as u64));
    let journal_before = server.journal_len();
    let io_before = server.io_counts();
    let sink_before = SinkSnap::of(server.handle.sink());

    // the open loop in two halves, with the second reference slot
    // between them, once every request of the first half is answered
    let half = n / 2;
    let peak = PeakWindows::start();
    let (mut samples, first_wall) =
        open_loop(server.addr(), &requests[..half], &due[..half], ctx.threads);
    let mut windows = peak.finish();
    reference.rounds(&refs, s.ref_budget_s / REF_SLOTS);
    let peak = PeakWindows::start();
    let (second, second_wall) = open_loop(
        server.addr(),
        &requests[half..],
        &due[..n - half],
        ctx.threads,
    );
    windows.extend(peak.finish());
    record_peak(&mut report, &windows);
    let offset = secs(first_wall);
    samples.extend(second.into_iter().map(|s| Sample {
        sent_s: s.sent_s + offset,
        done_s: s.done_s + offset,
        ..s
    }));
    let wall = first_wall + second_wall;
    report.attempted = n as u64;

    // referee, after the timed phase
    let mut latencies = Vec::with_capacity(n);
    let mut ok = vec![false; n];
    let mut responses: Vec<Option<SolveResponse>> = Vec::with_capacity(n);
    let mut omega = 0.0;
    for (i, sample) in samples.iter().enumerate() {
        let parsed = sample
            .reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|line| {
                serde_json::from_str::<SolveResponse>(line.trim_end()).map_err(|e| e.to_string())
            });
        let verdict =
            parsed
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| match (&r.status, &r.planning) {
                    (Status::Complete, Some(planning)) => {
                        oracle_ok(&instances[requests[i].snapshot], planning, r.omega)
                    }
                    (status, _) => Err(format!("answered {}", status.describe())),
                });
        match verdict {
            Ok(()) => {
                ok[i] = true;
                omega += parsed
                    .as_ref()
                    .expect("verdict Ok implies a parsed reply")
                    .omega;
                latencies.push(sample.latency_ms);
            }
            Err(e) => {
                eprintln!("perfbench: request {i} failed: {e}");
                report.failed += 1;
                // a failed request misses every latency limit
                latencies.push(ms(wall));
            }
        }
        responses.push(parsed.ok());
    }
    report.e2e("omega", omega);
    let q = report.latency(&latencies)?;
    let journal_end = server.journal_len();
    report.e2e(
        "journal_kb",
        (journal_end - journal_before) as f64 / 1024.0 / n as f64,
    );
    let busy: f64 = responses
        .iter()
        .flatten()
        .filter_map(|r| r.timings.map(|t| t.admission_ms + t.solve_ms))
        .sum();
    let classes = (0..2)
        .flat_map(|c| ALGORITHMS.map(|alg| (c, alg)))
        .map(|(c, alg)| {
            let city = &s.cities[c].name;
            let lat: Vec<f64> = (0..n)
                .filter(|&i| ok[i] && city_of(&s.cities, requests[i].snapshot) == c)
                .filter(|&i| requests[i].algorithm == alg)
                .map(|i| samples[i].latency_ms)
                .collect();
            let p50 = if lat.is_empty() {
                Value::Str("none".into())
            } else {
                Value::F64(median(&lat))
            };
            (
                format!("{city}/{alg}"),
                map(vec![
                    ("requests", Value::U64(lat.len() as u64)),
                    ("p50_ms", p50),
                ]),
            )
        })
        .collect();
    report.detail("latency_by_class", Value::Map(classes));
    report.detail(
        "timed_phase",
        map(vec![
            ("wall_s", Value::F64(secs(wall))),
            (
                "server_busy_share",
                Value::F64(busy / 1e3 / secs(wall) / ctx.threads as f64),
            ),
            (
                "in_flight_share",
                Value::F64(in_flight(&samples) / secs(wall)),
            ),
            (
                "late_mean_ms",
                Value::F64(samples.iter().map(|s| s.late_ms).sum::<f64>() / n as f64),
            ),
        ]),
    );

    if traced {
        let good: Vec<usize> = (0..n).filter(|&i| ok[i]).collect();
        let good_lat: Vec<f64> = good.iter().map(|&i| samples[i].latency_ms).collect();
        let window: Vec<usize> = median_window(&good_lat)
            .into_iter()
            .map(|w| good[w])
            .collect();
        let phase = |i: usize| {
            responses[i]
                .as_ref()
                .and_then(|r| r.timings)
                .unwrap_or_default()
        };
        let admission = mean_over(&window, |i| phase(i).admission_ms);
        let queue = mean_over(&window, |i| phase(i).queue_wait_ms);
        let solve = mean_over(&window, |i| phase(i).solve_ms);
        let backoff = mean_over(&window, |i| phase(i).backoff_ms);
        let client = mean_over(&window, |i| samples[i].latency_ms);
        report.layer("serve.admission_ms", admission);
        report.layer("serve.queue_wait_ms", queue);
        report.layer("serve.solve_ms", solve);
        report.layer("serve.backoff_ms", backoff);
        report.layer(
            "serve.wire_ms",
            client - admission - queue - solve - backoff,
        );
        report.layer(
            "serve.retries",
            responses.iter().flatten().map(|r| r.retries as f64).sum(),
        );
        report.layer(
            "serve.shed",
            responses
                .iter()
                .flatten()
                .filter(|r| matches!(r.status, Status::Overloaded { .. }))
                .count() as f64,
        );
        report.detail(
            "p50_breakdown",
            map(vec![
                ("window_requests", Value::U64(window.len() as u64)),
                ("window_mean_ms", Value::F64(client)),
                ("p50_ms", Value::F64(q.p50)),
            ]),
        );
        server.io_counts().minus(&io_before).record(&mut report, n);
        SinkSnap::of(server.handle.sink())
            .minus(&sink_before)
            .record(&mut report);
        report.layer("par.threads", SOLVER_THREADS as f64);
        report.layer(
            "client.late_ms",
            samples.iter().map(|s| s.late_ms).sum::<f64>() / n as f64,
        );
        report.layer("client.sent", n as f64);
        report.layer("client.failed", report.failed as f64);
        let (state, t) = timed(|| JournalState::replay(&path));
        state.map_err(|e| e.to_string())?;
        report.layer("journal.replay_s", t);
        let singapore = (0..snapshots)
            .find(|&i| city_of(&s.cities, i) == 1)
            .ok_or("no Singapore-sized snapshot")?;
        core_layers(&mut report, &instances[singapore], s.setup_reps);
    }
    server.stop();

    // restart on the same journal: resume_s runs until the restarted
    // server answers a duplicate of the first request from its journal
    let first = (0..n).find(|&i| ok[i]).ok_or("no request completed")?;
    let (resumed, t) = timed(|| -> Result<(Served, SolveResponse), String> {
        let served = start_server(&path, ctx.threads, false, true).map_err(|e| e.to_string())?;
        let reply = Conn::open(served.addr())
            .and_then(|mut c| c.call(&requests[first].line))
            .map_err(|e| e.to_string())?;
        let r = serde_json::from_str(reply.trim_end()).map_err(|e| e.to_string())?;
        Ok((served, r))
    });
    let (served, replayed) = resumed?;
    served.stop();
    report.e2e("resume_s", t);
    let original = responses[first].as_ref().expect("ok implies parsed");
    if replayed.omega.to_bits() != original.omega.to_bits()
        || replayed.planning != original.planning
    {
        report.problem(
            "the resumed server answered a duplicate id differently from the original reply",
        );
    }
    let _ = std::fs::remove_file(&path);
    reference.rounds(&refs, s.ref_budget_s / REF_SLOTS);
    if traced {
        reference.trace(&refs);
    }
    reference.record(&mut report, traced);
    Ok(report)
}

/// Runs the open loop: `threads` senders take requests in schedule
/// order, wait for each one's due time and time it from then, so a
/// stall shows in every request it delays.
fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    due: &[Duration],
    threads: usize,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<Option<Sample>> = (0..requests.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= requests.len() {
                            break;
                        }
                        let due_at = start + due[i];
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let reply = Conn::open(addr)
                            .and_then(|mut c| c.call(&requests[i].line))
                            .map_err(|e| e.to_string());
                        let done = Instant::now();
                        out.push((
                            i,
                            Sample {
                                sent_s: secs(sent.saturating_duration_since(start)),
                                done_s: secs(done.saturating_duration_since(start)),
                                late_ms: ms(sent.saturating_duration_since(due_at)),
                                latency_ms: ms(done.saturating_duration_since(due_at)),
                                reply,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            for (i, sample) in w.join().expect("sender threads do not panic") {
                samples[i] = Some(sample);
            }
        }
    });
    let wall = start.elapsed();
    (
        samples
            .into_iter()
            .map(|s| s.expect("every request was taken"))
            .collect(),
        wall,
    )
}

/// Seconds during which at least one request was in flight.
fn in_flight(samples: &[Sample]) -> f64 {
    let mut spans: Vec<(f64, f64)> = samples.iter().map(|s| (s.sent_s, s.done_s)).collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, f64::MIN);
    for (a, b) in spans {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
            reach = b;
        }
    }
    covered
}
