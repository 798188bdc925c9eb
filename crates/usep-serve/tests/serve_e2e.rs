//! End-to-end serve tests over real sockets: clean solves, typed
//! rejections, load shedding, idempotent replay, and journal resume.

use std::time::Duration;
use usep_core::Instance;
use usep_gen::{generate, SyntheticConfig};
use usep_serve::{
    send_request, Journal, JournalRecord, JournalState, ServeConfig, Server, SolveRequest,
    SolveResponse, Status,
};
use usep_trace::Counter;

fn instance(seed: u64) -> Instance {
    generate(&SyntheticConfig::tiny().with_events(6).with_users(24).with_capacity_mean(4), seed)
}

fn request(id: &str, seed: u64) -> SolveRequest {
    SolveRequest {
        id: id.to_string(),
        instance: std::sync::Arc::new(instance(seed)),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    }
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usep_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn solves_end_to_end_and_replays_duplicates_from_cache() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    let req = request("job-1", 7);
    let first = send_request(addr, &req, CLIENT_TIMEOUT).unwrap();
    assert_eq!(first.status, Status::Complete, "{first:?}");
    assert_eq!(first.id, "job-1");
    assert!(first.omega > 0.0);
    let planning = first.planning.as_ref().expect("complete responses carry the planning");
    planning.validate(&req.instance).unwrap();
    assert_eq!(first.executed.as_deref(), Some("DeDPO"));

    // same id again: answered from the completion cache, not re-solved
    let again = send_request(addr, &req, CLIENT_TIMEOUT).unwrap();
    assert_eq!(again.status, Status::Complete);
    assert_eq!(again.omega, first.omega);
    assert_eq!(server.counter(Counter::ServeReplay), 1);
    assert_eq!(server.counter(Counter::ServeAccept), 1);

    server.shutdown();
    server.wait();
}

#[test]
fn malformed_unknown_and_invalid_requests_are_rejected_not_fatal() {
    use std::io::{BufRead, BufReader, Write};

    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // raw garbage line → typed Rejected, connection stays usable
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    writeln!(stream, "this is not json").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: SolveResponse = serde_json::from_str(line.trim_end()).unwrap();
    assert!(matches!(resp.status, Status::Rejected { .. }), "{resp:?}");

    // unknown algorithm on the same connection
    let mut bad_algo = request("job-2", 8);
    bad_algo.algorithm = Some("quantum-annealing".to_string());
    writeln!(stream, "{}", serde_json::to_string(&bad_algo).unwrap()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let resp: SolveResponse = serde_json::from_str(line.trim_end()).unwrap();
    match &resp.status {
        Status::Rejected { error } => assert!(error.contains("quantum-annealing")),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // a good request still works after both rejections
    let ok = send_request(addr, &request("job-3", 9), CLIENT_TIMEOUT).unwrap();
    assert_eq!(ok.status, Status::Complete);

    server.shutdown();
    server.wait();
}

#[test]
fn zero_capacity_queue_sheds_with_overloaded() {
    let cfg = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let resp = send_request(server.addr(), &request("job-4", 10), CLIENT_TIMEOUT).unwrap();
    assert!(matches!(resp.status, Status::Overloaded { .. }), "{resp:?}");
    assert_eq!(server.counter(Counter::ServeShed), 1);
    assert_eq!(server.counter(Counter::ServeAccept), 0);
    server.shutdown();
    server.wait();
}

#[test]
fn memory_ledger_sheds_oversized_requests_without_stickiness() {
    // ledger smaller than the estimate of a 6×24 instance (≈ 2.6 KB)
    let cfg = ServeConfig { max_reserved_bytes: 1024, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let resp = send_request(addr, &request("big", 11), CLIENT_TIMEOUT).unwrap();
    assert!(matches!(resp.status, Status::Overloaded { .. }), "{resp:?}");

    // a tiny instance still fits afterwards: refusals are per-request
    let tiny = SolveRequest {
        id: "small".to_string(),
        instance: std::sync::Arc::new(generate(
            &SyntheticConfig::tiny().with_events(2).with_users(3).with_capacity_mean(2),
            12,
        )),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    };
    let resp = send_request(addr, &tiny, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, Status::Complete, "{resp:?}");

    server.shutdown();
    server.wait();
}

#[test]
fn resume_drains_journaled_pending_requests_without_a_client() {
    let dir = tempdir("resume");
    let wal = dir.join("wal.jsonl");

    // a dead server's journal: two accepted, one of them completed
    let journal = Journal::open(&wal).unwrap();
    journal.append(&JournalRecord::Accepted { request: request("done", 20) }).unwrap();
    journal
        .append(&JournalRecord::Completed {
            response: SolveResponse::bare("done", Status::Complete),
        })
        .unwrap();
    journal.append(&JournalRecord::Accepted { request: request("owed", 21) }).unwrap();
    drop(journal);

    let cfg = ServeConfig {
        journal: Some(wal.clone()),
        resume: true,
        max_requests: Some(1), // drain the one owed solve, then stop
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    assert_eq!(server.resumed(), 1, "only the incomplete accept is re-enqueued");
    server.wait(); // exits via max_requests once the owed solve lands

    let state = JournalState::replay(&wal).unwrap();
    assert!(state.pending.is_empty(), "no accepted request may stay owed");
    assert_eq!(state.completed.len(), 2);
    let owed = &state.completed["owed"];
    assert_eq!(owed.status, Status::Complete, "{owed:?}");
    owed.planning.as_ref().unwrap().validate(&instance(21)).unwrap();

    // replaying the drained journal again re-enqueues nothing
    let cfg = ServeConfig {
        journal: Some(wal.clone()),
        resume: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    assert_eq!(server.resumed(), 0);

    // and a duplicate of a journal-completed id answers from the cache
    let resp = send_request(server.addr(), &request("owed", 21), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, Status::Complete);
    assert_eq!(server.counter(Counter::ServeReplay), 1);
    server.shutdown();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_side_caps_bound_client_budgets() {
    // the server caps a huge requested timeout at its own max; with a
    // 0ms server cap every tier's budget is exhausted immediately
    let cfg = ServeConfig { max_timeout_ms: 0, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let mut req = request("greedy-client", 30);
    req.timeout_ms = Some(86_400_000);
    let resp = send_request(server.addr(), &req, CLIENT_TIMEOUT).unwrap();
    match &resp.status {
        Status::Truncated { reason } => assert_eq!(reason, "deadline"),
        other => panic!("expected deadline truncation, got {other:?}"),
    }
    // even a zero-budget response carries a (possibly empty) valid planning
    resp.planning.as_ref().unwrap().validate(&req.instance).unwrap();
    server.shutdown();
    server.wait();
}

/// One JSON line over a persistent connection, one `MutateResponse` back.
fn mutate(
    stream: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    line: &str,
) -> usep_serve::MutateResponse {
    use std::io::{BufRead, Write};
    writeln!(stream, "{line}").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response '{resp}': {e}"))
}

fn connect(
    addr: std::net::SocketAddr,
) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let reader = std::io::BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn empty_interval_event_add_is_rejected_and_stays_rejected_across_resume() {
    use usep_delta::{generate_trace, DeltaConfig, DeltaEngine, TraceGenConfig};
    let dir = tempdir("empty_interval");
    let wal = dir.join("wal.jsonl");
    let trace = generate_trace(&TraceGenConfig { seed: 7, mutations: 2, events: 6, users: 9 });
    // the referee: the same session in-process, fed only the valid
    // mutations
    let mut shadow =
        DeltaEngine::new(trace.instance.clone(), DeltaConfig::default(), &usep_trace::NOOP);
    let open = format!(
        r#"{{"verb":"mutate","session":"s","open":{}}}"#,
        serde_json::to_string(&trace.instance).unwrap()
    );
    let valid = |id: &str, k: usize| {
        format!(
            r#"{{"verb":"mutate","session":"s","mutation_id":"{id}","mutation":{}}}"#,
            serde_json::to_string(&trace.mutations[k]).unwrap()
        )
    };
    let query = r#"{"verb":"mutate","session":"s","query":true}"#;

    let server =
        Server::start(ServeConfig { journal: Some(wal.clone()), ..ServeConfig::default() })
            .unwrap();
    let (mut stream, mut reader) = connect(server.addr());
    assert!(mutate(&mut stream, &mut reader, &open).ok);
    assert!(mutate(&mut stream, &mut reader, &valid("m0", 0)).ok);
    shadow.apply(&trace.mutations[0], &usep_trace::NOOP).unwrap();
    let before = mutate(&mut stream, &mut reader, query);

    for (k, (start, end)) in [(50, 50), (90, 40)].into_iter().enumerate() {
        let line = format!(
            r#"{{"verb":"mutate","session":"s","mutation_id":"bad{k}","mutation":{{"EventAdd":{{"capacity":2,"location":{{"x":1,"y":1}},"time":{{"start":{start},"end":{end}}},"fee":0,"mu":[{{"id":0,"mu":0.9}}]}}}}}}"#
        );
        let resp = mutate(&mut stream, &mut reader, &line);
        assert!(!resp.ok, "[{start}, {end}] must be rejected: {resp:?}");
        assert!(resp.error.as_deref().unwrap_or("").contains("empty"), "{resp:?}");
        assert_eq!(resp.omega.to_bits(), before.omega.to_bits());
    }
    let after = mutate(&mut stream, &mut reader, query);
    assert_eq!(after.omega.to_bits(), before.omega.to_bits());
    assert_eq!(after.assignments, before.assignments);
    assert_eq!(after.mutations, before.mutations, "a rejected mutation is not applied");
    assert_eq!(after.omega.to_bits(), shadow.omega().to_bits());
    drop(stream);
    server.shutdown();
    server.wait();

    // resume replays the journaled rejections as rejections
    let server = Server::start(ServeConfig {
        journal: Some(wal.clone()),
        resume: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = connect(server.addr());
    let resumed = mutate(&mut stream, &mut reader, query);
    assert!(resumed.ok, "{resumed:?}");
    assert_eq!(resumed.omega.to_bits(), before.omega.to_bits());
    assert_eq!(resumed.assignments, before.assignments);
    assert_eq!(resumed.mutations, before.mutations);
    // and the rebuilt session keeps tracking the referee
    let next = mutate(&mut stream, &mut reader, &valid("m1", 1));
    let out = shadow.apply(&trace.mutations[1], &usep_trace::NOOP).unwrap();
    assert_eq!(next.omega.to_bits(), out.omega.to_bits());
    assert_eq!(next.assignments, shadow.planning().num_assignments() as u64);
    drop(stream);
    server.shutdown();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}
