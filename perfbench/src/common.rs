//! Pieces the three workloads share: timed calls into `usep-core`,
//! the five reference solvers, trace-sink arithmetic, the counting
//! journal backend, and the load generator's connection.

use crate::report::{median, Report};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usep_algos::{solve_with_probe, Algorithm, Counter, TraceSink, NOOP};
use usep_core::{Instance, Planning};
use usep_serve::{JournalIo, ServeConfig, Server, ServerHandle, StdIo};
use usep_trace::json::Value;

/// The five Fig. 4 solvers with their metric names, in the order the
/// paper's legend lists them.
pub const SOLVERS: [(Algorithm, &str, &str); 5] = [
    (
        Algorithm::RatioGreedy,
        "rg_s",
        "algos.unattributed_share.rg",
    ),
    (
        Algorithm::DeDPO,
        "dedpo_s",
        "algos.unattributed_share.dedpo",
    ),
    (
        Algorithm::DeDPORG,
        "dedpo_rg_s",
        "algos.unattributed_share.dedpo_rg",
    ),
    (
        Algorithm::DeGreedy,
        "degreedy_s",
        "algos.unattributed_share.degreedy",
    ),
    (
        Algorithm::DeGreedyRG,
        "degreedy_rg_s",
        "algos.unattributed_share.degreedy_rg",
    ),
];

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub threads: usize,
    /// Directory for journals; emptied by the caller.
    pub work_dir: PathBuf,
    /// Filesystem the journal lives on, as the launcher found it.
    pub journal_fs: String,
    pub scale: crate::Scale,
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t.elapsed()))
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Heap high-water mark above the live bytes at [`PeakHeap::start`].
pub struct PeakHeap {
    baseline: usize,
}

impl PeakHeap {
    pub fn start() -> PeakHeap {
        usep_metrics::alloc::reset_peak();
        PeakHeap {
            baseline: usep_metrics::alloc::current_bytes(),
        }
    }

    pub fn mb(&self) -> f64 {
        mb(usep_metrics::alloc::peak_bytes().saturating_sub(self.baseline))
    }

    /// Live bytes now above the baseline, less `exclude`.
    pub fn retained_mb(&self, exclude: usize) -> f64 {
        mb(usep_metrics::alloc::current_bytes().saturating_sub(self.baseline + exclude))
    }
}

/// Heap high-water marks during a timed phase, one per [`PEAK_WINDOW`],
/// each above the live bytes at its window's start; a monitor thread
/// takes them. `peak_mb` is their mean, weighted by window length. A
/// window's mark is higher when two large requests happen to overlap in
/// it, so the run-wide maximum varied by a third from run to run and the
/// median window flipped between two levels; the mean moves with the
/// share of windows that overlap.
pub struct PeakWindows {
    stop: Arc<AtomicBool>,
    monitor: std::thread::JoinHandle<Vec<(f64, f64)>>,
}

pub const PEAK_WINDOW: Duration = Duration::from_secs(2);

impl PeakWindows {
    pub fn start() -> PeakWindows {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let monitor = std::thread::spawn(move || {
            let mut windows = Vec::new();
            loop {
                let heap = PeakHeap::start();
                let from = Instant::now();
                while !flag.load(Ordering::SeqCst) && from.elapsed() < PEAK_WINDOW {
                    std::thread::sleep(Duration::from_millis(5));
                }
                windows.push((heap.mb(), secs(from.elapsed())));
                if flag.load(Ordering::SeqCst) {
                    return windows;
                }
            }
        });
        PeakWindows { stop, monitor }
    }

    /// Stops the monitor; returns each window's (mark MB, length s).
    pub fn finish(self) -> Vec<(f64, f64)> {
        self.stop.store(true, Ordering::SeqCst);
        self.monitor
            .join()
            .expect("the heap monitor does not panic")
    }
}

/// Records `peak_mb` and the windows it came from.
pub fn record_peak(report: &mut Report, windows: &[(f64, f64)]) {
    let span: f64 = windows.iter().map(|(_, s)| s).sum();
    let weighted: f64 = windows.iter().map(|(mb, s)| mb * s).sum();
    report.e2e("peak_mb", weighted / span);
    report.detail(
        "heap",
        map(vec![
            (
                "max_window_mb",
                Value::F64(windows.iter().map(|w| w.0).fold(0.0, f64::max)),
            ),
            (
                "window_mb",
                Value::Seq(windows.iter().map(|w| Value::F64(w.0)).collect()),
            ),
        ]),
    );
}

/// Times the public `usep-core` calls on one instance (medians over
/// `reps`) and records the `core.*` layer.
pub fn core_layers(report: &mut Report, inst: &Instance, reps: usize) {
    let (mut encode, mut parse, mut validate, mut lower) = (vec![], vec![], vec![], vec![]);
    let mut kb = 0.0;
    for _ in 0..reps.max(1) {
        let (json, t) = timed(|| serde_json::to_string(inst).expect("instances serialize"));
        encode.push(t);
        kb = json.len() as f64 / 1024.0;
        let (parsed, t) =
            timed(|| serde_json::from_str::<Instance>(&json).expect("own encoding parses"));
        parse.push(t);
        let (ok, t) = timed(|| parsed.validate());
        validate.push(t);
        ok.expect("generated instances validate");
        let (_, t) = timed(|| parsed.freeze());
        lower.push(t);
    }
    report.layer("core.encode_ms", median(&encode) * 1e3);
    report.layer("core.parse_ms", median(&parse) * 1e3);
    report.layer("core.validate_ms", median(&validate) * 1e3);
    report.layer("core.lower_ms", median(&lower) * 1e3);
    report.layer("core.instance_kb", kb);
}

/// Counters, span totals and accepted-pair count of a trace sink at one
/// moment, so that a workload can subtract its set-up.
#[derive(Clone, Debug, Default)]
pub struct SinkSnap {
    counters: BTreeMap<&'static str, u64>,
    spans_s: BTreeMap<&'static str, f64>,
    accepted: u64,
}

impl SinkSnap {
    pub fn of(sink: &TraceSink) -> SinkSnap {
        SinkSnap {
            counters: sink
                .counters()
                .into_iter()
                .map(|(c, v)| (c.name(), v))
                .collect(),
            spans_s: sink
                .span_totals()
                .into_iter()
                .map(|t| (t.name, t.total_ns as f64 / 1e9))
                .collect(),
            accepted: sink
                .histogram_summary("ratio_greedy.accepted_inc")
                .map_or(0, |h| h.count),
        }
    }

    pub fn minus(&self, before: &SinkSnap) -> SinkSnap {
        SinkSnap {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (*k, v - before.counters.get(k).copied().unwrap_or(0)))
                .collect(),
            spans_s: self
                .spans_s
                .iter()
                .map(|(k, v)| (*k, v - before.spans_s.get(k).copied().unwrap_or(0.0)))
                .collect(),
            accepted: self.accepted - before.accepted,
        }
    }

    pub fn add(&mut self, other: &SinkSnap) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, v) in &other.spans_s {
            *self.spans_s.entry(k).or_default() += v;
        }
        self.accepted += other.accepted;
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    pub fn span(&self, name: &str) -> f64 {
        self.spans_s.get(name).copied().unwrap_or(0.0)
    }

    /// Solver time covered by the phase spans: DP steps plus either the
    /// augmentation pass or, for a plain RatioGreedy solve, its seed and
    /// drain (which the augmentation span already contains).
    pub fn phase_s(&self) -> f64 {
        self.span("decomposed.step1")
            + self.span("decomposed.step2")
            + self
                .span("augment_rg")
                .max(self.span("ratio_greedy.seed") + self.span("ratio_greedy.drain"))
    }

    /// Records the `algos.*` spans and counters and `par.sections`.
    /// `algos.augment_s` comes from the `augment_rg` span unless the
    /// workload times the public call itself afterwards.
    pub fn record(&self, report: &mut Report) {
        report.layer("algos.rg_seed_s", self.span("ratio_greedy.seed"));
        report.layer("algos.rg_drain_s", self.span("ratio_greedy.drain"));
        report.layer("algos.dp_step1_s", self.span("decomposed.step1"));
        report.layer("algos.dp_step2_s", self.span("decomposed.step2"));
        report.layer("algos.augment_s", self.span("augment_rg"));
        let c = |counter| self.counter(counter) as f64;
        report.layer("algos.heap_pops", c(Counter::HeapPop));
        report.layer("algos.stale_pops", c(Counter::HeapPopStale));
        report.layer("algos.refresh_event", c(Counter::CandidateRefreshEvent));
        report.layer("algos.refresh_user", c(Counter::CandidateRefreshUser));
        report.layer("algos.budget_rejects", c(Counter::BudgetReject));
        report.layer("algos.capacity_rejects", c(Counter::CapacityReject));
        report.layer("algos.dp_cells", c(Counter::DpCellVisit));
        report.layer("algos.dp_pruned", c(Counter::DpCellPruned));
        let pops = c(Counter::HeapPop);
        report.layer(
            "algos.pop_yield",
            if pops > 0.0 {
                self.accepted as f64 / pops
            } else {
                0.0
            },
        );
        let dp = c(Counter::DpCellVisit) + c(Counter::DpCellPruned);
        report.layer(
            "algos.prune_share",
            if dp > 0.0 {
                c(Counter::DpCellPruned) / dp
            } else {
                0.0
            },
        );
        report.layer("par.sections", c(Counter::ParSection));
    }
}

/// Share of a solve's wall time outside its phase spans.
pub fn unattributed(snap: &SinkSnap, wall_s: f64) -> f64 {
    (1.0 - snap.phase_s() / wall_s).max(0.0)
}

/// The five solvers in process on a workload's instance shapes,
/// outside its timed phase. One sample of a solver is the mean time of a
/// pass over the instances, passes repeating for at least
/// [`REF_SAMPLE`] so that fast solvers are not timed one short solve at
/// a time. Rounds of one sample per solver repeat for a time budget, so
/// that every solver's samples spread over the same stretch of time. A
/// workload takes rounds in [`REF_SLOTS`] slots spread over its run
/// (before its set-up, between the two halves of its timed phase, and
/// after its resume), and each solver reports the median of all its
/// samples: the host's speed drifts over tens of seconds, and one slot
/// at the start of a run sees only one stretch of it.
#[derive(Default)]
pub struct Reference {
    samples: [Vec<f64>; 5],
    unattributed: [f64; 5],
    warm: bool,
}

pub const REF_SAMPLE: Duration = Duration::from_millis(100);

/// Slots of reference rounds per run.
pub const REF_SLOTS: f64 = 3.0;

impl Reference {
    /// Takes rounds for at least `budget_s` seconds (and at least one).
    /// The first call starts with an untimed pass per solver, which
    /// takes the first-use costs of the process and its heap.
    pub fn rounds(&mut self, instances: &[&Instance], budget_s: f64) {
        let pass = |alg| -> f64 {
            instances
                .iter()
                .map(|inst| timed(|| std::hint::black_box(solve_with_probe(alg, inst, &NOOP))).1)
                .sum()
        };
        if !self.warm {
            for &(alg, _, _) in &SOLVERS {
                pass(alg);
            }
            self.warm = true;
        }
        let started = Instant::now();
        loop {
            for (k, &(alg, _, _)) in SOLVERS.iter().enumerate() {
                let (mut total, mut passes) = (0.0, 0);
                while passes == 0 || total < REF_SAMPLE.as_secs_f64() {
                    total += pass(alg);
                    passes += 1;
                }
                self.samples[k].push(total / f64::from(passes));
            }
            if secs(started.elapsed()) >= budget_s {
                return;
            }
        }
    }

    /// One pass per solver under a trace sink: its unattributed share.
    pub fn trace(&mut self, instances: &[&Instance]) {
        for (k, &(alg, _, _)) in SOLVERS.iter().enumerate() {
            let sink = TraceSink::new();
            let wall: f64 = instances
                .iter()
                .map(|inst| timed(|| solve_with_probe(alg, inst, &sink)).1)
                .sum();
            self.unattributed[k] = unattributed(&SinkSnap::of(&sink), wall);
        }
    }

    pub fn record(&self, report: &mut Report, traced: bool) {
        for (k, &(_, e2e, layer)) in SOLVERS.iter().enumerate() {
            report.e2e(e2e, median(&self.samples[k]));
            if traced {
                report.layer(layer, self.unattributed[k]);
            }
        }
        report.detail("reference_rounds", Value::U64(self.samples[0].len() as u64));
    }
}

/// Oracle check of one planning against the Ω its producer reported.
pub fn oracle_ok(inst: &Instance, planning: &Planning, omega: f64) -> Result<(), String> {
    let report = usep_oracle::check_planning_with_omega(inst, planning, omega, &NOOP);
    if report.is_valid() {
        Ok(())
    } else {
        Err(format!(
            "{} oracle violation(s), first: {:?}",
            report.violations.len(),
            report.violations[0]
        ))
    }
}

/// A [`JournalIo`] over the production [`StdIo`] that counts appends,
/// fsyncs and bytes and times each call.
#[derive(Debug)]
pub struct CountingIo {
    inner: StdIo,
    appends: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    append_ns: AtomicU64,
    sync_ns: AtomicU64,
}

/// One reading of a [`CountingIo`]'s counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoCounts {
    pub appends: u64,
    pub syncs: u64,
    pub bytes: u64,
    pub append_ns: u64,
    pub sync_ns: u64,
}

impl CountingIo {
    pub fn open(path: &Path) -> io::Result<CountingIo> {
        Ok(CountingIo {
            inner: StdIo::open(path)?,
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            append_ns: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
        })
    }

    pub fn counts(&self) -> IoCounts {
        IoCounts {
            appends: self.appends.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            append_ns: self.append_ns.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }
}

impl JournalIo for CountingIo {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.append(bytes);
        self.append_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        out
    }

    fn sync(&self) -> io::Result<()> {
        let t = Instant::now();
        let out = self.inner.sync();
        self.sync_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }

    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.replace(bytes)
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl IoCounts {
    pub fn minus(&self, b: &IoCounts) -> IoCounts {
        IoCounts {
            appends: self.appends - b.appends,
            syncs: self.syncs - b.syncs,
            bytes: self.bytes - b.bytes,
            append_ns: self.append_ns - b.append_ns,
            sync_ns: self.sync_ns - b.sync_ns,
        }
    }

    /// Mean append + fsync time per operation, in ms.
    pub fn ms_per_op(&self, ops: usize) -> f64 {
        (self.append_ns + self.sync_ns) as f64 / 1e6 / ops.max(1) as f64
    }

    /// Records the `journal.*` counts and timings over `ops` operations.
    pub fn record(&self, report: &mut Report, ops: usize) {
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        report.layer("journal.appends_per_op", per_op(self.appends));
        report.layer("journal.fsyncs_per_op", per_op(self.syncs));
        report.layer("journal.bytes_per_op", per_op(self.bytes));
        report.layer(
            "journal.append_ms",
            self.append_ns as f64 / 1e6 / self.appends.max(1) as f64,
        );
        report.layer(
            "journal.fsync_ms",
            self.sync_ns as f64 / 1e6 / self.syncs.max(1) as f64,
        );
    }
}

/// A server with its journal in `path`: the production file backend, or
/// with `traced` the same backend behind a [`CountingIo`].
pub struct Served {
    pub handle: ServerHandle,
    pub io: Option<Arc<CountingIo>>,
    pub journal: PathBuf,
}

pub fn start_server(path: &Path, threads: usize, traced: bool, resume: bool) -> io::Result<Served> {
    let io = if traced {
        Some(Arc::new(CountingIo::open(path)?))
    } else {
        None
    };
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: threads,
        journal: Some(path.to_path_buf()),
        journal_io: io.clone().map(|io| io as Arc<dyn JournalIo>),
        resume,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg)?;
    Ok(Served {
        handle,
        io,
        journal: path.to_path_buf(),
    })
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn io_counts(&self) -> IoCounts {
        self.io.as_ref().map(|io| io.counts()).unwrap_or_default()
    }

    pub fn journal_len(&self) -> u64 {
        std::fs::metadata(&self.journal)
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Graceful stop; returns once every server thread has exited.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// One client connection: `TCP_NODELAY`, each line written with a
/// single `write_all`, one reply line read back per line sent.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one newline-terminated line and reads the reply line.
    pub fn call(&mut self, line: &[u8]) -> io::Result<String> {
        debug_assert!(
            line.ends_with(b"\n"),
            "lines are pre-encoded with their newline"
        );
        self.writer.write_all(line)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply)
    }
}

/// `{"name": value, ...}` for a detail line.
pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
