//! Metric names, sample statistics and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit and direction; `BENCHMARK.json` must list the same names (a
//! self-test compares the two).

use usep_trace::json::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric: name, unit, direction.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 12] = [
    ("setup_s", "s", Lower),
    ("peak_mb", "MB", Lower),
    ("omega", "utility", Higher),
    ("rg_s", "s", Lower),
    ("dedpo_s", "s", Lower),
    ("dedpo_rg_s", "s", Lower),
    ("degreedy_s", "s", Lower),
    ("degreedy_rg_s", "s", Lower),
    ("p50_ms", "ms", Lower),
    ("tail_ms", "ms", Lower),
    ("journal_kb", "KiB/op", Lower),
    ("resume_s", "s", Lower),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer a
/// workload never runs reports 0.
pub const PER_LAYER: [MetricDef; 50] = [
    ("core.parse_ms", "ms", Lower),
    ("core.validate_ms", "ms", Lower),
    ("core.lower_ms", "ms", Lower),
    ("core.encode_ms", "ms", Lower),
    ("core.instance_kb", "KiB", Lower),
    ("algos.rg_seed_s", "s", Lower),
    ("algos.rg_drain_s", "s", Lower),
    ("algos.dp_step1_s", "s", Lower),
    ("algos.dp_step2_s", "s", Lower),
    ("algos.augment_s", "s", Lower),
    ("algos.unattributed_share.rg", "share", Lower),
    ("algos.unattributed_share.dedpo", "share", Lower),
    ("algos.unattributed_share.dedpo_rg", "share", Lower),
    ("algos.unattributed_share.degreedy", "share", Lower),
    ("algos.unattributed_share.degreedy_rg", "share", Lower),
    ("algos.heap_pops", "count", Lower),
    ("algos.stale_pops", "count", Lower),
    ("algos.refresh_event", "count", Lower),
    ("algos.refresh_user", "count", Lower),
    ("algos.budget_rejects", "count", Lower),
    ("algos.capacity_rejects", "count", Lower),
    ("algos.dp_cells", "count", Lower),
    ("algos.dp_pruned", "count", Lower),
    ("algos.pop_yield", "assign/pop", Higher),
    ("algos.prune_share", "share", Higher),
    ("par.sections", "count", Lower),
    ("par.threads", "threads", Higher),
    ("serve.admission_ms", "ms", Lower),
    ("serve.queue_wait_ms", "ms", Lower),
    ("serve.solve_ms", "ms", Lower),
    ("serve.backoff_ms", "ms", Lower),
    ("serve.wire_ms", "ms", Lower),
    ("serve.retries", "count", Lower),
    ("serve.shed", "count", Lower),
    ("journal.appends_per_op", "1/op", Lower),
    ("journal.fsyncs_per_op", "1/op", Lower),
    ("journal.bytes_per_op", "B/op", Lower),
    ("journal.append_ms", "ms", Lower),
    ("journal.fsync_ms", "ms", Lower),
    ("journal.replay_s", "s", Lower),
    ("delta.open_s", "s", Lower),
    ("delta.apply_ms", "ms", Lower),
    ("delta.repair_share", "share", Higher),
    ("delta.fallbacks", "count", Lower),
    ("delta.evicted", "count", Lower),
    ("delta.touched", "count", Lower),
    ("delta.wire_ms", "ms", Lower),
    ("client.late_ms", "ms", Lower),
    ("client.sent", "count", Higher),
    ("client.failed", "count", Lower),
];

/// Samples needed beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and tail of one latency sample, nearest-rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    pub samples: usize,
    pub p50: f64,
    /// The tail's percentile: the highest whole percentile with at
    /// least [`TAIL_BEYOND`] samples above its rank.
    pub tail_pct: u32,
    pub tail: f64,
    /// Samples above the tail's rank.
    pub beyond: usize,
}

/// Nearest-rank 1-based rank of percentile `p` in `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// p50 and the tail of `values`. Needs at least `2 × TAIL_BEYOND`
/// samples, so that the tail percentile is never below the median.
pub fn quantiles(values: &[f64]) -> Result<Quantiles, String> {
    let n = values.len();
    if n < 2 * TAIL_BEYOND {
        return Err(format!(
            "{n} samples: a tail needs at least {}",
            2 * TAIL_BEYOND
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut pct = (100 * (n - TAIL_BEYOND) / n) as u32;
    while n - rank(f64::from(pct), n) < TAIL_BEYOND {
        pct -= 1;
    }
    let r = rank(f64::from(pct), n);
    Ok(Quantiles {
        samples: n,
        p50: v[rank(50.0, n) - 1],
        tail_pct: pct,
        tail: v[r - 1],
        beyond: n - r,
    })
}

/// Indices of the samples whose latency rank lies within ±10% of the
/// median rank: the requests a p50 breakdown averages over.
pub fn median_window(latencies: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..latencies.len()).collect();
    idx.sort_by(|&a, &b| latencies[a].total_cmp(&latencies[b]));
    let n = idx.len();
    let lo = n * 4 / 10;
    let hi = (n * 6 / 10).max(lo + 1).min(n);
    idx[lo..hi].to_vec()
}

/// Mean of `f` over the given indices.
pub fn mean_over(idx: &[usize], f: impl Fn(usize) -> f64) -> f64 {
    idx.iter().map(|&i| f(i)).sum::<f64>() / idx.len().max(1) as f64
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures that are not tied to one operation (resume
    /// parity, determinism); any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Environment, sample counts and breakdowns, printed before the
    /// result line.
    pub detail: Vec<(String, Value)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|d| d.0 == name),
            "unknown metric {name}"
        );
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.0 == name),
            "unknown metric {name}"
        );
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a latency sample's p50 and tail plus how they were taken.
    pub fn latency(&mut self, values: &[f64]) -> Result<Quantiles, String> {
        let q = quantiles(values)?;
        self.e2e("p50_ms", q.p50);
        self.e2e("tail_ms", q.tail);
        self.detail(
            "latency",
            Value::Map(vec![
                ("samples".into(), Value::U64(q.samples as u64)),
                ("tail_percentile".into(), Value::U64(u64::from(q.tail_pct))),
                ("beyond_tail".into(), Value::U64(q.beyond as u64)),
            ]),
        );
        Ok(q)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `{"correct","attempted","failed","metrics"}`
    /// with every metric of `defs`, each with its unit. Fails when the
    /// workload left one out or produced a non-finite value.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for &(name, unit, _) in defs {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                Value::Str(name.to_string()).render(),
                Value::F64(value).render(),
                Value::Str(unit.to_string()).render()
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}

/// SplitMix64: the benchmark's own seeded stream for schedules and
/// instance seeds, so inputs depend on `--seed` alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_at_or_above_the_median_with_ten_samples_beyond() {
        // every sample count a run can have
        for n in 2 * TAIL_BEYOND..2000 {
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let q = quantiles(&values).expect("n >= 20");
            assert!(q.tail >= q.p50, "n={n}: tail {} < p50 {}", q.tail, q.p50);
            assert!(q.tail_pct >= 50);
            assert!(q.beyond >= TAIL_BEYOND, "n={n}: {} beyond", q.beyond);
            let above = values.iter().filter(|&&v| v > q.tail).count();
            assert_eq!(above, q.beyond, "n={n}: distinct values, so rank = count");
            // the next whole percentile up would leave fewer than ten beyond
            let next = rank(f64::from(q.tail_pct + 1), n);
            assert!(q.tail_pct == 99 || n - next < TAIL_BEYOND, "n={n}");
        }
    }

    #[test]
    fn too_few_samples_for_a_tail_is_an_error() {
        assert!(quantiles(&[1.0; 19]).is_err());
    }

    #[test]
    fn median_window_straddles_the_median() {
        let lat: Vec<f64> = (0..100).map(f64::from).collect();
        let w = median_window(&lat);
        assert_eq!(w.len(), 20);
        assert!(w.iter().all(|&i| (40..60).contains(&i)));
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let mut r = Report::default();
        r.e2e("setup_s", 1.0);
        assert!(r.result_line(&END_TO_END).is_err());
    }
}
