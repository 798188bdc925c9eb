//! Golden planning hashes: every production path that emits a planning
//! is pinned to an FNV-1a-64 digest of its serde encoding on fixed
//! seeds, so a refactor of the instance layout or the solver internals
//! that changes any output byte fails here.
//!
//! Covered paths: the six paper solvers, the `GuardedSolver` chain,
//! `local_search::improve`, `bounds::capacity_relaxed_bound` (its `f64`
//! bits) and the serve `solve_with_retry` path. Covered instances: the
//! first 48 instances of the seed-42 fuzz stream, the 50×250 cr = 0.5
//! synthetic instance at seed 2015, and one Auckland-size city snapshot.
//!
//! One digest per (instance group, path) folds the encodings of every
//! instance in the group in order. The plannings are thread-count
//! invariant, so the digests hold under any `USEP_THREADS`.

use usep_algos::{bounds, local_search, solve, Algorithm, GuardedSolver, SolveBudget};
use usep_core::Instance;
use usep_gen::{generate, generate_city, CityConfig, SyntheticConfig};
use usep_oracle::fuzz::stream_config;
use usep_serve::{solve_with_retry, SolveLimits, SolveRequest};
use usep_trace::NOOP;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64, the fuzz stream's per-instance seed mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const PATHS: [&str; 10] = [
    "RatioGreedy",
    "DeDP",
    "DeDPO",
    "DeDPO+RG",
    "DeGreedy",
    "DeGreedy+RG",
    "Guarded(DeDP)",
    "local_search",
    "bound",
    "serve",
];

/// The serde encodings of every path's output on `inst`, in
/// [`PATHS`] order.
fn encodings(inst: &Instance) -> Vec<Vec<u8>> {
    let json = |p: &usep_core::Planning| serde_json::to_string(p).unwrap().into_bytes();
    let mut out: Vec<Vec<u8>> =
        Algorithm::PAPER_SET.iter().map(|&a| json(&solve(a, inst))).collect();
    let guarded = GuardedSolver::new(Algorithm::DeDP, SolveBudget::unlimited()).solve(inst);
    out.push(json(&guarded.planning));
    let mut polished = solve(Algorithm::DeGreedy, inst);
    let moves = local_search::improve(inst, &mut polished, 5);
    let mut ls = json(&polished);
    ls.extend_from_slice(&(moves as u64).to_le_bytes());
    out.push(ls);
    out.push(bounds::capacity_relaxed_bound(inst).to_bits().to_le_bytes().to_vec());
    let request = SolveRequest {
        id: "golden".to_string(),
        instance: std::sync::Arc::new(inst.clone()),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    };
    let response = solve_with_retry(&request, &SolveLimits::default(), &NOOP);
    out.push(serde_json::to_string(&response.planning).unwrap().into_bytes());
    out
}

fn digests(instances: impl IntoIterator<Item = Instance>) -> [u64; 10] {
    let mut h = [FNV_OFFSET; 10];
    for inst in instances {
        for (k, bytes) in encodings(&inst).iter().enumerate() {
            h[k] = fnv1a(h[k], bytes);
        }
    }
    h
}

fn check(group: &str, got: [u64; 10], want: [u64; 10]) {
    let table: String = PATHS
        .iter()
        .zip(got)
        .map(|(p, h)| format!("    0x{h:016x}, // {p}\n"))
        .collect();
    for k in 0..PATHS.len() {
        assert_eq!(
            got[k], want[k],
            "{group}: {} planning hash changed; digests now:\n{table}",
            PATHS[k]
        );
    }
}

#[test]
fn fuzz_stream_plannings_are_pinned() {
    let got = digests((0..48u64).map(|i| generate(&stream_config(i), mix(42 ^ i))));
    check(
        "fuzz stream 0..48 @ seed 42",
        got,
        [
            0xf9f7bd5bd5ac271a, // RatioGreedy
            0xe25068f5aed4a607, // DeDP
            0xe25068f5aed4a607, // DeDPO
            0x57c8cdf2f78fadd1, // DeDPO+RG
            0x85ec184ff44625c1, // DeGreedy
            0xba281acb82362e2d, // DeGreedy+RG
            0xe25068f5aed4a607, // Guarded(DeDP)
            0x1efeb49ee140c213, // local_search
            0xe9f29fd3bd2a7467, // bound
            0xe25068f5aed4a607, // serve
        ],
    );
}

#[test]
fn synthetic_50x250_plannings_are_pinned() {
    let cfg = SyntheticConfig::default().with_events(50).with_users(250).with_conflict_ratio(0.5);
    let got = digests([generate(&cfg, 2015)]);
    check(
        "50x250 cr=0.5 @ seed 2015",
        got,
        [
            0xdcc1f134908ec395, // RatioGreedy
            0xed5392122eb37975, // DeDP
            0xed5392122eb37975, // DeDPO
            0x615fb0016b468772, // DeDPO+RG
            0xb92a210c0bda4a1f, // DeGreedy
            0x7eecd523126bdb59, // DeGreedy+RG
            0xed5392122eb37975, // Guarded(DeDP)
            0x6c2c1f9461c473d5, // local_search
            0x1fccddbf5142a1c2, // bound
            0xed5392122eb37975, // serve
        ],
    );
}

#[test]
fn auckland_snapshot_plannings_are_pinned() {
    let got = digests([generate_city(&CityConfig::auckland(), 2015)]);
    check(
        "Auckland @ seed 2015",
        got,
        [
            0x5999fca132b38d84, // RatioGreedy
            0x3740e457782098d3, // DeDP
            0x3740e457782098d3, // DeDPO
            0x1ccb68d79991d40d, // DeDPO+RG
            0x018a2bacf325d7e9, // DeGreedy
            0x5a48b29d77608ae8, // DeGreedy+RG
            0x3740e457782098d3, // Guarded(DeDP)
            0x39f0884cf87235ea, // local_search
            0xf2e9a810c3eb4732, // bound
            0x3740e457782098d3, // serve
        ],
    );
}
