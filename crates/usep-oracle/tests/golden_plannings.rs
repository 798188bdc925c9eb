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
//! A second, tie-heavy set pins the `DPSingle` paths alone (DeDP, DeDPO,
//! DeDPO+RG, `optimal_user_schedule` and the capacity-relaxed bound) on
//! small grids with μ rounded to multiples of 0.25, where many chains
//! reach the same utility at different costs and the DP's tie-breaking
//! decides the planning.
//!
//! One digest per (instance group, path) folds the encodings of every
//! instance in the group in order. The plannings are thread-count
//! invariant, so the digests hold under any `USEP_THREADS`.

use usep_algos::{
    bounds, local_search, optimal_user_schedule, solve, Algorithm, GuardedSolver, SolveBudget,
};
use usep_core::{EventId, Instance};
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
    digests_with(instances, encodings)
}

/// One FNV digest per path over the instances, in order.
fn digests_with<const N: usize>(
    instances: impl IntoIterator<Item = Instance>,
    encode: fn(&Instance) -> Vec<Vec<u8>>,
) -> [u64; N] {
    let mut h = [FNV_OFFSET; N];
    for inst in instances {
        let bytes = encode(&inst);
        assert_eq!(bytes.len(), N);
        for (k, bytes) in bytes.iter().enumerate() {
            h[k] = fnv1a(h[k], bytes);
        }
    }
    h
}

fn check(group: &str, got: [u64; 10], want: [u64; 10]) {
    check_paths(group, &PATHS, &got, &want);
}

fn check_paths(group: &str, paths: &[&str], got: &[u64], want: &[u64]) {
    let table: String = paths
        .iter()
        .zip(got)
        .map(|(p, h)| format!("    0x{h:016x}, // {p}\n"))
        .collect();
    for k in 0..paths.len() {
        assert_eq!(
            got[k], want[k],
            "{group}: {} planning hash changed; digests now:\n{table}",
            paths[k]
        );
    }
}

const TIE_PATHS: [&str; 5] = ["DeDP", "DeDPO", "DeDPO+RG", "optimal_user_schedule", "bound"];

/// The `DPSingle` paths' encodings on `inst`, in [`TIE_PATHS`] order.
/// `optimal_user_schedule` runs once per user over every event with its
/// μ and folds the chosen events and the score's `f64` bits.
fn tie_encodings(inst: &Instance) -> Vec<Vec<u8>> {
    let json = |p: &usep_core::Planning| serde_json::to_string(p).unwrap().into_bytes();
    let mut out: Vec<Vec<u8>> = [Algorithm::DeDP, Algorithm::DeDPO, Algorithm::DeDPORG]
        .iter()
        .map(|&a| json(&solve(a, inst)))
        .collect();
    let mut single = Vec::new();
    for u in inst.user_ids() {
        let cands: Vec<(EventId, f64)> = inst.event_ids().map(|v| (v, inst.mu(v, u))).collect();
        let (events, score) = optimal_user_schedule(inst, u, &cands);
        for v in events {
            single.extend_from_slice(&v.0.to_le_bytes());
        }
        single.extend_from_slice(&score.to_bits().to_le_bytes());
    }
    out.push(single);
    out.push(bounds::capacity_relaxed_bound(inst).to_bits().to_le_bytes().to_vec());
    out
}

/// Small-grid instances (grids 5/10/20, mean capacities 1–5, budget
/// factors 0.5/1/2) with every μ rounded to the nearest multiple of
/// 0.25: costs repeat on a small grid and utilities repeat after
/// rounding, so equal-utility chains at different costs are common.
fn tie_heavy_instances() -> Vec<Instance> {
    let mut seed = 0u64;
    let mut out = Vec::new();
    for grid in [5, 10, 20] {
        for capacity in 1..=5u32 {
            for fb in [0.5, 1.0, 2.0] {
                seed += 1;
                let cfg = SyntheticConfig {
                    grid,
                    ..SyntheticConfig::tiny()
                        .with_events(12)
                        .with_users(16)
                        .with_capacity_mean(capacity)
                        .with_budget_factor(fb)
                        .with_conflict_ratio(0.25 * f64::from(capacity % 3))
                };
                let mut inst = generate(&cfg, mix(7 ^ seed));
                let (events, users): (Vec<_>, Vec<_>) =
                    (inst.event_ids().collect(), inst.user_ids().collect());
                for &u in &users {
                    for &v in &events {
                        let q = (inst.mu(v, u) * 4.0).round() / 4.0;
                        inst.patch_set_mu(v, u, q).unwrap();
                    }
                }
                out.push(inst);
            }
        }
    }
    out
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

#[test]
fn tie_heavy_dp_plannings_are_pinned() {
    let got: [u64; 5] = digests_with(tie_heavy_instances(), tie_encodings);
    check_paths(
        "tie-heavy quantized-μ set",
        &TIE_PATHS,
        &got,
        &[
            0x4c915a64cd64e994, // DeDP
            0x4c915a64cd64e994, // DeDPO
            0xfc29c4e7dd4b95bd, // DeDPO+RG
            0x24bfa1ca55db2b2b, // optimal_user_schedule
            0xf811d03fa64186aa, // bound
        ],
    );
}
