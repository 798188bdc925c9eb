//! `DPSingle` (Algorithm 2): the utility-optimal single-user schedule.
//!
//! Costs are bounded non-negative integers, so `Ω(i, T)` — the best
//! utility of a feasible schedule ending at candidate `i` with travel cost
//! `T` spent getting there — is indexed by `T ∈ [0, b_u]`. Eq. (4)
//! restricts predecessors to candidates `l ≤ l_i` (those ending no later
//! than `i` starts) and enforces the return leg `T + cost(v̂_i, u) ≤ b_u`
//! at every state, which is lossless under the triangle inequality: if you
//! cannot afford to go home from `v̂_i`, no continuation can ever afford it
//! either.
//!
//! **Pareto-frontier rows.** Row `i` is built in one dense accumulator row
//! of `b_u + 1` cells: the base case, then the transitions from every
//! compatible `l`, in `l`-ascending then `T`-ascending order, a cell
//! taking a proposal only when it is strictly larger. Once the row is
//! final it is compacted, in ascending `T`, into its *frontier*: the cells
//! whose utility is strictly above that of every cell at a smaller cost —
//! the non-dominated `(cost, utility)` states — each with its
//! predecessor. The accumulator is zeroed as it is read. Transitions out
//! of row `l` walk only its frontier and stop at the first cost past the
//! cap, so the work is proportional to the non-dominated states, not to
//! the width of the rows.
//!
//! **Why the plannings are the same as with dense rows.** Call a state
//! `(l, t)` dominated when some `t' < t` has `Ω(l, t') ≥ Ω(l, t)`, and
//! call the chain through `(l, t')` with the same continuation its twin.
//! The twin is affordable (it costs `t − t'` less), its utility is never
//! lower (`f64` addition is monotone), and each of its proposals comes
//! earlier in the visit order (same `l`, smaller `T`). A cell keeps the
//! first proposal that reaches its final value, and the overall best is
//! the first proposal that reaches the largest value, so by induction over
//! the rows:
//!
//! * a frontier cell's value is never set by a dominated state — the twin
//!   would give an equal or larger value at a lower cost in the same row —
//!   so frontier cells get the same values and predecessors whether or
//!   not dominated states propagate, and the frontiers are the same;
//! * the proposal that sets the overall best comes from a frontier state,
//!   and so does every earlier link of its chain: otherwise the twin would
//!   reach the best value first.
//!
//! The best cell itself may be dominated by a cheaper tie in its own row,
//! so its predecessor is recorded when the best is set and backtracking
//! starts from there; every further link is a frontier state.
//!
//! The workspace is reused across users: the accumulator row is all zero
//! between runs, and the frontier buffers are cleared, not freed.

use super::{Candidate, SingleScheduler};
use usep_core::{Instance, UserId};
use usep_guard::{Guard, TruncationReason};
use usep_trace::{Counter, Probe, NOOP};

/// Upper bound on `|V'_r| × (b_u + 1)`: the cells a run sweeps, and the
/// most states its frontier can hold. Only one row of `b_u + 1` cells is
/// allocated, but a run past this bound means the instance's budgets are
/// far outside the integer scales the paper (and this reproduction) use —
/// rescale costs.
pub(crate) const MAX_DP_CELLS: usize = 1 << 27;

/// One frontier state of a finished row: reachable at cost `t` with
/// utility `s`, coming from candidate `from` (`-1` = schedule starts
/// here).
#[derive(Clone, Copy)]
struct State {
    t: u32,
    from: i32,
    s: f64,
}

/// Where a finished row's frontier sits in the state buffer (empty when
/// `start == end`), and the row's highest reachable cost, which bounds
/// the cells [`Counter::DpCellPruned`] counts. The lowest reachable cost
/// is the first frontier state's.
#[derive(Clone, Copy)]
struct Row {
    start: u32,
    end: u32,
    hi: u32,
}

impl Row {
    const EMPTY: Row = Row { start: 0, end: 0, hi: 0 };
}

/// Reusable workspace for [`dp_single`], implementing
/// [`SingleScheduler`] for the DeDP/DeDPO family.
pub(crate) struct DpScheduler<'p> {
    /// Instrumentation sink; propagated-state and pruned-cell counts are
    /// accumulated locally per run and flushed here once, so the probe
    /// never sits in the DP inner loop.
    probe: &'p dyn Probe,
    /// `Ω(i, ·)` of the row being built; all-zero between rows.
    acc: Vec<f64>,
    /// Predecessor candidate per cell of `acc` (`-1` = schedule starts
    /// here). Only read where `acc > 0`, so it is never cleared.
    acc_from: Vec<i32>,
    /// The frontiers of the finished rows, row after row, each in
    /// ascending `t`.
    states: Vec<State>,
    /// Per finished row: where its frontier sits in `states`, and its
    /// highest reachable cost.
    rows: Vec<Row>,
    /// End times of the candidates, for `l_i` binary searches.
    ends: Vec<i64>,
    /// Budget supervision: polled between rows, charged on buffer growth.
    guard: &'p Guard,
}

impl DpScheduler<'static> {
    pub fn new() -> DpScheduler<'static> {
        DpScheduler::with_probe(&NOOP)
    }
}

impl<'p> DpScheduler<'p> {
    pub fn with_probe(probe: &'p dyn Probe) -> DpScheduler<'p> {
        DpScheduler::with_guard(probe, Guard::none())
    }

    pub fn with_guard(probe: &'p dyn Probe, guard: &'p Guard) -> DpScheduler<'p> {
        DpScheduler {
            probe,
            acc: Vec::new(),
            acc_from: Vec::new(),
            states: Vec::new(),
            rows: Vec::new(),
            ends: Vec::new(),
            guard,
        }
    }
}

impl SingleScheduler for DpScheduler<'_> {
    fn schedule(&mut self, inst: &Instance, u: UserId, cands: &[Candidate]) -> Vec<usize> {
        dp_single(self, inst, u, cands)
    }
}

/// Runs Algorithm 2 for user `u` over `cands` (end-time order, decomposed
/// utilities strictly positive, Lemma 1 pre-applied). Returns the indices
/// of the chosen candidates in time order; empty when no affordable
/// candidate exists.
pub(crate) fn dp_single(
    ws: &mut DpScheduler<'_>,
    inst: &Instance,
    u: UserId,
    cands: &[Candidate],
) -> Vec<usize> {
    let m = cands.len();
    if m == 0 {
        return Vec::new();
    }
    let budget = inst.user(u).budget.value() as usize;
    let stride = budget + 1;
    if m.checked_mul(stride).is_none_or(|c| c > MAX_DP_CELLS) {
        // Under an active guard an oversized run is a memory trip — the
        // user simply gets no schedule and the solve truncates.
        // Unguarded, the legacy fail-fast panic stands (tripping the
        // shared unlimited guard would poison unrelated solves).
        if ws.guard.is_active() {
            ws.guard.trip(TruncationReason::MemoryCeiling);
            return Vec::new();
        }
        panic!(
            "DPSingle table of {m} candidates × budget {budget} exceeds \
             MAX_DP_CELLS = {MAX_DP_CELLS}; rescale the instance's integer costs"
        );
    }

    if ws.acc.len() < stride {
        let grown = stride - ws.acc.len();
        let grown_bytes = grown * (std::mem::size_of::<f64>() + std::mem::size_of::<i32>());
        if !ws.guard.try_reserve(grown_bytes) {
            return Vec::new();
        }
        ws.acc.resize(stride, 0.0);
        ws.acc_from.resize(stride, 0);
    }
    let DpScheduler { probe, acc, acc_from, states, rows, ends, guard } = ws;
    let (acc, acc_from) = (&mut acc[..stride], &mut acc_from[..stride]);
    states.clear();
    rows.clear();
    ends.clear();
    ends.extend(cands.iter().map(|c| inst.event(c.v).time.end()));
    debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]), "candidates not in end-time order");

    // the best proposal so far: (its row, its cost, its predecessor)
    let mut best_score = 0.0f64;
    let mut best = None::<(usize, usize, i32)>;
    // state accounting stays in registers; flushed to the probe once below
    let mut propagated = 0u64;
    let mut pruned = 0u64;

    for i in 0..m {
        // each finished row leaves a reconstructable best, so breaking
        // here still yields a feasible (shorter) schedule
        if guard.checkpoint() {
            break;
        }
        let vi = cands[i].v;
        let mu_i = cands[i].mu;
        debug_assert!(mu_i > 0.0);
        // both finite by the Lemma 1 filter (round trip ≤ budget)
        let arrive = inst.cost_to_event(u, vi).value() as usize;
        let go_home = inst.cost_from_event(vi, u).value() as usize;
        if arrive + go_home > budget {
            debug_assert!(false, "Lemma 1 filter should have removed this candidate");
            rows.push(Row::EMPTY);
            continue;
        }
        // highest affordable arrival cost at v_i, given the return leg
        let t_cap = budget - go_home;
        let mut lo_i = usize::MAX;
        let mut hi_i = 0usize;

        // base case: v_i is the first event
        {
            propagated += 1;
            let t0 = arrive;
            if mu_i > acc[t0] {
                acc[t0] = mu_i;
                acc_from[t0] = -1;
                lo_i = t0;
                hi_i = t0;
                if mu_i > best_score {
                    best_score = mu_i;
                    best = Some((i, t0, -1));
                }
            }
        }

        // transitions from the frontiers of candidates that end before
        // v_i starts
        let start_i = inst.event(vi).time.start();
        let l_i = ends[..i].partition_point(|&e| e <= start_i);
        for l in 0..l_i {
            let Some(c) = inst.cost_vv(cands[l].v, vi).finite_value() else {
                continue;
            };
            let c = c as usize;
            if c > t_cap {
                continue;
            }
            let row = rows[l];
            let front = &states[row.start as usize..row.end as usize];
            let Some(first) = front.first() else {
                continue; // no reachable state at all
            };
            let t_lo = first.t as usize;
            let t_hi = (t_cap - c).min(row.hi as usize);
            if t_lo > t_hi {
                continue; // nothing affordable
            }
            // a visited cell either takes the proposal or already holds a
            // larger value, so this l touches [t_lo + c, t_last + c]
            let (dst, dst_from) = (&mut acc[c..=c + t_hi], &mut acc_from[c..=c + t_hi]);
            let mut visited = 0usize;
            for st in front {
                let t = st.t as usize;
                if t > t_hi {
                    break;
                }
                visited += 1;
                let ns = st.s + mu_i;
                if ns > dst[t] {
                    dst[t] = ns;
                    dst_from[t] = l as i32;
                    if ns > best_score {
                        best_score = ns;
                        best = Some((i, t + c, l as i32));
                    }
                }
            }
            lo_i = lo_i.min(t_lo + c);
            hi_i = hi_i.max(front[visited - 1].t as usize + c);
            propagated += visited as u64;
            pruned += (t_hi - t_lo + 1 - visited) as u64;
        }

        // compact row i into its frontier, zeroing the accumulator
        let mut row = Row::EMPTY;
        if lo_i <= hi_i {
            let width = hi_i - lo_i + 1;
            if states.capacity() - states.len() < width {
                let cap = states.capacity();
                let new_cap = (states.len() + width).max(2 * cap);
                if !guard.try_reserve((new_cap - cap) * std::mem::size_of::<State>()) {
                    // the guard has tripped; rows before i stay intact
                    acc[lo_i..=hi_i].fill(0.0);
                    break;
                }
                states.reserve_exact(new_cap - states.len());
            }
            row = Row { start: states.len() as u32, end: 0, hi: hi_i as u32 };
            let mut run_max = 0.0f64;
            for (t, s) in acc[lo_i..=hi_i].iter_mut().enumerate() {
                if *s > run_max {
                    run_max = *s;
                    let t = lo_i + t;
                    states.push(State { t: t as u32, from: acc_from[t], s: run_max });
                }
                *s = 0.0;
            }
            row.end = states.len() as u32;
        }
        rows.push(row);
    }

    // reconstruct the chosen candidate chain
    let mut chosen = Vec::new();
    if let Some((mut i, mut t, mut from)) = best {
        loop {
            chosen.push(i);
            if from < 0 {
                break;
            }
            let l = from as usize;
            t -= inst.cost_vv(cands[l].v, cands[i].v).value() as usize;
            i = l;
            let row = rows[i];
            let front = &states[row.start as usize..row.end as usize];
            let k = front
                .binary_search_by_key(&(t as u32), |st| st.t)
                .expect("a backtracked chain passes through frontier states only");
            from = front[k].from;
        }
        chosen.reverse();
    }
    debug_assert!(chosen.windows(2).all(|w| w[0] < w[1]));
    probe.count(Counter::DpCellVisit, propagated);
    probe.count(Counter::DpCellPruned, pruned);
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_single_schedule;
    use usep_core::{Cost, EventId, Instance, InstanceBuilder, Point, TimeInterval};
    use usep_guard::SolveBudget;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn cand(v: EventId, mu: f64) -> Candidate {
        Candidate { v, slot: 0, mu }
    }

    /// Builds an instance with one user and events on a line, all with
    /// capacity 1 and sequential time slots.
    fn line(events: &[(i32, i64, i64)], budget: u32, mus: &[f64]) -> (Instance, Vec<Candidate>) {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for &(x, t1, t2) in events {
            vs.push(b.event(1, Point::new(x, 0), iv(t1, t2)));
        }
        let u = b.user(Point::new(0, 0), Cost::new(budget));
        for (&v, &m) in vs.iter().zip(mus) {
            b.utility(v, u, m);
        }
        let inst = b.build().unwrap();
        // candidates in end-time order, with the Lemma-1 filter applied
        let mut order: Vec<usize> = (0..vs.len()).collect();
        order.sort_by_key(|&i| events[i].2);
        let cands = order
            .into_iter()
            .filter(|&i| inst.round_trip(u, vs[i]) <= inst.user(u).budget)
            .map(|i| cand(vs[i], mus[i]))
            .collect();
        (inst, cands)
    }

    fn score(inst: &Instance, cands: &[Candidate], chosen: &[usize]) -> f64 {
        let _ = inst;
        chosen.iter().map(|&i| cands[i].mu).sum()
    }

    #[test]
    fn empty_candidates() {
        let (inst, _) = line(&[(1, 0, 1)], 10, &[0.5]);
        let mut ws = DpScheduler::new();
        assert!(dp_single(&mut ws, &inst, UserId(0), &[]).is_empty());
    }

    #[test]
    fn single_affordable_event() {
        let (inst, cands) = line(&[(3, 0, 10)], 10, &[0.5]);
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst, UserId(0), &cands);
        assert_eq!(chosen, vec![0]);
    }

    #[test]
    fn chains_compatible_events() {
        let (inst, cands) = line(
            &[(2, 0, 10), (4, 10, 20), (6, 20, 30)],
            100,
            &[0.5, 0.5, 0.5],
        );
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst, UserId(0), &cands);
        assert_eq!(chosen, vec![0, 1, 2]);
    }

    #[test]
    fn budget_forces_choice() {
        // two far-apart events, budget only allows one
        let (inst, cands) = line(&[(5, 0, 10), (-5, 20, 30)], 12, &[0.4, 0.9]);
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst, UserId(0), &cands);
        // picks the higher-utility one
        assert_eq!(chosen.len(), 1);
        assert!((cands[chosen[0]].mu - 0.9).abs() < 1e-12);
    }

    #[test]
    fn prefers_many_small_over_one_big_when_optimal() {
        // v0 and v1 chain cheaply (total 0.8), v2 alone is 0.7 but conflicts
        let (inst, cands) = line(
            &[(1, 0, 10), (2, 10, 20), (50, 0, 20)],
            90,
            &[0.4, 0.4, 0.7],
        );
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst, UserId(0), &cands);
        let s = score(&inst, &cands, &chosen);
        assert!((s - 0.8).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let (inst, cands) = line(
            &[(2, 0, 10), (4, 10, 20), (6, 20, 30)],
            100,
            &[0.5, 0.5, 0.5],
        );
        let mut ws = DpScheduler::new();
        let a = dp_single(&mut ws, &inst, UserId(0), &cands);
        let b = dp_single(&mut ws, &inst, UserId(0), &cands);
        assert_eq!(a, b);
        assert!(ws.acc.iter().all(|&x| x == 0.0), "workspace left dirty");
    }

    #[test]
    fn matches_bruteforce_on_dense_cases() {
        // 8 events with mixed overlaps and distances; exhaustive check
        let events: Vec<(i32, i64, i64)> = vec![
            (3, 0, 5),
            (-2, 2, 7), // overlaps the first
            (5, 6, 9),
            (1, 9, 14),
            (-4, 10, 15), // overlaps previous
            (7, 16, 20),
            (0, 21, 25),
            (9, 21, 30), // overlaps previous
        ];
        // plain utilities, then utilities on a 0.25 grid, where many
        // chains tie on utility at different costs
        let mu_sets: [[f64; 8]; 3] = [
            [0.3, 0.8, 0.5, 0.2, 0.9, 0.4, 0.6, 0.7],
            [0.25, 0.75, 0.5, 0.25, 0.75, 0.5, 0.5, 0.75],
            [0.5; 8],
        ];
        for mus in mu_sets {
            for budget in [8u32, 15, 25, 40, 80] {
                let (inst, cands) = line(&events, budget, &mus);
                let mut ws = DpScheduler::new();
                let chosen = dp_single(&mut ws, &inst, UserId(0), &cands);
                let got = score(&inst, &cands, &chosen);
                let pairs: Vec<(EventId, f64)> = cands.iter().map(|c| (c.v, c.mu)).collect();
                let (_, want) = optimal_single_schedule(&inst, UserId(0), &pairs);
                assert!(
                    (got - want).abs() < 1e-9,
                    "μ {mus:?}, budget {budget}: dp {got} vs brute force {want}"
                );
            }
        }
    }

    #[test]
    fn equal_utility_chains_keep_the_first_in_visit_order() {
        // events 0 and 1 overlap and both chain into event 2 for 0.75 in
        // total; the chain through event 0 costs 10 in the first layout
        // and 4 in the second. Either way the first candidate visited
        // wins the tie, and its cell is dominated by the cheaper tie in
        // its own row, so backtracking starts from the recorded
        // predecessor.
        for xs in [[5, 1], [1, 5]] {
            let events = [(xs[0], 0, 10), (xs[1], 0, 10), (2, 20, 30)];
            let (inst, cands) = line(&events, 20, &[0.25, 0.25, 0.5]);
            let mut ws = DpScheduler::new();
            let chosen = dp_single(&mut ws, &inst, UserId(0), &cands);
            let picked: Vec<EventId> = chosen.iter().map(|&c| cands[c].v).collect();
            assert_eq!(picked, vec![EventId(0), EventId(2)], "event 0 at x = {}", xs[0]);
        }
    }

    #[test]
    fn guard_trip_midway_leaves_the_workspace_clean() {
        // eight back-to-back events zig-zagging over x ∈ {-2, 0, 2}
        let events: Vec<(i32, i64, i64)> =
            (0..8i64).map(|k| ((k % 3) as i32 * 2 - 2, 10 * k, 10 * k + 10)).collect();
        let budget = 40u32;
        let (inst, cands) = line(&events, budget, &[0.25, 0.5, 0.75, 0.25, 0.5, 0.75, 0.25, 0.5]);
        let want = dp_single(&mut DpScheduler::new(), &inst, UserId(0), &cands);
        assert_eq!(want.len(), cands.len(), "the unguarded run takes every event");
        // trips between rows (checkpoints) and inside a row's compaction
        // (frontier growth past a memory ceiling just above the
        // accumulator row's 12 bytes per cell)
        let acc_bytes = 12 * (budget as usize + 1);
        let budgets = (0..cands.len() as u64)
            .map(|k| SolveBudget::unlimited().with_chaos_trip(k, TruncationReason::Cancelled))
            .chain((0..16).map(|k| SolveBudget::unlimited().with_memory_ceiling(acc_bytes + 16 * k)));
        let mut midway = 0;
        for limits in budgets {
            let guard = Guard::new(&limits);
            let mut ws = DpScheduler::with_guard(&NOOP, &guard);
            let partial = dp_single(&mut ws, &inst, UserId(0), &cands);
            assert!(guard.is_tripped());
            if !partial.is_empty() {
                midway += 1;
                assert!(partial.len() < want.len());
            }
            assert!(ws.acc.iter().all(|&x| x == 0.0), "accumulator left dirty: {limits:?}");
            ws.guard = Guard::none();
            assert_eq!(dp_single(&mut ws, &inst, UserId(0), &cands), want, "{limits:?}");
        }
        assert!(midway >= 2, "no trip landed partway through the rows");
    }

    #[test]
    fn zero_budget_user_at_event_location() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u = b.user(Point::ORIGIN, Cost::new(0));
        b.utility(v, u, 0.6);
        let inst = b.build().unwrap();
        let mut ws = DpScheduler::new();
        let chosen = dp_single(&mut ws, &inst, UserId(0), &[cand(v, 0.6)]);
        assert_eq!(chosen, vec![0]);
    }
}
