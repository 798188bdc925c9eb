//! RatioGreedy (Algorithm 1): the global utility/cost-ratio heuristic.
//!
//! RatioGreedy repeatedly adds the unarranged event-user pair with the
//! largest `ratio(v, u) = μ(v, u) / inc_cost(v, u)` (Eq. 2) to the
//! planning, where `inc_cost` is the extra travel the insertion causes
//! (Eq. 3). A heap `H` holds at most one candidate pair per event (its
//! current best user) and one per user (their current best event); after
//! every insertion the affected candidates are recomputed — including, as
//! in lines 15–18 of the paper's pseudo-code, every heap pair incident to
//! the popped user, whose incremental costs may have changed.
//!
//! The same engine drives the `+RG` augmentation pass of §4.3.2: it can
//! start from a non-empty planning and restrict itself to a subset of
//! events (those with residual capacity).
//!
//! The two `O(|U|·|V|)` scan phases — heap seeding and the incident
//! refresh after an accepted pop — fan out over `usep-par` when more
//! than one thread is configured. Scans are pure reads of the planning;
//! the commits (generation bumps and heap pushes) replay sequentially
//! in index order afterwards, so the heap — and therefore the final
//! planning — is bit-identical to a single-threaded run.

use crate::{finish_guarded, GuardedSolve, Solver};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use usep_core::{Cost, EventId, Instance, Planning, UserId};
use usep_guard::Guard;
use usep_par::{current_threads, par_map_section};
use usep_trace::{with_span, Counter, LocalCounters, Probe};

/// Below this many scan items a parallel section's thread spawns cost
/// more than the scans they would offload; stay inline.
const MIN_PAR_ITEMS: usize = 32;

/// The RatioGreedy heuristic (Algorithm 1). No approximation guarantee,
/// but fast on small instances; used standalone and as the `+RG`
/// augmentation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct RatioGreedy;

impl Solver for RatioGreedy {
    fn name(&self) -> &'static str {
        "RatioGreedy"
    }

    fn solve_with_probe(&self, inst: &Instance, probe: &dyn Probe) -> Planning {
        self.solve_guarded(inst, Guard::none(), probe).planning
    }

    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve {
        let mut planning = Planning::empty(inst);
        let events: Vec<EventId> = inst.event_ids().collect();
        with_span(probe, "ratio_greedy", || {
            run_ratio_greedy(inst, &mut planning, &events, guard, probe);
        });
        GuardedSolve { planning, outcome: finish_guarded(guard, probe) }
    }
}

/// Which side of the bipartition a heap candidate was computed for.
///
/// The paper keeps one best pair per event *and* one per user in `H`;
/// tagging lets stale copies be dropped in O(1) when a side's candidate
/// has been recomputed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Event,
    User,
}

#[derive(Clone, Copy, Debug)]
struct Cand {
    ratio: f64,
    inc: Cost,
    v: EventId,
    u: UserId,
    side: Side,
    /// Generation stamp; a heap entry is live only while it matches the
    /// side's current generation (lazy deletion).
    gen: u64,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}

impl Ord for Cand {
    /// Max-heap order: ratio descending, then `inc_cost` ascending (the
    /// paper's tie-break), then ids ascending for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .total_cmp(&other.ratio)
            .then_with(|| other.inc.cmp(&self.inc))
            .then_with(|| other.v.cmp(&self.v))
            .then_with(|| other.u.cmp(&self.u))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `ratio(v, u)` of Eq. (2). `inc = 0` (an event exactly on the way)
/// yields `+∞`, which simply sorts first; `μ > 0` is guaranteed by the
/// caller, so the ratio is never NaN.
fn ratio_of(mu: f64, inc: Cost) -> f64 {
    debug_assert!(mu > 0.0);
    let inc = inc.as_f64();
    if inc == 0.0 {
        f64::INFINITY
    } else {
        mu / inc
    }
}

/// Per-user occupancy bitsets over events: `⌈|V|/64⌉` words per user,
/// bit `v` set iff `v ∈ S_u`. A whole feasibility probe collapses to
/// `conflict_word & occupied_word != 0` against these rows.
struct Occupancy {
    words: usize,
    bits: Vec<u64>,
}

impl Occupancy {
    fn from_planning(nv: usize, planning: &Planning) -> Occupancy {
        let words = nv.div_ceil(64);
        let mut bits = vec![0u64; planning.schedules().len() * words];
        for (u, s) in planning.schedules().iter().enumerate() {
            for &v in s.events() {
                bits[u * words + v.index() / 64] |= 1u64 << (v.index() % 64);
            }
        }
        Occupancy { words, bits }
    }

    #[inline]
    fn row(&self, u: UserId) -> &[u64] {
        &self.bits[u.index() * self.words..(u.index() + 1) * self.words]
    }

    #[inline]
    fn set(&mut self, u: UserId, v: EventId) {
        self.bits[u.index() * self.words + v.index() / 64] |= 1u64 << (v.index() % 64);
    }
}

/// Validity of the pair per Alg. 1: capacity left, `μ > 0`, not yet in
/// `S_u`, time-feasible insertion, reachable legs, and budget. Returns
/// the incremental cost when valid. A pure read of the planning, so
/// parallel scans may call it concurrently; rejects accumulate in the
/// caller's local counter block.
///
/// The duplicate/time-conflict test is the bitmask word-AND against
/// `occ`'s row for `u`; the insertion *position* is then recovered with
/// the plain ordinal prefix scan.
fn pair_inc(
    inst: &Instance,
    planning: &Planning,
    occ: &Occupancy,
    v: EventId,
    u: UserId,
    lc: &mut LocalCounters,
) -> Option<Cost> {
    if planning.remaining_capacity(inst, v) == 0 {
        lc.count(Counter::CapacityReject, 1);
        return None;
    }
    if inst.mu(v, u) <= 0.0 {
        return None;
    }
    if inst.conflicts_with_occupied(occ.row(u), v) {
        return None;
    }
    let s = planning.schedule(u);
    let pos = inst.insertion_pos_unchecked(s.events(), v);
    let inc = inst.inc_cost_at(s.events(), u, v, pos);
    if inc.is_infinite() {
        return None;
    }
    if inst.total_cost(s.events(), u).add(inc) > inst.user(u).budget {
        lc.count(Counter::BudgetReject, 1);
        return None;
    }
    Some(inc)
}

/// The scan half of an event refresh (lines 3–5 / 12–14): the best user
/// for `v` by ratio, tie-broken by `inc_cost` then id. Pure.
fn scan_event(
    inst: &Instance,
    planning: &Planning,
    occ: &Occupancy,
    v: EventId,
    lc: &mut LocalCounters,
) -> Option<(UserId, f64, Cost)> {
    if planning.remaining_capacity(inst, v) == 0 {
        return None;
    }
    let mut best: Option<(UserId, f64, Cost)> = None;
    for ui in 0..inst.num_users() as u32 {
        let u = UserId(ui);
        let Some(inc) = pair_inc(inst, planning, occ, v, u, lc) else { continue };
        let r = ratio_of(inst.mu(v, u), inc);
        let better = match best {
            None => true,
            Some((bu, br, binc)) => {
                r > br || (r == br && (inc < binc || (inc == binc && u < bu)))
            }
        };
        if better {
            best = Some((u, r, inc));
        }
    }
    best
}

/// The scan half of a user refresh (lines 6–8 / 19–20): the best event
/// for `u` among `events`. Pure.
fn scan_user(
    inst: &Instance,
    planning: &Planning,
    occ: &Occupancy,
    events: &[EventId],
    u: UserId,
    lc: &mut LocalCounters,
) -> Option<(EventId, f64, Cost)> {
    let mut best: Option<(EventId, f64, Cost)> = None;
    for &v in events {
        let Some(inc) = pair_inc(inst, planning, occ, v, u, lc) else { continue };
        let r = ratio_of(inst.mu(v, u), inc);
        let better = match best {
            None => true,
            Some((bv, br, binc)) => {
                r > br || (r == br && (inc < binc || (inc == binc && v < bv)))
            }
        };
        if better {
            best = Some((v, r, inc));
        }
    }
    best
}

struct Engine<'a> {
    inst: &'a Instance,
    planning: &'a mut Planning,
    /// Per-user occupancy bitsets, kept in lockstep with `planning`.
    occ: Occupancy,
    /// The events this run may assign (all events for plain RatioGreedy;
    /// the non-full ones for the `+RG` pass).
    events: &'a [EventId],
    heap: BinaryHeap<Cand>,
    /// Current generation per event (index = position in `events`).
    event_gen: Vec<u64>,
    /// Current best candidate per event, if any.
    event_best: Vec<Option<(UserId, f64, Cost)>>,
    user_gen: Vec<u64>,
    user_best: Vec<Option<(EventId, f64, Cost)>>,
    /// Maps `EventId` to its position in `events` (u32::MAX = excluded).
    event_pos: Vec<u32>,
    next_gen: u64,
    /// Worker count for the scan fan-outs (resolved once per run).
    threads: usize,
    guard: &'a Guard,
    probe: &'a dyn Probe,
}

impl<'a> Engine<'a> {
    fn new(
        inst: &'a Instance,
        planning: &'a mut Planning,
        events: &'a [EventId],
        guard: &'a Guard,
        probe: &'a dyn Probe,
    ) -> Self {
        let mut event_pos = vec![u32::MAX; inst.num_events()];
        for (i, &v) in events.iter().enumerate() {
            event_pos[v.index()] = i as u32;
        }
        let occ = Occupancy::from_planning(inst.num_events(), planning);
        Engine {
            inst,
            planning,
            occ,
            events,
            heap: BinaryHeap::new(),
            event_gen: vec![0; events.len()],
            event_best: vec![None; events.len()],
            user_gen: vec![0; inst.num_users()],
            user_best: vec![None; inst.num_users()],
            event_pos,
            next_gen: 1,
            threads: current_threads(),
            guard,
            probe,
        }
    }

    /// The commit half of an event refresh: bumps the generation, stores
    /// the scan's best and pushes it. Commits always run on the driving
    /// thread, in item-index order.
    fn commit_event(&mut self, pos: usize, v: EventId, best: Option<(UserId, f64, Cost)>) {
        self.probe.count(Counter::CandidateRefreshEvent, 1);
        self.next_gen += 1;
        self.event_gen[pos] = self.next_gen;
        self.event_best[pos] = best;
        if let Some((u, r, inc)) = best {
            self.probe.count(Counter::HeapPush, 1);
            self.heap.push(Cand { ratio: r, inc, v, u, side: Side::Event, gen: self.next_gen });
        }
    }

    /// The commit half of a user refresh.
    fn commit_user(&mut self, u: UserId, best: Option<(EventId, f64, Cost)>) {
        self.probe.count(Counter::CandidateRefreshUser, 1);
        self.next_gen += 1;
        self.user_gen[u.index()] = self.next_gen;
        self.user_best[u.index()] = best;
        if let Some((v, r, inc)) = best {
            self.probe.count(Counter::HeapPush, 1);
            self.heap.push(Cand { ratio: r, inc, v, u, side: Side::User, gen: self.next_gen });
        }
    }

    /// Recomputes the best user for event `v` (lines 3–5 / 12–14) and
    /// pushes it.
    fn refresh_event(&mut self, v: EventId) {
        let pos = self.event_pos[v.index()];
        if pos == u32::MAX {
            return; // event excluded from this run
        }
        let mut lc = LocalCounters::new();
        let best = scan_event(self.inst, self.planning, &self.occ, v, &mut lc);
        lc.flush_into(self.probe);
        self.commit_event(pos as usize, v, best);
    }

    /// Recomputes the best event for user `u` (lines 6–8 / 19–20) and
    /// pushes it.
    fn refresh_user(&mut self, u: UserId) {
        let mut lc = LocalCounters::new();
        let best = scan_user(self.inst, self.planning, &self.occ, self.events, u, &mut lc);
        lc.flush_into(self.probe);
        self.commit_user(u, best);
    }

    /// Seeds the heap with every event's and every user's best pair.
    /// With more than one thread the scans fan out over the pool and
    /// the commits replay in index order, reproducing the sequential
    /// generation sequence exactly.
    fn seed(&mut self) {
        let users: Vec<UserId> = self.inst.user_ids().collect();
        if self.threads > 1 && self.events.len().max(users.len()) >= MIN_PAR_ITEMS {
            let (inst, probe) = (self.inst, self.probe);
            let occ = &self.occ;
            let planning: &Planning = self.planning;
            let event_scans = par_map_section(
                self.threads,
                "par.seed_events",
                probe,
                self.events,
                self.guard,
                LocalCounters::new,
                |lc, _, &v| scan_event(inst, planning, occ, v, lc),
                |mut lc| lc.flush_into(probe),
            );
            for (pos, scan) in event_scans.into_iter().enumerate() {
                // a `None` slot means the guard tripped before this
                // chunk: skip the commit, the drain loop stops anyway
                let Some(best) = scan else { continue };
                self.commit_event(pos, self.events[pos], best);
            }
            let events = self.events;
            let occ = &self.occ;
            let planning: &Planning = self.planning;
            let user_scans = par_map_section(
                self.threads,
                "par.seed_users",
                probe,
                &users,
                self.guard,
                LocalCounters::new,
                |lc, _, &u| scan_user(inst, planning, occ, events, u, lc),
                |mut lc| lc.flush_into(probe),
            );
            for (i, scan) in user_scans.into_iter().enumerate() {
                let Some(best) = scan else { continue };
                self.commit_user(users[i], best);
            }
        } else {
            // the inline fallback ticks the same section span/counter as
            // the fan-out path, so trace snapshots stay identical across
            // thread counts
            let probe = self.probe;
            with_span(probe, "par.seed_events", || {
                probe.count(Counter::ParSection, 1);
                for i in 0..self.events.len() {
                    if self.guard.checkpoint() {
                        break;
                    }
                    self.refresh_event(self.events[i]);
                }
            });
            with_span(probe, "par.seed_users", || {
                probe.count(Counter::ParSection, 1);
                for &u in &users {
                    if self.guard.checkpoint() {
                        break;
                    }
                    self.refresh_user(u);
                }
            });
        }
    }

    fn run(&mut self) {
        self.probe.span_enter("ratio_greedy.seed");
        self.seed();
        self.probe.span_exit("ratio_greedy.seed");
        self.probe.span_enter("ratio_greedy.drain");
        while let Some(c) = self.heap.pop() {
            // every assignment made so far is a valid prefix — stop here
            // when the budget is exhausted
            if self.guard.checkpoint() {
                break;
            }
            self.probe.count(Counter::HeapPop, 1);
            // lazy deletion: only the entry matching the side's current
            // generation is live
            let live = match c.side {
                Side::Event => {
                    let p = self.event_pos[c.v.index()] as usize;
                    self.event_gen[p] == c.gen
                }
                Side::User => self.user_gen[c.u.index()] == c.gen,
            };
            if !live {
                self.probe.count(Counter::HeapPopStale, 1);
                continue;
            }
            // consume the side's slot
            match c.side {
                Side::Event => self.event_best[self.event_pos[c.v.index()] as usize] = None,
                Side::User => self.user_best[c.u.index()] = None,
            }
            let mut lc = LocalCounters::new();
            let revalidated = pair_inc(self.inst, self.planning, &self.occ, c.v, c.u, &mut lc);
            lc.flush_into(self.probe);
            let added = if let Some(inc) = revalidated {
                self.planning
                    .assign(self.inst, c.u, c.v)
                    .expect("pair validated as assignable");
                self.occ.set(c.u, c.v);
                if self.probe.enabled() {
                    self.probe.record("ratio_greedy.accepted_inc", inc.as_f64());
                }
                true
            } else {
                false
            };
            // lines 12-14 & 19-20: new best pair for the popped event and user
            self.refresh_event(c.v);
            self.refresh_user(c.u);
            if added {
                // lines 15-18: u's schedule changed, so every heap pair
                // incident to u may have a different inc_cost — recompute
                // the events whose current best user is u
                let incident: Vec<(u32, EventId)> = self
                    .event_best
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| match b {
                        Some((bu, _, _)) if *bu == c.u && self.events[i] != c.v => {
                            Some((i as u32, self.events[i]))
                        }
                        _ => None,
                    })
                    .collect();
                if self.threads > 1 && incident.len() >= MIN_PAR_ITEMS {
                    let (inst, probe) = (self.inst, self.probe);
                    let occ = &self.occ;
                    let planning: &Planning = self.planning;
                    let scans = par_map_section(
                        self.threads,
                        "par.refresh_incident",
                        probe,
                        &incident,
                        self.guard,
                        LocalCounters::new,
                        |lc, _, &(_, v)| scan_event(inst, planning, occ, v, lc),
                        |mut lc| lc.flush_into(probe),
                    );
                    for (k, scan) in scans.into_iter().enumerate() {
                        let Some(best) = scan else { continue };
                        let (pos, v) = incident[k];
                        self.commit_event(pos as usize, v, best);
                    }
                } else {
                    let probe = self.probe;
                    with_span(probe, "par.refresh_incident", || {
                        probe.count(Counter::ParSection, 1);
                        for &(_, v) in &incident {
                            self.refresh_event(v);
                        }
                    });
                }
                // and the user-side entries offering the now-possibly-full
                // event v are handled lazily: they fail `pair_inc` on pop
                // and trigger a refresh then.
            }
        }
        self.probe.span_exit("ratio_greedy.drain");
    }
}

/// Runs the RatioGreedy engine on `planning`, restricted to `events`
/// (Algorithm 1; also the `+RG` pass when `planning` is non-empty and
/// `events` are the non-full ones). Existing schedules are respected —
/// incremental costs are computed against them.
pub(crate) fn run_ratio_greedy(
    inst: &Instance,
    planning: &mut Planning,
    events: &[EventId],
    guard: &Guard,
    probe: &dyn Probe,
) {
    if events.is_empty() || inst.num_users() == 0 {
        return;
    }
    Engine::new(inst, planning, events, guard, probe).run();
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn empty_instance() {
        let mut b = InstanceBuilder::new();
        b.user(Point::ORIGIN, Cost::new(10));
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn no_users() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn picks_highest_ratio_pair_first() {
        let mut b = InstanceBuilder::new();
        // v0 near u0 (cheap), v1 far (expensive), same utility
        let v0 = b.event(1, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(1, Point::new(50, 0), iv(0, 10)); // conflicts with v0
        let u0 = b.user(Point::ORIGIN, Cost::new(200));
        b.utility(v0, u0, 0.5);
        b.utility(v1, u0, 0.5);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        // both conflict, so only one fits; the cheaper one wins by ratio
        assert_eq!(p.schedule(u0).events(), &[v0]);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn respects_capacity() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::new(1, 0), Cost::new(100));
        let u1 = b.user(Point::new(1, 0), Cost::new(100));
        b.utility(v0, u0, 0.9);
        b.utility(v0, u1, 0.8);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert_eq!(p.load(v0), 1);
        // the higher-ratio user gets it
        assert_eq!(p.schedule(u0).events(), &[v0]);
        assert!(p.schedule(u1).is_empty());
    }

    #[test]
    fn zero_inc_cost_pair_sorts_first() {
        let mut b = InstanceBuilder::new();
        // u0 sits exactly at v0: round trip costs 0
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let v1 = b.event(1, Point::new(1, 0), iv(20, 30));
        let u0 = b.user(Point::ORIGIN, Cost::new(100));
        b.utility(v0, u0, 0.1); // tiny utility but infinite ratio
        b.utility(v1, u0, 0.9);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        // both fit; just verify feasibility and that v0 was taken
        assert!(p.schedule(u0).contains(v0));
        assert!(p.schedule(u0).contains(v1));
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn budget_limits_schedule() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(5, Point::new(2, 0), iv(0, 10));
        let v1 = b.event(5, Point::new(4, 0), iv(10, 20));
        let v2 = b.event(5, Point::new(40, 0), iv(20, 30));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v0, u0, 0.5);
        b.utility(v1, u0, 0.5);
        b.utility(v2, u0, 1.0);
        let inst = b.build().unwrap();
        let p = RatioGreedy.solve(&inst);
        assert!(p.validate(&inst).is_ok());
        // v2 is unaffordable (round trip 80 > 10)
        assert!(!p.schedule(u0).contains(v2));
    }

    #[test]
    fn incident_pairs_are_refreshed_when_inc_cost_improves() {
        // Algorithm 1 lines 15-18: after u0 gets v_far, inserting v_mid
        // becomes *cheaper* for u0 (it sits on the way), so its ratio
        // jumps. A lazy implementation that only re-checks validity at
        // pop time would still use the stale, worse ratio and could lose
        // the capacity race for v_mid to u1.
        let mut b = InstanceBuilder::new();
        let v_far = b.event(1, Point::new(10, 0), iv(0, 10));
        let v_mid = b.event(1, Point::new(5, 0), iv(10, 20)); // capacity 1!
        let u0 = b.user(Point::new(0, 0), Cost::new(40));
        let u1 = b.user(Point::new(5, 4), Cost::new(40));
        b.utility(v_far, u0, 0.9);
        // stale ratio for (v_mid, u0): 0.4 / 10 = 0.04 (round trip);
        // fresh after v_far: inc = cost(v_far,v_mid) + cost(v_mid,u0)
        //                        - cost(v_far,u0) = 5 + 5 - 10 = 0 → ∞
        b.utility(v_mid, u0, 0.4);
        // competitor ratio for (v_mid, u1): 0.3 / 8 = 0.0375 < 0.04 is
        // false... make it sit between stale (0.04) and fresh (∞):
        // inc for u1 = 2·4 = 8 → 0.35/8 = 0.044 > 0.04
        b.utility(v_mid, u1, 0.35);
        let inst = b.build().unwrap();
        assert_eq!(inst.cost_uv(u1, v_mid), Cost::new(4));
        let p = RatioGreedy.solve(&inst);
        assert!(p.validate(&inst).is_ok());
        // with eager incident refresh, u0's post-insertion ratio for
        // v_mid is infinite (zero marginal travel) and beats u1's 0.044
        assert!(
            p.schedule(u0).contains(v_mid),
            "incident refresh failed: u0 lost the free-on-the-way event, got {:?} / {:?}",
            p.schedule(u0).events(),
            p.schedule(u1).events()
        );
        assert!(p.schedule(u0).contains(v_far));
    }

    #[test]
    fn multi_user_multi_event_feasible_and_deterministic() {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..6 {
            vs.push(b.event(
                2,
                Point::new(i * 3, (i % 2) * 4),
                iv(i64::from(i) * 10, i64::from(i) * 10 + 8),
            ));
        }
        let mut us = Vec::new();
        for j in 0..4 {
            us.push(b.user(Point::new(j * 2, 1), Cost::new(60)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, 0.1 + 0.13 * ((i * 4 + j) % 7) as f64);
            }
        }
        let inst = b.build().unwrap();
        let p1 = RatioGreedy.solve(&inst);
        let p2 = RatioGreedy.solve(&inst);
        assert_eq!(p1, p2, "deterministic");
        assert!(p1.validate(&inst).is_ok());
        assert!(p1.num_assignments() > 0);
    }

    #[test]
    fn probe_counters_satisfy_lazy_heap_invariants() {
        use usep_trace::TraceSink;
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..5 {
            vs.push(b.event(
                2,
                Point::new(i * 4, i % 3),
                iv(i64::from(i) * 10, i64::from(i) * 10 + 8),
            ));
        }
        let mut us = Vec::new();
        for j in 0..4 {
            us.push(b.user(Point::new(j, 2), Cost::new(50)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, 0.15 + 0.11 * ((i * 3 + j) % 6) as f64);
            }
        }
        let inst = b.build().unwrap();

        let sink = TraceSink::new();
        let traced = RatioGreedy.solve_with_probe(&inst, &sink);
        assert_eq!(traced, RatioGreedy.solve(&inst), "probes must not steer the result");

        let pop = sink.counter(Counter::HeapPop);
        let stale = sink.counter(Counter::HeapPopStale);
        let push = sink.counter(Counter::HeapPush);
        assert!(pop >= stale, "every stale pop is a pop: pop={pop} stale={stale}");
        assert_eq!(push, pop, "the drain loop empties the heap exactly");
        assert!(sink.counter(Counter::CandidateRefreshEvent) >= 5, "one seed refresh per event");
        assert!(sink.counter(Counter::CandidateRefreshUser) >= 4, "one seed refresh per user");
        // every assignment came out of an accepted pop
        assert!(pop - stale >= traced.num_assignments() as u64);
        let spans = sink.span_totals();
        for name in ["ratio_greedy", "ratio_greedy.seed", "ratio_greedy.drain"] {
            assert!(spans.iter().any(|t| t.name == name && t.count == 1), "missing span {name}");
        }
    }
}
