//! Per-user schedules and the incremental-cost computation of Eq. (3).
//!
//! The schedule-level operations — the insertion-point probe, Eq. (3),
//! the total-cost chain, the utility sum — are written once, as
//! [`Instance`] methods over a raw time-ordered `&[EventId]` slice, so
//! [`Schedule`] (which delegates to them) and slice-juggling solver
//! internals share one implementation.

use crate::cost::Cost;
use crate::ids::{EventId, UserId};
use crate::instance::Instance;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Normalizes IEEE-754 `-0.0` to `+0.0`.
///
/// An empty `Iterator::sum::<f64>()` over a rev-folded accumulator can
/// produce `-0.0`; every utility aggregate (Ω, per-schedule utility,
/// marginal gains) passes through this single helper so serialized
/// objectives never leak a sign bit that depends on summation shape.
#[inline]
pub fn normalize_utility(x: f64) -> f64 {
    x + 0.0
}

impl Instance {
    /// The position at which `v` would be inserted into the
    /// time-ordered, non-overlapping `events`, or `None` when `v` is one
    /// of them or overlaps one in time.
    ///
    /// The accept/reject decision is one conflict-bitmask probe per
    /// scheduled event (the diagonal bit covers duplicates); the
    /// position is then the length of the prefix of events ending no
    /// later than `v` starts.
    pub fn insertion_point(&self, events: &[EventId], v: EventId) -> Option<usize> {
        let row = self.conflict_row(v);
        for &e in events {
            if row[e.index() / 64] & (1u64 << (e.index() % 64)) != 0 {
                return None;
            }
        }
        Some(self.insertion_pos_unchecked(events, v))
    }

    /// The insertion position of `v` assuming it is already known to be
    /// conflict-free (e.g. after [`Instance::conflicts_with_occupied`]
    /// said so): the length of the prefix of events preceding `v`.
    #[inline]
    pub fn insertion_pos_unchecked(&self, events: &[EventId], v: EventId) -> usize {
        let sv = self.event(v).time.start();
        events.iter().take_while(|&&m| self.event(m).time.end() <= sv).count()
    }

    /// Eq. (3) with a precomputed insertion point: the extra travel
    /// incurred if `v` were inserted into `events` at `pos` for user
    /// `u`; [`Cost::INFINITE`] when a new leg is unreachable.
    pub fn inc_cost_at(&self, events: &[EventId], u: UserId, v: EventId, pos: usize) -> Cost {
        let n = events.len();
        if n == 0 {
            return self.round_trip(u, v);
        }
        if pos == 0 {
            let first = events[0];
            let new_legs = self.cost_to_event(u, v).add(self.cost_vv(v, first));
            if new_legs.is_infinite() {
                return Cost::INFINITE;
            }
            return new_legs.sub(self.cost_to_event(u, first));
        }
        if pos == n {
            let last = events[n - 1];
            let new_legs = self.cost_vv(last, v).add(self.cost_from_event(v, u));
            if new_legs.is_infinite() {
                return Cost::INFINITE;
            }
            return new_legs.sub(self.cost_from_event(last, u));
        }
        let prev = events[pos - 1];
        let next = events[pos];
        let new_legs = self.cost_vv(prev, v).add(self.cost_vv(v, next));
        if new_legs.is_infinite() {
            return Cost::INFINITE;
        }
        new_legs.sub(self.cost_vv(prev, next))
    }

    /// Eq. (3) without a precomputed position: infinite when `v` cannot
    /// be inserted at all.
    pub fn inc_cost(&self, events: &[EventId], u: UserId, v: EventId) -> Cost {
        let Some(pos) = self.insertion_point(events, v) else {
            return Cost::INFINITE;
        };
        self.inc_cost_at(events, u, v, pos)
    }

    /// Total round-trip travel cost of the schedule `events` for `u`.
    pub fn total_cost(&self, events: &[EventId], u: UserId) -> Cost {
        let Some((&first, rest)) = events.split_first() else {
            return Cost::ZERO;
        };
        let mut total = self.cost_to_event(u, first);
        let mut prev = first;
        for &v in rest {
            total = total.add(self.cost_vv(prev, v));
            prev = v;
        }
        total.add(self.cost_from_event(prev, u))
    }

    /// Total utility `Σ_{v ∈ events} μ(v, u)`, `-0.0`-normalized.
    pub fn utility(&self, events: &[EventId], u: UserId) -> f64 {
        normalize_utility(events.iter().map(|&v| self.mu(v, u)).sum::<f64>())
    }

    /// Whether `v` could be inserted into `events` for `u` without
    /// violating schedule-level constraints (time, reachability,
    /// budget).
    pub fn can_insert(&self, events: &[EventId], u: UserId, v: EventId) -> bool {
        let Some(pos) = self.insertion_point(events, v) else {
            return false;
        };
        let inc = self.inc_cost_at(events, u, v, pos);
        if inc.is_infinite() {
            return false;
        }
        self.total_cost(events, u).add(inc) <= self.user(u).budget
    }
}

/// Why an event cannot be inserted into a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// The event is already in the schedule.
    Duplicate,
    /// The event overlaps a scheduled event in time.
    TimeConflict,
    /// The event fits time-wise but a connecting leg is unreachable
    /// (infinite cost).
    Unreachable,
    /// Inserting would push the schedule's travel cost past the budget.
    OverBudget,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InsertError::Duplicate => "event already scheduled",
            InsertError::TimeConflict => "event overlaps the schedule",
            InsertError::Unreachable => "connecting leg is unreachable",
            InsertError::OverBudget => "insertion exceeds the travel budget",
        };
        f.write_str(s)
    }
}

impl Error for InsertError {}

/// A user's schedule `S_u`: arranged events in increasing time order,
/// pairwise non-overlapping.
///
/// The schedule does not store which user it belongs to; methods that need
/// costs take the `(instance, user)` pair explicitly, which keeps the type
/// a plain data container the algorithms can shuffle around freely.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    pub(crate) events: Vec<EventId>,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Builds a schedule from events already in increasing time order.
    ///
    /// Used by the decomposed algorithms, whose DP/greedy subroutines
    /// construct whole feasible schedules at once. Order and
    /// non-overlap are debug-asserted; call [`Schedule::check`] in tests
    /// for a full audit.
    pub fn from_time_ordered(inst: &Instance, events: Vec<EventId>) -> Schedule {
        debug_assert!(
            events.windows(2).all(|w| inst.event(w[0]).time.precedes(inst.event(w[1]).time)),
            "events not in feasible time order"
        );
        let _ = inst;
        Schedule { events }
    }

    /// Builds a schedule from a raw event list with **no invariant
    /// checks** — the events are taken verbatim, whatever their order,
    /// overlaps or duplicates.
    ///
    /// This is an oracle-facing constructor: external validators and
    /// corruption harnesses (see the `usep-oracle` crate) need to
    /// materialize deliberately *broken* schedules to prove that the
    /// auditors catch them. It must never be used by a solver; feasible
    /// construction goes through [`Schedule::try_insert`] or
    /// [`Schedule::from_time_ordered`].
    pub fn from_events_unchecked(events: Vec<EventId>) -> Schedule {
        Schedule { events }
    }

    /// Number of arranged events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The arranged events, in increasing time order.
    #[inline]
    pub fn events(&self) -> &[EventId] {
        &self.events
    }

    /// Whether `v` is arranged.
    #[inline]
    pub fn contains(&self, v: EventId) -> bool {
        self.events.contains(&v)
    }

    /// The position at which `v` would be inserted, or `None` when `v`
    /// conflicts in time with a scheduled event (or is a duplicate).
    ///
    /// Because the schedule is time-ordered and non-overlapping, the
    /// events that precede `v` form a prefix; `v` fits iff no scheduled
    /// event overlaps it (see [`Instance::insertion_point`]).
    pub fn insertion_point(&self, inst: &Instance, v: EventId) -> Option<usize> {
        inst.insertion_point(&self.events, v)
    }

    /// The incremental travel cost `inc_cost(v, u)` of Eq. (3): the extra
    /// travel incurred if `v` were inserted into this schedule of user
    /// `u`. Returns [`Cost::INFINITE`] when `v` cannot be inserted (time
    /// conflict, duplicate, or an unreachable new leg).
    ///
    /// Under the triangle inequality (validated at instance build) the
    /// increment is non-negative.
    pub fn inc_cost(&self, inst: &Instance, u: UserId, v: EventId) -> Cost {
        let Some(pos) = self.insertion_point(inst, v) else {
            return Cost::INFINITE;
        };
        self.inc_cost_at(inst, u, v, pos)
    }

    /// Eq. (3) with a precomputed insertion point (see
    /// [`Schedule::insertion_point`]); the shared slice implementation
    /// is [`Instance::inc_cost_at`].
    pub fn inc_cost_at(&self, inst: &Instance, u: UserId, v: EventId, pos: usize) -> Cost {
        inst.inc_cost_at(&self.events, u, v, pos)
    }

    /// Total round-trip travel cost of the schedule for user `u`:
    /// `cost(u, v_1) + Σ cost(v_{i-1}, v_i) + cost(v_k, u)`; zero when
    /// empty, infinite when any leg is unreachable.
    pub fn total_cost(&self, inst: &Instance, u: UserId) -> Cost {
        inst.total_cost(&self.events, u)
    }

    /// Total utility `Ω(S_u) = Σ_{v ∈ S_u} μ(v, u)`, `-0.0`-normalized
    /// through [`normalize_utility`].
    pub fn utility(&self, inst: &Instance, u: UserId) -> f64 {
        inst.utility(&self.events, u)
    }

    /// Attempts to insert `v`, enforcing time feasibility, leg
    /// reachability and the budget of `u`. Returns the insertion position.
    pub fn try_insert(
        &mut self,
        inst: &Instance,
        u: UserId,
        v: EventId,
    ) -> Result<usize, InsertError> {
        if self.contains(v) {
            return Err(InsertError::Duplicate);
        }
        let Some(pos) = self.insertion_point(inst, v) else {
            return Err(InsertError::TimeConflict);
        };
        let inc = self.inc_cost_at(inst, u, v, pos);
        if inc.is_infinite() {
            return Err(InsertError::Unreachable);
        }
        let new_total = self.total_cost(inst, u).add(inc);
        if new_total > inst.user(u).budget {
            return Err(InsertError::OverBudget);
        }
        self.events.insert(pos, v);
        Ok(pos)
    }

    /// Whether `v` could be inserted for user `u` without violating
    /// schedule-level constraints (time, reachability, budget). Does not
    /// check capacity or utility — those live on
    /// [`Planning`](crate::Planning).
    pub fn can_insert(&self, inst: &Instance, u: UserId, v: EventId) -> bool {
        inst.can_insert(&self.events, u, v)
    }

    /// Removes `v` if present, returning whether it was.
    ///
    /// Removal keeps the schedule feasible: the merged leg
    /// `prev → next` exists whenever both neighbor legs did (triangle
    /// inequality + temporal transitivity), and the total cost can only
    /// shrink.
    pub fn remove(&mut self, v: EventId) -> bool {
        if let Some(pos) = self.events.iter().position(|&e| e == v) {
            self.events.remove(pos);
            true
        } else {
            false
        }
    }

    /// Renders the schedule as a human-readable itinerary: one line per
    /// event with its time window, venue, utility and the travel leg
    /// reaching it, plus a footer with the return leg, total cost and
    /// utility. Used by the CLI's `plan-user` and the examples.
    pub fn describe(&self, inst: &Instance, u: UserId) -> String {
        use std::fmt::Write as _;
        let user = inst.user(u);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "itinerary of {u} (home {:?}, budget {}):",
            user.location, user.budget
        );
        if self.is_empty() {
            let _ = writeln!(out, "  (stays home)");
            return out;
        }
        let mut prev: Option<EventId> = None;
        for &v in &self.events {
            let e = inst.event(v);
            let leg = match prev {
                None => inst.cost_to_event(u, v),
                Some(p) => inst.cost_vv(p, v),
            };
            let _ = writeln!(
                out,
                "  [{:>6} – {:<6}] {v} @ {:?}  μ = {:.3}  (leg {leg})",
                e.time.start(),
                e.time.end(),
                e.location,
                inst.mu(v, u)
            );
            prev = Some(v);
        }
        let last = *self.events.last().expect("non-empty");
        let _ = writeln!(
            out,
            "  return leg {}; total cost {} of budget {}; Ω(S_u) = {:.3}",
            inst.cost_from_event(last, u),
            self.total_cost(inst, u),
            user.budget,
            self.utility(inst, u)
        );
        out
    }

    /// Full feasibility audit of this schedule for user `u` (time order,
    /// non-overlap, reachable legs, budget, duplicates). Used by tests
    /// and by `Planning::validate`.
    pub fn check(&self, inst: &Instance, u: UserId) -> Result<(), String> {
        for w in self.events.windows(2) {
            if !inst.event(w[0]).time.precedes(inst.event(w[1]).time) {
                return Err(format!("{} does not precede {}", w[0], w[1]));
            }
            if inst.cost_vv(w[0], w[1]).is_infinite() {
                return Err(format!("leg {} → {} unreachable", w[0], w[1]));
            }
        }
        for (i, &a) in self.events.iter().enumerate() {
            for &b in &self.events[i + 1..] {
                if a == b {
                    return Err(format!("duplicate event {a}"));
                }
            }
        }
        let total = self.total_cost(inst, u);
        if total > inst.user(u).budget {
            return Err(format!(
                "total cost {total} exceeds budget {}",
                inst.user(u).budget
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Point;
    use crate::instance::InstanceBuilder;
    use crate::time::TimeInterval;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    /// Four events on a line at x = 0, 10, 20, 30 with consecutive time
    /// slots, one user at x = 5.
    fn line_instance(budget: u32) -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(10, 20));
        b.event(1, Point::new(20, 0), iv(20, 30));
        b.event(1, Point::new(30, 0), iv(30, 40));
        let u = b.user(Point::new(5, 0), Cost::new(budget));
        for v in 0..4 {
            b.utility(EventId(v), u, 0.5);
        }
        b.build().unwrap()
    }

    const U: UserId = UserId(0);

    #[test]
    fn inc_cost_empty_schedule_is_round_trip() {
        let inst = line_instance(1000);
        let s = Schedule::new();
        assert_eq!(s.inc_cost(&inst, U, EventId(0)), Cost::new(10));
        assert_eq!(s.inc_cost(&inst, U, EventId(3)), Cost::new(50));
    }

    #[test]
    fn inc_cost_prepend() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(1)).unwrap();
        // prepend v0: cost(u,v0) + cost(v0,v1) - cost(u,v1) = 5 + 10 - 5 = 10
        assert_eq!(s.inc_cost(&inst, U, EventId(0)), Cost::new(10));
    }

    #[test]
    fn inc_cost_append() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(1)).unwrap();
        // append v2: cost(v1,v2) + cost(v2,u) - cost(v1,u) = 10 + 15 - 5 = 20
        assert_eq!(s.inc_cost(&inst, U, EventId(2)), Cost::new(20));
    }

    #[test]
    fn inc_cost_middle() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(0)).unwrap();
        s.try_insert(&inst, U, EventId(2)).unwrap();
        // insert v1 between: cost(v0,v1) + cost(v1,v2) - cost(v0,v2) = 10+10-20 = 0
        assert_eq!(s.inc_cost(&inst, U, EventId(1)), Cost::ZERO);
    }

    #[test]
    fn inc_cost_matches_total_cost_delta() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        for v in [EventId(2), EventId(0), EventId(3), EventId(1)] {
            let before = s.total_cost(&inst, U);
            let inc = s.inc_cost(&inst, U, v);
            s.try_insert(&inst, U, v).unwrap();
            assert_eq!(s.total_cost(&inst, U), before.add(inc));
        }
        assert_eq!(s.events(), &[EventId(0), EventId(1), EventId(2), EventId(3)]);
    }

    #[test]
    fn insertion_point_rejects_conflicts_and_duplicates() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 10));
        b.event(1, Point::ORIGIN, iv(5, 15)); // overlaps v0
        b.event(1, Point::ORIGIN, iv(10, 20));
        let u = b.user(Point::ORIGIN, Cost::new(100));
        for v in 0..3 {
            b.utility(EventId(v), u, 0.5);
        }
        let inst = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(0)).unwrap();
        assert_eq!(s.insertion_point(&inst, EventId(1)), None);
        assert_eq!(s.insertion_point(&inst, EventId(2)), Some(1));
        assert_eq!(s.insertion_point(&inst, EventId(0)), None); // duplicate
        assert_eq!(
            s.clone().try_insert(&inst, U, EventId(1)).unwrap_err(),
            InsertError::TimeConflict
        );
        assert_eq!(
            s.clone().try_insert(&inst, U, EventId(0)).unwrap_err(),
            InsertError::Duplicate
        );
    }

    #[test]
    fn budget_enforced() {
        let inst = line_instance(25);
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(0)).unwrap(); // cost 10
        // adding v1 would make total cost 5 + 10 + 5 = 20 ≤ 25: ok
        s.try_insert(&inst, U, EventId(1)).unwrap();
        // adding v2 would make total 5 + 10 + 10 + 15 = 40 > 25
        assert_eq!(s.try_insert(&inst, U, EventId(2)).unwrap_err(), InsertError::OverBudget);
        assert!(!s.can_insert(&inst, U, EventId(2)));
        assert!(s.check(&inst, U).is_ok());
    }

    #[test]
    fn unreachable_leg_detected() {
        let mut b = InstanceBuilder::new();
        // gap 5, distance 100, travel speed 1 → unreachable in sequence
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(100, 0), iv(15, 25));
        let u = b.user(Point::ORIGIN, Cost::new(10_000));
        b.utility(EventId(0), u, 0.5);
        b.utility(EventId(1), u, 0.5);
        b.travel(crate::instance::TravelCost::Grid { time_per_unit: 1 });
        let inst = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(0)).unwrap();
        assert!(s.inc_cost(&inst, U, EventId(1)).is_infinite());
        assert_eq!(s.try_insert(&inst, U, EventId(1)).unwrap_err(), InsertError::Unreachable);
    }

    #[test]
    fn remove_keeps_feasibility_and_reduces_cost() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        for v in 0..4 {
            s.try_insert(&inst, U, EventId(v)).unwrap();
        }
        let before = s.total_cost(&inst, U);
        assert!(s.remove(EventId(1)));
        assert!(!s.remove(EventId(1)));
        assert!(s.check(&inst, U).is_ok());
        assert!(s.total_cost(&inst, U) <= before);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn utility_sums_mu() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(0)).unwrap();
        s.try_insert(&inst, U, EventId(2)).unwrap();
        assert!((s.utility(&inst, U) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_schedule_properties() {
        let inst = line_instance(10);
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.total_cost(&inst, U), Cost::ZERO);
        assert_eq!(s.utility(&inst, U), 0.0);
        assert!(s.check(&inst, U).is_ok());
    }

    #[test]
    fn describe_renders_legs_and_totals() {
        let inst = line_instance(1000);
        let mut s = Schedule::new();
        s.try_insert(&inst, U, EventId(0)).unwrap();
        s.try_insert(&inst, U, EventId(1)).unwrap();
        let text = s.describe(&inst, U);
        assert!(text.contains("itinerary of u0"));
        assert!(text.contains("v0"));
        assert!(text.contains("v1"));
        assert!(text.contains("total cost 20"));
        assert!(text.contains("Ω(S_u) = 1.000"));
    }

    #[test]
    fn describe_empty_schedule() {
        let inst = line_instance(10);
        let text = Schedule::new().describe(&inst, U);
        assert!(text.contains("stays home"));
    }

    #[test]
    fn normalize_utility_pins_negative_zero() {
        let z = normalize_utility(-0.0);
        assert_eq!(z, 0.0);
        assert!(z.is_sign_positive(), "-0.0 must normalize to +0.0");
        // non-zero values pass through untouched
        assert_eq!(normalize_utility(1.25), 1.25);
        assert_eq!(normalize_utility(-1.25), -1.25);
    }

    /// The interval definition `insertion_point` must reproduce: `None`
    /// for a duplicate or an overlap, otherwise the number of scheduled
    /// events that precede `v`.
    fn reference_insertion_point(inst: &Instance, events: &[EventId], v: EventId) -> Option<usize> {
        let t = inst.event(v).time;
        if events.iter().any(|&e| e == v || inst.event(e).time.overlaps(t)) {
            return None;
        }
        Some(events.iter().filter(|&&e| inst.event(e).time.precedes(t)).count())
    }

    #[test]
    fn insertion_point_matches_interval_reference() {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(10, 20)); // touches v0's endpoint
        b.event(3, Point::new(5, 5), iv(5, 15)); // overlaps both
        b.event(1, Point::new(20, 0), iv(25, 40));
        let u0 = b.user(Point::new(1, 1), Cost::new(80));
        let u1 = b.user(Point::new(8, 2), Cost::new(35));
        for v in 0..4 {
            b.utility(EventId(v), u0, 0.1 + 0.2 * f64::from(v));
            b.utility(EventId(v), u1, 0.9 - 0.2 * f64::from(v));
        }
        b.fee(EventId(1), 3);
        let inst = b.build().unwrap();
        for u in inst.user_ids() {
            let mut s = Schedule::new();
            for v in inst.event_ids() {
                let _ = s.try_insert(&inst, u, v);
                for probe in inst.event_ids() {
                    assert_eq!(
                        s.insertion_point(&inst, probe),
                        reference_insertion_point(&inst, s.events(), probe),
                        "insertion_point({probe}) after {:?}",
                        s.events()
                    );
                }
            }
        }
    }

    #[test]
    fn from_time_ordered_roundtrip() {
        let inst = line_instance(1000);
        let s = Schedule::from_time_ordered(&inst, vec![EventId(0), EventId(2)]);
        assert_eq!(s.events(), &[EventId(0), EventId(2)]);
        assert!(s.check(&inst, U).is_ok());
    }
}
