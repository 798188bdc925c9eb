//! Incremental instance patching — the `usep-delta` substrate.
//!
//! The delta-solve engine applies typed mutations — event add/remove,
//! capacity change, user arrive/depart, μ update — to a live instance.
//! A rebuild per mutation would redo the `O(|V|²)` event-pair costs and
//! the `O(|U||V|)` leg lowering; the methods below instead mutate the
//! records and the derived arrays together, in place:
//!
//! * **Scalar patches** (`patch_set_capacity`, `patch_set_mu`) write
//!   one cell.
//! * **User patches** append one row (`patch_add_user`, its legs
//!   derived by the same helper construction uses) or swap-remove one
//!   (`patch_remove_user`).
//! * **Event patches** re-stride every per-user row by one column
//!   (`patch_add_event` appends it, `patch_remove_event` swap-removes
//!   it), derive only the new event's row and column of the event-pair
//!   matrix, and re-derive the conflict bitmask and temporal index.
//!
//! Appends go at the dense tail and removals move the last entity into
//! the freed slot, so existing indices are stable except for the single
//! moved entity, which the caller remaps via the returned old index.
//! Arrays grow by exactly what they need (`reserve_exact`), so a long
//! session retains no amortized-growth slack. A patched instance equals
//! a fresh build of its records field for field — `PartialEq` compares
//! the derived arrays too — which the tests below and the delta referee
//! assert after every patch.
//!
//! Structural patches require [`TravelCost::Grid`]: explicit cost
//! matrices carry no generative model to derive a new entity's legs
//! from, so those return [`PatchError::ExplicitTravel`]. Scalar patches
//! work under either travel model.

use super::{build_conflict, grid_vv, Instance, TravelCost};
use crate::cost::Cost;
use crate::event::Event;
use crate::geo::Point;
use crate::ids::{EventId, UserId};
use crate::temporal::TemporalIndex;
use crate::time::TimeInterval;
use crate::user::User;

/// Why a patch was refused. Refused patches leave the instance exactly
/// as it was.
#[derive(Clone, Debug, PartialEq)]
pub enum PatchError {
    /// The event index is out of range.
    UnknownEvent(EventId),
    /// The user index is out of range.
    UnknownUser(UserId),
    /// Events must hold at least one attendee.
    ZeroCapacity,
    /// Event intervals must satisfy `start < end`.
    EmptyInterval {
        /// Interval start.
        start: i64,
        /// Interval end.
        end: i64,
    },
    /// `u32::MAX` encodes an infinite cost and is not a valid fee.
    InfiniteFee,
    /// Budgets must be finite.
    InfiniteBudget,
    /// A utility outside `[0, 1]` (or non-finite).
    BadUtility(f64),
    /// A μ row/column of the wrong length.
    MuShape {
        /// Entries required (one per counterpart entity).
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// Structural patches need `TravelCost::Grid` to derive new legs.
    ExplicitTravel,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::UnknownEvent(v) => write!(f, "unknown event {v}"),
            PatchError::UnknownUser(u) => write!(f, "unknown user {u}"),
            PatchError::ZeroCapacity => write!(f, "capacity must be at least 1"),
            PatchError::EmptyInterval { start, end } => {
                write!(f, "event interval [{start}, {end}] is empty (start must be before end)")
            }
            PatchError::InfiniteFee => write!(f, "fee u32::MAX is reserved for infinity"),
            PatchError::InfiniteBudget => write!(f, "budget must be finite"),
            PatchError::BadUtility(x) => write!(f, "utility {x} outside [0, 1]"),
            PatchError::MuShape { expected, got } => {
                write!(f, "utility vector has {got} entries, expected {expected}")
            }
            PatchError::ExplicitTravel => {
                write!(f, "structural patches require grid travel costs")
            }
        }
    }
}

impl std::error::Error for PatchError {}

fn check_mu_values(mu: &[f32]) -> Result<(), PatchError> {
    for &m in mu {
        if !m.is_finite() || !(0.0..=1.0).contains(&m) {
            return Err(PatchError::BadUtility(f64::from(m)));
        }
    }
    Ok(())
}

/// Re-strides a row-major `rows × cols` matrix to `cols + 1` columns in
/// place, setting the new last cell of row `r` to `cell(r)`.
fn push_column<T: Copy>(m: &mut Vec<T>, rows: usize, cols: usize, cell: impl Fn(usize) -> T) {
    debug_assert_eq!(m.len(), rows * cols);
    if rows == 0 {
        return;
    }
    m.reserve_exact(rows);
    m.resize(rows * (cols + 1), cell(rows - 1));
    // back to front: a row's new start never precedes its old one
    for r in (0..rows).rev() {
        m.copy_within(r * cols..(r + 1) * cols, r * (cols + 1));
        m[r * (cols + 1) + cols] = cell(r);
    }
}

/// Swap-removes column `col` of a row-major `rows × cols` matrix in
/// place: the last column moves into `col`'s slot.
fn swap_remove_column<T: Copy>(m: &mut Vec<T>, rows: usize, cols: usize, col: usize) {
    debug_assert_eq!(m.len(), rows * cols);
    // front to back: a row's new start never follows its old one
    for r in 0..rows {
        let row = r * cols;
        m[row + col] = m[row + cols - 1];
        m.copy_within(row..row + cols - 1, r * (cols - 1));
    }
    m.truncate(rows * (cols - 1));
}

/// Swap-removes row `row` of a row-major `rows × cols` matrix in place:
/// the last row moves into `row`'s slot.
fn swap_remove_row<T: Copy>(m: &mut Vec<T>, rows: usize, cols: usize, row: usize) {
    let last = rows - 1;
    if row != last {
        m.copy_within(last * cols..rows * cols, row * cols);
    }
    m.truncate(last * cols);
}

impl Instance {
    fn grid_time_per_unit(&self) -> Result<u32, PatchError> {
        match &self.travel {
            TravelCost::Grid { time_per_unit } => Ok(*time_per_unit),
            TravelCost::Explicit { .. } => Err(PatchError::ExplicitTravel),
        }
    }

    /// Sets the capacity of event `v` in place.
    pub fn patch_set_capacity(&mut self, v: EventId, capacity: u32) -> Result<(), PatchError> {
        if v.index() >= self.events.len() {
            return Err(PatchError::UnknownEvent(v));
        }
        if capacity == 0 {
            return Err(PatchError::ZeroCapacity);
        }
        self.events[v.index()].capacity = capacity;
        Ok(())
    }

    /// Sets `μ(v, u)` in place.
    pub fn patch_set_mu(&mut self, v: EventId, u: UserId, value: f64) -> Result<(), PatchError> {
        let nv = self.events.len();
        if v.index() >= nv {
            return Err(PatchError::UnknownEvent(v));
        }
        if u.index() >= self.users.len() {
            return Err(PatchError::UnknownUser(u));
        }
        let val = value as f32;
        if !val.is_finite() || !(0.0..=1.0).contains(&val) {
            return Err(PatchError::BadUtility(value));
        }
        self.mu[u.index() * nv + v.index()] = val;
        Ok(())
    }

    /// Appends a new event at dense index `|V|`: one new column in every
    /// per-user row (`mu_col[u]` is its utility for user `u`, dense
    /// order), one new row and column of the event-pair matrix. Returns
    /// the new event's id.
    pub fn patch_add_event(
        &mut self,
        capacity: u32,
        location: Point,
        time: TimeInterval,
        fee: u32,
        mu_col: &[f32],
    ) -> Result<EventId, PatchError> {
        let time_per_unit = self.grid_time_per_unit()?;
        if capacity == 0 {
            return Err(PatchError::ZeroCapacity);
        }
        // `TimeInterval::new` rejects these, but a deserialized interval
        // never went through it
        if time.start() >= time.end() {
            return Err(PatchError::EmptyInterval { start: time.start(), end: time.end() });
        }
        if fee == u32::MAX {
            return Err(PatchError::InfiniteFee);
        }
        let nu = self.users.len();
        if mu_col.len() != nu {
            return Err(PatchError::MuShape { expected: nu, got: mu_col.len() });
        }
        check_mu_values(mu_col)?;

        let old_nv = self.events.len();
        self.events.push(Event::new(capacity, location, time));
        if !self.fees.is_empty() {
            self.fees.push(fee);
        } else if fee > 0 {
            let mut f = vec![0u32; old_nv];
            f.push(fee);
            self.fees = f;
        }

        push_column(&mut self.mu, nu, old_nv, |u| mu_col[u]);
        let legs: Vec<(Cost, Cost)> = (0..nu).map(|u| self.legs(u, old_nv)).collect();
        push_column(&mut self.to, nu, old_nv, |u| legs[u].0);
        push_column(&mut self.from, nu, old_nv, |u| legs[u].1);
        push_column(&mut self.rt, nu, old_nv, |u| legs[u].0.add(legs[u].1));

        let (events, fees) = (&self.events, &self.fees);
        let vv = |i: usize, j: usize| grid_vv(events, time_per_unit, fees, i, j);
        push_column(&mut self.vv, old_nv, old_nv, |i| vv(i, old_nv));
        self.vv.reserve_exact(old_nv + 1);
        self.vv.extend((0..=old_nv).map(|j| vv(old_nv, j)));

        self.conflict = build_conflict(&self.events);
        self.temporal = TemporalIndex::build(&self.events);
        Ok(EventId(old_nv as u32))
    }

    /// Swap-removes event `v`: the last event moves into `v`'s dense
    /// slot and every array is compacted in place (no cost is
    /// recomputed). Returns the **old** dense id of the moved event so
    /// the caller can remap (`None` when `v` was last — a pure pop, the
    /// exact inverse of [`Instance::patch_add_event`]).
    pub fn patch_remove_event(&mut self, v: EventId) -> Result<Option<EventId>, PatchError> {
        let nv = self.events.len();
        if v.index() >= nv {
            return Err(PatchError::UnknownEvent(v));
        }
        self.grid_time_per_unit()?;
        let nu = self.users.len();
        self.events.swap_remove(v.index());
        if !self.fees.is_empty() {
            self.fees.swap_remove(v.index());
            // an all-zero fee vector is semantically identical to the
            // empty one; normalizing keeps add∘remove byte-identical
            if self.fees.iter().all(|&f| f == 0) {
                self.fees = Vec::new();
            }
        }

        swap_remove_column(&mut self.mu, nu, nv, v.index());
        swap_remove_column(&mut self.to, nu, nv, v.index());
        swap_remove_column(&mut self.from, nu, nv, v.index());
        swap_remove_column(&mut self.rt, nu, nv, v.index());
        swap_remove_column(&mut self.vv, nv, nv, v.index());
        swap_remove_row(&mut self.vv, nv, nv - 1, v.index());

        self.conflict = build_conflict(&self.events);
        self.temporal = TemporalIndex::build(&self.events);
        let last = nv - 1;
        Ok(if v.index() == last { None } else { Some(EventId(last as u32)) })
    }

    /// Appends a new user at dense index `|U|`, deriving only their μ
    /// row and leg costs. `mu_row[v]` is the user's utility for event
    /// `v` (dense order). Returns the new user's id.
    pub fn patch_add_user(
        &mut self,
        location: Point,
        budget: Cost,
        mu_row: &[f32],
    ) -> Result<UserId, PatchError> {
        self.grid_time_per_unit()?;
        if budget.is_infinite() {
            return Err(PatchError::InfiniteBudget);
        }
        let nv = self.events.len();
        if mu_row.len() != nv {
            return Err(PatchError::MuShape { expected: nv, got: mu_row.len() });
        }
        check_mu_values(mu_row)?;

        let u = self.users.len();
        self.users.push(User::new(location, budget));
        self.mu.reserve_exact(nv);
        self.mu.extend_from_slice(mu_row);
        self.to.reserve_exact(nv);
        self.from.reserve_exact(nv);
        self.rt.reserve_exact(nv);
        for v in 0..nv {
            let (to, from) = self.legs(u, v);
            self.to.push(to);
            self.from.push(from);
            self.rt.push(to.add(from));
        }
        Ok(UserId(u as u32))
    }

    /// Swap-removes user `u` (the last user's row moves into `u`'s
    /// slot). Returns the old dense id of the moved user, or `None`
    /// when `u` was last — the exact inverse of
    /// [`Instance::patch_add_user`].
    pub fn patch_remove_user(&mut self, u: UserId) -> Result<Option<UserId>, PatchError> {
        let nu = self.users.len();
        if u.index() >= nu {
            return Err(PatchError::UnknownUser(u));
        }
        self.grid_time_per_unit()?;
        let nv = self.events.len();
        self.users.swap_remove(u.index());
        for m in [&mut self.to, &mut self.from, &mut self.rt] {
            swap_remove_row(m, nu, nv, u.index());
        }
        swap_remove_row(&mut self.mu, nu, nv, u.index());
        let last = nu - 1;
        Ok(if u.index() == last { None } else { Some(UserId(last as u32)) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn fixture() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(2, Point::new(0, 0), iv(0, 10));
        b.event(1, Point::new(10, 0), iv(10, 20));
        b.event(3, Point::new(5, 5), iv(5, 15));
        let u0 = b.user(Point::new(1, 1), Cost::new(80));
        let u1 = b.user(Point::new(8, 2), Cost::new(35));
        for v in 0..3 {
            b.utility(EventId(v), u0, 0.1 + 0.2 * f64::from(v));
            b.utility(EventId(v), u1, 0.9 - 0.2 * f64::from(v));
        }
        b.fee(EventId(1), 3);
        b.build().unwrap()
    }

    /// Rebuilds an instance from scratch out of the patched one's raw
    /// parts — the ground truth every patch must match.
    fn shadow(inst: &Instance) -> Instance {
        let mut b = InstanceBuilder::new();
        for e in inst.events() {
            b.event(e.capacity, e.location, e.time);
        }
        for u in inst.users() {
            b.user(u.location, u.budget);
        }
        let nv = inst.num_events();
        let mut mu = Vec::with_capacity(nv * inst.num_users());
        for u in inst.user_ids() {
            mu.extend_from_slice(inst.mu_row(u));
        }
        b.utility_matrix(mu);
        b.travel(inst.travel().clone());
        for (v, &f) in inst.fees().iter().enumerate() {
            b.fee(EventId(v as u32), f);
        }
        b.build().unwrap()
    }

    /// Full equality against the from-scratch rebuild: records and every
    /// derived array (legs, event-pair costs, conflict mask, temporal
    /// index).
    fn assert_matches_shadow(inst: &Instance) {
        assert_eq!(*inst, shadow(inst), "patched instance diverged from a fresh build");
    }

    #[test]
    fn scalar_patches_write_in_place() {
        let mut inst = fixture();
        inst.patch_set_capacity(EventId(1), 7).unwrap();
        assert_eq!(inst.event(EventId(1)).capacity, 7);
        inst.patch_set_mu(EventId(2), UserId(0), 0.42).unwrap();
        assert!((inst.mu(EventId(2), UserId(0)) - 0.42).abs() < 1e-6);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn add_event_derives_only_the_new_row_and_column() {
        let mut inst = fixture();
        let v = inst.patch_add_event(2, Point::new(3, 9), iv(22, 30), 5, &[0.8, 0.3]).unwrap();
        assert_eq!(v, EventId(3));
        assert_eq!(inst.num_events(), 4);
        assert_eq!(inst.fee(v), 5);
        assert!((inst.mu(v, UserId(0)) - 0.8).abs() < 1e-6);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn remove_event_swap_removes_and_reports_the_moved_id() {
        let mut inst = fixture();
        // removing a middle event moves the last one into its slot
        let moved = inst.patch_remove_event(EventId(0)).unwrap();
        assert_eq!(moved, Some(EventId(2)));
        assert_eq!(inst.num_events(), 2);
        assert_matches_shadow(&inst);
        // removing the (new) last event is a pure pop
        let moved = inst.patch_remove_event(EventId(1)).unwrap();
        assert_eq!(moved, None);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn add_then_remove_event_restores_the_instance_exactly() {
        // the metamorphic identity the delta engine leans on: append at
        // the tail, remove from the tail → an identical instance, derived
        // arrays included
        let mut inst = fixture();
        let pristine = inst.clone();
        let v = inst.patch_add_event(2, Point::new(3, 9), iv(22, 30), 5, &[0.8, 0.3]).unwrap();
        assert_ne!(inst, pristine);
        assert_eq!(inst.patch_remove_event(v).unwrap(), None);
        assert_eq!(inst, pristine);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn user_patches_roundtrip() {
        let mut inst = fixture();
        let u = inst.patch_add_user(Point::new(2, 7), Cost::new(60), &[0.5, 0.0, 0.9]).unwrap();
        assert_eq!(u, UserId(2));
        assert_matches_shadow(&inst);
        let moved = inst.patch_remove_user(UserId(0)).unwrap();
        assert_eq!(moved, Some(UserId(2)));
        assert_matches_shadow(&inst);
        let moved = inst.patch_remove_user(UserId(1)).unwrap();
        assert_eq!(moved, None);
        assert_matches_shadow(&inst);
    }

    #[test]
    fn mixed_patch_sequence_matches_a_fresh_build() {
        let mut inst = fixture();
        inst.patch_add_event(1, Point::new(9, 9), iv(30, 40), 0, &[0.2, 0.2]).unwrap();
        inst.patch_set_capacity(EventId(0), 5).unwrap();
        inst.patch_add_user(Point::new(4, 4), Cost::new(50), &[0.1, 0.2, 0.3, 0.4]).unwrap();
        inst.patch_remove_event(EventId(1)).unwrap();
        inst.patch_remove_user(UserId(0)).unwrap();
        assert_matches_shadow(&inst);
    }

    #[test]
    fn event_patches_restride_across_a_word_boundary() {
        // 64 → 65 → 64 events moves the conflict rows between one and
        // two words each
        let mut b = InstanceBuilder::new();
        for k in 0..64 {
            b.event(1, Point::new(k, 0), iv(i64::from(k) * 3, i64::from(k) * 3 + 5));
        }
        b.user(Point::ORIGIN, Cost::new(100));
        let mut inst = b.build().unwrap();
        let pristine = inst.clone();
        let v = inst.patch_add_event(1, Point::new(1, 1), iv(1, 200), 0, &[0.5]).unwrap();
        assert_eq!(inst.words(), 2);
        assert_matches_shadow(&inst);
        inst.patch_remove_event(v).unwrap();
        assert_eq!(inst, pristine);
    }

    #[test]
    fn invalid_patches_are_refused_and_leave_state_untouched() {
        let mut inst = fixture();
        let before = inst.clone();
        assert_eq!(
            inst.patch_set_capacity(EventId(9), 1).unwrap_err(),
            PatchError::UnknownEvent(EventId(9))
        );
        assert_eq!(inst.patch_set_capacity(EventId(0), 0).unwrap_err(), PatchError::ZeroCapacity);
        assert!(matches!(
            inst.patch_set_mu(EventId(0), UserId(0), 1.5).unwrap_err(),
            PatchError::BadUtility(_)
        ));
        assert!(matches!(
            inst.patch_add_event(1, Point::ORIGIN, iv(0, 1), 0, &[0.1]).unwrap_err(),
            PatchError::MuShape { expected: 2, got: 1 }
        ));
        assert_eq!(
            inst.patch_add_event(1, Point::ORIGIN, iv(0, 1), u32::MAX, &[0.1, 0.1]).unwrap_err(),
            PatchError::InfiniteFee
        );
        assert_eq!(
            inst.patch_add_user(Point::ORIGIN, Cost::INFINITE, &[0.1, 0.1, 0.1]).unwrap_err(),
            PatchError::InfiniteBudget
        );
        assert_eq!(inst, before);
    }

    #[test]
    fn empty_or_inverted_intervals_are_refused() {
        // deserialized intervals skip `TimeInterval::new`'s check
        let mut inst = fixture();
        let before = inst.clone();
        for (start, end) in [(50, 50), (90, 40)] {
            let time: TimeInterval =
                serde_json::from_str(&format!("{{\"start\":{start},\"end\":{end}}}")).unwrap();
            assert_eq!(
                inst.patch_add_event(2, Point::new(1, 1), time, 0, &[0.9, 0.0]).unwrap_err(),
                PatchError::EmptyInterval { start, end }
            );
        }
        assert_eq!(inst, before);
        assert!(inst.validate().is_ok());
    }

    #[test]
    fn structural_patches_require_grid_travel() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.event(1, Point::ORIGIN, iv(2, 3));
        b.user(Point::ORIGIN, Cost::new(50));
        let inf = Cost::INFINITE;
        b.travel(TravelCost::Explicit {
            user_event: vec![Cost::new(2), Cost::new(3)],
            event_event: vec![inf, Cost::new(4), inf, inf],
        });
        let mut inst = b.build().unwrap();
        assert_eq!(
            inst.patch_add_event(1, Point::ORIGIN, iv(4, 5), 0, &[0.1]).unwrap_err(),
            PatchError::ExplicitTravel
        );
        assert_eq!(inst.patch_remove_event(EventId(0)).unwrap_err(), PatchError::ExplicitTravel);
        // scalar patches still work under explicit travel
        inst.patch_set_capacity(EventId(0), 4).unwrap();
        inst.patch_set_mu(EventId(0), UserId(0), 0.25).unwrap();
        assert_eq!(inst.event(EventId(0)).capacity, 4);
    }
}
