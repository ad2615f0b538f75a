//! Chip-level power ledger with reservation-based admission control.
//!
//! The paper's scheduler never *reacts* to a TDP violation — it *prevents*
//! one: before a task starts or a test session launches, its projected power
//! is reserved against the current budget; if the reservation does not fit,
//! the action is deferred. [`PowerBudget`] is that ledger. The budget's cap
//! is not necessarily the TDP itself: the PID governor (see [`crate::pid`])
//! moves the cap around the TDP to compensate model/measurement error.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU32;

/// Handle to an active power reservation (returned by
/// [`PowerBudget::reserve`]); pass it back to [`PowerBudget::release`].
/// It records the ledger slot it occupies, so release and resize find
/// it without a search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reservation {
    id: u64,
    /// 1 + the ledger slot. The zero niche keeps `Option<Reservation>`
    /// as small as the handle.
    slot: NonZeroU32,
    watts: f64,
}

impl Reservation {
    /// The reserved power, watts.
    #[inline]
    pub fn watts(&self) -> f64 {
        self.watts
    }

    /// The ledger slot this handle names.
    #[inline]
    fn index(&self) -> u32 {
        self.slot.get() - 1
    }
}

/// Error returned when a reservation does not fit under the cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsufficientHeadroom {
    /// Watts requested.
    pub requested: f64,
    /// Watts actually available.
    pub available: f64,
}

impl fmt::Display for InsufficientHeadroom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insufficient power headroom: requested {:.3} W, available {:.3} W",
            self.requested, self.available
        )
    }
}

impl std::error::Error for InsufficientHeadroom {}

/// A power ledger enforcing a movable cap.
///
/// # Examples
///
/// ```
/// use manytest_power::budget::PowerBudget;
///
/// let mut budget = PowerBudget::new(80.0);
/// let task = budget.reserve(30.0)?;
/// assert_eq!(budget.headroom(), 50.0);
/// budget.release(task);
/// assert_eq!(budget.headroom(), 80.0);
/// # Ok::<(), manytest_power::budget::InsufficientHeadroom>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerBudget {
    cap: f64,
    reserved: f64,
    next_id: u64,
    /// Ledger slots: the id and watts of the reservation holding each
    /// slot, `None` once released. A handle names its slot, and the id
    /// tells a live handle from a stale one whose slot was reused.
    slots: Vec<Option<(u64, f64)>>,
    /// Released slots, reused most recently freed first.
    free: Vec<u32>,
    /// Fraction of the cap actually usable, in `[0, 1]`. Quarantining a
    /// core derates the budget proportionally: a power-gated core cannot
    /// dissipate its TDP share, and pretending it could would let the PID
    /// governor hand its watts to the survivors as free test headroom.
    derating: f64,
}

impl PowerBudget {
    /// Creates a ledger with the given cap in watts.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative or non-finite.
    pub fn new(cap: f64) -> Self {
        assert!(cap.is_finite() && cap >= 0.0, "cap must be non-negative");
        PowerBudget {
            cap,
            reserved: 0.0,
            next_id: 0,
            slots: Vec::new(),
            free: Vec::new(),
            derating: 1.0,
        }
    }

    /// Current cap, watts (before derating).
    #[inline]
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// The cap actually enforced: `cap × derating`, watts.
    #[inline]
    pub fn effective_cap(&self) -> f64 {
        self.cap * self.derating
    }

    /// Sets the usable fraction of the cap (see the field doc). Existing
    /// reservations are never revoked: if the derated cap falls below the
    /// reserved total, headroom is zero until reservations drain.
    ///
    /// # Panics
    ///
    /// Panics if `derating` is not in `[0, 1]`.
    pub fn set_derating(&mut self, derating: f64) {
        assert!(
            (0.0..=1.0).contains(&derating),
            "derating must be in [0,1], got {derating}"
        );
        self.derating = derating;
    }

    /// Total reserved power, watts.
    #[inline]
    pub fn reserved(&self) -> f64 {
        self.reserved
    }

    /// Remaining headroom (`effective cap − reserved`, floored at 0).
    #[inline]
    pub fn headroom(&self) -> f64 {
        (self.effective_cap() - self.reserved).max(0.0)
    }

    /// True if a reservation of `watts` would fit right now.
    #[inline]
    pub fn fits(&self, watts: f64) -> bool {
        watts <= self.headroom() + 1e-12
    }

    /// Reserves `watts` against the cap.
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientHeadroom`] when the request exceeds the current
    /// headroom; the ledger is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or non-finite.
    #[inline]
    pub fn reserve(&mut self, watts: f64) -> Result<Reservation, InsufficientHeadroom> {
        assert!(
            watts.is_finite() && watts >= 0.0,
            "reservation must be non-negative"
        );
        if !self.fits(watts) {
            return Err(InsufficientHeadroom {
                requested: watts,
                available: self.headroom(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.reserved += watts;
        let index = match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = Some((id, watts));
                index
            }
            None => {
                self.slots.push(Some((id, watts)));
                // Slots never outnumber the reservations live at once,
                // far fewer than `u32::MAX`.
                (self.slots.len() - 1) as u32
            }
        };
        let slot = NonZeroU32::MIN.saturating_add(index);
        Ok(Reservation { id, slot, watts })
    }

    /// The ledger entry `reservation` names, if it is still live: its
    /// slot holds the same id (a released slot holds `None`, a reused
    /// one a later id).
    #[inline]
    fn entry(&mut self, reservation: &Reservation) -> Option<&mut Option<(u64, f64)>> {
        self.slots
            .get_mut(reservation.index() as usize)
            .filter(|entry| matches!(entry, Some((id, _)) if *id == reservation.id))
    }

    /// Releases a previously granted reservation.
    ///
    /// # Panics
    ///
    /// Panics if the reservation was already released (double release is a
    /// logic error in the caller's bookkeeping).
    #[inline]
    pub fn release(&mut self, reservation: Reservation) {
        let entry = self
            .entry(&reservation)
            // lint:allow(hot-path-purity, reason = "documented contract: a reservation is released exactly once by the lifecycle that owns it")
            .expect("reservation released twice or never granted");
        let watts = entry.take().map_or(0.0, |(_, watts)| watts);
        self.free.push(reservation.index());
        self.reserved = (self.reserved - watts).max(0.0);
    }

    /// Adjusts an existing reservation to `new_watts` (e.g. after a DVFS
    /// change), keeping its identity.
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientHeadroom`] if growing the reservation would
    /// exceed the cap; the reservation keeps its old size in that case.
    #[inline]
    pub fn resize(
        &mut self,
        reservation: &mut Reservation,
        new_watts: f64,
    ) -> Result<(), InsufficientHeadroom> {
        assert!(
            new_watts.is_finite() && new_watts >= 0.0,
            "reservation must be non-negative"
        );
        let headroom = self.headroom();
        let entry = self
            .entry(reservation)
            // lint:allow(hot-path-purity, reason = "documented contract: resize only reaches reservations that are still live")
            .expect("resize of unknown reservation");
        let delta = new_watts - reservation.watts;
        if delta > 0.0 && delta > headroom + 1e-12 {
            return Err(InsufficientHeadroom {
                requested: delta,
                available: headroom,
            });
        }
        *entry = Some((reservation.id, new_watts));
        self.reserved = (self.reserved + delta).max(0.0);
        reservation.watts = new_watts;
        Ok(())
    }

    /// Moves the cap (the PID governor's actuator). Existing reservations
    /// are never revoked: if the new cap is below the reserved total, the
    /// headroom is simply zero until reservations drain.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative or non-finite.
    pub fn set_cap(&mut self, cap: f64) {
        assert!(cap.is_finite() && cap >= 0.0, "cap must be non-negative");
        self.cap = cap;
    }

    /// Number of live reservations.
    #[inline]
    pub fn active_reservations(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut b = PowerBudget::new(100.0);
        let r1 = b.reserve(40.0).unwrap();
        let r2 = b.reserve(50.0).unwrap();
        assert_eq!(b.reserved(), 90.0);
        assert!((b.headroom() - 10.0).abs() < 1e-12);
        b.release(r1);
        assert_eq!(b.reserved(), 50.0);
        b.release(r2);
        assert_eq!(b.reserved(), 0.0);
        assert_eq!(b.active_reservations(), 0);
    }

    #[test]
    fn over_reservation_is_rejected_and_harmless() {
        let mut b = PowerBudget::new(10.0);
        let _r = b.reserve(8.0).unwrap();
        let err = b.reserve(5.0).unwrap_err();
        assert_eq!(err.requested, 5.0);
        assert!((err.available - 2.0).abs() < 1e-12);
        assert_eq!(b.reserved(), 8.0);
        assert_eq!(b.active_reservations(), 1);
    }

    #[test]
    fn exact_fit_is_allowed() {
        let mut b = PowerBudget::new(10.0);
        assert!(b.reserve(10.0).is_ok());
        assert_eq!(b.headroom(), 0.0);
        assert!(b.fits(0.0));
        assert!(!b.fits(0.1));
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut b = PowerBudget::new(10.0);
        let r = b.reserve(1.0).unwrap();
        b.release(r);
        b.release(r);
    }

    #[test]
    fn resize_up_and_down() {
        let mut b = PowerBudget::new(20.0);
        let mut r = b.reserve(5.0).unwrap();
        b.resize(&mut r, 12.0).unwrap();
        assert_eq!(b.reserved(), 12.0);
        assert_eq!(r.watts(), 12.0);
        b.resize(&mut r, 3.0).unwrap();
        assert_eq!(b.reserved(), 3.0);
        b.release(r);
        assert_eq!(b.reserved(), 0.0);
    }

    #[test]
    fn resize_beyond_cap_fails_without_change() {
        let mut b = PowerBudget::new(10.0);
        let mut r = b.reserve(6.0).unwrap();
        let _other = b.reserve(3.0).unwrap();
        assert!(b.resize(&mut r, 9.0).is_err());
        assert_eq!(r.watts(), 6.0);
        assert_eq!(b.reserved(), 9.0);
    }

    #[test]
    fn lowering_cap_never_revokes() {
        let mut b = PowerBudget::new(50.0);
        let _r = b.reserve(40.0).unwrap();
        b.set_cap(20.0);
        assert_eq!(b.reserved(), 40.0);
        assert_eq!(b.headroom(), 0.0);
        assert!(!b.fits(1.0));
    }

    #[test]
    fn raising_cap_creates_headroom() {
        let mut b = PowerBudget::new(10.0);
        let _r = b.reserve(10.0).unwrap();
        b.set_cap(15.0);
        assert!((b.headroom() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn error_display_mentions_watts() {
        let e = InsufficientHeadroom {
            requested: 5.0,
            available: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("5.000"));
        assert!(s.contains("1.000"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cap_panics() {
        PowerBudget::new(-1.0);
    }

    #[test]
    fn zero_watt_reservation_is_fine() {
        let mut b = PowerBudget::new(0.0);
        let r = b.reserve(0.0).unwrap();
        b.release(r);
    }

    #[test]
    fn derating_shrinks_headroom_without_touching_the_cap() {
        let mut b = PowerBudget::new(100.0);
        let _r = b.reserve(40.0).unwrap();
        b.set_derating(0.75);
        assert_eq!(b.cap(), 100.0, "nominal cap is unchanged");
        assert!((b.effective_cap() - 75.0).abs() < 1e-12);
        assert!((b.headroom() - 35.0).abs() < 1e-12);
        assert!(b.fits(35.0));
        assert!(!b.fits(36.0));
        // Derating below the reserved total floors headroom at zero but
        // never revokes.
        b.set_derating(0.25);
        assert_eq!(b.headroom(), 0.0);
        assert_eq!(b.reserved(), 40.0);
        b.set_derating(1.0);
        assert!((b.headroom() - 60.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "derating must be in")]
    fn derating_outside_unit_interval_panics() {
        PowerBudget::new(10.0).set_derating(1.5);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn stale_release_into_a_reused_slot_panics() {
        let mut b = PowerBudget::new(10.0);
        let stale = b.reserve(1.0).unwrap();
        b.release(stale);
        let _reuser = b.reserve(2.0).unwrap();
        b.release(stale);
    }

    #[test]
    #[should_panic(expected = "unknown reservation")]
    fn stale_resize_into_a_reused_slot_panics() {
        let mut b = PowerBudget::new(10.0);
        let mut stale = b.reserve(1.0).unwrap();
        b.release(stale);
        let _reuser = b.reserve(2.0).unwrap();
        let _ = b.resize(&mut stale, 0.5);
    }

    /// The store keeps an `Option<Reservation>` per core; the slot's zero
    /// niche keeps that as small as the handle.
    #[test]
    fn an_optional_handle_is_no_larger_than_a_handle() {
        use std::mem::size_of;
        assert_eq!(size_of::<Option<Reservation>>(), size_of::<Reservation>());
    }

    /// The ledger the slot ledger replaced: live reservations in a list
    /// that release and resize search by id. Kept as the oracle for
    /// `slot_ledger_matches_scanning_ledger`.
    struct ScanLedger {
        cap: f64,
        reserved: f64,
        next_id: u64,
        live: Vec<(u64, f64)>,
        derating: f64,
    }

    impl ScanLedger {
        fn new(cap: f64) -> Self {
            ScanLedger {
                cap,
                reserved: 0.0,
                next_id: 0,
                live: Vec::new(),
                derating: 1.0,
            }
        }

        fn headroom(&self) -> f64 {
            (self.cap * self.derating - self.reserved).max(0.0)
        }

        fn reserve(&mut self, watts: f64) -> Result<(u64, f64), InsufficientHeadroom> {
            if watts > self.headroom() + 1e-12 {
                return Err(InsufficientHeadroom {
                    requested: watts,
                    available: self.headroom(),
                });
            }
            let id = self.next_id;
            self.next_id += 1;
            self.reserved += watts;
            self.live.push((id, watts));
            Ok((id, watts))
        }

        fn release(&mut self, id: u64) {
            let pos = self
                .live
                .iter()
                .position(|&(live, _)| live == id)
                .expect("reservation released twice or never granted");
            let (_, watts) = self.live.swap_remove(pos);
            self.reserved = (self.reserved - watts).max(0.0);
        }

        fn resize(
            &mut self,
            handle: &mut (u64, f64),
            new_watts: f64,
        ) -> Result<(), InsufficientHeadroom> {
            let pos = self
                .live
                .iter()
                .position(|&(id, _)| id == handle.0)
                .expect("resize of unknown reservation");
            let delta = new_watts - handle.1;
            if delta > 0.0 && delta > self.headroom() + 1e-12 {
                return Err(InsufficientHeadroom {
                    requested: delta,
                    available: self.headroom(),
                });
            }
            self.reserved = (self.reserved + delta).max(0.0);
            self.live[pos].1 = new_watts;
            handle.1 = new_watts;
            Ok(())
        }
    }

    fn bits(err: InsufficientHeadroom) -> (u64, u64) {
        (err.requested.to_bits(), err.available.to_bits())
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    /// Random reserve, release, resize, `set_cap` and `set_derating`
    /// sequences against the scanning ledger: the same grants and
    /// `Err` values, the same `reserved` and headroom bits after every
    /// step, and double and stale releases and resizes panic in both.
    #[test]
    fn slot_ledger_matches_scanning_ledger() {
        let mut rng = manytest_sim::SimRng::seed_from(0x1ed9e5);
        for round in 0..40 {
            let cap = rng.gen_f64_range(0.0, 120.0);
            let mut slots = PowerBudget::new(cap);
            let mut scan = ScanLedger::new(cap);
            let mut live: Vec<(Reservation, (u64, f64))> = Vec::new();
            let mut dead: Vec<(Reservation, u64)> = Vec::new();
            for step in 0..400 {
                let ctx = format!("round {round} step {step}");
                match rng.gen_range(10) {
                    0..=3 => {
                        let watts = rng.gen_f64_range(0.0, 12.0);
                        match (slots.reserve(watts), scan.reserve(watts)) {
                            (Ok(r), Ok(h)) => {
                                assert_eq!(
                                    (r.id, r.watts.to_bits()),
                                    (h.0, h.1.to_bits()),
                                    "{ctx}"
                                );
                                live.push((r, h));
                            }
                            (Err(a), Err(b)) => assert_eq!(bits(a), bits(b), "{ctx}"),
                            (a, b) => panic!("{ctx}: grant diverged: {a:?} vs {b:?}"),
                        }
                    }
                    4 | 5 if !live.is_empty() => {
                        let k = rng.gen_range(live.len() as u64) as usize;
                        let (r, h) = live.swap_remove(k);
                        slots.release(r);
                        scan.release(h.0);
                        dead.push((r, h.0));
                    }
                    6 | 7 if !live.is_empty() => {
                        let k = rng.gen_range(live.len() as u64) as usize;
                        let new_watts = rng.gen_f64_range(0.0, 15.0);
                        let (r, h) = &mut live[k];
                        match (slots.resize(r, new_watts), scan.resize(h, new_watts)) {
                            (Ok(()), Ok(())) => {}
                            (Err(a), Err(b)) => assert_eq!(bits(a), bits(b), "{ctx}"),
                            (a, b) => panic!("{ctx}: resize diverged: {a:?} vs {b:?}"),
                        }
                        assert_eq!(r.watts.to_bits(), h.1.to_bits(), "{ctx}");
                    }
                    8 => {
                        let cap = rng.gen_f64_range(0.0, 120.0);
                        slots.set_cap(cap);
                        scan.cap = cap;
                    }
                    9 => {
                        let derating = rng.next_f64();
                        slots.set_derating(derating);
                        scan.derating = derating;
                    }
                    _ => {}
                }
                if !dead.is_empty() && rng.gen_range(8) == 0 {
                    let k = rng.gen_range(dead.len() as u64) as usize;
                    let (mut r, id) = dead[k];
                    assert!(
                        panics(|| slots.release(r)),
                        "{ctx}: stale release must panic"
                    );
                    assert!(panics(|| scan.release(id)), "{ctx}");
                    assert!(
                        panics(|| {
                            let _ = slots.resize(&mut r, 0.0);
                        }),
                        "{ctx}: stale resize must panic"
                    );
                }
                assert_eq!(slots.reserved().to_bits(), scan.reserved.to_bits(), "{ctx}");
                assert_eq!(
                    slots.headroom().to_bits(),
                    scan.headroom().to_bits(),
                    "{ctx}"
                );
                assert_eq!(slots.active_reservations(), scan.live.len(), "{ctx}");
            }
        }
    }
}
