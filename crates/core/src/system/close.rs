//! The epoch close: power accounting, trace points, the wear pass (after
//! an RC grid step on the transient path), link loads and the flight
//! recorder's snapshot.

use super::*;

/// The state only the epoch close writes.
pub(super) struct ClosePhase {
    /// The transient RC grid; `None` on the steady-state proxy.
    pub(super) thermal: Option<ThermalGrid>,
    pub(super) trace: EpochTrace,
    pub(super) recorder: Option<StateRecorder>,
    /// Per-core epoch powers, staged for the grid and the recorder in a
    /// buffer that keeps its capacity across epochs.
    pub(super) powers: Vec<f64>,
    /// This epoch's measured power: the next PID update's input.
    pub(super) measured_last: f64,
}

impl System {
    pub(super) fn close_epoch(&mut self, t1: f64) {
        // Charge the powered cores only, walking the store's powered
        // bitset in ascending core order (the meter sums in the order a
        // full scan would). Power-gated cores draw exactly 0 W, so
        // charging them adds 0.0 joules everywhere — a float no-op (all
        // accumulators are non-negative, so `x + 0.0` cannot even flip a
        // `-0.0`). Skipping them leaves their accounting watermark stale,
        // which the next `set_mode` settles by charging the whole gated
        // span at 0 W: identical arithmetic, fewer meter calls.
        for w in 0..self.store.powered_words().len() {
            let mut bits = self.store.powered_words()[w];
            while bits != 0 {
                let core = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.charge_core(core, t1);
            }
        }
        let epoch_secs = EPOCH.as_secs_f64();
        let measured = self.meter.epoch_power(epoch_secs);
        let test_w = self
            .meter
            .epoch_category_power(PowerCategory::Test, epoch_secs);
        let workload_w = self
            .meter
            .epoch_category_power(PowerCategory::Workload, epoch_secs);
        if measured > self.tdp * 1.01 {
            self.report.cap_violations += 1;
        }
        // Flight recorder: per-core epoch powers are needed after the
        // aging loops below reset the energy accumulators, so stage them
        // in the scratch buffer now (the transient-thermal path refills
        // it with the same values).
        let close = &mut self.close;
        if close.recorder.is_some() && close.thermal.is_none() {
            close.powers.clear();
            close
                .powers
                // lint:allow(hot-path-purity, reason = "scratch buffer reuses its capacity across epochs; extend allocates only until the high-water mark")
                .extend(self.epoch_energy.iter().map(|&e| e / epoch_secs));
        }
        let trace = &mut close.trace;
        trace.push(EpochSeries::PowerW, t1, measured);
        trace.push(EpochSeries::TestPowerW, t1, test_w);
        trace.push(EpochSeries::WorkloadPowerW, t1, workload_w);
        trace.push(EpochSeries::CapW, t1, self.budget.cap());
        trace.push(EpochSeries::TdpW, t1, self.tdp);
        trace.push(EpochSeries::PendingApps, t1, self.pending.len() as f64);
        let testing = self.store.testing_count();
        trace.push(EpochSeries::ActiveTests, t1, testing as f64);
        // Graceful-degradation trajectory: capacity outside withdrawal
        // (quarantine + probation) — re-admission shows up as recovery.
        trace.push(
            EpochSeries::HealthyCores,
            t1,
            (self.store.len() - self.health.withdrawn_count()) as f64,
        );
        // The wear pass is the close's one pass over every core; it also
        // reports the mean utilisation and, on the transient path, the
        // hottest tile.
        let wear = if let Some(grid) = &mut close.thermal {
            // Transient thermal path: advance the RC grid with this
            // epoch's per-tile powers, then charge damage at the *actual*
            // tile temperature. The power vector lives in a scratch
            // buffer so steady-state epochs stay allocation-free.
            let powers = &mut close.powers;
            powers.clear();
            // lint:allow(hot-path-purity, reason = "scratch buffer reuses its capacity across epochs; extend allocates only until the high-water mark")
            powers.extend(self.epoch_energy.iter().map(|&e| e / epoch_secs));
            grid.step(powers, epoch_secs);
            self.profile.thermal_steps += 1;
            let wear = self.stress.record_epoch_all_at_temperature(
                &self.aging,
                grid.temperatures(),
                &mut self.epoch_energy,
                &mut self.epoch_busy,
                epoch_secs,
            );
            close.trace.push(EpochSeries::MaxTempK, t1, wear.max_input);
            wear
        } else {
            self.stress.record_epoch_all(
                &self.aging,
                &mut self.epoch_energy,
                &mut self.epoch_busy,
                epoch_secs,
            )
        };
        self.calendar.close_epoch(wear.max_damage);
        #[cfg(test)]
        self.assert_close_matches_scans(wear);
        let trace = &mut self.close.trace;
        trace.push(EpochSeries::MeanUtilization, t1, wear.mean_utilization);
        if let Some(loads) = &mut self.noc.loads {
            loads.take_window(&mut self.noc.traffic);
            trace.push(EpochSeries::PeakLinkLoad, t1, loads.peak());
        }
        if self.close.recorder.is_some() {
            self.profile.snapshots += 1;
            let thermal = self.close.thermal.as_ref();
            let cores: Vec<CoreState> = (0..self.store.len())
                .map(|i| CoreState {
                    power_w: self.close.powers[i],
                    temp_k: thermal.map_or(0.0, |g| g.temperature(i)),
                    vf_level: Self::mode_level(self.store.mode(i)),
                    health: if self.health.is_quarantined(i) {
                        HealthCode::Quarantined
                    } else if self.health.is_probation(i) {
                        HealthCode::Probation
                    } else if self.health.is_suspect(i) {
                        HealthCode::Suspect
                    } else {
                        HealthCode::Healthy
                    },
                    occupied: self.store.owner(i).is_some(),
                    testing: self.store.has_session(i),
                })
                // lint:allow(hot-path-purity, reason = "flight-recorder snapshot: gated behind an opt-in recorder and rate-limited; off in measured runs")
                .collect();
            let snapshot = StateSnapshot {
                t: t1,
                cap_w: self.budget.cap(),
                headroom_w: self.budget.headroom(),
                power_w: measured,
                test_power_w: test_w,
                reservations: self.budget.active_reservations() as u32,
                pending_apps: self.pending.len() as u32,
                running_apps: self.running.len() as u32,
                active_tests: testing as u32,
                cores,
            };
            if let Some(rec) = &mut self.close.recorder {
                rec.push(snapshot);
            }
        }
        self.meter.roll_epoch(epoch_secs);
        self.close.measured_last = measured;
        // Epoch boundary: expire the dirty set and open a new generation
        // (and fold the run-long dirty-mark count into the profile).
        self.profile.dirty_marks = self.store.dirty_marks();
        self.store.advance_generation();
    }
}

#[cfg(test)]
mod oracle {
    use super::*;
    use manytest_aging::EpochWear;

    impl System {
        /// The oracle for the epoch close's bookkeeping: the full scans
        /// and evaluations it replaced. In unit-test builds every close
        /// checks that the powered walk visits exactly the cores a
        /// `CoreMode` scan finds, in ascending order; that each core's
        /// stored power is its mode's, freshly evaluated; that the
        /// withdrawn counter equals the two state scans; and that the
        /// wear pass's fused mean utilisation and hottest tile equal
        /// `mean_utilization()` and `max_temperature()`, bit for bit.
        pub(super) fn assert_close_matches_scans(&self, wear: EpochWear) {
            let mut walked = Vec::new();
            self.store.for_each_powered(|core| walked.push(core));
            let powered: Vec<usize> = (0..self.store.len())
                .filter(|&core| !matches!(self.store.mode(core), CoreMode::Off))
                .collect();
            assert_eq!(walked, powered, "powered walk");
            for core in 0..self.store.len() {
                assert_eq!(
                    self.store.power(core).to_bits(),
                    self.mode_power(self.store.mode(core)).to_bits(),
                    "core {core}'s stored power"
                );
            }
            assert_eq!(
                self.health.withdrawn_count(),
                self.health.quarantined_count() + self.health.probation_count(),
                "withdrawn count"
            );
            assert_eq!(
                wear.mean_utilization.to_bits(),
                self.stress.mean_utilization().to_bits(),
                "fused mean utilisation"
            );
            if let Some(grid) = &self.close.thermal {
                assert_eq!(
                    wear.max_input.to_bits(),
                    grid.max_temperature().to_bits(),
                    "fused hottest tile"
                );
            }
        }
    }
}
