//! Traced runs: one span per control-loop phase per epoch, under one span
//! per run, kept in memory and written out as Chrome-trace events.
//!
//! Phases do not nest, so a run's self time is its wall time minus the sum
//! of its phase spans: the probe lane, checkpoints and finalize, which sit
//! outside every phase.

use crate::clock::now_ns;
use manytest_sim::{Phase, PhaseObserver};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// One phase of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Control epoch (counted from the run's first PID phase).
    pub epoch: u32,
    /// Host start, [`now_ns`] reading.
    pub start_ns: u64,
    /// Host end, [`now_ns`] reading.
    pub end_ns: u64,
}

/// A [`PhaseObserver`] that appends a [`PhaseSpan`] per phase exit to a
/// shared buffer the caller reads after the run.
pub struct Recorder {
    spans: Rc<RefCell<Vec<PhaseSpan>>>,
    open_ns: u64,
    epochs: u32,
}

impl Recorder {
    /// A recorder with room for `capacity` spans (so recording does not
    /// reallocate mid-run), plus the handle its spans land in.
    pub fn new(capacity: usize) -> (Self, Rc<RefCell<Vec<PhaseSpan>>>) {
        let spans = Rc::new(RefCell::new(Vec::with_capacity(capacity)));
        let recorder = Recorder {
            spans: Rc::clone(&spans),
            open_ns: 0,
            epochs: 0,
        };
        (recorder, spans)
    }
}

impl PhaseObserver for Recorder {
    fn enter(&mut self, phase: Phase) {
        // Every epoch's control step opens with the PID phase.
        if phase == Phase::Pid {
            self.epochs += 1;
        }
        self.open_ns = now_ns();
    }

    fn exit(&mut self, phase: Phase) {
        let end_ns = now_ns();
        self.spans.borrow_mut().push(PhaseSpan {
            phase,
            epoch: self.epochs.saturating_sub(1),
            start_ns: self.open_ns,
            end_ns,
        });
    }
}

/// Host nanoseconds per phase (in [`Phase::index`] order).
pub fn phase_totals(spans: &[PhaseSpan]) -> [u64; Phase::COUNT] {
    let mut totals = [0; Phase::COUNT];
    for s in spans {
        totals[s.phase.index()] += s.end_ns - s.start_ns;
    }
    totals
}

/// Where one traced run sits in the trace.
#[derive(Debug, Clone, Copy)]
pub struct RunId<'a> {
    /// Trace process id: one per workload.
    pub pid: usize,
    /// Workload name.
    pub workload: &'a str,
    /// Traced sample number.
    pub sample: usize,
    /// Index of the config in the workload's list.
    pub config: usize,
    /// Run id, unique within the workload; the trace thread id.
    pub run: usize,
}

/// Chrome-trace events for one run: the run span, then its phase spans.
pub fn chrome_events(
    id: RunId<'_>,
    start_ns: u64,
    end_ns: u64,
    spans: &[PhaseSpan],
) -> Vec<String> {
    let us = |ns: u64| ns as f64 / 1e3;
    let event = |name: &str, start: u64, end: u64, extra: &str| {
        let mut e = String::with_capacity(200);
        let _ = write!(
            e,
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"workload\":\"{}\",\"sample\":{},\"run\":{}{extra}}}}}",
            id.pid,
            id.run,
            us(start),
            us(end - start),
            id.workload,
            id.sample,
            id.run,
        );
        e
    };
    let mut out = Vec::with_capacity(spans.len() + 1);
    out.push(event(
        "run",
        start_ns,
        end_ns,
        &format!(",\"config\":{}", id.config),
    ));
    for s in spans {
        let extra = format!(",\"epoch\":{}", s.epoch);
        out.push(event(s.phase.as_str(), s.start_ns, s.end_ns, &extra));
    }
    out
}

/// The Chrome-trace metadata event naming process `pid`.
pub fn process_name(pid: usize, name: &str) -> String {
    format!("{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_counts_epochs_and_totals_phases() {
        let (mut rec, spans) = Recorder::new(8);
        for _ in 0..2 {
            for p in Phase::ALL {
                rec.enter(p);
                rec.exit(p);
            }
        }
        let spans = spans.borrow();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[0].epoch, 0);
        assert_eq!(spans[11].epoch, 1);
        let totals = phase_totals(&spans);
        let sum: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(totals.iter().sum::<u64>(), sum);
    }
}
