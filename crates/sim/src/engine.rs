//! Event calendar with deterministic ordering.
//!
//! [`EventQueue`] is a binary heap keyed by `(time, sequence)`: events that
//! share a timestamp pop in the order they were scheduled (FIFO), which makes
//! whole-system runs reproducible regardless of payload type or heap
//! internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event carrying an arbitrary payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number; breaks ties among simultaneous events.
    pub seq: u64,
    /// The caller-defined payload.
    pub payload: T,
}

struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .0
            .time
            .cmp(&self.0.time)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// A deterministic future-event calendar.
///
/// # Examples
///
/// ```
/// use manytest_sim::engine::EventQueue;
/// use manytest_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(10), 'b');
/// q.schedule(SimTime::from_ns(10), 'c'); // same instant: FIFO
/// q.schedule(SimTime::from_ns(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for HeapEntry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapEntry")
            .field("time", &self.0.time)
            .field("seq", &self.0.seq)
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// Returns the sequence number assigned to the event, which can be used
    /// by callers to implement cancellation via tombstones.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current queue time: the calendar
    /// never travels backwards.
    pub fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Event { time, seq, payload }));
        seq
    }

    /// Removes and returns the earliest pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let entry = self.heap.pop()?;
        self.now = entry.0.time;
        Some(entry.0)
    }

    /// Returns the time of the earliest pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pops the earliest event only if it fires strictly before `deadline`.
    ///
    /// This is the primitive the epoch loop uses: drain all events belonging
    /// to the current control epoch, then hand control to the epoch-level
    /// policies.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event<T>> {
        match self.peek_time() {
            Some(t) if t < deadline => self.pop(),
            _ => None,
        }
    }

    /// Drains into `out` every pending event that shares the timestamp of
    /// the earliest event, provided that timestamp is strictly before
    /// `deadline`. Returns the number of events drained (0 when nothing
    /// fires before the deadline).
    ///
    /// This is the batched form of [`EventQueue::pop_before`]: one heap
    /// descent per *timestamp* instead of one per event. Events land in
    /// `out` in exactly the order repeated `pop` calls would return them
    /// (FIFO within the shared instant), and events scheduled *while the
    /// batch is being processed* receive higher sequence numbers, so they
    /// sort after the drained batch — processing a batch then re-draining
    /// is indistinguishable from popping one event at a time.
    ///
    /// `out` is cleared first; its capacity is reused across calls.
    pub fn pop_batch_before(&mut self, deadline: SimTime, out: &mut Vec<Event<T>>) -> usize {
        out.clear();
        let Some(first) = self.pop_before(deadline) else {
            return 0;
        };
        let batch_time = first.time;
        out.push(first);
        while self.peek_time() == Some(batch_time) {
            out.push(self.pop().expect("peeked event exists"));
        }
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), 'a');
        q.schedule(SimTime::from_ns(15), 'b');
        let deadline = SimTime::from_ns(10);
        assert_eq!(q.pop_before(deadline).map(|e| e.payload), Some('a'));
        assert_eq!(q.pop_before(deadline), None);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(15)));
    }

    #[test]
    fn pop_before_boundary_is_exclusive() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        assert_eq!(q.pop_before(SimTime::from_ns(10)), None);
        assert!(q.pop_before(SimTime::from_ns(11)).is_some());
    }

    #[test]
    fn batch_drain_matches_one_at_a_time_popping() {
        // Reference: a queue drained by repeated pop(). Subject: the same
        // schedule drained in timestamp batches. Orders must be identical.
        let schedule = [(10u64, 'a'), (10, 'b'), (5, 'c'), (10, 'd'), (20, 'e'), (5, 'f')];
        let mut reference = EventQueue::new();
        let mut subject = EventQueue::new();
        for &(ns, p) in &schedule {
            reference.schedule(SimTime::from_ns(ns), p);
            subject.schedule(SimTime::from_ns(ns), p);
        }
        let one_at_a_time: Vec<char> =
            std::iter::from_fn(|| reference.pop().map(|e| e.payload)).collect();
        let mut batched = Vec::new();
        let mut scratch = Vec::new();
        let deadline = SimTime::from_ns(100);
        while subject.pop_batch_before(deadline, &mut scratch) > 0 {
            batched.extend(scratch.iter().map(|e| e.payload));
        }
        assert_eq!(batched, one_at_a_time);
    }

    #[test]
    fn batch_drain_groups_by_timestamp_and_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), 1);
        q.schedule(SimTime::from_ns(5), 2);
        q.schedule(SimTime::from_ns(9), 3);
        q.schedule(SimTime::from_ns(15), 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_before(SimTime::from_ns(10), &mut batch), 2);
        assert_eq!(batch.iter().map(|e| e.payload).collect::<Vec<_>>(), vec![1, 2]);
        assert!(batch.iter().all(|e| e.time == SimTime::from_ns(5)));
        assert_eq!(q.pop_batch_before(SimTime::from_ns(10), &mut batch), 1);
        assert_eq!(batch[0].payload, 3);
        // The 15 ns event is at/after the deadline: batch is left empty.
        assert_eq!(q.pop_batch_before(SimTime::from_ns(10), &mut batch), 0);
        assert!(batch.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(15)));
    }

    #[test]
    fn events_scheduled_during_a_batch_sort_after_it() {
        // A handler reacting to a drained event may schedule more work at
        // the very same instant; those newcomers must form the *next*
        // batch, exactly as they would pop after the current event under
        // one-at-a-time processing.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), "first");
        q.schedule(SimTime::from_ns(7), "second");
        let mut batch = Vec::new();
        q.pop_batch_before(SimTime::from_ns(10), &mut batch);
        assert_eq!(batch.len(), 2);
        q.schedule(SimTime::from_ns(7), "reaction");
        assert_eq!(q.pop_batch_before(SimTime::from_ns(10), &mut batch), 1);
        assert_eq!(batch[0].payload, "reaction");
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_ns(1), ());
        let b = q.schedule(SimTime::from_ns(1), ());
        assert!(b > a);
    }
}
