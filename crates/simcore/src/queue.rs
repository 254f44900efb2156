//! A stable priority queue of timestamped events.
//!
//! Events scheduled for the same instant are delivered in scheduling order
//! (FIFO), which keeps simulations deterministic even when many events share
//! a timestamp — common with constant middleware delays like the paper's
//! adjudication time `dT`.
//!
//! [`EventQueue`] is a binary heap ordered by `(time, seq)`, where `seq`
//! is the push index. The heap keeps its storage across pops, so once a
//! run has reached its deepest backlog, scheduling allocates nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event with its due time and a tie-breaking sequence number.
#[derive(Debug)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with the sequence number as a FIFO tie-breaker.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue.
///
/// # Example
///
/// ```
/// use wsu_simcore::queue::EventQueue;
/// use wsu_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at the instant `due`.
    pub fn push(&mut self, due: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { due, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.due, s.event))
    }

    /// Returns the due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.due)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events. The storage is retained, so a
    /// cleared queue schedules without allocating.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StreamRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_maintains_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), 5);
        q.push(SimTime::from_secs(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs(2.0), 2);
        q.push(SimTime::from_secs(9.0), 9);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 9);
    }

    /// Pops `queue` and the reference together and requires the same
    /// peek and pop. The reference is the pending `(time, push index)`
    /// pairs, kept in push order and stably sorted by time before each pop.
    fn pop_both(
        queue: &mut EventQueue<u64>,
        reference: &mut Vec<(SimTime, u64)>,
        seed: u64,
    ) -> Option<(SimTime, u64)> {
        reference.sort_by_key(|&(due, _)| due);
        let expected = (!reference.is_empty()).then(|| reference.remove(0));
        assert_eq!(queue.peek_time(), expected.map(|e| e.0), "seed {seed}");
        assert_eq!(queue.pop(), expected, "seed {seed}");
        expected
    }

    // The cases from here to `spill_heavy_schedules_match_heap_order` keep the
    // names they had when the queue was a calendar ring of 64 one-second
    // buckets with a spill list for events a lap or more ahead. Each now
    // checks the heap's order on the same schedule.

    #[test]
    fn far_future_events_pop_after_a_cursor_jump() {
        let mut q = EventQueue::new();
        // Each far more than 64 s from the next.
        q.push(SimTime::from_secs(1_000_000.0), "far");
        q.push(SimTime::from_secs(0.5), "near");
        q.push(SimTime::from_secs(31_500_000.0), "never");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(31_500_000.0)));
        assert_eq!(q.pop().unwrap().1, "never");
        assert!(q.is_empty());
    }

    #[test]
    fn same_bucket_different_lap_is_not_popped_early() {
        let mut q = EventQueue::new();
        // 0.25 and 64.25 are exactly 64 s apart; the later one must wait
        // for everything in between.
        q.push(SimTime::from_secs(64.25), 64);
        q.push(SimTime::from_secs(0.25), 0);
        q.push(SimTime::from_secs(63.25), 63);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 63, 64]);
    }

    #[test]
    fn push_behind_the_cursor_rewinds_it() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(50.0), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(50.0)));
        q.push(SimTime::from_secs(2.0), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    /// Single pushes up to 120 s ahead with 5 % outliers 10³–10⁶ s ahead,
    /// same-instant bursts that must come back FIFO, and interleaved
    /// peeks and pops, over 32 seeds; every peek and pop must equal the
    /// reference, and the drained tail must be time-ordered.
    #[test]
    fn calendar_and_heap_pop_identical_orders() {
        for seed in 0..32u64 {
            let mut rng = StreamRng::from_seed(0xCA1E_0000 + seed);
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference = Vec::new();
            let mut event = 0u64;
            for _step in 0..400 {
                let roll = rng.next_f64();
                if roll < 0.45 {
                    let t = if rng.next_f64() < 0.05 {
                        1_000.0 + rng.next_f64() * 1.0e6
                    } else {
                        rng.next_f64() * 120.0
                    };
                    let due = SimTime::from_secs(t);
                    queue.push(due, event);
                    reference.push((due, event));
                    event += 1;
                } else if roll < 0.6 {
                    let t = SimTime::from_secs((rng.next_f64() * 60.0).floor());
                    let burst = 2 + (rng.next_u64() % 6);
                    for _ in 0..burst {
                        queue.push(t, event);
                        reference.push((t, event));
                        event += 1;
                    }
                } else {
                    pop_both(&mut queue, &mut reference, seed);
                }
                assert_eq!(queue.len(), reference.len(), "seed {seed}");
            }
            let mut drained = Vec::new();
            while let Some(popped) = pop_both(&mut queue, &mut reference, seed) {
                drained.push(popped);
            }
            for w in drained.windows(2) {
                assert!(w[0].0 <= w[1].0, "seed {seed}: out of order");
            }
        }
    }

    #[test]
    fn far_future_pushes_land_on_the_spill_list() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(0.5), "near");
        q.push(SimTime::from_secs(63.5), "edge");
        q.push(SimTime::from_secs(64.5), "next_lap");
        q.push(SimTime::from_secs(1.0e6), "far");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near", "edge", "next_lap", "far"]);
        assert!(q.is_empty());
    }

    #[test]
    fn unmigrated_spill_precedes_lap_hit_in_peek_and_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(0.5), "a");
        q.push(SimTime::from_secs(64.5), "s");
        q.push(SimTime::from_secs(50.5), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "c");
        // "b" is less than 64 s past the last pop, but "s" is due
        // earlier; neither peek nor pop may prefer "b".
        q.push(SimTime::from_secs(100.5), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(64.5)));
        assert_eq!(q.pop().unwrap().1, "s");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn rewound_cursor_bucket_resident_vs_spill_ordering() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100.5), "anchor");
        q.push(SimTime::from_secs(170.5), "later");
        // Earlier than everything pending; after it pops, the anchor
        // (more than 64 s past it) still precedes the later event.
        q.push(SimTime::from_secs(0.5), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(100.5)));
        assert_eq!(q.pop().unwrap().1, "anchor");
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_discards_spilled_events_too() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(0.5), 1);
        q.push(SimTime::from_secs(1.0e7), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // The far event does not come back after the next push.
        q.push(SimTime::from_secs(3.0), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(3.0), 3)));
        assert_eq!(q.pop(), None);
    }

    /// The far-ahead mirror of `calendar_and_heap_pop_identical_orders`:
    /// 32 seeds whose pushes are mostly 64 s to ~10⁷ s ahead, including
    /// same-instant bursts entirely in the far future, so FIFO ties among
    /// far-ahead events are checked against the reference too.
    #[test]
    fn spill_heavy_schedules_match_heap_order() {
        let mut saw_far = false;
        for seed in 0..32u64 {
            let mut rng = StreamRng::from_seed(0x5B11_0000 + seed);
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference = Vec::new();
            let mut event = 0u64;
            for _step in 0..500 {
                let roll = rng.next_f64();
                if roll < 0.5 {
                    let pick = rng.next_f64();
                    let t = if pick < 0.35 {
                        rng.next_f64() * 63.0
                    } else if pick < 0.65 {
                        64.0 + rng.next_f64() * 500.0
                    } else {
                        1.0e3 + rng.next_f64() * 1.0e7
                    };
                    let due = SimTime::from_secs(t);
                    saw_far |= queue
                        .peek_time()
                        .is_some_and(|head| t >= head.as_secs() + 64.0);
                    queue.push(due, event);
                    reference.push((due, event));
                    event += 1;
                } else if roll < 0.65 {
                    let t = SimTime::from_secs(200.0 + (rng.next_f64() * 1.0e4).floor());
                    let burst = 2 + (rng.next_u64() % 5);
                    for _ in 0..burst {
                        queue.push(t, event);
                        reference.push((t, event));
                        event += 1;
                    }
                } else {
                    pop_both(&mut queue, &mut reference, seed);
                }
                assert_eq!(queue.len(), reference.len(), "seed {seed}");
            }
            while pop_both(&mut queue, &mut reference, seed).is_some() {}
            assert!(queue.is_empty(), "seed {seed}");
        }
        assert!(saw_far, "no push landed 64 s or more past the queue head");
    }

    #[test]
    fn heap_queue_basics_still_hold() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(2.0), "late");
        q.push(SimTime::from_secs(1.0), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
        q.clear();
        assert!(EventQueue::<u8>::default().is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Drives the queue through 40 seeded schedules that mix coarse
    /// tied times, the hold pattern, pushes far ahead and pushes before
    /// the last pop, and requires every peek and pop to match the
    /// reference: the pending `(time, push index)` pairs, kept in push
    /// order and stably sorted by time before each pop.
    #[test]
    fn pop_order_is_a_stable_sort_by_time() {
        let mut seen = [0u32; 5];
        for seed in 0..40u64 {
            let mut rng = StreamRng::from_seed(0x51AB_1E00 + seed);
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut pushed = 0u64;
            let mut last_pop = SimTime::ZERO;
            for _step in 0..500 {
                let pattern = rng.next_below(5) as usize;
                seen[pattern] += 1;
                let due = match pattern {
                    // Coarse times: whole seconds in [0, 8), many ties.
                    0 => SimTime::from_secs(rng.next_below(8) as f64),
                    // The hold pattern: pop one, push one 0-2 s after it.
                    1 => {
                        if let Some((due, _)) = pop_both(&mut queue, &mut reference, seed) {
                            last_pop = due;
                        }
                        last_pop + SimDuration::from_secs(rng.uniform(0.0, 2.0))
                    }
                    // More than 64 s past the last pop.
                    2 => last_pop + SimDuration::from_secs(64.0 + rng.uniform(0.0, 1.0e6)),
                    // Earlier than the last pop.
                    3 => SimTime::from_secs(last_pop.as_secs() * rng.next_f64()),
                    _ => {
                        if let Some((due, _)) = pop_both(&mut queue, &mut reference, seed) {
                            last_pop = due;
                        }
                        continue;
                    }
                };
                queue.push(due, pushed);
                reference.push((due, pushed));
                pushed += 1;
                assert_eq!(queue.len(), reference.len(), "seed {seed}");
            }
            while pop_both(&mut queue, &mut reference, seed).is_some() {}
            assert!(queue.is_empty(), "seed {seed}");
        }
        assert!(seen.iter().all(|&n| n > 0), "a pattern never ran: {seen:?}");
    }
}
