//! The engine's original binary-heap scheduler, kept as the calendar
//! queue's differential oracle: a `BinaryHeap` ordered by `(at, tie)` is
//! too simple to be wrong. The includer brings `EventSchedule` and
//! `SchedStats` into scope (`rlir_sim::sched` from an integration test,
//! `super::*` from `rlir_sim::sched`'s own unit tests).
#![allow(dead_code)]

use super::{EventSchedule, SchedStats};
use rlir_net::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One entry, ordered by `(at, tie)` alone.
struct Keyed<T> {
    at: u64,
    tie: u64,
    item: T,
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.tie) == (other.at, other.tie)
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.tie).cmp(&(other.at, other.tie))
    }
}

/// The binary-heap scheduler: counts pushes and pops only.
pub struct HeapSchedule<T> {
    heap: BinaryHeap<Reverse<Keyed<T>>>,
    pushes: u64,
}

/// An empty schedule.
pub fn new<T>() -> HeapSchedule<T> {
    HeapSchedule {
        heap: BinaryHeap::new(),
        pushes: 0,
    }
}

impl<T> EventSchedule<T> for HeapSchedule<T> {
    fn push_keyed(&mut self, at: SimTime, tie: u64, item: T) {
        let at = at.as_nanos();
        self.heap.push(Reverse(Keyed { at, tie, item }));
        self.pushes += 1;
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
        let Reverse(e) = self.heap.pop()?;
        Some((SimTime::from_nanos(e.at), e.tie, e.item))
    }

    fn peek_due(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        let Reverse(e) = self.heap.peek()?;
        (e.at <= now.as_nanos()).then_some((SimTime::from_nanos(e.at), e.tie))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn stats(&self) -> SchedStats {
        SchedStats {
            pushes: self.pushes,
            pops: self.pushes - self.heap.len() as u64,
            ..SchedStats::default()
        }
    }
}
