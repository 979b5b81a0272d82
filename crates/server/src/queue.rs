//! A bounded multi-producer/multi-consumer queue built on one mutex and
//! one condvar — the admission control point of the server.
//!
//! The queue never blocks producers: [`Bounded::try_push`] fails
//! immediately when the queue is at capacity ([`PushError::Full`]) or
//! closed ([`PushError::Closed`]), handing the rejected item back so the
//! caller can shed load with a structured reply instead of growing an
//! unbounded backlog. Consumers block in [`Bounded::pop`] until an item
//! arrives; after [`Bounded::close`] they drain whatever is still queued
//! and then observe `None`, which is the worker-pool exit signal during a
//! graceful drain.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was rejected. Both variants return the item to the caller.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; shed the item.
    Full(T),
    /// The queue was closed; the server is draining.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue: [`Bounded::try_push`] never blocks,
/// [`Bounded::pop`] blocks until an item arrives or the queue closes.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`Bounded::close`]; both carry `item` back.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeue, blocking until an item is available. Returns `None` once
    /// the queue is closed *and* empty — remaining items are always
    /// drained first, which is what makes shutdown graceful.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Close the queue: future pushes fail, consumers drain and exit.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_and_hands_the_item_back() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_remaining_items_then_signals_exit() {
        let q = Bounded::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed("c")) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed+empty stays terminal");
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = Bounded::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(7).unwrap();
        assert!(matches!(q.try_push(8), Err(PushError::Full(8))));
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_on_close() {
        let q = Arc::new(Bounded::new(8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while q.pop().is_some() {
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();
        let mut pushed = 0usize;
        for i in 0..100 {
            if q.try_push(i).is_ok() {
                pushed += 1;
            } else {
                // Consumers are slow to wake under load; give them a beat.
                std::thread::yield_now();
            }
        }
        q.close();
        let drained: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(drained, pushed, "every admitted item is consumed");
    }
}
