//! Typed lifecycle events and the fixed-capacity ring each replica records
//! them into.
//!
//! An [`Event`] is a small `Copy` struct — recording one writes it into a
//! preallocated slot of an [`EventRing`], overwriting the oldest entry once
//! the ring is full. No allocation ever happens on the record path.

use std::fmt;

/// Default ring capacity: the last 256 events per replica, enough to span
/// several anti-entropy rounds around a failure without noticeable memory
/// cost (256 × 24 bytes per replica).
pub const FLIGHT_CAPACITY: usize = 256;

/// What happened to a message (or replica) at one point of its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A client submitted the message at its origin replica.
    Submitted,
    /// The message was admitted into the local causal graph (its first
    /// local broadcast-layer sighting — at the origin this immediately
    /// follows [`EventKind::Submitted`]).
    Broadcast,
    /// The message entered the local promotion (tentative order) sequence.
    Promoted,
    /// The message entered the local delivered sequence.
    Delivered,
    /// The replica's state machine applied the message.
    Applied,
    /// The stable prefix grew: `seq` is the new absolute fold base.
    Folded,
    /// A digest gap was detected and a sync pull issued.
    SyncPull,
    /// The replica crashed.
    Crashed,
    /// The replica recovered / rejoined.
    Recovered,
    /// A malformed peer message was rejected.
    Malformed,
    /// The delivered sequence was rewritten: `seq` applied entries of the
    /// tentative order were revoked (the revocation depth).
    Revoked,
}

impl EventKind {
    /// Short lowercase label used by the flight-recorder rendering and the
    /// metrics exposition text.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Submitted => "submitted",
            EventKind::Broadcast => "broadcast",
            EventKind::Promoted => "promoted",
            EventKind::Delivered => "delivered",
            EventKind::Applied => "applied",
            EventKind::Folded => "folded",
            EventKind::SyncPull => "sync_pull",
            EventKind::Crashed => "crashed",
            EventKind::Recovered => "recovered",
            EventKind::Malformed => "malformed",
            EventKind::Revoked => "revoked",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded lifecycle event: a timestamp (logical tick or monotonic
/// milliseconds, per the recorder's [`crate::clock::TimeSource`]), the
/// event kind, and the subject message identity (`origin`, `seq`) — or the
/// subject replica in `origin` for replica-level events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in the recorder's time unit.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
    /// Origin replica of the subject message (or the subject replica for
    /// [`EventKind::Crashed`]/[`EventKind::Recovered`]/[`EventKind::Malformed`]/
    /// [`EventKind::Revoked`]).
    pub origin: u32,
    /// Per-origin sequence number of the subject message (0 when there is
    /// no subject message; the new fold base for [`EventKind::Folded`], the
    /// depth for [`EventKind::Revoked`]).
    pub seq: u64,
}

/// A fixed-capacity ring of [`Event`]s: the newest `capacity` events are
/// retained, older ones are overwritten in place.
#[derive(Clone, Debug)]
pub struct EventRing {
    slots: Vec<Event>,
    capacity: usize,
    /// Index of the slot the next event will be written to.
    head: usize,
    /// Total events ever recorded (including overwritten ones).
    recorded: u64,
}

impl EventRing {
    /// An empty ring retaining up to `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Records one event, overwriting the oldest if the ring is full.
    pub fn record(&mut self, event: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
        }
        self.head = (self.head + 1) % self.capacity;
        self.recorded += 1;
    }

    /// Total events ever recorded, including those already overwritten.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        if self.slots.len() < self.capacity {
            self.slots.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.slots[self.head..]);
            out.extend_from_slice(&self.slots[..self.head]);
            out
        }
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(FLIGHT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> Event {
        Event {
            at,
            kind: EventKind::Delivered,
            origin: 0,
            seq: at,
        }
    }

    #[test]
    fn ring_retains_newest_in_order() {
        let mut ring = EventRing::new(3);
        assert_eq!(ring.events(), vec![]);
        ring.record(ev(1));
        ring.record(ev(2));
        assert_eq!(
            ring.events().iter().map(|e| e.at).collect::<Vec<_>>(),
            vec![1, 2]
        );
        ring.record(ev(3));
        ring.record(ev(4));
        ring.record(ev(5));
        assert_eq!(
            ring.events().iter().map(|e| e.at).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = EventRing::new(0);
        ring.record(ev(1));
        ring.record(ev(2));
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].at, 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::Submitted.label(), "submitted");
        assert_eq!(EventKind::SyncPull.to_string(), "sync_pull");
        assert_eq!(EventKind::Folded.label(), "folded");
    }
}
