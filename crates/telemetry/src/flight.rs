//! The flight recorder: causally merge per-replica event rings into one
//! trace and render it for humans.
//!
//! When a chaos checker fails, the per-replica rings of the failed run are
//! merged by timestamp (ties broken by recording replica, then by ring
//! order, which respects each replica's local causality) and dumped next to
//! the counterexample, so the last few hundred protocol steps leading into
//! the violation can be read as one timeline.

use crate::event::{Event, EventKind};

/// Merges per-replica event rings (index = recording replica) into one
/// timeline sorted by timestamp, ties broken by recording replica then by
/// local ring order. Returns `(recording replica, event)` pairs.
pub fn merge_flight(rings: &[Vec<Event>]) -> Vec<(u32, Event)> {
    let mut merged: Vec<(u32, u64, Event)> = Vec::new();
    for (replica, ring) in rings.iter().enumerate() {
        for (order, event) in ring.iter().enumerate() {
            merged.push((replica as u32, order as u64, *event));
        }
    }
    merged.sort_by_key(|&(replica, order, event)| (event.at, replica, order));
    merged
        .into_iter()
        .map(|(replica, _, event)| (replica, event))
        .collect()
}

/// Renders a merged timeline as text, one event per line:
/// `t=<at> r<recorder> <kind> p<origin>#<seq>` (the subject suffix is
/// omitted for replica-level events, and shows the fold base for
/// [`EventKind::Folded`] and the depth for [`EventKind::Revoked`]).
pub fn render_flight(merged: &[(u32, Event)]) -> String {
    let mut out = String::new();
    for &(replica, event) in merged {
        use std::fmt::Write as _;
        let _ = write!(out, "t={:06} r{} {}", event.at, replica, event.kind);
        match event.kind {
            EventKind::Crashed
            | EventKind::Recovered
            | EventKind::SyncPull
            | EventKind::Malformed => {}
            EventKind::Folded => {
                let _ = write!(out, " base={}", event.seq);
            }
            EventKind::Revoked => {
                let _ = write!(out, " depth={}", event.seq);
            }
            _ => {
                let _ = write!(out, " p{}#{}", event.origin, event.seq);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind, origin: u32, seq: u64) -> Event {
        Event {
            at,
            kind,
            origin,
            seq,
        }
    }

    #[test]
    fn merge_orders_by_time_then_replica_then_ring_order() {
        let r0 = vec![
            ev(5, EventKind::Submitted, 0, 1),
            ev(5, EventKind::Broadcast, 0, 1),
            ev(9, EventKind::Delivered, 0, 1),
        ];
        let r1 = vec![
            ev(5, EventKind::Broadcast, 0, 1),
            ev(7, EventKind::SyncPull, 1, 0),
        ];
        let merged = merge_flight(&[r0, r1]);
        let shape: Vec<(u32, u64, EventKind)> =
            merged.iter().map(|&(r, e)| (r, e.at, e.kind)).collect();
        assert_eq!(
            shape,
            vec![
                (0, 5, EventKind::Submitted),
                (0, 5, EventKind::Broadcast),
                (1, 5, EventKind::Broadcast),
                (1, 7, EventKind::SyncPull),
                (0, 9, EventKind::Delivered),
            ]
        );
    }

    #[test]
    fn rendering_is_line_per_event() {
        let merged = vec![
            (0, ev(3, EventKind::Delivered, 1, 4)),
            (1, ev(4, EventKind::Crashed, 1, 0)),
            (1, ev(6, EventKind::Folded, 1, 12)),
        ];
        let text = render_flight(&merged);
        assert_eq!(
            text,
            "t=000003 r0 delivered p1#4\nt=000004 r1 crashed\nt=000006 r1 folded base=12\n"
        );
    }
}
