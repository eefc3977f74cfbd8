//! The per-replica recorder: timestamps lifecycle events into the flight
//! ring and matches submit/admit/promote times against deliveries to feed
//! the latency histograms.
//!
//! A recorder is attached to one broadcast automaton (or one replica-level
//! component). The automaton pushes the current logical tick at every
//! handler entry ([`Recorder::set_tick`]); on the deterministic engine that
//! tick *is* the timestamp, on the real-time engines the attached external
//! [`crate::clock::Clock`] is read instead. Pending-time maps are keyed by
//! message identity and drained on delivery, so memory stays bounded by the
//! number of in-flight messages and a message delivered twice (e.g. after a
//! divergence window is absorbed) is only measured once.

use std::collections::BTreeMap;

use crate::clock::TimeSource;
use crate::event::{Event, EventKind, EventRing};
use crate::report::TelemetryReport;

/// Per-replica telemetry state: an event ring plus the three latency
/// histograms and their pending-time bookkeeping.
#[derive(Debug)]
pub struct Recorder {
    replica: u32,
    source: TimeSource,
    tick: u64,
    ring: EventRing,
    report: TelemetryReport,
    pending_submit: BTreeMap<(u32, u64), u64>,
    pending_admit: BTreeMap<(u32, u64), u64>,
    pending_promote: BTreeMap<(u32, u64), u64>,
    /// Absolute count of delivered-sequence entries already recorded, so
    /// wholesale sequence adoptions only scan their new suffix.
    delivered_watermark: u64,
}

impl Recorder {
    /// A recorder for replica `replica` timestamping from `source`,
    /// retaining the newest `capacity` events.
    pub fn new(replica: u32, source: TimeSource, capacity: usize) -> Self {
        Recorder {
            replica,
            source,
            tick: 0,
            ring: EventRing::new(capacity),
            report: TelemetryReport::default(),
            pending_submit: BTreeMap::new(),
            pending_admit: BTreeMap::new(),
            pending_promote: BTreeMap::new(),
            delivered_watermark: 0,
        }
    }

    /// The replica this recorder is attached to.
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Pushes the current logical tick. Handlers call this on entry; it is
    /// the timestamp source on [`TimeSource::Logical`] and ignored (beyond
    /// bookkeeping) on an external clock.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// The current timestamp in this recorder's time unit.
    pub fn now(&self) -> u64 {
        match &self.source {
            TimeSource::Logical => self.tick,
            TimeSource::External(clock) => clock.now(),
        }
    }

    fn event(&mut self, kind: EventKind, origin: u32, seq: u64) {
        let at = self.now();
        self.ring.record(Event {
            at,
            kind,
            origin,
            seq,
        });
    }

    /// A client submitted message (`origin`, `seq`) here; starts the
    /// submit→deliver clock.
    pub fn submitted(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Submitted, origin, seq);
        let at = self.now();
        self.pending_submit.entry((origin, seq)).or_insert(at);
    }

    /// The message was admitted into the local causal graph; starts the
    /// stability-lag clock.
    pub fn admitted(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Broadcast, origin, seq);
        let at = self.now();
        self.pending_admit.entry((origin, seq)).or_insert(at);
    }

    /// The message entered the local promotion sequence; starts the
    /// promote→deliver clock.
    pub fn promoted(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Promoted, origin, seq);
        let at = self.now();
        self.pending_promote.entry((origin, seq)).or_insert(at);
    }

    /// The message entered the local delivered sequence; settles every
    /// pending clock that was started for it.
    pub fn delivered(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Delivered, origin, seq);
        let at = self.now();
        if let Some(t0) = self.pending_submit.remove(&(origin, seq)) {
            self.report.submit_deliver.record(at.saturating_sub(t0));
        }
        if let Some(t0) = self.pending_admit.remove(&(origin, seq)) {
            self.report.stability_lag.record(at.saturating_sub(t0));
        }
        if let Some(t0) = self.pending_promote.remove(&(origin, seq)) {
            self.report.promote_stable.record(at.saturating_sub(t0));
        }
    }

    /// The state machine applied the message.
    pub fn applied(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Applied, origin, seq);
    }

    /// The stable prefix was folded up to absolute base `base`.
    pub fn folded(&mut self, base: u64) {
        let replica = self.replica;
        self.event(EventKind::Folded, replica, base);
    }

    /// The replica's delivered sequence was rewritten, revoking `depth`
    /// entries of the tentative order it had applied.
    pub fn revoked(&mut self, depth: u64) {
        let replica = self.replica;
        self.event(EventKind::Revoked, replica, depth);
        self.report.revocation_depth.record(depth);
    }

    /// A digest gap was detected and a sync pull issued.
    pub fn sync_pull(&mut self) {
        let replica = self.replica;
        self.event(EventKind::SyncPull, replica, 0);
    }

    /// This replica crashed.
    pub fn crashed(&mut self) {
        let replica = self.replica;
        self.event(EventKind::Crashed, replica, 0);
    }

    /// This replica recovered / rejoined.
    pub fn recovered(&mut self) {
        let replica = self.replica;
        self.event(EventKind::Recovered, replica, 0);
    }

    /// A malformed peer message was rejected.
    pub fn malformed(&mut self) {
        let replica = self.replica;
        self.event(EventKind::Malformed, replica, 0);
    }

    /// Absolute count of delivered-sequence entries this recorder has seen.
    /// Automata that adopt whole delivered sequences (catch-up, verified
    /// suffixes) compare against this to record only the new suffix, then
    /// advance it via [`Recorder::set_delivered_watermark`].
    pub fn delivered_watermark(&self) -> u64 {
        self.delivered_watermark
    }

    /// Advances the delivered watermark (monotonic; lowering is ignored).
    pub fn set_delivered_watermark(&mut self, watermark: u64) {
        self.delivered_watermark = self.delivered_watermark.max(watermark);
    }

    /// The retained flight events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.events()
    }

    /// The mergeable latency summary recorded so far.
    pub fn report(&self) -> TelemetryReport {
        let mut report = self.report.clone();
        report.events_recorded = self.ring.recorded();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_latencies_are_tick_differences() {
        let mut r = Recorder::new(0, TimeSource::Logical, 16);
        r.set_tick(10);
        r.submitted(0, 1);
        r.admitted(0, 1);
        r.set_tick(12);
        r.promoted(0, 1);
        r.set_tick(17);
        r.delivered(0, 1);
        let report = r.report();
        assert_eq!(report.submit_deliver.count(), 1);
        assert_eq!(report.submit_deliver.max(), 7);
        assert_eq!(report.stability_lag.max(), 7);
        assert_eq!(report.promote_stable.max(), 5);
        assert_eq!(report.events_recorded, 4);
    }

    #[test]
    fn redelivery_is_measured_once() {
        let mut r = Recorder::new(1, TimeSource::Logical, 16);
        r.set_tick(1);
        r.submitted(2, 9);
        r.set_tick(4);
        r.delivered(2, 9);
        r.set_tick(9);
        r.delivered(2, 9);
        let report = r.report();
        assert_eq!(report.submit_deliver.count(), 1);
        assert_eq!(report.submit_deliver.max(), 3);
    }

    #[test]
    fn watermark_is_monotonic() {
        let mut r = Recorder::new(0, TimeSource::Logical, 4);
        assert_eq!(r.delivered_watermark(), 0);
        r.set_delivered_watermark(5);
        r.set_delivered_watermark(3);
        assert_eq!(r.delivered_watermark(), 5);
    }

    #[test]
    fn replica_events_carry_the_replica_index() {
        let mut r = Recorder::new(7, TimeSource::Logical, 8);
        r.set_tick(2);
        r.crashed();
        r.recovered();
        r.sync_pull();
        r.malformed();
        r.folded(40);
        let events = r.events();
        assert!(events.iter().all(|e| e.origin == 7 && e.at == 2));
        assert_eq!(events.last().map(|e| e.seq), Some(40));
    }

    #[test]
    fn revocations_are_counted_with_their_depth() {
        let mut r = Recorder::new(3, TimeSource::Logical, 8);
        r.set_tick(5);
        r.revoked(2);
        r.revoked(7);
        let report = r.report();
        assert_eq!(report.revocations(), 2);
        assert_eq!(report.revocation_depth.max(), 7);
        let last = r.events().last().copied();
        assert_eq!(
            last.map(|e| (e.kind, e.origin, e.seq)),
            Some((EventKind::Revoked, 3, 7))
        );
    }
}
