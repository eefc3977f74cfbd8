//! The benchmark's own load generator: seeded inputs and the open-loop
//! schedule.
//!
//! Every workload draws its operations from one seeded zipf put mix, so
//! the same seed gives the same inputs. The open loop stamps each
//! operation with the moment it was due and never skips or delays the
//! schedule: when the system (or the generator) stalls, the overdue
//! operations go out at once, each still timed from its own due time.
//! A stall therefore shows up as latency, not as fewer operations sent.

use std::collections::HashMap;
use std::ops::Range;
use std::time::Duration;

use ec_core::types::MsgId;
use ec_core::workload::{KvOp, KvWorkload, ZipfMix};
use ec_replication::shard_of;
use ec_sim::ProcessId;

/// Keyspace of every workload's put mix.
pub const KEYS: usize = 1_024;
/// Zipf exponent of the key popularity.
pub const SKEW: f64 = 0.99;

/// `ops` seeded zipf puts over [`KEYS`] keys from `clients` clients, one
/// per tick from tick 10. Values are unique (`v<index>`), so the final
/// state depends on the order the puts were applied in.
pub fn zipf_puts(seed: u64, ops: usize, clients: usize) -> Vec<KvOp> {
    KvWorkload::zipf(ZipfMix {
        keys: KEYS,
        ops,
        skew: SKEW,
        clients,
        start: 10,
        spacing: 1,
        seed,
        del_every: 0,
    })
    .ops()
    .to_vec()
}

/// How a workload's puts are causally linked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chain {
    /// Each put depends on the previous put to the same key, so every key's
    /// puts apply in submission order under any valid delivery order.
    PerKey,
    /// One session through replica 0: each put depends on the previous one.
    Session,
}

/// Where an op enters and what it depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    /// The replica group (shard) the op's key routes to.
    pub shard: usize,
    /// The entry replica within the group.
    pub entry: usize,
    /// The identifier the facade assigns: per group and entry replica,
    /// sequence numbers count up from 1 in submission order.
    pub id: MsgId,
    /// The op's causal predecessors.
    pub deps: Vec<MsgId>,
}

/// Routes `ops` over `shards` groups of `replicas` replicas and links them
/// by `chain`.
pub fn plan(ops: &[KvOp], shards: usize, replicas: usize, chain: Chain) -> Vec<Planned> {
    let mut next = vec![vec![0u64; replicas]; shards];
    let mut last_of_key: HashMap<&str, MsgId> = HashMap::new();
    let mut last: Option<MsgId> = None;
    ops.iter()
        .map(|op| {
            let shard = shard_of(&op.key, shards);
            let entry = match chain {
                Chain::PerKey => op.client % replicas,
                Chain::Session => 0,
            };
            next[shard][entry] += 1;
            let id = MsgId::new(ProcessId::new(entry), next[shard][entry]);
            let previous = match chain {
                Chain::PerKey => last_of_key.insert(&op.key, id),
                Chain::Session => last.replace(id),
            };
            Planned {
                shard,
                entry,
                id,
                deps: previous.into_iter().collect(),
            }
        })
        .collect()
}

/// A fixed-rate open-loop schedule of `total` operations.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    period: Duration,
    total: u64,
    next: u64,
}

impl OpenLoop {
    /// `rate` operations per second for `duration`.
    pub fn new(rate: f64, duration: Duration) -> Self {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        OpenLoop {
            period: Duration::from_secs_f64(1.0 / rate),
            total: (duration.as_secs_f64() * rate).floor() as u64,
            next: 0,
        }
    }

    /// Operations in the whole schedule.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// When operation `k` is due, measured from the start of the load.
    pub fn due(&self, k: u64) -> Duration {
        self.period * u32::try_from(k).unwrap_or(u32::MAX)
    }

    /// The due time of the next operation not yet issued.
    pub fn next_due(&self) -> Option<Duration> {
        (self.next < self.total).then(|| self.due(self.next))
    }

    /// Issues every operation due by `elapsed` that has not been issued
    /// yet, and returns their indices.
    pub fn due_by(&mut self, elapsed: Duration) -> Range<u64> {
        let first = self.next;
        while self.next < self.total && self.due(self.next) <= elapsed {
            self.next += 1;
        }
        first..self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn the_schedule_is_fixed_by_rate_and_duration() {
        let lp = OpenLoop::new(500.0, Duration::from_secs(2));
        assert_eq!(lp.total(), 1_000);
        assert_eq!(lp.due(0), ms(0));
        assert_eq!(lp.due(1), ms(2));
        assert_eq!(lp.due(999), ms(1_998));
    }

    #[test]
    fn a_stall_shows_as_latency_not_as_fewer_sends() {
        let mut lp = OpenLoop::new(500.0, Duration::from_secs(1));
        let mut latencies = Vec::new();
        let mut sends = 0u64;
        // the generator wakes every 2 ms, except for one 200 ms stall
        let mut now = ms(0);
        while lp.next_due().is_some() {
            for k in lp.due_by(now) {
                sends += 1;
                latencies.push(now - lp.due(k));
            }
            now += if now == ms(100) { ms(200) } else { ms(2) };
        }
        assert_eq!(sends, 500, "every scheduled operation is sent");
        // the op due right after the stall began waited the whole stall
        assert_eq!(latencies[51], ms(198));
        let late = latencies.iter().filter(|l| **l > ms(0)).count();
        assert_eq!(
            late, 99,
            "each op due during the stall is timed from its due time"
        );
        assert_eq!(latencies.iter().max(), Some(&ms(198)));
    }

    #[test]
    fn nothing_is_issued_early() {
        let mut lp = OpenLoop::new(1_000.0, Duration::from_secs(1));
        assert_eq!(lp.due_by(Duration::from_micros(999)), 0..1);
        assert_eq!(lp.due_by(Duration::from_micros(999)), 1..1);
        assert_eq!(lp.next_due(), Some(ms(1)));
        assert_eq!(lp.due_by(ms(1)), 1..2);
    }

    #[test]
    fn the_put_mix_is_a_function_of_the_seed() {
        let a = zipf_puts(3, 200, 1);
        assert_eq!(a, zipf_puts(3, 200, 1));
        assert_ne!(a, zipf_puts(4, 200, 1));
        assert!(a.iter().all(|op| op.value.is_some() && op.client == 0));
    }

    #[test]
    fn plans_link_each_put_to_its_predecessor() {
        let ops = zipf_puts(5, 300, 3);
        let session = plan(&ops, 1, 3, Chain::Session);
        for (k, p) in session.iter().enumerate() {
            assert_eq!((p.shard, p.entry), (0, 0));
            assert_eq!(p.id, MsgId::new(ProcessId::new(0), k as u64 + 1));
            let want: Vec<MsgId> = (k > 0).then(|| session[k - 1].id).into_iter().collect();
            assert_eq!(p.deps, want);
        }
        let per_key = plan(&ops, 4, 3, Chain::PerKey);
        for (k, p) in per_key.iter().enumerate() {
            assert_eq!(p.shard, shard_of(&ops[k].key, 4));
            assert_eq!(p.entry, ops[k].client % 3);
            let before = (0..k).rev().find(|&j| ops[j].key == ops[k].key);
            assert_eq!(
                p.deps,
                before
                    .map(|j| per_key[j].id)
                    .into_iter()
                    .collect::<Vec<_>>()
            );
        }
        // ids are unique within a group
        let mut ids: Vec<_> = per_key.iter().map(|p| (p.shard, p.id)).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ops.len());
    }
}
