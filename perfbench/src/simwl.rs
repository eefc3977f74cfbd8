//! The simulator workloads (`sim-history`, `sim-compact`): a pre-submitted
//! zipf put mix served by a sharded cluster on the deterministic
//! simulator, as fast as the host can step it.
//!
//! Each put names the previous put to its key as its causal predecessor, so
//! every valid delivery order applies a key's puts in submission order and
//! the final state of each shard is exactly the sequential replay of its
//! puts. Every op is due the moment submission starts. The serving phase
//! steps all shards in chunks of [`CHUNK_TICKS`] and reads the applied
//! counters after each chunk, so the time until each op is visible is
//! known to one chunk.

use std::time::Instant;

use ec_core::etob_omega::EtobConfig;
use ec_core::workload::KvOp;
use ec_replication::{
    Consistency, KvStore, Parallelism, ReplicaCommand, ShardConfig, ShardedCluster,
    ShardedClusterBuilder,
};

use crate::loadgen::Planned;
use crate::oracle;
use crate::trace;

/// The sharded key-value service every simulator workload runs.
type Sharded = ShardedCluster<KvStore>;

/// Shards of the simulator workloads.
pub const SHARDS: usize = 8;
/// Replicas per shard.
pub const REPLICAS: usize = 3;
/// History per shard (the mix spreads ops over the shards by key hash, so
/// this is the average).
pub const OPS_PER_SHARD: usize = 2_560;
/// Clients of the mix; op `i` enters its shard at replica `i mod 3`.
pub const CLIENTS: usize = 3;
/// Compaction window of `sim-compact`, in delivered entries.
pub const COMPACT_AFTER: u64 = 64;
/// Stepping granularity of the serving phase, in ticks.
const CHUNK_TICKS: u64 = 100;
/// Give-up horizon, in ticks past the last submission.
const DRAIN_TICKS: u64 = 50_000;

/// One simulator workload.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Algorithm 5 configuration.
    pub etob: EtobConfig,
    /// Shards.
    pub shards: usize,
}

impl SimSpec {
    /// `sim-history` (`compact = false`) or `sim-compact`.
    pub fn mix(compact: bool) -> Self {
        let etob = EtobConfig::batched(5);
        SimSpec {
            etob: if compact {
                etob.with_compaction(COMPACT_AFTER)
            } else {
                etob
            },
            shards: SHARDS,
        }
    }

    /// Builds the cluster.
    pub fn build(&self, seed: u64, parallelism: Parallelism) -> Sharded {
        ShardedClusterBuilder::<KvStore>::new(ShardConfig {
            shards: self.shards,
            replicas_per_shard: REPLICAS,
            etob: self.etob,
            seed,
            ..Default::default()
        })
        .consistency(Consistency::Eventual)
        .parallelism(parallelism)
        .build()
    }
}

/// The put mix of the simulator workloads.
pub fn ops(seed: u64) -> Vec<KvOp> {
    crate::loadgen::zipf_puts(seed, SHARDS * OPS_PER_SHARD, CLIENTS)
}

/// The final snapshot every replica of each shard must reach: the
/// sequential replay of the shard's puts.
pub fn expected(ops: &[KvOp], plan: &[Planned], shards: usize) -> Vec<Vec<u8>> {
    (0..shards)
        .map(|s| {
            let commands: Vec<Vec<u8>> = ops
                .iter()
                .zip(plan)
                .filter(|(_, p)| p.shard == s)
                .map(|(op, _)| oracle::command(op))
                .collect();
            oracle::replay(commands.iter().map(Vec::as_slice))
        })
        .collect()
}

/// What one serving pass measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Build time, seconds.
    pub build_s: f64,
    /// Submitting the whole mix, seconds.
    pub submit_s: f64,
    /// Stepping, seconds.
    pub run_s: f64,
    /// Reading the applied counters, seconds.
    pub poll_s: f64,
    /// `finish`, seconds.
    pub finish_s: f64,
    /// Submission start → visible at every replica of the op's shard, ms.
    /// Every op is submitted before stepping starts, so these are points
    /// in the serving time, not per-op latencies.
    pub visible_ms: Vec<f64>,
    /// Submission start → applied at the most advanced replica of its
    /// shard (any replica, not the op's entry replica), ms.
    pub local_ms: Vec<f64>,
    /// Ops that never became visible everywhere.
    pub failed: u64,
    /// Hash of every final snapshot, in shard order.
    pub snapshot_hash: u64,
    /// Final snapshot of each shard, if its replicas agreed.
    pub shard_snapshots: Vec<Option<Vec<u8>>>,
    /// Deterministic counts of the run.
    pub counts: Counts,
    /// Submission start → each op's send, ms.
    pub send_ms: Vec<f64>,
    /// Timer fires per second while serving, and during an idle tail
    /// (when one is asked for).
    pub timer_fires_per_s: (f64, f64),
}

impl Served {
    /// Serving wall time: submission plus stepping plus polling.
    pub fn serving_s(&self) -> f64 {
        self.submit_s + self.run_s + self.poll_s
    }
}

/// Counts that are a pure function of the inputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Ops routed.
    pub ops: u64,
    /// Messages sent, all shards.
    pub messages: u64,
    /// Bytes sent (the simulator's byte model).
    pub bytes: u64,
    /// Timer fires, all shards.
    pub timer_fires: u64,
    /// `update` broadcasts.
    pub updates: u64,
    /// Digest pulls.
    pub sync_pulls: u64,
    /// Facade tick at which the last shard converged.
    pub converged_at: u64,
    /// Submit → deliver ticks, p50 and p99.
    pub deliver_ticks: (u64, u64),
    /// Snapshot hash.
    pub snapshot_hash: u64,
}

fn timer_fires(cluster: &Sharded) -> u64 {
    (0..cluster.num_shards())
        .map(|s| cluster.cluster(s).metrics().timer_fires)
        .sum()
}

/// Builds a cluster, serves `ops` as routed by `plan`, stops it, and
/// collects what it measured. With `idle_ticks > 0` the drained cluster
/// keeps stepping that long to sample its idle timers.
pub fn serve(
    spec: &SimSpec,
    seed: u64,
    ops: &[KvOp],
    plan: &[Planned],
    parallelism: Parallelism,
    idle_ticks: u64,
) -> Served {
    let mut out = Served::default();
    let commands: Vec<ReplicaCommand> = ops
        .iter()
        .zip(plan)
        .map(|(op, p)| ReplicaCommand::with_deps(oracle::command(op), p.deps.clone()))
        .collect();
    let started = Instant::now();
    let mut cluster = spec.build(seed, parallelism);
    out.build_s = started.elapsed().as_secs_f64();

    let t0 = Instant::now();
    out.send_ms.reserve(ops.len());
    for ((op, p), command) in ops.iter().zip(plan).zip(commands) {
        trace::timed("cluster.submit", || {
            cluster.submit_keyed(&op.key, command, op.at, Some(p.entry))
        });
        out.send_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.submit_s = t0.elapsed().as_secs_f64();

    let shards = cluster.num_shards();
    let routed: Vec<u64> = (0..shards).map(|s| cluster.ops_routed(s)).collect();
    let last_at = ops.iter().map(|op| op.at).max().unwrap_or(0);
    let mut seen_all = vec![0u64; shards];
    let mut seen_any = vec![0u64; shards];
    let mut clock = 0u64;
    let fires_before = timer_fires(&cluster);
    loop {
        clock += CHUNK_TICKS;
        let step = Instant::now();
        cluster.run_until(clock);
        let poll = Instant::now();
        out.run_s += (poll - step).as_secs_f64();
        let since_t0 = t0.elapsed().as_secs_f64() * 1e3;
        for s in 0..shards {
            let applied = trace::timed("cluster.applied", || cluster.applied(s));
            let lo = (applied.iter().copied().min().unwrap_or(0) as u64).min(routed[s]);
            let hi = (applied.iter().copied().max().unwrap_or(0) as u64).min(routed[s]);
            for _ in seen_all[s]..lo {
                out.visible_ms.push(since_t0);
            }
            for _ in seen_any[s]..hi {
                out.local_ms.push(since_t0);
            }
            seen_all[s] = seen_all[s].max(lo);
            seen_any[s] = seen_any[s].max(hi);
        }
        out.poll_s += poll.elapsed().as_secs_f64();
        if seen_all == routed || clock > last_at + DRAIN_TICKS {
            break;
        }
    }
    let serve_end = Instant::now();
    out.failed = routed.iter().zip(&seen_all).map(|(r, s)| r - s).sum();
    if idle_ticks > 0 {
        let serving = timer_fires(&cluster) - fires_before;
        let idle = Instant::now();
        cluster.run_until(clock + idle_ticks);
        let idle_s = idle.elapsed().as_secs_f64();
        out.timer_fires_per_s = (
            serving as f64 / (serve_end - t0).as_secs_f64(),
            (timer_fires(&cluster) - fires_before - serving) as f64 / idle_s.max(1e-9),
        );
    }
    let sync_pulls = (0..shards).map(|s| cluster.cluster(s).sync_pulls()).sum();

    let finishing = Instant::now();
    let report = cluster.finish();
    out.finish_s = finishing.elapsed().as_secs_f64();
    out.snapshot_hash = oracle::hash(
        report
            .shards
            .iter()
            .flat_map(|s| s.snapshots.iter().map(Vec::as_slice)),
    );
    out.shard_snapshots = report
        .shards
        .iter()
        .map(|s| s.snapshots_agree().then(|| s.snapshots[0].clone()))
        .collect();
    let telemetry = report.telemetry();
    out.counts = Counts {
        ops: report.total_ops_routed(),
        messages: report.totals.messages_sent,
        bytes: report.totals.bytes_sent,
        timer_fires: report.totals.timer_fires,
        updates: report.total_updates_sent(),
        sync_pulls,
        converged_at: report.converged_at().map_or(0, |t| t.as_u64()),
        deliver_ticks: (
            telemetry.submit_deliver.quantile(500),
            telemetry.submit_deliver.quantile(990),
        ),
        snapshot_hash: out.snapshot_hash,
    };
    out
}

/// Checks a pass: every op visible, every shard's replicas agreeing on the
/// sequential replay of its puts, and the same snapshot hash as the
/// sequential-stepping pass (`None` for the sequential pass itself).
pub fn check(
    served: &Served,
    expected: &[Vec<u8>],
    sequential_hash: Option<u64>,
) -> Result<(), String> {
    if served.failed > 0 {
        return Err(format!(
            "{} ops never became visible everywhere",
            served.failed
        ));
    }
    for (s, snapshot) in served.shard_snapshots.iter().enumerate() {
        match snapshot {
            None => return Err(format!("shard {s}'s replicas disagree")),
            Some(got) if Some(got) != expected.get(s) => {
                return Err(format!(
                    "shard {s}'s state is not the sequential replay of its puts"
                ))
            }
            Some(_) => {}
        }
    }
    if sequential_hash.is_some_and(|h| h != served.snapshot_hash) {
        return Err("Workers and Sequential stepping disagree on the snapshot hash".into());
    }
    Ok(())
}
