//! Timers under load on the socket engine: a client submits through one
//! session every facade tick (1 ms) — far more often than the 5 ms timer
//! tick — for 60 timer ticks, so every node's inbox always holds a fresh
//! event. The nodes' `on_timer` must still fire on schedule: Algorithm 5's
//! leader keeps promoting, so the first op is applied at every replica
//! while the flood is still on, and the heartbeats that now flow under
//! load must not get the leader p0 suspected.

use std::time::Duration;

use ec_detectors::HeartbeatConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, NetEngine};
use ec_runtime::RuntimeConfig;
use ec_sim::ProcessId;

const TIMER_TICK_MS: u64 = 5;
const FLOOD_TICKS: u64 = 60 * TIMER_TICK_MS;
const CHUNK_TICKS: u64 = 10 * TIMER_TICK_MS;

#[test]
fn net_timers_fire_on_schedule_under_a_flood_of_inputs() {
    let engine = NetEngine::default().runtime_config(RuntimeConfig {
        tick: Duration::from_millis(TIMER_TICK_MS),
        heartbeat: HeartbeatConfig {
            period: 2,
            suspect_after: 20,
        },
    });
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3).deploy(&engine);
    let replicas: Vec<ProcessId> = cluster.replica_ids().collect();
    // one causal chain entering at a follower: every later op depends on
    // the first, so "applied ≥ 1" means the first op was applied
    let mut session = cluster.session_at(ProcessId::new(1));

    let start = cluster.clock() + 1;
    let mut chunk_fires = Vec::new();
    let mut fires_at_chunk_start = cluster.metrics().timer_fires;
    let mut first_op_everywhere = false;
    for t in start..start + FLOOD_TICKS {
        let key = format!("k{}", t % 16);
        cluster.submit(&mut session, KvStore::put(&key, "v"), t);
        if (t - start + 1).is_multiple_of(CHUNK_TICKS) {
            let fires = cluster.metrics().timer_fires;
            chunk_fires.push(fires - fires_at_chunk_start);
            fires_at_chunk_start = fires;
        }
        first_op_everywhere =
            first_op_everywhere || replicas.iter().all(|&p| cluster.applied(p) >= 1);
    }
    let leaders = cluster.leader_estimates();
    let drained = cluster.run_until_applied(FLOOD_TICKS as usize, start + FLOOD_TICKS + 10_000);
    let report = cluster.finish();

    // 10 timer ticks × 3 nodes = 30 fires per chunk on schedule
    assert_eq!(chunk_fires.len(), 6);
    for (i, fires) in chunk_fires.iter().enumerate() {
        assert!(*fires >= 5, "timer starved in chunk {i}: {chunk_fires:?}");
    }
    assert!(
        first_op_everywhere,
        "the first op was not applied everywhere while inputs kept arriving"
    );
    assert!(
        drained,
        "the flood was not applied everywhere after it ended"
    );
    assert!(report.all_converged(), "{report}");
    assert!(!leaders.is_empty(), "every node reports its initial leader");
    for (p, ms, leader) in leaders {
        assert_eq!(leader, ProcessId::new(0), "{p} changed leader at {ms} ms");
    }
}
