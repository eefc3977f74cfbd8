//! The open-loop workloads on the real-time engines (`net-eventual`,
//! `thread-eventual`): `Consistency::Eventual`, durable, on TCP nodes or
//! on in-process threads.
//!
//! One generator thread deploys the cluster through the unchanged
//! `ClusterBuilder`/`Cluster` facade, warms it up with a probe write, and
//! then drives one causally chained session at a fixed rate. Because the
//! session is chained, op `k` is applied at replica `p` exactly when
//! `applied(p) ≥ k`, so polling the facade's applied counters times every
//! op at every replica without any per-op acknowledgement.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ec_core::workload::KvOp;
use ec_replication::{
    Cluster, ClusterBuilder, Consistency, KvStore, NetEngine, ReplicaCommand, ThreadEngine,
};
use ec_sim::ProcessId;

use crate::loadgen::{self, OpenLoop};
use crate::oracle;
use crate::replay;
use crate::trace;

/// Offered rate of both open loops, operations per second.
pub const RATE: f64 = 500.0;
/// Replicas per cluster.
pub const REPLICAS: usize = 3;
/// Longest pause between two polls of the applied counters, so visibility
/// is timed to within about this much. Each poll reads every replica's
/// latest output through the facade (on the net engine: a lock and a copy
/// of the output), so polling much faster takes CPU from the nodes; the
/// traced run reports the share of the load the generator spends polling
/// (`cluster.applied_busy_pct`).
const POLL: Duration = Duration::from_millis(1);
/// How long the warm-up probe may take before the deployment counts as
/// broken.
const PROBE_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the drain after the load may take.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Timer-counter sampling period of a traced run.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// How long a traced run watches the drained cluster idle.
const IDLE_WINDOW: Duration = Duration::from_millis(100);

/// Which real engine a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `NetEngine`: one node per replica over loopback TCP, each with its
    /// own event loop.
    Net,
    /// `ThreadEngine`: in-process threads running the `ec-runtime` loop.
    Thread,
}

/// An eventually consistent cluster whose replicas persist under `dir`.
fn deploy(engine: Engine, dir: &Path) -> Cluster<KvStore> {
    let builder = ClusterBuilder::<KvStore>::new(REPLICAS)
        .consistency(Consistency::Eventual)
        .durable(dir);
    match engine {
        Engine::Net => builder.deploy(&NetEngine::new()),
        Engine::Thread => builder.deploy(&ThreadEngine::new()),
    }
}

/// A deployed, warmed-up cluster.
pub struct Deployed {
    cluster: Cluster<KvStore>,
    session: ec_replication::Session,
    /// When `deploy` returned; facade ticks are counted from here.
    epoch: Instant,
    /// Deploy plus probe, seconds.
    pub setup_s: f64,
    /// Deploy alone, seconds.
    pub deploy_s: f64,
    /// Commands submitted so far (the probe included).
    submitted: Vec<Vec<u8>>,
    dir: PathBuf,
}

/// Deploys a cluster and waits until a probe write is visible at every
/// replica.
pub fn setup(engine: Engine, dir: PathBuf) -> Result<Deployed, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let mut cluster = deploy(engine, &dir);
    let epoch = Instant::now();
    let deploy_s = (epoch - started).as_secs_f64();
    let mut session = cluster.session_at(ProcessId::new(0));
    let probe = KvStore::put("probe", "ready");
    cluster.submit(&mut session, probe.clone(), 0);
    while !cluster.replica_ids().all(|p| cluster.applied(p) >= 1) {
        if started.elapsed() > PROBE_TIMEOUT {
            return Err("the warm-up probe never became visible everywhere".into());
        }
        std::thread::sleep(POLL);
    }
    Ok(Deployed {
        cluster,
        session,
        epoch,
        setup_s: started.elapsed().as_secs_f64(),
        deploy_s,
        submitted: vec![probe],
        dir,
    })
}

/// Set-up timings of one deployment, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Deploy plus warm-up probe.
    pub setup_s: f64,
    /// Deploy alone.
    pub deploy_s: f64,
}

impl Deployed {
    /// The deployment's set-up timings.
    pub fn timing(&self) -> Setup {
        Setup {
            setup_s: self.setup_s,
            deploy_s: self.deploy_s,
        }
    }

    /// Stops the cluster, returning the final snapshots and how long
    /// stopping took; removes the run's directory.
    pub fn finish(self) -> (Vec<Vec<u8>>, f64) {
        let started = Instant::now();
        let report = self.cluster.finish();
        let finish_s = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&self.dir);
        let snapshots = report
            .shards
            .into_iter()
            .flat_map(|s| s.snapshots)
            .collect();
        (snapshots, finish_s)
    }
}

/// What one open-loop run measured.
#[derive(Debug)]
pub struct LoadRun {
    /// Operations scheduled.
    pub attempted: u64,
    /// Due time → visible at every replica, ms, for each visible op.
    pub visible_ms: Vec<f64>,
    /// Due time → applied at the entry replica, ms.
    pub local_ms: Vec<f64>,
    /// Visible ops ÷ (last visible − first due).
    pub ops_per_s: f64,
    /// Ops not visible everywhere when the drain ended.
    pub failed: u64,
    /// Generator lateness (send − due), ms, per op.
    pub lag_ms: Vec<f64>,
    /// Load start → end of the drain, seconds.
    pub served_s: f64,
    /// Timer fires per second during the load, and while the drained
    /// cluster sits idle (traced runs only).
    pub timer_fires_per_s: (f64, f64),
    /// Messages and bytes sent per op, malformed frames.
    pub transport: (f64, f64, f64),
    /// On-disk bytes of the run's directory per op.
    pub disk_bytes_per_op: f64,
    /// Final snapshots agreed and equalled the sequential replay.
    pub correct: Result<(), String>,
    /// Seconds to stop the cluster.
    pub finish_s: f64,
}

/// Per-replica first time each op was seen applied.
struct Visibility {
    seen: Vec<usize>,
    at: Vec<Vec<Instant>>,
}

impl Visibility {
    fn poll(&mut self, cluster: &Cluster<KvStore>, submitted: usize) {
        let now = Instant::now();
        for (p, seen) in self.seen.iter_mut().enumerate() {
            if *seen >= submitted {
                continue;
            }
            let applied = trace::timed("cluster.applied", || cluster.applied(ProcessId::new(p)));
            while *seen < applied.min(submitted) {
                self.at[p].push(now);
                *seen += 1;
            }
        }
    }
}

/// Counter samples `(when, timer fires)`.
fn rate(samples: &[(Instant, u64)]) -> f64 {
    match (samples.first(), samples.last()) {
        (Some(a), Some(b)) if b.0 > a.0 => (b.1 - a.1) as f64 / (b.0 - a.0).as_secs_f64(),
        _ => 0.0,
    }
}

/// Runs the open loop for `load` on a deployed cluster, drains it, stops
/// it and checks the outcome.
pub fn load(mut d: Deployed, seed: u64, load: Duration) -> LoadRun {
    let mut schedule = OpenLoop::new(RATE, load);
    let ops: Vec<KvOp> = loadgen::zipf_puts(seed, schedule.total() as usize, 1);
    let base = d.submitted.len();
    let mut vis = Visibility {
        seen: vec![base; REPLICAS],
        at: vec![Vec::new(); REPLICAS],
    };
    let traced = trace::enabled();
    let mut timer_samples = (Vec::new(), Vec::new());
    let mut next_sample = Instant::now();
    let mut lag_ms = Vec::with_capacity(ops.len());
    let start = Instant::now();
    loop {
        let now = Instant::now();
        for k in schedule.due_by(now - start) {
            let due = start + schedule.due(k);
            lag_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
            let at = (due - d.epoch).as_millis() as u64;
            let command = ReplicaCommand::new(oracle::command(&ops[k as usize]));
            d.submitted.push(oracle::command(&ops[k as usize]));
            trace::timed("cluster.submit", || {
                d.cluster.submit(&mut d.session, command, at)
            });
        }
        vis.poll(&d.cluster, d.submitted.len());
        if traced && now >= next_sample {
            timer_samples.0.push((now, d.cluster.metrics().timer_fires));
            next_sample = now + SAMPLE_EVERY;
        }
        let Some(due) = schedule.next_due() else {
            break;
        };
        let wait = (start + due).saturating_duration_since(Instant::now());
        std::thread::sleep(wait.min(POLL));
    }
    let load_end = Instant::now();
    if traced {
        timer_samples
            .0
            .push((load_end, d.cluster.metrics().timer_fires));
    }
    let total = d.submitted.len();
    while vis.seen.iter().any(|&s| s < total) && load_end.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(POLL);
        vis.poll(&d.cluster, total);
    }
    let served_s = start.elapsed().as_secs_f64();
    if traced {
        // the drained cluster, left idle
        timer_samples
            .1
            .push((Instant::now(), d.cluster.metrics().timer_fires));
        std::thread::sleep(IDLE_WINDOW);
        timer_samples
            .1
            .push((Instant::now(), d.cluster.metrics().timer_fires));
    }
    let metrics = d.cluster.metrics();
    let attempted = ops.len() as u64;
    let transport = (
        metrics.messages_sent as f64 / attempted as f64,
        metrics.bytes_sent as f64 / attempted as f64,
        d.cluster.malformed_frames() as f64,
    );
    let disk = replay::dir_bytes(&d.dir) as f64 / attempted as f64;

    let mut run = LoadRun {
        attempted,
        lag_ms,
        served_s,
        transport,
        disk_bytes_per_op: disk,
        timer_fires_per_s: (rate(&timer_samples.0), rate(&timer_samples.1)),
        visible_ms: Vec::new(),
        local_ms: Vec::new(),
        ops_per_s: 0.0,
        failed: 0,
        correct: Ok(()),
        finish_s: 0.0,
    };
    let visible = vis.at.iter().map(Vec::len).min().unwrap_or(0);
    run.failed = attempted - visible as u64;
    // op 0 is due at `start`
    let mut last_visible = start;
    for k in 0..visible {
        let due = start + schedule.due(k as u64);
        let at = (0..REPLICAS).map(|p| vis.at[p][k]).max().unwrap_or(due);
        last_visible = last_visible.max(at);
        run.visible_ms.push((at - due).as_secs_f64() * 1e3);
        run.local_ms.push((vis.at[0][k] - due).as_secs_f64() * 1e3);
    }
    run.ops_per_s = visible as f64 / (last_visible - start).as_secs_f64().max(1e-9);
    let expected = oracle::replay(d.submitted.iter().map(Vec::as_slice));
    let (snapshots, finish_s) = d.finish();
    run.finish_s = finish_s;
    run.correct = if run.failed > 0 {
        Err(format!(
            "{} ops never became visible everywhere",
            run.failed
        ))
    } else if let Some(p) = snapshots.iter().position(|s| *s != expected) {
        Err(format!(
            "replica {p}'s final state is not the sequential replay of the session"
        ))
    } else {
        Ok(())
    };
    run
}
