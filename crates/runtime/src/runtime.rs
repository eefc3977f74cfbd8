//! The thread-per-process runtime.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use ec_detectors::{HeartbeatConfig, HeartbeatMsg, HeartbeatOmega};
use ec_sim::{Actions, Algorithm, Context, Metrics, OutputHistory, ProcessId, Time};

use crate::clock::{Stopwatch, Ticker};

/// Configuration of a [`Runtime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Wall-clock period between `on_timer` calls at each process.
    pub tick: Duration,
    /// Heartbeat-based Ω configuration (periods are in ticks).
    pub heartbeat: HeartbeatConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            tick: Duration::from_millis(5),
            heartbeat: HeartbeatConfig {
                period: 2,
                suspect_after: 5,
            },
        }
    }
}

type Channel<A> = (Sender<Envelope<A>>, Receiver<Envelope<A>>);

/// How a process derives the failure-detector value its algorithm queries
/// from the local heartbeat module's current leader estimate: a pure function
/// of `(leader, n)`. The identity map realizes Ω; pairing the leader with a
/// static quorum realizes the Ω + Σ the strongly consistent baseline needs.
type FdDerive<F> = Arc<dyn Fn(ProcessId, usize) -> F + Send + Sync>;

enum Envelope<A: Algorithm> {
    App { from: ProcessId, msg: A::Msg },
    Heartbeat { from: ProcessId, msg: HeartbeatMsg },
    Input(A::Input),
    Crash,
}

/// What a run collected: every output of every process, with the wall-clock
/// milliseconds (since runtime start) at which it was produced, the leader
/// estimates of the heartbeat Ω modules, the application-message counters,
/// and the final automaton state of every process.
pub struct RuntimeReport<A: Algorithm> {
    /// Number of processes the runtime ran.
    pub n: usize,
    /// Application outputs as `(process, elapsed_ms, output)`.
    pub outputs: Vec<(ProcessId, u64, A::Output)>,
    /// Leader estimates as `(process, elapsed_ms, leader)`.
    pub leaders: Vec<(ProcessId, u64, ProcessId)>,
    /// The final automaton of each process, harvested when its thread
    /// stopped. A crashed process contributes the state it had at the crash.
    pub final_states: Vec<Option<A>>,
    /// Application-message counters (heartbeat traffic of the Ω modules is
    /// not counted; `timer_fires` counts the periodic ticks).
    pub metrics: Metrics,
}

impl<A: Algorithm> RuntimeReport<A> {
    /// The last output of a process, if any.
    pub fn last_output_of(&self, p: ProcessId) -> Option<&A::Output> {
        self.outputs
            .iter()
            .rev()
            .find(|(q, _, _)| *q == p)
            .map(|(_, _, o)| o)
    }

    /// The last leader estimate of a process, if any.
    pub fn last_leader_of(&self, p: ProcessId) -> Option<ProcessId> {
        self.leaders
            .iter()
            .rev()
            .find(|(q, _, _)| *q == p)
            .map(|(_, _, l)| *l)
    }

    /// The final automaton state of process `p`.
    pub fn final_state_of(&self, p: ProcessId) -> Option<&A> {
        self.final_states.get(p.index()).and_then(Option::as_ref)
    }

    /// The outputs as an [`OutputHistory`], with wall-clock milliseconds
    /// mapped to [`Time`] values at `ms_per_tick` milliseconds per tick —
    /// the bridge that lets the simulator's history-based checkers and
    /// convergence reports run over a threaded execution.
    pub fn output_history(&self, ms_per_tick: u64) -> OutputHistory<A::Output> {
        let scale = ms_per_tick.max(1);
        let mut history = OutputHistory::new(self.n);
        for (p, ms, out) in &self.outputs {
            history.record(*p, Time::new(ms / scale), out.clone());
        }
        history
    }
}

impl<A: Algorithm> fmt::Debug for RuntimeReport<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeReport")
            .field("n", &self.n)
            .field("outputs", &self.outputs.len())
            .field("leaders", &self.leaders.len())
            .field(
                "final_states",
                &self.final_states.iter().filter(|s| s.is_some()).count(),
            )
            .field("metrics", &self.metrics)
            .finish()
    }
}

struct Shared<A: Algorithm> {
    outputs: Mutex<Vec<(ProcessId, u64, A::Output)>>,
    leaders: Mutex<Vec<(ProcessId, u64, ProcessId)>>,
    final_states: Mutex<Vec<Option<A>>>,
    metrics: Mutex<Metrics>,
    stopwatch: Stopwatch,
    stop: AtomicBool,
}

/// A running set of processes executing an [`Algorithm`] as one OS thread
/// each, with the failure-detector value of every step derived from a
/// per-process heartbeat Ω module.
///
/// [`Runtime::spawn`] covers algorithms whose failure detector *is* Ω
/// (`Fd = ProcessId`); [`Runtime::spawn_with_fd`] additionally supports any
/// detector value derivable from the current leader estimate, e.g. the
/// `(leader, quorum)` pairs of the Ω + Σ baseline.
pub struct Runtime<A: Algorithm> {
    n: usize,
    senders: Vec<Sender<Envelope<A>>>,
    shared: Arc<Shared<A>>,
    handles: Vec<JoinHandle<()>>,
}

impl<A: Algorithm> fmt::Debug for Runtime<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("n", &self.n)
            .field("alive_threads", &self.handles.len())
            .finish()
    }
}

impl<A> Runtime<A>
where
    A: Algorithm + Send + 'static,
    A::Msg: Send,
    A::Input: Send,
    A::Output: Send,
{
    /// Spawns `n` processes running the algorithm produced by `factory`,
    /// with each step's failure-detector value computed by `derive` from the
    /// local heartbeat module's current leader estimate and `n`.
    pub fn spawn_with_fd<F, D>(n: usize, config: RuntimeConfig, mut factory: F, derive: D) -> Self
    where
        F: FnMut(ProcessId) -> A,
        D: Fn(ProcessId, usize) -> A::Fd + Send + Sync + 'static,
    {
        assert!(n >= 2, "the system model requires at least two processes");
        let shared = Arc::new(Shared::<A> {
            outputs: Mutex::new(Vec::new()),
            leaders: Mutex::new(Vec::new()),
            final_states: Mutex::new((0..n).map(|_| None).collect()),
            metrics: Mutex::new(Metrics::new(n)),
            stopwatch: Stopwatch::start(),
            stop: AtomicBool::new(false),
        });
        let derive: FdDerive<A::Fd> = Arc::new(derive);
        let channels: Vec<Channel<A>> = (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Envelope<A>>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let mut handles = Vec::with_capacity(n);
        for (i, (_, receiver)) in channels.into_iter().enumerate() {
            let me = ProcessId::new(i);
            let algorithm = factory(me);
            let peer_senders = senders.clone();
            let shared_ref = Arc::clone(&shared);
            let derive_ref = Arc::clone(&derive);
            handles.push(std::thread::spawn(move || {
                let final_state = process_loop(
                    me,
                    n,
                    algorithm,
                    receiver,
                    peer_senders,
                    Arc::clone(&shared_ref),
                    config,
                    derive_ref,
                );
                shared_ref.final_states.lock()[me.index()] = Some(final_state);
            }));
        }
        Runtime {
            n,
            senders,
            shared,
            handles,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Submits an application input to process `p`.
    pub fn submit(&self, p: ProcessId, input: A::Input) {
        // sending to a crashed process is a no-op, like in the model
        let _ = self.senders[p.index()].send(Envelope::Input(input));
    }

    /// Crashes process `p`: its thread stops taking steps and stops sending
    /// heartbeats, so the other processes' Ω modules eventually elect a new
    /// leader.
    pub fn crash(&self, p: ProcessId) {
        let _ = self.senders[p.index()].send(Envelope::Crash);
    }

    /// Lets the system run for the given wall-clock duration.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// The most recent output of process `p`, observed live (without
    /// stopping the run) — how service facades poll replica progress.
    pub fn latest_output_of(&self, p: ProcessId) -> Option<A::Output> {
        self.shared
            .outputs
            .lock()
            .iter()
            .rev()
            .find(|(q, _, _)| *q == p)
            .map(|(_, _, o)| o.clone())
    }

    /// A snapshot of every `(process, elapsed_ms, output)` produced so far.
    pub fn outputs_so_far(&self) -> Vec<(ProcessId, u64, A::Output)> {
        self.shared.outputs.lock().clone()
    }

    /// A snapshot of every `(process, elapsed_ms, leader)` estimate the
    /// heartbeat Ω modules have output so far.
    pub fn leaders_so_far(&self) -> Vec<(ProcessId, u64, ProcessId)> {
        self.shared.leaders.lock().clone()
    }

    /// A snapshot of the application-message counters so far.
    pub fn metrics(&self) -> Metrics {
        self.shared.metrics.lock().clone()
    }

    /// Milliseconds elapsed since the runtime was spawned.
    pub fn elapsed_ms(&self) -> u64 {
        self.shared.stopwatch.elapsed_ms()
    }

    /// Stops all processes and returns everything they output, together with
    /// the final automaton state of every process.
    pub fn shutdown(self) -> RuntimeReport<A> {
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            let _ = handle.join();
        }
        // One lock at a time: building the report struct-literal-style would
        // hold all four guards simultaneously for the whole statement.
        let outputs = std::mem::take(&mut *self.shared.outputs.lock());
        let leaders = std::mem::take(&mut *self.shared.leaders.lock());
        let final_states = std::mem::take(&mut *self.shared.final_states.lock());
        let metrics = self.shared.metrics.lock().clone();
        RuntimeReport {
            n: self.n,
            outputs,
            leaders,
            final_states,
            metrics,
        }
    }
}

impl<A> Runtime<A>
where
    A: Algorithm<Fd = ProcessId> + Send + 'static,
    A::Msg: Send,
    A::Input: Send,
    A::Output: Send,
{
    /// Spawns `n` processes running the algorithm produced by `factory`,
    /// with Ω provided directly by the per-process heartbeat modules.
    pub fn spawn<F>(n: usize, config: RuntimeConfig, factory: F) -> Self
    where
        F: FnMut(ProcessId) -> A,
    {
        Self::spawn_with_fd(n, config, factory, |leader, _n| leader)
    }
}

#[allow(clippy::too_many_arguments)]
fn process_loop<A>(
    me: ProcessId,
    n: usize,
    mut algorithm: A,
    receiver: Receiver<Envelope<A>>,
    senders: Vec<Sender<Envelope<A>>>,
    shared: Arc<Shared<A>>,
    config: RuntimeConfig,
    derive: FdDerive<A::Fd>,
) -> A
where
    A: Algorithm,
{
    let mut omega = HeartbeatOmega::new(me, n, config.heartbeat);
    let mut tick: u64 = 0;

    // on_start of the heartbeat module and of the application
    let hb_actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| a.on_start(ctx));
    dispatch_hb(me, hb_actions, &senders, &shared);
    let fd = derive(omega.leader(), n);
    let app_actions = run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| a.on_start(ctx));
    dispatch_app(me, app_actions, &senders, &shared);

    let mut ticker = Ticker::start(config.tick);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return algorithm;
        }
        if ticker.fire() {
            tick += 1;
            shared.metrics.lock().timer_fires += 1;
            let hb_actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| a.on_timer(ctx));
            dispatch_hb(me, hb_actions, &senders, &shared);
            let fd = derive(omega.leader(), n);
            let app_actions =
                run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| a.on_timer(ctx));
            dispatch_app(me, app_actions, &senders, &shared);
        }
        let envelope = match receiver.recv_timeout(ticker.wait()) {
            Ok(envelope) => envelope,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return algorithm,
        };
        match envelope {
            Envelope::Crash => return algorithm,
            Envelope::Heartbeat { from, msg } => {
                let actions = run_handler(&mut omega, me, n, (), tick, |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
                dispatch_hb(me, actions, &senders, &shared);
            }
            Envelope::App { from, msg } => {
                {
                    let mut metrics = shared.metrics.lock();
                    metrics.messages_delivered += 1;
                    metrics.bytes_delivered += A::wire_size(&msg);
                }
                let fd = derive(omega.leader(), n);
                let actions = run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| {
                    a.on_message(from, msg, ctx)
                });
                dispatch_app(me, actions, &senders, &shared);
            }
            Envelope::Input(input) => {
                shared.metrics.lock().inputs += 1;
                let fd = derive(omega.leader(), n);
                let actions = run_handler(&mut algorithm, me, n, fd, tick, |a, ctx| {
                    a.on_input(input, ctx)
                });
                dispatch_app(me, actions, &senders, &shared);
            }
        }
    }
}

/// Runs one handler invocation of `algorithm` outside the simulator: builds
/// a [`Context`] at logical tick `tick` with failure-detector value `fd`,
/// applies `handler`, and returns the collected [`Actions`] for the caller
/// to dispatch over whatever links it owns. This is the step primitive both
/// the in-process thread runtime and the socket-backed net engine drive
/// their event loops with.
pub fn run_handler<A: Algorithm + ?Sized, F>(
    algorithm: &mut A,
    me: ProcessId,
    n: usize,
    fd: A::Fd,
    tick: u64,
    handler: F,
) -> Actions<A>
where
    F: FnOnce(&mut A, &mut Context<'_, A>),
{
    let mut actions = Actions::<A>::new();
    {
        let mut ctx = Context::new(me, Time::new(tick), n, fd, &mut actions);
        handler(algorithm, &mut ctx);
    }
    actions
}

fn dispatch_app<A: Algorithm>(
    me: ProcessId,
    actions: Actions<A>,
    senders: &[Sender<Envelope<A>>],
    shared: &Arc<Shared<A>>,
) {
    let elapsed = shared.stopwatch.elapsed_ms();
    {
        let mut metrics = shared.metrics.lock();
        for (_, msg) in &actions.sends {
            metrics.record_send(me);
            metrics.bytes_sent += A::wire_size(msg);
        }
        metrics.outputs += actions.outputs.len() as u64;
    }
    for (to, msg) in actions.sends {
        if let Some(sender) = senders.get(to.index()) {
            let _ = sender.send(Envelope::App { from: me, msg });
        }
    }
    let mut outputs = shared.outputs.lock();
    for out in actions.outputs {
        outputs.push((me, elapsed, out));
    }
    // timer requests are satisfied by the periodic tick
}

/// Sends the heartbeat module's messages and records its leader outputs
/// (the initial estimate, then every change).
fn dispatch_hb<A: Algorithm>(
    me: ProcessId,
    actions: Actions<HeartbeatOmega>,
    senders: &[Sender<Envelope<A>>],
    shared: &Arc<Shared<A>>,
) {
    for (to, msg) in actions.sends {
        if let Some(sender) = senders.get(to.index()) {
            let _ = sender.send(Envelope::Heartbeat { from: me, msg });
        }
    }
    if actions.outputs.is_empty() {
        return;
    }
    let elapsed = shared.stopwatch.elapsed_ms();
    let mut all = shared.leaders.lock();
    for leader in actions.outputs {
        all.push((me, elapsed, leader));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::etob_omega::{EtobConfig, EtobOmega};
    use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
    use ec_core::types::{delivered_sequences, EtobBroadcast};
    use ec_sim::ProcessSet;
    use std::time::Instant;

    fn config() -> RuntimeConfig {
        RuntimeConfig {
            tick: Duration::from_millis(2),
            heartbeat: HeartbeatConfig {
                period: 2,
                suspect_after: 10,
            },
        }
    }

    #[test]
    fn threaded_etob_delivers_everything_in_the_same_order() {
        let n = 3;
        let runtime = Runtime::spawn(n, config(), |p| EtobOmega::new(p, EtobConfig::default()));
        for k in 0..5u64 {
            runtime.submit(
                ProcessId::new((k % 3) as usize),
                EtobBroadcast::new(ProcessId::new((k % 3) as usize), k + 1, vec![k as u8]),
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        runtime.run_for(Duration::from_millis(300));
        let report = runtime.shutdown();
        // every process delivered all five messages, in the same order
        let sequences = delivered_sequences(&report.output_history(1));
        let reference: Vec<_> = sequences
            .last(ProcessId::new(0))
            .expect("p0 delivered")
            .iter()
            .map(|m| m.id)
            .collect();
        assert_eq!(reference.len(), 5);
        for p in (1..n).map(ProcessId::new) {
            let seq: Vec<_> = sequences
                .last(p)
                .expect("delivered")
                .iter()
                .map(|m| m.id)
                .collect();
            assert_eq!(seq, reference, "{p} diverged");
        }
        // the heartbeat Ω elected p0 everywhere
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(report.last_leader_of(p), Some(ProcessId::new(0)));
        }
        // the final automaton state is harvested and matches the outputs
        for p in (0..n).map(ProcessId::new) {
            let final_state = report.final_state_of(p).expect("state harvested");
            assert_eq!(final_state.delivered().len(), 5, "{p}");
        }
        // app messages were counted
        assert!(report.metrics.messages_sent > 0);
        assert!(report.metrics.messages_delivered > 0);
        assert_eq!(report.metrics.inputs, 5);
        // the output history bridge reproduces the last outputs
        let history = report.output_history(1);
        assert_eq!(
            history.last(ProcessId::new(0)),
            report.last_output_of(ProcessId::new(0))
        );
    }

    #[test]
    fn leader_crash_is_survived_by_the_threaded_runtime() {
        let n = 3;
        let runtime = Runtime::spawn(n, config(), |p| EtobOmega::new(p, EtobConfig::default()));
        runtime.submit(
            ProcessId::new(1),
            EtobBroadcast::new(ProcessId::new(1), 1, b"before".to_vec()),
        );
        runtime.run_for(Duration::from_millis(150));
        runtime.crash(ProcessId::new(0));
        runtime.run_for(Duration::from_millis(250));
        let origin = ProcessId::new(2);
        runtime.submit(origin, EtobBroadcast::new(origin, 99, b"after".to_vec()));
        runtime.run_for(Duration::from_millis(300));
        let report = runtime.shutdown();
        let sequences = delivered_sequences(&report.output_history(1));
        // the survivors eventually elected p1 and still deliver new messages
        for p in [ProcessId::new(1), ProcessId::new(2)] {
            assert_eq!(report.last_leader_of(p), Some(ProcessId::new(1)), "{p}");
            let delivered = sequences.last(p).expect("delivered something");
            assert!(
                delivered.iter().any(|m| &m.payload[..] == b"after"),
                "{p} did not deliver the post-crash broadcast"
            );
        }
        assert!(format!("{report:?}").contains("RuntimeReport"));
    }

    #[test]
    fn live_accessors_observe_a_run_in_flight() {
        let n = 2;
        let runtime = Runtime::spawn(n, config(), |p| EtobOmega::new(p, EtobConfig::default()));
        runtime.submit(
            ProcessId::new(0),
            EtobBroadcast::new(ProcessId::new(0), 1, b"live".to_vec()),
        );
        // poll instead of a fixed sleep so the test is robust on slow machines
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(out) = runtime.latest_output_of(ProcessId::new(1)) {
                if out.end() > 0 {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "p1 never delivered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!runtime.outputs_so_far().is_empty());
        assert!(runtime.metrics().messages_sent > 0);
        let _ = runtime.elapsed_ms();
        runtime.shutdown();
    }

    #[test]
    fn spawn_with_fd_supplies_leader_and_quorum_to_the_strong_baseline() {
        let n = 3;
        let runtime = Runtime::spawn_with_fd(
            n,
            config(),
            |p| ConsensusTob::new(p, ConsensusTobConfig::default()),
            |leader, n| (leader, ProcessSet::all(n)),
        );
        for k in 0..3u64 {
            let origin = ProcessId::new((k % 3) as usize);
            runtime.submit(
                origin,
                EtobBroadcast::new(origin, k + 1, format!("m{k}").into_bytes()),
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // poll until every process delivered all three messages
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let done = (0..n).map(ProcessId::new).all(|p| {
                runtime
                    .latest_output_of(p)
                    .is_some_and(|delta| delta.end() == 3)
            });
            if done {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "quorum-gated TOB did not deliver in time"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = runtime.shutdown();
        // identical delivery order everywhere (strong consistency)
        let sequences = delivered_sequences(&report.output_history(1));
        let reference: Vec<_> = sequences
            .last(ProcessId::new(0))
            .expect("delivered")
            .iter()
            .map(|m| m.id)
            .collect();
        for p in (1..n).map(ProcessId::new) {
            let seq: Vec<_> = sequences
                .last(p)
                .expect("delivered")
                .iter()
                .map(|m| m.id)
                .collect();
            assert_eq!(seq, reference, "{p} diverged");
        }
    }

    /// Inputs arrive every millisecond — far more often than the 5 ms tick —
    /// for 60 ticks. The timer must keep firing through the flood, so the
    /// leader keeps promoting and an op submitted first is delivered
    /// everywhere before the flood ends; the heartbeats that now flow under
    /// load must not get p0 suspected.
    #[test]
    fn timers_fire_on_schedule_under_a_flood_of_inputs() {
        let n = 3;
        let config = RuntimeConfig {
            tick: Duration::from_millis(5),
            heartbeat: HeartbeatConfig {
                period: 2,
                suspect_after: 20,
            },
        };
        let runtime = Runtime::spawn(n, config, |p| EtobOmega::new(p, EtobConfig::default()));
        let marker = ProcessId::new(1);
        let mut next_seq = vec![1u64; n];
        runtime.submit(marker, EtobBroadcast::new(marker, 1, b"marker".to_vec()));
        next_seq[marker.index()] += 1;

        let flood = config.tick * 60;
        let chunk = config.tick * 10;
        let started = Instant::now();
        let mut chunk_fires = Vec::new();
        let mut fires_at_chunk_start = runtime.metrics().timer_fires;
        let mut marker_everywhere = false;
        let mut sequences = vec![Vec::new(); n];
        let mut seen = 0;
        let mut k = 0usize;
        while started.elapsed() < flood {
            let origin = ProcessId::new(k % n);
            k += 1;
            let seq = next_seq[origin.index()];
            next_seq[origin.index()] += 1;
            runtime.submit(origin, EtobBroadcast::new(origin, seq, vec![0u8; 8]));
            std::thread::sleep(Duration::from_millis(1));
            if started.elapsed() >= chunk * (chunk_fires.len() as u32 + 1) {
                let fires = runtime.metrics().timer_fires;
                chunk_fires.push(fires - fires_at_chunk_start);
                fires_at_chunk_start = fires;
            }
            marker_everywhere = marker_everywhere || {
                let outputs = runtime.outputs_so_far();
                for (p, _, delta) in outputs.iter().skip(seen) {
                    if let Some(sequence) = sequences.get_mut(p.index()) {
                        delta.apply(sequence);
                    }
                }
                seen = outputs.len();
                sequences
                    .iter()
                    .all(|seq| seq.iter().any(|m| m.id.origin == marker))
            };
        }
        let report = runtime.shutdown();

        // 10 ticks × 3 processes = 30 fires per chunk on schedule
        assert!(chunk_fires.len() >= 5, "{chunk_fires:?}");
        for (i, fires) in chunk_fires.iter().enumerate() {
            assert!(*fires >= 5, "timer starved in chunk {i}: {chunk_fires:?}");
        }
        assert!(
            marker_everywhere,
            "the first op was not delivered everywhere while inputs kept arriving"
        );
        assert!(report.metrics.inputs >= 100, "{:?}", report.metrics);
        for (p, ms, leader) in &report.leaders {
            assert_eq!(*leader, ProcessId::new(0), "{p} changed leader at {ms} ms");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn runtime_requires_two_processes() {
        let _ = Runtime::spawn(1, config(), |p| EtobOmega::new(p, EtobConfig::default()));
    }
}
