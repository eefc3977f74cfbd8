//! Layer replay: the workload's own operations driven straight through the
//! protocol automata, one handler call at a time, with a span around every
//! call into a layer.
//!
//! A small deterministic scheduler stands in for the engines: every link
//! delivers after [`LINK_TICKS`] ticks in FIFO order, timers fire when the
//! automata ask for them, and Ω points at replica 0 throughout (Σ is the
//! whole group). Handlers run through `ec_sim::Context::new` and collect
//! their effects in `ec_sim::Actions`, exactly as the engines call them.
//!
//! Three passes run on the same operations:
//!
//! * a bare `EtobOmega` group, with replica 0's delivered sequence mirrored
//!   into a `DurableStore` the way a durable replica persists it;
//! * `Replica<KvStore, EtobOmega>`, with every message sent encoded and
//!   decoded by the socket engine's codec;
//! * `Replica<KvStore, ConsensusTob>`.
//!
//! Inside the replica passes the broadcast layer and the state machine are
//! wrapped ([`Traced`], [`TracedKv`]) so their spans nest under the
//! replica's, which leaves the replica's own work as its self time.

use std::collections::BTreeMap;
use std::path::Path;

use ec_core::etob_omega::{EtobConfig, EtobMsg, EtobOmega};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig, TobMsg};
use ec_core::types::{AppMessage, Compactable, EtobBroadcast, Instrumented};
use ec_core::version::VersionVector;
use ec_core::workload::KvOp;
use ec_replication::durable::{DurableOptions, DurableStore};
use ec_replication::net::codec::{decode_body, encode_body, Frame};
use ec_replication::{KvStore, Replica, ReplicaCommand, ReplicaOutput, StateMachine};
use ec_sim::{Actions, Algorithm, Context, ProcessId, ProcessSet, Time};

use crate::loadgen::{self, Chain, Planned};
use crate::oracle;
use crate::stats;
use crate::trace::{self, LayerTimes, Span};

/// Replica-group size of every replay.
pub const N: usize = 3;
/// Link delay of the replay scheduler, in ticks (the simulator's default).
const LINK_TICKS: u64 = 2;
/// Give-up horizon of a replay, in ticks past the last input.
const DRAIN_TICKS: u64 = 200_000;

enum Event<A: Algorithm> {
    Deliver { from: ProcessId, msg: A::Msg },
    Input(A::Input),
    Timer,
}

/// Span names of one automaton's handlers.
#[derive(Clone, Copy)]
struct Names {
    start: &'static str,
    input: &'static str,
    message: &'static str,
    timer: &'static str,
}

/// The deterministic scheduler: a time-ordered event queue over `N`
/// automata.
struct Harness<A: Algorithm> {
    procs: Vec<A>,
    fd: A::Fd,
    queue: BTreeMap<(u64, u64), (usize, Event<A>)>,
    seq: u64,
    now: u64,
    names: Names,
}

impl<A: Algorithm> Harness<A> {
    fn new(procs: Vec<A>, fd: A::Fd, names: Names) -> Self {
        Harness {
            procs,
            fd,
            queue: BTreeMap::new(),
            seq: 0,
            now: 0,
            names,
        }
    }

    fn push(&mut self, at: u64, p: usize, event: Event<A>) {
        self.seq += 1;
        self.queue.insert((at, self.seq), (p, event));
    }

    /// Runs `on_start` everywhere.
    fn start(&mut self, on_send: &mut impl FnMut(ProcessId, &A::Msg)) -> Vec<A::Output> {
        let mut out = Vec::new();
        for p in 0..self.procs.len() {
            let actions = self.call(p, self.names.start, |a, ctx| a.on_start(ctx));
            out.extend(self.schedule(p, actions, on_send));
        }
        out
    }

    fn call(
        &mut self,
        p: usize,
        name: &'static str,
        handler: impl FnOnce(&mut A, &mut Context<'_, A>),
    ) -> Actions<A> {
        let mut actions = Actions::<A>::new();
        let n = self.procs.len();
        let fd = self.fd.clone();
        let _span = trace::span(name);
        let mut ctx = Context::new(ProcessId::new(p), Time::new(self.now), n, fd, &mut actions);
        handler(&mut self.procs[p], &mut ctx);
        drop(ctx);
        actions
    }

    fn schedule(
        &mut self,
        p: usize,
        actions: Actions<A>,
        on_send: &mut impl FnMut(ProcessId, &A::Msg),
    ) -> Vec<A::Output> {
        let from = ProcessId::new(p);
        for (to, msg) in actions.sends {
            on_send(from, &msg);
            self.push(
                self.now + LINK_TICKS,
                to.index(),
                Event::Deliver { from, msg },
            );
        }
        for delay in actions.timers {
            self.push(self.now + delay.max(1), p, Event::Timer);
        }
        actions.outputs
    }

    /// Runs the next event; returns the process that acted and its
    /// outputs, or `None` once the queue is empty.
    fn step(
        &mut self,
        on_send: &mut impl FnMut(ProcessId, &A::Msg),
    ) -> Option<(usize, Vec<A::Output>)> {
        let (&key, _) = self.queue.iter().next()?;
        let (p, event) = self.queue.remove(&key)?;
        self.now = key.0;
        let names = self.names;
        let actions = match event {
            Event::Deliver { from, msg } => {
                self.call(p, names.message, |a, ctx| a.on_message(from, msg, ctx))
            }
            Event::Input(input) => self.call(p, names.input, |a, ctx| a.on_input(input, ctx)),
            Event::Timer => self.call(p, names.timer, |a, ctx| a.on_timer(ctx)),
        };
        Some((p, self.schedule(p, actions, on_send)))
    }
}

/// A broadcast layer whose handler calls are wrapped in spans, so they nest
/// under the replica's spans.
pub struct Traced<B> {
    inner: B,
    names: Names,
}

impl<B: Algorithm> Traced<B> {
    fn relay(
        &mut self,
        name: &'static str,
        ctx: &mut Context<'_, Self>,
        f: impl FnOnce(&mut B, &mut Context<'_, B>),
    ) {
        let mut actions = Actions::<B>::new();
        {
            let _span = trace::span(name);
            let mut ictx =
                Context::new(ctx.me(), ctx.now(), ctx.n(), ctx.fd().clone(), &mut actions);
            f(&mut self.inner, &mut ictx);
        }
        for (to, msg) in actions.sends {
            ctx.send(to, msg);
        }
        for out in actions.outputs {
            ctx.output(out);
        }
        for delay in actions.timers {
            ctx.set_timer(delay);
        }
    }
}

impl<B: Algorithm> Algorithm for Traced<B> {
    type Msg = B::Msg;
    type Input = B::Input;
    type Output = B::Output;
    type Fd = B::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let name = self.names.start;
        self.relay(name, ctx, |b, c| b.on_start(c));
    }

    fn on_message(&mut self, from: ProcessId, msg: B::Msg, ctx: &mut Context<'_, Self>) {
        let name = self.names.message;
        self.relay(name, ctx, |b, c| b.on_message(from, msg, c));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        let name = self.names.timer;
        self.relay(name, ctx, |b, c| b.on_timer(c));
    }

    fn on_input(&mut self, input: B::Input, ctx: &mut Context<'_, Self>) {
        let name = self.names.input;
        self.relay(name, ctx, |b, c| b.on_input(input, c));
    }

    fn wire_size(msg: &B::Msg) -> u64 {
        B::wire_size(msg)
    }
}

impl<B: Compactable> Compactable for Traced<B> {
    fn stable_base(&self) -> u64 {
        self.inner.stable_base()
    }

    fn stable_hash(&self) -> u64 {
        self.inner.stable_hash()
    }

    fn stable_frontier(&self) -> VersionVector {
        self.inner.stable_frontier()
    }

    fn prime_recovery(
        &mut self,
        base: u64,
        hash: u64,
        frontier: VersionVector,
        tail: Vec<AppMessage>,
    ) -> bool {
        self.inner.prime_recovery(base, hash, frontier, tail)
    }
}

impl<B: Instrumented> Instrumented for Traced<B> {}

/// `KvStore` with its state-machine calls wrapped in spans.
#[derive(Clone, Debug, Default)]
pub struct TracedKv(KvStore);

impl StateMachine for TracedKv {
    fn apply(&mut self, command: &[u8]) {
        let _span = trace::span("state_machine.apply");
        self.0.apply(command);
    }

    fn snapshot(&self) -> Vec<u8> {
        let _span = trace::span("state_machine.snapshot");
        self.0.snapshot()
    }
}

const ETOB: Names = Names {
    start: "etob.on_start",
    input: "etob.on_input",
    message: "etob.on_message",
    timer: "etob.on_timer",
};
const TOB: Names = Names {
    start: "tob.on_start",
    input: "tob.on_input",
    message: "tob.on_message",
    timer: "tob.on_timer",
};
const REPLICA: Names = Names {
    start: "replica.on_start",
    input: "replica.on_input",
    message: "replica.on_message",
    timer: "replica.on_timer",
};

/// What the replay measured, by metric name.
pub type Metrics = BTreeMap<String, f64>;

fn p50_us(times: &BTreeMap<&'static str, LayerTimes>, name: &str) -> f64 {
    times
        .get(name)
        .and_then(|t| stats::quantile(&t.durations_us, 0.5))
        .unwrap_or(0.0)
}

fn self_s(times: &BTreeMap<&'static str, LayerTimes>, prefix: &str) -> f64 {
    times
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, t)| t.self_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// The replay's inputs: the workload's operations, their submission ticks
/// and how they are causally linked.
pub struct Inputs<'a> {
    /// The operations, in submission order.
    pub ops: &'a [KvOp],
    /// Ticks between consecutive submissions.
    pub spacing: u64,
    /// Per-key chains (the simulator mixes) or one session (the open loops).
    pub chain: Chain,
    /// Algorithm 5 configuration of the workload.
    pub etob: EtobConfig,
}

impl Inputs<'_> {
    fn at(&self, k: usize) -> u64 {
        10 + self.spacing * k as u64
    }

    fn last_at(&self) -> u64 {
        self.at(self.ops.len().saturating_sub(1))
    }

    /// Every op routed into the one replayed group.
    fn plan(&self) -> Vec<Planned> {
        loadgen::plan(self.ops, 1, N, self.chain)
    }
}

/// Bare `EtobOmega` pass, with replica 0's persistence mirrored into a
/// `DurableStore` under `dir`. Returns the etob and storage metrics.
pub fn etob_pass(inputs: &Inputs<'_>, dir: &Path) -> Result<Metrics, String> {
    let ops = inputs.ops;
    let plan = inputs.plan();
    let procs = (0..N)
        .map(|p| EtobOmega::new(ProcessId::new(p), inputs.etob))
        .collect();
    let mut h = Harness::new(procs, ProcessId::new(0), ETOB);
    for (k, p) in plan.iter().enumerate() {
        let message = AppMessage::with_deps(p.id, oracle::command(&ops[k]), p.deps.clone());
        h.push(
            inputs.at(k),
            p.entry,
            Event::Input(EtobBroadcast { message }),
        );
    }
    let own_seq = plan.iter().filter(|p| p.entry == 0).count() as u64;
    let (mut store, _) =
        DurableStore::open(&DurableOptions::new(dir)).map_err(|e| format!("storage: {e:?}"))?;
    let mut promotes = 0u64;
    let mut count_send = |_: ProcessId, msg: &EtobMsg| {
        if matches!(msg, EtobMsg::Promote(_) | EtobMsg::PromoteDelta { .. }) {
            promotes += 1;
        }
    };
    trace::start();
    h.start(&mut count_send);
    let target = ops.len() as u64;
    let mut persisted = 0u64;
    let mut checkpoints = 0u64;
    while h.procs.iter().any(|e| e.delivered_total() < target) {
        let Some((p, _)) = h.step(&mut count_send) else {
            break;
        };
        if h.now > inputs.last_at() + DRAIN_TICKS {
            break;
        }
        let etob = &h.procs[0];
        if p != 0 || etob.delivered_total() == persisted {
            continue;
        }
        // what `Replica::persist` does at a durable replica 0
        persisted = etob.delivered_total();
        let (base, hash) = (etob.stable_base(), etob.stable_hash());
        trace::timed("storage.record_tail", || {
            store.record_tail(base, hash, etob.delivered())
        });
        if store.checkpoint_due() {
            let frontier = etob.stable_frontier();
            trace::timed("storage.checkpoint", || {
                store.checkpoint(base, hash, &frontier, &[], etob.delivered(), own_seq)
            });
            checkpoints += 1;
        }
    }
    let spans = trace::stop();
    if let Some(p) = h.procs.iter().position(|e| e.delivered_total() < target) {
        return Err(format!("etob replay: replica {p} did not deliver every op"));
    }
    if store.degraded() {
        return Err("storage replay: the durable store degraded".into());
    }
    let disk = dir_bytes(dir);
    let times = trace::summarize(&spans);
    let kops = ops.len() as f64 / 1_000.0;
    let ckpt: Vec<f64> = times
        .get("storage.checkpoint")
        .map(|t| t.durations_us.iter().map(|us| us / 1_000.0).collect())
        .unwrap_or_default();
    let mut m = Metrics::new();
    m.insert(
        "etob.on_input_us_p50".into(),
        p50_us(&times, "etob.on_input"),
    );
    m.insert(
        "etob.on_message_us_p50".into(),
        p50_us(&times, "etob.on_message"),
    );
    m.insert(
        "etob.on_timer_us_p50".into(),
        p50_us(&times, "etob.on_timer"),
    );
    m.insert("etob.self_s_per_kop".into(), self_s(&times, "etob.") / kops);
    m.insert(
        "etob.promotes_per_op".into(),
        promotes as f64 / ops.len() as f64,
    );
    m.insert(
        "storage.record_tail_us_p50".into(),
        p50_us(&times, "storage.record_tail"),
    );
    m.insert(
        "storage.checkpoint_ms_p50".into(),
        stats::quantile(&ckpt, 0.5).unwrap_or(0.0),
    );
    m.insert(
        "storage.checkpoints_per_kop".into(),
        checkpoints as f64 / kops,
    );
    m.insert(
        "storage.self_s_per_kop".into(),
        self_s(&times, "storage.") / kops,
    );
    m.insert(
        "storage.replay_disk_bytes_per_op".into(),
        disk as f64 / ops.len() as f64,
    );
    Ok(m)
}

/// `Replica<KvStore, EtobOmega>` pass with every sent message run through
/// the socket codec. Returns the replica, state-machine, codec and nested
/// etob metrics.
pub fn eventual_replica_pass(inputs: &Inputs<'_>) -> Result<Metrics, String> {
    let procs = (0..N)
        .map(|p| {
            Replica::<TracedKv, _>::new(Traced {
                inner: EtobOmega::new(ProcessId::new(p), inputs.etob),
                names: ETOB,
            })
        })
        .collect();
    let mut h = Harness::new(procs, ProcessId::new(0), REPLICA);
    let mut codec_bytes = 0u64;
    let mut codec_errors = 0u64;
    let mut on_send = |from: ProcessId, msg: &EtobMsg| {
        let frame = Frame::App {
            from,
            msg: msg.clone(),
        };
        let body = trace::timed("codec.encode", || encode_body(&frame));
        codec_bytes += body.len() as u64;
        let decoded = trace::timed("codec.decode", || decode_body::<EtobMsg>(&body));
        if decoded.ok().as_ref() != Some(&frame) {
            codec_errors += 1;
        }
    };
    let (outputs, times, final_snapshots) = replica_run(&mut h, inputs, &mut on_send)?;
    if codec_errors > 0 {
        return Err(format!(
            "codec replay: {codec_errors} frames did not round-trip"
        ));
    }
    let ops = inputs.ops.len() as f64;
    let kops = ops / 1_000.0;
    let mut m = Metrics::new();
    m.insert(
        "replica.self_s_per_kop".into(),
        self_s(&times, "replica.") / kops,
    );
    m.insert("replica.outputs_per_op".into(), outputs.0 as f64 / ops);
    m.insert("replica.output_bytes_per_op".into(), outputs.1 as f64 / ops);
    m.insert(
        "state_machine.apply_us_p50".into(),
        p50_us(&times, "state_machine.apply"),
    );
    m.insert(
        "state_machine.snapshot_us_p50".into(),
        p50_us(&times, "state_machine.snapshot"),
    );
    m.insert(
        "state_machine.snapshot_bytes".into(),
        final_snapshots.first().map_or(0, Vec::len) as f64,
    );
    m.insert(
        "state_machine.self_s_per_kop".into(),
        self_s(&times, "state_machine.") / kops,
    );
    m.insert("codec.encode_us_p50".into(), p50_us(&times, "codec.encode"));
    m.insert("codec.decode_us_p50".into(), p50_us(&times, "codec.decode"));
    m.insert("codec.bytes_per_op".into(), codec_bytes as f64 / ops);
    m.insert(
        "codec.self_s_per_kop".into(),
        self_s(&times, "codec.") / kops,
    );
    Ok(m)
}

/// `Replica<KvStore, ConsensusTob>` pass. Returns the tob metrics.
pub fn strong_replica_pass(inputs: &Inputs<'_>) -> Result<Metrics, String> {
    let procs = (0..N)
        .map(|p| {
            Replica::<TracedKv, _>::new(Traced {
                inner: ConsensusTob::new(ProcessId::new(p), ConsensusTobConfig::default()),
                names: TOB,
            })
        })
        .collect();
    let fd = (ProcessId::new(0), ProcessSet::all(N));
    let mut h = Harness::new(procs, fd, REPLICA);
    let (_, times, _) = replica_run(&mut h, inputs, &mut |_: ProcessId, _: &TobMsg| {})?;
    let kops = inputs.ops.len() as f64 / 1_000.0;
    let mut m = Metrics::new();
    m.insert(
        "tob.on_message_us_p50".into(),
        p50_us(&times, "tob.on_message"),
    );
    m.insert("tob.self_s_per_kop".into(), self_s(&times, "tob.") / kops);
    m.insert(
        "tob.replica_self_s_per_kop".into(),
        self_s(&times, "replica.") / kops,
    );
    Ok(m)
}

type ReplicaRun = ((u64, u64), BTreeMap<&'static str, LayerTimes>, Vec<Vec<u8>>);

/// Drives a replica group until every replica applied every op, then
/// checks the outcome against the sequential replay. Returns (outputs,
/// output bytes), the span summary and the final snapshots.
fn replica_run<B>(
    h: &mut Harness<Replica<TracedKv, Traced<B>>>,
    inputs: &Inputs<'_>,
    on_send: &mut impl FnMut(ProcessId, &B::Msg),
) -> Result<ReplicaRun, String>
where
    B: ec_core::types::EventualTotalOrderBroadcast + Compactable + Instrumented,
    Traced<B>: Delivered,
{
    let ops = inputs.ops;
    for (k, p) in inputs.plan().into_iter().enumerate() {
        let command = ReplicaCommand::with_deps(oracle::command(&ops[k]), p.deps).with_id(p.id);
        h.push(inputs.at(k), p.entry, Event::Input(command));
    }
    let mut outputs = (0u64, 0u64);
    let mut count = |outs: Vec<ReplicaOutput>| {
        for out in outs {
            outputs.0 += 1;
            outputs.1 += out.snapshot.len() as u64;
        }
    };
    trace::start();
    count(h.start(on_send));
    while h.procs.iter().any(|r| r.applied() < ops.len()) {
        let Some((_, outs)) = h.step(on_send) else {
            break;
        };
        count(outs);
        if h.now > inputs.last_at() + DRAIN_TICKS {
            break;
        }
    }
    let spans: Vec<Span> = trace::stop();
    let snapshots: Vec<Vec<u8>> = h.procs.iter().map(|r| r.state().0.snapshot()).collect();
    let delivered: Vec<Vec<AppMessage>> = h
        .procs
        .iter()
        .filter_map(|r| r.broadcast_layer().full_delivered())
        .collect();
    let submitted: Vec<Vec<u8>> = ops.iter().map(oracle::command).collect();
    if h.procs.iter().any(|r| r.applied() < ops.len()) {
        return Err("replica replay: not every replica applied every op".into());
    }
    oracle::check_group(&submitted, &delivered, &snapshots)
        .map_err(|e| format!("replica replay: {e}"))?;
    Ok((outputs, trace::summarize(&spans), snapshots))
}

/// The whole delivered sequence of a wrapped broadcast layer, unless part
/// of it was folded away (then only the agreement check remains).
pub trait Delivered {
    /// The delivered sequence from the first entry on, if still resident.
    fn full_delivered(&self) -> Option<Vec<AppMessage>>;
}

impl Delivered for Traced<EtobOmega> {
    fn full_delivered(&self) -> Option<Vec<AppMessage>> {
        (self.inner.folded() == 0).then(|| self.inner.delivered().to_vec())
    }
}

impl Delivered for Traced<ConsensusTob> {
    fn full_delivered(&self) -> Option<Vec<AppMessage>> {
        Some(self.inner.delivered().to_vec())
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}
