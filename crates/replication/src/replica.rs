//! A generic replicated-service replica over any (eventual) total order
//! broadcast implementation.

use std::fmt;

use ec_core::types::{
    splice_delivered, AppMessage, Compactable, DeliveredDelta, EtobBroadcast,
    EventualTotalOrderBroadcast, Instrumented, MsgId, Payload,
};
use ec_sim::{Algorithm, Context, ProcessId};

use crate::durable::{DurableOptions, DurableStore};
use crate::state_machine::StateMachine;

/// A client command submitted to a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaCommand {
    /// The state-machine command. Stored behind an [`Payload`] `Arc` so the
    /// broadcast layer's per-recipient fan-out and the thread runtime's
    /// channel sends share one buffer instead of deep-copying it.
    pub command: Payload,
    /// Identifiers of commands this one causally depends on (passed through
    /// to the broadcast layer as `C(m)`).
    pub deps: Vec<MsgId>,
    /// Explicit message identifier, or `None` to let the receiving replica
    /// assign one from its own counter.
    ///
    /// The `Cluster`/`Session` facade pre-assigns identifiers so client
    /// sessions can thread causal dependencies across commands without
    /// reaching into replica state. An explicit identifier must be unique in
    /// the run and must not collide with replica-assigned ones — within one
    /// deployment, either let every command be assigned automatically or
    /// route every command through the facade, not both.
    pub id: Option<MsgId>,
}

impl ReplicaCommand {
    /// A command with no declared causal dependencies.
    pub fn new(command: impl Into<Payload>) -> Self {
        ReplicaCommand {
            command: command.into(),
            deps: Vec::new(),
            id: None,
        }
    }

    /// A command with declared causal dependencies.
    pub fn with_deps(command: impl Into<Payload>, deps: Vec<MsgId>) -> Self {
        ReplicaCommand {
            command: command.into(),
            deps,
            id: None,
        }
    }

    /// Sets an explicit message identifier (see [`ReplicaCommand::id`]).
    pub fn with_id(mut self, id: MsgId) -> Self {
        self.id = Some(id);
        self
    }
}

impl From<Vec<u8>> for ReplicaCommand {
    fn from(command: Vec<u8>) -> Self {
        ReplicaCommand::new(command)
    }
}

impl From<&[u8]> for ReplicaCommand {
    fn from(command: &[u8]) -> Self {
        ReplicaCommand::new(command)
    }
}

impl From<&str> for ReplicaCommand {
    fn from(command: &str) -> Self {
        ReplicaCommand::new(command.as_bytes())
    }
}

impl From<String> for ReplicaCommand {
    fn from(command: String) -> Self {
        ReplicaCommand::new(command.into_bytes())
    }
}

/// The externally visible state of a replica, emitted every time the applied
/// command sequence changes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaOutput {
    /// Number of commands currently applied.
    pub applied: usize,
    /// Canonical snapshot of the state machine after applying them.
    pub snapshot: Vec<u8>,
}

/// A replica: a deterministic state machine `S` fed by the delivered sequence
/// of a broadcast layer `B`.
///
/// With `B = EtobOmega` (Algorithm 5) this is an **eventually consistent**
/// replicated service that only needs Ω; with `B = ConsensusTob` it is a
/// **strongly consistent** one that needs Ω + Σ. The state machine always
/// holds the sequential replay of the broadcast layer's current delivered
/// sequence, so divergence and convergence of the broadcast layer translate
/// directly into divergence and convergence of replica snapshots.
///
/// ## Delivered deltas
///
/// The broadcast layer outputs each change to its delivered sequence as a
/// [`DeliveredDelta`], and the replica applies every delta of an activation
/// in order to its mirror of that sequence. A delta that only appends
/// (its overlap with the mirror agrees on identifiers) costs O(delta): the
/// new entries are applied to the live state. A delta that changes or
/// drops applied entries is a *revocation* of the tentative order: it is
/// counted in the broadcast layer's telemetry recorder, with its depth, and
/// the state is rebuilt once per activation by replaying the mirror on top
/// of `base_state`.
///
/// ## Stable-prefix folding
///
/// When the broadcast layer compacts ([`Compactable::stable_base`] grows),
/// the replica mirrors the fold: the folded prefix's effect is absorbed into
/// `base_state` (the state machine at absolute index `base_applied`) and
/// only the tail beyond it is kept and replayed on a revocation, so replica
/// memory tracks the broadcast layer's instead of the full history. With
/// compaction off, `base_applied` stays 0.
///
/// ## Durability
///
/// [`Replica::durable`] attaches a [`DurableStore`]: every delivered-tail
/// change is mirrored into the record log, periodic checkpoints snapshot
/// `base_state`, and on (re)start the replica recovers from disk and primes
/// the broadcast layer ([`Compactable::prime_recovery`]) so anti-entropy
/// only fetches the suffix missed while down. Recovery is **lazy** —
/// nothing touches the disk until `on_start` runs — so a pre-built spare
/// automaton recovers the state of the instance it replaces.
pub struct Replica<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented> {
    broadcast: B,
    state: S,
    applied: usize,
    next_seq: u64,
    last_output: Option<ReplicaOutput>,
    /// State machine with exactly the folded prefix applied.
    base_state: S,
    /// Absolute length of the folded prefix baked into `base_state`.
    base_applied: usize,
    /// The broadcast layer's delivered sequence beyond `base_applied`,
    /// mirrored from its [`DeliveredDelta`] outputs.
    tail: Vec<AppMessage>,
    durable_options: Option<DurableOptions>,
    durable: Option<DurableStore>,
}

impl<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented> Replica<S, B> {
    /// Wraps a broadcast layer.
    ///
    /// # Example
    ///
    /// A single eventually consistent KV replica over Algorithm 5 (run a
    /// whole group of them with [`ec_sim::WorldBuilder`], or a hash-sharded
    /// cluster with [`crate::shard::ShardedKv`]):
    ///
    /// ```
    /// use ec_core::etob_omega::{EtobConfig, EtobOmega};
    /// use ec_replication::{KvStore, Replica};
    /// use ec_sim::ProcessId;
    ///
    /// let replica: Replica<KvStore, EtobOmega> =
    ///     Replica::new(EtobOmega::new(ProcessId::new(0), EtobConfig::default()));
    /// assert_eq!(replica.applied(), 0);
    /// assert!(replica.state().is_empty());
    /// ```
    pub fn new(broadcast: B) -> Self {
        Replica {
            broadcast,
            state: S::default(),
            applied: 0,
            next_seq: 0,
            last_output: None,
            base_state: S::default(),
            base_applied: 0,
            tail: Vec::new(),
            durable_options: None,
            durable: None,
        }
    }

    /// Wraps a broadcast layer with durability: delivered state persists
    /// under `options.dir` and is recovered (lazily, at `on_start`) after a
    /// crash. Persistence is best-effort — an I/O failure degrades to the
    /// in-memory behavior of [`Replica::new`], never to a panic.
    pub fn durable(broadcast: B, options: DurableOptions) -> Self {
        let mut replica = Replica::new(broadcast);
        replica.durable_options = Some(options);
        replica
    }

    /// The current state machine.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Number of commands applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// The wrapped broadcast layer.
    pub fn broadcast_layer(&self) -> &B {
        &self.broadcast
    }

    /// Absolute length of the folded prefix baked into the base state.
    pub fn base_applied(&self) -> usize {
        self.base_applied
    }

    /// The attached durable store, once `on_start` has opened it.
    pub fn durable_store(&self) -> Option<&DurableStore> {
        self.durable.as_ref()
    }

    fn relay(
        &mut self,
        actions: ec_sim::Actions<B>,
        ctx: &mut Context<'_, Self>,
    ) -> Vec<DeliveredDelta> {
        for (to, msg) in actions.sends {
            ctx.send(to, msg);
        }
        // Timer requests of the broadcast layer are not relayed; the replica
        // owns the single timer chain (see ec-core's wrapper policy).
        actions.outputs
    }

    /// Recomputes `state` as `base_state` plus the resident tail and emits
    /// an output if the visible state changed.
    fn rebuild(&mut self, ctx: &mut Context<'_, Self>) {
        let mut state = self.base_state.clone();
        for m in &self.tail {
            state.apply(m.payload.as_ref());
        }
        self.state = state;
        self.emit_output(ctx);
    }

    /// Applies one delivered delta to the mirrored tail. Returns the tail
    /// index from which the tail changed, or `None` if it did not change.
    ///
    /// Only the delta's own entries are compared and copied, so an
    /// extension costs O(delta) however long the tail is. Entries the delta
    /// repeats are skipped by identifier (identifiers determine payloads).
    /// Entries it changes or drops are a revocation, recorded with its
    /// depth. A delta below `base_applied` can only repeat folded, stable
    /// entries, which are skipped too; one that starts beyond the tail
    /// cannot be placed and is ignored.
    fn adopt_delta(&mut self, delta: DeliveredDelta) -> Option<usize> {
        let DeliveredDelta { base, mut suffix } = delta;
        let folded = self.base_applied as u64;
        let rel = if base < folded {
            let skip = usize::try_from(folded - base).ok()?;
            if skip > suffix.len() {
                return None;
            }
            suffix.drain(..skip);
            0
        } else {
            usize::try_from(base - folded).ok()?
        };
        let applied = self.tail.len();
        let from = splice_delivered(&mut self.tail, rel, suffix)?;
        if from < applied {
            if let Some(recorder) = self.broadcast.recorder_mut() {
                recorder.revoked((applied - from) as u64);
            }
        }
        Some(from)
    }

    /// Applies an activation's deltas in order, then brings the state up to
    /// date once: the new entries alone after an extension, a replay from
    /// `base_state` after a revocation. Returns whether the tail changed.
    fn adopt_deltas(&mut self, deltas: Vec<DeliveredDelta>, ctx: &mut Context<'_, Self>) -> bool {
        let applied = self.tail.len();
        let mut intact = applied;
        let mut changed = false;
        for delta in deltas {
            if let Some(at) = self.adopt_delta(delta) {
                intact = intact.min(at);
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if intact < applied {
            self.rebuild(ctx);
        } else {
            for m in self.tail.get(applied..).unwrap_or_default() {
                self.state.apply(m.payload.as_ref());
            }
            self.emit_output(ctx);
        }
        true
    }

    /// Emits a [`ReplicaOutput`] if the visible state changed since the
    /// last one, keeping `applied` in sync with the adopted tail.
    fn emit_output(&mut self, ctx: &mut Context<'_, Self>) {
        self.applied = self.base_applied + self.tail.len();
        let output = ReplicaOutput {
            applied: self.applied,
            snapshot: self.state.snapshot(),
        };
        if self.last_output.as_ref() != Some(&output) {
            // flight-record the newest applied command (one event per
            // visible state change, not per replayed tail entry)
            if let Some(m) = self.tail.last() {
                let (origin, seq) = (m.id.origin.index() as u32, m.id.seq);
                if let Some(recorder) = self.broadcast.recorder_mut() {
                    recorder.applied(origin, seq);
                }
            }
            self.last_output = Some(output.clone());
            ctx.output(output);
        }
    }

    /// Absorbs a broadcast-layer fold into the base state: the broadcast
    /// only folds a globally stable prefix, so the tail entries below the
    /// new stable base are final and can be applied permanently. Runs after
    /// the activation's deltas are adopted, so the drained entries are those
    /// of the broadcast layer's current sequence. Returns whether anything
    /// was folded.
    fn reconcile_fold(&mut self) -> bool {
        let stable = usize::try_from(self.broadcast.stable_base()).unwrap_or(usize::MAX);
        if stable <= self.base_applied {
            return false;
        }
        let drain = (stable - self.base_applied).min(self.tail.len());
        for m in self.tail.drain(..drain) {
            self.base_state.apply(m.payload.as_ref());
        }
        self.base_applied += drain;
        drain > 0
    }

    /// Mirrors the current tail into the durable store and checkpoints when
    /// due. Called only after an activation that changed the tail or folded
    /// (the checkpoint cadence counts logged entries, so it cannot come due
    /// in any other activation); a no-op without a store.
    fn persist(&mut self) {
        if self.durable.is_none() {
            return;
        }
        let base = self.base_applied as u64;
        let hash = self.broadcast.stable_hash();
        if let Some(store) = self.durable.as_mut() {
            store.record_tail(base, hash, &self.tail);
        }
        if self
            .durable
            .as_ref()
            .is_some_and(DurableStore::checkpoint_due)
        {
            let frontier = self.broadcast.stable_frontier();
            let state = self.base_state.snapshot();
            let own_seq = self.next_seq;
            if let Some(store) = self.durable.as_mut() {
                store.checkpoint(base, hash, &frontier, &state, &self.tail, own_seq);
            }
        }
    }

    /// Opens the durable store and, when the directory holds state, primes
    /// the broadcast layer and rebuilds from the checkpoint + logged tail.
    /// Failures at any stage degrade to a blank start (anti-entropy then
    /// refetches everything) — recovery never panics and never merges.
    fn recover(&mut self, ctx: &mut Context<'_, Self>) {
        let Some(options) = self.durable_options.as_ref() else {
            return;
        };
        let Ok((store, recovered)) = DurableStore::open(options) else {
            return;
        };
        self.durable = Some(store);
        let Some(rec) = recovered else {
            return;
        };
        // Never reuse a locally assigned sequence number from the previous
        // incarnation, even when the rest of the recovery is not adopted.
        self.next_seq = self.next_seq.max(rec.own_seq);
        for m in &rec.tail {
            if m.id.origin == ctx.me() {
                self.next_seq = self.next_seq.max(m.id.seq);
            }
        }
        let base_state = if rec.base == 0 {
            Some(S::default())
        } else {
            S::from_snapshot(&rec.state)
        };
        let Some(base_state) = base_state else {
            return;
        };
        if !self
            .broadcast
            .prime_recovery(rec.base, rec.hash, rec.frontier, rec.tail.clone())
        {
            return;
        }
        self.base_state = base_state;
        self.base_applied = usize::try_from(rec.base).unwrap_or(0);
        self.tail = rec.tail;
        self.rebuild(ctx);
    }

    fn drive<F>(&mut self, ctx: &mut Context<'_, Self>, f: F)
    where
        F: FnOnce(&mut B, &mut Context<'_, B>),
    {
        let mut actions = ec_sim::Actions::<B>::new();
        {
            let mut ictx =
                Context::new(ctx.me(), ctx.now(), ctx.n(), ctx.fd().clone(), &mut actions);
            f(&mut self.broadcast, &mut ictx);
        }
        let deliveries = self.relay(actions, ctx);
        let adopted = self.adopt_deltas(deliveries, ctx);
        let folded = self.reconcile_fold();
        if adopted || folded {
            self.persist();
        }
    }
}

impl<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented + fmt::Debug>
    fmt::Debug for Replica<S, B>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("applied", &self.applied)
            .field("base_applied", &self.base_applied)
            .field("state", &self.state)
            .field("broadcast", &self.broadcast)
            .finish()
    }
}

impl<S: StateMachine, B: EventualTotalOrderBroadcast + Compactable + Instrumented> Algorithm
    for Replica<S, B>
{
    type Msg = B::Msg;
    type Input = ReplicaCommand;
    type Output = ReplicaOutput;
    type Fd = B::Fd;

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        self.recover(ctx);
        self.drive(ctx, |b, ictx| b.on_start(ictx));
        ctx.set_timer(3);
    }

    fn on_input(&mut self, input: ReplicaCommand, ctx: &mut Context<'_, Self>) {
        let id = match input.id {
            Some(id) => {
                // keep the local counter ahead of explicit ids so a later
                // auto-assigned id cannot collide with this one
                self.next_seq = self.next_seq.max(id.seq);
                id
            }
            None => {
                self.next_seq += 1;
                MsgId::new(ctx.me(), self.next_seq)
            }
        };
        // Persist the high-water mark *before* the command enters the
        // broadcast layer: a crash right after the send must not lead the
        // next incarnation to reuse this identifier.
        let next_seq = self.next_seq;
        if let Some(store) = self.durable.as_mut() {
            store.record_own_seq(next_seq);
        }
        let message = AppMessage::with_deps(id, input.command, input.deps);
        self.drive(ctx, |b, ictx| b.on_input(EtobBroadcast { message }, ictx));
    }

    fn on_message(&mut self, from: ProcessId, msg: B::Msg, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |b, ictx| b.on_message(from, msg, ictx));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        self.drive(ctx, |b, ictx| b.on_timer(ictx));
        ctx.set_timer(3);
    }

    fn wire_size(msg: &B::Msg) -> u64 {
        B::wire_size(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_machine::KvStore;
    use ec_core::etob_omega::{EtobConfig, EtobOmega};
    use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
    use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
    use ec_sim::{FailurePattern, NetworkModel, PartitionSpec, ProcessSet, Time, WorldBuilder};

    type EventualReplica = Replica<KvStore, EtobOmega>;
    type StrongReplica = Replica<KvStore, ConsensusTob>;

    #[test]
    fn eventually_consistent_kv_replicas_converge() {
        let n = 4;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .seed(7)
            .build_with(
                |p| -> EventualReplica { Replica::new(EtobOmega::new(p, EtobConfig::default())) },
                omega,
            );
        for k in 0..6u64 {
            world.schedule_input(
                ProcessId::new((k % 4) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), &format!("v{k}"))),
                10 + 10 * k,
            );
        }
        world.run_until(2_000);
        let snapshots: Vec<Vec<u8>> = world
            .process_ids()
            .map(|p| {
                world
                    .trace()
                    .last_output_of(p)
                    .expect("output")
                    .snapshot
                    .clone()
            })
            .collect();
        assert!(
            snapshots.windows(2).all(|w| w[0] == w[1]),
            "replicas diverged"
        );
        assert_eq!(world.algorithm(ProcessId::new(0)).applied(), 6);
        assert_eq!(
            world.algorithm(ProcessId::new(0)).state().get("k3"),
            Some("v3")
        );
    }

    #[test]
    fn eventual_replicas_keep_serving_in_the_leaders_minority_partition() {
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(50),
            Time::new(900),
            PartitionSpec::isolate(minority, n),
        );
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(8)
            .build_with(
                |p| -> EventualReplica { Replica::new(EtobOmega::new(p, EtobConfig::default())) },
                omega,
            );
        for k in 0..4u64 {
            world.schedule_input(
                ProcessId::new((k % 2) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), "v")),
                100 + 20 * k,
            );
        }
        world.run_until(2_500);
        let history = world.trace().output_history();
        // during the partition, the leader-side replica p1 made progress
        let during = history
            .value_at(ProcessId::new(1), Time::new(850))
            .map(|o| o.applied)
            .unwrap_or(0);
        assert!(
            during >= 1,
            "eventually consistent replica must serve during the partition"
        );
        // after the heal everyone has everything
        for p in world.process_ids() {
            assert_eq!(world.algorithm(p).applied(), 4, "{p}");
        }
    }

    #[test]
    fn strongly_consistent_replicas_block_in_a_minority_partition() {
        let n = 5;
        let failures = FailurePattern::no_failures(n);
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::majority(failures.clone()),
        );
        let minority: ProcessSet = [0, 1].into_iter().collect();
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(50),
            Time::new(900),
            PartitionSpec::isolate(minority, n),
        );
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(8)
            .build_with(
                |p| -> StrongReplica {
                    Replica::new(ConsensusTob::new(p, ConsensusTobConfig::default()))
                },
                fd,
            );
        for k in 0..4u64 {
            world.schedule_input(
                ProcessId::new((k % 2) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), "v")),
                100 + 20 * k,
            );
        }
        world.run_until(2_500);
        let history = world.trace().output_history();
        // during the partition, nothing new is applied anywhere
        for p in world.process_ids() {
            let during = history
                .value_at(p, Time::new(850))
                .map(|o| o.applied)
                .unwrap_or(0);
            assert_eq!(
                during, 0,
                "strongly consistent replica {p} applied during the partition"
            );
        }
        // after the heal everything commits
        for p in world.process_ids() {
            assert_eq!(world.algorithm(p).applied(), 4, "{p}");
        }
    }

    #[test]
    fn accessors_and_debug() {
        let replica: EventualReplica =
            Replica::new(EtobOmega::new(ProcessId::new(0), EtobConfig::default()));
        assert_eq!(replica.applied(), 0);
        assert!(replica.state().is_empty());
        assert!(replica.broadcast_layer().delivered().is_empty());
        assert!(format!("{replica:?}").contains("Replica"));
        let cmd = ReplicaCommand::with_deps(b"x".to_vec(), vec![MsgId::new(ProcessId::new(0), 1)]);
        assert_eq!(cmd.deps.len(), 1);
    }

    #[test]
    fn commands_convert_from_bytes_and_strings() {
        let from_vec: ReplicaCommand = KvStore::put("a", "1").into();
        let from_str: ReplicaCommand = "put a 1".into();
        let from_string: ReplicaCommand = String::from("put a 1").into();
        let from_slice: ReplicaCommand = b"put a 1".as_slice().into();
        assert_eq!(from_vec, from_str);
        assert_eq!(from_str, from_string);
        assert_eq!(from_string, from_slice);
        assert!(from_str.id.is_none() && from_str.deps.is_empty());
    }

    #[test]
    fn explicit_ids_are_honored_and_keep_the_counter_ahead() {
        let n = 2;
        let failures = FailurePattern::no_failures(n);
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::fixed_delay(2))
            .failures(failures)
            .build_with(
                |p| -> EventualReplica { Replica::new(EtobOmega::new(p, EtobConfig::default())) },
                omega,
            );
        let explicit = MsgId::new(ProcessId::new(0), 7);
        world.schedule_input(
            ProcessId::new(0),
            ReplicaCommand::new(KvStore::put("a", "1")).with_id(explicit),
            10,
        );
        // a later auto-assigned command must not collide with seq 7
        world.schedule_input(
            ProcessId::new(0),
            ReplicaCommand::new(KvStore::put("b", "2")),
            50,
        );
        world.run_until(2_000);
        let delivered = world
            .algorithm(ProcessId::new(0))
            .broadcast_layer()
            .delivered();
        let ids: Vec<MsgId> = delivered.iter().map(|m| m.id).collect();
        assert!(ids.contains(&explicit));
        assert_eq!(ids.len(), 2);
        assert!(ids[0] != ids[1], "auto id must not collide: {ids:?}");
        assert_eq!(
            world.algorithm(ProcessId::new(1)).state().get("b"),
            Some("2")
        );
    }

    /// A broadcast layer that outputs exactly the deltas it is sent and
    /// folds to the base it is told: delta adoption in isolation.
    #[derive(Debug, Default)]
    struct Scripted {
        folded: u64,
        recorder: Option<ec_telemetry::Recorder>,
    }

    #[derive(Clone, Debug)]
    struct Script {
        deltas: Vec<DeliveredDelta>,
        fold_to: u64,
    }

    impl Algorithm for Scripted {
        type Msg = Script;
        type Input = EtobBroadcast;
        type Output = DeliveredDelta;
        type Fd = ();

        fn on_message(&mut self, _from: ProcessId, msg: Script, ctx: &mut Context<'_, Self>) {
            for delta in msg.deltas {
                ctx.output(delta);
            }
            self.folded = self.folded.max(msg.fold_to);
        }
    }

    impl Compactable for Scripted {
        fn stable_base(&self) -> u64 {
            self.folded
        }

        fn prime_recovery(
            &mut self,
            base: u64,
            _hash: u64,
            _frontier: ec_core::VersionVector,
            _tail: Vec<AppMessage>,
        ) -> bool {
            self.folded = base;
            true
        }
    }

    impl Instrumented for Scripted {
        fn attach_recorder(&mut self, recorder: ec_telemetry::Recorder) {
            self.recorder = Some(recorder);
        }

        fn recorder(&self) -> Option<&ec_telemetry::Recorder> {
            self.recorder.as_ref()
        }

        fn recorder_mut(&mut self) -> Option<&mut ec_telemetry::Recorder> {
            self.recorder.as_mut()
        }
    }

    type ScriptedReplica = Replica<KvStore, Scripted>;

    fn scripted() -> ScriptedReplica {
        let mut layer = Scripted::default();
        layer.attach_recorder(ec_telemetry::Recorder::new(
            0,
            ec_telemetry::TimeSource::Logical,
            64,
        ));
        Replica::new(layer)
    }

    /// Message `k`: order-sensitive writes over three keys.
    fn m(k: u64) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId::new(0), k),
            KvStore::put(&format!("k{}", k % 3), &k.to_string()),
        )
    }

    fn delta(base: u64, ks: &[u64]) -> DeliveredDelta {
        DeliveredDelta {
            base,
            suffix: ks.iter().copied().map(m).collect(),
        }
    }

    /// The sequential replay of `ks`: what the replica must hold.
    fn replay(ks: &[u64]) -> Vec<u8> {
        let mut state = KvStore::default();
        for &k in ks {
            state.apply(&m(k).payload);
        }
        state.snapshot()
    }

    fn step<F>(replica: &mut ScriptedReplica, f: F) -> Vec<ReplicaOutput>
    where
        F: FnOnce(&mut ScriptedReplica, &mut Context<'_, ScriptedReplica>),
    {
        let mut actions = ec_sim::Actions::<ScriptedReplica>::new();
        {
            let mut ctx = Context::new(ProcessId::new(0), Time::new(1), 1, (), &mut actions);
            f(replica, &mut ctx);
        }
        actions.outputs
    }

    fn deliver(
        replica: &mut ScriptedReplica,
        deltas: Vec<DeliveredDelta>,
        fold_to: u64,
    ) -> Vec<ReplicaOutput> {
        let script = Script { deltas, fold_to };
        step(replica, |r, ctx| {
            r.on_message(ProcessId::new(0), script, ctx)
        })
    }

    fn revocations(replica: &ScriptedReplica) -> Vec<u64> {
        let recorder = replica.broadcast_layer().recorder().expect("recorder");
        recorder
            .events()
            .iter()
            .filter(|e| e.kind == ec_telemetry::EventKind::Revoked)
            .map(|e| e.seq)
            .collect()
    }

    fn assert_holds(replica: &ScriptedReplica, ks: &[u64]) {
        assert_eq!(replica.applied(), ks.len());
        assert_eq!(
            replica.state().snapshot(),
            replay(ks),
            "not the replay of {ks:?}"
        );
    }

    #[test]
    fn an_extension_applies_only_the_new_entries() {
        let mut r = scripted();
        let outs = deliver(&mut r, vec![delta(0, &[1, 2])], 0);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].applied, 2);
        let outs = deliver(&mut r, vec![delta(2, &[3])], 0);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].snapshot, replay(&[1, 2, 3]));
        assert_holds(&r, &[1, 2, 3]);
        assert!(revocations(&r).is_empty());
    }

    #[test]
    fn an_identical_redelivery_emits_nothing() {
        let mut r = scripted();
        deliver(&mut r, vec![delta(0, &[1, 2])], 0);
        assert!(deliver(&mut r, vec![delta(0, &[1, 2])], 0).is_empty());
        assert!(deliver(&mut r, vec![delta(1, &[2])], 0).is_empty());
        assert_holds(&r, &[1, 2]);
        assert!(revocations(&r).is_empty());
    }

    #[test]
    fn a_suffix_overlapping_applied_entries_is_an_extension() {
        let mut r = scripted();
        deliver(&mut r, vec![delta(0, &[1, 2, 3])], 0);
        // a promote based below the local length that agrees on the overlap
        let outs = deliver(&mut r, vec![delta(1, &[2, 3, 4])], 0);
        assert_eq!(outs.len(), 1);
        assert_holds(&r, &[1, 2, 3, 4]);
        assert!(revocations(&r).is_empty());
    }

    #[test]
    fn prefix_and_shrinking_rewrites_replay_the_new_sequence() {
        let mut r = scripted();
        deliver(&mut r, vec![delta(0, &[1, 2, 3])], 0);
        let outs = deliver(&mut r, vec![delta(1, &[4, 3])], 0);
        assert_eq!(outs.len(), 1);
        assert_holds(&r, &[1, 4, 3]);
        let outs = deliver(&mut r, vec![delta(1, &[])], 0);
        assert_eq!(outs.len(), 1);
        assert_holds(&r, &[1]);
        assert_eq!(revocations(&r), vec![2, 2]);
        let report = r.broadcast_layer().recorder().expect("recorder").report();
        assert_eq!(report.revocations(), 2);
    }

    #[test]
    fn every_delta_of_an_activation_is_applied_in_order() {
        let mut r = scripted();
        deliver(&mut r, vec![delta(0, &[1])], 0);
        let outs = deliver(
            &mut r,
            vec![delta(1, &[2, 3]), delta(2, &[4]), delta(3, &[5])],
            0,
        );
        assert_eq!(outs.len(), 1, "one visible state change per activation");
        assert_eq!(outs[0].applied, 4);
        assert_holds(&r, &[1, 2, 4, 5]);
        assert_eq!(revocations(&r), vec![1]);
    }

    #[test]
    fn a_fold_then_an_extension_keeps_the_absolute_sequence() {
        let mut r = scripted();
        deliver(&mut r, vec![delta(0, &[1, 2, 3, 4])], 0);
        assert!(
            deliver(&mut r, vec![], 2).is_empty(),
            "a fold changes no state"
        );
        assert_eq!(r.base_applied(), 2);
        deliver(&mut r, vec![delta(4, &[5])], 0);
        assert_holds(&r, &[1, 2, 3, 4, 5]);
        // a rewrite above the fold replays the tail on the folded base
        deliver(&mut r, vec![delta(3, &[6])], 0);
        assert_holds(&r, &[1, 2, 3, 6]);
        // a delta that repeats folded entries skips them
        assert!(deliver(&mut r, vec![delta(1, &[2, 3, 6])], 0).is_empty());
        assert_holds(&r, &[1, 2, 3, 6]);
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ec-replica-{}-{tag}", std::process::id()))
    }

    fn durable_scripted(dir: &std::path::Path) -> ScriptedReplica {
        Replica::durable(
            Scripted::default(),
            DurableOptions::new(dir).checkpoint_every(4),
        )
    }

    #[test]
    fn a_durable_restart_after_a_rewrite_recovers_the_rewritten_sequence() {
        let dir = tmp_dir("rewrite");
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = durable_scripted(&dir);
        step(&mut r, |r, ctx| r.on_start(ctx));
        deliver(&mut r, vec![delta(0, &[1, 2, 3])], 0);
        deliver(&mut r, vec![delta(1, &[4])], 0);
        assert_holds(&r, &[1, 4]);
        drop(r);
        let mut restarted = durable_scripted(&dir);
        step(&mut restarted, |r, ctx| r.on_start(ctx));
        assert_holds(&restarted, &[1, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_timer_only_activation_leaves_the_log_alone() {
        let dir = tmp_dir("idle");
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = durable_scripted(&dir);
        step(&mut r, |r, ctx| r.on_start(ctx));
        deliver(&mut r, vec![delta(0, &[1, 2, 3])], 0);
        let store = r.durable_store().expect("store opened");
        let log_len = std::fs::metadata(store.log_path()).expect("log").len();
        let since = store.entries_since_checkpoint();
        assert_eq!(since, 3);
        for _ in 0..3 {
            step(&mut r, |r, ctx| r.on_timer(ctx));
        }
        let store = r.durable_store().expect("store opened");
        assert_eq!(
            std::fs::metadata(store.log_path()).expect("log").len(),
            log_len
        );
        assert_eq!(store.entries_since_checkpoint(), since);
        deliver(&mut r, vec![delta(3, &[4])], 0);
        let store = r.durable_store().expect("store opened");
        assert_eq!(
            store.entries_since_checkpoint(),
            0,
            "the checkpoint still comes after every 4th entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
