//! The (E)TOB output interface: every change to a delivered sequence `d_i`
//! is output as one `DeliveredDelta`, so the entries handed to a consumer
//! stay linear in the history (not quadratic), and a history of deltas
//! still rebuilds the absolute `d_i(t)` the ETOB specification quantifies
//! over — on compacted runs too, where the automaton keeps only a resident
//! tail.

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::spec::EtobChecker;
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::types::{delivered_sequences, DeliveredDelta};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::{omega::OmegaOracle, sigma::SigmaOracle, PairFd};
use ec_sim::{FailurePattern, NetworkModel, OutputHistory, ProcessId, Time, WorldBuilder};

const N: usize = 3;
const OPS: usize = 2_560;

/// Asserts that every process delivered all `OPS` entries and that its
/// outputs carried at most two entries per delivered entry. Whole-sequence
/// outputs carry Σ |d_i(t)| entries, which grows quadratically.
fn assert_linear(label: &str, history: &OutputHistory<DeliveredDelta>) {
    for p in (0..N).map(ProcessId::new) {
        let outputs = history.outputs(p);
        let delivered = outputs.last().map_or(0, |(_, delta)| delta.end());
        assert_eq!(
            delivered, OPS as u64,
            "{label}: {p} did not deliver every op"
        );
        let carried: u64 = outputs.iter().map(|(_, d)| d.suffix.len() as u64).sum();
        assert!(
            carried <= 2 * delivered,
            "{label}: {p} output {carried} entries for {delivered} delivered ({} outputs)",
            outputs.len()
        );
    }
}

#[test]
fn outputs_carry_each_delivered_entry_about_once() {
    let failures = FailurePattern::no_failures(N);
    let workload = BroadcastWorkload::uniform(N, OPS, 10, 1);
    let horizon = workload.last_submission_time() + 1_000;

    let mut eventual = WorldBuilder::new(N)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(5)
        .build_with(
            |p| EtobOmega::new(p, EtobConfig::batched(4)),
            OmegaOracle::stable_from_start(failures.clone()),
        );
    workload.submit_to(&mut eventual);
    eventual.run_until(horizon);
    assert_linear("etob", &eventual.trace().output_history());

    let mut strong = WorldBuilder::new(N)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(5)
        .build_with(
            |p| ConsensusTob::new(p, ConsensusTobConfig::default()),
            PairFd::new(
                OmegaOracle::stable_from_start(failures.clone()),
                SigmaOracle::majority(failures.clone()),
            ),
        );
    workload.submit_to(&mut strong);
    strong.run_until(horizon);
    assert_linear("tob", &strong.trace().output_history());
}

/// With `compact_after = 64` every process folds most of the history out of
/// resident state, yet the absolute delta bases let the checker rebuild the
/// whole `d_i(t)` and verify the full ETOB specification plus causal order.
#[test]
fn the_etob_oracle_checks_compacted_runs() {
    let failures = FailurePattern::no_failures(N);
    let workload = BroadcastWorkload::causal_chains(N, 32, 8, 10, 2);
    let ops = workload.len();
    let mut world = WorldBuilder::new(N)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(9)
        .build_with(
            |p| EtobOmega::new(p, EtobConfig::default().with_compaction(64)),
            OmegaOracle::stable_from_start(failures.clone()),
        );
    workload.submit_to(&mut world);
    world.run_until(workload.last_submission_time() + 2_000);
    for p in world.process_ids() {
        let etob = world.algorithm(p);
        assert_eq!(etob.delivered_total(), ops as u64, "{p}");
        assert!(etob.folded() >= 192, "{p} folded only {}", etob.folded());
        assert!(
            etob.delivered().len() < ops - 128,
            "{p} kept the history resident"
        );
    }
    let history = world.trace().output_history();
    let sequences = delivered_sequences(&history);
    for p in world.process_ids() {
        assert_eq!(sequences.last(p).map(Vec::len), Some(ops), "{p}");
    }
    let checker =
        EtobChecker::from_delivered(&history, workload.records(), failures.correct(), Time::ZERO);
    assert!(
        checker.check_all_with_causal().is_ok(),
        "{:?}",
        checker.check_all_with_causal()
    );
}
