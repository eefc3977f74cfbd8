//! The correctness gate: every correct replica's state must agree and must
//! equal a sequential `KvStore` replay of the submitted operations, in the
//! order the replicas delivered them.

use std::collections::BTreeMap;

use ec_core::types::AppMessage;
use ec_core::workload::KvOp;
use ec_replication::{KvStore, StateMachine};

/// The command a put or delete submits.
pub fn command(op: &KvOp) -> Vec<u8> {
    match &op.value {
        Some(value) => KvStore::put(&op.key, value),
        None => KvStore::del(&op.key),
    }
}

/// Snapshot of a `KvStore` that applied `commands` in order.
pub fn replay<'a>(commands: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    KvStore::replay(commands).snapshot()
}

/// FNV-1a over a sequence of byte strings (one number that pins a set of
/// snapshots).
pub fn hash<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checks one replica group. `submitted` are the commands routed to the
/// group, `delivered` the delivered sequence of each replica (when the
/// engine exposes it), `snapshots` each replica's final state. Returns the
/// group's expected snapshot, or why the group is wrong.
pub fn check_group(
    submitted: &[Vec<u8>],
    delivered: &[Vec<AppMessage>],
    snapshots: &[Vec<u8>],
) -> Result<Vec<u8>, String> {
    let first = snapshots.first().ok_or("a group has replicas")?;
    if let Some(p) = snapshots.iter().position(|s| s != first) {
        return Err(format!("replica {p} disagrees with replica 0"));
    }
    let mut want: BTreeMap<&[u8], usize> = BTreeMap::new();
    for c in submitted {
        *want.entry(c.as_slice()).or_default() += 1;
    }
    for (p, sequence) in delivered.iter().enumerate() {
        let mut got: BTreeMap<&[u8], usize> = BTreeMap::new();
        for m in sequence {
            *got.entry(m.payload.as_ref()).or_default() += 1;
        }
        if got != want {
            return Err(format!(
                "replica {p} delivered {} commands that are not the {} submitted",
                sequence.len(),
                submitted.len()
            ));
        }
        let expected = replay(sequence.iter().map(|m| m.payload.as_ref()));
        if &expected != first {
            return Err(format!(
                "replica {p}'s state is not the replay of its delivered sequence"
            ));
        }
    }
    Ok(first.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::types::MsgId;
    use ec_sim::ProcessId;

    fn msg(seq: u64, payload: &[u8]) -> AppMessage {
        AppMessage::new(MsgId::new(ProcessId::new(0), seq), payload.to_vec())
    }

    #[test]
    fn a_consistent_group_passes() {
        let submitted = vec![KvStore::put("a", "1"), KvStore::put("a", "2")];
        let order = vec![msg(2, &submitted[1]), msg(1, &submitted[0])];
        let snap = replay(order.iter().map(|m| m.payload.as_ref()));
        let got = check_group(&submitted, &[order.clone(), order], &[snap.clone(), snap]);
        assert_eq!(got.as_deref(), Ok(&b"a=1;"[..]));
    }

    #[test]
    fn divergence_loss_and_wrong_state_fail() {
        let submitted = vec![KvStore::put("a", "1"), KvStore::put("b", "2")];
        let full = vec![msg(1, &submitted[0]), msg(2, &submitted[1])];
        let snap = replay(full.iter().map(|m| m.payload.as_ref()));
        assert!(check_group(&submitted, &[], &[snap.clone(), b"x".to_vec()]).is_err());
        let short = vec![full[0].clone()];
        assert!(check_group(&submitted, &[short], std::slice::from_ref(&snap)).is_err());
        assert!(check_group(&submitted, &[full], &[b"a=1;".to_vec()]).is_err());
    }

    #[test]
    fn hash_separates_parts() {
        assert_ne!(hash([&b"ab"[..], b""]), hash([&b"a"[..], b"b"]));
    }
}
