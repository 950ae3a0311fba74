//! Undo-log journaling for cheap speculative forks of [`crate::L2State`].
//!
//! The GENTRANSEQ hot path evaluates thousands of candidate transaction
//! orderings against the same base state. Cloning the full state per
//! candidate is O(world size); journaling records only what each operation
//! actually touched, so rolling back to a [`Checkpoint`] costs O(ops since
//! the checkpoint) — usually a handful of `Copy` account records and small
//! per-token undo entries.
//!
//! Forks are cheap too (the state's storage is paged copy-on-write), but a
//! fork still copies page pointers and each page it writes; see `DESIGN.md`
//! §4c for why the reorder search rolls back through this journal instead.

use crate::AccountState;
use parole_nft::{Collection, CollectionUndo, OperatorUndo};
use parole_primitives::{Address, BlockNumber, TokenId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// A conflict-domain key naming one record of the world state — the unit at
/// which the parallel block executor detects read/write conflicts.
///
/// The domains match the commitment tree's leaves (PR 5): one key per
/// account record, one per collection *header* (remaining/active supply and
/// hence the bonding-curve price), and one per `(collection, token)` leaf
/// (owner + approved operator). Header and token keys are disjoint records —
/// a transfer moving a token does not reprice the collection, so a price
/// read must not conflict with it. Whole-collection access (raw
/// `collection_mut` snapshots, the coarse [`crate::L2State::collection`]
/// reference) gets the wildcard [`RecordKey::CollAll`], which
/// [`key_sets_conflict`] treats as overlapping the header *and* every token
/// of that collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecordKey {
    /// One account record (balance + nonce).
    Acct(Address),
    /// A collection's header: supply counters and therefore its price.
    Coll(Address),
    /// Wildcard: the entire collection — header plus every token leaf and
    /// operator record. Produced by coarse whole-collection reads and
    /// snapshot writes.
    CollAll(Address),
    /// One token's leaf within a collection: owner and approved operator.
    Token(Address, TokenId),
    /// One owner's blanket operator approvals within a collection
    /// (`setApprovalForAll` / `isApprovedForAll`). A distinct record from
    /// the header so approval traffic does not serialize against price
    /// reads, even though both commit through the collection-header leaf.
    Oper(Address, Address),
}

/// Whether two record-key sets overlap under the conflict-domain semantics
/// of [`RecordKey`]: exact key equality, plus the rule that `CollAll(a)`
/// overlaps `Coll(a)` and every `Token(a, _)` (in either direction). The
/// header key `Coll(a)` and the token keys `Token(a, _)` do *not* overlap
/// each other — they are distinct commitment-tree records.
///
/// This is the intersection test the optimistic scheduler runs per
/// transaction; it iterates the smaller set and probes the larger, so the
/// cost is O(small · log large).
pub fn key_sets_conflict(a: &BTreeSet<RecordKey>, b: &BTreeSet<RecordKey>) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    for key in small {
        if large.contains(key) {
            return true;
        }
        match *key {
            RecordKey::Acct(_) => {}
            RecordKey::Coll(addr) | RecordKey::Token(addr, _) | RecordKey::Oper(addr, _) => {
                if large.contains(&RecordKey::CollAll(addr)) {
                    return true;
                }
            }
            RecordKey::CollAll(addr) => {
                if large.contains(&RecordKey::Coll(addr)) {
                    return true;
                }
                let tokens = RecordKey::Token(addr, TokenId::new(0))
                    ..=RecordKey::Token(addr, TokenId::new(u64::MAX));
                if large.range(tokens).next().is_some() {
                    return true;
                }
                let opers = RecordKey::Oper(addr, Address::ZERO)
                    ..=RecordKey::Oper(addr, Address::from_bytes([0xff; 20]));
                if large.range(opers).next().is_some() {
                    return true;
                }
            }
        }
    }
    false
}

/// An opaque position in one state's undo log, produced by
/// [`crate::L2State::checkpoint`] and consumed by
/// [`crate::L2State::revert_to`] and [`crate::L2State::touched_since`].
///
/// A checkpoint names the journal that issued it. Every new, cloned or
/// deserialized state starts a journal of its own, so a checkpoint handed to
/// another state (a parent's checkpoint on its fork, say), or to the issuing
/// state after it reverted past it, makes those calls panic instead of
/// rewinding the wrong history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    journal: u64,
    index: usize,
}

/// One journaled mutation, storing whatever is needed to undo it.
///
/// Account records are `Copy` (balance + nonce), so the common entries are
/// a few dozen bytes. `CollectionSnapshot` is the escape hatch for raw
/// `collection_mut` access, which can mutate arbitrarily; the OVM hot path
/// never takes it.
#[derive(Debug)]
pub(crate) enum JournalEntry {
    /// An account was created or mutated; `prev: None` means it did not
    /// exist before.
    Account {
        who: Address,
        prev: Option<AccountState>,
    },
    /// The block number advanced.
    Block { prev: BlockNumber },
    /// A collection was deployed at a previously free address.
    CollectionDeployed { addr: Address },
    /// A per-token collection operation ran; `undo` was captured just
    /// before it.
    TokenOp { addr: Address, undo: CollectionUndo },
    /// A `set_approval_for_all` ran; `undo` was captured just before it.
    OperatorOp { addr: Address, undo: OperatorUndo },
    /// Raw mutable access was handed out; the whole prior collection is
    /// retained (boxed to keep the enum small).
    CollectionSnapshot {
        addr: Address,
        prev: Box<Collection>,
    },
}

/// The undo log attached to an [`crate::L2State`].
///
/// Not serialized and not carried across clones: a checkpoint indexes one
/// particular state's mutation history and is meaningless anywhere else, so
/// every journal draws a fresh identity that its checkpoints carry.
#[derive(Debug)]
pub(crate) struct Journal {
    id: u64,
    pub(crate) entries: Vec<JournalEntry>,
    pub(crate) recording: bool,
}

impl Default for Journal {
    fn default() -> Self {
        // Relaxed: the id publishes no other data, it only has to be unique.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Journal {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            entries: Vec::new(),
            recording: false,
        }
    }
}

impl Journal {
    /// The current end of the log.
    pub(crate) fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            journal: self.id,
            index: self.entries.len(),
        }
    }

    /// The log index `cp` marks.
    ///
    /// # Panics
    ///
    /// Panics when `cp` was issued by another journal, or lies beyond this
    /// log's end (the state was reverted past it).
    pub(crate) fn index_of(&self, cp: Checkpoint) -> usize {
        assert!(
            cp.journal == self.id,
            "checkpoint issued by journal {} handed to journal {}",
            cp.journal,
            self.id
        );
        assert!(
            cp.index <= self.entries.len(),
            "checkpoint index {} beyond journal length {}",
            cp.index,
            self.entries.len()
        );
        cp.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn set(keys: &[RecordKey]) -> BTreeSet<RecordKey> {
        keys.iter().copied().collect()
    }

    #[test]
    fn exact_keys_conflict_only_with_themselves() {
        let a = set(&[
            RecordKey::Acct(addr(1)),
            RecordKey::Token(addr(7), TokenId::new(3)),
        ]);
        let b = set(&[
            RecordKey::Acct(addr(2)),
            RecordKey::Token(addr(7), TokenId::new(4)),
        ]);
        assert!(!key_sets_conflict(&a, &b));
        let c = set(&[RecordKey::Acct(addr(1))]);
        assert!(key_sets_conflict(&a, &c));
        assert!(key_sets_conflict(&c, &a));
    }

    #[test]
    fn header_and_token_records_are_disjoint() {
        // A price read (header) must not conflict with a transfer's token
        // write — that independence is what lets transfer traffic
        // parallelize at all.
        let header = set(&[RecordKey::Coll(addr(7))]);
        let token = set(&[RecordKey::Token(addr(7), TokenId::new(9))]);
        assert!(!key_sets_conflict(&header, &token));
        assert!(!key_sets_conflict(&token, &header));
        assert!(key_sets_conflict(&header, &header));
        assert!(!key_sets_conflict(&set(&[]), &header));
    }

    #[test]
    fn wildcard_overlaps_header_and_tokens_both_ways() {
        let all = set(&[RecordKey::CollAll(addr(7))]);
        let header = set(&[RecordKey::Coll(addr(7))]);
        let token = set(&[RecordKey::Token(addr(7), TokenId::new(9))]);
        let other = set(&[
            RecordKey::Coll(addr(8)),
            RecordKey::Token(addr(8), TokenId::new(9)),
            RecordKey::CollAll(addr(8)),
        ]);
        assert!(key_sets_conflict(&all, &header));
        assert!(key_sets_conflict(&header, &all));
        assert!(key_sets_conflict(&all, &token));
        assert!(key_sets_conflict(&token, &all));
        assert!(key_sets_conflict(&all, &all));
        assert!(!key_sets_conflict(&all, &other));
    }

    #[test]
    fn operator_records_are_disjoint_from_header_and_tokens() {
        let oper = set(&[RecordKey::Oper(addr(7), addr(1))]);
        let header = set(&[RecordKey::Coll(addr(7))]);
        let token = set(&[RecordKey::Token(addr(7), TokenId::new(9))]);
        let all = set(&[RecordKey::CollAll(addr(7))]);
        let other_owner = set(&[RecordKey::Oper(addr(7), addr(2))]);
        let other_coll = set(&[RecordKey::Oper(addr(8), addr(1))]);
        assert!(!key_sets_conflict(&oper, &header));
        assert!(!key_sets_conflict(&oper, &token));
        assert!(!key_sets_conflict(&oper, &other_owner));
        assert!(!key_sets_conflict(&oper, &other_coll));
        assert!(key_sets_conflict(&oper, &oper));
        assert!(key_sets_conflict(&oper, &all));
        assert!(key_sets_conflict(&all, &oper));
    }
}
