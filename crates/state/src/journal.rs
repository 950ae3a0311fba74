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
use parole_nft::{CollectionUndo, OperatorUndo};
use parole_primitives::{Address, BlockNumber, TokenId};
use std::sync::atomic::{AtomicU64, Ordering};

/// A key naming one committed record of the world state — the unit at
/// which [`crate::L2State::touched_since`] reports mutations and
/// [`crate::L2State::prove_record`] opens them against the state root.
///
/// The keys match the commitment tree's leaves: one per account record,
/// one per collection *header* (remaining/active supply and hence the
/// bonding-curve price, plus the sub-root over every token), and one per
/// `(collection, token)` leaf (owner, approved operator and listing).
/// Operator approvals commit through the header leaf but keep a key of
/// their own per owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecordKey {
    /// One account record (balance + nonce).
    Acct(Address),
    /// A collection's header: supply counters and therefore its price. A
    /// deployment reports under this key, since the header's sub-root
    /// commits to every token of the new collection.
    Coll(Address),
    /// One token's leaf within a collection: owner and approved operator.
    Token(Address, TokenId),
    /// One owner's blanket operator approvals within a collection
    /// (`setApprovalForAll` / `isApprovedForAll`), committed through the
    /// collection-header leaf.
    Oper(Address, Address),
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
/// Account records are `Copy` (balance + nonce), and collection operations
/// journal a small per-token or per-operator undo record, so every entry is
/// a few dozen bytes.
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
