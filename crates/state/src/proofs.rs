//! Stateless inclusion proofs against a bare state root.
//!
//! These are the record-level openings the fraud-proof game settles with: a
//! challenged single-step re-execution produces a handful of touched
//! records, and each side must *open* its claimed post-root at exactly those
//! records. A proof carries the claimed record values plus the sibling
//! paths binding them to the root — nothing else — so any party holding
//! only the 32-byte root (an L1 contract, the audit oracle, a verifier that
//! never saw the batch) can check it.
//!
//! Three record shapes exist, mirroring the commitment hierarchy
//! (`crate::commit`, DESIGN.md §4g/§4i):
//!
//! - [`AccountInclusionProof`] — one account leaf in the top-level tree;
//! - [`CollectionInclusionProof`] — one collection's 122-byte header leaf
//!   (supply counters + operator digest + royalty config + committed
//!   sub-root) in the top-level tree;
//! - [`TokenInclusionProof`] — the two-level composition: the token's
//!   90-byte leaf inside the collection sub-tree *plus* the header leaf's
//!   top-level path. Verification recomputes the sub-root from the token
//!   leaf, folds it into the header preimage, and walks the top-level path —
//!   so one proof pins the token's owner, approved operator, royalty stamp
//!   **and** open listing to the state root.
//!
//! Proof generation ([`crate::L2State::prove_account`] /
//! [`crate::L2State::prove_token`] / [`crate::L2State::prove_collection`])
//! reads the resident [`CommitTree`](parole_crypto::CommitTree) levels
//! directly and re-derives a top-level path's two bottom siblings from
//! the leaf's four-leaf group — O(log n) per path, no rebuild.
//! Verification never touches resident state.

use crate::commit::{acct_preimage, coll_header_preimage, token_preimage, CollectionHeader};
use crate::journal::RecordKey;
use crate::AccountState;
use parole_crypto::{keccak256, Hash32, MerkleProof};
use parole_primitives::{Address, TokenId, Wei};

/// An opening of one account record against a bare state root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountInclusionProof {
    /// The account's address (part of the leaf preimage).
    pub address: Address,
    /// The claimed account record (balance + nonce).
    pub account: AccountState,
    /// Sibling path of the account leaf in the top-level tree.
    pub path: MerkleProof,
}

/// Bytes per serialized path node: a sibling hash plus a direction flag.
const PATH_NODE_BYTES: usize = 33;
/// Bytes for the leaf index each path carries.
const LEAF_INDEX_BYTES: usize = 8;

impl AccountInclusionProof {
    /// Checks the proof against a bare `state_root` — no resident state
    /// consulted.
    pub fn verify(&self, state_root: Hash32) -> bool {
        let leaf = keccak256(&acct_preimage(self.address, &self.account));
        self.path.verify(leaf, state_root)
    }

    /// Wire size: the leaf preimage plus the sibling path.
    pub fn encoded_len(&self) -> usize {
        acct_preimage(self.address, &self.account).len()
            + LEAF_INDEX_BYTES
            + PATH_NODE_BYTES * self.path.depth()
    }
}

/// An opening of one collection's header leaf (supply counters and
/// committed sub-tree root) against a bare state root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionInclusionProof {
    /// The collection's address.
    pub collection: Address,
    /// The claimed header fields.
    pub header: CollectionHeader,
    /// The claimed sub-tree root over the collection's token leaves.
    pub sub_root: Hash32,
    /// Sibling path of the header leaf in the top-level tree.
    pub path: MerkleProof,
}

impl CollectionInclusionProof {
    /// Checks the proof against a bare `state_root`.
    pub fn verify(&self, state_root: Hash32) -> bool {
        let leaf = keccak256(&coll_header_preimage(
            self.collection,
            &self.header,
            self.sub_root,
        ));
        self.path.verify(leaf, state_root)
    }

    /// Wire size: the 122-byte header preimage plus the sibling path.
    pub fn encoded_len(&self) -> usize {
        122 + LEAF_INDEX_BYTES + PATH_NODE_BYTES * self.path.depth()
    }
}

/// The two-level opening of one token record: owner and approved operator,
/// bound to the state root through the collection sub-tree *and* the
/// header leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenInclusionProof {
    /// The collection's address.
    pub collection: Address,
    /// The token id.
    pub token: TokenId,
    /// The claimed owner.
    pub owner: Address,
    /// The claimed approved operator ([`Address::ZERO`] when none).
    pub approved: Address,
    /// The claimed royalty stamp (basis points recorded at mint).
    pub royalty_bps: u16,
    /// The claimed listing seller ([`Address::ZERO`] when unlisted).
    pub listing_seller: Address,
    /// The claimed listing price ([`parole_primitives::Wei::ZERO`] when
    /// unlisted).
    pub listing_price: Wei,
    /// Sibling path of the token leaf inside the collection sub-tree.
    pub token_path: MerkleProof,
    /// The claimed header fields riding beside the sub-root in the header
    /// leaf preimage.
    pub header: CollectionHeader,
    /// Sibling path of the header leaf in the top-level tree.
    pub header_path: MerkleProof,
}

impl TokenInclusionProof {
    /// Recomputes `token leaf → sub-root → header leaf → top root` and
    /// checks the result against a bare `state_root`. Any single-bit lie —
    /// in the owner, the operator, either path, the header counters, or the
    /// root itself — breaks the keccak chain and fails.
    pub fn verify(&self, state_root: Hash32) -> bool {
        let token_leaf = keccak256(&token_preimage(
            self.token,
            self.owner,
            self.approved,
            self.royalty_bps,
            self.listing_seller,
            self.listing_price,
        ));
        let sub_root = self.token_path.compute_root(token_leaf);
        let header_leaf = keccak256(&coll_header_preimage(
            self.collection,
            &self.header,
            sub_root,
        ));
        self.header_path.verify(header_leaf, state_root)
    }

    /// Wire size: the 90-byte token leaf preimage, the 122-byte header
    /// preimage, and both sibling paths.
    pub fn encoded_len(&self) -> usize {
        90 + 122
            + 2 * LEAF_INDEX_BYTES
            + PATH_NODE_BYTES * (self.token_path.depth() + self.header_path.depth())
    }
}

/// Any record opening, keyed by [`RecordKey`] — the unit the single-step
/// settlement exchanges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordProof {
    /// An account opening.
    Account(AccountInclusionProof),
    /// A collection-header opening (a deployment settles at header
    /// granularity: the header's sub-root commits to every token).
    Collection(CollectionInclusionProof),
    /// A token opening.
    Token(TokenInclusionProof),
}

impl RecordProof {
    /// The record key this opening speaks for.
    pub fn key(&self) -> RecordKey {
        match self {
            RecordProof::Account(p) => RecordKey::Acct(p.address),
            RecordProof::Collection(p) => RecordKey::Coll(p.collection),
            RecordProof::Token(p) => RecordKey::Token(p.collection, p.token),
        }
    }

    /// Checks the opening against a bare `state_root`.
    pub fn verify(&self, state_root: Hash32) -> bool {
        match self {
            RecordProof::Account(p) => p.verify(state_root),
            RecordProof::Collection(p) => p.verify(state_root),
            RecordProof::Token(p) => p.verify(state_root),
        }
    }

    /// Wire size of the opening (leaf preimages + sibling paths) — the
    /// quantity the fraud-proof benches report as O(log n).
    pub fn encoded_len(&self) -> usize {
        match self {
            RecordProof::Account(p) => p.encoded_len(),
            RecordProof::Collection(p) => p.encoded_len(),
            RecordProof::Token(p) => p.encoded_len(),
        }
    }
}
