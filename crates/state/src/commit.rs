//! The incremental, **hierarchical** state-commitment cache.
//!
//! `L2State::state_root()` used to re-encode and re-hash every account and
//! every collection and rebuild the full Merkle tree on each call — O(total
//! world size) — while the fraud-proof game calls it from a dozen sites per
//! window and the reorder search commits thousands of candidate schedules
//! per episode. This module memoizes the commitment as a **two-level tree**:
//!
//! - every collection owns a resident [`CommitTree`] over per-token leaves
//!   (`"tokn" ‖ token ‖ owner ‖ approval ‖ royalty ‖ listing`, see
//!   [`token_preimage`]); its root,
//!   combined with the supply/config header, forms that collection's leaf in
//!   the **top-level** tree ([`coll_preimage`]);
//! - [`CommitCache`] holds the top-level tree and its [`TopKeys`]: the
//!   sorted key vectors mapping each account / collection to its leaf
//!   position, and one [`CollSub`] sub-tree per collection;
//! - [`CommitSlot`] wraps the cache with the **dirty sets**: every mutation
//!   on `L2State` (credit, debit, nonce bump, mint, transfer, burn, approve,
//!   list, deploy, and every undo-log rollback) marks
//!   the touched record — token-granular for the per-token NFT ops — and the
//!   next `state_root()` re-derives only the dirty leaves.
//!
//! The hierarchy is what makes NFT-heavy workloads cheap: a single token op
//! in a collection with `n` active tokens re-hashes one 90-byte token leaf
//! plus O(log n) sub-tree nodes plus the 122-byte collection header and its
//! O(log m) top-level path, instead of re-absorbing the entire ownership
//! list (O(n) hashing) into one flat leaf. Leaf preimages (dirty leaves on
//! a flush, every leaf on a build) are piped through
//! [`keccak256_batch`], which digests them eight at a time where the CPU
//! allows.
//!
//! The top-level tree stores only its levels from [`TOP_DEPTH`] up: its
//! leaves and the level above them are pure functions of records the
//! account and collection tables already hold, so every flush, splice and
//! proof re-derives the four-leaf group it needs from those records
//! ([`TopLeaves`]). At 10⁶ accounts that keeps 0.5 M of the tree's 2 M
//! hashes resident, for about four more digests per isolated dirty
//! account. Sub-trees keep every level (derive depth 0, see
//! [`CollSub::build`]): re-deriving a token leaf takes four record
//! lookups, and a sub-tree is bounded by its collection's supply.
//!
//! Forks share the clean cache copy-on-write: the cache sits behind an
//! [`Arc`], so `L2State::clone` / `L2State::fork` is O(1) for the
//! commitment state. The first post-fork flush detaches the cache with
//! [`Arc::make_mut`], which copies page pointers (the top-level tree and
//! `acct_keys` are [`PagedVec`]s) and sub-tree `Arc`s, not leaves; repairing
//! the dirty paths then copies one page per tree level on each path, and
//! only the sub-trees the flush touches are cloned.
//!
//! The resulting root is bit-identical to
//! [`L2State::state_root_naive`](crate::L2State::state_root_naive), the
//! from-scratch rebuild that re-derives the same two-level scheme
//! independently (its own preimage construction, one-shot hashing, plain
//! `MerkleTree`s) and stays available as the independent side of the audit
//! differential oracle. The replay proptests in `tests/prop.rs` assert the
//! equality after every mutation, fork and rollback.

use crate::tables::{AccountTable, CollTable};
use crate::AccountState;
use parole_crypto::{keccak256, CommitTree, Hash32, MerkleProof};
use parole_nft::Collection;
use parole_primitives::{Address, BlockNumber, PagedVec, TokenId, Wei};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Derive depth of the top-level tree: leaves and level 1 are re-derived
/// from the tables, levels 2 and up stay resident (see the module docs).
const TOP_DEPTH: u32 = 2;

/// Builds the fixed-width preimage of the chain-metadata leaf — always leaf
/// 0 of the top-level tree: `"meta" ‖ block-number (8B BE)`.
///
/// Committing the block number makes the *whole* L2 transition observable in
/// the root: two parties that execute the same transactions but disagree on
/// whether the batch seal advanced the block now derive different roots, so
/// the verifier/contract `advance_block` convention is pinned by the fraud
/// game itself instead of being silently unobservable.
pub(crate) fn meta_preimage(block: BlockNumber) -> [u8; 12] {
    let mut buf = [0u8; 12];
    buf[..4].copy_from_slice(b"meta");
    buf[4..12].copy_from_slice(&block.value().to_be_bytes());
    buf
}

/// Builds the fixed-width preimage of one account leaf:
/// `"acct" ‖ address ‖ 24u32 ‖ balance (16B BE) ‖ nonce (8B BE)`.
///
/// The explicit length prefix is the width of the account encoding
/// ([`AccountState::encode`]); it keeps the preimage injective should the
/// account record ever grow variable-width fields, so no two distinct
/// records can share a preimage.
pub(crate) fn acct_preimage(addr: Address, acct: &AccountState) -> [u8; 52] {
    let mut buf = [0u8; 52];
    buf[..4].copy_from_slice(b"acct");
    buf[4..24].copy_from_slice(addr.as_bytes());
    buf[24..28].copy_from_slice(&24u32.to_be_bytes());
    buf[28..44].copy_from_slice(&acct.balance.wei().to_be_bytes());
    buf[44..52].copy_from_slice(&acct.nonce.value().to_be_bytes());
    buf
}

/// Builds the fixed-width preimage of one token leaf in a collection's
/// sub-tree: `"tokn" ‖ token ‖ owner ‖ approved-operator ‖ royalty-bps ‖
/// listing-seller ‖ listing-price`.
///
/// The approval slot holds [`Address::ZERO`] when no operator is approved —
/// a faithful encoding, not a collision, because approving the zero address
/// *clears* the approval (ERC-721 semantics), so "approved to zero" and "no
/// approval" are the same state. The listing slots hold [`Address::ZERO`] /
/// zero wei when the token is unlisted — likewise not a collision, because
/// a real listing always has a non-zero seller (the owner) and a non-zero
/// price (zero-price listings are rejected at the contract level).
/// Committing the marketplace fields in the token leaf is the PR 5 lesson
/// applied to sale state: a forged or vanished listing must move the state
/// root so fraud proofs can dispute it. Every field is fixed-width, so the
/// preimage is injective by construction.
pub(crate) fn token_preimage(
    token: TokenId,
    owner: Address,
    approved: Address,
    royalty_bps: u16,
    listing_seller: Address,
    listing_price: Wei,
) -> [u8; 90] {
    let mut buf = [0u8; 90];
    buf[..4].copy_from_slice(b"tokn");
    buf[4..12].copy_from_slice(&token.value().to_be_bytes());
    buf[12..32].copy_from_slice(owner.as_bytes());
    buf[32..52].copy_from_slice(approved.as_bytes());
    buf[52..54].copy_from_slice(&royalty_bps.to_be_bytes());
    buf[54..74].copy_from_slice(listing_seller.as_bytes());
    buf[74..90].copy_from_slice(&listing_price.wei().to_be_bytes());
    buf
}

/// Builds a token's leaf preimage straight from its collection's live state.
pub(crate) fn token_preimage_for(coll: &Collection, token: TokenId, owner: Address) -> [u8; 90] {
    let listing = coll.listing_of(token);
    token_preimage(
        token,
        owner,
        coll.get_approved(token).unwrap_or(Address::ZERO),
        coll.token_royalty_bps(token),
        listing.map_or(Address::ZERO, |l| l.seller),
        listing.map_or(Wei::ZERO, |l| l.price),
    )
}

/// Builds the fixed-width preimage of one collection's top-level leaf:
/// `"coll" ‖ address ‖ remaining-supply ‖ active-supply ‖ approval-count ‖
/// operator-count ‖ operators-digest ‖ sub-root ‖ royalty-bps`.
///
/// The ownership *and per-token approval* content lives entirely in
/// `sub_root`, the root of the collection's per-token sub-tree (approvals
/// exist only for active tokens, so the token leaves cover the whole
/// approvals map); the approval count rides in the header as an explicit
/// prefix so the committed record is count-framed like the supply fields.
/// Blanket operator approvals (`setApprovalForAll`) are not per-token, so
/// they commit through the header directly: a count plus a digest over the
/// sorted `(owner, operator)` pairs (see [`operators_digest`]) — leaving
/// them out would let an aggregator forge operator grants without moving
/// the root, the same soundness hole PR 5 closed for per-token approvals.
pub(crate) fn coll_preimage(addr: Address, coll: &Collection, sub_root: Hash32) -> [u8; 122] {
    coll_header_preimage(addr, &CollectionHeader::of(coll), sub_root)
}

/// Digest of a collection's blanket operator approvals: `keccak("oper" ‖
/// (owner ‖ operator)*)` over the pairs in sorted order. The pairs are
/// fixed-width (20 + 20 bytes) and sorted, so the encoding is injective and
/// deterministic; the empty set digests the bare `"oper"` tag.
pub(crate) fn operators_digest(pairs: impl Iterator<Item = (Address, Address)>) -> Hash32 {
    let mut buf = Vec::with_capacity(4 + 40 * 4);
    buf.extend_from_slice(b"oper");
    for (owner, operator) in pairs {
        buf.extend_from_slice(owner.as_bytes());
        buf.extend_from_slice(operator.as_bytes());
    }
    keccak256(&buf)
}

/// The plain-data view of a collection's header leaf: the counters and the
/// operator digest that ride beside the sub-tree root in the 120-byte
/// preimage.
///
/// This is the piece of a token-inclusion proof a stateless verifier needs
/// to re-derive the header leaf from a recomputed sub-root — it carries no
/// reference into resident state, so proofs built from it verify against a
/// bare root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionHeader {
    /// Tokens still mintable (drives the bonding-curve price).
    pub remaining_supply: u64,
    /// Tokens currently active (minted and not burned).
    pub active_supply: u64,
    /// Tokens with a live approved operator.
    pub approval_count: u64,
    /// Live `(owner, operator)` blanket-approval pairs.
    pub operator_count: u64,
    /// Digest over the sorted blanket-approval pairs ([`operators_digest`]).
    pub operators_digest: Hash32,
    /// Creator-royalty basis points from the deployment config — immutable,
    /// but committed so a verifier can check the royalty a disputed sale
    /// paid against the collection's own header leaf.
    pub royalty_bps: u16,
}

impl CollectionHeader {
    pub(crate) fn of(coll: &Collection) -> Self {
        CollectionHeader {
            remaining_supply: coll.remaining_supply(),
            active_supply: coll.active_supply(),
            approval_count: coll.approval_count(),
            operator_count: coll.operator_approval_count(),
            operators_digest: operators_digest(coll.operator_pairs()),
            royalty_bps: coll.config().royalty_bps,
        }
    }
}

/// Builds the 122-byte collection header preimage from its raw fields — the
/// stateless twin of [`coll_preimage`], shared with proof verification.
pub(crate) fn coll_header_preimage(
    addr: Address,
    header: &CollectionHeader,
    sub_root: Hash32,
) -> [u8; 122] {
    let mut buf = [0u8; 122];
    buf[..4].copy_from_slice(b"coll");
    buf[4..24].copy_from_slice(addr.as_bytes());
    buf[24..32].copy_from_slice(&header.remaining_supply.to_be_bytes());
    buf[32..40].copy_from_slice(&header.active_supply.to_be_bytes());
    buf[40..48].copy_from_slice(&header.approval_count.to_be_bytes());
    buf[48..56].copy_from_slice(&header.operator_count.to_be_bytes());
    buf[56..88].copy_from_slice(header.operators_digest.as_bytes());
    buf[88..120].copy_from_slice(sub_root.as_bytes());
    buf[120..122].copy_from_slice(&header.royalty_bps.to_be_bytes());
    buf
}

/// The leaf source of a collection's sub-tree: the preimage of the token
/// at sub-leaf `i`, read from the collection's live state.
fn token_leaves<'a>(
    coll: &'a Collection,
    tokens: &'a [TokenId],
) -> impl Fn(usize) -> [u8; 90] + 'a {
    move |i| {
        let token = tokens[i];
        let owner = coll
            .owner_of(token)
            .expect("every sub-tree token is active");
        token_preimage_for(coll, token, owner)
    }
}

/// The preimage of one top-level leaf.
enum TopPreimage {
    Meta([u8; 12]),
    Acct([u8; 52]),
    Coll([u8; 122]),
}

impl AsRef<[u8]> for TopPreimage {
    fn as_ref(&self) -> &[u8] {
        match self {
            TopPreimage::Meta(b) => b,
            TopPreimage::Acct(b) => b,
            TopPreimage::Coll(b) => b,
        }
    }
}

/// The leaf source of the top-level tree: leaf 0 is the metadata leaf,
/// then one leaf per key of `acct_keys`, then one per key of `coll_keys`,
/// each derived from the live record (and, for a collection, its
/// sub-tree's root). Built by [`TopKeys::leaves`].
struct TopLeaves<'a> {
    accounts: &'a AccountTable,
    collections: &'a CollTable,
    block: BlockNumber,
    keys: &'a TopKeys,
}

impl TopLeaves<'_> {
    fn preimage(&self, i: usize) -> TopPreimage {
        let accts = self.keys.acct_keys.len();
        if i == 0 {
            TopPreimage::Meta(meta_preimage(self.block))
        } else if i <= accts {
            let who = self.keys.acct_keys[i - 1];
            let acct = self
                .accounts
                .get(&who)
                .expect("every committed account key is live");
            TopPreimage::Acct(acct_preimage(who, acct))
        } else {
            let j = i - 1 - accts;
            let addr = self.keys.coll_keys[j];
            let coll = self
                .collections
                .get(&addr)
                .expect("every committed collection key is live");
            TopPreimage::Coll(coll_preimage(addr, coll, self.keys.coll_subs[j].root()))
        }
    }
}

/// Leaf-flush accounting for one `CommitCache::apply` pass, feeding the
/// `state.*_flushed` telemetry streams.
#[derive(Debug, Default, Clone, Copy)]
struct FlushStats {
    /// Top-level leaves created, destroyed or re-hashed (accounts plus
    /// collection headers) — the quantity `state.leaves_flushed` has always
    /// measured, each record counted once.
    top_leaves: usize,
    /// Clean top-level leaves re-hashed only because they share a derived
    /// group with a flushed leaf, or sit after a splice point.
    derived_leaves: usize,
    /// Collection headers among `top_leaves` (re-derived because their
    /// sub-root or supply moved).
    coll_leaves: usize,
    /// Token leaves created, destroyed or re-hashed across all sub-trees.
    token_leaves: usize,
}

/// One collection's resident sub-tree: per-token leaves in token-id order.
#[derive(Debug, Clone)]
pub(crate) struct CollSub {
    tree: CommitTree,
    /// Token ids in leaf order (sorted); `tokens[i]` owns sub-leaf `i`.
    tokens: Vec<TokenId>,
}

impl CollSub {
    /// Builds a collection's sub-tree from scratch, batching every token
    /// preimage through the tree's build. The tree's derive depth is 0, so
    /// every level stays resident: [`CollSub::reconcile`] shifts token
    /// leaves in and out one at a time, which only a tree that stores its
    /// leaves allows.
    fn build(coll: &Collection) -> CollSub {
        let tokens: Vec<TokenId> = coll.iter().map(|(t, _)| t).collect();
        CollSub {
            tree: CommitTree::from_preimages(0, (0..tokens.len()).map(token_leaves(coll, &tokens))),
            tokens,
        }
    }

    /// The sub-tree root (the `sub_root` field of the collection's
    /// top-level leaf preimage).
    fn root(&self) -> Hash32 {
        self.tree.root()
    }

    /// Reconciles the sub-tree with the collection's live state for exactly
    /// the dirty tokens: minted tokens splice a leaf in, burned tokens
    /// splice one out, surviving tokens re-derive their leaf (owner or
    /// approval moved), and all affected paths repair in one batched
    /// O(dirty · log n) pass. Returns the number of token leaves flushed.
    fn reconcile(&mut self, coll: &Collection, dirty: &BTreeSet<TokenId>) -> usize {
        let mut flushed = 0usize;
        // Structural pass first, so every index the batch below uses is
        // final. A minted leaf is hashed as it is spliced in.
        let mut minted = Vec::new();
        for &token in dirty {
            match (coll.owner_of(token), self.tokens.binary_search(&token)) {
                (Some(owner), Err(pos)) => {
                    self.tokens.insert(pos, token);
                    self.tree
                        .insert(pos, token_preimage_for(coll, token, owner));
                    minted.push(token);
                    flushed += 1;
                }
                (None, Ok(pos)) => {
                    self.tokens.remove(pos);
                    self.tree.remove(pos);
                    flushed += 1;
                }
                _ => {}
            }
        }
        // Content pass: re-derive every surviving dirty token leaf, hashes
        // batched through one call, paths repaired in one batch.
        let positions: Vec<usize> = dirty
            .iter()
            .filter(|token| minted.binary_search(token).is_err())
            .filter_map(|token| self.tokens.binary_search(token).ok())
            .collect();
        flushed += positions.len();
        self.tree
            .update(&positions, token_leaves(coll, &self.tokens));
        flushed
    }
}

/// Per-collection dirt. A dirty collection's header leaf always
/// re-derives; an entry with neither `whole` nor tokens is a header-only
/// touch (a blanket operator approval, which commits through the header
/// leaf but leaves the token sub-tree alone).
#[derive(Debug, Clone, Default)]
pub(crate) struct CollDirt {
    /// The collection was deployed, or its deployment rolled back: a flush
    /// rebuilds the sub-tree from scratch.
    whole: bool,
    /// Tokens touched by per-token NFT ops: a flush reconciles exactly
    /// these leaves.
    tokens: BTreeSet<TokenId>,
}

/// A materialized commitment: the resident top-level tree plus its
/// [`TopKeys`] (the leaf index maps and the per-collection sub-trees).
///
/// Top-level leaf order matches the naive rebuild exactly: the chain-
/// metadata leaf (block number) first, then all account leaves in address
/// order, then all collection leaves in address order. Sub-tree leaf order
/// is token-id order.
///
/// The top-level tree stores levels [`TOP_DEPTH`] and up; whatever needs a
/// lower node re-derives its group from the tables through [`TopLeaves`].
/// The two 10⁶-scale parts, the top-level tree and `acct_keys`, are paged
/// ([`PagedVec`]), so cloning the cache copies page pointers and a flush on
/// the clone copies only the pages its dirty paths cross. `acct_keys`
/// starts out sharing the account table's sorted key pages (see
/// [`CommitCache::build`]); a splice copies the pages it shifts.
#[derive(Debug, Clone)]
pub(crate) struct CommitCache {
    tree: CommitTree,
    keys: TopKeys,
}

/// What maps the top-level tree's leaves to records: the key vectors and
/// the collection sub-trees whose roots the collection leaves embed. Held
/// apart from the tree so a leaf source ([`TopKeys::leaves`]) can borrow it
/// while the tree is repaired.
#[derive(Debug, Clone)]
struct TopKeys {
    /// Account addresses in leaf order (sorted); `acct_keys[i]` owns leaf
    /// `1 + i` (leaf 0 is the metadata leaf).
    acct_keys: PagedVec<Address>,
    /// Collection addresses in leaf order; `coll_keys[j]` owns leaf
    /// `1 + acct_keys.len() + j` and sub-tree `coll_subs[j]`.
    coll_keys: Vec<Address>,
    /// Per-collection sub-trees, index-aligned with `coll_keys`. Each sits
    /// behind its own `Arc` so a post-fork flush clones only the sub-trees
    /// it actually touches.
    coll_subs: Vec<Arc<CollSub>>,
}

impl TopKeys {
    /// The top-level leaf source over these keys and the live tables.
    fn leaves<'a>(
        &'a self,
        accounts: &'a AccountTable,
        collections: &'a CollTable,
        block: BlockNumber,
    ) -> TopLeaves<'a> {
        TopLeaves {
            accounts,
            collections,
            block,
            keys: self,
        }
    }

    /// Brings `acct_keys` in line with the account table for the dirty
    /// accounts in one merge: keys before the lowest created or destroyed
    /// one keep their pages, and the rest are written once, however many
    /// accounts were created or destroyed. Returns that lowest position
    /// (`None` when no account was created or destroyed), the created keys
    /// (ascending) and the number of keys destroyed.
    fn merge_acct_keys(
        &mut self,
        accounts: &AccountTable,
        dirty_accts: &BTreeSet<Address>,
    ) -> (Option<usize>, Vec<Address>, usize) {
        let (mut created, mut destroyed, mut first) = (Vec::new(), Vec::new(), None);
        for &who in dirty_accts {
            let pos = match (
                accounts.contains_key(&who),
                self.acct_keys.binary_search(&who),
            ) {
                (true, Err(pos)) => {
                    created.push(who);
                    pos
                }
                (false, Ok(pos)) => {
                    destroyed.push(who);
                    pos
                }
                _ => continue,
            };
            // Keys arrive ascending, so the first splice is the lowest.
            first.get_or_insert(pos);
        }
        let Some(first) = first else {
            return (None, created, 0);
        };
        let old = self.acct_keys.clone();
        self.acct_keys.truncate(first);
        let mut new_keys = created.iter().copied().peekable();
        let mut gone = destroyed.iter().peekable();
        for key in (first..old.len()).map(|i| old[i]) {
            while let Some(new) = new_keys.next_if(|&new| new < key) {
                self.acct_keys.push(new);
            }
            if gone.next_if_eq(&&key).is_none() {
                self.acct_keys.push(key);
            }
        }
        self.acct_keys.extend(new_keys);
        (Some(first), created, destroyed.len())
    }
}

impl CommitCache {
    /// Builds the full commitment from scratch (the one unavoidable O(n)
    /// pass; every later flush is O(dirty · log n)). Leaves stream in
    /// order from the sorted walk into the tree's build, one page per
    /// batch call, and are reduced to the stored level as they go, so no
    /// leaf page is held. `acct_keys` shares the account table's key pages
    /// wherever the table already holds its keys in address order (a
    /// bulk-loaded genesis holds all of them so), copying only the rest.
    fn build(accounts: &AccountTable, collections: &CollTable, block: BlockNumber) -> Self {
        let mut coll_subs = Vec::with_capacity(collections.len());
        let mut coll_keys = Vec::with_capacity(collections.len());
        let coll_leaves: Vec<TopPreimage> = collections
            .iter_sorted()
            .map(|(&addr, coll)| {
                let sub = CollSub::build(coll);
                let leaf = TopPreimage::Coll(coll_preimage(addr, coll, sub.root()));
                coll_keys.push(addr);
                coll_subs.push(Arc::new(sub));
                leaf
            })
            .collect();
        let leaves = std::iter::once(TopPreimage::Meta(meta_preimage(block)))
            .chain(
                accounts
                    .iter_sorted()
                    .map(|(&addr, acct)| TopPreimage::Acct(acct_preimage(addr, acct))),
            )
            .chain(coll_leaves);
        CommitCache {
            tree: CommitTree::from_preimages(TOP_DEPTH, leaves),
            keys: TopKeys {
                acct_keys: accounts.sorted_keys(),
                coll_keys,
                coll_subs,
            },
        }
    }

    /// `(shared, total)` pages of the top-level tree and `acct_keys` that
    /// `other` stores at the same address.
    fn shared_pages(&self, other: &CommitCache) -> (usize, usize) {
        let (ts, tt) = self.tree.shared_pages(&other.tree);
        let (ks, kt) = self.keys.acct_keys.shared_pages(&other.keys.acct_keys);
        (ts + ks, tt + kt)
    }

    /// Reconciles the trees with the current world for exactly the dirty
    /// records. Created and destroyed records are spliced in one pass: the
    /// key vectors merge once, and the top-level tree re-derives its
    /// stored nodes once from the lowest changed leaf on. Surviving dirty
    /// collections first rebuild (whole-dirty) or reconcile (token-dirty)
    /// their sub-tree; then every surviving dirty leaf before the splice
    /// point re-derives its group, all groups in one batched pass.
    fn apply(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
        dirty_block: bool,
        dirty_accts: &BTreeSet<Address>,
        dirty_colls: &BTreeMap<Address, CollDirt>,
    ) -> FlushStats {
        let mut stats = FlushStats::default();
        // Structural pass: splice the key vectors first so every index used
        // below is final. The metadata leaf at position 0 is structural
        // never — it exists for every state.
        let keys = &mut self.keys;
        let (first_acct, created_accts, mut destroyed) =
            keys.merge_acct_keys(accounts, dirty_accts);
        let offset = 1 + keys.acct_keys.len();
        let mut first_coll = None;
        let mut created_colls = Vec::new();
        for &addr in dirty_colls.keys() {
            match (collections.get(&addr), keys.coll_keys.binary_search(&addr)) {
                (Some(coll), Err(pos)) => {
                    let sub = CollSub::build(coll);
                    stats.token_leaves += sub.tokens.len();
                    stats.coll_leaves += 1;
                    keys.coll_keys.insert(pos, addr);
                    keys.coll_subs.insert(pos, Arc::new(sub));
                    created_colls.push(addr);
                    first_coll.get_or_insert(pos);
                }
                (None, Ok(pos)) => {
                    keys.coll_keys.remove(pos);
                    keys.coll_subs.remove(pos);
                    destroyed += 1;
                    first_coll.get_or_insert(pos);
                }
                _ => {}
            }
        }

        // Content pass: the leaf position of every surviving dirty record,
        // each collection's sub-tree brought up to date first (its header
        // leaf embeds the sub-root).
        let mut dirty = Vec::new();
        if dirty_block {
            dirty.push(0);
        }
        for who in dirty_accts {
            if created_accts.binary_search(who).is_err() {
                if let Ok(pos) = keys.acct_keys.binary_search(who) {
                    dirty.push(1 + pos);
                }
            }
        }
        for (&addr, dirt) in dirty_colls {
            let (Some(coll), Ok(pos)) =
                (collections.get(&addr), keys.coll_keys.binary_search(&addr))
            else {
                continue;
            };
            if created_colls.binary_search(&addr).is_ok() {
                continue;
            }
            // Copy-on-write at sub-tree granularity: only the touched
            // collections' sub-trees detach from a forked parent.
            let sub = Arc::make_mut(&mut keys.coll_subs[pos]);
            if dirt.whole {
                *sub = CollSub::build(coll);
                stats.token_leaves += sub.tokens.len();
            } else {
                stats.token_leaves += sub.reconcile(coll, &dirt.tokens);
            }
            dirty.push(offset + pos);
            stats.coll_leaves += 1;
        }
        let live = dirty.len() + created_accts.len() + created_colls.len();
        stats.top_leaves = live + destroyed;

        // One suffix pass from the lowest splice, then the groups of the
        // dirty leaves before it. Each live flushed leaf is hashed exactly
        // once; every other leaf hashed is a derived neighbour.
        let len = offset + keys.coll_keys.len();
        let splice_from = first_acct
            .map(|pos| 1 + pos)
            .or(first_coll.map(|pos| offset + pos));
        let source = self.keys.leaves(accounts, collections, block);
        let leaf = |i: usize| source.preimage(i);
        let mut hashed = 0;
        if let Some(from) = splice_from {
            hashed += self.tree.splice(from, len, leaf);
            let derived_from = from >> TOP_DEPTH << TOP_DEPTH;
            dirty.retain(|&i| i < derived_from);
        }
        hashed += self.tree.update(&dirty, leaf);
        stats.derived_leaves = hashed - live;
        stats
    }
}

/// The per-state commitment slot: an optional shared cache plus the
/// records touched since the last flush.
///
/// The cache is `None` until the first `state_root()` call (states that
/// never commit pay nothing). Dirty marking is a no-op while the cache is
/// `None` — there is nothing to invalidate, and the first flush builds from
/// the live maps anyway.
///
/// The dirty records are plain sets, and a rollback marks what it rewrites:
/// `revert_to` calls the same `mark_*` for every record it restores as the
/// forward mutation did. A fully reverted window therefore re-hashes the
/// records it touched, back to the leaves they were committed with.
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitSlot {
    cache: Option<Arc<CommitCache>>,
    dirty_accts: BTreeSet<Address>,
    dirty_colls: BTreeMap<Address, CollDirt>,
    /// The chain-metadata leaf (block number) was touched.
    dirty_block: bool,
}

impl CommitSlot {
    /// Marks an account record as touched (created, mutated or destroyed).
    #[inline]
    pub(crate) fn mark_acct(&mut self, who: Address) {
        if self.cache.is_some() {
            self.dirty_accts.insert(who);
        }
    }

    /// Marks the chain-metadata leaf as touched (the block number moved).
    #[inline]
    pub(crate) fn mark_block(&mut self) {
        if self.cache.is_some() {
            self.dirty_block = true;
        }
    }

    /// Marks a whole collection as touched (deployed, or its deployment
    /// rolled back): the next flush rebuilds its sub-tree from scratch.
    #[inline]
    pub(crate) fn mark_coll(&mut self, addr: Address) {
        if self.cache.is_some() {
            self.dirty_colls.entry(addr).or_default().whole = true;
        }
    }

    /// Marks a collection's header leaf as touched without invalidating any
    /// token leaf (a blanket operator approval changed): the next flush
    /// re-hashes the 122-byte header against the unchanged sub-root — O(log
    /// collections), no sub-tree work at all.
    #[inline]
    pub(crate) fn mark_coll_header(&mut self, addr: Address) {
        if self.cache.is_some() {
            self.dirty_colls.entry(addr).or_default();
        }
    }

    /// Marks a single token of a collection as touched (minted,
    /// transferred, burned, approved or listed): the next flush reconciles
    /// exactly that sub-tree leaf — O(log supply), the hierarchical fast
    /// path.
    #[inline]
    pub(crate) fn mark_coll_token(&mut self, addr: Address, token: TokenId) {
        if self.cache.is_some() {
            self.dirty_colls
                .entry(addr)
                .or_default()
                .tokens
                .insert(token);
        }
    }

    /// Number of records currently marked dirty (telemetry/test hook). A
    /// collection counts once however many of its tokens are dirty; the
    /// metadata leaf counts as one record when the block number moved.
    pub(crate) fn dirty_records(&self) -> usize {
        self.dirty_accts.len() + self.dirty_colls.len() + usize::from(self.dirty_block)
    }

    /// Returns the current state root, building the cache on first use and
    /// otherwise flushing only the dirty records through the resident trees.
    pub(crate) fn root(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
    ) -> Hash32 {
        let _span = parole_telemetry::span("state.root");
        parole_telemetry::counter("state.root_calls", 1);
        let keccak_before = parole_telemetry::local_counter("crypto.keccak256");
        let dirty_records = self.dirty_records();
        let root = match self.cache.as_mut() {
            None => {
                parole_telemetry::counter("state.commit_builds", 1);
                let cache = CommitCache::build(accounts, collections, block);
                let root = cache.tree.root();
                self.cache = Some(Arc::new(cache));
                root
            }
            Some(shared) if dirty_records == 0 => {
                parole_telemetry::counter("state.root_clean_hits", 1);
                return shared.tree.root();
            }
            Some(shared) => {
                parole_telemetry::observe("state.dirty_records", dirty_records as u64);
                // Copy-on-write: forks share the parent's clean cache until
                // one side actually flushes new dirt through it.
                let cache = Arc::make_mut(shared);
                let stats = cache.apply(
                    accounts,
                    collections,
                    block,
                    self.dirty_block,
                    &self.dirty_accts,
                    &self.dirty_colls,
                );
                parole_telemetry::observe("state.leaves_flushed", stats.top_leaves as u64);
                parole_telemetry::observe("state.leaves_derived", stats.derived_leaves as u64);
                parole_telemetry::observe("state.coll_leaves_flushed", stats.coll_leaves as u64);
                parole_telemetry::observe("state.token_leaves_flushed", stats.token_leaves as u64);
                cache.tree.root()
            }
        };
        self.dirty_accts.clear();
        self.dirty_colls.clear();
        self.dirty_block = false;
        // Both reads happen on this thread with no flush in between, so the
        // delta is exactly this call's digest count.
        let keccak_delta = parole_telemetry::local_counter("crypto.keccak256") - keccak_before;
        parole_telemetry::observe("state.keccak_per_root", keccak_delta);
        root
    }

    /// Ensures the cache is materialized and fully flushed (same contract as
    /// [`CommitSlot::root`]), then hands out a shared reference for proof
    /// generation.
    fn fresh_cache(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
    ) -> &CommitCache {
        let _ = self.root(accounts, collections, block);
        self.cache.as_ref().expect("root() materialized the cache")
    }

    /// Sibling path of `who`'s account leaf in the top-level tree, plus the
    /// committed root it verifies against. `None` when the account does not
    /// exist.
    pub(crate) fn prove_acct(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
        who: Address,
    ) -> Option<MerkleProof> {
        let cache = self.fresh_cache(accounts, collections, block);
        let pos = cache.keys.acct_keys.binary_search(&who).ok()?;
        let source = cache.keys.leaves(accounts, collections, block);
        cache.tree.prove(1 + pos, |i| source.preimage(i))
    }

    /// Sibling path of `addr`'s collection-header leaf in the top-level
    /// tree, plus the committed sub-tree root its preimage embeds. `None`
    /// when no collection is deployed at `addr`.
    pub(crate) fn prove_coll_header(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
        addr: Address,
    ) -> Option<(Hash32, MerkleProof)> {
        let cache = self.fresh_cache(accounts, collections, block);
        let pos = cache.keys.coll_keys.binary_search(&addr).ok()?;
        let sub_root = cache.keys.coll_subs[pos].root();
        let source = cache.keys.leaves(accounts, collections, block);
        let path = cache
            .tree
            .prove(1 + cache.keys.acct_keys.len() + pos, |i| source.preimage(i))?;
        Some((sub_root, path))
    }

    /// The two sibling paths of a token-inclusion proof: the token leaf's
    /// path inside its collection's sub-tree, and the collection header
    /// leaf's path in the top-level tree. `None` when the collection or the
    /// token does not exist.
    pub(crate) fn prove_token(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
        addr: Address,
        token: TokenId,
    ) -> Option<(MerkleProof, MerkleProof)> {
        let cache = self.fresh_cache(accounts, collections, block);
        let pos = cache.keys.coll_keys.binary_search(&addr).ok()?;
        let sub = &cache.keys.coll_subs[pos];
        let token_pos = sub.tokens.binary_search(&token).ok()?;
        let token_path = sub.tree.prove(
            token_pos,
            token_leaves(collections.get(&addr)?, &sub.tokens),
        )?;
        let source = cache.keys.leaves(accounts, collections, block);
        let header_path = cache
            .tree
            .prove(1 + cache.keys.acct_keys.len() + pos, |i| source.preimage(i))?;
        Some((token_path, header_path))
    }

    /// `(shared, total)` pages of this slot's materialized cache (top-level
    /// tree and `acct_keys`) that `other`'s cache stores at the same address;
    /// `(0, 0)` unless both slots have a cache.
    pub(crate) fn shared_pages(&self, other: &CommitSlot) -> (usize, usize) {
        match (self.cache.as_deref(), other.cache.as_deref()) {
            (Some(mine), Some(theirs)) => mine.shared_pages(theirs),
            _ => (0, 0),
        }
    }

    /// Stored nodes of the materialized top-level tree (0 before the first
    /// root). Test hook for the resident footprint.
    pub(crate) fn resident_nodes(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.tree.resident_nodes())
    }

    /// Test-only sabotage: tampers with the stored top-level node over the
    /// first account's group (the metadata leaf and the first accounts)
    /// *without* marking anything dirty, emulating a cache whose
    /// invalidation hooks missed a mutation. The node heals when any
    /// record of its group flushes, since that re-derives the group from
    /// the tables. Returns `false` when there is no materialized account
    /// leaf.
    pub(crate) fn corrupt_for_tests(&mut self) -> bool {
        match self.cache.as_mut() {
            Some(shared) if !shared.keys.acct_keys.is_empty() => {
                Arc::make_mut(shared)
                    .tree
                    .tamper_node_for_tests(1 >> TOP_DEPTH, keccak256(b"deliberately stale node"));
                true
            }
            _ => false,
        }
    }

    /// Test-only sabotage one level down: tampers with one **token leaf**
    /// inside the first non-empty collection sub-tree and propagates the
    /// corrupted sub-root through the collection header into the top-level
    /// tree — without marking anything dirty. Emulates a sub-tree whose
    /// token-granular invalidation hooks missed a mutation; the served root
    /// is immediately wrong and only the independent naive rebuild (the
    /// audit differential oracle's reference side) can tell. Returns
    /// `false` when no collection has a materialized token leaf.
    pub(crate) fn corrupt_subtree_for_tests(
        &mut self,
        accounts: &AccountTable,
        collections: &CollTable,
        block: BlockNumber,
    ) -> bool {
        let Some(shared) = self.cache.as_mut() else {
            return false;
        };
        let cache = Arc::make_mut(shared);
        let keys = &mut cache.keys;
        let Some(pos) = keys.coll_subs.iter().position(|sub| !sub.tree.is_empty()) else {
            return false;
        };
        Arc::make_mut(&mut keys.coll_subs[pos])
            .tree
            .tamper_node_for_tests(0, keccak256(b"deliberately stale token leaf"));
        // The header's group re-derives from the tampered sub-root.
        let header = 1 + keys.acct_keys.len() + pos;
        let source = cache.keys.leaves(accounts, collections, block);
        cache.tree.update(&[header], |i| source.preimage(i));
        true
    }
}
