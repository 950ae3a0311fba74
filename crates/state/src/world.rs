//! The complete L2 world state.

use crate::commit::CommitSlot;
use crate::journal::{Journal, JournalEntry, RecordKey};
use crate::tables::{AccountTable, CollTable};
use crate::{AccountState, Checkpoint};
use parole_crypto::{keccak256, Hash32, MerkleTree};
use parole_nft::{Collection, CollectionConfig, NftError, OpEvents};
use parole_primitives::{Address, BlockNumber, PrimitiveError, StorageBackend, TokenId, Wei};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

/// Errors raised by balance operations on the world state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// A debit exceeded the account's balance.
    InsufficientBalance {
        /// The account being debited.
        account: Address,
        /// The balance it actually held.
        held: Wei,
        /// The amount requested.
        requested: Wei,
    },
    /// A collection was deployed at an address that is already occupied.
    AddressOccupied(Address),
    /// The referenced collection does not exist.
    NoSuchCollection(Address),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance {
                account,
                held,
                requested,
            } => write!(
                f,
                "insufficient balance: {account} holds {held}, needs {requested}"
            ),
            StateError::AddressOccupied(a) => write!(f, "address {a} already occupied"),
            StateError::NoSuchCollection(a) => write!(f, "no collection deployed at {a}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<PrimitiveError> for StateError {
    fn from(_: PrimitiveError) -> Self {
        // The only primitive error that can escape balance arithmetic here is
        // underflow, which we surface with context at the call sites; this
        // impl exists for `?`-ergonomics in generic helpers.
        StateError::InsufficientBalance {
            account: Address::ZERO,
            held: Wei::ZERO,
            requested: Wei::ZERO,
        }
    }
}

/// The record a collection operation mutates, which names both its undo
/// record and its dirty mark.
#[derive(Clone, Copy)]
enum NftTouch {
    /// One token's leaf (every per-token operation).
    Token(TokenId),
    /// One `(owner, operator)` blanket approval, committed in the header.
    Operator { owner: Address, operator: Address },
}

/// The L2 chain's world state: accounts plus deployed NFT collections.
///
/// `L2State` is `Clone`; a clone is an independent speculative fork, and a
/// cheap one. The account and collection tables and the commitment cache
/// are stored in copy-on-write pages ([`parole_primitives::PagedVec`]), so a
/// clone copies page pointers, and each side's first write to a page copies
/// that page alone. For in-place LIFO speculation there is a second
/// mechanism: switch on [`L2State::begin_recording`] and use
/// [`L2State::checkpoint`] / [`L2State::revert_to`] to roll mutations back
/// without forking at all. See the crate docs for how the attack machinery
/// uses both.
#[derive(Debug, Serialize, Deserialize)]
pub struct L2State {
    accounts: AccountTable,
    collections: CollTable,
    block: BlockNumber,
    /// Undo log for in-place speculative execution. Deliberately excluded
    /// from serialization, equality and clones: checkpoints index *this*
    /// state's mutation history and are meaningless anywhere else.
    #[serde(skip)]
    journal: Journal,
    /// Memoized state commitment plus dirty sets (see `crate::commit`).
    /// Excluded from serialization and equality — it is derived state, and
    /// `state_root()` rebuilds it on demand. Clones *do* carry it: the cache
    /// sits behind an `Arc` over paged trees, so forking shares the parent's
    /// clean leaf cache copy-on-write, page by page. Interior mutability (a
    /// mutex, never contended on the single-owner hot path) lets
    /// `state_root(&self)` flush lazily.
    #[serde(skip)]
    commit: Mutex<CommitSlot>,
}

impl Clone for L2State {
    fn clone(&self) -> Self {
        L2State {
            accounts: self.accounts.clone(),
            collections: self.collections.clone(),
            block: self.block,
            journal: Journal::default(),
            commit: Mutex::new(self.commit_slot().clone()),
        }
    }
}

impl PartialEq for L2State {
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts
            && self.collections == other.collections
            && self.block == other.block
    }
}

impl L2State {
    /// An empty world state at block 0.
    pub fn new() -> Self {
        L2State {
            accounts: AccountTable::new(),
            collections: CollTable::new(),
            block: BlockNumber::default(),
            journal: Journal::default(),
            commit: Mutex::new(CommitSlot::default()),
        }
    }

    /// A world state at block 0 holding the given accounts: equal to
    /// crediting each `(address, amount)` pair in order on
    /// [`L2State::new`], so a repeated address sums its amounts and a zero
    /// amount still creates the account.
    ///
    /// Pairs that arrive in strictly ascending address order, as a genesis
    /// allocation does, are bulk-loaded into the account table with no
    /// per-account probe and no sort (see `FlatMap`'s `FromIterator`), and
    /// the first `state_root()` shares their key pages instead of copying
    /// the addresses. The first pair out of that order, and every pair
    /// after it, is credited one at a time.
    ///
    /// ```
    /// use parole_primitives::{Address, Wei};
    /// use parole_state::L2State;
    ///
    /// let pairs = [(1, 5), (2, 7), (9, 1), (2, 3)]
    ///     .map(|(a, eth)| (Address::from_low_u64(a), Wei::from_eth(eth)));
    /// let mut credited = L2State::new();
    /// for (who, amount) in pairs {
    ///     credited.credit(who, amount);
    /// }
    /// let loaded = L2State::from_accounts(pairs);
    /// assert!(loaded == credited);
    /// assert_eq!(loaded.balance_of(Address::from_low_u64(2)), Wei::from_eth(10));
    /// assert_eq!(loaded.state_root(), credited.state_root());
    /// ```
    pub fn from_accounts(accounts: impl IntoIterator<Item = (Address, Wei)>) -> Self {
        let mut pairs = accounts.into_iter().peekable();
        let mut last: Option<Address> = None;
        let table: AccountTable = std::iter::from_fn(|| {
            let (who, amount) = pairs.next_if(|&(who, _)| last.is_none_or(|last| who > last))?;
            last = Some(who);
            Some((who, AccountState::with_balance(amount)))
        })
        .collect();
        let mut state = L2State {
            accounts: table,
            ..L2State::new()
        };
        for (who, amount) in pairs {
            state.credit(who, amount);
        }
        state
    }

    /// An empty world state on the given layout; the same as
    /// [`L2State::new`], since the flat arena is the only layout.
    pub fn with_backend(_backend: StorageBackend) -> Self {
        Self::new()
    }

    /// Locks the commitment slot (the mutex is never contended on the
    /// single-owner hot path; a poisoned lock only means a panic unwound
    /// mid-flush, and the slot is still structurally valid).
    fn commit_slot(&self) -> std::sync::MutexGuard<'_, CommitSlot> {
        self.commit.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An independent speculative fork of this state.
    ///
    /// Identical to `clone()`, named for the hot path. The fork shares every
    /// page of the parent's tables and commitment cache: forking a
    /// 10⁶-account world copies a few thousand page pointers, a write on
    /// either side copies the one page it lands in, and the fork's first
    /// `state_root()` re-hashes only the records it touched and copies only
    /// the tree pages on their paths. The fork starts its own journal, so
    /// the parent's checkpoints do not apply to it.
    pub fn fork(&self) -> L2State {
        self.clone()
    }

    /// Switches on undo-log journaling: every subsequent mutation records
    /// enough to be rolled back via [`L2State::revert_to`].
    ///
    /// Recording is off by default (zero overhead for states that never
    /// speculate) and is not carried across clones.
    pub fn begin_recording(&mut self) {
        self.journal.recording = true;
    }

    /// Whether mutations are currently journaled.
    pub fn is_recording(&self) -> bool {
        self.journal.recording
    }

    /// The record keys *mutated* since `cp`, derived from the undo log —
    /// the records fraud-proof settlement opens for a disputed step.
    /// Requires recording to have been on since before `cp` (otherwise
    /// mutations are simply absent).
    ///
    /// Per-token operations yield token-granular keys, operator approvals
    /// the owner's operator key, and a deployment the new collection's
    /// header key ([`RecordKey::Coll`], whose opening commits to every
    /// token). Supply movement from mints and burns is not visible in the
    /// undo entry itself, so a mint or burn reports only its token key,
    /// whose opening carries the collection header.
    ///
    /// # Panics
    ///
    /// Panics when `cp` was issued by another state, or this state has been
    /// reverted past it.
    pub fn touched_since(&self, cp: Checkpoint) -> BTreeSet<RecordKey> {
        let mut keys = BTreeSet::new();
        for entry in &self.journal.entries[self.journal.index_of(cp)..] {
            match entry {
                JournalEntry::Account { who, .. } => {
                    keys.insert(RecordKey::Acct(*who));
                }
                JournalEntry::Block { .. } => {}
                JournalEntry::CollectionDeployed { addr } => {
                    keys.insert(RecordKey::Coll(*addr));
                }
                JournalEntry::TokenOp { addr, undo } => {
                    keys.insert(RecordKey::Token(*addr, undo.token()));
                }
                JournalEntry::OperatorOp { addr, undo } => {
                    keys.insert(RecordKey::Oper(*addr, undo.owner()));
                }
            }
        }
        keys
    }

    /// Marks the current point in the undo log.
    pub fn checkpoint(&self) -> Checkpoint {
        self.journal.checkpoint()
    }

    /// Rolls back every mutation journaled after `cp`, newest first,
    /// restoring the exact state that existed when the checkpoint was
    /// taken. Checkpoints taken after `cp` are invalidated.
    ///
    /// # Panics
    ///
    /// Panics, naming both journals, when `cp` was issued by a different
    /// state (a fork and its parent keep separate journals), and, naming
    /// the index and the journal length, when this state has already been
    /// reverted past `cp`.
    pub fn revert_to(&mut self, cp: Checkpoint) {
        let target = self.journal.index_of(cp);
        let depth = self.journal.entries.len() - target;
        if depth > 0 {
            parole_telemetry::counter("state.reverts", 1);
            parole_telemetry::observe("state.revert_depth", depth as u64);
        }
        // A rollback rewrites records like any other mutation, so it marks
        // each one dirty through the same hook the forward mutation used.
        let slot = Self::slot_mut(&mut self.commit);
        while self.journal.entries.len() > target {
            match self.journal.entries.pop().expect("length checked") {
                JournalEntry::Account { who, prev } => {
                    slot.mark_acct(who);
                    match prev {
                        Some(acct) => {
                            self.accounts.insert(who, acct);
                        }
                        None => {
                            self.accounts.remove(&who);
                        }
                    }
                }
                JournalEntry::Block { prev } => {
                    slot.mark_block();
                    self.block = prev;
                }
                JournalEntry::CollectionDeployed { addr } => {
                    slot.mark_coll(addr);
                    self.collections.remove(&addr);
                }
                JournalEntry::TokenOp { addr, undo } => {
                    slot.mark_coll_token(addr, undo.token());
                    self.collections
                        .get_mut(&addr)
                        .expect("journaled collection exists")
                        .apply_undo(undo);
                }
                JournalEntry::OperatorOp { addr, undo } => {
                    slot.mark_coll_header(addr);
                    self.collections
                        .get_mut(&addr)
                        .expect("journaled collection exists")
                        .apply_operator_undo(undo);
                }
            }
        }
    }

    /// Commitment-slot access that borrows only the `commit` field, so call
    /// sites holding disjoint borrows (e.g. a `&mut Collection`) can still
    /// mark dirt.
    #[inline]
    fn slot_mut(commit: &mut Mutex<CommitSlot>) -> &mut CommitSlot {
        commit.get_mut().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies `write` to `who`'s record, creating it (zero balance, zero
    /// nonce) if absent. Marks the account dirty for the commitment cache
    /// and, if recording, journals the full prior record first (cheap:
    /// `AccountState` is `Copy`) — one table lookup for both.
    #[inline]
    fn write_account(&mut self, who: Address, write: impl FnOnce(&mut AccountState)) {
        Self::slot_mut(&mut self.commit).mark_acct(who);
        let (acct, created) = self.accounts.get_or_insert_with(who, AccountState::default);
        if self.journal.recording {
            let prev = (!created).then_some(*acct);
            self.journal
                .entries
                .push(JournalEntry::Account { who, prev });
        }
        write(acct);
    }

    /// The current L2 block number.
    pub fn block(&self) -> BlockNumber {
        self.block
    }

    /// Advances the block number (called by the rollup when a batch seals).
    ///
    /// The block number is committed state — the metadata leaf of the state
    /// root covers it — so this dirties the commitment like any other
    /// mutation.
    pub fn advance_block(&mut self) {
        Self::slot_mut(&mut self.commit).mark_block();
        if self.journal.recording {
            self.journal
                .entries
                .push(JournalEntry::Block { prev: self.block });
        }
        self.block = self.block.next();
    }

    /// Spendable balance of `who` (zero for unknown accounts).
    pub fn balance_of(&self, who: Address) -> Wei {
        self.accounts.get(&who).map_or(Wei::ZERO, |a| a.balance)
    }

    /// Full account record of `who`, if it exists.
    pub fn account(&self, who: Address) -> Option<&AccountState> {
        self.accounts.get(&who)
    }

    /// Number of non-empty accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Credits `amount` to `who`, creating the account if needed.
    pub fn credit(&mut self, who: Address, amount: Wei) {
        self.write_account(who, |acct| acct.balance += amount);
    }

    /// Debits `amount` from `who`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::InsufficientBalance`] without mutating when the
    /// account cannot cover the amount — this is the enforcement point of the
    /// balance half of the paper's Eq. 1 and Eq. 3.
    pub fn debit(&mut self, who: Address, amount: Wei) -> Result<(), StateError> {
        let held = self.balance_of(who);
        if held < amount {
            return Err(StateError::InsufficientBalance {
                account: who,
                held,
                requested: amount,
            });
        }
        self.write_account(who, |acct| acct.balance -= amount);
        Ok(())
    }

    /// Moves `amount` from `from` to `to` atomically.
    ///
    /// # Errors
    ///
    /// Fails (leaving both accounts untouched) when `from` cannot cover the
    /// amount.
    pub fn transfer_balance(
        &mut self,
        from: Address,
        to: Address,
        amount: Wei,
    ) -> Result<(), StateError> {
        self.debit(from, amount)?;
        self.credit(to, amount);
        Ok(())
    }

    /// Bumps `who`'s nonce, creating the account if needed.
    pub fn bump_nonce(&mut self, who: Address) {
        self.write_account(who, |acct| acct.nonce = acct.nonce.next());
    }

    /// Deploys a collection at a deterministic address derived from its
    /// configuration and the current collection count, returning the address.
    pub fn deploy_collection(&mut self, config: CollectionConfig) -> Address {
        let digest = keccak256(
            format!(
                "deploy:{}:{}:{}",
                config.name,
                config.max_supply,
                self.collections.len()
            )
            .as_bytes(),
        );
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&digest.as_bytes()[12..]);
        let addr = Address::from_bytes(bytes);
        self.deploy_collection_at(addr, config)
            .expect("derived address cannot collide");
        addr
    }

    /// Deploys a collection at an explicit address.
    ///
    /// # Errors
    ///
    /// Fails when the address already hosts a collection.
    pub fn deploy_collection_at(
        &mut self,
        addr: Address,
        config: CollectionConfig,
    ) -> Result<(), StateError> {
        if self.collections.contains_key(&addr) {
            return Err(StateError::AddressOccupied(addr));
        }
        Self::slot_mut(&mut self.commit).mark_coll(addr);
        if self.journal.recording {
            self.journal
                .entries
                .push(JournalEntry::CollectionDeployed { addr });
        }
        self.collections.insert(addr, Collection::new(config));
        Ok(())
    }

    /// The collection deployed at `addr`, if any. Every mutation goes
    /// through the journaled `nft_*` entry points below, which mark exactly
    /// the touched record dirty.
    pub fn collection(&self, addr: Address) -> Option<&Collection> {
        self.collections.get(&addr)
    }

    /// Runs one collection operation through the state: looks the
    /// collection up, captures the undo record `touch` names if recording,
    /// runs `op`, and on success marks the touched record dirty and journals
    /// the undo. Returns the events the operation emitted; error structure
    /// as [`L2State::nft_mint`].
    fn nft_op(
        &mut self,
        collection: Address,
        touch: NftTouch,
        op: impl FnOnce(&mut Collection) -> Result<OpEvents, NftError>,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        let coll = self
            .collections
            .get_mut(&collection)
            .ok_or(StateError::NoSuchCollection(collection))?;
        let undo = self.journal.recording.then(|| match touch {
            NftTouch::Token(token) => JournalEntry::TokenOp {
                addr: collection,
                undo: coll.undo_point(token),
            },
            NftTouch::Operator { owner, operator } => JournalEntry::OperatorOp {
                addr: collection,
                undo: coll.operator_undo_point(owner, operator),
            },
        });
        let events = match op(coll) {
            Ok(events) => events,
            Err(e) => return Ok(Err(e)),
        };
        let slot = Self::slot_mut(&mut self.commit);
        match touch {
            NftTouch::Token(token) => slot.mark_coll_token(collection, token),
            NftTouch::Operator { .. } => slot.mark_coll_header(collection),
        }
        self.journal.entries.extend(undo);
        Ok(Ok(events))
    }

    /// Mints `token` to `to` on the collection at `collection`
    /// ([`Collection::mint`]), journaling a cheap per-token undo record when
    /// recording, and returns the emitted events.
    ///
    /// The outer `Result` reports state-level failure (no such collection);
    /// the inner one the contract-level constraints of [`Collection::mint`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_mint(
        &mut self,
        collection: Address,
        to: Address,
        token: TokenId,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| c.mint(to, token))
    }

    /// Transfers `token` from `from` to `to` ([`Collection::transfer`]).
    /// Journaling, events and error structure as [`L2State::nft_mint`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_transfer(
        &mut self,
        collection: Address,
        from: Address,
        to: Address,
        token: TokenId,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| {
            c.transfer(from, to, token)
        })
    }

    /// Burns `token` ([`Collection::burn`]). Journaling, events and error
    /// structure as [`L2State::nft_mint`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_burn(
        &mut self,
        collection: Address,
        owner: Address,
        token: TokenId,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| c.burn(owner, token))
    }

    /// Approves `operator` to move `token` (ERC-721 `approve`). Journaling,
    /// events and error structure as [`L2State::nft_mint`].
    ///
    /// Approvals are committed state — they gate `transferFrom`, and the
    /// token's leaf in the collection sub-tree covers the approved operator
    /// — so this marks the token dirty exactly like a transfer does.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_approve(
        &mut self,
        collection: Address,
        owner: Address,
        operator: Address,
        token: TokenId,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| {
            c.approve(owner, operator, token)
        })
    }

    /// Grants or revokes a blanket operator approval (ERC-721
    /// `setApprovalForAll`), journaling a cheap operator undo record when
    /// recording. Events and error structure as [`L2State::nft_mint`].
    ///
    /// Operator approvals are committed state — they gate `transferFrom`
    /// and the collection-header leaf absorbs the sorted pair set — but
    /// they touch no token leaf, so this marks only the header dirty.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_set_approval_for_all(
        &mut self,
        collection: Address,
        owner: Address,
        operator: Address,
        approved: bool,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        let touch = NftTouch::Operator { owner, operator };
        self.nft_op(collection, touch, |c| {
            c.set_approval_for_all(owner, operator, approved)
        })
    }

    /// Lists `token` for sale at `price` ([`Collection::list`]). Journaling,
    /// events and error structure as [`L2State::nft_mint`].
    ///
    /// Listings are committed state — the token leaf absorbs the seller and
    /// price — so this marks the token dirty exactly like a transfer does.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_list(
        &mut self,
        collection: Address,
        seller: Address,
        token: TokenId,
        price: Wei,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| {
            c.list(seller, token, price)
        })
    }

    /// Withdraws the listing for `token` ([`Collection::cancel_listing`]).
    /// Journaling, events and error structure as [`L2State::nft_mint`].
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_cancel_listing(
        &mut self,
        collection: Address,
        owner: Address,
        token: TokenId,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| {
            c.cancel_listing(owner, token)
        })
    }

    /// Settles the sale of a listed `token` to `buyer` on the NFT side
    /// ([`Collection::buy`]: ownership, approval clear, listing
    /// consumption). Journaling and error structure as
    /// [`L2State::nft_mint`]. The returned `Sold` event carries the
    /// settlement split; the *caller* moves the matching wei through the
    /// balance ledger so the account mutations journal their own undo
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NoSuchCollection`] when nothing is deployed at
    /// `collection`.
    pub fn nft_buy(
        &mut self,
        collection: Address,
        buyer: Address,
        token: TokenId,
    ) -> Result<Result<OpEvents, NftError>, StateError> {
        self.nft_op(collection, NftTouch::Token(token), |c| c.buy(buyer, token))
    }

    /// Iterates over `(address, collection)` pairs in address order.
    pub fn collections(&self) -> impl Iterator<Item = (Address, &Collection)> {
        self.collections.iter_sorted().map(|(&addr, c)| (addr, c))
    }

    /// The paper's "total balance" of a user: spendable L2 balance plus the
    /// market valuation of every NFT held across all collections
    /// (`L2 balance + Σ owned × price`).
    pub fn total_balance_of(&self, who: Address) -> Wei {
        let nft_value: Wei = self
            .collections
            .values_unordered()
            .map(|c| c.holdings_value(who))
            .sum();
        self.balance_of(who) + nft_value
    }

    /// The Merkle state root committing to the block number, every account
    /// and every collection's ownership/supply state.
    ///
    /// Leaves are `keccak(domain ‖ key ‖ length-prefixed record)` in
    /// deterministic (BTreeMap) order, so two states with identical contents
    /// always produce identical roots — the property the fraud-proof game
    /// relies on.
    ///
    /// This is the **incremental** path: the commitment tree is built once,
    /// kept resident, and repaired for exactly the records mutated since the
    /// previous call — O(dirty · log n) instead of O(total). The result is
    /// bit-identical to [`L2State::state_root_naive`], the from-scratch
    /// rebuild the audit differential oracle re-derives independently; the
    /// replay proptests in `tests/prop.rs` pin the equality down across
    /// mutations, forks and undo-log rollbacks.
    pub fn state_root(&self) -> Hash32 {
        self.commit_slot()
            .root(&self.accounts, &self.collections, self.block)
    }

    /// Recomputes the state root from scratch: every record re-encoded and
    /// re-hashed, every collection sub-tree and the top-level tree rebuilt
    /// leaf-up, no cache consulted or touched.
    ///
    /// O(total world size) — this is the reference implementation that
    /// [`L2State::state_root`] must match bit for bit. The audit layer's
    /// differential oracle uses it as the independent side so a stale or
    /// corrupted commitment cache can never vouch for itself. To stay
    /// independent, the two-level preimage scheme is re-derived **inline**
    /// here — own byte layout, one-shot [`keccak256`], the scalar
    /// [`MerkleTree::root_of`] — sharing nothing with `crate::commit`
    /// except the specification. Leaves stream into their roots as they
    /// are hashed, so the check holds O(log n) nodes beside the state, not
    /// a copy of the tree:
    ///
    /// - metadata leaf: `"meta" ‖ block number (8B BE)`;
    /// - token leaf: `"tokn" ‖ token (8B BE) ‖ owner (20B) ‖ approved
    ///   operator or zero (20B) ‖ royalty bps (2B BE) ‖ listing seller or
    ///   zero (20B) ‖ listing price (16B BE)`, in token-id order per
    ///   collection;
    /// - collection leaf: `"coll" ‖ address ‖ remaining-supply ‖
    ///   active-supply ‖ approval-count ‖ operator-count ‖
    ///   keccak("oper" ‖ sorted (owner ‖ operator) pairs) ‖ sub-tree root ‖
    ///   royalty bps (2B BE)`;
    /// - account leaf: `"acct" ‖ address ‖ len(encoding) ‖ encoding`;
    /// - top level: the metadata leaf, then all account leaves in address
    ///   order, then all collection leaves in address order.
    pub fn state_root_naive(&self) -> Hash32 {
        let meta = {
            let mut buf = Vec::with_capacity(12);
            buf.extend_from_slice(b"meta");
            buf.extend_from_slice(&self.block.value().to_be_bytes());
            keccak256(&buf)
        };
        let accounts = self.accounts.iter_sorted().map(|(addr, acct)| {
            let encoded = acct.encode();
            let mut buf = Vec::with_capacity(28 + encoded.len());
            buf.extend_from_slice(b"acct");
            buf.extend_from_slice(addr.as_bytes());
            buf.extend_from_slice(&(encoded.len() as u32).to_be_bytes());
            buf.extend_from_slice(&encoded);
            keccak256(&buf)
        });
        let collections = self.collections.iter_sorted().map(|(addr, coll)| {
            let sub_root = MerkleTree::root_of(coll.iter().map(|(token, owner)| {
                let approved = coll.get_approved(token).unwrap_or(Address::ZERO);
                let listing = coll.listing_of(token);
                let mut buf = Vec::with_capacity(90);
                buf.extend_from_slice(b"tokn");
                buf.extend_from_slice(&token.value().to_be_bytes());
                buf.extend_from_slice(owner.as_bytes());
                buf.extend_from_slice(approved.as_bytes());
                buf.extend_from_slice(&coll.token_royalty_bps(token).to_be_bytes());
                buf.extend_from_slice(listing.map_or(Address::ZERO, |l| l.seller).as_bytes());
                buf.extend_from_slice(
                    &listing
                        .map_or(parole_primitives::Wei::ZERO, |l| l.price)
                        .wei()
                        .to_be_bytes(),
                );
                keccak256(&buf)
            }));
            let oper_digest = {
                let mut buf = Vec::with_capacity(4 + 40 * coll.operator_approval_count() as usize);
                buf.extend_from_slice(b"oper");
                for (owner, operator) in coll.operator_pairs() {
                    buf.extend_from_slice(owner.as_bytes());
                    buf.extend_from_slice(operator.as_bytes());
                }
                keccak256(&buf)
            };
            let mut buf = Vec::with_capacity(122);
            buf.extend_from_slice(b"coll");
            buf.extend_from_slice(addr.as_bytes());
            buf.extend_from_slice(&coll.remaining_supply().to_be_bytes());
            buf.extend_from_slice(&coll.active_supply().to_be_bytes());
            buf.extend_from_slice(&coll.approval_count().to_be_bytes());
            buf.extend_from_slice(&coll.operator_approval_count().to_be_bytes());
            buf.extend_from_slice(oper_digest.as_bytes());
            buf.extend_from_slice(sub_root.as_bytes());
            buf.extend_from_slice(&coll.config().royalty_bps.to_be_bytes());
            keccak256(&buf)
        });
        MerkleTree::root_of(std::iter::once(meta).chain(accounts).chain(collections))
    }

    /// Opens `who`'s account record against the current state root: the
    /// claimed balance/nonce plus the sibling path binding them to
    /// [`L2State::state_root`]. `None` when the account does not exist.
    ///
    /// Generation flushes the commitment cache if needed and then reads the
    /// resident tree levels — O(log n). Verification
    /// ([`AccountInclusionProof::verify`](crate::AccountInclusionProof::verify))
    /// needs only the bare root.
    pub fn prove_account(&self, who: Address) -> Option<crate::AccountInclusionProof> {
        let account = *self.accounts.get(&who)?;
        let path =
            self.commit_slot()
                .prove_acct(&self.accounts, &self.collections, self.block, who)?;
        Some(crate::AccountInclusionProof {
            address: who,
            account,
            path,
        })
    }

    /// Opens the header of the collection at `collection` (supply counters
    /// plus committed sub-root) against the current state root. `None` when
    /// no collection is deployed there.
    pub fn prove_collection(&self, collection: Address) -> Option<crate::CollectionInclusionProof> {
        let coll = self.collections.get(&collection)?;
        let header = crate::CollectionHeader::of(coll);
        let (sub_root, path) = self.commit_slot().prove_coll_header(
            &self.accounts,
            &self.collections,
            self.block,
            collection,
        )?;
        Some(crate::CollectionInclusionProof {
            collection,
            header,
            sub_root,
            path,
        })
    }

    /// Opens the token record `(collection, token)` — owner and approved
    /// operator — against the current state root, composing the token
    /// leaf's sub-tree path with the collection header's top-level path.
    /// `None` when the collection or the token does not exist.
    pub fn prove_token(
        &self,
        collection: Address,
        token: TokenId,
    ) -> Option<crate::TokenInclusionProof> {
        let coll = self.collections.get(&collection)?;
        let owner = coll.owner_of(token)?;
        let approved = coll.get_approved(token).unwrap_or(Address::ZERO);
        let listing = coll.listing_of(token);
        let header = crate::CollectionHeader::of(coll);
        let (token_path, header_path) = self.commit_slot().prove_token(
            &self.accounts,
            &self.collections,
            self.block,
            collection,
            token,
        )?;
        Some(crate::TokenInclusionProof {
            collection,
            token,
            owner,
            approved,
            royalty_bps: coll.token_royalty_bps(token),
            listing_seller: listing.map_or(Address::ZERO, |l| l.seller),
            listing_price: listing.map_or(parole_primitives::Wei::ZERO, |l| l.price),
            token_path,
            header,
            header_path,
        })
    }

    /// Opens whatever record `key` names against the current state root.
    /// Operator keys settle at header granularity (the header's operator
    /// digest commits to every blanket approval of the collection). `None` when the record
    /// does not exist in this state — absence has no inclusion proof; the
    /// settlement protocol treats a missing opening as a divergence in
    /// itself.
    pub fn prove_record(&self, key: &RecordKey) -> Option<crate::RecordProof> {
        match *key {
            RecordKey::Acct(who) => self.prove_account(who).map(crate::RecordProof::Account),
            RecordKey::Coll(addr) | RecordKey::Oper(addr, _) => self
                .prove_collection(addr)
                .map(crate::RecordProof::Collection),
            RecordKey::Token(addr, token) => {
                self.prove_token(addr, token).map(crate::RecordProof::Token)
            }
        }
    }

    /// Test-only sabotage hook for the audit mutation-smoke harness: forces
    /// the commitment cache to materialize, then tampers with the stored
    /// tree node over the first account's leaf group (the metadata leaf
    /// and the first accounts) *without* marking anything dirty —
    /// emulating an invalidation bug. Returns `false` when the state has
    /// no account to corrupt.
    ///
    /// After this returns `true`, `state_root()` serves a stale root that
    /// [`L2State::state_root_naive`] (and hence the audit differential
    /// oracle) must flag, until a record of that group flushes. Never call
    /// outside tests.
    #[doc(hidden)]
    pub fn corrupt_commit_cache_for_tests(&mut self) -> bool {
        let _ = self.state_root();
        Self::slot_mut(&mut self.commit).corrupt_for_tests()
    }

    /// Test-only sabotage one level down: materializes the cache, then
    /// tampers with a **token leaf** inside a collection sub-tree and
    /// propagates the corrupted sub-root up through the collection header —
    /// without marking anything dirty. Emulates a token-granular
    /// invalidation hook missing a mutation. Returns `false` when no
    /// collection has an active token to corrupt. Never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_commit_subtree_for_tests(&mut self) -> bool {
        let _ = self.state_root();
        Self::slot_mut(&mut self.commit).corrupt_subtree_for_tests(
            &self.accounts,
            &self.collections,
            self.block,
        )
    }

    /// `(shared, total)`: how many of this state's copy-on-write pages
    /// (account and collection tables, commitment tree, account key index)
    /// `other` stores at the same address, out of how many it has. A fork
    /// shares every page with its parent until one of them writes; test
    /// hook for that sharing, not part of the stable API.
    #[doc(hidden)]
    pub fn shared_pages(&self, other: &L2State) -> (usize, usize) {
        let commit = if std::ptr::eq(self, other) {
            let slot = self.commit_slot();
            slot.shared_pages(&slot)
        } else {
            self.commit_slot().shared_pages(&other.commit_slot())
        };
        let parts = [
            self.accounts.shared_pages(&other.accounts),
            self.collections.shared_pages(&other.collections),
            commit,
        ];
        parts
            .iter()
            .fold((0, 0), |(s, t), &(ps, pt)| (s + ps, t + pt))
    }

    /// Number of top-level commitment-tree nodes this state holds resident
    /// (0 before its first root): the footprint the tree's derive depth
    /// bounds. Test hook, not part of the stable API.
    #[doc(hidden)]
    pub fn commit_resident_nodes(&self) -> usize {
        self.commit_slot().resident_nodes()
    }

    /// Number of records currently marked dirty in the commitment slot: the
    /// records the next `state_root()` re-hashes. Test hook, not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn dirty_record_count(&self) -> usize {
        self.commit_slot().dirty_records()
    }

    /// Total L2 tokens in circulation (sum of all account balances) —
    /// conserved by everything except explicit credits/debits, which the
    /// conservation tests rely on.
    pub fn total_supply(&self) -> Wei {
        self.accounts.values_unordered().map(|a| a.balance).sum()
    }
}

impl Default for L2State {
    fn default() -> Self {
        L2State::new()
    }
}

impl fmt::Display for L2State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L2State({} accounts, {} collections, {})",
            self.accounts.len(),
            self.collections.len(),
            self.block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_primitives::TokenId;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    #[test]
    fn credit_debit_roundtrip() {
        let mut s = L2State::new();
        s.credit(addr(1), Wei::from_eth(3));
        s.debit(addr(1), Wei::from_eth(1)).unwrap();
        assert_eq!(s.balance_of(addr(1)), Wei::from_eth(2));
    }

    #[test]
    fn debit_rejects_overdraft_without_mutation() {
        let mut s = L2State::new();
        s.credit(addr(1), Wei::from_eth(1));
        let err = s.debit(addr(1), Wei::from_eth(2)).unwrap_err();
        assert!(matches!(err, StateError::InsufficientBalance { .. }));
        assert_eq!(s.balance_of(addr(1)), Wei::from_eth(1));
    }

    #[test]
    fn transfer_balance_conserves_supply() {
        let mut s = L2State::new();
        s.credit(addr(1), Wei::from_eth(5));
        s.credit(addr(2), Wei::from_eth(1));
        let before = s.total_supply();
        s.transfer_balance(addr(1), addr(2), Wei::from_eth(2))
            .unwrap();
        assert_eq!(s.total_supply(), before);
        assert_eq!(s.balance_of(addr(2)), Wei::from_eth(3));
        // Failed transfer leaves everything alone.
        assert!(s
            .transfer_balance(addr(2), addr(1), Wei::from_eth(100))
            .is_err());
        assert_eq!(s.total_supply(), before);
    }

    #[test]
    fn deploy_and_lookup_collection() {
        let mut s = L2State::new();
        let pt = s.deploy_collection(CollectionConfig::parole_token());
        assert!(s.collection(pt).is_some());
        assert!(s.collection(addr(99)).is_none());
        assert!(matches!(
            s.nft_mint(addr(99), addr(1), TokenId::new(0)),
            Err(StateError::NoSuchCollection(_))
        ));
        // Explicit redeploy at the same address fails.
        assert!(matches!(
            s.deploy_collection_at(pt, CollectionConfig::parole_token()),
            Err(StateError::AddressOccupied(_))
        ));
    }

    #[test]
    fn total_balance_includes_nft_valuation() {
        let mut s = L2State::new();
        let pt = s.deploy_collection(CollectionConfig::parole_token());
        s.credit(addr(1), Wei::from_milli_eth(1500));
        for i in 0..5 {
            let owner = if i < 2 { addr(1) } else { addr(9) };
            s.nft_mint(pt, owner, TokenId::new(i)).unwrap().unwrap();
        }
        // Case-study setup: 1.5 ETH + 2 PT at 0.4 = 2.3 ETH.
        assert_eq!(s.total_balance_of(addr(1)), Wei::from_milli_eth(2300));
    }

    #[test]
    fn state_root_deterministic_and_sensitive() {
        let mut a = L2State::new();
        a.credit(addr(1), Wei::from_eth(1));
        let pt = a.deploy_collection(CollectionConfig::parole_token());
        a.nft_mint(pt, addr(1), TokenId::new(0)).unwrap().unwrap();

        let mut b = L2State::new();
        b.credit(addr(1), Wei::from_eth(1));
        let pt_b = b.deploy_collection(CollectionConfig::parole_token());
        b.nft_mint(pt_b, addr(1), TokenId::new(0)).unwrap().unwrap();

        assert_eq!(a.state_root(), b.state_root());

        // Any divergence moves the root.
        b.credit(addr(2), Wei::from_gwei(1));
        assert_ne!(a.state_root(), b.state_root());
    }

    #[test]
    fn state_root_tracks_nft_ownership() {
        let mut s = L2State::new();
        let pt = s.deploy_collection(CollectionConfig::parole_token());
        s.nft_mint(pt, addr(1), TokenId::new(0)).unwrap().unwrap();
        let before = s.state_root();
        s.nft_transfer(pt, addr(1), addr(2), TokenId::new(0))
            .unwrap()
            .unwrap();
        assert_ne!(s.state_root(), before);
    }

    #[test]
    fn clone_forks_are_independent() {
        let mut s = L2State::new();
        s.credit(addr(1), Wei::from_eth(1));
        let mut fork = s.clone();
        fork.debit(addr(1), Wei::from_eth(1)).unwrap();
        assert_eq!(s.balance_of(addr(1)), Wei::from_eth(1));
        assert_eq!(fork.balance_of(addr(1)), Wei::ZERO);
        assert_ne!(s.state_root(), fork.state_root());
    }

    #[test]
    fn nonce_and_block_progress() {
        let mut s = L2State::new();
        s.bump_nonce(addr(1));
        s.bump_nonce(addr(1));
        assert_eq!(s.account(addr(1)).unwrap().nonce.value(), 2);
        s.advance_block();
        assert_eq!(s.block().value(), 1);
    }

    #[test]
    fn empty_state_root_commits_the_block_number() {
        // Even an empty world commits its block number through the metadata
        // leaf, so the root is non-zero and moves when the block advances.
        let mut s = L2State::new();
        let genesis = s.state_root();
        assert!(!genesis.is_zero());
        assert_eq!(genesis, s.state_root_naive());
        s.advance_block();
        assert_ne!(s.state_root(), genesis);
        assert_eq!(s.state_root(), s.state_root_naive());
    }

    #[test]
    fn advance_block_moves_and_revert_restores_the_root() {
        let (mut s, _) = journaled_fixture();
        let before = s.state_root();
        let cp = s.checkpoint();
        s.advance_block();
        assert_ne!(s.state_root(), before);
        s.revert_to(cp);
        assert_eq!(s.state_root(), before);
        assert_eq!(s.state_root(), s.state_root_naive());
    }

    /// A state with accounts, a collection and some minted tokens, used as
    /// the base for the journaling tests.
    fn journaled_fixture() -> (L2State, Address) {
        let mut s = L2State::new();
        s.credit(addr(1), Wei::from_eth(5));
        s.credit(addr(2), Wei::from_eth(1));
        let pt = s.deploy_collection(CollectionConfig::parole_token());
        s.nft_mint(pt, addr(1), TokenId::new(0)).unwrap().unwrap();
        s.nft_mint(pt, addr(2), TokenId::new(1)).unwrap().unwrap();
        s.begin_recording();
        (s, pt)
    }

    #[test]
    fn revert_restores_accounts_block_and_collections() {
        let (mut s, pt) = journaled_fixture();
        let baseline = s.clone();
        let cp = s.checkpoint();

        s.credit(addr(3), Wei::from_eth(2)); // fresh account
        s.debit(addr(1), Wei::from_eth(1)).unwrap();
        s.bump_nonce(addr(2));
        s.advance_block();
        s.nft_mint(pt, addr(3), TokenId::new(2)).unwrap().unwrap();
        s.nft_transfer(pt, addr(1), addr(2), TokenId::new(0))
            .unwrap()
            .unwrap();
        s.nft_burn(pt, addr(2), TokenId::new(1)).unwrap().unwrap();
        s.deploy_collection(CollectionConfig::limited_edition("X", 4, 100));
        assert_ne!(s, baseline);

        s.revert_to(cp);
        assert_eq!(s, baseline);
        assert_eq!(s.state_root(), baseline.state_root());
        // The fresh account is gone entirely, not just zeroed.
        assert!(s.account(addr(3)).is_none());
    }

    #[test]
    fn nested_checkpoints_revert_in_layers() {
        let (mut s, pt) = journaled_fixture();
        let cp0 = s.checkpoint();
        s.nft_mint(pt, addr(1), TokenId::new(5)).unwrap().unwrap();
        let mid = s.clone();
        let cp1 = s.checkpoint();
        s.nft_burn(pt, addr(1), TokenId::new(5)).unwrap().unwrap();
        s.nft_mint(pt, addr(2), TokenId::new(6)).unwrap().unwrap();

        s.revert_to(cp1);
        assert_eq!(s, mid);
        s.revert_to(cp0);
        assert!(s
            .collection(pt)
            .unwrap()
            .owner_of(TokenId::new(5))
            .is_none());
    }

    #[test]
    fn clone_does_not_inherit_recording() {
        let (s, _) = journaled_fixture();
        assert!(s.is_recording());
        let fork = s.clone();
        assert!(!fork.is_recording());
        // Equality ignores the journal entirely.
        assert_eq!(s, fork);
    }

    #[test]
    fn touched_since_tracks_writes_and_revert_clears_them() {
        let (mut s, pt) = journaled_fixture();
        let cp = s.checkpoint();

        s.credit(addr(5), Wei::from_eth(1));
        s.nft_transfer(pt, addr(1), addr(2), TokenId::new(0))
            .unwrap()
            .unwrap();
        s.nft_set_approval_for_all(pt, addr(2), addr(9), true)
            .unwrap()
            .unwrap();
        let fresh = s.deploy_collection(CollectionConfig::limited_edition("T", 4, 100));
        // Reads, and operations that fail their constraints, touch nothing.
        let _ = s.balance_of(addr(9));
        assert!(s.nft_burn(pt, addr(1), TokenId::new(1)).unwrap().is_err());
        let writes = s.touched_since(cp);
        assert_eq!(
            writes.into_iter().collect::<Vec<_>>(),
            vec![
                RecordKey::Acct(addr(5)),
                RecordKey::Coll(fresh),
                RecordKey::Token(pt, TokenId::new(0)),
                RecordKey::Oper(pt, addr(2)),
            ]
        );

        s.revert_to(cp);
        assert!(s.touched_since(cp).is_empty());
    }

    #[test]
    fn failed_operations_leave_revert_exact() {
        let (mut s, pt) = journaled_fixture();
        let baseline = s.clone();
        let cp = s.checkpoint();
        // Contract-level failures mutate nothing and journal nothing.
        assert!(s.nft_mint(pt, addr(1), TokenId::new(0)).unwrap().is_err());
        assert!(s.nft_burn(pt, addr(1), TokenId::new(1)).unwrap().is_err());
        assert!(s.debit(addr(2), Wei::from_eth(50)).is_err());
        s.revert_to(cp);
        assert_eq!(s, baseline);
    }

    #[test]
    #[should_panic(expected = "handed to journal")]
    fn revert_to_a_parents_checkpoint_on_its_fork_panics() {
        let (s, _) = journaled_fixture();
        let cp = s.checkpoint();
        let mut fork = s.fork();
        fork.begin_recording();
        fork.revert_to(cp);
    }

    #[test]
    #[should_panic(expected = "checkpoint index 1 beyond journal length 0")]
    fn revert_to_a_checkpoint_reverted_past_panics() {
        let (mut s, _) = journaled_fixture();
        let start = s.checkpoint();
        s.credit(addr(3), Wei::from_eth(1));
        let later = s.checkpoint();
        s.revert_to(start);
        s.revert_to(later);
    }

    #[test]
    #[should_panic(expected = "handed to journal")]
    fn touched_since_a_deserialized_copys_checkpoint_panics() {
        let (s, _) = journaled_fixture();
        let cp = s.checkpoint();
        let copy = L2State::from_value(&s.to_value()).unwrap();
        assert_eq!(copy, s);
        let _ = copy.touched_since(cp);
    }

    #[test]
    #[should_panic(expected = "checkpoint index 1 beyond journal length 0")]
    fn touched_since_a_checkpoint_reverted_past_panics() {
        let (mut s, _) = journaled_fixture();
        let start = s.checkpoint();
        s.credit(addr(3), Wei::from_eth(1));
        let later = s.checkpoint();
        s.revert_to(start);
        let _ = s.touched_since(later);
    }
}
