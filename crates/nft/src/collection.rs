//! The limited-edition ERC-721 collection state machine.

use crate::token_table::TokenTable;
use crate::{Erc721Event, NftError, OpEvents};
use parole_primitives::{Address, TokenId, Wei};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Denominator of royalty basis points: `royalty_bps = 10_000` is 100%.
pub const ROYALTY_BPS_DENOM: u64 = 10_000;

/// Immutable parameters fixed at contract deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionConfig {
    /// Human-readable collection name (ERC-721 `name()`).
    pub name: String,
    /// Ticker symbol (ERC-721 `symbol()`).
    pub symbol: String,
    /// Maximum number of simultaneously existing tokens (`S^0`).
    pub max_supply: u64,
    /// Price when the full supply is available (`P^0`).
    pub initial_price: Wei,
    /// Quantum the bonding-curve price is floored to. The paper's case
    /// studies truncate to two decimals of ETH (`Wei::from_centi_eth(1)`);
    /// `Wei::ZERO` disables quantization.
    pub price_quantum: Wei,
    /// Address credited with primary-sale (mint) revenue.
    pub creator: Address,
    /// Creator royalty on secondary sales, in basis points of the sale
    /// price (out of [`ROYALTY_BPS_DENOM`]). Stamped onto each token at
    /// mint, so the split a buyer pays is fixed by the token's own leaf.
    pub royalty_bps: u16,
}

impl CollectionConfig {
    /// The PAROLE Token (PT) configuration used throughout the paper's case
    /// studies: `S^0 = 10`, `P^0 = 0.2 ETH`, prices shown truncated to two
    /// decimals.
    pub fn parole_token() -> Self {
        CollectionConfig {
            name: "ParoleToken".to_string(),
            symbol: "PT".to_string(),
            max_supply: 10,
            initial_price: Wei::from_milli_eth(200),
            price_quantum: Wei::from_centi_eth(1),
            creator: Address::from_low_u64(0xC0FFEE),
            royalty_bps: 500,
        }
    }

    /// A generic limited-edition collection with the given supply and
    /// initial price in milli-ETH. Unlike [`CollectionConfig::parole_token`]
    /// (which truncates to two decimals so the paper's Fig. 5 tables match
    /// digit for digit), generic collections quantize to 0.001 ETH so the
    /// bonding curve stays visible at larger supplies.
    pub fn limited_edition(name: &str, max_supply: u64, initial_price_milli_eth: u64) -> Self {
        CollectionConfig {
            name: name.to_string(),
            symbol: name.chars().take(4).collect::<String>().to_uppercase(),
            max_supply,
            initial_price: Wei::from_milli_eth(initial_price_milli_eth),
            price_quantum: Wei::from_milli_eth(1),
            creator: Address::from_low_u64(0xC0FFEE),
            royalty_bps: 250,
        }
    }
}

impl Serialize for CollectionConfig {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (Value::Str("name".to_string()), self.name.to_value()),
            (Value::Str("symbol".to_string()), self.symbol.to_value()),
            (
                Value::Str("max_supply".to_string()),
                self.max_supply.to_value(),
            ),
            (
                Value::Str("initial_price".to_string()),
                self.initial_price.to_value(),
            ),
            (
                Value::Str("price_quantum".to_string()),
                self.price_quantum.to_value(),
            ),
            (Value::Str("creator".to_string()), self.creator.to_value()),
            (
                Value::Str("royalty_bps".to_string()),
                self.royalty_bps.to_value(),
            ),
        ])
    }
}

impl Deserialize for CollectionConfig {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        // Pre-marketplace artifacts have no `royalty_bps`: absent means a
        // royalty-free collection, matching their on-chain behaviour.
        let royalty_bps = match struct_field(value, "royalty_bps") {
            Ok(field) => u16::from_value(field)?,
            Err(_) => 0,
        };
        Ok(CollectionConfig {
            name: String::from_value(struct_field(value, "name")?)?,
            symbol: String::from_value(struct_field(value, "symbol")?)?,
            max_supply: u64::from_value(struct_field(value, "max_supply")?)?,
            initial_price: Wei::from_value(struct_field(value, "initial_price")?)?,
            price_quantum: Wei::from_value(struct_field(value, "price_quantum")?)?,
            creator: Address::from_value(struct_field(value, "creator")?)?,
            royalty_bps,
        })
    }
}

/// An open secondary-sale offer for one token: who listed it and at what
/// price. Modeled on the VBI-Substrate marketplace pallet's `Sale` record,
/// minus installments. The `seller` is pinned at listing time: if the token
/// changes hands afterwards the listing goes *stale* and can no longer
/// settle (only the new owner can cancel or replace it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Listing {
    /// The owner at listing time.
    pub seller: Address,
    /// The asking price in wei.
    pub price: Wei,
}

/// Everything a per-token operation can mutate, captured by
/// [`Collection::undo_point`] *before* the operation so
/// [`Collection::apply_undo`] can restore it exactly.
///
/// Undo records are only valid against the collection that produced them,
/// applied in LIFO order (newest first). The state undo-log journal relies
/// on this to make speculative forks cheap: a token operation journals ~60
/// bytes instead of a full collection snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionUndo {
    token: TokenId,
    prev_owner: Option<Address>,
    prev_approval: Option<Address>,
    prev_listing: Option<Listing>,
    prev_royalty: Option<u16>,
    prev_counts: (u64, u64, u64),
}

impl CollectionUndo {
    /// The single token this operation mutated — the token-granular dirty
    /// mark the hierarchical state-commitment cache invalidates (both on the
    /// forward journal entry and when the entry is rolled back).
    pub fn token(&self) -> TokenId {
        self.token
    }
}

/// Everything one `set_approval_for_all` can mutate, captured by
/// [`Collection::operator_undo_point`] *before* the operation so
/// [`Collection::apply_operator_undo`] can restore it exactly.
///
/// Operator approvals are not per-token state (they live beside the token
/// table, keyed by `(owner, operator)`), so they carry their own undo record
/// instead of riding [`CollectionUndo`]. Same LIFO contract as the token
/// undos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorUndo {
    owner: Address,
    operator: Address,
    prev_approved: bool,
}

impl OperatorUndo {
    /// The owner whose operator set this operation mutated — the
    /// `(collection, owner)` record key the state's touched-record set
    /// derives from the journal entry.
    pub fn owner(&self) -> Address {
        self.owner
    }
}

/// A deployed limited-edition ERC-721 collection.
///
/// Invariants maintained:
/// - `owners.len() == active token count ≤ max_supply`;
/// - `remaining_supply() == max_supply − owners.len()` (`S^t` in the paper);
/// - no event history: every operation returns the events it emitted
///   ([`OpEvents`]), and the OVM's receipts are their only record. Clones,
///   `==` and serialization therefore see live state only, and an operation
///   sequence with no net effect leaves the collection equal to its
///   pre-state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collection {
    config: CollectionConfig,
    /// Active-token records: owner + approved operator per token.
    tokens: TokenTable,
    /// Blanket operator approvals (ERC-721 `isApprovedForAll`), as sorted
    /// `(owner, operator)` pairs. Committed state: the collection-header
    /// preimage absorbs the pair list, so a grant or revoke moves the state
    /// root (the PR 5 lesson — per-token approvals once missed it).
    operators: BTreeSet<(Address, Address)>,
    /// Open secondary-sale listings, keyed by token. Committed state: the
    /// token leaf preimage absorbs the listing seller and price, so a list,
    /// cancel or sale moves the state root (the PR 5 lesson applied to sale
    /// state — fraud proofs must be able to dispute it).
    listings: BTreeMap<TokenId, Listing>,
    /// Per-token creator-royalty basis points, stamped at mint from
    /// [`CollectionConfig::royalty_bps`]. Committed in the token leaf.
    royalties: BTreeMap<TokenId, u16>,
    /// Lifetime counters (for snapshot/marketplace statistics).
    total_mints: u64,
    total_transfers: u64,
    total_burns: u64,
}

impl Collection {
    /// Deploys a new collection with zero tokens minted.
    ///
    /// # Panics
    ///
    /// Panics if `max_supply` is zero — a collection that can never mint is
    /// a deployment bug.
    pub fn new(config: CollectionConfig) -> Self {
        assert!(config.max_supply > 0, "max_supply must be positive");
        Collection {
            config,
            tokens: TokenTable::new(),
            operators: BTreeSet::new(),
            listings: BTreeMap::new(),
            royalties: BTreeMap::new(),
            total_mints: 0,
            total_transfers: 0,
            total_burns: 0,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Number of tokens still mintable (`S^t`). Burning frees supply.
    pub fn remaining_supply(&self) -> u64 {
        self.config.max_supply - self.tokens.active_count() as u64
    }

    /// Number of currently active tokens.
    pub fn active_supply(&self) -> u64 {
        self.tokens.active_count() as u64
    }

    /// The current bonding-curve price (paper Eq. 10):
    /// `P^t = S^0 / S^t × P^0`, floored to the configured quantum.
    ///
    /// When the collection is sold out (`S^t = 0`) the price is reported at
    /// the last-mintable-unit level `S^0 × P^0`, the curve's supremum — no
    /// mint can execute anyway (Eq. 1's supply constraint).
    pub fn price(&self) -> Wei {
        self.price_at_remaining(self.remaining_supply())
    }

    /// The bonding-curve price for a hypothetical remaining supply.
    pub fn price_at_remaining(&self, remaining: u64) -> Wei {
        let s0 = self.config.max_supply;
        let denom = remaining.max(1).min(s0);
        self.config
            .initial_price
            .mul_ratio(s0, denom)
            .expect("denominator is clamped positive")
            .quantize_floor(self.config.price_quantum)
    }

    /// Current owner of `token`, if it is active.
    pub fn owner_of(&self, token: TokenId) -> Option<Address> {
        self.tokens.owner_of(token)
    }

    /// `true` when `who` currently owns `token` (`O_k^{i,t}`).
    pub fn is_owner(&self, who: Address, token: TokenId) -> bool {
        self.owner_of(token) == Some(who)
    }

    /// Number of active tokens owned by `who` (ERC-721 `balanceOf`).
    pub fn balance_of(&self, who: Address) -> u64 {
        self.tokens.balance_of(who)
    }

    /// The active tokens owned by `who`, in token-id order.
    pub fn tokens_of(&self, who: Address) -> Vec<TokenId> {
        self.tokens
            .iter()
            .filter(|&(_, o)| o == who)
            .map(|(t, _)| t)
            .collect()
    }

    /// Iterates over `(token, owner)` pairs of active tokens.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, Address)> + '_ {
        self.tokens.iter()
    }

    /// Lifetime `(mints, transfers, burns)` counters.
    pub fn lifetime_counts(&self) -> (u64, u64, u64) {
        (self.total_mints, self.total_transfers, self.total_burns)
    }

    /// The lowest unminted token id, if any — convenience for workload
    /// generators that mint "the next" token.
    pub fn next_free_token(&self) -> Option<TokenId> {
        (0..self.config.max_supply)
            .map(TokenId::new)
            .find(|&t| !self.tokens.contains(t))
    }

    /// Simple metadata URI (ERC-721 `tokenURI`).
    pub fn token_uri(&self, token: TokenId) -> Option<String> {
        if !self.tokens.contains(token) {
            return None;
        }
        Some(format!(
            "ipfs://{}/{}",
            self.config.symbol.to_lowercase(),
            token.value()
        ))
    }

    /// Checks the contract-level mint constraints without mutating
    /// (the supply half of Eq. 1).
    pub fn can_mint(&self, token: TokenId) -> Result<(), NftError> {
        if token.value() >= self.config.max_supply {
            return Err(NftError::InvalidTokenId(token));
        }
        if self.tokens.contains(token) {
            return Err(NftError::AlreadyMinted(token));
        }
        if self.remaining_supply() == 0 {
            return Err(NftError::SoldOut);
        }
        Ok(())
    }

    /// Mints `token` to `to` (paper Eq. 2 minus the balance debit). Emits a
    /// `Transfer` from the zero address, then a `PriceChanged` if the curve
    /// moved.
    ///
    /// # Errors
    ///
    /// Fails when the id is invalid, already active, or the collection is
    /// sold out; nothing is mutated then.
    pub fn mint(&mut self, to: Address, token: TokenId) -> Result<OpEvents, NftError> {
        self.can_mint(token)?;
        let old_price = self.price();
        self.tokens.set_owner(token, to);
        self.royalties.insert(token, self.config.royalty_bps);
        self.total_mints += 1;
        let transfer = Erc721Event::Transfer {
            from: Address::ZERO,
            to,
            token,
        };
        Ok(self.with_price_event(transfer, old_price))
    }

    /// Checks the contract-level transfer constraints without mutating
    /// (the ownership half of Eq. 3).
    pub fn can_transfer(&self, from: Address, to: Address, token: TokenId) -> Result<(), NftError> {
        if to.is_zero() {
            return Err(NftError::TransferToZero);
        }
        if from == to {
            return Err(NftError::SelfTransfer);
        }
        match self.owner_of(token) {
            None => Err(NftError::NotMinted(token)),
            Some(actual) if actual != from => Err(NftError::NotOwner {
                claimed: from,
                actual,
                token,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Transfers `token` from `from` to `to` (paper Eq. 4 minus the balance
    /// movement). Clears any outstanding approval and emits a `Transfer`.
    ///
    /// # Errors
    ///
    /// Fails when `from` is not the owner, the token is inactive, or the
    /// destination is degenerate; nothing is mutated then.
    pub fn transfer(
        &mut self,
        from: Address,
        to: Address,
        token: TokenId,
    ) -> Result<OpEvents, NftError> {
        self.can_transfer(from, to, token)?;
        self.tokens.set_owner(token, to);
        self.tokens.set_approval(token, None);
        self.total_transfers += 1;
        Ok(OpEvents::one(Erc721Event::Transfer { from, to, token }))
    }

    /// Checks the `approve` constraints without mutating: the token must be
    /// minted and `owner` must own it.
    pub fn can_approve(&self, owner: Address, token: TokenId) -> Result<(), NftError> {
        match self.owner_of(token) {
            None => Err(NftError::NotMinted(token)),
            Some(actual) if actual != owner => Err(NftError::NotOwner {
                claimed: owner,
                actual,
                token,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Approves `operator` to move `token` (ERC-721 `approve`); the zero
    /// operator clears the approval. Emits an `Approval`.
    ///
    /// # Errors
    ///
    /// Fails when `owner` does not own the token; nothing is mutated then.
    pub fn approve(
        &mut self,
        owner: Address,
        operator: Address,
        token: TokenId,
    ) -> Result<OpEvents, NftError> {
        self.can_approve(owner, token)?;
        let approved = (!operator.is_zero()).then_some(operator);
        self.tokens.set_approval(token, approved);
        Ok(OpEvents::one(Erc721Event::Approval {
            owner,
            approved: operator,
            token,
        }))
    }

    /// The approved operator for `token`, if any.
    pub fn get_approved(&self, token: TokenId) -> Option<Address> {
        self.tokens.approved(token)
    }

    /// Iterates over `(token, operator)` pairs of outstanding approvals, in
    /// token-id order.
    pub fn approvals(&self) -> impl Iterator<Item = (TokenId, Address)> + '_ {
        self.tokens.approvals_iter()
    }

    /// Number of outstanding approvals — the count prefix of the collection
    /// commitment header.
    pub fn approval_count(&self) -> u64 {
        self.tokens.approval_count()
    }

    /// Checks the `set_approval_for_all` constraints without mutating:
    /// the operator must be a real third party (non-zero, not the owner).
    pub fn can_set_approval_for_all(
        &self,
        owner: Address,
        operator: Address,
    ) -> Result<(), NftError> {
        if operator.is_zero() || operator == owner {
            return Err(NftError::InvalidOperator { owner, operator });
        }
        Ok(())
    }

    /// Grants or revokes `operator`'s blanket right to move any of `owner`'s
    /// tokens (ERC-721 `setApprovalForAll`). Always emits an
    /// [`Erc721Event::ApprovalForAll`], even when the flag does not change —
    /// mirroring the standard's unconditional event.
    ///
    /// # Errors
    ///
    /// Fails with [`NftError::InvalidOperator`] for a zero or self operator;
    /// nothing is mutated then.
    pub fn set_approval_for_all(
        &mut self,
        owner: Address,
        operator: Address,
        approved: bool,
    ) -> Result<OpEvents, NftError> {
        self.can_set_approval_for_all(owner, operator)?;
        if approved {
            self.operators.insert((owner, operator));
        } else {
            self.operators.remove(&(owner, operator));
        }
        Ok(OpEvents::one(Erc721Event::ApprovalForAll {
            owner,
            operator,
            approved,
        }))
    }

    /// Captures the `(owner, operator)` approval flag a
    /// [`Collection::set_approval_for_all`] is about to change, for the
    /// journal.
    pub fn operator_undo_point(&self, owner: Address, operator: Address) -> OperatorUndo {
        OperatorUndo {
            owner,
            operator,
            prev_approved: self.operators.contains(&(owner, operator)),
        }
    }

    /// Restores the flag captured by `undo`. Same LIFO contract as
    /// [`Collection::apply_undo`].
    pub fn apply_operator_undo(&mut self, undo: OperatorUndo) {
        if undo.prev_approved {
            self.operators.insert((undo.owner, undo.operator));
        } else {
            self.operators.remove(&(undo.owner, undo.operator));
        }
    }

    /// `true` when `operator` holds a blanket approval from `owner`
    /// (ERC-721 `isApprovedForAll`).
    pub fn is_approved_for_all(&self, owner: Address, operator: Address) -> bool {
        self.operators.contains(&(owner, operator))
    }

    /// Iterates over outstanding `(owner, operator)` blanket approvals in
    /// sorted order — the iteration the collection-header commitment
    /// preimage absorbs, so it must be deterministic.
    pub fn operator_pairs(&self) -> impl Iterator<Item = (Address, Address)> + '_ {
        self.operators.iter().copied()
    }

    /// Number of outstanding blanket operator approvals.
    pub fn operator_approval_count(&self) -> u64 {
        self.operators.len() as u64
    }

    /// Transfers on behalf of the owner; `operator` must be the owner, the
    /// per-token approved operator, or hold a blanket approval from the
    /// current owner (ERC-721 `transferFrom`).
    ///
    /// # Errors
    ///
    /// Fails with [`NftError::NotAuthorized`] for unapproved operators, plus
    /// every [`Collection::transfer`] failure mode.
    pub fn transfer_from(
        &mut self,
        operator: Address,
        from: Address,
        to: Address,
        token: TokenId,
    ) -> Result<OpEvents, NftError> {
        let authorized = self.is_owner(operator, token)
            || self.get_approved(token) == Some(operator)
            || self
                .owner_of(token)
                .is_some_and(|owner| self.is_approved_for_all(owner, operator));
        if !authorized {
            return Err(NftError::NotAuthorized { operator, token });
        }
        self.transfer(from, to, token)
    }

    /// Checks the contract-level burn constraint (Eq. 5) without mutating.
    pub fn can_burn(&self, owner: Address, token: TokenId) -> Result<(), NftError> {
        match self.owner_of(token) {
            None => Err(NftError::NotMinted(token)),
            Some(actual) if actual != owner => Err(NftError::NotOwner {
                claimed: owner,
                actual,
                token,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Burns `token` (paper Eq. 6): the token becomes inactive and the
    /// mintable supply — hence the price — moves accordingly. Emits a
    /// `Transfer` to the zero address, then a `PriceChanged` if the curve
    /// moved.
    ///
    /// # Errors
    ///
    /// Fails when `owner` does not own the token; nothing is mutated then.
    pub fn burn(&mut self, owner: Address, token: TokenId) -> Result<OpEvents, NftError> {
        self.can_burn(owner, token)?;
        let old_price = self.price();
        self.tokens.remove(token);
        self.listings.remove(&token);
        self.royalties.remove(&token);
        self.total_burns += 1;
        let transfer = Erc721Event::Transfer {
            from: owner,
            to: Address::ZERO,
            token,
        };
        Ok(self.with_price_event(transfer, old_price))
    }

    /// The open listing for `token`, if any. A listing whose `seller` is no
    /// longer the owner is *stale*: visible, cancellable by the new owner,
    /// but unsaleable.
    pub fn listing_of(&self, token: TokenId) -> Option<Listing> {
        self.listings.get(&token).copied()
    }

    /// Iterates over `(token, listing)` pairs in token-id order — the
    /// deterministic iteration the commitment and serializer absorb.
    pub fn listings(&self) -> impl Iterator<Item = (TokenId, Listing)> + '_ {
        self.listings.iter().map(|(&t, &l)| (t, l))
    }

    /// Number of open listings (fresh and stale).
    pub fn listing_count(&self) -> u64 {
        self.listings.len() as u64
    }

    /// The royalty basis points stamped on `token` at mint; zero for
    /// inactive tokens.
    pub fn token_royalty_bps(&self, token: TokenId) -> u16 {
        self.royalties.get(&token).copied().unwrap_or(0)
    }

    /// The creator-royalty slice of a sale of `token` at `price`, floored:
    /// `price × bps / 10_000`. The seller receives the remainder, so the
    /// split always sums to `price` exactly.
    pub fn royalty_amount(&self, token: TokenId, price: Wei) -> Wei {
        let bps = self.token_royalty_bps(token) as u128;
        Wei::from_wei(price.wei() * bps / ROYALTY_BPS_DENOM as u128)
    }

    /// Checks the listing constraints without mutating: `seller` must own
    /// the token, the price must be non-zero, and the current owner must not
    /// already have a live listing. A *stale* listing (left by a previous
    /// owner) may be overwritten.
    pub fn can_list(&self, seller: Address, token: TokenId, price: Wei) -> Result<(), NftError> {
        let owner = match self.owner_of(token) {
            None => return Err(NftError::NotMinted(token)),
            Some(actual) if actual != seller => {
                return Err(NftError::NotOwner {
                    claimed: seller,
                    actual,
                    token,
                })
            }
            Some(owner) => owner,
        };
        if price.is_zero() {
            return Err(NftError::ZeroPrice(token));
        }
        if let Some(existing) = self.listings.get(&token) {
            if existing.seller == owner {
                return Err(NftError::AlreadyListed(token));
            }
        }
        Ok(())
    }

    /// Lists `token` for secondary sale at `price`. Emits a `Listed`.
    ///
    /// # Errors
    ///
    /// Fails when `seller` does not own the token, the price is zero, or the
    /// owner already has a live listing; nothing is mutated then.
    pub fn list(
        &mut self,
        seller: Address,
        token: TokenId,
        price: Wei,
    ) -> Result<OpEvents, NftError> {
        self.can_list(seller, token, price)?;
        self.listings.insert(token, Listing { seller, price });
        Ok(OpEvents::one(Erc721Event::Listed {
            seller,
            token,
            price,
        }))
    }

    /// Checks the cancel constraints without mutating: a listing must exist
    /// and `owner` must be the *current* owner (so a transfer recipient can
    /// clear a stale listing the previous owner left behind).
    pub fn can_cancel_listing(&self, owner: Address, token: TokenId) -> Result<(), NftError> {
        match self.owner_of(token) {
            None => return Err(NftError::NotMinted(token)),
            Some(actual) if actual != owner => {
                return Err(NftError::NotOwner {
                    claimed: owner,
                    actual,
                    token,
                })
            }
            Some(_) => {}
        }
        if !self.listings.contains_key(&token) {
            return Err(NftError::NotListed(token));
        }
        Ok(())
    }

    /// Withdraws the open listing for `token`. Emits a `ListingCancelled`.
    ///
    /// # Errors
    ///
    /// Fails when `owner` does not own the token or nothing is listed;
    /// nothing is mutated then.
    pub fn cancel_listing(&mut self, owner: Address, token: TokenId) -> Result<OpEvents, NftError> {
        self.can_cancel_listing(owner, token)?;
        self.listings.remove(&token);
        Ok(OpEvents::one(Erc721Event::ListingCancelled {
            seller: owner,
            token,
        }))
    }

    /// Checks the purchase constraints without mutating (the ownership half
    /// — the balance half lives in the OVM): a listing must exist, its
    /// seller must still be the current owner, and the buyer must be a
    /// third party.
    pub fn can_buy(&self, buyer: Address, token: TokenId) -> Result<(), NftError> {
        let owner = match self.owner_of(token) {
            None => return Err(NftError::NotMinted(token)),
            Some(owner) => owner,
        };
        let listing = match self.listings.get(&token) {
            None => return Err(NftError::NotListed(token)),
            Some(listing) => listing,
        };
        if listing.seller != owner {
            return Err(NftError::StaleListing {
                token,
                seller: listing.seller,
                owner,
            });
        }
        if buyer == owner {
            return Err(NftError::SelfTransfer);
        }
        if buyer.is_zero() {
            return Err(NftError::TransferToZero);
        }
        Ok(())
    }

    /// Settles the sale of a listed `token` to `buyer`: ownership moves to
    /// the buyer, any per-token approval clears, the listing is consumed,
    /// and a single [`Erc721Event::Sold`] records the whole move (no
    /// separate `Transfer` event). The event carries how the payment
    /// splits — `price`, of which `royalty` goes to the creator and the rest
    /// to `seller` — and the OVM moves the matching wei.
    ///
    /// # Errors
    ///
    /// Fails when nothing is listed, the listing is stale, or the buyer is
    /// degenerate; nothing is mutated then.
    pub fn buy(&mut self, buyer: Address, token: TokenId) -> Result<OpEvents, NftError> {
        self.can_buy(buyer, token)?;
        let listing = self.listings.remove(&token).expect("can_buy checked");
        let royalty = self.royalty_amount(token, listing.price);
        self.tokens.set_owner(token, buyer);
        self.tokens.set_approval(token, None);
        self.total_transfers += 1;
        Ok(OpEvents::one(Erc721Event::Sold {
            seller: listing.seller,
            buyer,
            token,
            price: listing.price,
            royalty,
        }))
    }

    /// Captures everything a per-token operation on `token` can mutate, for
    /// the journal. Take it *before* the operation; if the operation fails,
    /// discard it.
    pub fn undo_point(&self, token: TokenId) -> CollectionUndo {
        CollectionUndo {
            token,
            prev_owner: self.tokens.owner_of(token),
            prev_approval: self.tokens.approved(token),
            prev_listing: self.listings.get(&token).copied(),
            prev_royalty: self.royalties.get(&token).copied(),
            prev_counts: (self.total_mints, self.total_transfers, self.total_burns),
        }
    }

    /// Restores the state captured by `undo`. Records must be applied in
    /// LIFO order against the same collection; anything else reconstructs
    /// garbage.
    pub fn apply_undo(&mut self, undo: CollectionUndo) {
        match undo.prev_owner {
            Some(owner) => {
                self.tokens.set_owner(undo.token, owner);
                self.tokens.set_approval(undo.token, undo.prev_approval);
            }
            None => {
                // Undoing a mint: the token was inactive before, so it had no
                // approval either — removal drops both.
                self.tokens.remove(undo.token);
            }
        }
        match undo.prev_listing {
            Some(listing) => self.listings.insert(undo.token, listing),
            None => self.listings.remove(&undo.token),
        };
        match undo.prev_royalty {
            Some(bps) => self.royalties.insert(undo.token, bps),
            None => self.royalties.remove(&undo.token),
        };
        (self.total_mints, self.total_transfers, self.total_burns) = undo.prev_counts;
    }

    /// The market valuation of `who`'s holdings at the current price:
    /// `balance_of(who) × price()`. This is the "PAROLE portion" of the total
    /// balance in the paper's case studies.
    pub fn holdings_value(&self, who: Address) -> Wei {
        self.price().mul_count(self.balance_of(who))
    }

    /// `event`, followed by a `PriceChanged` if the curve moved away from
    /// `old_price` (mints and burns).
    fn with_price_event(&self, event: Erc721Event, old_price: Wei) -> OpEvents {
        let mut events = OpEvents::one(event);
        let new_price = self.price();
        if new_price != old_price {
            events.push(Erc721Event::PriceChanged {
                old_price,
                new_price,
                remaining_supply: self.remaining_supply(),
            });
        }
        events
    }
}

impl Serialize for Collection {
    /// Serializes live state only, as a struct map with `owners` /
    /// `approvals` entries in token-id order.
    fn to_value(&self) -> Value {
        let owners: Vec<(Value, Value)> = self
            .tokens
            .iter()
            .map(|(t, o)| (t.to_value(), o.to_value()))
            .collect();
        let approvals: Vec<(Value, Value)> = self
            .tokens
            .approvals_iter()
            .map(|(t, op)| (t.to_value(), op.to_value()))
            .collect();
        let operators: Vec<Value> = self
            .operators
            .iter()
            .map(|(owner, op)| Value::Seq(vec![owner.to_value(), op.to_value()]))
            .collect();
        let listings: Vec<(Value, Value)> = self
            .listings
            .iter()
            .map(|(t, l)| (t.to_value(), l.to_value()))
            .collect();
        let royalties: Vec<(Value, Value)> = self
            .royalties
            .iter()
            .map(|(t, bps)| (t.to_value(), bps.to_value()))
            .collect();
        Value::Map(vec![
            (Value::Str("config".to_string()), self.config.to_value()),
            (Value::Str("owners".to_string()), Value::Map(owners)),
            (Value::Str("approvals".to_string()), Value::Map(approvals)),
            (Value::Str("operators".to_string()), Value::Seq(operators)),
            (Value::Str("listings".to_string()), Value::Map(listings)),
            (Value::Str("royalties".to_string()), Value::Map(royalties)),
            (
                Value::Str("total_mints".to_string()),
                self.total_mints.to_value(),
            ),
            (
                Value::Str("total_transfers".to_string()),
                self.total_transfers.to_value(),
            ),
            (
                Value::Str("total_burns".to_string()),
                self.total_burns.to_value(),
            ),
        ])
    }
}

/// Looks up a struct field in a serialized map value.
fn struct_field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    match value {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| matches!(k, Value::Str(s) if s == name))
            .map(|(_, v)| v)
            .ok_or_else(|| DeError::custom(format!("Collection: missing field `{name}`"))),
        other => Err(DeError::custom(format!(
            "Collection: expected object, found {}",
            other.kind()
        ))),
    }
}

impl Deserialize for Collection {
    /// Rebuilds the live state. An `events` field left by artifacts from
    /// before collections stopped keeping event history is ignored.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let config = CollectionConfig::from_value(struct_field(value, "config")?)?;
        let owners = BTreeMap::<TokenId, Address>::from_value(struct_field(value, "owners")?)?;
        let approvals =
            BTreeMap::<TokenId, Address>::from_value(struct_field(value, "approvals")?)?;
        // Pre-PR artifacts have no `operators` field: treat absent as empty.
        let mut operators = BTreeSet::new();
        if let Ok(field) = struct_field(value, "operators") {
            match field {
                Value::Seq(pairs) => {
                    for pair in pairs {
                        match pair {
                            Value::Seq(items) if items.len() == 2 => {
                                operators.insert((
                                    Address::from_value(&items[0])?,
                                    Address::from_value(&items[1])?,
                                ));
                            }
                            other => {
                                return Err(DeError::custom(format!(
                                    "Collection: operator pair must be a 2-seq, found {}",
                                    other.kind()
                                )))
                            }
                        }
                    }
                }
                other => {
                    return Err(DeError::custom(format!(
                        "Collection: operators must be a seq, found {}",
                        other.kind()
                    )))
                }
            }
        }
        // Pre-marketplace artifacts have neither `listings` nor `royalties`:
        // treat absent as empty.
        let listings = match struct_field(value, "listings") {
            Ok(field) => BTreeMap::<TokenId, Listing>::from_value(field)?,
            Err(_) => BTreeMap::new(),
        };
        let royalties = match struct_field(value, "royalties") {
            Ok(field) => BTreeMap::<TokenId, u16>::from_value(field)?,
            Err(_) => BTreeMap::new(),
        };
        let total_mints = u64::from_value(struct_field(value, "total_mints")?)?;
        let total_transfers = u64::from_value(struct_field(value, "total_transfers")?)?;
        let total_burns = u64::from_value(struct_field(value, "total_burns")?)?;
        let mut tokens = TokenTable::new();
        for (t, o) in owners {
            tokens.set_owner(t, o);
        }
        for (t, op) in approvals {
            tokens.set_approval(t, Some(op));
        }
        Ok(Collection {
            config,
            tokens,
            operators,
            listings,
            royalties,
            total_mints,
            total_transfers,
            total_burns,
        })
    }
}

impl fmt::Display for Collection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {}/{} minted, price {}",
            self.config.name,
            self.config.symbol,
            self.active_supply(),
            self.config.max_supply,
            self.price()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> Collection {
        Collection::new(CollectionConfig::parole_token())
    }

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    /// Mints tokens 0..n to the given owner, panicking on failure.
    fn mint_n(c: &mut Collection, n: u64, owner: Address) {
        for i in 0..n {
            c.mint(owner, TokenId::new(i)).unwrap();
        }
    }

    /// Runs a per-token operation the way the state journal does: undo
    /// point first, then the operation, which must succeed.
    fn journaled(
        c: &mut Collection,
        token: TokenId,
        op: impl FnOnce(&mut Collection) -> Result<OpEvents, NftError>,
    ) -> CollectionUndo {
        let undo = c.undo_point(token);
        op(c).unwrap();
        undo
    }

    /// The `(seller, price, royalty)` split of a sale's single `Sold` event.
    fn sale_split(events: OpEvents) -> (Address, Wei, Wei) {
        match *events {
            [Erc721Event::Sold {
                seller,
                price,
                royalty,
                ..
            }] => (seller, price, royalty),
            ref other => panic!("expected one Sold event, got {other:?}"),
        }
    }

    #[test]
    fn initial_state_matches_paper_setup() {
        let c = pt();
        assert_eq!(c.remaining_supply(), 10);
        assert_eq!(c.price(), Wei::from_milli_eth(200));
        assert_eq!(c.active_supply(), 0);
    }

    #[test]
    fn price_curve_matches_case_study_table() {
        // The case studies start with 5 minted (S = 5, price 0.4 ETH).
        let mut c = pt();
        mint_n(&mut c, 5, addr(1));
        assert_eq!(c.price(), Wei::from_milli_eth(400));
        // One more mint: S = 4, price 0.5 ETH.
        c.mint(addr(2), TokenId::new(5)).unwrap();
        assert_eq!(c.price(), Wei::from_milli_eth(500));
        // Another mint: S = 3, price 0.66 ETH (truncated).
        c.mint(addr(2), TokenId::new(6)).unwrap();
        assert_eq!(c.price(), Wei::from_milli_eth(660));
        // A burn: S = 4, price back to 0.5 ETH.
        c.burn(addr(2), TokenId::new(6)).unwrap();
        assert_eq!(c.price(), Wei::from_milli_eth(500));
    }

    #[test]
    fn burn_below_initial_supply_lowers_price() {
        // S = 6 -> price 0.33 ETH (truncated from 0.3333…).
        let mut c = pt();
        mint_n(&mut c, 5, addr(1));
        c.burn(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(c.remaining_supply(), 6);
        assert_eq!(c.price(), Wei::from_milli_eth(330));
    }

    #[test]
    fn mint_rejects_duplicates_and_out_of_range() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(
            c.mint(addr(2), TokenId::new(0)),
            Err(NftError::AlreadyMinted(TokenId::new(0)))
        );
        assert_eq!(
            c.mint(addr(2), TokenId::new(10)),
            Err(NftError::InvalidTokenId(TokenId::new(10)))
        );
    }

    #[test]
    fn sold_out_collection_rejects_mints_and_reports_supremum_price() {
        let mut c = pt();
        mint_n(&mut c, 10, addr(1));
        assert_eq!(c.remaining_supply(), 0);
        // Every id is taken, so a fresh id is out of range and existing ids
        // collide; a hypothetical free slot would still be SoldOut.
        assert!(c.can_mint(TokenId::new(3)).is_err());
        // Price reports the S = 1 supremum (2.0 ETH for PT).
        assert_eq!(c.price(), Wei::from_eth(2));
    }

    #[test]
    fn burned_id_can_be_reminted() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(4)).unwrap();
        c.burn(addr(1), TokenId::new(4)).unwrap();
        assert!(c.owner_of(TokenId::new(4)).is_none());
        c.mint(addr(2), TokenId::new(4)).unwrap();
        assert_eq!(c.owner_of(TokenId::new(4)), Some(addr(2)));
    }

    #[test]
    fn transfer_moves_ownership_and_clears_approval() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.approve(addr(1), addr(9), TokenId::new(0)).unwrap();
        assert_eq!(c.get_approved(TokenId::new(0)), Some(addr(9)));
        c.transfer(addr(1), addr(2), TokenId::new(0)).unwrap();
        assert_eq!(c.owner_of(TokenId::new(0)), Some(addr(2)));
        assert_eq!(c.get_approved(TokenId::new(0)), None);
    }

    #[test]
    fn transfer_constraint_failures() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(
            c.transfer(addr(2), addr(3), TokenId::new(0)),
            Err(NftError::NotOwner {
                claimed: addr(2),
                actual: addr(1),
                token: TokenId::new(0)
            })
        );
        assert_eq!(
            c.transfer(addr(1), addr(1), TokenId::new(0)),
            Err(NftError::SelfTransfer)
        );
        assert_eq!(
            c.transfer(addr(1), Address::ZERO, TokenId::new(0)),
            Err(NftError::TransferToZero)
        );
        assert_eq!(
            c.transfer(addr(1), addr(2), TokenId::new(5)),
            Err(NftError::NotMinted(TokenId::new(5)))
        );
    }

    #[test]
    fn transfer_from_requires_authorization() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(
            c.transfer_from(addr(9), addr(1), addr(2), TokenId::new(0)),
            Err(NftError::NotAuthorized {
                operator: addr(9),
                token: TokenId::new(0)
            })
        );
        c.approve(addr(1), addr(9), TokenId::new(0)).unwrap();
        c.transfer_from(addr(9), addr(1), addr(2), TokenId::new(0))
            .unwrap();
        assert_eq!(c.owner_of(TokenId::new(0)), Some(addr(2)));
    }

    #[test]
    fn approve_requires_ownership() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert!(c.approve(addr(2), addr(9), TokenId::new(0)).is_err());
        assert!(c.approve(addr(1), addr(9), TokenId::new(7)).is_err());
        // Clearing via zero address.
        c.approve(addr(1), addr(9), TokenId::new(0)).unwrap();
        c.approve(addr(1), Address::ZERO, TokenId::new(0)).unwrap();
        assert_eq!(c.get_approved(TokenId::new(0)), None);
    }

    #[test]
    fn burn_requires_ownership() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert!(c.burn(addr(2), TokenId::new(0)).is_err());
        c.burn(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(
            c.burn(addr(1), TokenId::new(0)),
            Err(NftError::NotMinted(TokenId::new(0)))
        );
    }

    #[test]
    fn holdings_value_tracks_price() {
        let mut c = pt();
        mint_n(&mut c, 5, addr(1));
        // 5 tokens at 0.4 ETH.
        assert_eq!(c.holdings_value(addr(1)), Wei::from_eth(2));
        assert_eq!(c.holdings_value(addr(2)), Wei::ZERO);
    }

    #[test]
    fn event_log_replays_to_ownership_map() {
        // The returned events, concatenated, are the collection's log.
        let mut c = pt();
        let mut log = Vec::new();
        log.extend_from_slice(&c.mint(addr(1), TokenId::new(0)).unwrap());
        log.extend_from_slice(&c.mint(addr(2), TokenId::new(1)).unwrap());
        log.extend_from_slice(&c.transfer(addr(1), addr(3), TokenId::new(0)).unwrap());
        log.extend_from_slice(&c.burn(addr(2), TokenId::new(1)).unwrap());

        let mut replay: BTreeMap<TokenId, Address> = BTreeMap::new();
        for ev in &log {
            if let Erc721Event::Transfer { to, token, .. } = ev {
                if to.is_zero() {
                    replay.remove(token);
                } else {
                    replay.insert(*token, *to);
                }
            }
        }
        let live: BTreeMap<TokenId, Address> = c.iter().collect();
        assert_eq!(replay, live);
    }

    #[test]
    fn price_events_emitted_on_mint_and_burn_only() {
        let is_price = |e: &Erc721Event| matches!(e, Erc721Event::PriceChanged { .. });
        let mut c = pt();
        let mint = c.mint(addr(1), TokenId::new(0)).unwrap();
        assert!(mint[0].is_mint() && is_price(&mint[1]) && mint.len() == 2);
        let transfer = c.transfer(addr(1), addr(2), TokenId::new(0)).unwrap();
        assert!(!transfer.iter().any(is_price));
        let burn = c.burn(addr(2), TokenId::new(0)).unwrap();
        assert!(burn[0].is_burn() && is_price(&burn[1]) && burn.len() == 2);

        // A mint the quantized curve absorbs emits no PriceChanged.
        let mut wide = Collection::new(CollectionConfig::limited_edition("W", 1000, 1));
        let price = wide.price();
        let mint = wide.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(wide.price(), price);
        assert_eq!(mint.len(), 1);
    }

    #[test]
    fn lifetime_counts_accumulate() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.mint(addr(1), TokenId::new(1)).unwrap();
        c.transfer(addr(1), addr(2), TokenId::new(0)).unwrap();
        c.burn(addr(1), TokenId::new(1)).unwrap();
        assert_eq!(c.lifetime_counts(), (2, 1, 1));
    }

    #[test]
    fn next_free_token_scans_gaps() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.mint(addr(1), TokenId::new(2)).unwrap();
        assert_eq!(c.next_free_token(), Some(TokenId::new(1)));
    }

    #[test]
    fn undo_records_restore_exact_state() {
        let mut c = pt();
        mint_n(&mut c, 3, addr(1));
        c.approve(addr(1), addr(9), TokenId::new(2)).unwrap();
        let before = c.clone();

        // A LIFO stack of journaled operations, including a transfer that
        // clears an approval and a burn.
        let u1 = journaled(&mut c, TokenId::new(5), |c| {
            c.mint(addr(2), TokenId::new(5))
        });
        let u2 = journaled(&mut c, TokenId::new(2), |c| {
            c.transfer(addr(1), addr(3), TokenId::new(2))
        });
        let u3 = journaled(&mut c, TokenId::new(0), |c| {
            c.burn(addr(1), TokenId::new(0))
        });
        assert_ne!(c, before);

        c.apply_undo(u3);
        c.apply_undo(u2);
        c.apply_undo(u1);
        assert_eq!(c, before);
        assert_eq!(c.get_approved(TokenId::new(2)), Some(addr(9)));
    }

    #[test]
    fn approve_undo_restores_prior_operator() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.approve(addr(1), addr(8), TokenId::new(0)).unwrap();
        let before = c.clone();

        let u1 = journaled(&mut c, TokenId::new(0), |c| {
            c.approve(addr(1), addr(9), TokenId::new(0))
        });
        assert_eq!(u1.token(), TokenId::new(0));
        assert_eq!(c.get_approved(TokenId::new(0)), Some(addr(9)));
        // Clearing via the zero operator is a journaled mutation too.
        let u2 = journaled(&mut c, TokenId::new(0), |c| {
            c.approve(addr(1), Address::ZERO, TokenId::new(0))
        });
        assert_eq!(c.get_approved(TokenId::new(0)), None);

        c.apply_undo(u2);
        assert_eq!(c.get_approved(TokenId::new(0)), Some(addr(9)));
        c.apply_undo(u1);
        assert_eq!(c, before);
    }

    #[test]
    fn approvals_iterate_in_token_order() {
        let mut c = pt();
        mint_n(&mut c, 3, addr(1));
        c.approve(addr(1), addr(9), TokenId::new(2)).unwrap();
        c.approve(addr(1), addr(8), TokenId::new(0)).unwrap();
        let pairs: Vec<_> = c.approvals().collect();
        assert_eq!(
            pairs,
            vec![(TokenId::new(0), addr(8)), (TokenId::new(2), addr(9))]
        );
        assert_eq!(c.approval_count(), 2);
    }

    #[test]
    fn failed_undoable_ops_mutate_nothing() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        let before = c.clone();
        assert!(c.mint(addr(2), TokenId::new(0)).is_err());
        assert!(c.transfer(addr(2), addr(3), TokenId::new(0)).is_err());
        assert!(c.burn(addr(2), TokenId::new(0)).is_err());
        assert_eq!(c, before);
    }

    #[test]
    fn set_approval_for_all_grants_revokes_and_emits() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert!(!c.is_approved_for_all(addr(1), addr(9)));
        c.set_approval_for_all(addr(1), addr(9), true).unwrap();
        assert!(c.is_approved_for_all(addr(1), addr(9)));
        assert_eq!(c.operator_approval_count(), 1);
        // Blanket approval authorizes transferFrom without per-token approve.
        c.transfer_from(addr(9), addr(1), addr(2), TokenId::new(0))
            .unwrap();
        assert_eq!(c.owner_of(TokenId::new(0)), Some(addr(2)));
        // The new owner never granted anything: the old grant is dead.
        assert_eq!(
            c.transfer_from(addr(9), addr(2), addr(3), TokenId::new(0)),
            Err(NftError::NotAuthorized {
                operator: addr(9),
                token: TokenId::new(0)
            })
        );
        let revoke = c.set_approval_for_all(addr(1), addr(9), false).unwrap();
        assert!(!c.is_approved_for_all(addr(1), addr(9)));
        assert_eq!(
            *revoke,
            [Erc721Event::ApprovalForAll {
                owner: addr(1),
                operator: addr(9),
                approved: false
            }]
        );
    }

    #[test]
    fn set_approval_for_all_rejects_degenerate_operators() {
        let mut c = pt();
        assert_eq!(
            c.set_approval_for_all(addr(1), Address::ZERO, true),
            Err(NftError::InvalidOperator {
                owner: addr(1),
                operator: Address::ZERO
            })
        );
        assert_eq!(
            c.set_approval_for_all(addr(1), addr(1), true),
            Err(NftError::InvalidOperator {
                owner: addr(1),
                operator: addr(1)
            })
        );
        assert_eq!(c, pt());
    }

    #[test]
    fn operator_undo_restores_exact_state() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.set_approval_for_all(addr(1), addr(8), true).unwrap();
        let before = c.clone();

        let grant = |c: &mut Collection, operator: Address, approved: bool| {
            let undo = c.operator_undo_point(addr(1), operator);
            let events = c.set_approval_for_all(addr(1), operator, approved);
            assert_eq!(events.unwrap().len(), 1);
            undo
        };
        let u1 = grant(&mut c, addr(9), true);
        let u2 = grant(&mut c, addr(8), false);
        // Re-granting an existing pair is a journaled no-op on the set but
        // still emits an event.
        let u3 = grant(&mut c, addr(9), true);
        assert_ne!(c, before);

        c.apply_operator_undo(u3);
        c.apply_operator_undo(u2);
        c.apply_operator_undo(u1);
        assert_eq!(c, before);
        assert!(c.is_approved_for_all(addr(1), addr(8)));
    }

    #[test]
    fn operator_pairs_iterate_sorted() {
        let mut c = pt();
        c.set_approval_for_all(addr(2), addr(9), true).unwrap();
        c.set_approval_for_all(addr(1), addr(8), true).unwrap();
        c.set_approval_for_all(addr(1), addr(7), true).unwrap();
        let pairs: Vec<_> = c.operator_pairs().collect();
        assert_eq!(
            pairs,
            vec![(addr(1), addr(7)), (addr(1), addr(8)), (addr(2), addr(9))]
        );
    }

    #[test]
    fn listing_lifecycle_list_cancel_buy() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        let price = Wei::from_milli_eth(900);
        assert_eq!(c.listing_of(TokenId::new(0)), None);
        c.list(addr(1), TokenId::new(0), price).unwrap();
        assert_eq!(
            c.listing_of(TokenId::new(0)),
            Some(Listing {
                seller: addr(1),
                price
            })
        );
        assert_eq!(c.listing_count(), 1);
        // Re-listing while live is rejected; cancel + relist works.
        assert_eq!(
            c.list(addr(1), TokenId::new(0), price),
            Err(NftError::AlreadyListed(TokenId::new(0)))
        );
        c.cancel_listing(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(c.listing_of(TokenId::new(0)), None);
        c.list(addr(1), TokenId::new(0), price).unwrap();

        let sale = sale_split(c.buy(addr(2), TokenId::new(0)).unwrap());
        // PT royalty is 500 bps: 5% of 0.9 ETH.
        assert_eq!(sale, (addr(1), price, Wei::from_milli_eth(45)));
        assert_eq!(c.owner_of(TokenId::new(0)), Some(addr(2)));
        assert_eq!(c.listing_of(TokenId::new(0)), None);
        // The sale counts as a transfer in the lifetime ledger.
        assert_eq!(c.lifetime_counts(), (1, 1, 0));
    }

    #[test]
    fn listing_constraint_failures() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(
            c.list(addr(2), TokenId::new(0), Wei::from_eth(1)),
            Err(NftError::NotOwner {
                claimed: addr(2),
                actual: addr(1),
                token: TokenId::new(0)
            })
        );
        assert_eq!(
            c.list(addr(1), TokenId::new(0), Wei::ZERO),
            Err(NftError::ZeroPrice(TokenId::new(0)))
        );
        assert_eq!(
            c.list(addr(1), TokenId::new(5), Wei::from_eth(1)),
            Err(NftError::NotMinted(TokenId::new(5)))
        );
        assert_eq!(
            c.cancel_listing(addr(1), TokenId::new(0)),
            Err(NftError::NotListed(TokenId::new(0)))
        );
        assert_eq!(
            c.buy(addr(2), TokenId::new(0)),
            Err(NftError::NotListed(TokenId::new(0)))
        );
    }

    #[test]
    fn transfer_makes_listing_stale_and_new_owner_clears_it() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.list(addr(1), TokenId::new(0), Wei::from_eth(1)).unwrap();
        // A plain transfer leaves the listing behind, now stale.
        c.transfer(addr(1), addr(2), TokenId::new(0)).unwrap();
        assert!(c.listing_of(TokenId::new(0)).is_some());
        assert_eq!(
            c.buy(addr(3), TokenId::new(0)),
            Err(NftError::StaleListing {
                token: TokenId::new(0),
                seller: addr(1),
                owner: addr(2),
            })
        );
        // The previous owner cannot cancel it; the new owner can, or may
        // overwrite it with a fresh listing directly.
        assert!(c.cancel_listing(addr(1), TokenId::new(0)).is_err());
        c.list(addr(2), TokenId::new(0), Wei::from_eth(2)).unwrap();
        let (seller, price, _) = sale_split(c.buy(addr(3), TokenId::new(0)).unwrap());
        assert_eq!((seller, price), (addr(2), Wei::from_eth(2)));
    }

    #[test]
    fn buy_rejects_degenerate_buyers() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        c.list(addr(1), TokenId::new(0), Wei::from_eth(1)).unwrap();
        assert_eq!(c.buy(addr(1), TokenId::new(0)), Err(NftError::SelfTransfer));
        assert_eq!(
            c.buy(Address::ZERO, TokenId::new(0)),
            Err(NftError::TransferToZero)
        );
    }

    #[test]
    fn burn_clears_listing_and_royalty_stamp() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(c.token_royalty_bps(TokenId::new(0)), 500);
        c.list(addr(1), TokenId::new(0), Wei::from_eth(1)).unwrap();
        c.burn(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(c.listing_of(TokenId::new(0)), None);
        assert_eq!(c.token_royalty_bps(TokenId::new(0)), 0);
    }

    #[test]
    fn royalty_split_sums_to_price() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        // An awkward price that does not divide evenly by the bps.
        let price = Wei::from_wei(1_000_000_000_000_000_001);
        c.list(addr(1), TokenId::new(0), price).unwrap();
        let (_, sale_price, royalty) = sale_split(c.buy(addr(2), TokenId::new(0)).unwrap());
        let seller_cut = sale_price.checked_sub(royalty).unwrap();
        assert_eq!(seller_cut.checked_add(royalty).unwrap(), price);
        assert_eq!(royalty, Wei::from_wei(price.wei() * 500 / 10_000));
    }

    #[test]
    fn marketplace_undo_restores_exact_state() {
        let mut c = pt();
        mint_n(&mut c, 2, addr(1));
        c.approve(addr(1), addr(9), TokenId::new(0)).unwrap();
        c.list(addr(1), TokenId::new(1), Wei::from_eth(1)).unwrap();
        let before = c.clone();

        let u1 = journaled(&mut c, TokenId::new(0), |c| {
            c.list(addr(1), TokenId::new(0), Wei::from_eth(3))
        });
        let u2 = journaled(&mut c, TokenId::new(0), |c| c.buy(addr(2), TokenId::new(0)));
        let u3 = journaled(&mut c, TokenId::new(1), |c| {
            c.cancel_listing(addr(1), TokenId::new(1))
        });
        assert_ne!(c, before);

        c.apply_undo(u3);
        c.apply_undo(u2);
        c.apply_undo(u1);
        assert_eq!(c, before);
        // The buy cleared the approval; the undo restored it.
        assert_eq!(c.get_approved(TokenId::new(0)), Some(addr(9)));
        assert_eq!(
            c.listing_of(TokenId::new(1)),
            Some(Listing {
                seller: addr(1),
                price: Wei::from_eth(1)
            })
        );
    }

    #[test]
    fn failed_marketplace_ops_mutate_nothing() {
        let mut c = pt();
        c.mint(addr(1), TokenId::new(0)).unwrap();
        let before = c.clone();
        assert!(c.list(addr(2), TokenId::new(0), Wei::from_eth(1)).is_err());
        assert!(c.cancel_listing(addr(1), TokenId::new(0)).is_err());
        assert!(c.buy(addr(2), TokenId::new(0)).is_err());
        assert_eq!(c, before);
    }

    #[test]
    fn config_roundtrip_defaults_absent_royalty_to_zero() {
        let config = CollectionConfig::parole_token();
        let value = config.to_value();
        assert_eq!(CollectionConfig::from_value(&value).unwrap(), config);
        // Strip the royalty field to simulate a pre-marketplace artifact.
        let stripped = match value {
            Value::Map(entries) => Value::Map(
                entries
                    .into_iter()
                    .filter(|(k, _)| !matches!(k, Value::Str(s) if s == "royalty_bps"))
                    .collect(),
            ),
            _ => unreachable!(),
        };
        let legacy = CollectionConfig::from_value(&stripped).unwrap();
        assert_eq!(legacy.royalty_bps, 0);
    }

    #[test]
    fn token_uri_only_for_active_tokens() {
        let mut c = pt();
        assert_eq!(c.token_uri(TokenId::new(0)), None);
        c.mint(addr(1), TokenId::new(0)).unwrap();
        assert_eq!(c.token_uri(TokenId::new(0)).unwrap(), "ipfs://pt/0");
    }
}
