//! Per-operation descriptors: the single place each [`TxKind`] declares
//! everything the rest of the stack needs to know about it.
//!
//! Before this module existed, separate `match tx.kind` sites had to agree
//! about every operation — the display label (`tx.rs`), the gas cost and
//! limit (`gas.rs`), the execution semantics (`executor.rs`) and the event
//! kinds the logs layer may see — plus another in the conservation auditor.
//! Adding an operation meant editing all of them in lockstep, and nothing
//! asserted they stayed consistent. [`OpSpec`] collapses that drift surface
//! to one table: [`TxKind::spec`] is the only exhaustive kind dispatch, and
//! every former match site consumes the spec.
//!
//! The descriptor carries:
//!
//! - identity: the stable [`OpSpec::wire_tag`] (calldata and tx-hash
//!   encodings) and [`OpSpec::label`];
//! - wire shape: the [`WireField`]s [`TxKind::encode_fields`] writes after
//!   the collection address, which the L1 calldata codec walks;
//! - gas: accessors into the [`GasSchedule`] for cost and wallet limit;
//! - observability: the exact [`EventKind`]s a successful execution may
//!   emit (a debug assertion in the executor pins emission to the
//!   declaration);
//! - ledger movement: the [`LedgerDelta`] the conservation auditor holds
//!   the post-state to;
//! - semantics: the one [`OpSpec::apply`] body — constraint checks, the
//!   mutation, and the events it emitted as its return value, which
//!   [`crate::Ovm::execute`] runs.

use crate::logs::EventKind;
use crate::{GasSchedule, NftTransaction, RevertReason, TxKind};
use parole_nft::{Collection, Erc721Event, NftError, OpEvents};
use parole_primitives::{Address, Gas, Wei};
use parole_state::{L2State, StateError};

/// How a successful operation moves one collection's token-ledger
/// counters — the lockstep the conservation auditor enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerDelta {
    /// Change in active (minted, not burned) tokens.
    pub active: i64,
    /// Lifetime mints performed.
    pub mints: u64,
    /// Lifetime ownership moves performed (plain transfers and sales).
    pub transfers: u64,
    /// Lifetime burns performed.
    pub burns: u64,
}

impl LedgerDelta {
    /// No counter moves (approvals and listing-book operations).
    pub const NONE: LedgerDelta = LedgerDelta {
        active: 0,
        mints: 0,
        transfers: 0,
        burns: 0,
    };
}

/// One field of an operation's wire payload: what
/// [`TxKind::encode_fields`] writes after the collection address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireField {
    /// A token id: 8 bytes, big-endian.
    Token,
    /// An account address (a recipient or an operator): 20 bytes.
    Address,
    /// A wei amount: 16 bytes, big-endian.
    Price,
    /// A boolean: one byte, 0 or 1.
    Flag,
}

impl WireField {
    /// Bytes the field takes in [`TxKind::encode_fields`] output.
    pub const fn width(self) -> usize {
        match self {
            WireField::Token => 8,
            WireField::Address => 20,
            WireField::Price => 16,
            WireField::Flag => 1,
        }
    }
}

/// Everything one [`TxKind`] declares about itself, in one place.
pub struct OpSpec {
    /// Short label for displays, feature encodings and bench reports.
    pub label: &'static str,
    /// Stable one-byte tag used by both the signed tx encoding and the L1
    /// calldata batch encoding.
    pub wire_tag: u8,
    /// The fields [`TxKind::encode_fields`] writes after the collection
    /// address, in order. The L1 calldata codec converts the payload
    /// field by field through this list.
    pub fields: &'static [WireField],
    /// Gas consumed by the operation.
    pub gas: fn(&GasSchedule) -> Gas,
    /// Gas limit a wallet attaches to the operation.
    pub gas_limit: fn(&GasSchedule) -> Gas,
    /// The exact event kinds a successful execution may emit.
    pub events: &'static [EventKind],
    /// Token-ledger movement of a successful execution.
    pub ledger: LedgerDelta,
    /// The operation body: full constraint checks against `state`, then
    /// the mutation. Returns the events the operation emitted, or why it
    /// reverted (having mutated nothing). `price` is the bonding-curve
    /// price observed before execution (`P^{t-1}`).
    pub apply: fn(&mut L2State, &NftTransaction, Wei) -> Result<OpEvents, RevertReason>,
}

impl TxKind {
    /// The operation's descriptor — the one exhaustive kind dispatch in
    /// the crate.
    pub fn spec(&self) -> &'static OpSpec {
        match self {
            TxKind::Mint { .. } => &MINT,
            TxKind::Transfer { .. } => &TRANSFER,
            TxKind::Burn { .. } => &BURN,
            TxKind::Approve { .. } => &APPROVE,
            TxKind::SetApprovalForAll { .. } => &SET_APPROVAL_FOR_ALL,
            TxKind::List { .. } => &LIST,
            TxKind::CancelListing { .. } => &CANCEL_LISTING,
            TxKind::Buy { .. } => &BUY,
        }
    }

    /// Every operation's descriptor, in wire-tag order (the completeness
    /// tests and the calldata decoder iterate this).
    pub const ALL_SPECS: [&'static OpSpec; 8] = [
        &MINT,
        &TRANSFER,
        &BURN,
        &APPROVE,
        &SET_APPROVAL_FOR_ALL,
        &LIST,
        &CANCEL_LISTING,
        &BUY,
    ];

    /// Looks a descriptor up by its wire tag (`None` for unknown tags —
    /// the calldata decoder's error path).
    pub fn spec_by_tag(tag: u8) -> Option<&'static OpSpec> {
        TxKind::ALL_SPECS.into_iter().find(|s| s.wire_tag == tag)
    }
}

static MINT: OpSpec = OpSpec {
    label: "mint",
    wire_tag: 0,
    fields: &[WireField::Token],
    gas: |s| s.mint_gas,
    gas_limit: |s| s.mint_limit,
    events: &[EventKind::Transfer, EventKind::PriceChanged],
    ledger: LedgerDelta {
        active: 1,
        mints: 1,
        ..LedgerDelta::NONE
    },
    apply: apply_mint,
};

static TRANSFER: OpSpec = OpSpec {
    label: "transfer",
    wire_tag: 1,
    fields: &[WireField::Token, WireField::Address],
    gas: |s| s.transfer_gas,
    gas_limit: |s| s.transfer_limit,
    events: &[EventKind::Transfer],
    ledger: LedgerDelta {
        transfers: 1,
        ..LedgerDelta::NONE
    },
    apply: apply_transfer,
};

static BURN: OpSpec = OpSpec {
    label: "burn",
    wire_tag: 2,
    fields: &[WireField::Token],
    gas: |s| s.burn_gas,
    gas_limit: |s| s.burn_limit,
    events: &[EventKind::Transfer, EventKind::PriceChanged],
    ledger: LedgerDelta {
        active: -1,
        burns: 1,
        ..LedgerDelta::NONE
    },
    apply: apply_burn,
};

static APPROVE: OpSpec = OpSpec {
    label: "approve",
    wire_tag: 3,
    fields: &[WireField::Token, WireField::Address],
    gas: |s| s.approve_gas,
    gas_limit: |s| s.approve_limit,
    events: &[EventKind::Approval],
    ledger: LedgerDelta::NONE,
    apply: apply_approve,
};

static SET_APPROVAL_FOR_ALL: OpSpec = OpSpec {
    label: "set_approval_for_all",
    wire_tag: 4,
    fields: &[WireField::Address, WireField::Flag],
    gas: |s| s.operator_approval_gas,
    gas_limit: |s| s.operator_approval_limit,
    events: &[EventKind::ApprovalForAll],
    ledger: LedgerDelta::NONE,
    apply: apply_set_approval_for_all,
};

static LIST: OpSpec = OpSpec {
    label: "list",
    wire_tag: 5,
    fields: &[WireField::Token, WireField::Price],
    gas: |s| s.list_gas,
    gas_limit: |s| s.list_limit,
    events: &[EventKind::Listed],
    ledger: LedgerDelta::NONE,
    apply: apply_list,
};

static CANCEL_LISTING: OpSpec = OpSpec {
    label: "cancel_listing",
    wire_tag: 6,
    fields: &[WireField::Token],
    gas: |s| s.cancel_listing_gas,
    gas_limit: |s| s.cancel_listing_limit,
    events: &[EventKind::ListingCancelled],
    ledger: LedgerDelta::NONE,
    apply: apply_cancel_listing,
};

static BUY: OpSpec = OpSpec {
    label: "buy",
    wire_tag: 7,
    fields: &[WireField::Token],
    gas: |s| s.buy_gas,
    gas_limit: |s| s.buy_limit,
    events: &[EventKind::Sold],
    ledger: LedgerDelta {
        transfers: 1,
        ..LedgerDelta::NONE
    },
    apply: apply_buy,
};

/// Maps contract-level NFT errors to OVM revert reasons.
fn revert_reason(e: NftError) -> RevertReason {
    match e {
        NftError::SoldOut => RevertReason::SoldOut,
        NftError::InvalidTokenId(_) | NftError::AlreadyMinted(_) => RevertReason::BadTokenId,
        NftError::NotMinted(_) => RevertReason::NoSuchToken,
        NftError::NotOwner { .. } | NftError::NotAuthorized { .. } => RevertReason::NotOwner,
        NftError::TransferToZero | NftError::SelfTransfer => RevertReason::BadTransfer,
        NftError::InvalidOperator { .. } => RevertReason::BadOperator,
        NftError::AlreadyListed(_) => RevertReason::AlreadyListed,
        NftError::NotListed(_) => RevertReason::NotListed,
        NftError::StaleListing { .. } => RevertReason::StaleListing,
        NftError::ZeroPrice(_) => RevertReason::BadPrice,
    }
}

/// The collection a transaction targets; a missing one reverts
/// `NoSuchCollection`.
fn target(state: &L2State, collection: Address) -> Result<&Collection, RevertReason> {
    state
        .collection(collection)
        .ok_or(RevertReason::NoSuchCollection)
}

/// The events of a collection mutation whose constraints were just
/// checked, so it cannot fail.
fn checked(mutation: Result<Result<OpEvents, NftError>, StateError>) -> OpEvents {
    mutation
        .expect("collection checked above")
        .expect("constraints just checked")
}

// ---------------------------------------------------------------------------
// Operation bodies (full constraint checks against the target collection,
// then the mutation through the state's journaled `nft_*` entry points).

/// Eq. 1 / Eq. 2: mint — pay `P^{t-1}` to the creator, supply shrinks,
/// price rises.
fn apply_mint(
    state: &mut L2State,
    tx: &NftTransaction,
    price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::Mint { collection, token } = tx.kind else {
        unreachable!("mint spec dispatched for {:?}", tx.kind)
    };
    let coll = target(state, collection)?;
    coll.can_mint(token).map_err(revert_reason)?;
    let creator = coll.config().creator;
    if state.balance_of(tx.sender) < price {
        return Err(RevertReason::InsufficientBalance);
    }
    state.debit(tx.sender, price).expect("balance just checked");
    state.credit(creator, price);
    Ok(checked(state.nft_mint(collection, tx.sender, token)))
}

/// Eq. 3 / Eq. 4: transfer — buyer pays `P^{t-1}` to the seller, ownership
/// moves, price unchanged.
fn apply_transfer(
    state: &mut L2State,
    tx: &NftTransaction,
    price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::Transfer {
        collection,
        token,
        to,
    } = tx.kind
    else {
        unreachable!("transfer spec dispatched for {:?}", tx.kind)
    };
    target(state, collection)?
        .can_transfer(tx.sender, to, token)
        .map_err(revert_reason)?;
    if state.balance_of(to) < price {
        return Err(RevertReason::InsufficientBalance);
    }
    state
        .transfer_balance(to, tx.sender, price)
        .expect("just checked");
    Ok(checked(
        state.nft_transfer(collection, tx.sender, to, token),
    ))
}

/// Eq. 5 / Eq. 6: burn — supply grows, price falls, no payment.
fn apply_burn(
    state: &mut L2State,
    tx: &NftTransaction,
    _price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::Burn { collection, token } = tx.kind else {
        unreachable!("burn spec dispatched for {:?}", tx.kind)
    };
    target(state, collection)?
        .can_burn(tx.sender, token)
        .map_err(revert_reason)?;
    Ok(checked(state.nft_burn(collection, tx.sender, token)))
}

/// ERC-721 `approve`: per-token operator grant, no payment, no curve
/// movement.
fn apply_approve(
    state: &mut L2State,
    tx: &NftTransaction,
    _price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::Approve {
        collection,
        token,
        operator,
    } = tx.kind
    else {
        unreachable!("approve spec dispatched for {:?}", tx.kind)
    };
    target(state, collection)?
        .can_approve(tx.sender, token)
        .map_err(revert_reason)?;
    Ok(checked(
        state.nft_approve(collection, tx.sender, operator, token),
    ))
}

/// ERC-721 `setApprovalForAll`: blanket operator grant/revoke. Touches
/// only the sender's operator record, no token and no supply counter.
fn apply_set_approval_for_all(
    state: &mut L2State,
    tx: &NftTransaction,
    _price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::SetApprovalForAll {
        collection,
        operator,
        approved,
    } = tx.kind
    else {
        unreachable!("sfa spec dispatched for {:?}", tx.kind)
    };
    target(state, collection)?
        .can_set_approval_for_all(tx.sender, operator)
        .map_err(revert_reason)?;
    Ok(checked(state.nft_set_approval_for_all(
        collection, tx.sender, operator, approved,
    )))
}

/// Marketplace `list`: the owner posts the token at an ask price. Writes
/// only the token's leaf (the listing rides in it).
fn apply_list(
    state: &mut L2State,
    tx: &NftTransaction,
    _price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::List {
        collection,
        token,
        price,
    } = tx.kind
    else {
        unreachable!("list spec dispatched for {:?}", tx.kind)
    };
    target(state, collection)?
        .can_list(tx.sender, token, price)
        .map_err(revert_reason)?;
    Ok(checked(state.nft_list(collection, tx.sender, token, price)))
}

/// Marketplace `cancel`: the current owner withdraws the token's listing
/// (including a stale listing left by a previous owner).
fn apply_cancel_listing(
    state: &mut L2State,
    tx: &NftTransaction,
    _price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::CancelListing { collection, token } = tx.kind else {
        unreachable!("cancel-listing spec dispatched for {:?}", tx.kind)
    };
    target(state, collection)?
        .can_cancel_listing(tx.sender, token)
        .map_err(revert_reason)?;
    Ok(checked(
        state.nft_cancel_listing(collection, tx.sender, token),
    ))
}

/// Marketplace `buy`: the sender takes a fresh listing at its ask price.
/// The price splits wei-exactly into the seller's cut plus the creator
/// royalty stamped on the token at mint — the `Sold` event carries the
/// split, and the conservation auditor holds the settlement to it.
fn apply_buy(
    state: &mut L2State,
    tx: &NftTransaction,
    _price: Wei,
) -> Result<OpEvents, RevertReason> {
    let TxKind::Buy { collection, token } = tx.kind else {
        unreachable!("buy spec dispatched for {:?}", tx.kind)
    };
    let coll = target(state, collection)?;
    coll.can_buy(tx.sender, token).map_err(revert_reason)?;
    let ask = coll
        .listing_of(token)
        .expect("can_buy checked the listing exists")
        .price;
    let creator = coll.config().creator;
    if state.balance_of(tx.sender) < ask {
        return Err(RevertReason::InsufficientBalance);
    }
    let events = checked(state.nft_buy(collection, tx.sender, token));
    let [Erc721Event::Sold {
        seller,
        price,
        royalty,
        ..
    }] = *events
    else {
        unreachable!("a sale emits exactly one Sold event, got {events:?}")
    };
    state.debit(tx.sender, price).expect("balance just checked");
    state.credit(seller, price - royalty);
    state.credit(creator, royalty);
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_primitives::TokenId;
    use std::collections::BTreeSet;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    /// One sample transaction kind per variant, in wire-tag order. Adding
    /// a `TxKind` variant without extending this list fails the
    /// completeness tests below (and `TxKind::spec` fails to compile
    /// without a dispatch arm).
    pub(crate) fn sample_kinds() -> [TxKind; 8] {
        let c = addr(100);
        let t = TokenId::new(0);
        [
            TxKind::Mint {
                collection: c,
                token: t,
            },
            TxKind::Transfer {
                collection: c,
                token: t,
                to: addr(2),
            },
            TxKind::Burn {
                collection: c,
                token: t,
            },
            TxKind::Approve {
                collection: c,
                token: t,
                operator: addr(9),
            },
            TxKind::SetApprovalForAll {
                collection: c,
                operator: addr(9),
                approved: true,
            },
            TxKind::List {
                collection: c,
                token: t,
                price: Wei::from_milli_eth(500),
            },
            TxKind::CancelListing {
                collection: c,
                token: t,
            },
            TxKind::Buy {
                collection: c,
                token: t,
            },
        ]
    }

    #[test]
    fn every_variant_has_a_spec_and_tags_are_the_identity() {
        for (i, kind) in sample_kinds().into_iter().enumerate() {
            let spec = kind.spec();
            assert_eq!(
                spec.wire_tag as usize, i,
                "{}: ALL_SPECS must be in wire-tag order",
                spec.label
            );
            assert!(std::ptr::eq(spec, TxKind::ALL_SPECS[i]));
            assert!(std::ptr::eq(
                spec,
                TxKind::spec_by_tag(spec.wire_tag).expect("tag resolves")
            ));
        }
        assert!(TxKind::spec_by_tag(8).is_none());
        assert!(TxKind::spec_by_tag(255).is_none());
    }

    #[test]
    fn tags_and_labels_are_unique() {
        let tags: BTreeSet<u8> = TxKind::ALL_SPECS.iter().map(|s| s.wire_tag).collect();
        assert_eq!(tags.len(), TxKind::ALL_SPECS.len());
        let labels: BTreeSet<&str> = TxKind::ALL_SPECS.iter().map(|s| s.label).collect();
        assert_eq!(labels.len(), TxKind::ALL_SPECS.len());
    }

    #[test]
    fn encode_fields_emits_the_declared_widths() {
        for kind in sample_kinds() {
            let spec = kind.spec();
            let mut bytes = Vec::new();
            kind.encode_fields(&mut bytes);
            let declared: usize = spec.fields.iter().map(|f| f.width()).sum();
            assert_eq!(
                bytes.len(),
                20 + declared,
                "{}: the collection plus {:?}",
                spec.label,
                spec.fields
            );
        }
    }

    #[test]
    fn ledger_deltas_conserve_active_supply() {
        for spec in TxKind::ALL_SPECS {
            let d = spec.ledger;
            // Active supply moves exactly with mints minus burns.
            assert_eq!(
                d.active,
                d.mints as i64 - d.burns as i64,
                "{}: active drift",
                spec.label
            );
        }
    }

    #[test]
    fn marketplace_specs_shape() {
        let list = TxKind::List {
            collection: addr(1),
            token: TokenId::new(0),
            price: Wei::from_eth(1),
        };
        assert_eq!(list.spec().label, "list");
        assert_eq!(list.spec().events, &[EventKind::Listed]);
        let buy = TxKind::Buy {
            collection: addr(1),
            token: TokenId::new(0),
        };
        assert_eq!(buy.spec().ledger.transfers, 1);
    }
}
