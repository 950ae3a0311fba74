//! The event-replay oracle: a block's receipt log stream, replayed against
//! the pre-block state, must reproduce the post-block ownership, approval
//! and operator maps exactly.
//!
//! This is the observability analogue of the differential oracle. The OVM
//! emits one ordered [`LogEntry`] slice per committed transaction (reverted
//! transactions emit nothing); if those logs are a faithful journal of every
//! state transition, then *folding the stream over the pre-state* is an
//! independent second derivation of the post-state token maps. The replay
//! interpreter here is written against the raw ERC-721 event semantics —
//! mint is a `Transfer` from the zero address, any transfer clears the
//! per-token approval, `ApprovalForAll` toggles an `(owner, operator)` pair
//! — and never calls the production execution path, so an OVM bug that
//! drops, duplicates or reorders an event cannot agree with its own checker.
//!
//! The oracle is fail-stop in both directions: a stream that is internally
//! inconsistent (a transfer from the wrong owner, an event for an unknown
//! collection) is reported even when the final maps happen to match, and a
//! consistent stream that lands on the wrong maps reports the first
//! divergent entry.

use parole_nft::Erc721Event;
use parole_ovm::{LogEntry, Receipt};
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The replayable portion of one collection's state: exactly the maps the
/// ERC-721 event stream journals.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollectionMaps {
    /// `token -> owner` for every active token.
    pub owners: BTreeMap<TokenId, Address>,
    /// `token -> approved operator` for every outstanding per-token approval.
    pub approvals: BTreeMap<TokenId, Address>,
    /// Outstanding `(owner, operator)` blanket approvals.
    pub operators: BTreeSet<(Address, Address)>,
    /// Current bonding-curve price (journaled by `PriceChanged`).
    pub price: Wei,
    /// Remaining mintable supply. Derived from mint/burn transfers during
    /// replay — a quantized-flat curve mints without a `PriceChanged`, so
    /// the curve event's payload is only a cross-check.
    pub remaining_supply: u64,
    /// `token -> (seller, ask price)` for every open marketplace listing,
    /// fresh and stale alike (journaled by `Listed` / `ListingCancelled` /
    /// `Sold`; burns clear the slot with the token).
    pub listings: BTreeMap<TokenId, (Address, Wei)>,
    /// `token -> creator-royalty basis points` for every active token,
    /// stamped during replay at the mint transfer from the collection's
    /// configured rate ([`CollectionMaps::royalty_bps`]).
    pub royalties: BTreeMap<TokenId, u16>,
    /// The collection's configured royalty rate — deploy-time constant, so
    /// carried over from the pre-state rather than journaled.
    pub royalty_bps: u16,
}

/// Per-collection replayable maps for a whole state.
pub type StateMaps = BTreeMap<Address, CollectionMaps>;

/// Extracts the replayable maps from every collection in `state`.
pub fn snapshot_maps(state: &L2State) -> StateMaps {
    state
        .collections()
        .map(|(addr, coll)| {
            let maps = CollectionMaps {
                owners: coll.iter().collect(),
                approvals: coll.approvals().collect(),
                operators: coll.operator_pairs().collect(),
                price: coll.price(),
                remaining_supply: coll.remaining_supply(),
                listings: coll
                    .listings()
                    .map(|(t, l)| (t, (l.seller, l.price)))
                    .collect(),
                royalties: coll
                    .iter()
                    .map(|(t, _)| (t, coll.token_royalty_bps(t)))
                    .collect(),
                royalty_bps: coll.config().royalty_bps,
            };
            (addr, maps)
        })
        .collect()
}

/// A violation raised by the event-replay oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventReplayViolation {
    /// An event referenced a collection the pre-block state does not have.
    UnknownCollection {
        /// The collection address the log entry named.
        collection: Address,
        /// The offending event, rendered.
        event: String,
    },
    /// The stream itself is inconsistent: an event contradicts the maps the
    /// stream built up to that point (e.g. a transfer from a non-owner).
    StreamInconsistent {
        /// The collection the entry belongs to.
        collection: Address,
        /// The offending event, rendered.
        event: String,
        /// What the replay interpreter expected instead.
        expected: String,
    },
    /// Replayed and actual ownership of one token disagree.
    OwnershipMismatch {
        /// The collection holding the token.
        collection: Address,
        /// The token whose owner diverged.
        token: TokenId,
        /// Owner according to the replayed event stream.
        replayed: Option<Address>,
        /// Owner in the actual post-block state.
        actual: Option<Address>,
    },
    /// Replayed and actual per-token approval of one token disagree.
    ApprovalMismatch {
        /// The collection holding the token.
        collection: Address,
        /// The token whose approval diverged.
        token: TokenId,
        /// Approved operator according to the replayed event stream.
        replayed: Option<Address>,
        /// Approved operator in the actual post-block state.
        actual: Option<Address>,
    },
    /// Replayed and actual blanket operator approval disagree.
    OperatorMismatch {
        /// The collection the pair belongs to.
        collection: Address,
        /// The granting owner.
        owner: Address,
        /// The operator in question.
        operator: Address,
        /// Whether the replayed stream says the grant is outstanding.
        replayed: bool,
    },
    /// Replayed and actual marketplace listing of one token disagree.
    ListingMismatch {
        /// The collection holding the token.
        collection: Address,
        /// The token whose listing diverged.
        token: TokenId,
        /// `(seller, ask)` according to the replayed event stream (boxed,
        /// like `actual`, to keep the violation small enough to return).
        replayed: Option<Box<(Address, Wei)>>,
        /// `(seller, ask)` in the actual post-block state.
        actual: Option<Box<(Address, Wei)>>,
    },
    /// Replayed and actual royalty stamp of one token disagree.
    RoyaltyMismatch {
        /// The collection holding the token.
        collection: Address,
        /// The token whose royalty stamp diverged.
        token: TokenId,
        /// Basis points according to the replayed event stream.
        replayed: Option<u16>,
        /// Basis points in the actual post-block state.
        actual: Option<u16>,
    },
    /// Replayed and actual bonding-curve position disagree.
    PriceMismatch {
        /// The collection whose curve diverged.
        collection: Address,
        /// `(price, remaining_supply)` according to the replayed stream.
        replayed: (Wei, u64),
        /// `(price, remaining_supply)` in the actual post-block state.
        actual: (Wei, u64),
    },
    /// A collection present before the block vanished after it (or vice
    /// versa) — blocks cannot deploy or destroy collections.
    CollectionSetChanged {
        /// Collections only the pre/replayed side has.
        replayed_only: Vec<Address>,
        /// Collections only the post side has.
        actual_only: Vec<Address>,
    },
}

impl fmt::Display for EventReplayViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventReplayViolation::UnknownCollection { collection, event } => {
                write!(f, "event {event} names unknown collection {collection}")
            }
            EventReplayViolation::StreamInconsistent {
                collection,
                event,
                expected,
            } => write!(
                f,
                "inconsistent event stream for {collection}: {event} ({expected})"
            ),
            EventReplayViolation::OwnershipMismatch {
                collection,
                token,
                replayed,
                actual,
            } => write!(
                f,
                "ownership of {token} in {collection}: replay says {replayed:?}, state says {actual:?}"
            ),
            EventReplayViolation::ApprovalMismatch {
                collection,
                token,
                replayed,
                actual,
            } => write!(
                f,
                "approval of {token} in {collection}: replay says {replayed:?}, state says {actual:?}"
            ),
            EventReplayViolation::OperatorMismatch {
                collection,
                owner,
                operator,
                replayed,
            } => write!(
                f,
                "operator grant {owner}->{operator} in {collection}: replay says {replayed}, state says {}",
                !replayed
            ),
            EventReplayViolation::ListingMismatch {
                collection,
                token,
                replayed,
                actual,
            } => write!(
                f,
                "listing of {token} in {collection}: replay says {replayed:?}, state says {actual:?}"
            ),
            EventReplayViolation::RoyaltyMismatch {
                collection,
                token,
                replayed,
                actual,
            } => write!(
                f,
                "royalty stamp of {token} in {collection}: replay says {replayed:?}, state says {actual:?}"
            ),
            EventReplayViolation::PriceMismatch {
                collection,
                replayed,
                actual,
            } => write!(
                f,
                "curve position of {collection}: replay says {replayed:?}, state says {actual:?}"
            ),
            EventReplayViolation::CollectionSetChanged {
                replayed_only,
                actual_only,
            } => write!(
                f,
                "collection set changed across the block: replay-only {replayed_only:?}, state-only {actual_only:?}"
            ),
        }
    }
}

impl std::error::Error for EventReplayViolation {}

/// Folds one log entry into the replayed maps, fail-stopping on entries
/// that contradict the maps built so far.
fn apply_entry(maps: &mut StateMaps, entry: &LogEntry) -> Result<(), EventReplayViolation> {
    let coll =
        maps.get_mut(&entry.collection)
            .ok_or_else(|| EventReplayViolation::UnknownCollection {
                collection: entry.collection,
                event: entry.event.to_string(),
            })?;
    let inconsistent = |expected: String| EventReplayViolation::StreamInconsistent {
        collection: entry.collection,
        event: entry.event.to_string(),
        expected,
    };
    match entry.event {
        Erc721Event::Transfer { from, to, token } => {
            let current = coll.owners.get(&token).copied();
            if from.is_zero() {
                // Mint: the token must not already exist.
                if let Some(owner) = current {
                    return Err(inconsistent(format!("mint of token owned by {owner}")));
                }
            } else if current != Some(from) {
                return Err(inconsistent(format!(
                    "transfer from {from} but replayed owner is {current:?}"
                )));
            }
            if to.is_zero() {
                coll.owners.remove(&token);
                // A burn retires the token's marketplace slots with it.
                coll.listings.remove(&token);
                coll.royalties.remove(&token);
            } else {
                coll.owners.insert(token, to);
                // A plain transfer leaves an open listing in place — it
                // merely goes stale (the seller is no longer the owner).
            }
            if from.is_zero() {
                // Mint stamps the token's royalty rate from the collection's
                // deploy-time configuration.
                coll.royalties.insert(token, coll.royalty_bps);
            }
            // Every ownership change clears the per-token approval — the
            // ERC-721 implicit-clear rule the contract implements.
            coll.approvals.remove(&token);
            // Remaining supply is `max_supply − active tokens`, so it moves
            // with mints and burns, not with `PriceChanged` (a quantized-flat
            // curve mints without emitting one). Derive it here; the
            // `PriceChanged` payload below is then a cross-check, not the
            // source of truth.
            if from.is_zero() {
                coll.remaining_supply = coll
                    .remaining_supply
                    .checked_sub(1)
                    .ok_or_else(|| inconsistent("mint with zero remaining supply".into()))?;
            } else if to.is_zero() {
                coll.remaining_supply += 1;
            }
        }
        Erc721Event::Approval {
            owner,
            approved,
            token,
        } => {
            let current = coll.owners.get(&token).copied();
            if current != Some(owner) {
                return Err(inconsistent(format!(
                    "approval by {owner} but replayed owner is {current:?}"
                )));
            }
            if approved.is_zero() {
                coll.approvals.remove(&token);
            } else {
                coll.approvals.insert(token, approved);
            }
        }
        Erc721Event::ApprovalForAll {
            owner,
            operator,
            approved,
        } => {
            if approved {
                coll.operators.insert((owner, operator));
            } else {
                coll.operators.remove(&(owner, operator));
            }
        }
        Erc721Event::Listed {
            seller,
            token,
            price,
        } => {
            let owner = coll.owners.get(&token).copied();
            if owner != Some(seller) {
                return Err(inconsistent(format!(
                    "listing by {seller} but replayed owner is {owner:?}"
                )));
            }
            if price.is_zero() {
                return Err(inconsistent("listing at a zero ask".into()));
            }
            // A fresh listing (same seller still owning) cannot be doubled;
            // overwriting a *stale* predecessor is the legal relist path.
            if let Some(&(prev_seller, _)) = coll.listings.get(&token) {
                if owner == Some(prev_seller) {
                    return Err(inconsistent(format!(
                        "token already carries a fresh listing by {prev_seller}"
                    )));
                }
            }
            coll.listings.insert(token, (seller, price));
        }
        Erc721Event::ListingCancelled { seller, token } => {
            if coll.listings.remove(&token).is_none() {
                return Err(inconsistent("cancel of an unlisted token".into()));
            }
            // Only the current owner may cancel (including clearing a stale
            // listing a previous owner left behind).
            let owner = coll.owners.get(&token).copied();
            if owner != Some(seller) {
                return Err(inconsistent(format!(
                    "cancel by {seller} but replayed owner is {owner:?}"
                )));
            }
        }
        Erc721Event::Sold {
            seller,
            buyer,
            token,
            price,
            royalty,
        } => {
            // Sales only take *fresh* listings: the recorded seller must
            // still own the token and the book must hold exactly this ask.
            let owner = coll.owners.get(&token).copied();
            if owner != Some(seller) {
                return Err(inconsistent(format!(
                    "sale by {seller} but replayed owner is {owner:?}"
                )));
            }
            match coll.listings.remove(&token) {
                None => return Err(inconsistent("sale of an unlisted token".into())),
                Some((listed_seller, ask)) if (listed_seller, ask) != (seller, price) => {
                    return Err(inconsistent(format!(
                        "sale at ({seller}, {price}) but book holds ({listed_seller}, {ask})"
                    )));
                }
                Some(_) => {}
            }
            if buyer == seller || buyer.is_zero() {
                return Err(inconsistent(format!("degenerate buyer {buyer}")));
            }
            // The settled royalty must be the exact floored split the
            // token's stamped rate mandates — a forged royalty payload is a
            // stream inconsistency even when the maps would still match.
            let bps = coll.royalties.get(&token).copied().unwrap_or(0) as u128;
            let expected_royalty = Wei::from_wei(price.wei() * bps / 10_000);
            if royalty != expected_royalty {
                return Err(inconsistent(format!(
                    "royalty {royalty} but {bps} bps of {price} is {expected_royalty}"
                )));
            }
            coll.owners.insert(token, buyer);
            coll.approvals.remove(&token);
        }
        Erc721Event::PriceChanged {
            new_price,
            remaining_supply,
            ..
        } => {
            // The payload's remaining supply must agree with the value the
            // mint/burn transfers replayed so far imply — a forged or
            // misplaced curve event is a stream inconsistency, not a map
            // update.
            if remaining_supply != coll.remaining_supply {
                return Err(inconsistent(format!(
                    "curve event claims {remaining_supply} remaining, replay says {}",
                    coll.remaining_supply
                )));
            }
            coll.price = new_price;
        }
    }
    Ok(())
}

/// Compares replayed maps against the actual post-block maps, reporting the
/// first divergence in deterministic (sorted) order.
fn diff_maps(replayed: &StateMaps, actual: &StateMaps) -> Result<(), EventReplayViolation> {
    if replayed.keys().ne(actual.keys()) {
        return Err(EventReplayViolation::CollectionSetChanged {
            replayed_only: replayed
                .keys()
                .filter(|a| !actual.contains_key(a))
                .copied()
                .collect(),
            actual_only: actual
                .keys()
                .filter(|a| !replayed.contains_key(a))
                .copied()
                .collect(),
        });
    }
    for (addr, rep) in replayed {
        let act = &actual[addr];
        for token in rep.owners.keys().chain(act.owners.keys()) {
            let (r, a) = (rep.owners.get(token), act.owners.get(token));
            if r != a {
                return Err(EventReplayViolation::OwnershipMismatch {
                    collection: *addr,
                    token: *token,
                    replayed: r.copied(),
                    actual: a.copied(),
                });
            }
        }
        for token in rep.approvals.keys().chain(act.approvals.keys()) {
            let (r, a) = (rep.approvals.get(token), act.approvals.get(token));
            if r != a {
                return Err(EventReplayViolation::ApprovalMismatch {
                    collection: *addr,
                    token: *token,
                    replayed: r.copied(),
                    actual: a.copied(),
                });
            }
        }
        if let Some(&(owner, operator)) = rep.operators.symmetric_difference(&act.operators).next()
        {
            return Err(EventReplayViolation::OperatorMismatch {
                collection: *addr,
                owner,
                operator,
                replayed: rep.operators.contains(&(owner, operator)),
            });
        }
        for token in rep.listings.keys().chain(act.listings.keys()) {
            let (r, a) = (rep.listings.get(token), act.listings.get(token));
            if r != a {
                return Err(EventReplayViolation::ListingMismatch {
                    collection: *addr,
                    token: *token,
                    replayed: r.copied().map(Box::new),
                    actual: a.copied().map(Box::new),
                });
            }
        }
        for token in rep.royalties.keys().chain(act.royalties.keys()) {
            let (r, a) = (rep.royalties.get(token), act.royalties.get(token));
            if r != a {
                return Err(EventReplayViolation::RoyaltyMismatch {
                    collection: *addr,
                    token: *token,
                    replayed: r.copied(),
                    actual: a.copied(),
                });
            }
        }
        if (rep.price, rep.remaining_supply) != (act.price, act.remaining_supply) {
            return Err(EventReplayViolation::PriceMismatch {
                collection: *addr,
                replayed: (rep.price, rep.remaining_supply),
                actual: (act.price, act.remaining_supply),
            });
        }
    }
    Ok(())
}

/// Replays `logs` over `pre` maps and returns the resulting maps.
///
/// # Errors
///
/// Fails when the stream is internally inconsistent against `pre` (see
/// [`EventReplayViolation::StreamInconsistent`]).
pub fn replay_events(
    pre: &StateMaps,
    logs: impl IntoIterator<Item = LogEntry>,
) -> Result<StateMaps, EventReplayViolation> {
    let mut maps = pre.clone();
    for entry in logs {
        apply_entry(&mut maps, &entry)?;
    }
    Ok(maps)
}

/// The full oracle: replays every log entry in `receipts` (in receipt
/// order) over the pre-block maps and diffs the result against the actual
/// post-block state.
///
/// # Errors
///
/// Returns the first [`EventReplayViolation`] found: an inconsistent
/// stream, or any divergence between the replayed and actual ownership,
/// approval, operator or bonding-curve maps.
pub fn check_event_replay(
    pre: &StateMaps,
    receipts: &[Receipt],
    post: &L2State,
) -> Result<(), EventReplayViolation> {
    let logs = receipts.iter().flat_map(|r| r.logs.iter().copied());
    let replayed = replay_events(pre, logs)?;
    diff_maps(&replayed, &snapshot_maps(post))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;
    use parole_ovm::{NftTransaction, Ovm, TxKind};

    fn funded_state() -> (L2State, Address, Vec<Address>) {
        let mut state = L2State::new();
        let coll = state.deploy_collection(CollectionConfig::parole_token());
        let users: Vec<Address> = (1..=4).map(Address::from_low_u64).collect();
        for &u in &users {
            state.credit(u, Wei::from_eth(10));
        }
        (state, coll, users)
    }

    #[test]
    fn honest_block_replays_exactly() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(1),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::Approve {
                    collection: coll,
                    token: TokenId::new(0),
                    operator: users[2],
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::SetApprovalForAll {
                    collection: coll,
                    operator: users[3],
                    approved: true,
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::Transfer {
                    collection: coll,
                    token: TokenId::new(0),
                    to: users[3],
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Burn {
                    collection: coll,
                    token: TokenId::new(1),
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()));
        check_event_replay(&pre, &receipts, &state).expect("honest block must replay");
    }

    /// Regression (caught live by the armed sequencer under the traffic
    /// harness): on a quantized-flat bonding curve a mint emits *no*
    /// `PriceChanged`, so remaining supply must be derived from the mint
    /// and burn transfers themselves, not read off curve events.
    #[test]
    fn flat_curve_mints_replay_without_price_events() {
        let mut state = L2State::new();
        // 10⁴ supply at 1-milli-eth quantum: the first mints move the raw
        // price by < one quantum, so the event stream is Transfer-only.
        let coll = state.deploy_collection(CollectionConfig::limited_edition("Flat", 10_000, 1));
        let users: Vec<Address> = (1..=3).map(Address::from_low_u64).collect();
        for &u in &users {
            state.credit(u, Wei::from_eth(10));
        }
        let ovm = Ovm::new();
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(1),
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Burn {
                    collection: coll,
                    token: TokenId::new(1),
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()));
        assert!(
            receipts
                .iter()
                .flat_map(|r| r.logs.iter())
                .all(|l| matches!(l.event, Erc721Event::Transfer { .. })),
            "the whole point: no PriceChanged in this stream"
        );
        check_event_replay(&pre, &receipts, &state).expect("flat-curve block must replay");
    }

    /// A curve event whose payload disagrees with the supply the transfers
    /// imply is a stream inconsistency, even if final maps would match.
    #[test]
    fn forged_curve_payload_is_fail_stop() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let txs = [NftTransaction::simple(
            users[0],
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(0),
            },
        )];
        let pre = snapshot_maps(&state);
        let mut receipts = ovm.execute_sequence(&mut state, &txs);
        for log in &mut receipts[0].logs {
            if let Erc721Event::PriceChanged {
                remaining_supply, ..
            } = &mut log.event
            {
                *remaining_supply += 5;
            }
        }
        assert!(matches!(
            check_event_replay(&pre, &receipts, &state),
            Err(EventReplayViolation::StreamInconsistent { .. })
        ));
    }

    #[test]
    fn reverted_txs_contribute_nothing_and_still_replay() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            // Reverts: token 0 already minted.
            NftTransaction::simple(
                users[1],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            // Reverts: users[1] does not own token 0.
            NftTransaction::simple(
                users[1],
                TxKind::Transfer {
                    collection: coll,
                    token: TokenId::new(0),
                    to: users[2],
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts[0].is_success());
        assert!(!receipts[1].is_success() && receipts[1].logs.is_empty());
        assert!(!receipts[2].is_success() && receipts[2].logs.is_empty());
        check_event_replay(&pre, &receipts, &state).expect("reverts emit nothing");
    }

    #[test]
    fn dropped_event_is_detected() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let tx = NftTransaction::simple(
            users[0],
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(0),
            },
        );
        let pre = snapshot_maps(&state);
        let mut receipts = vec![ovm.execute(&mut state, &tx)];
        // Mutation: the OVM "forgets" to emit the mint's Transfer event.
        receipts[0].logs.clear();
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(err, EventReplayViolation::OwnershipMismatch { token, .. }
                if token == TokenId::new(0)),
            "got {err}"
        );
    }

    #[test]
    fn forged_event_stream_is_fail_stop() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let tx = NftTransaction::simple(
            users[0],
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(0),
            },
        );
        let pre = snapshot_maps(&state);
        let mut receipts = vec![ovm.execute(&mut state, &tx)];
        // Mutation: inject a transfer from an address that never owned the
        // token. The stream is now internally inconsistent even though a
        // matching counter-entry could restore the final maps.
        receipts[0].logs.push(parole_ovm::LogEntry {
            collection: coll,
            event: Erc721Event::Transfer {
                from: users[3],
                to: users[2],
                token: TokenId::new(0),
            },
        });
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(err, EventReplayViolation::StreamInconsistent { .. }),
            "got {err}"
        );
    }

    #[test]
    fn missed_operator_revocation_is_detected() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let grant = NftTransaction::simple(
            users[0],
            TxKind::SetApprovalForAll {
                collection: coll,
                operator: users[1],
                approved: true,
            },
        );
        let pre = snapshot_maps(&state);
        let mut receipts = vec![ovm.execute(&mut state, &grant)];
        receipts[0].logs.clear(); // mutation: grant went unjournaled
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(
                err,
                EventReplayViolation::OperatorMismatch {
                    replayed: false,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn price_divergence_is_detected() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let tx = NftTransaction::simple(
            users[0],
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(0),
            },
        );
        let pre = snapshot_maps(&state);
        let mut receipts = vec![ovm.execute(&mut state, &tx)];
        // Mutation: strip only the PriceChanged entry; ownership still
        // replays, the curve position does not.
        receipts[0]
            .logs
            .retain(|l| !matches!(l.event, Erc721Event::PriceChanged { .. }));
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(err, EventReplayViolation::PriceMismatch { .. }),
            "got {err}"
        );
    }

    /// A full marketplace lifecycle — mint, list, cancel, relist, buy —
    /// projected purely from the receipt streams must land on the post-state
    /// listing book, ownership, and royalty table.
    #[test]
    fn marketplace_lifecycle_replays_exactly() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let ask = Wei::from_milli_eth(400);
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::List {
                    collection: coll,
                    token: TokenId::new(0),
                    price: Wei::from_eth(1),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::CancelListing {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::List {
                    collection: coll,
                    token: TokenId::new(0),
                    price: ask,
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Buy {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            // The buyer re-lists; this listing survives to the post-state.
            NftTransaction::simple(
                users[1],
                TxKind::List {
                    collection: coll,
                    token: TokenId::new(0),
                    price: Wei::from_eth(2),
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()), "{receipts:?}");
        assert_eq!(
            state.collection(coll).unwrap().listing_count(),
            1,
            "exactly the re-listing remains open"
        );
        check_event_replay(&pre, &receipts, &state).expect("marketplace block must replay");
    }

    /// A `Sold` payload whose royalty disagrees with the bps stamped at mint
    /// is a stream inconsistency, even though the listing book and ownership
    /// maps would still converge.
    #[test]
    fn forged_sold_royalty_is_fail_stop() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::List {
                    collection: coll,
                    token: TokenId::new(0),
                    price: Wei::from_eth(1),
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Buy {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let mut receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()));
        let mut forged = false;
        for r in &mut receipts {
            for log in &mut r.logs {
                if let Erc721Event::Sold { royalty, .. } = &mut log.event {
                    *royalty += Wei::from_wei(1);
                    forged = true;
                }
            }
        }
        assert!(forged, "stream must contain a Sold event to forge");
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(err, EventReplayViolation::StreamInconsistent { .. }),
            "got {err}"
        );
    }

    /// Dropping the `Listed` event leaves the replayed book empty while the
    /// actual state carries an open listing: a listing mismatch.
    #[test]
    fn dropped_listed_event_is_detected() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::List {
                    collection: coll,
                    token: TokenId::new(0),
                    price: Wei::from_eth(1),
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let mut receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()));
        receipts[1].logs.clear(); // mutation: the listing went unjournaled
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(err, EventReplayViolation::ListingMismatch { token, .. }
                if token == TokenId::new(0)),
            "got {err}"
        );
    }

    /// A `Sold` event against an empty book (the sequencer "sold" a token
    /// that was never listed) is internally inconsistent.
    #[test]
    fn sold_without_listing_is_fail_stop() {
        let (mut state, coll, users) = funded_state();
        let ovm = Ovm::new();
        let txs = [
            NftTransaction::simple(
                users[0],
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                users[0],
                TxKind::List {
                    collection: coll,
                    token: TokenId::new(0),
                    price: Wei::from_eth(1),
                },
            ),
            NftTransaction::simple(
                users[1],
                TxKind::Buy {
                    collection: coll,
                    token: TokenId::new(0),
                },
            ),
        ];
        let pre = snapshot_maps(&state);
        let mut receipts = ovm.execute_sequence(&mut state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()));
        // Mutation: erase the listing from the journal; the Sold event now
        // references a book entry that never existed.
        receipts[1].logs.clear();
        let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
        assert!(
            matches!(err, EventReplayViolation::StreamInconsistent { .. }),
            "got {err}"
        );
    }
}
