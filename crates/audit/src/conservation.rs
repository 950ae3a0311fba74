//! Conservation auditing around single executions.
//!
//! [`ExecutionSnapshot`] captures the handful of facts one
//! [`Ovm::execute`](parole_ovm::Ovm::execute) call is allowed to move —
//! circulating Wei, the claimed sender's nonce, and every collection's
//! token-ledger counters — *before* the call, and
//! [`check_execution`] verifies the post-state moved them in exact lockstep
//! with the receipt:
//!
//! - Wei never appears out of thin air, and only leaves circulation as the
//!   burned fee the receipt reports;
//! - the claimed sender's nonce advances exactly once, whatever the outcome
//!   (the reason-dependent nonce skip was a real bug here once);
//! - a successful mint/transfer/burn moves exactly one token and exactly one
//!   lifetime counter of exactly the collection the transaction names, and a
//!   revert moves none;
//! - `BadSignature` / `CannotPayFees` reverts report a zero `fee_paid`,
//!   since no debit ever happened on those paths.
//!
//! The snapshot-based design is what makes the mutation harness possible:
//! a deliberately buggy execution can be supplied externally and the auditor
//! judges it from the outside, exactly as it judges the real OVM.

use parole_ovm::{NftTransaction, Ovm, Receipt, RevertReason};
use parole_primitives::{Address, Wei};
use parole_state::L2State;
use std::collections::BTreeMap;
use std::fmt;

/// One collection's ledger counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectionCounts {
    /// Currently active (minted, not burned) tokens.
    pub active: u64,
    /// Lifetime mints.
    pub mints: u64,
    /// Lifetime transfers.
    pub transfers: u64,
    /// Lifetime burns.
    pub burns: u64,
}

/// The conservation-relevant facts captured before one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionSnapshot {
    /// Total circulating Wei.
    pub total_supply: Wei,
    /// The claimed sender.
    pub sender: Address,
    /// The sender's nonce (0 for a fresh account).
    pub sender_nonce: u64,
    /// Ledger counters of every deployed collection.
    pub collections: BTreeMap<Address, CollectionCounts>,
}

impl ExecutionSnapshot {
    /// Captures the facts [`check_execution`] will re-derive afterwards.
    pub fn take(state: &L2State, sender: Address) -> Self {
        ExecutionSnapshot {
            total_supply: state.total_supply(),
            sender,
            sender_nonce: state.account(sender).map_or(0, |a| a.nonce.value()),
            collections: collection_counts(state),
        }
    }
}

fn collection_counts(state: &L2State) -> BTreeMap<Address, CollectionCounts> {
    state
        .collections()
        .map(|(addr, c)| {
            let (mints, transfers, burns) = c.lifetime_counts();
            (
                addr,
                CollectionCounts {
                    active: c.active_supply(),
                    mints,
                    transfers,
                    burns,
                },
            )
        })
        .collect()
}

/// A conservation law one execution broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConservationViolation {
    /// Circulating Wei moved by something other than the burned fee.
    WeiNotConserved {
        /// Supply before the execution.
        before: Wei,
        /// Supply after the execution.
        after: Wei,
        /// The fee the receipt claims was burned.
        fee_paid: Wei,
    },
    /// The claimed sender's nonce did not advance exactly once.
    NonceNotUniform {
        /// The sender whose nonce misbehaved.
        sender: Address,
        /// Nonce before the execution.
        before: u64,
        /// Nonce after the execution.
        after: u64,
    },
    /// A revert path that never debits fees reported a non-zero `fee_paid`.
    GhostFee {
        /// The reason the transaction reverted.
        reason: RevertReason,
        /// The fee the receipt claims was paid.
        claimed: Wei,
    },
    /// A collection's token-ledger counters moved out of lockstep with the
    /// receipt.
    TokenLedgerDrift {
        /// The collection whose counters drifted.
        collection: Address,
        /// Counters the receipt mandates.
        expected: CollectionCounts,
        /// Counters actually observed.
        got: CollectionCounts,
    },
    /// The set of deployed collections changed across a plain execution.
    CollectionSetChanged,
    /// A fraud slash did not split exactly into reward plus burn.
    BondNotConserved {
        /// The bond amount slashed from the fraudulent party.
        slashed: Wei,
        /// The share paid out to the successful challenger.
        reward: Wei,
        /// The share removed from circulation.
        burned: Wei,
    },
}

impl fmt::Display for ConservationViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConservationViolation::WeiNotConserved {
                before,
                after,
                fee_paid,
            } => write!(
                f,
                "wei supply {before} -> {after} inconsistent with burned fee {fee_paid}"
            ),
            ConservationViolation::NonceNotUniform {
                sender,
                before,
                after,
            } => write!(
                f,
                "sender {sender} nonce {before} -> {after}, must advance exactly once"
            ),
            ConservationViolation::GhostFee { reason, claimed } => write!(
                f,
                "revert '{reason}' happens before any debit but claims fee {claimed}"
            ),
            ConservationViolation::TokenLedgerDrift {
                collection,
                expected,
                got,
            } => write!(
                f,
                "collection {collection} ledger drifted: expected {expected:?}, got {got:?}"
            ),
            ConservationViolation::CollectionSetChanged => {
                write!(f, "set of deployed collections changed during execution")
            }
            ConservationViolation::BondNotConserved {
                slashed,
                reward,
                burned,
            } => write!(
                f,
                "slashed bond {slashed} must equal reward {reward} + burn {burned}"
            ),
        }
    }
}

impl std::error::Error for ConservationViolation {}

/// Audits one execution: `pre` was taken on the pre-state, `post` is the
/// state after the OVM processed `tx` and produced `receipt`.
///
/// # Errors
///
/// Returns the first [`ConservationViolation`] found, checking nonce
/// uniformity, fee honesty, Wei conservation, then token-ledger lockstep.
pub fn check_execution(
    pre: &ExecutionSnapshot,
    post: &L2State,
    tx: &NftTransaction,
    receipt: &Receipt,
) -> Result<(), ConservationViolation> {
    // Nonce uniformity: exactly one bump of the claimed sender.
    let nonce_after = post.account(pre.sender).map_or(0, |a| a.nonce.value());
    if nonce_after != pre.sender_nonce + 1 {
        return Err(ConservationViolation::NonceNotUniform {
            sender: pre.sender,
            before: pre.sender_nonce,
            after: nonce_after,
        });
    }

    // Fee honesty: the pre-debit revert paths charge nothing.
    if let Some(reason) = receipt.revert_reason() {
        if matches!(
            reason,
            RevertReason::BadSignature | RevertReason::CannotPayFees
        ) && !receipt.fee_paid.is_zero()
        {
            return Err(ConservationViolation::GhostFee {
                reason,
                claimed: receipt.fee_paid,
            });
        }
    }

    // Wei conservation: the burned fee is the only sink, and there is no
    // source at all. Prices move balances between accounts, never the total.
    let supply_after = post.total_supply();
    if pre.total_supply.checked_sub(receipt.fee_paid) != Ok(supply_after) {
        return Err(ConservationViolation::WeiNotConserved {
            before: pre.total_supply,
            after: supply_after,
            fee_paid: receipt.fee_paid,
        });
    }

    // Token-ledger lockstep: only the named collection may move, and only in
    // the single step the receipt's outcome mandates.
    let after = collection_counts(post);
    if after.len() != pre.collections.len() {
        return Err(ConservationViolation::CollectionSetChanged);
    }
    for (addr, before) in &pre.collections {
        let Some(got) = after.get(addr) else {
            return Err(ConservationViolation::CollectionSetChanged);
        };
        let mut expected = *before;
        if receipt.is_success() && *addr == tx.kind.collection() {
            // The kind's OpSpec declares exactly which ledger counters one
            // successful execution moves (a marketplace buy counts as a
            // transfer; approvals and listing-book edits move nothing).
            let delta = tx.kind.spec().ledger;
            expected.active = expected
                .active
                .checked_add_signed(delta.active)
                .expect("ledger active count cannot underflow");
            expected.mints += delta.mints;
            expected.transfers += delta.transfers;
            expected.burns += delta.burns;
        }
        if *got != expected {
            return Err(ConservationViolation::TokenLedgerDrift {
                collection: *addr,
                expected,
                got: *got,
            });
        }
    }
    Ok(())
}

/// Audits one fraud slash: the full slashed bond must split *exactly* into
/// the challenger's reward plus the burned remainder — no Wei may vanish
/// between the slash and its two sinks, and the reward can never exceed
/// the bond it came from. (The remainder used to be dropped silently on
/// the challenge path; this checker pins the fixed accounting from the
/// outside.)
///
/// # Errors
///
/// Returns [`ConservationViolation::BondNotConserved`] when
/// `reward + burned != slashed` (including the reward-exceeds-bond case).
pub fn check_bond_flow(
    slashed: Wei,
    reward: Wei,
    burned: Wei,
) -> Result<(), ConservationViolation> {
    if slashed.checked_sub(reward) != Ok(burned) {
        return Err(ConservationViolation::BondNotConserved {
            slashed,
            reward,
            burned,
        });
    }
    Ok(())
}

/// An [`Ovm`] wrapper that audits every execution it performs.
///
/// ```
/// use parole_audit::AuditedOvm;
/// use parole_ovm::{NftTransaction, Ovm, TxKind};
/// use parole_nft::CollectionConfig;
/// use parole_primitives::{Address, TokenId, Wei};
/// use parole_state::L2State;
///
/// let mut state = L2State::new();
/// let pt = state.deploy_collection(CollectionConfig::parole_token());
/// let minter = Address::from_low_u64(1);
/// state.credit(minter, Wei::from_eth(1));
/// let mut audited = AuditedOvm::new(Ovm::new());
/// let tx = NftTransaction::simple(minter, TxKind::Mint { collection: pt, token: TokenId::new(0) });
/// let receipt = audited.execute(&mut state, &tx).expect("conserves");
/// assert!(receipt.is_success());
/// ```
#[derive(Debug, Clone)]
pub struct AuditedOvm {
    ovm: Ovm,
    checks: u64,
}

impl AuditedOvm {
    /// Wraps `ovm` so every execution is conservation-checked.
    pub fn new(ovm: Ovm) -> Self {
        AuditedOvm { ovm, checks: 0 }
    }

    /// The wrapped OVM.
    pub fn ovm(&self) -> &Ovm {
        &self.ovm
    }

    /// Number of executions audited so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks
    }

    /// Executes `tx` and audits the transition.
    ///
    /// # Errors
    ///
    /// Returns the violation instead of the receipt when a conservation law
    /// broke; `state` keeps the (corrupt) post-execution contents so the
    /// caller can inspect it.
    pub fn execute(
        &mut self,
        state: &mut L2State,
        tx: &NftTransaction,
    ) -> Result<Receipt, ConservationViolation> {
        let pre = ExecutionSnapshot::take(state, tx.sender);
        let receipt = self.ovm.execute(state, tx);
        self.checks += 1;
        check_execution(&pre, state, tx, &receipt)?;
        Ok(receipt)
    }

    /// Executes a whole sequence, auditing every step.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first violating step.
    pub fn execute_sequence(
        &mut self,
        state: &mut L2State,
        txs: &[NftTransaction],
    ) -> Result<Vec<Receipt>, ConservationViolation> {
        txs.iter().map(|tx| self.execute(state, tx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;
    use parole_ovm::TxKind;
    use parole_primitives::TokenId;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn world() -> (L2State, Address) {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        for u in 1..=3 {
            state.credit(addr(u), Wei::from_eth(2));
        }
        (state, pt)
    }

    #[test]
    fn honest_executions_pass() {
        let (mut state, pt) = world();
        let mut audited = AuditedOvm::new(Ovm::new());
        let txs = vec![
            NftTransaction::simple(
                addr(1),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                addr(1),
                TxKind::Transfer {
                    collection: pt,
                    token: TokenId::new(0),
                    to: addr(2),
                },
            ),
            NftTransaction::simple(
                addr(2),
                TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(0),
                },
            ),
            // Guaranteed revert: not the owner.
            NftTransaction::simple(
                addr(3),
                TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(9),
                },
            ),
        ];
        let receipts = audited.execute_sequence(&mut state, &txs).expect("honest");
        assert_eq!(receipts.len(), 4);
        assert_eq!(audited.checks_performed(), 4);
    }

    #[test]
    fn thin_air_credit_is_caught() {
        let (mut state, pt) = world();
        let tx = NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        );
        let pre = ExecutionSnapshot::take(&state, tx.sender);
        let receipt = Ovm::new().execute(&mut state, &tx);
        // A corrupt executor that conjures value for the sender.
        state.credit(addr(1), Wei::from_wei(1));
        let err = check_execution(&pre, &state, &tx, &receipt).unwrap_err();
        assert!(matches!(err, ConservationViolation::WeiNotConserved { .. }));
    }

    #[test]
    fn bond_flow_must_split_exactly() {
        let slashed = Wei::from_eth(10);
        let reward = Wei::from_eth(5);
        assert_eq!(check_bond_flow(slashed, reward, Wei::from_eth(5)), Ok(()));
        // A leaked remainder (the historical silent drop) fires.
        assert!(matches!(
            check_bond_flow(slashed, reward, Wei::ZERO),
            Err(ConservationViolation::BondNotConserved { .. })
        ));
        // An over-burn fires just the same.
        assert!(check_bond_flow(slashed, reward, Wei::from_eth(6)).is_err());
        // A reward exceeding the bond can never balance.
        assert!(check_bond_flow(Wei::from_eth(1), Wei::from_eth(2), Wei::ZERO).is_err());
    }

    #[test]
    fn double_count_mint_is_caught() {
        let (mut state, pt) = world();
        let tx = NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        );
        let pre = ExecutionSnapshot::take(&state, tx.sender);
        let receipt = Ovm::new().execute(&mut state, &tx);
        // A corrupt executor that minted a second token behind the receipt.
        state
            .nft_mint(pt, addr(2), TokenId::new(1))
            .unwrap()
            .unwrap();
        let err = check_execution(&pre, &state, &tx, &receipt).unwrap_err();
        assert!(matches!(
            err,
            ConservationViolation::TokenLedgerDrift { .. }
        ));
    }
}
