//! Differential oracle: incremental vs naive execution.
//!
//! The GENTRANSEQ hot path evaluates candidate orderings through
//! [`PrefixExecutor`], which replays only the suffix that diverged from the
//! previous candidate. Its contract is bit-identical equivalence with
//! [`Ovm::simulate_sequence`]; a stale checkpoint, a mark placed one slot
//! off, or an undo-log gap silently corrupts *every* downstream profit
//! estimate. The oracle re-executes windows naively from the pristine base
//! state and diffs receipts slot by slot plus the final state roots.

use parole_crypto::Hash32;
use parole_ovm::{NftTransaction, Ovm, PrefixExecutor, Receipt};
use parole_state::L2State;
use std::fmt;

/// The first observed disagreement between two executions of one sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The executions produced different receipt counts.
    ReceiptCount {
        /// Receipts from the reference (naive) execution.
        expected: usize,
        /// Receipts from the audited execution.
        got: usize,
    },
    /// The executions disagree at one slot.
    ReceiptMismatch {
        /// The first disagreeing slot.
        slot: usize,
        /// The reference receipt.
        expected: Box<Receipt>,
        /// The audited receipt.
        got: Box<Receipt>,
    },
    /// Identical receipts but different post-states.
    StateRootMismatch {
        /// The reference state root.
        expected: Hash32,
        /// The audited state root.
        got: Hash32,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::ReceiptCount { expected, got } => {
                write!(f, "receipt count {got} differs from reference {expected}")
            }
            Divergence::ReceiptMismatch {
                slot,
                expected,
                got,
            } => write!(
                f,
                "slot {slot} diverged: reference {expected}, audited {got}"
            ),
            Divergence::StateRootMismatch { expected, got } => {
                write!(
                    f,
                    "state roots diverged: reference {expected}, audited {got}"
                )
            }
        }
    }
}

impl std::error::Error for Divergence {}

/// Diffs one execution's outputs against a reference execution's.
///
/// # Errors
///
/// Returns the first [`Divergence`] found: count, then slot-by-slot
/// receipts, then state roots.
pub fn diff_execution(
    reference: &[Receipt],
    reference_root: Hash32,
    audited: &[Receipt],
    audited_root: Hash32,
) -> Result<(), Divergence> {
    if reference.len() != audited.len() {
        return Err(Divergence::ReceiptCount {
            expected: reference.len(),
            got: audited.len(),
        });
    }
    for (slot, (want, got)) in reference.iter().zip(audited).enumerate() {
        if want != got {
            return Err(Divergence::ReceiptMismatch {
                slot,
                expected: Box::new(want.clone()),
                got: Box::new(got.clone()),
            });
        }
    }
    if reference_root != audited_root {
        return Err(Divergence::StateRootMismatch {
            expected: reference_root,
            got: audited_root,
        });
    }
    Ok(())
}

/// Replays windows through a [`PrefixExecutor`] and a naive fresh execution
/// and diffs the two.
#[derive(Debug)]
pub struct DifferentialOracle {
    ovm: Ovm,
}

impl DifferentialOracle {
    /// An oracle executing both sides with `ovm`.
    pub fn new(ovm: Ovm) -> Self {
        DifferentialOracle { ovm }
    }

    /// Runs a whole schedule of candidate orderings through *one*
    /// incremental executor — the exact reuse pattern the reorder search
    /// performs — diffing every evaluation against a fresh naive run.
    ///
    /// # Errors
    ///
    /// Returns the first divergence across the schedule.
    pub fn check_schedule(
        &self,
        base: &L2State,
        orders: &[Vec<NftTransaction>],
    ) -> Result<(), Divergence> {
        let mut incremental = PrefixExecutor::new(self.ovm.clone(), base);
        for seq in orders {
            let (naive_receipts, naive_state) = self.ovm.simulate_sequence(base, seq);
            let (receipts, state) = incremental.execute(seq);
            let (receipts, root) = (receipts.to_vec(), state.state_root());
            // The reference side rebuilds its root from scratch
            // (`state_root_naive`) so the oracle never vouches for the
            // incremental commitment cache with the cache's own output: a
            // missed invalidation on the incremental side shows up as a
            // root mismatch here.
            diff_execution(
                &naive_receipts,
                naive_state.state_root_naive(),
                &receipts,
                root,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;
    use parole_ovm::TxKind;
    use parole_primitives::{Address, TokenId, Wei};

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn window() -> (L2State, Vec<NftTransaction>) {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        for u in 1..=3 {
            state.credit(addr(u), Wei::from_eth(2));
        }
        let seq = vec![
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
            NftTransaction::simple(
                addr(3),
                TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(4),
                },
            ),
        ];
        (state, seq)
    }

    #[test]
    fn honest_incremental_execution_matches_across_swaps() {
        let (base, mut seq) = window();
        let oracle = DifferentialOracle::new(Ovm::new());
        let mut schedule = vec![seq.clone()];
        for &(i, j) in &[(0usize, 3usize), (1, 2), (0, 1), (2, 3)] {
            seq.swap(i, j);
            schedule.push(seq.clone());
        }
        assert_eq!(oracle.check_schedule(&base, &schedule), Ok(()));
    }

    #[test]
    fn stale_cache_claims_are_caught() {
        let (base, mut seq) = window();
        let ovm = Ovm::new();
        // Emulate a broken cache: receipts of the *old* ordering are claimed
        // for the swapped one.
        let (stale_receipts, stale_state) = ovm.simulate_sequence(&base, &seq);
        seq.swap(0, 2);
        let (fresh_receipts, fresh_state) = ovm.simulate_sequence(&base, &seq);
        let err = diff_execution(
            &fresh_receipts,
            fresh_state.state_root(),
            &stale_receipts,
            stale_state.state_root(),
        )
        .unwrap_err();
        assert!(matches!(err, Divergence::ReceiptMismatch { .. }));
    }
}
