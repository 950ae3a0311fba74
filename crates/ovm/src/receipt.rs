//! Execution receipts.

use crate::logs::{Bloom, LogEntry};
use parole_primitives::{Gas, Hash32, Wei};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a transaction reverted instead of executing.
///
/// Each variant corresponds to one of the paper's execution constraints
/// (Eq. 1, 3, 5) or to protocol-level validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RevertReason {
    /// The payer could not afford the bonding-curve price
    /// (the `B ≥ P` half of Eq. 1 / Eq. 3).
    InsufficientBalance,
    /// The collection had no mintable supply left (`S ≥ 1` half of Eq. 1).
    SoldOut,
    /// An ownership precondition failed (`O_k^{i,t-1}` in Eq. 3 / Eq. 5).
    NotOwner,
    /// The token does not exist (never minted or already burned).
    NoSuchToken,
    /// The token id is already active or out of range.
    BadTokenId,
    /// The referenced collection is not deployed.
    NoSuchCollection,
    /// The attached signature failed verification.
    BadSignature,
    /// Degenerate transfer (to zero address or self).
    BadTransfer,
    /// Degenerate operator for a blanket approval (zero or self).
    BadOperator,
    /// The sender could not cover the gas fee (only with fee charging on).
    CannotPayFees,
    /// The token already carries a fresh listing by its current owner.
    AlreadyListed,
    /// The token carries no listing to cancel or buy.
    NotListed,
    /// The token's listing was left by a previous owner and cannot be
    /// taken (only the current owner may relist or cancel).
    StaleListing,
    /// A degenerate ask price (zero) was rejected.
    BadPrice,
}

impl fmt::Display for RevertReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RevertReason::InsufficientBalance => "insufficient balance for price",
            RevertReason::SoldOut => "collection sold out",
            RevertReason::NotOwner => "sender does not own token",
            RevertReason::NoSuchToken => "token does not exist",
            RevertReason::BadTokenId => "invalid or duplicate token id",
            RevertReason::NoSuchCollection => "collection not deployed",
            RevertReason::BadSignature => "signature verification failed",
            RevertReason::BadTransfer => "degenerate transfer",
            RevertReason::BadOperator => "degenerate operator",
            RevertReason::CannotPayFees => "cannot pay gas fees",
            RevertReason::AlreadyListed => "token is already listed",
            RevertReason::NotListed => "token is not listed",
            RevertReason::StaleListing => "listing is stale (owner changed)",
            RevertReason::BadPrice => "degenerate ask price",
        };
        f.write_str(s)
    }
}

/// Outcome of executing one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxStatus {
    /// The transaction executed and its state changes committed.
    Executed,
    /// The transaction reverted; state is unchanged.
    Reverted(RevertReason),
}

/// The record the OVM produces for every processed transaction.
///
/// Carries the ordered event logs the operation emitted plus a per-receipt
/// bloom over them — reverted transactions always carry an empty log slice
/// and the zero bloom (a reverted operation returns its reason instead of
/// events, so there is nothing to log).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receipt {
    /// Hash of the transaction this receipt belongs to.
    pub tx_hash: Hash32,
    /// Execution outcome.
    pub status: TxStatus,
    /// Gas consumed (reverted transactions still burn their gas, as on the
    /// real chain).
    pub gas_used: Gas,
    /// Total fee charged to the sender (zero when fee charging is off).
    pub fee_paid: Wei,
    /// The collection's bonding-curve price observed *before* this
    /// transaction executed (`P^{t-1}` — the price the payer was charged).
    pub price_before: Wei,
    /// The price after execution (`P^t`; differs only for mints and burns).
    pub price_after: Wei,
    /// The event log entries this transaction emitted, in emission order
    /// (empty for reverted transactions).
    pub logs: Vec<LogEntry>,
    /// Bloom filter over [`Receipt::logs`] (the zero bloom when empty).
    pub bloom: Bloom,
}

impl Receipt {
    /// `true` when the transaction executed successfully.
    pub fn is_success(&self) -> bool {
        matches!(self.status, TxStatus::Executed)
    }

    /// The revert reason, if any.
    pub fn revert_reason(&self) -> Option<RevertReason> {
        match self.status {
            TxStatus::Executed => None,
            TxStatus::Reverted(r) => Some(r),
        }
    }

    /// Recomputes the bloom from the carried logs and checks it matches —
    /// the audit-mode receipt invariant.
    pub fn bloom_consistent(&self) -> bool {
        Bloom::of_logs(&self.logs) == self.bloom
    }
}

impl fmt::Display for Receipt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.status {
            TxStatus::Executed => write!(
                f,
                "receipt({}: executed, {}, price {} -> {})",
                self.tx_hash.short(),
                self.gas_used,
                self.price_before,
                self.price_after
            ),
            TxStatus::Reverted(r) => {
                write!(f, "receipt({}: reverted: {r})", self.tx_hash.short())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_helpers() {
        let ok = Receipt {
            tx_hash: Hash32::ZERO,
            status: TxStatus::Executed,
            gas_used: Gas::new(100),
            fee_paid: Wei::ZERO,
            price_before: Wei::from_eth(1),
            price_after: Wei::from_eth(1),
            logs: Vec::new(),
            bloom: Bloom::ZERO,
        };
        assert!(ok.is_success());
        assert!(ok.bloom_consistent());
        assert_eq!(ok.revert_reason(), None);

        let bad = Receipt {
            status: TxStatus::Reverted(RevertReason::SoldOut),
            ..ok.clone()
        };
        assert!(!bad.is_success());
        assert_eq!(bad.revert_reason(), Some(RevertReason::SoldOut));
        assert!(bad.to_string().contains("sold out"));
    }
}
