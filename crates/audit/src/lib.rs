//! Runtime invariant auditors and differential oracles for the PAROLE
//! reproduction.
//!
//! Every other crate in the workspace *implements* the protocol; this one
//! *distrusts* it. Each auditor is an independent re-derivation of a rule the
//! system is supposed to uphold, written against raw primitives so that a bug
//! in the production code path cannot silently agree with its own checker:
//!
//! - [`bisection`] — independent adjudication of claimed per-transaction
//!   execution traces: the honest trace is re-derived from scratch and the
//!   first forged step localized twice (brute-force scan and an own binary
//!   search) with a fail-stop cross-check between the two.
//! - [`conservation`] — value and token-ledger conservation around every
//!   [`parole_ovm::Ovm::execute`] call: Wei only moves or burns as fees,
//!   the claimed sender's nonce advances exactly once per processed
//!   transaction, and per-collection mint/transfer/burn counters move in
//!   lockstep with the receipt.
//! - [`invariants`] — the ERC-721 bonding-curve post-conditions of the
//!   paper's Eqs. 1–6 and Eq. 10 checked against any [`parole_state::L2State`]:
//!   supply cap, unique ownership, owner/balance index consistency, lifetime
//!   ledger balance, and a monotone scarcity curve.
//! - [`differential`] — the replay oracle diffing the prefix-cached
//!   incremental executor ([`parole_ovm::PrefixExecutor`]) against naive
//!   fresh execution, receipt by receipt and state root by state root.
//! - [`fee`] — an independent EIP-1559 base-fee recomputation used to audit
//!   the sequencer's fee controller block by block.
//! - [`replay`] — the event-replay oracle: folding a block's receipt log
//!   stream over the pre-block state must reproduce the post-block
//!   ownership, approval, operator and bonding-curve maps exactly, with a
//!   fail-stop on internally inconsistent streams.
//!
//! The auditors are pure functions over snapshots and states; production
//! crates wire them in behind their `audit` cargo feature so the release hot
//! path pays nothing. The crate's own test suite doubles as a *mutation
//! harness*: it re-introduces each historical bug (the at-target fee bump,
//! the reason-dependent nonce skip, linkage-only L1 verification, stale
//! incremental caches, out-of-thin-air credits) and proves the corresponding
//! auditor fires.

#![warn(missing_docs)]

pub mod bisection;
pub mod conservation;
pub mod differential;
pub mod fee;
pub mod invariants;
pub mod replay;

pub use bisection::{BisectionOracle, BisectionViolation, TraceVerdict};
pub use conservation::{
    check_bond_flow, AuditedOvm, CollectionCounts, ConservationViolation, ExecutionSnapshot,
};
pub use differential::{diff_execution, DifferentialOracle, Divergence};
pub use fee::{check_fee_update, expected_base_fee, FeeViolation};
pub use invariants::{
    check_collection, check_facts, check_state, CollectionFacts, InvariantViolation,
};
pub use replay::{
    check_event_replay, replay_events, snapshot_maps, CollectionMaps, EventReplayViolation,
    StateMaps,
};

use std::fmt;

/// Umbrella over every violation the crate can report, for call sites that
/// run several auditors and surface one error channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A claimed execution trace was malformed, or the bisection oracle's
    /// own derivations disagreed (fail-stop).
    Bisection(BisectionViolation),
    /// A conservation law around one execution broke.
    Conservation(ConservationViolation),
    /// An ERC-721 / bonding-curve state invariant broke.
    Invariant(InvariantViolation),
    /// Incremental and naive execution disagreed.
    Differential(Divergence),
    /// A base-fee update deviated from the EIP-1559 rule.
    FeeMarket(FeeViolation),
    /// Replaying a block's receipt event stream over the pre-block state
    /// failed to reproduce the post-block token maps.
    EventReplay(EventReplayViolation),
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::Bisection(v) => write!(f, "bisection audit: {v}"),
            AuditViolation::Conservation(v) => write!(f, "conservation audit: {v}"),
            AuditViolation::Invariant(v) => write!(f, "invariant audit: {v}"),
            AuditViolation::Differential(v) => write!(f, "differential audit: {v}"),
            AuditViolation::FeeMarket(v) => write!(f, "fee-market audit: {v}"),
            AuditViolation::EventReplay(v) => write!(f, "event-replay audit: {v}"),
        }
    }
}

impl std::error::Error for AuditViolation {}

impl From<BisectionViolation> for AuditViolation {
    fn from(v: BisectionViolation) -> Self {
        AuditViolation::Bisection(v)
    }
}

impl From<ConservationViolation> for AuditViolation {
    fn from(v: ConservationViolation) -> Self {
        AuditViolation::Conservation(v)
    }
}

impl From<InvariantViolation> for AuditViolation {
    fn from(v: InvariantViolation) -> Self {
        AuditViolation::Invariant(v)
    }
}

impl From<Divergence> for AuditViolation {
    fn from(v: Divergence) -> Self {
        AuditViolation::Differential(v)
    }
}

impl From<FeeViolation> for AuditViolation {
    fn from(v: FeeViolation) -> Self {
        AuditViolation::FeeMarket(v)
    }
}

impl From<EventReplayViolation> for AuditViolation {
    fn from(v: EventReplayViolation) -> Self {
        AuditViolation::EventReplay(v)
    }
}
