//! # parole-rollup
//!
//! The optimistic rollup protocol substrate (paper §II-A and §V-A): the L1
//! smart contract (ORSC), the simulated L1 chain, transaction batches with
//! Merkle fraud proofs, aggregators with pluggable ordering strategies, and
//! verifiers playing the challenge game.
//!
//! The protocol pipeline is:
//!
//! 1. users **deposit** ETH into the [`RollupContract`] on L1 and receive
//!    `t^L2` tokens;
//! 2. their NFT transactions flow into Bedrock's private mempool
//!    (`parole-mempool`);
//! 3. an [`Aggregator`] collects a fee-ordered window, orders it with its
//!    [`OrderingStrategy`] (honest aggregators keep the fee order; the
//!    PAROLE adversary substitutes the GENTRANSEQ order), executes it on the
//!    OVM and submits a [`Batch`] with pre/post state roots as fraud proof;
//! 4. [`Verifier`]s re-execute pending batches during the challenge period;
//!    a successful challenge slashes the aggregator's bond, a frivolous one
//!    slashes the verifier's;
//! 5. unchallenged batches **finalize** — the post-state the contract
//!    computed at submission becomes the finalized L2 state — and are
//!    recorded on the [`L1Chain`].
//!
//! The crucial protocol fact the attack rests on (paper §IV-A): a batch whose
//! transactions were *reordered but honestly executed* produces a perfectly
//! valid fraud proof — verifiers cannot distinguish PAROLE batches from
//! honest ones, which the `fraud_proof_game` tests demonstrate.
//!
//! # Example
//!
//! ```
//! use parole_rollup::{RollupContract, RollupConfig};
//! use parole_primitives::{Address, Wei};
//!
//! let mut rollup = RollupContract::new(RollupConfig::default());
//! let user = Address::from_low_u64(1);
//! rollup.deposit(user, Wei::from_eth(2));
//! assert_eq!(rollup.l2_state().balance_of(user), Wei::from_eth(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod bisection;
pub mod calldata;
mod contract;
mod l1;
mod participants;

pub use batch::{Batch, BatchId, StateCommitment};
pub use bisection::{
    bisect, settle_step, BisectionResult, ChallengerSide, DefenderSide, DisputedStep,
    ExecutionTrace, SettlementVerdict, StepDefense, TracedExecution,
};
pub use contract::{
    ChallengeOutcome, InteractiveChallenge, RollupConfig, RollupContract, RollupError,
};
pub use l1::{L1Block, L1Chain};
pub use participants::{Aggregator, FeePriorityStrategy, OrderingStrategy, Verifier};
