//! # parole
//!
//! The PAROLE attack (Khalil & Rahman, DSN 2024): profitable arbitrage in an
//! optimistic rollup by adversarially re-ordering limited-edition ERC-721
//! transactions.
//!
//! An adversarial aggregator colludes with an *illicitly favored user* (IFU).
//! When the aggregator collects its fee-ordered window from Bedrock's private
//! mempool, the [`ParoleModule`] first checks whether the window offers an
//! arbitrage opportunity for the IFU ([`assess()`]); if so, the
//! [`GentranseqModule`] — a deep-Q-network agent over the swap-two-
//! transactions MDP ([`ReorderEnv`]) — searches for the ordering that
//! maximizes the IFU's final balance. The aggregator executes that order;
//! because every transaction is still executed *honestly*, the resulting
//! batch carries a perfectly valid fraud proof and no verifier can object.
//!
//! The crate also contains:
//!
//! - [`casestudy`] — the paper's three worked case studies (Fig. 5),
//!   reproduced against the real OVM;
//! - [`fleet`] — the multi-aggregator simulation behind Fig. 6 and Fig. 7;
//! - [`defense`] — the §VIII counter-measure: running GENTRANSEQ inside the
//!   mempool as a worst-case arbitrage detector and deferring the minimal
//!   set of transactions.
//!
//! # Example
//!
//! ```
//! use parole::casestudy::CaseStudy;
//!
//! let cs = CaseStudy::paper_setup();
//! let original = cs.evaluate(&cs.original_order());
//! let optimal = cs.evaluate(&cs.optimal_order());
//! assert!(optimal.final_total_balance > original.final_total_balance);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assess;
pub mod casestudy;
pub mod defense;
pub mod encode;
pub mod fleet;
pub mod gentranseq;
pub mod mdp;
mod module;
mod strategy;

pub use assess::{assess, ArbitrageAssessment};
pub use encode::{pair_count, pair_from_index, pair_to_index, FEATURES_PER_TX};
pub use gentranseq::{GentranseqModule, GentranseqOutcome};
pub use mdp::{ActionSpace, ReorderEnv, RewardConfig};
pub use module::ParoleModule;
pub use strategy::ParoleStrategy;
