//! # parole-state
//!
//! The L2 world state of the optimistic rollup: account balances, deployed
//! limited-edition ERC-721 collections, and the Merkle state root the
//! aggregators commit to as part of their fraud proof (paper §II-A, §V-A).
//!
//! [`L2State`] is a plain value type — cloning it is the speculative-execution
//! primitive, and a cheap one: its tables and commitment cache are stored in
//! copy-on-write pages, so a clone copies page pointers and each side's
//! writes copy only the pages they touch. The GENTRANSEQ module's DQN
//! environment forks the state once per window, evaluates candidate
//! orderings on the fork (rolling back through the undo journal between
//! candidates), reads the IFU's final balance, and discards the fork;
//! nothing ever mutates the canonical state until the adversarial
//! aggregator commits the chosen order.
//!
//! # Example
//!
//! ```
//! use parole_state::L2State;
//! use parole_nft::CollectionConfig;
//! use parole_primitives::{Address, Wei};
//!
//! let mut state = L2State::new();
//! let user = Address::from_low_u64(1);
//! state.credit(user, Wei::from_eth(2));
//! let pt = state.deploy_collection(CollectionConfig::parole_token());
//! assert_eq!(state.balance_of(user), Wei::from_eth(2));
//! assert!(state.collection(pt).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account;
mod commit;
mod journal;
mod proofs;
mod tables;
mod world;

pub use account::AccountState;
pub use commit::CollectionHeader;
pub use journal::{Checkpoint, RecordKey};
pub use proofs::{
    AccountInclusionProof, CollectionInclusionProof, RecordProof, TokenInclusionProof,
};
pub use world::{L2State, StateError};
