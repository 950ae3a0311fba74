//! # parole-ovm
//!
//! The Optimistic Virtual Machine: the execution engine that applies NFT
//! transaction sequences to an [`parole_state::L2State`].
//!
//! The paper's GENTRANSEQ module "executes each candidate solution using an
//! optimistic virtual machine (OVM) and observes the balance update of the
//! IFU" (§IV-B) — this crate is that OVM. It implements:
//!
//! - the three NFT transaction types ([`TxKind::Mint`], [`TxKind::Transfer`],
//!   [`TxKind::Burn`]) with the full constraint semantics of the paper's
//!   Eq. 1–6 (contract-level ownership/supply checks *and* balance checks),
//!   plus the ERC-721 approval operations ([`TxKind::Approve`],
//!   [`TxKind::SetApprovalForAll`]);
//! - chain-level observability: every [`Receipt`] carries the ordered
//!   [`LogEntry`] slice its operation emitted and a 2048-bit [`Bloom`]
//!   over it, queryable through [`LogFilter`] (see `crate::logs`);
//! - revert semantics: a transaction whose constraints fail is skipped with a
//!   [`Receipt`] recording the reason, leaving state untouched;
//! - a calibrated [`GasSchedule`] reproducing the shape of the paper's
//!   Table III (mint is the heaviest and highest-utilisation operation);
//! - speculative execution: [`Ovm::simulate_sequence`] forks the state,
//!   executes, and reports the outcome without committing.
//!
//! # Example
//!
//! ```
//! use parole_ovm::{Ovm, NftTransaction, TxKind};
//! use parole_state::L2State;
//! use parole_nft::CollectionConfig;
//! use parole_primitives::{Address, TokenId, Wei};
//!
//! let mut state = L2State::new();
//! let pt = state.deploy_collection(CollectionConfig::parole_token());
//! let alice = Address::from_low_u64(1);
//! state.credit(alice, Wei::from_eth(1));
//!
//! let ovm = Ovm::new();
//! let tx = NftTransaction::simple(alice, TxKind::Mint { collection: pt, token: TokenId::new(0) });
//! let receipt = ovm.execute(&mut state, &tx);
//! assert!(receipt.is_success());
//! assert_eq!(state.balance_of(alice), Wei::from_milli_eth(800)); // paid 0.2 ETH
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod gas;
mod logs;
mod opspec;
mod prefix;
mod receipt;
mod tx;

pub use executor::{Ovm, OvmConfig};
pub use gas::GasSchedule;
pub use logs::{
    BlockLogs, Bloom, EventKind, LogEntry, LogFilter, LogHit, LogIndex, ReceiptLogs, BLOOM_BYTES,
};
pub use opspec::{LedgerDelta, OpSpec, WireField};
pub use prefix::{PrefixExecutor, PrefixStats};
pub use receipt::{Receipt, RevertReason, TxStatus};
pub use tx::{NftTransaction, TxAuth, TxKind};
