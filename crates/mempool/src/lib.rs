//! # parole-mempool
//!
//! Bedrock's private mempool and the synthetic fee market that feeds it.
//!
//! In Bedrock (paper §IV-A), pending L2 transactions sit in a *private*
//! mempool; aggregators periodically collect a window of transactions ordered
//! by base + priority fees. The mempool being private is Optimism's MEV
//! mitigation — an aggregator cannot *choose* which transactions it receives.
//! What PAROLE exploits is that the aggregator may still *reorder* the window
//! it was handed.
//!
//! This crate provides:
//!
//! - [`BedrockMempool`] — a lazily-maintained priority index (max-heap on
//!   effective tip with FIFO tie-breaking, parked sub-cap transactions)
//!   with fixed-interval block pacing —
//!   `collect(n)` is O(n log P), not a full-pool sort;
//! - [`WorkloadGenerator`] — generates NFT transaction traffic that is
//!   guaranteed executable in arrival order (the property the paper's
//!   arbitrage assessment assumes of the original sequence), with a
//!   configurable mint/transfer/burn mix and IFU participation.
//!
//! # Example
//!
//! ```
//! use parole_mempool::BedrockMempool;
//! use parole_ovm::{NftTransaction, TxKind};
//! use parole_primitives::{Address, FeeBundle, TokenId, Wei};
//!
//! let mut pool = BedrockMempool::new(Wei::from_gwei(1));
//! let collection = Address::from_low_u64(100);
//! for (tip, sender) in [(1u64, 1u64), (9, 2), (5, 3)] {
//!     pool.submit(NftTransaction::with_fees(
//!         Address::from_low_u64(sender),
//!         TxKind::Mint { collection, token: TokenId::new(sender) },
//!         FeeBundle::from_gwei(30, tip),
//!     ));
//! }
//! let window = pool.collect(2);
//! // Highest tips first: senders 2 then 3.
//! assert_eq!(window[0].sender, Address::from_low_u64(2));
//! assert_eq!(window[1].sender, Address::from_low_u64(3));
//! assert_eq!(pool.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fee_market;
mod pool;
mod sequencer;
mod workload;

pub use fee_market::BaseFeeController;
pub use pool::{BedrockMempool, PoolOpStats};
pub use sequencer::{Screened, ScreeningHook, SealedBlock, Sequencer};
pub use workload::{WorkloadConfig, WorkloadGenerator, ZipfSampler};
