//! # parole-nft
//!
//! A from-scratch model of the limited-edition ERC-721 token at the heart of
//! the PAROLE attack (the paper's "PAROLE Token", PT).
//!
//! A [`Collection`] owns the full ERC-721 state machine: token ownership,
//! approvals, the mint / transfer / burn operations with the constraint
//! semantics of the paper's Eq. 1–6 (each returning the [`Erc721Event`]s it
//! emitted), and the scarcity bonding curve of Eq. 10:
//!
//! ```text
//! P^t = S^0 / S^t × P^0
//! ```
//!
//! where `S^t` is the number of tokens still mintable after the `t`-th
//! transaction — so minting raises the price and burning lowers it, which is
//! exactly the non-linearity the GENTRANSEQ module exploits.
//!
//! Account *balances* are deliberately not stored here: the "buyer can afford
//! the price" half of the constraints (Eq. 1 and 3) is enforced by the OVM,
//! which owns the L2 balance ledger. This crate enforces everything the NFT
//! contract itself can see: ownership, supply and identifiers.
//!
//! # Example
//!
//! ```
//! use parole_nft::{Collection, CollectionConfig};
//! use parole_primitives::{Address, TokenId, Wei};
//!
//! let mut pt = Collection::new(CollectionConfig::parole_token());
//! assert_eq!(pt.price(), Wei::from_milli_eth(200)); // P^0 = 0.2 ETH
//! let alice = Address::from_low_u64(1);
//! pt.mint(alice, TokenId::new(0))?;
//! assert_eq!(pt.price(), Wei::from_milli_eth(220)); // 10/9 × 0.2, floored
//! # Ok::<(), parole_nft::NftError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collection;
mod error;
mod event;
mod token_table;

pub use collection::{
    Collection, CollectionConfig, CollectionUndo, Listing, OperatorUndo, ROYALTY_BPS_DENOM,
};
pub use error::NftError;
pub use event::{Erc721Event, OpEvents};
pub use token_table::{TokenRec, TokenTable};
