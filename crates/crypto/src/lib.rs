//! # parole-crypto
//!
//! The cryptographic substrate for the PAROLE reproduction, implemented from
//! scratch:
//!
//! - [`keccak256`] — the Keccak-256 hash (pre-NIST padding, as used by
//!   Ethereum), validated against published test vectors, and
//!   [`keccak256_batch`], which digests eight single-block preimages at
//!   once on CPUs with AVX-512F and AVX-512VL;
//! - [`MerkleTree`] — binary Merkle trees with inclusion proofs, used for the
//!   L2 state roots and the aggregators' fraud proofs;
//! - [`CommitTree`] — the same tree kept resident from a chosen derive
//!   depth up and repaired in place (O(log n) point updates, O(Δ·log n)
//!   batches, lower levels re-derived from the owner's records), backing
//!   the incremental state-root cache in `parole-state`;
//! - [`U256`] — 256-bit unsigned integer arithmetic;
//! - [`secp256k1`] — the secp256k1 elliptic curve with ECDSA signing and
//!   verification (deterministic nonces), used to authenticate rollup
//!   transactions;
//! - [`Wallet`] — key management glue deriving Ethereum-style addresses from
//!   public keys.
//!
//! # Example
//!
//! ```
//! use parole_crypto::{keccak256, Wallet};
//!
//! let digest = keccak256(b"PAROLE");
//! let wallet = Wallet::from_seed(42);
//! let sig = wallet.sign(digest.as_bytes());
//! assert!(wallet.public_key().verify(digest.as_bytes(), &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod keccak;
mod merkle;
pub mod secp256k1;
mod u256;
mod wallet;

pub use commit::CommitTree;
pub use keccak::{keccak256, keccak256_batch, keccak256_concat, Keccak256};
pub use merkle::{MerkleProof, MerkleTree};
pub use u256::U256;
pub use wallet::Wallet;

pub use parole_primitives::Hash32;
