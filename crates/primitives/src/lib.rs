//! # parole-primitives
//!
//! Foundation value types shared by every crate in the PAROLE reproduction:
//! fixed-point ether amounts ([`Wei`]), signed deltas ([`WeiDelta`]),
//! account addresses ([`Address`]), token identifiers ([`TokenId`]),
//! 32-byte hashes ([`Hash32`]), gas quantities ([`Gas`]), fee bundles
//! ([`FeeBundle`]), and the copy-on-write storage the world state is built
//! on ([`PagedVec`] under [`FlatMap`]).
//!
//! All arithmetic is integer fixed-point (1 ETH = 10^18 wei) so that the
//! simulated economics are exact and deterministic. The paper's case studies
//! (Fig. 5) quote prices truncated to two decimal places of ETH; the
//! [`Wei::quantize_floor`] helper reproduces that truncation so the case-study
//! tables can be matched digit for digit.
//!
//! # Example
//!
//! ```
//! use parole_primitives::{Wei, Address};
//!
//! let price = Wei::from_milli_eth(400); // 0.4 ETH
//! let balance = Wei::from_eth(2) - price;
//! assert_eq!(balance, Wei::from_milli_eth(1600));
//! let ifu = Address::from_low_u64(42);
//! assert!(ifu.to_string().starts_with("0x"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod fees;
mod flat;
mod gas;
mod hash;
mod ids;
mod paged;
mod wei;

pub use address::Address;
pub use fees::{FeeBundle, FeeMarketTier};
pub use flat::{FlatKey, FlatMap, SortedIter, StorageBackend};
pub use gas::Gas;
pub use hash::Hash32;
pub use ids::{AggregatorId, BlockNumber, TokenId, TxNonce, VerifierId};
pub use paged::{PagedVec, PAGE_LEN};
pub use wei::{Wei, WeiDelta, WEI_PER_ETH, WEI_PER_GWEI};

/// Errors produced by arithmetic on primitive value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveError {
    /// An addition or multiplication exceeded the representable range.
    Overflow,
    /// A subtraction would have produced a negative unsigned amount.
    Underflow,
    /// Division by zero (e.g. a price computed against zero remaining supply).
    DivisionByZero,
}

impl core::fmt::Display for PrimitiveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PrimitiveError::Overflow => write!(f, "arithmetic overflow"),
            PrimitiveError::Underflow => write!(f, "arithmetic underflow"),
            PrimitiveError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for PrimitiveError {}
