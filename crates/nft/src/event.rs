//! ERC-721 events and the per-operation event list.

use parole_primitives::{Address, TokenId, Wei};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// An event a collection operation emits. Collections keep no event
/// history: each operation returns its events ([`OpEvents`]) and the OVM
/// records them in the transaction's receipt.
///
/// Mirrors the ERC-721 standard events (`Transfer`, `Approval`) with the
/// convention that mints are transfers *from* the zero address and burns are
/// transfers *to* it. [`Erc721Event::PriceChanged`] is an extension event the
/// limited-edition contract emits whenever the bonding curve moves — the
/// snapshot analyzer (Fig. 10) consumes these to find arbitrage windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Erc721Event {
    /// Ownership of `token` moved from `from` to `to`.
    Transfer {
        /// Previous owner ([`Address::ZERO`] for mints).
        from: Address,
        /// New owner ([`Address::ZERO`] for burns).
        to: Address,
        /// The token that moved.
        token: TokenId,
    },
    /// `owner` approved `approved` to move `token`.
    Approval {
        /// The token owner granting approval.
        owner: Address,
        /// The approved operator ([`Address::ZERO`] clears approval).
        approved: Address,
        /// The token in question.
        token: TokenId,
    },
    /// `owner` granted or revoked `operator`'s right to move *any* of the
    /// owner's tokens in this collection (ERC-721 `setApprovalForAll`).
    ApprovalForAll {
        /// The owner granting or revoking blanket approval.
        owner: Address,
        /// The operator the grant applies to.
        operator: Address,
        /// `true` grants, `false` revokes.
        approved: bool,
    },
    /// The bonding-curve price moved after a mint or burn.
    PriceChanged {
        /// Price before the operation.
        old_price: Wei,
        /// Price after the operation.
        new_price: Wei,
        /// Tokens still mintable after the operation (`S^t`).
        remaining_supply: u64,
    },
    /// `seller` listed `token` for secondary sale at `price`.
    Listed {
        /// The owner creating the listing.
        seller: Address,
        /// The listed token.
        token: TokenId,
        /// The asking price.
        price: Wei,
    },
    /// `seller` withdrew the listing for `token` before it sold.
    ListingCancelled {
        /// The owner cancelling (the current owner, which may differ from
        /// the original lister if the listing went stale).
        seller: Address,
        /// The delisted token.
        token: TokenId,
    },
    /// A listed `token` sold: ownership moved from `seller` to `buyer`,
    /// `price − royalty` wei went to the seller and `royalty` wei to the
    /// collection creator. The sale *is* the ownership move — no separate
    /// `Transfer` event is emitted, and any per-token approval clears.
    Sold {
        /// The owner the sale settled against.
        seller: Address,
        /// The new owner.
        buyer: Address,
        /// The token that sold.
        token: TokenId,
        /// The full sale price the buyer paid.
        price: Wei,
        /// The creator-royalty slice of `price`.
        royalty: Wei,
    },
}

impl Erc721Event {
    /// `true` for a `Transfer` event that represents a mint.
    pub fn is_mint(&self) -> bool {
        matches!(self, Erc721Event::Transfer { from, .. } if from.is_zero())
    }

    /// `true` for a `Transfer` event that represents a burn.
    pub fn is_burn(&self) -> bool {
        matches!(self, Erc721Event::Transfer { to, .. } if to.is_zero())
    }
}

/// The events one successful collection operation emitted, in emission
/// order; dereferences to `[Erc721Event]`.
///
/// An operation emits at most two events: its ERC-721 event, then a
/// [`Erc721Event::PriceChanged`] when a mint or burn moved the curve. They
/// are held inline, so returning them costs no heap allocation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OpEvents {
    /// Slot 1 repeats slot 0 until a second event is pushed, so the derived
    /// equality compares exactly the held events.
    buf: [Erc721Event; 2],
    len: u8,
}

impl OpEvents {
    /// A list holding just `event`.
    pub(crate) fn one(event: Erc721Event) -> Self {
        OpEvents {
            buf: [event; 2],
            len: 1,
        }
    }

    /// Appends the second event.
    pub(crate) fn push(&mut self, event: Erc721Event) {
        assert!(self.len < 2, "an operation emits at most two events");
        self.buf[self.len as usize] = event;
        self.len += 1;
    }
}

impl Deref for OpEvents {
    type Target = [Erc721Event];

    fn deref(&self) -> &[Erc721Event] {
        &self.buf[..self.len as usize]
    }
}

impl fmt::Debug for OpEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for Erc721Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Erc721Event::Transfer { from, to, token } if from.is_zero() => {
                write!(f, "Mint({token} -> {to})")
            }
            Erc721Event::Transfer { from, to, token } if to.is_zero() => {
                write!(f, "Burn({token} from {from})")
            }
            Erc721Event::Transfer { from, to, token } => {
                write!(f, "Transfer({token}: {from} -> {to})")
            }
            Erc721Event::Approval {
                owner,
                approved,
                token,
            } => {
                write!(f, "Approval({token}: {owner} approves {approved})")
            }
            Erc721Event::ApprovalForAll {
                owner,
                operator,
                approved,
            } => {
                let verb = if *approved { "grants" } else { "revokes" };
                write!(f, "ApprovalForAll({owner} {verb} {operator})")
            }
            Erc721Event::PriceChanged {
                old_price,
                new_price,
                remaining_supply,
            } => {
                write!(
                    f,
                    "PriceChanged({old_price} -> {new_price}, S={remaining_supply})"
                )
            }
            Erc721Event::Listed {
                seller,
                token,
                price,
            } => {
                write!(f, "Listed({token} by {seller} at {price})")
            }
            Erc721Event::ListingCancelled { seller, token } => {
                write!(f, "ListingCancelled({token} by {seller})")
            }
            Erc721Event::Sold {
                seller,
                buyer,
                token,
                price,
                royalty,
            } => {
                write!(
                    f,
                    "Sold({token}: {seller} -> {buyer} at {price}, royalty {royalty})"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_burn_classification() {
        let mint = Erc721Event::Transfer {
            from: Address::ZERO,
            to: Address::from_low_u64(1),
            token: TokenId::new(0),
        };
        assert!(mint.is_mint());
        assert!(!mint.is_burn());
        assert_eq!(
            mint.to_string(),
            "Mint(token#0 -> 0x0000000000000000000000000000000000000001)"
        );

        let burn = Erc721Event::Transfer {
            from: Address::from_low_u64(1),
            to: Address::ZERO,
            token: TokenId::new(0),
        };
        assert!(burn.is_burn());
        assert!(!burn.is_mint());
    }

    #[test]
    fn plain_transfer_is_neither() {
        let t = Erc721Event::Transfer {
            from: Address::from_low_u64(1),
            to: Address::from_low_u64(2),
            token: TokenId::new(3),
        };
        assert!(!t.is_mint() && !t.is_burn());
    }
}
