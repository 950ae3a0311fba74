//! ERC-721 / bonding-curve state invariants (paper Eqs. 1–6 and Eq. 10).
//!
//! [`CollectionFacts`] extracts everything the checks need into a plain
//! value, and [`check_facts`] judges that value with arithmetic re-derived
//! from the paper — it never calls back into `parole-nft`. The split lets
//! the mutation harness perturb extracted facts directly (duplicate owners,
//! inflated ledgers, bent curves) and prove each check fires, something a
//! well-typed `Collection` would never let it construct.
//!
//! [`check_collection`] adds the cross-check that needs the live object
//! (owner/balance index consistency), and [`check_state`] sweeps every
//! collection of an [`L2State`]. Collections keep no event history, so the
//! event check lives on receipt streams instead:
//! [`crate::replay::check_event_replay`].

use parole_nft::Collection;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use std::collections::BTreeMap;
use std::fmt;

/// How many points of the bonding curve are sampled per collection. Every
/// collection in the paper's experiments is far smaller; the cap only guards
/// degenerate configurations.
const CURVE_SAMPLES: u64 = 512;

/// The facts about one collection the pure checks judge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionFacts {
    /// Maximum simultaneously existing tokens (`S^0`).
    pub max_supply: u64,
    /// Price at full availability (`P^0`).
    pub initial_price: Wei,
    /// Quantum prices are floored to.
    pub price_quantum: Wei,
    /// Mintable supply the collection reports (`S^t`).
    pub remaining_supply: u64,
    /// The current price the collection reports (`P^t`).
    pub price: Wei,
    /// `(token, owner)` pairs of active tokens, in token-id order.
    pub active: Vec<(TokenId, Address)>,
    /// Lifetime `(mints, transfers, burns)` counters.
    pub lifetime: (u64, u64, u64),
    /// Sampled `(remaining, price_at_remaining)` curve points, increasing in
    /// `remaining` starting at 1.
    pub curve: Vec<(u64, Wei)>,
}

impl CollectionFacts {
    /// Extracts the facts from a live collection.
    pub fn gather(c: &Collection) -> Self {
        let cfg = c.config();
        let samples = cfg.max_supply.min(CURVE_SAMPLES);
        CollectionFacts {
            max_supply: cfg.max_supply,
            initial_price: cfg.initial_price,
            price_quantum: cfg.price_quantum,
            remaining_supply: c.remaining_supply(),
            price: c.price(),
            active: c.iter().collect(),
            lifetime: c.lifetime_counts(),
            curve: (1..=samples)
                .map(|r| (r, c.price_at_remaining(r)))
                .collect(),
        }
    }
}

/// An ERC-721 / bonding-curve invariant that does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// More active tokens than the supply cap allows (Eq. 1).
    SupplyCapExceeded {
        /// Active token count.
        active: u64,
        /// The cap.
        max_supply: u64,
    },
    /// `active + remaining ≠ max_supply`.
    SupplyAccounting {
        /// Active token count.
        active: u64,
        /// Reported mintable supply.
        remaining: u64,
        /// The cap.
        max_supply: u64,
    },
    /// A token id at or beyond the cap is active.
    TokenOutOfRange(TokenId),
    /// The same token id appears twice in the ownership index.
    DuplicateToken(TokenId),
    /// An active token is owned by the zero address.
    ZeroOwner(TokenId),
    /// `mints − burns ≠ active` (the lifetime ledger went out of balance).
    LifetimeLedger {
        /// Lifetime mints.
        mints: u64,
        /// Lifetime burns.
        burns: u64,
        /// Active token count.
        active: u64,
    },
    /// The reported price disagrees with the Eq. 10 curve.
    PriceMismatch {
        /// Price the curve mandates.
        expected: Wei,
        /// Price reported.
        got: Wei,
    },
    /// A sampled curve point deviates from `P^0 × S^0 / S^t` (quantized).
    CurveNotEq10 {
        /// The remaining supply of the offending sample.
        remaining: u64,
        /// The sampled price.
        got: Wei,
    },
    /// The curve rose with increasing remaining supply (scarcity must make
    /// prices non-increasing in `S^t`).
    CurveNotMonotone {
        /// The remaining supply where the rise was observed.
        remaining: u64,
    },
    /// `balance_of` disagrees with a recount of the ownership index.
    BalanceIndex {
        /// The owner whose balance is inconsistent.
        owner: Address,
        /// Recounted holdings.
        expected: u64,
        /// `balance_of` report.
        got: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::SupplyCapExceeded { active, max_supply } => {
                write!(f, "{active} active tokens exceed cap {max_supply}")
            }
            InvariantViolation::SupplyAccounting {
                active,
                remaining,
                max_supply,
            } => write!(
                f,
                "active {active} + remaining {remaining} != max supply {max_supply}"
            ),
            InvariantViolation::TokenOutOfRange(t) => {
                write!(f, "active token {t} is out of range")
            }
            InvariantViolation::DuplicateToken(t) => {
                write!(f, "token {t} appears twice in the ownership index")
            }
            InvariantViolation::ZeroOwner(t) => {
                write!(f, "token {t} is owned by the zero address")
            }
            InvariantViolation::LifetimeLedger {
                mints,
                burns,
                active,
            } => write!(
                f,
                "lifetime ledger unbalanced: {mints} mints - {burns} burns != {active} active"
            ),
            InvariantViolation::PriceMismatch { expected, got } => {
                write!(f, "price {got} disagrees with curve price {expected}")
            }
            InvariantViolation::CurveNotEq10 { remaining, got } => {
                write!(
                    f,
                    "curve point at remaining {remaining} = {got} violates Eq. 10"
                )
            }
            InvariantViolation::CurveNotMonotone { remaining } => {
                write!(f, "curve rises at remaining {remaining}")
            }
            InvariantViolation::BalanceIndex {
                owner,
                expected,
                got,
            } => write!(
                f,
                "balance_of({owner}) = {got}, ownership index counts {expected}"
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Judges extracted facts with independently re-derived arithmetic.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_facts(facts: &CollectionFacts) -> Result<(), InvariantViolation> {
    let active = facts.active.len() as u64;

    // Eq. 1's supply cap and the `S^t` accounting identity.
    if active > facts.max_supply {
        return Err(InvariantViolation::SupplyCapExceeded {
            active,
            max_supply: facts.max_supply,
        });
    }
    if active + facts.remaining_supply != facts.max_supply {
        return Err(InvariantViolation::SupplyAccounting {
            active,
            remaining: facts.remaining_supply,
            max_supply: facts.max_supply,
        });
    }

    // Unique ownership: ids in range, strictly increasing (no duplicates),
    // no zero owners.
    let mut prev: Option<TokenId> = None;
    for &(token, owner) in &facts.active {
        if token.value() >= facts.max_supply {
            return Err(InvariantViolation::TokenOutOfRange(token));
        }
        if prev.is_some_and(|p| p >= token) {
            return Err(InvariantViolation::DuplicateToken(token));
        }
        if owner.is_zero() {
            return Err(InvariantViolation::ZeroOwner(token));
        }
        prev = Some(token);
    }

    // Lifetime ledger: every active token was minted and not burned.
    let (mints, _, burns) = facts.lifetime;
    if mints < burns || mints - burns != active {
        return Err(InvariantViolation::LifetimeLedger {
            mints,
            burns,
            active,
        });
    }

    // Scarcity monotonicity: price never rises as supply becomes plentiful.
    // Checked before the point-wise Eq. 10 re-derivation so a bent curve is
    // reported as the shape violation it is, not as one bad sample.
    for pair in facts.curve.windows(2) {
        if pair[1].1 > pair[0].1 {
            return Err(InvariantViolation::CurveNotMonotone {
                remaining: pair[1].0,
            });
        }
    }

    // Eq. 10, re-derived: each sampled point must equal
    // `P^0 × S^0 / S^t` floored to the quantum.
    for &(remaining, got) in &facts.curve {
        let raw = facts.initial_price.wei() * facts.max_supply as u128 / remaining as u128;
        let expected = Wei::from_wei(raw).quantize_floor(facts.price_quantum);
        if got != expected {
            return Err(InvariantViolation::CurveNotEq10 { remaining, got });
        }
    }

    // The reported price sits on the curve (sold-out collections report the
    // supremum at `S^t = 1`).
    if let Some(&(_, expected)) = facts
        .curve
        .iter()
        .find(|&&(r, _)| r == facts.remaining_supply.max(1))
    {
        if facts.price != expected {
            return Err(InvariantViolation::PriceMismatch {
                expected,
                got: facts.price,
            });
        }
    }

    Ok(())
}

/// Checks a live collection: extracted facts plus the owner/balance index
/// cross-check.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_collection(c: &Collection) -> Result<(), InvariantViolation> {
    let facts = CollectionFacts::gather(c);
    check_facts(&facts)?;

    // Owner/balance index consistency: `balance_of` must agree with a
    // recount of the ownership index for every holder.
    let mut holdings: BTreeMap<Address, u64> = BTreeMap::new();
    for &(_, owner) in &facts.active {
        *holdings.entry(owner).or_default() += 1;
    }
    for (&owner, &expected) in &holdings {
        let got = c.balance_of(owner);
        if got != expected {
            return Err(InvariantViolation::BalanceIndex {
                owner,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// Sweeps every collection of a state.
///
/// # Errors
///
/// Returns the first offending collection's address with its violation.
pub fn check_state(state: &L2State) -> Result<(), (Address, InvariantViolation)> {
    for (addr, c) in state.collections() {
        check_collection(c).map_err(|v| (addr, v))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn minted() -> Collection {
        let mut c = Collection::new(CollectionConfig::parole_token());
        for i in 0..5 {
            c.mint(addr(i % 2 + 1), TokenId::new(i)).unwrap();
        }
        c
    }

    #[test]
    fn fresh_and_exercised_collections_pass() {
        assert_eq!(
            check_collection(&Collection::new(CollectionConfig::parole_token())),
            Ok(())
        );
        let mut c = minted();
        c.transfer(addr(1), addr(3), TokenId::new(0)).unwrap();
        c.burn(addr(2), TokenId::new(1)).unwrap();
        assert_eq!(check_collection(&c), Ok(()));
    }

    #[test]
    fn state_sweep_passes_on_honest_state() {
        let mut s = L2State::new();
        s.deploy_collection(CollectionConfig::parole_token());
        s.deploy_collection(CollectionConfig::limited_edition("X", 4, 100));
        assert_eq!(check_state(&s), Ok(()));
    }

    #[test]
    fn quantized_and_unquantized_curves_both_satisfy_eq10() {
        let mut cfg = CollectionConfig::limited_edition("Raw", 7, 130);
        cfg.price_quantum = Wei::ZERO;
        assert_eq!(check_collection(&Collection::new(cfg)), Ok(()));
    }
}
