//! Transaction featurization and the swap-action index space.
//!
//! The GENTRANSEQ DQN observes the current transaction sequence as a flat
//! vector of [`FEATURES_PER_TX`] numbers per transaction (paper Fig. 4: each
//! transaction becomes an eight-element tensor; the 2-D tensor is flattened
//! into the `8·N`-wide input layer), and acts by naming one of the `C(N,2)`
//! unordered position pairs to swap.

use parole_ovm::{NftTransaction, Receipt};
use parole_primitives::{Address, Wei};

/// Features encoded per transaction (the paper's "eight-element tensor").
pub const FEATURES_PER_TX: usize = 8;

/// Number of swap actions for a window of `n` transactions: `C(n, 2)`.
pub const fn pair_count(n: usize) -> usize {
    n * (n.saturating_sub(1)) / 2
}

/// Maps an unordered position pair `(i, j)` with `i < j < n` to its action
/// index in `[0, C(n,2))`, enumerating pairs lexicographically:
/// `(0,1), (0,2), …, (0,n−1), (1,2), …`.
///
/// # Panics
///
/// Panics when `i ≥ j` or `j ≥ n`.
pub fn pair_to_index(i: usize, j: usize, n: usize) -> usize {
    assert!(i < j && j < n, "need i < j < n, got ({i}, {j}) with n={n}");
    // Pairs starting below i: sum_{k<i} (n-1-k).
    let before: usize = (0..i).map(|k| n - 1 - k).sum();
    before + (j - i - 1)
}

/// Inverse of [`pair_to_index`].
///
/// # Panics
///
/// Panics when `index ≥ C(n,2)`.
pub fn pair_from_index(index: usize, n: usize) -> (usize, usize) {
    assert!(
        index < pair_count(n),
        "action index {index} out of range for n={n}"
    );
    let mut remaining = index;
    for i in 0..n {
        let row = n - 1 - i;
        if remaining < row {
            return (i, i + 1 + remaining);
        }
        remaining -= row;
    }
    unreachable!("index was range-checked");
}

/// What a transaction's features read of its execution at its slot in the
/// *current* candidate ordering: two fields of its receipt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotOutcome {
    /// Bonding-curve price observed before it executed.
    pub price_before: Wei,
    /// Whether it executed successfully.
    pub success: bool,
}

impl SlotOutcome {
    /// The two fields of `receipt` the features read.
    pub fn of(receipt: &Receipt) -> Self {
        SlotOutcome {
            price_before: receipt.price_before,
            success: receipt.is_success(),
        }
    }
}

/// Encodes one transaction (with its execution outcome in the *current*
/// candidate ordering) into its feature vector.
///
/// Features, in order:
/// - 1: IFU involvement flag,
/// - 2–4: one-hot transaction type (mint / transfer / burn),
/// - 5: bonding-curve price observed at its execution slot (ETH),
/// - 6: remaining mintable supply after it executed (scaled),
/// - 7: whether it executed successfully in the current order,
/// - 8: its normalized position in the sequence.
pub fn encode_tx(
    tx: &NftTransaction,
    outcome: SlotOutcome,
    supply_after: u64,
    max_supply: u64,
    position: usize,
    n: usize,
    ifus: &[Address],
) -> [f64; FEATURES_PER_TX] {
    let involved = ifus.iter().any(|&u| tx.involves(u));
    // One-hot from the kind's OpSpec ledger delta: a marketplace buy is an
    // ownership move and lights the transfer lane; approvals and
    // listing-book edits are none of the three moves (all-zero one-hot).
    let ledger = tx.kind.spec().ledger;
    let is_mint = (ledger.mints > 0) as u8 as f64;
    let is_transfer = (ledger.transfers > 0) as u8 as f64;
    let is_burn = (ledger.burns > 0) as u8 as f64;
    [
        involved as u8 as f64,
        is_mint,
        is_transfer,
        is_burn,
        outcome.price_before.eth_f64(),
        if max_supply == 0 {
            0.0
        } else {
            supply_after as f64 / max_supply as f64
        },
        outcome.success as u8 as f64,
        if n <= 1 {
            0.0
        } else {
            position as f64 / (n - 1) as f64
        },
    ]
}

/// Convenience: the price feature scale used when normalizing observations.
pub fn price_scale(initial_price: Wei, max_supply: u64) -> f64 {
    (initial_price.eth_f64() * max_supply as f64).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_count_matches_formula() {
        assert_eq!(pair_count(0), 0);
        assert_eq!(pair_count(1), 0);
        assert_eq!(pair_count(2), 1);
        assert_eq!(pair_count(8), 28);
        assert_eq!(pair_count(100), 4950);
    }

    #[test]
    fn pair_index_roundtrip() {
        for n in [2usize, 3, 8, 25, 50] {
            for idx in 0..pair_count(n) {
                let (i, j) = pair_from_index(idx, n);
                assert!(i < j && j < n);
                assert_eq!(pair_to_index(i, j, n), idx, "n={n} idx={idx}");
            }
        }
    }

    #[test]
    fn lexicographic_enumeration() {
        assert_eq!(pair_from_index(0, 4), (0, 1));
        assert_eq!(pair_from_index(1, 4), (0, 2));
        assert_eq!(pair_from_index(2, 4), (0, 3));
        assert_eq!(pair_from_index(3, 4), (1, 2));
        assert_eq!(pair_from_index(5, 4), (2, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pair_from_index_range_checked() {
        let _ = pair_from_index(6, 4);
    }

    #[test]
    #[should_panic(expected = "need i < j < n")]
    fn pair_to_index_validates() {
        let _ = pair_to_index(2, 2, 4);
    }
}
