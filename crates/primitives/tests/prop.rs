//! Property-based tests for the primitive value types.

use parole_primitives::{Address, FeeBundle, FlatMap, Gas, PagedVec, Wei, WeiDelta, PAGE_LEN};
use proptest::prelude::*;

/// A deterministic shuffle: sorts by a keyed multiply-xor hash of each key.
fn shuffled(mut keys: Vec<u64>, seed: u64) -> Vec<u64> {
    keys.sort_by_key(|&k| {
        (k ^ seed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    });
    keys
}

/// Keys in one of the orders a bulk load must handle: strictly ascending,
/// shuffled, full of repeats (in draw order, or sorted so every repeat
/// follows its twin), or an ascending run followed by a shuffled tail that
/// reaches back below it and repeats some of it.
fn load_order(kind: u8, raw: Vec<u64>, seed: u64) -> Vec<u64> {
    let mut distinct = raw.clone();
    distinct.sort_unstable();
    distinct.dedup();
    match kind {
        0 => distinct,
        1 => shuffled(distinct, seed),
        2 => raw.iter().map(|k| k % 17).collect(),
        3 => {
            let mut repeats: Vec<u64> = raw.iter().map(|k| k % 97).collect();
            repeats.sort_unstable();
            repeats
        }
        _ => {
            let split = (seed as usize) % (distinct.len() + 1);
            let mut tail = distinct.split_off(split);
            tail.extend(distinct.iter().step_by(3).copied());
            distinct.extend(shuffled(tail, seed));
            distinct
        }
    }
}

proptest! {
    /// Addition then subtraction round-trips.
    #[test]
    fn wei_add_sub_roundtrip(a in 0u128..u64::MAX as u128, b in 0u128..u64::MAX as u128) {
        let wa = Wei::from_wei(a);
        let wb = Wei::from_wei(b);
        prop_assert_eq!((wa + wb) - wb, wa);
    }

    /// `quantize_floor` never increases an amount and is idempotent.
    #[test]
    fn quantize_floor_monotone(a in 0u128..u64::MAX as u128, q in 1u128..1_000_000_000_000u128) {
        let w = Wei::from_wei(a);
        let quantum = Wei::from_wei(q);
        let once = w.quantize_floor(quantum);
        prop_assert!(once <= w);
        prop_assert_eq!(once.quantize_floor(quantum), once);
        // It lands on a multiple of the quantum.
        prop_assert_eq!(once.wei() % q, 0);
    }

    /// The bonding curve is monotone: fewer remaining tokens, higher price.
    #[test]
    fn bonding_curve_monotone(p0 in 1u128..=Wei::from_eth(100).wei(), s0 in 1u64..10_000) {
        let base = Wei::from_wei(p0);
        let mut prev = Wei::ZERO;
        for remaining in (1..=s0).rev() {
            let price = base.mul_ratio(s0, remaining).unwrap();
            prop_assert!(price >= prev, "price dropped as supply shrank");
            prev = price;
        }
    }

    /// Display → parse round-trip for addresses.
    #[test]
    fn address_display_parse(v in any::<u64>()) {
        let a = Address::from_low_u64(v);
        prop_assert_eq!(a.to_string().parse::<Address>().unwrap(), a);
    }

    /// Signed subtraction agrees with unsigned subtraction on the larger side.
    #[test]
    fn signed_sub_consistent(a in 0u128..u64::MAX as u128, b in 0u128..u64::MAX as u128) {
        let wa = Wei::from_wei(a);
        let wb = Wei::from_wei(b);
        let d = wa.signed_sub(wb);
        if a >= b {
            prop_assert_eq!(d.to_wei_amount().unwrap(), wa - wb);
        } else {
            prop_assert!(d.is_loss());
            prop_assert_eq!(d.wei(), -((b - a) as i128));
        }
    }

    /// Effective gas price never exceeds the fee cap and never undercuts the
    /// base fee when includable.
    #[test]
    fn fee_bounds(max_fee in 1u64..10_000, tip in 0u64..10_000, base in 0u64..10_000) {
        let fees = FeeBundle::from_gwei(max_fee, tip);
        let base_fee = Wei::from_gwei(base);
        let price = fees.effective_gas_price(base_fee);
        prop_assert!(price <= fees.max_fee_per_gas);
        if fees.is_includable(base_fee) {
            prop_assert!(price >= base_fee);
        }
    }

    /// Gas utilisation stays in [0, 100] whenever used ≤ limit.
    #[test]
    fn gas_utilisation_bounds(used in 0u64..1_000_000, limit in 1u64..1_000_000) {
        let pct = Gas::new(used.min(limit)).utilisation_pct(Gas::new(limit));
        prop_assert!((0.0..=100.0).contains(&pct));
    }

    /// Delta sum of pairwise differences telescopes to last-minus-first.
    #[test]
    fn delta_telescopes(vals in prop::collection::vec(0u128..u64::MAX as u128, 2..20)) {
        let deltas: WeiDelta = vals
            .windows(2)
            .map(|w| Wei::from_wei(w[1]).signed_sub(Wei::from_wei(w[0])))
            .sum();
        let direct = Wei::from_wei(*vals.last().unwrap())
            .signed_sub(Wei::from_wei(vals[0]));
        prop_assert_eq!(deltas, direct);
    }

    /// The paged vector behaves as a `Vec` under every mutation, starting
    /// within a few elements of a page boundary so pushes and pops cross it,
    /// and a clone taken mid-script keeps reading the contents it was
    /// cloned with however the original changes afterwards: writes copy
    /// shared pages rather than writing through them.
    #[test]
    fn paged_vec_matches_vec_and_clones_keep_their_snapshot(
        pages in 0usize..4,
        offset in 0usize..6,
        ops in prop::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 0..300),
    ) {
        let init = (pages * PAGE_LEN + offset).saturating_sub(3);
        let mut model: Vec<u32> = (0..init as u32).collect();
        let mut paged: PagedVec<u32> = model.iter().copied().collect();
        let mut snapshots: Vec<(PagedVec<u32>, Vec<u32>)> = Vec::new();
        for (op, a, b) in ops {
            let len = model.len();
            let at = a as usize % len.max(1);
            match op {
                0 => {
                    model.push(b);
                    paged.push(b);
                }
                1 => prop_assert_eq!(paged.pop(), model.pop()),
                2 if len > 0 => prop_assert_eq!(paged.swap_remove(at), model.swap_remove(at)),
                3 => {
                    let at = a as usize % (len + 1);
                    model.insert(at, b);
                    paged.insert(at, b);
                }
                4 if len > 0 => prop_assert_eq!(paged.remove(at), model.remove(at)),
                5 if len > 0 => {
                    model[at] = b;
                    paged[at] = b;
                }
                6 => snapshots.push((paged.clone(), model.clone())),
                7 => {
                    let keep = len - (a as usize % 4).min(len);
                    model.truncate(keep);
                    paged.truncate(keep);
                }
                _ => {}
            }
            prop_assert_eq!(paged.len(), model.len());
        }
        prop_assert_eq!(paged.to_vec(), model.clone());
        prop_assert!(paged.get(model.len()).is_none());
        for (snapshot, contents) in &snapshots {
            prop_assert_eq!(&snapshot.to_vec(), contents);
        }
    }

    /// The bulk load (`FromIterator`) builds the same map as inserting each
    /// pair in turn into `FlatMap::new()`, the last value winning for a
    /// repeated key, whatever order the keys arrive in; and `sorted_keys`
    /// lists the keys of `iter_sorted`. Sizes reach past two pages so the
    /// ascending run seals pages before any key arrives out of order.
    #[test]
    fn bulk_load_equals_one_insert_at_a_time(
        kind in 0u8..5,
        raw in prop::collection::vec(0u64..1 << 40, 0..2_600),
        seed in any::<u64>(),
    ) {
        let pairs: Vec<(u64, u64)> = load_order(kind, raw, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u64))
            .collect();
        let loaded: FlatMap<u64, u64> = pairs.iter().copied().collect();
        let mut inserted = FlatMap::new();
        for &(k, v) in &pairs {
            inserted.insert(k, v);
        }
        prop_assert_eq!(loaded.len(), inserted.len());
        for &(k, _) in &pairs {
            prop_assert_eq!(loaded.get(&k), inserted.get(&k));
        }
        let sorted: Vec<(u64, u64)> = loaded.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = inserted.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(&sorted, &want);
        prop_assert!(loaded == inserted);
        let keys: Vec<u64> = sorted.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(loaded.sorted_keys().to_vec(), keys.clone());
        prop_assert_eq!(inserted.sorted_keys().to_vec(), keys);
    }
}
