//! Property-based tests for the limited-edition ERC-721 state machine.

use parole_nft::{Collection, CollectionConfig, NftError, OpEvents};
use parole_primitives::{Address, TokenId, Wei};
use proptest::prelude::*;

/// A random contract-level operation for the state machine to attempt.
#[derive(Debug, Clone)]
enum Op {
    Mint { to: u64, token: u64 },
    Transfer { from: u64, to: u64, token: u64 },
    Burn { owner: u64, token: u64 },
}

fn arb_op(max_supply: u64, users: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..users, 0..max_supply).prop_map(|(to, token)| Op::Mint { to, token }),
        (0..users, 0..users, 0..max_supply).prop_map(|(from, to, token)| Op::Transfer {
            from,
            to,
            token
        }),
        (0..users, 0..max_supply).prop_map(|(owner, token)| Op::Burn { owner, token }),
    ]
}

proptest! {
    /// Whatever sequence of (possibly invalid) operations is attempted, the
    /// collection invariants hold: active+remaining == max, price matches the
    /// bonding curve, failed operations leave state untouched.
    #[test]
    fn invariants_under_random_ops(
        ops in prop::collection::vec(arb_op(8, 5), 1..120),
    ) {
        let config = CollectionConfig::limited_edition("Prop", 8, 100);
        let mut c = Collection::new(config);
        for op in ops {
            let before = c.clone();
            let result: Result<OpEvents, NftError> = match op {
                Op::Mint { to, token } => {
                    c.mint(Address::from_low_u64(to + 1), TokenId::new(token))
                }
                Op::Transfer { from, to, token } => c.transfer(
                    Address::from_low_u64(from + 1),
                    Address::from_low_u64(to + 1),
                    TokenId::new(token),
                ),
                Op::Burn { owner, token } => {
                    c.burn(Address::from_low_u64(owner + 1), TokenId::new(token))
                }
            };
            if result.is_err() {
                prop_assert_eq!(&before, &c, "failed op mutated state");
            }
            // Supply conservation.
            prop_assert_eq!(c.active_supply() + c.remaining_supply(), 8);
            // Price follows the curve.
            prop_assert_eq!(c.price(), c.price_at_remaining(c.remaining_supply()));
            // Ownership count equals sum of balances.
            let users: Vec<Address> = (1..=5).map(Address::from_low_u64).collect();
            let total: u64 = users.iter().map(|&u| c.balance_of(u)).sum();
            prop_assert_eq!(total, c.active_supply());
        }
    }

    /// The bonding curve is strictly decreasing in remaining supply
    /// (before quantization ties): more scarcity, higher or equal price.
    #[test]
    fn price_monotone_in_scarcity(max_supply in 2u64..200, p0 in 1u64..10_000) {
        let config = CollectionConfig::limited_edition("Mono", max_supply, p0);
        let c = Collection::new(config);
        let mut last = Wei::ZERO;
        for remaining in (1..=max_supply).rev() {
            let price = c.price_at_remaining(remaining);
            prop_assert!(price >= last);
            last = price;
        }
    }

    /// Mint then burn of the same token restores supply and price exactly.
    #[test]
    fn mint_burn_restores_price(premint in 0u64..7) {
        let config = CollectionConfig::limited_edition("Rt", 8, 150);
        let mut c = Collection::new(config);
        let owner = Address::from_low_u64(1);
        for i in 0..premint {
            c.mint(owner, TokenId::new(i)).unwrap();
        }
        let price_before = c.price();
        let supply_before = c.remaining_supply();
        c.mint(owner, TokenId::new(premint)).unwrap();
        c.burn(owner, TokenId::new(premint)).unwrap();
        prop_assert_eq!(c.price(), price_before);
        prop_assert_eq!(c.remaining_supply(), supply_before);
    }
}
