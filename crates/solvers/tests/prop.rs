//! Property-based solver soundness: on small windows, no heuristic ever
//! exceeds the exhaustive optimum, and every solver's claimed best balance
//! replays honestly through the OVM.

use parole::{ReorderEnv, RewardConfig};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, TxKind};
use parole_primitives::{Address, TokenId, Wei};
use parole_solvers::{
    ApoptLike, ExhaustiveSolver, HillClimb, MinosLike, RandomSearch, SequenceSolver, SnoptLike,
};
use parole_state::L2State;
use proptest::prelude::*;

/// Builds a randomized but valid 5-tx window around a small economy.
fn window_for(seed: u64) -> ReorderEnv {
    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("S", 10, 300));
    let ifu = Address::from_low_u64(99);
    state.credit(ifu, Wei::from_eth(5));
    for u in 1..=4u64 {
        state.credit(Address::from_low_u64(u), Wei::from_eth(5));
    }
    state.nft_mint(coll, ifu, TokenId::new(0)).unwrap().unwrap();
    state
        .nft_mint(coll, Address::from_low_u64(1), TokenId::new(1))
        .unwrap()
        .unwrap();
    state
        .nft_mint(coll, Address::from_low_u64(2), TokenId::new(2))
        .unwrap()
        .unwrap();
    // Vary the window composition with the seed.
    let burn_actor = 1 + (seed % 2);
    let window = vec![
        NftTransaction::simple(
            ifu,
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(5),
            },
        ),
        NftTransaction::simple(
            Address::from_low_u64(burn_actor),
            TxKind::Burn {
                collection: coll,
                token: TokenId::new(burn_actor),
            },
        ),
        NftTransaction::simple(
            ifu,
            TxKind::Transfer {
                collection: coll,
                token: TokenId::new(0),
                to: Address::from_low_u64(3),
            },
        ),
        NftTransaction::simple(
            Address::from_low_u64(3),
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(6 + seed % 3),
            },
        ),
        NftTransaction::simple(
            Address::from_low_u64(4),
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(9),
            },
        ),
    ];
    ReorderEnv::new(state, window, vec![ifu], RewardConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Heuristics are bounded by the exhaustive optimum and lower-bounded by
    /// the original order; their claimed balances replay honestly.
    #[test]
    fn heuristics_bounded_by_exhaustive(seed in 0u64..50) {
        let env = window_for(seed);
        let optimum = ExhaustiveSolver.solve(&env).best_balance;
        let solvers: Vec<Box<dyn SequenceSolver>> = vec![
            Box::new(RandomSearch { samples: 60, seed }),
            Box::new(ApoptLike),
            Box::new(MinosLike::default()),
            Box::new(SnoptLike { seed, budget_scale: 1.0 }),
            Box::new(HillClimb::default()),
        ];
        for mut solver in solvers {
            let result = solver.solve(&env);
            prop_assert!(
                result.best_balance <= optimum,
                "{} exceeded the exhaustive optimum",
                result.solver
            );
            prop_assert!(result.best_balance >= env.original_balance());
            prop_assert_eq!(
                env.balance_of_order(&result.best_order),
                Some(result.best_balance),
                "{} made a dishonest balance claim",
                result.solver
            );
        }
    }
}
