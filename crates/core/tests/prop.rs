//! Property-based tests of the attack machinery: the re-ordering MDP, the
//! GENTRANSEQ contract, and order-independence facts the attack rests on.

use parole::encode::{pair_count, pair_from_index, pair_to_index};
use parole::{assess, GentranseqModule, ReorderEnv, RewardConfig};
use parole_drl::Environment;
use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm};
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use proptest::prelude::*;

/// Builds a small funded economy plus an executable window of `n` txs.
fn economy_with_window(n: usize, seed: u64) -> (L2State, Vec<NftTransaction>, Address) {
    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("P", 24, 400));
    let users: Vec<Address> = (1..=8).map(Address::from_low_u64).collect();
    for &u in &users {
        state.credit(u, Wei::from_eth(30));
    }
    let ifu = Address::from_low_u64(999);
    state.credit(ifu, Wei::from_eth(30));
    state.nft_mint(coll, ifu, TokenId::new(0)).unwrap().unwrap();
    state.nft_mint(coll, ifu, TokenId::new(1)).unwrap().unwrap();
    for i in 2..6 {
        state
            .nft_mint(coll, users[i as usize % 8], TokenId::new(i))
            .unwrap()
            .unwrap();
    }
    let mut generator = WorkloadGenerator::new(
        seed,
        WorkloadConfig {
            ifu_participation: 0.3,
            ..WorkloadConfig::default()
        },
    );
    let window = generator.generate(&state, coll, &users, &[ifu], n);
    (state, window, ifu)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The final bonding-curve price is order-independent: the multiset of
    /// mints and burns fixes the final supply no matter how the aggregator
    /// permutes the window (as long as everything still executes). This is
    /// why PAROLE profit comes entirely from the IFU's L2 flows.
    #[test]
    fn final_price_is_order_independent(seed in 0u64..40, rot in 1usize..6) {
        let (state, window, _) = economy_with_window(8, seed);
        prop_assume!(window.len() >= 4);
        let ovm = Ovm::new();
        let coll_addr = window[0].kind.collection();
        let (r1, s1) = ovm.simulate_sequence(&state, &window);
        let mut rotated = window.clone();
        rotated.rotate_left(rot.min(window.len() - 1));
        let (r2, s2) = ovm.simulate_sequence(&state, &rotated);
        // Only compare when the rotation kept everything executable.
        prop_assume!(r1.iter().all(|r| r.is_success()));
        prop_assume!(r2.iter().all(|r| r.is_success()));
        prop_assert_eq!(
            s1.collection(coll_addr).unwrap().price(),
            s2.collection(coll_addr).unwrap().price()
        );
        prop_assert_eq!(
            s1.collection(coll_addr).unwrap().remaining_supply(),
            s2.collection(coll_addr).unwrap().remaining_supply()
        );
    }

    /// GENTRANSEQ's contract: its output is a permutation of the input, it
    /// is valid under the §V-B rule, its claimed balance is honest, and it
    /// never regresses below the original order.
    #[test]
    fn gentranseq_output_contract(seed in 0u64..20) {
        let (state, window, ifu) = economy_with_window(6, seed);
        prop_assume!(window.len() >= 3);
        let module = GentranseqModule::new(
            parole_drl::DqnConfig {
                episodes: 5,
                max_steps: 25,
                hidden: [16, 16],
                batch_size: 4,
                seed,
                ..parole_drl::DqnConfig::paper()
            },
            RewardConfig::default(),
        );
        let outcome = module.run(&state, &window, &[ifu]);

        // Permutation: same multiset of tx hashes.
        let mut orig: Vec<_> = window.iter().map(|t| t.tx_hash()).collect();
        let mut best: Vec<_> = outcome.best_order.iter().map(|t| t.tx_hash()).collect();
        orig.sort();
        best.sort();
        prop_assert_eq!(orig, best);

        // Honest balance claim.
        let env = module.environment(&state, &window, &[ifu]);
        let replayed = env.balance_of_order(&outcome.best_order);
        prop_assert_eq!(replayed, Some(outcome.best_balance));

        // Never below the original.
        prop_assert!(outcome.best_balance >= outcome.original_balance);
        prop_assert!(!outcome.profit().is_loss());
    }

    /// The MDP never leaves the feasible region: after any action sequence,
    /// the current ordering still executes every originally-executable tx.
    #[test]
    fn mdp_stays_feasible(seed in 0u64..20, actions in prop::collection::vec(0usize..15, 1..30)) {
        let (state, window, ifu) = economy_with_window(6, seed);
        prop_assume!(window.len() >= 3);
        let mut env = ReorderEnv::new(
            state.clone(),
            window.clone(),
            vec![ifu],
            RewardConfig::default(),
        );
        env.reset();
        let n_actions = env.action_count();
        for a in actions {
            env.step(a % n_actions);
        }
        // The best order (== some visited valid order) must replay cleanly.
        let (best, balance) = env.best_order();
        let replay = env.balance_of_order(&best);
        prop_assert_eq!(replay, Some(balance));
    }

    /// Assessment is monotone in IFU involvement: adding an IFU to the set
    /// can only turn opportunity on, never off.
    #[test]
    fn assessment_monotone_in_ifus(seed in 0u64..40) {
        let (_, window, ifu) = economy_with_window(8, seed);
        prop_assume!(!window.is_empty());
        let other = Address::from_low_u64(1);
        let alone = assess(&window, &[other]);
        let both = assess(&window, &[other, ifu]);
        if alone.opportunity {
            prop_assert!(both.opportunity);
        }
        prop_assert!(both.ifu_tx_count >= alone.ifu_tx_count);
    }

    /// The swap-action index space is a bijection for any window size.
    #[test]
    fn action_space_bijection(n in 2usize..40) {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..pair_count(n) {
            let (i, j) = pair_from_index(idx, n);
            prop_assert!(i < j && j < n);
            prop_assert!(seen.insert((i, j)), "duplicate pair ({i},{j})");
            prop_assert_eq!(pair_to_index(i, j, n), idx);
        }
        prop_assert_eq!(seen.len(), n * (n - 1) / 2);
    }
}
