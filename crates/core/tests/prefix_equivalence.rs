//! Equivalence properties of the prefix-cached evaluation path.
//!
//! The GENTRANSEQ hot path evaluates candidates through
//! [`parole_ovm::PrefixExecutor`] (a checkpoint before every slot + suffix
//! replay) instead of re-executing the whole window. That optimisation must
//! be *invisible*: these properties pin it to the naive `simulate_sequence`
//! oracle — receipts and post-states at the executor, accept/reject
//! decisions and balances at the environment — over random windows and
//! random swap sequences.

use parole::{pair_from_index, ReorderEnv, RewardConfig};
use parole_drl::Environment;
use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, PrefixExecutor};
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

    /// Executor level: after any sequence of random swaps, the incremental
    /// executor returns exactly the receipts and post-state of a fresh
    /// from-scratch simulation.
    #[test]
    fn prefix_executor_matches_naive_oracle(
        seed in 0u64..40,
        swaps in prop::collection::vec((0usize..16, 0usize..16), 1..24),
    ) {
        let (base, mut seq, _) = economy_with_window(8, seed);
        prop_assume!(seq.len() >= 3);
        let ovm = Ovm::new();
        let mut exec = PrefixExecutor::new(ovm.clone(), &base);
        for &(a, b) in &swaps {
            let len = seq.len();
            seq.swap(a % len, b % len);
            let (naive_receipts, naive_state) = ovm.simulate_sequence(&base, &seq);
            let (receipts, state) = exec.execute(&seq);
            prop_assert_eq!(receipts, naive_receipts.as_slice());
            prop_assert_eq!(state, &naive_state);
        }
    }

    /// Environment level: after every action of a random action sequence,
    /// the [`ReorderEnv`]'s accept/reject decision and running balance match
    /// a naive `simulate_sequence` evaluation of the same candidate, and its
    /// best order re-evaluates to the balance it reports.
    #[test]
    fn cached_env_is_observationally_identical_to_naive(
        seed in 0u64..20,
        actions in prop::collection::vec(0usize..64, 1..30),
    ) {
        let (state, window, ifu) = economy_with_window(6, seed);
        prop_assume!(window.len() >= 3);
        let ovm = Ovm::new();
        // Which original indices execute under `order`, and the IFU's
        // final total balance.
        let naive = |order: &[usize]| {
            let seq: Vec<NftTransaction> = order.iter().map(|&k| window[k]).collect();
            let (receipts, post) = ovm.simulate_sequence(&state, &seq);
            let mut executed = vec![false; order.len()];
            for (&k, receipt) in order.iter().zip(&receipts) {
                executed[k] = receipt.is_success();
            }
            (executed, post.total_balance_of(ifu))
        };
        let mut env = ReorderEnv::new(
            state.clone(),
            window.clone(),
            vec![ifu],
            RewardConfig::default(),
        );
        env.reset();
        let mut order: Vec<usize> = (0..window.len()).collect();
        let (original_executed, mut balance) = naive(&order);
        prop_assert_eq!(env.original_balance(), balance);
        prop_assert_eq!(env.current_balance(), balance);

        let n_actions = env.action_count();
        for a in actions {
            let a = a % n_actions;
            env.step(a);
            let (i, j) = pair_from_index(a, window.len());
            let mut candidate = order.clone();
            candidate.swap(i, j);
            let (executed, candidate_balance) = naive(&candidate);
            // The §V-B validity rule: a swap may not revert a transaction
            // that executed under the original order.
            if original_executed.iter().zip(&executed).all(|(orig, now)| !orig || *now) {
                order = candidate;
                balance = candidate_balance;
            }
            prop_assert_eq!(env.current_balance(), balance);
            let (best, best_balance) = env.best_order();
            prop_assert_eq!(env.balance_of_order(&best), Some(best_balance));
        }
    }
}
