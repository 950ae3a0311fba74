//! Equivalence properties of the prefix-cached evaluation path.
//!
//! The GENTRANSEQ hot path replaced full window re-execution with
//! [`parole_ovm::PrefixExecutor`] (journaled checkpoints + suffix replay).
//! That optimisation must be *invisible*: these properties pin the cached
//! path to the naive `simulate_sequence` oracle — receipts, post-states,
//! rewards, observations and final search outcomes — over random windows,
//! random swap sequences and every checkpoint stride shape.

use parole::{EvalConfig, ReorderEnv, RewardConfig};
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
    /// from-scratch simulation, at every stride.
    #[test]
    fn prefix_executor_matches_naive_oracle(
        seed in 0u64..40,
        stride in 1usize..9,
        swaps in prop::collection::vec((0usize..16, 0usize..16), 1..24),
    ) {
        let (base, mut seq, _) = economy_with_window(8, seed);
        prop_assume!(seq.len() >= 3);
        let ovm = Ovm::new();
        let mut exec = PrefixExecutor::new(ovm.clone(), &base, stride);
        for &(a, b) in &swaps {
            let len = seq.len();
            seq.swap(a % len, b % len);
            let (naive_receipts, naive_state) = ovm.simulate_sequence(&base, &seq);
            let (receipts, state) = exec.execute(&seq);
            prop_assert_eq!(receipts, naive_receipts.as_slice());
            prop_assert_eq!(state, &naive_state);
        }
    }

    /// Environment level: a prefix-cached [`ReorderEnv`] is observationally
    /// identical to a naive one — same initial observation, and the same
    /// reward / next state / done / running balance after every action of a
    /// random action sequence, ending in the same best order and balance.
    #[test]
    fn cached_env_is_observationally_identical_to_naive(
        seed in 0u64..20,
        stride in 1usize..9,
        actions in prop::collection::vec(0usize..64, 1..30),
    ) {
        let (state, window, ifu) = economy_with_window(6, seed);
        prop_assume!(window.len() >= 3);
        let make = |eval: EvalConfig| {
            ReorderEnv::with_eval_config(
                state.clone(),
                window.clone(),
                vec![ifu],
                RewardConfig::default(),
                parole::ActionSpace::AllPairs,
                eval,
            )
        };
        let mut cached = make(EvalConfig { prefix_cached: true, checkpoint_stride: stride });
        let mut naive = make(EvalConfig::naive());

        prop_assert_eq!(cached.reset(), naive.reset());
        let n_actions = naive.action_count();
        prop_assert_eq!(cached.action_count(), n_actions);
        for a in actions {
            let oc = cached.step(a % n_actions);
            let on = naive.step(a % n_actions);
            prop_assert_eq!(oc.reward.to_bits(), on.reward.to_bits());
            prop_assert_eq!(oc.next_state, on.next_state);
            prop_assert_eq!(oc.done, on.done);
            prop_assert_eq!(cached.current_balance(), naive.current_balance());
        }
        let (best_c, bal_c) = cached.best_order();
        let (best_n, bal_n) = naive.best_order();
        prop_assert_eq!(best_c, best_n);
        prop_assert_eq!(bal_c, bal_n);
    }

    /// The checkpoint stride is a pure performance knob: every stride —
    /// including one larger than the window — produces the same search
    /// trajectory.
    #[test]
    fn stride_never_changes_the_trajectory(
        seed in 0u64..20,
        actions in prop::collection::vec(0usize..64, 1..20),
    ) {
        let (state, window, ifu) = economy_with_window(6, seed);
        prop_assume!(window.len() >= 3);
        let run = |stride: usize| {
            let mut env = ReorderEnv::with_eval_config(
                state.clone(),
                window.clone(),
                vec![ifu],
                RewardConfig::default(),
                parole::ActionSpace::AllPairs,
                EvalConfig { prefix_cached: true, checkpoint_stride: stride },
            );
            env.reset();
            let n_actions = env.action_count();
            let mut trace: Vec<(u64, bool)> = Vec::new();
            for &a in &actions {
                let out = env.step(a % n_actions);
                trace.push((out.reward.to_bits(), out.done));
            }
            let (best, balance) = env.best_order();
            (trace, best, balance)
        };
        let reference = run(1);
        for stride in [3usize, 7, window.len(), window.len() + 5] {
            prop_assert_eq!(run(stride).clone(), reference.clone());
        }
    }
}
