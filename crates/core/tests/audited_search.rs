//! Audit-feature smoke: a reorder search with the runtime differential
//! oracle armed.
//!
//! With `--features audit`, every `evaluate_current` re-executes the window
//! naively and panics on the first divergence. These
//! tests simply drive the search hard; surviving them means the oracle stayed
//! silent on an honest executor. (The loud half — that the oracle *does* fire
//! on a corrupted cache — lives in `parole-audit`'s mutation harness.)
#![cfg(feature = "audit")]

use parole::{ReorderEnv, RewardConfig};
use parole_drl::Environment;
use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::NftTransaction;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;

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
    for i in 1..5 {
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

#[test]
fn audited_search_stays_silent() {
    for seed in 0..4u64 {
        let (state, window, ifu) = economy_with_window(7, seed);
        if window.len() < 3 {
            continue;
        }
        let mut env = ReorderEnv::new(state, window, vec![ifu], RewardConfig::default());
        env.reset();
        let n_actions = env.action_count();
        for a in 0..120usize {
            // Each step runs the differential oracle; any stale checkpoint
            // or undo-log gap panics here.
            env.step((a * 13 + seed as usize) % n_actions);
        }
    }
}
