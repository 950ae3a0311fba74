//! Shared experiment economies.
//!
//! Several figures need "a funded NFT economy plus one attack window";
//! this module centralizes that construction so every harness measures the
//! same world.

use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::NftTransaction;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;

/// A ready-to-attack economy: funded population, one limited-edition
/// collection with seeded holdings, and the IFU set.
#[derive(Debug, Clone)]
pub struct Economy {
    /// The L2 state.
    pub state: L2State,
    /// The collection under attack.
    pub collection: Address,
    /// General population.
    pub users: Vec<Address>,
    /// Illicitly favored users.
    pub ifus: Vec<Address>,
}

impl Economy {
    /// Builds an economy sized for windows of up to `mempool_size`
    /// transactions with `n_ifus` colluding users.
    pub fn build(mempool_size: usize, n_ifus: usize, seed: u64) -> Self {
        let mut state = L2State::new();
        // Supply scales with the window so the bonding curve keeps moving
        // (a curve quantized flat admits no arbitrage at all).
        let supply = (mempool_size as u64 * 2).max(40);
        let collection =
            state.deploy_collection(CollectionConfig::limited_edition("BenchPT", supply, 500));
        let users: Vec<Address> = (1..=20u64).map(Address::from_low_u64).collect();
        for &u in &users {
            state.credit(u, Wei::from_eth(50));
        }
        let ifus: Vec<Address> = (0..n_ifus as u64)
            .map(|i| Address::from_low_u64(10_000 + i))
            .collect();
        let mut token = 0u64;
        for &ifu in &ifus {
            for _ in 0..2 {
                state
                    .nft_mint(collection, ifu, TokenId::new(token))
                    .expect("deployed")
                    .unwrap();
                token += 1;
            }
        }
        for (i, &u) in users.iter().take(8).enumerate() {
            state
                .nft_mint(collection, u, TokenId::new(token + i as u64))
                .expect("deployed")
                .unwrap();
        }
        for &ifu in &ifus {
            state.credit(ifu, Wei::from_eth(50));
        }
        let _ = seed;
        Economy {
            state,
            collection,
            users,
            ifus,
        }
    }

    /// Adds chain background unrelated to the attack window: `accounts`
    /// funded bystander accounts and `collections` spectator NFT collections
    /// with partially minted-out supplies.
    ///
    /// A realistic L2 state dwarfs any single attack window. The naive
    /// clone-per-candidate evaluator pays to copy all of it on *every*
    /// candidate ordering; the journaled prefix evaluator pays only for what
    /// the window's transactions actually touch. The `reorder_env` kernel
    /// benchmarks measure on this enriched state.
    pub fn with_background(mut self, accounts: usize, collections: usize) -> Self {
        for i in 0..accounts as u64 {
            self.state
                .credit(Address::from_low_u64(1_000_000 + i), Wei::from_gwei(1 + i));
        }
        for c in 0..collections as u64 {
            let addr = self
                .state
                .deploy_collection(CollectionConfig::limited_edition("Background", 64, 100));
            for t in 0..48u64 {
                let holder = 1_000_000 + (c * 48 + t) % accounts.max(1) as u64;
                self.state
                    .nft_mint(addr, Address::from_low_u64(holder), TokenId::new(t))
                    .expect("deployed")
                    .unwrap();
            }
        }
        self
    }

    /// Generates one executable attack window of `n` transactions.
    pub fn window(&self, n: usize, seed: u64) -> Vec<NftTransaction> {
        self.window_with(
            n,
            seed,
            WorkloadConfig {
                ifu_participation: 0.35,
                ..WorkloadConfig::default()
            },
        )
    }

    /// Generates a window with an explicit traffic mix — e.g. the sparse mix
    /// Fig. 9 uses (few price movers, low IFU participation) so first
    /// candidate solutions take several swaps to reach.
    pub fn window_with(&self, n: usize, seed: u64, config: WorkloadConfig) -> Vec<NftTransaction> {
        let mut generator = WorkloadGenerator::new(seed, config);
        generator.generate(&self.state, self.collection, &self.users, &self.ifus, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_ovm::Ovm;

    #[test]
    fn economy_windows_are_executable() {
        let economy = Economy::build(20, 2, 1);
        let window = economy.window(20, 9);
        assert_eq!(window.len(), 20);
        let (receipts, _) = Ovm::new().simulate_sequence(&economy.state, &window);
        assert!(receipts.iter().all(|r| r.is_success()));
    }

    #[test]
    fn ifus_hold_tokens_and_funds() {
        let economy = Economy::build(20, 3, 1);
        assert_eq!(economy.ifus.len(), 3);
        let coll = economy.state.collection(economy.collection).unwrap();
        for &ifu in &economy.ifus {
            assert_eq!(coll.balance_of(ifu), 2);
            assert!(economy.state.balance_of(ifu) > Wei::ZERO);
        }
    }
}
