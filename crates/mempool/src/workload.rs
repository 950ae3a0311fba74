//! Synthetic NFT transaction traffic.
//!
//! The paper's experiments need streams of limited-edition NFT transactions
//! in which (a) every transaction is executable at its arrival position —
//! the arbitrage assessment (§V-B) explicitly assumes "all of which would
//! have satisfied the constraints in the original sequence" — and (b) the
//! IFU is involved in at least a mint + transfer pair, the minimum footprint
//! for a profitable reordering.
//!
//! [`WorkloadGenerator`] produces such streams by *forward simulation*: it
//! executes each candidate transaction against a private fork of the state
//! and only emits transactions that succeed there.

use parole_ovm::{NftTransaction, Ovm, TxKind};
use parole_primitives::{Address, FeeBundle};
use parole_state::L2State;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A Zipf(α)-distributed rank sampler over `n` ranks.
///
/// Real NFT traffic is heavily skewed: a handful of whales and drops
/// dominate senders and collections. The sampler precomputes the normalized
/// CDF of `p(k) ∝ 1/k^α` once (O(n)), then draws ranks by binary search
/// (O(log n)) — deterministic for a seeded RNG, so workloads stay
/// reproducible. `α = 0` degenerates to the uniform distribution; the
/// traffic harness and the workload generator share this one sampler for
/// their sender and collection skew knobs.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Normalized cumulative weights; `cdf[k]` = P(rank ≤ k).
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precomputes the CDF for `n` ranks at skew `alpha` (`n > 0`,
    /// `alpha ≥ 0`).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(alpha >= 0.0, "negative skew is not meaningful");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0_f64;
        for k in 1..=n {
            acc += (k as f64).powf(alpha).recip();
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfSampler { cdf }
    }

    /// Number of ranks the sampler draws from.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one rank in `0..ranks()`; rank 0 is the most popular.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Tunables for the traffic generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Relative weight of mint transactions.
    pub mint_weight: u32,
    /// Relative weight of transfer transactions.
    pub transfer_weight: u32,
    /// Relative weight of burn transactions.
    pub burn_weight: u32,
    /// Probability that a generated transaction is steered to involve one of
    /// the IFUs.
    pub ifu_participation: f64,
    /// Guarantee each IFU at least one mint and one transfer involvement
    /// (injected early in the stream when organic steering missed them).
    pub ensure_ifu_pair: bool,
    /// Base fee (Gwei) around which fee bundles are drawn.
    pub base_fee_gwei: u64,
    /// Zipf skew `α` of the sender distribution: `0.0` (the default) picks
    /// actors uniformly, larger values concentrate traffic on the
    /// low-indexed users — the "whale" population shape sustained-traffic
    /// benchmarks need. Sampling stays deterministic for a fixed seed.
    pub sender_zipf_alpha: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mint_weight: 3,
            transfer_weight: 5,
            burn_weight: 2,
            ifu_participation: 0.3,
            ensure_ifu_pair: true,
            base_fee_gwei: 1,
            sender_zipf_alpha: 0.0,
        }
    }
}

/// Deterministic, seeded generator of executable NFT transaction streams.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: StdRng,
    ovm: Ovm,
    config: WorkloadConfig,
}

impl WorkloadGenerator {
    /// Creates a generator with the given seed and configuration.
    pub fn new(seed: u64, config: WorkloadConfig) -> Self {
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
            ovm: Ovm::new(),
            config,
        }
    }

    /// Creates a generator with default configuration.
    pub fn with_seed(seed: u64) -> Self {
        WorkloadGenerator::new(seed, WorkloadConfig::default())
    }

    /// Generates `n` transactions over `collection` that execute successfully
    /// in order, starting from `state`. `users` is the general population;
    /// `ifus` the illicitly favored users (may be empty; must be funded by
    /// the caller like everyone else).
    ///
    /// Returns fewer than `n` transactions only when the economy is genuinely
    /// stuck (e.g. nobody can afford anything) — tests treat that as a bug
    /// for sensible setups.
    pub fn generate(
        &mut self,
        state: &L2State,
        collection: Address,
        users: &[Address],
        ifus: &[Address],
        n: usize,
    ) -> Vec<NftTransaction> {
        assert!(!users.is_empty(), "need a user population");
        let sender_sampler = (self.config.sender_zipf_alpha > 0.0)
            .then(|| ZipfSampler::new(users.len(), self.config.sender_zipf_alpha));
        let mut fork = state.clone();
        let mut out = Vec::with_capacity(n);

        // Phase 1: guaranteed IFU involvement — a mint and a transfer per IFU.
        if self.config.ensure_ifu_pair {
            for &ifu in ifus {
                if out.len() + 2 > n {
                    break;
                }
                if let Some(tx) = self.try_mint(&fork, collection, ifu) {
                    self.commit(&mut fork, &mut out, tx);
                }
                if let Some(tx) = self.try_transfer_involving(&fork, collection, ifu, users) {
                    self.commit(&mut fork, &mut out, tx);
                }
            }
        }

        // Phase 2: organic traffic.
        let mut stalls = 0usize;
        while out.len() < n && stalls < 50 {
            let actor = self.pick_actor(users, ifus, sender_sampler.as_ref());
            let candidate = self.pick_candidate(&fork, collection, actor, users);
            match candidate {
                Some(tx) if self.ovm.would_succeed(&fork, &tx) => {
                    self.commit(&mut fork, &mut out, tx);
                    stalls = 0;
                }
                _ => stalls += 1,
            }
        }
        out
    }

    fn commit(&self, fork: &mut L2State, out: &mut Vec<NftTransaction>, tx: NftTransaction) {
        let receipt = self.ovm.execute(fork, &tx);
        debug_assert!(receipt.is_success(), "generator emitted a failing tx");
        out.push(tx);
    }

    fn pick_actor(
        &mut self,
        users: &[Address],
        ifus: &[Address],
        sampler: Option<&ZipfSampler>,
    ) -> Address {
        if !ifus.is_empty() && self.rng.gen_bool(self.config.ifu_participation) {
            *ifus.choose(&mut self.rng).expect("non-empty")
        } else {
            match sampler {
                Some(zipf) => users[zipf.sample(&mut self.rng)],
                None => *users.choose(&mut self.rng).expect("non-empty"),
            }
        }
    }

    fn fees(&mut self) -> FeeBundle {
        let base = self.config.base_fee_gwei;
        let tip = self.rng.gen_range(1..=10);
        FeeBundle::from_gwei(base * 3 + tip, tip)
    }

    fn pick_candidate(
        &mut self,
        fork: &L2State,
        collection: Address,
        actor: Address,
        users: &[Address],
    ) -> Option<NftTransaction> {
        let total = self.config.mint_weight + self.config.transfer_weight + self.config.burn_weight;
        let roll = self.rng.gen_range(0..total);
        if roll < self.config.mint_weight {
            self.try_mint(fork, collection, actor)
                .or_else(|| self.try_any_transfer(fork, collection, users))
        } else if roll < self.config.mint_weight + self.config.transfer_weight {
            self.try_transfer_involving(fork, collection, actor, users)
                .or_else(|| self.try_any_transfer(fork, collection, users))
        } else {
            self.try_burn(fork, collection, actor)
                .or_else(|| self.try_any_transfer(fork, collection, users))
        }
    }

    /// A mint by `actor`, if supply and balance allow.
    fn try_mint(
        &mut self,
        fork: &L2State,
        collection: Address,
        actor: Address,
    ) -> Option<NftTransaction> {
        let coll = fork.collection(collection)?;
        let token = coll.next_free_token()?;
        if fork.balance_of(actor) < coll.price() {
            return None;
        }
        Some(NftTransaction::with_fees(
            actor,
            TxKind::Mint { collection, token },
            self.fees(),
        ))
    }

    /// A transfer where `actor` is seller (if they own something) or buyer
    /// (if they can afford the price).
    fn try_transfer_involving(
        &mut self,
        fork: &L2State,
        collection: Address,
        actor: Address,
        users: &[Address],
    ) -> Option<NftTransaction> {
        let coll = fork.collection(collection)?;
        let price = coll.price();
        let owned = coll.tokens_of(actor);
        let sell = !owned.is_empty() && self.rng.gen_bool(0.5);
        if sell {
            let token = *owned.choose(&mut self.rng)?;
            let candidates: Vec<Address> = users
                .iter()
                .copied()
                .filter(|&u| u != actor && fork.balance_of(u) >= price)
                .collect();
            let buyer = *candidates.choose(&mut self.rng)?;
            Some(NftTransaction::with_fees(
                actor,
                TxKind::Transfer {
                    collection,
                    token,
                    to: buyer,
                },
                self.fees(),
            ))
        } else {
            if fork.balance_of(actor) < price {
                return None;
            }
            // Buy from a random current owner.
            let holdings: Vec<_> = coll.iter().filter(|(_, o)| *o != actor).collect();
            let &(token, seller) = holdings.choose(&mut self.rng)?;
            Some(NftTransaction::with_fees(
                seller,
                TxKind::Transfer {
                    collection,
                    token,
                    to: actor,
                },
                self.fees(),
            ))
        }
    }

    /// Any transfer between population members; fallback to keep streams
    /// flowing when a specific actor has no valid move.
    fn try_any_transfer(
        &mut self,
        fork: &L2State,
        collection: Address,
        users: &[Address],
    ) -> Option<NftTransaction> {
        let coll = fork.collection(collection)?;
        let price = coll.price();
        let holdings: Vec<_> = coll.iter().collect();
        let &(token, seller) = holdings.choose(&mut self.rng)?;
        let candidates: Vec<Address> = users
            .iter()
            .copied()
            .filter(|&u| u != seller && fork.balance_of(u) >= price)
            .collect();
        let buyer = *candidates.choose(&mut self.rng)?;
        Some(NftTransaction::with_fees(
            seller,
            TxKind::Transfer {
                collection,
                token,
                to: buyer,
            },
            self.fees(),
        ))
    }

    /// A burn of something `actor` owns.
    fn try_burn(
        &mut self,
        fork: &L2State,
        collection: Address,
        actor: Address,
    ) -> Option<NftTransaction> {
        let coll = fork.collection(collection)?;
        let owned = coll.tokens_of(actor);
        let token = *owned.choose(&mut self.rng)?;
        Some(NftTransaction::with_fees(
            actor,
            TxKind::Burn { collection, token },
            self.fees(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;
    use parole_primitives::{TokenId, Wei};

    /// Builds a populated economy: a 40-token collection, 12 funded users,
    /// one funded IFU holding two tokens.
    fn economy() -> (L2State, Address, Vec<Address>, Address) {
        let mut state = L2State::new();
        let coll_addr = state.deploy_collection(CollectionConfig::limited_edition("W", 40, 100));
        let users: Vec<Address> = (1..=12).map(Address::from_low_u64).collect();
        for &u in &users {
            state.credit(u, Wei::from_eth(20));
        }
        let ifu = Address::from_low_u64(1000);
        state.credit(ifu, Wei::from_eth(20));
        for i in 0..10u64 {
            let owner = if i < 2 {
                ifu
            } else {
                users[(i % users.len() as u64) as usize]
            };
            state
                .nft_mint(coll_addr, owner, TokenId::new(i))
                .unwrap()
                .unwrap();
        }
        (state, coll_addr, users, ifu)
    }

    #[test]
    fn generated_stream_is_executable_in_order() {
        let (state, coll, users, ifu) = economy();
        let mut gen = WorkloadGenerator::with_seed(7);
        let txs = gen.generate(&state, coll, &users, &[ifu], 30);
        assert_eq!(txs.len(), 30);
        let ovm = Ovm::new();
        let (receipts, _) = ovm.simulate_sequence(&state, &txs);
        assert!(
            receipts.iter().all(|r| r.is_success()),
            "every generated tx must execute at its arrival position"
        );
    }

    #[test]
    fn ifu_pair_is_guaranteed() {
        let (state, coll, users, ifu) = economy();
        let mut gen = WorkloadGenerator::with_seed(99);
        let txs = gen.generate(&state, coll, &users, &[ifu], 20);
        let has_ifu_mint = txs
            .iter()
            .any(|t| t.sender == ifu && matches!(t.kind, TxKind::Mint { .. }));
        let has_ifu_transfer = txs
            .iter()
            .any(|t| t.involves(ifu) && matches!(t.kind, TxKind::Transfer { .. }));
        assert!(has_ifu_mint, "IFU must mint at least once");
        assert!(has_ifu_transfer, "IFU must be party to a transfer");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (state, coll, users, ifu) = economy();
        let a = WorkloadGenerator::with_seed(5).generate(&state, coll, &users, &[ifu], 15);
        let b = WorkloadGenerator::with_seed(5).generate(&state, coll, &users, &[ifu], 15);
        assert_eq!(a, b);
        let c = WorkloadGenerator::with_seed(6).generate(&state, coll, &users, &[ifu], 15);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_mix_weights_roughly() {
        let (state, coll, users, _) = economy();
        let config = WorkloadConfig {
            mint_weight: 0,
            transfer_weight: 1,
            burn_weight: 0,
            ensure_ifu_pair: false,
            ..WorkloadConfig::default()
        };
        let mut gen = WorkloadGenerator::new(3, config);
        let txs = gen.generate(&state, coll, &users, &[], 20);
        assert!(txs
            .iter()
            .all(|t| matches!(t.kind, TxKind::Transfer { .. })));
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = ZipfSampler::new(50, 1.2);
        assert_eq!(zipf.ranks(), 50);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(draw(11), draw(11), "same seed, same draws");
        let counts = draw(11).iter().fold(vec![0usize; 50], |mut c, &r| {
            c[r] += 1;
            c
        });
        assert!(
            counts[0] > counts[25] && counts[0] > counts[49],
            "rank 0 must dominate the tail: {counts:?}"
        );
        // α = 0 degenerates to uniform: head and tail within noise of n/ranks.
        let flat = ZipfSampler::new(50, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let counts =
            (0..20_000)
                .map(|_| flat.sample(&mut rng))
                .fold(vec![0usize; 50], |mut c, r| {
                    c[r] += 1;
                    c
                });
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            max - min < 200,
            "uniform spread expected: min {min}, max {max}"
        );
    }

    #[test]
    fn zipf_skew_concentrates_generated_senders() {
        let (state, coll, users, _) = economy();
        let skewed_cfg = WorkloadConfig {
            sender_zipf_alpha: 1.5,
            ensure_ifu_pair: false,
            ..WorkloadConfig::default()
        };
        let mut skewed = WorkloadGenerator::new(21, skewed_cfg.clone());
        let txs = skewed.generate(&state, coll, &users, &[], 30);
        assert!(!txs.is_empty());
        // Determinism with the knob set.
        let again = WorkloadGenerator::new(21, skewed_cfg).generate(&state, coll, &users, &[], 30);
        assert_eq!(txs, again);
        // Every transaction still executes at its arrival position.
        let ovm = Ovm::new();
        let (receipts, _) = ovm.simulate_sequence(&state, &txs);
        assert!(receipts.iter().all(|r| r.is_success()));
    }

    #[test]
    fn stalls_gracefully_in_dead_economy() {
        // Nobody has any money and nothing is minted: only the empty stream
        // is possible.
        let mut state = L2State::new();
        let coll = state.deploy_collection(CollectionConfig::limited_edition("D", 5, 1_000_000));
        let users: Vec<Address> = (1..=3).map(Address::from_low_u64).collect();
        let mut gen = WorkloadGenerator::with_seed(1);
        let txs = gen.generate(&state, coll, &users, &[], 10);
        assert!(txs.is_empty());
    }
}
