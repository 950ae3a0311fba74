//! The transaction re-ordering MDP (paper §V-C1).
//!
//! - **State**: the current candidate ordering of the collected window,
//!   observed as the flattened per-transaction feature matrix
//!   ([`crate::encode`]).
//! - **Action**: swap two positions — `C(N,2)` discrete actions.
//! - **Reward** (paper Eq. 8): `r_k = W × (B_IFU^{N,k} − B_IFU^{N,0})`, the
//!   change in the IFU's *final* total balance between the altered sequence
//!   after `k` actions and the original sequence, with `W` set to a high
//!   positive weight for penalizable (balance-reducing or
//!   validity-breaking) actions and `1` otherwise.
//!
//! Validity: the assessment step (§V-B) requires that "specific transactions
//! … would have satisfied the constraints in the original sequence" keep
//! executing. A swap that makes any transaction revert is penalized and
//! undone, keeping the search inside the feasible region.

use crate::encode::{self, pair_from_index, SlotOutcome, FEATURES_PER_TX};
use parole_crypto::Hash32;
use parole_drl::{Environment, StepOutcome};
use parole_ovm::{NftTransaction, Ovm, PrefixExecutor};
use parole_primitives::{Address, Wei, WeiDelta};
use parole_state::L2State;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The swap-action space the agent moves in.
///
/// The paper uses all `C(N,2)` unordered pairs; the adjacent-only variant is
/// an ablation (smaller action space, but solutions need longer swap chains
/// — bubble-sort distance instead of Cayley distance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ActionSpace {
    /// Swap any two positions: `C(N,2)` actions (the paper's design).
    #[default]
    AllPairs,
    /// Swap only neighbouring positions: `N − 1` actions.
    AdjacentOnly,
}

/// Reward shaping parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// The paper's weight factor `W` applied to penalizable (loss-making)
    /// outcomes; `1` is used for gains.
    pub penalty_weight: f64,
    /// Reward units per ETH of balance delta (the paper reports rewards in
    /// abstract "units"; 100 units/ETH reproduces Fig. 8's magnitudes).
    pub units_per_eth: f64,
    /// Flat penalty (in units) for a swap that breaks sequence validity.
    pub invalid_swap_penalty: f64,
    /// Reject (and undo) swaps that make a transaction revert that executed
    /// successfully under the *original* order (the §V-B validity rule).
    /// Transactions that already reverted originally stay fair game.
    pub require_all_executed: bool,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            penalty_weight: 10.0,
            units_per_eth: 100.0,
            invalid_swap_penalty: 50.0,
            require_all_executed: true,
        }
    }
}

/// Evaluation artifacts for one candidate ordering.
#[derive(Debug, Clone)]
struct Evaluation {
    /// Per slot of the ordering, what the observation reads of the
    /// receipt (the receipts themselves, with their logs and blooms, are
    /// not kept).
    slots: Vec<SlotOutcome>,
    final_balance: Wei,
    /// `executed[k]` is true when the transaction with *original index* `k`
    /// executed successfully in this ordering.
    executed: Vec<bool>,
}

/// The GENTRANSEQ environment: re-ordering a fixed window of transactions to
/// maximize the IFUs' combined final total balance.
#[derive(Debug)]
pub struct ReorderEnv {
    ovm: Ovm,
    base_state: L2State,
    original: Vec<NftTransaction>,
    ifus: Vec<Address>,
    reward: RewardConfig,
    action_space: ActionSpace,
    /// Evaluates candidates by replaying only the suffix that diverged from
    /// the previous one (bit-identical to `Ovm::simulate_sequence`, pinned
    /// by the equivalence proptests).
    prefix: PrefixExecutor,
    /// Reusable buffer for materializing `current` as a transaction
    /// sequence, so evaluation does not allocate a fresh `Vec` per
    /// candidate.
    scratch_seq: Vec<NftTransaction>,
    /// Current permutation: `current[k]` is the index into `original` of the
    /// transaction executed `k`-th.
    current: Vec<usize>,
    /// Cached evaluation of `current`.
    cached: Evaluation,
    /// Which original indices executed successfully under the original
    /// order — the validity baseline candidate orderings must preserve.
    original_executed: Vec<bool>,
    /// Per tx hash of the window: how many copies it holds, and how many
    /// of them executed under the original order — what
    /// [`ReorderEnv::balance_of_order`] matches an explicit order against.
    copies: HashMap<Hash32, (usize, usize)>,
    /// Final IFU balance under the original order (`B^{N,0}`).
    original_balance: Wei,
    /// Bonding-curve scale hints for feature normalization.
    max_supply: u64,
    base_remaining: u64,
    /// Best *valid* ordering seen across the whole lifetime (training and
    /// inference), with its balance.
    best: (Vec<usize>, Wei),
    /// How many swaps into its episode the current best ordering was
    /// discovered — the paper's Fig. 9 "solution size" (the number of swaps
    /// the agent performs to reach the balance-maximizing sequence).
    best_found_depth: Option<usize>,
    /// Swaps taken since the last reset.
    swaps_since_reset: usize,
    /// Swap count at which the first strictly-better valid ordering appeared
    /// since the last reset (drives the paper's Fig. 9 KDE curves).
    first_improvement: Option<usize>,
    /// Log of `first_improvement` for every completed episode (appended at
    /// each reset).
    episode_first_improvements: Vec<Option<usize>>,
}

impl ReorderEnv {
    /// Builds the environment for `window` executed on top of `state`.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty or has no collection to read scale
    /// hints from.
    pub fn new(
        state: L2State,
        window: Vec<NftTransaction>,
        ifus: Vec<Address>,
        reward: RewardConfig,
    ) -> Self {
        ReorderEnv::with_action_space(state, window, ifus, reward, ActionSpace::AllPairs)
    }

    /// Like [`ReorderEnv::new`] with an explicit [`ActionSpace`].
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn with_action_space(
        state: L2State,
        window: Vec<NftTransaction>,
        ifus: Vec<Address>,
        reward: RewardConfig,
        action_space: ActionSpace,
    ) -> Self {
        assert!(!window.is_empty(), "cannot re-order an empty window");
        let ovm = Ovm::new();
        let collection = window[0].kind.collection();
        let (max_supply, base_remaining) = state
            .collection(collection)
            .map(|c| (c.config().max_supply, c.remaining_supply()))
            .unwrap_or((1, 1));

        let prefix = PrefixExecutor::new(ovm.clone(), &state);

        let identity: Vec<usize> = (0..window.len()).collect();
        let mut env = ReorderEnv {
            ovm,
            base_state: state,
            original: window,
            ifus,
            reward,
            action_space,
            prefix,
            scratch_seq: Vec::new(),
            current: identity.clone(),
            cached: Evaluation {
                slots: Vec::new(),
                final_balance: Wei::ZERO,
                executed: Vec::new(),
            },
            original_executed: Vec::new(),
            copies: HashMap::new(),
            original_balance: Wei::ZERO,
            max_supply,
            base_remaining,
            best: (identity.clone(), Wei::ZERO),
            best_found_depth: None,
            swaps_since_reset: 0,
            first_improvement: None,
            episode_first_improvements: Vec::new(),
        };
        env.cached = env.evaluate_current();
        env.original_executed = env.cached.executed.clone();
        for (tx, &executed) in env.original.iter().zip(&env.original_executed) {
            let (copies, executed_copies) = env.copies.entry(tx.tx_hash()).or_default();
            *copies += 1;
            *executed_copies += usize::from(executed);
        }
        env.original_balance = env.cached.final_balance;
        env.best = (identity, env.original_balance);
        env
    }

    /// The window in its original order.
    pub fn original_window(&self) -> &[NftTransaction] {
        &self.original
    }

    /// Final combined IFU total balance under the original order.
    pub fn original_balance(&self) -> Wei {
        self.original_balance
    }

    /// Final combined IFU total balance under the *current* candidate order.
    pub fn current_balance(&self) -> Wei {
        self.cached.final_balance
    }

    /// The best valid ordering found so far and its final IFU balance.
    pub fn best_order(&self) -> (Vec<NftTransaction>, Wei) {
        let txs = self.best.0.iter().map(|&i| self.original[i]).collect();
        (txs, self.best.1)
    }

    /// Profit of the best ordering over the original one.
    pub fn best_profit(&self) -> WeiDelta {
        self.best.1.signed_sub(self.original_balance)
    }

    /// Swap count at which the first strictly-better ordering appeared since
    /// the last reset (`None` when no improvement was found yet).
    pub fn first_improvement_swap(&self) -> Option<usize> {
        self.first_improvement
    }

    /// The number of swaps into its episode at which the best-known ordering
    /// was discovered (`None` while the best is still the original order).
    pub fn best_found_depth(&self) -> Option<usize> {
        self.best_found_depth
    }

    /// Per-episode log of the swap count at which the first candidate
    /// solution appeared (one entry per completed episode).
    pub fn episode_first_improvements(&self) -> &[Option<usize>] {
        &self.episode_first_improvements
    }

    /// Evaluates the current permutation: executes it speculatively and
    /// reports the IFUs' final combined total balance. Only the suffix
    /// diverging from the previously evaluated candidate is replayed.
    fn evaluate_current(&mut self) -> Evaluation {
        let _span = parole_telemetry::span("mdp.evaluate");
        parole_telemetry::counter("mdp.evaluations", 1);
        self.scratch_seq.clear();
        for &i in &self.current {
            self.scratch_seq.push(self.original[i]);
        }

        let (receipts, post) = self.prefix.execute(&self.scratch_seq);
        // Differential oracle: the incremental result must be bit-identical
        // to a naive replay of the whole window from the pristine base.
        #[cfg(feature = "audit")]
        {
            let (naive_receipts, naive_post) = self
                .ovm
                .simulate_sequence(&self.base_state, &self.scratch_seq);
            // The naive side rebuilds its root from scratch so the oracle
            // cross-checks the incremental commitment cache rather than
            // comparing the cache against itself.
            if let Err(divergence) = parole_audit::differential::diff_execution(
                &naive_receipts,
                naive_post.state_root_naive(),
                receipts,
                post.state_root(),
            ) {
                panic!("prefix-cached execution audit failed: {divergence}");
            }
        }
        let final_balance = self.ifus.iter().map(|&u| post.total_balance_of(u)).sum();
        let slots: Vec<SlotOutcome> = receipts.iter().map(SlotOutcome::of).collect();

        let mut executed = vec![false; self.current.len()];
        for (slot, outcome) in slots.iter().enumerate() {
            executed[self.current[slot]] = outcome.success;
        }
        Evaluation {
            slots,
            final_balance,
            executed,
        }
    }

    /// The §V-B validity rule: every transaction that executed under the
    /// original order must still execute under the candidate.
    fn preserves_original_execution(&self, eval: &Evaluation) -> bool {
        self.original_executed
            .iter()
            .zip(&eval.executed)
            .all(|(orig, now)| !orig || *now)
    }

    /// Evaluates an explicit transaction order (utility for solvers and the
    /// defense module). Returns `None` when the order is not a permutation of
    /// the window (the same transactions, by hash, each as many times), or,
    /// while `require_all_executed` is set, when it executes fewer copies of
    /// some transaction than the original order did.
    pub fn balance_of_order(&self, seq: &[NftTransaction]) -> Option<Wei> {
        if seq.len() != self.original.len() {
            return None;
        }
        let (receipts, post) = self.ovm.simulate_sequence(&self.base_state, seq);
        // Match each receipt to an unmatched copy of its transaction; any
        // copy still owed an execution after the last receipt breaks the
        // validity rule.
        let mut unmatched = self.copies.clone();
        for receipt in &receipts {
            let (copies, owed) = unmatched.get_mut(&receipt.tx_hash)?;
            *copies = copies.checked_sub(1)?;
            if receipt.is_success() {
                *owed = owed.saturating_sub(1);
            }
        }
        if self.reward.require_all_executed && unmatched.values().any(|&(_, owed)| owed > 0) {
            return None;
        }
        Some(self.ifus.iter().map(|&u| post.total_balance_of(u)).sum())
    }

    /// Builds the flattened observation from the cached evaluation.
    fn observation(&self) -> Vec<f64> {
        let n = self.current.len();
        let mut obs = Vec::with_capacity(n * FEATURES_PER_TX);
        let mut supply = self.base_remaining;
        for (pos, (&orig_idx, &outcome)) in self.current.iter().zip(&self.cached.slots).enumerate()
        {
            let tx = &self.original[orig_idx];
            if outcome.success {
                // The OpSpec ledger's active-supply delta is exactly the
                // remaining-supply movement, negated: a mint activates a
                // token (remaining -1), a burn retires one (remaining +1).
                let delta = tx.kind.spec().ledger.active;
                if delta > 0 {
                    supply = supply.saturating_sub(delta as u64);
                } else {
                    supply += (-delta) as u64;
                }
            }
            obs.extend_from_slice(&encode::encode_tx(
                tx,
                outcome,
                supply,
                self.max_supply,
                pos,
                n,
                &self.ifus,
            ));
        }
        obs
    }
}

impl Environment for ReorderEnv {
    fn state_dim(&self) -> usize {
        self.original.len() * FEATURES_PER_TX
    }

    fn action_count(&self) -> usize {
        match self.action_space {
            ActionSpace::AllPairs => encode::pair_count(self.original.len()),
            ActionSpace::AdjacentOnly => self.original.len().saturating_sub(1),
        }
    }

    fn reset(&mut self) -> Vec<f64> {
        if self.swaps_since_reset > 0 {
            self.episode_first_improvements.push(self.first_improvement);
        }
        self.current = (0..self.original.len()).collect();
        self.cached = self.evaluate_current();
        self.swaps_since_reset = 0;
        self.first_improvement = None;
        self.observation()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let (i, j) = match self.action_space {
            ActionSpace::AllPairs => pair_from_index(action, self.original.len()),
            ActionSpace::AdjacentOnly => {
                assert!(
                    action + 1 < self.original.len(),
                    "adjacent action out of range"
                );
                (action, action + 1)
            }
        };
        self.swaps_since_reset += 1;

        // Apply the swap in place and evaluate; a rejected swap is undone by
        // swapping back (no clone of the permutation per step).
        self.current.swap(i, j);
        let eval = self.evaluate_current();

        if self.reward.require_all_executed && !self.preserves_original_execution(&eval) {
            // Infeasible: penalize and stay (the swap is undone; `cached`
            // still describes the pre-swap ordering).
            self.current.swap(i, j);
            return StepOutcome {
                reward: -self.reward.invalid_swap_penalty,
                next_state: self.observation(),
                done: false,
            };
        }

        // Commit the swap.
        self.cached = eval;

        let delta_eth = self
            .cached
            .final_balance
            .signed_sub(self.original_balance)
            .eth_f64();
        let weight = if delta_eth < 0.0 {
            self.reward.penalty_weight
        } else {
            1.0
        };
        let reward = weight * delta_eth * self.reward.units_per_eth;

        if self.cached.final_balance > self.best.1 {
            self.best = (self.current.clone(), self.cached.final_balance);
            self.best_found_depth = Some(self.swaps_since_reset);
        }
        if self.first_improvement.is_none() && self.cached.final_balance > self.original_balance {
            self.first_improvement = Some(self.swaps_since_reset);
        }

        StepOutcome {
            reward,
            next_state: self.observation(),
            done: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::pair_to_index;
    use parole_nft::CollectionConfig;
    use parole_ovm::TxKind;
    use parole_primitives::TokenId;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    /// A three-transaction window around the case-study state where burn-
    /// before-mint is strictly better for the IFU.
    fn tiny_env() -> ReorderEnv {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        let ifu = addr(1000);
        state.credit(ifu, Wei::from_milli_eth(1500));
        state.credit(addr(11), Wei::from_eth(1));
        for (owner, token) in [
            (ifu, 0),
            (ifu, 1),
            (addr(1), 2),
            (addr(2), 3),
            (addr(13), 4),
        ] {
            state
                .nft_mint(pt, owner, TokenId::new(token))
                .unwrap()
                .unwrap();
        }
        let window = vec![
            // IFU mints (price mover, IFU-involving).
            NftTransaction::simple(
                ifu,
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(5),
                },
            ),
            // Unrelated burn (price mover).
            NftTransaction::simple(
                addr(2),
                TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(3),
                },
            ),
            // IFU sells a token.
            NftTransaction::simple(
                ifu,
                TxKind::Transfer {
                    collection: pt,
                    token: TokenId::new(0),
                    to: addr(11),
                },
            ),
        ];
        ReorderEnv::new(state, window, vec![ifu], RewardConfig::default())
    }

    #[test]
    fn dimensions_follow_window() {
        let env = tiny_env();
        assert_eq!(env.state_dim(), 3 * FEATURES_PER_TX);
        assert_eq!(env.action_count(), 3);
    }

    #[test]
    fn original_balance_matches_direct_execution() {
        let env = tiny_env();
        let direct = env
            .balance_of_order(env.original_window())
            .expect("original order is valid");
        assert_eq!(direct, env.original_balance());
    }

    #[test]
    fn beneficial_swap_is_rewarded_and_tracked() {
        let mut env = tiny_env();
        env.reset();
        // Swap positions 0 and 1: burn first, then IFU mints at the lower
        // price — strictly better for the IFU.
        let action = pair_to_index(0, 1, 3);
        let out = env.step(action);
        assert!(out.reward > 0.0, "reward {} should be positive", out.reward);
        assert!(env.best_profit().is_gain());
        assert_eq!(env.first_improvement_swap(), Some(1));
    }

    #[test]
    fn harmful_swap_is_penalized_with_weight() {
        let mut env = tiny_env();
        env.reset();
        // First make it better…
        env.step(pair_to_index(0, 1, 3));
        // …then undo: back to the original balance (reward 0), then find a
        // genuinely harmful ordering if one exists. For this window, putting
        // the IFU's sale before the burn is neutral; the key check is the
        // penalty weighting logic, covered by constructing a loss directly.
        let out = env.step(pair_to_index(0, 1, 3));
        assert!(out.reward.abs() < 1e-9, "undoing returns to delta 0");
    }

    #[test]
    fn invalid_swaps_are_rejected_and_undone() {
        // A window where tx 1 depends on tx 0: U5 sells a token it only owns
        // after minting it.
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        let seller = addr(5);
        let buyer = addr(6);
        state.credit(seller, Wei::from_eth(2));
        state.credit(buyer, Wei::from_eth(2));
        let ifu = seller; // keep the assessment happy; irrelevant here
        let window = vec![
            NftTransaction::simple(
                seller,
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                seller,
                TxKind::Transfer {
                    collection: pt,
                    token: TokenId::new(0),
                    to: buyer,
                },
            ),
        ];
        let mut env = ReorderEnv::new(state, window, vec![ifu], RewardConfig::default());
        let obs0 = env.reset();
        let out = env.step(0); // the only action: swap (0,1) — invalid
        assert!(out.reward < 0.0);
        assert_eq!(
            out.next_state, obs0,
            "state must be unchanged after an undone swap"
        );
        assert!(env.best_profit() == WeiDelta::ZERO);
    }

    #[test]
    fn reset_restores_original_order() {
        let mut env = tiny_env();
        env.reset();
        env.step(pair_to_index(0, 1, 3));
        let obs_after_reset = env.reset();
        let fresh = tiny_env();
        let mut fresh_env = fresh;
        assert_eq!(obs_after_reset, fresh_env.reset());
        assert_eq!(env.first_improvement_swap(), None);
    }

    #[test]
    fn best_order_survives_reset() {
        let mut env = tiny_env();
        env.reset();
        env.step(pair_to_index(0, 1, 3));
        let (best, balance) = env.best_order();
        env.reset();
        let (best_after, balance_after) = env.best_order();
        assert_eq!(best, best_after);
        assert_eq!(balance, balance_after);
        assert!(balance > env.original_balance());
    }

    #[test]
    fn adjacent_action_space_shrinks_and_still_moves() {
        let mut full = tiny_env();
        let cs = tiny_env();
        let mut adj = ReorderEnv::with_action_space(
            cs.base_state.clone(),
            cs.original.clone(),
            cs.ifus.clone(),
            RewardConfig::default(),
            ActionSpace::AdjacentOnly,
        );
        assert_eq!(full.action_count(), 3);
        assert_eq!(adj.action_count(), 2);
        full.reset();
        adj.reset();
        // Adjacent action 0 swaps positions (0, 1), same as pair index 0.
        let a = adj.step(0);
        let f = full.step(pair_to_index(0, 1, 3));
        assert!((a.reward - f.reward).abs() < 1e-9);
    }

    #[test]
    fn balance_of_order_rejects_wrong_length() {
        let env = tiny_env();
        assert!(env.balance_of_order(&env.original_window()[..2]).is_none());
    }

    #[test]
    fn balance_of_order_matches_duplicate_transactions() {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        let ifu = addr(1000);
        state.credit(ifu, Wei::from_eth(5));
        let mint = |token| {
            NftTransaction::simple(
                ifu,
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(token),
                },
            )
        };
        // The second copy of mint(3) reverts under the original order.
        let window = vec![mint(3), mint(4), mint(3)];
        let env = ReorderEnv::new(state, window.clone(), vec![ifu], RewardConfig::default());
        assert_eq!(env.balance_of_order(&window), Some(env.original_balance()));
        // Either copy may be the one that executes.
        assert_eq!(
            env.balance_of_order(&[mint(3), mint(3), mint(4)]),
            Some(env.original_balance())
        );
        // Not permutations: a foreign transaction, or a third copy.
        assert_eq!(env.balance_of_order(&[mint(3), mint(4), mint(5)]), None);
        assert_eq!(env.balance_of_order(&[mint(3), mint(3), mint(3)]), None);
    }
}
