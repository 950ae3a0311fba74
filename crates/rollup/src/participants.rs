//! Rollup operators: aggregators and verifiers.

use crate::{Batch, StateCommitment};
use parole_ovm::{NftTransaction, Ovm};
use parole_primitives::{AggregatorId, VerifierId, Wei, WeiDelta};
use parole_state::L2State;
use std::fmt;

/// How an aggregator orders the transaction window it collected.
///
/// Honest aggregators use [`FeePriorityStrategy`] (keep the fee order the
/// mempool handed them). The PAROLE adversary plugs in the GENTRANSEQ-backed
/// strategy from the `parole` core crate. The trait is deliberately tiny so
/// ablation benches can drop in arbitrary orderings.
pub trait OrderingStrategy: fmt::Debug + Send {
    /// A short label for reports.
    fn name(&self) -> &str;

    /// Produces the execution order for `window` given the pre-execution
    /// state. Implementations must return a permutation of `window`
    /// (the ORSC checks nothing else, and *cannot* check more — that is the
    /// vulnerability).
    fn order(&mut self, state: &L2State, window: Vec<NftTransaction>) -> Vec<NftTransaction>;

    /// Attack accounting probe: `(cumulative profit, windows seen, windows
    /// exploited)`. Honest strategies report `None`; the PAROLE strategy
    /// overrides this so fleet experiments can harvest profits without
    /// downcasting.
    fn attack_stats(&self) -> Option<(WeiDelta, u64, u64)> {
        None
    }
}

/// The honest strategy: execute exactly in the fee-priority order received.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeePriorityStrategy;

impl OrderingStrategy for FeePriorityStrategy {
    fn name(&self) -> &str {
        "fee-priority"
    }

    fn order(&mut self, _state: &L2State, window: Vec<NftTransaction>) -> Vec<NftTransaction> {
        window
    }
}

/// A rollup aggregator (`A_k`): collects windows, orders them, executes them
/// on the OVM and produces bonded batches.
pub struct Aggregator {
    id: AggregatorId,
    bond: Wei,
    strategy: Box<dyn OrderingStrategy>,
    ovm: Ovm,
}

impl fmt::Debug for Aggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Aggregator")
            .field("id", &self.id)
            .field("bond", &self.bond)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl Aggregator {
    /// Creates a bonded aggregator with the given ordering strategy.
    pub fn new(id: AggregatorId, bond: Wei, strategy: Box<dyn OrderingStrategy>) -> Self {
        Aggregator {
            id,
            bond,
            strategy,
            ovm: Ovm::new(),
        }
    }

    /// An honest aggregator.
    pub fn honest(id: AggregatorId, bond: Wei) -> Self {
        Aggregator::new(id, bond, Box::new(FeePriorityStrategy))
    }

    /// The aggregator's identifier.
    pub fn id(&self) -> AggregatorId {
        self.id
    }

    /// The bond the aggregator was created with. Slashes move only the
    /// contract's bond map ([`crate::RollupContract::aggregator_bond`]).
    pub fn bond(&self) -> Wei {
        self.bond
    }

    /// Forwards the strategy's attack accounting probe
    /// (see [`OrderingStrategy::attack_stats`]).
    pub fn strategy_stats(&self) -> Option<(WeiDelta, u64, u64)> {
        self.strategy.attack_stats()
    }

    /// Orders `window` with the configured strategy, executes it on a fork of
    /// `state`, and produces the batch with its state commitment.
    ///
    /// The committed post-root is the root *after* the end-of-batch block
    /// advance — the same convention the contract applies when it executes
    /// a batch at submission. Since the state root commits the block number,
    /// deriving the commitment without the advance would make every honest
    /// batch look forged.
    ///
    /// The pre-state root read inside [`StateCommitment::derive`] hits the
    /// state's commitment cache, so building many batches over the same
    /// pre-state (or having verifiers re-read it in [`Verifier::validate`])
    /// computes the Merkle tree once instead of once per participant.
    pub fn build_batch(&mut self, state: &L2State, window: Vec<NftTransaction>) -> Batch {
        let ordered = self.strategy.order(state, window);
        let (receipts, mut post_state) = self.ovm.simulate_sequence(state, &ordered);
        post_state.advance_block();
        Batch {
            aggregator: self.id,
            commitment: StateCommitment::derive(state, &post_state, &ordered),
            txs: ordered,
            receipts,
        }
    }

    /// Builds a batch whose claimed post-state root is deliberately wrong —
    /// the *actual* fraud (state forgery) the challenge game exists to catch,
    /// as opposed to PAROLE's undetectable reordering.
    pub fn build_forged_batch(&mut self, state: &L2State, window: Vec<NftTransaction>) -> Batch {
        let mut batch = self.build_batch(state, window);
        // Claim a root for a state in which the aggregator never paid for
        // anything: hash the honest root to get a plausible-looking forgery.
        batch.commitment.post_state_root =
            parole_crypto::keccak256(batch.commitment.post_state_root.as_bytes());
        batch
    }
}

/// A rollup verifier (`V_k`): re-executes pending batches and challenges
/// invalid commitments, staking its bond on the outcome.
#[derive(Debug)]
pub struct Verifier {
    id: VerifierId,
    bond: Wei,
    ovm: Ovm,
}

impl Verifier {
    /// Creates a bonded verifier.
    pub fn new(id: VerifierId, bond: Wei) -> Self {
        Verifier {
            id,
            bond,
            ovm: Ovm::new(),
        }
    }

    /// The verifier's identifier.
    pub fn id(&self) -> VerifierId {
        self.id
    }

    /// The bond the verifier was created with. Slashes and rewards move
    /// only the contract's bond map
    /// ([`crate::RollupContract::verifier_bond`]).
    pub fn bond(&self) -> Wei {
        self.bond
    }

    /// Honestly re-executes `batch` from `pre_state` and reports whether the
    /// claimed commitment is valid.
    ///
    /// Re-execution ends with the same block advance the contract applies
    /// when it executes the batch at submission (the post-state
    /// [`crate::RollupContract::challenge`] judges by) — the two sides of
    /// the challenge game must score the same root or honest batches would
    /// be slashed and forged ones acquitted depending on who computed the
    /// reference. The block number is part of the state root,
    /// so the convention is observable and pinned by
    /// `commitment_post_root_includes_the_block_advance`.
    ///
    /// Note what this *cannot* see: whether the order inside the batch
    /// matches the mempool's fee-priority order. A PAROLE batch passes this
    /// check (the `fraud_proof_game` tests pin that down).
    pub fn validate(&self, pre_state: &L2State, batch: &Batch) -> bool {
        if !batch.tx_root_consistent() {
            return false;
        }
        if batch.commitment.pre_state_root != pre_state.state_root() {
            return false;
        }
        let (_, mut post) = self.ovm.simulate_sequence(pre_state, &batch.txs);
        post.advance_block();
        post.state_root() == batch.commitment.post_state_root
    }

    /// `true` when the verifier would raise a challenge against `batch`.
    pub fn should_challenge(&self, pre_state: &L2State, batch: &Batch) -> bool {
        !self.validate(pre_state, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_nft::CollectionConfig;
    use parole_ovm::TxKind;
    use parole_primitives::{Address, TokenId};

    fn setup() -> (L2State, Vec<NftTransaction>) {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        for i in 1..=4u64 {
            state.credit(Address::from_low_u64(i), Wei::from_eth(2));
        }
        let txs = (0..4u64)
            .map(|i| {
                NftTransaction::simple(
                    Address::from_low_u64(i + 1),
                    TxKind::Mint {
                        collection: pt,
                        token: TokenId::new(i),
                    },
                )
            })
            .collect();
        (state, txs)
    }

    /// Regression pin for the challenge-path root convention: the committed
    /// post-root is the root *after* the end-of-batch block advance, on both
    /// sides of the game. Under the old convention (`validate` comparing
    /// without the advance while the contract re-executed with it) the first
    /// assertion fails; the second fails if the block number ever drops out
    /// of the root again (which would make the mismatch unobservable).
    #[test]
    fn commitment_post_root_includes_the_block_advance() {
        let (state, txs) = setup();
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let batch = agg.build_batch(&state, txs.clone());

        let (_, mut post) = Ovm::new().simulate_sequence(&state, &txs);
        let without_advance = post.state_root();
        post.advance_block();
        assert_eq!(
            batch.commitment.post_state_root,
            post.state_root(),
            "commitment must score the post-advance root, like the contract"
        );
        assert_ne!(
            batch.commitment.post_state_root, without_advance,
            "the block advance must move the committed root"
        );
    }

    #[test]
    fn honest_batch_validates() {
        let (state, txs) = setup();
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let batch = agg.build_batch(&state, txs);
        let verifier = Verifier::new(VerifierId::new(0), Wei::from_eth(5));
        assert!(verifier.validate(&state, &batch));
        assert!(!verifier.should_challenge(&state, &batch));
    }

    #[test]
    fn forged_batch_is_caught() {
        let (state, txs) = setup();
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let batch = agg.build_forged_batch(&state, txs);
        let verifier = Verifier::new(VerifierId::new(0), Wei::from_eth(5));
        assert!(verifier.should_challenge(&state, &batch));
    }

    #[test]
    fn reordered_but_honestly_executed_batch_validates() {
        // The PAROLE insight: reordering alone is not fraud.
        let (state, txs) = setup();

        #[derive(Debug)]
        struct ReverseStrategy;
        impl OrderingStrategy for ReverseStrategy {
            fn name(&self) -> &str {
                "reverse"
            }
            fn order(
                &mut self,
                _state: &L2State,
                mut window: Vec<NftTransaction>,
            ) -> Vec<NftTransaction> {
                window.reverse();
                window
            }
        }

        let mut adversary = Aggregator::new(
            AggregatorId::new(1),
            Wei::from_eth(10),
            Box::new(ReverseStrategy),
        );
        let batch = adversary.build_batch(&state, txs.clone());
        assert_ne!(batch.txs, txs, "order actually changed");
        let verifier = Verifier::new(VerifierId::new(0), Wei::from_eth(5));
        assert!(
            verifier.validate(&state, &batch),
            "a reordered batch must still produce a valid fraud proof"
        );
    }

    #[test]
    fn wrong_pre_state_fails_validation() {
        let (state, txs) = setup();
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let batch = agg.build_batch(&state, txs);
        let mut other = state.clone();
        other.credit(Address::from_low_u64(42), Wei::from_eth(1));
        let verifier = Verifier::new(VerifierId::new(0), Wei::from_eth(5));
        assert!(!verifier.validate(&other, &batch));
    }
}
