//! Bedrock's sequencer: fixed-interval block production from the private
//! mempool.
//!
//! The sequencer closes the loop between the mempool's fee-priority queue,
//! per-block gas limits, the EIP-1559 base-fee controller, and — when the
//! §VIII defense is deployed — a *screening hook* that may defer
//! transactions "to the block behind". The attack-side crates never talk to
//! the sequencer (aggregators collect raw windows); it exists so the defense
//! can be evaluated in its intended position.

use crate::{BaseFeeController, BedrockMempool};
use parole_ovm::{Bloom, GasSchedule, LogFilter, LogHit, LogIndex, NftTransaction, Ovm, Receipt};
use parole_primitives::Gas;
use parole_state::L2State;
use std::fmt;

/// What a screening hook decides about a prospective block.
#[derive(Debug, Clone)]
pub struct Screened {
    /// Transactions admitted into the block.
    pub admitted: Vec<NftTransaction>,
    /// Transactions pushed back into the mempool for a later block.
    pub deferred: Vec<NftTransaction>,
}

/// A screening hook, e.g. the §VIII GENTRANSEQ-based detector from the
/// `parole` core crate (`defense::screen_window` adapts directly).
pub type ScreeningHook<'a> = dyn FnMut(&L2State, Vec<NftTransaction>) -> Screened + 'a;

/// One sealed L2 block.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    /// Block ordinal since the sequencer started.
    pub number: u64,
    /// Transactions in final order.
    pub txs: Vec<NftTransaction>,
    /// Gas consumed by the block.
    pub gas_used: Gas,
    /// Base fee the block was built under.
    pub base_fee: parole_primitives::Wei,
    /// OR-fold of the executed receipts' blooms — the block-level bloom a
    /// log query probes before scanning receipts. The zero bloom for
    /// blocks sealed without execution ([`Sequencer::seal_block`]) and for
    /// blocks that emitted nothing.
    pub bloom: Bloom,
}

/// The block-producing sequencer.
pub struct Sequencer {
    mempool: BedrockMempool,
    fee_controller: BaseFeeController,
    gas_schedule: GasSchedule,
    gas_limit: Gas,
    blocks_sealed: u64,
    /// Chain-level log index over executed blocks; `None` when indexing is
    /// off ([`Sequencer::with_log_index`]).
    log_index: Option<LogIndex>,
}

impl fmt::Debug for Sequencer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sequencer")
            .field("pending", &self.mempool.len())
            .field("base_fee_gwei", &self.fee_controller.base_fee().gwei())
            .field("blocks_sealed", &self.blocks_sealed)
            .finish()
    }
}

impl Sequencer {
    /// Creates a sequencer over the given mempool with a per-block gas
    /// limit; the fee controller targets half the limit, rounded up
    /// (EIP-1559's elasticity of 2: a full block is at most twice the
    /// target).
    pub fn new(mempool: BedrockMempool, gas_limit: Gas) -> Self {
        let base_fee = mempool.base_fee();
        let target = Gas::new(gas_limit.units().div_ceil(2).max(1));
        Sequencer {
            mempool,
            fee_controller: BaseFeeController::new(base_fee, target),
            gas_schedule: GasSchedule::paper_calibrated(),
            gas_limit,
            blocks_sealed: 0,
            log_index: None,
        }
    }

    /// Switches the chain-level log index on or off (builder-style, off by
    /// default). With it on, every [`Sequencer::seal_and_execute`] block is
    /// indexed — per-receipt logs behind per-receipt and per-block blooms —
    /// and [`Sequencer::query_logs`] answers [`LogFilter`] queries over the
    /// sealed chain. Turning indexing off mid-stream discards the index.
    #[must_use]
    pub fn with_log_index(mut self, on: bool) -> Self {
        self.log_index = on.then(LogIndex::new);
        self
    }

    /// Whether executed blocks are being log-indexed.
    pub fn indexes_logs(&self) -> bool {
        self.log_index.is_some()
    }

    /// The chain-level log index, when indexing is on.
    pub fn log_index(&self) -> Option<&LogIndex> {
        self.log_index.as_ref()
    }

    /// Answers a [`LogFilter`] query over every indexed block, in chain
    /// order. Returns the empty vector when indexing is off.
    pub fn query_logs(&self, filter: &LogFilter) -> Vec<LogHit> {
        self.log_index
            .as_ref()
            .map(|index| index.query(filter))
            .unwrap_or_default()
    }

    /// Pending transactions in the underlying mempool.
    pub fn pending(&self) -> usize {
        self.mempool.len()
    }

    /// The mempool (e.g. to submit traffic).
    pub fn mempool_mut(&mut self) -> &mut BedrockMempool {
        &mut self.mempool
    }

    /// Blocks sealed so far.
    pub fn blocks_sealed(&self) -> u64 {
        self.blocks_sealed
    }

    /// Current base fee.
    pub fn base_fee(&self) -> parole_primitives::Wei {
        self.fee_controller.base_fee()
    }

    /// The per-block gas limit.
    pub fn gas_limit(&self) -> Gas {
        self.gas_limit
    }

    /// Adjusts the per-block gas limit (the L1-style limit drift real
    /// sequencers apply between blocks). The fee controller's target is
    /// unchanged; only block filling is affected. The limit may drop to
    /// anything, but may rise only to twice the target: a fuller block
    /// would move the base fee by more than EIP-1559's 1/8 per block.
    ///
    /// # Panics
    ///
    /// Panics when `gas_limit` exceeds twice the fee controller's target.
    pub fn set_gas_limit(&mut self, gas_limit: Gas) {
        let target = self.fee_controller.target_gas();
        assert!(
            gas_limit.units() <= target.units().saturating_mul(2),
            "gas limit {gas_limit} exceeds twice the fee controller's target {target}"
        );
        self.gas_limit = gas_limit;
    }

    /// Seals one block: pulls fee-ordered transactions until the gas limit,
    /// optionally runs the screening hook (deferred transactions go back to
    /// the mempool), updates the base fee from the block's fullness and
    /// returns the sealed block.
    pub fn seal_block(
        &mut self,
        state: &L2State,
        screening: Option<&mut ScreeningHook<'_>>,
    ) -> SealedBlock {
        let _span = parole_telemetry::span("sequencer.seal_block");
        parole_telemetry::observe("sequencer.mempool_depth", self.mempool.len() as u64);
        // Pull candidates up to the gas limit in one index pass; the first
        // transaction that does not fit is never removed from the pool.
        let candidates = self
            .mempool
            .collect_block(&self.gas_schedule, self.gas_limit);

        // Screening (§VIII): deferred transactions return to the mempool.
        let txs = match screening {
            Some(hook) => {
                let screened = hook(state, candidates);
                parole_telemetry::counter("sequencer.txs_deferred", screened.deferred.len() as u64);
                for tx in &screened.deferred {
                    self.mempool.submit(*tx);
                }
                screened.admitted
            }
            None => candidates,
        };

        let gas_used = txs.iter().map(|t| self.gas_schedule.gas_for(&t.kind)).sum();
        let base_fee = self.fee_controller.base_fee();
        let new_fee = self.fee_controller.on_block(gas_used);

        // Cheap always-on (debug builds) sanity: blocks never exceed the gas
        // limit and the fee never sinks below the floor.
        debug_assert!(gas_used.units() <= self.gas_limit.units());
        debug_assert!(new_fee >= self.fee_controller.floor());

        // Full audit: re-derive the EIP-1559 update independently and compare.
        #[cfg(feature = "audit")]
        if let Err(violation) = parole_audit::fee::check_fee_update(
            base_fee,
            gas_used,
            self.fee_controller.target_gas(),
            self.fee_controller.floor(),
            new_fee,
        ) {
            panic!("sequencer fee-market audit failed: {violation}");
        }

        self.mempool.set_base_fee(new_fee);
        self.blocks_sealed += 1;
        parole_telemetry::counter("sequencer.blocks_sealed", 1);
        parole_telemetry::counter("sequencer.txs_sealed", txs.len() as u64);
        parole_telemetry::observe("sequencer.gas_used", gas_used.units());
        parole_telemetry::observe_f64("sequencer.base_fee_gwei", new_fee.gwei() as f64);
        SealedBlock {
            number: self.blocks_sealed,
            txs,
            gas_used,
            base_fee,
            bloom: Bloom::ZERO,
        }
    }

    /// Seals one block and executes it against `state` in sealed order
    /// ([`Ovm::execute_sequence`]), returning the block and its receipts.
    pub fn seal_and_execute(
        &mut self,
        state: &mut L2State,
        screening: Option<&mut ScreeningHook<'_>>,
    ) -> (SealedBlock, Vec<Receipt>) {
        let mut block = self.seal_block(state, screening);
        // Event-replay oracle input: the pre-block token maps, captured
        // before any transaction of this block executes.
        #[cfg(feature = "audit")]
        let pre_maps = parole_audit::replay::snapshot_maps(state);
        let receipts = Ovm::new().execute_sequence(state, &block.txs);
        // Event-replay oracle: folding the block's receipt log stream over
        // the pre-block maps must land exactly on the post-block ownership,
        // approval, operator and curve maps (fail-stop).
        #[cfg(feature = "audit")]
        if let Err(violation) =
            parole_audit::replay::check_event_replay(&pre_maps, &receipts, state)
        {
            panic!(
                "sequencer event-replay audit failed at block {}: {violation}",
                block.number
            );
        }

        // The block bloom is the OR-fold of its receipts' blooms — computed
        // unconditionally (it is a few hundred cheap byte-ORs) so sealed
        // blocks always carry it; the queryable index is opt-in.
        for r in &receipts {
            block.bloom.accrue(&r.bloom);
        }
        if let Some(index) = self.log_index.as_mut() {
            let indexed_bloom = index.index_block(block.number, &receipts);
            debug_assert_eq!(
                indexed_bloom, block.bloom,
                "index bloom must equal the block's receipt fold"
            );
        }
        (block, receipts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_ovm::TxKind;
    use parole_primitives::{Address, FeeBundle, TokenId, Wei};

    fn tx(sender: u64, tip: u64) -> NftTransaction {
        NftTransaction::with_fees(
            Address::from_low_u64(sender),
            TxKind::Mint {
                collection: Address::from_low_u64(100),
                token: TokenId::new(sender),
            },
            FeeBundle::from_gwei(300, tip),
        )
    }

    fn sequencer_with(txs: Vec<NftTransaction>, gas_limit: u64) -> Sequencer {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        pool.submit_all(txs);
        Sequencer::new(pool, Gas::new(gas_limit))
    }

    #[test]
    fn block_respects_gas_limit() {
        // Mints cost 100_001 gas; a 250k limit fits two.
        let mut seq = sequencer_with((1..=5).map(|i| tx(i, i)).collect(), 250_000);
        let block = seq.seal_block(&L2State::new(), None);
        assert_eq!(block.txs.len(), 2);
        assert!(block.gas_used.units() <= 250_000);
        // The rest stays pending.
        assert_eq!(seq.pending(), 3);
    }

    #[test]
    fn blocks_take_highest_tips_first() {
        let mut seq = sequencer_with(vec![tx(1, 1), tx(2, 9), tx(3, 5)], 250_000);
        let block = seq.seal_block(&L2State::new(), None);
        let senders: Vec<_> = block.txs.iter().map(|t| t.sender).collect();
        assert_eq!(
            senders,
            vec![Address::from_low_u64(2), Address::from_low_u64(3)]
        );
    }

    #[test]
    fn full_blocks_raise_the_base_fee() {
        let mut seq = sequencer_with((1..=20).map(|i| tx(i, 5)).collect(), 200_002);
        let before = seq.base_fee();
        for _ in 0..4 {
            seq.seal_block(&L2State::new(), None);
        }
        assert!(
            seq.base_fee() > before,
            "sustained full blocks must reprice"
        );
    }

    #[test]
    #[should_panic(
        expected = "gas limit 200003 gas exceeds twice the fee controller's target 100001 gas"
    )]
    fn gas_limit_past_twice_the_target_panics() {
        let mut seq = sequencer_with(Vec::new(), 200_002);
        seq.set_gas_limit(Gas::new(200_003));
    }

    #[test]
    fn an_odd_gas_limit_stays_within_twice_the_target() {
        // The target rounds up, so the limit a sequencer starts with can
        // always be set again.
        let mut seq = sequencer_with(Vec::new(), 200_001);
        seq.set_gas_limit(seq.gas_limit());
    }

    #[test]
    fn block_at_twice_the_target_raises_the_fee_by_one_eighth() {
        // Target 100_001 gas; two mints at 100_001 gas each fill a block
        // of exactly twice the target.
        let mut seq = sequencer_with((1..=3).map(|i| tx(i, 5)).collect(), 200_002);
        seq.set_gas_limit(Gas::new(200_002));
        let before = seq.base_fee().wei();
        let block = seq.seal_block(&L2State::new(), None);
        assert_eq!(block.gas_used, Gas::new(200_002));
        assert_eq!(seq.base_fee().wei(), before + before / 8);
    }

    #[test]
    fn screening_hook_defers_back_to_mempool() {
        let mut seq = sequencer_with((1..=3).map(|i| tx(i, i)).collect(), 1_000_000);
        let mut hook = |_state: &L2State, mut txs: Vec<NftTransaction>| {
            // Defer the last transaction of every block.
            let deferred = txs.split_off(txs.len().saturating_sub(1));
            Screened {
                admitted: txs,
                deferred,
            }
        };
        let block = seq.seal_block(&L2State::new(), Some(&mut hook));
        assert_eq!(block.txs.len(), 2);
        assert_eq!(seq.pending(), 1, "deferred tx returned to the pool");
        // It gets its chance in the next block.
        let block2 = seq.seal_block(&L2State::new(), Some(&mut hook));
        assert_eq!(block2.txs.len(), 0);
        assert_eq!(seq.pending(), 1);
    }

    /// Funds and deploys enough world for sealed mint blocks to execute.
    fn funded_world() -> L2State {
        use parole_nft::CollectionConfig;
        let mut state = L2State::new();
        state
            .deploy_collection_at(
                Address::from_low_u64(100),
                CollectionConfig::limited_edition("Seq", 64, 200),
            )
            .unwrap();
        for u in 1..=20u64 {
            state.credit(Address::from_low_u64(u), Wei::from_eth(10));
        }
        state
    }

    /// With log indexing on, sealed blocks carry a bloom folded from their
    /// receipts, the index answers range/collection/address queries, and a
    /// query for an uninvolved address is pruned by blooms alone.
    #[test]
    fn log_index_records_and_queries_sealed_blocks() {
        use parole_ovm::{EventKind, LogFilter};

        let txs: Vec<NftTransaction> = (1..=6).map(|i| tx(i, i)).collect();
        let mut state = funded_world();
        let mut seq = sequencer_with(txs, 250_000).with_log_index(true);
        assert!(seq.indexes_logs());

        let mut blocks = Vec::new();
        while seq.pending() > 0 {
            let (block, receipts) = seq.seal_and_execute(&mut state, None);
            // Successful mints emit Transfer + PriceChanged → non-empty bloom.
            assert!(receipts.iter().any(|r| r.is_success()));
            assert!(!block.bloom.is_empty());
            assert!(receipts
                .iter()
                .filter(|r| !r.logs.is_empty())
                .all(|r| r.bloom_consistent()));
            blocks.push(block);
        }
        let index = seq.log_index().expect("indexing is on");
        assert_eq!(index.len(), blocks.len());

        // Every mint produces exactly one Transfer and one PriceChanged.
        let transfers = seq.query_logs(&LogFilter::all().of_kind(EventKind::Transfer));
        let prices = seq.query_logs(&LogFilter::all().of_kind(EventKind::PriceChanged));
        assert_eq!(transfers.len(), 6);
        assert_eq!(prices.len(), 6);
        // Chain order: block numbers ascend.
        assert!(transfers.windows(2).all(|w| w[0].block <= w[1].block));

        // Per-address query finds exactly that minter's Transfer.
        let mine = seq.query_logs(&LogFilter::all().involving(Address::from_low_u64(3)));
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].entry.kind(), EventKind::Transfer);

        // Range restriction cuts the result set down to one block.
        let first = blocks[0].number;
        let ranged = seq.query_logs(&LogFilter::all().in_blocks(first, first));
        assert!(ranged.iter().all(|h| h.block == first));
        assert!(!ranged.is_empty());

        // An address never involved yields nothing (bloom-pruned or not).
        assert!(seq
            .query_logs(&LogFilter::all().involving(Address::from_low_u64(999)))
            .is_empty());

        // Indexing off: no index, queries come back empty.
        let off = sequencer_with(vec![tx(1, 1)], 250_000);
        assert!(!off.indexes_logs());
        assert!(off.query_logs(&LogFilter::all()).is_empty());
    }

    #[test]
    fn empty_mempool_seals_empty_blocks() {
        let mut seq = sequencer_with(vec![], 1_000_000);
        let block = seq.seal_block(&L2State::new(), None);
        assert!(block.txs.is_empty());
        assert_eq!(block.gas_used, Gas::ZERO);
        assert_eq!(seq.blocks_sealed(), 1);
    }

    /// With the `audit` feature on, every seal runs the fee update through
    /// the independent EIP-1559 re-derivation; a long mixed stream of full,
    /// empty and partial blocks must stay silent.
    #[cfg(feature = "audit")]
    #[test]
    fn audited_sealing_stays_silent_across_block_mixes() {
        let mut seq = sequencer_with((1..=40).map(|i| tx(i, i % 7)).collect(), 300_000);
        let state = L2State::new();
        for _ in 0..60 {
            seq.seal_block(&state, None); // panics on any fee-audit violation
        }
        assert_eq!(seq.blocks_sealed(), 60);
    }

    /// With the `audit` feature on, every executed block also runs the
    /// event-replay oracle: the receipt log stream folded over the pre-block
    /// maps must reproduce the post-block token maps. A workload mixing
    /// mints, operator approvals and transfers (some reverting) must stay
    /// silent.
    #[cfg(feature = "audit")]
    #[test]
    fn audited_execution_replays_event_streams() {
        let coll = Address::from_low_u64(100);
        let mixed: Vec<NftTransaction> = (1..=8u64)
            .flat_map(|i| {
                let sender = Address::from_low_u64(i);
                [
                    NftTransaction::with_fees(
                        sender,
                        TxKind::Mint {
                            collection: coll,
                            token: TokenId::new(i),
                        },
                        FeeBundle::from_gwei(300, i),
                    ),
                    NftTransaction::with_fees(
                        sender,
                        TxKind::SetApprovalForAll {
                            collection: coll,
                            operator: Address::from_low_u64(i + 1),
                            approved: i % 2 == 0,
                        },
                        FeeBundle::from_gwei(300, i),
                    ),
                    // Half of these revert (wrong owner after the mint
                    // interleaving) — reverted txs must emit nothing.
                    NftTransaction::with_fees(
                        sender,
                        TxKind::Transfer {
                            collection: coll,
                            token: TokenId::new(i % 4),
                            to: Address::from_low_u64(i + 10),
                        },
                        FeeBundle::from_gwei(300, i),
                    ),
                ]
            })
            .collect();
        let submitted = mixed.len();
        let mut state = funded_world();
        let mut seq = sequencer_with(mixed, 600_000);
        let mut executed = 0;
        while seq.pending() > 0 {
            let (_, receipts) = seq.seal_and_execute(&mut state, None);
            executed += receipts.len();
        }
        assert_eq!(executed, submitted, "all txs must eventually execute");
    }
}
