//! The fee-priority mempool.
//!
//! # Indexed priority queue
//!
//! The pool is a lazily-maintained priority index, so sealing a block costs
//! O(block · log P) rather than a sort of all P pending transactions:
//!
//! - **Ready heap** — a max-heap keyed by (effective tip at the pool's base
//!   fee, arrival FIFO tie-break). `collect(n)` pops `n` entries:
//!   O(n log P) instead of O(P log P).
//! - **Parked list** — transactions whose fee cap is below the base fee sit
//!   off-heap and cost nothing per block; they re-enter the heap only when
//!   the base fee falls (the paper's §VIII "send the lowest-fee
//!   transactions to the block behind").
//! - **Rebuild on base-fee change** — effective tips depend on the base
//!   fee, so the heap's keys are valid only for the fee they were computed
//!   at. `set_base_fee` just marks the index stale; the next operation
//!   re-keys every entry once (O(P)), amortized over the whole block that
//!   fee applies to. Most fee moves skip even that: an entry's effective
//!   tip `min(max_priority, max_fee − base)` only changes once the base
//!   fee climbs past `max_fee − max_priority`, so the pool keeps the
//!   smallest such saturation point over everything in the heap (and the
//!   largest parked `max_fee`). A new base fee inside that window provably
//!   preserves every key and every parking decision, and the "rebuild" is
//!   O(1) — under EIP-1559 drift with healthy fee caps this makes re-keys
//!   vanish entirely (witnessed by [`PoolOpStats::rekeys_skipped`]).
//!
//! Every structural operation bumps a [`PoolOpStats`] counter (mirrored to
//! telemetry), so tests can pin the complexity claim directly: collecting a
//! block touches O(block) heap entries, not O(pool).

use parole_ovm::NftTransaction;
use parole_primitives::Wei;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// One pending entry: the transaction plus its arrival sequence number.
#[derive(Debug, Clone, Copy)]
struct Pending {
    tx: NftTransaction,
    arrival: u64,
}

/// A heap entry: a pending transaction keyed by its effective tip at the
/// base fee the heap was built for.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    tip: Wei,
    pending: Pending,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.tip == other.tip && self.pending.arrival == other.pending.arrival
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    /// Max-heap priority: higher tip first, earlier arrival on ties.
    fn cmp(&self, other: &Self) -> Ordering {
        self.tip
            .cmp(&other.tip)
            .then_with(|| other.pending.arrival.cmp(&self.pending.arrival))
    }
}

/// Structural-operation counters for the priority index.
///
/// These are the complexity witnesses: a `collect(n)` performs exactly as
/// many heap pops as it returns transactions, and rebuilds
/// happen only when the base fee moves — never per block with a stable fee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolOpStats {
    /// Entries pushed into the ready heap.
    pub heap_pushes: u64,
    /// Entries popped off the ready heap.
    pub heap_pops: u64,
    /// Full index rebuilds (base-fee changes observed).
    pub rebuilds: u64,
    /// Entries re-screened across all rebuilds.
    pub rescreened: u64,
    /// Entries parked because their fee cap was below the base fee.
    pub parked: u64,
    /// Base-fee changes absorbed without touching the index (the new fee
    /// stayed inside the window where no key or parking decision moves).
    pub rekeys_skipped: u64,
}

/// Bedrock's private mempool.
///
/// Pending transactions are handed out strictly in fee-priority order
/// (descending [`effective tip`](parole_primitives::FeeBundle::effective_tip)
/// at the pool's base fee, FIFO within equal tips). Transactions whose fee
/// cap is below the base fee are parked — they stay pending but are never
/// collected, matching the real mempool's "send the lowest-fee transactions
/// to the block behind" behaviour the paper quotes in §VIII. See the
/// [module docs](self) for the index layout.
#[derive(Debug)]
pub struct BedrockMempool {
    /// Includable transactions keyed at `keyed_base_fee`.
    ready: BinaryHeap<Ranked>,
    /// Transactions whose fee cap is below `keyed_base_fee`.
    parked: Vec<Pending>,
    base_fee: Wei,
    /// The base fee the heap keys and the parked screening were computed
    /// at; `!= base_fee` means the index is stale.
    keyed_base_fee: Wei,
    /// Smallest `max_fee − max_priority` over entries placed in the ready
    /// heap since the last rebuild: base fees at or below this provably
    /// leave every heap key unchanged. `None` = no entry placed yet.
    sat_threshold: Option<Wei>,
    /// Largest `max_fee` over currently parked entries: base fees strictly
    /// above this provably leave every parking decision unchanged.
    unpark_threshold: Option<Wei>,
    total: usize,
    next_arrival: u64,
    /// Simulated block interval in ticks (Bedrock seals blocks at fixed
    /// intervals rather than per transaction).
    block_interval_ticks: u64,
    now: u64,
    ops: PoolOpStats,
}

impl BedrockMempool {
    /// Creates an empty mempool with the given base fee and a default block
    /// interval of 2 ticks (Bedrock's 2-second blocks).
    pub fn new(base_fee: Wei) -> Self {
        BedrockMempool {
            ready: BinaryHeap::new(),
            parked: Vec::new(),
            base_fee,
            keyed_base_fee: base_fee,
            sat_threshold: None,
            unpark_threshold: None,
            total: 0,
            next_arrival: 0,
            block_interval_ticks: 2,
            now: 0,
            ops: PoolOpStats::default(),
        }
    }

    /// The base fee used for effective-tip computation.
    pub fn base_fee(&self) -> Wei {
        self.base_fee
    }

    /// Updates the base fee (fee-market drift between blocks). Cheap: the
    /// priority index is re-keyed lazily on the next pool operation.
    pub fn set_base_fee(&mut self, base_fee: Wei) {
        self.base_fee = base_fee;
    }

    /// Structural-operation counters since the pool was created.
    pub fn op_stats(&self) -> PoolOpStats {
        self.ops
    }

    /// Number of pending transactions (including parked ones).
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Current simulated time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances simulated time; returns `true` when a block boundary was
    /// crossed (i.e. aggregators should collect now).
    pub fn tick(&mut self) -> bool {
        self.now += 1;
        self.now.is_multiple_of(self.block_interval_ticks)
    }

    /// Submits a transaction.
    pub fn submit(&mut self, tx: NftTransaction) {
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        self.total += 1;
        self.ensure_fresh();
        self.place(Pending { tx, arrival });
    }

    /// Submits a batch, preserving the iterator's arrival order.
    pub fn submit_all<I: IntoIterator<Item = NftTransaction>>(&mut self, txs: I) {
        for tx in txs {
            self.submit(tx);
        }
    }

    /// Collects up to `n` includable transactions in fee-priority order,
    /// removing them from the pool. This is the window an aggregator
    /// receives — the paper's per-aggregator "Mempool" of size N.
    ///
    /// O(n log P): pops `n` heap entries, never touching the rest of the
    /// pool (parked transactions cost nothing here).
    pub fn collect(&mut self, n: usize) -> Vec<NftTransaction> {
        self.ensure_fresh();
        let mut out = Vec::with_capacity(n.min(self.ready.len()));
        while out.len() < n {
            let Some(ranked) = self.ready.pop() else {
                break;
            };
            self.ops.heap_pops += 1;
            self.total -= 1;
            out.push(ranked.pending.tx);
        }
        parole_telemetry::counter("mempool.heap_pops", out.len() as u64);
        out
    }

    /// Collects transactions in fee-priority order until the next candidate
    /// would push the block past `gas_limit` (that candidate stays pooled).
    /// This is the sequencer's block-filling primitive: one index pass per
    /// block instead of a `collect(1)` loop.
    ///
    /// It peeks before popping, so the first transaction that does not fit
    /// is never removed — O(block · log P) with zero re-insertion churn.
    pub fn collect_block(
        &mut self,
        schedule: &parole_ovm::GasSchedule,
        gas_limit: parole_primitives::Gas,
    ) -> Vec<NftTransaction> {
        use parole_primitives::Gas;
        self.ensure_fresh();
        let mut out = Vec::new();
        let mut gas = Gas::ZERO;
        while let Some(tx_gas) = self
            .ready
            .peek()
            .map(|top| schedule.gas_for(&top.pending.tx.kind))
        {
            if (gas + tx_gas).units() > gas_limit.units() {
                break;
            }
            gas += tx_gas;
            let ranked = self.ready.pop().expect("peeked entry exists");
            self.ops.heap_pops += 1;
            self.total -= 1;
            out.push(ranked.pending.tx);
        }
        parole_telemetry::counter("mempool.heap_pops", out.len() as u64);
        out
    }

    /// Re-keys the index after a base-fee change: every heap and parked
    /// entry is re-screened at the current fee — O(P), once per fee change —
    /// unless the new fee provably changes no key and no parking decision,
    /// in which case the move is absorbed in O(1) (see the [module
    /// docs](self)).
    fn ensure_fresh(&mut self) {
        if self.base_fee == self.keyed_base_fee {
            return;
        }
        // An effective tip `min(max_priority, max_fee − base)` is constant
        // in `base` until the base fee exceeds `max_fee − max_priority`;
        // a parked entry (`max_fee < base`) stays parked while the base
        // fee stays strictly above its cap. Inside both bounds the whole
        // index is still exact for the new fee.
        let keys_stable = self
            .sat_threshold
            .map_or(self.ready.is_empty(), |t| self.base_fee <= t);
        let parking_stable = self.unpark_threshold.is_none_or(|t| self.base_fee > t);
        if keys_stable && parking_stable {
            self.keyed_base_fee = self.base_fee;
            self.ops.rekeys_skipped += 1;
            parole_telemetry::counter("mempool.rekeys_skipped", 1);
            return;
        }
        self.keyed_base_fee = self.base_fee;
        self.sat_threshold = None;
        self.unpark_threshold = None;
        let entries: Vec<Pending> = self
            .ready
            .drain()
            .map(|r| r.pending)
            .chain(self.parked.drain(..))
            .collect();
        self.ops.rebuilds += 1;
        self.ops.rescreened += entries.len() as u64;
        parole_telemetry::counter("mempool.rebuilds", 1);
        parole_telemetry::counter("mempool.rescreened", entries.len() as u64);
        for pending in entries {
            self.place(pending);
        }
    }

    /// Routes one pending entry into the ready heap or the parked list.
    /// Callers must have re-keyed the index first (`ensure_fresh`).
    fn place(&mut self, pending: Pending) {
        debug_assert_eq!(self.base_fee, self.keyed_base_fee);
        if pending.tx.fees.is_includable(self.base_fee) {
            self.ops.heap_pushes += 1;
            parole_telemetry::counter("mempool.heap_pushes", 1);
            let sat = pending
                .tx
                .fees
                .max_fee_per_gas
                .saturating_sub(pending.tx.fees.max_priority_fee_per_gas);
            self.sat_threshold = Some(self.sat_threshold.map_or(sat, |t| t.min(sat)));
            self.ready.push(Ranked {
                tip: pending.tx.fees.effective_tip(self.base_fee),
                pending,
            });
        } else {
            let cap = pending.tx.fees.max_fee_per_gas;
            self.unpark_threshold = Some(self.unpark_threshold.map_or(cap, |t| t.max(cap)));
            self.ops.parked += 1;
            parole_telemetry::counter("mempool.parked", 1);
            self.parked.push(pending);
        }
    }
}

impl fmt::Display for BedrockMempool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BedrockMempool({} pending, base fee {} gwei)",
            self.total,
            self.base_fee.gwei()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parole_ovm::TxKind;
    use parole_primitives::{Address, FeeBundle, TokenId};

    fn tx(sender: u64, tip: u64) -> NftTransaction {
        NftTransaction::with_fees(
            Address::from_low_u64(sender),
            TxKind::Mint {
                collection: Address::from_low_u64(100),
                token: TokenId::new(sender),
            },
            FeeBundle::from_gwei(30, tip),
        )
    }

    fn sender_of(t: &NftTransaction) -> u64 {
        let b = t.sender.as_bytes();
        u64::from_be_bytes(b[12..].try_into().unwrap())
    }

    #[test]
    fn collect_orders_by_tip_then_fifo() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        pool.submit(tx(1, 5));
        pool.submit(tx(2, 9));
        pool.submit(tx(3, 5)); // same tip as tx 1, arrived later
        let window = pool.collect(3);
        let senders: Vec<u64> = window.iter().map(sender_of).collect();
        assert_eq!(senders, vec![2, 1, 3]);
        assert!(pool.is_empty());
    }

    #[test]
    fn collect_respects_window_size() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        for i in 0..10 {
            pool.submit(tx(i, i));
        }
        let window = pool.collect(4);
        assert_eq!(window.len(), 4);
        assert_eq!(pool.len(), 6);
        // The collected four had the highest tips (9, 8, 7, 6).
        let min_collected_tip = window
            .iter()
            .map(|t| t.fees.effective_tip(Wei::from_gwei(1)))
            .min()
            .unwrap();
        assert_eq!(min_collected_tip, Wei::from_gwei(6));
    }

    #[test]
    fn unincludable_txs_are_parked() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(100));
        pool.submit(tx(1, 5)); // max fee 30 < base fee 100
        assert_eq!(pool.collect(10).len(), 0);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.op_stats().parked, 1);
        // Base fee falls; the parked transaction becomes collectable.
        pool.set_base_fee(Wei::from_gwei(1));
        assert_eq!(pool.collect(10).len(), 1);
    }

    #[test]
    fn tick_marks_block_boundaries() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        assert!(!pool.tick()); // t = 1
        assert!(pool.tick()); // t = 2, boundary
        assert!(!pool.tick());
        assert!(pool.tick());
        assert_eq!(pool.now(), 4);
    }

    /// The complexity witness: with a stable base fee, collecting a block
    /// performs exactly `block` heap pops and zero rebuilds, no matter how
    /// deep the pool is.
    #[test]
    fn collect_touches_the_block_not_the_pool() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        for i in 0..1000 {
            pool.submit(tx(i, i % 50));
        }
        let before = pool.op_stats();
        assert_eq!(before.rebuilds, 0, "stable fee: never rebuilt");
        for _ in 0..5 {
            assert_eq!(pool.collect(8).len(), 8);
        }
        let after = pool.op_stats();
        assert_eq!(after.heap_pops - before.heap_pops, 40);
        assert_eq!(after.rebuilds, 0);
        assert_eq!(
            after.heap_pushes, before.heap_pushes,
            "no re-insertion churn on the collect path"
        );
        // A fee change triggers exactly one lazy rebuild.
        pool.set_base_fee(Wei::from_gwei(2));
        pool.collect(1);
        assert_eq!(pool.op_stats().rebuilds, 1);
    }

    /// The reference semantics the index must reproduce, computed the way
    /// the legacy full-sort pool did: on every collect, sort all includable
    /// pending transactions by (effective tip desc, arrival asc) at the
    /// current base fee and hand out a prefix of that order.
    #[derive(Default)]
    struct ReferencePool {
        pending: Vec<(u64, NftTransaction)>,
        next_arrival: u64,
    }

    impl ReferencePool {
        fn submit(&mut self, t: NftTransaction) {
            self.pending.push((self.next_arrival, t));
            self.next_arrival += 1;
        }

        /// Removes and returns the longest prefix of the reference order
        /// whose every element `fits` accepts.
        fn collect_while(
            &mut self,
            base: Wei,
            mut fits: impl FnMut(&NftTransaction) -> bool,
        ) -> Vec<NftTransaction> {
            let mut order: Vec<(u64, NftTransaction)> = self
                .pending
                .iter()
                .copied()
                .filter(|(_, t)| t.fees.is_includable(base))
                .collect();
            order.sort_by(|(a_arr, a), (b_arr, b)| {
                b.fees
                    .effective_tip(base)
                    .cmp(&a.fees.effective_tip(base))
                    .then(a_arr.cmp(b_arr))
            });
            let keep = order.iter().take_while(|(_, t)| fits(t)).count();
            order.truncate(keep);
            self.pending
                .retain(|(arr, _)| !order.iter().any(|(taken, _)| taken == arr));
            order.into_iter().map(|(_, t)| t).collect()
        }

        fn collect(&mut self, base: Wei, n: usize) -> Vec<NftTransaction> {
            let mut left = n;
            self.collect_while(base, |_| {
                let fits = left > 0;
                left = left.saturating_sub(1);
                fits
            })
        }
    }

    /// Equivalence with the reference semantics: the indexed pool drains in
    /// exactly (tip desc, arrival asc) order across a fee change.
    #[test]
    fn drains_in_reference_order_across_fee_changes() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        let mut reference = ReferencePool::default();
        for (sender, tip) in [(1u64, 9u64), (2, 3), (3, 9), (4, 1), (5, 7), (6, 3)] {
            pool.submit(tx(sender, tip));
            reference.submit(tx(sender, tip));
        }
        // Mid-stream fee drift (still below every cap) re-keys the heap but
        // must not change the relative order for uniform fee bundles.
        pool.set_base_fee(Wei::from_gwei(2));
        assert_eq!(
            pool.collect(6),
            reference.collect(Wei::from_gwei(2), 6),
            "descending reference order"
        );
        assert!(pool.is_empty());
    }

    /// The indexed pool is a drop-in for the legacy full sort
    /// (`ReferencePool`): identical drain order across rounds of 25
    /// pseudo-random submissions, a base-fee change every third round and a
    /// partial `collect(7)` per round.
    #[test]
    fn legacy_and_indexed_pools_drain_identically() {
        let mut indexed = BedrockMempool::new(Wei::from_gwei(1));
        let mut legacy = ReferencePool::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut submitted = 0u64;
        let mut base = Wei::from_gwei(1);
        for round in 0..12 {
            for _ in 0..25 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = tx(submitted, x % 13);
                indexed.submit(t);
                legacy.submit(t);
                submitted += 1;
            }
            if round % 3 == 2 {
                base = Wei::from_gwei(1 + (round as u64 % 4));
                indexed.set_base_fee(base);
            }
            assert_eq!(
                indexed.collect(7),
                legacy.collect(base, 7),
                "round {round}: drain order diverged"
            );
            assert_eq!(indexed.len(), legacy.pending.len());
        }
        assert_eq!(indexed.collect(10_000), legacy.collect(base, 10_000));
        assert!(indexed.is_empty());
    }

    /// `collect_block` fills to the gas limit and leaves the first
    /// non-fitting transaction pooled without any re-insertion churn.
    #[test]
    fn collect_block_stops_at_gas_limit_without_churn() {
        use parole_ovm::GasSchedule;
        let schedule = GasSchedule::flat(100);
        let limit = parole_primitives::Gas::new(350);
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        let mut reference = ReferencePool::default();
        for i in 0..10 {
            pool.submit(tx(i, i % 4));
            reference.submit(tx(i, i % 4));
        }
        let pushes_before = pool.op_stats().heap_pushes;
        let block = pool.collect_block(&schedule, limit);
        assert_eq!(block.len(), 3, "three 100-gas txs fit under 350");
        assert_eq!(pool.len(), 7);
        assert_eq!(
            pool.op_stats().heap_pushes,
            pushes_before,
            "the non-fitting head is peeked, never popped and re-pushed"
        );
        // The block is the gas-fitting prefix of the reference order.
        let mut gas = 0;
        let want = reference.collect_while(Wei::from_gwei(1), |t| {
            gas += schedule.gas_for(&t.kind).units();
            gas <= limit.units()
        });
        assert_eq!(block, want);
    }

    /// Base-fee drift that cannot change any effective tip (every cap has
    /// headroom above its priority fee) is absorbed in O(1): no rebuild,
    /// no rescreen, order still exact.
    #[test]
    fn fee_drift_inside_stability_window_skips_rekey() {
        let mut pool = BedrockMempool::new(Wei::from_gwei(1));
        for i in 0..100 {
            pool.submit(tx(i, i % 10)); // caps 30 gwei, tips ≤ 9 gwei
        }
        // Saturation starts at 30 − 9 = 21 gwei; drift well below it.
        for fee in [2u64, 3, 5, 8, 13] {
            pool.set_base_fee(Wei::from_gwei(fee));
            assert_eq!(pool.collect(4).len(), 4);
        }
        let ops = pool.op_stats();
        assert_eq!(ops.rebuilds, 0, "no O(P) rekey inside the window");
        assert_eq!(ops.rekeys_skipped, 5);
        assert_eq!(ops.rescreened, 0);
        // Crossing the saturation point must rebuild (tips compress).
        pool.set_base_fee(Wei::from_gwei(25));
        let _ = pool.collect(1);
        assert_eq!(pool.op_stats().rebuilds, 1);
    }
}
