//! Optimistic-concurrency parallel block execution (Block-STM-style OCC).
//!
//! The serial [`Ovm::execute_sequence`] path pays per transaction for
//! keccak hashing, ECDSA verification and constraint evaluation, all on one
//! core. This module runs the same block on a bounded pool of workers
//! ([`parole_par::parallel_map`]) and commits a result that is **bit
//! identical to the serial path at any thread count** — receipts, gas and
//! fee accounting, and the resulting state root.
//!
//! # How it works
//!
//! 1. **Speculate.** Transactions are dealt round-robin to the workers.
//!    Each worker forks the block-base state once (`L2State::fork`, sharing
//!    the commitment cache copy-on-write), arms undo-log journaling and
//!    read tracking, and runs its transactions *each against the pristine
//!    base*: checkpoint → execute → collect the receipt, the read set
//!    (recorded [`RecordKey`]s) and the write set (journal entries since
//!    the checkpoint) → revert. Speculation therefore never observes
//!    another transaction's effects, which is what makes its outcome
//!    independent of the worker partition and of scheduling.
//! 2. **Validate & commit, in transaction-index order.** A speculative run
//!    of transaction *i* is valid iff none of the records it read *or*
//!    wrote was written by a transaction committed before it
//!    (`key_sets_conflict`; write-write overlaps matter because nonces and
//!    balances are read-modify-write from base values). Valid runs commit
//!    through [`Ovm::apply_validated`], which skips signature checks and
//!    receipt hashing and re-runs the operation's one `apply` body; it
//!    panics if that re-run does not reproduce the speculative receipt's
//!    logs, so a broken premise is a loud scheduler bug. Invalidated runs
//!    are aborted and re-executed serially against the committed state,
//!    which by induction equals the serial state at that slot.
//!
//! The conflict domains are the commitment tree's leaves (account records,
//! collection headers, token leaves — see [`RecordKey`]). Every
//! transaction reads its collection's header (the bonding-curve price it
//! pays), and mints/burns write it (supply moves), so mint/burn traffic on
//! a hot collection degenerates toward serial — correctly so, since the
//! price each transaction pays depends on its predecessors. Transfer and
//! approval traffic on disjoint tokens and accounts commits clean.
//!
//! Determinism note: the serial fallback for `threads == 1` still runs the
//! full speculate/validate/commit pipeline (inline, no worker threads), so
//! per-transaction telemetry totals are identical at 1, 2 or N threads —
//! the cross-thread-count determinism contract the telemetry layer pins.

use crate::{NftTransaction, Ovm, Receipt};
use parole_par::parallel_map;
use parole_state::{key_sets_conflict, L2State, RecordKey};
use serde::Serialize;
use std::collections::BTreeSet;

/// One transaction's speculative outcome: its receipt plus the conflict
/// sets the validator needs.
#[derive(Debug)]
struct Speculation {
    receipt: Receipt,
    reads: BTreeSet<RecordKey>,
    writes: BTreeSet<RecordKey>,
}

/// Counters describing one [`ParallelExecutor::execute_block`] run.
///
/// All counts are deterministic functions of the base state and the
/// transaction order — never of the thread count (the determinism tests
/// pin this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ParallelStats {
    /// Transactions in the block.
    pub txs: u64,
    /// Worker threads the speculation phase ran on.
    pub workers: u64,
    /// Speculative executions performed (one per transaction).
    pub speculations: u64,
    /// Speculations that validated and committed through the cheap path.
    pub committed_clean: u64,
    /// Speculations invalidated by a conflict with an earlier commit.
    pub conflicts: u64,
    /// Serial re-executions of conflicted transactions (current policy:
    /// exactly one per conflict, performed at commit time).
    pub reexecutions: u64,
    /// Maximal runs of consecutive clean commits ("commit waves").
    pub waves: u64,
    /// Width of the widest commit wave.
    pub max_wave_width: u64,
}

/// The optimistic-concurrency block executor.
///
/// Stateless apart from configuration, like [`Ovm`] itself: every
/// [`ParallelExecutor::execute_block`] call takes the state it commits to.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    ovm: Ovm,
    threads: usize,
}

impl ParallelExecutor {
    /// An executor over `ovm` with the pool size taken from the
    /// `PAROLE_THREADS` environment variable (`0`/unset = the machine's
    /// available parallelism).
    pub fn new(ovm: Ovm) -> Self {
        Self::with_threads(ovm, parole_par::threads_from_env())
    }

    /// An executor with an explicit pool size (`0` = auto).
    pub fn with_threads(ovm: Ovm, threads: usize) -> Self {
        ParallelExecutor { ovm, threads }
    }

    /// The wrapped OVM.
    pub fn ovm(&self) -> &Ovm {
        &self.ovm
    }

    /// The configured pool size (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `txs` as one block against `state`, in parallel, with
    /// output bit-identical to `self.ovm().execute_sequence(state, txs)`.
    pub fn execute_block(
        &self,
        state: &mut L2State,
        txs: &[NftTransaction],
    ) -> (Vec<Receipt>, ParallelStats) {
        let _span = parole_telemetry::span("parallel.execute_block");
        parole_telemetry::counter("parallel.blocks", 1);
        let mut stats = ParallelStats {
            txs: txs.len() as u64,
            workers: 1,
            ..ParallelStats::default()
        };
        if txs.is_empty() {
            return (Vec::new(), stats);
        }

        // Phase 1: speculation against the immutable block base.
        let workers = effective_workers(self.threads, txs.len());
        stats.workers = workers as u64;
        stats.speculations = txs.len() as u64;
        parole_telemetry::counter("parallel.speculations", txs.len() as u64);
        let specs = self.speculate(state, txs, workers);

        // Phase 2: validation and commit in transaction-index order.
        let mut receipts = Vec::with_capacity(txs.len());
        let mut committed_writes: BTreeSet<RecordKey> = BTreeSet::new();
        let mut wave = 0u64;
        for (tx, spec) in txs.iter().zip(specs) {
            let conflict = key_sets_conflict(&spec.reads, &committed_writes)
                || key_sets_conflict(&spec.writes, &committed_writes);
            if conflict {
                stats.close_wave(&mut wave);
                stats.conflicts += 1;
                stats.reexecutions += 1;
                parole_telemetry::counter("parallel.conflicts", 1);
                parole_telemetry::counter("parallel.reexecutions", 1);
                // Abort: the speculative receipt is discarded and the
                // transaction re-executes serially against the committed
                // state (== the serial state at this slot).
                let receipt = self.ovm.execute(state, tx);
                committed_writes.append(&mut serial_write_set(state, tx, &receipt));
                receipts.push(receipt);
            } else {
                self.ovm.apply_validated(state, tx, &spec.receipt);
                stats.committed_clean += 1;
                wave += 1;
                let mut writes = spec.writes;
                committed_writes.append(&mut writes);
                receipts.push(spec.receipt);
            }
        }
        stats.close_wave(&mut wave);
        parole_telemetry::counter("parallel.txs_committed_clean", stats.committed_clean);

        (receipts, stats)
    }

    /// Runs every transaction against a fork of `base` on `workers` scoped
    /// threads, returning speculations in transaction order.
    ///
    /// Each worker forks once and amortizes the clone across its share of
    /// the block via checkpoint/revert — O(ops) per transaction instead of
    /// O(world). Which worker runs which transaction cannot influence the
    /// result: every run starts from the identical base image.
    fn speculate(
        &self,
        base: &L2State,
        txs: &[NftTransaction],
        workers: usize,
    ) -> Vec<Speculation> {
        let mut chunks: Vec<Vec<(usize, NftTransaction)>> = vec![Vec::new(); workers];
        for (i, tx) in txs.iter().enumerate() {
            chunks[i % workers].push((i, *tx));
        }

        let per_chunk: Vec<Vec<(usize, Speculation)>> =
            parallel_map(chunks, workers, |chunk: Vec<(usize, NftTransaction)>| {
                let mut fork = base.fork();
                fork.begin_recording();
                fork.begin_read_tracking();
                let cp = fork.checkpoint();
                chunk
                    .into_iter()
                    .map(|(i, tx)| {
                        let receipt = self.ovm.execute(&mut fork, &tx);
                        let mut writes = fork.touched_since(cp);
                        if receipt.is_success() {
                            add_header_write(&mut writes, &tx);
                        }
                        let reads = fork.take_read_set();
                        fork.revert_to(cp);
                        (
                            i,
                            Speculation {
                                receipt,
                                reads,
                                writes,
                            },
                        )
                    })
                    .collect()
            });

        let mut slots: Vec<Option<Speculation>> = txs.iter().map(|_| None).collect();
        for (i, spec) in per_chunk.into_iter().flatten() {
            slots[i] = Some(spec);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every tx speculated exactly once"))
            .collect()
    }
}

impl ParallelStats {
    /// Ends the current clean-commit wave, recording its width.
    fn close_wave(&mut self, wave: &mut u64) {
        if *wave > 0 {
            self.waves += 1;
            self.max_wave_width = self.max_wave_width.max(*wave);
            parole_telemetry::observe("parallel.commit_wave_width", *wave);
            *wave = 0;
        }
    }
}

/// Pool size for a block: explicit `threads` (0 = machine parallelism),
/// never more than the transaction count, never less than one.
fn effective_workers(threads: usize, txs: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    threads.min(txs).max(1)
}

/// The undo log's per-token entries do not say whether the operation moved
/// the supply counters; the transaction kind's [`crate::OpSpec`] does.
/// Kinds whose declared write domains include the collection header
/// (executed mints and burns reprice the collection) gain the header key.
fn add_header_write(writes: &mut BTreeSet<RecordKey>, tx: &NftTransaction) {
    crate::opspec::speculative_header_write(writes, tx);
}

/// Write set of a transaction just executed *serially*, derived statically
/// from its kind's [`crate::OpSpec`] write domains and the receipt (the
/// committed state is not journaled, so the undo log cannot supply it).
/// This is a conservative superset of the actual mutations — exactly the
/// keys the serial execution paths touch.
fn serial_write_set(
    state: &L2State,
    tx: &NftTransaction,
    receipt: &Receipt,
) -> BTreeSet<RecordKey> {
    let mut writes = BTreeSet::new();
    // Uniform nonce rule (+ fee burn): the sender record always moves.
    writes.insert(RecordKey::Acct(tx.sender));
    if !receipt.is_success() {
        return writes;
    }
    crate::opspec::success_write_keys(state, tx, receipt, &mut writes);
    writes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxKind;
    use parole_nft::CollectionConfig;
    use parole_primitives::{Address, TokenId, Wei};

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    /// A funded world with one collection and a few minted tokens.
    fn base_state() -> (L2State, Address) {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::limited_edition("PX", 64, 200));
        for u in 1..=16u64 {
            state.credit(addr(u), Wei::from_eth(10));
        }
        for t in 0..8u64 {
            state
                .nft_mint(pt, addr(t + 1), TokenId::new(t))
                .unwrap()
                .unwrap();
        }
        (state, pt)
    }

    fn transfer(sender: u64, token: u64, to: u64, pt: Address) -> NftTransaction {
        NftTransaction::simple(
            addr(sender),
            TxKind::Transfer {
                collection: pt,
                token: TokenId::new(token),
                to: addr(to),
            },
        )
    }

    #[test]
    fn disjoint_transfers_commit_clean() {
        let (base, pt) = base_state();
        let txs: Vec<_> = (0..4u64).map(|t| transfer(t + 1, t, t + 9, pt)).collect();

        let mut serial = base.clone();
        let want = Ovm::new().execute_sequence(&mut serial, &txs);

        let mut state = base.clone();
        let exec = ParallelExecutor::with_threads(Ovm::new(), 2);
        let (got, stats) = exec.execute_block(&mut state, &txs);

        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(stats.committed_clean, 4);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(stats.waves, 1);
        assert_eq!(stats.max_wave_width, 4);
    }

    #[test]
    fn same_sender_txs_conflict_and_still_match_serial() {
        let (base, pt) = base_state();
        // Same sender: the nonce record is write-write shared, so every
        // later tx must abort and re-execute.
        let txs = vec![transfer(1, 0, 9, pt), transfer(1, 7, 10, pt)];

        let mut serial = base.clone();
        let want = Ovm::new().execute_sequence(&mut serial, &txs);

        let mut state = base.clone();
        let (got, stats) =
            ParallelExecutor::with_threads(Ovm::new(), 2).execute_block(&mut state, &txs);

        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(stats.conflicts, 1);
    }

    #[test]
    fn mint_repricing_conflicts_with_later_transfer() {
        let (base, pt) = base_state();
        let mint = NftTransaction::simple(
            addr(3),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(20),
            },
        );
        // The transfer pays the post-mint price serially; its speculation
        // observed the pre-mint price and must be invalidated.
        let txs = vec![mint, transfer(1, 0, 9, pt)];

        let mut serial = base.clone();
        let want = Ovm::new().execute_sequence(&mut serial, &txs);

        let mut state = base.clone();
        let (got, stats) =
            ParallelExecutor::with_threads(Ovm::new(), 2).execute_block(&mut state, &txs);

        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(
            stats.conflicts, 1,
            "price read must conflict with supply write"
        );
    }

    #[test]
    fn racing_buys_of_one_listing_conflict_and_match_serial() {
        let (mut base, pt) = base_state();
        base.nft_list(pt, addr(1), TokenId::new(0), Wei::from_eth(1))
            .unwrap()
            .unwrap();
        // Two buyers race for the same ask: serially the first takes the
        // token and the second reverts NotListed. The loser's speculation
        // observed a live listing and must be invalidated, never settled.
        let buy = |who: u64| {
            NftTransaction::simple(
                addr(who),
                TxKind::Buy {
                    collection: pt,
                    token: TokenId::new(0),
                },
            )
        };
        let txs = vec![buy(9), buy(10)];

        let mut serial = base.clone();
        let want = Ovm::new().execute_sequence(&mut serial, &txs);
        assert!(want[0].is_success());
        assert!(!want[1].is_success());

        let mut state = base.clone();
        let (got, stats) =
            ParallelExecutor::with_threads(Ovm::new(), 2).execute_block(&mut state, &txs);

        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(stats.conflicts, 1, "second buy raced the token leaf");
        // Exactly one payment settled: the seller banked one ask.
        assert_eq!(
            state.balance_of(addr(1)),
            base.balance_of(addr(1)) + Wei::from_eth(1)
                - state
                    .collection(pt)
                    .unwrap()
                    .royalty_amount(TokenId::new(0), Wei::from_eth(1))
        );
    }

    #[test]
    fn listing_next_to_disjoint_transfer_commits_clean() {
        let (base, pt) = base_state();
        let list = NftTransaction::simple(
            addr(2),
            TxKind::List {
                collection: pt,
                token: TokenId::new(1),
                price: Wei::from_eth(2),
            },
        );
        let txs = vec![list, transfer(3, 2, 9, pt)];

        let mut serial = base.clone();
        let want = Ovm::new().execute_sequence(&mut serial, &txs);
        assert!(want.iter().all(|r| r.is_success()));

        let mut state = base.clone();
        let (got, stats) =
            ParallelExecutor::with_threads(Ovm::new(), 2).execute_block(&mut state, &txs);
        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(
            stats.conflicts, 0,
            "a listing touches only its own token leaf"
        );
    }

    /// A clean commit re-runs the op's `apply` body under the validation
    /// premise; when the premise no longer holds (the token moved after
    /// speculation), the commit must panic rather than absorb the change.
    #[test]
    #[should_panic(expected = "validated speculation of tx")]
    fn clean_commit_with_a_broken_premise_panics() {
        let (base, pt) = base_state();
        let tx = transfer(1, 0, 9, pt);
        let ovm = Ovm::new();
        let speculative = ovm.execute(&mut base.clone(), &tx);
        assert!(speculative.is_success());

        let mut state = base;
        state
            .nft_transfer(pt, addr(1), addr(2), TokenId::new(0))
            .unwrap()
            .unwrap();
        ovm.apply_validated(&mut state, &tx, &speculative);
    }

    /// The same when the re-run still succeeds but emits other events: a
    /// mint after another mint logs a different `PriceChanged`.
    #[test]
    #[should_panic(expected = "validated speculation of tx")]
    fn clean_commit_with_different_logs_panics() {
        let (base, pt) = base_state();
        let mint = |sender: u64, token: u64| {
            NftTransaction::simple(
                addr(sender),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(token),
                },
            )
        };
        let ovm = Ovm::new();
        let speculative = ovm.execute(&mut base.clone(), &mint(3, 20));
        assert!(speculative.is_success());

        let mut state = base;
        assert!(ovm.execute(&mut state, &mint(4, 21)).is_success());
        ovm.apply_validated(&mut state, &mint(3, 20), &speculative);
    }

    #[test]
    fn empty_block_is_a_noop() {
        let (base, _) = base_state();
        let mut state = base.clone();
        let (receipts, stats) =
            ParallelExecutor::with_threads(Ovm::new(), 4).execute_block(&mut state, &[]);
        assert!(receipts.is_empty());
        assert_eq!(stats.txs, 0);
        assert_eq!(state.state_root(), base.state_root());
    }
}
