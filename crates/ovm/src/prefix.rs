//! Prefix-cached incremental sequence execution.
//!
//! The GENTRANSEQ reorder search evaluates thousands of candidate orderings
//! of the *same* transaction window, and consecutive candidates differ only
//! by a swap of two positions: a swap of positions `(i, j)` leaves execution
//! identical up to `min(i, j)`. [`PrefixExecutor`] exploits that by keeping
//! one journaled working state plus a checkpoint before every slot; the
//! next evaluation reverts to the checkpoint at the divergence point and
//! replays only the suffix, instead of cloning the world and replaying the
//! whole window from scratch.
//!
//! Receipts and the post-state are bit-identical to
//! [`Ovm::simulate_sequence`] — the equivalence proptests in `parole`
//! (`tests/prefix_equivalence.rs`) pin that down.

use crate::{NftTransaction, Ovm, Receipt};
use parole_state::{Checkpoint, L2State};

/// Cumulative work counters, used by the benchmarks to report how much
/// replay the cache avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Sequences evaluated.
    pub evaluations: u64,
    /// Transaction slots actually executed.
    pub slots_executed: u64,
    /// Slots skipped because they were still valid from the previous
    /// evaluation (naive execution would have replayed them).
    pub slots_skipped: u64,
}

/// Incremental executor for repeated evaluations of reorderings of one
/// transaction window against one base state.
///
/// The working state records an undo journal (see `parole-state`);
/// `marks[k]` is the journal [`Checkpoint`] taken *before* slot `k`
/// executed, so reverting to it yields exactly the state after slots
/// `0..k`.
#[derive(Debug)]
pub struct PrefixExecutor {
    ovm: Ovm,
    /// The journaled working state; always positioned at the end of the
    /// most recently executed sequence.
    work: L2State,
    /// The previously executed sequence.
    prev: Vec<NftTransaction>,
    /// Receipts of `prev`, slot for slot.
    receipts: Vec<Receipt>,
    /// `marks[k]` is the checkpoint before slot `k`, for `k` in
    /// `0..=prev.len()`: `marks[0]` is the base, and the last one sits at
    /// the end of `prev` so re-evaluating an identical sequence replays
    /// nothing.
    marks: Vec<Checkpoint>,
    stats: PrefixStats,
}

impl PrefixExecutor {
    /// Builds an executor over its own journaled copy of `base`.
    pub fn new(ovm: Ovm, base: &L2State) -> Self {
        let mut work = base.clone();
        work.begin_recording();
        let base = work.checkpoint();
        PrefixExecutor {
            ovm,
            work,
            prev: Vec::new(),
            receipts: Vec::new(),
            marks: vec![base],
            stats: PrefixStats::default(),
        }
    }

    /// Executes `seq`, reusing the longest still-valid prefix of the
    /// previous evaluation, and returns the receipts (slot for slot) and the
    /// post-execution state. Equivalent to
    /// `Ovm::simulate_sequence(base, seq)` but with only the diverged
    /// suffix replayed.
    pub fn execute(&mut self, seq: &[NftTransaction]) -> (&[Receipt], &L2State) {
        let _span = parole_telemetry::span("ovm.prefix_execute");
        // Divergence point: the longest common prefix with the previous
        // sequence (`NftTransaction` is `Copy + PartialEq`, so this is a
        // plain field comparison, not a hash).
        let resume = self
            .prev
            .iter()
            .zip(seq)
            .take_while(|(a, b)| *a == *b)
            .count();

        // A "hit" means some prefix survived: the search paid for replaying
        // strictly less than the full window.
        if resume > 0 {
            parole_telemetry::counter("ovm.prefix_checkpoint_hits", 1);
        } else {
            parole_telemetry::counter("ovm.prefix_checkpoint_misses", 1);
        }
        parole_telemetry::observe("ovm.prefix_replay_len", (seq.len() - resume) as u64);
        self.work.revert_to(self.marks[resume]);
        self.marks.truncate(resume + 1);
        self.receipts.truncate(resume);

        // Replay the suffix, marking the end of every slot; the last mark
        // lets an identical re-evaluation replay nothing.
        for tx in &seq[resume..] {
            self.receipts.push(self.ovm.execute(&mut self.work, tx));
            self.marks.push(self.work.checkpoint());
        }

        self.prev.clear();
        self.prev.extend_from_slice(seq);
        self.stats.evaluations += 1;
        self.stats.slots_executed += (seq.len() - resume) as u64;
        self.stats.slots_skipped += resume as u64;
        parole_telemetry::counter("ovm.prefix_evaluations", 1);
        parole_telemetry::counter("ovm.prefix_slots_executed", (seq.len() - resume) as u64);
        parole_telemetry::counter("ovm.prefix_slots_skipped", resume as u64);
        (&self.receipts, &self.work)
    }

    /// Cumulative work counters since construction.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }
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

    /// Case-study-like fixture plus a window mixing mints, transfers, burns
    /// and guaranteed reverts.
    fn fixture() -> (L2State, Vec<NftTransaction>) {
        let mut state = L2State::new();
        let pt = state.deploy_collection(CollectionConfig::parole_token());
        for u in 1..=4 {
            state.credit(addr(u), Wei::from_eth(2));
        }
        for i in 0..4 {
            state
                .nft_mint(pt, addr(i + 1), TokenId::new(i))
                .unwrap()
                .unwrap();
        }
        let window = vec![
            NftTransaction::simple(
                addr(1),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(4),
                },
            ),
            NftTransaction::simple(
                addr(2),
                TxKind::Transfer {
                    collection: pt,
                    token: TokenId::new(1),
                    to: addr(3),
                },
            ),
            NftTransaction::simple(
                addr(3),
                TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(2),
                },
            ),
            // Reverts: not the owner.
            NftTransaction::simple(
                addr(4),
                TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(0),
                },
            ),
            NftTransaction::simple(
                addr(4),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(5),
                },
            ),
            NftTransaction::simple(
                addr(3),
                TxKind::Transfer {
                    collection: pt,
                    token: TokenId::new(1),
                    to: addr(1),
                },
            ),
        ];
        (state, window)
    }

    #[test]
    fn matches_naive_simulation_across_swaps() {
        let (base, mut seq) = fixture();
        let ovm = Ovm::new();
        let mut exec = PrefixExecutor::new(ovm.clone(), &base);
        let swaps = [(0, 3), (2, 5), (1, 2), (0, 5), (3, 4), (2, 5), (0, 1)];
        for &(i, j) in &swaps {
            seq.swap(i, j);
            let (naive_receipts, naive_state) = ovm.simulate_sequence(&base, &seq);
            let (receipts, state) = exec.execute(&seq);
            assert_eq!(receipts, naive_receipts.as_slice());
            assert_eq!(state, &naive_state);
        }
    }

    #[test]
    fn identical_sequences_replay_nothing() {
        let (base, seq) = fixture();
        let mut exec = PrefixExecutor::new(Ovm::new(), &base);
        exec.execute(&seq);
        let executed_before = exec.stats().slots_executed;
        exec.execute(&seq);
        assert_eq!(exec.stats().slots_executed, executed_before);
        assert_eq!(exec.stats().slots_skipped, seq.len() as u64);
    }

    #[test]
    fn late_swaps_replay_only_the_suffix() {
        let (base, mut seq) = fixture();
        let mut exec = PrefixExecutor::new(Ovm::new(), &base);
        exec.execute(&seq);
        seq.swap(4, 5);
        exec.execute(&seq);
        // Slots 0..4 were reused, only 4 and 5 replayed.
        assert_eq!(exec.stats().slots_executed, (seq.len() + 2) as u64);
    }
}
