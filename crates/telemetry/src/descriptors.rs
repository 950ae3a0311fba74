//! Static metric registration: the canonical inventory of every metric the
//! pipeline records.
//!
//! Each recording site has a row in [`METRICS`] — name, kind, and a
//! one-line doc string. The inventory is plain `'static` data, so it is
//! available in no-op builds too, and tests pin two properties:
//!
//! - the table is sorted by name and duplicate-free (so [`describe`] can
//!   binary-search);
//! - every metric name a live pipeline run records resolves in the table
//!   with the kind it was recorded as (asserted by the `parole` crate's
//!   `pipeline_metrics` test and the state crate's telemetry tests), so a
//!   new recording site cannot ship unregistered.

/// What a metric's recorded values mean, mirroring the four recording
/// primitives of the crate root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` counter ([`counter`](crate::counter)).
    Counter,
    /// Log₂-bucketed `u64` histogram ([`observe`](crate::observe)).
    Histogram,
    /// Floating-point series ([`observe_f64`](crate::observe_f64)).
    FloatSeries,
    /// RAII-timed hierarchical span ([`span`](crate::span)).
    Span,
}

impl MetricKind {
    /// Short lowercase label for table dumps.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::FloatSeries => "float",
            MetricKind::Span => "span",
        }
    }
}

/// One registered metric: its wire name, kind, and doc string.
#[derive(Debug, Clone, Copy)]
pub struct MetricDescriptor {
    /// The `&'static str` name passed to the recording primitive.
    pub name: &'static str,
    /// Which primitive records it.
    pub kind: MetricKind,
    /// One-line human description.
    pub doc: &'static str,
}

const fn m(name: &'static str, kind: MetricKind, doc: &'static str) -> MetricDescriptor {
    MetricDescriptor { name, kind, doc }
}

use MetricKind::{Counter, FloatSeries, Histogram, Span};

/// Every metric the pipeline records, sorted by name.
///
/// Keep this table sorted and in sync with the recording sites; the unit
/// tests below and the `pipeline_metrics` coverage test enforce both.
pub const METRICS: &[MetricDescriptor] = &[
    m(
        "bloom.block_scans",
        Counter,
        "Blocks whose block bloom matched a log filter and had to be scanned",
    ),
    m(
        "bloom.block_skips",
        Counter,
        "Blocks pruned from log queries by the block-level bloom",
    ),
    m(
        "bloom.receipt_scans",
        Counter,
        "Receipts whose bloom matched a log filter and had their logs scanned",
    ),
    m(
        "bloom.receipt_skips",
        Counter,
        "Receipts pruned from log queries by the receipt-level bloom",
    ),
    m(
        "crypto.keccak256",
        Counter,
        "Keccak-256 digests finalized (one per hashed preimage, batched or not)",
    ),
    m(
        "crypto.keccak_f",
        Counter,
        "Keccak-f[1600] permutation invocations (one per absorbed or padded block)",
    ),
    m(
        "drl.episode_reward",
        FloatSeries,
        "Total reward per DQN training episode",
    ),
    m("drl.episodes", Counter, "DQN training episodes completed"),
    m(
        "drl.epsilon",
        FloatSeries,
        "Exploration rate at each episode end",
    ),
    m(
        "drl.replay_occupancy",
        Histogram,
        "Replay-buffer fill level sampled at each training step",
    ),
    m(
        "drl.run_episode",
        Span,
        "One full DQN episode: rollout plus training steps",
    ),
    m(
        "drl.steps",
        Counter,
        "Environment steps taken across all episodes",
    ),
    m(
        "drl.td_error",
        FloatSeries,
        "Mean absolute temporal-difference error per training step",
    ),
    m(
        "drl.train_steps",
        Counter,
        "Gradient/update steps performed on the Q-network",
    ),
    m(
        "events.blocks_indexed",
        Counter,
        "Blocks folded into a per-block log index",
    ),
    m(
        "events.emitted",
        Counter,
        "ERC-721 log entries emitted into receipts (committed operations only)",
    ),
    m(
        "events.queries",
        Counter,
        "Log-filter queries answered by a log index",
    ),
    m(
        "events.query_hits",
        Counter,
        "Log entries returned across all log-filter queries",
    ),
    m(
        "events.receipts_with_logs",
        Counter,
        "Receipts that carried at least one log entry",
    ),
    m(
        "fleet.cell",
        Span,
        "One (fleet size, threshold) cell of a fleet sweep",
    ),
    m("fleet.cells", Counter, "Fleet-sweep cells evaluated"),
    m(
        "fraud.bisection_games",
        Counter,
        "Interactive bisection challenge games played to settlement",
    ),
    m(
        "fraud.bisection_rounds",
        Histogram,
        "Bisection rounds (midpoint root queries) per interactive challenge",
    ),
    m(
        "fraud.defender_wins",
        Counter,
        "Interactive challenges settled in the defender's favour",
    ),
    m(
        "fraud.diverging_records",
        Histogram,
        "Diverging record openings found per confirmed single-step fraud",
    ),
    m(
        "fraud.fraud_confirmed",
        Counter,
        "Interactive challenges that confirmed fraud at the isolated step",
    ),
    m(
        "fraud.proof_bytes",
        Histogram,
        "Serialized size of each record opening verified at settlement",
    ),
    m(
        "fraud.record_proofs_verified",
        Counter,
        "Record-inclusion proofs checked against bare roots at settlement",
    ),
    m(
        "marketplace.listings_cancelled",
        Counter,
        "Open listings withdrawn by the current owner (ListingCancelled events)",
    ),
    m(
        "marketplace.listings_created",
        Counter,
        "Listings opened on the secondary market (Listed events)",
    ),
    m(
        "marketplace.royalty_wei_routed",
        Counter,
        "Wei routed to creators as sale royalties, summed over Sold events",
    ),
    m(
        "marketplace.sales_settled",
        Counter,
        "Secondary sales settled buyer-to-seller (Sold events)",
    ),
    m(
        "mdp.evaluate",
        Span,
        "One exhaustive MDP evaluation of a candidate window",
    ),
    m(
        "mdp.evaluations",
        Counter,
        "Candidate orderings evaluated by the exhaustive MDP search",
    ),
    m(
        "mempool.heap_pops",
        Counter,
        "Priority-heap pops (one per transaction handed to a collector)",
    ),
    m(
        "mempool.heap_pushes",
        Counter,
        "Priority-heap pushes (submissions plus rebuild re-insertions)",
    ),
    m(
        "mempool.parked",
        Counter,
        "Transactions parked with a fee cap below the base fee",
    ),
    m(
        "mempool.rebuilds",
        Counter,
        "Full index re-keys triggered by base-fee changes",
    ),
    m(
        "mempool.rescreened",
        Counter,
        "Entries re-screened across all index rebuilds",
    ),
    m(
        "ovm.prefix_checkpoint_hits",
        Counter,
        "Prefix-executor cache hits (shared prefix reused via checkpoint)",
    ),
    m(
        "ovm.prefix_checkpoint_misses",
        Counter,
        "Prefix-executor cache misses (no reusable shared prefix)",
    ),
    m(
        "ovm.prefix_evaluations",
        Counter,
        "Candidate sequences executed through the prefix executor",
    ),
    m(
        "ovm.prefix_execute",
        Span,
        "One prefix-cached execution of a candidate sequence",
    ),
    m(
        "ovm.prefix_replay_len",
        Histogram,
        "Transactions actually re-executed per prefix-cached evaluation",
    ),
    m(
        "ovm.prefix_slots_executed",
        Counter,
        "Transaction slots executed (cache could not skip them)",
    ),
    m(
        "ovm.prefix_slots_skipped",
        Counter,
        "Transaction slots skipped thanks to the shared prefix",
    ),
    m(
        "ovm.txs_executed",
        Counter,
        "Transactions executed by the OVM (any status)",
    ),
    m(
        "ovm.txs_reverted",
        Counter,
        "Transactions that reverted during OVM execution",
    ),
    m(
        "rollup.audit_trips",
        Counter,
        "Runtime-audit violations raised while processing batches",
    ),
    m(
        "rollup.batches_finalized",
        Counter,
        "Batches finalized on L1 after the challenge window",
    ),
    m(
        "rollup.batches_rejected",
        Counter,
        "Batches rejected before finalization (fraud proven)",
    ),
    m(
        "rollup.batches_submitted",
        Counter,
        "Batches submitted to the L1 inbox",
    ),
    m(
        "rollup.challenges",
        Counter,
        "Fraud-proof challenges opened against submitted batches",
    ),
    m(
        "rollup.challenges_rejected",
        Counter,
        "Challenges rejected (the challenged batch was honest)",
    ),
    m(
        "rollup.fraud_proven",
        Counter,
        "Challenges that proved fraud and rolled the batch back",
    ),
    m(
        "rollup.undetected_forgeries",
        Counter,
        "Forged batches that finalized unchallenged (lazy-validator window)",
    ),
    m(
        "sequencer.base_fee_gwei",
        FloatSeries,
        "EIP-1559-style base fee after each sealed block, in gwei",
    ),
    m(
        "sequencer.blocks_sealed",
        Counter,
        "L2 blocks sealed by the sequencer",
    ),
    m(
        "sequencer.gas_used",
        Histogram,
        "Gas consumed per sealed block",
    ),
    m(
        "sequencer.mempool_depth",
        Histogram,
        "Mempool depth sampled at each seal",
    ),
    m(
        "sequencer.seal_block",
        Span,
        "One sequencer block-seal cycle: select, execute, commit",
    ),
    m(
        "sequencer.txs_deferred",
        Counter,
        "Transactions deferred at seal time (unmet nonce/fee constraints)",
    ),
    m(
        "sequencer.txs_sealed",
        Counter,
        "Transactions included in sealed blocks",
    ),
    m(
        "state.coll_leaves_flushed",
        Histogram,
        "Collection headers re-derived per state-root flush (sub-root or supply moved)",
    ),
    m(
        "state.commit_builds",
        Counter,
        "Full O(n) commitment-cache builds (first state_root on a state)",
    ),
    m(
        "state.dirty_records",
        Histogram,
        "Dirty records (accounts + collections) pending per non-clean flush",
    ),
    m(
        "state.keccak_per_root",
        Histogram,
        "Keccak-256 digests computed per state_root() call",
    ),
    m(
        "state.leaves_derived",
        Histogram,
        "Clean top-level leaves re-hashed per state-root flush to re-derive a stored node",
    ),
    m(
        "state.leaves_flushed",
        Histogram,
        "Top-level leaves created/destroyed/re-hashed per state-root flush",
    ),
    m(
        "state.revert_depth",
        Histogram,
        "Journal entries undone per rollback",
    ),
    m(
        "state.reverts",
        Counter,
        "Undo-log rollbacks (revert_to calls that undid at least one entry)",
    ),
    m(
        "state.root",
        Span,
        "One state_root() call: cache build, dirty flush, or clean hit",
    ),
    m(
        "state.root_calls",
        Counter,
        "state_root() invocations (incremental path)",
    ),
    m(
        "state.root_clean_hits",
        Counter,
        "state_root() calls served from a clean cache (no re-hash)",
    ),
    m(
        "state.token_leaves_flushed",
        Histogram,
        "Token leaves created/destroyed/re-hashed across all collection sub-trees per flush",
    ),
];

/// Looks up the descriptor for a metric name (binary search over the
/// sorted table).
pub fn describe(name: &str) -> Option<&'static MetricDescriptor> {
    METRICS
        .binary_search_by(|d| d.name.cmp(name))
        .ok()
        .map(|i| &METRICS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_duplicate_free() {
        for pair in METRICS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "METRICS must stay sorted/unique: {:?} !< {:?}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn describe_resolves_every_registered_name() {
        for d in METRICS {
            let found = describe(d.name).expect("registered name resolves");
            assert_eq!(found.name, d.name);
            assert_eq!(found.kind, d.kind);
        }
        assert!(describe("no.such.metric").is_none());
    }

    #[test]
    fn docs_are_nonempty_single_line() {
        for d in METRICS {
            assert!(!d.doc.is_empty(), "{} has an empty doc", d.name);
            assert!(!d.doc.contains('\n'), "{} doc must be one line", d.name);
        }
    }
}
