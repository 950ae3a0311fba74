//! End-to-end telemetry coverage: one attack round through every
//! instrumented layer (rollup deposits and batches, the sequencer with its
//! log index, GENTRANSEQ training, a fleet sweep), recorded at fleet pool
//! sizes 1, 2 and 8. It checks that:
//!
//! - every counter, histogram, float series and span the run records is
//!   registered in `METRICS` with the kind it was recorded as;
//! - counters and histograms are identical at every pool size (the fleet is
//!   the only multi-threaded stage, and its outcome is pool-size-invariant);
//! - the pipeline lit up end to end, and the span tree exports as
//!   Chrome-trace JSON and as folded flamegraph stacks.
//!
//! Run with `-- --nocapture` to print the recorded span tree.
//!
//! This file holds exactly one `#[test]` on purpose: the registry is
//! process-global, and a single-test integration binary is the isolation
//! unit that keeps concurrent test runners from interleaving recordings.

#![cfg(feature = "telemetry")]

use parole::fleet::{run_fleet, FleetConfig};
use parole::{GentranseqModule, ParoleModule, ParoleStrategy};
use parole_mempool::{BedrockMempool, Sequencer, WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{LogFilter, NftTransaction, TxKind};
use parole_primitives::{Address, AggregatorId, Gas, TokenId, Wei};
use parole_rollup::{Aggregator, RollupConfig, RollupContract};
use parole_telemetry as tel;
use serde::Value;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// One full attack round through every instrumented layer, with the fleet
/// sweep at the given pool size.
fn run_workload(threads: usize) {
    let mut rollup = RollupContract::new(RollupConfig::default());
    let collection = rollup
        .l2_state_for_setup()
        .deploy_collection(CollectionConfig::limited_edition("TEL", 60, 500));
    let users: Vec<Address> = (1..=10u64).map(Address::from_low_u64).collect();
    let ifu = Address::from_low_u64(7_777);
    rollup.commit_setup();
    for &u in &users {
        rollup.deposit(u, Wei::from_eth(40)).unwrap();
    }
    rollup.deposit(ifu, Wei::from_eth(40)).unwrap();

    // Honest seed batch so the IFU and a few users hold tokens.
    rollup.bond_aggregator(AggregatorId::new(0));
    let mut setup = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
    let seed_txs: Vec<_> = [ifu, ifu, users[0], users[1]]
        .iter()
        .enumerate()
        .map(|(i, &owner)| {
            NftTransaction::simple(
                owner,
                TxKind::Mint {
                    collection,
                    token: TokenId::new(i as u64),
                },
            )
        })
        .collect();
    let batch = setup.build_batch(rollup.l2_state(), seed_txs);
    rollup.submit_batch(batch).unwrap();
    rollup.finalize_all();

    // Sequencer: generated traffic through the Bedrock mempool, sealed and
    // executed on a scratch copy of the chain, with the log index on.
    let mut generator = WorkloadGenerator::new(
        3,
        WorkloadConfig {
            ifu_participation: 0.35,
            ..WorkloadConfig::default()
        },
    );
    let traffic = generator.generate(rollup.l2_state(), collection, &users, &[ifu], 16);
    let mut pool = BedrockMempool::new(Wei::from_gwei(1));
    pool.submit_all(traffic);
    let mut sequencer = Sequencer::new(pool, Gas::new(2_000_000)).with_log_index(true);
    let mut scratch = rollup.l2_state().clone();
    let (block, receipts) = sequencer.seal_and_execute(&mut scratch, None);
    let emitted: usize = receipts.iter().map(|r| r.logs.len()).sum();
    assert_eq!(sequencer.query_logs(&LogFilter::all()).len(), emitted);

    // Adversarial GENTRANSEQ batch over the sealed window (DRL training +
    // prefix-cached OVM evaluation), finalized on the simulated L1.
    rollup.bond_aggregator(AggregatorId::new(1));
    let strategy = ParoleStrategy::new(ParoleModule::new(GentranseqModule::fast()), vec![ifu]);
    let mut adversary =
        Aggregator::new(AggregatorId::new(1), Wei::from_eth(10), Box::new(strategy));
    let batch = adversary.build_batch(rollup.l2_state(), block.txs);
    rollup.submit_batch(batch).unwrap();
    rollup.finalize_all();
    assert_eq!(rollup.undetected_forgeries(), 0);

    // Fleet sweep: the only multi-threaded stage.
    let outcome = run_fleet(&FleetConfig {
        threads,
        n_aggregators: 4,
        adversarial_fraction: 0.5,
        mempool_size: 10,
        rounds: 1,
        gentranseq: GentranseqModule::fast(),
        ..FleetConfig::default()
    });
    std::hint::black_box(outcome);
}

/// Total activations of a span name anywhere in the merged tree.
fn span_count(nodes: &[tel::SpanNode], name: &str) -> u64 {
    nodes
        .iter()
        .map(|n| (if n.name == name { n.count } else { 0 }) + span_count(&n.children, name))
        .sum()
}

/// Every name `snap` recorded resolves in `METRICS` with the kind it was
/// recorded as.
fn assert_registered(snap: &tel::MetricsSnapshot) {
    fn check(name: &str, want: tel::MetricKind) {
        let d = tel::describe(name)
            .unwrap_or_else(|| panic!("metric {name} recorded but not registered"));
        assert_eq!(
            d.kind,
            want,
            "metric {name} registered as {} but recorded as {}",
            d.kind.label(),
            want.label()
        );
    }
    fn walk(nodes: &[tel::SpanNode]) {
        for n in nodes {
            check(&n.name, tel::MetricKind::Span);
            walk(&n.children);
        }
    }
    for name in snap.counters.keys() {
        check(name, tel::MetricKind::Counter);
    }
    for name in snap.histograms.keys() {
        check(name, tel::MetricKind::Histogram);
    }
    for name in snap.floats.keys() {
        check(name, tel::MetricKind::FloatSeries);
    }
    walk(&snap.spans);
}

/// Number of entries in the `traceEvents` array of a Chrome trace.
fn trace_event_count(trace: &str) -> usize {
    let parsed: Value = serde_json::from_str(trace).expect("Chrome trace must be valid JSON");
    let Value::Map(entries) = parsed else {
        panic!("Chrome trace must be a JSON object");
    };
    entries
        .iter()
        .find_map(|(k, v)| match (k, v) {
            (Value::Str(name), Value::Seq(events)) if name == "traceEvents" => Some(events.len()),
            _ => None,
        })
        .expect("Chrome trace must carry a traceEvents array")
}

#[test]
fn pipeline_metrics_are_registered_and_pool_size_invariant() {
    let snaps: Vec<tel::MetricsSnapshot> = POOL_SIZES
        .iter()
        .map(|&threads| {
            tel::reset();
            run_workload(threads);
            tel::snapshot()
        })
        .collect();
    tel::reset();
    snaps.iter().for_each(assert_registered);

    let base = &snaps[0];
    for (snap, threads) in snaps.iter().zip(POOL_SIZES).skip(1) {
        assert_eq!(
            snap.counters, base.counters,
            "counters diverged at pool size {threads}"
        );
        assert_eq!(
            snap.histograms, base.histograms,
            "histograms diverged at pool size {threads}"
        );
    }

    for name in [
        "sequencer.blocks_sealed",
        "state.root_calls",
        "ovm.txs_executed",
        "rollup.batches_submitted",
        "drl.episodes",
        "fleet.cells",
        "crypto.keccak256",
    ] {
        assert!(base.counter(name) > 0, "counter {name} never incremented");
    }
    for span in ["sequencer.seal_block", "state.root"] {
        assert!(span_count(&base.spans, span) > 0, "span {span} missing");
    }

    assert!(trace_event_count(&tel::chrome_trace_json(base)) > 0);
    assert!(!tel::flamegraph_collapsed(base).is_empty());

    println!("{}", base.span_tree_text());
}
