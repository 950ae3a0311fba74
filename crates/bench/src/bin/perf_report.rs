//! Performance report for the measured optimizations, written to
//! `target/experiments/`.
//!
//! Nine sections, selectable by the first CLI argument (`pr1`,
//! `state-root`, `nft-flush`, `parallel-exec`, `fraud-proof`, `traffic`,
//! `marketplace`, `observability` or `metrics`; no argument runs all):
//!
//! **`pr1`** (→ `BENCH_PR1.json`):
//!
//! 1. **Window evaluation throughput** — `ReorderEnv::step` rate (candidate
//!    orderings per second) with the naive clone-and-replay evaluator vs the
//!    prefix-cached one, at windows of 10 and 20 transactions.
//! 2. **Fleet wall-clock** — `run_fleet` at 1 worker thread vs the machine's
//!    parallelism, asserting the outcomes are bit-identical.
//! 3. **DQN minibatch update** — `train_step` time with the batched
//!    forward/backward paths at the paper's batch size.
//!
//! **`state-root`** (→ `BENCH_PR3.json`): full from-scratch state-root
//! rebuild vs the dirty-tracked incremental flush, across world sizes and
//! dirty-set sizes, asserting the two roots stay bit-identical.
//!
//! **`nft-flush`** (→ `BENCH_PR5.json`): single-token-op flush cost under
//! the hierarchical commitment (one token leaf + O(log n) sub-tree nodes +
//! the collection header) vs the retired flat `coll_leaf` rehash that
//! re-absorbed the whole ownership list, at 10³–10⁵ active tokens;
//! asserts ≥ 50× at 10⁴ tokens and that the hierarchical root matches the
//! naive oracle.
//!
//! **`parallel-exec`** (→ `BENCH_PR6.json`): optimistic-concurrency block
//! execution ([`parole_ovm::ParallelExecutor`]) vs serial
//! `execute_sequence`, at 1/2/4/8 worker threads, on conflict-sparse
//! signed/unsigned 1k-transaction blocks and a conflict-dense hot-mint
//! block, recording conflict/abort counts; asserts bit-identical receipts
//! and roots on every row and ≥ 2× at 4 threads for the signed sparse
//! workload on machines with ≥ 4 cores.
//!
//! **`fraud-proof`** (→ `BENCH_PR7.json`): the interactive fraud-proof
//! game end to end. Records (a) stateless inclusion-proof sizes (sibling
//! depth and wire bytes) across world sizes, asserting O(log n) growth,
//! and (b) for forged `2^k`-transaction batches, that bisection isolates
//! the forged step in exactly `k` rounds and single-step settlement —
//! one transaction re-executed, record openings checked against a bare
//! 32-byte root — convicts the forger orders of magnitude cheaper than
//! whole-batch re-execution.
//!
//! **`traffic`** (→ `BENCH_PR8.json`): the sustained-traffic hot-path
//! benchmark. Replays one deterministic Zipf-skewed schedule (10⁶ accounts
//! and 2·10³ collections at full scale) over a standing 10⁵-transaction
//! backlog through mempool → sequencer → OVM → per-block state root. The
//! baseline row is the pre-PR system (BTreeMap state + the full-sort
//! mempool), measured in the same process via knobs; further rows ablate
//! the state backend, the mempool variant and serial vs parallel
//! execution. Records blocks/sec, p99 latency and per-phase totals per
//! row; asserts every row lands on the same final root as the naive
//! oracle, the pool counters witness each variant's contract, and (full
//! scale) that the arena + indexed system seals ≥ 2× faster than the
//! baseline.
//!
//! **`marketplace`** (→ `BENCH_PR10.json`): the marketplace agent mix —
//! one deterministic Zipf-skewed mint/list/buy/cancel/transfer/burn
//! schedule through the same sustained-traffic pipeline, serial and at
//! 2/8 OCC threads (bit-identical roots asserted), with a transfer-only
//! reference row; asserts (full scale) the mix holds ≥ 85% of
//! transfer-only block throughput.
//!
//! **`observability`** (→ `BENCH_PR9.json`, `TRACE_PR9.trace.json`,
//! `FLAME_PR9.folded`): the chain-level observability overhead row —
//! identical traffic runs with the sequencer's queryable per-block log
//! index off vs on (event emission and per-receipt blooms are
//! unconditional), asserting the indexed run answers the Transfer smoke
//! query exactly and (full scale) stays within 10% of the baseline
//! throughput — plus the recorded span tree exported as
//! Chrome-trace/Perfetto JSON and collapsed-stack flamegraph input.
//!
//! `metrics --list` dumps the static metric inventory and exits.
//!
//! **`metrics`** (→ `BENCH_PR4.json`, requires `--features telemetry`): runs
//! one end-to-end attack round — traffic → sequencer seal → GENTRANSEQ
//! adversarial batch → rollup finalization → fleet sweep — at 1, 2 and 8
//! fleet threads, asserts every counter and histogram is bit-identical
//! across thread counts, prints the flamegraph-style span tree, and records
//! the full metrics snapshot.

use parole::fleet::{run_fleet, FleetConfig};
use parole::{ActionSpace, EvalConfig, GentranseqModule, ReorderEnv, RewardConfig};
use parole_bench::economy::Economy;
use parole_bench::report::write_json;
use parole_bench::traffic::{generate_blocks, run_traffic, TrafficConfig, TrafficRun};
use parole_drl::{DqnAgent, DqnConfig, Environment, Transition};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm};
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct EvalThroughput {
    window: usize,
    steps: usize,
    naive_evals_per_sec: f64,
    cached_evals_per_sec: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct FleetTiming {
    rounds: usize,
    aggregators: usize,
    single_thread_ms: f64,
    pooled_ms: f64,
    speedup: f64,
    outcomes_identical: bool,
}

#[derive(Serialize)]
struct TrainTiming {
    batch_size: usize,
    updates: usize,
    mean_update_us: f64,
}

#[derive(Serialize)]
struct Report {
    eval_throughput: Vec<EvalThroughput>,
    fleet: FleetTiming,
    train_step: TrainTiming,
}

fn time_env_steps(eval: EvalConfig, window_len: usize, steps: usize) -> f64 {
    // Rich background state: the naive evaluator clones all of it per
    // candidate; the journaled evaluator touches only what the window does.
    let economy = Economy::build(window_len, 1, 1).with_background(10_000, 16);
    let window = economy.window(window_len, 1);
    let mut env = ReorderEnv::with_eval_config(
        economy.state.clone(),
        window,
        economy.ifus.clone(),
        RewardConfig::default(),
        ActionSpace::AllPairs,
        eval,
    );
    env.reset();
    let actions = env.action_count();
    // Warm-up pass so the cached variant's first full replay is off-clock.
    for a in 0..actions.min(16) {
        env.step(a);
    }
    let start = Instant::now();
    let mut a = 0usize;
    for _ in 0..steps {
        a = (a + 7) % actions;
        env.step(a);
    }
    steps as f64 / start.elapsed().as_secs_f64()
}

#[derive(Serialize)]
struct StateRootTiming {
    accounts: usize,
    collections: usize,
    dirty: usize,
    full_rebuild_us: f64,
    incremental_flush_us: f64,
    speedup: f64,
    roots_identical: bool,
}

#[derive(Serialize)]
struct Pr3Report {
    state_root: Vec<StateRootTiming>,
}

/// A funded world with seeded NFT holdings, shaped like the fleet
/// experiments' background state.
fn rich_state(accounts: usize, collections: usize) -> L2State {
    let mut state = L2State::new();
    for i in 0..accounts as u64 {
        state.credit(Address::from_low_u64(i + 1), Wei::from_gwei(i + 1));
    }
    for k in 0..collections as u64 {
        let coll = state.deploy_collection(CollectionConfig::limited_edition("PR", 64, 100));
        for t in 0..8u64 {
            state
                .nft_mint(
                    coll,
                    Address::from_low_u64((k * 8 + t) % accounts as u64 + 1),
                    TokenId::new(t),
                )
                .unwrap()
                .unwrap();
        }
    }
    state
}

fn measure_state_root(accounts: usize, dirty: usize) -> StateRootTiming {
    let collections = 16;
    let mut state = rich_state(accounts, collections);

    // Full from-scratch rebuild cost.
    let reps = (200_000 / accounts).clamp(3, 50);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(state.state_root_naive());
    }
    let full_rebuild_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    // Incremental flush cost: mutate `dirty` distinct accounts, then one
    // root read that re-derives exactly those leaves.
    let _ = state.state_root(); // materialize the cache
    let flushes = 200u64;
    let start = Instant::now();
    for round in 0..flushes {
        for d in 0..dirty as u64 {
            state.credit(
                Address::from_low_u64((round * dirty as u64 + d) % accounts as u64 + 1),
                Wei::from_wei(1),
            );
        }
        std::hint::black_box(state.state_root());
    }
    let incremental_flush_us = start.elapsed().as_secs_f64() * 1e6 / flushes as f64;

    StateRootTiming {
        accounts,
        collections,
        dirty,
        full_rebuild_us,
        incremental_flush_us,
        speedup: full_rebuild_us / incremental_flush_us,
        roots_identical: state.state_root() == state.state_root_naive(),
    }
}

fn run_state_root_section() {
    let mut rows = Vec::new();
    for &accounts in &[1_000usize, 10_000, 100_000] {
        for &dirty in &[1usize, 16, 64] {
            let t = measure_state_root(accounts, dirty);
            println!(
                "state_root {:>6} accts, {:>2} dirty: full {:>9.1} us | incremental {:>7.2} us | {:>6.0}x | identical: {}",
                t.accounts, t.dirty, t.full_rebuild_us, t.incremental_flush_us, t.speedup,
                t.roots_identical
            );
            assert!(
                t.roots_identical,
                "incremental root diverged from the naive rebuild"
            );
            rows.push(t);
        }
    }
    write_json("BENCH_PR3", &Pr3Report { state_root: rows });
}

#[derive(Serialize)]
struct NftFlushTiming {
    active_tokens: usize,
    flat_rehash_us: f64,
    hierarchical_flush_us: f64,
    speedup: f64,
    roots_identical: bool,
}

#[derive(Serialize)]
struct Pr5Report {
    nft_flush: Vec<NftFlushTiming>,
}

/// One row of the hierarchical-commitment benchmark: a collection with
/// `tokens` active tokens, measuring what a *single* token op costs to
/// commit under the flat scheme (re-hash the whole ownership list) vs the
/// two-level scheme (one token leaf, O(log n) sub-tree nodes, one header).
fn measure_nft_flush(tokens: usize) -> NftFlushTiming {
    let mut state = L2State::new();
    for i in 0..64u64 {
        state.credit(Address::from_low_u64(i + 1), Wei::from_gwei(i + 1));
    }
    let coll_addr =
        state.deploy_collection(CollectionConfig::limited_edition("NF", tokens as u64, 100));
    for t in 0..tokens as u64 {
        state
            .nft_mint(
                coll_addr,
                Address::from_low_u64(t % 64 + 1),
                TokenId::new(t),
            )
            .unwrap()
            .unwrap();
    }

    // Flat baseline: the pre-hierarchy `coll_leaf` preimage
    // ("coll" ‖ addr ‖ supplies ‖ (token ‖ owner)*), re-absorbed in full —
    // what any token op used to pay per flush.
    let coll = state.collection(coll_addr).unwrap().clone();
    let reps = (2_000_000 / tokens).clamp(5, 500);
    let start = Instant::now();
    for _ in 0..reps {
        let mut buf = Vec::with_capacity(48 + coll.active_supply() as usize * 28);
        buf.extend_from_slice(b"coll");
        buf.extend_from_slice(coll_addr.as_bytes());
        buf.extend_from_slice(&coll.remaining_supply().to_be_bytes());
        buf.extend_from_slice(&coll.active_supply().to_be_bytes());
        for (token, owner) in coll.iter() {
            buf.extend_from_slice(&token.value().to_be_bytes());
            buf.extend_from_slice(owner.as_bytes());
        }
        std::hint::black_box(parole_crypto::keccak256(&buf));
    }
    let flat_rehash_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    // Hierarchical path: a real transfer plus the incremental flush on a
    // warm two-level cache.
    let _ = state.state_root();
    let flushes = 200u64;
    let start = Instant::now();
    for round in 0..flushes {
        let token = TokenId::new(round % tokens as u64);
        let owner = state
            .collection(coll_addr)
            .unwrap()
            .owner_of(token)
            .unwrap();
        let to = if owner == Address::from_low_u64(1) {
            Address::from_low_u64(2)
        } else {
            Address::from_low_u64(1)
        };
        state
            .nft_transfer(coll_addr, owner, to, token)
            .unwrap()
            .unwrap();
        std::hint::black_box(state.state_root());
    }
    let hierarchical_flush_us = start.elapsed().as_secs_f64() * 1e6 / flushes as f64;

    NftFlushTiming {
        active_tokens: tokens,
        flat_rehash_us,
        hierarchical_flush_us,
        speedup: flat_rehash_us / hierarchical_flush_us,
        roots_identical: state.state_root() == state.state_root_naive(),
    }
}

fn run_nft_flush_section() {
    let mut rows = Vec::new();
    for &tokens in &[1_000usize, 10_000, 100_000] {
        let t = measure_nft_flush(tokens);
        println!(
            "nft_flush {:>6} tokens: flat rehash {:>9.1} us | hierarchical {:>7.2} us | {:>6.0}x | identical: {}",
            t.active_tokens, t.flat_rehash_us, t.hierarchical_flush_us, t.speedup,
            t.roots_identical
        );
        assert!(
            t.roots_identical,
            "hierarchical root diverged from the naive oracle"
        );
        if tokens >= 10_000 {
            assert!(
                t.speedup >= 50.0,
                "hierarchical flush must beat the flat rehash by >= 50x at {} tokens; got {:.1}x",
                tokens,
                t.speedup
            );
        }
        rows.push(t);
    }
    write_json("BENCH_PR5", &Pr5Report { nft_flush: rows });
}

#[derive(Serialize)]
struct ParallelExecTiming {
    workload: String,
    txs: usize,
    threads: usize,
    serial_ms: f64,
    parallel_ms: f64,
    speedup: f64,
    committed_clean: u64,
    conflicts: u64,
    reexecutions: u64,
    receipts_identical: bool,
    roots_identical: bool,
}

#[derive(Serialize)]
struct Pr6Report {
    available_parallelism: usize,
    parallel_exec: Vec<ParallelExecTiming>,
}

/// Conflict-sparse block: every slot has a distinct sender, token and
/// recipient, so the only shared record is the collection header — which
/// transfers read but never write. When `signed`, every transaction
/// carries real ECDSA material, putting per-slot keccak + signature
/// recovery on the speculation path (the compute the OCC scheduler
/// actually parallelizes).
fn sparse_transfer_block(n: usize, signed: bool) -> (L2State, Vec<NftTransaction>) {
    use parole_crypto::Wallet;
    use parole_ovm::TxKind;
    use parole_primitives::{FeeBundle, TxNonce};

    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("PX", 2 * n as u64, 100));
    let mut txs = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let recipient = Address::from_low_u64(1_000_000 + i);
        state.credit(recipient, Wei::from_eth(100));
        let kind = |sender: Address| {
            (
                sender,
                TxKind::Transfer {
                    collection: coll,
                    token: TokenId::new(i),
                    to: recipient,
                },
            )
        };
        let tx = if signed {
            let wallet = Wallet::from_seed(7_000 + i);
            let (sender, kind) = kind(wallet.address());
            state.credit(sender, Wei::from_eth(1));
            state
                .nft_mint(coll, sender, TokenId::new(i))
                .unwrap()
                .unwrap();
            NftTransaction::signed(&wallet, kind, FeeBundle::from_gwei(30, 2), TxNonce::new(0))
        } else {
            let sender = Address::from_low_u64(1 + i);
            let (sender, kind) = kind(sender);
            state.credit(sender, Wei::from_eth(1));
            state
                .nft_mint(coll, sender, TokenId::new(i))
                .unwrap()
                .unwrap();
            NftTransaction::simple(sender, kind)
        };
        txs.push(tx);
    }
    (state, txs)
}

/// Conflict-dense block: every slot mints the same collection, so every
/// speculation after the first is invalidated by the supply/price write
/// and re-executes serially — the scheduler's worst case.
fn dense_mint_block(n: usize) -> (L2State, Vec<NftTransaction>) {
    use parole_ovm::TxKind;

    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("PD", 2 * n as u64, 100));
    let txs: Vec<NftTransaction> = (0..n as u64)
        .map(|i| {
            let sender = Address::from_low_u64(1 + i);
            state.credit(sender, Wei::from_eth(200));
            NftTransaction::simple(
                sender,
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(i),
                },
            )
        })
        .collect();
    (state, txs)
}

fn measure_parallel_exec(
    workload: &str,
    base: &L2State,
    txs: &[NftTransaction],
    rows: &mut Vec<ParallelExecTiming>,
) {
    use parole_ovm::ParallelExecutor;

    let ovm = Ovm::new();
    let mut serial_state = base.clone();
    let start = Instant::now();
    let serial_receipts = ovm.execute_sequence(&mut serial_state, txs);
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let serial_root = serial_state.state_root();

    for &threads in &[1usize, 2, 4, 8] {
        let mut state = base.clone();
        let executor = ParallelExecutor::with_threads(ovm.clone(), threads);
        let start = Instant::now();
        let (receipts, stats) = executor.execute_block(&mut state, txs);
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

        let row = ParallelExecTiming {
            workload: workload.to_string(),
            txs: txs.len(),
            threads,
            serial_ms,
            parallel_ms,
            speedup: serial_ms / parallel_ms,
            committed_clean: stats.committed_clean,
            conflicts: stats.conflicts,
            reexecutions: stats.reexecutions,
            receipts_identical: receipts == serial_receipts,
            roots_identical: state.state_root() == serial_root,
        };
        println!(
            "parallel_exec {:<14} {:>4} txs @ {} threads: serial {:>7.1} ms | parallel {:>7.1} ms | {:>4.2}x | clean {:>4} conflicts {:>4} | identical: {}",
            row.workload, row.txs, row.threads, row.serial_ms, row.parallel_ms, row.speedup,
            row.committed_clean, row.conflicts, row.receipts_identical && row.roots_identical
        );
        assert!(
            row.receipts_identical,
            "parallel receipts diverged from serial ({workload}, {threads} threads)"
        );
        assert!(
            row.roots_identical,
            "parallel state root diverged from serial ({workload}, {threads} threads)"
        );
        rows.push(row);
    }
}

/// The `parallel-exec` section (→ `BENCH_PR6.json`): optimistic-concurrency
/// block execution vs serial, at 1/2/4/8 worker threads, on conflict-sparse
/// signed and unsigned 1k-transaction blocks and a conflict-dense hot-mint
/// block. Bit-identity of receipts and roots is asserted on every row; the
/// ≥ 2x speedup bar for the signed sparse workload arms only on machines
/// with at least 4 cores (speculation cannot beat serial on fewer).
fn run_parallel_exec_section() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut rows = Vec::new();

    let (base, txs) = sparse_transfer_block(1_000, true);
    measure_parallel_exec("sparse-signed", &base, &txs, &mut rows);
    let (base, txs) = sparse_transfer_block(1_000, false);
    measure_parallel_exec("sparse-unsigned", &base, &txs, &mut rows);
    let (base, txs) = dense_mint_block(512);
    measure_parallel_exec("dense-mints", &base, &txs, &mut rows);

    let dense = rows
        .iter()
        .find(|r| r.workload == "dense-mints")
        .expect("dense row recorded");
    assert_eq!(
        dense.conflicts,
        dense.txs as u64 - 1,
        "every hot mint after the first must conflict"
    );
    let sparse = rows
        .iter()
        .find(|r| r.workload == "sparse-signed" && r.threads == 4)
        .expect("sparse signed row recorded");
    assert_eq!(sparse.conflicts, 0, "sparse transfers must not conflict");
    if cores >= 4 {
        assert!(
            sparse.speedup >= 2.0,
            "signed sparse block must reach >= 2x at 4 threads on {cores} cores; got {:.2}x",
            sparse.speedup
        );
    } else {
        println!("parallel_exec: >= 2x assertion skipped ({cores} core(s) available, need >= 4)");
    }

    write_json(
        "BENCH_PR6",
        &Pr6Report {
            available_parallelism: cores,
            parallel_exec: rows,
        },
    );
}

#[derive(Serialize)]
struct ProofSizeRow {
    accounts: usize,
    active_tokens: usize,
    account_proof_depth: usize,
    account_proof_bytes: usize,
    token_proof_depth: usize,
    token_proof_bytes: usize,
}

#[derive(Serialize)]
struct FraudSettlementRow {
    txs: usize,
    k: u32,
    forged_step: usize,
    bisection_rounds: u32,
    diverging_records: usize,
    fraud_confirmed: bool,
    settle_us: f64,
    full_reexec_us: f64,
    settlement_speedup: f64,
}

#[derive(Serialize)]
struct Pr7Report {
    proof_sizes: Vec<ProofSizeRow>,
    settlements: Vec<FraudSettlementRow>,
}

/// A funded world with one collection holding `tokens` active tokens.
fn proof_world(accounts: usize, tokens: usize) -> (L2State, Address) {
    let mut state = L2State::new();
    for i in 0..accounts as u64 {
        state.credit(Address::from_low_u64(i + 1), Wei::from_gwei(i + 1));
    }
    let coll = state.deploy_collection(CollectionConfig::limited_edition("FP", tokens as u64, 100));
    for t in 0..tokens as u64 {
        state
            .nft_mint(
                coll,
                Address::from_low_u64(t % accounts as u64 + 1),
                TokenId::new(t),
            )
            .unwrap()
            .unwrap();
    }
    (state, coll)
}

fn measure_proof_sizes(accounts: usize, tokens: usize) -> ProofSizeRow {
    let (state, coll) = proof_world(accounts, tokens);
    let root = state.state_root();

    let acct = state
        .prove_account(Address::from_low_u64(1))
        .expect("credited");
    assert!(acct.verify(root), "honest account proof must verify");
    let tok = state.prove_token(coll, TokenId::new(0)).expect("minted");
    assert!(tok.verify(root), "honest token proof must verify");
    let wrong = parole_crypto::keccak256(root.as_bytes());
    assert!(!acct.verify(wrong) && !tok.verify(wrong));

    // Depth bound: ⌈log2(leaves)⌉ + 1 slack, leaves = meta + accounts + 1
    // header for the top tree, `tokens` for the sub-tree.
    let log2_ceil = |n: usize| (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
    let top_bound = log2_ceil(accounts + 2) + 1;
    let sub_bound = log2_ceil(tokens) + 1;
    assert!(
        acct.path.depth() <= top_bound,
        "account path depth {} exceeds O(log n) bound {top_bound}",
        acct.path.depth()
    );
    assert!(
        tok.token_path.depth() + tok.header_path.depth() <= sub_bound + top_bound,
        "token path depths {}+{} exceed O(log n) bound {sub_bound}+{top_bound}",
        tok.token_path.depth(),
        tok.header_path.depth()
    );

    ProofSizeRow {
        accounts,
        active_tokens: tokens,
        account_proof_depth: acct.path.depth(),
        account_proof_bytes: acct.encoded_len(),
        token_proof_depth: tok.token_path.depth() + tok.header_path.depth(),
        token_proof_bytes: tok.encoded_len(),
    }
}

fn measure_fraud_settlement(k: u32) -> FraudSettlementRow {
    use parole_ovm::TxKind;
    use parole_rollup::{
        bisect, settle_step, Batch, DisputedStep, SettlementVerdict, StateCommitment,
        TracedExecution,
    };

    let n = 1usize << k;
    let mut pre = L2State::new();
    let coll = pre.deploy_collection(CollectionConfig::limited_edition("FG", 2 * n as u64, 100));
    let txs: Vec<NftTransaction> = (0..n as u64)
        .map(|i| {
            let sender = Address::from_low_u64(i + 1);
            pre.credit(sender, Wei::from_eth(2));
            NftTransaction::simple(
                sender,
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(i),
                },
            )
        })
        .collect();

    // The forgery: honest execution up to `forged_step`, then a hidden
    // refund of that step's sender — an in-footprint lie the settlement
    // localizes to a named account record.
    let ovm = Ovm::new();
    let forged_step = n / 2;
    let thief = Address::from_low_u64(forged_step as u64 + 1);
    let defender = TracedExecution::record_with(&ovm, &pre, &txs, |i, st| {
        if i == forged_step {
            st.credit(thief, Wei::from_eth(1));
        }
    });
    let challenger = TracedExecution::record(&ovm, &pre, &txs);

    let result = bisect(defender.trace(), challenger.trace());
    assert_eq!(
        result.step,
        DisputedStep::Tx(forged_step),
        "bisection must isolate the forged step"
    );
    assert_eq!(
        result.rounds, k,
        "2^{k} txs must settle in exactly {k} rounds"
    );

    let mut post = defender.final_state().clone();
    post.advance_block();
    let batch = Batch {
        aggregator: parole_primitives::AggregatorId::new(0),
        txs: txs.clone(),
        receipts: Vec::new(),
        commitment: StateCommitment {
            pre_state_root: pre.state_root(),
            post_state_root: post.state_root(),
            tx_root: Batch::compute_tx_root(&txs),
        },
    };

    // Settlement: ONE transaction re-executed + O(log n) record openings.
    let start = Instant::now();
    let verdict = settle_step(&ovm, &batch, &defender, &challenger, result.step);
    let settle_us = start.elapsed().as_secs_f64() * 1e6;
    let (fraud_confirmed, diverging_records) = match &verdict {
        SettlementVerdict::FraudConfirmed { diverging, .. } => (true, diverging.len()),
        _ => (false, 0),
    };
    assert!(fraud_confirmed, "the forged step must be convicted");
    assert!(
        diverging_records >= 1,
        "an in-footprint forgery must localize to at least one record"
    );

    // The reference cost settlement avoids: re-executing the whole batch.
    let start = Instant::now();
    let _ = std::hint::black_box(ovm.simulate_sequence(&pre, &txs));
    let full_reexec_us = start.elapsed().as_secs_f64() * 1e6;

    FraudSettlementRow {
        txs: n,
        k,
        forged_step,
        bisection_rounds: result.rounds,
        diverging_records,
        fraud_confirmed,
        settle_us,
        full_reexec_us,
        settlement_speedup: full_reexec_us / settle_us,
    }
}

#[derive(Serialize)]
struct Pr8Report {
    rows: Vec<TrafficRun>,
    /// Arena + indexed mempool vs the pre-PR system (BTreeMap state +
    /// full-sort mempool), serial execution, same sealed blocks.
    system_vs_baseline_speedup: f64,
    /// Ablation: arena vs BTreeMap state, both on the indexed mempool.
    arena_vs_btree_speedup: f64,
}

/// The `traffic` section (→ `BENCH_PR8.json`): sustained-traffic block
/// production. The baseline row is the pre-PR system — BTreeMap world
/// state plus the flat-`Vec` mempool that re-sorts the whole standing
/// pool every block — and the remaining rows ablate each factor: state
/// backend, mempool variant, execution mode. Every row seals identical
/// blocks and must land on bit-identical roots.
fn run_traffic_section() {
    use parole_bench::traffic::PoolVariant;
    use parole_mempool::ExecMode;
    use parole_primitives::StorageBackend;

    let scale = parole_bench::Scale::from_env();
    let cfg = TrafficConfig::from_scale(scale);
    println!(
        "traffic: {} accounts, {} collections, {} blocks x {} txs, backlog {}",
        cfg.accounts, cfg.collections, cfg.blocks, cfg.txs_per_block, cfg.backlog
    );
    let schedule = generate_blocks(&cfg);

    let runs = vec![
        // The pre-PR system: the baseline the >= 2x claim is made against.
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::BTree,
            PoolVariant::LegacyFullSort,
            ExecMode::Serial,
        ),
        // Ablation: new mempool on the old state backend.
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::BTree,
            PoolVariant::Indexed,
            ExecMode::Serial,
        ),
        // The full system under test.
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Serial,
        ),
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Parallel { threads: 2 },
        ),
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Parallel { threads: 8 },
        ),
    ];

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                r.mempool.clone(),
                r.exec_mode.clone(),
                format!("{}", r.txs),
                format!("{:.1}", r.blocks_per_sec),
                format!("{:.2}", r.mean_seal_ms),
                format!("{:.2}", r.p99_seal_ms),
                format!("{}", r.root_matches_naive),
                format!("{}", r.mempool_full_sorts),
                format!("{}", r.mempool_rebuilds),
            ]
        })
        .collect();
    parole_bench::report::print_table(
        "Sustained traffic: block production over the hot state",
        &[
            "backend",
            "mempool",
            "exec",
            "txs",
            "blocks/s",
            "mean ms",
            "p99 ms",
            "root=naive",
            "sorts",
            "rebuilds",
        ],
        &rows,
    );

    for r in &runs {
        let tag = format!("{}/{}/{}", r.backend, r.mempool, r.exec_mode);
        assert_eq!(r.reverts, 0, "{tag}: schedule must execute cleanly");
        assert!(
            r.root_matches_naive,
            "{tag}: committed root diverged from the naive oracle"
        );
        assert_eq!(
            r.final_root, runs[0].final_root,
            "{tag}: final root diverged across backends/pool variants/exec modes"
        );
        if r.mempool == "indexed" {
            assert_eq!(
                r.mempool_heap_pops as usize, r.txs,
                "{tag}: collect must pop exactly the sealed transactions"
            );
            assert_eq!(
                r.mempool_full_sorts, 0,
                "{tag}: the index never full-pool sorts"
            );
            assert_eq!(
                r.mempool_rebuilds, 0,
                "{tag}: base-fee drift must stay inside the stability window"
            );
        } else {
            assert_eq!(
                r.mempool_full_sorts as usize, r.blocks,
                "{tag}: one sort per block"
            );
            assert!(
                r.mempool_sort_scanned as usize >= cfg.backlog * r.blocks,
                "{tag}: every sort scans the whole standing pool"
            );
        }
    }

    if scale == parole_bench::Scale::Fast {
        // CI smoke gate: at 10^4 accounts a 150-tx block on the system
        // under test runs in single-digit milliseconds; a p99 two orders
        // of magnitude above that means an O(P)-per-block term crept back
        // into the hot path (generous enough to survive shared runners).
        let p99 = runs[2].p99_seal_ms;
        assert!(
            p99 < 100.0,
            "fast-scale p99 block latency regressed to {p99:.2} ms (expected < 100 ms)"
        );
    }

    let system_speedup = runs[2].blocks_per_sec / runs[0].blocks_per_sec;
    let arena_speedup = runs[2].blocks_per_sec / runs[1].blocks_per_sec;
    println!(
        "  arena+indexed vs btree+legacy-sort (serial): {system_speedup:.2}x block-seal throughput"
    );
    println!("  arena vs btree on the indexed mempool (serial): {arena_speedup:.2}x");
    if scale == parole_bench::Scale::Full {
        assert!(
            system_speedup >= 2.0,
            "the arena + indexed-mempool system must seal >= 2x faster than the \
             BTreeMap + full-sort baseline at 10^6 accounts (measured {system_speedup:.2}x)"
        );
    }

    write_json(
        "BENCH_PR8",
        &Pr8Report {
            rows: runs,
            system_vs_baseline_speedup: system_speedup,
            arena_vs_btree_speedup: arena_speedup,
        },
    );
}

#[derive(Serialize)]
struct Pr10Report {
    /// Realized op mix of the marketplace schedule, keyed by OpSpec label.
    mix: std::collections::BTreeMap<&'static str, usize>,
    /// Marketplace rows: serial plus 2- and 8-thread OCC execution of the
    /// same schedule on the system under test (arena + indexed mempool).
    rows: Vec<TrafficRun>,
    /// The PR 8 transfer-only schedule on the identical system/serial
    /// config — the reference the throughput-ratio gate is made against.
    transfer_only: TrafficRun,
    /// `rows[0].blocks_per_sec / transfer_only.blocks_per_sec`.
    marketplace_vs_transfer_only_throughput: f64,
    /// Whether the marketplace mix stayed within 15% of transfer-only
    /// block throughput (asserted at full scale).
    within_15_pct: bool,
}

/// The `marketplace` section (→ `BENCH_PR10.json`): the List/Cancel/Buy
/// agent mix of EXPERIMENTS item 10 through the full pipeline.
///
/// One deterministic Zipf-skewed marketplace schedule (mint/list/buy/
/// cancel/transfer/burn, listings never stranded) is replayed on the
/// system under test serially and at 2 and 8 OCC threads — bit-identity
/// of the final root across all three is asserted, as is the naive-oracle
/// root on every row. The reference row replays the PR 8 transfer-only
/// schedule on the identical config; at full scale the marketplace mix
/// must hold block throughput within 15% of it.
fn run_marketplace_section() {
    use parole_bench::traffic::{generate_marketplace_blocks, schedule_mix, PoolVariant};
    use parole_mempool::ExecMode;
    use parole_primitives::StorageBackend;

    let scale = parole_bench::Scale::from_env();
    let cfg = TrafficConfig::from_scale(scale);
    println!(
        "marketplace: {} accounts, {} collections, {} blocks x {} txs, backlog {}",
        cfg.accounts, cfg.collections, cfg.blocks, cfg.txs_per_block, cfg.backlog
    );
    let schedule = generate_marketplace_blocks(&cfg);
    let mix = schedule_mix(&schedule);
    let mix_line = mix
        .iter()
        .map(|(label, n)| format!("{label} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("  mix: {mix_line}");

    let rows = vec![
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Serial,
        ),
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Parallel { threads: 2 },
        ),
        run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Parallel { threads: 8 },
        ),
    ];
    // Reference: the transfer-only (mint/transfer/burn) PR 8 schedule on
    // the identical system, serial.
    let transfer_only = run_traffic(
        &cfg,
        &generate_blocks(&cfg),
        StorageBackend::Arena,
        PoolVariant::Indexed,
        ExecMode::Serial,
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .chain(std::iter::once(&transfer_only))
        .enumerate()
        .map(|(i, r)| {
            vec![
                if i < 3 {
                    "marketplace"
                } else {
                    "transfer-only"
                }
                .into(),
                r.exec_mode.clone(),
                format!("{}", r.txs),
                format!("{:.1}", r.blocks_per_sec),
                format!("{:.2}", r.mean_seal_ms),
                format!("{:.2}", r.p99_seal_ms),
                format!("{}", r.root_matches_naive),
            ]
        })
        .collect();
    parole_bench::report::print_table(
        "Marketplace mix: List/Cancel/Buy through the full pipeline",
        &[
            "schedule",
            "exec",
            "txs",
            "blocks/s",
            "mean ms",
            "p99 ms",
            "root=naive",
        ],
        &table,
    );

    for r in rows.iter().chain(std::iter::once(&transfer_only)) {
        let tag = format!("marketplace {}", r.exec_mode);
        assert_eq!(r.reverts, 0, "{tag}: schedule must execute cleanly");
        assert!(
            r.root_matches_naive,
            "{tag}: committed root diverged from the naive oracle"
        );
    }
    for r in &rows[1..] {
        assert_eq!(
            r.final_root, rows[0].final_root,
            "marketplace final root diverged between serial and {}",
            r.exec_mode
        );
    }

    let ratio = rows[0].blocks_per_sec / transfer_only.blocks_per_sec;
    let within_15_pct = ratio >= 0.85;
    println!("  marketplace vs transfer-only throughput (serial): {ratio:.2}x");
    if scale == parole_bench::Scale::Full {
        assert!(
            within_15_pct,
            "the marketplace mix must hold >= 85% of transfer-only block \
             throughput at full scale (measured {ratio:.2}x)"
        );
    }

    write_json(
        "BENCH_PR10",
        &Pr10Report {
            mix,
            rows,
            transfer_only,
            marketplace_vs_transfer_only_throughput: ratio,
            within_15_pct,
        },
    );
}

#[derive(Serialize)]
struct Pr9Report {
    /// The PR 8 system under test (arena + indexed mempool, serial), with
    /// event emission and per-receipt blooms on (they are unconditional)
    /// but no queryable log index.
    baseline: TrafficRun,
    /// Same run with the sequencer's per-block log index switched on.
    indexed: TrafficRun,
    /// `indexed.blocks_per_sec / baseline.blocks_per_sec` — the overhead
    /// row: how much block throughput the queryable index costs.
    indexed_vs_baseline_throughput: f64,
    /// Whether the indexed run stayed within 10% of the baseline.
    within_10_pct: bool,
    /// Chrome-trace events exported to `TRACE_PR9.trace.json` (0 without
    /// `--features telemetry`).
    trace_events: usize,
    /// Collapsed-stack lines exported to `FLAME_PR9.folded`.
    folded_lines: usize,
}

/// The `observability` section (→ `BENCH_PR9.json`, `TRACE_PR9.trace.json`,
/// `FLAME_PR9.folded`): the chain-level observability overhead row and the
/// span-tree trace export.
///
/// Event emission and per-receipt blooms are unconditional OVM behaviour
/// (they ride every row of the `traffic` section already); the ablatable
/// cost is the sequencer's queryable per-block [`parole_ovm::LogIndex`].
/// Both runs seal identical blocks, so the rows isolate exactly that cost —
/// the acceptance gate is that it stays within 10% of the PR 8 baseline
/// throughput. The span tree accumulated across both runs is exported as
/// Chrome-trace/Perfetto JSON and collapsed-stack flamegraph input (empty
/// but well-formed shells without `--features telemetry`).
fn run_observability_section() {
    use parole_bench::traffic::{run_traffic_with, PoolVariant};
    use parole_mempool::ExecMode;
    use parole_primitives::StorageBackend;

    let scale = parole_bench::Scale::from_env();
    let cfg = TrafficConfig::from_scale(scale);
    println!(
        "observability: {} accounts, {} blocks x {} txs; ablating the queryable log index",
        cfg.accounts, cfg.blocks, cfg.txs_per_block
    );
    let schedule = generate_blocks(&cfg);

    parole_telemetry::reset();
    let baseline = run_traffic_with(
        &cfg,
        &schedule,
        StorageBackend::Arena,
        PoolVariant::Indexed,
        ExecMode::Serial,
        false,
    );
    let indexed = run_traffic_with(
        &cfg,
        &schedule,
        StorageBackend::Arena,
        PoolVariant::Indexed,
        ExecMode::Serial,
        true,
    );

    // Trace export: whatever spans the two runs recorded, in both external
    // profiler formats, written beside the BENCH_*.json records.
    let snap = parole_telemetry::snapshot();
    let trace = parole_telemetry::chrome_trace_json(&snap);
    let folded = parole_telemetry::flamegraph_collapsed(&snap);
    let parsed: serde::Value =
        serde_json::from_str(&trace).expect("exported Chrome trace must be valid JSON");
    let trace_events = match &parsed {
        serde::Value::Map(entries) => entries
            .iter()
            .find_map(|(k, v)| match (k, v) {
                (serde::Value::Str(name), serde::Value::Seq(events)) if name == "traceEvents" => {
                    Some(events.len())
                }
                _ => None,
            })
            .expect("trace must carry a traceEvents array"),
        _ => panic!("trace must be a JSON object"),
    };
    let folded_lines = folded.lines().count();
    // Descriptor coverage: every `events.*` / `bloom.*` counter the armed
    // runs recorded must be statically registered (the disabled build
    // records nothing, so this is vacuous there).
    for name in snap
        .counters
        .keys()
        .filter(|n| n.starts_with("events.") || n.starts_with("bloom."))
    {
        assert!(
            parole_telemetry::describe(name).is_some(),
            "metric {name} recorded but not registered in METRICS"
        );
    }
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("note: could not create {}: {e}", dir.display());
    } else {
        for (name, body) in [
            ("TRACE_PR9.trace.json", &trace),
            ("FLAME_PR9.folded", &folded),
        ] {
            let path = dir.join(name);
            match std::fs::write(&path, body) {
                Ok(()) => println!("  [recorded {}]", path.display()),
                Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
            }
        }
    }
    println!("  trace: {trace_events} events | flamegraph: {folded_lines} stacks");

    // Identical blocks, identical state trajectory — the index is a pure
    // reader of committed receipts.
    assert_eq!(
        baseline.final_root, indexed.final_root,
        "log indexing must not perturb execution"
    );
    assert!(baseline.root_matches_naive && indexed.root_matches_naive);
    assert_eq!(baseline.events_emitted, indexed.events_emitted);
    assert!(
        indexed.events_emitted > 0,
        "committed operations must emit log entries"
    );
    // The smoke query sees exactly one Transfer per executed transaction
    // (every scheduled op is one mint/transfer/burn).
    assert_eq!(
        indexed.log_query_hits as usize, indexed.txs,
        "bloom-pruned query must find every Transfer event"
    );

    let ratio = indexed.blocks_per_sec / baseline.blocks_per_sec;
    let within_10_pct = ratio >= 0.9;
    println!(
        "  indexed vs baseline throughput: {ratio:.3}x ({:.1} blocks/s vs {:.1} blocks/s)",
        indexed.blocks_per_sec, baseline.blocks_per_sec
    );
    if scale == parole_bench::Scale::Full {
        assert!(
            within_10_pct,
            "the queryable log index must cost < 10% block throughput at full \
             scale (measured {ratio:.3}x)"
        );
    }

    let rows: Vec<Vec<String>> = [&baseline, &indexed]
        .iter()
        .map(|r| {
            vec![
                if r.log_index { "on" } else { "off" }.into(),
                format!("{}", r.txs),
                format!("{}", r.events_emitted),
                format!("{}", r.log_query_hits),
                format!("{:.1}", r.blocks_per_sec),
                format!("{:.2}", r.p99_seal_ms),
                format!("{}", r.timeline.len()),
            ]
        })
        .collect();
    parole_bench::report::print_table(
        "Observability: queryable log-index overhead",
        &[
            "index", "txs", "events", "hits", "blocks/s", "p99 ms", "samples",
        ],
        &rows,
    );

    write_json(
        "BENCH_PR9",
        &Pr9Report {
            baseline,
            indexed,
            indexed_vs_baseline_throughput: ratio,
            within_10_pct,
            trace_events,
            folded_lines,
        },
    );
}

/// The `fraud-proof` section (→ `BENCH_PR7.json`).
fn run_fraud_proof_section() {
    let mut proof_sizes = Vec::new();
    for &(accounts, tokens) in &[(1_000usize, 256usize), (10_000, 2_048), (100_000, 16_384)] {
        let row = measure_proof_sizes(accounts, tokens);
        println!(
            "proof_size {:>6} accts / {:>5} tokens: acct depth {:>2} ({:>4} B) | token depth {:>2} ({:>4} B)",
            row.accounts,
            row.active_tokens,
            row.account_proof_depth,
            row.account_proof_bytes,
            row.token_proof_depth,
            row.token_proof_bytes
        );
        proof_sizes.push(row);
    }

    let mut settlements = Vec::new();
    for k in 2..=7u32 {
        let row = measure_fraud_settlement(k);
        println!(
            "fraud_proof 2^{} = {:>3} txs: {} rounds | {} diverging | settle {:>8.1} us vs full re-exec {:>9.1} us | {:>5.1}x",
            row.k, row.txs, row.bisection_rounds, row.diverging_records, row.settle_us,
            row.full_reexec_us, row.settlement_speedup
        );
        settlements.push(row);
    }

    write_json(
        "BENCH_PR7",
        &Pr7Report {
            proof_sizes,
            settlements,
        },
    );
}

/// The `metrics` section (telemetry-armed build): cross-thread-count
/// determinism of the pipeline's counters and histograms, plus the recorded
/// snapshot itself.
#[cfg(feature = "telemetry")]
mod metrics_section {
    use parole::fleet::{run_fleet, FleetConfig};
    use parole::{GentranseqModule, ParoleModule, ParoleStrategy};
    use parole_bench::report::write_json;
    use parole_mempool::{BedrockMempool, Sequencer, WorkloadConfig, WorkloadGenerator};
    use parole_nft::CollectionConfig;
    use parole_primitives::{Address, AggregatorId, Gas, TokenId, Wei};
    use parole_rollup::{Aggregator, RollupConfig, RollupContract};
    use parole_telemetry as tel;
    use serde::{Number, Serialize, Value};

    /// One full attack round through every instrumented layer, with the
    /// fleet sweep at the given pool size. Everything outside the fleet is
    /// single-threaded, and the fleet's outcome is pool-size-invariant, so
    /// the recorded event counts must not depend on `threads`.
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
                parole_ovm::NftTransaction::simple(
                    owner,
                    parole_ovm::TxKind::Mint {
                        collection,
                        token: TokenId::new(i as u64),
                    },
                )
            })
            .collect();
        let batch = setup.build_batch(rollup.l2_state(), seed_txs);
        rollup.submit_batch(batch).unwrap();
        rollup.finalize_all();

        // Sequencer: generated traffic through the Bedrock mempool, sealed
        // into a block (fee market + deferral instrumentation).
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
        let mut sequencer = Sequencer::new(pool, Gas::new(2_000_000));
        let block = sequencer.seal_block(rollup.l2_state(), None);

        // Adversarial GENTRANSEQ batch over the sealed window (DRL training
        // + prefix-cached OVM evaluation), finalized on the simulated L1.
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

    fn str_key(k: &str) -> Value {
        Value::Str(k.into())
    }

    /// Renders a snapshot into the vendored [`Value`] tree so it rides
    /// inside the provenance envelope `write_json` adds (the snapshot's own
    /// `to_json` renderer cannot be embedded as a raw fragment).
    fn snapshot_to_value(snap: &tel::MetricsSnapshot) -> Value {
        let counters = snap
            .counters
            .iter()
            .map(|(k, v)| (str_key(k), Value::Num(Number::UInt(u128::from(*v)))))
            .collect();
        let histograms = snap
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|b| {
                        Value::Seq(vec![
                            Value::Num(Number::UInt(u128::from(b.low))),
                            Value::Num(Number::UInt(u128::from(b.high))),
                            Value::Num(Number::UInt(u128::from(b.count))),
                        ])
                    })
                    .collect();
                let fields = vec![
                    (str_key("count"), Value::Num(Number::UInt(h.count.into()))),
                    (str_key("sum"), Value::Num(Number::UInt(h.sum))),
                    (str_key("min"), Value::Num(Number::UInt(h.min.into()))),
                    (str_key("max"), Value::Num(Number::UInt(h.max.into()))),
                    (str_key("mean"), Value::Num(Number::Float(h.mean()))),
                    (str_key("buckets"), Value::Seq(buckets)),
                ];
                (str_key(k), Value::Map(fields))
            })
            .collect();
        let floats = snap
            .floats
            .iter()
            .map(|(k, f)| {
                let fields = vec![
                    (str_key("count"), Value::Num(Number::UInt(f.count.into()))),
                    (str_key("sum"), Value::Num(Number::Float(f.sum))),
                    (str_key("mean"), Value::Num(Number::Float(f.mean()))),
                    (str_key("last"), Value::Num(Number::Float(f.last))),
                ];
                (str_key(k), Value::Map(fields))
            })
            .collect();
        Value::Map(vec![
            (str_key("counters"), Value::Map(counters)),
            (str_key("histograms"), Value::Map(histograms)),
            (str_key("floats"), Value::Map(floats)),
            (str_key("spans"), spans_to_value(&snap.spans)),
        ])
    }

    fn spans_to_value(spans: &[tel::SpanNode]) -> Value {
        Value::Seq(
            spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        (str_key("name"), Value::Str(s.name.clone())),
                        (str_key("count"), Value::Num(Number::UInt(s.count.into()))),
                        (str_key("total_ns"), Value::Num(Number::UInt(s.total_ns))),
                        (str_key("children"), spans_to_value(&s.children)),
                    ])
                })
                .collect(),
        )
    }

    struct Pr4Report {
        thread_counts: Vec<usize>,
        counters_bit_identical: bool,
        histograms_bit_identical: bool,
        snapshot: tel::MetricsSnapshot,
    }

    impl Serialize for Pr4Report {
        fn to_value(&self) -> Value {
            Value::Map(vec![
                (
                    str_key("thread_counts"),
                    Value::Seq(
                        self.thread_counts
                            .iter()
                            .map(|t| Value::Num(Number::UInt(*t as u128)))
                            .collect(),
                    ),
                ),
                (
                    str_key("counters_bit_identical"),
                    Value::Bool(self.counters_bit_identical),
                ),
                (
                    str_key("histograms_bit_identical"),
                    Value::Bool(self.histograms_bit_identical),
                ),
                (str_key("snapshot"), snapshot_to_value(&self.snapshot)),
            ])
        }
    }

    /// Every metric name a live run records must be statically registered
    /// in [`tel::METRICS`]: a recording site without a descriptor row is a
    /// documentation hole the inventory dump would silently miss.
    fn assert_snapshot_registered(snap: &tel::MetricsSnapshot) {
        let check = |name: &str, want: tel::MetricKind| {
            let d = tel::describe(name)
                .unwrap_or_else(|| panic!("metric {name} recorded but not registered"));
            assert_eq!(
                d.kind,
                want,
                "metric {name} registered as {} but recorded as {}",
                d.kind.label(),
                want.label()
            );
        };
        for name in snap.counters.keys() {
            check(name, tel::MetricKind::Counter);
        }
        for name in snap.histograms.keys() {
            check(name, tel::MetricKind::Histogram);
        }
        for name in snap.floats.keys() {
            check(name, tel::MetricKind::FloatSeries);
        }
        fn walk(nodes: &[tel::SpanNode], check: &impl Fn(&str, tel::MetricKind)) {
            for n in nodes {
                check(&n.name, tel::MetricKind::Span);
                walk(&n.children, check);
            }
        }
        walk(&snap.spans, &check);
    }

    pub fn run_metrics_section() {
        let thread_counts = vec![1usize, 2, 8];
        let mut snaps: Vec<tel::MetricsSnapshot> = Vec::new();
        for &threads in &thread_counts {
            tel::reset();
            run_workload(threads);
            snaps.push(tel::snapshot());
        }
        tel::reset();
        for snap in &snaps {
            assert_snapshot_registered(snap);
        }
        println!(
            "all recorded metrics statically registered ({} descriptors in inventory)",
            tel::METRICS.len()
        );

        let base = &snaps[0];
        let counters_bit_identical = snaps.iter().all(|s| s.counters == base.counters);
        let histograms_bit_identical = snaps.iter().all(|s| s.histograms == base.histograms);
        for (i, s) in snaps.iter().enumerate().skip(1) {
            for (k, v) in &base.counters {
                if s.counters.get(k) != Some(v) {
                    println!(
                        "  counter {k}: threads={} -> {v}, threads={} -> {:?}",
                        thread_counts[0],
                        thread_counts[i],
                        s.counters.get(k)
                    );
                }
            }
            for (k, v) in &s.counters {
                if !base.counters.contains_key(k) {
                    println!(
                        "  counter {k}: absent at threads={}, {v} at threads={}",
                        thread_counts[0], thread_counts[i]
                    );
                }
            }
        }
        println!(
            "metrics: {} counters, {} histograms, {} float series over threads {:?}",
            base.counters.len(),
            base.histograms.len(),
            base.floats.len(),
            thread_counts
        );
        println!(
            "counters bit-identical: {counters_bit_identical} | histograms bit-identical: {histograms_bit_identical}"
        );
        println!("\n{}", base.span_tree_text());

        // The pipeline actually lit up end to end.
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
        assert!(
            span_count(&base.spans, "sequencer.seal_block") > 0,
            "seal_block span missing from the tree"
        );
        assert!(
            span_count(&base.spans, "state.root") > 0,
            "state.root span missing from the tree"
        );
        assert!(
            counters_bit_identical,
            "counters diverged across fleet thread counts"
        );
        assert!(
            histograms_bit_identical,
            "histograms diverged across fleet thread counts"
        );

        write_json(
            "BENCH_PR4",
            &Pr4Report {
                thread_counts,
                counters_bit_identical,
                histograms_bit_identical,
                snapshot: snaps.swap_remove(0),
            },
        );
    }
}

#[cfg(feature = "telemetry")]
use metrics_section::run_metrics_section;

#[cfg(not(feature = "telemetry"))]
fn run_metrics_section() {
    println!("metrics section skipped: rebuild with --features telemetry to record BENCH_PR4");
}

/// `perf_report metrics --list`: dump the static metric inventory. Works in
/// any build — the descriptor table is plain `'static` data, not gated on
/// the `telemetry` feature.
fn print_metric_inventory() {
    println!(
        "{} registered metrics (name, kind, doc):",
        parole_telemetry::METRICS.len()
    );
    for d in parole_telemetry::METRICS {
        println!("  {:<28} {:<10} {}", d.name, d.kind.label(), d.doc);
    }
}

fn main() {
    // A panic mid-section (an assertion, an audit trip) still dumps the
    // armed telemetry snapshot before the process dies.
    parole_telemetry::install_panic_hook();
    let mut args = std::env::args().skip(1);
    let only = args.next();
    if only.as_deref() == Some("metrics") && args.next().as_deref() == Some("--list") {
        print_metric_inventory();
        return;
    }
    let run = |name: &str| match only.as_deref() {
        None => true,
        Some(s) => s == name,
    };
    if run("metrics") {
        run_metrics_section();
    }
    if run("state-root") {
        run_state_root_section();
    }
    if run("nft-flush") {
        run_nft_flush_section();
    }
    if run("parallel-exec") {
        run_parallel_exec_section();
    }
    if run("fraud-proof") {
        run_fraud_proof_section();
    }
    if run("traffic") {
        run_traffic_section();
    }
    if run("marketplace") {
        run_marketplace_section();
    }
    if run("observability") {
        run_observability_section();
    }
    if !run("pr1") {
        return;
    }

    // 1. Evaluation throughput, naive vs prefix-cached.
    let steps = 2_000;
    let eval_throughput: Vec<EvalThroughput> = [10usize, 20]
        .iter()
        .map(|&window| {
            let naive = time_env_steps(EvalConfig::naive(), window, steps);
            let cached = time_env_steps(EvalConfig::default(), window, steps);
            EvalThroughput {
                window,
                steps,
                naive_evals_per_sec: naive,
                cached_evals_per_sec: cached,
                speedup: cached / naive,
            }
        })
        .collect();
    for t in &eval_throughput {
        println!(
            "window {:>2}: naive {:>9.0} evals/s | cached {:>9.0} evals/s | {:.1}x",
            t.window, t.naive_evals_per_sec, t.cached_evals_per_sec, t.speedup
        );
    }

    // 2. Fleet wall-clock, pool of one vs auto.
    let fleet_config = FleetConfig {
        n_aggregators: 8,
        adversarial_fraction: 0.5,
        mempool_size: 15,
        rounds: 2,
        gentranseq: GentranseqModule::fast(),
        ..FleetConfig::default()
    };
    let start = Instant::now();
    let single = run_fleet(&FleetConfig {
        threads: 1,
        ..fleet_config.clone()
    });
    let single_thread_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let pooled = run_fleet(&FleetConfig {
        threads: 0,
        ..fleet_config.clone()
    });
    let pooled_ms = start.elapsed().as_secs_f64() * 1e3;
    let fleet = FleetTiming {
        rounds: fleet_config.rounds,
        aggregators: fleet_config.n_aggregators,
        single_thread_ms,
        pooled_ms,
        speedup: single_thread_ms / pooled_ms,
        outcomes_identical: single == pooled,
    };
    println!(
        "fleet ({} aggregators x {} rounds): 1 thread {:.0} ms | pooled {:.0} ms | {:.1}x | identical: {}",
        fleet.aggregators, fleet.rounds, fleet.single_thread_ms, fleet.pooled_ms, fleet.speedup,
        fleet.outcomes_identical
    );
    assert!(
        fleet.outcomes_identical,
        "fleet outcome must not depend on pool size"
    );

    // 3. Batched DQN minibatch update at the paper's batch size.
    let config = DqnConfig {
        hidden: [128, 128],
        ..DqnConfig::paper()
    };
    let state_dim = 8 * 20;
    let action_count = 20 * 19 / 2;
    let mut agent = DqnAgent::new(state_dim, action_count, config);
    for i in 0..512usize {
        let v = (i as f64 * 0.37).sin();
        agent.remember(Transition {
            state: vec![v; state_dim],
            action: i % action_count,
            reward: v,
            next_state: vec![-v; state_dim],
            done: i % 60 == 59,
        });
    }
    let updates = 200;
    let start = Instant::now();
    for _ in 0..updates {
        agent.train_step();
    }
    let train_step = TrainTiming {
        batch_size: agent.config().batch_size,
        updates,
        mean_update_us: start.elapsed().as_secs_f64() * 1e6 / updates as f64,
    };
    println!(
        "train_step (batch {}): {:.0} us/update over {} updates",
        train_step.batch_size, train_step.mean_update_us, train_step.updates
    );

    let report = Report {
        eval_throughput,
        fleet,
        train_step,
    };
    write_json("BENCH_PR1", &report);
}
