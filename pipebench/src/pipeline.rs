//! `market` and `signed`: the sequencer hot path, block after block.
//!
//! Each block of the pre-generated schedule is admitted to the mempool,
//! sealed and executed (`Sequencer::seal_and_execute`, which also indexes
//! its logs), committed with `L2State::state_root`, and built into a
//! [`Batch`] whose compressed calldata is metered at EIP-2028 rates. The
//! pool holds a standing zero-tip backlog the whole time, and each block's
//! gas limit is its exact demand, so every scheduled transaction is sealed
//! in the block it was scheduled for and the backlog never is.
//!
//! The traced pass rebuilds `seal_and_execute` from its public parts —
//! `Sequencer::seal_block`, `NftTransaction::verify_signature`,
//! `Ovm::execute_sequence` (with the signature check already done) and
//! `LogIndex::index_block` — so each layer gets its own span, and must land
//! on the same final root, calldata gas and log count as the untraced passes.

use crate::trace::Tracer;
use crate::{
    check_postings, drive, mix_seed, secs, Args, Bench, Checks, LayerCounts, Outcome, Pass, Posted,
    Size, Workload, PASSES,
};
use parole_bench::traffic::{
    build_world, generate_backlog, generate_marketplace_blocks, TrafficConfig,
};
use parole_crypto::{Hash32, Wallet};
use parole_mempool::{BedrockMempool, Sequencer};
use parole_ovm::{
    GasSchedule, LogFilter, LogIndex, NftTransaction, Ovm, OvmConfig, Receipt, TxKind,
};
use parole_primitives::{Address, AggregatorId, Gas, StorageBackend, TxNonce, Wei};
use parole_rollup::{Batch, StateCommitment};
use parole_state::L2State;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Blocks per timed second the `market` schedule is sized for: the serial
/// rate of this pipeline at 10⁶ accounts on an uncontended 2-vCPU x86-64
/// host, so the [`PASSES`] timed passes together last about `--seconds`
/// there.
const MARKET_BLOCKS_PER_SECOND: f64 = 185.0;
/// The same for `signed`, whose blocks are dominated by signature checks.
const SIGNED_BLOCKS_PER_SECOND: f64 = 14.5;

/// Gas each scheduled transaction may use toward the fee controller's
/// target (the traffic harness's convention).
const GAS_PER_TX_SLOT: u64 = 250_000;

/// Balance every wallet of the `signed` workload starts with.
const WALLET_FUNDING_ETH: u64 = 50;

/// Dimensions of one pipeline run.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Funded accounts of the chain.
    pub accounts: usize,
    /// Deployed collections.
    pub collections: usize,
    /// Max supply of each collection.
    pub tokens_per_collection: u64,
    /// Scheduled transactions per block (the generator drops a draw that
    /// finds nothing to trade, so blocks run somewhat shorter).
    pub txs_per_block: usize,
    /// Blocks in each timed pass.
    pub blocks: usize,
    /// Standing zero-tip transactions in the pool.
    pub backlog: usize,
    /// `Some(n)`: senders are `n` wallets that sign every transaction.
    pub wallets: Option<usize>,
}

impl Shape {
    /// The shape of `workload` (market or signed) at `size`.
    pub fn new(workload: Workload, size: Size, seconds: u64) -> Shape {
        let blocks_for = |rate: f64| (seconds as f64 * rate / PASSES as f64).ceil() as usize;
        match (workload, size) {
            (Workload::Market, Size::Full) => Shape {
                accounts: 1_000_000,
                collections: 2_000,
                tokens_per_collection: 1_024,
                txs_per_block: 300,
                blocks: blocks_for(MARKET_BLOCKS_PER_SECOND),
                backlog: 100_000,
                wallets: None,
            },
            (Workload::Signed, Size::Full) => Shape {
                txs_per_block: 24,
                blocks: blocks_for(SIGNED_BLOCKS_PER_SECOND),
                wallets: Some(512),
                ..Shape::new(Workload::Market, Size::Full, seconds)
            },
            (Workload::Market, Size::Tiny) => Shape {
                accounts: 1_000,
                collections: 16,
                tokens_per_collection: 64,
                txs_per_block: 40,
                blocks: 6,
                backlog: 500,
                wallets: None,
            },
            (Workload::Signed, Size::Tiny) => Shape {
                txs_per_block: 6,
                blocks: 4,
                wallets: Some(16),
                ..Shape::new(Workload::Market, Size::Tiny, seconds)
            },
            (Workload::Attack, _) => unreachable!("attack has its own shape"),
        }
    }

    /// The world the chain starts from: `accounts` funded accounts and the
    /// collections, as the traffic harness builds it.
    fn world_config(&self) -> TrafficConfig {
        self.traffic_config(0, self.accounts)
    }

    fn traffic_config(&self, seed: u64, actors: usize) -> TrafficConfig {
        TrafficConfig {
            accounts: actors,
            collections: self.collections,
            tokens_per_collection: self.tokens_per_collection,
            blocks: self.blocks,
            txs_per_block: self.txs_per_block,
            sender_alpha: 1.1,
            collection_alpha: 1.1,
            backlog: self.backlog,
            seed,
        }
    }
}

/// Everything a pass consumes, generated before the clock starts.
#[derive(Debug)]
pub struct Inputs {
    /// Transactions of each block, in arrival order.
    pub schedule: Vec<Vec<NftTransaction>>,
    /// Exact gas demand of each block: its gas limit.
    pub block_gas: Vec<Gas>,
    /// The standing backlog.
    pub backlog: Vec<NftTransaction>,
    /// Wallet addresses funded on top of the world's accounts.
    pub wallets: Vec<Address>,
}

impl Inputs {
    /// Generates the schedule for `shape` from `seed`: the marketplace mix,
    /// re-addressed to wallets and signed with per-sender sequential nonces
    /// when the shape has wallets. Returns the inputs and timing notes.
    pub fn generate(shape: &Shape, seed: u64) -> (Inputs, Vec<String>) {
        let mut notes = Vec::new();
        let t = Instant::now();
        let actors = shape.wallets.unwrap_or(shape.accounts);
        let traffic = shape.traffic_config(seed, actors);
        let mut schedule = generate_marketplace_blocks(&traffic);
        let backlog = generate_backlog(&traffic);
        notes.push(format!("input: schedule generated in {:.3} s", secs(t)));

        let mut wallets = Vec::new();
        if let Some(n) = shape.wallets {
            let t = Instant::now();
            let keys: Vec<Wallet> = (0..n as u64)
                .map(|i| Wallet::from_seed(mix_seed(seed, i)))
                .collect();
            notes.push(format!("input: {n} wallets derived in {:.3} s", secs(t)));
            let t = Instant::now();
            schedule = sign_schedule(schedule, &keys);
            notes.push(format!(
                "input: {} transactions signed in {:.3} s",
                schedule.iter().map(Vec::len).sum::<usize>(),
                secs(t)
            ));
            wallets = keys.iter().map(Wallet::address).collect();
        }

        let gas = GasSchedule::paper_calibrated();
        let block_gas = schedule
            .iter()
            .map(|txs| txs.iter().map(|tx| gas.gas_for(&tx.kind)).sum())
            .collect();
        let inputs = Inputs {
            schedule,
            block_gas,
            backlog,
            wallets,
        };
        (inputs, notes)
    }

    /// Scheduled transactions.
    pub fn attempted(&self) -> u64 {
        self.schedule.iter().map(|b| b.len() as u64).sum()
    }
}

/// Rewrites a schedule generated over actor accounts `1..=keys.len()` so
/// that actor `i` is wallet `i`, and signs every transaction with its
/// sender's next nonce.
fn sign_schedule(schedule: Vec<Vec<NftTransaction>>, keys: &[Wallet]) -> Vec<Vec<NftTransaction>> {
    let actor: HashMap<Address, usize> = (0..keys.len())
        .map(|i| (Address::from_low_u64(i as u64 + 1), i))
        .collect();
    let mut nonces = vec![0u64; keys.len()];
    schedule
        .into_iter()
        .map(|block| {
            block
                .into_iter()
                .map(|tx| {
                    let sender = actor[&tx.sender];
                    let kind = match tx.kind {
                        TxKind::Transfer {
                            collection,
                            token,
                            to,
                        } => TxKind::Transfer {
                            collection,
                            token,
                            to: keys[actor[&to]].address(),
                        },
                        other => {
                            assert!(
                                other.recipient().is_none(),
                                "unmapped recipient in {other:?}"
                            );
                            other
                        }
                    };
                    let nonce = TxNonce::new(nonces[sender]);
                    nonces[sender] += 1;
                    NftTransaction::signed(&keys[sender], kind, tx.fees, nonce)
                })
                .collect()
        })
        .collect()
}

/// The chain and sequencer a pass runs on.
struct Fixture {
    state: L2State,
    seq: Sequencer,
    genesis_root: Hash32,
}

/// Builds the world, materialises its genesis root, and starts a
/// sequencer (log index on) whose pool holds the backlog.
fn setup(shape: &Shape, inputs: &Inputs) -> Fixture {
    let mut state = build_world(&shape.world_config(), StorageBackend::Arena);
    for &wallet in &inputs.wallets {
        state.credit(wallet, Wei::from_eth(WALLET_FUNDING_ETH));
    }
    let genesis_root = state.state_root();
    let gas_limit = Gas::new(shape.txs_per_block as u64 * GAS_PER_TX_SLOT);
    let mut seq =
        Sequencer::new(BedrockMempool::new(Wei::from_gwei(1)), gas_limit).with_log_index(true);
    seq.mempool_mut().submit_all(inputs.backlog.iter().copied());
    Fixture {
        state,
        seq,
        genesis_root,
    }
}

/// Builds the block's batch on top of the pass's last root and meters its
/// posted calldata.
fn post(pass: &mut Pass, txs: Vec<NftTransaction>, receipts: Vec<Receipt>, root: Hash32) {
    let commitment = StateCommitment {
        pre_state_root: pass.final_root,
        post_state_root: root,
        tx_root: Batch::compute_tx_root(&txs),
    };
    let batch = Batch {
        aggregator: AggregatorId::new(0),
        txs,
        receipts,
        commitment,
    };
    pass.posted.push(Posted::of(&batch));
    pass.final_root = root;
}

/// Tallies a sealed block against what was scheduled for it.
fn tally(pass: &mut Pass, scheduled: usize, receipts: &[Receipt], pending: usize, backlog: usize) {
    let ok = receipts.iter().filter(|r| r.is_success()).count() as u64;
    pass.committed += ok;
    pass.reverts += receipts.len() as u64 - ok;
    pass.dropped += scheduled.saturating_sub(receipts.len()) as u64;
    pass.undrained += u64::from(pending != backlog);
    pass.logs += receipts.iter().map(|r| r.logs.len() as u64).sum::<u64>();
}

/// The untraced pass: the sequencer's own `seal_and_execute`.
fn run_untraced(fx: &mut Fixture, inputs: &Inputs) -> Pass {
    let backlog = inputs.backlog.len();
    let mut pass = Pass::new(inputs.schedule.len(), fx.genesis_root);
    for (txs, &gas) in inputs.schedule.iter().zip(&inputs.block_gas) {
        let t0 = Instant::now();
        fx.seq.set_gas_limit(gas);
        fx.seq.mempool_mut().submit_all(txs.iter().copied());
        let (block, receipts) = fx.seq.seal_and_execute(&mut fx.state, None);
        let root = fx.state.state_root();
        tally(&mut pass, txs.len(), &receipts, fx.seq.pending(), backlog);
        post(&mut pass, block.txs, receipts, root);
        pass.sample_ms.push(secs(t0) * 1e3);
    }
    pass
}

/// The traced pass: `seal_and_execute` from its public parts, one span per
/// layer call, plus the layers' work counts and the checks only this pass
/// can make (its own log index and block blooms).
fn run_traced(fx: &mut Fixture, inputs: &Inputs, tr: &mut Tracer) -> (Pass, LayerCounts, Checks) {
    let backlog = inputs.backlog.len();
    // Signatures are checked by the benchmark, inside the execute span,
    // right before execution; the OVM then skips its own check.
    let ovm = Ovm::with_config(OvmConfig {
        verify_signatures: false,
        ..OvmConfig::default()
    });
    let mut index = LogIndex::new();
    let mut counts = LayerCounts::default();
    let mut bloom_mismatches = 0u64;
    let ops_before = fx.seq.mempool_mut().op_stats();
    let mut pass = Pass::new(inputs.schedule.len(), fx.genesis_root);
    for (txs, &gas) in inputs.schedule.iter().zip(&inputs.block_gas) {
        let t0 = Instant::now();
        let number = fx.seq.blocks_sealed() + 1;
        let block_span = tr.begin("block", number);

        let s = tr.begin("mempool.admit", number);
        fx.seq.set_gas_limit(gas);
        fx.seq.mempool_mut().submit_all(txs.iter().copied());
        tr.end(s);

        let s = tr.begin("mempool.collect", number);
        let mut block = fx.seq.seal_block(&fx.state, None);
        tr.end(s);

        let s = tr.begin("ovm.execute", number);
        let v = tr.begin("crypto.verify", number);
        let verified = block.txs.iter().filter(|tx| tx.verify_signature()).count();
        tr.end(v);
        let receipts = ovm.execute_sequence(&mut fx.state, &block.txs);
        tr.end(s);

        let s = tr.begin("ovm.log_index", number);
        for r in &receipts {
            block.bloom.accrue(&r.bloom);
        }
        let indexed_bloom = index.index_block(block.number, &receipts);
        tr.end(s);

        let s = tr.begin("state.root", number);
        let root = fx.state.state_root();
        tr.end(s);

        tally(&mut pass, txs.len(), &receipts, fx.seq.pending(), backlog);
        counts.admitted += txs.len() as u64;
        counts.verifies += block.txs.iter().filter(|tx| tx.auth.is_some()).count() as u64;
        // A failed check here would have been a `BadSignature` revert in
        // the untraced pass; count it so the passes stay comparable.
        pass.reverts += (block.txs.len() - verified) as u64;
        counts.txs_executed += receipts.len() as u64;
        counts.log_entries += receipts.iter().map(|r| r.logs.len() as u64).sum::<u64>();
        counts.roots += 1;
        bloom_mismatches += u64::from(indexed_bloom != block.bloom);

        let s = tr.begin("rollup.batch", number);
        post(&mut pass, block.txs, receipts, root);
        tr.end(s);

        tr.end(block_span);
        pass.sample_ms.push(secs(t0) * 1e3);
    }
    let ops = fx.seq.mempool_mut().op_stats();
    counts.heap_pops = ops.heap_pops - ops_before.heap_pops;
    counts.rebuilds = ops.rebuilds - ops_before.rebuilds;
    counts.reverts = pass.reverts;
    counts.committed = pass.committed;
    counts.calldata_bytes = pass.calldata_bytes();
    let mut checks = check_postings(&pass.posted);
    checks.expect(bloom_mismatches == 0, || {
        format!("{bloom_mismatches} block blooms differ from their receipts' fold")
    });
    let indexed = index.query(&LogFilter::all()).len() as u64;
    checks.expect(indexed == pass.logs, || {
        format!(
            "traced log index returned {indexed} entries, receipts emitted {}",
            pass.logs
        )
    });
    (pass, counts, checks)
}

/// The output checks of an untraced pass.
fn check_untraced(fx: &Fixture, inputs: &Inputs, pass: &Pass) -> Checks {
    let mut checks = Checks::default();
    checks.expect(pass.reverts == 0, || {
        format!(
            "{} transactions reverted; the schedule is valid by construction",
            pass.reverts
        )
    });
    checks.expect(pass.dropped == 0, || {
        format!("{} scheduled transactions were left unsealed", pass.dropped)
    });
    checks.expect(pass.undrained == 0, || {
        format!("{} blocks left fresh traffic in the pool", pass.undrained)
    });
    let backlog: HashSet<Address> = inputs.backlog.iter().map(|tx| tx.sender).collect();
    let sealed_backlog = pass
        .posted
        .iter()
        .flat_map(Posted::sealed)
        .filter(|(sender, _)| backlog.contains(sender))
        .count();
    checks.expect(sealed_backlog == 0, || {
        format!("{sealed_backlog} backlog transactions were sealed")
    });
    let naive = fx.state.state_root_naive();
    checks.expect(pass.final_root == naive, || {
        format!(
            "final root {} differs from the naive root {naive}",
            pass.final_root
        )
    });
    checks.extend(check_postings(&pass.posted));
    let indexed = fx.seq.query_logs(&LogFilter::all()).len() as u64;
    checks.expect(indexed == pass.logs, || {
        format!(
            "log index returned {indexed} entries, receipts emitted {}",
            pass.logs
        )
    });
    checks
}

/// `market` or `signed` with its generated inputs.
struct Pipeline {
    shape: Shape,
    inputs: Inputs,
}

impl Bench for Pipeline {
    type Fixture = Fixture;

    fn setup(&self) -> Fixture {
        setup(&self.shape, &self.inputs)
    }

    fn pass(&self, fx: &mut Fixture) -> Pass {
        run_untraced(fx, &self.inputs)
    }

    fn check(&self, fx: &mut Fixture, pass: &mut Pass) -> Checks {
        check_untraced(fx, &self.inputs, pass)
    }

    fn traced_pass(&self, fx: &mut Fixture, tr: &mut Tracer) -> (Pass, LayerCounts, Checks) {
        run_traced(fx, &self.inputs, tr)
    }
}

/// Runs `market` or `signed`.
pub fn run(args: &Args) -> Outcome {
    let shape = Shape::new(args.workload, args.size, args.seconds);
    let (inputs, mut notes) = Inputs::generate(&shape, args.seed);
    notes.push(format!(
        "shape: {} accounts, {} collections, {} blocks of up to {} txs ({} scheduled) per pass, backlog {}, {}",
        shape.accounts,
        shape.collections,
        inputs.schedule.len(),
        shape.txs_per_block,
        inputs.attempted(),
        inputs.backlog.len(),
        match shape.wallets {
            Some(n) => format!("{n} signing wallets"),
            None => "unsigned".into(),
        }
    ));
    let attempted = inputs.attempted();
    drive(&Pipeline { shape, inputs }, args.trace, attempted, notes)
}
