//! `attack`: PAROLE's adversarial aggregator on the 10⁶-account chain.
//!
//! An aggregator running `ParoleStrategy` over `GentranseqModule::fast()`
//! with one IFU (illicitly favoured user) builds one batch per window,
//! posts it with `RollupContract::submit_batch`, and advances L1 one block
//! so earlier batches finalize. Each window is 25 transactions of
//! `WorkloadGenerator` traffic on its own scarce collection (supply twice
//! the window, the IFU holding two tokens, eight bystanders one each), the
//! shape of a Fig. 6 fleet cell. Windows use disjoint user sets and the IFU
//! is funded far beyond what any window can spend, so every window stays
//! valid whatever order earlier windows executed in: windows are generated
//! up front, on small worlds holding just their collection and accounts.
//!
//! The traced pass rebuilds `Aggregator::build_batch` and
//! `GentranseqModule::run` from their public parts (`parole::assess`,
//! `GentranseqModule::environment`, `DqnAgent::train` through an
//! environment wrapper that times every reset and step, the greedy pass,
//! `Ovm::simulate_sequence`, the state roots and `Batch::compute_tx_root`)
//! and must land on the same per-window profits and final root.

use crate::trace::Tracer;
use crate::{
    check_postings, drive, mix_seed, secs, Args, Bench, Checks, LayerCounts, Outcome, Pass, Posted,
    Size, PASSES,
};
use parole::{assess, pair_count, GentranseqModule, ParoleModule, ParoleStrategy, FEATURES_PER_TX};
use parole_bench::traffic::{build_world, TrafficConfig};
use parole_crypto::Hash32;
use parole_drl::{DqnAgent, Environment, StepOutcome};
use parole_mempool::{WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{LogFilter, NftTransaction, Ovm};
use parole_primitives::{Address, AggregatorId, StorageBackend, TokenId, Wei};
use parole_rollup::{Aggregator, Batch, RollupConfig, RollupContract, StateCommitment};
use parole_state::L2State;
use std::time::Instant;

/// Windows per timed second the schedule is sized for: the serial window
/// rate at 10⁶ accounts on an uncontended 2-vCPU x86-64 host, so the
/// [`PASSES`] timed passes together last about `--seconds` there.
const WINDOWS_PER_SECOND: f64 = 4.5;
/// Transactions per window (the paper's smallest per-aggregator mempool).
const WINDOW: usize = 25;
/// General users trading in each window.
const USERS_PER_WINDOW: usize = 20;
/// Users holding one token of their window's collection at genesis.
const BYSTANDERS: usize = 8;
/// Balance of every user (the fleet's funding).
const USER_FUNDING_ETH: u64 = 50;
/// Balance of the IFU: enough that no window's affordability depends on
/// what earlier windows did.
const IFU_FUNDING_ETH: u64 = 100_000;
/// Initial bonding-curve price of each window's collection, milli-ETH.
const INITIAL_PRICE_MILLI: u64 = 500;
/// The attacking aggregator.
const AGGREGATOR: AggregatorId = AggregatorId::new(0);

/// The colluding IFU, outside the funded account range.
fn ifu() -> Address {
    Address::from_low_u64(0x1F00_0000)
}

/// Window `k`'s collection.
fn collection(k: usize) -> Address {
    Address::from_low_u64(0x6000_0000 + k as u64)
}

/// Window `k`'s users: funded chain accounts no other window touches.
fn users(k: usize) -> Vec<Address> {
    (0..USERS_PER_WINDOW)
        .map(|i| Address::from_low_u64((1 + k * USERS_PER_WINDOW + i) as u64))
        .collect()
}

/// Dimensions of one attack run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Funded accounts of the chain.
    pub accounts: usize,
    /// Windows in each timed pass.
    pub windows: usize,
}

impl Shape {
    /// The shape at `size`.
    pub fn new(size: Size, seconds: u64) -> Shape {
        match size {
            Size::Full => Shape {
                accounts: 1_000_000,
                windows: (seconds as f64 * WINDOWS_PER_SECOND / PASSES as f64).ceil() as usize,
            },
            Size::Tiny => Shape {
                accounts: 1_000,
                windows: 3,
            },
        }
    }
}

/// Deploys window `k`'s collection and hands out its genesis tokens.
fn deploy_window_collection(state: &mut L2State, k: usize) {
    let coll = collection(k);
    let config =
        CollectionConfig::limited_edition("FleetPT", (2 * WINDOW) as u64, INITIAL_PRICE_MILLI);
    state
        .deploy_collection_at(coll, config)
        .expect("window collections have distinct fresh addresses");
    let holders = [ifu(), ifu()]
        .into_iter()
        .chain(users(k).into_iter().take(BYSTANDERS));
    for (token, holder) in holders.enumerate() {
        state
            .nft_mint(coll, holder, TokenId::new(token as u64))
            .expect("collection just deployed")
            .expect("supply covers the genesis tokens");
    }
}

/// Generates every window from `seed`, each on a world holding just its
/// collection, its users and the IFU. Returns the windows and a note.
pub fn generate_windows(shape: &Shape, seed: u64) -> (Vec<Vec<NftTransaction>>, String) {
    assert!(
        shape.windows * USERS_PER_WINDOW <= shape.accounts,
        "windows need disjoint funded users"
    );
    let t = Instant::now();
    let workload = WorkloadConfig {
        ifu_participation: 0.35,
        ensure_ifu_pair: false,
        ..WorkloadConfig::default()
    };
    let windows = (0..shape.windows)
        .map(|k| {
            let mut world = L2State::with_backend(StorageBackend::Arena);
            let users = users(k);
            for &u in &users {
                world.credit(u, Wei::from_eth(USER_FUNDING_ETH));
            }
            world.credit(ifu(), Wei::from_eth(IFU_FUNDING_ETH));
            deploy_window_collection(&mut world, k);
            WorkloadGenerator::new(mix_seed(seed, k as u64), workload.clone()).generate(
                &world,
                collection(k),
                &users,
                &[ifu()],
                WINDOW,
            )
        })
        .collect();
    let note = format!(
        "input: {} windows of {WINDOW} generated in {:.3} s",
        shape.windows,
        secs(t)
    );
    (windows, note)
}

/// Deploys the rollup on the funded world with every window's collection,
/// materialises the genesis root (the finalized state clones the staged
/// one after it, so both read the same commitment), and bonds the
/// aggregator.
fn setup(shape: &Shape) -> RollupContract {
    let mut contract = RollupContract::new(RollupConfig::default());
    let world = TrafficConfig {
        accounts: shape.accounts,
        collections: 0,
        ..TrafficConfig::fast()
    };
    let staged = contract.l2_state_for_setup();
    *staged = build_world(&world, StorageBackend::Arena);
    staged.credit(ifu(), Wei::from_eth(IFU_FUNDING_ETH));
    for k in 0..shape.windows {
        deploy_window_collection(staged, k);
    }
    let staged_root = staged.state_root();
    contract.commit_setup();
    let finalized_root = contract.finalized_state().state_root();
    assert_eq!(
        staged_root, finalized_root,
        "setup leaves both states equal"
    );
    contract.bond_aggregator(AGGREGATOR);
    contract
}

/// Submits the batch, then advances L1 one block; the batch's work counts
/// toward the pass only when the contract accepts it. Returns whether it
/// did.
fn submit(
    pass: &mut Pass,
    contract: &mut RollupContract,
    batch: Batch,
    tr: Option<&mut Tracer>,
    k: u64,
) -> bool {
    let ok = batch.receipts.iter().filter(|r| r.is_success()).count() as u64;
    let txs = batch.txs.len() as u64;
    let logs: u64 = batch.receipts.iter().map(|r| r.logs.len() as u64).sum();
    let accepted = match tr {
        Some(tr) => {
            let s = tr.begin("rollup.submit", k);
            let accepted = contract.submit_batch(batch).is_ok();
            tr.end(s);
            let s = tr.begin("rollup.finalize", k);
            contract.advance_l1_block();
            tr.end(s);
            accepted
        }
        None => {
            let accepted = contract.submit_batch(batch).is_ok();
            contract.advance_l1_block();
            accepted
        }
    };
    if accepted {
        pass.committed += ok;
        pass.reverts += txs - ok;
        pass.logs += logs;
    } else {
        pass.dropped += txs;
    }
    accepted
}

/// The untraced pass: `Aggregator::build_batch` with the PAROLE strategy.
fn run_untraced(contract: &mut RollupContract, windows: &[Vec<NftTransaction>]) -> Pass {
    let module = ParoleModule::new(GentranseqModule::fast());
    let strategy = ParoleStrategy::new(module, vec![ifu()]);
    let mut agg = Aggregator::new(AGGREGATOR, Wei::from_eth(10), Box::new(strategy));
    let mut pass = Pass::new(windows.len(), Hash32::ZERO);
    let owned = windows.to_vec();
    let mut profit_so_far = 0i128;
    for (k, window) in owned.into_iter().enumerate() {
        let t0 = Instant::now();
        let batch = agg.build_batch(contract.l2_state(), window);
        pass.posted.push(Posted::of(&batch));
        submit(&mut pass, contract, batch, None, k as u64);
        let (profit, _, exploited) = agg.strategy_stats().expect("the PAROLE strategy reports");
        pass.profits.push(profit.gwei() - profit_so_far);
        profit_so_far = profit.gwei();
        pass.exploited = exploited;
        pass.sample_ms.push(secs(t0) * 1e3);
    }
    pass
}

/// An environment (here [`ReorderEnv`](parole::ReorderEnv)) with a span
/// around every reset and step, so DQN time can be told apart from
/// environment time.
struct TracedEnv<'a, E> {
    inner: E,
    tracer: &'a mut Tracer,
    id: u64,
    steps: u64,
}

impl<E: Environment> Environment for TracedEnv<'_, E> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn action_count(&self) -> usize {
        self.inner.action_count()
    }

    fn reset(&mut self) -> Vec<f64> {
        let s = self.tracer.begin("core.env", self.id);
        let obs = self.inner.reset();
        self.tracer.end(s);
        self.steps += 1;
        obs
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let s = self.tracer.begin("core.env", self.id);
        let out = self.inner.step(action);
        self.tracer.end(s);
        self.steps += 1;
        out
    }
}

/// The traced pass: `build_batch` and `GentranseqModule::run` from their
/// public parts, with a span per layer call. The chain is finished and
/// checked like an untraced pass's.
fn run_traced(
    contract: &mut RollupContract,
    windows: &[Vec<NftTransaction>],
    tr: &mut Tracer,
) -> (Pass, LayerCounts, Checks) {
    let gentranseq = GentranseqModule::fast();
    let dqn = *gentranseq.dqn_config();
    let ifus = [ifu()];
    let ovm = Ovm::new();
    let mut counts = LayerCounts::default();
    let mut pass = Pass::new(windows.len(), Hash32::ZERO);
    let owned = windows.to_vec();
    for (k, window) in owned.into_iter().enumerate() {
        let t0 = Instant::now();
        let id = k as u64;
        let window_span = tr.begin("window", id);
        let state = contract.l2_state();

        let s = tr.begin("core.assess", id);
        let opportunity = !window.is_empty() && assess(&window, &ifus).opportunity;
        tr.end(s);

        let mut profit = 0i128;
        let ordered = if opportunity {
            let s = tr.begin("core.env_build", id);
            let env = gentranseq.environment(state, &window, &ifus);
            tr.end(s);

            let s = tr.begin("drl.train", id);
            let mut env = TracedEnv {
                inner: env,
                tracer: &mut *tr,
                id,
                steps: 0,
            };
            let mut agent = DqnAgent::new(
                window.len() * FEATURES_PER_TX,
                pair_count(window.len()).max(1),
                dqn,
            );
            agent.train(&mut env);
            let mut obs = env.reset();
            for _ in 0..dqn.max_steps {
                let action = agent.act_greedy(&obs);
                obs = env.step(action).next_state;
            }
            counts.env_steps += env.steps;
            let original = env.inner.original_balance();
            let (best_order, best_balance) = env.inner.best_order();
            tr.end(s);

            if best_balance > original {
                pass.exploited += 1;
                profit = best_balance.signed_sub(original).gwei();
                best_order
            } else {
                window
            }
        } else {
            window
        };
        pass.profits.push(profit);

        let s = tr.begin("ovm.simulate", id);
        let (receipts, mut post) = ovm.simulate_sequence(state, &ordered);
        post.advance_block();
        tr.end(s);

        let s = tr.begin("state.root", id);
        let pre_state_root = state.state_root();
        let post_state_root = post.state_root();
        tr.end(s);
        drop(post);

        let s = tr.begin("rollup.batch", id);
        let tx_root = Batch::compute_tx_root(&ordered);
        let batch = Batch {
            aggregator: AGGREGATOR,
            txs: ordered,
            receipts,
            commitment: StateCommitment {
                pre_state_root,
                post_state_root,
                tx_root,
            },
        };
        pass.posted.push(Posted::of(&batch));
        tr.end(s);

        counts.batches += u64::from(submit(&mut pass, contract, batch, Some(&mut *tr), id));
        tr.end(window_span);
        pass.sample_ms.push(secs(t0) * 1e3);
    }
    counts.windows = windows.len() as u64;
    counts.exploited = pass.exploited;
    counts.txs_executed = pass.committed + pass.reverts;
    counts.reverts = pass.reverts;
    counts.committed = pass.committed;
    counts.roots = windows.len() as u64;
    counts.calldata_bytes = pass.calldata_bytes();
    counts.profit_gwei = pass.profit_gwei();
    let checks = finish_and_check(contract, &mut pass);
    (pass, counts, checks)
}

/// Finalizes everything pending and checks the chain the pass left.
fn finish_and_check(contract: &mut RollupContract, pass: &mut Pass) -> Checks {
    let mut checks = Checks::default();
    contract.finalize_all();
    let finalized = contract.finalized_state();
    pass.final_root = finalized.state_root();
    checks.expect(pass.dropped == 0, || {
        format!(
            "{} transactions were in batches the contract rejected",
            pass.dropped
        )
    });
    checks.expect(pass.reverts == 0, || {
        format!("{} window transactions reverted", pass.reverts)
    });
    checks.expect(contract.undetected_forgeries() == 0, || {
        format!(
            "{} batches finalized with forged roots",
            contract.undetected_forgeries()
        )
    });
    checks.expect(contract.pending_batch_ids().is_empty(), || {
        "batches still pending after finalize_all".into()
    });
    let naive = finalized.state_root_naive();
    checks.expect(pass.final_root == naive, || {
        format!(
            "final root {} differs from the naive root {naive}",
            pass.final_root
        )
    });
    checks.expect(contract.l2_state().state_root() == pass.final_root, || {
        "staged and finalized roots differ with nothing pending".into()
    });
    checks.extend(check_postings(&pass.posted));
    let indexed = contract.query_logs(&LogFilter::all()).len() as u64;
    checks.expect(indexed == pass.logs, || {
        format!(
            "contract log index returned {indexed} entries, batches emitted {}",
            pass.logs
        )
    });
    checks
}

/// `attack` with its generated windows.
struct Attack {
    shape: Shape,
    windows: Vec<Vec<NftTransaction>>,
}

impl Bench for Attack {
    type Fixture = RollupContract;

    fn setup(&self) -> RollupContract {
        setup(&self.shape)
    }

    fn pass(&self, contract: &mut RollupContract) -> Pass {
        run_untraced(contract, &self.windows)
    }

    fn check(&self, contract: &mut RollupContract, pass: &mut Pass) -> Checks {
        finish_and_check(contract, pass)
    }

    fn traced_pass(
        &self,
        contract: &mut RollupContract,
        tr: &mut Tracer,
    ) -> (Pass, LayerCounts, Checks) {
        run_traced(contract, &self.windows, tr)
    }
}

/// Runs `attack`.
pub fn run(args: &Args) -> Outcome {
    let shape = Shape::new(args.size, args.seconds);
    let (windows, note) = generate_windows(&shape, args.seed);
    let attempted: u64 = windows.iter().map(|w| w.len() as u64).sum();
    let notes = vec![
        note,
        format!(
            "shape: {} accounts, {} windows of {WINDOW} per pass on their own collections, 1 IFU",
            shape.accounts, shape.windows
        ),
    ];
    let short = windows.iter().filter(|w| w.len() != WINDOW).count();
    let mut outcome = drive(&Attack { shape, windows }, args.trace, attempted, notes);
    outcome.checks.expect(short == 0, || {
        format!("{short} windows fell short of {WINDOW} transactions")
    });
    outcome
}
