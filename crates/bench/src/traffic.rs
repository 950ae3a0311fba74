//! Sustained-traffic harness: million-account hot-path measurement.
//!
//! The hot-path claim this harness proves (EXPERIMENTS item 8): against the
//! pre-PR design — `BTreeMap` world state plus the flat-`Vec` mempool that
//! re-sorts the whole pool every block — the handle-interned arena state
//! ([`parole_primitives::FlatMap`] slabs) combined with the indexed mempool
//! sustains ≥ 2× the block-production throughput at 10⁶ accounts. Both
//! baseline dimensions are measured in the same process via knobs
//! ([`StorageBackend`] and [`PoolVariant`]), and ablation rows isolate each
//! factor's contribution.
//!
//! Structure:
//!
//! 1. [`generate_blocks`] synthesizes the whole traffic schedule up front,
//!    deterministically from the seed and *independent of any state
//!    backend* — senders and collections are Zipf-distributed
//!    ([`parole_mempool::ZipfSampler`]), and within each block every token
//!    is touched at most once, so any fee-priority permutation of a block
//!    executes successfully. Generation cost never pollutes the timings.
//! 2. [`generate_backlog`] synthesizes the standing backlog that makes the
//!    load *sustained*: real mempools under load are never empty, so the
//!    pool holds `cfg.backlog` includable zero-tip transactions (distinct
//!    sender range, never sealed) that every fresh transaction outranks.
//!    The legacy pool pays its O(P log P) sort over this population every
//!    block; the indexed pool never touches it after admission.
//! 3. [`run_traffic`] replays the schedule through the real pipeline —
//!    mempool submit → sequencer seal → OVM execution → per-block state
//!    root — on an explicit [`StorageBackend`], [`PoolVariant`] and
//!    [`ExecMode`], timing each block's three phases separately. The first
//!    block is an untimed warm-up (one-off allocator/page-cache effects at
//!    the 10⁶-account scale otherwise dominate p99); every block's gas
//!    limit is sized to that block's exact demand so the sealed blocks are
//!    identical across every knob combination.
//!
//! Because the schedule, the sealed order (fee priority is deterministic
//! and identical across pool variants) and the execution semantics are all
//! backend-independent, every run of the same config must land on
//! bit-identical final roots — the differential guarantee `perf_report
//! traffic` and the CI smoke test assert across arena vs BTree state,
//! indexed vs legacy mempool, and serial vs parallel execution.

use crate::report::peak_rss_bytes;
use parole_mempool::{BedrockMempool, ExecMode, PoolOpStats, Sequencer, ZipfSampler};
use parole_nft::CollectionConfig;
use parole_ovm::{EventKind, GasSchedule, LogFilter, NftTransaction, TxKind};
use parole_primitives::{Address, FeeBundle, Gas, StorageBackend, TokenId, Wei};
use parole_state::L2State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashSet;
use std::time::Instant;

/// Dimensions of a sustained-traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Funded account population.
    pub accounts: usize,
    /// Deployed collections.
    pub collections: usize,
    /// Max supply per collection (mints fall back to transfers when a hot
    /// collection sells out).
    pub tokens_per_collection: u64,
    /// Blocks to seal.
    pub blocks: usize,
    /// Transactions submitted per block.
    pub txs_per_block: usize,
    /// Zipf skew of the buyer/minter distribution.
    pub sender_alpha: f64,
    /// Zipf skew of the collection distribution.
    pub collection_alpha: f64,
    /// Standing pool population: includable zero-tip transactions that sit
    /// in the mempool for the whole run without ever being sealed (every
    /// fresh transaction outranks them). This is what makes the load
    /// *sustained* — a real sequencer's pool is never empty.
    pub backlog: usize,
    /// RNG seed; the whole schedule is a pure function of the config.
    pub seed: u64,
}

impl TrafficConfig {
    /// CI-sized run: 10⁴ accounts, finishes in seconds even in debug
    /// builds.
    pub fn fast() -> Self {
        TrafficConfig {
            accounts: 10_000,
            collections: 64,
            tokens_per_collection: 512,
            blocks: 24,
            txs_per_block: 150,
            sender_alpha: 1.1,
            collection_alpha: 1.1,
            backlog: 4_000,
            seed: 42,
        }
    }

    /// The headline run: 10⁶ accounts, thousands of collections.
    pub fn full() -> Self {
        TrafficConfig {
            accounts: 1_000_000,
            collections: 2_000,
            tokens_per_collection: 1_024,
            blocks: 40,
            txs_per_block: 400,
            sender_alpha: 1.1,
            collection_alpha: 1.1,
            // A realistic sustained-load standing pool: public mempools
            // hold on the order of 10^5 pending transactions under load.
            backlog: 100_000,
            seed: 42,
        }
    }

    /// Picks [`TrafficConfig::fast`] or [`TrafficConfig::full`] from the
    /// harness scale.
    pub fn from_scale(scale: crate::Scale) -> Self {
        match scale {
            crate::Scale::Fast => TrafficConfig::fast(),
            crate::Scale::Full => TrafficConfig::full(),
        }
    }

    fn account(&self, idx: usize) -> Address {
        Address::from_low_u64(idx as u64 + 1)
    }

    /// A gas limit every full block fits under (ops cost ~10⁵ gas each).
    fn gas_limit(&self) -> Gas {
        Gas::new(self.txs_per_block as u64 * 250_000)
    }
}

/// The model's view of one collection while generating the schedule.
struct CollModel {
    next_token: u64,
    /// `(token, owner account index)` of every active *unlisted* token.
    active: Vec<(u64, usize)>,
    /// `(token, seller account index, ask in milli-eth)` of every open
    /// listing. The marketplace generator never transfers or burns a listed
    /// token, so every listing in the book is fresh by construction
    /// (seller == current owner) and every scheduled `Buy` succeeds.
    listed: Vec<(u64, usize, u64)>,
}

/// Generates the per-block transaction schedule: deterministic, Zipf-skewed
/// and order-independent within each block (see the [module docs](self)).
pub fn generate_blocks(cfg: &TrafficConfig) -> Vec<Vec<NftTransaction>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let senders = ZipfSampler::new(cfg.accounts, cfg.sender_alpha);
    let colls = ZipfSampler::new(cfg.collections, cfg.collection_alpha);
    let coll_addrs = collection_addresses(cfg);
    let mut models: Vec<CollModel> = (0..cfg.collections)
        .map(|_| CollModel {
            next_token: 0,
            active: Vec::new(),
            listed: Vec::new(),
        })
        .collect();

    let mut blocks = Vec::with_capacity(cfg.blocks);
    for _ in 0..cfg.blocks {
        let mut txs = Vec::with_capacity(cfg.txs_per_block);
        // Tokens already touched this block: a fee-priority reorder must
        // not be able to invalidate any transaction, so each (collection,
        // token) appears at most once per block.
        let mut used: HashSet<(usize, u64)> = HashSet::new();
        // Mints become transferable only from the next block on.
        let mut minted: Vec<(usize, u64, usize)> = Vec::new();
        for _ in 0..cfg.txs_per_block {
            let c = colls.sample(&mut rng);
            let actor = senders.sample(&mut rng);
            let fees = FeeBundle::from_gwei(10_000, rng.gen_range(1..=10));
            let roll = rng.gen_range(0u32..10);
            let model = &mut models[c];
            let tx = if roll < 4 && model.next_token < cfg.tokens_per_collection {
                // Mint a fresh token to the actor.
                let token = model.next_token;
                model.next_token += 1;
                used.insert((c, token));
                minted.push((c, token, actor));
                Some(NftTransaction::with_fees(
                    cfg.account(actor),
                    TxKind::Mint {
                        collection: coll_addrs[c],
                        token: TokenId::new(token),
                    },
                    fees,
                ))
            } else if roll < 9 {
                // The actor buys a random untouched active token.
                pick_untouched(&mut rng, model, c, &used).map(|slot| {
                    let (token, owner) = model.active[slot];
                    used.insert((c, token));
                    let buyer = if owner == actor {
                        (actor + 1) % cfg.accounts
                    } else {
                        actor
                    };
                    model.active[slot].1 = buyer;
                    NftTransaction::with_fees(
                        cfg.account(owner),
                        TxKind::Transfer {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                            to: cfg.account(buyer),
                        },
                        fees,
                    )
                })
            } else {
                // Burn a random untouched active token.
                pick_untouched(&mut rng, model, c, &used).map(|slot| {
                    let (token, owner) = model.active.swap_remove(slot);
                    used.insert((c, token));
                    NftTransaction::with_fees(
                        cfg.account(owner),
                        TxKind::Burn {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                        },
                        fees,
                    )
                })
            };
            if let Some(tx) = tx {
                txs.push(tx);
            }
        }
        for (c, token, owner) in minted {
            models[c].active.push((token, owner));
        }
        blocks.push(txs);
    }
    blocks
}

/// Up to 8 random probes for an active token not yet touched this block.
fn pick_untouched(
    rng: &mut StdRng,
    model: &CollModel,
    c: usize,
    used: &HashSet<(usize, u64)>,
) -> Option<usize> {
    pick_untouched_by(rng, model.active.len(), c, used, |slot| {
        model.active[slot].0
    })
}

/// Up to 8 random probes into an arbitrary slot space for a token not yet
/// touched this block; `token_of` maps a slot index to its token id.
fn pick_untouched_by(
    rng: &mut StdRng,
    len: usize,
    c: usize,
    used: &HashSet<(usize, u64)>,
    token_of: impl Fn(usize) -> u64,
) -> Option<usize> {
    if len == 0 {
        return None;
    }
    (0..8)
        .map(|_| rng.gen_range(0..len))
        .find(|&slot| !used.contains(&(c, token_of(slot))))
}

/// Generates the marketplace traffic schedule: the six-op agent mix of
/// EXPERIMENTS item 10, deterministic and Zipf-skewed exactly like
/// [`generate_blocks`] (hot collections absorb most of the listing and
/// sale flow), and — same contract — order-independent within each block:
/// every `(collection, token)` is touched at most once per block, listed
/// tokens are never transferred or burned (listings stay fresh), and a
/// listing only becomes buyable from the next block on, so any
/// fee-priority permutation executes with zero reverts.
///
/// Target mix per op roll (realized shares drift when a collection has
/// nothing to list/buy and the roll falls through to `None`):
/// mint 25%, list 20%, buy 25%, cancel 10%, transfer 15%, burn 5%.
pub fn generate_marketplace_blocks(cfg: &TrafficConfig) -> Vec<Vec<NftTransaction>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d4b_5450); // "MKTP"
    let senders = ZipfSampler::new(cfg.accounts, cfg.sender_alpha);
    let colls = ZipfSampler::new(cfg.collections, cfg.collection_alpha);
    let coll_addrs = collection_addresses(cfg);
    let mut models: Vec<CollModel> = (0..cfg.collections)
        .map(|_| CollModel {
            next_token: 0,
            active: Vec::new(),
            listed: Vec::new(),
        })
        .collect();

    let mut blocks = Vec::with_capacity(cfg.blocks);
    for _ in 0..cfg.blocks {
        let mut txs = Vec::with_capacity(cfg.txs_per_block);
        let mut used: HashSet<(usize, u64)> = HashSet::new();
        // Deferred model moves: tokens minted, listed or unlisted this
        // block only change role from the next block on (`used` already
        // blocks a second touch inside this block; the deferral keeps the
        // across-block rule — e.g. "buyable from N+1" — explicit).
        let mut minted: Vec<(usize, u64, usize)> = Vec::new();
        let mut newly_listed: Vec<(usize, u64, usize, u64)> = Vec::new();
        let mut newly_unlisted: Vec<(usize, u64, usize)> = Vec::new();
        for _ in 0..cfg.txs_per_block {
            let c = colls.sample(&mut rng);
            let actor = senders.sample(&mut rng);
            let fees = FeeBundle::from_gwei(10_000, rng.gen_range(1..=10));
            let roll = rng.gen_range(0u32..20);
            let model = &mut models[c];
            let tx = if roll < 5 && model.next_token < cfg.tokens_per_collection {
                // Mint a fresh token to the actor (25%).
                let token = model.next_token;
                model.next_token += 1;
                used.insert((c, token));
                minted.push((c, token, actor));
                Some(NftTransaction::with_fees(
                    cfg.account(actor),
                    TxKind::Mint {
                        collection: coll_addrs[c],
                        token: TokenId::new(token),
                    },
                    fees,
                ))
            } else if roll < 9 {
                // The owner of a random unlisted token puts it up for sale
                // (20%). Small asks keep even Zipf-hot buyers solvent for
                // the whole run.
                pick_untouched(&mut rng, model, c, &used).map(|slot| {
                    let (token, owner) = model.active.swap_remove(slot);
                    let ask_milli = rng.gen_range(10..=50u64);
                    used.insert((c, token));
                    newly_listed.push((c, token, owner, ask_milli));
                    NftTransaction::with_fees(
                        cfg.account(owner),
                        TxKind::List {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                            price: Wei::from_milli_eth(ask_milli),
                        },
                        fees,
                    )
                })
            } else if roll < 14 {
                // The actor takes an open listing at its ask (25%). The
                // listing predates this block, so it is buyable now.
                pick_untouched_by(&mut rng, model.listed.len(), c, &used, |slot| {
                    model.listed[slot].0
                })
                .map(|slot| {
                    let (token, seller, _ask) = model.listed.swap_remove(slot);
                    let buyer = if seller == actor {
                        (actor + 1) % cfg.accounts
                    } else {
                        actor
                    };
                    used.insert((c, token));
                    newly_unlisted.push((c, token, buyer));
                    NftTransaction::with_fees(
                        cfg.account(buyer),
                        TxKind::Buy {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                        },
                        fees,
                    )
                })
            } else if roll < 16 {
                // The seller withdraws an open listing (10%).
                pick_untouched_by(&mut rng, model.listed.len(), c, &used, |slot| {
                    model.listed[slot].0
                })
                .map(|slot| {
                    let (token, seller, _ask) = model.listed.swap_remove(slot);
                    used.insert((c, token));
                    newly_unlisted.push((c, token, seller));
                    NftTransaction::with_fees(
                        cfg.account(seller),
                        TxKind::CancelListing {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                        },
                        fees,
                    )
                })
            } else if roll < 19 {
                // Curve-priced transfer of an unlisted token (15%).
                pick_untouched(&mut rng, model, c, &used).map(|slot| {
                    let (token, owner) = model.active[slot];
                    used.insert((c, token));
                    let buyer = if owner == actor {
                        (actor + 1) % cfg.accounts
                    } else {
                        actor
                    };
                    model.active[slot].1 = buyer;
                    NftTransaction::with_fees(
                        cfg.account(owner),
                        TxKind::Transfer {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                            to: cfg.account(buyer),
                        },
                        fees,
                    )
                })
            } else {
                // Burn an unlisted token (5%).
                pick_untouched(&mut rng, model, c, &used).map(|slot| {
                    let (token, owner) = model.active.swap_remove(slot);
                    used.insert((c, token));
                    NftTransaction::with_fees(
                        cfg.account(owner),
                        TxKind::Burn {
                            collection: coll_addrs[c],
                            token: TokenId::new(token),
                        },
                        fees,
                    )
                })
            };
            if let Some(tx) = tx {
                txs.push(tx);
            }
        }
        for (c, token, owner) in minted {
            models[c].active.push((token, owner));
        }
        for (c, token, seller, ask) in newly_listed {
            models[c].listed.push((token, seller, ask));
        }
        for (c, token, owner) in newly_unlisted {
            models[c].active.push((token, owner));
        }
        blocks.push(txs);
    }
    blocks
}

/// Per-op transaction counts of a schedule, keyed by the op's
/// [`parole_ovm::OpSpec`] label — the mix row `perf_report marketplace`
/// prints and `BENCH_PR10.json` records.
pub fn schedule_mix(
    schedule: &[Vec<NftTransaction>],
) -> std::collections::BTreeMap<&'static str, usize> {
    let mut mix = std::collections::BTreeMap::new();
    for tx in schedule.iter().flatten() {
        *mix.entry(tx.kind.label()).or_insert(0) += 1;
    }
    mix
}

/// The deterministic collection addresses `build_world` deploys at.
fn collection_addresses(cfg: &TrafficConfig) -> Vec<Address> {
    (0..cfg.collections)
        .map(|c| Address::from_low_u64(0x5000_0000 + c as u64))
        .collect()
}

/// Generates the standing backlog: `cfg.backlog` includable zero-tip
/// transactions from a reserved sender range (disjoint from both the funded
/// accounts and the collection addresses). Every fresh transaction in the
/// schedule carries a tip of at least 1 gwei, so under fee-priority
/// ordering the backlog is never selected — with each block's gas limit
/// sized to its exact demand, these transactions sit in the pool for the
/// whole run and are never executed (their content is therefore
/// irrelevant to the state roots).
pub fn generate_backlog(cfg: &TrafficConfig) -> Vec<NftTransaction> {
    let coll_addrs = collection_addresses(cfg);
    (0..cfg.backlog)
        .map(|i| {
            NftTransaction::with_fees(
                Address::from_low_u64(0x7000_0000 + i as u64),
                TxKind::Transfer {
                    collection: coll_addrs[i % coll_addrs.len()],
                    token: TokenId::new(i as u64),
                    to: Address::from_low_u64(0x7100_0000 + i as u64),
                },
                FeeBundle::from_gwei(10_000, 0),
            )
        })
        .collect()
}

/// Which mempool implementation a traffic run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolVariant {
    /// The lazily-maintained priority index (this PR).
    Indexed,
    /// The pre-PR flat-`Vec` pool that re-sorts every pending transaction
    /// on each collect — the mempool half of the baseline system.
    LegacyFullSort,
}

/// Builds the funded world on the requested backend: every account
/// credited, every collection deployed empty.
pub fn build_world(cfg: &TrafficConfig, backend: StorageBackend) -> L2State {
    let mut state = L2State::with_backend(backend);
    for i in 0..cfg.accounts {
        state.credit(cfg.account(i), Wei::from_eth(50));
    }
    for (c, addr) in collection_addresses(cfg).into_iter().enumerate() {
        state
            .deploy_collection_at(
                addr,
                CollectionConfig::limited_edition(&format!("T{c}"), cfg.tokens_per_collection, 1),
            )
            .expect("fresh address");
    }
    state
}

/// One periodic measurement window of a traffic run: the per-window view
/// that turns `BENCH_PR9.json` into a time series instead of one aggregate
/// row. Windows cover consecutive slices of the timed region (the warm-up
/// block is never sampled).
#[derive(Debug, Clone, Serialize)]
pub struct TrafficSample {
    /// Last timed block (1-based within the timed region) the window covers.
    pub through_block: usize,
    /// Blocks inside this window.
    pub window_blocks: usize,
    /// Block-production rate over the window alone.
    pub window_blocks_per_sec: f64,
    /// 99th-percentile per-block latency inside the window.
    pub window_p99_ms: f64,
    /// Receipt log entries emitted by the window's blocks.
    pub window_events: u64,
    /// Keccak-256 digests recorded by telemetry during the window (0 when
    /// the `telemetry` feature is off).
    pub window_keccaks: u64,
}

/// One measured sustained-traffic run.
#[derive(Debug, Serialize)]
pub struct TrafficRun {
    /// `"arena"` or `"btree"`.
    pub backend: String,
    /// `"indexed"` or `"legacy-sort"`.
    pub mempool: String,
    /// `"serial"` or `"parallel(n)"`.
    pub exec_mode: String,
    /// Funded accounts.
    pub accounts: usize,
    /// Deployed collections.
    pub collections: usize,
    /// Standing backlog held in the pool for the whole run.
    pub backlog: usize,
    /// Blocks sealed (including the untimed warm-up block).
    pub blocks: usize,
    /// Blocks inside the timed region (`blocks - 1`).
    pub timed_blocks: usize,
    /// Transactions executed across all blocks (including warm-up).
    pub txs: usize,
    /// Transactions that reverted (must be zero — the schedule is valid by
    /// construction).
    pub reverts: usize,
    /// Sustained block-production rate over the timed region.
    pub blocks_per_sec: f64,
    /// Mean per-block submit+seal+execute+root latency (timed region).
    pub mean_seal_ms: f64,
    /// 99th-percentile per-block latency (timed region).
    pub p99_seal_ms: f64,
    /// Total milliseconds spent admitting transactions to the pool.
    pub submit_ms_total: f64,
    /// Total milliseconds in seal+execute (candidate selection + OVM).
    pub seal_ms_total: f64,
    /// Total milliseconds computing per-block state roots.
    pub root_ms_total: f64,
    /// Final state root (hex) — must be identical across every backend,
    /// mempool variant and execution mode for the same config.
    pub final_root: String,
    /// Whether the final root matched the from-scratch naive oracle.
    pub root_matches_naive: bool,
    /// Mempool structural-operation counters for the whole run.
    pub mempool_heap_pushes: u64,
    /// Heap pops across the run (= transactions handed to the sequencer
    /// for the indexed pool; zero for the legacy pool).
    pub mempool_heap_pops: u64,
    /// Lazy index rebuilds (O(P) re-keys actually performed).
    pub mempool_rebuilds: u64,
    /// Base-fee changes absorbed by the stability window without a rebuild.
    pub mempool_rekeys_skipped: u64,
    /// Full-pool sorts performed (legacy pool: one per block; indexed: 0).
    pub mempool_full_sorts: u64,
    /// Pending entries scanned across all full sorts — the O(P)-per-block
    /// term the indexed pool eliminates.
    pub mempool_sort_scanned: u64,
    /// Peak resident set size (bytes) sampled at the end of the run.
    pub peak_rss_bytes: u64,
    /// Whether the sequencer maintained the queryable per-block log index.
    pub log_index: bool,
    /// Receipt log entries emitted across the whole run (every committed
    /// operation emits; reverted transactions emit nothing).
    pub events_emitted: u64,
    /// Hits returned by the end-of-run smoke query (full block range, all
    /// `Transfer` events); 0 when the index is off.
    pub log_query_hits: u64,
    /// Periodic per-window measurements (blocks/sec + p99 time series).
    pub timeline: Vec<TrafficSample>,
}

/// Replays `schedule` through mempool → sequencer → OVM on the given
/// backend, mempool variant and execution mode, timing every block after
/// the warm-up (see [module docs](self) for what is inside the timed
/// region).
///
/// Every block's gas limit is set to that block's exact gas demand under
/// the paper-calibrated schedule, so the sealed blocks contain precisely
/// the fresh transactions — the zero-tip backlog never fits — and the
/// state trajectory is identical across every knob combination.
pub fn run_traffic(
    cfg: &TrafficConfig,
    schedule: &[Vec<NftTransaction>],
    backend: StorageBackend,
    pool_variant: PoolVariant,
    exec: ExecMode,
) -> TrafficRun {
    run_traffic_with(cfg, schedule, backend, pool_variant, exec, false)
}

/// [`run_traffic`] with the sequencer's queryable log index switched on or
/// off — the knob the PR 9 overhead rows ablate. Event emission and
/// per-receipt blooms are unconditional OVM behaviour; `index_logs` only
/// controls whether the sequencer additionally folds every block into a
/// [`parole_ovm::LogIndex`] (and answers one smoke query at the end).
pub fn run_traffic_with(
    cfg: &TrafficConfig,
    schedule: &[Vec<NftTransaction>],
    backend: StorageBackend,
    pool_variant: PoolVariant,
    exec: ExecMode,
    index_logs: bool,
) -> TrafficRun {
    assert!(
        schedule.len() >= 2,
        "need at least a warm-up block and one timed block"
    );
    let mut state = build_world(cfg, backend);
    // Materialize the genesis commitment outside the timed region: the
    // one-off O(world) tree build is not sustained-traffic cost, and at
    // 10⁶ accounts it would otherwise dominate the first block's latency
    // (and therefore p99).
    let _ = state.state_root();
    let base_fee = Wei::from_gwei(1);
    let pool = match pool_variant {
        PoolVariant::Indexed => BedrockMempool::new(base_fee),
        PoolVariant::LegacyFullSort => BedrockMempool::legacy_full_sort(base_fee),
    };
    let mut seq = Sequencer::new(pool, cfg.gas_limit())
        .with_exec_mode(exec)
        .with_log_index(index_logs);
    // Admit the standing backlog before anything is timed: admission is
    // setup, the per-block cost of *carrying* the backlog is the thing
    // under measurement.
    seq.mempool_mut().submit_all(generate_backlog(cfg));
    assert_eq!(seq.pending(), cfg.backlog);

    let gas_schedule = GasSchedule::paper_calibrated();
    let mut block_ms = Vec::with_capacity(schedule.len() - 1);
    let mut submit_ms_total = 0.0f64;
    let mut seal_ms_total = 0.0f64;
    let mut root_ms_total = 0.0f64;
    let mut txs = 0usize;
    let mut reverts = 0usize;
    let mut events_emitted = 0u64;
    // Periodic sampling: ~8 windows over the timed region, turning the run
    // into a blocks/sec + p99 time series (plus per-window event and
    // telemetry-counter deltas).
    let sample_every = ((schedule.len() - 1) / 8).max(1);
    let mut timeline: Vec<TrafficSample> = Vec::new();
    let mut window_ms: Vec<f64> = Vec::new();
    let mut window_events = 0u64;
    let mut window_started = Instant::now();
    let mut window_keccak_base = parole_telemetry::snapshot().counter("crypto.keccak256");
    let mut started = Instant::now();
    for (i, block_txs) in schedule.iter().enumerate() {
        // Exact per-block gas limit: blocks can run short when the
        // generator finds no untouched token, so the limit must track the
        // actual contents for the backlog to be excluded precisely.
        let block_gas: Gas = block_txs
            .iter()
            .map(|t| gas_schedule.gas_for(&t.kind))
            .sum();
        seq.set_gas_limit(block_gas);
        let t0 = Instant::now();
        seq.mempool_mut().submit_all(block_txs.iter().copied());
        let t1 = Instant::now();
        let (block, receipts) = seq.seal_and_execute(&mut state, None);
        let t2 = Instant::now();
        std::hint::black_box(state.state_root());
        let t3 = Instant::now();
        txs += block.txs.len();
        reverts += receipts.iter().filter(|r| !r.is_success()).count();
        let block_events: u64 = receipts.iter().map(|r| r.logs.len() as u64).sum();
        events_emitted += block_events;
        assert_eq!(
            block.txs.len(),
            block_txs.len(),
            "the gas limit admits exactly this block's fresh transactions"
        );
        assert_eq!(
            seq.pending(),
            cfg.backlog,
            "the backlog stays resident; fresh traffic drains completely"
        );
        if i == 0 {
            // Warm-up block: absorbs one-off allocator growth and page
            // faults, then the clock starts.
            started = Instant::now();
            window_started = started;
            window_keccak_base = parole_telemetry::snapshot().counter("crypto.keccak256");
            continue;
        }
        block_ms.push((t3 - t0).as_secs_f64() * 1e3);
        submit_ms_total += (t1 - t0).as_secs_f64() * 1e3;
        seal_ms_total += (t2 - t1).as_secs_f64() * 1e3;
        root_ms_total += (t3 - t2).as_secs_f64() * 1e3;
        window_ms.push((t3 - t0).as_secs_f64() * 1e3);
        window_events += block_events;
        if window_ms.len() == sample_every || i == schedule.len() - 1 {
            let w_elapsed = window_started.elapsed().as_secs_f64();
            let keccaks_now = parole_telemetry::snapshot().counter("crypto.keccak256");
            let mut sorted = window_ms.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p99 = sorted[((sorted.len() as f64 * 0.99).ceil() as usize).min(sorted.len()) - 1];
            timeline.push(TrafficSample {
                through_block: block_ms.len(),
                window_blocks: window_ms.len(),
                window_blocks_per_sec: window_ms.len() as f64 / w_elapsed.max(f64::EPSILON),
                window_p99_ms: p99,
                window_events,
                window_keccaks: keccaks_now.saturating_sub(window_keccak_base),
            });
            window_ms.clear();
            window_events = 0;
            window_started = Instant::now();
            window_keccak_base = keccaks_now;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let final_root = state.state_root();
    let root_matches_naive = final_root == state.state_root_naive();
    // Smoke query: with the index on, every Transfer event of the run must
    // be retrievable through the bloom-pruned query path.
    let log_query_hits = if index_logs {
        seq.query_logs(&LogFilter::all().of_kind(EventKind::Transfer))
            .len() as u64
    } else {
        0
    };
    let ops: PoolOpStats = seq.mempool_mut().op_stats();

    let mut sorted = block_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = sorted[((sorted.len() as f64 * 0.99).ceil() as usize).min(sorted.len()) - 1];

    TrafficRun {
        backend: match backend {
            StorageBackend::Arena => "arena".into(),
            StorageBackend::BTree => "btree".into(),
        },
        mempool: match pool_variant {
            PoolVariant::Indexed => "indexed".into(),
            PoolVariant::LegacyFullSort => "legacy-sort".into(),
        },
        exec_mode: match exec {
            ExecMode::Serial => "serial".into(),
            ExecMode::Parallel { threads } => format!("parallel({threads})"),
        },
        accounts: cfg.accounts,
        collections: cfg.collections,
        backlog: cfg.backlog,
        blocks: schedule.len(),
        timed_blocks: block_ms.len(),
        txs,
        reverts,
        blocks_per_sec: block_ms.len() as f64 / elapsed,
        mean_seal_ms: block_ms.iter().sum::<f64>() / block_ms.len() as f64,
        p99_seal_ms: p99,
        submit_ms_total,
        seal_ms_total,
        root_ms_total,
        final_root: final_root.to_string(),
        root_matches_naive,
        mempool_heap_pushes: ops.heap_pushes,
        mempool_heap_pops: ops.heap_pops,
        mempool_rebuilds: ops.rebuilds,
        mempool_rekeys_skipped: ops.rekeys_skipped,
        mempool_full_sorts: ops.full_sorts,
        mempool_sort_scanned: ops.sort_scanned,
        peak_rss_bytes: peak_rss_bytes(),
        log_index: index_logs,
        events_emitted,
        log_query_hits,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrafficConfig {
        TrafficConfig {
            accounts: 400,
            collections: 8,
            tokens_per_collection: 64,
            blocks: 6,
            txs_per_block: 40,
            sender_alpha: 1.2,
            collection_alpha: 1.0,
            backlog: 300,
            seed: 9,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let cfg = tiny();
        let a = generate_blocks(&cfg);
        let b = generate_blocks(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.blocks);
        assert!(a.iter().all(|blk| !blk.is_empty()));
    }

    #[test]
    fn backends_and_exec_modes_agree_with_zero_reverts() {
        let cfg = tiny();
        let schedule = generate_blocks(&cfg);
        let arena = run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Serial,
        );
        let legacy = run_traffic(
            &cfg,
            &schedule,
            StorageBackend::BTree,
            PoolVariant::LegacyFullSort,
            ExecMode::Serial,
        );
        let par = run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Parallel { threads: 2 },
        );
        assert_eq!(arena.reverts, 0, "schedule must be valid by construction");
        assert_eq!(legacy.reverts, 0);
        assert_eq!(
            arena.final_root, legacy.final_root,
            "backend- and pool-variant-independent root"
        );
        assert_eq!(
            arena.final_root, par.final_root,
            "exec-mode-independent root"
        );
        assert!(arena.root_matches_naive);
        assert!(legacy.root_matches_naive);
        assert!(arena.txs > 0 && arena.txs == legacy.txs);
        // The indexed mempool did real work and never full-pool sorted.
        assert_eq!(arena.mempool_heap_pops as usize, arena.txs);
        assert_eq!(arena.mempool_full_sorts, 0);
        assert_eq!(
            arena.mempool_rebuilds, 0,
            "fee drift stays inside the stability window"
        );
        // The legacy pool re-sorted the whole standing population every
        // block — the O(P log P)-per-block cost the index removes.
        assert_eq!(legacy.mempool_full_sorts as usize, cfg.blocks);
        assert!(legacy.mempool_sort_scanned as usize >= cfg.backlog * cfg.blocks);
        assert_eq!(legacy.mempool_heap_pops, 0);
    }

    /// The log-index knob must not change execution: an indexed run lands
    /// on the same final root, carries a blocks/sec + p99 timeline, emits
    /// one log stream per committed operation, and answers the Transfer
    /// smoke query with every mint/transfer/burn of the run.
    #[test]
    fn log_indexed_run_agrees_and_answers_queries() {
        let cfg = tiny();
        let schedule = generate_blocks(&cfg);
        let plain = run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Serial,
        );
        let indexed = run_traffic_with(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Serial,
            true,
        );
        assert_eq!(
            plain.final_root, indexed.final_root,
            "indexing receipts must not perturb execution"
        );
        assert!(indexed.log_index && !plain.log_index);
        assert_eq!(plain.events_emitted, indexed.events_emitted);
        assert!(indexed.events_emitted > 0, "committed ops must emit");
        // Every scheduled op is exactly one mint/transfer/burn → exactly
        // one Transfer event per executed transaction.
        assert_eq!(indexed.log_query_hits as usize, indexed.txs);
        assert_eq!(plain.log_query_hits, 0);
        // The timeline covers the whole timed region, windows sum to it.
        assert!(!indexed.timeline.is_empty());
        let covered: usize = indexed.timeline.iter().map(|s| s.window_blocks).sum();
        assert_eq!(covered, indexed.timed_blocks);
        assert_eq!(
            indexed.timeline.last().unwrap().through_block,
            indexed.timed_blocks
        );
        let events_in_windows: u64 = indexed.timeline.iter().map(|s| s.window_events).sum();
        assert!(events_in_windows <= indexed.events_emitted);
        assert!(indexed
            .timeline
            .iter()
            .all(|s| s.window_blocks_per_sec > 0.0 && s.window_p99_ms >= 0.0));
    }

    /// The marketplace schedule holds the same contract as the classic one
    /// — deterministic, zero reverts, bit-identical roots across backends
    /// and 1/2/8-thread execution — while exercising all six op kinds.
    #[test]
    fn marketplace_schedule_runs_clean_and_thread_invariant() {
        let cfg = tiny();
        let schedule = generate_marketplace_blocks(&cfg);
        assert_eq!(schedule, generate_marketplace_blocks(&cfg), "deterministic");

        let mix = schedule_mix(&schedule);
        for label in ["mint", "list", "buy", "cancel_listing", "transfer", "burn"] {
            assert!(
                mix.get(label).copied().unwrap_or(0) > 0,
                "mix must exercise {label}: {mix:?}"
            );
        }

        let serial = run_traffic(
            &cfg,
            &schedule,
            StorageBackend::Arena,
            PoolVariant::Indexed,
            ExecMode::Serial,
        );
        assert_eq!(
            serial.reverts, 0,
            "marketplace schedule is valid by construction"
        );
        assert!(serial.root_matches_naive);
        for threads in [1usize, 2, 8] {
            let par = run_traffic(
                &cfg,
                &schedule,
                StorageBackend::BTree,
                PoolVariant::LegacyFullSort,
                ExecMode::Parallel { threads },
            );
            assert_eq!(par.reverts, 0);
            assert_eq!(
                par.final_root, serial.final_root,
                "marketplace root diverges at {threads} threads"
            );
        }
    }

    /// The book invariant behind zero-revert marketplace traffic: replay
    /// the schedule against a model and check no listed token is ever
    /// transferred, burned or re-listed while its listing is open, and
    /// every Buy/Cancel targets a listing opened in an *earlier* block.
    #[test]
    fn marketplace_schedule_never_strands_a_listing() {
        use std::collections::HashMap;
        let cfg = tiny();
        // (collection, token) -> block the live listing was opened in.
        let mut open: HashMap<(Address, TokenId), usize> = HashMap::new();
        for (i, block) in generate_marketplace_blocks(&cfg).iter().enumerate() {
            for tx in block {
                let key = (
                    tx.kind.collection(),
                    match tx.kind.token() {
                        Some(t) => t,
                        None => continue,
                    },
                );
                match tx.kind {
                    TxKind::List { .. } => {
                        assert!(!open.contains_key(&key), "double list of {key:?}");
                        open.insert(key, i);
                    }
                    TxKind::Buy { .. } | TxKind::CancelListing { .. } => {
                        let opened = open.remove(&key).expect("op on unlisted token");
                        assert!(opened < i, "listing of {key:?} consumed in its own block");
                    }
                    TxKind::Transfer { .. } | TxKind::Burn { .. } => {
                        assert!(!open.contains_key(&key), "listed token {key:?} moved");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn backlog_is_includable_and_always_outranked() {
        let cfg = tiny();
        let backlog = generate_backlog(&cfg);
        assert_eq!(backlog.len(), cfg.backlog);
        let base = Wei::from_gwei(1);
        for tx in &backlog {
            assert!(tx.fees.is_includable(base));
            assert_eq!(tx.fees.effective_tip(base), Wei::ZERO);
        }
        // Every scheduled transaction strictly outranks every backlog entry.
        for blk in generate_blocks(&cfg) {
            for tx in blk {
                assert!(tx.fees.effective_tip(base) > Wei::ZERO);
            }
        }
    }
}
