//! Sustained-traffic inputs: a 10⁶-account world and the transaction
//! schedules that drive it.
//!
//! The pipeline benchmark (`pipebench/`) builds its chains from these:
//!
//! 1. [`build_world`] funds `cfg.accounts` accounts and deploys
//!    `cfg.collections` empty collections at deterministic addresses.
//! 2. [`generate_marketplace_blocks`] synthesizes the whole per-block
//!    schedule up front, deterministically from the seed: senders and
//!    collections are Zipf-distributed ([`parole_mempool::ZipfSampler`]),
//!    and within each block every token is touched at most once, so any
//!    fee-priority permutation of a block executes with zero reverts.
//!    Generation cost never pollutes a timing.
//! 3. [`generate_backlog`] synthesizes the standing backlog that makes the
//!    load *sustained*: real mempools under load are never empty, so the
//!    pool holds `cfg.backlog` includable zero-tip transactions (distinct
//!    sender range, never sealed) that every scheduled transaction
//!    outranks.
//!
//! With each block's gas limit set to that block's exact demand, a sealed
//! block holds exactly its scheduled transactions and the backlog stays
//! pooled, so the state trajectory is the same under every execution mode.

use parole_mempool::ZipfSampler;
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, TxKind};
use parole_primitives::{Address, FeeBundle, StorageBackend, TokenId, Wei};
use parole_state::L2State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

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

    fn account(&self, idx: usize) -> Address {
        Address::from_low_u64(idx as u64 + 1)
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
/// EXPERIMENTS item 10, deterministic and Zipf-skewed (hot collections
/// absorb most of the listing and sale flow), and order-independent within
/// each block: every `(collection, token)` is touched at most once per
/// block, listed
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

/// Builds the funded world: `cfg.accounts` accounts holding 50 ETH each,
/// then every collection deployed empty. The accounts are numbered in
/// ascending address order, so [`L2State::from_accounts`] bulk-loads them
/// into the account table in one pass, and the first `state_root()` shares
/// the table's key pages. The flat arena is the only layout, so `_backend`
/// selects nothing.
pub fn build_world(cfg: &TrafficConfig, _backend: StorageBackend) -> L2State {
    let mut state =
        L2State::from_accounts((0..cfg.accounts).map(|i| (cfg.account(i), Wei::from_eth(50))));
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

#[cfg(test)]
mod tests {
    use super::*;
    use parole_crypto::Hash32;
    use parole_mempool::{BedrockMempool, Sequencer};
    use parole_ovm::{EventKind, GasSchedule, LogFilter};
    use parole_primitives::Gas;

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

    /// What one replay of a schedule through the pipeline produced.
    struct Replay {
        root: Hash32,
        root_matches_naive: bool,
        reverts: usize,
        heap_pops: u64,
        rebuilds: u64,
        logs: usize,
        /// Hits of `LogFilter::all()` and of its `Transfer`-only narrowing;
        /// zero when the log index is off.
        log_hits: usize,
        transfer_hits: usize,
    }

    /// Replays `schedule` through mempool → sequencer → OVM on a
    /// `build_world` chain with the backlog pooled, setting each block's
    /// gas limit to its exact demand so every sealed block holds exactly
    /// its scheduled transactions.
    fn replay(cfg: &TrafficConfig, schedule: &[Vec<NftTransaction>], index_logs: bool) -> Replay {
        let mut state = build_world(cfg, StorageBackend::Arena);
        // The fee controller targets half this nominal limit (ops cost
        // ~10⁵ gas each); each block's actual limit is its exact demand.
        let nominal = Gas::new(cfg.txs_per_block as u64 * 250_000);
        let mut seq = Sequencer::new(BedrockMempool::new(Wei::from_gwei(1)), nominal)
            .with_log_index(index_logs);
        seq.mempool_mut().submit_all(generate_backlog(cfg));
        let gas_schedule = GasSchedule::paper_calibrated();
        let (mut reverts, mut logs) = (0, 0);
        for block_txs in schedule {
            let block_gas: Gas = block_txs
                .iter()
                .map(|t| gas_schedule.gas_for(&t.kind))
                .sum();
            seq.set_gas_limit(block_gas);
            seq.mempool_mut().submit_all(block_txs.iter().copied());
            let (block, receipts) = seq.seal_and_execute(&mut state, None);
            assert_eq!(block.txs.len(), block_txs.len(), "block holds its schedule");
            assert_eq!(seq.pending(), cfg.backlog, "the backlog stays pooled");
            reverts += receipts.iter().filter(|r| !r.is_success()).count();
            logs += receipts.iter().map(|r| r.logs.len()).sum::<usize>();
        }
        let ops = seq.mempool_mut().op_stats();
        Replay {
            root: state.state_root(),
            root_matches_naive: state.state_root() == state.state_root_naive(),
            reverts,
            heap_pops: ops.heap_pops,
            rebuilds: ops.rebuilds,
            logs,
            log_hits: seq.query_logs(&LogFilter::all()).len(),
            transfer_hits: seq
                .query_logs(&LogFilter::all().of_kind(EventKind::Transfer))
                .len(),
        }
    }

    /// The schedule is a pure function of the config and exercises all six
    /// marketplace ops.
    #[test]
    fn schedule_is_deterministic() {
        let cfg = tiny();
        let a = generate_marketplace_blocks(&cfg);
        assert_eq!(a, generate_marketplace_blocks(&cfg));
        assert_eq!(a.len(), cfg.blocks);
        assert!(a.iter().all(|blk| !blk.is_empty()));
        for label in ["mint", "list", "buy", "cancel_listing", "transfer", "burn"] {
            assert!(
                a.iter().flatten().any(|tx| tx.kind.label() == label),
                "mix must exercise {label}"
            );
        }
    }

    /// The marketplace schedule through the pipeline on the `build_world`
    /// layout: zero reverts, a final root equal to the naive rebuild, one
    /// heap pop per sealed transaction, and no index rebuild over the
    /// standing backlog.
    #[test]
    fn backends_and_exec_modes_agree_with_zero_reverts() {
        let cfg = tiny();
        let schedule = generate_marketplace_blocks(&cfg);
        let txs: usize = schedule.iter().map(Vec::len).sum();

        let run = replay(&cfg, &schedule, false);
        assert_eq!(run.reverts, 0, "valid by construction");
        assert!(run.root_matches_naive);
        assert_eq!(run.heap_pops, txs as u64, "one heap pop per sealed tx");
        assert_eq!(run.rebuilds, 0, "fee drift stays inside the window");
    }

    /// The log-index knob must not change execution: an indexed run lands on
    /// the same final root, emits the same logs, indexes every one of them,
    /// and answers the `Transfer` query with every mint, transfer and burn.
    #[test]
    fn log_indexed_run_agrees_and_answers_queries() {
        let cfg = tiny();
        let schedule = generate_marketplace_blocks(&cfg);

        let plain = replay(&cfg, &schedule, false);
        let indexed = replay(&cfg, &schedule, true);
        assert_eq!(
            indexed.root, plain.root,
            "indexing must not perturb execution"
        );
        assert_eq!(indexed.logs, plain.logs);
        assert!(indexed.logs > 0, "committed ops emit");
        assert_eq!(
            indexed.log_hits, indexed.logs,
            "every emitted log is indexed"
        );
        assert_eq!(
            (plain.log_hits, plain.transfer_hits),
            (0, 0),
            "no index, no hits"
        );
        // Mints, transfers and burns each emit exactly one `Transfer`.
        let moves = schedule
            .iter()
            .flatten()
            .filter(|tx| matches!(tx.kind.label(), "mint" | "transfer" | "burn"))
            .count();
        assert_eq!(indexed.transfer_hits, moves);
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
        for blk in generate_marketplace_blocks(&cfg) {
            for tx in blk {
                assert!(tx.fees.effective_tip(base) > Wei::ZERO);
            }
        }
    }
}
