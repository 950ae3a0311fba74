//! Bit-identity of the OCC parallel block executor against the serial OVM.
//!
//! The contract under test: for any block and any thread count,
//! [`ParallelExecutor::execute_block`] produces the same receipts (status,
//! gas, fees, prices), the same state root, and the same scheduler
//! statistics as every other thread count — and the receipts/root match
//! [`Ovm::execute_sequence`] exactly. Conflict density is tunable through
//! the generator's user/token pool sizes: a tiny pool makes almost every
//! transaction contend for the same records, a large pool makes the block
//! embarrassingly parallel.

use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, OvmConfig, ParallelExecutor, ParallelStats, TxKind};
use parole_primitives::{Address, FeeBundle, TokenId, Wei};
use parole_state::L2State;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[derive(Debug, Clone)]
enum RawOp {
    Mint { sender: u64, token: u64 },
    Transfer { sender: u64, token: u64, to: u64 },
    Burn { sender: u64, token: u64 },
    Approve { sender: u64, token: u64, to: u64 },
    SetForAll { sender: u64, to: u64, on: bool },
    List { sender: u64, token: u64, milli: u64 },
    Cancel { sender: u64, token: u64 },
    Buy { sender: u64, token: u64 },
}

/// Operations over a bounded pool; `users`/`tokens` set conflict density.
fn arb_op(users: u64, tokens: u64) -> impl Strategy<Value = RawOp> {
    // Transfer arms repeated: transfer-heavy traffic is the parallelizable
    // regime (mints/burns serialize on the collection header).
    prop_oneof![
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Mint { sender, token }),
        (0..users, 0..tokens, 0..users).prop_map(|(sender, token, to)| RawOp::Transfer {
            sender,
            token,
            to
        }),
        (0..users, 0..tokens, 0..users).prop_map(|(sender, token, to)| RawOp::Transfer {
            sender,
            token,
            to
        }),
        (0..users, 0..tokens, 0..users).prop_map(|(sender, token, to)| RawOp::Transfer {
            sender,
            token,
            to
        }),
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Burn { sender, token }),
        (0..users, 0..tokens, 0..users).prop_map(|(sender, token, to)| RawOp::Approve {
            sender,
            token,
            to
        }),
        (0..users, 0..users, any::<bool>()).prop_map(|(sender, to, on)| RawOp::SetForAll {
            sender,
            to,
            on
        }),
        // Marketplace traffic: List/Cancel/Buy exercise the token-leaf
        // listing book plus Buy's seller/creator credit writes. A zero ask
        // (milli == 0) is kept in range to cover the BadPrice revert shape.
        (0..users, 0..tokens, 0..2000u64).prop_map(|(sender, token, milli)| RawOp::List {
            sender,
            token,
            milli
        }),
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Cancel { sender, token }),
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Buy { sender, token }),
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Buy { sender, token }),
    ]
}

/// A funded world with one collection and the first half of the token pool
/// pre-minted so transfers/burns have material.
fn world(users: u64, tokens: u64) -> (L2State, Address) {
    let mut state = L2State::new();
    let coll =
        state.deploy_collection(CollectionConfig::limited_edition("Par", tokens.max(4), 200));
    for u in 1..=users {
        state.credit(Address::from_low_u64(u), Wei::from_eth(50));
    }
    for t in 0..tokens / 2 {
        let owner = Address::from_low_u64(t % users + 1);
        state
            .nft_mint(coll, owner, TokenId::new(t))
            .unwrap()
            .unwrap();
        // Every fourth pre-minted token starts listed, so Buy arms can hit
        // fresh listings from the first wave, not only intra-block ones.
        if t % 4 == 0 {
            state
                .nft_list(coll, owner, TokenId::new(t), Wei::from_milli_eth(300 + t))
                .unwrap()
                .unwrap();
        }
    }
    (state, coll)
}

fn to_tx(op: &RawOp, coll: Address, fees: FeeBundle) -> NftTransaction {
    let a = |v: u64| Address::from_low_u64(v + 1);
    let kind = match *op {
        RawOp::Mint { token, .. } => TxKind::Mint {
            collection: coll,
            token: TokenId::new(token),
        },
        RawOp::Transfer { token, to, .. } => TxKind::Transfer {
            collection: coll,
            token: TokenId::new(token),
            to: a(to),
        },
        RawOp::Burn { token, .. } => TxKind::Burn {
            collection: coll,
            token: TokenId::new(token),
        },
        RawOp::Approve { token, to, .. } => TxKind::Approve {
            collection: coll,
            token: TokenId::new(token),
            operator: a(to),
        },
        RawOp::SetForAll { to, on, .. } => TxKind::SetApprovalForAll {
            collection: coll,
            operator: a(to),
            approved: on,
        },
        RawOp::List { token, milli, .. } => TxKind::List {
            collection: coll,
            token: TokenId::new(token),
            price: Wei::from_milli_eth(milli),
        },
        RawOp::Cancel { token, .. } => TxKind::CancelListing {
            collection: coll,
            token: TokenId::new(token),
        },
        RawOp::Buy { token, .. } => TxKind::Buy {
            collection: coll,
            token: TokenId::new(token),
        },
    };
    let sender = match *op {
        RawOp::Mint { sender, .. }
        | RawOp::Transfer { sender, .. }
        | RawOp::Burn { sender, .. }
        | RawOp::Approve { sender, .. }
        | RawOp::SetForAll { sender, .. }
        | RawOp::List { sender, .. }
        | RawOp::Cancel { sender, .. }
        | RawOp::Buy { sender, .. } => a(sender),
    };
    NftTransaction::with_fees(sender, kind, fees)
}

/// Scheduler counters that must not depend on the worker count (everything
/// except `workers` itself).
fn partition_invariant(s: &ParallelStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.txs,
        s.speculations,
        s.committed_clean,
        s.conflicts,
        s.reexecutions,
        s.waves,
        s.max_wave_width,
    )
}

/// Runs `txs` serially and at every thread count, asserting bit-identity
/// of receipts, state root and user balances, plus stats determinism.
fn assert_bit_identical(ovm: Ovm, base: &L2State, txs: &[NftTransaction], users: u64) {
    let mut serial = base.clone();
    let want = ovm.execute_sequence(&mut serial, txs);
    let want_root = serial.state_root();

    let mut reference_stats: Option<ParallelStats> = None;
    for threads in THREAD_COUNTS {
        let mut state = base.clone();
        let exec = ParallelExecutor::with_threads(ovm.clone(), threads);
        let (got, stats) = exec.execute_block(&mut state, txs);

        assert_eq!(got, want, "receipts diverge at {threads} threads");
        // Receipt equality already covers logs/blooms, but the observability
        // contract is load-bearing enough to pin explicitly: the ordered
        // event stream and its bloom must be bit-identical to serial, and
        // each receipt bloom must be exactly the bloom of its own logs.
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.logs, w.logs,
                "log stream of tx {i} diverges at {threads} threads"
            );
            assert_eq!(
                g.bloom, w.bloom,
                "bloom of tx {i} diverges at {threads} threads"
            );
            assert!(
                g.bloom_consistent(),
                "tx {i} bloom inconsistent at {threads} threads"
            );
        }
        let block_bloom = got.iter().fold(parole_ovm::Bloom::ZERO, |mut acc, r| {
            acc.accrue(&r.bloom);
            acc
        });
        let want_block_bloom = want.iter().fold(parole_ovm::Bloom::ZERO, |mut acc, r| {
            acc.accrue(&r.bloom);
            acc
        });
        assert_eq!(
            block_bloom, want_block_bloom,
            "block bloom diverges at {threads} threads"
        );
        assert_eq!(
            state.state_root(),
            want_root,
            "state root diverges at {threads} threads"
        );
        assert_eq!(
            state.total_supply(),
            serial.total_supply(),
            "fee burn diverges at {threads} threads"
        );
        for u in 1..=users {
            let who = Address::from_low_u64(u);
            assert_eq!(
                state.balance_of(who),
                serial.balance_of(who),
                "balance of user {u} diverges at {threads} threads"
            );
        }
        match &reference_stats {
            None => reference_stats = Some(stats),
            Some(first) => assert_eq!(
                partition_invariant(&stats),
                partition_invariant(first),
                "scheduler stats diverge at {threads} threads"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse pool: many users and tokens, transfer-heavy traffic. Most
    /// speculations should commit clean, and whatever the conflict pattern,
    /// the result is bit-identical to serial at 1, 2 and 8 threads.
    #[test]
    fn sparse_blocks_match_serial(ops in prop::collection::vec(arb_op(12, 24), 1..60)) {
        let (base, coll) = world(12, 24);
        let txs: Vec<_> = ops.iter().map(|o| to_tx(o, coll, FeeBundle::default())).collect();
        assert_bit_identical(Ovm::new(), &base, &txs, 12);
    }

    /// Dense pool: three users fighting over six tokens with mint/burn
    /// repricing in the mix — high abort rates, same bit-identity bar.
    #[test]
    fn dense_blocks_match_serial(ops in prop::collection::vec(arb_op(3, 6), 1..40)) {
        let (base, coll) = world(3, 6);
        let txs: Vec<_> = ops.iter().map(|o| to_tx(o, coll, FeeBundle::default())).collect();
        assert_bit_identical(Ovm::new(), &base, &txs, 3);
    }

    /// Fee charging exercises the validated-commit fast path's fee debit
    /// and the CannotPayFees revert shape (user pools include broke
    /// senders whose accounts don't exist in the base state).
    #[test]
    fn fee_charging_blocks_match_serial(ops in prop::collection::vec(arb_op(8, 12), 1..40)) {
        let (base, coll) = world(6, 12); // users 7..=8 unfunded
        let txs: Vec<_> = ops
            .iter()
            .map(|o| to_tx(o, coll, FeeBundle::from_gwei(30, 2)))
            .collect();
        let charging = Ovm::with_config(OvmConfig { charge_fees: true, ..Default::default() });
        assert_bit_identical(charging, &base, &txs, 8);
    }
}

/// Every transaction shares one sender: the nonce record serializes the
/// whole block, so exactly the first transaction commits clean and every
/// other one aborts and re-executes — still bit-identical.
#[test]
fn all_conflict_same_sender_block() {
    let (base, coll) = world(4, 16);
    let sender = Address::from_low_u64(1);
    let txs: Vec<_> = (0..12u64)
        .map(|t| {
            NftTransaction::simple(
                sender,
                TxKind::Transfer {
                    collection: coll,
                    token: TokenId::new(t % 8),
                    to: Address::from_low_u64(2 + t % 3),
                },
            )
        })
        .collect();

    let mut serial = base.clone();
    let want = Ovm::new().execute_sequence(&mut serial, &txs);

    for threads in THREAD_COUNTS {
        let mut state = base.clone();
        let (got, stats) =
            ParallelExecutor::with_threads(Ovm::new(), threads).execute_block(&mut state, &txs);
        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(stats.committed_clean, 1, "only tx 0 can commit clean");
        assert_eq!(stats.conflicts, 11);
        assert_eq!(stats.reexecutions, 11);
    }
}

/// Hot-mint block: distinct senders all minting the same collection. Every
/// mint writes the collection header (supply → price), so each transaction
/// after the first conflicts on the header and pays the serially-correct,
/// monotonically increasing bonding-curve price.
#[test]
fn all_conflict_hot_mint_block() {
    let (base, coll) = world(8, 16);
    let txs: Vec<_> = (0..6u64)
        .map(|i| {
            NftTransaction::simple(
                Address::from_low_u64(i + 1),
                TxKind::Mint {
                    collection: coll,
                    token: TokenId::new(8 + i),
                },
            )
        })
        .collect();

    let mut serial = base.clone();
    let want = Ovm::new().execute_sequence(&mut serial, &txs);
    assert!(want.iter().all(|r| r.is_success()));
    // The serial prices must strictly increase along the block.
    for pair in want.windows(2) {
        assert!(pair[1].price_before > pair[0].price_before);
    }

    for threads in THREAD_COUNTS {
        let mut state = base.clone();
        let (got, stats) =
            ParallelExecutor::with_threads(Ovm::new(), threads).execute_block(&mut state, &txs);
        assert_eq!(got, want);
        assert_eq!(state.state_root(), serial.state_root());
        assert_eq!(stats.conflicts, 5, "header write serializes the block");
    }
}
