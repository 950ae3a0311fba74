//! Serial block execution over every operation kind: receipt-level
//! observability under fee charging, and the bonding curve along a block
//! of competing mints.
//!
//! The generator deals all eight operations over a bounded user/token
//! pool with some senders left unfunded, so fee-charged blocks mix
//! successes, constraint reverts and `CannotPayFees`.

use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, OvmConfig, TxKind};
use parole_primitives::{Address, FeeBundle, TokenId, Wei};
use parole_state::L2State;
use proptest::prelude::*;

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
    // Transfer arms repeated so ownership churns between the other ops.
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
        // Marketplace traffic: List/Cancel/Buy exercise the listing book
        // plus Buy's seller/creator credits. A zero ask (milli == 0) is
        // kept in range to cover the BadPrice revert shape.
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
        state.deploy_collection(CollectionConfig::limited_edition("Blk", tokens.max(4), 200));
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
        // listings opened before the block, not only intra-block ones.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fee-charged blocks over every operation kind, with broke senders
    /// (users 7..=8 hold nothing): every receipt's bloom is exactly the
    /// bloom of its own logs — successes, constraint reverts and
    /// `CannotPayFees` alike.
    #[test]
    fn fee_charging_blocks_keep_receipt_blooms_consistent(
        ops in prop::collection::vec(arb_op(8, 12), 1..40),
    ) {
        let (mut state, coll) = world(6, 12);
        let txs: Vec<_> = ops
            .iter()
            .map(|o| to_tx(o, coll, FeeBundle::from_gwei(30, 2)))
            .collect();
        let charging = Ovm::with_config(OvmConfig { charge_fees: true, ..Default::default() });
        let receipts = charging.execute_sequence(&mut state, &txs);
        prop_assert_eq!(receipts.len(), txs.len());
        for (i, r) in receipts.iter().enumerate() {
            prop_assert!(r.bloom_consistent(), "tx {} bloom inconsistent", i);
        }
    }
}

/// Hot-mint block: distinct senders all minting the same collection. Each
/// mint moves the supply counters, so every one pays the bonding-curve
/// price its predecessor left, and the prices strictly rise along the
/// block.
#[test]
fn hot_mint_block_prices_strictly_rise() {
    let (mut state, coll) = world(8, 16);
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
    let receipts = Ovm::new().execute_sequence(&mut state, &txs);
    assert!(receipts.iter().all(|r| r.is_success()));
    for pair in receipts.windows(2) {
        assert!(pair[1].price_before > pair[0].price_before);
        assert_eq!(pair[1].price_before, pair[0].price_after);
    }
}
