//! Marketplace invariants under random interleavings: wei conservation of
//! the List/Cancel/Buy settlement path and well-formedness of the listing
//! book, with fork/rollback purity.
//!
//! The settlement contract under test (paper §III: secondary sales split
//! the ask between seller and creator): every successful `Buy` debits the
//! buyer by exactly the listed ask, credits the seller `ask − royalty` and
//! the creator `royalty`, where `royalty = ⌊ask · bps / 10⁴⌋` was stamped
//! on the token at mint. Nothing else about the stream — reverts, stale
//! listings, repeated relists, discarded speculative forks — may mint or
//! burn wei.

use parole_nft::{CollectionConfig, Erc721Event};
use parole_ovm::{NftTransaction, Ovm, Receipt, TxKind};
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use proptest::prelude::*;

const USERS: u64 = 5;
const TOKENS: u64 = 10;

#[derive(Debug, Clone)]
enum RawOp {
    Mint { sender: u64, token: u64 },
    Transfer { sender: u64, token: u64, to: u64 },
    Burn { sender: u64, token: u64 },
    List { sender: u64, token: u64, milli: u64 },
    Cancel { sender: u64, token: u64 },
    Buy { sender: u64, token: u64 },
}

/// Marketplace-heavy traffic over a small pool: plenty of successful
/// lifecycle chains (mint → list → buy/cancel) *and* plenty of reverts
/// (zero asks, stale listings, self-buys, double lists).
fn arb_op() -> impl Strategy<Value = RawOp> {
    let u = || 0..USERS;
    let t = || 0..TOKENS;
    prop_oneof![
        (u(), t()).prop_map(|(sender, token)| RawOp::Mint { sender, token }),
        (u(), t(), u()).prop_map(|(sender, token, to)| RawOp::Transfer { sender, token, to }),
        (u(), t()).prop_map(|(sender, token)| RawOp::Burn { sender, token }),
        (u(), t(), 0..1500u64).prop_map(|(sender, token, milli)| RawOp::List {
            sender,
            token,
            milli
        }),
        (u(), t(), 0..1500u64).prop_map(|(sender, token, milli)| RawOp::List {
            sender,
            token,
            milli
        }),
        (u(), t()).prop_map(|(sender, token)| RawOp::Cancel { sender, token }),
        (u(), t()).prop_map(|(sender, token)| RawOp::Buy { sender, token }),
        (u(), t()).prop_map(|(sender, token)| RawOp::Buy { sender, token }),
    ]
}

fn world() -> (L2State, Address) {
    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("Mkt", TOKENS, 100));
    for u in 1..=USERS {
        state.credit(Address::from_low_u64(u), Wei::from_eth(10));
    }
    (state, coll)
}

fn to_tx(op: &RawOp, coll: Address) -> NftTransaction {
    let a = |v: u64| Address::from_low_u64(v + 1);
    let (sender, kind) = match *op {
        RawOp::Mint { sender, token } => (
            sender,
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(token),
            },
        ),
        RawOp::Transfer { sender, token, to } => (
            sender,
            TxKind::Transfer {
                collection: coll,
                token: TokenId::new(token),
                to: a(to),
            },
        ),
        RawOp::Burn { sender, token } => (
            sender,
            TxKind::Burn {
                collection: coll,
                token: TokenId::new(token),
            },
        ),
        RawOp::List {
            sender,
            token,
            milli,
        } => (
            sender,
            TxKind::List {
                collection: coll,
                token: TokenId::new(token),
                price: Wei::from_milli_eth(milli),
            },
        ),
        RawOp::Cancel { sender, token } => (
            sender,
            TxKind::CancelListing {
                collection: coll,
                token: TokenId::new(token),
            },
        ),
        RawOp::Buy { sender, token } => (
            sender,
            TxKind::Buy {
                collection: coll,
                token: TokenId::new(token),
            },
        ),
    };
    NftTransaction::simple(a(sender), kind)
}

/// The creator's entire income, reconstructed from the receipt stream:
/// primary-sale revenue (each successful mint pays the pre-mint curve
/// price) plus every `Sold` royalty payload.
fn creator_income(txs: &[NftTransaction], receipts: &[Receipt]) -> Wei {
    let mut income = Wei::ZERO;
    for (tx, r) in txs.iter().zip(receipts) {
        if !r.is_success() {
            continue;
        }
        if matches!(tx.kind, TxKind::Mint { .. }) {
            income += r.price_before;
        }
        for log in &r.logs {
            if let Erc721Event::Sold { royalty, .. } = log.event {
                income += royalty;
            }
        }
    }
    income
}

/// Book well-formedness: every open listing points at a minted token and
/// carries a non-zero ask, and the book agrees with its own counter.
fn assert_book_well_formed(state: &L2State, coll: Address) {
    let c = state.collection(coll).unwrap();
    let mut n = 0u64;
    for (token, listing) in c.listings() {
        n += 1;
        assert!(
            c.owner_of(token).is_some(),
            "listing on unminted/burned token {token}"
        );
        assert!(!listing.price.is_zero(), "zero ask survived for {token}");
        assert!(!listing.seller.is_zero(), "zero-address seller for {token}");
    }
    assert_eq!(n, c.listing_count(), "listing counter out of sync");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wei conservation through marketplace settlement: the L2 money
    /// supply never moves, and the creator's balance is exactly the
    /// primary revenue plus the royalty stream the receipts describe.
    #[test]
    fn marketplace_settlement_conserves_wei(
        ops in prop::collection::vec(arb_op(), 1..70),
    ) {
        let (mut state, coll) = world();
        let supply_before = state.total_supply();
        let creator = state.collection(coll).unwrap().config().creator;
        prop_assert_eq!(state.balance_of(creator), Wei::ZERO);

        let txs: Vec<_> = ops.iter().map(|o| to_tx(o, coll)).collect();
        let receipts = Ovm::new().execute_sequence(&mut state, &txs);

        prop_assert_eq!(state.total_supply(), supply_before);
        prop_assert_eq!(
            state.balance_of(creator),
            creator_income(&txs, &receipts),
            "creator balance must equal primary revenue + royalty stream"
        );
        assert_book_well_formed(&state, coll);
    }

    /// Fork purity: simulating any marketplace prefix on a fork leaves the
    /// base state — balances, book, root — untouched, and the discarded
    /// fork's sales never leak royalties back.
    #[test]
    fn forked_marketplace_simulation_rolls_back_cleanly(
        ops in prop::collection::vec(arb_op(), 2..40),
        split in 1usize..39,
    ) {
        let (mut state, coll) = world();
        let txs: Vec<_> = ops.iter().map(|o| to_tx(o, coll)).collect();
        let split = split.min(txs.len());

        // Warm the base with a prefix so forks start from a non-trivial book.
        let warm = Ovm::new().execute_sequence(&mut state, &txs[..split]);
        prop_assert_eq!(warm.len(), split);
        let root = state.state_root();
        let book: Vec<_> = state.collection(coll).unwrap().listings().collect();

        let (sim_receipts, fork) = Ovm::new().simulate_sequence(&state, &txs[split..]);
        prop_assert_eq!(sim_receipts.len(), txs.len() - split);
        assert_book_well_formed(&fork, coll);

        // The base is bit-for-bit where the prefix left it.
        prop_assert_eq!(state.state_root(), root);
        let book_after: Vec<_> = state.collection(coll).unwrap().listings().collect();
        prop_assert_eq!(book, book_after);
    }
}
