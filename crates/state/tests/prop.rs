//! Property-based tests for the L2 world state: state-root determinism,
//! balance conservation, fork independence and lossless serde round trips.

use parole_nft::CollectionConfig;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Credit {
        user: u64,
        amount: u64,
    },
    Debit {
        user: u64,
        amount: u64,
    },
    Transfer {
        from: u64,
        to: u64,
        amount: u64,
    },
    // A fresh collection with one token minted into it: a whole-collection
    // dirty mark (and, under a rollback, its cancellation) beside a token
    // mark in the same collection.
    Deploy {
        user: u64,
        token: u64,
    },
    // Per-token journaled paths: these exercise the hierarchical cache's
    // token-granular dirty marks.
    TokenMint {
        user: u64,
        token: u64,
    },
    TokenTransfer {
        from: u64,
        to: u64,
        token: u64,
    },
    TokenBurn {
        user: u64,
        token: u64,
    },
    // `operator` may be 0 (= the zero address), which *clears* an approval.
    Approve {
        owner: u64,
        operator: u64,
        token: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..6, 1u64..10).prop_map(|(user, amount)| Op::Credit { user, amount }),
        (1u64..6, 1u64..10).prop_map(|(user, amount)| Op::Debit { user, amount }),
        (1u64..6, 1u64..6, 1u64..10).prop_map(|(from, to, amount)| Op::Transfer {
            from,
            to,
            amount
        }),
        (1u64..6, 0u64..4).prop_map(|(user, token)| Op::Deploy { user, token }),
        (1u64..6, 0u64..8).prop_map(|(user, token)| Op::TokenMint { user, token }),
        (1u64..6, 1u64..6, 0u64..8).prop_map(|(from, to, token)| Op::TokenTransfer {
            from,
            to,
            token
        }),
        (1u64..6, 0u64..8).prop_map(|(user, token)| Op::TokenBurn { user, token }),
        (1u64..6, 0u64..6, 0u64..8).prop_map(|(owner, operator, token)| Op::Approve {
            owner,
            operator,
            token
        }),
    ]
}

fn apply(state: &mut L2State, coll: Address, op: &Op) {
    let a = |v: u64| Address::from_low_u64(v);
    match *op {
        Op::Credit { user, amount } => state.credit(a(user), Wei::from_milli_eth(amount)),
        Op::Debit { user, amount } => {
            let _ = state.debit(a(user), Wei::from_milli_eth(amount));
        }
        Op::Transfer { from, to, amount } => {
            let _ = state.transfer_balance(a(from), a(to), Wei::from_milli_eth(amount));
        }
        Op::Deploy { user, token } => {
            let fresh = state.deploy_collection(CollectionConfig::limited_edition("D", 4, 100));
            let _ = state.nft_mint(fresh, a(user), TokenId::new(token));
        }
        Op::TokenMint { user, token } => {
            let _ = state.nft_mint(coll, a(user), TokenId::new(token));
        }
        Op::TokenTransfer { from, to, token } => {
            let _ = state.nft_transfer(coll, a(from), a(to), TokenId::new(token));
        }
        Op::TokenBurn { user, token } => {
            let _ = state.nft_burn(coll, a(user), TokenId::new(token));
        }
        Op::Approve {
            owner,
            operator,
            token,
        } => {
            let _ = state.nft_approve(coll, a(owner), a(operator), TokenId::new(token));
        }
    }
}

/// `state` survives a serde round trip: the decoded state is `==`, has the
/// same root, and encodes to the same bytes.
fn assert_serde_roundtrip(state: &L2State) -> Result<(), TestCaseError> {
    let bytes = serde_json::to_string(state).expect("serialize");
    let back: L2State = serde_json::from_str(&bytes).expect("deserialize");
    prop_assert!(back == *state, "decoded state differs");
    prop_assert_eq!(back.state_root(), state.state_root());
    prop_assert_eq!(serde_json::to_string(&back).expect("re-serialize"), bytes);
    Ok(())
}

/// A deterministic shuffle: sorts by a keyed multiply-xor hash of each
/// item.
fn shuffled<T>(mut items: Vec<T>, seed: u64, key: impl Fn(&T) -> u64) -> Vec<T> {
    items.sort_by_key(|t| {
        (key(t) ^ seed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29)
    });
    items
}

/// Genesis allocations in one of these orders: strictly ascending
/// addresses, shuffled, full of repeated addresses (in draw order, or
/// sorted so every repeat follows its twin), or an ascending run followed
/// by a shuffled tail that reaches back below it and repeats some of it.
/// Amounts may be zero.
fn allocation(kind: u8, raw: Vec<(u64, u64)>, seed: u64) -> Vec<(Address, Wei)> {
    let mut distinct = raw.clone();
    distinct.sort_unstable_by_key(|&(a, _)| a);
    distinct.dedup_by_key(|&mut (a, _)| a);
    let order = match kind {
        0 => distinct,
        1 => shuffled(distinct, seed, |&(a, _)| a),
        2 => raw.iter().map(|&(a, v)| (a % 13, v)).collect(),
        3 => {
            let mut repeats: Vec<(u64, u64)> = raw.iter().map(|&(a, v)| (a % 97, v)).collect();
            repeats.sort_unstable_by_key(|&(a, _)| a);
            repeats
        }
        _ => {
            let split = (seed as usize) % (distinct.len() + 1);
            let mut tail = distinct.split_off(split);
            tail.extend(distinct.iter().step_by(3).copied());
            distinct.extend(shuffled(tail, seed, |&(a, _)| a));
            distinct
        }
    };
    order
        .into_iter()
        .map(|(a, v)| (Address::from_low_u64(a), Wei::from_milli_eth(v)))
        .collect()
}

fn fresh() -> (L2State, Address) {
    let mut s = L2State::new();
    let coll = s.deploy_collection(CollectionConfig::limited_edition("SP", 8, 100));
    (s, coll)
}

proptest! {
    /// Two states built by the same operation sequence have identical roots;
    /// diverging by one credit separates them.
    #[test]
    fn state_root_is_a_function_of_content(ops in prop::collection::vec(arb_op(), 1..40)) {
        let (mut a, coll_a) = fresh();
        let (mut b, coll_b) = fresh();
        for op in &ops {
            apply(&mut a, coll_a, op);
            apply(&mut b, coll_b, op);
        }
        prop_assert_eq!(a.state_root(), b.state_root());
        b.credit(Address::from_low_u64(42), Wei::from_wei(1));
        prop_assert_ne!(a.state_root(), b.state_root());
    }

    /// Transfers conserve the total supply; only credits/debits change it by
    /// exactly their accepted amounts.
    #[test]
    fn supply_accounting_is_exact(ops in prop::collection::vec(arb_op(), 1..60)) {
        let (mut s, coll) = fresh();
        let mut expected = Wei::ZERO;
        for op in &ops {
            match *op {
                Op::Credit { user, amount } => {
                    s.credit(Address::from_low_u64(user), Wei::from_milli_eth(amount));
                    expected += Wei::from_milli_eth(amount);
                }
                Op::Debit { user, amount } => {
                    if s.debit(Address::from_low_u64(user), Wei::from_milli_eth(amount)).is_ok() {
                        expected -= Wei::from_milli_eth(amount);
                    }
                }
                _ => apply(&mut s, coll, op),
            }
            prop_assert_eq!(s.total_supply(), expected);
        }
    }

    /// The incremental dirty-tracked state root is bit-identical to the
    /// naive from-scratch rebuild after **every** step of a random mutation
    /// sequence, interleaved with undo-log checkpoint/rollback cycles and
    /// cache-sharing forks. This is the contract the fraud-proof game rides
    /// on: a single missed invalidation diverges the two roots.
    #[test]
    fn incremental_root_matches_naive_at_every_step(
        warmup in prop::collection::vec(arb_op(), 0..15),
        speculated in prop::collection::vec(arb_op(), 1..15),
        committed in prop::collection::vec(arb_op(), 1..15),
        forked in prop::collection::vec(arb_op(), 1..10),
    ) {
        let (mut s, coll) = fresh();
        // Warm the cache mid-history so later flushes exercise the
        // incremental path (inserts, updates and removes), not the build.
        for op in &warmup {
            apply(&mut s, coll, op);
            prop_assert_eq!(s.state_root(), s.state_root_naive());
        }
        s.begin_recording();

        // A speculated burst that is fully rolled back: the root must
        // return to the checkpoint value through dirty-set invalidation.
        let cp = s.checkpoint();
        let root_at_cp = s.state_root();
        for op in &speculated {
            apply(&mut s, coll, op);
            prop_assert_eq!(s.state_root(), s.state_root_naive());
        }
        s.revert_to(cp);
        prop_assert_eq!(s.state_root(), root_at_cp);
        prop_assert_eq!(s.state_root(), s.state_root_naive());

        // A committed burst, then a fork sharing the clean cache CoW: both
        // sides keep agreeing with their own naive rebuilds while
        // diverging from each other.
        for op in &committed {
            apply(&mut s, coll, op);
        }
        prop_assert_eq!(s.state_root(), s.state_root_naive());
        let mut fork = s.fork();
        for op in &forked {
            apply(&mut fork, coll, op);
            prop_assert_eq!(fork.state_root(), fork.state_root_naive());
        }
        prop_assert_eq!(s.state_root(), s.state_root_naive());
        // New accounts/collections appearing only in the fork must splice
        // into the fork's tree without disturbing the parent's.
        fork.credit(Address::from_low_u64(999), Wei::from_wei(7));
        let _ = fork.deploy_collection(CollectionConfig::limited_edition("FK", 3, 50));
        prop_assert_eq!(fork.state_root(), fork.state_root_naive());
        prop_assert_eq!(s.state_root(), s.state_root_naive());
    }

    /// Serde is lossless on every state a run can reach: after a committed
    /// burst, inside and after a rolled-back speculation, and on a fork.
    /// Each state deserializes to an `==` state with the same
    /// `state_root()`, and re-serializes to the same bytes.
    #[test]
    fn serde_roundtrip_preserves_state_root_and_bytes(
        committed in prop::collection::vec(arb_op(), 1..30),
        speculated in prop::collection::vec(arb_op(), 1..12),
        forked in prop::collection::vec(arb_op(), 1..12),
    ) {
        let (mut s, coll) = fresh();
        for op in &committed {
            apply(&mut s, coll, op);
        }
        assert_serde_roundtrip(&s)?;

        s.begin_recording();
        let cp = s.checkpoint();
        for op in &speculated {
            apply(&mut s, coll, op);
        }
        assert_serde_roundtrip(&s)?;
        s.revert_to(cp);
        assert_serde_roundtrip(&s)?;

        let mut fork = s.fork();
        for op in &forked {
            apply(&mut fork, coll, op);
        }
        assert_serde_roundtrip(&fork)?;
        assert_serde_roundtrip(&s)?;
    }

    /// Forks are fully independent: mutating a clone never touches the
    /// original, in balances or collections.
    #[test]
    fn forks_are_independent(
        setup in prop::collection::vec(arb_op(), 1..20),
        divergence in prop::collection::vec(arb_op(), 1..20),
    ) {
        let (mut base, coll) = fresh();
        for op in &setup {
            apply(&mut base, coll, op);
        }
        let snapshot = base.state_root();
        let mut fork = base.clone();
        for op in &divergence {
            apply(&mut fork, coll, op);
        }
        prop_assert_eq!(base.state_root(), snapshot);
    }
}

proptest! {
    // Each case hashes a few thousand leaves through the scalar naive root;
    // a lower case count keeps the debug-build suite quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `L2State::from_accounts` builds the state that crediting each pair
    /// in order on `L2State::new()` builds, whatever order the addresses
    /// arrive in: `==`, the same serde bytes, and the same incremental and
    /// naive roots. The loaded state then takes new accounts, a rolled-back
    /// burst that creates and removes accounts, and a collection, and keeps
    /// agreeing with its naive root, so the commitment's account index,
    /// which starts out sharing the loaded table's key pages, splices
    /// records in and out without disturbing the table.
    #[test]
    fn from_accounts_equals_the_credit_loop(
        kind in 0u8..5,
        raw in prop::collection::vec((1u64..1 << 40, 0u64..20), 0..2_200),
        seed in any::<u64>(),
        later in prop::collection::vec(1u64..1 << 40, 1..8),
    ) {
        let pairs = allocation(kind, raw, seed);
        let mut loaded = L2State::from_accounts(pairs.iter().copied());
        let mut credited = L2State::new();
        for &(who, amount) in &pairs {
            credited.credit(who, amount);
        }
        prop_assert!(loaded == credited, "loaded state differs");
        prop_assert_eq!(
            serde_json::to_string(&loaded).expect("serialize"),
            serde_json::to_string(&credited).expect("serialize")
        );
        let naive = credited.state_root_naive();
        prop_assert_eq!(loaded.state_root_naive(), naive);
        prop_assert_eq!(loaded.state_root(), naive);
        prop_assert_eq!(credited.state_root(), naive);

        loaded.begin_recording();
        let cp = loaded.checkpoint();
        for &a in &later {
            loaded.credit(Address::from_low_u64(a), Wei::from_wei(a.into()));
        }
        prop_assert_eq!(loaded.state_root(), loaded.state_root_naive());
        loaded.revert_to(cp);
        prop_assert_eq!(loaded.state_root(), naive);
        for &a in &later {
            loaded.credit(Address::from_low_u64(a / 2), Wei::from_wei(1));
        }
        let _ = loaded.deploy_collection(CollectionConfig::limited_edition("GN", 4, 10));
        prop_assert_eq!(loaded.state_root(), loaded.state_root_naive());
    }
}

proptest! {
    // Each case hashes a few hundred leaves through the scalar naive root
    // after every flush.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flushes that create several accounts and collections at scattered
    /// positions, touch existing ones, and then destroy what they created
    /// (by rolling the journal back) while creating others in the same
    /// flush: the key vectors merge once and the top-level tree re-derives
    /// its suffix once per flush, and the root equals the naive rebuild
    /// after every one.
    #[test]
    fn scattered_splices_in_one_flush_match_naive(
        base in prop::collection::vec(1u64..1 << 24, 0..400),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(1u64..1 << 24, 0..10),
                prop::collection::vec(1u64..1 << 24, 0..3),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        let a = Address::from_low_u64;
        let coll = |c: u64| Address::from_low_u64((1 << 40) + c);
        let mut s = L2State::from_accounts(base.iter().map(|&b| (a(b), Wei::from_wei(b.into()))));
        let _ = s.deploy_collection_at(coll(1 << 23), CollectionConfig::limited_edition("SC", 4, 10));
        s.begin_recording();
        prop_assert_eq!(s.state_root(), s.state_root_naive());
        for (accounts, collections, undo) in &rounds {
            let cp = s.checkpoint();
            for &new in accounts {
                s.credit(a(new), Wei::from_wei(1));
                if let Some(&old) = base.get(new as usize % base.len().max(1)) {
                    s.credit(a(old), Wei::from_wei(3));
                }
            }
            for &c in collections {
                let _ = s.deploy_collection_at(coll(c), CollectionConfig::limited_edition("SC", 4, 10));
            }
            prop_assert_eq!(s.state_root(), s.state_root_naive());
            if *undo {
                // One flush that destroys this round's records and creates
                // others at other positions.
                s.revert_to(cp);
                for &new in accounts {
                    s.credit(a(new / 3 + 1), Wei::from_wei(2));
                }
                prop_assert_eq!(s.state_root(), s.state_root_naive());
            }
        }
    }
}
