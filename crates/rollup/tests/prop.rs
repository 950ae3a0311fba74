//! Property-based tests of the rollup protocol: chain integrity, batch
//! lifecycle invariants and the fraud-proof game under random histories.

use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, TxKind, WireField};
use parole_primitives::{Address, AggregatorId, TokenId, VerifierId, Wei};
use parole_rollup::calldata;
use parole_rollup::{
    Aggregator, Batch, BatchId, ChallengeOutcome, RollupConfig, RollupContract, Verifier,
};
use proptest::prelude::*;

/// A protocol-level action the property machine performs.
#[derive(Debug, Clone)]
enum Action {
    Deposit { user: u64, eth: u64 },
    Withdraw { user: u64, eth: u64 },
    HonestBatch { mint_token: u64 },
    ForgedBatch { mint_token: u64 },
    ChallengeOldest,
    AdvanceL1,
}

/// An action the contract accepted, as the property machine replays it.
#[derive(Debug)]
enum Accepted {
    Deposit(Address, Wei),
    Withdraw(Address, Wei),
    Batch {
        id: BatchId,
        txs: Vec<NftTransaction>,
        forged: bool,
    },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..5, 1u64..4).prop_map(|(user, eth)| Action::Deposit { user, eth }),
        (1u64..5, 1u64..3).prop_map(|(user, eth)| Action::Withdraw { user, eth }),
        (0u64..10).prop_map(|mint_token| Action::HonestBatch { mint_token }),
        (0u64..10).prop_map(|mint_token| Action::ForgedBatch { mint_token }),
        Just(Action::ChallengeOldest),
        Just(Action::AdvanceL1),
    ]
}

/// An arbitrary operation covering every [`TxKind`] variant, with field
/// values drawn wide enough to exercise zero-heavy and dense encodings.
fn arb_kind() -> impl Strategy<Value = TxKind> {
    fn coll() -> impl Strategy<Value = Address> {
        (1u64..=4).prop_map(|v| Address::from_low_u64(100 + v))
    }
    fn token() -> impl Strategy<Value = TokenId> {
        (0u64..1024).prop_map(TokenId::new)
    }
    fn user() -> impl Strategy<Value = Address> {
        (1u64..=64).prop_map(Address::from_low_u64)
    }
    prop_oneof![
        (coll(), token()).prop_map(|(collection, token)| TxKind::Mint { collection, token }),
        (coll(), token(), user()).prop_map(|(collection, token, to)| TxKind::Transfer {
            collection,
            token,
            to,
        }),
        (coll(), token()).prop_map(|(collection, token)| TxKind::Burn { collection, token }),
        (coll(), token(), user()).prop_map(|(collection, token, operator)| TxKind::Approve {
            collection,
            token,
            operator,
        }),
        (coll(), user(), any::<bool>()).prop_map(|(collection, operator, approved)| {
            TxKind::SetApprovalForAll {
                collection,
                operator,
                approved,
            }
        }),
        (coll(), token(), 1u128..u128::MAX).prop_map(|(collection, token, price)| TxKind::List {
            collection,
            token,
            price: Wei::from_wei(price),
        }),
        (coll(), token())
            .prop_map(|(collection, token)| TxKind::CancelListing { collection, token }),
        (coll(), token()).prop_map(|(collection, token)| TxKind::Buy { collection, token }),
    ]
}

/// Whether `data` is rejected by `decode_batch`, or accepted and re-encoded
/// byte for byte by `encode_batch` — the contract for untrusted L1 bytes
/// (a panic anywhere fails the calling test).
fn decode_rejects_or_roundtrips(data: &[u8]) -> bool {
    let Some(pairs) = calldata::decode_batch(data) else {
        return true;
    };
    let txs = pairs
        .into_iter()
        .map(|(sender, kind)| NftTransaction::simple(sender, kind))
        .collect();
    let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
    let batch = agg.build_batch(&parole_state::L2State::new(), txs);
    calldata::encode_batch(&batch) == data
}

/// A one-record batch written by hand from the layout rules, not through
/// `encode_batch`: count 1; a head byte whose flags make the sender, the
/// collection and any payload address literals; the sender and the
/// collection; then each field the kind declares, drawn from `raw` in its
/// canonical form. `None` for an unknown tag.
fn hand_record(tag: u8, raw: &[u8]) -> Option<Vec<u8>> {
    let spec = TxKind::spec_by_tag(tag)?;
    let payload_address = spec.fields.contains(&WireField::Address);
    let mut out = vec![1, tag | 0x10 | 3 << 5 | u8::from(payload_address) << 7];
    let mut raw = raw.iter().copied().cycle();
    let mut literals = 0u8;
    for field in [WireField::Address; 2].iter().chain(spec.fields) {
        match field {
            WireField::Address => {
                // Literals differ in their first byte, so none repeats.
                literals += 1;
                out.push(literals);
                out.extend(raw.by_ref().take(19));
            }
            WireField::Token => {
                // An id of any magnitude below 2^64, as varint(id + 1).
                let id = u64::from_be_bytes(std::array::from_fn(|_| raw.next().unwrap()));
                let mut v = u128::from(id >> (raw.next().unwrap() % 64)) + 1;
                while v >= 0x80 {
                    out.push(v as u8 | 0x80);
                    v >>= 7;
                }
                out.push(v as u8);
            }
            WireField::Price => {
                // Up to 16 significant bytes, the first nonzero.
                let len = raw.next().unwrap() % 17;
                out.push(len);
                if len > 0 {
                    out.push(raw.next().unwrap().max(1));
                    out.extend(raw.by_ref().take(usize::from(len) - 1));
                }
            }
            WireField::Flag => out.push(1 + raw.next().unwrap() % 2),
        }
    }
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode_batch` never panics on arbitrary bytes, and anything it
    /// accepts is canonical.
    #[test]
    fn decode_batch_is_total_on_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert!(decode_rejects_or_roundtrips(&data));
    }

    /// The same contract behind a valid count and a head byte whose flags
    /// lean toward literals, so the field decoders see the random tail.
    /// And a one-record batch written by hand, well formed for its kind,
    /// decodes; truncated or with one byte changed, it is rejected or
    /// canonical.
    #[test]
    fn decode_batch_is_total_behind_a_valid_prefix(
        count in 0u8..4,
        tag in 0u8..=8,
        flags in prop_oneof![Just(0x70u8), Just(0xf0u8), any::<u8>()],
        bytes in prop::collection::vec(any::<u8>(), 160),
        len in 0usize..160,
        poke in (any::<usize>(), any::<u8>()),
    ) {
        let mut data = vec![count, tag | flags & 0xf0];
        data.extend_from_slice(&bytes[..len]);
        prop_assert!(decode_rejects_or_roundtrips(&data));
        if let Some(record) = hand_record(tag, &bytes) {
            prop_assert!(calldata::decode_batch(&record).is_some());
            prop_assert!(decode_rejects_or_roundtrips(&record[..len.min(record.len())]));
            let mut poked = record;
            let at = poke.0 % poked.len();
            poked[at] = poke.1;
            prop_assert!(decode_rejects_or_roundtrips(&poked));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever happens — deposits, withdrawals, honest and forged batches,
    /// challenges, finalizations — the protocol invariants hold:
    /// the L1 hash chain stays intact, no forged batch that was challenged
    /// ever finalizes, and once nothing is pending the finalized state
    /// equals the test's own replay of every action that survived.
    #[test]
    fn protocol_invariants_under_random_histories(
        actions in prop::collection::vec(arb_action(), 1..40),
    ) {
        let mut rollup = RollupContract::new(RollupConfig::default());
        let pt = rollup
            .l2_state_for_setup()
            .deploy_collection(CollectionConfig::parole_token());
        rollup.commit_setup();
        let genesis = rollup.finalized_state().clone();
        let mut accepted = Vec::new();
        for u in 1..5u64 {
            rollup.deposit(Address::from_low_u64(u), Wei::from_eth(5)).unwrap();
            accepted.push(Accepted::Deposit(Address::from_low_u64(u), Wei::from_eth(5)));
        }
        rollup.bond_aggregator(AggregatorId::new(0));
        rollup.bond_verifier(VerifierId::new(0));
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let verifier = Verifier::new(VerifierId::new(0), Wei::from_eth(5));
        let mut challenged_forgeries = 0u64;
        let mut submitted_forgeries = 0u64;

        for action in actions {
            match action {
                Action::Deposit { user, eth } => {
                    let (user, amount) = (Address::from_low_u64(user), Wei::from_eth(eth));
                    rollup
                        .deposit(user, amount)
                        .expect("non-zero deposits always accepted");
                    accepted.push(Accepted::Deposit(user, amount));
                }
                Action::Withdraw { user, eth } => {
                    // May legitimately fail on insufficient balance.
                    let (user, amount) = (Address::from_low_u64(user), Wei::from_eth(eth));
                    if rollup.withdraw(user, amount).is_ok() {
                        accepted.push(Accepted::Withdraw(user, amount));
                    }
                }
                Action::HonestBatch { mint_token } => {
                    let tx = NftTransaction::simple(
                        Address::from_low_u64(1 + mint_token % 4),
                        TxKind::Mint { collection: pt, token: TokenId::new(mint_token) },
                    );
                    let batch = agg.build_batch(rollup.l2_state(), vec![tx]);
                    if rollup.aggregator_bond(AggregatorId::new(0)) > Wei::ZERO {
                        let id = rollup.submit_batch(batch).expect("fresh honest batch");
                        accepted.push(Accepted::Batch { id, txs: vec![tx], forged: false });
                    }
                }
                Action::ForgedBatch { mint_token } => {
                    let tx = NftTransaction::simple(
                        Address::from_low_u64(1 + mint_token % 4),
                        TxKind::Mint { collection: pt, token: TokenId::new(mint_token) },
                    );
                    let batch = agg.build_forged_batch(rollup.l2_state(), vec![tx]);
                    if rollup.aggregator_bond(AggregatorId::new(0)) > Wei::ZERO {
                        if let Ok(id) = rollup.submit_batch(batch) {
                            submitted_forgeries += 1;
                            accepted.push(Accepted::Batch { id, txs: vec![tx], forged: true });
                        }
                    }
                }
                Action::ChallengeOldest => {
                    if rollup.verifier_bond(VerifierId::new(0)).is_zero() {
                        continue;
                    }
                    if let Some(&id) = rollup.pending_batch_ids().first() {
                        let pre = rollup.challenge_pre_state(id).unwrap().clone();
                        let batch = rollup.pending_batch(id).unwrap().clone();
                        // Only challenge when the verifier would: frivolous
                        // challenges lose the bond and end the game early.
                        if verifier.should_challenge(&pre, &batch) {
                            let outcome = rollup.challenge(VerifierId::new(0), id).unwrap();
                            prop_assert!(matches!(outcome, ChallengeOutcome::FraudProven { .. }));
                            challenged_forgeries += 1;
                            // The batch and every batch after it (they
                            // chained on its root) are gone; deposits and
                            // withdrawals stay.
                            let mut dropped = false;
                            accepted.retain(|a| match a {
                                Accepted::Batch { id: b, .. } => {
                                    dropped |= *b == id;
                                    !dropped
                                }
                                _ => true,
                            });
                            // The aggregator got slashed; re-bond so the
                            // machine keeps running.
                            rollup.bond_aggregator(AggregatorId::new(0));
                        }
                    }
                }
                Action::AdvanceL1 => {
                    rollup.advance_l1_block();
                }
            }
            prop_assert!(rollup.l1().verify_integrity());
        }

        rollup.finalize_all();
        prop_assert!(rollup.pending_batch_ids().is_empty());
        let mut replay = genesis;
        let mut surviving_forgeries = 0;
        for action in accepted {
            match action {
                Accepted::Deposit(user, amount) => replay.credit(user, amount),
                // A withdrawal that a rollback left uncovered was dropped.
                Accepted::Withdraw(user, amount) => {
                    let _ = replay.debit(user, amount);
                }
                Accepted::Batch { txs, forged, .. } => {
                    let _ = Ovm::new().execute_sequence(&mut replay, &txs);
                    replay.advance_block();
                    surviving_forgeries += u64::from(forged);
                }
            }
        }
        prop_assert!(
            rollup.finalized_state() == &replay,
            "the finalized state must equal a replay of every surviving action"
        );
        prop_assert_eq!(rollup.finalized_state().state_root(), replay.state_root());
        prop_assert_eq!(rollup.undetected_forgeries(), surviving_forgeries);
        // Every forgery the verifier caught was excluded from finality;
        // only unchallenged ones may have slipped through.
        prop_assert!(
            rollup.undetected_forgeries() + challenged_forgeries <= submitted_forgeries + challenged_forgeries
        );
        prop_assert!(rollup.undetected_forgeries() <= submitted_forgeries);
    }

    /// Calldata compression round-trips on arbitrary byte strings.
    #[test]
    fn calldata_compression_roundtrip(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let compressed = calldata::compress(&data);
        prop_assert_eq!(calldata::decompress(&compressed), Some(data.clone()));
        // Metering is consistent: compressed posting never costs more gas
        // when the data is at least half zeros.
        let zeros = data.iter().filter(|&&b| b == 0).count();
        if zeros * 2 >= data.len() && !data.is_empty() {
            prop_assert!(
                calldata::calldata_gas(&compressed).units()
                    <= calldata::calldata_gas(&data).units()
            );
        }
    }

    /// Calldata batch encoding round-trips over every operation kind: the
    /// posted bytes alone reconstruct each transaction's sender and
    /// operation, and the compression layer composes transparently.
    #[test]
    fn calldata_batch_roundtrips_every_kind(
        ops in prop::collection::vec((1u64..=64, arb_kind()), 0..32),
    ) {
        let txs: Vec<NftTransaction> = ops
            .iter()
            .map(|&(sender, kind)| NftTransaction::simple(Address::from_low_u64(sender), kind))
            .collect();
        let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
        let state = parole_state::L2State::new();
        let batch = agg.build_batch(&state, txs.clone());

        let data = calldata::encode_batch(&batch);
        let decoded = calldata::decode_batch(&data).expect("well-formed calldata decodes");
        let want: Vec<_> = txs.iter().map(|tx| (tx.sender, tx.kind)).collect();
        prop_assert_eq!(decoded, want);

        // Posting through the compressor loses nothing.
        let posted = calldata::compress(&data);
        prop_assert_eq!(calldata::decompress(&posted), Some(data.clone()));
        // Truncated postings never misparse.
        if !txs.is_empty() {
            prop_assert_eq!(calldata::decode_batch(&data[..data.len() - 1]), None);
        }
    }

    /// tx_root is a permutation-sensitive commitment: any reordering or
    /// substitution of a batch's transactions changes the root.
    #[test]
    fn tx_root_detects_any_tampering(
        n in 2usize..12,
        swap_a in 0usize..12,
        swap_b in 0usize..12,
    ) {
        let coll = Address::from_low_u64(100);
        let txs: Vec<NftTransaction> = (0..n as u64)
            .map(|i| {
                NftTransaction::simple(
                    Address::from_low_u64(i + 1),
                    TxKind::Mint { collection: coll, token: TokenId::new(i) },
                )
            })
            .collect();
        let root = Batch::compute_tx_root(&txs);
        let (a, b) = (swap_a % n, swap_b % n);
        prop_assume!(a != b);
        let mut swapped = txs.clone();
        swapped.swap(a, b);
        prop_assert_ne!(Batch::compute_tx_root(&swapped), root);
    }
}
