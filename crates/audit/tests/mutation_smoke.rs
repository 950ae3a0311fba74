//! Mutation smoke harness: re-introduce each historical bug and prove the
//! corresponding auditor fires.
//!
//! Every test here models one *fixed* defect of this codebase (or a seeded
//! corruption an auditor exists to catch) from the outside — a buggy rule
//! reimplemented locally, a tampered chain, a perturbed fact sheet — and
//! asserts the auditor rejects it while the shipped implementation passes.
//! If a future refactor re-introduces one of these bugs, the wired-in
//! auditors fail loudly instead of letting experiments drift.

use parole_audit::bisection::{BisectionOracle, TraceVerdict};
use parole_audit::conservation::{
    check_bond_flow, check_execution, ConservationViolation, ExecutionSnapshot,
};
use parole_audit::differential::{diff_execution, DifferentialOracle, Divergence};
use parole_audit::fee::{check_fee_update, expected_base_fee};
use parole_audit::invariants::{check_facts, CollectionFacts, InvariantViolation};
use parole_crypto::Wallet;
use parole_mempool::BaseFeeController;
use parole_nft::{Collection, CollectionConfig};
use parole_ovm::{Bloom, NftTransaction, Ovm, Receipt, RevertReason, TxKind, TxStatus};
use parole_primitives::{
    Address, AggregatorId, BlockNumber, FeeBundle, Gas, TokenId, TxNonce, VerifierId, Wei,
};
use parole_rollup::{
    bisect, Aggregator, BatchId, ChallengeOutcome, DisputedStep, ExecutionTrace, L1Chain,
    RollupConfig, RollupContract, TracedExecution, Verifier,
};
use parole_state::L2State;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v)
}

// ---------------------------------------------------------------------------
// Bug 1: the at-target base-fee bump.
// ---------------------------------------------------------------------------

/// The historical buggy update rule: the 1-wei minimum applied at `>=`
/// target, turning the fixed point into a ratchet.
fn buggy_on_block(old: Wei, gas_used: Gas, target: Gas, floor: Wei) -> Wei {
    let t = target.units() as u128;
    let u = gas_used.units() as u128;
    let new = if u >= t {
        let delta = old.wei() * (u - t) / t / 8;
        old.wei() + delta.max(1)
    } else {
        let delta = old.wei() * (t - u) / t / 8;
        old.wei().saturating_sub(delta)
    };
    Wei::from_wei(new).max(floor)
}

#[test]
fn reintroduced_at_target_bump_trips_the_fee_auditor() {
    let target = Gas::new(1_000_000);
    let floor = Wei::from_wei(7);
    let old = Wei::from_gwei(10);

    // The buggy rule deviates exactly at the fixed point...
    let got = buggy_on_block(old, target, target, floor);
    let err = check_fee_update(old, target, target, floor, got).unwrap_err();
    assert_eq!(err.expected, old);
    assert_eq!(err.got, old + Wei::from_wei(1));

    // ...and agrees everywhere else, which is why it survived so long.
    for used in [0u64, 500_000, 999_999, 1_000_001, 2_000_000] {
        let g = Gas::new(used);
        assert_eq!(
            buggy_on_block(old, g, target, floor),
            expected_base_fee(old, g, target, floor)
        );
    }
}

#[test]
fn shipped_fee_controller_passes_the_auditor_block_by_block() {
    let mut ctl = BaseFeeController::new(Wei::from_gwei(9), Gas::new(1_000_000));
    let blocks = [0u64, 1_000_000, 2_000_000, 1_000_000, 1_500_000, 3, 999_999];
    for &used in blocks.iter().cycle().take(200) {
        let old = ctl.base_fee();
        let new = ctl.on_block(Gas::new(used));
        check_fee_update(old, Gas::new(used), ctl.target_gas(), ctl.floor(), new)
            .expect("shipped controller follows the rule");
    }
}

// ---------------------------------------------------------------------------
// Bug 2: the reason-dependent nonce skip (and its ghost-fee cousin).
// ---------------------------------------------------------------------------

/// The historical buggy execution for a forged signature: bail out before
/// any nonce accounting, leaving the state untouched.
fn buggy_execute_bad_signature(tx: &NftTransaction) -> Receipt {
    Receipt {
        tx_hash: tx.tx_hash(),
        status: TxStatus::Reverted(RevertReason::BadSignature),
        gas_used: Gas::new(21_000),
        fee_paid: Wei::ZERO,
        price_before: Wei::ZERO,
        price_after: Wei::ZERO,
        logs: Vec::new(),
        bloom: Bloom::ZERO,
    }
}

#[test]
fn reintroduced_nonce_skip_trips_the_conservation_auditor() {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    let wallet = Wallet::from_seed(7);
    state.credit(wallet.address(), Wei::from_eth(1));

    let mut forged = NftTransaction::signed(
        &wallet,
        TxKind::Mint {
            collection: pt,
            token: TokenId::new(0),
        },
        FeeBundle::from_gwei(30, 2),
        TxNonce::new(0),
    );
    forged.sender = addr(9);

    let pre = ExecutionSnapshot::take(&state, forged.sender);
    // Buggy path: no state mutation at all.
    let receipt = buggy_execute_bad_signature(&forged);
    let err = check_execution(&pre, &state, &forged, &receipt).unwrap_err();
    assert!(matches!(
        err,
        ConservationViolation::NonceNotUniform {
            before: 0,
            after: 0,
            ..
        }
    ));

    // The shipped OVM passes the same audit on the same transaction.
    let pre = ExecutionSnapshot::take(&state, forged.sender);
    let receipt = Ovm::new().execute(&mut state, &forged);
    assert_eq!(receipt.revert_reason(), Some(RevertReason::BadSignature));
    check_execution(&pre, &state, &forged, &receipt).expect("fixed OVM is uniform");
}

#[test]
fn ghost_fee_on_cannot_pay_fees_trips_the_conservation_auditor() {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    let broke = addr(42);
    let tx = NftTransaction::simple(
        broke,
        TxKind::Mint {
            collection: pt,
            token: TokenId::new(0),
        },
    );

    let pre = ExecutionSnapshot::take(&state, broke);
    // Buggy variant: the nonce is bumped, but the receipt claims a fee the
    // broke sender never paid.
    state.bump_nonce(broke);
    let receipt = Receipt {
        tx_hash: tx.tx_hash(),
        status: TxStatus::Reverted(RevertReason::CannotPayFees),
        gas_used: Gas::new(21_000),
        fee_paid: Wei::from_gwei(42),
        price_before: Wei::ZERO,
        price_after: Wei::ZERO,
        logs: Vec::new(),
        bloom: Bloom::ZERO,
    };
    let err = check_execution(&pre, &state, &tx, &receipt).unwrap_err();
    assert!(matches!(err, ConservationViolation::GhostFee { .. }));
}

// ---------------------------------------------------------------------------
// Bug 3: linkage-only L1 verification.
// ---------------------------------------------------------------------------

/// The historical buggy check: parent linkage and numbering only, never
/// recomputing any block hash from its contents.
fn linkage_only_verify(chain: &L1Chain) -> bool {
    let blocks: Vec<_> = chain.iter().collect();
    blocks
        .windows(2)
        .all(|w| w[1].parent_hash == w[0].hash && w[1].number.value() == w[0].number.value() + 1)
}

#[test]
fn content_tampering_passes_the_buggy_check_but_not_the_fixed_one() {
    let mut chain = L1Chain::new();
    chain.seal_block(vec![BatchId::new(1)]);
    chain.seal_block(vec![BatchId::new(2)]);
    assert!(chain.verify_integrity());

    // Rewrite sealed history: every stored hash and all linkage stay intact.
    chain
        .block_mut_for_tampering(BlockNumber::new(1))
        .expect("sealed above")
        .finalized_batches = vec![BatchId::new(666)];

    assert!(
        linkage_only_verify(&chain),
        "the historical check is blind to content tampering"
    );
    assert!(
        !chain.verify_integrity(),
        "content recomputation must reject the rewrite"
    );
}

// ---------------------------------------------------------------------------
// Seeded corruption: out-of-thin-air value.
// ---------------------------------------------------------------------------

#[test]
fn out_of_thin_air_credit_trips_the_conservation_auditor() {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    state.credit(addr(1), Wei::from_eth(1));
    let tx = NftTransaction::simple(
        addr(1),
        TxKind::Mint {
            collection: pt,
            token: TokenId::new(0),
        },
    );
    let pre = ExecutionSnapshot::take(&state, tx.sender);
    let receipt = Ovm::new().execute(&mut state, &tx);
    // An IFU-style corruption: the sequencer quietly refunds the mint price.
    state.credit(addr(1), Wei::from_milli_eth(200));
    let err = check_execution(&pre, &state, &tx, &receipt).unwrap_err();
    assert!(matches!(err, ConservationViolation::WeiNotConserved { .. }));
}

// ---------------------------------------------------------------------------
// Seeded corruption: perturbed ERC-721 fact sheets.
// ---------------------------------------------------------------------------

fn exercised_facts() -> CollectionFacts {
    let mut c = Collection::new(CollectionConfig::parole_token());
    for i in 0..5 {
        c.mint(addr(i + 1), TokenId::new(i)).unwrap();
    }
    c.transfer(addr(1), addr(9), TokenId::new(0)).unwrap();
    c.burn(addr(2), TokenId::new(1)).unwrap();
    let facts = CollectionFacts::gather(&c);
    assert_eq!(check_facts(&facts), Ok(()));
    facts
}

#[test]
fn every_fact_perturbation_trips_the_invariant_checker() {
    let facts = exercised_facts();

    // Supply cap: more active tokens than the cap allows.
    let mut f = facts.clone();
    for i in 0..10 {
        f.active.push((TokenId::new(5 + i), addr(50 + i)));
    }
    f.remaining_supply = 0;
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::SupplyCapExceeded { .. })
    ));

    // Supply accounting: remaining supply drifts off the identity.
    let mut f = facts.clone();
    f.remaining_supply += 1;
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::SupplyAccounting { .. })
    ));

    // Unique ownership: the same token indexed twice.
    let mut f = facts.clone();
    f.active[1] = f.active[0];
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::DuplicateToken(_))
    ));

    // Out-of-range token id.
    let mut f = facts.clone();
    let last = f.active.len() - 1;
    f.active[last] = (TokenId::new(f.max_supply), addr(1));
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::TokenOutOfRange(_))
    ));

    // Zero-address owner.
    let mut f = facts.clone();
    f.active[0].1 = Address::ZERO;
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::ZeroOwner(_))
    ));

    // Lifetime ledger: a phantom mint.
    let mut f = facts.clone();
    f.lifetime.0 += 1;
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::LifetimeLedger { .. })
    ));

    // Bent curve: one point raised above its scarcer neighbour.
    let mut f = facts.clone();
    f.curve[3].1 = f.curve[0].1 + Wei::from_milli_eth(10);
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::CurveNotMonotone { .. })
    ));

    // Eq. 10 violation that keeps the shape: the whole curve shifted down.
    let mut f = facts.clone();
    for p in &mut f.curve {
        p.1 = p.1.saturating_sub(Wei::from_centi_eth(1));
    }
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::CurveNotEq10 { .. })
    ));

    // Reported price off the curve.
    let mut f = facts.clone();
    f.price += Wei::from_centi_eth(1);
    assert!(matches!(
        check_facts(&f),
        Err(InvariantViolation::PriceMismatch { .. })
    ));
}

// ---------------------------------------------------------------------------
// Seeded corruption: stale incremental caches.
// ---------------------------------------------------------------------------

#[test]
fn stale_incremental_cache_trips_the_differential_oracle() {
    let mut base = L2State::new();
    let pt = base.deploy_collection(CollectionConfig::parole_token());
    for u in 1..=3 {
        base.credit(addr(u), Wei::from_eth(2));
    }
    let mut seq = vec![
        NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
        NftTransaction::simple(
            addr(2),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(1),
            },
        ),
        NftTransaction::simple(
            addr(1),
            TxKind::Transfer {
                collection: pt,
                token: TokenId::new(0),
                to: addr(3),
            },
        ),
        NftTransaction::simple(
            addr(3),
            TxKind::Burn {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
    ];
    let ovm = Ovm::new();

    // A cache that never invalidates: it keeps serving the first ordering's
    // receipts and post-state for every later candidate.
    let (cached_receipts, cached_state) = ovm.simulate_sequence(&base, &seq);
    let cached_root = cached_state.state_root();
    seq.swap(0, 3);
    let (want_receipts, want_state) = ovm.simulate_sequence(&base, &seq);
    let err = diff_execution(
        &want_receipts,
        want_state.state_root(),
        &cached_receipts,
        cached_root,
    )
    .unwrap_err();
    assert!(matches!(err, Divergence::ReceiptMismatch { .. }));

    // The real PrefixExecutor survives the same schedule under the oracle.
    let oracle = DifferentialOracle::new(ovm);
    let mut schedule = vec![seq.clone()];
    for &(i, j) in &[(0usize, 3usize), (1, 2), (0, 2), (2, 3), (0, 1)] {
        seq.swap(i, j);
        schedule.push(seq.clone());
    }
    assert_eq!(oracle.check_schedule(&base, &schedule), Ok(()));
}

// ---------------------------------------------------------------------------
// Seeded corruption: a stale state-commitment cache.
// ---------------------------------------------------------------------------

/// The incremental state-root cache with one leaf silently tampered — the
/// exact failure a missed dirty-marking hook would produce — must be caught
/// by the differential oracle, whose reference side rebuilds its root from
/// scratch via `state_root_naive` and so never trusts the cache.
#[test]
fn stale_commitment_cache_trips_the_root_differential() {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    for u in 1..=4 {
        state.credit(addr(u), Wei::from_eth(1));
    }
    let _ = Ovm::new().execute(
        &mut state,
        &NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
    );
    // A healthy warm cache agrees with the from-scratch rebuild.
    assert_eq!(state.state_root(), state.state_root_naive());

    // Sabotage: overwrite the cached tree node over the first account's
    // leaf group *without* marking anything dirty.
    assert!(state.corrupt_commit_cache_for_tests());

    // The cache now lies; the naive rebuild stays honest, and the
    // differential comparison reports the root mismatch.
    let err = diff_execution(&[], state.state_root_naive(), &[], state.state_root()).unwrap_err();
    assert!(matches!(err, Divergence::StateRootMismatch { .. }));

    // A real mutation of a record in the tampered group marks it dirty,
    // so the next flush re-derives the group and repairs the damage.
    state.credit(addr(1), Wei::from_wei(1));
    assert_eq!(state.state_root(), state.state_root_naive());
}

/// The same class of failure one level down the hierarchy: a token leaf
/// inside a collection's sub-tree silently tampered (the stale sub-root
/// propagated up through the collection header), as a missed token-granular
/// dirty hook would produce. The naive side re-derives the whole two-level
/// scheme independently, so the differential oracle still fires — even when
/// unrelated records flush in between.
#[test]
fn stale_commitment_subtree_trips_the_root_differential() {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    for u in 1..=4 {
        state.credit(addr(u), Wei::from_eth(1));
    }
    for t in 0..3 {
        let _ = Ovm::new().execute(
            &mut state,
            &NftTransaction::simple(
                addr(1),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(t),
                },
            ),
        );
    }
    assert_eq!(state.state_root(), state.state_root_naive());

    // Sabotage: overwrite one cached *token* leaf without marking it dirty.
    assert!(state.corrupt_commit_subtree_for_tests());

    // Unrelated dirt flushing through the top tree must not mask the stale
    // sub-root.
    state.credit(addr(2), Wei::from_wei(3));
    let err = diff_execution(&[], state.state_root_naive(), &[], state.state_root()).unwrap_err();
    assert!(matches!(err, Divergence::StateRootMismatch { .. }));

    // Touching the corrupted token re-derives its leaf from live state and
    // heals the sub-tree.
    let _ = Ovm::new().execute(
        &mut state,
        &NftTransaction::simple(
            addr(1),
            TxKind::Transfer {
                collection: pt,
                token: TokenId::new(0),
                to: addr(3),
            },
        ),
    );
    assert_eq!(state.state_root(), state.state_root_naive());
}

// ---------------------------------------------------------------------------
// Seeded corruption: a forged intermediate state root.
// ---------------------------------------------------------------------------

fn fraud_world(n: u64) -> (L2State, Vec<NftTransaction>) {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    state.credit(addr(1), Wei::from_eth(5));
    state.credit(addr(2), Wei::from_eth(5));
    let txs = (0..n)
        .map(|i| {
            NftTransaction::simple(
                addr(1 + i % 2),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(i),
                },
            )
        })
        .collect();
    (state, txs)
}

/// A batch executed honestly up to step 5, then continued on a state with a
/// hidden credit smuggled in — the canonical mid-stream forgery. The
/// [`BisectionOracle`] must localize the exact step, and its verdict must
/// agree with the production game's bisection, round count included.
#[test]
fn forged_intermediate_root_is_caught_and_localized() {
    let (pre, txs) = fraud_world(8);
    let forged_step = 5usize;
    let ovm = Ovm::new();

    let tampered = TracedExecution::record_with(&ovm, &pre, &txs, |i, st| {
        if i == forged_step {
            st.credit(addr(1 + forged_step as u64 % 2), Wei::from_eth(1));
        }
    });

    // The oracle re-derives the honest trace from scratch and convicts the
    // exact step, in exactly log2(8) = 3 of its own bisection rounds.
    let oracle = BisectionOracle::new(Ovm::new());
    assert_eq!(
        oracle.audit_trace(&pre, &txs, tampered.trace().roots()),
        Ok(TraceVerdict::Forged {
            step: forged_step,
            rounds: 3
        })
    );

    // Cross-check: the production game, bisecting the tampered trace
    // against an honest one, isolates the same step in the same rounds.
    let honest = ExecutionTrace::record(&ovm, &pre, &txs);
    let game = bisect(tampered.trace(), &honest);
    assert_eq!(game.step, DisputedStep::Tx(forged_step));
    assert_eq!(game.rounds, 3);
}

/// A trace that lies about the middle but reconverges to the honest final
/// root: the interactive game can only send it to the (winning-defender)
/// block-advance dispute, while the oracle's linear scan still convicts the
/// intermediate lie — the oracle is strictly stronger than the protocol.
#[test]
fn reconverging_trace_forgery_evades_the_game_but_not_the_oracle() {
    let (pre, txs) = fraud_world(4);
    let ovm = Ovm::new();
    let honest = ExecutionTrace::record(&ovm, &pre, &txs);
    let mut roots = honest.roots().to_vec();
    roots[2] = parole_crypto::keccak256(roots[2].as_bytes());
    let forged = ExecutionTrace::from_roots(roots.clone());

    // The game sees agreeing endpoints and disputes only the advance.
    let game = bisect(&forged, &honest);
    assert_eq!(game.step, DisputedStep::BlockAdvance);

    // The oracle sees the lie itself.
    let oracle = BisectionOracle::new(Ovm::new());
    assert_eq!(
        oracle.audit_trace(&pre, &txs, &roots),
        Ok(TraceVerdict::ForgedReconverging { step: 1 })
    );
}

// ---------------------------------------------------------------------------
// Bug 4: the silently dropped slash remainder.
// ---------------------------------------------------------------------------

/// The historical buggy accounting: a fraud slash paid the challenger's cut
/// and simply forgot the rest — `burned` was never computed, so half the
/// bond vanished from every ledger. The bond-flow checker rejects that
/// split, and the shipped contract's real slash passes it.
#[test]
fn dropped_slash_remainder_trips_the_bond_flow_auditor() {
    let mut rollup = RollupContract::new(RollupConfig::default());
    let pt = rollup
        .l2_state_for_setup()
        .deploy_collection(CollectionConfig::parole_token());
    rollup.commit_setup();
    rollup.deposit(addr(1), Wei::from_eth(5)).unwrap();
    rollup.deposit(addr(2), Wei::from_eth(5)).unwrap();
    rollup.bond_aggregator(AggregatorId::new(0));
    rollup.bond_verifier(VerifierId::new(0));
    let mut agg = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
    let ver = Verifier::new(VerifierId::new(0), Wei::from_eth(5));

    let txs = (0..2u64)
        .map(|i| {
            NftTransaction::simple(
                addr(1 + i % 2),
                TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(i),
                },
            )
        })
        .collect();
    let batch = agg.build_forged_batch(rollup.l2_state(), txs);
    let id = rollup.submit_batch(batch).unwrap();
    let ChallengeOutcome::FraudProven {
        slashed,
        reward,
        burned,
    } = rollup.challenge(ver.id(), id).unwrap()
    else {
        panic!("forged batch must be convicted");
    };

    // The shipped split conserves, and the contract's cumulative burn
    // matches what this slash destroyed.
    check_bond_flow(slashed, reward, burned).expect("fixed contract conserves the bond");
    assert_eq!(rollup.burned_total(), burned);

    // The buggy split — reward accounted, remainder dropped — fires.
    let err = check_bond_flow(slashed, reward, Wei::ZERO).unwrap_err();
    assert!(matches!(
        err,
        ConservationViolation::BondNotConserved { .. }
    ));
}

// ---------------------------------------------------------------------------
// Bug 5 (seeded): state mutations that bypass the event journal.
// ---------------------------------------------------------------------------

/// The defect the event-replay oracle exists to catch: a code path that
/// mutates token state without emitting the corresponding receipt logs —
/// here modelled as a direct `L2State::nft_transfer` applied after block
/// execution, outside the OVM and so invisible to every receipt. Replaying the receipt streams
/// over the pre-block maps lands on the pre-tamper owner and the oracle
/// reports the divergent token; the untampered execution passes.
#[test]
fn unjournaled_state_mutation_trips_the_event_replay_oracle() {
    use parole_audit::replay::{check_event_replay, snapshot_maps, EventReplayViolation};

    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    for u in 1..=3u64 {
        state.credit(addr(u), Wei::from_eth(5));
    }
    let ovm = Ovm::new();
    let txs = [
        NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
        NftTransaction::simple(
            addr(1),
            TxKind::Approve {
                collection: pt,
                token: TokenId::new(0),
                operator: addr(2),
            },
        ),
    ];
    let pre = snapshot_maps(&state);
    let receipts = ovm.execute_sequence(&mut state, &txs);
    assert!(receipts.iter().all(Receipt::is_success));
    check_event_replay(&pre, &receipts, &state).expect("honest execution replays");

    // Tamper: move the token behind the receipts' back.
    state
        .nft_transfer(pt, addr(1), addr(3), TokenId::new(0))
        .unwrap()
        .unwrap();
    let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
    assert!(
        matches!(err, EventReplayViolation::OwnershipMismatch { token, .. }
            if token == TokenId::new(0)),
        "got {err}"
    );
}

// ---------------------------------------------------------------------------
// Marketplace tampering: the listing book and royalty payloads are part of
// the replayable surface.
// ---------------------------------------------------------------------------

/// A sequencer that opens a listing outside the OVM (a direct
/// `L2State::nft_list`, so no `Listed` receipt log) diverges from the
/// replayed projection; likewise a
/// forged `Sold` royalty payload is internally inconsistent with the bps
/// stamped at mint even when the final maps would still converge.
#[test]
fn unjournaled_listing_and_forged_royalty_trip_the_replay_oracle() {
    use parole_audit::replay::{check_event_replay, snapshot_maps, EventReplayViolation};
    use parole_nft::Erc721Event;

    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    for u in 1..=3u64 {
        state.credit(addr(u), Wei::from_eth(5));
    }
    let ovm = Ovm::new();
    let txs = [
        NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
        NftTransaction::simple(
            addr(1),
            TxKind::List {
                collection: pt,
                token: TokenId::new(0),
                price: Wei::from_eth(1),
            },
        ),
        NftTransaction::simple(
            addr(2),
            TxKind::Buy {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
    ];
    let pre = snapshot_maps(&state);
    let receipts = ovm.execute_sequence(&mut state, &txs);
    assert!(receipts.iter().all(Receipt::is_success));
    check_event_replay(&pre, &receipts, &state).expect("honest marketplace block replays");

    // Tamper 1: the new owner's listing appears in the book with no event.
    state
        .nft_list(pt, addr(2), TokenId::new(0), Wei::from_eth(2))
        .unwrap()
        .unwrap();
    let err = check_event_replay(&pre, &receipts, &state).unwrap_err();
    assert!(
        matches!(err, EventReplayViolation::ListingMismatch { token, .. }
            if token == TokenId::new(0)),
        "got {err}"
    );
    state
        .nft_cancel_listing(pt, addr(2), TokenId::new(0))
        .unwrap()
        .unwrap();
    check_event_replay(&pre, &receipts, &state).expect("tamper undone, block replays again");

    // Tamper 2: shave one wei off the journaled royalty. Fail-stop.
    let mut forged = receipts.clone();
    let mut hit = false;
    for r in &mut forged {
        for log in &mut r.logs {
            if let Erc721Event::Sold { royalty, .. } = &mut log.event {
                *royalty = Wei::from_wei(royalty.wei() - 1);
                hit = true;
            }
        }
    }
    assert!(hit, "the block must contain a Sold event");
    let err = check_event_replay(&pre, &forged, &state).unwrap_err();
    assert!(
        matches!(err, EventReplayViolation::StreamInconsistent { .. }),
        "got {err}"
    );
}
