//! The optimistic rollup protocol end to end: deposits, batches, fraud
//! proofs, a forged batch being challenged and slashed, and finalization on
//! the simulated L1.
//!
//! ```sh
//! cargo run --release --example rollup_lifecycle
//! ```
//!
//! This example exercises the substrate the attack runs on, without any
//! attack: it is the "hello world" of the `parole-rollup` crate. It asserts
//! what it prints — the forgery is proven, none goes undetected, the L1
//! chain is intact and bob owns token 0 — so a broken lifecycle exits
//! non-zero.

use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, TxKind};
use parole_primitives::{Address, AggregatorId, TokenId, VerifierId, Wei};
use parole_rollup::{Aggregator, ChallengeOutcome, RollupConfig, RollupContract, Verifier};

fn main() {
    // --- Deployment --------------------------------------------------------
    let mut rollup = RollupContract::new(RollupConfig::default());
    let pt = rollup
        .l2_state_for_setup()
        .deploy_collection(CollectionConfig::parole_token());
    rollup.commit_setup();
    println!(
        "deployed ORSC with challenge period of {} L1 blocks",
        rollup.config().challenge_period
    );

    // --- Bridge deposits (C^L1 -> t^L2) -------------------------------------
    let alice = Address::from_low_u64(1);
    let bob = Address::from_low_u64(2);
    rollup.deposit(alice, Wei::from_eth(3)).unwrap();
    rollup.deposit(bob, Wei::from_eth(3)).unwrap();
    println!(
        "alice bridged {} to L2",
        rollup.l2_state().balance_of(alice)
    );

    // --- Participants post bonds -------------------------------------------
    rollup.bond_aggregator(AggregatorId::new(0));
    rollup.bond_aggregator(AggregatorId::new(1));
    rollup.bond_verifier(VerifierId::new(0));
    let mut honest = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10));
    let mut crooked = Aggregator::honest(AggregatorId::new(1), Wei::from_eth(10));
    let verifier = Verifier::new(VerifierId::new(0), Wei::from_eth(5));

    // --- An honest batch -----------------------------------------------------
    let txs = vec![
        NftTransaction::simple(
            alice,
            TxKind::Mint {
                collection: pt,
                token: TokenId::new(0),
            },
        ),
        NftTransaction::simple(
            alice,
            TxKind::Transfer {
                collection: pt,
                token: TokenId::new(0),
                to: bob,
            },
        ),
    ];
    let batch = honest.build_batch(rollup.l2_state(), txs);
    println!("\nhonest batch: {batch}");
    println!(
        "verifier validates it: {}",
        verifier.validate(rollup.l2_state(), &batch)
    );
    let id = rollup.submit_batch(batch).unwrap();
    println!("submitted as {id}");

    // --- A forged batch gets challenged --------------------------------------
    let forged_txs = vec![NftTransaction::simple(
        bob,
        TxKind::Mint {
            collection: pt,
            token: TokenId::new(1),
        },
    )];
    let forged = crooked.build_forged_batch(rollup.l2_state(), forged_txs);
    println!(
        "\nforged batch claims post-root {}",
        forged.commitment.post_state_root.short()
    );
    let pre_state_ok = verifier.should_challenge(rollup.l2_state(), &forged);
    println!("verifier smells fraud: {pre_state_ok}");
    let forged_id = rollup.submit_batch(forged).unwrap();

    let outcome = rollup.challenge(VerifierId::new(0), forged_id).unwrap();
    let ChallengeOutcome::FraudProven {
        slashed,
        reward,
        burned,
    } = outcome
    else {
        panic!("the forged batch must be proven fraudulent, got {outcome:?}");
    };
    println!(
        "challenge succeeded: aggregator slashed {slashed}, \
         verifier rewarded {reward}, remainder burned {burned}"
    );
    println!(
        "aggregator 1 bond on contract: {}",
        rollup.aggregator_bond(AggregatorId::new(1))
    );

    // --- Finalization ----------------------------------------------------------
    rollup.finalize_all();
    let intact = rollup.l1().verify_integrity();
    println!(
        "\nafter challenge period: L1 height {}, chain integrity {intact}",
        rollup.l1().height(),
    );
    let bob_owns = rollup
        .finalized_state()
        .collection(pt)
        .unwrap()
        .is_owner(bob, TokenId::new(0));
    println!("finalized state: bob owns token#0: {bob_owns}");
    println!("undetected forgeries: {}", rollup.undetected_forgeries());
    assert!(intact, "the L1 chain must stay intact");
    assert!(bob_owns, "the honest batch's transfer must finalize");
    assert_eq!(rollup.undetected_forgeries(), 0, "no forgery may finalize");
}
