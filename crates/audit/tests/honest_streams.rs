//! No-false-positives property suite: honest components must pass every
//! auditor under arbitrary workloads. A checker that cries wolf is as
//! useless as one that never fires — these tests pin down the quiet half of
//! the contract the mutation harness pins down the loud half of.

use parole_audit::conservation::AuditedOvm;
use parole_audit::differential::DifferentialOracle;
use parole_audit::fee::check_fee_update;
use parole_audit::invariants::check_state;
use parole_mempool::BaseFeeController;
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, OvmConfig, TxKind};
use parole_primitives::{Address, Gas, TokenId, Wei};
use parole_state::L2State;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum RawOp {
    Mint { sender: u64, token: u64 },
    Transfer { sender: u64, token: u64, to: u64 },
    Burn { sender: u64, token: u64 },
}

fn arb_op(users: u64, tokens: u64) -> impl Strategy<Value = RawOp> {
    prop_oneof![
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Mint { sender, token }),
        (0..users, 0..tokens, 0..users).prop_map(|(sender, token, to)| RawOp::Transfer {
            sender,
            token,
            to
        }),
        (0..users, 0..tokens).prop_map(|(sender, token)| RawOp::Burn { sender, token }),
    ]
}

fn world() -> (L2State, Address) {
    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("Audit", 12, 200));
    // Users 1..=5 funded, 6..=8 broke (CannotPayFees fodder when fees are on).
    for u in 1..=5u64 {
        state.credit(Address::from_low_u64(u), Wei::from_eth(5));
    }
    (state, coll)
}

fn to_tx(op: &RawOp, coll: Address) -> NftTransaction {
    let a = |v: u64| Address::from_low_u64(v + 1);
    match *op {
        RawOp::Mint { sender, token } => NftTransaction::simple(
            a(sender),
            TxKind::Mint {
                collection: coll,
                token: TokenId::new(token),
            },
        ),
        RawOp::Transfer { sender, token, to } => NftTransaction::simple(
            a(sender),
            TxKind::Transfer {
                collection: coll,
                token: TokenId::new(token),
                to: a(to),
            },
        ),
        RawOp::Burn { sender, token } => NftTransaction::simple(
            a(sender),
            TxKind::Burn {
                collection: coll,
                token: TokenId::new(token),
            },
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every honest execution — success, every revert reason, fees on or
    /// off — passes the conservation auditor, and the resulting state passes
    /// the full ERC-721 invariant sweep.
    #[test]
    fn honest_streams_pass_conservation_and_invariants(
        ops in prop::collection::vec(arb_op(8, 12), 1..50),
        fee_mask in prop::collection::vec(any::<bool>(), 50),
    ) {
        let (mut state, coll) = world();
        let mut plain = AuditedOvm::new(Ovm::new());
        let mut charging = AuditedOvm::new(Ovm::with_config(OvmConfig {
            charge_fees: true,
            ..Default::default()
        }));
        for (i, op) in ops.iter().enumerate() {
            let tx = to_tx(op, coll);
            let audited = if fee_mask[i] { &mut charging } else { &mut plain };
            let receipt = audited.execute(&mut state, &tx);
            prop_assert!(receipt.is_ok(), "conservation violated: {:?}", receipt);
        }
        prop_assert_eq!(check_state(&state), Ok(()));
    }

    /// The prefix-cached executor agrees with naive execution across random
    /// swap schedules — the differential oracle stays silent on honest runs.
    #[test]
    fn honest_incremental_execution_passes_the_differential_oracle(
        ops in prop::collection::vec(arb_op(5, 10), 2..20),
        swaps in prop::collection::vec((0usize..20, 0usize..20), 1..8),
    ) {
        let (base, coll) = world();
        let mut seq: Vec<NftTransaction> = ops.iter().map(|o| to_tx(o, coll)).collect();
        let mut schedule = vec![seq.clone()];
        for &(i, j) in &swaps {
            let len = seq.len();
            seq.swap(i % len, j % len);
            schedule.push(seq.clone());
        }
        let oracle = DifferentialOracle::new(Ovm::new());
        prop_assert_eq!(oracle.check_schedule(&base, &schedule), Ok(()));
    }

    /// The shipped base-fee controller never deviates from the re-derived
    /// EIP-1559 rule, whatever gas stream it sees.
    #[test]
    fn honest_fee_controller_passes_the_fee_auditor(
        initial in 1u128..1_000_000_000_000,
        blocks in prop::collection::vec(0u64..3_000_000, 1..100),
    ) {
        let target = Gas::new(1_000_000);
        let mut ctl = BaseFeeController::new(Wei::from_wei(initial), target);
        for used in blocks {
            let old = ctl.base_fee();
            let new = ctl.on_block(Gas::new(used));
            prop_assert_eq!(
                check_fee_update(old, Gas::new(used), target, ctl.floor(), new),
                Ok(())
            );
        }
    }
}
