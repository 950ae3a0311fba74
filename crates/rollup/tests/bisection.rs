//! Property-based tests of the interactive bisection game: convergence to
//! the exact forged step under random batches and tamper points, the
//! `k`-rounds-for-`2^k`-transactions bound, single-step settlement
//! convicting mid-stream forgeries without re-executing the batch, and the
//! contract's two adjudications reaching the same verdict.

use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, TxKind};
use parole_primitives::{Address, AggregatorId, TokenId, VerifierId, Wei};
use parole_rollup::{
    bisect, settle_step, Aggregator, Batch, ChallengeOutcome, DisputedStep, ExecutionTrace,
    RollupConfig, RollupContract, SettlementVerdict, StateCommitment, TracedExecution,
};
use parole_state::L2State;
use proptest::prelude::*;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v + 1)
}

/// A funded world plus a batch of `n` transactions drawn from the plan:
/// mints, transfers of already-minted tokens, and guaranteed-revert burns —
/// so traces cover both state-changing and no-op steps.
fn world(n: usize, plan: &[u8]) -> (L2State, Vec<NftTransaction>) {
    let mut state = L2State::new();
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    for u in 0..4u64 {
        state.credit(addr(u), Wei::from_eth(4));
    }
    let txs = (0..n)
        .map(|i| {
            let sender = addr(i as u64 % 4);
            let kind = match plan.get(i).copied().unwrap_or(0) % 3 {
                0 => TxKind::Mint {
                    collection: pt,
                    token: TokenId::new(i as u64),
                },
                1 => TxKind::Transfer {
                    collection: pt,
                    token: TokenId::new((i as u64).saturating_sub(1)),
                    to: addr((i as u64 + 1) % 4),
                },
                // Token 9999 never exists: a guaranteed revert, which still
                // bumps the sender's nonce and so still moves the root.
                _ => TxKind::Burn {
                    collection: pt,
                    token: TokenId::new(9999),
                },
            };
            NftTransaction::simple(sender, kind)
        })
        .collect();
    (state, txs)
}

/// The batch shell a defender posts: `txs` over `pre`, claiming the root
/// of `executed` after the end-of-batch block advance.
fn claim(pre: &L2State, txs: &[NftTransaction], executed: &L2State) -> Batch {
    let mut post = executed.clone();
    post.advance_block();
    Batch {
        aggregator: AggregatorId::new(0),
        txs: txs.to_vec(),
        receipts: Vec::new(),
        commitment: StateCommitment {
            pre_state_root: pre.state_root(),
            post_state_root: post.state_root(),
            tx_root: Batch::compute_tx_root(txs),
        },
    }
}

/// A contract whose genesis is `world`, with a bonded aggregator and
/// verifier.
fn deployed(world: &L2State) -> RollupContract {
    let mut rollup = RollupContract::new(RollupConfig::default());
    *rollup.l2_state_for_setup() = world.clone();
    rollup.commit_setup();
    rollup.bond_aggregator(AggregatorId::new(0));
    rollup.bond_verifier(VerifierId::new(0));
    rollup
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A trace forged from a random step onward — as any real mid-stream
    /// state tamper produces — is bisected to exactly that step, within
    /// the ⌈log2 n⌉ round bound.
    #[test]
    fn bisection_converges_to_the_forged_step(
        n in 1usize..24,
        plan in prop::collection::vec(any::<u8>(), 24),
        step_seed in any::<u64>(),
    ) {
        let (pre, txs) = world(n, &plan);
        let ovm = Ovm::new();
        let honest = ExecutionTrace::record(&ovm, &pre, &txs);
        let forged_step = (step_seed % n as u64) as usize;

        let mut roots = honest.roots().to_vec();
        for root in roots.iter_mut().skip(forged_step + 1) {
            *root = parole_crypto::keccak256(root.as_bytes());
        }
        let forged = ExecutionTrace::from_roots(roots);

        let result = bisect(&forged, &honest);
        prop_assert_eq!(result.step, DisputedStep::Tx(forged_step));
        let bound = usize::BITS - (n - 1).leading_zeros();
        prop_assert!(
            result.rounds <= bound,
            "{} rounds for {} txs exceeds ⌈log2⌉ = {}",
            result.rounds, n, bound
        );
    }

    /// For power-of-two batch sizes the bound is exact: `2^k` transactions
    /// settle in exactly `k` rounds, whichever step was forged.
    #[test]
    fn power_of_two_batches_settle_in_exactly_k_rounds(
        k in 0u32..5,
        plan in prop::collection::vec(any::<u8>(), 16),
        step_seed in any::<u64>(),
    ) {
        let n = 1usize << k;
        let (pre, txs) = world(n, &plan);
        let ovm = Ovm::new();
        let honest = ExecutionTrace::record(&ovm, &pre, &txs);
        let forged_step = (step_seed % n as u64) as usize;

        let mut roots = honest.roots().to_vec();
        for root in roots.iter_mut().skip(forged_step + 1) {
            *root = parole_crypto::keccak256(root.as_bytes());
        }
        let result = bisect(&ExecutionTrace::from_roots(roots), &honest);
        prop_assert_eq!(result.step, DisputedStep::Tx(forged_step));
        prop_assert_eq!(result.rounds, k);
    }

    /// End to end: a defender that executed honestly up to a random step
    /// and then smuggled in a hidden credit is isolated by the game and
    /// convicted by single-step settlement — the honest root never matches
    /// its claim, whatever the batch composition.
    #[test]
    fn settlement_convicts_random_mid_stream_forgeries(
        n in 1usize..12,
        plan in prop::collection::vec(any::<u8>(), 12),
        step_seed in any::<u64>(),
    ) {
        let (pre, txs) = world(n, &plan);
        let ovm = Ovm::new();
        let forged_step = (step_seed % n as u64) as usize;

        let defender = TracedExecution::record_with(&ovm, &pre, &txs, |i, st| {
            if i == forged_step {
                st.credit(addr(77), Wei::from_eth(1));
            }
        });
        let challenger = TracedExecution::record(&ovm, &pre, &txs);

        let result = bisect(defender.trace(), challenger.trace());
        prop_assert_eq!(result.step, DisputedStep::Tx(forged_step));

        // Settlement needs only the batch's txs; build the minimal batch
        // shell around the defender's claimed commitment.
        let batch = claim(&pre, &txs, defender.final_state());
        match settle_step(&ovm, &batch, &defender, &challenger, result.step) {
            SettlementVerdict::FraudConfirmed { honest_root, .. } => {
                prop_assert_eq!(
                    honest_root,
                    challenger.trace().root_at(forged_step + 1),
                    "honest re-execution must land on the challenger's root"
                );
            }
            other => prop_assert!(false, "expected fraud confirmed, got {other:?}"),
        }
    }

    /// The flip side: when both sides executed honestly, whatever the
    /// batch, the game finds no transaction step to dispute and the
    /// block-advance settlement upholds an honestly derived commitment.
    #[test]
    fn honest_batches_survive_the_game(
        n in 1usize..12,
        plan in prop::collection::vec(any::<u8>(), 12),
    ) {
        let (pre, txs) = world(n, &plan);
        let ovm = Ovm::new();
        let defender = TracedExecution::record(&ovm, &pre, &txs);
        let challenger = TracedExecution::record(&ovm, &pre, &txs);

        let result = bisect(defender.trace(), challenger.trace());
        prop_assert_eq!(result.step, DisputedStep::BlockAdvance);
        prop_assert_eq!(result.rounds, 0);

        let batch = claim(&pre, &txs, defender.final_state());
        prop_assert_eq!(
            settle_step(&ovm, &batch, &defender, &challenger, result.step),
            SettlementVerdict::DefenderWins
        );
    }

    /// The contract's two adjudications agree. One batch goes to two
    /// identically built contracts, each followed by a deposit and a
    /// dependent honest batch; the first settles it with the whole-batch
    /// `challenge`, the second with `challenge_interactive`. The batch is
    /// honest, forged at a random step (a credit smuggled to that step's
    /// sender or to an outsider), or forged in its post-root alone. Both
    /// must return the same outcome and leave equal staged and finalized
    /// roots, before and after finalizing everything.
    #[test]
    fn both_adjudications_agree(
        n in 1usize..12,
        plan in prop::collection::vec(any::<u8>(), 12),
        forgery in 0u8..3,
        step_seed in any::<u64>(),
        to_sender in any::<bool>(),
    ) {
        let (world, txs) = world(n, &plan);
        let ovm = Ovm::new();
        let forged_step = (forgery == 1).then_some((step_seed % n as u64) as usize);
        let defender = TracedExecution::record_with(&ovm, &world, &txs, |i, st| {
            if Some(i) == forged_step {
                let to = if to_sender { txs[i].sender } else { addr(77) };
                st.credit(to, Wei::from_eth(1));
            }
        });
        let mut batch = claim(&world, &txs, defender.final_state());
        if forgery == 2 {
            batch.commitment.post_state_root =
                parole_crypto::keccak256(batch.commitment.post_state_root.as_bytes());
        }

        let mut contracts = [deployed(&world), deployed(&world)];
        for rollup in &mut contracts {
            rollup.submit_batch(batch.clone()).unwrap();
            rollup.deposit(addr(1), Wei::from_eth(1)).unwrap();
            let mint = NftTransaction::simple(
                addr(0),
                TxKind::Mint { collection: txs[0].kind.collection(), token: TokenId::new(500) },
            );
            let dependent = Aggregator::honest(AggregatorId::new(0), Wei::from_eth(10))
                .build_batch(rollup.l2_state(), vec![mint]);
            rollup.submit_batch(dependent).unwrap();
        }
        let id = contracts[0].pending_batch_ids()[0];
        let [whole, interactive] = &mut contracts;
        let challenger =
            TracedExecution::record(&ovm, interactive.challenge_pre_state(id).unwrap(), &txs);

        let verdict = whole.challenge(VerifierId::new(0), id).unwrap();
        let report = interactive
            .challenge_interactive(VerifierId::new(0), id, &defender, &challenger)
            .unwrap();
        prop_assert_eq!(verdict, report.outcome);
        prop_assert_eq!(
            matches!(verdict, ChallengeOutcome::FraudProven { .. }),
            forgery != 0
        );
        for finalize in [false, true] {
            if finalize {
                whole.finalize_all();
                interactive.finalize_all();
            }
            prop_assert_eq!(whole.l2_state().state_root(), interactive.l2_state().state_root());
            prop_assert_eq!(
                whole.finalized_state().state_root(),
                interactive.finalized_state().state_root()
            );
        }
        prop_assert_eq!(whole.undetected_forgeries(), 0);
        prop_assert_eq!(interactive.undetected_forgeries(), 0);
    }
}

/// Localization opens an operator record through its collection's header
/// and matches the two: a defender that forges only a credit to the sender
/// of a `SetApprovalForAll` step is blamed for the sender's account alone,
/// not for the honest operator record beside it.
#[test]
fn forged_credit_beside_an_operator_grant_blames_only_the_account() {
    let mut pre = L2State::new();
    let pt = pre.deploy_collection(CollectionConfig::parole_token());
    let sender = addr(1);
    pre.credit(sender, Wei::from_eth(4));
    let txs = vec![NftTransaction::simple(
        sender,
        TxKind::SetApprovalForAll {
            collection: pt,
            operator: addr(2),
            approved: true,
        },
    )];
    let ovm = Ovm::new();
    let defender = TracedExecution::record_with(&ovm, &pre, &txs, |_, st| {
        st.credit(sender, Wei::from_eth(1));
    });
    let challenger = TracedExecution::record(&ovm, &pre, &txs);

    let result = bisect(defender.trace(), challenger.trace());
    assert_eq!(result.step, DisputedStep::Tx(0));
    let batch = claim(&pre, &txs, defender.final_state());
    match settle_step(&ovm, &batch, &defender, &challenger, result.step) {
        SettlementVerdict::FraudConfirmed { diverging, .. } => {
            assert_eq!(diverging, vec![parole_state::RecordKey::Acct(sender)]);
        }
        other => panic!("expected fraud confirmed, got {other:?}"),
    }
}
