//! Integration test: the §VIII defense deployed in its intended position —
//! as a screening hook inside Bedrock's sequencer — and the attack running
//! against multi-collection traffic.

use parole::defense::{screen_window, DefenseConfig};
use parole::{assess, GentranseqModule, ParoleModule};
use parole_mempool::{BedrockMempool, Screened, Sequencer, WorkloadConfig, WorkloadGenerator};
use parole_nft::CollectionConfig;
use parole_ovm::{NftTransaction, Ovm, TxKind};
use parole_primitives::{Address, Gas, TokenId, Wei};
use parole_state::L2State;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v)
}

/// A funded single-collection economy with an IFU holding two tokens.
fn economy() -> (L2State, Address, Vec<Address>, Address) {
    let mut state = L2State::new();
    let coll = state.deploy_collection(CollectionConfig::limited_edition("Seq", 40, 500));
    let users: Vec<Address> = (1..=10).map(addr).collect();
    for &u in &users {
        state.credit(u, Wei::from_eth(30));
    }
    let ifu = addr(5_000);
    state.credit(ifu, Wei::from_eth(30));
    state.nft_mint(coll, ifu, TokenId::new(0)).unwrap().unwrap();
    state.nft_mint(coll, ifu, TokenId::new(1)).unwrap().unwrap();
    for i in 2..8 {
        state
            .nft_mint(coll, users[i as usize % 10], TokenId::new(i))
            .unwrap()
            .unwrap();
    }
    (state, coll, users, ifu)
}

#[test]
fn sequencer_with_defense_starves_the_attacker() {
    let (state, coll, users, ifu) = economy();
    let mut generator = WorkloadGenerator::new(
        11,
        WorkloadConfig {
            ifu_participation: 0.35,
            ..WorkloadConfig::default()
        },
    );
    let traffic = generator.generate(&state, coll, &users, &[ifu], 14);
    assert!(traffic.len() >= 10);

    let mut pool = BedrockMempool::new(Wei::from_gwei(1));
    pool.submit_all(traffic);
    let mut sequencer = Sequencer::new(pool, Gas::new(2_000_000));

    // The defense as a screening hook.
    let defense = DefenseConfig {
        threshold: Wei::from_milli_eth(5),
        max_deferrals: 6,
        search_passes: 2,
    };
    let mut hook = |st: &L2State, window: Vec<NftTransaction>| {
        let outcome = screen_window(st, &window, &defense);
        Screened {
            admitted: outcome.admitted,
            deferred: outcome.deferred,
        }
    };

    let block = sequencer.seal_block(&state, Some(&mut hook));
    // Whatever the adversarial aggregator does with the *screened* block
    // content, its best profit is bounded by the defense threshold regime.
    let module = ParoleModule::new(GentranseqModule::fast());
    let residual = module
        .process(&[ifu], &state, &block.txs)
        .map(|o| o.profit().wei())
        .unwrap_or(0);
    // Unscreened baseline for comparison.
    let mut raw_pool = BedrockMempool::new(Wei::from_gwei(1));
    let mut generator2 = WorkloadGenerator::new(
        11,
        WorkloadConfig {
            ifu_participation: 0.35,
            ..WorkloadConfig::default()
        },
    );
    raw_pool.submit_all(generator2.generate(&state, coll, &users, &[ifu], 14));
    let mut raw_seq = Sequencer::new(raw_pool, Gas::new(2_000_000));
    let raw_block = raw_seq.seal_block(&state, None);
    let raw = module
        .process(&[ifu], &state, &raw_block.txs)
        .map(|o| o.profit().wei())
        .unwrap_or(0);

    assert!(
        residual <= raw,
        "screening must never help the attacker: residual {residual} vs raw {raw}"
    );
    if raw > Wei::from_milli_eth(20).wei() as i128 {
        assert!(
            residual < raw,
            "a lucrative window must be measurably defused"
        );
    }
}

#[test]
fn attack_works_across_multiple_collections() {
    // Two limited-edition collections in one window: the assessment and the
    // OVM handle cross-collection sequences; profit can come from either.
    let mut state = L2State::new();
    let coll_a = state.deploy_collection(CollectionConfig::limited_edition("AlphaApes", 10, 400));
    let coll_b = state.deploy_collection(CollectionConfig::limited_edition("BetaBirds", 10, 600));
    let ifu = addr(9_000);
    state.credit(ifu, Wei::from_eth(10));
    state.credit(addr(1), Wei::from_eth(10));
    state.credit(addr(2), Wei::from_eth(10));
    for (coll, owner, token) in [
        (coll_a, ifu, 0),
        (coll_a, addr(1), 1),
        (coll_a, addr(2), 2),
        (coll_b, ifu, 0),
        (coll_b, addr(2), 1),
    ] {
        state
            .nft_mint(coll, owner, TokenId::new(token))
            .unwrap()
            .unwrap();
    }

    let window = vec![
        // IFU mints in collection A (price mover in A).
        NftTransaction::simple(
            ifu,
            TxKind::Mint {
                collection: coll_a,
                token: TokenId::new(3),
            },
        ),
        // Unrelated burn in A (price mover the IFU wants re-positioned).
        NftTransaction::simple(
            addr(2),
            TxKind::Burn {
                collection: coll_a,
                token: TokenId::new(2),
            },
        ),
        // IFU sells in B.
        NftTransaction::simple(
            ifu,
            TxKind::Transfer {
                collection: coll_b,
                token: TokenId::new(0),
                to: addr(1),
            },
        ),
        // Unrelated mint in B (price mover in B).
        NftTransaction::simple(
            addr(1),
            TxKind::Mint {
                collection: coll_b,
                token: TokenId::new(2),
            },
        ),
    ];
    // Sanity: the whole window executes in order.
    let (receipts, _) = Ovm::new().simulate_sequence(&state, &window);
    assert!(receipts.iter().all(|r| r.is_success()));

    let assessment = assess(&window, &[ifu]);
    assert!(
        assessment.opportunity,
        "cross-collection window is assessable"
    );

    let module = ParoleModule::new(GentranseqModule::fast());
    let outcome = module.process(&[ifu], &state, &window);
    // Profitable orderings exist: e.g. sell in B *after* B's mint raises
    // the price, and mint in A *after* A's burn lowers it.
    let outcome = outcome.expect("cross-collection arbitrage must be found");
    assert!(outcome.profit().is_gain());

    // The best order must still be valid cross-collection.
    let env = module.gentranseq().environment(&state, &window, &[ifu]);
    assert_eq!(
        env.balance_of_order(&outcome.best_order),
        Some(outcome.best_balance)
    );
}
