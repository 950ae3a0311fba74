//! Property suite for stateless inclusion proofs: every honestly generated
//! opening verifies against the bare state root, and any single lie — in
//! the claimed record, the sibling paths, or the root itself — is rejected.
//!
//! These are the soundness guarantees the fraud-proof settlement leans on:
//! a defender cannot open a root at a record value honest execution
//! contradicts, and a single-bit tamper anywhere in the proof breaks the
//! keccak chain.

use parole_crypto::keccak256;
use parole_nft::CollectionConfig;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::{L2State, RecordKey, RecordProof};
use proptest::prelude::*;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v + 1)
}

/// One random-world recipe: funded accounts, a collection, a mint set with
/// random owners, and approval/burn subsets.
#[derive(Debug, Clone)]
struct WorldPlan {
    balances: Vec<u64>,
    mint_owners: Vec<u64>,
    approvals: Vec<(usize, u64)>,
    burns: Vec<usize>,
}

fn world_plan() -> impl Strategy<Value = WorldPlan> {
    (
        prop::collection::vec(1u64..1_000_000, 1..12),
        prop::collection::vec(0u64..12, 1..10),
        prop::collection::vec((0usize..10, 0u64..12), 0..4),
        prop::collection::vec(0usize..10, 0..3),
    )
        .prop_map(|(balances, mint_owners, approvals, burns)| WorldPlan {
            balances,
            mint_owners,
            approvals,
            burns,
        })
}

/// Materializes a plan into a state, returning the collection address and
/// the set of still-active token ids.
fn build(plan: &WorldPlan) -> (L2State, Address, Vec<u64>) {
    let mut state = L2State::new();
    for (i, &bal) in plan.balances.iter().enumerate() {
        state.credit(addr(i as u64), Wei::from_gwei(bal));
    }
    let pt = state.deploy_collection(CollectionConfig::parole_token());
    let mut active = Vec::new();
    for (t, &owner) in plan.mint_owners.iter().enumerate() {
        state
            .nft_mint(pt, addr(owner), TokenId::new(t as u64))
            .unwrap()
            .unwrap();
        active.push(t as u64);
    }
    for &(t, op) in &plan.approvals {
        if let Some(&token) = active.get(t) {
            let owner = addr(plan.mint_owners[token as usize]);
            let _ = state.nft_approve(pt, owner, addr(100 + op), TokenId::new(token));
        }
    }
    for &t in &plan.burns {
        if t < active.len() {
            let token = active.remove(t);
            let owner = addr(plan.mint_owners[token as usize]);
            state
                .nft_burn(pt, owner, TokenId::new(token))
                .unwrap()
                .unwrap();
        }
    }
    // List every other surviving token so marketplace state (seller + price
    // in the token leaf) is exercised by the proof suite.
    for (i, &t) in active.iter().enumerate() {
        if i % 2 == 0 {
            let owner = addr(plan.mint_owners[t as usize]);
            state
                .nft_list(pt, owner, TokenId::new(t), Wei::from_gwei(5 + t))
                .unwrap()
                .unwrap();
        }
    }
    (state, pt, active)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record the world holds opens against the bare root, and the
    /// opening speaks for the right record key.
    #[test]
    fn honest_openings_verify(plan in world_plan()) {
        let (state, pt, active) = build(&plan);
        let root = state.state_root();

        for i in 0..plan.balances.len() {
            let who = addr(i as u64);
            let proof = state.prove_record(&RecordKey::Acct(who)).expect("credited");
            prop_assert!(proof.verify(root));
            prop_assert_eq!(proof.key(), RecordKey::Acct(who));
        }

        let header = state.prove_record(&RecordKey::Coll(pt)).expect("deployed");
        prop_assert!(header.verify(root));
        prop_assert_eq!(header.key(), RecordKey::Coll(pt));

        for &t in &active {
            let key = RecordKey::Token(pt, TokenId::new(t));
            let proof = state.prove_record(&key).expect("active token");
            prop_assert!(proof.verify(root));
            prop_assert_eq!(proof.key(), key);
        }

        // A burned token no longer opens; a never-deployed collection and a
        // never-credited account likewise.
        for &t in &plan.burns {
            if t < plan.mint_owners.len() && !active.contains(&(t as u64)) {
                prop_assert!(state
                    .prove_record(&RecordKey::Token(pt, TokenId::new(t as u64)))
                    .is_none());
            }
        }
        prop_assert!(state.prove_record(&RecordKey::Acct(addr(9999))).is_none());
        prop_assert!(state.prove_record(&RecordKey::Coll(addr(9999))).is_none());
    }

    /// Lying about the claimed record value — balance, nonce, owner,
    /// operator, or any header counter — fails verification.
    #[test]
    fn tampered_record_values_are_rejected(
        plan in world_plan(),
        which in 0usize..6,
    ) {
        let (state, pt, active) = build(&plan);
        let root = state.state_root();

        let mut acct = state.prove_account(addr(0)).expect("credited");
        prop_assert!(acct.verify(root));
        match which % 2 {
            0 => acct.account.balance += Wei::from_wei(1),
            _ => acct.account = parole_state::AccountState::with_balance(acct.account.balance),
        }
        // Nonce-zeroing only lies when the nonce was non-zero; balance
        // tampering always lies.
        if which % 2 == 0 || state.account(addr(0)).unwrap().nonce.value() != 0 {
            prop_assert!(!acct.verify(root));
        }

        let mut coll = state.prove_collection(pt).expect("deployed");
        prop_assert!(coll.verify(root));
        match which % 3 {
            0 => coll.header.remaining_supply += 1,
            1 => coll.header.active_supply += 1,
            _ => coll.sub_root = keccak256(coll.sub_root.as_bytes()),
        }
        prop_assert!(!coll.verify(root));

        if let Some(&t) = active.first() {
            let mut tok = state.prove_token(pt, TokenId::new(t)).expect("active");
            prop_assert!(tok.verify(root));
            match which % 6 {
                0 => tok.owner = addr(4321),
                1 => tok.approved = addr(4321),
                2 => tok.header.approval_count += 1,
                // Marketplace state is committed too: forging the listing
                // (seller or price) or the royalty stamp breaks the chain.
                3 => tok.listing_seller = addr(4321),
                4 => tok.listing_price += Wei::from_wei(1),
                _ => tok.royalty_bps += 1,
            }
            prop_assert!(!tok.verify(root));
        }
    }

    /// A single flipped bit in a sibling path — or one inverted direction
    /// flag — breaks the keccak chain.
    #[test]
    fn tampered_paths_are_rejected(
        plan in world_plan(),
        node in 0usize..8,
        bit in 0usize..256,
    ) {
        let (state, pt, active) = build(&plan);
        let root = state.state_root();

        let mut acct = state.prove_account(addr(0)).expect("credited");
        if acct.path.tamper_path_bit_for_tests(node, bit) {
            prop_assert!(!acct.verify(root));
        }
        let mut acct = state.prove_account(addr(0)).expect("credited");
        if acct.path.tamper_direction_for_tests(node) {
            prop_assert!(!acct.verify(root));
        }

        if let Some(&t) = active.first() {
            let mut tok = state.prove_token(pt, TokenId::new(t)).expect("active");
            if tok.token_path.tamper_path_bit_for_tests(node, bit) {
                prop_assert!(!tok.verify(root));
            }
            let mut tok = state.prove_token(pt, TokenId::new(t)).expect("active");
            if tok.header_path.tamper_path_bit_for_tests(node, bit) {
                prop_assert!(!tok.verify(root));
            }
        }
    }

    /// No opening verifies against a different root, and wire sizes stay
    /// logarithmic in the world size.
    #[test]
    fn wrong_roots_are_rejected_and_sizes_logarithmic(plan in world_plan()) {
        let (state, pt, active) = build(&plan);
        let root = state.state_root();
        let wrong = keccak256(root.as_bytes());

        let n_leaves = 1 + plan.balances.len() + 1; // meta + accounts + header
        let depth_bound = usize::BITS as usize - (n_leaves - 1).leading_zeros() as usize + 1;

        let mut proofs: Vec<RecordProof> =
            vec![state.prove_record(&RecordKey::Coll(pt)).expect("deployed")];
        proofs.extend((0..plan.balances.len()).map(|i| {
            state
                .prove_record(&RecordKey::Acct(addr(i as u64)))
                .expect("credited")
        }));
        proofs.extend(active.iter().map(|&t| {
            state
                .prove_record(&RecordKey::Token(pt, TokenId::new(t)))
                .expect("active")
        }));
        for proof in &proofs {
            prop_assert!(!proof.verify(wrong));
            // 33 bytes per path node, ≤ (⌈log2 top⌉ + ⌈log2 sub⌉ + slack)
            // nodes, plus ≤ 228 bytes of leaf preimages and indices (token
            // proofs carry the 90B token leaf, the 122B header and two
            // 8B leaf indices).
            prop_assert!(proof.encoded_len() <= 228 + 33 * 2 * depth_bound);
        }
    }
}
