//! Regression tests for the two-level (hierarchical) state commitment:
//! per-collection sub-trees, token-granular dirty tracking, and the
//! approval-soundness fix (approvals are committed state — two states
//! differing only in approvals must have different roots).

use parole_nft::CollectionConfig;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v)
}

/// A committed state with one collection and a handful of active tokens.
fn fixture() -> (L2State, Address) {
    let mut s = L2State::new();
    for i in 0..8 {
        s.credit(addr(i), Wei::from_eth(1));
    }
    let pt = s.deploy_collection(CollectionConfig::parole_token());
    for i in 0..5 {
        s.nft_mint(pt, addr(i), TokenId::new(i)).unwrap().unwrap();
    }
    (s, pt)
}

#[test]
fn approval_flips_the_state_root() {
    // The PR-5 soundness fix: the flat commitment omitted the approvals map
    // entirely, so a state where Alice approved Mallory to move her token
    // shared a root with the state where she had not.
    let (mut s, pt) = fixture();
    let before_incremental = s.state_root();
    let before_naive = s.state_root_naive();
    assert_eq!(before_incremental, before_naive);

    s.nft_approve(pt, addr(0), addr(7), TokenId::new(0))
        .unwrap()
        .unwrap();
    assert_ne!(s.state_root(), before_incremental);
    assert_ne!(s.state_root_naive(), before_naive);
    assert_eq!(s.state_root(), s.state_root_naive());

    // Clearing the approval (approving the zero address) restores the
    // original root: ZERO in the token leaf faithfully encodes "none".
    s.nft_approve(pt, addr(0), Address::ZERO, TokenId::new(0))
        .unwrap()
        .unwrap();
    assert_eq!(s.state_root(), before_incremental);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn approval_revert_restores_root_and_cleans_dirt() {
    let (mut s, pt) = fixture();
    s.begin_recording();
    let root_before = s.state_root();
    assert_eq!(s.dirty_record_count(), 0);

    let cp = s.checkpoint();
    s.nft_approve(pt, addr(0), addr(7), TokenId::new(0))
        .unwrap()
        .unwrap();
    assert_eq!(s.dirty_record_count(), 1);
    s.revert_to(cp);

    // The rollback marks the token it rewrote; the next root re-derives
    // that leaf to its committed value and cleans the dirt.
    assert_eq!(s.dirty_record_count(), 1);
    assert_eq!(s.state_root(), root_before);
    assert_eq!(s.dirty_record_count(), 0);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn token_ops_mark_one_record_however_many_tokens_move() {
    let (mut s, pt) = fixture();
    let _ = s.state_root();
    s.nft_transfer(pt, addr(0), addr(1), TokenId::new(0))
        .unwrap()
        .unwrap();
    s.nft_mint(pt, addr(2), TokenId::new(9)).unwrap().unwrap();
    s.nft_burn(pt, addr(3), TokenId::new(3)).unwrap().unwrap();
    // Token-granular dirt still counts the collection as one dirty record.
    assert_eq!(s.dirty_record_count(), 1);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn mixed_token_and_deploy_rollbacks_agree_with_naive() {
    // Interleave the per-token undo path with a deployment's
    // whole-collection mark across a flush boundary; both dirty levels
    // must reconcile, in the existing collection and in the new one.
    let (mut s, pt) = fixture();
    s.begin_recording();
    let _ = s.state_root();

    let cp = s.checkpoint();
    s.nft_transfer(pt, addr(0), addr(4), TokenId::new(0))
        .unwrap()
        .unwrap();
    let fresh = s.deploy_collection(CollectionConfig::limited_edition("M", 8, 100));
    s.nft_mint(fresh, addr(5), TokenId::new(3))
        .unwrap()
        .unwrap();
    let _ = s.state_root(); // flush mid-journal
    s.nft_mint(fresh, addr(6), TokenId::new(4))
        .unwrap()
        .unwrap();
    s.nft_approve(pt, addr(4), addr(6), TokenId::new(0))
        .unwrap()
        .unwrap();
    s.revert_to(cp); // crosses the flush point at both levels
    assert_eq!(s.state_root(), s.state_root_naive());
    assert_eq!(
        s.collection(pt).unwrap().owner_of(TokenId::new(0)),
        Some(addr(0))
    );
    assert!(s.collection(fresh).is_none());
}

#[test]
fn burn_clears_committed_approval() {
    // Burning an approved token removes both the ownership and the approval
    // from the committed state; re-minting it to the same owner must not
    // resurrect the approval in the root.
    let (mut s, pt) = fixture();
    let clean_root = {
        // Reference world that never saw the approval.
        let (mut r, pt_r) = fixture();
        r.nft_burn(pt_r, addr(0), TokenId::new(0)).unwrap().unwrap();
        r.nft_mint(pt_r, addr(0), TokenId::new(0)).unwrap().unwrap();
        r.state_root()
    };
    s.nft_approve(pt, addr(0), addr(7), TokenId::new(0))
        .unwrap()
        .unwrap();
    s.nft_burn(pt, addr(0), TokenId::new(0)).unwrap().unwrap();
    s.nft_mint(pt, addr(0), TokenId::new(0)).unwrap().unwrap();
    assert_eq!(s.state_root(), clean_root);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn corrupted_subtree_diverges_from_naive_and_heals_on_touch() {
    let (mut s, pt) = fixture();
    assert!(s.corrupt_commit_subtree_for_tests());
    // The served incremental root is now wrong; only the independent naive
    // rebuild can tell.
    assert_ne!(s.state_root(), s.state_root_naive());

    // A real mutation of the corrupted token leaf re-derives it from live
    // state, healing the sub-tree.
    s.nft_transfer(pt, addr(0), addr(1), TokenId::new(0))
        .unwrap()
        .unwrap();
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn subtree_corruption_survives_unrelated_flushes() {
    // Flushing dirt in *other* records must not accidentally mask the
    // corruption (the stale sub-root stays in the served root until the
    // corrupted token itself is touched).
    let (mut s, _) = fixture();
    assert!(s.corrupt_commit_subtree_for_tests());
    s.credit(addr(42), Wei::from_gwei(3));
    assert_ne!(s.state_root(), s.state_root_naive());
}
