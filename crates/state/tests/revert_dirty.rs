//! Regression tests for rollback-aware dirty tracking (ROADMAP follow-up):
//! `revert_to` must *cancel* the dirty marks of mutations it exactly
//! undoes, instead of conservatively re-dirtying every restored record.

use parole_nft::CollectionConfig;
use parole_primitives::{Address, TokenId, Wei};
use parole_state::L2State;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v)
}

/// A recorded, committed state: cache materialized, journal live.
fn fixture() -> (L2State, Address) {
    let mut s = L2State::new();
    for i in 0..20 {
        s.credit(addr(i), Wei::from_eth(1));
    }
    let pt = s.deploy_collection(CollectionConfig::parole_token());
    for i in 0..5 {
        s.nft_mint(pt, addr(i), TokenId::new(i)).unwrap().unwrap();
    }
    s.begin_recording();
    let _ = s.state_root(); // materialize the commitment cache
    (s, pt)
}

#[test]
fn full_revert_cancels_all_dirty_marks() {
    let (mut s, pt) = fixture();
    assert_eq!(s.dirty_record_count(), 0);
    let root_before = s.state_root();

    let cp = s.checkpoint();
    s.credit(addr(100), Wei::from_eth(2)); // fresh account
    s.transfer_balance(addr(0), addr(1), Wei::from_gwei(5))
        .unwrap();
    s.bump_nonce(addr(2));
    s.nft_transfer(pt, addr(0), addr(3), TokenId::new(0))
        .unwrap()
        .unwrap();
    s.nft_mint(pt, addr(4), TokenId::new(9)).unwrap().unwrap();
    assert!(s.dirty_record_count() > 0);

    s.revert_to(cp);
    // Every mutation since the flush was exactly undone: nothing left to
    // re-hash, so the next state_root() is a clean cache hit.
    assert_eq!(s.dirty_record_count(), 0);
    assert_eq!(s.state_root(), root_before);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn partial_revert_keeps_surviving_dirt() {
    let (mut s, _) = fixture();
    // Mutation after the flush but before the checkpoint: must stay dirty
    // across a revert that does not reach it.
    s.credit(addr(0), Wei::from_gwei(1));
    let cp = s.checkpoint();
    s.credit(addr(1), Wei::from_gwei(1));
    s.revert_to(cp);

    // addr(1)'s mark cancelled, addr(0)'s survives.
    assert_eq!(s.dirty_record_count(), 1);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn revert_past_flush_point_stays_dirty() {
    // Entries journaled *before* the cache flush have no live forward mark;
    // undoing them must sticky-dirty the record, never clean it.
    let mut s = L2State::new();
    for i in 0..4 {
        s.credit(addr(i), Wei::from_eth(1));
    }
    s.begin_recording();
    let cp = s.checkpoint();
    s.credit(addr(0), Wei::from_gwei(7)); // journaled pre-flush
    let _ = s.state_root(); // flush consumes addr(0)'s mark, hwm moves up
    s.credit(addr(1), Wei::from_gwei(3)); // journaled post-flush

    s.revert_to(cp); // undoes both entries, crossing the flush point
                     // addr(1) cleans (post-flush mark cancelled); addr(0) must remain
                     // dirty — its restored value differs from the committed leaf.
    assert_eq!(s.dirty_record_count(), 1);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn fork_rollbacks_track_dirt_against_fresh_journal() {
    let (mut s, _) = fixture();
    s.credit(addr(7), Wei::from_gwei(9)); // parent-era dirt, unflushed
    let mut fork = s.fork();
    fork.begin_recording();
    let cp = fork.checkpoint();
    fork.credit(addr(7), Wei::from_gwei(1));
    fork.credit(addr(8), Wei::from_gwei(1));
    fork.revert_to(cp);
    // The fork's own mutations cancelled; the inherited parent-era dirt on
    // addr(7) must survive (it was never undone).
    assert_eq!(fork.dirty_record_count(), 1);
    assert_eq!(fork.state_root(), fork.state_root_naive());
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn token_level_revert_cancels_token_dirt() {
    // The hierarchical cache tracks dirt per token: a speculative burst of
    // per-token ops that fully rolls back must leave the collection clean,
    // not whole-collection sticky.
    let (mut s, pt) = fixture();
    assert_eq!(s.dirty_record_count(), 0);
    let root_before = s.state_root();

    let cp = s.checkpoint();
    s.nft_transfer(pt, addr(0), addr(3), TokenId::new(0))
        .unwrap()
        .unwrap();
    s.nft_approve(pt, addr(1), addr(9), TokenId::new(1))
        .unwrap()
        .unwrap();
    s.nft_mint(pt, addr(4), TokenId::new(9)).unwrap().unwrap();
    s.nft_burn(pt, addr(2), TokenId::new(2)).unwrap().unwrap();
    // Token-granular dirt still counts the collection as one record.
    assert_eq!(s.dirty_record_count(), 1);

    s.revert_to(cp);
    assert_eq!(s.dirty_record_count(), 0);
    assert_eq!(s.state_root(), root_before);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn token_revert_past_flush_point_stays_dirty() {
    // A per-token entry journaled before the flush has no live forward
    // mark; undoing it must sticky-dirty that token, never clean it.
    let (mut s, pt) = fixture();
    let cp = s.checkpoint();
    s.nft_transfer(pt, addr(0), addr(3), TokenId::new(0))
        .unwrap()
        .unwrap();
    let _ = s.state_root(); // flush consumes token 0's mark, hwm moves up
    s.nft_approve(pt, addr(1), addr(9), TokenId::new(1))
        .unwrap()
        .unwrap();

    s.revert_to(cp); // undoes both token entries, crossing the flush point
                     // Token 1 cleans (post-flush mark cancelled); token 0 must remain
                     // dirty — its restored owner differs from the committed sub-tree leaf.
    assert_eq!(s.dirty_record_count(), 1);
    assert_eq!(s.state_root(), s.state_root_naive());
    assert_eq!(
        s.collection(pt).unwrap().owner_of(TokenId::new(0)),
        Some(addr(0))
    );
}

#[test]
fn interleaved_checkpoints_and_flushes_stay_consistent() {
    let (mut s, pt) = fixture();
    let cp0 = s.checkpoint();
    s.nft_mint(pt, addr(0), TokenId::new(9)).unwrap().unwrap();
    let _ = s.state_root(); // flush mid-journal
    let cp1 = s.checkpoint();
    s.nft_burn(pt, addr(0), TokenId::new(9)).unwrap().unwrap();
    s.revert_to(cp1); // post-flush layer cancels
    assert_eq!(s.state_root(), s.state_root_naive());
    s.revert_to(cp0); // crosses the flush point: sticky path
    assert_eq!(s.state_root(), s.state_root_naive());
    assert!(s
        .collection(pt)
        .unwrap()
        .owner_of(TokenId::new(9))
        .is_none());
}
