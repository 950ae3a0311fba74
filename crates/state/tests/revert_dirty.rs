//! Regression tests for rollback dirt: `revert_to` marks every record it
//! rewrites through the same hook a forward mutation uses, so the next
//! `state_root()` re-derives each one, back to its committed leaf when
//! the rollback restored it.

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
fn full_revert_restores_the_committed_root() {
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
    // Four accounts and one collection.
    assert_eq!(s.dirty_record_count(), 5);

    s.revert_to(cp);
    // The rollback rewrote every touched record, so every one stays dirty
    // (the fresh account too, though it is gone), and the next flush
    // re-derives them to exactly the committed root.
    assert_eq!(s.dirty_record_count(), 5);
    assert_eq!(s.state_root(), root_before);
    assert_eq!(s.dirty_record_count(), 0);
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

    // addr(0)'s mark survives; the rollback marked addr(1).
    assert_eq!(s.dirty_record_count(), 2);
    assert_eq!(s.state_root(), s.state_root_naive());
    assert_eq!(s.balance_of(addr(1)), Wei::from_eth(1));
}

#[test]
fn revert_past_flush_point_stays_dirty() {
    // An entry journaled *before* the cache flush restores a value that
    // differs from the committed leaf: undoing it must leave the record
    // dirty.
    let mut s = L2State::new();
    for i in 0..4 {
        s.credit(addr(i), Wei::from_eth(1));
    }
    s.begin_recording();
    let cp = s.checkpoint();
    s.credit(addr(0), Wei::from_gwei(7)); // journaled pre-flush
    let committed = s.state_root(); // the flush commits addr(0)'s credit
    s.credit(addr(1), Wei::from_gwei(3)); // journaled post-flush

    s.revert_to(cp); // undoes both entries, crossing the flush point
    assert_eq!(s.dirty_record_count(), 2);
    assert_ne!(s.state_root(), committed);
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
    // The fork inherits addr(7)'s parent-era mark, and its rollback marks
    // both accounts it rewrote.
    assert_eq!(fork.dirty_record_count(), 2);
    assert_eq!(fork.state_root(), fork.state_root_naive());
    assert_eq!(s.state_root(), s.state_root_naive());
    assert_eq!(fork.state_root(), s.state_root());
}

#[test]
fn token_level_revert_restores_the_committed_root() {
    // Dirt is tracked per token: a speculative burst of per-token ops that
    // fully rolls back leaves the collection's token marks, not a
    // whole-collection rebuild, and the flush lands on the committed root.
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
    assert_eq!(s.dirty_record_count(), 1);
    assert_eq!(s.state_root(), root_before);
    assert_eq!(s.state_root(), s.state_root_naive());
}

#[test]
fn token_revert_past_flush_point_stays_dirty() {
    // A per-token entry journaled before the flush restores an owner the
    // committed sub-tree leaf does not hold: undoing it must leave that
    // token dirty.
    let (mut s, pt) = fixture();
    let cp = s.checkpoint();
    s.nft_transfer(pt, addr(0), addr(3), TokenId::new(0))
        .unwrap()
        .unwrap();
    let _ = s.state_root(); // the flush commits token 0's new owner
    s.nft_approve(pt, addr(1), addr(9), TokenId::new(1))
        .unwrap()
        .unwrap();

    s.revert_to(cp); // undoes both token entries, crossing the flush point
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
    s.revert_to(cp1); // stays after the flush point
    assert_eq!(s.state_root(), s.state_root_naive());
    s.revert_to(cp0); // crosses the flush point
    assert_eq!(s.state_root(), s.state_root_naive());
    assert!(s
        .collection(pt)
        .unwrap()
        .owner_of(TokenId::new(9))
        .is_none());
}
