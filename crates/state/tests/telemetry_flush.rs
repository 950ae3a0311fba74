//! Telemetry-armed regression for flush accounting: the
//! `state.leaves_flushed` histogram shows that a fully-reverted window
//! flushes exactly the leaves it touched, back to the committed root, and
//! the per-root keccak counter is live.
//!
//! Single `#[test]` on purpose: the metrics registry is process-global and
//! this integration binary owns it outright.

#![cfg(feature = "telemetry")]

use parole_primitives::{Address, Wei};
use parole_state::L2State;
use parole_telemetry as tel;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v)
}

#[test]
fn reverted_window_flushes_the_leaves_it_touched() {
    let mut s = L2State::new();
    for i in 0..50 {
        s.credit(addr(i), Wei::from_eth(1));
    }
    s.begin_recording();
    let committed = s.state_root(); // build the cache outside the measured window

    tel::reset();

    // A speculative window that fully rolls back: the rollback marks every
    // account it rewrites, so the next state_root() flushes the window's
    // touched leaves, back to the committed root.
    let cp = s.checkpoint();
    for i in 0..10 {
        s.transfer_balance(addr(i), addr(i + 10), Wei::from_gwei(1))
            .unwrap();
    }
    s.revert_to(cp);
    assert_eq!(s.state_root(), committed);

    let snap = tel::snapshot();
    assert_eq!(snap.counter("state.root_clean_hits"), 0);
    let flushed = snap
        .histogram("state.leaves_flushed")
        .expect("a reverted window flushes what it touched");
    assert_eq!(flushed.count, 1);
    assert_eq!(flushed.sum, 20, "10 transfers touch 20 accounts");
    assert_eq!(snap.counter("state.reverts"), 1);
    assert_eq!(snap.histogram("state.revert_depth").unwrap().max, 20);
    assert_eq!(s.state_root(), s.state_root_naive());

    // The same window *without* the revert flushes the same leaves and
    // pays keccak digests for them.
    tel::reset();
    for i in 0..10 {
        s.transfer_balance(addr(i), addr(i + 10), Wei::from_gwei(1))
            .unwrap();
    }
    let _ = s.state_root();
    let snap = tel::snapshot();
    let flushed = snap
        .histogram("state.leaves_flushed")
        .expect("dirty window flushes");
    assert_eq!(flushed.count, 1);
    assert_eq!(flushed.sum, 20, "10 transfers touch 20 accounts");
    let keccak = snap
        .histogram("state.keccak_per_root")
        .expect("keccak per root recorded");
    assert!(keccak.max > 0, "flush must pay keccak digests");
    assert!(snap.counter("crypto.keccak256") >= keccak.max as u64);
    assert_eq!(
        snap.histogram("state.leaves_derived").unwrap().count,
        1,
        "every flush records its derived leaves"
    );

    // Token-granular attribution: a single NFT op in a populated collection
    // flushes exactly one token leaf and one collection header, and the
    // whole flush is O(log supply) digests, not O(supply).
    let pt = s.deploy_collection(parole_nft::CollectionConfig::limited_edition("TF", 32, 100));
    for t in 0..20 {
        s.nft_mint(pt, addr(t), parole_primitives::TokenId::new(t))
            .unwrap()
            .unwrap();
    }
    let _ = s.state_root();
    tel::reset();
    s.nft_transfer(pt, addr(0), addr(1), parole_primitives::TokenId::new(0))
        .unwrap()
        .unwrap();
    let _ = s.state_root();
    let snap = tel::snapshot();
    assert_eq!(
        snap.histogram("state.token_leaves_flushed").unwrap().sum,
        1,
        "one token op re-hashes one sub-tree leaf"
    );
    assert_eq!(
        snap.histogram("state.coll_leaves_flushed").unwrap().sum,
        1,
        "one collection header re-derives"
    );
    assert_eq!(
        snap.histogram("state.leaves_flushed").unwrap().sum,
        1,
        "the header is the only top-level leaf flushed"
    );
    // The top-level tree stores levels 2 and up, so the header's four-leaf
    // group (leaves 48..52: three accounts and the header) re-derives
    // around it.
    assert_eq!(
        snap.histogram("state.leaves_derived").unwrap().sum,
        3,
        "the flush derives the header group's three clean neighbours"
    );
    let keccak = snap.histogram("state.keccak_per_root").unwrap();
    assert!(
        keccak.sum < 20,
        "hierarchical flush must not re-hash the whole 20-token collection; paid {}",
        keccak.sum
    );

    // Every name this run recorded is statically registered.
    for name in snap.counters.keys().chain(snap.histograms.keys()) {
        let d = tel::describe(name)
            .unwrap_or_else(|| panic!("metric {name} recorded but not registered"));
        assert_eq!(d.name, name);
    }

    tel::reset();
}
