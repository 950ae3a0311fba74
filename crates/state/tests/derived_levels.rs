//! The top-level commitment tree stores levels 2 and up and derives its
//! leaves and the level above them from the account and collection
//! tables. A regression that keeps the leaves resident again fails the
//! footprint bound here, not only in the benchmark's peak RSS; and a stale
//! stored node heals exactly when its own four-leaf group flushes.

use parole_primitives::{Address, Wei};
use parole_state::L2State;

fn addr(v: u64) -> Address {
    Address::from_low_u64(v)
}

#[test]
fn a_committed_world_keeps_about_half_a_node_per_leaf() {
    let n = 100_000u64;
    let s = L2State::from_accounts((1..=n).map(|i| (addr(i), Wei::from_gwei(i))));
    assert_eq!(s.commit_resident_nodes(), 0, "no root, no tree");
    assert_eq!(s.state_root(), s.state_root_naive());
    // Levels 2 and up of n + 1 leaves: (n + 1) / 4 + (n + 1) / 8 + … ≤
    // (n + 1) / 2 plus one rounded-up node per level. Keeping level 1
    // would hold about n nodes, and the leaves about 2n.
    let leaves = n as usize + 1;
    let resident = s.commit_resident_nodes();
    assert!(
        resident <= leaves / 2 + 64,
        "{resident} top-level nodes resident for {leaves} leaves"
    );
}

#[test]
fn a_stale_group_survives_flushes_outside_it_and_heals_from_inside() {
    let mut s = L2State::from_accounts((1..=40).map(|i| (addr(i), Wei::from_eth(1))));
    s.begin_recording();
    assert!(s.corrupt_commit_cache_for_tests());
    assert_ne!(s.state_root(), s.state_root_naive());

    // Leaves 0–3 are the metadata leaf and accounts 1–3. Flushing any
    // record outside that group re-derives other groups only.
    for outside in [4, 20, 40] {
        s.credit(addr(outside), Wei::from_wei(1));
        assert_ne!(s.state_root(), s.state_root_naive(), "account {outside}");
    }
    // So does a splice whose suffix starts past the group.
    s.credit(addr(1_000), Wei::from_wei(1));
    assert_ne!(s.state_root(), s.state_root_naive());

    // A flush of any record in the group re-derives it from the tables.
    s.credit(addr(3), Wei::from_wei(1));
    assert_eq!(s.state_root(), s.state_root_naive());
}
