//! Copy-on-write forks: a fork shares its parent's pages until one side
//! writes, a write copies only the pages it lands in, and the parent stays
//! observably untouched. A regression to deep-copying forks fails here,
//! not only in the benchmark.

use parole_primitives::{Address, Wei};
use parole_state::L2State;
use serde::Serialize;

const ACCOUNTS: u64 = 20_000;

fn world() -> L2State {
    let mut s = L2State::new();
    for i in 1..=ACCOUNTS {
        s.credit(Address::from_low_u64(i), Wei::from_gwei(i));
    }
    s
}

#[test]
fn fork_credit_and_root_copy_only_the_dirty_path() {
    let parent = world();
    let root = parent.state_root();
    let value = parent.to_value();

    let mut fork = parent.fork();
    let (shared, total) = fork.shared_pages(&parent);
    assert!(total >= 100, "the world must span many pages, got {total}");
    assert_eq!(shared, total, "a fresh fork shares every page");

    fork.credit(Address::from_low_u64(7), Wei::from_wei(1));
    let fork_root = fork.state_root();
    assert_ne!(fork_root, root);
    assert_eq!(fork_root, fork.state_root_naive());

    // The parent is untouched: equal, serialized identically, same root.
    assert_eq!(parent, world());
    assert_eq!(parent.to_value(), value);
    assert_eq!(parent.state_root(), root);
    assert_eq!(parent.state_root_naive(), root);

    // One dirty account leaf unshares its value page plus one page per
    // tree level on its path (levels short of a full page are never
    // shared), so the fork still shares all but O(depth) pages.
    let depth = (ACCOUNTS + 1).next_power_of_two().trailing_zeros() as usize + 1;
    let (shared, total) = fork.shared_pages(&parent);
    assert!(
        total - shared <= depth + 1,
        "one credit unshared {} of {total} pages (allowed {})",
        total - shared,
        depth + 1
    );
}
