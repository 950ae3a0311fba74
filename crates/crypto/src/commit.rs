//! Incrementally-maintained Merkle commitment trees.
//!
//! [`MerkleTree`](crate::MerkleTree) is rebuilt from scratch on every call —
//! fine for fraud-proof generation, ruinous for the state-root hot path,
//! which recommits the whole world after every window evaluation. A
//! [`CommitTree`] keeps the same level structure resident and repairs it
//! after point edits:
//!
//! - [`CommitTree::update`] recomputes only the leaf-to-root path —
//!   O(log n) hashes;
//! - [`CommitTree::update_batch`] repairs Δ dirty leaves level by level,
//!   deduplicating shared ancestors — O(Δ · log n) hashes with the constant
//!   shrinking as dirty paths merge;
//! - [`CommitTree::insert`] / [`CommitTree::remove`] splice the leaf level
//!   and rehash only the suffix whose positions shifted.
//!
//! Every level pass hashes its parents through
//! [`keccak256_batch`](crate::keccak256_batch), at most one page of parents
//! per call, so bulk passes take the eight-lane kernel where the CPU has
//! it and no pass holds more than a page of transient digests.
//!
//! The levels are [`PagedVec`]s, so a clone of a resident tree copies page
//! pointers, and repairing a clone's dirty paths copies only the pages on
//! those paths; the rest stay shared with the tree it was cloned from.
//!
//! The root is **bit-identical** to
//! `MerkleTree::from_leaves(leaves).root()` for the same leaf sequence at
//! every point — the equivalence proptests in `tests/prop.rs` replay random
//! edit scripts against a from-scratch rebuild to pin that down. The fraud
//! proof game and every existing on-chain commitment are therefore
//! unchanged by callers switching to the incremental tree.

use crate::keccak::keccak256_batch;
use crate::merkle::{prove_levels, MerkleProof};
use parole_primitives::{Hash32, PagedVec, PAGE_LEN};
use std::ops::Range;

/// A binary Merkle tree over pre-hashed 32-byte leaves that supports
/// in-place point edits.
///
/// Structure (levels, unpaired-node promotion, empty-tree sentinel root) is
/// identical to [`MerkleTree`](crate::MerkleTree); only the maintenance
/// strategy and the storage differ: each level is a copy-on-write
/// [`PagedVec`], so `clone` is O(pages) pointer copies and an edit on the
/// clone copies one page per level on the edited path.
///
/// # Example
///
/// ```
/// use parole_crypto::{keccak256, CommitTree, MerkleTree};
/// let leaves: Vec<_> = (0..5u64).map(|i| keccak256(&i.to_be_bytes())).collect();
/// let mut tree = CommitTree::from_leaves(leaves.clone());
/// assert_eq!(tree.root(), MerkleTree::from_leaves(leaves.clone()).root());
///
/// let new_leaf = keccak256(b"updated");
/// tree.update(2, new_leaf);
/// let mut rebuilt = leaves.clone();
/// rebuilt[2] = new_leaf;
/// assert_eq!(tree.root(), MerkleTree::from_leaves(rebuilt).root());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitTree {
    /// `levels[0]` is the leaf level; the last level holds the single root
    /// (or is empty for an empty tree).
    levels: Vec<PagedVec<Hash32>>,
}

/// The nodes at positions `parents` (ascending) of the level above
/// `children`: pairs hashed through one [`keccak256_batch`] call, an
/// unpaired last child promoted unchanged.
fn parent_nodes<'a>(
    children: &'a PagedVec<Hash32>,
    parents: impl Iterator<Item = usize> + Clone + 'a,
) -> impl Iterator<Item = Hash32> + 'a {
    let paired = |p: &usize| 2 * p + 1 < children.len();
    let mut digests = keccak256_batch(parents.clone().filter(paired).map(|p| {
        let mut preimage = [0u8; 64];
        preimage[..32].copy_from_slice(children[2 * p].as_bytes());
        preimage[32..].copy_from_slice(children[2 * p + 1].as_bytes());
        preimage
    }))
    .into_iter();
    parents.map(move |p| match paired(&p) {
        true => digests.next().expect("one digest per pair"),
        false => children[2 * p],
    })
}

/// `range` split at [`PAGE_LEN`] boundaries: the unit of one batched
/// level pass.
fn page_ranges(Range { start, end }: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    (start / PAGE_LEN..end.div_ceil(PAGE_LEN))
        .map(move |page| (page * PAGE_LEN).max(start)..((page + 1) * PAGE_LEN).min(end))
}

impl CommitTree {
    /// Builds the tree from pre-hashed leaves (same cost and result as
    /// [`MerkleTree::from_leaves`](crate::MerkleTree::from_leaves)), filling
    /// each level's pages directly.
    pub fn from_leaves(leaves: impl IntoIterator<Item = Hash32>) -> Self {
        let mut levels = vec![leaves.into_iter().collect::<PagedVec<_>>()];
        while let Some(children) = levels.last().filter(|l| l.len() > 1) {
            let next = page_ranges(0..children.len().div_ceil(2))
                .flat_map(|page| parent_nodes(children, page))
                .collect();
            levels.push(next);
        }
        CommitTree { levels }
    }

    /// The Merkle root ([`Hash32::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash32 {
        self.levels
            .last()
            .and_then(|l| l.get(0))
            .copied()
            .unwrap_or(Hash32::ZERO)
    }

    /// The number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, PagedVec::len)
    }

    /// Returns `true` when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf hash at `index`, if in bounds.
    pub fn leaf(&self, index: usize) -> Option<Hash32> {
        self.levels.first().and_then(|l| l.get(index)).copied()
    }

    /// Replaces the leaf at `index`, repairing the path to the root:
    /// O(log n) hashes.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn update(&mut self, index: usize, leaf: Hash32) {
        self.update_batch(&[(index, leaf)]);
    }

    /// Applies a batch of leaf replacements, then repairs all affected paths
    /// level by level with shared ancestors hashed once: O(Δ · log n)
    /// hashes for Δ distinct dirty leaves, less when their paths merge.
    ///
    /// Later entries for the same index win, matching sequential
    /// [`CommitTree::update`] calls.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of bounds.
    pub fn update_batch(&mut self, updates: &[(usize, Hash32)]) {
        if updates.is_empty() {
            return;
        }
        let len = self.len();
        let mut dirty: Vec<usize> = Vec::with_capacity(updates.len());
        for &(index, leaf) in updates {
            assert!(index < len, "leaf index {index} out of bounds");
            self.levels[0][index] = leaf;
            dirty.push(index);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for level in 0..self.levels.len() - 1 {
            // Parents of the dirty nodes; consecutive duplicates collapse
            // because `dirty` stays sorted.
            let mut parents = Vec::with_capacity(dirty.len());
            for &i in &dirty {
                let p = i / 2;
                if parents.last() != Some(&p) {
                    parents.push(p);
                }
            }
            // A page's worth of parents per batch call, wherever they sit:
            // sparse dirt spread over many pages still fills lane groups.
            let (lower, upper) = self.levels.split_at_mut(level + 1);
            for chunk in parents.chunks(PAGE_LEN) {
                let nodes = parent_nodes(&lower[level], chunk.iter().copied());
                for (&p, node) in chunk.iter().zip(nodes) {
                    upper[0][p] = node;
                }
            }
            dirty = parents;
        }
    }

    /// Inserts a leaf before position `index` (`index == len` appends),
    /// shifting later leaves right. Hashes only the suffix whose positions
    /// changed: O(log n) for appends, O((n − index) + log n) in general.
    ///
    /// # Panics
    ///
    /// Panics when `index > len`.
    pub fn insert(&mut self, index: usize, leaf: Hash32) {
        assert!(index <= self.len(), "insert index {index} out of bounds");
        self.levels[0].insert(index, leaf);
        self.rebuild_from(index);
    }

    /// Removes the leaf at `index`, shifting later leaves left. Cost profile
    /// as [`CommitTree::insert`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn remove(&mut self, index: usize) {
        assert!(index < self.len(), "remove index {index} out of bounds");
        self.levels[0].remove(index);
        self.rebuild_from(index);
    }

    /// Repairs every level above the leaves after a splice at leaf position
    /// `from`: all parents from `from / 2` onward are recomputed and level
    /// lengths are re-established (the tree may have grown or shrunk a
    /// level).
    fn rebuild_from(&mut self, from: usize) {
        let mut level = 0;
        let mut from = from;
        while self.levels[level].len() > 1 {
            let child_len = self.levels[level].len();
            let parent_len = child_len.div_ceil(2);
            if self.levels.len() == level + 1 {
                self.levels.push(PagedVec::new());
            }
            let start = (from / 2).min(parent_len.saturating_sub(1));
            let (lower, upper) = self.levels.split_at_mut(level + 1);
            let (children, parents) = (&lower[level], &mut upper[0]);
            parents.truncate(start);
            parents.extend(
                page_ranges(start..parent_len).flat_map(|page| parent_nodes(children, page)),
            );
            from = start;
            level += 1;
        }
        // The tree may have shrunk: drop now-meaningless upper levels.
        self.levels.truncate(level + 1);
    }

    /// The leaf level (primarily for tests and rebuild cross-checks).
    pub fn leaves(&self) -> &PagedVec<Hash32> {
        &self.levels[0]
    }

    /// `(shared, total)` full level pages of this tree that `other` stores
    /// at the same address (see [`PagedVec::shared_pages`]). Test hook for
    /// copy-on-write sharing.
    #[doc(hidden)]
    pub fn shared_pages(&self, other: &Self) -> (usize, usize) {
        let empty = PagedVec::new();
        self.levels
            .iter()
            .enumerate()
            .fold((0, 0), |(shared, total), (i, level)| {
                let (s, t) = level.shared_pages(other.levels.get(i).unwrap_or(&empty));
                (shared + s, total + t)
            })
    }

    /// Generates an inclusion proof for the leaf at `index` directly from
    /// the resident levels — no rebuild, O(log n) copies. The proof is
    /// byte-identical to what [`MerkleTree::prove`](crate::MerkleTree::prove)
    /// produces for the same leaf sequence, so verifiers need not know which
    /// tree flavor committed the root.
    ///
    /// Returns `None` when `index` is out of bounds.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        prove_levels(&self.levels, index, |level, i| level.get(i).copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak256;
    use crate::MerkleTree;

    fn leaves(n: usize) -> Vec<Hash32> {
        (0..n)
            .map(|i| keccak256(&(i as u64).to_be_bytes()))
            .collect()
    }

    fn assert_matches_rebuild(tree: &CommitTree) {
        let want = MerkleTree::from_leaves(tree.leaves().to_vec()).root();
        assert_eq!(tree.root(), want, "incremental root diverged from rebuild");
    }

    #[test]
    fn from_leaves_matches_merkle_tree_all_sizes() {
        for n in 0..=17 {
            let l = leaves(n);
            assert_eq!(
                CommitTree::from_leaves(l.clone()).root(),
                MerkleTree::from_leaves(l).root(),
                "n={n}"
            );
        }
    }

    #[test]
    fn update_repairs_path_for_all_positions() {
        for n in 1..=17 {
            let mut tree = CommitTree::from_leaves(leaves(n));
            for i in 0..n {
                tree.update(i, keccak256(format!("upd-{n}-{i}").as_bytes()));
                assert_matches_rebuild(&tree);
            }
        }
    }

    #[test]
    fn insert_at_every_position() {
        for n in 0..=12 {
            for at in 0..=n {
                let mut tree = CommitTree::from_leaves(leaves(n));
                tree.insert(at, keccak256(b"inserted"));
                assert_matches_rebuild(&tree);
            }
        }
    }

    #[test]
    fn remove_at_every_position() {
        for n in 1..=12 {
            for at in 0..n {
                let mut tree = CommitTree::from_leaves(leaves(n));
                tree.remove(at);
                assert_matches_rebuild(&tree);
            }
        }
    }

    #[test]
    fn remove_to_empty_restores_sentinel() {
        let mut tree = CommitTree::from_leaves(leaves(3));
        tree.remove(2);
        tree.remove(0);
        tree.remove(0);
        assert!(tree.is_empty());
        assert_eq!(tree.root(), Hash32::ZERO);
        // And the tree grows back correctly.
        tree.insert(0, keccak256(b"reborn"));
        assert_matches_rebuild(&tree);
    }

    #[test]
    fn update_batch_matches_sequential_updates() {
        let mut batched = CommitTree::from_leaves(leaves(13));
        let mut sequential = batched.clone();
        let updates: Vec<(usize, Hash32)> = [(0usize, 7u64), (12, 8), (5, 9), (6, 10), (5, 11)]
            .iter()
            .map(|&(i, tag)| (i, keccak256(&tag.to_be_bytes())))
            .collect();
        for &(i, h) in &updates {
            sequential.update(i, h);
        }
        batched.update_batch(&updates);
        assert_eq!(batched, sequential);
        assert_matches_rebuild(&batched);
    }

    #[test]
    fn multi_page_levels_match_rebuild() {
        // Three leaf pages and a two-page parent level: batched level
        // passes split at page boundaries, and a full-width batch repairs
        // more than one page of parents per level.
        let n = 2 * PAGE_LEN + 3;
        let mut tree = CommitTree::from_leaves(leaves(n));
        assert_matches_rebuild(&tree);
        let all: Vec<(usize, Hash32)> = (0..n)
            .map(|i| (i, keccak256(format!("all-{i}").as_bytes())))
            .collect();
        tree.update_batch(&all);
        assert_matches_rebuild(&tree);
        tree.insert(5, keccak256(b"spliced in"));
        assert_matches_rebuild(&tree);
        tree.remove(PAGE_LEN + 1);
        tree.remove(0);
        assert_matches_rebuild(&tree);
    }

    #[test]
    fn mixed_edit_script_stays_consistent() {
        let mut tree = CommitTree::from_leaves(leaves(4));
        for step in 0u64..64 {
            let h = keccak256(&step.to_be_bytes());
            let n = tree.len();
            match step % 4 {
                0 => tree.insert((step as usize * 7) % (n + 1), h),
                1 if n > 0 => tree.update((step as usize * 5) % n, h),
                2 if n > 0 => tree.remove((step as usize * 3) % n),
                _ => tree.insert(n, h),
            }
            assert_matches_rebuild(&tree);
        }
    }
}
