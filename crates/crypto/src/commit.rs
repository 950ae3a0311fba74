//! Incrementally-maintained Merkle commitment trees.
//!
//! [`MerkleTree`](crate::MerkleTree) is rebuilt from scratch on every call —
//! fine for fraud-proof generation, ruinous for the state-root hot path,
//! which recommits the whole world after every window evaluation. A
//! [`CommitTree`] keeps the upper part of the same tree resident and
//! repairs it after edits.
//!
//! The owner fixes a **derive depth** `d` at construction, and the tree
//! stores only levels `d` and up. A node below level `d` is never stored:
//! an operation that needs one re-derives the **group** of 2^d leaves under
//! its level-`d` ancestor from a *leaf source* the owner passes in, a
//! function from leaf position to leaf preimage (a leaf is the keccak of
//! its preimage). `d = 0` stores every leaf; `d = 2` stores about half as
//! many nodes as there are leaves, a quarter of the full tree, and pays
//! three neighbour leaves and one level-1 sibling per isolated dirty leaf.
//!
//! - [`CommitTree::update`] re-derives the groups of Δ dirty leaves and
//!   repairs their paths level by level, shared ancestors hashed once:
//!   O(Δ · (2^d + log n)) hashes;
//! - [`CommitTree::splice`] re-derives everything from the lowest changed
//!   leaf on after any number of insertions and removals, in one suffix
//!   pass; at `d = 0`, [`CommitTree::insert`] / [`CommitTree::remove`]
//!   instead shift one stored leaf in or out, so only a new leaf is hashed;
//! - [`CommitTree::prove`] derives a proof's bottom `d` siblings from the
//!   leaf's group and reads the rest from the stored levels.
//!
//! Every pass hashes through [`keccak256_batch`](crate::keccak256_batch):
//! the leaves of all groups an operation derives go through one call, and
//! so does each derived level above them; stored levels are repaired at
//! most one page of parents per call. Bulk passes (the build, a splice)
//! stream one page of leaves at a time, so no pass holds more than a page
//! of transient digests.
//!
//! The stored levels are [`PagedVec`]s, so a clone of a resident tree
//! copies page pointers, and repairing a clone's dirty paths copies only
//! the pages on those paths; the rest stay shared with the tree it was
//! cloned from.
//!
//! The root is **bit-identical** to
//! `MerkleTree::from_leaves(leaves).root()` for the same leaf sequence at
//! every point, and proofs are byte-identical to `MerkleTree::prove`, at
//! every derive depth — the equivalence proptests in `tests/prop.rs`
//! replay random edit scripts against a from-scratch rebuild to pin that
//! down. The fraud proof game and every existing on-chain commitment are
//! therefore unchanged by callers switching to the incremental tree.

use crate::keccak::{keccak256, keccak256_batch};
use crate::merkle::{prove_path, MerkleProof};
use parole_primitives::{Hash32, PagedVec, PAGE_LEN};
use std::ops::Range;

/// A binary Merkle tree over keccak-hashed leaves that stores its levels
/// from a fixed derive depth up and supports in-place edits.
///
/// Structure (levels, unpaired-node promotion, empty-tree sentinel root) is
/// identical to [`MerkleTree`](crate::MerkleTree); only the maintenance
/// strategy and the storage differ: each stored level is a copy-on-write
/// [`PagedVec`], so `clone` is O(pages) pointer copies and an edit on the
/// clone copies one page per stored level on the edited path. Every method
/// that may need a derived node takes the leaf source, `leaf(i)` returning
/// the preimage of leaf `i` as the tree stands after the edit.
///
/// # Example
///
/// ```
/// use parole_crypto::{keccak256, CommitTree, MerkleTree};
/// let mut tags: Vec<u64> = (0..5).collect();
/// let leaf = |tags: &[u64], i: usize| tags[i].to_be_bytes();
/// let hashed = |tags: &[u64]| tags.iter().map(|t| keccak256(&t.to_be_bytes())).collect();
///
/// // Store levels 2 and up; leaves and level 1 are derived from `tags`.
/// let mut tree = CommitTree::from_preimages(2, tags.iter().map(|t| t.to_be_bytes()));
/// assert_eq!(tree.root(), MerkleTree::from_leaves(hashed(&tags)).root());
///
/// tags[2] = 99;
/// tree.update(&[2], |i| leaf(&tags, i));
/// assert_eq!(tree.root(), MerkleTree::from_leaves(hashed(&tags)).root());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitTree {
    /// The derive depth: levels below it are derived, never stored.
    depth: u32,
    /// The number of leaves.
    len: usize,
    /// `levels[k]` is tree level `depth + k`; the last level holds the
    /// single root. There is always at least one level (empty for an
    /// empty tree).
    levels: Vec<PagedVec<Hash32>>,
}

/// Two sibling nodes as the 64-byte preimage of their parent.
fn pair(left: &Hash32, right: &Hash32) -> [u8; 64] {
    let mut preimage = [0u8; 64];
    preimage[..32].copy_from_slice(left.as_bytes());
    preimage[32..].copy_from_slice(right.as_bytes());
    preimage
}

/// The nodes at positions `parents` (ascending) of the level above
/// `children`: pairs hashed through one [`keccak256_batch`] call, an
/// unpaired last child promoted unchanged.
fn parent_nodes<'a>(
    children: &'a PagedVec<Hash32>,
    parents: impl Iterator<Item = usize> + Clone + 'a,
) -> impl Iterator<Item = Hash32> + 'a {
    let paired = |p: &usize| 2 * p + 1 < children.len();
    let mut digests = keccak256_batch(
        parents
            .clone()
            .filter(paired)
            .map(|p| pair(&children[2 * p], &children[2 * p + 1])),
    )
    .into_iter();
    parents.map(move |p| match paired(&p) {
        true => digests.next().expect("one digest per pair"),
        false => children[2 * p],
    })
}

/// The level above a run of nodes that starts at an even position:
/// consecutive pairs hashed through one [`keccak256_batch`] call, an
/// unpaired last node promoted unchanged.
fn pair_up(nodes: &[Hash32]) -> Vec<Hash32> {
    let mut parents = keccak256_batch(nodes.chunks_exact(2).map(|p| pair(&p[0], &p[1])));
    if nodes.len() % 2 == 1 {
        parents.push(nodes[nodes.len() - 1]);
    }
    parents
}

/// The nodes `levels` levels above a run of nodes that starts at a group
/// boundary (see [`CommitTree::derive`]), one batch call per level.
fn reduce(mut nodes: Vec<Hash32>, levels: u32) -> Vec<Hash32> {
    for _ in 0..levels {
        nodes = pair_up(&nodes);
    }
    nodes
}

/// `range` split at [`PAGE_LEN`] boundaries: the unit of one batched
/// level pass.
fn page_ranges(Range { start, end }: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    (start / PAGE_LEN..end.div_ceil(PAGE_LEN))
        .map(move |page| (page * PAGE_LEN).max(start)..((page + 1) * PAGE_LEN).min(end))
}

impl CommitTree {
    /// Builds the tree that stores levels `depth` and up over the leaves
    /// `keccak256(p)` of `preimages`, in order: the root
    /// [`MerkleTree::from_leaves`](crate::MerkleTree::from_leaves) computes
    /// over those digests. The leaves stream through one page at a time: a
    /// page is hashed in one batch call and reduced through the derived
    /// levels before its level-`depth` nodes are stored, so no leaf page is
    /// ever held.
    ///
    /// # Panics
    ///
    /// Panics when a group of 2^`depth` leaves would not fit a page
    /// (`depth > 10`): bulk passes stream whole groups a page at a time.
    pub fn from_preimages<P: AsRef<[u8]>>(
        depth: u32,
        preimages: impl IntoIterator<Item = P>,
    ) -> Self {
        assert!(
            1usize.checked_shl(depth).is_some_and(|g| g <= PAGE_LEN),
            "derive depth {depth} exceeds a page of leaves"
        );
        let mut tree = CommitTree {
            depth,
            len: 0,
            levels: vec![PagedVec::new()],
        };
        let mut preimages = preimages.into_iter();
        loop {
            let leaves = keccak256_batch(preimages.by_ref().take(PAGE_LEN));
            if leaves.is_empty() {
                break;
            }
            tree.len += leaves.len();
            tree.levels[0].extend(reduce(leaves, depth));
        }
        tree.rebuild_from(0);
        tree
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
        self.len
    }

    /// Returns `true` when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf positions under the level-`depth` node `group`.
    fn group(&self, group: usize) -> Range<usize> {
        group << self.depth..((group + 1) << self.depth).min(self.len)
    }

    /// The level-`depth` nodes over `groups` (ascending, distinct): every
    /// leaf under them is hashed through one batch call, then each derived
    /// level through one more. A group holds 2^`depth` leaves except the
    /// tree's last, which may hold fewer and so comes last; every group's
    /// run of nodes therefore stays pair-aligned, and one pass per level
    /// serves all groups.
    fn derive<P: AsRef<[u8]>>(
        &self,
        groups: impl IntoIterator<Item = usize>,
        leaf: impl Fn(usize) -> P,
    ) -> Vec<Hash32> {
        let leaves = keccak256_batch(groups.into_iter().flat_map(|g| self.group(g)).map(leaf));
        reduce(leaves, self.depth)
    }

    /// Re-derives the stored nodes over the leaves at positions `dirty`
    /// (any order, repeats allowed) from `leaf`, then repairs all affected
    /// paths level by level with shared ancestors hashed once. Returns the
    /// number of leaves hashed: every leaf of every dirty leaf's group.
    ///
    /// # Panics
    ///
    /// Panics when any position is out of bounds.
    pub fn update<P: AsRef<[u8]>>(&mut self, dirty: &[usize], leaf: impl Fn(usize) -> P) -> usize {
        let mut groups: Vec<usize> = dirty
            .iter()
            .map(|&i| {
                assert!(
                    i < self.len,
                    "leaf index {i} out of bounds (len {})",
                    self.len
                );
                i >> self.depth
            })
            .collect();
        groups.sort_unstable();
        groups.dedup();
        if groups.is_empty() {
            return 0;
        }
        let hashed = groups.iter().map(|&g| self.group(g).len()).sum();
        let nodes = self.derive(groups.iter().copied(), leaf);
        for (&g, node) in groups.iter().zip(nodes) {
            self.levels[0][g] = node;
        }
        self.repair_above(groups);
        hashed
    }

    /// Recomputes every stored ancestor of the level-`depth` nodes `dirty`
    /// (ascending, distinct), level by level, shared ancestors hashed once.
    fn repair_above(&mut self, mut dirty: Vec<usize>) {
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

    /// Re-derives the tree after insertions and removals that left it
    /// with `len` leaves and every leaf before position `from` in place:
    /// the stored nodes from `from`'s group on are derived again from
    /// `leaf`, one page of leaves per batch, and the stored levels above
    /// are rebuilt from there. One suffix pass, however many leaves moved.
    /// Returns the number of leaves hashed.
    ///
    /// # Panics
    ///
    /// Panics when `from` exceeds the old or the new length.
    pub fn splice<P: AsRef<[u8]>>(
        &mut self,
        from: usize,
        len: usize,
        leaf: impl Fn(usize) -> P,
    ) -> usize {
        assert!(
            from <= self.len.min(len),
            "splice start {from} past the old ({}) or new ({len}) length",
            self.len
        );
        let start = from >> self.depth;
        let groups = len.div_ceil(1 << self.depth);
        self.len = len;
        self.levels[0].truncate(start);
        let per_page = PAGE_LEN >> self.depth;
        for first in (start..groups).step_by(per_page) {
            let nodes = self.derive(first..(first + per_page).min(groups), &leaf);
            self.levels[0].extend(nodes);
        }
        self.rebuild_from(start);
        len - (start << self.depth)
    }

    /// Inserts the leaf `keccak256(preimage)` before position `index`
    /// (`index == len` appends), shifting later leaves right: the stored
    /// leaves shift, only the new one is hashed, and the stored suffix
    /// above is rebuilt — O(log n) for appends, O((n − index) + log n) in
    /// general. A tree that derives its leaves takes a
    /// [`CommitTree::splice`] instead.
    ///
    /// # Panics
    ///
    /// Panics when the derive depth is not 0, or when `index > len`.
    pub fn insert(&mut self, index: usize, preimage: impl AsRef<[u8]>) {
        self.assert_stores_leaves();
        assert!(index <= self.len, "insert index {index} out of bounds");
        self.levels[0].insert(index, keccak256(preimage.as_ref()));
        self.len += 1;
        self.rebuild_from(index);
    }

    /// Removes the leaf at `index`, shifting later leaves left; cost
    /// profile as [`CommitTree::insert`], with no leaf hashed.
    ///
    /// # Panics
    ///
    /// Panics when the derive depth is not 0, or when `index` is out of
    /// bounds.
    pub fn remove(&mut self, index: usize) {
        self.assert_stores_leaves();
        assert!(index < self.len, "remove index {index} out of bounds");
        self.levels[0].remove(index);
        self.len -= 1;
        self.rebuild_from(index);
    }

    /// Shifting one leaf in or out of the stored levels is sound only when
    /// they start at the leaves.
    fn assert_stores_leaves(&self) {
        assert_eq!(
            self.depth, 0,
            "insert and remove shift stored leaves: a tree of derive depth {} splices",
            self.depth
        );
    }

    /// Repairs every stored level above the lowest after its nodes from
    /// position `from` on changed: all parents from `from / 2` onward are
    /// recomputed and level lengths are re-established (the tree may have
    /// grown or shrunk a level).
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

    /// `(shared, total)` full stored-level pages of this tree that `other`
    /// stores at the same address (see [`PagedVec::shared_pages`]). Test
    /// hook for copy-on-write sharing.
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

    /// The number of nodes the tree stores. Test hook for the resident
    /// footprint a derive depth buys.
    #[doc(hidden)]
    pub fn resident_nodes(&self) -> usize {
        self.levels.iter().map(PagedVec::len).sum()
    }

    /// Test-only sabotage: overwrites the stored level-`depth` node
    /// `group` (the leaf itself at depth 0) and repairs its ancestors
    /// without consulting any leaf, emulating a stored node that missed an
    /// update. The next operation that derives the group again heals it.
    /// Never call outside tests.
    ///
    /// # Panics
    ///
    /// Panics when `group` is out of bounds.
    #[doc(hidden)]
    pub fn tamper_node_for_tests(&mut self, group: usize, node: Hash32) {
        self.levels[0][group] = node;
        self.repair_above(vec![group]);
    }

    /// Generates an inclusion proof for the leaf at `index`: the bottom
    /// `depth` siblings come from the leaf's group, derived from `leaf`
    /// (2^depth leaf digests and the levels above them), the rest from the
    /// stored levels. The proof is byte-identical to what
    /// [`MerkleTree::prove`](crate::MerkleTree::prove) produces for the
    /// same leaf sequence, so verifiers need not know which tree flavor
    /// committed the root.
    ///
    /// Returns `None` when `index` is out of bounds.
    pub fn prove<P: AsRef<[u8]>>(
        &self,
        index: usize,
        leaf: impl Fn(usize) -> P,
    ) -> Option<MerkleProof> {
        if index >= self.len {
            return None;
        }
        let depth = self.depth as usize;
        let group = index >> depth;
        // The group's derived levels, bottom up; level `k` starts at
        // position `group << (depth - k)`.
        let mut derived: Vec<Vec<Hash32>> = Vec::with_capacity(depth);
        if depth > 0 {
            derived.push(keccak256_batch(self.group(group).map(leaf)));
        }
        while let Some(below) = derived.last().filter(|_| derived.len() < depth) {
            let next = pair_up(below);
            derived.push(next);
        }
        Some(prove_path(
            index,
            depth + self.levels.len() - 1,
            |level, i| match level.checked_sub(depth) {
                None => derived[level].get(i - (group << (depth - level))).copied(),
                Some(stored) => self.levels[stored].get(i).copied(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MerkleTree;

    /// Leaf preimages: each leaf is `keccak(tag)`.
    fn tags(n: usize) -> Vec<u64> {
        (0..n as u64).collect()
    }

    fn preimage(tags: &[u64], i: usize) -> [u8; 8] {
        tags[i].to_be_bytes()
    }

    fn built(depth: u32, tags: &[u64]) -> CommitTree {
        CommitTree::from_preimages(depth, tags.iter().map(|t| t.to_be_bytes()))
    }

    fn rebuild(tags: &[u64]) -> MerkleTree {
        MerkleTree::from_leaves(tags.iter().map(|t| keccak256(&t.to_be_bytes())).collect())
    }

    /// Inserts `tag` before `at`, in `t` and in `tree`: in place at depth
    /// 0, by a splice from `at` at any other depth.
    fn insert(tree: &mut CommitTree, t: &mut Vec<u64>, at: usize, tag: u64) {
        t.insert(at, tag);
        if tree.depth == 0 {
            tree.insert(at, tag.to_be_bytes());
        } else {
            tree.splice(at, t.len(), |j| preimage(t, j));
        }
    }

    /// Removes the leaf at `at`, from `t` and from `tree`, as [`insert`].
    fn remove(tree: &mut CommitTree, t: &mut Vec<u64>, at: usize) {
        t.remove(at);
        if tree.depth == 0 {
            tree.remove(at);
        } else {
            tree.splice(at, t.len(), |j| preimage(t, j));
        }
    }

    fn assert_matches_rebuild(tree: &CommitTree, tags: &[u64]) {
        assert_eq!(tree.len(), tags.len());
        assert_eq!(
            tree.root(),
            rebuild(tags).root(),
            "incremental root diverged from rebuild (depth {}, {} leaves)",
            tree.depth,
            tags.len()
        );
    }

    #[test]
    fn from_leaves_matches_merkle_tree_all_sizes() {
        for depth in 0..=3 {
            for n in 0..=17 {
                assert_matches_rebuild(&built(depth, &tags(n)), &tags(n));
            }
        }
    }

    #[test]
    fn update_repairs_path_for_all_positions() {
        for depth in 0..=3 {
            for n in 1..=17 {
                let mut t = tags(n);
                let mut tree = built(depth, &t);
                for i in 0..n {
                    t[i] = 1_000 + i as u64;
                    let hashed = tree.update(&[i], |j| preimage(&t, j));
                    assert_eq!(hashed, tree.group(i >> depth).len());
                    assert_matches_rebuild(&tree, &t);
                }
            }
        }
    }

    #[test]
    fn insert_at_every_position() {
        for depth in 0..=3 {
            for n in 0..=12 {
                for at in 0..=n {
                    let mut t = tags(n);
                    let mut tree = built(depth, &t);
                    insert(&mut tree, &mut t, at, 777);
                    assert_matches_rebuild(&tree, &t);
                }
            }
        }
    }

    #[test]
    fn remove_at_every_position() {
        for depth in 0..=3 {
            for n in 1..=12 {
                for at in 0..n {
                    let mut t = tags(n);
                    let mut tree = built(depth, &t);
                    remove(&mut tree, &mut t, at);
                    assert_matches_rebuild(&tree, &t);
                }
            }
        }
    }

    #[test]
    fn remove_to_empty_restores_sentinel() {
        for depth in 0..=3 {
            let mut t = tags(3);
            let mut tree = built(depth, &t);
            for at in [2, 0, 0] {
                remove(&mut tree, &mut t, at);
            }
            assert!(tree.is_empty());
            assert_eq!(tree.root(), Hash32::ZERO);
            assert_eq!(tree.prove(0, |j| preimage(&t, j)), None);
            // And the tree grows back correctly.
            insert(&mut tree, &mut t, 0, 42);
            assert_matches_rebuild(&tree, &t);
        }
    }

    #[test]
    fn update_batch_matches_sequential_updates() {
        for depth in 0..=3 {
            let mut t = tags(13);
            let mut batched = built(depth, &t);
            let mut sequential = batched.clone();
            let updates = [(0usize, 7u64), (12, 8), (5, 9), (6, 10), (5, 11)];
            for (i, tag) in updates {
                t[i] = tag;
                sequential.update(&[i], |j| preimage(&t, j));
            }
            let dirty: Vec<usize> = updates.iter().map(|&(i, _)| i).collect();
            let hashed = batched.update(&dirty, |j| preimage(&t, j));
            assert_eq!(batched, sequential);
            assert_matches_rebuild(&batched, &t);
            // Each dirty group is hashed once: at depth 2, groups 0 and 1
            // and the one-leaf tail group 3.
            if depth == 2 {
                assert_eq!(hashed, 9);
            }
        }
    }

    #[test]
    fn multi_position_splice_matches_rebuild() {
        // Inserts and removals at scattered positions, re-derived in one
        // suffix pass from the lowest changed leaf.
        for depth in 0..=3 {
            for n in [0usize, 1, 5, 16, 33, 100] {
                let mut t = tags(n);
                let mut tree = built(depth, &t);
                let from = n / 3;
                t.insert(from, 500);
                if n > 4 {
                    t.remove(n / 2 + 1);
                    t.insert(n - 1, 501);
                    t.remove(n - 3);
                }
                t.push(502);
                let hashed = tree.splice(from, t.len(), |j| preimage(&t, j));
                assert_eq!(hashed, t.len() - (from >> depth << depth));
                assert_matches_rebuild(&tree, &t);
            }
        }
    }

    #[test]
    fn multi_page_levels_match_rebuild() {
        // Three leaf pages: derived groups stream a page at a time, a full-
        // width update repairs more than one page of parents per level, and
        // splices cross page boundaries.
        for depth in [0, 2] {
            let n = 2 * PAGE_LEN + 3;
            let mut t = tags(n);
            let mut tree = built(depth, &t);
            assert_matches_rebuild(&tree, &t);
            let all: Vec<usize> = (0..n).collect();
            t.iter_mut().for_each(|tag| *tag += 10_000);
            tree.update(&all, |j| preimage(&t, j));
            assert_matches_rebuild(&tree, &t);
            insert(&mut tree, &mut t, 5, 1);
            assert_matches_rebuild(&tree, &t);
            remove(&mut tree, &mut t, PAGE_LEN + 1);
            remove(&mut tree, &mut t, 0);
            assert_matches_rebuild(&tree, &t);
        }
    }

    #[test]
    #[should_panic(expected = "a tree of derive depth 2 splices")]
    fn insert_into_a_derived_tree_panics() {
        built(2, &tags(5)).insert(1, 7u64.to_be_bytes());
    }

    #[test]
    #[should_panic(expected = "a tree of derive depth 1 splices")]
    fn remove_from_a_derived_tree_panics() {
        built(1, &tags(5)).remove(1);
    }

    #[test]
    fn depth_two_stores_a_quarter_of_the_nodes() {
        let n = 4 * PAGE_LEN + 1;
        let full = built(0, &tags(n)).resident_nodes();
        let derived = built(2, &tags(n)).resident_nodes();
        // Every level, each rounded up: about 2n at depth 0, n/2 at depth 2.
        assert!(full >= 2 * n - 1, "{full} nodes at depth 0");
        assert!(derived <= n / 2 + 16, "{derived} nodes at depth 2");
    }

    #[test]
    fn proofs_derive_their_bottom_siblings() {
        for depth in 0..=3 {
            for n in 1..=17 {
                let t = tags(n);
                let tree = built(depth, &t);
                let reference = rebuild(&t);
                for i in 0..n {
                    let proof = tree.prove(i, |j| preimage(&t, j)).unwrap();
                    assert_eq!(
                        proof,
                        reference.prove(i).unwrap(),
                        "depth {depth} n {n} i {i}"
                    );
                }
                assert_eq!(tree.prove(n, |j| preimage(&t, j)), None);
            }
        }
    }

    #[test]
    fn tampered_node_stays_until_its_group_is_derived_again() {
        let mut t = tags(20);
        let mut tree = built(2, &t);
        tree.tamper_node_for_tests(0, keccak256(b"stale"));
        assert_ne!(tree.root(), rebuild(&t).root());
        // A leaf in another group re-derives only that group.
        t[9] = 900;
        tree.update(&[9], |j| preimage(&t, j));
        assert_ne!(tree.root(), rebuild(&t).root());
        // Any leaf of the tampered group heals it.
        tree.update(&[3], |j| preimage(&t, j));
        assert_matches_rebuild(&tree, &t);
    }

    #[test]
    fn mixed_edit_script_stays_consistent() {
        for depth in 0..=3 {
            let mut t = tags(4);
            let mut tree = built(depth, &t);
            for step in 0u64..64 {
                let n = t.len();
                let tag = 10_000 + step;
                match step % 4 {
                    0 => insert(&mut tree, &mut t, (step as usize * 7) % (n + 1), tag),
                    1 if n > 0 => {
                        let at = (step as usize * 5) % n;
                        t[at] = tag;
                        tree.update(&[at], |j| preimage(&t, j));
                    }
                    2 if n > 0 => remove(&mut tree, &mut t, (step as usize * 3) % n),
                    _ => insert(&mut tree, &mut t, n, tag),
                }
                assert_matches_rebuild(&tree, &t);
            }
        }
    }
}
