//! Binary Merkle trees with inclusion proofs.
//!
//! The rollup uses Merkle roots in two places (paper §II-A, §V-A):
//!
//! 1. the **L2 state root** — a commitment to every account balance and NFT
//!    ownership record after a batch executes, and
//! 2. the **fraud proof** — the aggregate the aggregator submits alongside a
//!    batch, which verifiers re-derive to detect invalid execution.
//!
//! Trees are built over pre-hashed 32-byte leaves. An odd level is handled by
//! promoting the unpaired node unchanged (Bitcoin-style duplication would let
//! an attacker forge two different leaf sets with the same root).

use crate::keccak::keccak256_concat;
use parole_primitives::Hash32;
use serde::{Deserialize, Serialize};

/// A fully-built binary Merkle tree.
///
/// # Example
///
/// ```
/// use parole_crypto::{keccak256, MerkleTree};
/// let leaves: Vec<_> = [b"a", b"b", b"c"].iter().map(|d| keccak256(*d)).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(leaves[1], tree.root()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level holds the single root.
    levels: Vec<Vec<Hash32>>,
}

impl MerkleTree {
    /// Builds a tree from pre-hashed leaves.
    ///
    /// An empty leaf set produces the [`Hash32::ZERO`] sentinel root.
    pub fn from_leaves(leaves: Vec<Hash32>) -> Self {
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(keccak256_concat(pair[0].as_bytes(), pair[1].as_bytes()));
                } else {
                    // Unpaired node is promoted unchanged.
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root [`MerkleTree::from_leaves`] builds for `leaves`, computed in
    /// one streaming pass that keeps one pending node per level instead of
    /// the tree: O(log n) memory for n leaves, the same scalar hashing.
    pub fn root_of(leaves: impl IntoIterator<Item = Hash32>) -> Hash32 {
        // `pending[l]`: the last node finished at level `l`, while it still
        // waits for its right sibling.
        let mut pending: Vec<Option<Hash32>> = Vec::new();
        for mut node in leaves {
            let mut level = 0;
            while let Some(left) = pending.get_mut(level).and_then(Option::take) {
                node = keccak256_concat(left.as_bytes(), node.as_bytes());
                level += 1;
            }
            match pending.get_mut(level) {
                Some(slot) => *slot = Some(node),
                None => pending.push(Some(node)),
            }
        }
        // Close the right edge bottom-up. `carry` is the last node of the
        // current level: it pairs with a pending left sibling, and an
        // unpaired node is promoted unchanged.
        let mut carry: Option<Hash32> = None;
        for node in pending {
            carry = match (node, carry) {
                (Some(left), Some(right)) => {
                    Some(keccak256_concat(left.as_bytes(), right.as_bytes()))
                }
                (left, right) => left.or(right),
            };
        }
        carry.unwrap_or(Hash32::ZERO)
    }

    /// The Merkle root ([`Hash32::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash32 {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash32::ZERO)
    }

    /// The number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Returns `true` when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generates an inclusion proof for the leaf at `index`.
    ///
    /// Returns `None` when `index` is out of bounds.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        self.levels.first()?.get(index)?;
        Some(prove_path(index, self.levels.len() - 1, |level, i| {
            self.levels[level].get(i).copied()
        }))
    }
}

/// Builds the sibling path for the leaf at `index` through the `depth`
/// levels below the root, reading each node through `node(level, i)`
/// (`None` past the level's end; level 0 is the leaf level). Shared by
/// [`MerkleTree::prove`] and [`CommitTree::prove`](crate::CommitTree::prove):
/// both have the identical level structure, whether a level is stored or
/// derived, so one walk serves both.
pub(crate) fn prove_path(
    index: usize,
    depth: usize,
    node: impl Fn(usize, usize) -> Option<Hash32>,
) -> MerkleProof {
    let mut path = Vec::new();
    let mut idx = index;
    for level in 0..depth {
        let sibling = idx ^ 1;
        if let Some(hash) = node(level, sibling) {
            path.push(ProofNode {
                hash,
                is_left: sibling < idx,
            });
        }
        idx /= 2;
    }
    MerkleProof { index, path }
}

/// One step of a Merkle inclusion proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct ProofNode {
    hash: Hash32,
    /// Whether the sibling sits to the left of the running hash.
    is_left: bool,
}

/// An inclusion proof binding a leaf to a [`MerkleTree`] root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    index: usize,
    path: Vec<ProofNode>,
}

impl MerkleProof {
    /// The leaf index this proof speaks for.
    pub fn leaf_index(&self) -> usize {
        self.index
    }

    /// The proof depth (number of sibling hashes).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Folds `leaf` up the sibling path and returns the root it binds to —
    /// the stateless half of [`MerkleProof::verify`], exposed so multi-level
    /// proofs can feed a recomputed sub-tree root into an enclosing leaf
    /// preimage (the token-inclusion proofs in `parole-state` do exactly
    /// that).
    pub fn compute_root(&self, leaf: Hash32) -> Hash32 {
        let mut acc = leaf;
        for node in &self.path {
            acc = if node.is_left {
                keccak256_concat(node.hash.as_bytes(), acc.as_bytes())
            } else {
                keccak256_concat(acc.as_bytes(), node.hash.as_bytes())
            };
        }
        acc
    }

    /// Recomputes the root from `leaf` and checks it against `root`.
    pub fn verify(&self, leaf: Hash32, root: Hash32) -> bool {
        self.compute_root(leaf) == root
    }

    /// Test-only sabotage: flips bit `bit % 256` of the sibling hash at path
    /// position `node % depth`. Returns `false` for a depth-0 proof (a
    /// single-leaf tree has no path to tamper). Never call outside tests.
    #[doc(hidden)]
    pub fn tamper_path_bit_for_tests(&mut self, node: usize, bit: usize) -> bool {
        if self.path.is_empty() {
            return false;
        }
        let node = node % self.path.len();
        let mut bytes = *self.path[node].hash.as_bytes();
        bytes[(bit % 256) / 8] ^= 1 << (bit % 8);
        self.path[node].hash = Hash32::from_bytes(bytes);
        true
    }

    /// Test-only sabotage: flips the left/right orientation of the sibling
    /// at path position `node % depth`. Returns `false` for a depth-0
    /// proof. Never call outside tests.
    #[doc(hidden)]
    pub fn tamper_direction_for_tests(&mut self, node: usize) -> bool {
        if self.path.is_empty() {
            return false;
        }
        let node = node % self.path.len();
        self.path[node].is_left = !self.path[node].is_left;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak256;

    fn leaves(n: usize) -> Vec<Hash32> {
        (0..n)
            .map(|i| keccak256(&(i as u64).to_be_bytes()))
            .collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = MerkleTree::from_leaves(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.root(), Hash32::ZERO);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_the_leaf() {
        let l = leaves(1);
        let tree = MerkleTree::from_leaves(l.clone());
        assert_eq!(tree.root(), l[0]);
        let proof = tree.prove(0).unwrap();
        assert_eq!(proof.depth(), 0);
        assert!(proof.verify(l[0], tree.root()));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 2..=17 {
            let l = leaves(n);
            let tree = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(*leaf, tree.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(l[4], tree.root()));
        assert!(!proof.verify(keccak256(b"forged"), tree.root()));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(l[3], keccak256(b"other root")));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(9);
        let base = MerkleTree::from_leaves(l.clone()).root();
        for i in 0..l.len() {
            let mut tampered = l.clone();
            tampered[i] = keccak256(b"tamper");
            assert_ne!(MerkleTree::from_leaves(tampered).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn odd_promotion_is_not_duplication() {
        // With unpaired-promotion, [a, b, b] must differ from [a, b]
        // even though duplication-style trees would conflate them... the
        // roots differ because level sizes differ.
        let two = MerkleTree::from_leaves(leaves(2)).root();
        let mut three = leaves(2);
        three.push(leaves(2)[1]);
        assert_ne!(MerkleTree::from_leaves(three).root(), two);
    }
}
