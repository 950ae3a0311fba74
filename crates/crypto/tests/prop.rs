//! Property-based tests for the cryptographic substrate.

use parole_crypto::secp256k1::{self, SecretKey};
use parole_crypto::{keccak256, CommitTree, MerkleTree, U256};
use proptest::prelude::*;

/// One step of a random [`CommitTree`] edit script, applied alike to the
/// tree and to the test's own leaf vector.
#[derive(Debug, Clone)]
enum TreeEdit {
    Insert {
        at: u64,
        tag: u64,
    },
    Update {
        at: u64,
        tag: u64,
    },
    Remove {
        at: u64,
    },
    Batch {
        edits: Vec<(u64, u64)>,
    },
    /// Insertions (`Some(tag)`) and removals (`None`) at or after `from`,
    /// re-derived in one suffix pass.
    Splice {
        from: u64,
        edits: Vec<(u64, Option<u64>)>,
    },
}

fn arb_tree_edit() -> impl Strategy<Value = TreeEdit> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(at, tag)| TreeEdit::Insert { at, tag }),
        (any::<u64>(), any::<u64>()).prop_map(|(at, tag)| TreeEdit::Update { at, tag }),
        any::<u64>().prop_map(|at| TreeEdit::Remove { at }),
        prop::collection::vec((any::<u64>(), any::<u64>()), 1..8)
            .prop_map(|edits| TreeEdit::Batch { edits }),
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<bool>(), any::<u64>()), 1..8)
        )
            .prop_map(|(from, edits)| TreeEdit::Splice {
                from,
                edits: edits
                    .into_iter()
                    .map(|(at, insert, tag)| (at, insert.then_some(tag)))
                    .collect(),
            }),
    ]
}

/// A leaf count up to about 300, with 2^k − 1, 2^k and 2^k + 1 (where the
/// right edge promotes an unpaired node at a different level, and a last
/// group of a derived tree is full, short by one or over by one) drawn on
/// purpose.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..301,
        (0u32..9, 0usize..3).prop_map(|(k, d)| ((1usize << k) + d).saturating_sub(1)),
    ]
}

/// Leaf `i`'s preimage: the tree's leaf is its keccak.
fn leaf(tags: &[u64], i: usize) -> [u8; 8] {
    tags[i].to_be_bytes()
}

/// The from-scratch reference over the same leaves.
fn reference(tags: &[u64]) -> MerkleTree {
    MerkleTree::from_leaves(tags.iter().map(|t| keccak256(&t.to_be_bytes())).collect())
}

/// The trees under test: one per derive depth 0–3, kept in lockstep
/// over one leaf vector so each edit needs one reference rebuild.
fn build_all(tags: &[u64]) -> Vec<CommitTree> {
    (0..4)
        .map(|depth| CommitTree::from_preimages(depth, tags.iter().map(|t| t.to_be_bytes())))
        .collect()
}

/// Applies `edit` to the leaf vector, then to every tree with the vector
/// as its leaf source (`trees[d]` has derive depth `d`). A single insert or
/// remove shifts a stored leaf at depth 0 and splices at every other depth.
fn apply_edit(trees: &mut [CommitTree], tags: &mut Vec<u64>, edit: &TreeEdit) {
    let n = tags.len();
    match edit {
        TreeEdit::Insert { at, tag } => {
            let at = *at as usize % (n + 1);
            tags.insert(at, *tag);
            trees[0].insert(at, tag.to_be_bytes());
            for tree in &mut trees[1..] {
                tree.splice(at, tags.len(), |i| leaf(tags, i));
            }
        }
        TreeEdit::Update { at, tag } if n > 0 => {
            let at = *at as usize % n;
            tags[at] = *tag;
            for tree in trees {
                tree.update(&[at], |i| leaf(tags, i));
            }
        }
        TreeEdit::Remove { at } if n > 0 => {
            let at = *at as usize % n;
            tags.remove(at);
            trees[0].remove(at);
            for tree in &mut trees[1..] {
                tree.splice(at, tags.len(), |i| leaf(tags, i));
            }
        }
        TreeEdit::Batch { edits } if n > 0 => {
            let dirty: Vec<usize> = edits
                .iter()
                .map(|&(at, tag)| {
                    let at = at as usize % n;
                    tags[at] = tag;
                    at
                })
                .collect();
            for tree in trees {
                tree.update(&dirty, |i| leaf(tags, i));
            }
        }
        TreeEdit::Splice { from, edits } => {
            let from = *from as usize % (n + 1);
            for &(at, tag) in edits {
                let tail = tags.len() - from;
                match tag {
                    Some(tag) => tags.insert(from + at as usize % (tail + 1), tag),
                    None if tail > 0 => {
                        tags.remove(from + at as usize % tail);
                    }
                    None => {}
                }
            }
            for tree in trees {
                tree.splice(from, tags.len(), |i| leaf(tags, i));
            }
        }
        _ => {}
    }
}

/// A preimage of a length below, at or just past the keccak rate, or
/// anywhere up to three blocks.
fn arb_preimage() -> impl Strategy<Value = Vec<u8>> {
    let len = prop_oneof![0usize..136, 135usize..138, 0usize..400];
    (len, any::<u64>()).prop_map(|(len, seed)| {
        (0..len as u64)
            .map(|i| (seed.wrapping_mul(2 * i + 1) >> 29) as u8)
            .collect()
    })
}

fn arb_u256() -> impl Strategy<Value = U256> {
    prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched keccak digests equal the per-item one-shot digests for any
    /// mix of preimage lengths: several full eight-item groups, a short
    /// tail, and groups mixing single-block preimages with ones at or past
    /// the 136-byte rate (the lane kernel and the reused scalar sponge must
    /// leak no state and keep input order).
    #[test]
    fn keccak_batch_agrees_with_one_shot(
        items in prop::collection::vec(arb_preimage(), 0..40),
    ) {
        let digests = parole_crypto::keccak256_batch(items.iter().map(Vec::as_slice));
        prop_assert_eq!(digests.len(), items.len());
        for (item, digest) in items.iter().zip(&digests) {
            prop_assert_eq!(*digest, keccak256(item));
        }
    }

    /// Keccak over split inputs equals keccak over the joined input.
    #[test]
    fn keccak_incremental_agrees(data in prop::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let joined = keccak256(&data);
        let mut h = parole_crypto::Keccak256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), joined);
    }

    /// U256 big-endian byte round-trip.
    #[test]
    fn u256_bytes_roundtrip(v in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    /// Modular addition is commutative and subtraction inverts it.
    #[test]
    fn mod_add_sub_inverse(a in arb_u256(), b in arb_u256()) {
        let n = secp256k1::group_order();
        let ar = a.rem(n);
        let br = b.rem(n);
        let sum = ar.add_mod(&br, n);
        prop_assert_eq!(sum, br.add_mod(&ar, n));
        prop_assert_eq!(sum.sub_mod(&br, n), ar);
    }

    /// Fermat inverse is a genuine inverse modulo the field prime.
    #[test]
    fn field_inverse(a in arb_u256()) {
        let p = secp256k1::field_prime();
        let ar = a.rem(p);
        prop_assume!(!ar.is_zero());
        let inv = ar.inv_mod_prime(p);
        prop_assert_eq!(ar.mul_mod(&inv, p), U256::ONE);
    }

    /// A [`CommitTree`] at every derive depth 0–3, driven by a random edit
    /// script (point and batched updates, inserts, removes, multi-position
    /// splices), always reports the same root as a from-scratch
    /// [`MerkleTree`] rebuild of the test's own leaf vector — the
    /// bit-identity contract the incremental state-root cache rests on.
    #[test]
    fn commit_tree_matches_rebuild_under_edits(
        initial in arb_len(),
        seed in any::<u64>(),
        script in prop::collection::vec(arb_tree_edit(), 1..40),
    ) {
        let mut tags: Vec<u64> = (0..initial as u64).map(|i| seed ^ i).collect();
        let mut trees = build_all(&tags);
        for edit in std::iter::once(None).chain(script.iter().map(Some)) {
            if let Some(edit) = edit {
                apply_edit(&mut trees, &mut tags, edit);
            }
            let want = reference(&tags).root();
            for (depth, tree) in trees.iter().enumerate() {
                prop_assert_eq!(tree.len(), tags.len());
                prop_assert_eq!(tree.root(), want, "depth {}", depth);
            }
        }
    }

    /// [`CommitTree::prove`] at every derive depth 0–3, with its bottom
    /// siblings derived from the leaf source, yields proofs byte-identical
    /// to [`MerkleTree::prove`] over the same leaves, for every index —
    /// even after an edit script has grown, shrunk and repaired the
    /// resident levels in place.
    #[test]
    fn commit_tree_proofs_match_merkle_proofs(
        initial in arb_len(),
        seed in any::<u64>(),
        script in prop::collection::vec(arb_tree_edit(), 1..16),
    ) {
        let mut tags: Vec<u64> = (0..initial as u64).map(|i| seed ^ i).collect();
        let mut trees = build_all(&tags);
        for edit in &script {
            apply_edit(&mut trees, &mut tags, edit);
            let rebuilt = reference(&tags);
            for tree in &trees {
                prop_assert_eq!(tree.prove(tags.len(), |i| leaf(&tags, i)), None);
                for i in 0..tags.len() {
                    let incremental = tree.prove(i, |j| leaf(&tags, j)).unwrap();
                    prop_assert_eq!(&incremental, &rebuilt.prove(i).unwrap());
                    prop_assert!(incremental.verify(keccak256(&leaf(&tags, i)), tree.root()));
                }
            }
        }
    }

    /// A single-bit tamper anywhere in a proof's sibling path — or a flipped
    /// left/right orientation — makes verification fail.
    #[test]
    fn tampered_proof_path_rejected(
        n in 2usize..40,
        depth in 0u32..4,
        at in any::<usize>(),
        node in any::<usize>(),
        bit in any::<usize>(),
    ) {
        let tags: Vec<u64> = (0..n as u64).collect();
        let tree = CommitTree::from_preimages(depth, tags.iter().map(|t| t.to_be_bytes()));
        let at = at % n;
        let honest = tree.prove(at, |i| leaf(&tags, i)).unwrap();
        let leaf_hash = keccak256(&leaf(&tags, at));
        prop_assert!(honest.verify(leaf_hash, tree.root()));

        let mut bitflipped = honest.clone();
        if bitflipped.tamper_path_bit_for_tests(node, bit) {
            prop_assert!(!bitflipped.verify(leaf_hash, tree.root()));
        }
        let mut misdirected = honest.clone();
        if misdirected.tamper_direction_for_tests(node) {
            prop_assert!(!misdirected.verify(leaf_hash, tree.root()));
        }
    }

    /// The streaming root equals the built tree's root for any leaf count
    /// up to about 300, with the counts around each power of two (where the
    /// right edge promotes an unpaired node at a different level) drawn on
    /// purpose.
    #[test]
    fn streamed_root_matches_built_tree(n in arb_len(), seed in any::<u64>()) {
        let leaves: Vec<_> = (0..n as u64)
            .map(|i| keccak256(&(seed ^ i).to_be_bytes()))
            .collect();
        prop_assert_eq!(
            MerkleTree::root_of(leaves.iter().copied()),
            MerkleTree::from_leaves(leaves).root()
        );
    }

    /// Merkle proofs verify for every leaf, and fail against a different root.
    #[test]
    fn merkle_proof_sound(n in 1usize..40, tamper in any::<u64>()) {
        let leaves: Vec<_> = (0..n).map(|i| keccak256(&(i as u64).to_be_bytes())).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(*leaf, tree.root()));
            prop_assert!(!proof.verify(keccak256(&tamper.to_be_bytes()), tree.root())
                || keccak256(&tamper.to_be_bytes()) == *leaf);
        }
    }
}

proptest! {
    // Signing is expensive; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ECDSA sign/verify round-trips and rejects a flipped digest bit.
    #[test]
    fn ecdsa_roundtrip(seed in 1u64..1_000_000, msg in prop::collection::vec(any::<u8>(), 1..64)) {
        let sk = SecretKey::from_seed(seed);
        let pk = sk.public_key();
        let digest = keccak256(&msg).into_bytes();
        let sig = sk.sign(&digest);
        prop_assert!(pk.verify(&digest, &sig));
        let mut flipped = digest;
        flipped[0] ^= 1;
        prop_assert!(!pk.verify(&flipped, &sig));
    }
}
