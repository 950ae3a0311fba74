//! Keccak-256 (the Ethereum variant, with the original `0x01` domain
//! padding rather than NIST SHA-3's `0x06`).
//!
//! Implements the Keccak-f[1600] permutation directly from the reference
//! specification. Validated in the unit tests against the canonical vectors
//! for the empty string and `"abc"` that Ethereum tooling uses.
//!
//! Two permutation bodies exist. The scalar [`keccak_f`] serves every
//! one-shot and incremental digest. The lane body `keccak_f_x8` permutes
//! eight independent states side by side; only [`keccak256_batch`] uses it,
//! through an AVX-512 instantiation chosen at run time, and only for groups
//! of eight single-block preimages. Every other CPU, multi-block item and
//! short tail of a batch goes through the scalar permutation, so the two
//! bodies check each other wherever a batched commitment is compared with
//! a one-shot rebuild.

use parole_primitives::Hash32;

/// Round constants for the ι (iota) step of Keccak-f[1600].
const ROUND_CONSTANTS: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets for the ρ (rho) step, indexed `[x][y]`.
const ROTATION: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// Rate in bytes for Keccak-256 (1600-bit state, 512-bit capacity).
const RATE: usize = 136;

/// States the lane kernel permutes side by side: one per 64-bit lane of a
/// 512-bit AVX-512 register.
const LANES: usize = 8;

/// Eight Keccak states interleaved lane by lane: `state[x + 5 * y][l]` is
/// word `(x, y)` of state `l`, so each of the 25 words is one vector.
type LaneState = [[u64; LANES]; 25];

/// Applies the 24-round Keccak-f[1600] permutation to the state in place.
#[allow(clippy::needless_range_loop)] // x/y lattice indexing mirrors the spec
fn keccak_f(state: &mut [[u64; 5]; 5]) {
    for &rc in ROUND_CONSTANTS.iter() {
        // θ (theta)
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x][y] ^= d;
            }
        }
        // ρ (rho) and π (pi)
        let mut b = [[0u64; 5]; 5];
        for x in 0..5 {
            for y in 0..5 {
                b[y][(2 * x + 3 * y) % 5] = state[x][y].rotate_left(ROTATION[x][y]);
            }
        }
        // χ (chi)
        for x in 0..5 {
            for y in 0..5 {
                state[x][y] = b[x][y] ^ ((!b[(x + 1) % 5][y]) & b[(x + 2) % 5][y]);
            }
        }
        // ι (iota)
        state[0][0] ^= rc;
    }
}

/// Keccak-f[1600] on eight lane-interleaved states at once: the same
/// rounds as [`keccak_f`], each word operation applied across the eight
/// lanes. Written as plain loops over the lanes so that an instantiation
/// compiled with a vector target feature turns each into one instruction.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // x/y lattice indexing mirrors the spec
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // only tests run it off x86-64
fn keccak_f_x8(a: &mut LaneState) {
    for &rc in ROUND_CONSTANTS.iter() {
        // θ (theta)
        let mut c = [[0u64; LANES]; 5];
        for x in 0..5 {
            for l in 0..LANES {
                c[x][l] = a[x][l] ^ a[x + 5][l] ^ a[x + 10][l] ^ a[x + 15][l] ^ a[x + 20][l];
            }
        }
        for x in 0..5 {
            for l in 0..LANES {
                let d = c[(x + 4) % 5][l] ^ c[(x + 1) % 5][l].rotate_left(1);
                for y in 0..5 {
                    a[x + 5 * y][l] ^= d;
                }
            }
        }
        // ρ (rho) and π (pi)
        let mut b = [[0u64; LANES]; 25];
        for x in 0..5 {
            for y in 0..5 {
                for l in 0..LANES {
                    b[y + 5 * ((2 * x + 3 * y) % 5)][l] =
                        a[x + 5 * y][l].rotate_left(ROTATION[x][y]);
                }
            }
        }
        // χ (chi)
        for y in 0..5 {
            for x in 0..5 {
                for l in 0..LANES {
                    a[x + 5 * y][l] =
                        b[x + 5 * y][l] ^ (!b[(x + 1) % 5 + 5 * y][l] & b[(x + 2) % 5 + 5 * y][l]);
                }
            }
        }
        // ι (iota)
        for l in 0..LANES {
            a[0][l] ^= rc;
        }
    }
}

/// The lane body compiled for AVX-512: each word operation on eight lanes
/// is one 512-bit instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn keccak_f_x8_avx512(state: &mut LaneState) {
    keccak_f_x8(state);
}

/// The AVX-512 lane permutation, when this CPU can run it; `None` sends
/// every digest of a batch through the scalar permutation.
#[allow(unsafe_code)]
fn lane_permutation() -> Option<fn(&mut LaneState)> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
        // SAFETY: `keccak_f_x8_avx512` needs AVX-512F and AVX-512VL, and
        // the check just above found both on this CPU. The closure exists
        // only past that check, and a CPU's features do not change while
        // the program runs.
        return Some(|state| unsafe { keccak_f_x8_avx512(state) });
    }
    None
}

/// The final, padded block of a preimage whose unabsorbed tail is `tail`
/// (shorter than [`RATE`]): Keccak's pre-NIST multi-rate padding
/// `0x01 ... 0x80`.
fn pad_block(tail: &[u8]) -> [u8; RATE] {
    let mut block = [0u8; RATE];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x01;
    block[RATE - 1] |= 0x80;
    block
}

/// Digests eight single-block preimages (each shorter than [`RATE`]) in
/// one pass of `permute` over their interleaved states.
fn digest_x8(items: [&[u8]; LANES], permute: fn(&mut LaneState)) -> [Hash32; LANES] {
    parole_telemetry::counter("crypto.keccak256", LANES as u64);
    parole_telemetry::counter("crypto.keccak_f", LANES as u64);
    let mut state: LaneState = [[0u64; LANES]; 25];
    for (l, data) in items.iter().enumerate() {
        for (i, word) in pad_block(data).chunks_exact(8).enumerate() {
            state[i][l] = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        }
    }
    permute(&mut state);
    std::array::from_fn(|l| {
        let mut out = [0u8; 32];
        for (i, word) in out.chunks_exact_mut(8).enumerate() {
            word.copy_from_slice(&state[i][l].to_le_bytes());
        }
        Hash32::from_bytes(out)
    })
}

/// An incremental Keccak-256 hasher.
///
/// # Example
///
/// ```
/// use parole_crypto::Keccak256;
/// let mut h = Keccak256::new();
/// h.update(b"PAR");
/// h.update(b"OLE");
/// assert_eq!(h.finalize(), parole_crypto::keccak256(b"PAROLE"));
/// ```
#[derive(Debug, Clone)]
pub struct Keccak256 {
    state: [[u64; 5]; 5],
    buffer: [u8; RATE],
    buffered: usize,
}

impl Keccak256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Keccak256 {
            state: [[0u64; 5]; 5],
            buffer: [0u8; RATE],
            buffered: 0,
        }
    }

    /// Absorbs `data` into the sponge.
    ///
    /// Rate-aligned full blocks are XOR-absorbed straight from `data`; only
    /// the sub-block tail (and any carried partial block) goes through the
    /// internal buffer, so multi-block preimages pay no memcpy per block.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        // Top up a partially filled buffer first.
        if self.buffered > 0 {
            let take = (RATE - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < RATE {
                return; // input fully consumed into the partial buffer
            }
            let block = self.buffer;
            self.absorb_block(&block);
            self.buffered = 0;
        }
        // Absorb whole blocks directly from the input slice.
        while input.len() >= RATE {
            let (block, rest) = input.split_at(RATE);
            self.absorb_block(block.try_into().expect("RATE bytes"));
            input = rest;
        }
        // Buffer the tail for the next update / the final padding block.
        self.buffer[..input.len()].copy_from_slice(input);
        self.buffered = input.len();
    }

    fn absorb_block(&mut self, block: &[u8; RATE]) {
        parole_telemetry::counter("crypto.keccak_f", 1);
        for i in 0..RATE / 8 {
            let lane = u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8"));
            let (x, y) = (i % 5, i / 5);
            self.state[x][y] ^= lane;
        }
        keccak_f(&mut self.state);
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Hash32 {
        self.finalize_reset()
    }

    /// Finishes the hash and resets the sponge to its initial state, so one
    /// hasher (and its block buffer) can digest a whole batch of independent
    /// preimages — the batched-absorb path of [`keccak256_batch`].
    fn finalize_reset(&mut self) -> Hash32 {
        parole_telemetry::counter("crypto.keccak256", 1);
        let block = pad_block(&self.buffer[..self.buffered]);
        self.absorb_block(&block);

        let mut out = [0u8; 32];
        for i in 0..4 {
            let (x, y) = (i % 5, i / 5);
            out[i * 8..i * 8 + 8].copy_from_slice(&self.state[x][y].to_le_bytes());
        }
        self.state = [[0u64; 5]; 5];
        self.buffered = 0;
        Hash32::from_bytes(out)
    }
}

impl Default for Keccak256 {
    fn default() -> Self {
        Keccak256::new()
    }
}

/// Computes the Keccak-256 digest of `data` in one shot.
///
/// # Example
///
/// ```
/// let d = parole_crypto::keccak256(b"");
/// assert!(d.to_string().starts_with("0xc5d24601"));
/// ```
pub fn keccak256(data: &[u8]) -> Hash32 {
    let mut h = Keccak256::new();
    h.update(data);
    h.finalize()
}

/// Computes the Keccak-256 digest of every preimage in a batch, eight at a
/// time where the CPU allows.
///
/// Digests are bit-identical to calling [`keccak256`] per item, in input
/// order. On a CPU with AVX-512F and AVX-512VL, each run of eight
/// consecutive preimages that all fit one block (shorter than 136 bytes)
/// is permuted side by side by the lane kernel. Everything else (any other
/// CPU, a group holding a multi-block preimage, the last fewer than eight
/// items) goes through one reused scalar sponge. It holds at most eight
/// preimages at a time but returns every digest, so a caller streaming a
/// large input calls it once per chunk. This is the hashing path of the
/// commitment layer: tree levels, genesis account leaves and dirty-leaf
/// flushes.
///
/// # Example
///
/// ```
/// use parole_crypto::{keccak256, keccak256_batch};
/// let items: Vec<&[u8]> = vec![b"a", b"bb", b""];
/// let digests = keccak256_batch(items.iter().copied());
/// assert_eq!(digests[1], keccak256(b"bb"));
/// ```
pub fn keccak256_batch<P: AsRef<[u8]>>(preimages: impl IntoIterator<Item = P>) -> Vec<Hash32> {
    let preimages = preimages.into_iter();
    let mut digests = Vec::with_capacity(preimages.size_hint().0);
    let mut sponge = Keccak256::new();
    let mut scalar = |data: &[u8]| {
        sponge.update(data);
        sponge.finalize_reset()
    };
    let Some(permute) = lane_permutation() else {
        digests.extend(preimages.map(|data| scalar(data.as_ref())));
        return digests;
    };
    let mut group = Vec::with_capacity(LANES);
    for data in preimages {
        group.push(data);
        if group.len() == LANES {
            let items: [&[u8]; LANES] = std::array::from_fn(|l| group[l].as_ref());
            if items.iter().all(|d| d.len() < RATE) {
                digests.extend(digest_x8(items, permute));
            } else {
                digests.extend(items.map(&mut scalar));
            }
            group.clear();
        }
    }
    digests.extend(group.iter().map(|data| scalar(data.as_ref())));
    digests
}

/// Computes `keccak256(a || b)` without allocating a joined buffer.
///
/// This is the node-combining function of the Merkle trees.
pub fn keccak256_concat(a: &[u8], b: &[u8]) -> Hash32 {
    let mut h = Keccak256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: Hash32) -> String {
        h.to_string()[2..].to_string()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn long_input_crosses_rate_boundary() {
        // 200 bytes > RATE exercises multi-block absorption.
        let data = vec![0x61u8; 200];
        let once = keccak256(&data);
        let mut h = Keccak256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), once);
    }

    #[test]
    fn exactly_rate_sized_input() {
        let data = vec![0x5au8; super::RATE];
        let mut h = Keccak256::new();
        h.update(&data);
        assert_eq!(h.finalize(), keccak256(&data));
    }

    #[test]
    fn concat_equals_joined() {
        let joined = [b"hello".as_ref(), b"world".as_ref()].concat();
        assert_eq!(keccak256_concat(b"hello", b"world"), keccak256(&joined));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(keccak256(b"a"), keccak256(b"b"));
    }

    #[test]
    fn batch_matches_one_shot_across_block_boundaries() {
        // Lengths straddling every absorption regime: empty, sub-block,
        // exactly one block, block+tail, multi-block.
        let lens = [0usize, 1, 7, RATE - 1, RATE, RATE + 1, 2 * RATE, 500];
        let inputs: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8; len])
            .collect();
        let digests = keccak256_batch(inputs.iter().map(Vec::as_slice));
        assert_eq!(digests.len(), inputs.len());
        for (input, digest) in inputs.iter().zip(&digests) {
            assert_eq!(*digest, keccak256(input), "len {}", input.len());
        }
    }

    #[test]
    fn batch_items_are_independent() {
        // A sponge reset bug would leak state between items: the digest of
        // the second item must not depend on the first.
        let alone = keccak256_batch([b"second".as_ref()]);
        let paired = keccak256_batch([b"first".as_ref(), b"second".as_ref()]);
        assert_eq!(alone[0], paired[1]);
    }

    /// Eight distinct pseudo-random Keccak states (splitmix64).
    fn scalar_states() -> [[[u64; 5]; 5]; LANES] {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        std::array::from_fn(|_| {
            std::array::from_fn(|_| {
                std::array::from_fn(|_| {
                    seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                })
            })
        })
    }

    #[test]
    fn portable_lane_body_matches_eight_scalar_permutations() {
        // The lane body without any target feature, so CPUs without
        // AVX-512 still check the lane logic the batched path relies on.
        let mut scalar = scalar_states();
        let mut lanes: LaneState = [[0; LANES]; 25];
        for (l, state) in scalar.iter().enumerate() {
            for (i, word) in lanes.iter_mut().enumerate() {
                word[l] = state[i % 5][i / 5];
            }
        }
        for _ in 0..2 {
            keccak_f_x8(&mut lanes);
            scalar.iter_mut().for_each(keccak_f);
            for (l, state) in scalar.iter().enumerate() {
                for (i, word) in lanes.iter().enumerate() {
                    assert_eq!(word[l], state[i % 5][i / 5], "lane {l}, word {i}");
                }
            }
        }
    }

    #[test]
    fn portable_lane_digests_match_vectors_in_every_lane() {
        let empty = keccak256(b"");
        let abc = keccak256(b"abc");
        assert_eq!(
            hex(abc),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
        for phase in 0..2 {
            let items: [&[u8]; LANES] = std::array::from_fn(|l| {
                if (l + phase) % 2 == 0 {
                    &b""[..]
                } else {
                    b"abc"
                }
            });
            let digests = digest_x8(items, keccak_f_x8);
            for (l, digest) in digests.iter().enumerate() {
                let want = if items[l].is_empty() { empty } else { abc };
                assert_eq!(*digest, want, "lane {l}, phase {phase}");
            }
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn batch_counts_one_digest_and_one_permutation_per_item() {
        // `state.keccak_per_root` and the flush-count tests read these
        // counters; the lane path must count exactly like the scalar one.
        // Two full lane groups, a multi-block-free tail of three.
        let items: Vec<[u8; 64]> = (0..19u8).map(|i| [i; 64]).collect();
        let digests_before = parole_telemetry::local_counter("crypto.keccak256");
        let perms_before = parole_telemetry::local_counter("crypto.keccak_f");
        let digests = keccak256_batch(&items);
        assert_eq!(digests.len(), items.len());
        assert_eq!(
            parole_telemetry::local_counter("crypto.keccak256") - digests_before,
            items.len() as u64
        );
        assert_eq!(
            parole_telemetry::local_counter("crypto.keccak_f") - perms_before,
            items.len() as u64
        );
    }

    #[test]
    fn streaming_tail_then_block_sized_update() {
        // A buffered tail followed by an update crossing several blocks
        // exercises the top-up + direct-absorb + re-buffer sequence.
        let data = vec![0x3Cu8; 3 * RATE + 11];
        let mut h = Keccak256::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finalize(), keccak256(&data));
    }
}
