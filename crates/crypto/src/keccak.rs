//! Keccak-256 (the Ethereum variant, with the original `0x01` domain
//! padding rather than NIST SHA-3's `0x06`).
//!
//! Implements the Keccak-f[1600] permutation directly from the reference
//! specification. Validated in the unit tests against the canonical vectors
//! for the empty string and `"abc"` that Ethereum tooling uses.

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
        // Keccak (pre-NIST) multi-rate padding: 0x01 ... 0x80.
        let mut block = [0u8; RATE];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = 0x01;
        block[RATE - 1] |= 0x80;
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

/// Computes the Keccak-256 digest of every preimage in a batch through one
/// reused sponge.
///
/// Digests are bit-identical to calling [`keccak256`] per item; the win is
/// operational: a single hasher's state and block buffer are recycled across
/// the whole batch, and multi-block preimages are absorbed rate-aligned
/// straight from their slices. This is the absorption path the incremental
/// state-commitment flush pipes its sorted dirty-leaf preimages through.
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
    let mut h = Keccak256::new();
    preimages
        .into_iter()
        .map(|data| {
            h.update(data.as_ref());
            h.finalize_reset()
        })
        .collect()
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
