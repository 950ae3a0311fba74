//! L1 calldata encoding and the data-availability cost model.
//!
//! An optimistic rollup's dominant operating cost is posting its transaction
//! data to L1. This module provides the [`Batch`]-to-calldata encoding, a
//! zero-run compressor (Bedrock compresses channel frames similarly), and
//! the EIP-2028 calldata gas metering (16 gas per non-zero byte, 4 per zero
//! byte) the batch economics build on.
//!
//! # Batch layout
//!
//! Each batch decodes on its own: nothing carries over from one batch to
//! the next. Fee fields are not posted (Bedrock derives them from the
//! signed payloads; the simulation keeps signatures off-chain), so a batch
//! carries each transaction's sender and operation. The batch starts with
//! its transaction count as a varint, then one record per transaction:
//!
//! - a **head byte**: bits 0–3 hold the operation's
//!   [`parole_ovm::OpSpec::wire_tag`]; bit 4 is set when the sender is a
//!   literal; bits 5–6 say how the collection is named (1: the previous
//!   record's collection, with no bytes; 2: a reference; 3: a literal);
//!   bit 7 is set when the kind's payload address (a transfer's recipient,
//!   an approval's operator) is a literal;
//! - the **sender**, then the **collection**, then the **payload fields**
//!   the kind declares in [`parole_ovm::OpSpec::fields`], in that order.
//!
//! An address goes out as its 20-byte literal the first time it appears in
//! the batch, which appends it to the batch's address list, and as a
//! reference after that: `varint(i)`, with `i` its 1-based position in the
//! list. A token id goes out as `varint(id + 1)`; a price as one length
//! byte followed by its significant big-endian bytes; the approval flag as
//! one byte, 1 for false and 2 for true. Varints are LEB128: seven bits per
//! byte, low group first, the high bit set on every byte but the last.
//!
//! The layout keeps zero bytes out where it can, because after
//! [`compress`] a lone zero byte costs 20 gas (`00 01`) and a nonzero one
//! 16: no head byte is zero (the collection mode is never 0), references
//! count from 1, and token ids are shifted by one.
//!
//! The codec converts [`TxKind::encode_fields`] bytes to and from this form
//! through the kind's field list, so the signed-transaction encoding, tx
//! hashes and the tx root never see it. [`decode_batch`] accepts exactly
//! the bytes [`encode_batch`] writes and rejects everything else: an
//! unknown tag or a zero head byte, an out-of-range reference, a literal
//! that repeats a listed address, "same collection" on the first record, a
//! reference or literal naming the previous record's collection, a
//! non-minimal or oversized varint, a price longer than 16 bytes or with a
//! leading zero byte, a literal flag for an address the kind lacks, a flag
//! byte other than 1 or 2, truncation and trailing bytes.

use crate::Batch;
use parole_ovm::{TxKind, WireField};
use parole_primitives::{Address, Gas};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// EIP-2028 calldata gas per non-zero byte.
pub const GAS_PER_NONZERO_BYTE: u64 = 16;
/// EIP-2028 calldata gas per zero byte.
pub const GAS_PER_ZERO_BYTE: u64 = 4;

/// Head byte: the operation's wire tag.
const TAG_MASK: u8 = 0x0f;
/// Head byte: the sender is a literal.
const SENDER_LITERAL: u8 = 0x10;
/// Head byte: where the collection mode sits.
const COLLECTION_SHIFT: u32 = 5;
/// Collection mode: the previous record's collection, with no bytes.
const SAME_COLLECTION: u8 = 1;
/// Collection mode: a reference into the batch's address list.
const COLLECTION_REFERENCE: u8 = 2;
/// Collection mode: a 20-byte literal.
const COLLECTION_LITERAL: u8 = 3;
/// Head byte: the kind's payload address is a literal.
const PAYLOAD_LITERAL: u8 = 0x80;

/// Bytes of an address literal, and of the collection that leads every
/// [`TxKind::encode_fields`] output.
const ADDRESS_LEN: usize = 20;
/// The longest varint the layout uses: ten groups of seven bits hold a
/// token id plus one (up to 2⁶⁴).
const VARINT_MAX_LEN: u32 = 10;
/// Largest token-id varint: `u64::MAX + 1`.
const TOKEN_VARINT_MAX: u128 = 1 << 64;

/// Appends `value` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut value: u128) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Appends `address` as a reference when `refs` lists it, or as a literal
/// it then lists. Returns whether it went out as a literal.
fn put_address(out: &mut Vec<u8>, refs: &mut HashMap<Address, u64>, address: Address) -> bool {
    let next = refs.len() as u64 + 1;
    match refs.entry(address) {
        Entry::Occupied(e) => {
            put_varint(out, (*e.get()).into());
            false
        }
        Entry::Vacant(e) => {
            e.insert(next);
            out.extend_from_slice(address.as_bytes());
            true
        }
    }
}

/// Encodes a batch's transactions into raw (uncompressed) calldata bytes,
/// in the compact layout of the [module docs](self): the `(sender, kind)`
/// pairs that [`decode_batch`] recovers.
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + batch.txs.len() * 8);
    put_varint(&mut out, batch.txs.len() as u128);
    let mut refs = HashMap::new();
    let mut fields = Vec::new();
    let mut previous = None;
    for tx in &batch.txs {
        let spec = tx.kind.spec();
        fields.clear();
        tx.kind.encode_fields(&mut fields);
        let (collection, mut payload) = fields.split_at(ADDRESS_LEN);
        let collection = address_at(collection);

        let head_at = out.len();
        out.push(0); // the head byte, written once its flags are known
        let mut head = spec.wire_tag;
        if put_address(&mut out, &mut refs, tx.sender) {
            head |= SENDER_LITERAL;
        }
        let mode = if previous == Some(collection) {
            SAME_COLLECTION
        } else if put_address(&mut out, &mut refs, collection) {
            COLLECTION_LITERAL
        } else {
            COLLECTION_REFERENCE
        };
        head |= mode << COLLECTION_SHIFT;
        previous = Some(collection);

        for &field in spec.fields {
            let (bytes, rest) = payload.split_at(field.width());
            payload = rest;
            match field {
                WireField::Token => put_varint(&mut out, u128::from(be_u64(bytes)) + 1),
                WireField::Address => {
                    if put_address(&mut out, &mut refs, address_at(bytes)) {
                        head |= PAYLOAD_LITERAL;
                    }
                }
                WireField::Price => {
                    let lead = bytes.iter().take_while(|&&b| b == 0).count();
                    out.push((bytes.len() - lead) as u8);
                    out.extend_from_slice(&bytes[lead..]);
                }
                WireField::Flag => out.push(bytes[0] + 1),
            }
        }
        out[head_at] = head;
    }
    out
}

/// The address in a 20-byte slice.
fn address_at(bytes: &[u8]) -> Address {
    Address::from_bytes(bytes.try_into().expect("a 20-byte address field"))
}

/// The big-endian `u64` in an 8-byte slice.
fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("an 8-byte token field"))
}

/// A cursor over untrusted calldata, with the batch's address list.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Addresses in order of first appearance.
    list: Vec<Address>,
    /// The same addresses, for rejecting a literal that repeats one.
    listed: HashSet<Address>,
}

impl Reader<'_> {
    fn byte(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let bytes = self.data.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(bytes)
    }

    /// A minimal LEB128 varint no larger than `max`.
    fn varint(&mut self, max: u128) -> Option<u128> {
        let mut value = 0u128;
        for group in 0..VARINT_MAX_LEN {
            let b = self.byte()?;
            value |= u128::from(b & 0x7f) << (7 * group);
            if b & 0x80 == 0 {
                // A zero last group after the first one pads the encoding.
                let minimal = b != 0 || group == 0;
                return (minimal && value <= max).then_some(value);
            }
        }
        None
    }

    /// An address: a literal, which must be new to the list, or a 1-based
    /// reference into it.
    fn address(&mut self, literal: bool) -> Option<Address> {
        if literal {
            let address = address_at(self.take(ADDRESS_LEN)?);
            if !self.listed.insert(address) {
                return None;
            }
            self.list.push(address);
            Some(address)
        } else {
            // At most the list's length, so it fits a `usize`.
            let i = self.varint(self.list.len() as u128)? as usize;
            self.list.get(i.checked_sub(1)?).copied()
        }
    }
}

/// Decodes calldata produced by [`encode_batch`] back into the posted
/// `(sender, operation)` pairs — the derivation-pipeline half of data
/// availability: anyone holding the L1 bytes can reconstruct the batch's
/// operations without the sequencer's help.
///
/// Returns `None` for any input [`encode_batch`] would not have written
/// (the module docs list the rules), including truncation and trailing
/// bytes after the declared count. The declared count sizes no allocation.
pub fn decode_batch(data: &[u8]) -> Option<Vec<(Address, TxKind)>> {
    let mut r = Reader {
        data,
        pos: 0,
        list: Vec::new(),
        listed: HashSet::new(),
    };
    let count = r.varint(u128::from(u64::MAX))?;
    let mut txs = Vec::new();
    let mut fields = Vec::new();
    let mut previous = None;
    for _ in 0..count {
        let head = r.byte()?;
        let tag = head & TAG_MASK;
        let spec = TxKind::spec_by_tag(tag)?;
        let sender = r.address(head & SENDER_LITERAL != 0)?;
        let collection = match (head >> COLLECTION_SHIFT) & 0b11 {
            SAME_COLLECTION => previous?,
            mode @ (COLLECTION_REFERENCE | COLLECTION_LITERAL) => {
                let named = r.address(mode == COLLECTION_LITERAL)?;
                if previous == Some(named) {
                    return None; // the previous collection goes out as "same"
                }
                named
            }
            _ => return None, // mode 0, which also rejects a zero head byte
        };
        previous = Some(collection);

        let payload_literal = head & PAYLOAD_LITERAL != 0;
        if payload_literal && !spec.fields.contains(&WireField::Address) {
            return None;
        }
        fields.clear();
        fields.extend_from_slice(collection.as_bytes());
        for &field in spec.fields {
            match field {
                WireField::Token => {
                    let id = r.varint(TOKEN_VARINT_MAX)?.checked_sub(1)?;
                    fields.extend_from_slice(&(id as u64).to_be_bytes());
                }
                WireField::Address => {
                    fields.extend_from_slice(r.address(payload_literal)?.as_bytes());
                }
                WireField::Price => {
                    let width = field.width();
                    let len = usize::from(r.byte()?);
                    if len > width {
                        return None;
                    }
                    let significant = r.take(len)?;
                    if significant.first() == Some(&0) {
                        return None;
                    }
                    fields.extend(std::iter::repeat_n(0u8, width - len));
                    fields.extend_from_slice(significant);
                }
                WireField::Flag => match r.byte()? {
                    b @ (1 | 2) => fields.push(b - 1),
                    _ => return None,
                },
            }
        }
        let (kind, used) = TxKind::decode_fields(tag, &fields)?;
        debug_assert_eq!(used, fields.len(), "{}: field list drift", spec.label);
        txs.push((sender, kind));
    }
    if r.pos != data.len() {
        return None; // trailing garbage is not a valid posting
    }
    Some(txs)
}

/// Zero-run compression: any run of ≥ 2 zero bytes becomes `0x00, len`
/// (len ≤ 255). Padded 20-byte addresses make rollup calldata extremely
/// zero-heavy, so this simple scheme already cuts posted bytes severely.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2);
    let mut i = 0;
    while i < data.len() {
        if data[i] == 0 {
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == 0 && run < 255 {
                run += 1;
            }
            out.push(0);
            out.push(run as u8);
            i += run;
        } else {
            out.push(data[i]);
            i += 1;
        }
    }
    out
}

/// Inverse of [`compress`].
///
/// # Errors
///
/// Returns `None` for truncated input (a zero marker without its length).
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        if data[i] == 0 {
            let run = *data.get(i + 1)? as usize;
            out.extend(std::iter::repeat_n(0u8, run));
            i += 2;
        } else {
            out.push(data[i]);
            i += 1;
        }
    }
    Some(out)
}

/// EIP-2028 calldata gas for posting `data` to L1.
pub fn calldata_gas(data: &[u8]) -> Gas {
    let zeros = data.iter().filter(|&&b| b == 0).count() as u64;
    let nonzeros = data.len() as u64 - zeros;
    Gas::new(zeros * GAS_PER_ZERO_BYTE + nonzeros * GAS_PER_NONZERO_BYTE)
}

/// The full posting cost of a batch: compressed encoding metered at
/// EIP-2028 rates. This is the number the aggregator weighs its tips (and,
/// for the adversary, its PAROLE profit) against.
pub fn batch_posting_cost(batch: &Batch) -> Gas {
    calldata_gas(&compress(&encode_batch(batch)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateCommitment;
    use parole_crypto::keccak256;
    use parole_ovm::NftTransaction;
    use parole_primitives::{Address, AggregatorId, Hash32, TokenId, Wei};

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn batch_of(txs: Vec<NftTransaction>) -> Batch {
        Batch {
            aggregator: AggregatorId::new(0),
            commitment: StateCommitment {
                pre_state_root: Hash32::ZERO,
                post_state_root: Hash32::ZERO,
                tx_root: Batch::compute_tx_root(&txs),
            },
            receipts: vec![],
            txs,
        }
    }

    fn batch(n: u64) -> Batch {
        let txs: Vec<NftTransaction> = (0..n)
            .map(|i| {
                let kind = match i % 3 {
                    0 => TxKind::Mint {
                        collection: addr(100),
                        token: TokenId::new(i),
                    },
                    1 => TxKind::Transfer {
                        collection: addr(100),
                        token: TokenId::new(i - 1),
                        to: addr(i + 1),
                    },
                    _ => TxKind::Burn {
                        collection: addr(100),
                        token: TokenId::new(i - 2),
                    },
                };
                NftTransaction::simple(addr(i + 1), kind)
            })
            .collect();
        batch_of(txs)
    }

    /// The fixed-width layout the compact one replaced: a 4-byte count,
    /// then per record the wire tag, the 20-byte sender and the
    /// `encode_fields` bytes. The reference the cost tests measure against.
    fn fixed_width(txs: &[NftTransaction]) -> Vec<u8> {
        let mut out = (txs.len() as u32).to_be_bytes().to_vec();
        for tx in txs {
            out.push(tx.kind.spec().wire_tag);
            out.extend_from_slice(tx.sender.as_bytes());
            tx.kind.encode_fields(&mut out);
        }
        out
    }

    /// Posting gas of the compact and the fixed-width layout.
    fn posting_gas(txs: Vec<NftTransaction>) -> (u64, u64) {
        let fixed = calldata_gas(&compress(&fixed_width(&txs))).units();
        (batch_posting_cost(&batch_of(txs)).units(), fixed)
    }

    /// A head byte assembled from its parts.
    fn head(tag: u8, sender_literal: bool, mode: u8, payload_literal: bool) -> u8 {
        tag | u8::from(sender_literal) << 4 | mode << 5 | u8::from(payload_literal) << 7
    }

    /// Encodes `txs` and returns the length of each record in turn (the
    /// count varint of a batch under 128 records is one byte).
    fn record_lengths(txs: Vec<NftTransaction>) -> Vec<usize> {
        let mut lengths = Vec::new();
        let mut last = 1;
        for n in 1..=txs.len() {
            let len = encode_batch(&batch_of(txs[..n].to_vec())).len();
            lengths.push(len - last);
            last = len;
        }
        lengths
    }

    #[test]
    fn encoding_length_tracks_tx_mix() {
        // One mint: head, sender and collection literals, token varint.
        // One transfer by a new sender to itself: head, sender literal,
        // the same collection (no bytes), token, recipient reference.
        // One burn by a new sender: head, sender literal, token.
        let b = batch(3);
        assert_eq!(encode_batch(&b).len(), 1 + 42 + 23 + 22);
        assert!(encode_batch(&batch(6)).len() > encode_batch(&batch(3)).len());
    }

    #[test]
    fn approval_encodings_have_fixed_lengths() {
        let (c, other) = (addr(100), addr(101));
        let approve = |sender, collection, operator| {
            NftTransaction::simple(
                addr(sender),
                TxKind::Approve {
                    collection,
                    token: TokenId::new(0),
                    operator: addr(operator),
                },
            )
        };
        let sfa = |sender, collection, operator, approved| {
            NftTransaction::simple(
                addr(sender),
                TxKind::SetApprovalForAll {
                    collection,
                    operator: addr(operator),
                    approved,
                },
            )
        };
        let lengths = record_lengths(vec![
            // Every address a literal: head + 20 + 20 + token 1 + 20.
            approve(1, c, 9),
            // Sender and operator references, the same collection.
            approve(1, c, 9),
            // Every address a literal: head + 20 + 20 + 20 + flag 1.
            sfa(2, other, 8, true),
            // Sender, collection and operator references.
            sfa(2, c, 8, false),
        ]);
        assert_eq!(lengths, [62, 4, 62, 5]);
        let data = encode_batch(&batch_of(vec![approve(1, c, 9), sfa(1, c, 9, true)]));
        assert_eq!(decompress(&compress(&data)), Some(data));
    }

    #[test]
    fn marketplace_encodings_have_fixed_lengths() {
        let (c, other) = (addr(100), addr(101));
        let list = |sender, collection, price| {
            NftTransaction::simple(
                addr(sender),
                TxKind::List {
                    collection,
                    token: TokenId::new(126),
                    price,
                },
            )
        };
        let cancel = NftTransaction::simple(
            addr(1),
            TxKind::CancelListing {
                collection: c,
                token: TokenId::new(127),
            },
        );
        let buy = NftTransaction::simple(
            addr(2),
            TxKind::Buy {
                collection: other,
                token: TokenId::new(0),
            },
        );
        let lengths = record_lengths(vec![
            // Literals; token 126 is one varint byte (127), and 1 ETH
            // (10^18 wei) eight significant bytes behind its length byte.
            list(1, c, Wei::from_eth(1)),
            // A sender reference; token 127 takes two varint bytes (128).
            cancel,
            // A new sender and a new collection.
            buy,
            // References for both; the largest price takes all 16 bytes.
            list(1, c, Wei::from_wei(u128::MAX)),
            // The zero price is its length byte alone.
            list(1, c, Wei::ZERO),
        ]);
        assert_eq!(lengths, [51, 4, 42, 21, 4]);
    }

    #[test]
    fn every_kind_fits_the_head_byte() {
        for spec in TxKind::ALL_SPECS {
            assert_eq!(spec.wire_tag & !TAG_MASK, 0, "{}: tag too wide", spec.label);
            let addresses = spec
                .fields
                .iter()
                .filter(|&&f| f == WireField::Address)
                .count();
            assert!(addresses <= 1, "{}: one payload-literal bit", spec.label);
        }
    }

    #[test]
    fn decode_batch_inverts_encode_batch() {
        let b = batch(9);
        let decoded = decode_batch(&encode_batch(&b)).expect("well-formed calldata decodes");
        let want: Vec<_> = b.txs.iter().map(|tx| (tx.sender, tx.kind)).collect();
        assert_eq!(decoded, want);
    }

    #[test]
    fn decode_batch_rejects_malformed_postings() {
        const LIT: u8 = COLLECTION_LITERAL;
        const REF: u8 = COLLECTION_REFERENCE;
        const SAME: u8 = SAME_COLLECTION;
        let [a, b, c] = [1u64, 2, 100].map(|v| addr(v).as_bytes().to_vec());
        // Two mints of collection c, by a then by b: the list is [a, c, b].
        let record = |head: u8, parts: &[&[u8]]| -> Vec<u8> {
            let mut out = vec![head];
            parts.iter().for_each(|p| out.extend_from_slice(p));
            out
        };
        let first = record(head(0, true, LIT, false), &[&a, &c, &[1]]);
        let two = |second: Vec<u8>| [vec![2], first.clone(), second].concat();
        let good = two(record(head(0, true, SAME, false), &[&b, &[2]]));
        let want = |sender: &[u8]| {
            let sender = Address::from_bytes(sender.try_into().unwrap());
            let mint = |token| TxKind::Mint {
                collection: addr(100),
                token: TokenId::new(token),
            };
            vec![(addr(1), mint(0)), (sender, mint(1))]
        };
        assert_eq!(decode_batch(&good), Some(want(&b)));
        let txs = want(&b)
            .into_iter()
            .map(|(sender, kind)| NftTransaction::simple(sender, kind))
            .collect();
        assert_eq!(encode_batch(&batch_of(txs)), good);
        // A sender reference into the list decodes too.
        let by_a = two(record(head(0, false, SAME, false), &[&[1], &[2]]));
        assert_eq!(decode_batch(&by_a), Some(want(&a)));

        let rejected = |second: Vec<u8>| assert_eq!(decode_batch(&two(second)), None);
        // An unknown tag, and the zero head byte.
        rejected(record(head(8, true, SAME, false), &[&b, &[2]]));
        rejected(record(head(15, true, SAME, false), &[&b, &[2]]));
        rejected(record(0, &[&b, &[2]]));
        // References out of range: 0 and one past the list.
        rejected(record(head(0, false, SAME, false), &[&[0], &[2]]));
        rejected(record(head(0, false, SAME, false), &[&[3], &[2]]));
        // A literal repeating a listed address.
        rejected(record(head(0, true, SAME, false), &[&a, &[2]]));
        // The previous record's collection named by reference or literal.
        rejected(record(head(0, true, REF, false), &[&b, &[2], &[2]]));
        rejected(record(head(0, true, LIT, false), &[&b, &c, &[2]]));
        // Non-minimal and oversized token varints: 2 padded to two bytes,
        // 2^64 + 1 (token id 2^64), and an eleven-byte varint.
        rejected(record(head(0, true, SAME, false), &[&b, &[0x82, 0x00]]));
        let mut too_big = vec![0x81];
        too_big.extend([0x80; 8]);
        too_big.push(0x02);
        rejected(record(head(0, true, SAME, false), &[&b, &too_big]));
        rejected(record(head(0, true, SAME, false), &[&b, &[0x80; 10], &[1]]));
        // Token varint 0 (ids go out shifted by one).
        rejected(record(head(0, true, SAME, false), &[&b, &[0]]));
        // A payload-literal flag on a kind without a payload address.
        rejected(record(head(0, true, SAME, true), &[&b, &[2]]));
        // Trailing bytes, truncation, a non-minimal count.
        let mut padded = good.clone();
        padded.push(0xff);
        assert_eq!(decode_batch(&padded), None);
        assert_eq!(decode_batch(&good[..good.len() - 1]), None);
        assert_eq!(decode_batch(&good[..1]), None);
        assert_eq!(decode_batch(&[]), None);
        assert_eq!(
            decode_batch(&[[0x82, 0x00].as_slice(), &good[1..]].concat()),
            None
        );
        // "Same collection" on the first record.
        let same_first = [vec![1], record(head(0, true, SAME, false), &[&a, &[1]])].concat();
        assert_eq!(decode_batch(&same_first), None);

        // Prices: at most 16 significant bytes, no leading zero byte.
        let list = |price: &[u8]| {
            let h = head(5, true, LIT, false);
            decode_batch(&[vec![1], record(h, &[&a, &c, &[1], price])].concat())
        };
        assert!(list(&[2, 1, 0]).is_some());
        assert!(list(&[0]).is_some());
        assert_eq!(list(&[2, 0, 1]), None);
        assert_eq!(list(&[17, 1]), None);
        assert_eq!(list(&[[17].as_slice(), &[1; 17]].concat()), None);
        // The approval flag is 1 or 2.
        let sfa = |flag: u8| {
            let h = head(4, true, LIT, true);
            decode_batch(&[vec![1], record(h, &[&a, &c, &b, &[flag]])].concat())
        };
        assert!(sfa(1).is_some() && sfa(2).is_some());
        assert_eq!(sfa(0), None);
        assert_eq!(sfa(3), None);
        // The empty batch is fine.
        assert_eq!(decode_batch(&encode_batch(&batch(0))), Some(vec![]));
    }

    #[test]
    fn attack_window_costs_at_most_half_the_fixed_width_layout() {
        // The adversarial aggregator's window: 25 transactions on one
        // collection among 20 users and the IFU, in the workload
        // generator's 3:5:2 mint/transfer/burn mix and with the pipeline
        // benchmark's address shapes (window 7 of its `attack` run).
        let coll = addr(0x6000_0007);
        let ifu = addr(0x1F00_0000);
        let user = |i: u64| addr(141 + i % 20);
        let txs = (0..25u64)
            .map(|i| {
                let sender = if i % 3 == 0 { ifu } else { user(i * 7) };
                let token = TokenId::new(i % 10);
                let kind = match i % 10 {
                    0 | 3 | 6 => TxKind::Mint {
                        collection: coll,
                        token: TokenId::new(10 + i),
                    },
                    8 | 9 => TxKind::Burn {
                        collection: coll,
                        token,
                    },
                    _ => TxKind::Transfer {
                        collection: coll,
                        token,
                        to: if i % 4 == 1 { ifu } else { user(i * 3 + 1) },
                    },
                };
                NftTransaction::simple(sender, kind)
            })
            .collect();
        let (compact, fixed) = posting_gas(txs);
        assert!(compact * 2 <= fixed, "compact {compact} vs fixed {fixed}");
    }

    #[test]
    fn distinct_random_addresses_cost_no_more_than_the_fixed_width_layout() {
        let random = |i: u64| {
            let digest = keccak256(&i.to_be_bytes());
            Address::from_bytes(digest.as_bytes()[12..].try_into().unwrap())
        };
        let txs = (0..20u64)
            .map(|i| {
                NftTransaction::simple(
                    random(3 * i),
                    TxKind::Transfer {
                        collection: random(3 * i + 1),
                        token: TokenId::new(i),
                        to: random(3 * i + 2),
                    },
                )
            })
            .collect();
        let (compact, fixed) = posting_gas(txs);
        assert!(compact <= fixed, "compact {compact} vs fixed {fixed}");
    }

    #[test]
    fn compression_roundtrip() {
        let data = encode_batch(&batch(10));
        let compressed = compress(&data);
        assert_eq!(decompress(&compressed), Some(data.clone()));
        assert!(
            compressed.len() < data.len() / 2,
            "padded addresses must compress hard: {} -> {}",
            data.len(),
            compressed.len()
        );
    }

    #[test]
    fn decompress_rejects_truncation() {
        assert_eq!(decompress(&[5, 6, 0]), None);
    }

    #[test]
    fn compress_handles_long_zero_runs() {
        let data = vec![0u8; 1000];
        let c = compress(&data);
        assert!(c.len() <= 10);
        assert_eq!(decompress(&c), Some(data));
    }

    #[test]
    fn compress_handles_no_zeros() {
        let data = vec![7u8; 64];
        let c = compress(&data);
        assert_eq!(c, data);
        assert_eq!(decompress(&c), Some(data));
    }

    #[test]
    fn calldata_gas_meters_eip2028() {
        // 3 zero + 2 non-zero bytes = 3×4 + 2×16 = 44 gas.
        assert_eq!(calldata_gas(&[0, 1, 0, 2, 0]), Gas::new(44));
        assert_eq!(calldata_gas(&[]), Gas::ZERO);
    }

    #[test]
    fn compression_reduces_posting_cost() {
        let b = batch(20);
        let raw = calldata_gas(&encode_batch(&b));
        let posted = batch_posting_cost(&b);
        assert!(
            posted.units() < raw.units(),
            "compressed posting must be cheaper: {posted} vs {raw}"
        );
    }
}
