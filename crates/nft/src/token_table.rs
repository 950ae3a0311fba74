//! Dual-backend per-collection token storage.
//!
//! [`TokenTable`] holds every *active* token's `(owner, approved)` record.
//! The production layout ([`TokenTable::Flat`]) is a dense slab of
//! `(TokenId, owner, approved)` records behind an open-addressing index
//! ([`parole_primitives::FlatMap`]); the original `BTreeMap` pair is kept as
//! [`TokenTable::BTree`] so benchmarks and differential tests can A/B both
//! layouts in one process.
//!
//! Encoding note: the flat record stores "no approval" as [`Address::ZERO`].
//! This cannot collide with a real operator because ERC-721 semantics treat
//! approving the zero address as *clearing* the approval (and
//! `Collection::approve` enforces exactly that), so a stored approval is
//! always non-zero. Both backends therefore expose the same
//! `Option<Address>` view, iterate in token-id order, and commit to
//! byte-identical preimages.

use parole_primitives::{Address, FlatMap, StorageBackend, TokenId};
use std::collections::BTreeMap;

/// One active token's dense record: its owner plus the approved operator
/// ([`Address::ZERO`] when none is outstanding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenRec {
    /// Current owner.
    pub owner: Address,
    /// Approved operator, `Address::ZERO` for none.
    pub approved: Address,
}

/// Per-collection token ownership + approval store. See the
/// [module docs](self) for the layout trade-offs.
#[derive(Debug, Clone)]
pub enum TokenTable {
    /// Dense slab + open-addressing index; approvals inlined per record with
    /// a running count so `approval_count` stays O(1).
    Flat {
        /// The `(TokenId → TokenRec)` arena.
        recs: FlatMap<TokenId, TokenRec>,
        /// Number of records with a non-zero `approved` field.
        approvals: u64,
    },
    /// The original map-of-structs layout, kept as the in-process baseline.
    BTree {
        /// Current owner of every active token.
        owners: BTreeMap<TokenId, Address>,
        /// Per-token approved operator (absent = none).
        approvals: BTreeMap<TokenId, Address>,
    },
}

impl TokenTable {
    /// An empty table on the requested backend.
    pub fn new(backend: StorageBackend) -> Self {
        match backend {
            StorageBackend::Arena => TokenTable::Flat {
                recs: FlatMap::new(),
                approvals: 0,
            },
            StorageBackend::BTree => TokenTable::BTree {
                owners: BTreeMap::new(),
                approvals: BTreeMap::new(),
            },
        }
    }

    /// Which layout this table uses.
    pub fn backend(&self) -> StorageBackend {
        match self {
            TokenTable::Flat { .. } => StorageBackend::Arena,
            TokenTable::BTree { .. } => StorageBackend::BTree,
        }
    }

    /// Number of active tokens.
    pub fn active_count(&self) -> usize {
        match self {
            TokenTable::Flat { recs, .. } => recs.len(),
            TokenTable::BTree { owners, .. } => owners.len(),
        }
    }

    /// Whether `token` is active.
    pub fn contains(&self, token: TokenId) -> bool {
        match self {
            TokenTable::Flat { recs, .. } => recs.contains_key(&token),
            TokenTable::BTree { owners, .. } => owners.contains_key(&token),
        }
    }

    /// Owner of `token`, if active.
    pub fn owner_of(&self, token: TokenId) -> Option<Address> {
        match self {
            TokenTable::Flat { recs, .. } => recs.get(&token).map(|r| r.owner),
            TokenTable::BTree { owners, .. } => owners.get(&token).copied(),
        }
    }

    /// Approved operator for `token`, if any.
    pub fn approved(&self, token: TokenId) -> Option<Address> {
        match self {
            TokenTable::Flat { recs, .. } => recs
                .get(&token)
                .map(|r| r.approved)
                .filter(|a| !a.is_zero()),
            TokenTable::BTree { approvals, .. } => approvals.get(&token).copied(),
        }
    }

    /// Number of outstanding approvals.
    pub fn approval_count(&self) -> u64 {
        match self {
            TokenTable::Flat { approvals, .. } => *approvals,
            TokenTable::BTree { approvals, .. } => approvals.len() as u64,
        }
    }

    /// Sets (mint) or replaces (transfer) the owner of `token`, keeping any
    /// outstanding approval untouched — callers clear approvals explicitly.
    pub fn set_owner(&mut self, token: TokenId, owner: Address) {
        match self {
            TokenTable::Flat { recs, .. } => match recs.get_mut(&token) {
                Some(rec) => rec.owner = owner,
                None => {
                    recs.insert(
                        token,
                        TokenRec {
                            owner,
                            approved: Address::ZERO,
                        },
                    );
                }
            },
            TokenTable::BTree { owners, .. } => {
                owners.insert(token, owner);
            }
        }
    }

    /// Sets (`Some`) or clears (`None`) the approved operator for `token`.
    /// A no-op on the flat backend if the token is inactive (the collection
    /// layer never approves inactive tokens).
    pub fn set_approval(&mut self, token: TokenId, operator: Option<Address>) {
        match self {
            TokenTable::Flat { recs, approvals } => {
                if let Some(rec) = recs.get_mut(&token) {
                    let had = !rec.approved.is_zero();
                    match operator {
                        Some(op) => {
                            debug_assert!(!op.is_zero(), "approve(ZERO) must clear, not set");
                            if !had {
                                *approvals += 1;
                            }
                            rec.approved = op;
                        }
                        None => {
                            if had {
                                *approvals -= 1;
                            }
                            rec.approved = Address::ZERO;
                        }
                    }
                }
            }
            TokenTable::BTree { approvals, .. } => match operator {
                Some(op) => {
                    approvals.insert(token, op);
                }
                None => {
                    approvals.remove(&token);
                }
            },
        }
    }

    /// Deactivates `token` (burn), dropping its approval with it.
    pub fn remove(&mut self, token: TokenId) {
        match self {
            TokenTable::Flat { recs, approvals } => {
                if let Some(rec) = recs.remove(&token) {
                    if !rec.approved.is_zero() {
                        *approvals -= 1;
                    }
                }
            }
            TokenTable::BTree { owners, approvals } => {
                owners.remove(&token);
                approvals.remove(&token);
            }
        }
    }

    /// `(token, owner)` pairs of active tokens in token-id order — the
    /// iteration the commitment sub-trees hash, so it must be deterministic
    /// and backend-independent.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (TokenId, Address)> + '_> {
        match self {
            TokenTable::Flat { recs, .. } => {
                Box::new(recs.iter_sorted().map(|(&t, r)| (t, r.owner)))
            }
            TokenTable::BTree { owners, .. } => Box::new(owners.iter().map(|(&t, &o)| (t, o))),
        }
    }

    /// `(token, operator)` pairs of outstanding approvals in token-id order.
    pub fn approvals_iter(&self) -> Box<dyn Iterator<Item = (TokenId, Address)> + '_> {
        match self {
            TokenTable::Flat { recs, .. } => Box::new(
                recs.iter_sorted()
                    .filter(|(_, r)| !r.approved.is_zero())
                    .map(|(&t, r)| (t, r.approved)),
            ),
            TokenTable::BTree { approvals, .. } => {
                Box::new(approvals.iter().map(|(&t, &op)| (t, op)))
            }
        }
    }

    /// Number of active tokens owned by `who`. The flat backend scans the
    /// dense slab linearly (cache-friendly, no tree pointer chasing).
    pub fn balance_of(&self, who: Address) -> u64 {
        match self {
            TokenTable::Flat { recs, .. } => {
                recs.values_unordered().filter(|r| r.owner == who).count() as u64
            }
            TokenTable::BTree { owners, .. } => {
                owners.values().filter(|&&o| o == who).count() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    fn both() -> [TokenTable; 2] {
        [
            TokenTable::new(StorageBackend::Arena),
            TokenTable::new(StorageBackend::BTree),
        ]
    }

    #[test]
    fn backends_agree_on_basic_lifecycle() {
        for mut t in both() {
            t.set_owner(TokenId::new(3), addr(1));
            t.set_owner(TokenId::new(1), addr(2));
            t.set_approval(TokenId::new(3), Some(addr(9)));
            assert_eq!(t.active_count(), 2);
            assert_eq!(t.approval_count(), 1);
            assert_eq!(t.owner_of(TokenId::new(3)), Some(addr(1)));
            assert_eq!(t.approved(TokenId::new(3)), Some(addr(9)));
            assert_eq!(t.approved(TokenId::new(1)), None);
            let pairs: Vec<_> = t.iter().collect();
            assert_eq!(
                pairs,
                vec![(TokenId::new(1), addr(2)), (TokenId::new(3), addr(1))]
            );
            t.set_approval(TokenId::new(3), None);
            assert_eq!(t.approval_count(), 0);
            t.remove(TokenId::new(3));
            assert_eq!(t.active_count(), 1);
            assert!(!t.contains(TokenId::new(3)));
        }
    }

    #[test]
    fn remove_drops_approval_with_token() {
        for mut t in both() {
            t.set_owner(TokenId::new(0), addr(1));
            t.set_approval(TokenId::new(0), Some(addr(9)));
            t.remove(TokenId::new(0));
            assert_eq!(t.approval_count(), 0);
            // Re-mint: no stale approval resurfaces.
            t.set_owner(TokenId::new(0), addr(2));
            assert_eq!(t.approved(TokenId::new(0)), None);
        }
    }

    #[test]
    fn balance_scan_agrees_across_backends() {
        let mut flat = TokenTable::new(StorageBackend::Arena);
        let mut tree = TokenTable::new(StorageBackend::BTree);
        for i in 0..100u64 {
            let owner = addr(i % 7);
            flat.set_owner(TokenId::new(i), owner);
            tree.set_owner(TokenId::new(i), owner);
        }
        for w in 0..7u64 {
            assert_eq!(flat.balance_of(addr(w)), tree.balance_of(addr(w)));
        }
        let f: Vec<_> = flat.iter().collect();
        let t: Vec<_> = tree.iter().collect();
        assert_eq!(f, t);
    }
}
