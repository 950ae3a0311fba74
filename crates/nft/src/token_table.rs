//! Per-collection token storage.
//!
//! [`TokenTable`] holds every *active* token's `(owner, approved)` record:
//! a dense slab of `(TokenId, owner, approved)` records behind an
//! open-addressing index ([`parole_primitives::FlatMap`]), plus a running
//! approval count so `approval_count` stays O(1).
//!
//! Encoding note: the record stores "no approval" as [`Address::ZERO`].
//! This cannot collide with a real operator because ERC-721 semantics treat
//! approving the zero address as *clearing* the approval (and
//! `Collection::approve` enforces exactly that), so a stored approval is
//! always non-zero. The table therefore exposes an `Option<Address>` view,
//! iterates in token-id order, and commits to the same preimages a
//! `(owners, approvals)` map pair would.

use parole_primitives::{Address, FlatMap, TokenId};

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
/// [module docs](self). Equality is content equality: the same active
/// tokens with the same owners and approvals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenTable {
    /// The `(TokenId → TokenRec)` arena.
    recs: FlatMap<TokenId, TokenRec>,
    /// Number of records with a non-zero `approved` field.
    approvals: u64,
}

impl TokenTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active tokens.
    pub fn active_count(&self) -> usize {
        self.recs.len()
    }

    /// Whether `token` is active.
    pub fn contains(&self, token: TokenId) -> bool {
        self.recs.contains_key(&token)
    }

    /// Owner of `token`, if active.
    pub fn owner_of(&self, token: TokenId) -> Option<Address> {
        self.recs.get(&token).map(|r| r.owner)
    }

    /// Approved operator for `token`, if any.
    pub fn approved(&self, token: TokenId) -> Option<Address> {
        self.recs
            .get(&token)
            .map(|r| r.approved)
            .filter(|a| !a.is_zero())
    }

    /// Number of outstanding approvals.
    pub fn approval_count(&self) -> u64 {
        self.approvals
    }

    /// Sets (mint) or replaces (transfer) the owner of `token`, keeping any
    /// outstanding approval untouched — callers clear approvals explicitly.
    pub fn set_owner(&mut self, token: TokenId, owner: Address) {
        match self.recs.get_mut(&token) {
            Some(rec) => rec.owner = owner,
            None => {
                self.recs.insert(
                    token,
                    TokenRec {
                        owner,
                        approved: Address::ZERO,
                    },
                );
            }
        }
    }

    /// Sets (`Some`) or clears (`None`) the approved operator for `token`.
    /// A no-op if the token is inactive (the collection layer never
    /// approves inactive tokens).
    pub fn set_approval(&mut self, token: TokenId, operator: Option<Address>) {
        let Some(rec) = self.recs.get_mut(&token) else {
            return;
        };
        let had = !rec.approved.is_zero();
        match operator {
            Some(op) => {
                debug_assert!(!op.is_zero(), "approve(ZERO) must clear, not set");
                if !had {
                    self.approvals += 1;
                }
                rec.approved = op;
            }
            None => {
                if had {
                    self.approvals -= 1;
                }
                rec.approved = Address::ZERO;
            }
        }
    }

    /// Deactivates `token` (burn), dropping its approval with it.
    pub fn remove(&mut self, token: TokenId) {
        if let Some(rec) = self.recs.remove(&token) {
            if !rec.approved.is_zero() {
                self.approvals -= 1;
            }
        }
    }

    /// `(token, owner)` pairs of active tokens in token-id order — the
    /// iteration the commitment sub-trees hash, so it must be deterministic.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, Address)> + '_ {
        self.recs.iter_sorted().map(|(&t, r)| (t, r.owner))
    }

    /// `(token, operator)` pairs of outstanding approvals in token-id order.
    pub fn approvals_iter(&self) -> impl Iterator<Item = (TokenId, Address)> + '_ {
        self.recs
            .iter_sorted()
            .filter(|(_, r)| !r.approved.is_zero())
            .map(|(&t, r)| (t, r.approved))
    }

    /// Number of active tokens owned by `who`: a linear scan of the dense
    /// slab (cache-friendly, no tree pointer chasing).
    pub fn balance_of(&self, who: Address) -> u64 {
        self.recs
            .values_unordered()
            .filter(|r| r.owner == who)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    #[test]
    fn lifecycle_and_approval_count() {
        let mut t = TokenTable::new();
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
        let approvals: Vec<_> = t.approvals_iter().collect();
        assert_eq!(approvals, vec![(TokenId::new(3), addr(9))]);
        t.set_approval(TokenId::new(3), None);
        assert_eq!(t.approval_count(), 0);
        t.remove(TokenId::new(3));
        assert_eq!(t.active_count(), 1);
        assert!(!t.contains(TokenId::new(3)));
    }

    #[test]
    fn remove_drops_approval_with_token() {
        let mut t = TokenTable::new();
        t.set_owner(TokenId::new(0), addr(1));
        t.set_approval(TokenId::new(0), Some(addr(9)));
        t.remove(TokenId::new(0));
        assert_eq!(t.approval_count(), 0);
        // Re-mint: no stale approval resurfaces.
        t.set_owner(TokenId::new(0), addr(2));
        assert_eq!(t.approved(TokenId::new(0)), None);
    }

    #[test]
    fn balance_scan_counts_owned_tokens() {
        let mut t = TokenTable::new();
        for i in 0..100u64 {
            t.set_owner(TokenId::new(i), addr(i % 7));
        }
        for w in 0..7u64 {
            let want = (0..100u64).filter(|i| i % 7 == w).count() as u64;
            assert_eq!(t.balance_of(addr(w)), want);
        }
        let ids: Vec<u64> = t.iter().map(|(tok, _)| tok.value()).collect();
        assert_eq!(ids, (0..100u64).collect::<Vec<_>>(), "token-id order");
    }
}
