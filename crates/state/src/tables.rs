//! Dual-backend hot-state tables: accounts and collections.
//!
//! The million-account hot path stores both world-state maps as flat
//! arenas ([`parole_primitives::FlatMap`]): an open-addressing index over
//! dense key and record slabs, all three in copy-on-write pages, so a
//! cloned table shares every page it has not written. The
//! original `BTreeMap` layout is retained as an in-process baseline variant
//! so the traffic harness and the differential test suites can A/B both
//! layouts in a single run (`PAROLE_STATE_BACKEND` picks the process
//! default; explicit constructors override it per state).
//!
//! Both variants expose the same deterministic, address-sorted iteration —
//! the order the commitment layer hashes — so `state_root()`,
//! `state_root_naive()`, proofs and the dirty-tracking cache produce
//! bit-identical roots on either backend. Equality and serialization are
//! content-based and backend-independent for the same reason.

use crate::AccountState;
use parole_nft::Collection;
use parole_primitives::{Address, FlatMap, StorageBackend};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Generates the shared table plumbing for a `(Address → V)` world-state
/// map with flat-arena and BTreeMap variants.
macro_rules! table_impl {
    ($name:ident, $val:ty) => {
        impl $name {
            /// An empty table on the requested backend.
            pub(crate) fn new(backend: StorageBackend) -> Self {
                match backend {
                    StorageBackend::Arena => $name::Flat(FlatMap::new()),
                    StorageBackend::BTree => $name::BTree(BTreeMap::new()),
                }
            }

            /// Which layout this table uses.
            pub(crate) fn backend(&self) -> StorageBackend {
                match self {
                    $name::Flat(_) => StorageBackend::Arena,
                    $name::BTree(_) => StorageBackend::BTree,
                }
            }

            /// Number of records.
            pub(crate) fn len(&self) -> usize {
                match self {
                    $name::Flat(m) => m.len(),
                    $name::BTree(m) => m.len(),
                }
            }

            /// Whether `key` is present.
            #[allow(dead_code)] // used by only one of the two instantiations
            pub(crate) fn contains_key(&self, key: &Address) -> bool {
                match self {
                    $name::Flat(m) => m.contains_key(key),
                    $name::BTree(m) => m.contains_key(key),
                }
            }

            /// Shared reference to the record for `key`.
            pub(crate) fn get(&self, key: &Address) -> Option<&$val> {
                match self {
                    $name::Flat(m) => m.get(key),
                    $name::BTree(m) => m.get(key),
                }
            }

            /// Mutable reference to the record for `key`.
            #[allow(dead_code)] // used by only one of the two instantiations
            pub(crate) fn get_mut(&mut self, key: &Address) -> Option<&mut $val> {
                match self {
                    $name::Flat(m) => m.get_mut(key),
                    $name::BTree(m) => m.get_mut(key),
                }
            }

            /// Inserts or replaces the record for `key`.
            pub(crate) fn insert(&mut self, key: Address, val: $val) {
                match self {
                    $name::Flat(m) => {
                        m.insert(key, val);
                    }
                    $name::BTree(m) => {
                        m.insert(key, val);
                    }
                }
            }

            /// Removes the record for `key`.
            pub(crate) fn remove(&mut self, key: &Address) {
                match self {
                    $name::Flat(m) => {
                        m.remove(key);
                    }
                    $name::BTree(m) => {
                        m.remove(key);
                    }
                }
            }

            /// `(address, record)` pairs in address order — the iteration
            /// the commitment layer hashes, identical on both backends.
            pub(crate) fn iter_sorted(&self) -> Box<dyn Iterator<Item = (Address, &$val)> + '_> {
                match self {
                    $name::Flat(m) => Box::new(m.iter_sorted().map(|(&k, v)| (k, v))),
                    $name::BTree(m) => Box::new(m.iter().map(|(&k, v)| (k, v))),
                }
            }

            /// `(shared, total)` copy-on-write pages of this table that
            /// `other` stores at the same address; `(0, 0)` unless both are
            /// on the arena backend (`BTree` clones are deep).
            pub(crate) fn shared_pages(&self, other: &Self) -> (usize, usize) {
                match (self, other) {
                    ($name::Flat(a), $name::Flat(b)) => a.shared_pages(b),
                    _ => (0, 0),
                }
            }

            /// Record scan in unspecified order (dense-slab linear on the
            /// arena backend) — for order-insensitive folds only.
            pub(crate) fn values_unordered(&self) -> Box<dyn Iterator<Item = &$val> + '_> {
                match self {
                    $name::Flat(m) => Box::new(m.values_unordered()),
                    $name::BTree(m) => Box::new(m.values()),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::new(parole_primitives::storage_backend())
            }
        }

        impl PartialEq for $name {
            /// Content equality across backends: same sorted `(key, value)`
            /// sequence, regardless of layout.
            fn eq(&self, other: &Self) -> bool {
                self.len() == other.len() && self.iter_sorted().eq(other.iter_sorted())
            }
        }

        impl Serialize for $name {
            /// Address-sorted `[k, v]` entries — the same shape the vendored
            /// serde renders a `BTreeMap` as, so the L2State wire format is
            /// unchanged by the arena layout.
            fn to_value(&self) -> Value {
                Value::Map(
                    self.iter_sorted()
                        .map(|(k, v)| (k.to_value(), v.to_value()))
                        .collect(),
                )
            }
        }

        impl Deserialize for $name {
            /// Rebuilds on the process-default backend; equality is
            /// content-based, so round-trips compare equal either way.
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let entries = BTreeMap::<Address, $val>::from_value(value)?;
                let mut out = Self::new(parole_primitives::storage_backend());
                for (k, v) in entries {
                    out.insert(k, v);
                }
                Ok(out)
            }
        }
    };
}

/// The account ledger: `Address → AccountState` (balance + nonce).
///
/// The arena variant packs the account records contiguously in paged slabs
/// behind the flat map's open-addressing index.
#[derive(Debug, Clone)]
pub(crate) enum AccountTable {
    /// Dense slab + open-addressing interner.
    Flat(FlatMap<Address, AccountState>),
    /// Baseline map-of-structs layout.
    BTree(BTreeMap<Address, AccountState>),
}

table_impl!(AccountTable, AccountState);

impl AccountTable {
    /// Mutable record for `key`, inserting the default (zero balance, zero
    /// nonce) first if absent — the `entry().or_default()` of the hot
    /// credit/nonce paths — and whether it was inserted, so the caller can
    /// journal the prior record without a second lookup.
    pub(crate) fn or_default_mut(&mut self, key: Address) -> (&mut AccountState, bool) {
        match self {
            AccountTable::Flat(m) => m.get_or_insert_with(key, AccountState::default),
            AccountTable::BTree(m) => match m.entry(key) {
                Entry::Occupied(e) => (e.into_mut(), false),
                Entry::Vacant(e) => (e.insert(AccountState::default()), true),
            },
        }
    }
}

/// The collection registry: `Address → Collection`.
#[derive(Debug, Clone)]
pub(crate) enum CollTable {
    /// Dense slab + open-addressing interner.
    Flat(FlatMap<Address, Collection>),
    /// Baseline map-of-structs layout.
    BTree(BTreeMap<Address, Collection>),
}

table_impl!(CollTable, Collection);

#[cfg(test)]
mod tests {
    use super::*;
    use parole_primitives::Wei;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    #[test]
    fn account_tables_agree_across_backends() {
        let mut flat = AccountTable::new(StorageBackend::Arena);
        let mut tree = AccountTable::new(StorageBackend::BTree);
        for v in [7u64, 3, 9, 1, 100, 42] {
            flat.or_default_mut(addr(v)).0.balance += Wei::from_eth(v);
            tree.or_default_mut(addr(v)).0.balance += Wei::from_eth(v);
        }
        flat.remove(&addr(9));
        tree.remove(&addr(9));
        assert_eq!(flat, tree, "cross-backend content equality");
        let f: Vec<_> = flat.iter_sorted().map(|(k, v)| (k, *v)).collect();
        let t: Vec<_> = tree.iter_sorted().map(|(k, v)| (k, *v)).collect();
        assert_eq!(f, t, "identical sorted iteration");
        assert_eq!(
            serde_json::to_string(&flat.to_value()),
            serde_json::to_string(&tree.to_value()),
            "identical wire format"
        );
    }

    #[test]
    fn account_table_roundtrips_through_serde() {
        let mut flat = AccountTable::new(StorageBackend::Arena);
        flat.or_default_mut(addr(5)).0.balance = Wei::from_eth(2);
        let back = AccountTable::from_value(&flat.to_value()).unwrap();
        assert_eq!(flat, back);
    }
}
