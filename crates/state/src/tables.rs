//! The world state's two hot tables, accounts and collections.
//!
//! Both are flat arenas ([`parole_primitives::FlatMap`]): an
//! open-addressing index over dense key and record slabs, all three in
//! copy-on-write pages, so a cloned table shares every page it has not
//! written. Iteration in address order — the order the commitment layer
//! hashes — is `FlatMap::iter_sorted`; equality and serialization are
//! content-based, so a table encodes as the sorted map a `BTreeMap` of the
//! same entries would.

use crate::AccountState;
use parole_nft::Collection;
use parole_primitives::{Address, FlatMap};

/// Address → account balance and nonce.
pub(crate) type AccountTable = FlatMap<Address, AccountState>;

/// Address → deployed ERC-721 collection.
pub(crate) type CollTable = FlatMap<Address, Collection>;

#[cfg(test)]
mod tests {
    use super::*;
    use parole_primitives::Wei;

    fn addr(v: u64) -> Address {
        Address::from_low_u64(v)
    }

    #[test]
    fn account_table_roundtrips_through_serde() {
        let mut table = AccountTable::new();
        for v in [7u64, 3, 9, 1, 100, 42] {
            table
                .get_or_insert_with(addr(v), AccountState::default)
                .0
                .balance += Wei::from_eth(v);
        }
        table.remove(&addr(9));
        let json = serde_json::to_string(&table).expect("serialize");
        let back: AccountTable = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(table, back);
        let want: Vec<_> = table.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        let got: Vec<_> = back.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "identical sorted contents");
        assert_eq!(serde_json::to_string(&back).expect("re-serialize"), json);
    }
}
