//! A copy-on-write paged vector: the storage under the world state's
//! million-record tables and commitment trees.
//!
//! [`PagedVec`] keeps its elements in fixed pages of [`PAGE_LEN`] elements.
//! Every full page sits behind an [`Arc`], so `clone` copies one pointer per
//! page, and the first write to a page that a clone still shares copies that
//! page alone. The last page is a plain `Vec` that grows like one, so a small
//! vector is a single small allocation and a clone copies at most one page.
//!
//! Forking a 10⁶-account `L2State` therefore costs a few thousand pointer
//! copies instead of a deep copy of the account table and commitment tree;
//! a fork that writes `k` records afterwards owns `O(k)` pages of its own
//! and shares the rest with its parent.
//!
//! Reads cost one more dependent load than a `Vec` (the page pointer, from a
//! table of `len / PAGE_LEN` entries that stays cache-resident at this
//! scale). Writes to a full page pay one atomic uniqueness check, and a copy
//! of the page when it is shared.
//!
//! # Example
//!
//! ```
//! use parole_primitives::{PagedVec, PAGE_LEN};
//! let mut a: PagedVec<u64> = (0..3 * PAGE_LEN as u64 + 1).collect();
//! let b = a.clone(); // three page pointers and a one-element last page
//! a[5] = 99; // copies page 0 of `a`; `b` keeps the original
//! assert_eq!((a[5], b[5]), (99, 5));
//! assert_eq!(a.shared_pages(&b), (2, 3));
//! ```

use std::ops::{Index, IndexMut};
use std::sync::Arc;

const PAGE_SHIFT: u32 = 10;

/// Elements per page of a [`PagedVec`]: the unit a fork copies on its first
/// write.
pub const PAGE_LEN: usize = 1 << PAGE_SHIFT;

const PAGE_MASK: usize = PAGE_LEN - 1;

/// A vector stored as copy-on-write pages. See the [module docs](self).
///
/// Invariant: every page in `sealed` holds exactly [`PAGE_LEN`] elements,
/// and `tail` holds at most [`PAGE_LEN`] (it is sealed when a push finds it
/// full, and refilled from the last sealed page when a pop finds it empty,
/// so push/pop at a page boundary never copies pages back and forth).
#[derive(Clone)]
pub struct PagedVec<T> {
    sealed: Vec<Arc<[T]>>,
    tail: Vec<T>,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PagedVec<T> {
    /// An empty vector (no allocation).
    pub const fn new() -> Self {
        PagedVec {
            sealed: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// An empty vector whose last page has room for `cap` elements (at most
    /// one page) without reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        PagedVec {
            sealed: Vec::new(),
            tail: Vec::with_capacity(cap.min(PAGE_LEN)),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.sealed.len() * PAGE_LEN + self.tail.len()
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// The element at `index`, if in bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        let page = index >> PAGE_SHIFT;
        match self.sealed.get(page) {
            Some(p) => Some(&p[index & PAGE_MASK]),
            None if page == self.sealed.len() => self.tail.get(index & PAGE_MASK),
            None => None,
        }
    }

    /// Appends an element. Amortized O(1): a full last page is copied
    /// behind an `Arc` once, and a fresh one started.
    pub fn push(&mut self, value: T) {
        if self.tail.len() == PAGE_LEN {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(PAGE_LEN));
            self.sealed.push(full.into());
        }
        self.tail.push(value);
    }

    /// Drops every element.
    pub fn clear(&mut self) {
        self.sealed.clear();
        self.tail.clear();
    }

    /// The elements page by page, as slices, in order.
    pub fn pages(&self) -> impl Iterator<Item = &[T]> + '_ {
        self.sealed
            .iter()
            .map(|p| &p[..])
            .chain(std::iter::once(self.tail.as_slice()))
    }

    /// The elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.pages().flatten()
    }

    /// `(shared, total)`: how many of this vector's full pages are stored
    /// at the same address in `other` (pages one was cloned from the other
    /// with, and neither has written since), out of how many it has. Test
    /// hook for copy-on-write sharing; the last page is never shared.
    #[doc(hidden)]
    pub fn shared_pages(&self, other: &Self) -> (usize, usize) {
        let shared = self
            .sealed
            .iter()
            .zip(&other.sealed)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.sealed.len())
    }

    /// Binary search over a vector sorted by `Ord`, with the same contract
    /// as [`slice::binary_search`]: one search over the pages' last
    /// elements, then one inside the page.
    pub fn binary_search(&self, x: &T) -> Result<usize, usize>
    where
        T: Ord,
    {
        let page = self.sealed.partition_point(|p| p[PAGE_MASK] < *x);
        let slice: &[T] = self.sealed.get(page).map_or(&self.tail, |p| p);
        let base = page * PAGE_LEN;
        slice
            .binary_search(x)
            .map(|i| base + i)
            .map_err(|i| base + i)
    }
}

impl<T: Clone> PagedVec<T> {
    /// Mutable access to the element at `index`, copying its page first if
    /// a clone still shares it.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        let page = index >> PAGE_SHIFT;
        if page < self.sealed.len() {
            Some(&mut Arc::make_mut(&mut self.sealed[page])[index & PAGE_MASK])
        } else if page == self.sealed.len() {
            self.tail.get_mut(index & PAGE_MASK)
        } else {
            None
        }
    }

    /// Moves the last sealed page back into the (empty) tail.
    fn unseal_last(&mut self) {
        debug_assert!(self.tail.is_empty());
        if let Some(page) = self.sealed.pop() {
            self.tail = page.to_vec();
        }
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.tail.is_empty() {
            self.unseal_last();
        }
        self.tail.pop()
    }

    /// Removes the element at `index`, replacing it with the last one —
    /// O(1), like [`Vec::swap_remove`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn swap_remove(&mut self, index: usize) -> T {
        let len = self.len();
        assert!(
            index < len,
            "swap_remove index {index} out of bounds (len {len})"
        );
        let last = self.pop().expect("non-empty");
        if index == len - 1 {
            last
        } else {
            std::mem::replace(&mut self[index], last)
        }
    }

    /// Inserts `value` before position `index`, shifting later elements
    /// right: O(len − index), touching (and unsharing) every page from
    /// `index` on.
    ///
    /// # Panics
    ///
    /// Panics when `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        let len = self.len();
        assert!(
            index <= len,
            "insert index {index} out of bounds (len {len})"
        );
        if index == len {
            self.push(value);
            return;
        }
        // Each page from `index` on takes the carried element in and hands
        // its last element on to the next page.
        let mut carry = value;
        let mut offset = index & PAGE_MASK;
        for page in &mut self.sealed[index >> PAGE_SHIFT..] {
            let page = Arc::make_mut(page);
            page[offset..].rotate_right(1);
            std::mem::swap(&mut page[offset], &mut carry);
            offset = 0;
        }
        self.tail.insert(offset, carry);
        if self.tail.len() > PAGE_LEN {
            let spill = self.tail.pop().expect("over-full tail");
            self.push(spill);
        }
    }

    /// Removes and returns the element at `index`, shifting later elements
    /// left: O(len − index), touching (and unsharing) every page from
    /// `index` on.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        let len = self.len();
        assert!(
            index < len,
            "remove index {index} out of bounds (len {len})"
        );
        if self.tail.is_empty() {
            self.unseal_last();
        }
        let first_page = index >> PAGE_SHIFT;
        if first_page == self.sealed.len() {
            return self.tail.remove(index & PAGE_MASK);
        }
        // Walk back from the tail: each page gives its first element to the
        // page before it.
        let mut carry = self.tail.remove(0);
        for (i, page) in self.sealed[first_page..].iter_mut().enumerate().rev() {
            let offset = if i == 0 { index & PAGE_MASK } else { 0 };
            let page = Arc::make_mut(page);
            page[offset..].rotate_left(1);
            std::mem::swap(&mut page[PAGE_MASK], &mut carry);
        }
        carry
    }

    /// Shortens the vector to `len` elements (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let keep = len >> PAGE_SHIFT;
        if keep < self.sealed.len() {
            self.tail = self.sealed[keep][..len & PAGE_MASK].to_vec();
            self.sealed.truncate(keep);
        } else {
            self.tail.truncate(len & PAGE_MASK);
        }
    }

    /// The elements as one contiguous `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T> Index<usize> for PagedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        match self.get(index) {
            Some(v) => v,
            None => panic!("index {index} out of bounds (len {})", self.len()),
        }
    }
}

impl<T: Clone> IndexMut<usize> for PagedVec<T> {
    /// Copies the element's page first if a clone still shares it.
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut T {
        let len = self.len();
        match self.get_mut(index) {
            Some(v) => v,
            None => panic!("index {index} out of bounds (len {len})"),
        }
    }
}

impl<T> Extend<T> for PagedVec<T> {
    /// Appends in order, sealing each page as it fills — no per-element
    /// copy-on-write check.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T> FromIterator<T> for PagedVec<T> {
    /// Builds the pages directly (see [`Extend`]).
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = PagedVec::new();
        out.extend(iter);
        out
    }
}

impl<T: Clone> From<Vec<T>> for PagedVec<T> {
    /// Pages a `Vec` with one copy per page, no per-element push.
    fn from(mut v: Vec<T>) -> Self {
        let tail = v.split_off(v.len() / PAGE_LEN * PAGE_LEN);
        PagedVec {
            sealed: v.chunks(PAGE_LEN).map(Arc::from).collect(),
            tail,
        }
    }
}

impl<T: PartialEq> PartialEq for PagedVec<T> {
    /// Element-wise equality; pages the two still share compare by address.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .sealed
                .iter()
                .zip(&other.sealed)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a[..] == b[..])
            && self.tail == other.tail
    }
}

impl<T: Eq> Eq for PagedVec<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for PagedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove_cross_page_boundaries() {
        let n = 3 * PAGE_LEN as u64;
        for at in [0, 1, PAGE_LEN - 1, PAGE_LEN, 2 * PAGE_LEN + 7, 3 * PAGE_LEN] {
            let mut v: Vec<u64> = (0..n).collect();
            let mut p: PagedVec<u64> = v.iter().copied().collect();
            v.insert(at, 999);
            p.insert(at, 999);
            assert_eq!(p.to_vec(), v, "insert at {at}");
            v.remove(at);
            p.remove(at);
            assert_eq!(p.to_vec(), v, "remove at {at}");
        }
    }

    #[test]
    fn writes_after_clone_copy_one_page() {
        let mut a: PagedVec<u32> = (0..4 * PAGE_LEN as u32 + 1).collect();
        let b = a.clone();
        assert_eq!(a.shared_pages(&b), (4, 4));
        a[PAGE_LEN + 3] = 7;
        a[PAGE_LEN + 4] = 8;
        assert_eq!(a.shared_pages(&b), (3, 4));
        assert_eq!(b[PAGE_LEN + 3], PAGE_LEN as u32 + 3);
        assert_ne!(a, b);
    }

    #[test]
    fn binary_search_matches_slice() {
        let v: Vec<u32> = (0..2 * PAGE_LEN as u32 + 5).map(|i| 2 * i).collect();
        let p: PagedVec<u32> = v.iter().copied().collect();
        for x in 0..v.len() as u32 * 2 + 3 {
            assert_eq!(p.binary_search(&x), v.binary_search(&x), "x={x}");
        }
    }
}
