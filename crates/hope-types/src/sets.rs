//! Dependency-tracking sets.
//!
//! HOPE's bookkeeping is entirely set-algebraic: each interval keeps an
//! `IDO` (I Depend On), `UDO` (Used to Depend On), `IHA` (I Have Affirmed)
//! and `IHD` (I Have Denied) set, and each AID process keeps a `DOM`
//! (Depends On Me) and `A_IDO` (Affirm-I-Depend-On) set. All of them are
//! kept as sorted sequences ([`IdSet`]), which keeps iteration order
//! deterministic — essential for the reproducible simulator.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::{AidId, IntervalId};

/// Small sets (the common case: a speculative interval typically holds a
/// handful of assumptions) live inline without any heap allocation.
const INLINE_CAP: usize = 4;

/// A sorted set of copyable ids with deterministic iteration order.
///
/// Used for every dependency set in the HOPE algorithm. Three storage
/// tiers keep both the common small case and the cumulative-IDO case
/// cheap:
///
/// - `Empty` — no allocation at all (and `const`-constructible);
/// - `Inline` — up to [`INLINE_CAP`] members stored in place;
/// - `Shared` — an `Arc`'d sorted vector, so cloning a large cumulative
///   set (interval inheritance) is `O(1)` and copy-on-write: the clone
///   only pays for a deep copy if it later mutates.
///
/// Binary operations (`union`, `difference`, `intersection`, `extend`)
/// are linear two-pointer merges over the sorted representations — the
/// old insert-loop paths were `O(n·m)` with element shifting.
///
/// # Examples
///
/// ```
/// use hope_types::IdSet;
///
/// let mut s: IdSet<u32> = [3, 1, 2].into_iter().collect();
/// assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
/// assert!(s.insert(4));
/// assert!(!s.insert(4)); // already present
/// assert!(s.remove(&1));
/// assert!(!s.contains(&1));
/// ```
pub struct IdSet<T> {
    repr: Repr<T>,
}

enum Repr<T> {
    Empty,
    /// `len` live members in `items[..len]`; the tail slots are padding
    /// (copies of a live member) so the array is always fully initialized.
    Inline {
        len: u8,
        items: [T; INLINE_CAP],
    },
    Shared(Arc<Vec<T>>),
}

/// The paper's `IDO` / `UDO` / `A_IDO` / `IHA` / `IHD` sets: sets of
/// assumption identifiers.
pub type IdoSet = IdSet<AidId>;

/// The paper's `DOM` set: the intervals contingent on an AID.
pub type IntervalSet = IdSet<IntervalId>;

impl<T> IdSet<T> {
    /// Creates an empty set.
    pub const fn new() -> Self {
        IdSet { repr: Repr::Empty }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared(v) => v.len(),
        }
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// Members as an ordered slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Shared(v) => v,
        }
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.repr = Repr::Empty;
    }

    /// True when `self` and `other` share the same heap storage (both are
    /// `Shared` over the same allocation). Diagnostic only: lets tests
    /// assert that interval inheritance is copy-on-write rather than a
    /// deep clone.
    #[doc(hidden)]
    pub fn shares_storage(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True when the set's heap storage has another owner, so the next
    /// `insert` or `remove` that changes it deep-copies it first.
    /// Diagnostic only: the HOPElib counts those copies.
    #[doc(hidden)]
    pub fn is_shared(&self) -> bool {
        matches!(&self.repr, Repr::Shared(v) if Arc::strong_count(v) > 1)
    }
}

impl<T: Ord + Copy> IdSet<T> {
    /// Builds a set from a vector that is already sorted and deduplicated,
    /// choosing the cheapest representation for its size.
    fn from_sorted_vec(items: Vec<T>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        match items.len() {
            0 => IdSet::new(),
            n if n <= INLINE_CAP => {
                let mut arr = [items[0]; INLINE_CAP];
                arr[..n].copy_from_slice(&items);
                IdSet {
                    repr: Repr::Inline {
                        len: n as u8,
                        items: arr,
                    },
                }
            }
            _ => IdSet {
                repr: Repr::Shared(Arc::new(items)),
            },
        }
    }

    /// Inserts `item`; returns `true` if it was not already present.
    pub fn insert(&mut self, item: T) -> bool {
        match &mut self.repr {
            Repr::Empty => {
                self.repr = Repr::Inline {
                    len: 1,
                    items: [item; INLINE_CAP],
                };
                true
            }
            Repr::Inline { len, items } => {
                let n = *len as usize;
                match items[..n].binary_search(&item) {
                    Ok(_) => false,
                    Err(pos) if n < INLINE_CAP => {
                        items.copy_within(pos..n, pos + 1);
                        items[pos] = item;
                        *len += 1;
                        true
                    }
                    Err(pos) => {
                        // Inline is full: promote to shared storage.
                        let mut v = Vec::with_capacity(n + 1);
                        v.extend_from_slice(&items[..pos]);
                        v.push(item);
                        v.extend_from_slice(&items[pos..n]);
                        self.repr = Repr::Shared(Arc::new(v));
                        true
                    }
                }
            }
            Repr::Shared(v) => match v.binary_search(&item) {
                Ok(_) => false,
                Err(pos) => {
                    Arc::make_mut(v).insert(pos, item);
                    true
                }
            },
        }
    }

    /// Removes `item`; returns `true` if it was present.
    pub fn remove(&mut self, item: &T) -> bool {
        match &mut self.repr {
            Repr::Empty => false,
            Repr::Inline { len, items } => {
                let n = *len as usize;
                match items[..n].binary_search(item) {
                    Ok(pos) => {
                        items.copy_within(pos + 1..n, pos);
                        *len -= 1;
                        if *len == 0 {
                            self.repr = Repr::Empty;
                        }
                        true
                    }
                    Err(_) => false,
                }
            }
            Repr::Shared(v) => match v.binary_search(item) {
                Ok(pos) => {
                    Arc::make_mut(v).remove(pos);
                    if v.is_empty() {
                        self.repr = Repr::Empty;
                    }
                    true
                }
                Err(_) => false,
            },
        }
    }

    /// True if `item` is a member.
    pub fn contains(&self, item: &T) -> bool {
        self.as_slice().binary_search(item).is_ok()
    }

    /// Set union, consuming neither operand: a linear two-pointer merge.
    pub fn union(&self, other: &Self) -> Self {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        IdSet::from_sorted_vec(out)
    }

    /// Set difference `self \ other`: a linear two-pointer merge.
    pub fn difference(&self, other: &Self) -> Self {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::new();
        let mut j = 0;
        for &item in a {
            while j < b.len() && b[j] < item {
                j += 1;
            }
            if j >= b.len() || b[j] != item {
                out.push(item);
            }
        }
        IdSet::from_sorted_vec(out)
    }

    /// Set intersection: a linear two-pointer merge.
    pub fn intersection(&self, other: &Self) -> Self {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        IdSet::from_sorted_vec(out)
    }

    /// True if every member of `self` is in `other`: a linear scan over
    /// both sorted slices.
    pub fn is_subset(&self, other: &Self) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        if a.len() > b.len() {
            return false;
        }
        let mut j = 0;
        for item in a {
            while j < b.len() && b[j] < *item {
                j += 1;
            }
            if j >= b.len() || b[j] != *item {
                return false;
            }
            j += 1;
        }
        true
    }

    /// True if the two sets share no members: a linear scan.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return false,
            }
        }
        true
    }

    /// Builds a set with a single member.
    pub fn singleton(item: T) -> Self {
        IdSet {
            repr: Repr::Inline {
                len: 1,
                items: [item; INLINE_CAP],
            },
        }
    }
}

impl<T: Clone> Clone for IdSet<T> {
    fn clone(&self) -> Self {
        IdSet {
            repr: match &self.repr {
                Repr::Empty => Repr::Empty,
                Repr::Inline { len, items } => Repr::Inline {
                    len: *len,
                    items: items.clone(),
                },
                // O(1): bump the refcount; a later mutation copies on write.
                Repr::Shared(v) => Repr::Shared(Arc::clone(v)),
            },
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for IdSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq> PartialEq for IdSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shares_storage(other) || self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for IdSet<T> {}

impl<T: PartialOrd> PartialOrd for IdSet<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Ord> Ord for IdSet<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

// Hash the logical slice (length prefix + members), independent of the
// storage tier — identical to the previous sorted-`Vec` derive, so state
// fingerprints (`sched.rs` content hashes, runtime `state_hash`) are
// unchanged by the representation switch.
impl<T: Hash> Hash for IdSet<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T> Default for IdSet<T> {
    fn default() -> Self {
        IdSet::new()
    }
}

impl<T: Ord + Copy> FromIterator<T> for IdSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        // Members go in place until the inline tier is full, so a small
        // set allocates nothing; a larger one is collected and sorted once.
        let mut iter = iter.into_iter();
        let mut set = IdSet::new();
        while set.len() < INLINE_CAP {
            match iter.next() {
                Some(item) => set.insert(item),
                None => return set,
            };
        }
        let Some(next) = iter.next() else {
            return set;
        };
        let mut items: Vec<T> = set.iter().copied().chain([next]).chain(iter).collect();
        items.sort_unstable();
        items.dedup();
        IdSet::from_sorted_vec(items)
    }
}

impl<T: Ord + Copy> Extend<T> for IdSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let incoming: IdSet<T> = iter.into_iter().collect();
        if incoming.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = incoming;
        } else if !incoming.is_subset(self) {
            *self = self.union(&incoming);
        }
    }
}

impl<'a, T> IntoIterator for &'a IdSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Ord + Copy> IntoIterator for IdSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        match self.repr {
            Repr::Empty => Vec::new().into_iter(),
            Repr::Inline { len, items } => Vec::from(&items[..len as usize]).into_iter(),
            Repr::Shared(v) => Arc::try_unwrap(v)
                .unwrap_or_else(|shared| (*shared).clone())
                .into_iter(),
        }
    }
}

impl<T: fmt::Display> fmt::Display for IdSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    fn aid(n: u64) -> AidId {
        AidId::from_raw(ProcessId::from_raw(n))
    }

    #[test]
    fn insert_keeps_sorted_unique() {
        let mut s = IdSet::new();
        assert!(s.insert(5u32));
        assert!(s.insert(1));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn remove_and_contains() {
        let mut s: IdSet<u32> = [1, 2, 3].into_iter().collect();
        assert!(s.remove(&2));
        assert!(!s.remove(&2));
        assert!(s.contains(&1));
        assert!(!s.contains(&2));
        assert!(s.contains(&3));
    }

    #[test]
    fn union_difference_intersection() {
        let a: IdSet<u32> = [1, 2, 3].into_iter().collect();
        let b: IdSet<u32> = [3, 4].into_iter().collect();
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 4]);
        assert_eq!(a.difference(&b).as_slice(), &[1, 2]);
        assert_eq!(a.intersection(&b).as_slice(), &[3]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a: IdSet<u32> = [1, 2].into_iter().collect();
        let b: IdSet<u32> = [1, 2, 3].into_iter().collect();
        let c: IdSet<u32> = [9].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(IdSet::<u32>::new().is_subset(&a));
    }

    #[test]
    fn clear_and_empty() {
        let mut s: IdSet<u32> = [1].into_iter().collect();
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, IdSet::default());
    }

    #[test]
    fn singleton_constructor() {
        let s = IdSet::singleton(7u32);
        assert_eq!(s.as_slice(), &[7]);
    }

    #[test]
    fn extend_and_collect_with_aids() {
        let mut s: IdoSet = [aid(3), aid(1)].into_iter().collect();
        s.extend([aid(2), aid(1)]);
        assert_eq!(s.as_slice(), &[aid(1), aid(2), aid(3)]);
        // Duplicates on both sides of the inline tier's edge.
        let small: IdSet<u32> = [4, 1, 4, 1, 2, 3, 3].into_iter().collect();
        assert_eq!(small.as_slice(), &[1, 2, 3, 4]);
        let large: IdSet<u32> = [5, 1, 5, 1, 2, 3, 3, 4, 0, 2].into_iter().collect();
        assert_eq!(large.as_slice(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(large, (0..6).collect());
    }

    #[test]
    fn display_format() {
        let s: IdoSet = [aid(1), aid(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{X1, X2}");
        assert_eq!(IdoSet::new().to_string(), "{}");
    }

    #[test]
    fn into_iter_orders() {
        let s: IdSet<u32> = [3, 1].into_iter().collect();
        let v: Vec<u32> = s.into_iter().collect();
        assert_eq!(v, vec![1, 3]);
    }

    #[test]
    fn inline_promotes_to_shared_and_back_compares_equal() {
        // Fill past the inline capacity, then drain back down; membership
        // and ordering must be identical at every size, and equality must
        // ignore the storage tier.
        let mut s: IdSet<u32> = IdSet::new();
        for i in (0..12u32).rev() {
            assert!(s.insert(i));
        }
        assert_eq!(s.as_slice(), (0..12).collect::<Vec<_>>().as_slice());
        for i in 0..8u32 {
            assert!(s.remove(&i));
        }
        let small: IdSet<u32> = [8, 9, 10, 11].into_iter().collect();
        assert_eq!(s, small);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn clone_of_large_set_shares_storage_until_mutation() {
        let big: IdSet<u32> = (0..32).collect();
        let cloned = big.clone();
        assert!(big.shares_storage(&cloned), "clone must be O(1) COW");
        assert!(big.is_shared() && cloned.is_shared());
        let mut mutated = cloned.clone();
        mutated.insert(100);
        assert!(!big.shares_storage(&mutated), "mutation must unshare");
        assert!(!mutated.is_shared(), "the copy has one owner");
        drop(cloned);
        assert!(!big.is_shared(), "the last owner");
        let small: IdSet<u32> = (0..3).collect();
        assert!(!small.clone().is_shared(), "inline sets own their members");
        assert_eq!(big.len(), 32);
        assert_eq!(mutated.len(), 33);
    }

    #[test]
    fn hash_is_storage_tier_independent() {
        use std::collections::hash_map::DefaultHasher;
        fn fingerprint<T: Hash>(value: &T) -> u64 {
            let mut h = DefaultHasher::new();
            value.hash(&mut h);
            h.finish()
        }
        // Same logical contents via different construction paths (and so
        // potentially different storage tiers) must hash identically.
        let grown: IdSet<u32> = {
            let mut s: IdSet<u32> = (0..10).collect();
            for i in 3..10u32 {
                s.remove(&i);
            }
            s
        };
        let direct: IdSet<u32> = [0, 1, 2].into_iter().collect();
        assert_eq!(grown, direct);
        assert_eq!(fingerprint(&grown), fingerprint(&direct));
    }

    #[test]
    fn extend_with_subset_is_noop_and_keeps_sharing() {
        let big: IdSet<u32> = (0..32).collect();
        let mut clone = big.clone();
        clone.extend([3u32, 7, 9]);
        assert!(big.shares_storage(&clone), "subset extend must not copy");
        clone.extend([99u32]);
        assert!(clone.contains(&99));
        assert!(!big.contains(&99));
    }
}
