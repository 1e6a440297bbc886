//! The set of things that hold work this cycle.
//!
//! An [`ActiveSet`] is a fixed-universe bitset over `0..n` (one `u64`
//! word per 64 members) with O(1) insert, remove and emptiness, and
//! iteration in ascending order. The engine keeps one per band for
//! routers with buffered flits (owned by the
//! [`RouterBank`](crate::router::RouterBank)) and one for NICs with an
//! injection backlog, so a cycle visits what holds work instead of
//! sweeping the fabric.
//!
//! Iteration hands out one word at a time *by value* ([`ActiveSet::word`]
//! returns an owned [`Bits`]), so the loop body is free to remove the
//! member it is visiting — a router that drains, a NIC whose backlog
//! empties — without invalidating the walk. Ascending bit order is the
//! order a `for i in 0..n` sweep with an "is it idle?" early-continue
//! visits the same members in, which is why replacing such a sweep with
//! the set cannot reorder any downstream event.

/// A bitset over `0..n` that knows in O(1) whether it is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// The empty set over the universe `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ActiveSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Add `i`; a no-op if already present.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies beyond the last word of the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Remove `i`; a no-op if absent.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies beyond the last word of the universe.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// `true` when the set has no members (O(1)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-member words the universe spans.
    #[must_use]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The members in word `w`, ascending, as a copy: removing members
    /// while walking it is fine (and does not shorten the walk).
    #[inline]
    #[must_use]
    pub fn word(&self, w: usize) -> Bits {
        Bits {
            word: self.words[w],
            base: w * 64,
        }
    }

    /// All members, ascending.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.words.len()).flat_map(|w| self.word(w))
    }
}

/// The members of one [`ActiveSet`] word, ascending.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bits {
    word: u64,
    base: usize,
}

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let i = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_universe_is_empty() {
        let s = ActiveSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.num_words(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn removing_the_visited_member_does_not_disturb_the_walk() {
        let mut s = ActiveSet::new(130);
        for i in [0, 5, 63, 64, 129] {
            s.insert(i);
        }
        let mut seen = Vec::new();
        for w in 0..s.num_words() {
            for i in s.word(w) {
                seen.push(i);
                s.remove(i);
            }
        }
        assert_eq!(seen, [0, 5, 63, 64, 129]);
        assert!(s.is_empty());
    }

    proptest! {
        #[test]
        fn matches_a_btreeset_model(
            size in prop::sample::select(vec![1usize, 63, 64, 65, 4096]),
            ops in prop::collection::vec((0u8..2, 0usize..1 << 20), 0..200),
        ) {
            let mut set = ActiveSet::new(size);
            let mut model = BTreeSet::new();
            prop_assert!(set.is_empty());
            for (insert, raw) in ops {
                let i = raw % size;
                if insert == 1 {
                    set.insert(i);
                    model.insert(i);
                } else {
                    set.remove(i);
                    model.remove(&i);
                }
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert!(set.iter().eq(model.iter().copied()));
            }
        }
    }
}
