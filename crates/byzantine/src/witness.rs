//! Witness sets as bitmaps indexed by member id.
//!
//! A Bracha vote is "member w echoed (or readied) digest d", so a set of
//! votes for one digest is a set of member ids — a [`WitnessSet`]. Merging
//! what a neighbor knows is a word-wise OR, counting a quorum is a
//! popcount, and "what does this peer still lack" is an AND-NOT: the
//! set-union gossip of [`crate::exchange`] is made of these three.
//!
//! Ids come off the wire, so nothing here trusts them: a set only grows
//! through [`WitnessSet::insert`] / [`WitnessSet::union_with`] on sets the
//! caller has already intersected with a roster, and the wire decoder
//! ([`WitnessSet::decode`]) refuses a length above the caller's bound
//! before it allocates.

use bytes::{BufMut, BytesMut};

/// Words kept in the set itself; a longer set spills to the heap. Two words
/// cover 128 members, so the sets of every frame of a cluster that size are
/// built, cloned and decoded without an allocation.
const INLINE_WORDS: usize = 2;

/// The bitmap's words: the first [`INLINE_WORDS`] in place, more on the heap.
#[derive(Debug, Clone)]
enum Words {
    Inline(u8, [u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl Words {
    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline(len, words) => &words[..usize::from(*len)],
            Words::Heap(words) => words,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Words::Inline(len, words) => &mut words[..usize::from(*len)],
            Words::Heap(words) => words,
        }
    }

    /// Sets the length to `len` words; new words are zero.
    fn resize(&mut self, len: usize) {
        match self {
            Words::Inline(old, words) if len <= INLINE_WORDS => {
                words[len.min(usize::from(*old))..].fill(0);
                *old = len as u8;
            }
            Words::Inline(..) => {
                let mut heap = self.as_slice().to_vec();
                heap.resize(len, 0);
                *self = Words::Heap(heap);
            }
            Words::Heap(words) => words.resize(len, 0),
        }
    }
}

/// A set of member ids, one bit each. No trailing zero words are kept, so
/// two equal sets compare equal whatever their history.
#[derive(Debug, Clone)]
pub struct WitnessSet {
    words: Words,
}

impl Default for WitnessSet {
    fn default() -> Self {
        WitnessSet {
            words: Words::Inline(0, [0; INLINE_WORDS]),
        }
    }
}

impl PartialEq for WitnessSet {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for WitnessSet {}

impl WitnessSet {
    /// The empty set (allocates nothing).
    #[must_use]
    pub fn new() -> Self {
        WitnessSet::default()
    }

    fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    fn words_mut(&mut self) -> &mut [u64] {
        self.words.as_mut_slice()
    }

    /// The ids `0..n`: the roster of a cluster booted with n members.
    #[must_use]
    pub fn first_n(n: usize) -> Self {
        let mut set = WitnessSet::new();
        set.words.resize(n.div_ceil(64));
        set.words_mut().fill(u64::MAX);
        if !n.is_multiple_of(64) {
            *set.words_mut().last_mut().expect("n > 0") = (1u64 << (n % 64)) - 1;
        }
        set
    }

    /// Adds `id`; `true` when it was not there.
    pub fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
        if word >= self.words().len() {
            self.words.resize(word + 1);
        }
        let slot = &mut self.words_mut()[word];
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Whether `id` is in the set.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        (self.words().get((id / 64) as usize)).is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// How many ids the set holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no id.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    /// One past the highest id held (0 when empty): the bound a decoder
    /// needs to accept this set.
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self.words().last() {
            Some(w) => self.words().len() * 64 - w.leading_zeros() as usize,
            None => 0,
        }
    }

    /// The ids held, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            (0..64u32)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| i as u32 * 64 + b)
        })
    }

    fn trim(&mut self) {
        let used = self.words().len() - self.words().iter().rev().take_while(|&&w| w == 0).count();
        self.words.resize(used);
    }

    /// `self |= other`; `true` when that added an id.
    pub fn union_with(&mut self, other: &WitnessSet) -> bool {
        if other.words().len() > self.words().len() {
            self.words.resize(other.words().len());
        }
        let mut grew = false;
        for (mine, &theirs) in self.words_mut().iter_mut().zip(other.words()) {
            grew |= theirs & !*mine != 0;
            *mine |= theirs;
        }
        grew
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &WitnessSet) {
        if other.words().len() < self.words().len() {
            self.words.resize(other.words().len());
        }
        for (mine, &theirs) in self.words_mut().iter_mut().zip(other.words()) {
            *mine &= theirs;
        }
        self.trim();
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &WitnessSet) {
        for (mine, &theirs) in self.words_mut().iter_mut().zip(other.words()) {
            *mine &= !theirs;
        }
        self.trim();
    }

    /// How many ids of `self` are not in `other`, without building the set.
    #[must_use]
    pub fn count_outside(&self, other: &WitnessSet) -> usize {
        let theirs = other.words();
        (self.words().iter().enumerate())
            .map(|(i, &w)| (w & !theirs.get(i).copied().unwrap_or(0)).count_ones() as usize)
            .sum()
    }

    /// Keeps the `keep` lowest ids and drops the rest.
    pub fn keep_lowest(&mut self, keep: usize) {
        let mut left = keep;
        for w in self.words_mut() {
            let ones = w.count_ones() as usize;
            if ones > left {
                // Clear the highest bits until `left` remain.
                for _ in left..ones {
                    *w &= !(1u64 << (63 - w.leading_zeros()));
                }
            }
            left -= left.min(ones);
        }
        self.trim();
    }

    /// Appends the wire form: a `u16` byte count, then that many bytes,
    /// little-endian within the set (byte i holds ids 8i..8i+8), trailing
    /// zero bytes left out.
    pub fn encode(&self, buf: &mut BytesMut) {
        let bytes = self.capacity().div_ceil(8);
        buf.put_slice(&u16::try_from(bytes).unwrap_or(u16::MAX).to_be_bytes());
        for i in 0..bytes.min(usize::from(u16::MAX)) {
            buf.put_u8((self.words()[i / 8] >> (8 * (i % 8))) as u8);
        }
    }

    /// Encoded size of [`Self::encode`]'s output.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        2 + self.capacity().div_ceil(8)
    }

    /// Reads one set off the front of `p`. `None` when the input is
    /// truncated or declares more bytes than `max_members` ids need — that
    /// check comes first, so an oversized length allocates nothing.
    pub fn decode(p: &mut &[u8], max_members: usize) -> Option<WitnessSet> {
        if p.len() < 2 {
            return None;
        }
        let bytes = usize::from(u16::from_be_bytes([p[0], p[1]]));
        if bytes > max_members.div_ceil(8) || p.len() < 2 + bytes {
            return None;
        }
        let body = &p[2..2 + bytes];
        *p = &p[2 + bytes..];
        let mut set = WitnessSet::new();
        set.words.resize(bytes.div_ceil(8));
        for (i, &b) in body.iter().enumerate() {
            set.words_mut()[i / 8] |= u64::from(b) << (8 * (i % 8));
        }
        set.trim();
        Some(set)
    }
}

impl FromIterator<u32> for WitnessSet {
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut set = WitnessSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> WitnessSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn insert_contains_len_and_equality_ignore_history() {
        let mut a = WitnessSet::new();
        assert!(a.is_empty() && a.capacity() == 0);
        assert!(a.insert(3) && !a.insert(3) && a.insert(130));
        assert!(a.contains(3) && a.contains(130) && !a.contains(4) && !a.contains(9_999));
        assert_eq!((a.len(), a.capacity()), (2, 131));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 130]);
        a.subtract(&set(&[130]));
        assert_eq!(a, set(&[3]), "no trailing zero words survive");
        assert_eq!(WitnessSet::first_n(70), (0..70).collect());
        assert_eq!(WitnessSet::first_n(64).len(), 64);
        assert_eq!(WitnessSet::first_n(0), WitnessSet::new());
    }

    #[test]
    fn union_reports_growth_and_set_algebra_holds() {
        let mut a = set(&[1, 2]);
        assert!(!a.union_with(&set(&[2])));
        assert!(a.union_with(&set(&[2, 200])));
        assert_eq!(a, set(&[1, 2, 200]));
        assert_eq!(a.count_outside(&set(&[2, 7])), 2);
        a.intersect_with(&set(&[1, 2, 3]));
        assert_eq!(a, set(&[1, 2]));
        let mut b = set(&[5, 64, 65, 70, 300]);
        b.keep_lowest(3);
        assert_eq!(b, set(&[5, 64, 65]));
        b.keep_lowest(0);
        assert!(b.is_empty());
    }

    #[test]
    fn wire_form_round_trips_and_refuses_oversize_before_reading() {
        for ids in [&[][..], &[0], &[7, 8], &[63, 64, 127], &[1000]] {
            let s = set(ids);
            let mut buf = BytesMut::new();
            s.encode(&mut buf);
            assert_eq!(buf.len(), s.encoded_len());
            let mut p: &[u8] = &buf;
            assert_eq!(WitnessSet::decode(&mut p, 1001), Some(s));
            assert!(p.is_empty());
        }
        let mut buf = BytesMut::new();
        set(&[127]).encode(&mut buf);
        assert_eq!(WitnessSet::decode(&mut &buf[..], 120), None, "over bound");
        assert_eq!(WitnessSet::decode(&mut &buf[..buf.len() - 1], 128), None);
        // A length that promises 65,535 bytes against a 16-member roster.
        assert_eq!(WitnessSet::decode(&mut &[0xFF, 0xFF, 0][..], 16), None);
    }
}
