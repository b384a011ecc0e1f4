//! A compact bit vector used for dirty/flushed tracking.
//!
//! Dirty-bit maintenance sits in the inner loop of the game simulation
//! (§4.2: its overhead "can be quite significant and must be modeled"), so
//! the structure is a plain `Vec<u64>` with word-at-a-time bulk operations.
//! It also supports the run-counting query eager algorithms need to cost
//! their synchronous copies (one memory-latency charge per contiguous run).

/// A fixed-length bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: u32,
}

impl BitVec {
    /// Create a bit vector of `len` zero bits.
    pub fn new(len: u32) -> Self {
        let n_words = (len as usize).div_ceil(64);
        BitVec {
            words: vec![0; n_words],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = self.words[(i / 64) as usize];
        (w >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to 1. Returns the previous value (so callers can count
    /// first touches without a separate `get`).
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let prev = *word & mask != 0;
        *word |= mask;
        prev
    }

    /// Clear bit `i`. Returns the previous value.
    #[inline]
    pub fn clear(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let prev = *word & mask != 0;
        *word &= !mask;
        prev
    }

    /// Set all bits to zero.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Set all bits to one (bits past `len` in the last word stay zero so
    /// that popcounts remain exact).
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    fn mask_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterate over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi as u32 * 64;
            BitIter { word: w, base }
        })
    }

    /// Collect the indices of set bits, in increasing order.
    pub fn ones(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones() as usize);
        out.extend(self.iter_ones());
        out
    }

    /// Count maximal runs of consecutive set bits.
    ///
    /// Eager algorithms copy dirty objects run-by-run; each run incurs one
    /// memory-latency startup charge (`Omem`) in the cost model.
    pub fn count_runs(&self) -> u32 {
        let mut runs = 0u32;
        let mut prev_msb = false; // bit 63 of the previous word
        for &w in &self.words {
            // Runs starting in this word: set bits whose predecessor is 0.
            let shifted = (w << 1) | u64::from(prev_msb);
            runs += (w & !shifted).count_ones();
            prev_msb = w >> 63 == 1;
        }
        runs
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bv = BitVec::new(130);
        assert!(!bv.get(0));
        assert!(!bv.set(0));
        assert!(bv.get(0));
        assert!(bv.set(0)); // second set reports previous = true
        assert!(!bv.set(129));
        assert!(bv.get(129));
        assert!(bv.clear(129));
        assert!(!bv.get(129));
        assert!(!bv.clear(129));
    }

    #[test]
    fn count_ones_and_clear_all() {
        let mut bv = BitVec::new(200);
        for i in (0..200).step_by(3) {
            bv.set(i);
        }
        assert_eq!(bv.count_ones(), 67);
        bv.clear_all();
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn set_all_respects_length() {
        let mut bv = BitVec::new(70);
        bv.set_all();
        assert_eq!(bv.count_ones(), 70);
        assert!(bv.get(69));
    }

    #[test]
    fn ones_are_sorted_and_complete() {
        let mut bv = BitVec::new(300);
        let idx = [0u32, 1, 63, 64, 65, 127, 128, 200, 299];
        for &i in &idx {
            bv.set(i);
        }
        assert_eq!(bv.ones(), idx.to_vec());
    }

    #[test]
    fn run_counting_matches_naive() {
        fn naive_runs(bits: &[bool]) -> u32 {
            let mut runs = 0;
            let mut in_run = false;
            for &b in bits {
                if b && !in_run {
                    runs += 1;
                }
                in_run = b;
            }
            runs
        }
        // Patterns engineered around word boundaries.
        let patterns: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![63, 64], // run crossing a word boundary
            vec![0, 1, 2, 10, 11, 64, 65, 66],
            vec![62, 63, 64, 65, 128],
            (0..256).collect(),
            (0..256).step_by(2).collect(),
        ];
        for pat in patterns {
            let mut bv = BitVec::new(256);
            let mut bools = vec![false; 256];
            for &i in &pat {
                bv.set(i);
                bools[i as usize] = true;
            }
            assert_eq!(bv.count_runs(), naive_runs(&bools), "pattern {pat:?}");
        }
    }

    #[test]
    fn empty_vec() {
        let bv = BitVec::new(0);
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.count_runs(), 0);
        assert!(bv.ones().is_empty());
    }
}
