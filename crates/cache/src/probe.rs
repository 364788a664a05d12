//! A fixed-size map from `u64` keys for the simulator's request path.
//!
//! Each of its users knows at construction how many keys it can ever
//! hold: a block cache's runs, a region's pinned blocks, the requests
//! in flight. So the table never grows: it is a power of two of at
//! least four slots per key, probed linearly from a Fibonacci hash of
//! the key, and an insert past the bound panics. At a load of a quarter
//! or less, a lookup reads one slot almost always. `u64::MAX` marks an
//! empty slot, and a removal shifts the entries behind it back, so no
//! tombstones build up (DESIGN.md §6.17).

/// The empty-slot marker; never a key.
const EMPTY: u64 = u64::MAX;

/// Fibonacci hashing: the top bits of `key` times 2^64 / φ, which
/// spread consecutive keys over the whole table.
#[inline]
pub(crate) fn fib_hash(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// A map from `u64` to `V` that holds at most a fixed number of keys.
///
/// # Example
///
/// ```
/// use forhdc_cache::ProbeMap;
///
/// let mut m = ProbeMap::new(2);
/// assert_eq!(m.insert(7, 'a'), None);
/// assert_eq!(m.insert(7, 'b'), Some('a'));
/// assert_eq!(m.get(7), Some('b'));
/// assert_eq!(m.remove(7), Some('b'));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ProbeMap<V: Copy + Default> {
    /// Probed without touching the values: a miss reads keys only.
    keys: Box<[u64]>,
    vals: Box<[V]>,
    /// 64 − log2 of the slot count.
    shift: u32,
    len: usize,
    bound: usize,
}

impl<V: Copy + Default> ProbeMap<V> {
    /// Creates an empty map that can hold `bound` keys.
    pub fn new(bound: usize) -> Self {
        let slots = (bound.max(1) * 4).next_power_of_two();
        ProbeMap {
            keys: vec![EMPTY; slots].into_boxed_slice(),
            vals: vec![V::default(); slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            bound,
        }
    }

    /// The slot where `key`'s probe starts.
    #[inline]
    pub fn home(&self, key: u64) -> usize {
        fib_hash(key, self.shift)
    }

    /// The number of slots (a power of two, fixed at construction).
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// The slot holding `key`.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            // Empty first, so that the marker itself is never found.
            if k == EMPTY {
                return None;
            }
            if k == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The value under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.vals[i])
    }

    /// The value under `key`, to update in place.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Maps `key` to `val`, returning the value it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `key` is `u64::MAX`, or if it is new and the map
    /// already holds its bound.
    #[inline]
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        assert!(key != EMPTY, "u64::MAX marks an empty slot");
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            if k == EMPTY {
                assert!(self.len < self.bound, "probe map holds {} keys", self.bound);
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`, returning its value. Every later entry of the
    /// probe run that may fill the hole moves back into it.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let val = self.vals[hole];
        let mask = self.keys.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // The entry at `j` may move back iff the hole lies on its
            // probe path, i.e. within `home..j` cyclically.
            if (j.wrapping_sub(self.home(k)) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(val)
    }

    /// The keys and values, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|&(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_the_table_from_the_bound() {
        assert_eq!(ProbeMap::<u32>::new(0).slots(), 4);
        assert_eq!(ProbeMap::<u32>::new(3).slots(), 16);
        assert_eq!(ProbeMap::<u32>::new(513).slots(), 4096);
    }

    #[test]
    fn removal_keeps_a_wrapped_run_reachable() {
        let mut m = ProbeMap::new(4);
        let last = m.slots() - 1;
        let keys: Vec<u64> = (0..).filter(|&k| m.home(k) == last).take(3).collect();
        for &k in &keys {
            m.insert(k, k as u32);
        }
        assert_eq!(m.remove(keys[0]), Some(keys[0] as u32));
        assert_eq!(m.get(keys[1]), Some(keys[1] as u32));
        assert_eq!(m.get(keys[2]), Some(keys[2] as u32));
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn the_marker_is_never_found() {
        let m = ProbeMap::<u8>::new(1);
        assert_eq!(m.get(u64::MAX), None);
    }
}
