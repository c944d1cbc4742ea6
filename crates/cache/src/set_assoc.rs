//! A generic set-associative array with true-LRU replacement.
//!
//! The translation structures of the simulated memory system — the TLBs,
//! the page-walk caches, FPT's and ECPT's walk caches — are instances of
//! [`SetAssoc`] keyed by an appropriate `u64` (VPN or VA prefix, with
//! ASID and page-size bits). A way may carry an inline payload next to
//! its key: the TLB arrays store each entry's frame there, while the PWC
//! tags and FPT use the zero-sized default, so their layout is a plain
//! `u64` per way. The data-cache levels do not use it: their line tags
//! fit in 32 bits once the set index is implied, so
//! [`MemoryHierarchy`](crate::hierarchy::MemoryHierarchy) keeps a
//! tag array of its own.

/// One way: `(key, payload)`, side by side so a hit finds its payload
/// on the line the tag compare already touched. A tuple rather than a
/// struct so `vec![]` of all-zero ways takes the zeroed-allocation path:
/// large arrays then fault their pages in lazily, on first touch,
/// instead of all at construction.
type Way<V> = (u64, V);

/// A set-associative, true-LRU array of `u64` keys, each carrying a
/// payload `V` (zero-sized by default).
///
/// Each set keeps its live keys in recency order, most recently used
/// first: a hit or a fill moves its key to rank 0 and the victim is the
/// last rank, which is exactly true LRU without a per-way stamp.
///
/// # Examples
///
/// ```
/// use dmt_cache::set_assoc::SetAssoc;
/// let mut c = SetAssoc::new(2, 2); // 2 sets x 2 ways
/// assert!(!c.lookup(0));
/// c.insert(0);
/// assert!(c.lookup(0));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<V = ()> {
    sets: u64,
    ways: usize,
    /// Ways flattened as `set * ways + rank`, so one set's ways share
    /// cache lines (this sits on the hot path of every TLB lookup).
    /// Within a set, ranks `0..lens[set]` hold the live
    /// ways most-recently-used first; higher ranks are dead.
    slots: Vec<Way<V>>,
    /// Live-key count per set.
    lens: Vec<u32>,
    /// Live-entry count, maintained on every fill/invalidate so the
    /// read-only probes can skip scanning structures that are empty.
    occupied: u64,
    hits: u64,
    misses: u64,
}

impl<V: Copy + Default> SetAssoc<V> {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: u64, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(u32::try_from(ways).is_ok(), "associativity must fit in u32");
        SetAssoc {
            sets,
            ways,
            slots: vec![(0, V::default()); sets as usize * ways],
            lens: vec![0; sets as usize],
            occupied: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Create an array from a total capacity and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`.
    pub fn with_capacity(entries: u64, ways: usize) -> Self {
        assert_eq!(
            entries % ways as u64,
            0,
            "capacity must be a multiple of associativity"
        );
        Self::new(entries / ways as u64, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> u64 {
        self.sets * self.ways as u64
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        // Every TLB lookup lands here; dodge the 64-bit divide for the
        // (ubiquitous) power-of-two set counts.
        (if self.sets.is_power_of_two() {
            key & (self.sets - 1)
        } else {
            key % self.sets
        }) as usize
    }

    /// The live ways of `key`'s set, most recently used first.
    #[inline]
    fn live(&self, key: u64) -> &[Way<V>] {
        let set = self.set_of(key);
        let base = set * self.ways;
        &self.slots[base..base + self.lens[set] as usize]
    }

    /// Move `key` to rank 0 of its set if it is resident (`Ok` with its
    /// payload); otherwise change nothing and return its set index
    /// (`Err`).
    #[inline]
    fn touch(&mut self, key: u64) -> Result<V, usize> {
        let set = self.set_of(key);
        let base = set * self.ways;
        let live = &mut self.slots[base..base + self.lens[set] as usize];
        let rank = live.iter().position(|w| w.0 == key).ok_or(set)?;
        let way = live[rank];
        live.copy_within(..rank, 1);
        live[0] = way;
        Ok(way.1)
    }

    /// Look up a key, updating LRU state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> bool {
        self.lookup_value(key).is_some()
    }

    /// [`lookup`](Self::lookup) that also returns the hit's payload.
    #[inline]
    pub fn lookup_value(&mut self, key: u64) -> Option<V> {
        match self.touch(key) {
            Ok(val) => {
                self.hits += 1;
                Some(val)
            }
            Err(_) => {
                self.misses += 1;
                None
            }
        }
    }

    /// Probe for a key without touching LRU state or counters.
    pub fn contains(&self, key: u64) -> bool {
        self.occupied != 0 && self.live(key).iter().any(|w| w.0 == key)
    }

    /// Insert a key with its payload. A resident key keeps its way:
    /// its LRU rank is refreshed and its payload replaced (the newer
    /// value wins). Returns the evicted key, if any.
    pub fn insert_value(&mut self, key: u64, val: V) -> Option<u64> {
        match self.touch(key) {
            Ok(_) => {
                // `touch` moved the way to rank 0 of its set.
                let rank0 = self.set_of(key) * self.ways;
                self.slots[rank0].1 = val;
                None
            }
            Err(set) => self.fill(set, (key, val)),
        }
    }

    /// Put a way whose key is known to be absent at rank 0 of `set`,
    /// evicting the last rank if the set is full. Returns the evicted
    /// key, if any.
    #[inline]
    fn fill(&mut self, set: usize, way: Way<V>) -> Option<u64> {
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let ways = &mut self.slots[base..base + self.ways];
        let evicted = if len == ways.len() {
            Some(ways[len - 1].0)
        } else {
            self.lens[set] += 1;
            self.occupied += 1;
            None
        };
        let keep = len.min(ways.len() - 1);
        ways.copy_within(..keep, 1);
        ways[0] = way;
        evicted
    }

    /// Remove a key if present. Returns whether it was present.
    pub fn invalidate(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let live = &mut self.slots[base..base + len];
        match live.iter().position(|w| w.0 == key) {
            Some(rank) => {
                live.copy_within(rank + 1.., rank);
                self.lens[set] -= 1;
                self.occupied -= 1;
                true
            }
            None => false,
        }
    }

    /// Drop every entry (e.g. a full TLB flush on context switch).
    pub fn flush(&mut self) {
        self.lens.fill(0);
        self.occupied = 0;
    }

    /// Hits recorded by [`lookup`](Self::lookup).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`lookup`](Self::lookup).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reset hit/miss counters (state is kept).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Iterate over all resident keys (any order). Does not touch LRU
    /// state or counters — this is the oracle's coherence-audit view.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries().map(|(key, _)| key)
    }

    /// Iterate over all resident `(key, payload)` pairs (any order),
    /// read-only like [`keys`](Self::keys).
    pub fn entries(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.slots
            .chunks_exact(self.ways)
            .zip(&self.lens)
            .flat_map(|(set, &len)| set[..len as usize].iter().copied())
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> u64 {
        debug_assert_eq!(
            self.occupied,
            self.lens.iter().map(|&n| n as u64).sum::<u64>()
        );
        self.occupied
    }
}

impl SetAssoc {
    /// Insert a key (no-op if already present; refreshes its LRU rank).
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        self.insert_value(key, ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = SetAssoc::new(4, 2);
        assert!(!c.lookup(42));
        c.insert(42);
        assert!(c.lookup(42));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssoc::new(1, 2);
        c.insert(0);
        c.insert(1);
        assert!(c.lookup(0)); // 0 now most recent
        let evicted = c.insert(2);
        assert_eq!(evicted, Some(1));
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut c = SetAssoc::new(2, 1);
        c.insert(0); // set 0
        c.insert(1); // set 1
        assert!(c.contains(0));
        assert!(c.contains(1));
        // A third key in set 0 evicts key 0 only.
        c.insert(2);
        assert!(!c.contains(0));
        assert!(c.contains(1));
    }

    #[test]
    fn insert_refreshes_existing_key() {
        let mut c = SetAssoc::new(1, 2);
        c.insert(0);
        c.insert(1);
        c.insert(0); // refresh, not duplicate
        assert_eq!(c.occupancy(), 2);
        let evicted = c.insert(2);
        assert_eq!(evicted, Some(1));
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = SetAssoc::new(2, 2);
        c.insert(5);
        c.insert(6);
        assert!(c.invalidate(5));
        assert!(!c.invalidate(5));
        assert!(c.contains(6));
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn with_capacity_geometry() {
        let c: SetAssoc = SetAssoc::with_capacity(1536, 12);
        assert_eq!(c.sets(), 128);
        assert_eq!(c.ways(), 12);
        assert_eq!(c.capacity(), 1536);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn with_capacity_rejects_bad_geometry() {
        SetAssoc::<()>::with_capacity(100, 3);
    }

    #[test]
    fn contains_does_not_affect_stats_or_lru() {
        let mut c = SetAssoc::new(1, 2);
        c.insert(0);
        c.insert(1);
        assert!(c.contains(0));
        // `contains` must not have refreshed 0, so 0 is still LRU.
        let evicted = c.insert(2);
        assert_eq!(evicted, Some(0));
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn payloads_travel_with_their_keys() {
        let mut c: SetAssoc<u64> = SetAssoc::new(1, 2);
        c.insert_value(0, 100);
        c.insert_value(1, 101);
        assert_eq!(c.lookup_value(0), Some(100));
        // A refill of a resident key replaces its payload in place.
        assert_eq!(c.insert_value(1, 201), None);
        assert_eq!(c.occupancy(), 2);
        // 1 was refreshed last, so 0 is the victim, payload and all.
        assert_eq!(c.insert_value(2, 102), Some(0));
        let mut resident: Vec<(u64, u64)> = c.entries().collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![(1, 201), (2, 102)]);
        assert_eq!(c.lookup_value(0), None);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }
}
