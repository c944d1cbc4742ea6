//! A generic set-associative array with true-LRU replacement.
//!
//! Every hardware structure in the simulated memory system — data caches,
//! TLBs, the page-walk caches — is an instance of [`SetAssoc`] keyed by an
//! appropriate `u64` (cache-line address, VPN, VA prefix).

/// A set-associative, true-LRU array of `u64` keys.
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
pub struct SetAssoc {
    sets: u64,
    ways: usize,
    /// Keys flattened as `set * ways + rank`, so one set's ways share
    /// cache lines (this sits on the hot path of every simulated memory
    /// reference). Within a set, ranks `0..lens[set]` hold the live
    /// keys most-recently-used first; higher ranks are dead.
    keys: Vec<u64>,
    /// Live-key count per set.
    lens: Vec<u32>,
    /// Live-entry count, maintained on every fill/invalidate so the
    /// read-only probes can skip scanning structures that are empty.
    occupied: u64,
    hits: u64,
    misses: u64,
}

/// Ask the kernel to back a large allocation with transparent huge
/// pages. The multi-MiB arrays modelling L2/LLC are touched at random
/// sets on every simulated reference; on `madvise`-mode THP hosts they
/// would otherwise sit on 4 KiB pages and pay a host dTLB walk per
/// touch. Pure host-level hint — simulated behavior is unaffected.
/// Issued as a raw `madvise(MADV_HUGEPAGE)` syscall to avoid a libc
/// dependency; failures (or non-Linux-x86-64 hosts) are ignored.
fn advise_hugepages(buf: &[u64]) {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const HUGE: usize = 2 << 20;
        let ptr = buf.as_ptr() as usize;
        let len = std::mem::size_of_val(buf);
        if len < HUGE {
            return;
        }
        let start = (ptr + HUGE - 1) & !(HUGE - 1);
        let end = (ptr + len) & !(HUGE - 1);
        if end <= start {
            return;
        }
        // SAFETY: madvise only changes paging advice for
        // `[start, end)`, a range inside `buf`'s allocation; it reads
        // and writes no memory and clobbers only the registers listed.
        unsafe {
            let ret: isize;
            std::arch::asm!(
                "syscall",
                in("rax") 28usize,      // __NR_madvise
                in("rdi") start,
                in("rsi") end - start,
                in("rdx") 14usize,      // MADV_HUGEPAGE
                out("rcx") _,
                out("r11") _,
                lateout("rax") ret,
                options(nostack),
            );
            let _ = ret;
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    let _ = buf;
}

impl SetAssoc {
    /// Create an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: u64, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(u32::try_from(ways).is_ok(), "associativity must fit in u32");
        let keys = vec![0; sets as usize * ways];
        advise_hugepages(&keys);
        SetAssoc {
            sets,
            ways,
            keys,
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
        // Every simulated memory reference lands here; dodge the 64-bit
        // divide for the (ubiquitous) power-of-two set counts.
        (if self.sets.is_power_of_two() {
            key & (self.sets - 1)
        } else {
            key % self.sets
        }) as usize
    }

    /// The live keys of `key`'s set, most recently used first.
    #[inline]
    fn live(&self, key: u64) -> &[u64] {
        let set = self.set_of(key);
        let base = set * self.ways;
        &self.keys[base..base + self.lens[set] as usize]
    }

    /// Move `key` to rank 0 of its set if it is resident (`Ok`);
    /// otherwise change nothing and return its set index (`Err`).
    #[inline]
    fn touch(&mut self, key: u64) -> Result<(), usize> {
        let set = self.set_of(key);
        let base = set * self.ways;
        let live = &mut self.keys[base..base + self.lens[set] as usize];
        let rank = live.iter().position(|&k| k == key).ok_or(set)?;
        live.copy_within(..rank, 1);
        live[0] = key;
        Ok(())
    }

    /// Look up a key, updating LRU state and hit/miss counters.
    pub fn lookup(&mut self, key: u64) -> bool {
        let hit = self.touch(key).is_ok();
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// [`lookup`](Self::lookup) fused with the miss-path
    /// [`insert`](Self::insert): one scan of the set serves both. On a
    /// hit this is exactly `lookup`; on a miss it performs the insert a
    /// caller would issue next without rescanning. Returns whether the
    /// key hit. The evicted key (if any) is discarded, so this suits
    /// callers that ignore `insert`'s return value, like the inclusive
    /// hierarchy.
    pub fn lookup_or_insert(&mut self, key: u64) -> bool {
        match self.touch(key) {
            Ok(()) => {
                self.hits += 1;
                true
            }
            Err(set) => {
                self.misses += 1;
                self.fill(set, key);
                false
            }
        }
    }

    /// Account a lookup that is already known to miss (the caller
    /// proved absence with [`contains`](Self::contains)): counts the
    /// miss exactly as a failed [`lookup`](Self::lookup) would, which
    /// leaves the recency order untouched.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Hint the host CPU to pull the storage behind `key`'s set into
    /// its own caches. Pure hardware hint: no simulated state, LRU, or
    /// counter changes. The batched engine calls this for upcoming
    /// accesses whose addresses it already knows, overlapping the host
    /// cache misses that an element-at-a-time walk would serialize.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        let set = self.set_of(key);
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // A set spans `ways * 8` bytes; touch each 64-byte line,
            // plus the set's length word.
            let base = self.keys[set * self.ways..].as_ptr();
            // SAFETY: `set < sets`, so the length word is in `lens`, and
            // every line offset is below `ways * 8`, inside the set's
            // slice of `keys`. A prefetch never faults or writes.
            unsafe {
                _mm_prefetch(self.lens.as_ptr().add(set) as *const i8, _MM_HINT_T0);
                for line in 0..(self.ways * 8).div_ceil(64) {
                    _mm_prefetch(base.byte_add(line * 64) as *const i8, _MM_HINT_T0);
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = set;
    }

    /// Probe for a key without touching LRU state or counters.
    pub fn contains(&self, key: u64) -> bool {
        self.occupied != 0 && self.live(key).contains(&key)
    }

    /// Insert a key (no-op if already present; refreshes its LRU rank).
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        self.touch(key).err().and_then(|set| self.fill(set, key))
    }

    /// Put a key known to be absent at rank 0 of `set`, evicting the
    /// last rank if the set is full. Returns the evicted key, if any.
    #[inline]
    fn fill(&mut self, set: usize, key: u64) -> Option<u64> {
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let ways = &mut self.keys[base..base + self.ways];
        let evicted = if len == ways.len() {
            Some(ways[len - 1])
        } else {
            self.lens[set] += 1;
            self.occupied += 1;
            None
        };
        let keep = len.min(ways.len() - 1);
        ways.copy_within(..keep, 1);
        ways[0] = key;
        evicted
    }

    /// Remove a key if present. Returns whether it was present.
    pub fn invalidate(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        let live = &mut self.keys[base..base + len];
        match live.iter().position(|&k| k == key) {
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
        self.keys
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
        let c = SetAssoc::with_capacity(1536, 12);
        assert_eq!(c.sets(), 128);
        assert_eq!(c.ways(), 12);
        assert_eq!(c.capacity(), 1536);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn with_capacity_rejects_bad_geometry() {
        SetAssoc::with_capacity(100, 3);
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
    fn record_miss_matches_a_proven_absent_lookup() {
        // Two caches, same history: one takes a failed `lookup(99)`,
        // the other a `contains`-proven `record_miss`. Stats, LRU
        // order, and subsequent eviction behaviour must be identical.
        let mut a = SetAssoc::new(1, 2);
        let mut b = SetAssoc::new(1, 2);
        for c in [&mut a, &mut b] {
            c.insert(0);
            c.insert(1);
        }
        assert!(!a.lookup(99));
        assert!(!b.contains(99));
        b.record_miss();
        assert_eq!(a.misses(), b.misses());
        assert_eq!(a.hits(), b.hits());
        // Neither miss may disturb the recency order: both caches must
        // evict the same victim next.
        assert_eq!(a.insert(2), b.insert(2));
    }
}
