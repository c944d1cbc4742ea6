//! `SetAssoc` against a naive reference model of true LRU.
//!
//! The model is the textbook construction: every set is a list of
//! `(key, last-use stamp)` ways, a global clock stamps every lookup and
//! fill, a fill takes the first empty way, and the victim is the way
//! with the smallest stamp. `SetAssoc` keeps no stamps (each set holds
//! its keys most-recently-used first), so every operation's result,
//! the counters, the occupancy and the resident key set must agree
//! with the model after every step of a random operation sequence.

use dmt_cache::set_assoc::SetAssoc;
use proptest::prelude::*;

/// Stamp-based true LRU: stamp 0 marks an empty way; the clock
/// pre-increments, so live ways always carry a stamp ≥ 1.
struct Model {
    sets: Vec<Vec<(u64, u64)>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Model {
    fn new(sets: u64, ways: usize) -> Self {
        Model {
            sets: vec![vec![(0, 0); ways]; sets as usize],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<(u64, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn lookup(&mut self, key: u64) -> bool {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(way) = self.set(key).iter_mut().find(|w| w.1 != 0 && w.0 == key) {
            way.1 = stamp;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, key: u64) -> Option<u64> {
        self.clock += 1;
        let stamp = self.clock;
        let set = self.set(key);
        if let Some(way) = set.iter_mut().find(|w| w.1 != 0 && w.0 == key) {
            way.1 = stamp;
            return None;
        }
        if let Some(way) = set.iter_mut().find(|w| w.1 == 0) {
            *way = (key, stamp);
            return None;
        }
        let victim = set.iter_mut().min_by_key(|w| w.1).expect("ways > 0");
        let evicted = victim.0;
        *victim = (key, stamp);
        Some(evicted)
    }

    fn lookup_or_insert(&mut self, key: u64) -> bool {
        self.lookup(key) || {
            self.insert(key);
            false
        }
    }

    fn contains(&self, key: u64) -> bool {
        let n = self.sets.len() as u64;
        self.sets[(key % n) as usize]
            .iter()
            .any(|w| w.1 != 0 && w.0 == key)
    }

    fn invalidate(&mut self, key: u64) -> bool {
        match self.set(key).iter_mut().find(|w| w.1 != 0 && w.0 == key) {
            Some(way) => {
                *way = (0, 0);
                true
            }
            None => false,
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.fill((0, 0));
        }
    }

    fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .sets
            .iter()
            .flatten()
            .filter(|w| w.1 != 0)
            .map(|w| w.0)
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Drive both implementations through `ops` (`(selector, raw)` pairs),
/// comparing everything observable after every operation.
///
/// Raw values fold onto at most eight sets, each with 1.5× its ways in
/// distinct keys, so sets fill, hit and evict; flushes get rarer as the
/// array grows so that large arrays still fill between them.
fn check(sets: u64, ways: usize, ops: &[(u16, u64)]) {
    let mut real = SetAssoc::new(sets, ways);
    let mut model = Model::new(sets, ways);
    let hot_sets = sets.min(8);
    let tags = (ways + ways / 2 + 1) as u64;
    let flush_odds = (8 * real.capacity()).max(100);
    for (step, &(op, raw)) in ops.iter().enumerate() {
        let key = raw % hot_sets + sets * ((raw >> 8) % tags);
        let op = if (raw >> 32) % flush_odds == 0 {
            u16::MAX
        } else {
            op
        };
        let what = match op {
            0..=249 => {
                assert_eq!(real.lookup(key), model.lookup(key), "step {step}");
                "lookup"
            }
            250..=499 => {
                let (r, m) = (real.lookup_or_insert(key), model.lookup_or_insert(key));
                assert_eq!(r, m, "step {step}");
                "lookup_or_insert"
            }
            500..=749 => {
                assert_eq!(real.insert(key), model.insert(key), "step {step}");
                "insert"
            }
            750..=849 => {
                assert_eq!(real.contains(key), model.contains(key), "step {step}");
                "contains"
            }
            850..=949 => {
                assert_eq!(real.invalidate(key), model.invalidate(key), "step {step}");
                "invalidate"
            }
            950..=999 => {
                real.reset_stats();
                model.hits = 0;
                model.misses = 0;
                "reset_stats"
            }
            _ => {
                real.flush();
                model.flush();
                "flush"
            }
        };
        assert_eq!(real.hits(), model.hits, "hits after {what} at step {step}");
        assert_eq!(
            real.misses(),
            model.misses,
            "misses after {what} at step {step}"
        );
        let keys = model.keys();
        assert_eq!(
            real.occupancy(),
            keys.len() as u64,
            "occupancy after {what} at step {step}"
        );
        let mut resident: Vec<u64> = real.keys().collect();
        resident.sort_unstable();
        assert_eq!(resident, keys, "keys after {what} at step {step}");
    }
}

fn ops(max: usize) -> impl Strategy<Value = Vec<(u16, u64)>> {
    prop::collection::vec((0u16..1000, any::<u64>()), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_model_1x1(ops in ops(300)) {
        check(1, 1, &ops);
    }

    #[test]
    fn matches_model_4x3(ops in ops(600)) {
        check(4, 3, &ops);
    }

    /// A non-power-of-two set count takes the modulo indexing path.
    #[test]
    fn matches_model_6x4(ops in ops(600)) {
        check(6, 4, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The STLB geometry.
    #[test]
    fn matches_model_128x12(ops in ops(4000)) {
        check(128, 12, &ops);
    }

    /// Fully associative with more than 255 ways, as the PWC-capacity
    /// ablation builds.
    #[test]
    fn matches_model_1x512(ops in ops(3000)) {
        check(1, 512, &ops);
    }
}
