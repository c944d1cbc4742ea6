//! `SetAssoc` against a naive reference model of true LRU.
//!
//! The model is the textbook construction: every set is a list of
//! `(key, last-use stamp, payload)` ways, a global clock stamps every
//! lookup and fill, a fill takes the first empty way, and the victim is
//! the way with the smallest stamp. `SetAssoc` keeps no stamps (each
//! set holds its keys most-recently-used first), so every operation's
//! result, the occupancy and the resident `(key, payload)` set must
//! agree with the model after every step of a random operation
//! sequence.

use dmt_cache::set_assoc::SetAssoc;
use proptest::prelude::*;

/// Stamp-based true LRU: stamp 0 marks an empty way; the clock
/// pre-increments, so live ways always carry a stamp ≥ 1.
struct Model {
    sets: Vec<Vec<(u64, u64, u64)>>,
    clock: u64,
}

impl Model {
    fn new(sets: u64, ways: usize) -> Self {
        Model {
            sets: vec![vec![(0, 0, 0); ways]; sets as usize],
            clock: 0,
        }
    }

    fn set(&mut self, key: u64) -> &mut Vec<(u64, u64, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    fn lookup(&mut self, key: u64) -> Option<u64> {
        self.clock += 1;
        let stamp = self.clock;
        let way = self.set(key).iter_mut().find(|w| w.1 != 0 && w.0 == key)?;
        way.1 = stamp;
        Some(way.2)
    }

    fn insert(&mut self, key: u64, val: u64) -> Option<u64> {
        self.clock += 1;
        let stamp = self.clock;
        let set = self.set(key);
        if let Some(way) = set.iter_mut().find(|w| w.1 != 0 && w.0 == key) {
            *way = (key, stamp, val);
            return None;
        }
        if let Some(way) = set.iter_mut().find(|w| w.1 == 0) {
            *way = (key, stamp, val);
            return None;
        }
        let victim = set.iter_mut().min_by_key(|w| w.1).expect("ways > 0");
        let evicted = victim.0;
        *victim = (key, stamp, val);
        Some(evicted)
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
                *way = (0, 0, 0);
                true
            }
            None => false,
        }
    }

    fn retain(&mut self, keep: impl Fn(u64, u64) -> bool) -> u64 {
        let mut removed = 0;
        for way in self.sets.iter_mut().flatten() {
            if way.1 != 0 && !keep(way.0, way.2) {
                *way = (0, 0, 0);
                removed += 1;
            }
        }
        removed
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.fill((0, 0, 0));
        }
    }

    fn entries(&self) -> Vec<(u64, u64)> {
        let mut entries: Vec<(u64, u64)> = self
            .sets
            .iter()
            .flatten()
            .filter(|w| w.1 != 0)
            .map(|w| (w.0, w.2))
            .collect();
        entries.sort_unstable();
        entries
    }
}

/// Drive both implementations through `ops` (`(selector, raw)` pairs),
/// comparing everything observable after every operation.
///
/// Raw values fold onto at most eight sets, each with 1.5× its ways in
/// distinct keys, so sets fill, hit and evict; flushes get rarer as the
/// array grows so that large arrays still fill between them. A fill's
/// payload is random, so a refill of a resident key replaces it.
fn check(sets: u64, ways: usize, ops: &[(u16, u64)]) {
    let mut real = SetAssoc::new(sets, ways);
    let mut model = Model::new(sets, ways);
    let hot_sets = sets.min(8);
    let tags = (ways + ways / 2 + 1) as u64;
    let flush_odds = (8 * real.capacity()).max(100);
    for (step, &(op, raw)) in ops.iter().enumerate() {
        let key = raw % hot_sets + sets * ((raw >> 8) % tags);
        let val = raw >> 40;
        let op = if (raw >> 32) % flush_odds == 0 {
            u16::MAX
        } else {
            op
        };
        let what = match op {
            0..=374 => {
                assert_eq!(real.lookup_value(key), model.lookup(key), "step {step}");
                "lookup_value"
            }
            375..=749 => {
                assert_eq!(
                    real.insert_value(key, val),
                    model.insert(key, val),
                    "step {step}"
                );
                "insert_value"
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
                // Drop one of three key tags, or the keys whose payload
                // shares `val`'s parity: by key and by payload.
                let drop_tag = (raw >> 16) % 3;
                let keep = |k: u64, v: u64| {
                    if raw & 1 == 0 {
                        (k / sets) % 3 != drop_tag
                    } else {
                        (v ^ val) & 1 != 0
                    }
                };
                assert_eq!(real.retain(keep), model.retain(keep), "step {step}");
                "retain"
            }
            _ => {
                real.flush();
                model.flush();
                "flush"
            }
        };
        let entries = model.entries();
        assert_eq!(
            real.occupancy(),
            entries.len() as u64,
            "occupancy after {what} at step {step}"
        );
        let mut resident: Vec<(u64, u64)> = real.entries().collect();
        resident.sort_unstable();
        assert_eq!(resident, entries, "entries after {what} at step {step}");
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
