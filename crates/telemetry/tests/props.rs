//! Property tests for the telemetry merge algebra.
//!
//! The parallel sweep relies on shard merges being *exact*: however a
//! run's samples are split across shards and in whatever order the
//! shards are merged back, the combined telemetry must be bit-identical
//! to recording everything into a single recorder. These tests pin
//! that contract for histograms, counters and the full `Telemetry`
//! recorder.

use dmt_telemetry::{Counter, Counters, Histogram, Telemetry, NUM_COUNTERS};
use proptest::prelude::*;

/// Split `samples` into shards at the (deduped, sorted) cut points
/// derived from `cuts`.
fn shard(samples: &[u64], cuts: &[usize]) -> Vec<Vec<u64>> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (samples.len() + 1)).collect();
    points.sort_unstable();
    points.dedup();
    let mut shards = Vec::new();
    let mut prev = 0;
    for p in points {
        shards.push(samples[prev..p].to_vec());
        prev = p;
    }
    shards.push(samples[prev..].to_vec());
    shards
}

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Deterministic permutation of `0..n` driven by `seed` (Fisher-Yates
/// with a splitmix-style step; proptest's vendored subset has no
/// shuffle strategy).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging per-shard histograms is lossless vs. one big histogram,
    /// for any sharding and any shard merge order.
    #[test]
    fn histogram_merge_is_lossless_and_order_free(
        samples in prop::collection::vec(any::<u64>(), 0..300),
        cuts in prop::collection::vec(0usize..300, 0..8),
        order_seed in any::<u64>(),
    ) {
        let whole = hist_of(&samples);
        let shards: Vec<Histogram> =
            shard(&samples, &cuts).iter().map(|s| hist_of(s)).collect();

        let mut forward = Histogram::new();
        for h in &shards {
            forward.merge(h);
        }
        prop_assert_eq!(&forward, &whole);

        let mut permuted = Histogram::new();
        for i in permutation(shards.len(), order_seed) {
            permuted.merge(&shards[i]);
        }
        prop_assert_eq!(&permuted, &whole);
    }

    /// merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn histogram_merge_is_associative(
        a in prop::collection::vec(any::<u64>(), 0..100),
        b in prop::collection::vec(any::<u64>(), 0..100),
        c in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..150),
        b in prop::collection::vec(any::<u64>(), 0..150),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// Counter registries survive any shard merge order permutation.
    #[test]
    fn counters_survive_merge_order_permutations(
        events in prop::collection::vec((0usize..NUM_COUNTERS, 1u64..1000), 0..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
        order_seed in any::<u64>(),
    ) {
        let mut whole = Counters::new();
        for &(slot, n) in &events {
            whole.add(Counter::ALL[slot], n);
        }
        let shards: Vec<Counters> = shard(
            // shard() works on u64 slices; reuse indices into `events`.
            &(0..events.len() as u64).collect::<Vec<_>>(),
            &cuts,
        )
        .iter()
        .map(|idxs| {
            let mut c = Counters::new();
            for &i in idxs.iter() {
                let (slot, n) = events[i as usize];
                c.add(Counter::ALL[slot], n);
            }
            c
        })
        .collect();

        let mut merged = Counters::new();
        for i in permutation(shards.len(), order_seed) {
            merged.merge(&shards[i]);
        }
        prop_assert_eq!(merged, whole);
    }

    /// The full recorder merges exactly: histograms, counters and the
    /// time-series all reassemble from shards.
    #[test]
    fn telemetry_merge_is_exact(
        walks in prop::collection::vec((any::<u64>(), 1u64..16, any::<bool>()), 1..80),
        cut in 0usize..80,
        order_seed in any::<u64>(),
    ) {
        let mut whole = Telemetry::new();
        for (i, &(cycles, refs, fb)) in walks.iter().enumerate() {
            use dmt_telemetry::Probe;
            whole.walk(cycles, refs, fb);
            whole.sample(i as u64 + 1, 0.5, cycles % 4096);
        }

        let cut = cut % walks.len().max(1);
        let mut shards = [Telemetry::new(), Telemetry::new()];
        for (i, &(cycles, refs, fb)) in walks.iter().enumerate() {
            use dmt_telemetry::Probe;
            let t = &mut shards[usize::from(i >= cut)];
            t.walk(cycles, refs, fb);
            t.sample(i as u64 + 1, 0.5, cycles % 4096);
        }

        let forward_first = order_seed.is_multiple_of(2);
        let (first, second) = if forward_first { (0, 1) } else { (1, 0) };
        let mut merged = Telemetry::new();
        merged.merge(&shards[first]);
        merged.merge(&shards[second]);
        prop_assert_eq!(merged, whole);
    }

    /// Sanity: the whole-histogram sum/count equal the raw aggregates
    /// (records are never dropped or double-counted by bucketing).
    #[test]
    fn histogram_scalars_match_raw_aggregates(
        samples in prop::collection::vec(0u64..(1 << 48), 1..300),
    ) {
        let h = hist_of(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.min(), samples.iter().min().copied());
        prop_assert_eq!(h.max(), samples.iter().max().copied());
        let bucket_total: u64 = h.buckets().iter().sum();
        prop_assert_eq!(bucket_total, h.count());
    }
}
