//! Acceptance tests: lossless roundtrip over every Table-4 benchmark
//! and the compression bound on sequential-heavy traces.

use dmt_mem::VirtAddr;
use dmt_trace::{capture, TraceFile, DEFAULT_CHUNK_LEN, NAIVE_BYTES_PER_ACCESS};
use dmt_workloads::bench7::all_benchmarks;
use dmt_workloads::gen::{Access, Region, Workload};

/// Roundtrip is lossless — metadata and every access — for all seven
/// Table-4 benchmarks.
#[test]
fn all_seven_benchmarks_roundtrip_losslessly() {
    for w in all_benchmarks() {
        let n = 20_000;
        let seed = 0xD317;
        // Generators may overshoot `n` by a few accesses (they push
        // grouped accesses per operation); capture matches trace().
        let expected = w.trace(n, seed);
        let mut bytes = Vec::new();
        let summary = capture(w.as_ref(), n, seed, DEFAULT_CHUNK_LEN, &mut bytes).unwrap();
        assert_eq!(summary.accesses, expected.len() as u64, "{}", w.name());

        let file = TraceFile::from_bytes(bytes).unwrap();
        assert_eq!(file.meta().name, w.name());
        assert_eq!(file.meta().footprint(), w.footprint(), "{}", w.name());
        assert_eq!(
            file.meta().to_regions().len(),
            w.regions().len(),
            "{}",
            w.name()
        );
        let replayed = file.read_all().unwrap();
        assert_eq!(replayed, expected, "{} trace differs", w.name());
    }
}

/// Every benchmark's encoding — even the pointer-chasing, uniformly
/// random ones — beats the naive 17-byte record; the paper-regime
/// requirement is ≤ 50%.
#[test]
fn all_benchmarks_compress_below_half_of_naive() {
    for w in all_benchmarks() {
        let mut bytes = Vec::new();
        let s = capture(w.as_ref(), 50_000, 1, DEFAULT_CHUNK_LEN, &mut bytes).unwrap();
        let ratio = s.compression_ratio();
        assert!(
            ratio <= 0.5,
            "{}: {} bytes for {} accesses = {:.3} of naive",
            w.name(),
            s.total_bytes(),
            s.accesses,
            ratio
        );
    }
}

/// A sequential scanner: the best case the delta codec is built for.
struct SeqScan {
    bytes: u64,
    stride: u64,
}

impl Workload for SeqScan {
    fn name(&self) -> &'static str {
        "SeqScan"
    }

    fn regions(&self) -> Vec<Region> {
        vec![Region {
            base: VirtAddr(1 << 30),
            len: self.bytes,
            label: "scan",
        }]
    }

    fn generate(&self, n: usize, _rng: &mut rand::rngs::SmallRng, out: &mut Vec<Access>) {
        for i in 0..n as u64 {
            let off = (i * self.stride) % self.bytes;
            out.push(Access::read(VirtAddr((1 << 30) + off)));
        }
    }
}

/// Acceptance bound: sequential-heavy traces must encode in at most
/// half the naive 17-byte-per-access representation (they actually land
/// near 2 bytes/access ≈ 12%).
#[test]
fn sequential_traces_compress_to_under_half_naive() {
    let w = SeqScan {
        bytes: 64 << 20,
        stride: 64,
    };
    let n = 100_000;
    let mut bytes = Vec::new();
    let s = capture(&w, n, 0, DEFAULT_CHUNK_LEN, &mut bytes).unwrap();
    assert_eq!(s.naive_bytes(), n as u64 * NAIVE_BYTES_PER_ACCESS);
    let ratio = s.compression_ratio();
    assert!(ratio <= 0.5, "sequential ratio {ratio:.3} > 0.5");
    // The real number is far better; keep a regression floor at 25%.
    assert!(ratio <= 0.25, "sequential ratio {ratio:.3} > 0.25");
    // And the trace still decodes exactly.
    let replayed = TraceFile::from_bytes(bytes).unwrap().read_all().unwrap();
    assert_eq!(replayed.len(), n);
    assert_eq!(replayed, w.trace(n, 0));
}
