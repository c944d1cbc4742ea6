//! The seven benchmarks of Table 4, as synthetic access-pattern
//! generators.
//!
//! Each generator reproduces the memory behaviour the paper leans on:
//!
//! | Benchmark  | Pattern modeled |
//! |---|---|
//! | Redis      | Zipfian key lookups: bucket-array read → entry chase → value read |
//! | Memcached  | Zipfian lookups over many slab regions (hash → item) |
//! | GUPS       | Uniform random read-modify-write over one giant table |
//! | BTree      | Root-to-leaf pointer chases through a node pool |
//! | Canneal    | Random element swaps: two scattered RMW pairs + netlist reads |
//! | XSBench    | Random nuclide selection + binary search over sorted grids |
//! | Graph500   | BFS: sequential frontier scan + random neighbor/visited probes |
//!
//! Footprints are scaled (see DESIGN.md): the default heap sizes keep the
//! same orders-of-magnitude ratio to TLB/PWC/LLC reach as the paper's
//! 62–155 GB working sets have on the real Xeon.

use crate::gen::{zipf_rank, Access, Region, Workload};
use dmt_mem::VirtAddr;
use rand::rngs::SmallRng;
use rand::Rng;

/// Base virtual address used for the dominant heap region (1 GiB-aligned
/// so TEA coverage is clean).
const HEAP_BASE: u64 = 0x10_0000_0000;
/// Base for secondary regions.
const AUX_BASE: u64 = 0x20_0000_0000;

fn heap(len: u64) -> Region {
    Region {
        base: VirtAddr(HEAP_BASE),
        len,
        label: "heap",
    }
}

// ---------------------------------------------------------------- Redis

/// Redis: in-memory KV store, 100% reads, skewed keys (Table 4 row 1).
#[derive(Debug, Clone, Copy)]
pub struct Redis {
    /// Number of records.
    pub records: u64,
    /// Bytes per record (dict entry + value).
    pub record_bytes: u64,
    /// Zipf skew of the key popularity.
    pub theta: f64,
}

impl Default for Redis {
    fn default() -> Self {
        // Scaled from 512 M x 256 B: 1 M x 256 B = 256 MiB of values.
        Redis {
            records: 1 << 20,
            record_bytes: 256,
            theta: 0.73,
        }
    }
}

impl Workload for Redis {
    fn name(&self) -> &'static str {
        "Redis"
    }

    fn regions(&self) -> Vec<Region> {
        let table_bytes = self.records * 16; // bucket array
        vec![
            heap(self.records * self.record_bytes),
            Region {
                base: VirtAddr(AUX_BASE),
                len: table_bytes,
                label: "dict",
            },
        ]
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        let table_bytes = self.records * 16;
        for _ in 0..n / 3 + 1 {
            let key = zipf_rank(rng, self.records, self.theta);
            // Bucket read in the dict array (hashed: scramble the key).
            let bucket = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (table_bytes / 16);
            out.push(Access::read(VirtAddr(AUX_BASE + bucket * 16)));
            // Entry + value in the heap.
            let rec = VirtAddr(HEAP_BASE + key * self.record_bytes);
            out.push(Access::read(rec));
            out.push(Access::read(rec + self.record_bytes / 2));
        }
        out.truncate(out.len().min(n + 3));
    }
}

// ------------------------------------------------------------ Memcached

/// Memcached: KV store over many slab regions (its 778-VMA layout is the
/// paper's stress case for register coverage).
#[derive(Debug, Clone, Copy)]
pub struct Memcached {
    /// Number of slab VMAs.
    pub slabs: u64,
    /// Bytes per slab.
    pub slab_bytes: u64,
    /// Gap between adjacent slab VMAs (the "<16 KiB bubbles").
    pub gap_bytes: u64,
    /// Zipf skew.
    pub theta: f64,
}

impl Default for Memcached {
    fn default() -> Self {
        Memcached {
            slabs: 64,
            slab_bytes: 4 << 20, // 256 MiB total
            gap_bytes: 8 << 10,
            theta: 0.6,
        }
    }
}

impl Memcached {
    fn slab_base(&self, i: u64) -> u64 {
        HEAP_BASE + i * (self.slab_bytes + self.gap_bytes)
    }
}

impl Workload for Memcached {
    fn name(&self) -> &'static str {
        "Memcached"
    }

    fn regions(&self) -> Vec<Region> {
        let mut regions: Vec<Region> = (0..self.slabs)
            .map(|i| Region {
                base: VirtAddr(self.slab_base(i)),
                len: self.slab_bytes,
                label: "slab",
            })
            .collect();
        regions.push(Region {
            base: VirtAddr(AUX_BASE),
            len: 32 << 20,
            label: "hashtable",
        });
        regions
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        let ht_slots = (32u64 << 20) / 8;
        for _ in 0..n / 2 + 1 {
            let key = zipf_rank(rng, self.slabs * self.slab_bytes / 1024, self.theta);
            let slot = key.wrapping_mul(0xff51_afd7_ed55_8ccd) % ht_slots;
            out.push(Access::read(VirtAddr(AUX_BASE + slot * 8)));
            let slab = key % self.slabs;
            let item = (key / self.slabs) % (self.slab_bytes / 1024);
            out.push(Access::read(VirtAddr(self.slab_base(slab) + item * 1024)));
        }
        out.truncate(out.len().min(n + 2));
    }
}

// ----------------------------------------------------------------- GUPS

/// GUPS: uniform random 8-byte updates over one table (worst case for
/// every translation cache).
#[derive(Debug, Clone, Copy)]
pub struct Gups {
    /// Table size in bytes.
    pub table_bytes: u64,
}

impl Default for Gups {
    fn default() -> Self {
        Gups {
            table_bytes: 256 << 20,
        }
    }
}

impl Workload for Gups {
    fn name(&self) -> &'static str {
        "GUPS"
    }

    fn regions(&self) -> Vec<Region> {
        vec![heap(self.table_bytes)]
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        let words = self.table_bytes / 8;
        for _ in 0..n {
            let w = rng.gen_range(0..words);
            out.push(Access::write(VirtAddr(HEAP_BASE + w * 8)));
        }
    }
}

// ---------------------------------------------------------------- BTree

/// BTree: root-to-leaf descents through a pointer-linked node pool
/// (mitosis-workload-btree analog).
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    /// Number of nodes in the pool.
    pub nodes: u64,
    /// Node size in bytes (a cache-line-ish B-tree node).
    pub node_bytes: u64,
    /// Tree depth per lookup.
    pub depth: u32,
}

impl Default for BTree {
    fn default() -> Self {
        BTree {
            nodes: 1 << 21, // 2 M nodes x 128 B = 256 MiB
            node_bytes: 128,
            depth: 7,
        }
    }
}

impl Workload for BTree {
    fn name(&self) -> &'static str {
        "BTree"
    }

    fn regions(&self) -> Vec<Region> {
        vec![heap(self.nodes * self.node_bytes)]
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        // A deterministic hash chain stands in for child pointers: node
        // k's child for key q is hash(k, q) — scattered like a real
        // freshly-built tree, and repeatable.
        while out.len() < n {
            let key: u64 = rng.gen();
            let mut node = 0u64; // root is hot: always node 0
            for level in 0..self.depth {
                out.push(Access::read(VirtAddr(HEAP_BASE + node * self.node_bytes)));
                let h = (node ^ key.rotate_left(level)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                node = h % self.nodes;
            }
        }
        out.truncate(n);
    }
}

// --------------------------------------------------------------- Canneal

/// Canneal: simulated-annealing element swaps over a netlist.
#[derive(Debug, Clone, Copy)]
pub struct Canneal {
    /// Number of elements.
    pub elements: u64,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Neighbour reads per swap (netlist fan-out).
    pub fanout: u32,
}

impl Default for Canneal {
    fn default() -> Self {
        Canneal {
            elements: 2 << 20, // 2 M x 64 B = 128 MiB
            elem_bytes: 64,
            fanout: 4,
        }
    }
}

impl Workload for Canneal {
    fn name(&self) -> &'static str {
        "Canneal"
    }

    fn regions(&self) -> Vec<Region> {
        vec![heap(self.elements * self.elem_bytes)]
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        while out.len() < n {
            // Pick two random elements, read their nets, swap (writes).
            let a = rng.gen_range(0..self.elements);
            let b = rng.gen_range(0..self.elements);
            for &e in &[a, b] {
                let base = VirtAddr(HEAP_BASE + e * self.elem_bytes);
                out.push(Access::read(base));
                for f in 0..self.fanout {
                    let neigh = (e ^ (0x85eb_ca6bu64 << f)) % self.elements;
                    out.push(Access::read(VirtAddr(HEAP_BASE + neigh * self.elem_bytes)));
                }
                out.push(Access::write(base));
            }
        }
        out.truncate(n);
    }
}

// --------------------------------------------------------------- XSBench

/// XSBench: Monte-Carlo neutron-cross-section lookups — random nuclide,
/// then a binary search over its sorted energy grid.
#[derive(Debug, Clone, Copy)]
pub struct XsBench {
    /// Number of nuclides.
    pub nuclides: u64,
    /// Grid points per nuclide.
    pub gridpoints: u64,
    /// Bytes per grid point.
    pub point_bytes: u64,
}

impl Default for XsBench {
    fn default() -> Self {
        XsBench {
            nuclides: 64,
            gridpoints: 1 << 16, // 64 x 65536 x 48 B = 192 MiB
            point_bytes: 48,
        }
    }
}

impl Workload for XsBench {
    fn name(&self) -> &'static str {
        "XSBench"
    }

    fn regions(&self) -> Vec<Region> {
        vec![heap(self.nuclides * self.gridpoints * self.point_bytes)]
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        while out.len() < n {
            let nuc = rng.gen_range(0..self.nuclides);
            let target = rng.gen_range(0..self.gridpoints);
            let base = HEAP_BASE + nuc * self.gridpoints * self.point_bytes;
            // Binary search: log2(grid) probes with shrinking stride.
            let (mut lo, mut hi) = (0u64, self.gridpoints);
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                out.push(Access::read(VirtAddr(base + mid * self.point_bytes)));
                if mid <= target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            out.push(Access::read(VirtAddr(base + lo * self.point_bytes)));
        }
        out.truncate(n);
    }
}

// -------------------------------------------------------------- Graph500

/// Graph500 BFS: sequential frontier scan + random CSR neighbour probes
/// + visited-bitmap updates.
#[derive(Debug, Clone, Copy)]
pub struct Graph500 {
    /// Number of vertices.
    pub vertices: u64,
    /// Average degree (edge factor).
    pub edge_factor: u64,
}

impl Default for Graph500 {
    fn default() -> Self {
        Graph500 {
            vertices: 1 << 21, // 2 M vertices, 32 edges: ~512 MiB CSR
            edge_factor: 16,
        }
    }
}

impl Workload for Graph500 {
    fn name(&self) -> &'static str {
        "Graph500"
    }

    fn regions(&self) -> Vec<Region> {
        let rowptr = self.vertices * 8;
        let edges = self.vertices * self.edge_factor * 8;
        let visited = self.vertices / 8;
        vec![
            Region {
                base: VirtAddr(HEAP_BASE),
                len: edges,
                label: "edges",
            },
            Region {
                base: VirtAddr(AUX_BASE),
                len: rowptr,
                label: "rowptr",
            },
            Region {
                base: VirtAddr(AUX_BASE + (1 << 32)),
                len: visited.max(4096),
                label: "visited",
            },
        ]
    }

    fn generate(&self, n: usize, rng: &mut SmallRng, out: &mut Vec<Access>) {
        let visited_base = AUX_BASE + (1 << 32);
        let mut frontier = rng.gen_range(0..self.vertices);
        while out.len() < n {
            // Sequential-ish frontier pop: rowptr read.
            frontier = (frontier + 1) % self.vertices;
            out.push(Access::read(VirtAddr(AUX_BASE + frontier * 8)));
            // A few sequential edge reads at a random row offset.
            let row = (frontier.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)) % self.vertices;
            let edge_base = HEAP_BASE + row * self.edge_factor * 8;
            let scan = rng.gen_range(1..=4u64);
            for e in 0..scan {
                out.push(Access::read(VirtAddr(edge_base + e * 8)));
                // The neighbour's visited bit: random single-byte probe.
                let neigh = (row ^ (e + 1).wrapping_mul(0x9e37_79b9)) % self.vertices;
                out.push(Access::write(VirtAddr(visited_base + (neigh / 8) / 8 * 8)));
            }
        }
        out.truncate(n);
    }
}

/// All seven benchmarks with their default (scaled) configurations, in
/// the paper's order.
pub fn all_benchmarks() -> Vec<Box<dyn Workload>> {
    (0..BENCH7_COUNT)
        .map(|i| nth_benchmark(i, 1).unwrap())
        .collect()
}

/// Number of benchmarks in the paper's Table 6 suite.
pub const BENCH7_COUNT: usize = 7;

/// Construct benchmark `i` (paper order) alone, with its dominant size
/// field multiplied by `f`. Returns `None` when `i >= BENCH7_COUNT`.
/// With `f == 1` this matches [`all_benchmarks`] element-for-element.
pub fn nth_benchmark(i: usize, f: u64) -> Option<Box<dyn Workload>> {
    Some(match i {
        0 => Box::new(Redis {
            records: f * (1 << 20),
            ..Default::default()
        }) as Box<dyn Workload>,
        1 => Box::new(Memcached {
            slabs: 64,
            slab_bytes: f * (4 << 20),
            ..Default::default()
        }),
        2 => Box::new(Gups {
            table_bytes: f * (256 << 20),
        }),
        3 => Box::new(BTree {
            nodes: f * (1 << 21),
            ..Default::default()
        }),
        4 => Box::new(Canneal {
            elements: f * (2 << 20),
            ..Default::default()
        }),
        5 => Box::new(XsBench {
            gridpoints: f * (1 << 16),
            ..Default::default()
        }),
        6 => Box::new(Graph500 {
            vertices: f * (1 << 21),
            ..Default::default()
        }),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_benchmarks_have_the_paper_names() {
        let names: Vec<&str> = all_benchmarks().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "Redis",
                "Memcached",
                "GUPS",
                "BTree",
                "Canneal",
                "XSBench",
                "Graph500"
            ]
        );
    }

    #[test]
    fn traces_stay_inside_declared_regions() {
        for w in all_benchmarks() {
            let regions = w.regions();
            let trace = w.trace(5_000, 1);
            assert!(!trace.is_empty());
            for a in &trace {
                let inside = regions
                    .iter()
                    .any(|r| a.va >= r.base && a.va.raw() < r.base.raw() + r.len);
                assert!(inside, "{}: {:#x} outside regions", w.name(), a.va.raw());
            }
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        for w in all_benchmarks() {
            assert_eq!(w.trace(1_000, 7), w.trace(1_000, 7), "{}", w.name());
            assert_ne!(w.trace(1_000, 7), w.trace(1_000, 8), "{}", w.name());
        }
    }

    #[test]
    fn gups_is_uniform_btree_chases_pointers() {
        let gups = Gups::default().trace(10_000, 3);
        let pages: HashSet<u64> = gups.iter().map(|a| a.va.raw() >> 12).collect();
        // Uniform random: almost every access is a distinct page.
        assert!(pages.len() > 9_000, "GUPS touched {} pages", pages.len());

        let bt = BTree::default().trace(10_000, 3);
        let root_hits = bt.iter().filter(|a| a.va.raw() == 0x10_0000_0000).count();
        // The root is touched once per descent: strong reuse.
        assert!(root_hits > 1_000, "root hits = {root_hits}");
    }

    #[test]
    fn memcached_layout_has_many_clustered_regions() {
        let mc = Memcached::default();
        let regions = mc.regions();
        assert!(regions.len() > 60);
        // Adjacent slabs are separated by small bubbles only.
        let gap = regions[1].base.raw() - (regions[0].base.raw() + regions[0].len);
        assert!(gap <= 16 << 10, "gap = {gap}");
    }

    #[test]
    fn footprints_exceed_stlb_and_llc_reach() {
        for w in all_benchmarks() {
            // STLB reach: 1536 x 4 KiB = 6 MiB; LLC: 22 MiB.
            assert!(
                w.footprint() > 100 << 20,
                "{} footprint {} too small",
                w.name(),
                w.footprint()
            );
        }
    }

    #[test]
    fn xsbench_probes_decay_binary_search() {
        let xs = XsBench::default().trace(100, 5);
        // Each lookup is ~log2(65536) = 16-17 probes.
        assert!(xs.len() == 100);
    }

    #[test]
    fn writes_appear_where_expected() {
        assert!(Gups::default().trace(100, 1).iter().all(|a| a.write));
        assert!(Redis::default().trace(100, 1).iter().all(|a| !a.write));
        assert!(Canneal::default().trace(200, 1).iter().any(|a| a.write));
    }
}
