//! Graph construction, search keys and the measurements every workload
//! shares: seeds, level fingerprints, storage counters and peak RSS.

use std::collections::BTreeMap;
use std::time::Instant;

use havoq_comm::RankCtx;
use havoq_graph::csr::{CsrStorageSnapshot, GraphConfig};
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::gen::smallworld::SmallWorldGenerator;
use havoq_graph::types::{Edge, VertexId};
use havoq_nvram::{CacheStatsSnapshot, DeviceProfile, IoConfig, PageCacheConfig};

use crate::stats::median;
use crate::trace::Tracer;

/// splitmix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The independent seeds one workload seed is split into.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub graph: u64,
    pub keys: u64,
    pub arrivals: u64,
}

impl Seeds {
    pub fn from_workload(seed: u64) -> Self {
        Self { graph: mix(seed ^ 0x67), keys: mix(seed ^ 0x6b65), arrivals: mix(seed ^ 0x6172) }
    }
}

/// Small deterministic generator for keys and arrival jitter.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    /// Graph500 RMAT, symmetrized.
    Rmat { scale: u32 },
    /// Watts–Strogatz ring lattice with rewiring, symmetrized.
    SmallWorld { scale: u32, degree: u64, rewire: f64 },
}

impl GraphSpec {
    fn edges_for_rank(&self, seed: u64, ctx: &RankCtx) -> Vec<Edge> {
        let mut local = match *self {
            GraphSpec::Rmat { scale } => {
                RmatGenerator::graph500(scale).edges_for_rank(seed, ctx.rank(), ctx.size())
            }
            GraphSpec::SmallWorld { scale, degree, rewire } => SmallWorldGenerator::new(
                1 << scale,
                degree,
            )
            .with_rewire(rewire)
            .edges_for_rank(seed, ctx.rank(), ctx.size()),
        };
        let reversed: Vec<Edge> =
            local.iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()).collect();
        local.extend(reversed);
        local
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Storage {
    InMemory,
    /// Gap-compressed CSR behind the page cache on the simulated
    /// Fusion-io device, sync demand paging plus readahead. The cache
    /// holds this share of the rank's encoded pool.
    ExtCompressed {
        cache_share: f64,
    },
}

pub const PAGE_SIZE: usize = 4096;
pub const READAHEAD_PAGES: usize = 8;

impl Storage {
    /// Construction config; `pool_bytes` is this rank's encoded pool size
    /// (measured on an earlier build of the same graph, or estimated).
    fn graph_config(&self, pool_bytes: u64) -> GraphConfig {
        match *self {
            Storage::InMemory => GraphConfig::default(),
            Storage::ExtCompressed { cache_share } => {
                let pages = (pool_bytes as f64 * cache_share / PAGE_SIZE as f64).ceil() as usize;
                GraphConfig::external_compressed(
                    DeviceProfile::fusion_io(),
                    PageCacheConfig {
                        page_size: PAGE_SIZE,
                        capacity_pages: pages.max(16),
                        readahead_pages: READAHEAD_PAGES,
                        io: IoConfig::default(),
                        ..PageCacheConfig::default()
                    },
                )
            }
        }
    }
}

/// World-max phase times of one construction, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub gen_ns: u64,
    pub build_ns: u64,
    pub total_ns: u64,
}

/// Encoded-pool estimate for a compressed CSR's first build, in bytes per
/// generated edge.
const POOL_BYTES_PER_EDGE_ESTIMATE: f64 = 1.5;

/// Generate the graph, build it and select `num_keys` search keys.
/// Collective. `pool_hint` is the rank's encoded pool as an earlier build
/// of the same graph measured it, or 0 to estimate it; it sizes a
/// compressed CSR's cache.
fn build(
    ctx: &RankCtx,
    tr: &mut Tracer,
    spec: GraphSpec,
    storage: Storage,
    seeds: Seeds,
    num_keys: usize,
    pool_hint: u64,
) -> (DistGraph, Vec<VertexId>, SetupTimes) {
    ctx.barrier();
    let t0 = Instant::now();
    let s = tr.open("graph.gen", 0);
    let edges = spec.edges_for_rank(seeds.graph, ctx);
    tr.close(s);
    let gen = t0.elapsed();
    let pool = match pool_hint {
        0 => (edges.len() as f64 * POOL_BYTES_PER_EDGE_ESTIMATE) as u64,
        measured => measured,
    };
    let s = tr.open("graph.build", 0);
    let g = DistGraph::build(ctx, edges, PartitionStrategy::EdgeList, storage.graph_config(pool));
    tr.close(s);
    let built = t0.elapsed();
    let s = tr.open("bench.keys", 0);
    let keys = select_keys(ctx, &g, num_keys, seeds.keys);
    tr.close(s);
    let total = t0.elapsed();
    let times = SetupTimes {
        gen_ns: ctx.all_reduce_max(gen.as_nanos() as u64),
        build_ns: ctx.all_reduce_max((built - gen).as_nanos() as u64),
        total_ns: ctx.all_reduce_max(total.as_nanos() as u64),
    };
    (g, keys, times)
}

/// Search keys have at least this degree. Graph500 only asks for a
/// nonzero degree, but an RMAT graph has small components, and one key in
/// a two-vertex component runs at a few thousand TEPS and drags the
/// harmonic mean of a whole run down by two orders of magnitude. A vertex
/// of this degree lies in the giant component.
const MIN_KEY_DEGREE: u64 = 8;

/// A built graph, its search keys, and what its construction measured.
pub struct Setup {
    pub g: DistGraph,
    pub keys: Vec<VertexId>,
    /// One entry per construction.
    pub times: Vec<SetupTimes>,
    /// Peak heap growth of the first construction, in MiB.
    pub heap_mib: f64,
}

/// Constructions per run: at least `MIN_SETUPS`, and more while they add
/// up to less than `MIN_SETUP_SECONDS`, so that the median of a small
/// graph's quick setups is as steady as that of a large graph's.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const MIN_SETUP_SECONDS: f64 = 2.0;

/// Build the graph several times, freeing each build before the next, and
/// keep the last. Collective: the count depends only on world-max times.
pub fn build_repeatedly(
    ctx: &RankCtx,
    tr: &mut Tracer,
    spec: GraphSpec,
    storage: Storage,
    seeds: Seeds,
    num_keys: usize,
) -> Setup {
    let mut times = Vec::new();
    let mut pool_hint = 0;
    let mut heap_mib = 0.0;
    let mut kept = None;
    let mut spent = 0.0;
    while times.len() < MIN_SETUPS || (spent < MIN_SETUP_SECONDS && times.len() < MAX_SETUPS) {
        drop(kept.take());
        let mut build = || build(ctx, tr, spec, storage, seeds, num_keys, pool_hint);
        let (g, keys, t) = if times.is_empty() {
            let (built, peak) = with_heap_peak(ctx, build);
            heap_mib = peak;
            built
        } else {
            build()
        };
        spent += t.total_ns as f64 / 1e9;
        times.push(t);
        pool_hint = g.csr().storage_snapshot().map_or(0, |s| s.encoded_bytes);
        kept = Some((g, keys));
    }
    let (g, keys) = kept.expect("at least one construction");
    Setup { g, keys, times, heap_mib }
}

/// Run `f` and return the peak growth of the process's heap while it
/// ran, in MiB (on rank 0; 0 elsewhere). Collective: the barriers keep
/// both ranks' work outside `f` out of the window.
fn with_heap_peak<R>(ctx: &RankCtx, f: impl FnOnce() -> R) -> (R, f64) {
    ctx.barrier();
    if ctx.rank() == 0 {
        crate::heap::start();
    }
    ctx.barrier();
    let r = f();
    ctx.barrier();
    let peak = if ctx.rank() == 0 { crate::heap::stop() } else { 0.0 };
    ctx.barrier();
    (r, peak)
}

/// An in-memory build of the graph `g` was built from, to validate trees
/// computed on slower storage against. Validating through the page cache
/// took twice as long as the timed calls and replaced their cache
/// contents between keys. Trees are indexed by local vertex, so the twin
/// must lay out local vertices as `g` does; it panics otherwise.
/// Collective.
pub fn in_memory_twin(ctx: &RankCtx, spec: GraphSpec, seeds: Seeds, g: &DistGraph) -> DistGraph {
    let edges = spec.edges_for_rank(seeds.graph, ctx);
    let twin = DistGraph::build(ctx, edges, PartitionStrategy::EdgeList, GraphConfig::default());
    let same = twin.num_local_vertices() == g.num_local_vertices()
        && (0..g.num_local_vertices()).all(|li| twin.vertex_at(li) == g.vertex_at(li));
    assert!(same, "in-memory twin lays out local vertices differently");
    twin
}

/// Record the setup times: the median construction and its phases.
pub fn report(times: &[SetupTimes], v: &mut BTreeMap<&'static str, f64>) {
    let med = |f: fn(&SetupTimes) -> u64| {
        median(&times.iter().map(|t| f(t) as f64 / 1e9).collect::<Vec<_>>())
    };
    v.insert("setup_s", med(|t| t.total_ns));
    v.insert("graph.gen_s", med(|t| t.gen_ns));
    v.insert("graph.build_s", med(|t| t.build_ns));
}

/// Distinct search keys with degree of at least `MIN_KEY_DEGREE`,
/// identical on every rank. Collective. Panics when the graph cannot
/// supply them, which the workload sizes rule out.
fn select_keys(ctx: &RankCtx, g: &DistGraph, num_keys: usize, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut rng = Rng::new(seed);
    let mut keys: Vec<VertexId> = Vec::new();
    let mut tries = 0;
    while keys.len() < num_keys {
        tries += 1;
        assert!(
            tries <= num_keys * 64,
            "graph has too few vertices of degree {MIN_KEY_DEGREE} for {num_keys} keys"
        );
        let key = VertexId(rng.below(n));
        let deg = if g.is_master(key) { g.total_degree(key) } else { 0 };
        if ctx.all_reduce_max(deg) >= MIN_KEY_DEGREE && !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

/// Order-independent digest of a BFS level array, identical on every
/// rank: each master adds `mix(vertex ^ mix(level))`, then the sum is
/// all-reduced. Equal level arrays give equal digests. Collective.
pub fn level_fingerprint(ctx: &RankCtx, g: &DistGraph, length_of: impl Fn(usize) -> u64) -> u64 {
    let mut acc = 0u64;
    for v in g.local_vertices() {
        if g.is_master(v) {
            acc = acc.wrapping_add(mix(v.0 ^ mix(length_of(g.local_index(v)))));
        }
    }
    ctx.all_reduce_sum(acc)
}

/// The storage layer's cumulative counters on this rank (all zero for the
/// in-memory CSR). Differences of two snapshots give per-call numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageCounters {
    pub cache: CacheStatsSnapshot,
    pub device_reads: u64,
    pub storage: CsrStorageSnapshot,
}

impl StorageCounters {
    pub fn read(g: &DistGraph) -> Self {
        let csr = g.csr();
        Self {
            cache: csr.cache_stats().unwrap_or_default(),
            device_reads: csr.cache().map_or(0, |c| c.device().stats().reads),
            storage: csr.storage_snapshot().unwrap_or_default(),
        }
    }

    /// Per-call counters: `self - before` for the monotone counters. The
    /// pool sizes are levels, not counters, and are kept from `self`.
    pub fn since(&self, before: &Self) -> Self {
        self.zip(before, |a, b| a - b)
    }

    /// Element-wise sum of the monotone counters (pool sizes from `self`).
    #[cfg(test)]
    pub fn plus(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, o: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        let (a, b) = (&self.cache, &o.cache);
        Self {
            cache: CacheStatsSnapshot {
                hits: f(a.hits, b.hits),
                misses: f(a.misses, b.misses),
                evictions: f(a.evictions, b.evictions),
                writebacks: f(a.writebacks, b.writebacks),
                prefetches: f(a.prefetches, b.prefetches),
                fault_waits: f(a.fault_waits, b.fault_waits),
                wb_coalesced: f(a.wb_coalesced, b.wb_coalesced),
                dropped_prefetches: f(a.dropped_prefetches, b.dropped_prefetches),
                io_stall_ns: f(a.io_stall_ns, b.io_stall_ns),
                evict_stall_ns: f(a.evict_stall_ns, b.evict_stall_ns),
                page_checksum_failures: f(a.page_checksum_failures, b.page_checksum_failures),
                page_reread_retries: f(a.page_reread_retries, b.page_reread_retries),
            },
            device_reads: f(self.device_reads, o.device_reads),
            storage: CsrStorageSnapshot {
                adj_decodes: f(self.storage.adj_decodes, o.storage.adj_decodes),
                adj_decoded_bytes: f(self.storage.adj_decoded_bytes, o.storage.adj_decoded_bytes),
                ..self.storage
            },
        }
    }
}

/// Peak resident set of this process so far (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_core::algorithms::bfs::{bfs, BfsConfig};

    /// The library copies the page cache's cumulative counters into each
    /// BFS result, so on a reused graph a per-run value includes every
    /// earlier run. Snapshot differences taken around each call are the
    /// per-call values: they sum to the final cumulative counters.
    #[test]
    fn per_call_deltas_sum_to_the_cumulative_counters() {
        let out = CommWorld::run(2, |ctx| {
            let mut tr = Tracer::new(Instant::now());
            let storage = Storage::ExtCompressed { cache_share: 0.25 };
            let spec = GraphSpec::Rmat { scale: 10 };
            let (g, keys, _) = build(ctx, &mut tr, spec, storage, Seeds::from_workload(3), 4, 0);
            let start = StorageCounters::read(&g);
            let mut sum = StorageCounters { storage: start.storage, ..Default::default() };
            let (mut last_reported, mut last_delta) = (0, 0);
            for &key in &keys {
                let before = StorageCounters::read(&g);
                let r = bfs(ctx, &g, key, &BfsConfig::default());
                let delta = StorageCounters::read(&g).since(&before);
                assert!(delta.storage.adj_decodes > 0, "every call decodes adjacency");
                sum = sum.plus(&delta);
                last_reported = r.stats.adj_decodes;
                last_delta = delta.storage.adj_decodes;
            }
            let end = StorageCounters::read(&g);
            assert_eq!(start.plus(&sum), end);
            // the library's per-run field is the cumulative value
            assert_eq!(last_reported, end.storage.adj_decodes);
            assert!(last_delta < last_reported, "later calls report earlier calls' work too");
            sum.cache.accesses()
        });
        assert!(out.iter().all(|&a| a > 0));
    }
}
