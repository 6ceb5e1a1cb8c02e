//! The three single-source BFS workloads: search keys run one after
//! another through the asynchronous visitor queue (`bfs`) or the
//! direction-optimizing engine (`direction_bfs`), each tree validated
//! outside the timed call. A key may run several times back to back; its
//! time is then the fastest of its runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use havoq_comm::{CommWorld, RankCtx};
use havoq_core::algorithms::bfs::{bfs, BfsConfig, BfsData, BfsResult};
use havoq_core::algorithms::validate::validate_bfs;
use havoq_core::direction::{direction_bfs, DirectionMode};
use havoq_core::TraversalStats;
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::setup::{
    self, level_fingerprint, GraphSpec, Seeds, SetupTimes, Storage, StorageCounters,
};
use crate::stats::{harmonic_mean, highest_supported, mean, median, percentile};
use crate::trace::{Span, Tracer};
use crate::{Outcome, RANKS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The paper's asynchronous visitor queue.
    Async,
    /// Level-synchronous direction-optimizing BFS, `DirectionMode::Auto`.
    Direction,
}

#[derive(Clone, Copy, Debug)]
pub struct BfsWorkload {
    pub graph: GraphSpec,
    pub storage: Storage,
    pub engine: Engine,
    /// Timed runs of each key, back to back. The key's time is the
    /// fastest, so a host stall in one run does not set it.
    pub repeats: usize,
}

/// Search keys drawn per run; the timed loop cycles through them.
const NUM_KEYS: usize = 64;
/// Untimed traversals before timing starts.
const WARMUP_KEYS: usize = 2;
/// Keys whose direction-optimizing levels are checked against async `bfs`.
const FINGERPRINT_SAMPLE: usize = 2;
/// All-reduce calls in the collective latency probe.
const PROBE_CALLS: u32 = 2000;

/// One timed call on one rank.
struct KeyRun {
    /// This rank's time in the call, and the slowest rank's.
    call_ns: u64,
    key_ns: u64,
    /// `stats.elapsed`: the traversal loop inside the call.
    loop_ns: u64,
    traversed: u64,
    visited: u64,
    levels: u64,
    inspected: u64,
    stats: TraversalStats,
    /// Storage counters of this call alone.
    storage: StorageCounters,
    ok: bool,
}

struct RankOut {
    setups: Vec<SetupTimes>,
    /// Peak heap growth of the first construction, in MiB.
    heap_mib: f64,
    /// `[untraced, traced]` phases; the traced one is empty without tracing.
    phases: [Vec<KeyRun>; 2],
    probe_ns: u64,
    validate_ns: u64,
    local_edges: u64,
    storage_end: StorageCounters,
    spans: Vec<Span>,
}

struct Call {
    result: BfsResult,
    levels: u64,
    inspected: u64,
}

impl Engine {
    fn span(self) -> &'static str {
        match self {
            Engine::Async => "core.bfs",
            Engine::Direction => "core.direction_bfs",
        }
    }

    fn call(self, ctx: &RankCtx, g: &DistGraph, key: VertexId) -> Call {
        match self {
            Engine::Async => {
                let result = bfs(ctx, g, key, &BfsConfig::default());
                Call { levels: result.max_level + 1, inspected: 0, result }
            }
            Engine::Direction => {
                let cfg = BfsConfig::default().with_direction(DirectionMode::Auto);
                let run = direction_bfs(ctx, g, key, &cfg);
                Call {
                    levels: run.trace.len() as u64,
                    inspected: run.edges_inspected,
                    result: run.result,
                }
            }
        }
    }
}

/// One rank's measuring state over a built graph.
struct Rank<'a> {
    ctx: &'a RankCtx,
    g: &'a DistGraph,
    /// The graph trees are validated against: `g` itself, or an in-memory
    /// copy of it when `g` sits behind the page cache.
    check_g: &'a DistGraph,
    keys: &'a [VertexId],
    engine: Engine,
    repeats: usize,
    tr: Tracer,
    /// Index of the next key, counted over all phases.
    next: usize,
    validate_ns: u64,
}

impl Rank<'_> {
    /// Correctness of one timed tree, outside the timed call:
    /// `validate_bfs`, and on a sample of direction-optimizing keys, equal
    /// level fingerprints with async `bfs`. A repeat of a key passes
    /// without validation when every rank's tree equals the key's first
    /// tree and that one passed. Collective.
    fn check(
        &mut self,
        key: VertexId,
        nth: usize,
        first: Option<(&[BfsData], bool)>,
        call: &Call,
    ) -> bool {
        let (ctx, g, state) = (self.ctx, self.check_g, &call.result.local_state);
        let span = self.tr.open("core.validate", nth as u64);
        if let Some((tree, passed)) = first {
            let same = passed && state.as_slice() == tree;
            if ctx.all_reduce_min(u64::from(same)) == 1 {
                self.tr.close(span);
                return true;
            }
        }
        let mut ok = validate_bfs(ctx, g, key, state).is_valid();
        if self.engine == Engine::Direction && first.is_none() && nth < FINGERPRINT_SAMPLE {
            let s = self.tr.open("core.bfs", nth as u64);
            let reference = bfs(ctx, g, key, &BfsConfig::default());
            self.tr.close(s);
            ok &= level_fingerprint(ctx, g, |li| state[li].length)
                == level_fingerprint(ctx, g, |li| reference.local_state[li].length);
        }
        self.tr.close(span);
        ok
    }

    /// Run keys, each `repeats` times, until the slowest rank's timed
    /// calls add up to `budget`. Collective: every rank sees the same
    /// all-reduced times, so all stop after the same key.
    fn measure(&mut self, budget: Duration) -> Vec<KeyRun> {
        let (ctx, g) = (self.ctx, self.g);
        let root = self.tr.open("bench.run", 0);
        let mut runs = Vec::new();
        let mut spent = 0u64;
        while spent < budget.as_nanos() as u64 {
            let nth = self.next;
            self.next += 1;
            let key = self.keys[nth % self.keys.len()];
            let mut first: Option<(Vec<BfsData>, bool)> = None;
            for _ in 0..self.repeats {
                let before = StorageCounters::read(g);
                let span = self.tr.open(self.engine.span(), nth as u64);
                let t = Instant::now();
                let call = self.engine.call(ctx, g, key);
                let call_ns = t.elapsed().as_nanos() as u64;
                self.tr.close(span);
                let storage = StorageCounters::read(g).since(&before);
                let key_ns = ctx.all_reduce_max(call_ns);
                spent += key_ns;

                let t = Instant::now();
                let seen = first.as_ref().map(|(tree, passed)| (tree.as_slice(), *passed));
                let ok = self.check(key, nth, seen, &call);
                self.validate_ns += t.elapsed().as_nanos() as u64;
                runs.push(KeyRun {
                    call_ns,
                    key_ns,
                    loop_ns: call.result.stats.elapsed.as_nanos() as u64,
                    traversed: call.result.traversed_edges,
                    visited: call.result.visited_count,
                    levels: call.levels,
                    inspected: call.inspected,
                    stats: call.result.stats,
                    storage,
                    ok,
                });
                if first.is_none() && self.repeats > 1 {
                    first = Some((call.result.local_state, ok));
                }
            }
        }
        self.tr.close(root);
        runs
    }
}

fn rank_main(
    ctx: &RankCtx,
    w: BfsWorkload,
    seeds: Seeds,
    budget: Duration,
    traced: bool,
) -> RankOut {
    let mut tr = Tracer::new(Instant::now());
    tr.set_enabled(traced);
    let setup = setup::build_repeatedly(ctx, &mut tr, w.graph, w.storage, seeds, NUM_KEYS);
    let twin = match w.storage {
        Storage::InMemory => None,
        Storage::ExtCompressed { .. } => Some(setup::in_memory_twin(ctx, w.graph, seeds, &setup.g)),
    };

    let s = tr.open("comm.all_reduce", 0);
    let t = Instant::now();
    for i in 0..PROBE_CALLS {
        std::hint::black_box(ctx.all_reduce_sum(u64::from(i)));
    }
    let probe_ns = ctx.all_reduce_max(t.elapsed().as_nanos() as u64);
    tr.close(s);

    tr.set_enabled(false);
    for &key in setup.keys.iter().rev().take(WARMUP_KEYS) {
        std::hint::black_box(w.engine.call(ctx, &setup.g, key));
    }
    let mut rank = Rank {
        ctx,
        g: &setup.g,
        check_g: twin.as_ref().unwrap_or(&setup.g),
        keys: &setup.keys,
        engine: w.engine,
        repeats: w.repeats,
        tr,
        next: 0,
        validate_ns: 0,
    };
    let phases = if traced {
        let untraced = rank.measure(budget / 2);
        rank.tr.set_enabled(true);
        [untraced, rank.measure(budget / 2)]
    } else {
        [rank.measure(budget), Vec::new()]
    };
    RankOut {
        setups: setup.times.clone(),
        heap_mib: setup.heap_mib,
        phases,
        probe_ns,
        validate_ns: rank.validate_ns,
        local_edges: setup.g.csr().num_edges(),
        storage_end: StorageCounters::read(&setup.g),
        spans: rank.tr.into_spans(),
    }
}

/// The fastest of each key's `repeats` runs.
fn fastest_per_key(runs: &[KeyRun], repeats: usize) -> Vec<&KeyRun> {
    runs.chunks(repeats).filter_map(|key| key.iter().min_by_key(|r| r.key_ns)).collect()
}

fn key_mteps(runs: &[&KeyRun]) -> Vec<f64> {
    runs.iter().map(|r| r.traversed as f64 * 1e3 / r.key_ns as f64).collect()
}

pub fn run(w: BfsWorkload, seeds: Seeds, budget: Duration, traced: bool) -> Outcome {
    let out = CommWorld::run(RANKS, |ctx| rank_main(ctx, w, seeds, budget, traced));
    let r0 = &out[0];
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();

    setup::report(&r0.setups, &mut v);
    v.insert("peak_heap_mib", r0.heap_mib);

    let all: Vec<&KeyRun> = r0.phases.iter().flatten().collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| !r.ok).count() as u64;

    // end-to-end numbers come from the untraced phase only
    let timed = fastest_per_key(&r0.phases[0], w.repeats);
    let mteps = harmonic_mean(&key_mteps(&timed));
    let key_ms: Vec<f64> = timed.iter().map(|r| r.key_ns as f64 / 1e6).collect();
    v.insert("bfs_mteps", mteps.value);
    v.insert("bfs_p50_ms", median(&key_ms));
    notes.push(format!(
        "{} timed keys, {} run(s) each ({} skipped from the harmonic mean), {} traced runs, {} failed checks",
        timed.len(),
        w.repeats,
        mteps.skipped,
        r0.phases[1].len(),
        failed
    ));
    if let Some(p) = highest_supported(key_ms.len(), &[75.0, 90.0, 99.0]) {
        notes.push(format!("p{p} key time {:.3} ms", percentile(&key_ms, p)));
    }

    // per-layer counters: world totals per timed key over both phases
    let keys = attempted.max(1) as f64;
    let per_rank: Vec<Vec<&KeyRun>> =
        out.iter().map(|o| o.phases.iter().flatten().collect()).collect();
    let world =
        |f: &dyn Fn(&KeyRun) -> f64| -> f64 { per_rank.iter().flatten().map(|r| f(r)).sum() };
    let per_key = |f: &dyn Fn(&KeyRun) -> f64| world(f) / keys;
    let st = |f: fn(&TraversalStats) -> u64| move |r: &KeyRun| f(&r.stats) as f64;

    let edges: Vec<f64> = out.iter().map(|o| o.local_edges as f64).collect();
    v.insert("graph.edge_imbalance", edges.iter().cloned().fold(0.0, f64::max) / mean(&edges));
    let pool: f64 = out.iter().map(|o| o.storage_end.storage.encoded_bytes as f64).sum();
    let stored: f64 = out.iter().map(|o| o.storage_end.storage.num_edges as f64).sum();
    v.insert("csr.bytes_per_edge", if stored > 0.0 { pool / stored } else { 0.0 });
    let traversed: f64 = all.iter().map(|r| r.traversed as f64).sum();
    v.insert("varint.decodes", per_key(&|r| r.storage.storage.adj_decodes as f64));
    v.insert(
        "varint.decoded_bytes_per_edge",
        world(&|r| r.storage.storage.adj_decoded_bytes as f64) / traversed.max(1.0),
    );

    let executed = world(&st(|s| s.visitors_executed));
    let pushed = world(&st(|s| s.visitors_pushed));
    let visited: f64 = all.iter().map(|r| r.visited as f64).sum();
    v.insert("queue.visitors_executed", executed / keys);
    v.insert("queue.visitors_pushed", pushed / keys);
    v.insert("queue.exec_per_visited", executed / visited.max(1.0));
    v.insert("queue.replica_forwards", per_key(&st(|s| s.replica_forwards)));
    v.insert("ghost.filtered_frac", world(&st(|s| s.ghost_filtered)) / pushed.max(1.0));
    // every rank ran the same keys, so index i is one key on every rank
    let outside: Vec<f64> = (0..all.len())
        .map(|i| {
            let ns = per_rank.iter().map(|rs| rs[i].call_ns.saturating_sub(rs[i].loop_ns));
            ns.max().unwrap_or(0) as f64 / 1e6
        })
        .collect();
    v.insert("bfs.outside_loop_ms", mean(&outside));

    let frames = world(&st(|s| s.frames_sent));
    v.insert("mailbox.bytes_sent", per_key(&st(|s| s.bytes_sent)));
    v.insert("mailbox.frames_sent", frames / keys);
    v.insert(
        "mailbox.frame_fill",
        world(&|r| r.stats.mean_frame_fill * r.stats.frames_sent as f64) / frames.max(1.0),
    );
    v.insert("mailbox.payload_sent", per_key(&st(|s| s.payload_sent)));
    v.insert("mailbox.backpressure_stalls", per_key(&st(|s| s.backpressure_stalls)));
    v.insert("termination.waves", per_key(&st(|s| s.termination_waves)));
    v.insert("collective.all_reduce_us", r0.probe_ns as f64 / 1e3 / f64::from(PROBE_CALLS));
    v.insert("frontier.words_sent", per_key(&st(|s| s.frontier_words_sent)));

    if w.engine == Engine::Direction {
        let levels: f64 = all.iter().map(|r| r.levels as f64).sum();
        v.insert("direction.levels", levels / keys);
        // the level counts are world-agreed: take one rank's
        v.insert(
            "direction.bu_levels",
            all.iter().map(|r| r.stats.bottom_up_levels as f64).sum::<f64>() / keys,
        );
        v.insert(
            "direction.inspected_per_edge",
            all.iter().map(|r| r.inspected as f64).sum::<f64>() / traversed.max(1.0),
        );
        v.insert(
            "direction.ms_per_level",
            all.iter().map(|r| r.key_ns as f64 / 1e6).sum::<f64>() / levels.max(1.0),
        );
    }

    let hits = world(&|r| r.storage.cache.hits as f64);
    let misses = world(&|r| r.storage.cache.misses as f64);
    let stall_ns = world(&|r| r.storage.cache.io_stall_ns as f64);
    let call_ns = world(&|r| r.call_ns as f64);
    v.insert("cache.hit_rate", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
    v.insert("cache.misses", misses / keys);
    v.insert("cache.prefetches", per_key(&|r| r.storage.cache.prefetches as f64));
    v.insert("cache.fault_waits", per_key(&|r| r.storage.cache.fault_waits as f64));
    v.insert("cache.evictions", per_key(&|r| r.storage.cache.evictions as f64));
    v.insert("cache.io_stall_s", stall_ns / 1e9 / keys);
    v.insert("cache.io_stall_frac", stall_ns / call_ns.max(1.0));
    v.insert("device.reads", per_key(&|r| r.storage.device_reads as f64));

    v.insert("validate.s", r0.validate_ns as f64 / 1e9);
    if traced {
        let rate = |runs| harmonic_mean(&key_mteps(&fastest_per_key(runs, w.repeats))).value;
        let (plain, with_spans) = (rate(&r0.phases[0]), rate(&r0.phases[1]));
        v.insert("trace.overhead_pct", (plain / with_spans - 1.0) * 100.0);
    }

    Outcome {
        values: v,
        attempted,
        failed,
        spans: out.into_iter().map(|o| o.spans).collect(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(key_ns: u64) -> KeyRun {
        KeyRun {
            call_ns: key_ns,
            key_ns,
            loop_ns: key_ns,
            traversed: 1000,
            visited: 10,
            levels: 3,
            inspected: 0,
            stats: TraversalStats::default(),
            storage: StorageCounters::default(),
            ok: true,
        }
    }

    /// Each key's time is the fastest of its back-to-back runs.
    #[test]
    fn fastest_per_key_takes_each_keys_minimum() {
        let runs: Vec<KeyRun> = [5, 3, 4, 9, 8, 7].map(timed).into();
        let best: Vec<u64> = fastest_per_key(&runs, 3).iter().map(|r| r.key_ns).collect();
        assert_eq!(best, [3, 7]);
        let single: Vec<u64> = fastest_per_key(&runs, 1).iter().map(|r| r.key_ns).collect();
        assert_eq!(single, [5, 3, 4, 9, 8, 7]);
    }
}
