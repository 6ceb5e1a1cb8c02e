//! The serving workload: batched BFS queries (`QueryBatch::run_bfs`)
//! admitted by an `AdmissionQueue` from an open-loop jittered arrival
//! stream at three fixed rates.
//!
//! The loop runs on the queue's event clock: each batch advances it by the
//! measured service time (the slowest rank's), and idle time between
//! arrivals is skipped rather than slept. Every query is timed from its
//! arrival, and the generator is never late, by construction. Every rank
//! feeds the same all-reduced service times into its own queue, so all
//! ranks make the same admission decisions.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use havoq_comm::{CommWorld, RankCtx};
use havoq_core::algorithms::bfs::{bfs, BfsConfig};
use havoq_core::algorithms::validate::validate_bfs;
use havoq_core::batch::{AdmissionQueue, Arrival, BatchConfig, QueryBatch};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;

use crate::setup::{self, level_fingerprint, GraphSpec, Rng, Seeds, SetupTimes, Storage};
use crate::stats::{harmonic_mean, mean, median, percentile, samples_beyond, supported};
use crate::trace::{Span, Tracer};
use crate::{Outcome, RANKS};

pub const GRAPH: GraphSpec = GraphSpec::Rmat { scale: 14 };
/// Queries one batch traversal multiplexes.
pub const WIDTH: usize = 16;
struct Rate {
    name: &'static str,
    /// Offered queries per event-clock second.
    qps: f64,
    /// Share of the measured time this rate's service may use.
    share: f64,
}

/// `over` exceeds the batch engine's capacity, so its backlog is bounded
/// and sheds new work. It gets half the time: the end-to-end numbers come
/// from its batches.
const RATES: [Rate; 3] = [
    Rate { name: "low", qps: 40.0, share: 0.25 },
    Rate { name: "mid", qps: 100.0, share: 0.25 },
    Rate { name: "over", qps: 400.0, share: 0.5 },
];
/// Pending queries `over` may hold before it rejects new arrivals.
const OVER_BACKLOG: usize = 2 * WIDTH;
/// A query answered later than this after its arrival missed its deadline.
pub const LATENCY_LIMIT_MS: f64 = 500.0;
/// Percentile the latency limit applies to.
const LIMIT_PERCENTILE: f64 = 90.0;
/// Each rate offers at least this many queries, so p90 has 10 beyond it.
const MIN_QUERIES: usize = 100;
/// Distinct sources the queries draw from.
const POOL: usize = 64;
const WARMUP_BATCHES: usize = 2;
/// Every this-many-th batch of a rate is checked against sequential `bfs`.
const CHECK_EVERY: usize = 24;

struct BatchRun {
    service_ns: u64,
    width: usize,
    traversed: u64,
    visited: u64,
    /// This rank's ledger total of visitor executions.
    executed: u64,
}

#[derive(Default)]
struct RateRun {
    offered: usize,
    latencies_ns: Vec<u64>,
    waits_ns: Vec<u64>,
    batches: Vec<BatchRun>,
    /// Pending queries each time a batch formed.
    backlog: Vec<usize>,
    shed: u64,
    peak_backlog: usize,
    clock_ns: u64,
    failed: u64,
}

struct RankOut {
    setups: Vec<SetupTimes>,
    /// Peak heap growth of the first construction, in MiB.
    heap_mib: f64,
    /// `[untraced, traced]` phases of three rates each.
    phases: [Vec<RateRun>; 2],
    validate_ns: u64,
    spans: Vec<Span>,
}

/// Jittered open-loop arrivals: gaps uniform in `[gap/2, 3 gap/2)`.
struct Arrivals {
    rng: Rng,
    gap_ns: u64,
    at_ns: u64,
    made: usize,
}

impl Arrivals {
    fn next(&mut self, pool: &[VertexId]) -> Arrival {
        self.at_ns += self.gap_ns / 2 + self.rng.below(self.gap_ns);
        self.made += 1;
        Arrival::new(self.at_ns, pool[self.rng.below(pool.len() as u64) as usize])
    }
}

/// Check one served batch outside its timing: every query's tree is
/// valid and its levels equal a sequential `bfs` from the same source.
/// Returns the number of failed queries. Collective.
fn check_batch(
    ctx: &RankCtx,
    g: &DistGraph,
    tr: &mut Tracer,
    id: u64,
    sources: &[VertexId],
    res: &havoq_core::batch::BatchBfsResult,
) -> u64 {
    let span = tr.open("core.validate", id);
    let mut failed = 0;
    for (q, &src) in sources.iter().enumerate() {
        let state = &res.local_state[q];
        let s = tr.open("core.bfs", id);
        let reference = bfs(ctx, g, src, &BfsConfig::default());
        tr.close(s);
        let same = level_fingerprint(ctx, g, |li| state[li].length)
            == level_fingerprint(ctx, g, |li| reference.local_state[li].length);
        if !(same && validate_bfs(ctx, g, src, state).is_valid()) {
            failed += 1;
        }
    }
    tr.close(span);
    failed
}

/// Serve one rate until the slowest rank's service time adds up to
/// `budget` and at least `MIN_QUERIES` arrived, then drain. Collective.
#[allow(clippy::too_many_arguments)]
fn serve_rate(
    ctx: &RankCtx,
    g: &DistGraph,
    tr: &mut Tracer,
    pool: &[VertexId],
    rate: usize,
    seed: u64,
    budget: Duration,
    validate_ns: &mut u64,
) -> RateRun {
    let Rate { name, qps, .. } = RATES[rate];
    let mut aq = AdmissionQueue::new(WIDTH);
    if name == "over" {
        aq = aq.with_max_backlog(OVER_BACKLOG);
    }
    let mut arrivals = Arrivals {
        rng: Rng::new(seed ^ rate as u64),
        gap_ns: (1e9 / qps) as u64,
        at_ns: 0,
        made: 0,
    };
    let mut run = RateRun::default();
    let mut spent = 0u64;
    let mut next = Some(arrivals.next(pool));
    // offer `a`, then draw the next arrival unless the stream has ended:
    // it ends once the budget is spent and enough queries arrived
    let offer = |aq: &mut AdmissionQueue,
                 tr: &mut Tracer,
                 arrivals: &mut Arrivals,
                 a: Arrival,
                 spent: u64| {
        let s = tr.open("admission.offer", arrivals.made as u64);
        aq.offer(a);
        tr.close(s);
        let more = spent < budget.as_nanos() as u64 || arrivals.made < MIN_QUERIES;
        more.then(|| arrivals.next(pool))
    };
    let root = tr.open("bench.run", 0);
    loop {
        while let Some(a) = next.filter(|a| a.at_ns <= aq.clock_ns()) {
            next = offer(&mut aq, tr, &mut arrivals, a, spent);
        }
        if aq.pending_len() == 0 {
            // idle server: skip ahead to the next arrival
            match next {
                Some(a) => next = offer(&mut aq, tr, &mut arrivals, a, spent),
                None => break,
            }
            continue;
        }
        let id = run.batches.len() as u64;
        run.backlog.push(aq.pending_len());
        let s = tr.open("admission.start_batch", id);
        let sources: Vec<VertexId> = aq.start_batch().iter().map(|a| a.source).collect();
        tr.close(s);
        let mut qb = QueryBatch::new(WIDTH);
        for &src in &sources {
            qb.try_admit(src).expect("admission never exceeds the batch width");
        }
        let s = tr.open("core.run_bfs", id);
        let t = Instant::now();
        let res = qb.run_bfs(ctx, g, &BatchConfig::default());
        let call_ns = t.elapsed().as_nanos() as u64;
        tr.close(s);
        let service_ns = ctx.all_reduce_max(call_ns).max(1);
        spent += service_ns;
        let s = tr.open("admission.finish_batch", id);
        let before = aq.latencies_ns().len();
        aq.finish_batch(service_ns);
        tr.close(s);
        for &lat in &aq.latencies_ns()[before..] {
            run.waits_ns.push(lat - service_ns);
        }

        let t = Instant::now();
        // each rank checks its own ledger; a failure on any rank fails the batch
        let ledger_bad = ctx.all_reduce_max(u64::from(res.ledger.check(sources.len()).is_err()));
        if ledger_bad != 0 {
            run.failed += sources.len() as u64;
        } else if run.batches.len() % CHECK_EVERY == 0 {
            run.failed += check_batch(ctx, g, tr, id, &sources, &res);
        }
        *validate_ns += t.elapsed().as_nanos() as u64;
        run.batches.push(BatchRun {
            service_ns,
            width: sources.len(),
            traversed: res.per_query.iter().map(|q| q.traversed_edges).sum(),
            visited: res.per_query.iter().map(|q| q.visited_count).sum(),
            executed: res.ledger.executed_total,
        });
    }
    tr.close(root);
    run.offered = aq.offered() as usize;
    run.latencies_ns = aq.latencies_ns().to_vec();
    run.shed = aq.shed_total();
    run.peak_backlog = aq.peak_backlog();
    run.clock_ns = aq.clock_ns();
    run
}

fn rank_main(ctx: &RankCtx, seeds: Seeds, budget: Duration, traced: bool) -> RankOut {
    let mut tr = Tracer::new(Instant::now());
    tr.set_enabled(traced);
    let setup = setup::build_repeatedly(ctx, &mut tr, GRAPH, Storage::InMemory, seeds, POOL);
    let (g, pool) = (&setup.g, &setup.keys);

    tr.set_enabled(false);
    for _ in 0..WARMUP_BATCHES {
        let mut qb = QueryBatch::new(WIDTH);
        for &src in &pool[..WIDTH] {
            qb.try_admit(src).expect("warm-up batch fits");
        }
        std::hint::black_box(qb.run_bfs(ctx, g, &BatchConfig::default()));
    }
    let mut validate_ns = 0;
    let mut phase = |tr: &mut Tracer, budget: Duration| -> Vec<RateRun> {
        (0..RATES.len())
            .map(|r| {
                let share = budget.mul_f64(RATES[r].share);
                serve_rate(ctx, g, tr, pool, r, seeds.arrivals, share, &mut validate_ns)
            })
            .collect()
    };
    let phases = if traced {
        let untraced = phase(&mut tr, budget / 2);
        tr.set_enabled(true);
        [untraced, phase(&mut tr, budget / 2)]
    } else {
        [phase(&mut tr, budget), Vec::new()]
    };
    RankOut {
        setups: setup.times.clone(),
        heap_mib: setup.heap_mib,
        phases,
        validate_ns,
        spans: tr.into_spans(),
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Aggregate traversal rate of served batches: edges over service time.
fn batch_mteps<'a>(batches: impl Iterator<Item = &'a BatchRun>) -> f64 {
    let (traversed, service) =
        batches.fold((0u64, 0u64), |(t, s), b| (t + b.traversed, s + b.service_ns));
    traversed as f64 * 1e3 / service.max(1) as f64
}

/// A rate meets the limit when its p90 latency does and its backlog does
/// not grow: nothing shed, and the mean backlog of the later half of its
/// batches at most one batch above the earlier half's.
fn meets_limit(r: &RateRun) -> bool {
    let lat = ms(&r.latencies_ns);
    let half = r.backlog.len() / 2;
    let early = mean(&r.backlog[..half].iter().map(|&b| b as f64).collect::<Vec<_>>());
    let late = mean(&r.backlog[half..].iter().map(|&b| b as f64).collect::<Vec<_>>());
    r.shed == 0
        && late <= early + WIDTH as f64
        && percentile(&lat, LIMIT_PERCENTILE) <= LATENCY_LIMIT_MS
}

pub fn run(seeds: Seeds, budget: Duration, traced: bool) -> Outcome {
    let out = CommWorld::run(RANKS, |ctx| rank_main(ctx, seeds, budget, traced));
    let r0 = &out[0];
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = vec![format!(
        "event clock: service time measured, idle time skipped, generator lateness 0 by \
         construction; latency limit {LATENCY_LIMIT_MS} ms at p{LIMIT_PERCENTILE}"
    )];

    setup::report(&r0.setups, &mut v);
    v.insert("peak_heap_mib", r0.heap_mib);

    let all: Vec<&RateRun> = r0.phases.iter().flatten().collect();
    let attempted = all.iter().map(|r| r.offered as u64).sum();
    let mut failed: u64 = all.iter().map(|r| r.failed).sum();

    // End-to-end numbers come from the untraced phase only. The traversal
    // rate averages every batch; the median service time takes only the
    // full-width batches of the saturating rate, since the mix of widths at
    // the lower rates moves a median over all batches with the jitter.
    let timed = &r0.phases[0];
    let per_batch: Vec<f64> = timed
        .iter()
        .flat_map(|r| &r.batches)
        .map(|b| b.traversed as f64 * 1e3 / b.service_ns as f64)
        .collect();
    v.insert("bfs_mteps", harmonic_mean(&per_batch).value);
    let full = &timed[RATES.len() - 1].batches;
    v.insert(
        "bfs_p50_ms",
        median(&full.iter().map(|b| b.service_ns as f64 / 1e6).collect::<Vec<_>>()),
    );

    let mut max_qps = 0.0;
    for (i, r) in timed.iter().enumerate() {
        let Rate { name, qps, .. } = RATES[i];
        let lat = ms(&r.latencies_ns);
        let served_qps = lat.len() as f64 / (r.clock_ns as f64 / 1e9);
        notes.push(format!(
            "rate {name} ({qps} QPS offered): {} offered, {} served, {} shed, {} batches, \
             p50 {:.2} ms, p90 {:.2} ms ({} samples beyond p90), {served_qps:.1} QPS served",
            r.offered,
            lat.len(),
            r.shed,
            r.batches.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 90.0),
            samples_beyond(lat.len(), 90.0),
        ));
        if name != "over" {
            // too few samples for p90 is a fault of the benchmark's sizing
            if !supported(lat.len(), 90.0) {
                notes.push(format!("rate {name}: p90 has fewer than 10 samples beyond it"));
                failed += 1;
            }
            let key = |p: &str| -> &'static str {
                match (p, name) {
                    ("p50", "low") => "serve_p50_ms.low",
                    ("p90", "low") => "serve_p90_ms.low",
                    ("p50", _) => "serve_p50_ms.mid",
                    _ => "serve_p90_ms.mid",
                }
            };
            v.insert(key("p50"), percentile(&lat, 50.0));
            v.insert(key("p90"), percentile(&lat, 90.0));
        } else {
            let good = lat.iter().filter(|&&l| l <= LATENCY_LIMIT_MS).count();
            v.insert("serve_goodput_qps", good as f64 / (r.clock_ns as f64 / 1e9));
            v.insert("admission.peak_backlog", r.peak_backlog as f64);
            v.insert("admission.shed", r.shed as f64);
        }
        if meets_limit(r) {
            max_qps = served_qps;
        }
    }
    v.insert("serve_max_qps", max_qps);

    // per-layer numbers over both phases
    let every: Vec<&BatchRun> = all.iter().flat_map(|r| &r.batches).collect();
    v.insert("batch.occupancy", mean(&every.iter().map(|b| b.width as f64).collect::<Vec<_>>()));
    v.insert(
        "batch.service_p50_ms",
        median(&every.iter().map(|b| b.service_ns as f64 / 1e6).collect::<Vec<_>>()),
    );
    v.insert("batch.mteps", batch_mteps(every.iter().copied()));
    let executed: u64 = out
        .iter()
        .flat_map(|o| o.phases.iter().flatten())
        .flat_map(|r| &r.batches)
        .map(|b| b.executed)
        .sum();
    let visited: u64 = every.iter().map(|b| b.visited).sum();
    v.insert("batch.exec_per_visited", executed as f64 / visited.max(1) as f64);
    let mid_waits: Vec<u64> = r0
        .phases
        .iter()
        .filter_map(|p| p.get(1))
        .flat_map(|r| r.waits_ns.iter().copied())
        .collect();
    v.insert("admission.wait_p50_ms", percentile(&ms(&mid_waits), 50.0));

    v.insert("validate.s", r0.validate_ns as f64 / 1e9);
    if traced {
        let plain = batch_mteps(r0.phases[0].iter().flat_map(|r| &r.batches));
        let with_spans = batch_mteps(r0.phases[1].iter().flat_map(|r| &r.batches));
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
