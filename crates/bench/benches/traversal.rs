//! Microbenchmarks for the three paper kernels on a fixed RMAT world: the
//! cost of one asynchronous traversal per algorithm, plus a BFS ghost
//! on/off ablation (Figure 13 in microbenchmark form).
//!
//! Each rank's `DistGraph` is built once, before any sample, so the graph
//! build is not timed. Spawning the rank threads (`CommWorld::run`) is
//! still inside every sample: a traversal needs a live world.

use havoq_comm::CommWorld;
use havoq_core::algorithms::bfs::{bfs, BfsConfig};
use havoq_core::algorithms::kcore::{kcore, KCoreConfig};
use havoq_core::algorithms::triangle::{triangle_count, TriangleConfig};
use havoq_graph::csr::GraphConfig;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;

const RANKS: usize = 4;

fn main() {
    let scale: u32 = havoq_bench::pick(8, 10);
    let edges = RmatGenerator::graph500(scale).symmetric_edges(42);
    let graphs: Vec<DistGraph> = CommWorld::run(RANKS, |ctx| {
        DistGraph::build_replicated(
            ctx,
            &edges,
            PartitionStrategy::EdgeList,
            GraphConfig::default(),
        )
    });
    let mut g = havoq_bench::microbench::group(&format!("traversal_rmat_s{scale}_p{RANKS}"));

    g.bench("bfs_ghosts256", || {
        CommWorld::run(RANKS, |ctx| {
            bfs(ctx, &graphs[ctx.rank()], VertexId(0), &BfsConfig::default()).visited_count
        })
    });

    g.bench("bfs_no_ghosts", || {
        CommWorld::run(RANKS, |ctx| {
            let cfg = BfsConfig::default().with_ghosts(0);
            bfs(ctx, &graphs[ctx.rank()], VertexId(0), &cfg).visited_count
        })
    });

    g.bench("kcore_k4", || {
        CommWorld::run(RANKS, |ctx| {
            kcore(ctx, &graphs[ctx.rank()], 4, &KCoreConfig::default()).alive_count
        })
    });

    g.bench("triangle_count", || {
        CommWorld::run(RANKS, |ctx| {
            triangle_count(ctx, &graphs[ctx.rank()], &TriangleConfig::default()).triangles
        })
    });

    g.finish();
}
