//! Figure 8: weak scaling of distributed *external memory* BFS (paper:
//! Hyperion-DIT, 17B edges per compute node on Fusion-io NAND Flash; the
//! largest graph has over one trillion edges).
//!
//! Reproduction: CSR edge targets live behind the user-space page cache on
//! the simulated Fusion-io device; the cache budget is a fixed fraction of
//! the per-rank edge bytes, so weak scaling keeps the DRAM:NVRAM ratio
//! constant like the paper's fixed 24 GB DRAM / 169 GB flash nodes.
//!
//! Each world size runs five times at an identical cache budget:
//! synchronous demand paging, the asynchronous I/O engine (background
//! readahead + write-behind), a sync run with the wire CRC +
//! retransmit-buffer path disabled, and sync/async runs over the
//! gap-compressed CSR (DESIGN.md §14). The paper's Section II-B point is
//! that NAND only delivers its bandwidth under highly concurrent
//! asynchronous I/O: the async rows must show lower per-rank I/O stall,
//! and the BFS level assignment must be bit-identical across all modes.
//! The `sync-nocrc` row prices the integrity layer on a fault-free network
//! for this semi-external BFS: the 4-byte frame trailers add ~0.2% wire
//! bytes (exact, warned above 5%), and the wall-clock delta is small here
//! only because page faults dominate. In memory the checksum is a
//! first-order cost: the slice-by-16 CRC-32 runs at 0.50–0.65 ns/byte
//! (2.7–3.3 ns/byte for the byte-at-a-time loop it replaced), 14–18% of
//! the CPU time of an in-memory RMAT BFS (DESIGN.md §10). The `comp-*`
//! rows must fit at least 2× the edges per cache byte (encoded ≤ 4 B/edge
//! vs the raw 8) with the exact same BFS levels.
//! `--storage {mem,ext,ext-compressed}` restricts the matrix to one
//! backend.

use std::time::Duration;

use havoq_bench::{csv_row, ms, overhead_pct, pick, Experiment, StorageMode};
use havoq_comm::codec::FRAME_CRC_BYTES;
use havoq_comm::CommWorld;
use havoq_core::algorithms::bfs::{bfs, BfsConfig, UNREACHED};
use havoq_core::CheckpointSpec;
use havoq_graph::dist::{DistGraph, PartitionStrategy};
use havoq_graph::gen::rmat::RmatGenerator;
use havoq_graph::types::VertexId;
use havoq_nvram::cache::PageCacheConfig;
use havoq_nvram::device::DeviceProfile;
use havoq_nvram::{IoConfig, IoMode};

/// splitmix64 finalizer — mixes one (vertex, level) pair into the
/// order-independent traversal fingerprint.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn main() {
    let per_rank_log2: u32 = pick(10, 12);
    let worlds: Vec<usize> = pick(vec![1, 4], vec![1, 2, 4, 8, 16]);
    // DRAM:data ratio ~ 1:8, like 24 GB DRAM vs 169 GB flash in the paper
    let cache_fraction = 8usize;
    let ckpt_every = havoq_bench::checkpoint_every();
    let ckpt_banner = match ckpt_every {
        Some(e) => format!("checkpointing every {e} visitors/rank into the NVRAM store)"),
        None => "checkpointing off — pass --checkpoint-every N to measure it)".to_string(),
    };

    let mut exp = Experiment::begin(
        &[
            "Figure 8 — weak scaling of distributed external-memory BFS",
            &format!(
                "(2^{per_rank_log2} vertices/rank on simulated Fusion-io, cache = data/{cache_fraction},"
            ),
            "sync demand paging vs async readahead + write-behind,",
            "plus a sync row with the wire CRC + retransmit buffer off,",
            "plus gap-compressed CSR rows at the same cache budget,",
            &ckpt_banner,
        ],
        "fig08_em_bfs_weak.csv",
        &[
            "ranks",
            "mode",
            "scale",
            "MTEPS",
            "hit_rate%",
            "dev_reads",
            "io_stall_ms",
            "avg_qd",
            "B/edge",
            "decodes",
            "ckpt_ovh%",
            "time_ms",
        ],
        &[
            "ranks",
            "mode",
            "scale",
            "mteps",
            "hit_rate",
            "device_reads",
            "io_stall_ms",
            "avg_queue_depth",
            "bytes_per_edge",
            "adj_decodes",
            "checkpoint_overhead_pct",
            "time_ms",
        ],
    );

    for &p in &worlds {
        let scale = per_rank_log2 + (p as f64).log2() as u32;
        let gen = RmatGenerator::graph500(scale);
        let per_rank_bytes = (gen.num_edges() as usize * 2 * 8) / p;
        let cache_pages = (per_rank_bytes / 4096 / cache_fraction).max(8);

        let mut fingerprints = Vec::new();
        let mut mode_names = Vec::new();
        let mut stalls = Vec::new();
        let mut times = Vec::new();
        let mut wire_bytes = Vec::new();
        let mut frames = Vec::new();
        let mut comp_snap = None;
        // the third pass reruns sync demand paging with frame integrity
        // (CRC trailer + retransmit buffer) disabled, pricing the
        // zero-fault overhead of the protection path; the comp-* passes
        // rerun sync/async over the gap-compressed pool at the *same*
        // capacity_pages, so the hit-rate delta is purely storage density
        let all_modes = [
            ("sync", IoConfig::default(), true, StorageMode::Ext),
            ("async", IoConfig::asynchronous(), true, StorageMode::Ext),
            ("sync-nocrc", IoConfig::default(), false, StorageMode::Ext),
            ("comp-sync", IoConfig::default(), true, StorageMode::ExtCompressed),
            ("comp-async", IoConfig::asynchronous(), true, StorageMode::ExtCompressed),
        ];
        let storage_filter = havoq_bench::storage();
        let modes: Vec<_> = match storage_filter {
            None => all_modes.to_vec(),
            Some(StorageMode::Mem) => {
                vec![("mem", IoConfig::default(), true, StorageMode::Mem)]
            }
            Some(m) => all_modes.iter().copied().filter(|r| r.3 == m).collect(),
        };
        // index-based cross-mode comparisons only make sense on the full
        // built-in matrix
        let full_matrix = storage_filter.is_none();
        for (mode, io, integrity, storage) in modes {
            let cfg = storage.graph_config(
                DeviceProfile::fusion_io(),
                PageCacheConfig {
                    page_size: 4096,
                    capacity_pages: cache_pages,
                    shards: 8,
                    readahead_pages: 8,
                    io,
                    ..PageCacheConfig::default()
                },
            );

            let out = CommWorld::run(p, |ctx| {
                let mut local = gen.edges_for_rank(42, ctx.rank(), ctx.size());
                local.extend(
                    local.clone().iter().filter(|e| !e.is_self_loop()).map(|e| e.reversed()),
                );
                let g = DistGraph::build(ctx, local, PartitionStrategy::EdgeList, cfg);
                let mut bcfg = BfsConfig::default();
                bcfg.traversal.mailbox = bcfg.traversal.mailbox.with_integrity(integrity);
                if let Some(every) = ckpt_every {
                    bcfg = bcfg.with_checkpoint(CheckpointSpec::default().with_every(every));
                }
                let r = bfs(ctx, &g, VertexId(0), &bcfg);
                // order-independent fingerprint of the BFS level assignment:
                // commutative sum over this rank's masters
                let mut fp = 0u64;
                for v in g.local_vertices().filter(|&v| g.is_master(v)) {
                    let l = r.local_state[g.local_index(v)].length;
                    if l != UNREACHED {
                        fp = fp.wrapping_add(mix(v.0 ^ mix(l.wrapping_add(1))));
                    }
                }
                let cache = g.csr().cache_stats().unwrap_or_default();
                let dev_reads = g.csr().cache().map(|c| c.device().stats().reads).unwrap_or(0);
                let io = g.csr().io_stats().unwrap_or_default();
                let snap = g.csr().storage_snapshot();
                (r, cache, dev_reads, io, fp, snap)
            });
            let (r, cache, dev_reads, _, _, _) = &out[0];
            let elapsed = out.iter().map(|o| o.0.elapsed).max().unwrap();
            // per-rank I/O stall: the slowest rank gates the traversal
            let io_stall = out.iter().map(|o| o.0.stats.io_stall).max().unwrap();
            let avg_qd = out.iter().map(|o| o.3.avg_queue_depth()).sum::<f64>() / p as f64;
            // checkpoint overhead: the slowest rank's cut+persist time
            // over the traversal wall clock
            let ck_time = out.iter().map(|o| o.0.stats.checkpoint_time).max().unwrap();
            let ck_ovh = overhead_pct(ck_time, elapsed);
            fingerprints.push(out.iter().fold(0u64, |acc, o| acc.wrapping_add(o.4)));
            mode_names.push(mode);
            stalls.push(io_stall);
            times.push(elapsed);
            wire_bytes.push(out.iter().map(|o| o.0.stats.bytes_sent).sum::<u64>());
            frames.push(out.iter().map(|o| o.0.stats.frames_sent).sum::<u64>());
            // aggregate compression across ranks: pool bytes and edge counts
            // sum, decode counters sum
            let snap_total = out.iter().filter_map(|o| o.5).fold(
                None::<havoq_graph::csr::CsrStorageSnapshot>,
                |acc, s| {
                    let mut t = acc.unwrap_or_default();
                    t.num_edges += s.num_edges;
                    t.encoded_bytes += s.encoded_bytes;
                    t.raw_bytes += s.raw_bytes;
                    t.adj_decodes += s.adj_decodes;
                    t.adj_decoded_bytes += s.adj_decoded_bytes;
                    Some(t)
                },
            );
            let bytes_per_edge = snap_total.map(|s| s.bytes_per_edge()).unwrap_or(8.0);
            let decodes = snap_total.map(|s| s.adj_decodes).unwrap_or(0);
            if matches!(storage, StorageMode::ExtCompressed) && comp_snap.is_none() {
                comp_snap = snap_total;
            }

            exp.row2(
                &csv_row![
                    p,
                    mode,
                    scale,
                    havoq_bench::mteps(r.traversed_edges, elapsed),
                    format!("{:.2}", 100.0 * cache.hit_rate()),
                    dev_reads,
                    ms(io_stall),
                    format!("{avg_qd:.2}"),
                    format!("{bytes_per_edge:.2}"),
                    decodes,
                    format!("{ck_ovh:.2}"),
                    ms(elapsed)
                ],
                &csv_row![
                    p,
                    mode,
                    scale,
                    r.traversed_edges as f64 / elapsed.as_secs_f64() / 1e6,
                    cache.hit_rate(),
                    dev_reads,
                    io_stall.as_secs_f64() * 1e3,
                    avg_qd,
                    bytes_per_edge,
                    decodes,
                    ck_ovh,
                    elapsed.as_secs_f64() * 1e3
                ],
            );

            if ckpt_every.is_some() {
                let epochs: u64 = out.iter().map(|o| o.0.stats.checkpoints_written).sum();
                let bytes: u64 = out.iter().map(|o| o.0.stats.checkpoint_bytes).sum();
                println!(
                    "    checkpoints: {epochs} rank-epochs, {} KiB persisted, \
                     overhead {ck_ovh:.2}% of the traversal",
                    bytes / 1024
                );
            }

            if matches!(io.mode, IoMode::Async) {
                // merged queue-depth histogram across ranks
                let mut hist = havoq_util::Histogram::new();
                for o in &out {
                    hist.merge(&o.3.depth_hist);
                }
                let line: Vec<String> = hist
                    .buckets()
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(d, &c)| format!("{d}:{c}"))
                    .collect();
                println!("    queue depth histogram (depth:samples)  {}", line.join(" "));
            }
        }

        // storage/IO/integrity modes must not change the BFS level
        // assignment — one bit-identical fingerprint per world size
        for (i, fp) in fingerprints.iter().enumerate() {
            assert_eq!(
                fingerprints[0], *fp,
                "mode {} changed the BFS level assignment at p={p} vs {}",
                mode_names[i], mode_names[0]
            );
        }
        // the compressed pool must fit at least 2× the edges per cache
        // byte at this (identical) cache budget
        if let Some(snap) = comp_snap {
            assert!(
                snap.compression_ratio() >= 2.0,
                "compressed CSR below 2x edges per cache byte at p={p}: \
                 {:.2} B/edge ({:.2}x)",
                snap.bytes_per_edge(),
                snap.compression_ratio()
            );
            println!(
                "    compressed pool at p={p}: {:.2} B/edge, {:.2}x edges per cache byte, \
                 {} slice decodes",
                snap.bytes_per_edge(),
                snap.compression_ratio(),
                snap.adj_decodes
            );
        }
        if !full_matrix {
            continue;
        }
        // Wall-clock comparison, so only warn: on a loaded or low-core
        // machine the async run can legitimately stall longer, and the CSV
        // rows already carry the measurement for the figure.
        if stalls[0] > Duration::ZERO && stalls[1] >= stalls[0] {
            eprintln!(
                "WARNING: async I/O did not lower per-rank stall at p={p}: \
                 sync {:?} vs async {:?} (noisy machine?)",
                stalls[0], stalls[1]
            );
        }
        // zero-fault price of the integrity layer. The wire-byte figure is
        // exact and computed from the CRC-on run alone: every sealed frame
        // carries a 4-byte trailer, so overhead = trailer bytes over the
        // bytes the frames would occupy without them. (A cross-run byte
        // delta would be noise — the async traversal's frame population is
        // schedule-dependent between runs.) The wall-clock delta vs the
        // CRC-off run stays a noisy estimate on an oversubscribed host, so
        // it is reported but only warned about.
        let (crc_on, crc_off) = (times[0], times[2]);
        let time_ovh = if crc_off > Duration::ZERO {
            100.0 * (crc_on.as_secs_f64() - crc_off.as_secs_f64()) / crc_off.as_secs_f64()
        } else {
            0.0
        };
        let crc_bytes = frames[0] * FRAME_CRC_BYTES as u64;
        let byte_ovh = if wire_bytes[0] > crc_bytes {
            100.0 * crc_bytes as f64 / (wire_bytes[0] - crc_bytes) as f64
        } else {
            0.0
        };
        println!(
            "    CRC + retransmit-buffer overhead at p={p} (sync, zero faults): \
             {byte_ovh:+.2}% wire bytes ({} CRC trailer bytes over {} frames), \
             {time_ovh:+.2}% wall clock ({} ms on vs {} ms off)",
            crc_bytes,
            frames[0],
            ms(crc_on),
            ms(crc_off)
        );
        if byte_ovh > 5.0 {
            eprintln!("WARNING: CRC wire overhead {byte_ovh:.2}% exceeds the ~5% budget at p={p}");
        }
        if time_ovh > 5.0 {
            eprintln!(
                "note: wall-clock delta {time_ovh:+.2}% at p={p} \
                 (scheduling noise dominates on a shared host; the wire figure is exact)"
            );
        }
    }
    exp.finish(&[
        "Paper shape: weak scaling continues into external memory; the page",
        "cache (fed by the vertex-ordered visitor queue) absorbs most accesses,",
        "so adding ranks+data keeps per-rank throughput roughly flat. The async",
        "rows hide the device behind readahead + write-behind: same BFS levels,",
        "lower io_stall_ms at an identical cache budget. The sync-nocrc rows",
        "price the integrity layer on a clean network: identical BFS levels,",
        "~0.2% CRC trailer bytes; page faults hide the checksum time here",
        "(in memory it is ~15% of BFS CPU, DESIGN.md section 10). The comp-* rows pack",
        "the same edges into gap bytes at the same cache budget: >=2x edges per",
        "cache byte, higher hit rate, fewer device reads, same BFS levels.",
    ]);
}
