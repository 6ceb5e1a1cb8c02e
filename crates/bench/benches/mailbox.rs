//! Microbenchmarks for the routed/aggregating mailbox: all-to-all payload
//! delivery under the three topologies (the Section III-B trade-off:
//! fewer channels + more aggregation vs extra hops), plus the per-byte
//! cost of the CRC-32 that seals every shipped frame and every written-back
//! page (DESIGN.md §10). Each byte on the wire is checksummed twice (seal
//! at flush, verify at ingest), so ns/byte here times two is the integrity
//! layer's CPU cost per shipped byte.

use havoq_comm::{CommWorld, Mailbox, MailboxConfig, Quiescence, TopologyKind, FRAME_HEADER_BYTES};
use havoq_util::crc::crc32;
use havoq_util::testing::TestRng;

fn all_to_all(p: usize, topo: TopologyKind, msgs_each: usize) -> u64 {
    let out = CommWorld::run(p, |ctx| {
        let mut mb = Mailbox::<u64>::open(
            ctx,
            1,
            MailboxConfig { topology: topo, batch_size: 64, ..MailboxConfig::default() },
        );
        let mut q = Quiescence::new(ctx, 1);
        for dst in 0..p {
            for i in 0..msgs_each {
                mb.send(dst, i as u64);
            }
        }
        let mut got = Vec::new();
        loop {
            if mb.poll(&mut got) == 0 {
                mb.flush();
                if q.poll(mb.sent_count(), mb.received_count(), mb.pending_out() == 0) {
                    break;
                }
            }
        }
        mb.received_count()
    });
    out.iter().sum()
}

fn main() {
    let p = 16;
    let msgs = havoq_bench::pick(200, 2_000);
    let mut g = havoq_bench::microbench::group("mailbox_all_to_all");
    for (name, topo) in [
        ("direct", TopologyKind::Direct),
        ("routed2d", TopologyKind::Routed2D),
        ("routed3d", TopologyKind::Routed3D),
    ] {
        g.bench(name, || all_to_all(p, topo, msgs));
    }
    g.finish();

    // A typical shipped frame (64 records of 28 bytes plus the header, the
    // ~1.8 KB frames of an RMAT BFS) and one 4 KiB page-cache page.
    let mut rng = TestRng::new(0xC4C3_2B0B);
    let frame: Vec<u8> = (0..FRAME_HEADER_BYTES + 64 * 28).map(|_| rng.u8()).collect();
    let page: Vec<u8> = (0..4096).map(|_| rng.u8()).collect();
    let mut g = havoq_bench::microbench::group("crc32");
    g.bench(&format!("frame_{}B", frame.len()), || crc32(std::hint::black_box(&frame)));
    g.bench(&format!("page_{}B", page.len()), || crc32(std::hint::black_box(&page)));
    g.finish();
}
