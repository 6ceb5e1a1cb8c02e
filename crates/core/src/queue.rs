//! The distributed asynchronous visitor queue (paper Algorithm 1).
//!
//! Each rank runs one queue instance:
//!
//! - `push(visitor)` — filter through locally stored ghost state, then send
//!   to the target vertex's master partition (`min_owner`). A visitor whose
//!   master is this rank skips the mailbox and is accepted in place.
//! - `check_mailbox()` — receive visitors and accept each: `pre_visit` it
//!   against local state, queue survivors in the local priority heap, and
//!   forward them to the next replica if the vertex's adjacency list
//!   continues on higher ranks (the split-vertex chain of Figure 3).
//! - `do_traversal()` — the asynchronous driving loop: poll the mailbox,
//!   execute locally queued visitors in priority order, and terminate when
//!   the quiescence detector confirms the queue is globally empty.
//!
//! Every traversal mode runs this one loop. An *executor* runs the popped
//! visitors: inline on the rank's thread (the serial loop), on a worker
//! pool (`threads > 1`, DESIGN.md §11), or parked for a round engine. A
//! *cut policy* decides when to vote for a quiescence cut and what a cut
//! means: termination, a checkpoint every k visitors (§9), or the end of
//! a level-synchronous round (§13, §15).
//!
//! Visitors with equal algorithm priority are ordered by vertex id, the
//! Section V-A locality optimization that makes semi-external adjacency
//! reads page-sequential.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as MemOrdering};
use std::time::{Duration, Instant};

use havoq_comm::{CutVerdict, Mailbox, MailboxConfig, Quiescence, RankCtx, SendShard, WireCodec};
use havoq_graph::dist::DistGraph;
use havoq_graph::types::VertexId;
use havoq_nvram::checkpoint::CheckpointStore;
use havoq_util::parallel::{AtomicBitVec, PerWorker, SharedSlots, WorkerPool};

use crate::checkpoint::{CheckpointSpec, QueueCheckpoint, QueueCounters};
use crate::direction::DirectionConfig;
use crate::ghost::GhostTable;
use crate::visitor::{Role, Visitor, VisitorPush};

/// Traversal tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TraversalConfig {
    /// Ghost slots per partition (paper default: 256; Figure 13 sweeps
    /// this). Ignored for algorithms with `GHOSTS_ALLOWED = false`.
    pub ghosts: usize,
    /// Mailbox aggregation / routing configuration.
    pub mailbox: MailboxConfig,
    /// Max visitors executed between consecutive mailbox polls.
    pub poll_batch: usize,
    /// Order equal-priority visitors by vertex id (the Section V-A
    /// page-locality optimization). When false, equal-priority visitors
    /// run in arrival order — the ablation baseline, which scatters
    /// semi-external adjacency reads across pages.
    pub locality_order: bool,
    /// Worker threads executing `visit` inside this rank. `1` (the
    /// default) runs the queue loop's inline executor: every `visit` on the
    /// rank's own thread. With `threads > 1` the same loop pops frontier
    /// chunks from its heap and fans the `visit` calls out to a worker pool
    /// (DESIGN.md §11); the mailbox, quiescence and checkpoint paths stay
    /// on the coordinator thread, so the wire format and integrity counters
    /// are unchanged.
    pub threads: usize,
    /// Direction-optimizing traversal knobs (BFS only): forced or
    /// heuristic top-down/bottom-up switching with Beamer-style
    /// alpha/beta thresholds. The default mode keeps the historical
    /// asynchronous visitor loop (DESIGN.md §13).
    pub direction: DirectionConfig,
}

impl Default for TraversalConfig {
    fn default() -> Self {
        Self {
            ghosts: 256,
            mailbox: MailboxConfig::default(),
            poll_batch: 128,
            locality_order: true,
            threads: 1,
            direction: DirectionConfig::default(),
        }
    }
}

impl TraversalConfig {
    /// Builder: set the intra-rank worker thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder: set the direction-optimizing traversal mode.
    pub fn with_direction(mut self, mode: crate::direction::DirectionMode) -> Self {
        self.direction.mode = mode;
        self
    }
}

/// Per-rank traversal counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraversalStats {
    /// Visitors whose `visit` procedure ran on this rank.
    pub visitors_executed: u64,
    /// Visitors pushed on this rank (before ghost filtering).
    pub visitors_pushed: u64,
    /// Pushes that were checked against a local ghost slot.
    pub ghost_checked: u64,
    /// Pushes suppressed by the ghost filter (communication saved).
    pub ghost_filtered: u64,
    /// Visitors forwarded along a split-vertex replica chain.
    pub replica_forwards: u64,
    /// End-to-end payloads sent / received: every push that passed the
    /// ghost filter plus every replica forward, counted once on each side.
    /// A push to one of this rank's own masters is delivered in place
    /// (local-first) and counts as both sent and received here.
    pub payload_sent: u64,
    pub payload_received: u64,
    /// Quiescence-detection waves completed.
    pub termination_waves: u64,
    /// Wire bytes shipped / unpacked by this rank's mailbox (frame headers
    /// included; local deliveries never hit the wire and are not counted).
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Frames this rank shipped.
    pub frames_sent: u64,
    /// Sends that found a full bounded channel and ran the slow path.
    pub backpressure_stalls: u64,
    /// Mean fill ratio of shipped frames in `(0, 1]` (0.0 if none shipped).
    pub mean_frame_fill: f64,
    /// Injected-fault events observed by this rank's mailbox channel (all
    /// zero on fault-free runs): frames held by a delay, deliveries that
    /// overtook an earlier arrival, frames this rank shipped twice,
    /// duplicate deliveries dropped, receive-stall windows opened, and
    /// deliveries that paid the slow-rank throttle.
    pub fault_delayed: u64,
    pub fault_reordered: u64,
    pub fault_duplicated: u64,
    pub fault_deduped: u64,
    pub fault_stalled: u64,
    pub fault_throttled: u64,
    /// Frames arriving at this rank with an injected bit flip / injected
    /// wire loss (all zero on fault-free runs).
    pub fault_corrupted: u64,
    pub frames_dropped_injected: u64,
    /// Integrity-layer recovery observed by this rank: corrupt frames its
    /// CRC check rejected, NACKs it sent for gaps/rejections, and
    /// retransmissions it performed as a sender. On a lossy run every
    /// injected corruption must show up in `corrupt_frames_detected` —
    /// the sweep's zero-undetected-corruption invariant.
    pub corrupt_frames_detected: u64,
    pub nacks_sent: u64,
    pub retransmits: u64,
    /// Wall-clock time inside `do_traversal`.
    pub elapsed: Duration,
    /// Time this rank spent blocked on demand page fills (semi-external
    /// storage only; zero for in-memory runs).
    pub io_stall: Duration,
    /// Time this rank spent writing dirty victims inline on the access path
    /// (eviction stalls; driven to zero by async write-behind).
    pub evict_stall: Duration,
    /// Mean sampled depth of the async I/O request queue (0.0 in sync mode
    /// or in-memory runs).
    pub io_avg_queue_depth: f64,
    /// Peak outstanding async I/O requests observed.
    pub io_queue_peak: u64,
    /// Checkpoint epochs this rank committed (checkpointed traversals
    /// only; includes the epoch-0 checkpoint).
    pub checkpoints_written: u64,
    /// Payload bytes serialized into committed checkpoints.
    pub checkpoint_bytes: u64,
    /// Times this rank was the injected crash victim (its epoch was torn).
    pub crashes: u64,
    /// Times this rank rewound to an earlier checkpoint epoch.
    pub restores: u64,
    /// Committed checkpoint epochs this rank skipped at restore because
    /// their payload failed its checksum (silent storage corruption): the
    /// blob is treated exactly like a torn write and the world agrees on
    /// the next-oldest intact epoch.
    pub restore_epoch_fallbacks: u64,
    /// Wall-clock spent serializing and writing checkpoints plus restoring
    /// from them — the numerator of the checkpoint overhead percentage.
    pub checkpoint_time: Duration,
    /// Semi-external storage integrity (zero for in-memory runs): page
    /// fills whose bytes mismatched the page's write-back checksum, and
    /// the device re-reads issued to recover them.
    pub page_checksum_failures: u64,
    pub page_reread_retries: u64,
    /// Direction-optimizing engine only (zero on the asynchronous visitor
    /// path): adjacency entries examined while generating candidates —
    /// whole frontier slices top-down, early-exit prefixes bottom-up —
    /// plus the per-direction level counts and the frontier-bitmap words
    /// this rank shipped to peers before bottom-up levels.
    pub edges_inspected: u64,
    pub top_down_levels: u64,
    pub bottom_up_levels: u64,
    pub frontier_words_sent: u64,
    /// Compressed CSR storage only (all zero otherwise): adjacency slices
    /// decoded and encoded bytes pulled through the gap decoder during the
    /// traversal, plus the pool sizes — encoded versus raw `u64` targets —
    /// so the decode-CPU-vs-IO-stall trade is measured alongside the cache
    /// counters above.
    pub adj_decodes: u64,
    pub adj_decoded_bytes: u64,
    pub edge_bytes_encoded: u64,
    pub edge_bytes_raw: u64,
}

impl TraversalStats {
    /// Sum of all injected-fault events this rank observed — nonzero iff
    /// the fault layer perturbed this rank's traversal traffic.
    pub fn total_faults(&self) -> u64 {
        self.fault_delayed
            + self.fault_reordered
            + self.fault_duplicated
            + self.fault_deduped
            + self.fault_stalled
            + self.fault_throttled
            + self.fault_corrupted
            + self.frames_dropped_injected
    }
}

/// Min-heap adapter: smallest algorithm priority first, then the
/// tie-break key — the vertex id under the Section V-A locality order, or
/// an arrival sequence number when that optimization is ablated.
struct HeapEntry<V: Visitor>(V, u64);

impl<V: Visitor> PartialEq for HeapEntry<V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<V: Visitor> Eq for HeapEntry<V> {}

impl<V: Visitor> PartialOrd for HeapEntry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: Visitor> Ord for HeapEntry<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the minimum out first
        other.0.priority(&self.0).then_with(|| other.1.cmp(&self.1))
    }
}

/// One rank's distributed visitor queue for visitor type `V`.
///
/// `V` must implement [`WireCodec`]: visitors cross ranks as fixed-size
/// records packed into byte frames (see `havoq_comm::codec`).
pub struct VisitorQueue<'g, V: Visitor + WireCodec> {
    g: &'g DistGraph,
    rank: usize,
    mailbox: Mailbox<V>,
    quiescence: Quiescence,
    heap: BinaryHeap<HeapEntry<V>>,
    state: Vec<V::Data>,
    ghosts: GhostTable<V::Data>,
    cfg: TraversalConfig,
    stats: TraversalStats,
    /// Arrival counter backing the non-locality tie-break.
    arrival_seq: u64,
    /// Wire decode context, kept so checkpointed heap visitors can be
    /// reconstructed on restore.
    decode_ctx: V::DecodeCtx,
    /// Mailbox poll buffer, reused across polls.
    inbox: Vec<V>,
}

impl<'g, V: Visitor + WireCodec> VisitorQueue<'g, V> {
    /// Collectively create a queue over `g`. Every rank must call this the
    /// same number of times in the same order (each call draws a fresh
    /// world-agreed channel tag).
    pub fn new(ctx: &RankCtx, g: &'g DistGraph, cfg: TraversalConfig) -> Self
    where
        V::DecodeCtx: Default,
    {
        Self::new_with_ctx(ctx, g, cfg, V::DecodeCtx::default())
    }

    /// Like [`VisitorQueue::new`] but supplying the wire decode context for
    /// visitor types carrying rank-replicated shared state (e.g. the
    /// subset table of subset triangle counting).
    pub fn new_with_ctx(
        ctx: &RankCtx,
        g: &'g DistGraph,
        cfg: TraversalConfig,
        decode_ctx: V::DecodeCtx,
    ) -> Self {
        let tag = ctx.auto_tag();
        let mailbox = Mailbox::open_with(ctx, tag, cfg.mailbox, decode_ctx.clone());
        let quiescence = Quiescence::new(ctx, tag);
        let ghosts = if V::GHOSTS_ALLOWED && cfg.ghosts > 0 {
            GhostTable::select(g, cfg.ghosts)
        } else {
            GhostTable::empty()
        };
        let state = vec![V::Data::default(); g.num_local_vertices()];
        Self {
            g,
            rank: ctx.rank(),
            mailbox,
            quiescence,
            heap: BinaryHeap::new(),
            state,
            ghosts,
            cfg,
            stats: TraversalStats::default(),
            arrival_seq: 0,
            decode_ctx,
            inbox: Vec::new(),
        }
    }

    /// Initialize local vertex state (e.g. k-core's `degree + 1` counters).
    /// Replicas are initialized identically on every rank in their chain
    /// because the closure only sees replicated information.
    pub fn init_state(&mut self, mut f: impl FnMut(VertexId, &DistGraph) -> V::Data) {
        for (li, slot) in self.state.iter_mut().enumerate() {
            *slot = f(self.g.vertex_at(li), self.g);
        }
    }

    /// The graph this queue traverses.
    pub fn graph(&self) -> &'g DistGraph {
        self.g
    }

    /// Local vertex state, indexed by local vertex index.
    pub fn state(&self) -> &[V::Data] {
        &self.state
    }

    /// Consume the queue, keeping the final state.
    pub fn into_state(self) -> Vec<V::Data> {
        self.state
    }

    /// Number of ghost slots active for this traversal.
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// Local traversal statistics (valid after `do_traversal`).
    pub fn stats(&self) -> TraversalStats {
        let mut s = self.stats;
        s.payload_sent = self.mailbox.sent_count();
        s.payload_received = self.mailbox.received_count();
        s.termination_waves = self.quiescence.waves_run();
        let mb = self.mailbox.stats();
        s.bytes_sent = mb.bytes_sent;
        s.bytes_received = mb.bytes_received;
        s.frames_sent = mb.frames_sent;
        s.backpressure_stalls = mb.backpressure_stalls;
        s.mean_frame_fill = mb.mean_frame_fill();
        // Fault counters live in the world-shared transport matrix; report
        // this rank's share: events observed at our receiver, plus frames
        // we duplicated as a sender.
        let tr = self.mailbox.transport_stats();
        let me = self.rank;
        let recv_col = |m: &[u64]| (0..tr.ranks).map(|src| m[src * tr.ranks + me]).sum::<u64>();
        let send_row = |m: &[u64]| (0..tr.ranks).map(|dst| m[me * tr.ranks + dst]).sum::<u64>();
        s.fault_delayed = recv_col(&tr.fault_delays);
        s.fault_reordered = recv_col(&tr.fault_reorders);
        s.fault_duplicated = send_row(&tr.fault_dups);
        s.fault_deduped = recv_col(&tr.fault_dedups);
        s.fault_stalled = recv_col(&tr.fault_stalls);
        s.fault_throttled = recv_col(&tr.fault_throttles);
        s.fault_corrupted = recv_col(&tr.fault_corrupts);
        s.frames_dropped_injected = recv_col(&tr.fault_drops);
        s.corrupt_frames_detected = recv_col(&tr.corrupt_detected);
        s.nacks_sent = recv_col(&tr.nacks);
        s.retransmits = send_row(&tr.retransmits);
        s
    }

    /// Byte-level mailbox counters (frames, fill histogram, pool activity).
    pub fn mailbox_stats(&self) -> havoq_comm::MailboxStatsSnapshot {
        self.mailbox.stats()
    }

    /// The mailbox's transport traffic matrix (world-shared snapshot).
    pub fn transport_stats(&self) -> havoq_comm::ChannelStatsSnapshot {
        self.mailbox.transport_stats()
    }

    /// Push a visitor into the distributed queue (Algorithm 1, `push`).
    pub fn push(&mut self, visitor: V) {
        self.sink().push(visitor);
    }

    /// Split borrows of the queue for the push and accept paths.
    fn sink(&mut self) -> Sink<'_, V> {
        let Self { g, rank, mailbox, heap, state, ghosts, cfg, stats, arrival_seq, .. } = self;
        Sink {
            g,
            rank: *rank,
            locality_order: cfg.locality_order,
            mailbox,
            ghosts,
            stats,
            state,
            heap,
            arrival_seq,
        }
    }

    /// Receive and accept incoming visitors; returns payloads delivered
    /// (Algorithm 1, `check_mailbox`).
    fn check_mailbox(&mut self) -> usize {
        let mut inbox = std::mem::take(&mut self.inbox);
        self.mailbox.poll(&mut inbox);
        let delivered = inbox.len();
        let mut sink = self.sink();
        for visitor in inbox.drain(..) {
            sink.accept(visitor);
        }
        self.inbox = inbox;
        delivered
    }

    /// Run the asynchronous traversal to completion (Algorithm 1,
    /// `do_traversal`). Initial visitors must already have been pushed.
    pub fn do_traversal(&mut self) {
        let start = Instant::now();
        self.drive(&mut self.executor(), CutPolicy::Terminate, None);
        self.stats.elapsed += start.elapsed();
    }

    /// The executor `cfg.threads` selects for one traversal: inline at 1,
    /// a worker pool above (DESIGN.md §11).
    fn executor(&self) -> Exec<'static, V> {
        if self.cfg.threads <= 1 {
            return Exec::Inline;
        }
        let pool = WorkerPool::new(self.cfg.threads);
        Exec::Pool(PoolExec {
            locks: AtomicBitVec::new(self.state.len()),
            ledgers: PerWorker::new_with(pool.size(), |_| WorkerLedger {
                shard: SendShard::default(),
                pushed: 0,
            }),
            chunk: Vec::new(),
            cap: self.cfg.poll_batch.saturating_mul(pool.size()).max(1),
            pool,
        })
    }

    /// The one visitor-queue loop behind every traversal mode: poll the
    /// mailbox (and `side`, if any), run up to one chunk of queued visitors
    /// through `exec`, and — once out of work, or once a checkpoint budget
    /// is spent — flush and vote for a quiescence cut under `policy`.
    /// Returns the verdict of the first confirmed cut.
    fn drive(
        &mut self,
        exec: &mut Exec<'_, V>,
        policy: CutPolicy,
        mut side: Option<&mut dyn SideMailbox>,
    ) -> CutVerdict {
        let mut left = match policy {
            CutPolicy::Checkpoint { budget } => budget,
            CutPolicy::Terminate | CutPolicy::Round => usize::MAX,
        };
        loop {
            let delivered = self.check_mailbox();
            let side_delivered = side.as_mut().map_or(0, |s| s.poll());
            let executed = match exec {
                Exec::Inline => self.run_inline(left),
                Exec::Pool(pool) => self.run_chunk(pool, left),
                Exec::Park(newly) => self.park(newly, left),
            };
            left -= executed;
            // The pool executor votes only after a chunk that ran nothing;
            // inline and park vote as soon as the heap is empty.
            let settled = executed == 0 || !matches!(exec, Exec::Pool(_));
            let no_work = delivered == 0 && side_delivered == 0 && settled && self.heap.is_empty();
            let due = left == 0 && matches!(policy, CutPolicy::Checkpoint { .. });
            if !(due || no_work) {
                continue;
            }
            self.mailbox.flush();
            let (side_drained, side_sent, side_recv) =
                side.as_mut().map_or((true, 0, 0), |s| s.flush());
            let drained = self.mailbox.pending_out() == 0 && side_drained;
            let flag = match policy {
                CutPolicy::Terminate => true,
                // `due` stays out of the flag: when every rank runs dry the
                // cut reads as termination even if budgets were pending.
                CutPolicy::Checkpoint { .. } => no_work && drained,
                CutPolicy::Round => false,
            };
            if let Some(verdict) = self.quiescence.poll_cut_watched(
                self.mailbox.sent_count() + side_sent,
                self.mailbox.received_count() + side_recv,
                drained,
                flag,
            ) {
                assert!(
                    verdict != CutVerdict::Abort || matches!(policy, CutPolicy::Round),
                    "stall watchdog fired outside a round drain; only drain_round surfaces Abort"
                );
                return verdict;
            }
            // voted but no cut yet: give peer ranks the core instead of
            // spin-polling (matters when ranks are oversubscribed onto few
            // physical cores, as in the simulation)
            std::thread::yield_now();
        }
    }

    /// Inline executor: pop up to `poll_batch` (at most `left`) visitors and
    /// run each `visit` on this thread, pushing straight through the ghost
    /// filter into the accept step or the mailbox. Returns the number
    /// executed.
    fn run_inline(&mut self, left: usize) -> usize {
        let limit = self.cfg.poll_batch.min(left);
        let mut sink = self.sink();
        let g = sink.g;
        let mut executed = 0;
        while executed < limit {
            let Some(HeapEntry(vis, _)) = sink.heap.pop() else { break };
            executed += 1;
            let li = g.local_index(vis.vertex());
            // `visit` runs on a seed copy, as on the pool executor, so a
            // local push may pre-visit any slot, this vertex's included
            let mut seed = V::visit_seed(&sink.state[li]);
            vis.visit(g, &mut seed, &mut sink);
            V::merge(&mut sink.state[li], &seed);
        }
        self.stats.visitors_executed += executed as u64;
        executed
    }

    /// Pool executor: pop up to one chunk (at most `left`) and execute it on
    /// the worker pool; returns the number executed. Workers claim blocks
    /// of the chunk from a shared cursor, guard each per-vertex state slot
    /// with a bit lock only while copying the `visit_seed` out and while
    /// `merge`-ing the result back (never across the `visit` call itself,
    /// which may block on semi-external page fills), and stage every push
    /// in a per-worker [`SendShard`]. After the pool quiesces the
    /// coordinator absorbs the shards in worker order through the exact
    /// push path an inline push takes (ghost filter, then local accept or
    /// mailbox), so wire traffic, ghost counters and termination accounting
    /// are identical in kind to the inline executor's.
    fn run_chunk(&mut self, p: &mut PoolExec<V>, left: usize) -> usize {
        let PoolExec { pool, locks, ledgers, chunk, cap } = p;
        chunk.clear();
        let limit = (*cap).min(left);
        while chunk.len() < limit {
            let Some(HeapEntry(vis, _)) = self.heap.pop() else { break };
            chunk.push(vis);
        }
        if chunk.is_empty() {
            return 0;
        }
        let executed = chunk.len();
        {
            let g = self.g;
            let slots = SharedSlots::new(self.state.as_mut_slice());
            let cursor = AtomicUsize::new(0);
            let chunk_ref: &[V] = chunk;
            let locks: &AtomicBitVec = locks;
            let ledgers_ref: &PerWorker<WorkerLedger<V>> = &*ledgers;
            // Small blocks keep load balance when per-visitor cost varies
            // (page faults, skewed degrees) without cursor contention.
            const BLOCK: usize = 16;
            let job = move |w: usize| {
                // safety: worker `w` is the only thread touching cell `w`
                let ledger = unsafe { ledgers_ref.cell(w) };
                loop {
                    let begin = cursor.fetch_add(BLOCK, MemOrdering::Relaxed);
                    if begin >= chunk_ref.len() {
                        break;
                    }
                    let end = (begin + BLOCK).min(chunk_ref.len());
                    for vis in &chunk_ref[begin..end] {
                        let li = g.local_index(vis.vertex());
                        locks.lock(li);
                        // safety: the bit lock serializes slot `li`
                        let mut seed = V::visit_seed(unsafe { slots.slot(li) });
                        locks.unlock(li);
                        let mut pusher =
                            ShardPusher { g, shard: &mut ledger.shard, pushed: &mut ledger.pushed };
                        vis.visit(g, &mut seed, &mut pusher);
                        locks.lock(li);
                        // safety: as above — lock held for the merge only
                        V::merge(unsafe { slots.slot(li) }, &seed);
                        locks.unlock(li);
                    }
                }
            };
            pool.broadcast(&job);
        }
        // Absorb in fixed worker order: visitor-level interleaving inside a
        // chunk is scheduling-dependent, but everything that reaches the
        // wire does so from this single-threaded, deterministic drain.
        self.stats.visitors_executed += executed as u64;
        for ledger in ledgers.iter_mut() {
            self.absorb_shard(&mut ledger.shard, std::mem::take(&mut ledger.pushed));
        }
        executed
    }

    /// Park executor: move up to `left` popped visitors into `newly`
    /// without running `visit`; returns the number parked.
    fn park(&mut self, newly: &mut Vec<V>, left: usize) -> usize {
        let before = newly.len();
        newly.extend(std::iter::from_fn(|| self.heap.pop().map(|HeapEntry(v, _)| v)).take(left));
        let parked = newly.len() - before;
        self.stats.visitors_executed += parked as u64;
        parked
    }

    /// Drive one level-synchronous *round* to a confirmed global cut (the
    /// direction-optimizing engine, DESIGN.md §13, and the lifecycle
    /// engine, §15): the one queue loop with the park executor and the
    /// round cut policy. Polls the mailbox, pre-visits and
    /// replica-forwards arrivals exactly like the asynchronous loop, but
    /// *parks* every surviving visitor into `newly` instead of executing
    /// its `visit` — the engine expands the next frontier itself. Returns
    /// once [`Quiescence::poll_cut`] confirms a non-terminal consistent
    /// cut: every candidate sent anywhere this round has been delivered,
    /// pre-visited and (where it improved state) forwarded down its
    /// replica chain, and nothing is in flight.
    ///
    /// A `side` mailbox (the lifecycle engine's cancel plane) is
    /// co-settled under the same cut: its payload counters are summed into
    /// the quiescence poll, so at every confirmed cut all ranks hold the
    /// same set of side records. Side arrivals are appended to its inbox
    /// and never executed or forwarded. The returned verdict is
    /// [`CutVerdict::Cut`], or [`CutVerdict::Abort`] once the armed stall
    /// watchdog fires.
    ///
    /// Collective: every rank must call `drain_round` the same number of
    /// times, and the caller must run at least one collective between
    /// consecutive rounds (the engines' frontier `all_reduce`), so no rank
    /// can inject round-`k+1` traffic while a peer still polls round `k`.
    pub(crate) fn drain_round(
        &mut self,
        newly: &mut Vec<V>,
        side: Option<&mut dyn SideMailbox>,
    ) -> CutVerdict {
        self.drive(&mut Exec::Park(newly), CutPolicy::Round, side)
    }

    /// Arm the quiescence detector's stall watchdog (lifecycle engine,
    /// DESIGN.md §15): after `waves` consecutive completed waves that are
    /// stable but payload-unbalanced, every rank's next
    /// [`Self::drain_round`] returns [`CutVerdict::Abort`].
    pub(crate) fn arm_watchdog(&mut self, waves: u64) {
        self.quiescence.arm_watchdog(waves);
    }

    /// Absorb a worker-staged shard of pushes through the push path (ghost
    /// filter, then the accept step or the mailbox), in coordinator
    /// context, counting its `pushed` visitors (the pool executor's chunks
    /// and the round engines' parallel passes).
    pub(crate) fn absorb_shard(&mut self, shard: &mut SendShard<V>, pushed: u64) {
        let mut sink = self.sink();
        sink.stats.visitors_pushed += pushed;
        for (dst, visitor) in shard.drain() {
            sink.route(dst, visitor);
        }
    }

    /// Mutable access to the traversal counters for same-crate engines
    /// layered on the queue (the direction engine's inspection counters).
    pub(crate) fn stats_mut(&mut self) -> &mut TraversalStats {
        &mut self.stats
    }

    /// Mutable access to the per-vertex state slice for same-crate engines
    /// that claim and expand frontier slots themselves (the lifecycle
    /// engine's exactly-once claim protocol, DESIGN.md §15).
    pub(crate) fn state_mut_slice(&mut self) -> &mut [V::Data] {
        &mut self.state
    }

    /// Run the traversal with periodic checkpoints and (fault-injected)
    /// crash/restore; `None` runs the plain [`Self::do_traversal`].
    /// Collective; every rank must call it with the same `spec`.
    ///
    /// This is the one queue loop with the checkpoint-every-k cut policy,
    /// which piggybacks checkpointing on the quiescence detector: once a
    /// rank has executed `spec.every` visitors since the last cut it parks
    /// its heap (still polling, pre-visiting and forwarding, so the global
    /// payload counters can settle) and votes for a cut via
    /// [`Quiescence::poll_cut`]. A cut confirms a consistent global state —
    /// `sent == recv` and stable across a full wave, so nothing is in
    /// flight and the entire frontier sits in local heaps — which is the
    /// only point where per-rank snapshots compose into a recoverable
    /// whole. Each rank then writes its blob as one epoch in its
    /// [`CheckpointStore`]. Cuts where every rank also reports "no local
    /// work" terminate the traversal directly (no trailing checkpoint).
    ///
    /// With the pool executor (`cfg.threads > 1`) chunks are also bounded
    /// by the remaining checkpoint budget, so a cut can only happen
    /// *between* chunks — with the worker pool quiesced (every `broadcast`
    /// joins before returning) and every staged shard absorbed. The
    /// snapshot a cut exports is therefore exactly the coordinator's
    /// single-threaded view: same state vector, same heap, same counters,
    /// same wire sequence numbers as an inline rank parked at the same cut.
    ///
    /// Crash injection: the shared fault plan deterministically names at
    /// most one victim per (epoch, incarnation) — a stand-in for a perfect
    /// failure detector, so all ranks agree on the failure without extra
    /// protocol. The victim's epoch write is torn (no commit marker); then
    /// *all* ranks rewind to the newest epoch complete everywhere
    /// (`all_reduce_min` of per-rank latest) — restoring mixed epochs
    /// across ranks would break exactly-once effects such as k-core's
    /// decrements. Wire sequence numbers are never rewound: receiver dedup
    /// windows must stay gap-free, and the restored state re-generates any
    /// undelivered work by re-execution.
    pub fn do_traversal_checkpointed(&mut self, ctx: &RankCtx, spec: Option<&CheckpointSpec>)
    where
        V::Data: WireCodec<DecodeCtx = ()>,
    {
        let Some(spec) = spec else { return self.do_traversal() };
        let start = Instant::now();
        let mut exec = self.executor();
        let mut store = spec.build_store();
        let (mut epoch, mut incarnation) = (0, 0);
        // Start "due": the first cut fires before any visitor executes, so
        // epoch 0 — which crash injection spares — always exists as a
        // restore point.
        let mut budget = 0;
        while self.drive(&mut exec, CutPolicy::Checkpoint { budget }, None) == CutVerdict::Cut {
            self.round_checkpoint(ctx, spec, &mut store, &mut epoch, &mut incarnation, &[]);
            budget = spec.every.max(1) as usize;
        }
        self.stats.elapsed += start.elapsed();
    }

    /// One confirmed checkpoint cut: write this rank's epoch blob (torn if
    /// we are the injected victim), then — if anyone crashed — collectively
    /// agree on the newest globally complete epoch, truncate above it and
    /// rewind every rank to it. Engines that carry extra per-rank loop
    /// state alongside the queue snapshot (the direction engine's level
    /// counter, direction and trace — DESIGN.md §13) pass it as `extra`;
    /// the asynchronous checkpointed loop passes none. The blob is
    /// `[extra_len u64][extra][queue blob]`; on a crash-triggered world
    /// rewind the queue part is restored in place and the `extra` bytes of
    /// the restore epoch are returned for the caller to rewind its own
    /// state. Returns `None` when no crash fired (the epoch advances
    /// normally). Collective: all ranks enter together at a confirmed cut.
    pub(crate) fn round_checkpoint(
        &mut self,
        ctx: &RankCtx,
        spec: &CheckpointSpec,
        store: &mut CheckpointStore,
        epoch: &mut u64,
        incarnation: &mut u64,
        extra: &[u8],
    ) -> Option<Vec<u8>>
    where
        V::Data: WireCodec<DecodeCtx = ()>,
    {
        let queue_blob = self.export_checkpoint().encode();
        let mut blob = Vec::with_capacity(8 + extra.len() + queue_blob.len());
        blob.extend_from_slice(&(extra.len() as u64).to_le_bytes());
        blob.extend_from_slice(extra);
        blob.extend_from_slice(&queue_blob);
        let t = Instant::now();
        let victim = ctx.crash_victim(*epoch, *incarnation);
        if victim == Some(self.rank) {
            store.write_epoch_torn(*epoch, &blob);
            self.stats.crashes += 1;
            self.mailbox.channel_stats().record_crash(self.rank);
        } else {
            store.write_epoch(*epoch, &blob);
            self.stats.checkpoints_written += 1;
            self.stats.checkpoint_bytes += blob.len() as u64;
            self.mailbox.channel_stats().record_checkpoint(self.rank);
            if spec.corrupt_committed == Some((self.rank, *epoch)) && *incarnation == 0 {
                let flipped = store.corrupt_committed_payload(*epoch);
                debug_assert!(flipped, "corruption target epoch was just committed");
            }
        }
        if victim.is_none() {
            *epoch += 1;
            // Post-cut barrier: without it a fast rank resumes executing
            // and its sends can land in a slow rank's heap *before* that
            // rank has taken its own epoch snapshot. The snapshots would
            // then not form a consistent cut — the receipt checkpointed,
            // the send not — and a restore would replay the message:
            // double delivery, which non-idempotent visitors (triangle's
            // counter increments) turn into wrong answers. The crash
            // branch below is already synchronized by `all_reduce_min`.
            ctx.barrier();
            self.stats.checkpoint_time += t.elapsed();
            return None;
        }
        // Walk past torn *and* silently corrupt epochs: a committed blob
        // failing its checksum is treated exactly like a torn one, but
        // counted — the restore-fallback telemetry.
        let (local_latest, fallbacks) = store.latest_complete_epoch_with_fallbacks();
        let local_latest = local_latest.expect("epoch 0 is never torn, so a complete epoch exists");
        self.stats.restore_epoch_fallbacks += fallbacks;
        let target = ctx.all_reduce_min(local_latest);
        let bytes = store.read_epoch(target).expect("agreed restore epoch is complete");
        // Drop every epoch above the restore target: the rewound run will
        // re-number them, and a stale complete epoch from this incarnation
        // must never satisfy a later recovery's `latest_complete_epoch`.
        store.truncate_above(target);
        self.stats.restores += 1;
        self.mailbox.channel_stats().record_restore(self.rank);
        *incarnation += 1;
        *epoch = target + 1;
        self.stats.checkpoint_time += t.elapsed();
        let extra_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        let ck = QueueCheckpoint::<V>::decode(&bytes[8 + extra_len..], &self.decode_ctx)
            .expect("committed checkpoint blob decodes");
        self.restore_from(ck);
        Some(bytes[8..8 + extra_len].to_vec())
    }

    /// Freeze this rank's traversal state at a confirmed cut.
    fn export_checkpoint(&self) -> QueueCheckpoint<V>
    where
        V::Data: WireCodec<DecodeCtx = ()>,
    {
        QueueCheckpoint {
            state: self.state.clone(),
            ghosts: self.ghosts.export(),
            heap: self.heap.iter().map(|HeapEntry(v, tie)| (v.clone(), *tie)).collect(),
            wire_seqs: self.mailbox.wire_seqs(),
            counters: QueueCounters {
                arrival_seq: self.arrival_seq,
                visitors_executed: self.stats.visitors_executed,
                visitors_pushed: self.stats.visitors_pushed,
                ghost_checked: self.stats.ghost_checked,
                ghost_filtered: self.stats.ghost_filtered,
                replica_forwards: self.stats.replica_forwards,
            },
        }
    }

    /// Rewind this rank to a decoded checkpoint. Wire sequence numbers are
    /// audited (monotonic vs. the snapshot) but never re-applied.
    fn restore_from(&mut self, ck: QueueCheckpoint<V>) {
        debug_assert_eq!(ck.state.len(), self.state.len(), "checkpoint state extent mismatch");
        #[cfg(debug_assertions)]
        for (cur, old) in self.mailbox.wire_seqs().iter().zip(&ck.wire_seqs) {
            debug_assert!(cur >= old, "wire sequence numbers must never rewind");
        }
        self.state = ck.state;
        self.ghosts.import(&ck.ghosts);
        self.heap = ck.heap.into_iter().map(|(v, tie)| HeapEntry(v, tie)).collect();
        self.arrival_seq = ck.counters.arrival_seq;
        let c = ck.counters;
        self.stats.visitors_executed = c.visitors_executed;
        self.stats.visitors_pushed = c.visitors_pushed;
        self.stats.ghost_checked = c.ghost_checked;
        self.stats.ghost_filtered = c.ghost_filtered;
        self.stats.replica_forwards = c.replica_forwards;
    }
}

impl<'g, V: Visitor + WireCodec> VisitorPush<V> for VisitorQueue<'g, V> {
    fn push(&mut self, visitor: V) {
        VisitorQueue::push(self, visitor);
    }
}

/// The push and accept paths over split borrows of the queue, shared by
/// `push`, the inline executor's in-`visit` pushes, shard absorption and
/// `check_mailbox`. Runs only on the coordinator thread (the ghost table,
/// the heap and the mailbox are not synchronized).
struct Sink<'a, V: Visitor + WireCodec> {
    g: &'a DistGraph,
    rank: usize,
    locality_order: bool,
    mailbox: &'a mut Mailbox<V>,
    ghosts: &'a mut GhostTable<V::Data>,
    stats: &'a mut TraversalStats,
    state: &'a mut [V::Data],
    heap: &'a mut BinaryHeap<HeapEntry<V>>,
    arrival_seq: &'a mut u64,
}

impl<'a, V: Visitor + WireCodec> Sink<'a, V> {
    /// Send a pushed visitor toward its master `dst` (`min_owner`) unless
    /// a local ghost slot rejects it. A visitor whose master is this rank
    /// is accepted in place (local-first delivery): it never enters the
    /// mailbox, but counts as one payload sent and received and pays the
    /// receive cost model, so the payload counters mean the same whoever
    /// the master is.
    fn route(&mut self, dst: usize, visitor: V) {
        if V::GHOSTS_ALLOWED {
            if let Some(gdata) = self.ghosts.get_mut(visitor.vertex()) {
                self.stats.ghost_checked += 1;
                if !visitor.pre_visit(gdata, Role::Ghost) {
                    self.stats.ghost_filtered += 1;
                    return;
                }
            }
        }
        if dst == self.rank {
            self.mailbox.count_local_delivery();
            self.accept(visitor);
        } else {
            self.mailbox.send(dst, visitor);
        }
    }

    /// Algorithm 1's receive step for one visitor delivered to this rank:
    /// `pre_visit` it against local state (as master or replica), forward a
    /// survivor down the replica chain, and queue it in the heap.
    fn accept(&mut self, visitor: V) {
        let v = visitor.vertex();
        debug_assert!(self.g.is_local(v), "visitor for {v} delivered to wrong rank {}", self.rank);
        let li = self.g.local_index(v);
        let role = if self.g.min_owner(v) == self.rank { Role::Master } else { Role::Replica };
        if !visitor.pre_visit(&mut self.state[li], role) {
            return;
        }
        // forward along the replica chain before queuing locally so
        // downstream partitions overlap with our local work
        if self.rank < self.g.max_owner(v) {
            self.stats.replica_forwards += 1;
            self.mailbox.send(self.rank + 1, visitor.clone());
        }
        let tiebreak = if self.locality_order {
            v.0
        } else {
            *self.arrival_seq += 1;
            *self.arrival_seq
        };
        self.heap.push(HeapEntry(visitor, tiebreak));
    }
}

impl<'a, V: Visitor + WireCodec> VisitorPush<V> for Sink<'a, V> {
    fn push(&mut self, visitor: V) {
        self.stats.visitors_pushed += 1;
        self.route(self.g.min_owner(visitor.vertex()), visitor);
    }
}

/// Per-worker scratch for one parallel traversal: the staged outgoing
/// pushes and their count, merged into [`TraversalStats`] by the
/// coordinator when it absorbs the shard.
struct WorkerLedger<V: Visitor + WireCodec> {
    shard: SendShard<V>,
    pushed: u64,
}

/// How the one queue loop runs the visitors it pops; chosen once per
/// traversal and matched once per chunk.
enum Exec<'a, V: Visitor + WireCodec> {
    /// `visit` on this thread: the paper's serial loop (`threads = 1`).
    Inline,
    /// `visit` fanned out to a worker pool (`threads > 1`, DESIGN.md §11).
    Pool(PoolExec<V>),
    /// No `visit`: park popped visitors for a round engine to expand.
    Park(&'a mut Vec<V>),
}

/// The pool executor's per-traversal state; `cap` is the chunk size
/// (`poll_batch` per worker).
struct PoolExec<V: Visitor + WireCodec> {
    pool: WorkerPool,
    locks: AtomicBitVec,
    ledgers: PerWorker<WorkerLedger<V>>,
    chunk: Vec<V>,
    cap: usize,
}

/// When the one queue loop votes for a quiescence cut, and with which flag.
#[derive(Clone, Copy)]
enum CutPolicy {
    /// Vote when out of work, flag `true`: the first cut is termination.
    Terminate,
    /// Vote when out of work or once `budget` visitors have run, flag "out
    /// of work and drained": a cut where every rank ran dry terminates,
    /// any other is a checkpoint barrier with the frontier in the heaps.
    Checkpoint { budget: usize },
    /// Vote when out of work, flag `false`: every cut is a reusable round
    /// barrier; the engine terminates on its global frontier, not here.
    Round,
}

/// A side mailbox co-settled under a round cut (the lifecycle engine's
/// cancel plane, DESIGN.md §15), paired with the inbox its arrivals are
/// appended to.
pub(crate) trait SideMailbox {
    /// Poll arrivals into the inbox; returns how many arrived.
    fn poll(&mut self) -> usize;
    /// Flush staged sends; returns whether nothing is left pending, and
    /// the end-to-end payloads sent and received.
    fn flush(&mut self) -> (bool, u64, u64);
}

impl<C: Send + WireCodec + 'static> SideMailbox for (&mut Mailbox<C>, &mut Vec<C>) {
    fn poll(&mut self) -> usize {
        self.0.poll(self.1)
    }

    fn flush(&mut self) -> (bool, u64, u64) {
        self.0.flush();
        (self.0.pending_out() == 0, self.0.sent_count(), self.0.received_count())
    }
}

/// Worker-side pusher: resolves the destination rank immediately (the
/// graph's ownership map is immutable and thread-safe) but defers the
/// ghost filter, the accept step and the mailbox — all single-threaded —
/// to the coordinator's absorb pass.
struct ShardPusher<'a, V: Visitor + WireCodec> {
    g: &'a DistGraph,
    shard: &'a mut SendShard<V>,
    pushed: &'a mut u64,
}

impl<'a, V: Visitor + WireCodec> VisitorPush<V> for ShardPusher<'a, V> {
    fn push(&mut self, visitor: V) {
        *self.pushed += 1;
        self.shard.send(self.g.min_owner(visitor.vertex()), visitor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use havoq_comm::CommWorld;
    use havoq_graph::csr::GraphConfig;
    use havoq_graph::dist::PartitionStrategy;
    use havoq_graph::gen::rmat::RmatGenerator;
    use havoq_graph::types::Edge;

    /// Minimal "flood" visitor: marks every reachable vertex, no ordering,
    /// ghost-eligible (marking is idempotent and monotone).
    #[derive(Clone)]
    struct Flood {
        vertex: VertexId,
    }

    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    struct FloodData {
        marked: bool,
    }

    impl WireCodec for FloodData {
        const WIRE_SIZE: usize = 1;
        type DecodeCtx = ();

        fn encode(&self, buf: &mut [u8]) {
            buf[0] = self.marked as u8;
        }

        fn decode(buf: &[u8], _ctx: &()) -> Self {
            FloodData { marked: buf[0] != 0 }
        }
    }

    impl WireCodec for Flood {
        const WIRE_SIZE: usize = 8;
        type DecodeCtx = ();

        fn encode(&self, buf: &mut [u8]) {
            self.vertex.encode(buf);
        }

        fn decode(buf: &[u8], ctx: &()) -> Self {
            Flood { vertex: VertexId::decode(buf, ctx) }
        }
    }

    impl Visitor for Flood {
        type Data = FloodData;
        const GHOSTS_ALLOWED: bool = true;

        fn vertex(&self) -> VertexId {
            self.vertex
        }

        fn pre_visit(&self, data: &mut FloodData, _role: Role) -> bool {
            if data.marked {
                false
            } else {
                data.marked = true;
                true
            }
        }

        fn visit(&self, g: &DistGraph, _data: &mut FloodData, q: &mut dyn VisitorPush<Self>) {
            g.with_adj(self.vertex, |adj| {
                for &t in adj {
                    q.push(Flood { vertex: VertexId(t) });
                }
            });
        }

        fn priority(&self, _other: &Self) -> Ordering {
            Ordering::Equal
        }

        fn merge(into: &mut FloodData, update: &FloodData) {
            into.marked |= update.marked;
        }
    }

    fn ring_edges(n: u64) -> Vec<Edge> {
        (0..n).flat_map(|v| [Edge::new(v, (v + 1) % n), Edge::new((v + 1) % n, v)]).collect()
    }

    fn run_flood(p: usize, edges: &[Edge], cfg: TraversalConfig) -> u64 {
        let marked = CommWorld::run(p, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, cfg);
            if g.is_master(VertexId(0)) {
                q.push(Flood { vertex: VertexId(0) });
            }
            q.do_traversal();
            // count marked masters
            let local: u64 = g
                .local_vertices()
                .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                .count() as u64;
            ctx.all_reduce_sum(local)
        });
        marked[0]
    }

    #[test]
    fn flood_reaches_whole_ring() {
        let edges = ring_edges(64);
        for p in [1usize, 2, 4, 5] {
            assert_eq!(run_flood(p, &edges, TraversalConfig::default()), 64, "p={p}");
        }
    }

    #[test]
    fn flood_on_rmat_visits_reachable_set() {
        let gen = RmatGenerator::graph500(9);
        let edges = gen.symmetric_edges(77);
        // serial reachability reference from vertex 0
        let n = gen.num_vertices();
        let mut adj = vec![Vec::new(); n as usize];
        for e in &edges {
            if !e.is_self_loop() {
                adj[e.src as usize].push(e.dst);
            }
        }
        let mut seen = vec![false; n as usize];
        let mut stack = vec![0u64];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &t in &adj[v as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        let expect = seen.iter().filter(|&&s| s).count() as u64;
        for p in [1usize, 4] {
            assert_eq!(run_flood(p, &edges, TraversalConfig::default()), expect, "p={p}");
        }
    }

    #[test]
    fn flood_with_routed_mailbox_matches_direct() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(5);
        let direct = run_flood(4, &edges, TraversalConfig::default());
        let mut cfg2d = TraversalConfig::default();
        cfg2d.mailbox.topology = havoq_comm::TopologyKind::Routed2D;
        let mut cfg3d = TraversalConfig::default();
        cfg3d.mailbox.topology = havoq_comm::TopologyKind::Routed3D;
        assert_eq!(run_flood(4, &edges, cfg2d), direct);
        assert_eq!(run_flood(8, &edges, cfg3d), direct);
    }

    #[test]
    fn ghosts_filter_redundant_pushes() {
        // star graph: every vertex points at hub 0 and back
        let n = 256u64;
        let edges: Vec<Edge> = (1..n).flat_map(|v| [Edge::new(v, 0), Edge::new(0, v)]).collect();
        let filtered = CommWorld::run(4, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            if g.is_master(VertexId(1)) {
                q.push(Flood { vertex: VertexId(1) });
            }
            q.do_traversal();
            let marked: u64 = g
                .local_vertices()
                .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                .count() as u64;
            assert_eq!(ctx.all_reduce_sum(marked), n, "whole star reached");
            ctx.all_reduce_sum(q.stats().ghost_filtered)
        });
        assert!(filtered[0] > 0, "hub ghost should filter repeat visitors");
    }

    #[test]
    fn stats_are_consistent() {
        let edges = ring_edges(32);
        let ok = CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            if g.is_master(VertexId(0)) {
                q.push(Flood { vertex: VertexId(0) });
            }
            q.do_traversal();
            let s = q.stats();
            let sent = ctx.all_reduce_sum(s.payload_sent);
            let recv = ctx.all_reduce_sum(s.payload_received);
            let executed = ctx.all_reduce_sum(s.visitors_executed);
            sent == recv && executed > 0 && executed <= recv
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn multiple_traversals_in_one_world() {
        let edges = ring_edges(16);
        CommWorld::run(2, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            for _ in 0..3 {
                let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
                if g.is_master(VertexId(5)) {
                    q.push(Flood { vertex: VertexId(5) });
                }
                q.do_traversal();
                let marked: u64 = g
                    .local_vertices()
                    .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                    .count() as u64;
                assert_eq!(ctx.all_reduce_sum(marked), 16);
            }
        });
    }

    #[test]
    fn locality_order_is_result_neutral() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(44);
        let count = |locality: bool| {
            let out = CommWorld::run(3, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let cfg = TraversalConfig { locality_order: locality, ..Default::default() };
                let mut q = VisitorQueue::<Flood>::new(ctx, &g, cfg);
                if g.is_master(VertexId(0)) {
                    q.push(Flood { vertex: VertexId(0) });
                }
                q.do_traversal();
                let marked: u64 = g
                    .local_vertices()
                    .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                    .count() as u64;
                ctx.all_reduce_sum(marked)
            });
            out[0]
        };
        assert_eq!(count(true), count(false), "ordering is a performance knob only");
    }

    /// Drive a flood with checkpointing and return (marked, per-world sums
    /// of checkpoints written, crashes, restores).
    fn run_flood_checkpointed(
        p: usize,
        edges: &[Edge],
        every: u64,
        faults: Option<havoq_comm::FaultConfig>,
    ) -> (u64, u64, u64, u64) {
        let out = CommWorld::run_with_faults(p, faults, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            if g.is_master(VertexId(0)) {
                q.push(Flood { vertex: VertexId(0) });
            }
            let spec = crate::checkpoint::CheckpointSpec::default().with_every(every);
            q.do_traversal_checkpointed(ctx, Some(&spec));
            let s = q.stats();
            let marked: u64 = g
                .local_vertices()
                .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                .count() as u64;
            (
                ctx.all_reduce_sum(marked),
                ctx.all_reduce_sum(s.checkpoints_written),
                ctx.all_reduce_sum(s.crashes),
                ctx.all_reduce_sum(s.restores),
            )
        });
        out[0]
    }

    #[test]
    fn checkpointed_traversal_matches_plain() {
        let edges = ring_edges(64);
        for p in [1usize, 2, 4] {
            let (marked, ckpts, crashes, restores) = run_flood_checkpointed(p, &edges, 8, None);
            assert_eq!(marked, 64, "p={p}");
            assert!(ckpts >= p as u64, "every rank writes at least epoch 0 (p={p})");
            assert_eq!((crashes, restores), (0, 0), "fault-free run (p={p})");
        }
    }

    #[test]
    fn forced_crash_restores_and_converges() {
        let edges = ring_edges(64);
        for p in [2usize, 4] {
            let faults = havoq_comm::FaultConfig::quiet(7).with_forced_crash(p - 1, 2);
            let (marked, _ckpts, crashes, restores) =
                run_flood_checkpointed(p, &edges, 8, Some(faults));
            assert_eq!(marked, 64, "resumed flood reaches whole ring (p={p})");
            assert_eq!(crashes, 1, "exactly one torn epoch (p={p})");
            assert_eq!(restores, p as u64, "every rank rewinds together (p={p})");
        }
    }

    #[test]
    fn corrupt_committed_checkpoint_falls_back_one_epoch() {
        // Rank 0 commits epoch 2 and then its blob is silently damaged
        // (payload flip through the cache); rank p-1 tears epoch 2 as the
        // forced crash victim. At restore rank 0 must skip its corrupt
        // blob — exactly one counted fallback — and the world agrees on
        // epoch 1; the rewound traversal still floods the whole ring.
        let edges = ring_edges(64);
        for p in [2usize, 4] {
            let faults = havoq_comm::FaultConfig::quiet(7).with_forced_crash(p - 1, 2);
            let out = CommWorld::run_with_faults(p, Some(faults), |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
                if g.is_master(VertexId(0)) {
                    q.push(Flood { vertex: VertexId(0) });
                }
                let spec = crate::checkpoint::CheckpointSpec::default()
                    .with_every(8)
                    .with_corrupt_committed(0, 2);
                q.do_traversal_checkpointed(ctx, Some(&spec));
                let s = q.stats();
                let marked: u64 = g
                    .local_vertices()
                    .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                    .count() as u64;
                (
                    ctx.all_reduce_sum(marked),
                    ctx.all_reduce_sum(s.crashes),
                    ctx.all_reduce_sum(s.restores),
                    ctx.all_reduce_sum(s.restore_epoch_fallbacks),
                )
            });
            let (marked, crashes, restores, fallbacks) = out[0];
            assert_eq!(marked, 64, "traversal completes from the earlier epoch (p={p})");
            assert_eq!(crashes, 1, "p={p}");
            assert_eq!(restores, p as u64, "p={p}");
            assert_eq!(fallbacks, 1, "rank 0 skipped exactly its corrupt blob (p={p})");
        }
    }

    /// Executor × cut-policy grid: the Flood visitor's traversal counters
    /// are fully deterministic (marking is idempotent and ghost slots
    /// converge to "marked" regardless of interleaving), so every executor
    /// (inline at 1 thread, pool at 2 and 4) under every fault-free cut
    /// policy (plain, checkpoint every 8, checkpoint every 64) must
    /// reproduce the serial plain counts exactly.
    #[test]
    fn parallel_stats_match_serial_exactly() {
        let gen = RmatGenerator::graph500(8);
        let edges = gen.symmetric_edges(21);
        let run = |threads: usize, every: Option<u64>| {
            let out = CommWorld::run(2, |ctx| {
                let g = DistGraph::build_replicated(
                    ctx,
                    &edges,
                    PartitionStrategy::EdgeList,
                    GraphConfig::default(),
                );
                let cfg = TraversalConfig::default().with_threads(threads);
                let mut q = VisitorQueue::<Flood>::new(ctx, &g, cfg);
                if g.is_master(VertexId(0)) {
                    q.push(Flood { vertex: VertexId(0) });
                }
                let spec =
                    every.map(|k| crate::checkpoint::CheckpointSpec::default().with_every(k));
                q.do_traversal_checkpointed(ctx, spec.as_ref());
                let s = q.stats();
                let marked: u64 = g
                    .local_vertices()
                    .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                    .count() as u64;
                (
                    ctx.all_reduce_sum(marked),
                    ctx.all_reduce_sum(s.visitors_executed),
                    ctx.all_reduce_sum(s.visitors_pushed),
                    ctx.all_reduce_sum(s.ghost_checked),
                    ctx.all_reduce_sum(s.ghost_filtered),
                    ctx.all_reduce_sum(s.replica_forwards),
                    ctx.all_reduce_sum(s.payload_sent),
                    ctx.all_reduce_sum(s.payload_received),
                )
            });
            out[0]
        };
        let serial = run(1, None);
        for threads in [1usize, 2, 4] {
            for every in [None, Some(8), Some(64)] {
                assert_eq!(run(threads, every), serial, "threads={threads} every={every:?}");
            }
        }
    }

    #[test]
    fn parallel_checkpointed_flood_converges_through_crash() {
        let edges = ring_edges(64);
        for p in [2usize, 4] {
            let out = CommWorld::run_with_faults(
                p,
                Some(havoq_comm::FaultConfig::quiet(7).with_forced_crash(p - 1, 2)),
                |ctx| {
                    let g = DistGraph::build_replicated(
                        ctx,
                        &edges,
                        PartitionStrategy::EdgeList,
                        GraphConfig::default(),
                    );
                    let cfg = TraversalConfig::default().with_threads(4);
                    let mut q = VisitorQueue::<Flood>::new(ctx, &g, cfg);
                    if g.is_master(VertexId(0)) {
                        q.push(Flood { vertex: VertexId(0) });
                    }
                    let spec = crate::checkpoint::CheckpointSpec::default().with_every(8);
                    q.do_traversal_checkpointed(ctx, Some(&spec));
                    let s = q.stats();
                    let marked: u64 = g
                        .local_vertices()
                        .filter(|&v| g.is_master(v) && q.state()[g.local_index(v)].marked)
                        .count() as u64;
                    (
                        ctx.all_reduce_sum(marked),
                        ctx.all_reduce_sum(s.crashes),
                        ctx.all_reduce_sum(s.restores),
                    )
                },
            );
            let (marked, crashes, restores) = out[0];
            assert_eq!(marked, 64, "threads=4 resumed flood reaches whole ring (p={p})");
            assert_eq!(crashes, 1, "p={p}");
            assert_eq!(restores, p as u64, "p={p}");
        }
    }

    /// Symmetric multigraph for the local-first delivery checks. Hub 80
    /// is adjacent to every vertex below 120 and sits mid-range, so its
    /// adjacency list crosses the middle rank boundary (split at p ≥ 2);
    /// chords (i, i+1) for i ≡ 0 mod 3 close one triangle each with the
    /// hub; a path 120..160 hangs off vertex 0 with every path edge
    /// doubled; self-loops (some doubled) sit on the hub and on both
    /// sides of the bridge. The doubled edges lie on the triangle-free
    /// path, so every triangle has simple edges.
    fn local_first_graph() -> (u64, Vec<Edge>) {
        const N: u64 = 160;
        const HUB: u64 = 80;
        let mut und: Vec<(u64, u64)> = Vec::new();
        und.extend((0..120).filter(|&v| v != HUB).map(|v| (v, HUB)));
        und.extend((0..119).step_by(3).filter(|&i| i != HUB && i + 1 != HUB).map(|i| (i, i + 1)));
        und.push((0, 120));
        for j in 120..N - 1 {
            und.extend([(j, j + 1), (j, j + 1)]);
        }
        let mut edges: Vec<Edge> =
            und.iter().flat_map(|&(a, b)| [Edge::new(a, b), Edge::new(b, a)]).collect();
        for v in [HUB, HUB, 5, 120, 130, 130, N - 1] {
            edges.push(Edge::new(v, v));
        }
        (N, edges)
    }

    /// Serial oracles over the same edge list: BFS levels from `source`,
    /// the k-core survivors (a vertex's degree counts every adjacency entry,
    /// duplicates and self-loops included, as the distributed kernel's
    /// `total_degree` does), and the triangle count.
    fn serial_adjacency(n: u64, edges: &[Edge]) -> Vec<Vec<u64>> {
        let mut adj = vec![Vec::new(); n as usize];
        for e in edges {
            adj[e.src as usize].push(e.dst);
        }
        adj
    }

    fn serial_levels(adj: &[Vec<u64>], source: u64) -> Vec<u64> {
        let mut level = vec![crate::algorithms::bfs::UNREACHED; adj.len()];
        level[source as usize] = 0;
        let mut frontier = vec![source];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &t in &adj[v as usize] {
                    if level[t as usize] == crate::algorithms::bfs::UNREACHED {
                        level[t as usize] = level[v as usize] + 1;
                        next.push(t);
                    }
                }
            }
            frontier = next;
        }
        level
    }

    fn serial_kcore(adj: &[Vec<u64>], k: u64) -> Vec<bool> {
        let mut degree: Vec<u64> = adj.iter().map(|a| a.len() as u64).collect();
        let mut alive = vec![true; adj.len()];
        let mut dying: Vec<usize> = (0..adj.len()).filter(|&v| degree[v] < k).collect();
        for &v in &dying {
            alive[v] = false;
        }
        while let Some(v) = dying.pop() {
            for &t in &adj[v] {
                let t = t as usize;
                if alive[t] {
                    degree[t] -= 1;
                    if degree[t] < k {
                        alive[t] = false;
                        dying.push(t);
                    }
                }
            }
        }
        alive
    }

    fn serial_triangles(adj: &[Vec<u64>]) -> u64 {
        let sets: Vec<std::collections::BTreeSet<u64>> =
            adj.iter().map(|a| a.iter().copied().collect()).collect();
        let mut count = 0;
        for (u, nu) in sets.iter().enumerate() {
            for &v in nu.range(u as u64 + 1..) {
                count += sets[v as usize].range(v + 1..).filter(|w| nu.contains(w)).count() as u64;
            }
        }
        count
    }

    /// Every payload is counted once when sent and once when received, and
    /// the payloads are exactly the pushes that passed the ghost filter
    /// plus the replica forwards — local-first deliveries included.
    fn assert_payloads_conserved(ctx: &RankCtx, s: &TraversalStats, what: &str) {
        let sent = ctx.all_reduce_sum(s.payload_sent);
        let received = ctx.all_reduce_sum(s.payload_received);
        let routed = ctx.all_reduce_sum(s.visitors_pushed - s.ghost_filtered + s.replica_forwards);
        assert_eq!(sent, received, "{what}: payloads sent vs received");
        assert_eq!(sent, routed, "{what}: payloads vs pushes - filtered + forwards");
    }

    /// Local-first delivery (a push to one of this rank's own masters is
    /// accepted in place) gives the serial oracles' BFS levels, k-cores and
    /// triangle count on a multigraph with self-loops and a split hub, on
    /// ranks {1, 2, 4} x threads {1, 4}, and keeps the payload counters
    /// conserved.
    #[test]
    fn local_first_delivery_matches_serial_oracles() {
        use crate::algorithms::bfs::{bfs, BfsConfig};
        use crate::algorithms::kcore::{kcore, KCoreConfig};
        use crate::algorithms::triangle::{triangle_count, TriangleConfig};
        let (n, edges) = local_first_graph();
        let adj = serial_adjacency(n, &edges);
        let sources = [80u64, 159];
        let levels: Vec<Vec<u64>> = sources.iter().map(|&s| serial_levels(&adj, s)).collect();
        let kvals = [2u64, 3, 4];
        let cores: Vec<Vec<bool>> = kvals.iter().map(|&k| serial_kcore(&adj, k)).collect();
        let triangles = serial_triangles(&adj);
        assert_eq!(triangles, 40, "the chords close one triangle each");
        let gcfg = GraphConfig {
            dedup: false,
            remove_self_loops: false,
            num_vertices: Some(n),
            ..GraphConfig::default()
        };
        for p in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                let tag = format!("p={p} threads={threads}");
                let traversal = TraversalConfig::default().with_threads(threads);
                CommWorld::run(p, |ctx| {
                    let g =
                        DistGraph::build_replicated(ctx, &edges, PartitionStrategy::EdgeList, gcfg);
                    if p > 1 {
                        assert_ne!(
                            g.min_owner(VertexId(80)),
                            g.max_owner(VertexId(80)),
                            "hub split"
                        );
                    }
                    let masters: Vec<VertexId> =
                        g.local_vertices().filter(|&v| g.is_master(v)).collect();
                    for (&source, want) in sources.iter().zip(&levels) {
                        let cfg = BfsConfig { traversal, checkpoint: None };
                        let r = bfs(ctx, &g, VertexId(source), &cfg);
                        for &v in &masters {
                            let got = r.local_state[g.local_index(v)].length;
                            assert_eq!(
                                got, want[v.0 as usize],
                                "{tag}: BFS from {source}, level of {v}"
                            );
                        }
                        assert_payloads_conserved(
                            ctx,
                            &r.stats,
                            &format!("{tag}: BFS from {source}"),
                        );
                    }
                    for (&k, want) in kvals.iter().zip(&cores) {
                        let r = kcore(ctx, &g, k, &KCoreConfig { traversal, checkpoint: None });
                        for &v in &masters {
                            let got = r.local_state[g.local_index(v)].alive;
                            assert_eq!(
                                got, want[v.0 as usize],
                                "{tag}: {k}-core membership of {v}"
                            );
                        }
                        assert_payloads_conserved(ctx, &r.stats, &format!("{tag}: {k}-core"));
                    }
                    let r =
                        triangle_count(ctx, &g, &TriangleConfig { traversal, checkpoint: None });
                    assert_eq!(r.triangles, triangles, "{tag}: triangles");
                    assert_payloads_conserved(ctx, &r.stats, &format!("{tag}: triangles"));
                });
            }
        }
    }

    #[test]
    fn empty_traversal_terminates() {
        let edges = ring_edges(8);
        CommWorld::run(3, |ctx| {
            let g = DistGraph::build_replicated(
                ctx,
                &edges,
                PartitionStrategy::EdgeList,
                GraphConfig::default(),
            );
            let mut q = VisitorQueue::<Flood>::new(ctx, &g, TraversalConfig::default());
            q.do_traversal(); // nothing pushed: must still terminate
            assert_eq!(q.stats().visitors_executed, 0);
        });
    }
}
