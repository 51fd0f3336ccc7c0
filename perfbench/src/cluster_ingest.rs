//! `cluster-ingest`: the Reddit-like stream (temporally ordered, bursty)
//! as 256-edge sliding-window batches into a 2-shard vertex-hash
//! `GraphCluster` (default `ClusterConfig` plus a `RecoveryPolicy` over a
//! `MemoryCheckpointStore`). Two phases:
//!
//! * (a) capacity: one closed-loop producer drains a fixed part of the
//!   stream through `ClusterHandle::ingest` in rounds, each closed by a
//!   covering `epoch_cut`; half the rounds run before phase (b), half
//!   after it, so their median spans the run;
//! * (b) paced: an open-loop producer at a fixed rate (never recomputed),
//!   each batch timed from its due time. A reader thread cuts every
//!   100 ms and, between cuts, sends closed-loop never-repeated point
//!   queries on just-ingested keys back to back through a `QueryServer`
//!   over `ClusterBackend`, with the result cache off. The reader opens
//!   each cut for serving (one `latest` call, which merges it) before its
//!   queries, and checks each answer against `execute` on that cut.
//!
//! End-to-end metrics: `ingest_ups` from phase (a); `visible_*` from a
//! batch's due time to its first appearance in a cut delta (cluster-level
//! monitor), and `query_*` from `submit` to ticket completion in phase
//! (b).

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpma_cluster::{
    ClusterConfig, ClusterMetrics, ClusterSnapshot, GraphCluster, PartitionPolicy, RecoveryPolicy,
};
use gpma_core::delta::DeltaCatchUp;
use gpma_core::framework::GraphSnapshot;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_graph::{Edge, GraphStream, UpdateBatch};
use gpma_obs::Stage;
use gpma_serving::{
    execute, BackendClosed, ClusterBackend, Query, QueryServer, ServingBackend, ServingConfig,
    TenantConfig,
};

use crate::oracle::{check_edge_set, check_query, window_edges};
use crate::report::{peak_rss_mb, Outcome};
use crate::serve_hot::PAGERANK;
use crate::stats::{median, summarize};
use crate::trace::{Tracer, ROOT};
use crate::vis::Visibility;
use crate::{device_config, layers, Ctx, SETUPS, SETUPS_AFTER};

/// Reddit-like scale relative to Table 2 (V = 31,320, E = 412,800). At
/// 0.015 (V = 39,150) phase (a) capacity falls about 17-fold, to ~2.3k
/// updates/s; README.md records it.
const SCALE: f64 = 0.012;
/// Shards of the vertex-hash cluster.
const SHARDS: usize = 2;
/// Edges per sliding-window batch (256 inserted + 256 deleted updates).
const BATCH_EDGES: usize = 256;
/// Phase (a): rounds, each of this many batches drained closed-loop and
/// one covering cut. Half run before phase (b) and half after it: the
/// host's speed drifts over seconds, and a median over rounds taken in
/// one stretch would follow that stretch.
const CAPACITY_ROUNDS: usize = 16;
const ROUND_BATCHES: usize = 24;
const CAPACITY_BATCHES: usize = CAPACITY_ROUNDS * ROUND_BATCHES;
/// Phase (b): offered load, updates per second. Fixed once, never
/// derived from a run: about a quarter of phase (a)'s capacity on a
/// 2-core box.
const PACED_UPS: f64 = 9_000.0;
/// Phase (b): the reader's cut period.
const CUT_PERIOD: Duration = Duration::from_millis(100);
/// Phase (b): point queries the reader sends between two cuts.
const QUERIES_PER_CUT: usize = 64;
/// Phase (b) never runs shorter than this.
const MIN_PACED: Duration = Duration::from_secs(3);
/// Just-ingested edges the reader draws its query keys from.
const RECENT_KEYS: usize = 1024;
/// Queries re-checked against `execute` at the end of phase (b).
const RECHECK: usize = 256;
/// Longest a sampled update may take to become visible after the last cut.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// `ClusterBackend`, with the first `latest` call after each new cut
/// timed (that call merges the cut into one snapshot; the reader makes it
/// right after the cut).
struct TimedBackend {
    inner: ClusterBackend,
    tracer: Arc<Tracer>,
    seen_cut: AtomicU64,
    merge_ms: Arc<Mutex<Vec<f64>>>,
}

impl ServingBackend for TimedBackend {
    fn latest(&self) -> Arc<GraphSnapshot> {
        if !self.tracer.on() {
            return self.inner.latest();
        }
        let t = Instant::now();
        let snap = self.inner.latest();
        let end = Instant::now();
        if self.seen_cut.fetch_max(snap.epoch(), Ordering::Relaxed) < snap.epoch() {
            self.tracer
                .record("cluster.backend_merge", snap.epoch(), ROOT, t, end);
            let mut m = self.merge_ms.lock().expect("merge samples poisoned");
            m.push(end.duration_since(t).as_secs_f64() * 1e3);
        }
        snap
    }

    fn deltas_since(&self, epoch: u64) -> DeltaCatchUp<Arc<GraphSnapshot>> {
        self.inner.deltas_since(epoch)
    }

    fn offer(&self, batch: UpdateBatch) -> Result<bool, BackendClosed> {
        self.inner.offer(batch)
    }
}

struct Setup {
    stream: GraphStream,
    cluster: Arc<GraphCluster>,
    backend: Arc<TimedBackend>,
    server: QueryServer<TimedBackend>,
    vis: Arc<Visibility>,
    merge_ms: Arc<Mutex<Vec<f64>>>,
}

fn setup(ctx: &Ctx, generate_s: &mut Vec<f64>) -> Setup {
    let t0 = Instant::now();
    let stream = generate(DatasetKind::RedditLike, SCALE, ctx.seed);
    generate_s.push(t0.elapsed().as_secs_f64());
    let vis = Visibility::new(Arc::clone(&ctx.tracer), false);
    let cfg = ClusterConfig {
        recovery: Some(RecoveryPolicy::default()),
        ..ClusterConfig::default()
    };
    let cluster = Arc::new(GraphCluster::spawn_with_delta_monitors(
        cfg,
        &device_config(),
        PartitionPolicy::VertexHash.build(stream.num_vertices, SHARDS),
        stream.initial_edges(),
        vec![vis.monitor()],
    ));
    let merge_ms = Arc::new(Mutex::new(Vec::new()));
    let backend = Arc::new(TimedBackend {
        inner: ClusterBackend::new(Arc::clone(&cluster)),
        tracer: Arc::clone(&ctx.tracer),
        seen_cut: AtomicU64::new(0),
        merge_ms: Arc::clone(&merge_ms),
    });
    let scfg = ServingConfig {
        default_deadline: Duration::from_secs(10),
        pagerank: PAGERANK,
        tenants: vec![TenantConfig::unlimited("reader")],
        // The cache off: this is the workload that bypasses it. With it
        // on, every cut's refresh runs the cache's incremental CC over a
        // ~1.8k-update delta (150-300 ms on a 2-core box), which alone
        // exceeds the cut period; README.md records the measurement.
        cache: false,
        ..ServingConfig::default()
    };
    let server = QueryServer::spawn_with_obs(Arc::clone(&backend), scfg, Arc::clone(cluster.obs()));
    cluster.obs().set_enabled(ctx.tracer.on());
    Setup {
        stream,
        cluster,
        backend,
        server,
        vis,
        merge_ms,
    }
}

fn teardown(s: Setup) {
    let Setup {
        cluster,
        backend,
        server,
        ..
    } = s;
    server.shutdown();
    drop(backend);
    Arc::into_inner(cluster)
        .expect("the server released the cluster")
        .shutdown();
}

fn batch(stream: &GraphStream, k: usize) -> UpdateBatch {
    let (lo, hi) = (k * BATCH_EDGES, stream.initial_size() + k * BATCH_EDGES);
    UpdateBatch {
        insertions: stream.edges[hi..hi + BATCH_EDGES].to_vec(),
        deletions: stream.edges[lo..lo + BATCH_EDGES].to_vec(),
    }
}

fn max_batches(stream: &GraphStream) -> usize {
    (stream.len() - stream.initial_size()) / BATCH_EDGES
}

/// Phase (b) measurements.
#[derive(Default)]
struct Paced {
    batches: usize,
    ingest_call_us: Vec<f64>,
    lateness_ms: Vec<f64>,
    queue_depth_max: usize,
    cut_ms: Vec<f64>,
    query_us: Vec<f64>,
    submit_us: Vec<f64>,
    queries: u64,
    failed: u64,
    issued: VecDeque<Query>,
    wall_s: f64,
    /// The reader's first wrong answer, if any.
    error: Option<String>,
}

/// Wait for a ticket by polling it: the reader stays on its core, so a
/// query's latency does not include waking the reader, whose cost on a
/// VM depends on whether the other core sat idle.
fn poll<T>(ticket: &gpma_serving::Ticket<T>) -> T {
    loop {
        if let Some(v) = ticket.try_take() {
            return v;
        }
        std::hint::spin_loop();
    }
}

/// A never-repeated point query on a just-ingested edge.
fn next_query(
    recent: &Mutex<VecDeque<Edge>>,
    used: &mut HashSet<Query>,
    turn: usize,
) -> Option<Query> {
    let recent = recent.lock().expect("recent edges poisoned");
    for e in recent.iter().rev() {
        let q = match turn % 3 {
            0 => Query::EdgeExists { u: e.src, v: e.dst },
            1 => Query::Degree { v: e.src },
            _ => Query::Neighbors { v: e.dst },
        };
        if used.insert(q) {
            return Some(q);
        }
    }
    None
}

/// Phase (a) rounds from batch `first` on, each closed by a covering cut:
/// the updates per second of each round.
fn capacity(
    tr: &Tracer,
    s: &Setup,
    first: usize,
    rounds: usize,
    call_us: &mut Vec<f64>,
) -> Result<Vec<f64>, String> {
    let h = s.cluster.handle();
    let mut ups = Vec::new();
    for round in 0..rounds {
        let t_round = Instant::now();
        let from = first + round * ROUND_BATCHES;
        for k in from..from + ROUND_BATCHES {
            let t = Instant::now();
            {
                let _s = tr.span("cluster.ingest", k as u64);
                h.ingest(batch(&s.stream, k)).map_err(|e| e.to_string())?;
            }
            call_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        {
            let _s = tr.span("cluster.epoch_cut", 0);
            s.cluster.epoch_cut().map_err(|e| e.to_string())?;
        }
        ups.push((2 * BATCH_EDGES * ROUND_BATCHES) as f64 / t_round.elapsed().as_secs_f64());
    }
    Ok(ups)
}

/// The covering cut's merged edge set equals the window after `batches`.
fn check_cut(what: &str, s: &Setup, cut: &ClusterSnapshot, batches: usize) -> Result<(), String> {
    let lo = batches * BATCH_EDGES;
    check_edge_set(
        what,
        &cut.merged_edges(),
        &window_edges(&s.stream.edges, lo, s.stream.initial_size() + lo),
    )
}

fn paced(ctx: &Ctx, s: &Setup, first_batch: usize, last: usize, dur: Duration) -> Paced {
    let stop = AtomicBool::new(false);
    let recent: Mutex<VecDeque<Edge>> = Mutex::new(VecDeque::new());
    let interval = Duration::from_secs_f64((2 * BATCH_EDGES) as f64 / PACED_UPS);
    let tr = &ctx.tracer;
    let t0 = Instant::now();
    let (mut p, reader) = std::thread::scope(|scope| {
        let (stop, recent) = (&stop, &recent);
        let reader = scope.spawn(move || {
            let mut r = Paced::default();
            let mut used = HashSet::new();
            let mut next_cut = Instant::now();
            let mut turn = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now < next_cut {
                    std::thread::sleep(next_cut - now);
                }
                while next_cut <= Instant::now() {
                    next_cut += CUT_PERIOD;
                }
                let t = Instant::now();
                let cut = {
                    let _s = tr.span("cluster.epoch_cut", 0);
                    s.cluster.epoch_cut()
                };
                r.cut_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if cut.is_err() {
                    r.failed += 1;
                    break;
                }
                // Open the cut for serving: the backend merges it once
                // here, so no query pays for the merge. Only this thread
                // cuts, so every query until the next cut is served from
                // this snapshot.
                let snap = s.backend.latest();
                for _ in 0..QUERIES_PER_CUT {
                    if Instant::now() >= next_cut || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(q) = next_query(recent, &mut used, turn) else {
                        break;
                    };
                    turn += 1;
                    let req = 1 << 40 | r.queries;
                    let op = tr.span("op.query", req);
                    let t = Instant::now();
                    let ticket = {
                        let _c = tr.span("serving.submit", req);
                        s.server.submit(0, q)
                    };
                    r.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    r.queries += 1;
                    let answer = match ticket.map(|t| poll(&t)) {
                        Ok(Ok(a)) => a,
                        _ => {
                            r.failed += 1;
                            continue;
                        }
                    };
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    drop(op);
                    // Checked before it counts: a wrong answer is never a
                    // latency sample.
                    if let Err(e) = check_query(q, &answer, &execute(q, &snap, PAGERANK)) {
                        r.error = Some(format!("cut {}: {e}", snap.epoch()));
                        return r;
                    }
                    r.query_us.push(us);
                    if r.issued.len() == RECHECK {
                        r.issued.pop_front();
                    }
                    r.issued.push_back(q);
                }
            }
            r
        });

        let mut p = Paced::default();
        let h = s.cluster.handle();
        let start = Instant::now();
        for (i, k) in (first_batch..last).enumerate() {
            let due = start + interval * i as u32;
            if due >= start + dur {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            p.lateness_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            let b = batch(&s.stream, k);
            {
                let mut r = recent.lock().expect("recent edges poisoned");
                r.extend(b.insertions.iter().copied());
                while r.len() > RECENT_KEYS {
                    r.pop_front();
                }
            }
            p.queue_depth_max = p.queue_depth_max.max(h.queue_depth());
            let req = k as u64;
            let op = tr.span("op.ingest", req);
            s.vis.expect(b.insertions[0], due, req, op.id());
            let t = Instant::now();
            let res = {
                let _c = tr.span("cluster.ingest", req);
                h.ingest(b)
            };
            p.ingest_call_us.push(t.elapsed().as_secs_f64() * 1e6);
            p.batches += 1;
            if res.is_err() {
                p.failed += 1;
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        (p, reader.join().expect("reader thread panicked"))
    });
    p.wall_s = t0.elapsed().as_secs_f64();
    p.cut_ms = reader.cut_ms;
    p.query_us = reader.query_us;
    p.submit_us = reader.submit_us;
    p.queries = reader.queries;
    p.failed += reader.failed;
    p.issued = reader.issued;
    p.error = reader.error;
    p
}

/// Run the workload once.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS - SETUPS_AFTER {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let t0 = Instant::now();
        last = Some(setup(ctx, &mut generate_s));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = last.expect("at least one setup");
    let before: ClusterMetrics = s.cluster.metrics().map_err(|e| e.to_string())?;
    let tr = &ctx.tracer;

    // Phase (a), first half: capacity, in rounds each closed by a covering
    // cut; the median round damps a burst of interference in any one.
    let half = CAPACITY_ROUNDS / 2;
    let mut call_us = Vec::new();
    let t_a = Instant::now();
    let mut round_ups = capacity(tr, &s, 0, half, &mut call_us)?;
    let capacity_s = t_a.elapsed().as_secs_f64();
    let a1 = half * ROUND_BATCHES;
    eprintln!("cluster-ingest: phase (a) first half, {a1} batches in {capacity_s:.3} s");
    check_cut(
        "cut after phase (a), first half",
        &s,
        &s.cluster.snapshot(),
        a1,
    )?;

    // Phase (b): paced, leaving the stream's last batches to the second
    // half of phase (a), which is expected to take as long as the first.
    let dur = Duration::from_secs_f64((ctx.seconds - 2.0 * capacity_s).max(0.0)).max(MIN_PACED);
    let last = max_batches(&s.stream) - (CAPACITY_ROUNDS - half) * ROUND_BATCHES;
    let p = paced(ctx, &s, a1, last, dur);
    if let Some(e) = p.error {
        return Err(e);
    }
    eprintln!(
        "cluster-ingest: phase (b) {} batches in {:.3} s",
        p.batches, p.wall_s
    );
    let cut = s.cluster.epoch_cut().map_err(|e| e.to_string())?;
    let invisible = s.vis.drain(DRAIN_TIMEOUT);
    let visible_ms = s.vis.take_samples();
    let end = a1 + p.batches;
    check_cut("cut after phase (b)", &s, &cut, end)?;
    // Quiescent: ingest stopped and cut. The last queries the reader
    // issued, served again now, equal `execute` on a snapshot built from
    // the arrival-order oracle.
    let latest = s.backend.latest();
    let oracle = GraphSnapshot::from_edges(
        cut.cut(),
        s.stream.num_vertices,
        window_edges(
            &s.stream.edges,
            end * BATCH_EDGES,
            s.stream.initial_size() + end * BATCH_EDGES,
        ),
    );
    for &q in &p.issued {
        let served = s
            .server
            .submit(0, q)
            .map_err(|r| format!("re-check {q:?} rejected: {r}"))?
            .wait()
            .map_err(|r| format!("re-check {q:?} failed: {r}"))?;
        check_query(q, &served, &execute(q, &oracle, PAGERANK))?;
    }

    // Phase (a), second half.
    let t_a = Instant::now();
    round_ups.extend(capacity(tr, &s, end, CAPACITY_ROUNDS - half, &mut call_us)?);
    let capacity_s = capacity_s + t_a.elapsed().as_secs_f64();
    let total = end + (CAPACITY_ROUNDS - half) * ROUND_BATCHES;
    check_cut(
        "cut after phase (a), second half",
        &s,
        &s.cluster.snapshot(),
        total,
    )?;
    let after: ClusterMetrics = s.cluster.metrics().map_err(|e| e.to_string())?;
    let srv = s.server.metrics();

    out.e2e("peak_rss_mb", peak_rss_mb(), 1, "VmHWM");
    let cap_updates = (2 * BATCH_EDGES * CAPACITY_BATCHES) as f64;
    out.e2e(
        "ingest_ups",
        median(&round_ups).unwrap_or(0.0),
        CAPACITY_ROUNDS as u64,
        format!(
            "median phase (a) round, {} updates each",
            2 * BATCH_EDGES * ROUND_BATCHES
        ),
    );
    out.e2e_timing("visible_p50_ms", "visible_tail_ms", &visible_ms, 1.0);
    out.e2e_timing("query_p50_us", "e2e.query_tail_us", &p.query_us, 1.0);
    out.attempted = total as u64 + p.queries + p.cut_ms.len() as u64;
    out.failed = p.failed + invisible as u64;

    call_us.extend(&p.ingest_call_us);
    out.layer_p50("cluster.ingest_call_us", &call_us, 1.0);
    out.layer_p50("cluster.epoch_cut_ms", &p.cut_ms, 1.0);
    let reg = s.cluster.obs();
    layers::stage(&mut out, "cluster.route_us", reg, Stage::RouteBatch, 1.0);
    layers::stage(&mut out, "cluster.forward_us", reg, Stage::Forward, 1.0);
    layers::stage(
        &mut out,
        "cluster.cut_barrier_ms",
        reg,
        Stage::CutBarrier,
        1e-3,
    );
    layers::stage(
        &mut out,
        "cluster.cut_publish_ms",
        reg,
        Stage::CutPublish,
        1e-3,
    );
    layers::stage(
        &mut out,
        "cluster.checkpoint_ms",
        reg,
        Stage::CheckpointSave,
        1e-3,
    );
    let skew = after.routing_skew();
    out.layer(
        "cluster.routing_skew",
        skew.max_mean_updates,
        SHARDS as u64,
        format!("updates per shard {:?}", skew.updates),
    );
    let updates = (after.ingested() - before.ingested()).max(1) as f64;
    let (tb, ta) = (before.total_transfer(), after.total_transfer());
    out.layer(
        "cluster.dmas_per_kupd",
        (ta.transfers - tb.transfers) as f64 * 1e3 / updates,
        ta.transfers - tb.transfers,
        "",
    );
    out.layer(
        "cluster.transfer_bytes_per_kupd",
        (ta.bytes - tb.bytes) as f64 * 1e3 / updates,
        ta.transfers - tb.transfers,
        "",
    );
    out.layer(
        "cluster.delta_fallbacks",
        (after.delta_fallbacks - before.delta_fallbacks) as f64,
        after.cuts,
        "cuts",
    );
    let ckpts = after.checkpoints_taken - before.checkpoints_taken;
    out.layer(
        "cluster.checkpoint_bytes",
        (after.checkpoint_bytes - before.checkpoint_bytes) as f64 / ckpts.max(1) as f64,
        ckpts,
        "mean per checkpoint",
    );
    out.layer(
        "cluster.queue_depth_max",
        p.queue_depth_max as f64,
        p.batches as u64,
        "sampled before each paced ingest",
    );
    let merge_ms = s.merge_ms.lock().expect("merge samples poisoned").clone();
    out.layer_p50("cluster.backend_merge_ms", &merge_ms, 1.0);
    layers::service(&mut out, &before.shards, &after.shards, reg);
    let srv_before = gpma_serving::ServingMetrics {
        tenants: Vec::new(),
        epoch: 0,
        cache_entries: 0,
        cache: Default::default(),
    };
    layers::serving(&mut out, &srv_before, &srv, reg, &p.submit_us);
    let e = latest.edges()[0];
    layers::exec(
        &mut out,
        &latest,
        &[
            ("analytics.exec_bfs_us", Query::Bfs { src: e.src }),
            ("analytics.exec_cc_us", Query::Cc),
            ("analytics.exec_pagerank_us", Query::PageRank { top_k: 10 }),
            ("analytics.exec_degree_us", Query::Degree { v: e.src }),
            (
                "analytics.exec_edge_exists_us",
                Query::EdgeExists { u: e.src, v: e.dst },
            ),
            ("analytics.exec_neighbors_us", Query::Neighbors { v: e.src }),
        ],
        PAGERANK,
    );

    let late = summarize(&p.lateness_ms);
    out.notes.push(format!(
        "Reddit-like scale {SCALE}: V={} E={}, {} batches; {SHARDS} shards; phase (a) {} updates in {:.3} s; phase (b) {} batches at {PACED_UPS} updates/s over {:.3} s, {} cuts, {} queries",
        s.stream.num_vertices,
        s.stream.len(),
        max_batches(&s.stream),
        cap_updates,
        capacity_s,
        p.batches,
        p.wall_s,
        p.cut_ms.len(),
        p.queries
    ));
    out.notes.push(format!(
        "phase (a) rounds, updates/s: {:?}",
        round_ups
            .iter()
            .map(|x| x.round() as u64)
            .collect::<Vec<_>>()
    ));
    if let Some(l) = late {
        out.notes.push(format!(
            "generator lateness: p50 {:.3} ms, p{:.2} {:.3} ms, n={}",
            l.p50, l.tail_pct, l.tail, l.n
        ));
    }
    out.notes.push(format!(
        "checks passed: cut edge sets after each half of (a) and after (b); {} timed answers equal execute() on their cut; {} issued queries re-served equal execute() on the oracle",
        p.query_us.len(),
        p.issued.len()
    ));
    out.dumps.push(("ClusterMetrics", format!("{after}")));
    out.dumps.push(("ServingMetrics", format!("{srv}")));
    out.dumps.push(("gpma-obs", reg.render_json()));
    drop(latest);
    teardown(s);
    for _ in 0..SETUPS_AFTER {
        let t0 = Instant::now();
        let s = setup(ctx, &mut generate_s);
        setup_s.push(t0.elapsed().as_secs_f64());
        teardown(s);
    }
    out.e2e(
        "setup_s",
        median(&setup_s).unwrap_or(0.0),
        setup_s.len() as u64,
        "median of setups",
    );
    out.layer_p50("graph.generate_s", &generate_s, 1.0);
    Ok(out)
}
