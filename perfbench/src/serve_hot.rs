//! `serve-hot`: the Pokec-like stream into one `StreamingService` behind a
//! `QueryServer` with the result cache on and a few maintained BFS roots.
//! Two closed-loop client threads each keep one query outstanding: about
//! 90% of their operations are Zipf-skewed queries from a small repeating
//! set, about 10% small sliding-window batches sent through
//! `QueryServer::ingest`. A client keeps at most [`WINDOW`] of its batches
//! in flight (sent, not yet visible) and waits for its oldest before
//! sending another, so ingest never outruns the service into sheds.
//!
//! End-to-end metrics: `visible_*` from the ingest call to the batch's
//! first appearance in a published delta (service-level monitor),
//! `query_*` from `submit` to ticket completion, `ingest_ups` and
//! `e2e.query_qps` (per-layer, ungated) per second of the measured phase.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpma_core::framework::{DynamicGraphSystem, GraphSnapshot};
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_graph::{Edge, GraphStream, UpdateBatch};
use gpma_incremental::IncrementalEngine;
use gpma_service::{ServiceConfig, StreamingService};
use gpma_serving::{execute, PageRankParams, Query, QueryServer, ServingConfig, TenantConfig};
use gpma_sim::Device;

use crate::oracle::{check_edge_set, check_query};
use crate::report::{peak_rss_mb, Outcome};
use crate::rng::{Rng, Zipf};
use crate::stats::median;
use crate::vis::Visibility;
use crate::{device_config, layers, Ctx, SETUPS, SETUPS_AFTER};

/// Pokec-like scale relative to Table 2 (V = 8,000, E = 153k).
const SCALE: f64 = 0.005;
/// Edges per sliding-window batch (as many inserted as deleted).
const BATCH_EDGES: usize = 16;
/// Updates per service flush (the stream-buffer threshold).
const FLUSH_UPDATES: usize = 512;
/// Batches one client may have in flight; both clients together cover
/// more than one flush, so a full buffer never waits on a blocked client.
const WINDOW: usize = 16;
/// Share of operations that are ingest batches.
const INGEST_SHARE: f64 = 0.10;
/// Client threads, one outstanding operation each.
const CLIENTS: u64 = 2;
/// Hot vertices the point queries target (highest initial out-degree).
const HOT: usize = 8;
/// Maintained BFS roots (the hottest vertices).
const ROOTS: usize = 3;
/// Unmeasured warm-up before the measured phase.
const WARMUP: Duration = Duration::from_millis(1000);
/// Longest an ingested batch may take to become visible.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bench-sized PageRank: a bounded iteration count keeps one miss in
/// the milliseconds.
pub const PAGERANK: PageRankParams = PageRankParams {
    damping: 0.85,
    epsilon: 1e-6,
    max_iters: 20,
};

/// The repeating query set, drawn by kind and then Zipf within the kind.
struct QuerySet {
    point: Vec<Query>,
    bfs: Vec<Query>,
    point_zipf: Zipf,
    bfs_zipf: Zipf,
}

impl QuerySet {
    fn new(stream: &GraphStream) -> (Self, Vec<u32>) {
        let init = stream.initial_edges();
        let mut degree = vec![0u32; stream.num_vertices as usize];
        for e in init {
            degree[e.src as usize] += 1;
        }
        let mut by_degree: Vec<u32> = (0..stream.num_vertices).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(degree[v as usize]), v));
        let hot = &by_degree[..HOT];
        let mut point = Vec::new();
        for &v in hot {
            point.push(Query::Degree { v });
            point.push(Query::Neighbors { v });
            let dst = init.iter().find(|e| e.src == v).map_or(0, |e| e.dst);
            point.push(Query::EdgeExists { u: v, v: dst });
        }
        let roots = hot[..ROOTS].to_vec();
        let bfs: Vec<Query> = roots.iter().map(|&src| Query::Bfs { src }).collect();
        let set = QuerySet {
            point_zipf: Zipf::new(point.len()),
            bfs_zipf: Zipf::new(bfs.len()),
            point,
            bfs,
        };
        (set, roots)
    }

    /// A query: 80% point, 14.5% BFS, 5% CC, 0.5% PageRank.
    fn draw(&self, rng: &mut Rng) -> Query {
        let r = rng.unit();
        if r < 0.80 {
            self.point[self.point_zipf.draw(rng)]
        } else if r < 0.945 {
            self.bfs[self.bfs_zipf.draw(rng)]
        } else if r < 0.995 {
            Query::Cc
        } else {
            Query::PageRank { top_k: 10 }
        }
    }

    fn all(&self) -> Vec<Query> {
        let mut v = self.point.clone();
        v.extend(&self.bfs);
        v.push(Query::Cc);
        v.push(Query::PageRank { top_k: 10 });
        v
    }
}

struct Setup {
    stream: GraphStream,
    svc: Arc<StreamingService>,
    server: QueryServer<StreamingService>,
    vis: Arc<Visibility>,
    queries: QuerySet,
    roots: Vec<u32>,
}

fn setup(ctx: &Ctx, generate_s: &mut Vec<f64>) -> Setup {
    let t0 = Instant::now();
    let stream = generate(DatasetKind::PokecLike, SCALE, ctx.seed);
    generate_s.push(t0.elapsed().as_secs_f64());
    let (queries, roots) = QuerySet::new(&stream);
    let vis = Visibility::new(Arc::clone(&ctx.tracer), ctx.tracer.on());
    let sys = DynamicGraphSystem::new(
        Device::new(device_config()),
        stream.num_vertices,
        stream.initial_edges(),
        FLUSH_UPDATES,
    );
    let svc = Arc::new(StreamingService::spawn_with_delta_monitors(
        ServiceConfig::default(),
        sys,
        Vec::new(),
        vec![vis.monitor()],
    ));
    let cfg = ServingConfig {
        // Generous: a deadline miss here would be noise, not a finding.
        default_deadline: Duration::from_secs(10),
        bfs_roots: roots.clone(),
        pagerank: PAGERANK,
        tenants: vec![TenantConfig::unlimited("hot")],
        ..ServingConfig::default()
    };
    let server = QueryServer::spawn_with_obs(Arc::clone(&svc), cfg, Arc::clone(svc.obs()));
    svc.obs().set_enabled(ctx.tracer.on());
    Setup {
        stream,
        svc,
        server,
        vis,
        queries,
        roots,
    }
}

fn teardown(s: Setup) {
    let Setup { svc, server, .. } = s;
    server.shutdown();
    Arc::into_inner(svc)
        .expect("the server released the service")
        .shutdown();
}

/// What the clients measured in one phase.
#[derive(Default)]
struct Phase {
    query_us: Vec<f64>,
    submit_us: Vec<f64>,
    ingest_call_us: Vec<f64>,
    queries: u64,
    ingests: u64,
    failed: u64,
    /// Batches the service shed (not applied).
    shed: Vec<usize>,
    wall_s: f64,
}

/// Run both clients for `dur`. Batches are claimed from `next_batch`.
fn clients(
    ctx: &Ctx,
    s: &Setup,
    dur: Duration,
    next_batch: &AtomicUsize,
    seed_stream: u64,
) -> Phase {
    let stop = AtomicBool::new(false);
    let next_req = AtomicU64::new(seed_stream << 40);
    let merged = Mutex::new(Phase::default());
    let init = s.stream.initial_size();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (stop, next_req, merged) = (&stop, &next_req, &merged);
            scope.spawn(move || {
                let mut rng = Rng::new(ctx.seed, seed_stream * 16 + c);
                let mut p = Phase::default();
                let mut inflight: VecDeque<Edge> = VecDeque::new();
                let tr = &ctx.tracer;
                while !stop.load(Ordering::Relaxed) {
                    let req = next_req.fetch_add(1, Ordering::Relaxed);
                    if rng.unit() < INGEST_SHARE {
                        let k = next_batch.fetch_add(1, Ordering::Relaxed);
                        let (lo, hi) = (k * BATCH_EDGES, init + k * BATCH_EDGES);
                        if hi + BATCH_EDGES > s.stream.len() {
                            break;
                        }
                        let batch = UpdateBatch {
                            insertions: s.stream.edges[hi..hi + BATCH_EDGES].to_vec(),
                            deletions: s.stream.edges[lo..lo + BATCH_EDGES].to_vec(),
                        };
                        let probe = batch.insertions[0];
                        let op = tr.span("op.ingest", req);
                        if inflight.len() == WINDOW {
                            let oldest = inflight.pop_front().expect("window is full");
                            let _w = tr.span("op.window_wait", req);
                            if !s.vis.wait(oldest, VISIBLE_TIMEOUT) {
                                s.vis.forget(oldest);
                                p.failed += 1;
                            }
                        }
                        let t = Instant::now();
                        s.vis.expect(probe, t, req, op.id());
                        let res = {
                            let _c = tr.span("service.ingest_call", req);
                            s.server.ingest(0, batch)
                        };
                        p.ingest_call_us.push(t.elapsed().as_secs_f64() * 1e6);
                        p.ingests += 1;
                        if res == Ok(true) {
                            inflight.push_back(probe);
                        } else {
                            s.vis.forget(probe);
                            p.failed += 1;
                            p.shed.push(k);
                        }
                    } else {
                        let q = s.queries.draw(&mut rng);
                        let _op = tr.span("op.query", req);
                        let t = Instant::now();
                        let ticket = {
                            let _c = tr.span("serving.submit", req);
                            s.server.submit(0, q)
                        };
                        p.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                        p.queries += 1;
                        match ticket.map(|t| t.wait()) {
                            Ok(Ok(_)) => p.query_us.push(t.elapsed().as_secs_f64() * 1e6),
                            _ => p.failed += 1,
                        }
                    }
                }
                let mut m = merged.lock().expect("phase merge poisoned");
                m.query_us.extend(p.query_us);
                m.submit_us.extend(p.submit_us);
                m.ingest_call_us.extend(p.ingest_call_us);
                m.queries += p.queries;
                m.ingests += p.ingests;
                m.failed += p.failed;
                m.shed.extend(p.shed);
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    let mut p = merged.into_inner().expect("phase merge poisoned");
    p.wall_s = t0.elapsed().as_secs_f64();
    // Flush the buffered residue so every batch still in flight shows.
    if s.svc.barrier().is_err() {
        p.failed += 1;
    }
    p.failed += s.vis.drain(VISIBLE_TIMEOUT) as u64;
    p
}

/// Quiescent check: every query of the set, served now, equals
/// `execute` on the latest snapshot; the live edge set equals the window
/// oracle after `batches` slides.
fn check(s: &Setup, batches: usize, shed: &[usize]) -> Result<Arc<GraphSnapshot>, String> {
    s.svc.barrier().map_err(|e| e.to_string())?;
    let snap = s.svc.snapshot();
    let init = s.stream.initial_size();
    let mut expected: HashSet<Edge> = s.stream.edges
        [batches * BATCH_EDGES..init + batches * BATCH_EDGES]
        .iter()
        .copied()
        .collect();
    for &k in shed {
        let (lo, hi) = (k * BATCH_EDGES, init + k * BATCH_EDGES);
        expected.extend(&s.stream.edges[lo..lo + BATCH_EDGES]);
        for e in &s.stream.edges[hi..hi + BATCH_EDGES] {
            expected.remove(e);
        }
    }
    let expected: Vec<Edge> = expected.into_iter().collect();
    check_edge_set(
        "serve-hot live graph (window oracle minus shed batches)",
        snap.edges(),
        &expected,
    )?;
    for q in s.queries.all() {
        let served = s
            .server
            .submit(0, q)
            .map_err(|r| format!("check query {q:?} rejected: {r}"))?
            .wait()
            .map_err(|r| format!("check query {q:?} failed: {r}"))?;
        let want = execute(q, &snap, PAGERANK);
        check_query(q, &served, &want)?;
    }
    Ok(snap)
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
    let next_batch = AtomicUsize::new(0);

    let warm = clients(ctx, &s, WARMUP, &next_batch, 1);
    // A client that claims a batch past the end of the stream stops
    // without sending it.
    let max_batches = (s.stream.len() - s.stream.initial_size()) / BATCH_EDGES;
    let landed = |nb: &AtomicUsize| nb.load(Ordering::Relaxed).min(max_batches);
    let start_snap = check(&s, landed(&next_batch), &warm.shed)?;
    let _ = s.vis.take_samples();
    let _ = s.vis.take_captured();
    s.svc.obs().reset();
    let svc_before = s.svc.metrics();
    let srv_before = s.server.metrics();

    let p = clients(
        ctx,
        &s,
        Duration::from_secs_f64(ctx.seconds),
        &next_batch,
        2,
    );
    let visible_ms = s.vis.take_samples();
    let captured = s.vis.take_captured();
    let svc_after = s.svc.metrics();
    let srv_after = s.server.metrics();
    let updates = (svc_after.counters.ingested() - svc_before.counters.ingested()) as f64;
    let mut shed = warm.shed.clone();
    shed.extend(&p.shed);
    let final_snap = check(&s, landed(&next_batch), &shed)?;

    out.e2e("peak_rss_mb", peak_rss_mb(), 1, "VmHWM");
    out.e2e(
        "ingest_ups",
        updates / p.wall_s,
        p.ingests,
        format!("{} updates per batch", 2 * BATCH_EDGES),
    );
    out.e2e_timing("visible_p50_ms", "visible_tail_ms", &visible_ms, 1.0);
    out.e2e_timing("query_p50_us", "e2e.query_tail_us", &p.query_us, 1.0);
    out.layer(
        "e2e.query_qps",
        p.query_us.len() as f64 / p.wall_s,
        p.query_us.len() as u64,
        "completed queries",
    );
    out.attempted = warm.queries + warm.ingests + p.queries + p.ingests;
    out.failed = warm.failed + p.failed;

    out.layer_p50("service.ingest_call_us", &p.ingest_call_us, 1.0);
    let reg = s.svc.obs();
    layers::service(
        &mut out,
        &[svc_before],
        std::slice::from_ref(&svc_after),
        reg,
    );
    layers::serving(&mut out, &srv_before, &srv_after, reg, &p.submit_us);
    incremental(&mut out, &start_snap, &captured, &s.roots);
    let r0 = s.roots[0];
    let hot = s.queries.point[0];
    let Query::Degree { v } = hot else {
        unreachable!("the hottest point query is a degree")
    };
    let dst = final_snap.neighbors(v).first().map_or(0, |e| e.dst);
    layers::exec(
        &mut out,
        &final_snap,
        &[
            ("analytics.exec_bfs_us", Query::Bfs { src: r0 }),
            ("analytics.exec_cc_us", Query::Cc),
            ("analytics.exec_pagerank_us", Query::PageRank { top_k: 10 }),
            ("analytics.exec_degree_us", Query::Degree { v }),
            (
                "analytics.exec_edge_exists_us",
                Query::EdgeExists { u: v, v: dst },
            ),
            ("analytics.exec_neighbors_us", Query::Neighbors { v }),
        ],
        PAGERANK,
    );
    out.notes.push(format!(
        "Pokec-like scale {SCALE}: V={} E={}; {} clients, {} queries, {} batches of {} updates, {} failed",
        s.stream.num_vertices,
        s.stream.len(),
        CLIENTS,
        p.queries,
        p.ingests,
        2 * BATCH_EDGES,
        p.failed
    ));
    out.notes.push(format!(
        "quiescent checks passed at two barriers ({} queries each, plus the live edge set)",
        s.queries.all().len()
    ));
    out.dumps.push(("ServiceMetrics", format!("{svc_after}")));
    out.dumps.push(("ServingMetrics", format!("{srv_after}")));
    out.dumps.push(("gpma-obs", reg.render_json()));
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

/// `incremental.*`: replay the measured phase's delta chain into a
/// standalone engine with this workload's roots and CC.
fn incremental(
    out: &mut Outcome,
    base: &GraphSnapshot,
    chain: &[Arc<gpma_core::delta::SnapshotDelta>],
    roots: &[u32],
) {
    if chain.is_empty() {
        return;
    }
    let mut engine = roots
        .iter()
        .fold(IncrementalEngine::new(), |e, &r| e.with_bfs(r))
        .with_cc();
    engine.rebase(base);
    let before = engine.stats();
    let times: Vec<f64> = chain
        .iter()
        .filter(|d| d.epoch() > base.epoch())
        .map(|d| {
            let t = Instant::now();
            engine.apply(d);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let after = engine.stats();
    out.layer_p50("incremental.apply_us", &times, 1.0);
    out.layer(
        "incremental.bfs_work",
        (after.bfs_work - before.bfs_work) as f64,
        times.len() as u64,
        "over the chain",
    );
    out.layer(
        "incremental.cc_work",
        (after.cc_work - before.cc_work) as f64,
        times.len() as u64,
        "over the chain",
    );
}
