//! `paper-window`: the paper's §6.3 loop on the Graph500 stream, driven by
//! one thread with no service. Each 0.1% slide applies one GPMA+ batch
//! (insert the newest b edges, delete the oldest b), then runs device BFS,
//! CC and PageRank on the CSR view.
//!
//! End-to-end metrics on this workload are simulated device time, as in
//! the paper: `visible_*` is a whole slide (the GPMA+ update, then the
//! BFS, CC and PageRank that see it), `ingest_ups` the updates of one
//! batch over the median update, and `query_*` the slide's three
//! analytics kernels together. Host wall times are per-layer metrics.

use std::time::Instant;

use gpma_analytics::{
    bfs_device, bfs_host, cc_device, cc_host, pagerank_device, GpmaView, DAMPING, EPSILON,
    MAX_ITERS,
};
use gpma_core::framework::GraphSnapshot;
use gpma_core::GpmaPlus;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_graph::UpdateBatch;
use gpma_sim::{Device, DeviceMetrics};

use crate::oracle::{check_bfs, check_cc, check_edge_set, window_edges};
use crate::report::{peak_rss_mb, Outcome};
use crate::rng::Rng;
use crate::stats::{median, summarize};
use crate::{device_config, Ctx, SETUPS, SETUPS_AFTER};

/// Graph500 scale relative to the paper's Table 2 (V = 2,048, E = 400k).
const SCALE: f64 = 0.002;
/// The paper's 0.1% slide.
const SLIDE_RATIO: f64 = 0.001;
/// Slides whose simulated times and device counters are reported: a fixed
/// count, so those figures repeat exactly for one seed whatever the speed.
const SIM_SLIDES: usize = 16;
/// Device BFS/CC are checked against the host references every this many
/// slides (slide 0 included).
const CHECK_EVERY: usize = 8;

struct Slide {
    wall_ms: f64,
    update_us: f64,
    kernel_us: [f64; 3],
    sim_update_ms: f64,
    sim_kernel_us: [f64; 3],
    pagerank_iters: usize,
    levels: usize,
    device_merges: u64,
    resizes: u64,
    launches: u64,
    mem_transactions: u64,
    atomic_conflicts: u64,
}

/// Run the workload once.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let timed_build = |setup_s: &mut Vec<f64>, generate_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let stream = generate(DatasetKind::Graph500, SCALE, ctx.seed);
        generate_s.push(t0.elapsed().as_secs_f64());
        let dev = Device::new(device_config());
        let g = GpmaPlus::build(&dev, stream.num_vertices, stream.initial_edges());
        setup_s.push(t0.elapsed().as_secs_f64());
        (stream, dev, g)
    };
    let mut built = None;
    for _ in 0..SETUPS - SETUPS_AFTER {
        drop(built.take());
        built = Some(timed_build(&mut setup_s, &mut generate_s));
    }
    let (stream, dev, mut g) = built.expect("at least one setup");
    let nv = stream.num_vertices;
    let b = stream.slide_batch_size(SLIDE_RATIO);
    let mut rng = Rng::new(ctx.seed, 1);
    let (mut start, mut end) = (0usize, stream.initial_size());
    let mut slides: Vec<Slide> = Vec::new();
    let tr = &ctx.tracer;

    let t_run = Instant::now();
    while (slides.len() < SIM_SLIDES || t_run.elapsed().as_secs_f64() < ctx.seconds)
        && end + b <= stream.len()
    {
        let req = slides.len() as u64;
        let slide_span = tr.span("window.slide", req);
        let t_slide = Instant::now();
        let m0 = dev.metrics();
        let batch = UpdateBatch {
            insertions: stream.edges[end..end + b].to_vec(),
            deletions: stream.edges[start..start + b].to_vec(),
        };
        let t = Instant::now();
        let (stats, sim_update) = {
            let _s = tr.span("core.update", req);
            dev.timed(|d| g.update_batch_lazy(d, &batch))
        };
        let update_us = t.elapsed().as_secs_f64() * 1e6;
        start += b;
        end += b;
        let view = {
            let _s = tr.span("analytics.view", req);
            GpmaView::build(&dev, &g.storage)
        };
        let root = rng.below(nv as u64) as u32;
        let t = Instant::now();
        let (dist, sim_bfs) = {
            let _s = tr.span("analytics.bfs", req);
            dev.timed(|d| bfs_device(d, &view, root))
        };
        let bfs_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let (labels, sim_cc) = {
            let _s = tr.span("analytics.cc", req);
            dev.timed(|d| cc_device(d, &view))
        };
        let cc_us = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let (pr, sim_pr) = {
            let _s = tr.span("analytics.pagerank", req);
            dev.timed(|d| pagerank_device(d, &view, DAMPING, EPSILON, MAX_ITERS))
        };
        let pr_us = t.elapsed().as_secs_f64() * 1e6;
        let wall_ms = t_slide.elapsed().as_secs_f64() * 1e3;
        let m1 = dev.metrics();
        drop(slide_span);

        if slides.len().is_multiple_of(CHECK_EVERY) {
            let _s = tr.span("oracle.check", req);
            let host = GraphSnapshot::from_edges(0, nv, window_edges(&stream.edges, start, end));
            let what = format!("slide {}", slides.len());
            check_bfs(
                &format!("{what} BFS from {root}"),
                dist.as_slice(),
                &bfs_host(&host, root),
            )?;
            check_cc(&format!("{what} CC"), labels.as_slice(), &cc_host(&host))?;
        }
        let delta = |f: fn(&DeviceMetrics) -> u64| f(&m1) - f(&m0);
        slides.push(Slide {
            wall_ms,
            update_us,
            kernel_us: [bfs_us, cc_us, pr_us],
            sim_update_ms: sim_update.millis(),
            sim_kernel_us: [sim_bfs.micros(), sim_cc.micros(), sim_pr.micros()],
            pagerank_iters: pr.iterations,
            levels: stats.levels,
            device_merges: stats.device_merges,
            resizes: stats.resizes,
            launches: delta(|m| m.launches),
            mem_transactions: delta(|m| m.total_mem_transactions),
            atomic_conflicts: delta(|m| m.total_atomic_conflicts),
        });
    }
    if slides.len() < SIM_SLIDES {
        return Err(format!("stream too short: {} slides", slides.len()));
    }
    check_edge_set(
        "final GPMA+ window",
        &g.storage.host_edges(),
        &window_edges(&stream.edges, start, end),
    )?;

    let n = slides.len();
    let col = |f: &dyn Fn(&Slide) -> f64, only_first: bool| -> Vec<f64> {
        let take = if only_first { SIM_SLIDES } else { n };
        slides.iter().take(take).map(f).collect()
    };

    out.e2e("peak_rss_mb", peak_rss_mb(), 1, "VmHWM");
    // The timings gated here are simulated device time, the paper's own
    // measure (Fig. 7 update time, Figs. 8-10 analytics time per slide):
    // a single-threaded host loop's wall time swings by a quarter within
    // one run on a shared VM (README.md), so host wall is per-layer only.
    let sim_update_s = median(&col(&|s| s.sim_update_ms, false)).expect("slides ran") / 1e3;
    out.e2e(
        "ingest_ups",
        (2 * b) as f64 / sim_update_s,
        n as u64,
        format!("{} updates over the median simulated GPMA+ update", 2 * b),
    );
    let sim_analytics_us = |s: &Slide| s.sim_kernel_us.iter().sum::<f64>();
    out.e2e_timing(
        "visible_p50_ms",
        "visible_tail_ms",
        &col(&|s| s.sim_update_ms + sim_analytics_us(s) / 1e3, false),
        1.0,
    );
    // One query is the slide's analytics round: BFS, CC and PageRank on
    // the fresh window.
    out.e2e_timing(
        "query_p50_us",
        "e2e.query_tail_us",
        &col(&sim_analytics_us, false),
        1.0,
    );
    out.attempted = 4 * n as u64;

    let first = |f: &dyn Fn(&Slide) -> f64| col(f, true);
    out.layer_p50("sim.launches", &first(&|s| s.launches as f64), 1.0);
    out.layer_p50(
        "sim.mem_transactions",
        &first(&|s| s.mem_transactions as f64),
        1.0,
    );
    out.layer_p50(
        "sim.atomic_conflicts",
        &first(&|s| s.atomic_conflicts as f64),
        1.0,
    );
    out.layer_p50("core.update_us", &col(&|s| s.update_us, false), 1.0);
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    out.layer(
        "core.levels",
        mean(first(&|s| s.levels as f64)),
        SIM_SLIDES as u64,
        "mean per slide",
    );
    out.layer(
        "core.device_merges",
        mean(first(&|s| s.device_merges as f64)),
        SIM_SLIDES as u64,
        "mean per slide",
    );
    out.layer(
        "core.resizes",
        mean(first(&|s| s.resizes as f64)),
        SIM_SLIDES as u64,
        "mean per slide",
    );

    let walls = summarize(&col(&|s| s.wall_ms, false)).expect("slides ran");
    out.layer("window.slide_p50_ms", walls.p50, n as u64, "p50");
    out.layer(
        "window.slide_tail_ms",
        walls.tail,
        n as u64,
        format!("p{:.2}", walls.tail_pct),
    );
    out.layer_p50("window.sim_update_ms", &first(&|s| s.sim_update_ms), 1.0);
    out.layer_p50(
        "window.sim_analytics_ms",
        &first(&|s| s.sim_kernel_us.iter().sum::<f64>() / 1e3),
        1.0,
    );
    for (i, name) in [
        "analytics.bfs_us",
        "analytics.cc_us",
        "analytics.pagerank_us",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer_p50(name, &col(&|s| s.kernel_us[i], false), 1.0);
    }
    for (i, name) in [
        "analytics.bfs_sim_us",
        "analytics.cc_sim_us",
        "analytics.pagerank_sim_us",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer_p50(name, &first(&|s| s.sim_kernel_us[i]), 1.0);
    }
    out.layer_p50(
        "analytics.pagerank_iters",
        &first(&|s| s.pagerank_iters as f64),
        1.0,
    );

    out.notes.push(format!(
        "Graph500 scale {SCALE}: V={nv} E={}, slide b={b}, {n} slides, {} checked against bfs_host/cc_host",
        stream.len(),
        n.div_ceil(CHECK_EVERY)
    ));
    let m = dev.metrics();
    out.dumps.push((
        "DeviceMetrics",
        format!(
            "launches={} total_cycles={} mem_transactions={} atomic_ops={} atomic_conflicts={}",
            m.launches,
            m.total_cycles,
            m.total_mem_transactions,
            m.total_atomic_ops,
            m.total_atomic_conflicts
        ),
    ));
    let last = slides.last().expect("slides ran");
    out.dumps.push((
        "PlusStats(last slide)",
        format!(
            "levels={} device_merges={} resizes={}",
            last.levels, last.device_merges, last.resizes
        ),
    ));
    drop((stream, dev, g));
    for _ in 0..SETUPS_AFTER {
        drop(timed_build(&mut setup_s, &mut generate_s));
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
