//! Per-layer metrics read from what the program already exposes: the
//! `gpma-obs` stage histograms, `ServiceMetrics`, `ServingMetrics`, and
//! timed calls of `gpma_serving::execute`.

use std::time::Instant;

use gpma_core::framework::GraphSnapshot;
use gpma_obs::{Registry, Stage};
use gpma_service::{PublicationStats, ServiceMetrics};
use gpma_serving::{execute, PageRankParams, Query, ServingMetrics};

use crate::report::Outcome;
use crate::stats::median;

/// Repetitions of each timed `execute` call.
const EXEC_REPS: usize = 5;

/// Median of a stage histogram, scaled from µs into the metric's unit.
pub fn stage(out: &mut Outcome, name: &'static str, reg: &Registry, st: Stage, scale: f64) {
    let h = reg.hist(st);
    out.layer(
        name,
        h.quantile(0.5) as f64 * scale,
        h.count(),
        format!("p50 of gpma-obs {}", st.name()),
    );
}

/// `service.*` from the shard or service metrics before and after the
/// measured phase, plus the flush stages of `reg`.
pub fn service(
    out: &mut Outcome,
    before: &[ServiceMetrics],
    after: &[ServiceMetrics],
    reg: &Registry,
) {
    let sum = |v: &[ServiceMetrics], f: fn(&ServiceMetrics) -> u64| v.iter().map(f).sum::<u64>();
    let flushes = sum(after, |m| m.counters.flushes) - sum(before, |m| m.counters.flushes);
    let updates = sum(after, |m| m.counters.ingested()) - sum(before, |m| m.counters.ingested());
    out.layer(
        "service.flushes",
        flushes as f64,
        1,
        "flushes in the measured phase",
    );
    out.layer(
        "service.updates_per_flush",
        updates as f64 / flushes.max(1) as f64,
        flushes,
        format!("{updates} updates"),
    );
    stage(out, "service.flush_drain_us", reg, Stage::FlushDrain, 1.0);
    stage(out, "service.flush_apply_us", reg, Stage::FlushApply, 1.0);
    stage(
        out,
        "service.flush_publish_us",
        reg,
        Stage::FlushPublish,
        1.0,
    );
    let mut publ = PublicationStats::default();
    for m in after {
        publ.merge(&m.publication);
    }
    out.layer(
        "service.snapshot_bytes",
        publ.avg_snapshot_bytes(),
        publ.snapshots,
        "mean per snapshot",
    );
    out.layer(
        "service.delta_bytes",
        publ.avg_delta_bytes(),
        publ.deltas,
        "mean per delta",
    );
    let depth = after
        .iter()
        .map(|m| m.counters.max_queue_depth)
        .max()
        .unwrap_or(0);
    out.layer(
        "service.max_queue_depth",
        depth as f64,
        after.len() as u64,
        "max over services",
    );
}

/// `serving.*` from the server metrics before and after the measured
/// phase, the `query.*` stages of `reg`, and the timed `submit` calls.
pub fn serving(
    out: &mut Outcome,
    before: &ServingMetrics,
    after: &ServingMetrics,
    reg: &Registry,
    submit_us: &[f64],
) {
    let (b, a) = (before.totals(), after.totals());
    let hits = a.cache_hits - b.cache_hits;
    let base = hits + a.cache_misses - b.cache_misses;
    out.layer_p50("serving.submit_us", submit_us, 1.0);
    out.layer(
        "serving.hit_rate",
        hits as f64 / base.max(1) as f64,
        base,
        format!("{hits} hits of {base}"),
    );
    out.layer("serving.hit_base", base as f64, 1, "hits + misses");
    let (cb, ca) = (before.cache, after.cache);
    out.layer(
        "serving.refreshes",
        (ca.refreshes - cb.refreshes) as f64,
        1,
        "",
    );
    out.layer("serving.patches", (ca.patches - cb.patches) as f64, 1, "");
    out.layer(
        "serving.invalidations",
        (ca.invalidations - cb.invalidations) as f64,
        1,
        "",
    );
    out.layer("serving.flushes", (ca.flushes - cb.flushes) as f64, 1, "");
    stage(out, "serving.admit_us", reg, Stage::QueryAdmit, 1.0);
    stage(out, "serving.exec_us", reg, Stage::QueryExec, 1.0);
    stage(out, "serving.cache_hit_us", reg, Stage::QueryCacheHit, 1.0);
    stage(out, "serving.total_us", reg, Stage::QueryTotal, 1.0);
    let d = |f: fn(&gpma_serving::TenantMetrics) -> u64| (f(&a) - f(&b)) as f64;
    out.layer(
        "serving.rejected_queue_full",
        d(|t| t.rejected_queue_full),
        1,
        "",
    );
    out.layer("serving.rejected_quota", d(|t| t.rejected_quota), 1, "");
    out.layer(
        "serving.rejected_deadline",
        d(|t| t.rejected_deadline),
        1,
        "",
    );
    out.layer("serving.ingest_shed", d(|t| t.ingest_shed), 1, "updates");
}

/// `analytics.exec_*`: wall of `execute` per query kind on `snap`.
pub fn exec(
    out: &mut Outcome,
    snap: &GraphSnapshot,
    queries: &[(&'static str, Query)],
    pr: PageRankParams,
) {
    for &(name, q) in queries {
        let times: Vec<f64> = (0..EXEC_REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(execute(std::hint::black_box(q), snap, pr));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.layer(
            name,
            median(&times).unwrap_or(0.0),
            EXEC_REPS as u64,
            format!("p50 of {q:?}"),
        );
    }
}
