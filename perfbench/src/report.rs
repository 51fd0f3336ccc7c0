//! Metric names, units and the run's output: a human-readable table
//! followed by one JSON line (the last line of standard output).

use crate::stats::Summary;

/// End-to-end metrics, printed by every workload (see README.md for what
/// each means on each workload).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ingest_ups", "updates/s"),
    ("visible_p50_ms", "ms"),
    ("visible_tail_ms", "ms"),
    ("query_p50_us", "us"),
];

/// End-to-end metrics whose traced-minus-untraced shift is reported as
/// `obs.overhead_pct.<name>`.
pub const OVERHEAD_OF: &[&str] = &[
    "ingest_ups",
    "visible_p50_ms",
    "visible_tail_ms",
    "query_p50_us",
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0 with sample count 0. The `e2e.*` entries are
/// end-to-end figures kept here, ungated: the query tail, which on
/// cluster-ingest is set by scheduler stalls and spreads wider than any
/// allowed bound, and serve-hot's closed-loop query throughput (the
/// other workloads send a fixed number of queries per step, so their
/// rate says nothing about the program).
pub const LAYERS: &[(&str, &str)] = &[
    ("e2e.query_tail_us", "us"),
    ("e2e.query_qps", "queries/s"),
    ("graph.generate_s", "s"),
    ("sim.launches", "count"),
    ("sim.mem_transactions", "count"),
    ("sim.atomic_conflicts", "count"),
    ("core.update_us", "us"),
    ("core.levels", "count"),
    ("core.device_merges", "count"),
    ("core.resizes", "count"),
    ("window.slide_p50_ms", "ms"),
    ("window.slide_tail_ms", "ms"),
    ("window.sim_update_ms", "ms"),
    ("window.sim_analytics_ms", "ms"),
    ("analytics.bfs_us", "us"),
    ("analytics.cc_us", "us"),
    ("analytics.pagerank_us", "us"),
    ("analytics.bfs_sim_us", "us"),
    ("analytics.cc_sim_us", "us"),
    ("analytics.pagerank_sim_us", "us"),
    ("analytics.pagerank_iters", "count"),
    ("analytics.exec_bfs_us", "us"),
    ("analytics.exec_cc_us", "us"),
    ("analytics.exec_pagerank_us", "us"),
    ("analytics.exec_degree_us", "us"),
    ("analytics.exec_edge_exists_us", "us"),
    ("analytics.exec_neighbors_us", "us"),
    ("service.ingest_call_us", "us"),
    ("service.flushes", "count"),
    ("service.updates_per_flush", "count"),
    ("service.flush_drain_us", "us"),
    ("service.flush_apply_us", "us"),
    ("service.flush_publish_us", "us"),
    ("service.snapshot_bytes", "bytes"),
    ("service.delta_bytes", "bytes"),
    ("service.max_queue_depth", "count"),
    ("cluster.ingest_call_us", "us"),
    ("cluster.epoch_cut_ms", "ms"),
    ("cluster.route_us", "us"),
    ("cluster.forward_us", "us"),
    ("cluster.cut_barrier_ms", "ms"),
    ("cluster.cut_publish_ms", "ms"),
    ("cluster.routing_skew", "ratio"),
    ("cluster.dmas_per_kupd", "count"),
    ("cluster.transfer_bytes_per_kupd", "bytes"),
    ("cluster.delta_fallbacks", "count"),
    ("cluster.checkpoint_ms", "ms"),
    ("cluster.checkpoint_bytes", "bytes"),
    ("cluster.queue_depth_max", "count"),
    ("cluster.backend_merge_ms", "ms"),
    ("incremental.apply_us", "us"),
    ("incremental.bfs_work", "count"),
    ("incremental.cc_work", "count"),
    ("serving.submit_us", "us"),
    ("serving.hit_rate", "ratio"),
    ("serving.hit_base", "count"),
    ("serving.refreshes", "count"),
    ("serving.patches", "count"),
    ("serving.invalidations", "count"),
    ("serving.flushes", "count"),
    ("serving.admit_us", "us"),
    ("serving.exec_us", "us"),
    ("serving.cache_hit_us", "us"),
    ("serving.total_us", "us"),
    ("serving.rejected_queue_full", "count"),
    ("serving.rejected_quota", "count"),
    ("serving.rejected_deadline", "count"),
    ("serving.ingest_shed", "count"),
    ("obs.overhead_pct.ingest_ups", "%"),
    ("obs.overhead_pct.visible_p50_ms", "%"),
    ("obs.overhead_pct.visible_tail_ms", "%"),
    ("obs.overhead_pct.query_p50_us", "%"),
    ("trace.spans", "count"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`E2E`] or [`LAYERS`].
    pub name: &'static str,
    /// Value in the listed unit.
    pub value: f64,
    /// Samples behind the value.
    pub n: u64,
    /// Free-form qualifier (tail percentile, base of a ratio, …).
    pub note: String,
}

/// Everything a workload measured in one pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (filled in traced passes).
    pub layers: Vec<Metric>,
    /// Operations attempted (updates batches, queries, cuts, slides).
    pub attempted: u64,
    /// Operations that failed: ingest errors, sheds, rejected queries.
    pub failed: u64,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// Counter and metrics dumps written to the trace file.
    pub dumps: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Add an end-to-end value.
    pub fn e2e(&mut self, name: &'static str, value: f64, n: u64, note: impl Into<String>) {
        self.e2e.push(Metric {
            name,
            value,
            n,
            note: note.into(),
        });
    }

    /// Add a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64, n: u64, note: impl Into<String>) {
        self.layers.push(Metric {
            name,
            value,
            n,
            note: note.into(),
        });
    }

    /// Add a timing's median and tail as two end-to-end metrics, scaling
    /// samples by `scale` into the metrics' unit; the report also gets
    /// the timing's quantile ladder.
    pub fn e2e_timing(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        samples: &[f64],
        scale: f64,
    ) {
        let scaled: Vec<f64> = samples.iter().map(|x| x * scale).collect();
        self.notes.push(format!(
            "{p50}/{tail} ladder: {}",
            crate::stats::ladder(&scaled)
        ));
        let s = crate::stats::summarize(&scaled).unwrap_or(Summary {
            n: 0,
            p50: 0.0,
            tail: 0.0,
            tail_pct: 0.0,
            tail_supported: false,
        });
        self.e2e(p50, s.p50, s.n as u64, "p50");
        let note = if s.tail_supported {
            format!("p{:.2}", s.tail_pct)
        } else {
            "max (fewer than 11 samples)".to_string()
        };
        if tail.starts_with("e2e.") {
            self.layer(tail, s.tail, s.n as u64, note);
        } else {
            self.e2e(tail, s.tail, s.n as u64, note);
        }
    }

    /// Add a timing's median as a per-layer metric.
    pub fn layer_p50(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        let v = crate::stats::median(samples).unwrap_or(0.0) * scale;
        self.layer(name, v, samples.len() as u64, "p50");
    }

    /// Value of an end-to-end metric, if measured.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Unit of a listed metric.
pub fn unit_of(name: &str) -> &'static str {
    E2E.iter()
        .chain(LAYERS.iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| *u)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of this machine from `/proc/stat`.
/// Steal is time the hypervisor ran something else on our virtual CPUs;
/// the report prints its share so a slow run can be told from a slow
/// program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

/// Print one table row per metric of `list`, in list order; metrics the
/// pass did not measure print as 0 with n=0.
pub fn print_table(title: &str, list: &[(&'static str, &'static str)], got: &[Metric]) {
    println!("{title}");
    for (name, unit) in list {
        match got.iter().find(|m| m.name == *name) {
            Some(m) => println!(
                "  {:<34} {:>16.4} {:<10} n={:<8} {}",
                name, m.value, unit, m.n, m.note
            ),
            None => println!(
                "  {:<34} {:>16.4} {:<10} n=0        not exercised",
                name, 0.0, unit
            ),
        }
    }
}

/// The result line: every metric of `list`, missing ones as 0.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&'static str, &'static str)],
    got: &[Metric],
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = got
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rule_and_are_unique() {
        let all: Vec<&str> = E2E.iter().chain(LAYERS.iter()).map(|(n, _)| *n).collect();
        let set: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len());
        for (name, unit) in E2E.iter().chain(LAYERS.iter()) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for o in OVERHEAD_OF {
            assert!(E2E.iter().any(|(n, _)| n == o));
            assert!(LAYERS
                .iter()
                .any(|(n, _)| *n == format!("obs.overhead_pct.{o}")));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let rest = &text[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, list) in [("end_to_end", E2E), ("per_layer", LAYERS)] {
            let sec = section(key);
            assert_eq!(sec.matches("\"name\"").count(), list.len(), "{key} count");
            for (name, unit) in list {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(sec.contains(&needle), "{key} lacks {needle}");
            }
        }
    }

    #[test]
    fn json_line_fills_unmeasured_metrics_with_zero() {
        let got = vec![Metric {
            name: "setup_s",
            value: 1.25,
            n: 3,
            note: String::new(),
        }];
        let line = json_line(true, 0, 0, &E2E[..2], &got);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
