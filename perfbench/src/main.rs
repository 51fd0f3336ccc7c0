//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-window|cluster-ingest|serve-hot> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a human-readable report, then one JSON line with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run measures the workload twice, each for half
//! the time: untraced, then with spans and the `gpma-obs` registry on; the
//! per-layer metrics come from the traced pass, `obs.overhead_pct.*` from
//! the difference, and the spans plus counter dumps go to
//! `<out>/trace-<workload>-seed<n>.json`. Any oracle mismatch exits 1.

mod cluster_ingest;
mod layers;
mod oracle;
mod paper_window;
mod report;
mod rng;
mod serve_hot;
mod stats;
mod trace;
mod vis;

use std::sync::Arc;

use gpma_sim::DeviceConfig;

use report::{
    json_line, json_num, json_str, print_table, unit_of, Outcome, E2E, LAYERS, OVERHEAD_OF,
};
use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper-window", "cluster-ingest", "serve-hot"];
/// Set-ups per pass; `setup_s` is their median. The last
/// [`SETUPS_AFTER`] run after the measured phase, so the median spans the
/// pass instead of the few seconds before it: single-threaded speed on a
/// shared VM drifts by a quarter or more over seconds.
pub const SETUPS: usize = 9;
/// Set-ups timed after the measured phase (included in [`SETUPS`]).
pub const SETUPS_AFTER: usize = 4;
/// Spans written to the trace file at most (the summary covers all).
const MAX_SPANS_WRITTEN: usize = 200_000;

/// The simulated device every workload uses: the default cost model,
/// with kernel lanes run on the calling thread instead of a per-device
/// pool of one thread per core. On a 2-core VM the pool puts more
/// threads than cores on the box, so a preempted core stalls every
/// launch; README.md records the measurement. Simulated times and
/// device counters then also repeat exactly for a seed.
pub fn device_config() -> DeviceConfig {
    DeviceConfig {
        host_parallelism: 1,
        ..DeviceConfig::default()
    }
}

/// What a workload pass gets.
pub struct Ctx {
    /// Input seed: the same seed gives the same streams and operations.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Span recorder (off in untraced passes).
    pub tracer: Arc<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: "perfbench/out".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {val}"))?
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--out" => a.out = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(a)
}

fn run_pass(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "paper-window" => paper_window::run(ctx),
        "cluster-ingest" => cluster_ingest::run(ctx),
        "serve-hot" => serve_hot::run(ctx),
        _ => unreachable!("validated in parse_args"),
    }
}

fn print_outcome(title: &str, o: &Outcome, layers: bool) {
    println!("== {title}");
    for n in &o.notes {
        println!("  {n}");
    }
    println!(
        "  operations: {} attempted, {} failed (fail_ratio {:.6})",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    print_table("end-to-end", E2E, &o.e2e);
    if layers {
        print_table("per-layer", LAYERS, &o.layers);
    }
}

fn write_trace(a: &Args, tracer: &Tracer, o: &Outcome) -> std::io::Result<String> {
    let spans = tracer.spans();
    let totals = trace::totals_by_name(&spans);
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"workload\": {}, \"seed\": {}, \"spans_total\": {},\n\"self_time\": [\n",
        json_str(&a.workload),
        a.seed,
        spans.len()
    ));
    let rows: Vec<String> = totals
        .iter()
        .map(|t| {
            format!(
                "  {{\"name\": {}, \"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
                json_str(t.name),
                t.count,
                json_num(t.total_us),
                json_num(t.self_us)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n],\n\"dumps\": {\n");
    let dumps: Vec<String> = o
        .dumps
        .iter()
        .map(|(k, v)| format!("  {}: {}", json_str(k), json_str(v)))
        .collect();
    s.push_str(&dumps.join(",\n"));
    s.push_str("\n},\n\"spans\": [\n");
    let rows: Vec<String> = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .map(|sp| {
            format!(
                "  {{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.id,
                sp.parent,
                sp.req,
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n]}\n");
    std::fs::create_dir_all(&a.out)?;
    let path = format!("{}/trace-{}-seed{}.json", a.out, a.workload, a.seed);
    std::fs::write(&path, s)?;
    println!("self time by span (top 12 of {}):", totals.len());
    for t in totals.iter().take(12) {
        println!(
            "  {:<28} n={:<8} total {:>12.1} us  self {:>12.1} us",
            t.name, t.count, t.total_us, t.self_us
        );
    }
    Ok(path)
}

fn print_steal(start: Option<(u64, u64)>) {
    if let (Some((s0, t0)), Some((s1, t1))) = (start, report::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "cpu steal during the run: {:.1}% of CPU time",
            share * 100.0
        );
    }
}

fn fail(a: &Args, why: &str) -> ! {
    eprintln!("perfbench: {}: {why}", a.workload);
    let list = if a.trace { LAYERS } else { E2E };
    println!("{}", json_line(false, 1, 0, list, &[]));
    std::process::exit(1);
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ticks0 = report::cpu_ticks();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={cores}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    if !a.trace {
        let ctx = Ctx {
            seed: a.seed,
            seconds: a.seconds,
            tracer: Arc::new(Tracer::new(false)),
        };
        let o = run_pass(&a.workload, &ctx).unwrap_or_else(|e| fail(&a, &e));
        print_outcome("untraced", &o, false);
        print_steal(ticks0);
        println!("{}", json_line(true, o.attempted, o.failed, E2E, &o.e2e));
        return;
    }

    let half = a.seconds / 2.0;
    let plain = Ctx {
        seed: a.seed,
        seconds: half,
        tracer: Arc::new(Tracer::new(false)),
    };
    let u = run_pass(&a.workload, &plain).unwrap_or_else(|e| fail(&a, &e));
    let traced = Ctx {
        tracer: Arc::new(Tracer::new(true)),
        ..plain
    };
    let mut t = run_pass(&a.workload, &traced).unwrap_or_else(|e| fail(&a, &e));
    for name in OVERHEAD_OF {
        let (Some(tv), Some(uv)) = (t.e2e_value(name), u.e2e_value(name)) else {
            continue;
        };
        let key: &'static str = LAYERS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix("obs.overhead_pct.") == Some(name))
            .expect("every overhead metric is listed");
        let pct = if uv != 0.0 {
            (tv - uv) / uv * 100.0
        } else {
            0.0
        };
        t.layer(
            key,
            pct,
            2,
            format!("traced {tv:.4} vs untraced {uv:.4} {}", unit_of(name)),
        );
    }
    let spans = traced.tracer.spans().len();
    t.layer("trace.spans", spans as f64, 1, "");
    print_outcome("untraced half", &u, false);
    print_outcome("traced half", &t, true);
    print_steal(ticks0);
    match write_trace(&a, &traced.tracer, &t) {
        Ok(path) => println!("trace written to {path}"),
        Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
    }
    println!(
        "{}",
        json_line(
            true,
            u.attempted + t.attempted,
            u.failed + t.failed,
            LAYERS,
            &t.layers
        )
    );
}
