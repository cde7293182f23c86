//! The serve benchmark: one closed-loop client with one op in flight,
//! driving `raf_serve::SessionContext` in process through a seeded,
//! interleaved stream of queries, campaigns and edge deltas.
//!
//! A run with tracing off measures the end-to-end metrics. A run with
//! tracing on measures the same stream untraced, then replays it through
//! the layers' public functions ([`trace`]) and reports per-layer times
//! and counts. See `perfbench/README.md` for the metrics and workloads.

#![forbid(unsafe_code)]

pub mod serve_run;
pub mod trace;
pub mod workload;

use serve_run::{Counters, Outcome, ServeRun};
use std::time::Duration;
use trace::{Layer, Span, TracedRun};
use workload::{Op, WorkloadSpec};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// No op failed, no check failed, and (traced) the replay agreed.
    pub correct: bool,
    /// Ops issued.
    pub attempted: usize,
    /// Ops that errored or failed an output check.
    pub failed: usize,
    /// End-to-end metrics untraced, per-layer metrics traced.
    pub metrics: Vec<Metric>,
    /// Counters that repeat exactly across runs on one seed.
    pub counters: Counters,
    /// Human-readable details for standard error.
    pub notes: Vec<String>,
    /// The traced run's spans (empty untraced).
    pub spans: Vec<Span>,
}

/// Run options besides the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// The workload seed.
    pub seed: u64,
    /// Seconds of ops to issue (at the workload's nominal rate).
    pub seconds: f64,
    /// Replay the stream traced and report per-layer metrics.
    pub trace: bool,
}

/// Median of a sample (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail reported for a latency sample: the 11th-largest value, the
/// highest percentile with at least ten samples beyond it. `None` when
/// the sample has fewer than 11 values.
pub fn tail(values: &[f64]) -> Option<f64> {
    if values.len() < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[v.len() - 11])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Latencies of the ops `keep` selects, in ms.
fn latencies(run: &ServeRun, ops: &[Op], keep: impl Fn(&Op, &Outcome) -> bool) -> Vec<f64> {
    ops.iter()
        .zip(&run.outcomes)
        .zip(&run.latency)
        .filter(|((op, outcome), _)| keep(op, outcome))
        .map(|(_, &d)| ms(d))
        .collect()
}

fn is_query(hit: bool) -> impl Fn(&Op, &Outcome) -> bool {
    move |_, outcome| matches!(outcome, Outcome::Query(a) if a.cache_hit == hit)
}

/// Set-up work a run times, at least: `setup_s` is the median of as many
/// set-ups as this takes, and never of fewer than [`MIN_SETUPS`]. The
/// count is planned from the run's own first set-up and spread through
/// the stream; any shortfall is made up after it.
pub const SETUP_SECONDS: f64 = 1.0;
/// The fewest set-ups `setup_s` is the median of.
pub const MIN_SETUPS: usize = 3;

/// Runs the benchmark once.
///
/// # Panics
///
/// If the workload's inputs cannot be generated (see
/// [`workload::generate_inputs`]), or the stream has too few hits for a
/// tail.
pub fn run(spec: &WorkloadSpec, options: RunOptions) -> Report {
    let mut notes = Vec::new();
    let start = std::time::Instant::now();
    let (snap, _) = workload::build_snapshot(spec);
    let first_setup = start.elapsed().as_secs_f64();
    let inputs =
        workload::generate_inputs(spec, options.seed, &snap, spec.op_count(options.seconds));
    let ops = &inputs.ops;
    let setups = ((SETUP_SECONDS / first_setup).ceil() as usize).clamp(MIN_SETUPS, ops.len());
    let run = serve_run::run(spec, &snap, &inputs.warmup, ops, setups);
    let mut setups = run.setups.clone();
    while setups.iter().map(|t| t.total().as_secs_f64()).sum::<f64>() < SETUP_SECONDS {
        setups.push(workload::time_setup(spec));
    }
    let mut totals: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
    totals.sort_by(f64::total_cmp);
    let setup_s = median(&totals);
    notes.push(format!(
        "graph: {} nodes, {} edges; {} set-ups ({} between ops), {:.4}..{:.4} s",
        snap.csr.node_count(),
        snap.csr.edge_count(),
        totals.len(),
        run.setups.len(),
        totals[0],
        totals[totals.len() - 1],
    ));
    let hits = latencies(&run, ops, is_query(true));
    let misses = latencies(&run, ops, is_query(false));
    let campaigns = latencies(&run, ops, |op, _| matches!(op, Op::Campaign(_)));
    let deltas = latencies(&run, ops, |op, _| matches!(op, Op::Delta { .. }));
    let invites: Vec<f64> = run
        .outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Query(a) => Some(a.invitations.len() as f64),
            _ => None,
        })
        .collect();
    let c = run.counters;
    notes.push(format!(
        "ops: {} after {} warm-up ops ({} hits, {} misses, {} campaigns, {} deltas) in {:.3} s; \
         one-shot checks: {}",
        ops.len(),
        inputs.warmup.len(),
        hits.len(),
        misses.len(),
        campaigns.len(),
        deltas.len(),
        run.wall.as_secs_f64(),
        run.one_shot_checks
    ));
    notes.push(format!(
        "counters: hits={} misses={} evictions={} resampled_walks={} repaired={} flushed={} \
         invites_sum={} resident_bytes={} digest={:016x}",
        c.hits,
        c.misses,
        c.evictions,
        c.resampled_walks,
        c.repaired,
        c.flushed,
        c.invites_sum,
        c.resident_bytes,
        c.digest
    ));
    notes.extend(run.failures.iter().cloned());
    let mut correct = run.failures.is_empty();
    let Some(hit_tail) = tail(&hits) else {
        panic!("{} hits leave no tail with ten samples beyond it; run longer", hits.len());
    };

    // The per-op-type latencies of the untraced stream. Host phases move
    // them by more than any bound a gate could hold on this class of
    // machine (see perfbench/README.md), so they are reported with the
    // per-layer metrics, as the serve layer's call latencies, and never
    // gated.
    let m = |name, value, unit| Metric { name, value, unit };
    let latency = [
        m("serve.hit_p50_ms", median(&hits), "ms"),
        m("serve.hit_tail_ms", hit_tail, "ms"),
        m("serve.miss_p50_ms", median(&misses), "ms"),
        m("serve.campaign_p50_ms", median(&campaigns), "ms"),
        m("serve.delta_p50_ms", median(&deltas), "ms"),
    ];
    notes.push(format!(
        "latency: {}; the hit tail is the 11th-largest of {} hits",
        latency.iter().map(|l| format!("{} {:.4}", l.name, l.value)).collect::<Vec<_>>().join(", "),
        hits.len()
    ));

    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    if options.trace {
        let traced = trace::replay(spec, &snap, &inputs.warmup, ops);
        correct &= replay_agrees(&run, ops, &traced, &mut notes);
        metrics.extend(latency);
        metrics.extend(per_layer(&setups, &traced, run.wall));
        spans = traced.spans;
    } else {
        metrics.extend([
            m("setup_s", setup_s, "s"),
            m("ops_per_s", ops.len() as f64 / run.wall.as_secs_f64(), "1/s"),
            m("peak_rss_mib", peak_rss_mib(), "MiB"),
            m("resident_mib", c.resident_bytes as f64 / f64::from(1 << 20), "MiB"),
            m("invites_p50", median(&invites), "nodes"),
        ]);
    }
    Report { correct, attempted: ops.len(), failed: run.failed, metrics, counters: c, notes, spans }
}

/// The replay must answer exactly as the untraced run up to the first
/// delta, and end on the same counters.
fn replay_agrees(run: &ServeRun, ops: &[Op], traced: &TracedRun, notes: &mut Vec<String>) -> bool {
    let first_delta = ops.iter().position(|op| matches!(op, Op::Delta { .. })).unwrap_or(ops.len());
    let mut agrees = true;
    for (i, (op, outcome)) in ops.iter().zip(&run.outcomes).enumerate().take(first_delta) {
        let untraced = serve_run::response_line(op, outcome);
        if traced.lines[i].as_deref() != Ok(untraced.as_str()) {
            notes.push(format!("replay differs at op {i}:\n  {untraced}\n  {:?}", traced.lines[i]));
            agrees = false;
        }
    }
    let c = &run.counters;
    let t = &traced.counts;
    let pairs = [
        ("hits", c.hits, traced.stats.hits),
        ("misses", c.misses, traced.stats.misses),
        ("evictions", c.evictions, traced.stats.evictions),
        ("repaired", c.repaired, t.repaired),
        ("flushed", c.flushed, t.flushed),
        ("resampled_walks", c.resampled_walks, t.resampled_walks),
    ];
    for (name, untraced, replayed) in pairs {
        if untraced != replayed {
            notes.push(format!("replay {name}: {replayed}, untraced run: {untraced}"));
            agrees = false;
        }
    }
    let failed = traced.lines.iter().filter(|l| l.is_err()).count() + traced.warm_failures;
    if failed > 0 {
        notes.push(format!("{failed} replayed ops failed"));
        agrees = false;
    }
    agrees
}

/// Per-layer metrics from the set-up times and the traced replay.
fn per_layer(
    setups: &[workload::SetupTimes],
    traced: &TracedRun,
    untraced_wall: Duration,
) -> Vec<Metric> {
    let spans = &traced.spans;
    let call_ms = |layer: Layer, name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    };
    // Per-delta sums of a call made once per resident pool.
    let per_delta_ms = |name: &str| -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u32, f64> = spans
            .iter()
            .filter(|s| s.layer == Layer::Op && s.name == "delta")
            .map(|s| (s.op, 0.0))
            .collect();
        for s in spans.iter().filter(|s| s.layer == Layer::Model && s.name == name) {
            *sums.entry(s.op).or_default() += s.ns() as f64 / 1e6;
        }
        sums.into_values().collect()
    };
    let setup_ms = |pick: fn(&workload::SetupTimes) -> Duration| {
        median(&setups.iter().map(|t| ms(pick(t))).collect::<Vec<_>>())
    };
    let selfs = trace::self_ns(spans);
    let op_ns: u64 = spans.iter().filter(|s| s.layer == Layer::Op).map(Span::ns).sum();
    let share = |layer: Layer| {
        selfs
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, ns)| ns as f64 / op_ns.max(1) as f64)
    };
    let counts = &traced.counts;
    let stats = &traced.stats;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("datasets.load_ms", setup_ms(|t| t.load), "ms"),
        m("graph.relabel_ms", setup_ms(|t| t.relabel), "ms"),
        m("graph.csr_ms", setup_ms(|t| t.csr), "ms"),
        m("model.sample_ms", median(&call_ms(Layer::Model, "sample")), "ms"),
        m("model.walks", counts.walks as f64, "count"),
        m("model.type1_share", counts.type1 as f64 / counts.walks.max(1) as f64, "share"),
        m(
            "model.unique_paths",
            counts.unique_paths as f64 / counts.pools_sampled.max(1) as f64,
            "paths",
        ),
        m("cover.build_ms", median(&call_ms(Layer::Cover, "build")), "ms"),
        m("cover.solve_ms", median(&call_ms(Layer::Cover, "solve")), "ms"),
        m(
            "cover.universe_per_elem",
            counts.universe_per_elem_sum / counts.solves.max(1) as f64,
            "ratio",
        ),
        m("cover.alloc_ms", median(&call_ms(Layer::Cover, "alloc")), "ms"),
        m("serve.lookup_ms", median(&call_ms(Layer::Serve, "lookup")), "ms"),
        m(
            "serve.hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            "share",
        ),
        m("serve.evictions", stats.evictions as f64, "count"),
        m(
            "serve.pool_bytes",
            counts.pool_bytes as f64 / counts.pools_sampled.max(1) as f64,
            "bytes",
        ),
        m("graph.delta_apply_ms", median(&call_ms(Layer::Graph, "delta_apply")), "ms"),
        m("graph.csr_rebuild_ms", median(&call_ms(Layer::Graph, "csr_rebuild")), "ms"),
        m("model.walk_index_ms", median(&per_delta_ms("walk_index")), "ms"),
        m("model.repair_ms", median(&per_delta_ms("repair")), "ms"),
        m("model.resampled_walks", counts.resampled_walks as f64, "count"),
        m("serve.repaired", counts.repaired as f64, "count"),
        m("serve.flushed", counts.flushed as f64, "count"),
        m("graph.self_share", share(Layer::Graph), "share"),
        m("model.self_share", share(Layer::Model), "share"),
        m("cover.self_share", share(Layer::Cover), "share"),
        m("core.self_share", share(Layer::Core), "share"),
        m("serve.self_share", share(Layer::Serve), "share"),
        m("trace.unexplained_share", share(Layer::Op), "share"),
        m(
            "trace.overhead_share",
            traced.wall_ns as f64 / untraced_wall.as_nanos().max(1) as f64 - 1.0,
            "share",
        ),
    ]
}
