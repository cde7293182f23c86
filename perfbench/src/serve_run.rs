//! The untraced run: one closed-loop client driving a
//! `raf_serve::SessionContext` through the op stream, then checking every
//! answer outside the timed window.

use crate::workload::{time_setup, Op, SetupTimes, Snapshot, WorkloadSpec};
use raf_graph::{SocialGraph, WeightScheme};
use raf_serve::protocol::{format_answer, format_campaign_answer, format_delta_outcome};
use raf_serve::{
    one_shot, CacheStats, CampaignAnswer, DeltaOutcome, QueryAnswer, ServeError, SessionContext,
};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one op returned.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A query answer.
    Query(QueryAnswer),
    /// A campaign answer.
    Campaign(CampaignAnswer),
    /// A delta outcome.
    Delta(DeltaOutcome),
    /// The op failed.
    Error(String),
}

impl Outcome {
    fn from_result<T>(result: Result<T, ServeError>, wrap: fn(T) -> Outcome) -> Outcome {
        match result {
            Ok(value) => wrap(value),
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

/// The response line the `raf serve` protocol prints for an op.
pub fn response_line(op: &Op, outcome: &Outcome) -> String {
    match (op, outcome) {
        (Op::Query(q), Outcome::Query(a)) => format_answer(q, a),
        (Op::Campaign(c), Outcome::Campaign(a)) => format_campaign_answer(c, a),
        (Op::Delta { .. }, Outcome::Delta(d)) => format_delta_outcome(d),
        (_, Outcome::Error(e)) => format!("err {e}"),
        _ => unreachable!("outcome kind follows the op kind"),
    }
}

/// FNV-1a over the response lines, newline-terminated: the answer digest
/// that must repeat exactly across runs on one seed.
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for &byte in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Counters a run on one seed must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Cache hits (queries and campaign targets).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Walks re-sampled by delta repairs.
    pub resampled_walks: u64,
    /// Pools repaired in place.
    pub repaired: u64,
    /// Pools flushed by deltas.
    pub flushed: u64,
    /// Sum of invitation-set sizes over query answers.
    pub invites_sum: u64,
    /// Bytes the cache charges at the end of the run.
    pub resident_bytes: u64,
    /// [`digest`] of every response line.
    pub digest: u64,
}

/// One untraced run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Per-op latency, aligned with the op stream.
    pub latency: Vec<Duration>,
    /// Per-op outcome, aligned with the op stream.
    pub outcomes: Vec<Outcome>,
    /// Wall time of the whole stream, set-ups excluded.
    pub wall: Duration,
    /// The set-ups timed between stream ops.
    pub setups: Vec<SetupTimes>,
    /// Counters that must repeat across runs.
    pub counters: Counters,
    /// Stream ops that errored or failed an output check.
    pub failed: usize,
    /// Descriptions of the failures, warm-up ones included (empty on a
    /// clean run).
    pub failures: Vec<String>,
    /// Cold one-shot comparisons made.
    pub one_shot_checks: usize,
}

/// Cache counters accumulated between two readings.
pub fn stats_since(base: &CacheStats, end: &CacheStats) -> CacheStats {
    CacheStats {
        hits: end.hits - base.hits,
        misses: end.misses - base.misses,
        evictions: end.evictions - base.evictions,
        rejected: end.rejected - base.rejected,
        integrity_evictions: end.integrity_evictions - base.integrity_evictions,
    }
}

fn issue(ctx: &mut SessionContext<'_>, social: &mut SocialGraph, op: &Op) -> Outcome {
    match op {
        Op::Query(q) => Outcome::from_result(ctx.query(q), Outcome::Query),
        Op::Campaign(c) => Outcome::from_result(ctx.campaign(c), Outcome::Campaign),
        Op::Delta { delta, .. } => Outcome::from_result(
            ctx.apply_delta(delta, social, WeightScheme::UniformByDegree),
            Outcome::Delta,
        ),
    }
}

/// Drives the warm-up and then the op stream through a fresh session on
/// `snap`, timing each stream op and the whole stream, then checks every
/// output. Cache counters cover the stream only.
///
/// `setups` whole set-ups ([`time_setup`]) are timed between stream ops,
/// evenly spaced, so `setup_s` samples the host over the same minute the
/// ops do rather than in one burst before them. They leave the session
/// untouched and are left out of the stream's wall time.
pub fn run(
    spec: &WorkloadSpec,
    snap: &Snapshot,
    warmup: &[Op],
    ops: &[Op],
    setups: usize,
) -> ServeRun {
    let mut social = snap.social.clone();
    let mut ctx = SessionContext::with_relabeling(
        &snap.csr,
        Arc::clone(&snap.relabeling),
        spec.serve_config(),
    );
    let mut failures = Vec::new();
    for (i, op) in warmup.iter().enumerate() {
        if let Outcome::Error(e) = issue(&mut ctx, &mut social, op) {
            failures.push(format!("warm-up op {i}: {e}"));
        }
    }
    let base = ctx.stats();
    let mut latency = Vec::with_capacity(ops.len());
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut setup_times = Vec::with_capacity(setups);
    let mut setup_wall = Duration::ZERO;
    let begin = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        while setup_times.len() < setups && setup_times.len() * ops.len() <= i * setups {
            let start = Instant::now();
            setup_times.push(time_setup(spec));
            setup_wall += start.elapsed();
        }
        let start = Instant::now();
        outcomes.push(issue(&mut ctx, &mut social, op));
        latency.push(start.elapsed());
    }
    let wall = begin.elapsed() - setup_wall;
    let stats = stats_since(&base, &ctx.stats());
    let resident_bytes = ctx.resident_bytes() as u64;
    drop(ctx);

    let lines: Vec<String> =
        ops.iter().zip(&outcomes).map(|(op, o)| response_line(op, o)).collect();
    let mut counters = Counters {
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
        resampled_walks: 0,
        repaired: 0,
        flushed: 0,
        invites_sum: 0,
        resident_bytes,
        digest: digest(lines.iter().map(String::as_str)),
    };
    let mut failed_ops = BTreeSet::new();
    let mut fail = |i: usize, what: String| {
        failed_ops.insert(i);
        failures.push(format!("op {i}: {what}"));
    };
    for (i, (op, outcome)) in ops.iter().zip(&outcomes).enumerate() {
        match (op, outcome) {
            (Op::Query(q), Outcome::Query(a)) => {
                counters.invites_sum += a.invitations.len() as u64;
                if a.covered < a.cover_p || !a.invitations.contains(q.t) {
                    fail(i, format!("answer misses its cover target: {}", lines[i]));
                }
            }
            (Op::Campaign(c), Outcome::Campaign(a)) => {
                if a.invitations.len() > c.budget {
                    fail(i, format!("campaign over budget: {}", lines[i]));
                }
            }
            (Op::Delta { .. }, Outcome::Delta(d)) => {
                counters.resampled_walks += d.resampled_walks;
                counters.repaired += d.repaired as u64;
                counters.flushed += d.flushed as u64;
                if d.noop {
                    fail(i, "delta was a no-op".to_string());
                }
            }
            (_, Outcome::Error(e)) => fail(i, e.clone()),
            _ => unreachable!("outcome kind follows the op kind"),
        }
    }

    // A hit must answer byte for byte what a cold one-shot on a fresh
    // context answers (the `hit=` flag aside). Repaired pools are
    // approximate by design, so only hits before the first delta count.
    let first_delta = ops.iter().position(|op| matches!(op, Op::Delta { .. })).unwrap_or(ops.len());
    let plain = snap.social.to_csr();
    let mut checked = HashSet::new();
    let mut one_shot_checks = 0;
    for (i, (op, outcome)) in ops[..first_delta].iter().zip(&outcomes).enumerate() {
        let (Op::Query(q), Outcome::Query(hit)) = (op, outcome) else { continue };
        if !hit.cache_hit || !checked.insert((q.s, q.t)) {
            continue;
        }
        one_shot_checks += 1;
        let warm = format_answer(q, &QueryAnswer { cache_hit: false, ..hit.clone() });
        match one_shot(&plain, spec.serve_config(), q) {
            Ok(cold) if format_answer(q, &cold) == warm => {}
            Ok(cold) => fail(
                i,
                format!("hit differs from one-shot:\n  {warm}\n  {}", format_answer(q, &cold)),
            ),
            Err(e) => fail(i, format!("one-shot failed: {e}")),
        }
    }

    let failed = failed_ops.len();
    ServeRun {
        latency,
        outcomes,
        wall,
        setups: setup_times,
        counters,
        failed,
        failures,
        one_shot_checks,
    }
}
