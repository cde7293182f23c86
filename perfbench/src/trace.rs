//! The traced run: the same op stream replayed through the layers' own
//! public functions, each call timed from outside as a span.
//!
//! The replay follows `SessionContext::{query, campaign, apply_delta}`
//! step for step, so its answers equal the untraced run's. Spans are kept
//! in memory and written out once the run ends.

use crate::workload::{mix, Op, Snapshot, WorkloadSpec};
use raf_core::ParameterSet;
use raf_cover::{
    allocate_budget, cover_requirement, solve_msc, BudgetTarget, ChlamtacPortfolio, CoverInstance,
};
use raf_graph::{CsrGraph, EdgeDelta, NodeId, SocialGraph, WeightScheme};
use raf_model::sampler::{pair_seed, repair_pool, PoolRepair, SampleControl, SampleRequest};
use raf_model::walk_index::EdgeWalkIndex;
use raf_model::{FriendingInstance, InvitationSet};
use raf_serve::{
    CachedPool, CampaignAnswer, CampaignQuery, CampaignTargetAnswer, DeltaOutcome, PoolCache,
    PoolKey, Query, QueryAnswer, ServeConfig,
};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// The workspace crates a span can be charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The root span of one op.
    Op,
    /// `raf-graph`.
    Graph,
    /// `raf-model`.
    Model,
    /// `raf-cover`.
    Cover,
    /// `raf-core`.
    Core,
    /// `raf-serve`.
    Serve,
}

impl Layer {
    /// The crate's short name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Graph => "graph",
            Layer::Model => "model",
            Layer::Cover => "cover",
            Layer::Core => "core",
            Layer::Serve => "serve",
        }
    }
}

/// One timed call. Every span but an op root has that op's root as its
/// parent; spans of one op share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the op in the stream.
    pub op: u32,
    /// The layer the call belongs to.
    pub layer: Layer,
    /// The call (`sample`, `solve`, …), or the op kind for a root.
    pub name: &'static str,
    /// Start, in ns since the replay began.
    pub start_ns: u64,
    /// End, in ns since the replay began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, layer: Layer, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = call();
        let end_ns = self.now();
        self.spans.push(Span { op: self.op, layer, name, start_ns, end_ns });
        out
    }
}

/// Counts taken at the span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Pools sampled on a miss.
    pub pools_sampled: u64,
    /// Walks sampled on misses.
    pub walks: u64,
    /// Type-1 walks among them.
    pub type1: u64,
    /// Unique paths over the sampled pools.
    pub unique_paths: u64,
    /// Bytes charged by the entries inserted on misses.
    pub pool_bytes: u64,
    /// Σ over solves of the cover universe ÷ the instance's element count.
    pub universe_per_elem_sum: f64,
    /// Cover solves.
    pub solves: u64,
    /// Pools repaired in place.
    pub repaired: u64,
    /// Pools flushed by deltas.
    pub flushed: u64,
    /// Walks re-sampled by repairs.
    pub resampled_walks: u64,
}

/// The outcome of a replayed op, rendered like the untraced run's.
pub type Replayed = Result<String, String>;

/// Replays the stream; returns the response lines, the spans and the
/// counts, plus the final cache counters.
pub struct TracedRun {
    /// One response line (or error) per op.
    pub lines: Vec<Replayed>,
    /// Warm-up ops that failed.
    pub warm_failures: usize,
    /// Every span, op roots included.
    pub spans: Vec<Span>,
    /// Counts at the span boundaries.
    pub counts: LayerCounts,
    /// Final cache counters.
    pub stats: raf_serve::CacheStats,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
}

struct Replay<'a> {
    snap: &'a Snapshot,
    config: ServeConfig,
    social: SocialGraph,
    dynamic: Option<CsrGraph>,
    cache: PoolCache,
    delta_serial: u64,
    tracer: Tracer,
    counts: LayerCounts,
}

/// Replays the warm-up untraced and then `ops` traced, on a fresh cache
/// over `snap`. Counts and cache counters cover `ops` only.
pub fn replay(spec: &WorkloadSpec, snap: &Snapshot, warmup: &[Op], ops: &[Op]) -> TracedRun {
    let config = spec.serve_config();
    let mut r = Replay {
        snap,
        cache: PoolCache::new(config.cache_bytes),
        config,
        social: snap.social.clone(),
        dynamic: None,
        delta_serial: 0,
        tracer: Tracer { epoch: Instant::now(), op: 0, spans: Vec::new() },
        counts: LayerCounts::default(),
    };
    let mut warm_failures = 0;
    for op in warmup {
        warm_failures += usize::from(r.issue(op).1.is_err());
    }
    let base = r.cache.stats();
    r.counts = LayerCounts::default();
    r.tracer = Tracer { epoch: Instant::now(), op: 0, spans: Vec::new() };
    let mut lines = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        r.tracer.op = i as u32;
        let start_ns = r.tracer.now();
        let (name, line) = r.issue(op);
        let end_ns = r.tracer.now();
        r.tracer.spans.push(Span { op: i as u32, layer: Layer::Op, name, start_ns, end_ns });
        lines.push(line);
    }
    let wall_ns = r.tracer.now();
    let stats = crate::serve_run::stats_since(&base, &r.cache.stats());
    TracedRun { lines, warm_failures, stats, counts: r.counts, spans: r.tracer.spans, wall_ns }
}

impl Replay<'_> {
    /// Replays one op; returns its kind and its response line.
    fn issue(&mut self, op: &Op) -> (&'static str, Replayed) {
        use raf_serve::protocol::{format_answer, format_campaign_answer, format_delta_outcome};
        match op {
            Op::Query(q) => ("query", self.query(q).map(|a| format_answer(q, &a))),
            Op::Campaign(c) => {
                ("campaign", self.campaign(c).map(|a| format_campaign_answer(c, &a)))
            }
            Op::Delta { delta, .. } => {
                ("delta", self.delta(delta).map(|d| format_delta_outcome(&d)))
            }
        }
    }

    fn csr(&self) -> &CsrGraph {
        self.dynamic.as_ref().unwrap_or(&self.snap.csr)
    }

    /// `SessionContext::entry_for`: a cache lookup, and on a miss the
    /// sample, the cover build and the insert.
    fn entry(&mut self, key: PoolKey) -> Result<(CachedPool, bool), String> {
        let cache = &mut self.cache;
        if let Some(entry) = self.tracer.span(Layer::Serve, "lookup", || cache.get(&key)) {
            return Ok((entry, true));
        }
        let seed = pair_seed(self.config.seed, key.s, key.t);
        let threads = self.config.threads;
        let csr = self.dynamic.as_ref().unwrap_or(&self.snap.csr);
        let n = csr.node_count();
        let instance = instance(csr, self.snap, key)?;
        let control = SampleControl::default();
        let pool = self.tracer.span(Layer::Model, "sample", || {
            SampleRequest::new(key.walks)
                .seed(seed)
                .threads(threads)
                .control(&control)
                .run(&instance)
        });
        self.counts.pools_sampled += 1;
        self.counts.walks += pool.total_samples();
        self.counts.type1 += pool.type1_count() as u64;
        self.counts.unique_paths += pool.unique_count() as u64;
        let cover = self
            .tracer
            .span(Layer::Cover, "build", || CoverInstance::from_path_pool(n, pool.clone()))
            .map_err(|e| e.to_string())?;
        let cache = &mut self.cache;
        let entry = self.tracer.span(Layer::Serve, "insert", || {
            let entry = CachedPool::new(Arc::new(pool), Arc::new(cover));
            cache.insert(key, entry.clone());
            entry
        });
        self.counts.pool_bytes += entry.heap_bytes() as u64;
        Ok((entry, false))
    }

    fn key(&self, s: NodeId, t: NodeId, budget: u64) -> PoolKey {
        PoolKey { s: s.index() as u32, t: t.index() as u32, walks: budget.min(self.config.walks) }
    }

    fn invitations(&mut self, n: usize, elements: &[u32]) -> InvitationSet {
        self.tracer.span(Layer::Model, "invitations", || {
            let mut set = InvitationSet::empty(n);
            for &e in elements {
                set.insert(NodeId::new(e as usize));
            }
            set
        })
    }

    /// `SessionContext::query`.
    fn query(&mut self, q: &Query) -> Result<QueryAnswer, String> {
        let key = self.key(q.s, q.t, q.budget);
        let (entry, cache_hit) = self.entry(key)?;
        let pool = entry.pool();
        let n = self.csr().node_count();
        let epsilon = self.config.epsilon;
        let parameters = self
            .tracer
            .span(Layer::Core, "params", || ParameterSet::solve(q.alpha, epsilon, n))
            .map_err(|e| e.to_string())?;
        let b1 = pool.type1_count();
        if b1 == 0 {
            return Err(format!("target unreachable in {} samples", pool.total_samples()));
        }
        let cover = &entry.cover;
        let msc = self
            .tracer
            .span(Layer::Cover, "solve", || {
                let p = cover_requirement(parameters.beta, b1);
                solve_msc(&ChlamtacPortfolio::new(), cover, p).map(|msc| (p, msc))
            })
            .map(|(p, msc)| {
                let elements: usize = cover.iter_sets().map(<[u32]>::len).sum();
                self.counts.universe_per_elem_sum +=
                    cover.universe() as f64 / elements.max(1) as f64;
                self.counts.solves += 1;
                (p, msc)
            })
            .map_err(|e| e.to_string())?;
        let (cover_p, msc) = msc;
        let invitations = self.invitations(n, &msc.elements);
        Ok(QueryAnswer {
            invitations,
            parameters,
            pmax_estimate: pool.pmax_estimate(),
            walks: pool.total_samples(),
            type1_count: b1,
            cover_p,
            covered: msc.covered_weight,
            cache_hit,
            degraded: pool.total_samples() < key.walks,
        })
    }

    /// `SessionContext::campaign`.
    fn campaign(&mut self, c: &CampaignQuery) -> Result<CampaignAnswer, String> {
        let mut targets = c.targets.clone();
        targets.sort_by_key(|t| t.index());
        let walks = self.config.walks;
        let mut entries = Vec::with_capacity(targets.len());
        let mut hits = Vec::with_capacity(targets.len());
        for &t in &targets {
            let (entry, hit) = self.entry(self.key(c.s, t, walks))?;
            if entry.pool().type1_count() == 0 {
                return Err(format!("campaign target {} unreachable", t.index()));
            }
            entries.push(entry);
            hits.push(hit);
        }
        let pools: Vec<_> = entries.iter().map(CachedPool::pool).collect();
        let budget_targets: Vec<BudgetTarget<'_>> = entries
            .iter()
            .zip(&pools)
            .map(|(e, p)| BudgetTarget { sets: &e.cover, total_samples: p.total_samples().max(1) })
            .collect();
        let alloc = self
            .tracer
            .span(Layer::Cover, "alloc", || allocate_budget(&budget_targets, c.budget))
            .map_err(|e| e.to_string())?;
        let n = self.csr().node_count();
        let invitations = self.invitations(n, &alloc.chosen);
        let per_target = targets
            .iter()
            .enumerate()
            .map(|(i, &target)| {
                let samples = pools[i].total_samples();
                let covered = alloc.per_target_covered[i];
                CampaignTargetAnswer {
                    target,
                    covered,
                    samples,
                    estimate: covered as f64 / samples.max(1) as f64,
                    cache_hit: hits[i],
                }
            })
            .collect();
        Ok(CampaignAnswer {
            invitations,
            objective: alloc.objective,
            arm: alloc.arm.name(),
            arm_objectives: alloc.arm_objectives,
            walks,
            hits: hits.iter().filter(|&&h| h).count(),
            targets: per_target,
        })
    }

    /// `SessionContext::apply_delta`: rebuild the snapshot, then repair
    /// every resident pool in place (or flush it).
    fn delta(&mut self, delta: &EdgeDelta) -> Result<DeltaOutcome, String> {
        let social = &self.social;
        let applied = self
            .tracer
            .span(Layer::Graph, "delta_apply", || {
                delta.apply(social, WeightScheme::UniformByDegree)
            })
            .map_err(|e| e.to_string())?;
        let touched = applied.touched_nodes();
        let mut outcome = DeltaOutcome {
            added: applied.added.len(),
            removed: applied.removed.len(),
            touched_nodes: touched.len(),
            repaired: 0,
            untouched: 0,
            flushed: 0,
            resampled_walks: 0,
            noop: applied.is_noop(),
        };
        if outcome.noop {
            return Ok(outcome);
        }
        let relabeling = &self.snap.relabeling;
        let csr = self
            .tracer
            .span(Layer::Graph, "csr_rebuild", || applied.graph.to_csr_relabeled(relabeling));
        self.social = applied.graph;
        self.dynamic = Some(csr);
        self.delta_serial += 1;
        let n = self.csr().node_count();
        let threads = self.config.threads;

        for key in self.cache.lru_keys().to_vec() {
            let Some(entry) = self.cache.peek(&key).cloned() else { continue };
            if !self.tracer.span(Layer::Serve, "verify", || entry.verify()) {
                self.cache.evict_corrupt(&key);
                outcome.flushed += 1;
                continue;
            }
            let old = entry.pool();
            let index =
                self.tracer.span(Layer::Model, "walk_index", || EdgeWalkIndex::build(&old, n));
            let seed = mix(pair_seed(self.config.seed, key.s, key.t) ^ mix(self.delta_serial));
            let csr = self.dynamic.as_ref().unwrap_or(&self.snap.csr);
            let repair = match instance(csr, self.snap, key) {
                Ok(instance) => {
                    let template = SampleRequest::new(0).seed(seed).threads(threads);
                    Some(self.tracer.span(Layer::Model, "repair", || {
                        repair_pool(&old, &index, &touched, &instance, template)
                    }))
                }
                Err(_) => None,
            };
            match repair {
                Some(PoolRepair::Repaired { resampled: 0, .. }) => outcome.untouched += 1,
                Some(PoolRepair::Repaired { pool, resampled, .. }) => {
                    let rebuilt = self
                        .tracer
                        .span(Layer::Cover, "rebuild", || {
                            CoverInstance::from_path_pool(n, pool.clone())
                        })
                        .ok();
                    let cache = &mut self.cache;
                    let kept = self.tracer.span(Layer::Serve, "reaccount", || match rebuilt {
                        Some(cover) => {
                            if let Some(slot) = cache.entry_mut(&key) {
                                *slot = CachedPool::new(Arc::new(pool), Arc::new(cover));
                            }
                            cache.reaccount(&key)
                        }
                        None => {
                            cache.remove(&key);
                            false
                        }
                    });
                    if kept {
                        outcome.repaired += 1;
                        outcome.resampled_walks += resampled;
                    } else {
                        outcome.flushed += 1;
                    }
                }
                Some(PoolRepair::FullResample) | None => {
                    self.cache.remove(&key);
                    outcome.flushed += 1;
                }
            }
        }
        self.counts.repaired += outcome.repaired as u64;
        self.counts.flushed += outcome.flushed as u64;
        self.counts.resampled_walks += outcome.resampled_walks;
        Ok(outcome)
    }
}

/// The instance for a key's pair on `csr`, laid out like `snap`.
fn instance<'c>(
    csr: &'c CsrGraph,
    snap: &Snapshot,
    key: PoolKey,
) -> Result<FriendingInstance<'c>, String> {
    let (s, t) = (NodeId::new(key.s as usize), NodeId::new(key.t as usize));
    FriendingInstance::relabeled(csr, s, t, Arc::clone(&snap.relabeling)).map_err(|e| e.to_string())
}

/// Self time per layer: each span's duration minus what its child spans
/// cover. Children are the non-root spans of an op; they never overlap,
/// so a root's self time is its duration minus their sum.
pub fn self_ns(spans: &[Span]) -> [(Layer, u64); 6] {
    let mut out = [Layer::Op, Layer::Graph, Layer::Model, Layer::Cover, Layer::Core, Layer::Serve]
        .map(|l| (l, 0u64));
    for span in spans {
        let slot = out.iter_mut().find(|(l, _)| *l == span.layer).expect("every layer has a slot");
        slot.1 += span.ns();
    }
    let children: u64 = out[1..].iter().map(|(_, ns)| ns).sum();
    out[0].1 = out[0].1.saturating_sub(children);
    out
}

/// Writes the spans as JSON lines (`parent` is the op root's line index,
/// `null` for roots).
///
/// # Errors
///
/// Any I/O error.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut roots = vec![0usize; spans.iter().map(|s| s.op as usize + 1).max().unwrap_or(0)];
    for (i, s) in spans.iter().enumerate() {
        if s.layer == Layer::Op {
            roots[s.op as usize] = i;
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.layer == Layer::Op {
            "null".to_string()
        } else {
            roots[s.op as usize].to_string()
        };
        writeln!(
            out,
            "{{\"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
            s.op,
            s.layer.name(),
            s.name,
            s.start_ns,
            s.end_ns,
            parent
        )?;
    }
    out.flush()
}
