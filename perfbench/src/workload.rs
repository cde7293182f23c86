//! The two workloads and the seeded inputs they run.
//!
//! Everything a run feeds the server is a pure function of
//! `(workload, seed, op count)` and is generated before the timed window
//! opens. A workload fixes its population: the dataset stand-in and the
//! screened pairs, campaigns and churned edges, drawn from the workload's
//! own [`POPULATION_SEED`], as a real dataset file would be fixed. The
//! run's seed draws the traffic: which pair each query asks about.

use raf_datasets::{
    load_dataset, sample_campaigns, sample_pairs, Dataset, DatasetSource, PairSamplerConfig,
};
use raf_graph::{CsrGraph, EdgeDelta, NodeId, Relabeling, SocialGraph};
use raf_serve::{CampaignQuery, Query, ServeConfig, SessionContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One workload: the graph it serves from and the shape of its op
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// The Table-I dataset whose stand-in backs the graph.
    pub dataset: Dataset,
    /// Node count of the stand-in (the dataset is scaled to it).
    pub nodes: usize,
    /// Walk ceiling per pool, which is also every query's budget.
    pub walks: u64,
    /// Byte budget of the pool cache.
    pub cache_bytes: usize,
    /// Screened `(s, t)` pairs the queries draw from by Zipf(1) rank.
    pub pairs: usize,
    /// Screened campaigns the campaign ops take in turn.
    pub campaigns: usize,
    /// Fill the cache before the timed stream (see [`generate_inputs`]).
    pub warm_cache: bool,
    /// Op count per measured second: a run of `--seconds S` issues
    /// `S × ops_per_second` ops, so the stream (and every counter it
    /// drives) is fixed by the arguments, not by how fast the code is.
    pub ops_per_second: f64,
}

/// Seed of every workload's stand-in graph, pair and campaign screening
/// and churned edges.
pub const POPULATION_SEED: u64 = 1;
/// Targets per campaign.
pub const CAMPAIGN_TARGETS: usize = 3;
/// Shared invitation budget of every campaign.
pub const CAMPAIGN_BUDGET: usize = 16;
/// One campaign op in every `CAMPAIGN_EVERY` ops. A campaign whose
/// pools are cached costs under a millisecond on youtube-sparse, so its
/// median needs many samples to be steady.
pub const CAMPAIGN_EVERY: usize = 4;
/// One remove-then-restore delta pair in every `DELTA_EVERY` ops.
pub const DELTA_EVERY: usize = 40;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub fn workloads() -> [WorkloadSpec; 2] {
    [
        WorkloadSpec {
            name: "wiki-dense",
            dataset: Dataset::Wiki,
            nodes: 7_000,
            walks: 200_000,
            cache_bytes: 256 << 20,
            pairs: 72,
            campaigns: 3,
            warm_cache: true,
            ops_per_second: 8.5,
        },
        WorkloadSpec {
            name: "youtube-sparse",
            dataset: Dataset::Youtube,
            nodes: 220_000,
            walks: 200_000,
            cache_bytes: 256 << 20,
            pairs: 24,
            campaigns: 3,
            warm_cache: false,
            ops_per_second: 7.5,
        },
    ]
}

/// The workload named `name`, if any.
pub fn find(name: &str) -> Option<WorkloadSpec> {
    workloads().into_iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    /// A seconds-scale copy of the workload for tests: same stream
    /// shape, tiny graph, few walks, a cache that still evicts.
    pub fn smoke(&self) -> WorkloadSpec {
        WorkloadSpec {
            nodes: 600,
            walks: 4_000,
            cache_bytes: 256 << 10,
            pairs: 8,
            campaigns: 2,
            ops_per_second: 60.0,
            ..self.clone()
        }
    }

    /// The server configuration: the `raf serve` defaults (one sampler
    /// thread, ε = 0.01) at this workload's walk count and cache budget
    /// (the 256 MiB default on both workloads).
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            walks: self.walks,
            epsilon: 0.01,
            seed: 1,
            threads: 1,
            cache_bytes: self.cache_bytes,
            ..ServeConfig::default()
        }
    }

    /// Ops in a run measuring `seconds`.
    pub fn op_count(&self, seconds: f64) -> usize {
        ((seconds * self.ops_per_second).round() as usize).max(DELTA_EVERY)
    }
}

/// The resident graph a run serves from, in both forms the serve API
/// takes: the edge list (advanced by deltas) and the hub-BFS CSR.
#[derive(Debug)]
pub struct Snapshot {
    /// The canonical edge-list graph.
    pub social: SocialGraph,
    /// The hub-BFS permutation the CSR is laid out in.
    pub relabeling: Arc<Relabeling>,
    /// The serving layout.
    pub csr: CsrGraph,
}

/// Wall time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `load_dataset` (stand-in generation).
    pub load: Duration,
    /// `Relabeling::hub_bfs`.
    pub relabel: Duration,
    /// `to_csr_relabeled`.
    pub csr: Duration,
    /// `SessionContext::with_relabeling`.
    pub context: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.load + self.relabel + self.csr + self.context
    }
}

/// Where real SNAP files would be looked for. The directory does not
/// exist, so every run serves the seeded stand-in.
const NO_DATA_DIR: &str = "perfbench/no-real-data";

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generates the workload's graph and lays it out for serving, timing
/// each step.
///
/// # Panics
///
/// If the stand-in cannot be generated (a bug at these scales).
pub fn build_snapshot(spec: &WorkloadSpec) -> (Snapshot, SetupTimes) {
    let mut times = SetupTimes::default();
    let scale = spec.nodes as f64 / spec.dataset.spec().nodes as f64;
    let start = Instant::now();
    let loaded = load_dataset(spec.dataset, scale, mix(POPULATION_SEED), Path::new(NO_DATA_DIR))
        .expect("stand-in generation cannot fail at benchmark scales");
    times.load = start.elapsed();
    assert_eq!(loaded.source, DatasetSource::Synthetic, "the benchmark serves the stand-in");
    let start = Instant::now();
    let relabeling = Arc::new(Relabeling::hub_bfs(&loaded.graph));
    times.relabel = start.elapsed();
    let start = Instant::now();
    let csr = loaded.graph.to_csr_relabeled(&relabeling);
    times.csr = start.elapsed();
    (Snapshot { social: loaded.graph, relabeling, csr }, times)
}

/// Times one whole set-up: [`build_snapshot`], then opening a session on
/// it.
pub fn time_setup(spec: &WorkloadSpec) -> SetupTimes {
    let (snap, mut times) = build_snapshot(spec);
    let start = Instant::now();
    let ctx = SessionContext::with_relabeling(
        &snap.csr,
        Arc::clone(&snap.relabeling),
        spec.serve_config(),
    );
    std::hint::black_box(&ctx);
    drop(ctx);
    times.context = start.elapsed();
    times
}

/// One op of the stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A single-target query.
    Query(Query),
    /// A multi-target campaign.
    Campaign(CampaignQuery),
    /// A one-edge delta: the removal of `(u, v)` when `remove`, else its
    /// restore.
    Delta {
        /// The delta as the serve API takes it.
        delta: EdgeDelta,
        /// Removal (`true`) or restore.
        remove: bool,
    },
}

/// A run's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The screened query pairs, most popular first (original ids).
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Untimed ops issued before the stream (empty unless the workload
    /// warms its cache).
    pub warmup: Vec<Op>,
    /// The op stream.
    pub ops: Vec<Op>,
}

const ALPHAS: [f64; 3] = [0.1, 0.2, 0.3];

/// Screens the workload's pairs and campaigns on the snapshot and draws
/// the op stream.
///
/// The stream interleaves every op type at fixed cadences so host drift
/// cannot land on one type: in each [`DELTA_EVERY`] ops one edge is
/// removed and, at the next op, restored; every [`CAMPAIGN_EVERY`]-th op
/// is a campaign, taking the campaigns in turn; the rest are queries on
/// Zipf(1)-popular pairs, their `α` cycling through {0.1, 0.2, 0.3} by
/// stream position. `seed` draws the queried pairs. The churned edges are
/// drawn uniformly, from the population seed, so every run churns the
/// same edges.
///
/// With [`WorkloadSpec::warm_cache`] set, an untimed warm-up comes first:
/// each campaign once, then one query per pair, least popular first, so
/// the cache starts full with the popular pools most recent.
///
/// # Panics
///
/// If screening finds no pair or too few campaigns.
pub fn generate_inputs(spec: &WorkloadSpec, seed: u64, snap: &Snapshot, ops: usize) -> Inputs {
    let original = |v: u32| snap.relabeling.original_of(NodeId::new(v as usize));
    // Pairs and campaign targets lie within three hops: on the sparse
    // graph a four-hop ball is most of the graph, and screening it costs
    // seconds per run.
    let screen = |count, seed| PairSamplerConfig {
        pairs: count,
        max_distance: 3,
        seed,
        ..Default::default()
    };
    let pairs: Vec<(NodeId, NodeId)> =
        sample_pairs(&snap.csr, &screen(spec.pairs, mix(POPULATION_SEED ^ 2)))
            .iter()
            .map(|p| (original(p.s), original(p.t)))
            .collect();
    assert!(!pairs.is_empty(), "no pair passed screening");
    let campaigns: Vec<CampaignQuery> = sample_campaigns(
        &snap.csr,
        &screen(spec.campaigns, mix(POPULATION_SEED ^ 3)),
        CAMPAIGN_TARGETS,
    )
    .iter()
    .enumerate()
    .map(|(i, c)| CampaignQuery {
        s: original(c.s),
        targets: c.targets.iter().map(|&t| original(t)).collect(),
        alpha: ALPHAS[i % ALPHAS.len()],
        budget: CAMPAIGN_BUDGET,
    })
    .collect();
    assert_eq!(campaigns.len(), spec.campaigns, "too few campaigns passed screening");

    let mut warmup = Vec::new();
    if spec.warm_cache {
        warmup.extend(campaigns.iter().cloned().map(Op::Campaign));
        warmup.extend(
            pairs
                .iter()
                .rev()
                .map(|&(s, t)| Op::Query(Query { s, t, alpha: 0.2, budget: spec.walks })),
        );
    }

    let edges: Vec<(usize, usize)> =
        snap.social.edges().map(|(u, v)| (u.index(), v.index())).collect();
    let zipf: Vec<f64> = (1..=pairs.len())
        .scan(0.0, |acc, rank| {
            *acc += 1.0 / rank as f64;
            Some(*acc)
        })
        .collect();
    let total = *zipf.last().expect("at least one pair");
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 4));
    let mut churn = StdRng::seed_from_u64(mix(POPULATION_SEED ^ 5));
    let mut stream = Vec::with_capacity(ops);
    let removal_at = DELTA_EVERY / 2 - 1;
    let mut removed = (0, 0);
    for i in 0..ops {
        let phase = i % DELTA_EVERY;
        let op = if phase == removal_at || phase == removal_at + 1 {
            let remove = phase == removal_at;
            if remove {
                removed = edges[churn.gen_range(0..edges.len())];
            }
            let mut delta = EdgeDelta::new();
            let (u, v) = removed;
            if remove { delta.remove(u, v) } else { delta.add(u, v) }
                .expect("stand-in edges are in range");
            Op::Delta { delta, remove }
        } else if i % CAMPAIGN_EVERY == CAMPAIGN_EVERY / 2 {
            Op::Campaign(campaigns[(i / CAMPAIGN_EVERY) % campaigns.len()].clone())
        } else {
            let draw = rng.gen::<f64>() * total;
            let rank = zipf.partition_point(|&c| c <= draw).min(pairs.len() - 1);
            let (s, t) = pairs[rank];
            Op::Query(Query { s, t, alpha: ALPHAS[i % ALPHAS.len()], budget: spec.walks })
        };
        stream.push(op);
    }
    Inputs { pairs, warmup, ops: stream }
}
