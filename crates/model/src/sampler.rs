//! Batched (optionally multi-threaded) reverse sampling into a flat
//! arena pool.
//!
//! Builds the realization pool `B_l` consumed by RAF's framework (Alg. 3
//! line 2): `l` backward walks, with the type-1 paths kept. The pool is a
//! CSR-style arena — one flat `Vec<u32>` of node ids plus an offset table
//! — rather than a `Vec` of per-path `Vec`s, so sampling performs **zero
//! per-walk heap allocations**: each walk is appended in place by
//! [`crate::reverse::sample_walk_into`] and truncated away again when it
//! turns out type-0.
//!
//! Backward walks on social graphs repeat heavily, so identical paths
//! are deduplicated with multiplicities **while sampling**: each walk
//! runs in reusable stack-first scratch
//! ([`crate::reverse::WalkScratch`]) and a type-1 walk is interned into
//! a streaming hash table ([`crate::intern::PathInterner`]) the moment
//! it completes — only *unique* paths ever enter the arena, with no
//! global concatenation and no comparison sort over path contents at
//! assembly (both were `O(P)`-sized costs the interner removed; the
//! canonical lexicographic order is restored by a radix permutation
//! over the unique paths only). Estimators stay exact
//! (every count is multiplicity-weighted) while the cover instance the
//! solvers see shrinks by up to an order of magnitude.
//!
//! For large `l` the work is embarrassingly parallel; threads each use an
//! independently seeded RNG and dedup into a private interner, and the
//! per-thread interners are merged in thread-index order — determinism by
//! construction, with no mutex, and cross-thread traffic proportional to
//! the unique pool rather than the sampled walks.

use crate::intern::PathInterner;
use crate::reverse::{sample_walk_scratch, WalkOutcome, WalkScratch};
use crate::FriendingInstance;
use raf_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Below this many walks, a [`SampleRequest`] without an explicit lane
/// override always runs the sequential sampler regardless of the
/// requested thread count: thread startup would dominate the sampling
/// itself, and keeping the fallback thread-count-independent means small
/// pools are byte-identical for every `threads` value (only the master
/// seed matters).
pub const PARALLEL_THRESHOLD: u64 = 4_096;

/// Node count at which [`WalkKernel::Auto`] switches from the scalar to
/// the lockstep kernel. Calibrated against the committed bench cells in
/// `BENCH_sampling.json`: at 10k–50k nodes the per-node walk metadata
/// sits in L2 and lockstep's round-robin bookkeeping is pure overhead,
/// while the 1M-node bake-off cell (`dataset_youtube_1m_t4`) shows the
/// prefetch cohort winning 2.08× (scalar 338.4 ms vs lockstep 162.8 ms)
/// once the metadata (≥ 2 MiB at ~16 B/node) decisively overflows L2.
/// `1 << 17` (131 072) nodes ≈ the 2 MiB metadata boundary between
/// those two regimes.
pub const AUTO_LOCKSTEP_NODES: usize = 1 << 17;

/// Walks sampled between cooperative-cancellation checks: at every
/// multiple of this count a worker consults its [`SampleControl`]
/// (step budget, wall-clock deadline, probe) before starting the next
/// batch. Coarse enough that an uncontrolled run pays nothing
/// measurable, fine enough that a budgeted run overshoots its budget by
/// at most one batch of walks — and because the check sits on a walk
/// *count* boundary, the truncation point is deterministic for a fixed
/// `(seed, budget, threads)`.
pub const CANCEL_CHECK_INTERVAL: u64 = 256;

/// Cooperative control over a pool-sampling run: the cancellation token
/// the serving layer threads through the walk loop. All limits are
/// checked at [`CANCEL_CHECK_INTERVAL`] walk boundaries, never mid-walk,
/// so a controlled run samples a deterministic prefix of the
/// uncontrolled run's walk stream (identical RNG draws per walk).
///
/// `max_steps` is the *deterministic* budget: walk-steps (node advances
/// plus the terminating draw) are a pure function of the RNG stream, so
/// two runs with the same `(seed, max_steps, threads)` truncate at the
/// same walk and produce bit-identical pools. `deadline` is the
/// wall-clock cap layered on top — inherently nondeterministic, for
/// latency protection rather than reproducibility.
#[derive(Clone, Copy, Default)]
pub struct SampleControl<'a> {
    /// Walk-step budget across the run; `None` = unlimited. Split across
    /// workers like the walk shares, so parallel truncation is
    /// deterministic too.
    pub max_steps: Option<u64>,
    /// Wall-clock deadline; `None` = no time cap.
    pub deadline: Option<std::time::Instant>,
    /// Batch-boundary observer, called by each worker with the number of
    /// walks it has completed so far (before every batch, including the
    /// first at 0). This is the fault-injection seam: a probe may panic
    /// (caught and isolated by the serving layer) or sleep (forcing the
    /// wall-clock path). It must not affect the RNG stream.
    pub probe: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl std::fmt::Debug for SampleControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleControl")
            .field("max_steps", &self.max_steps)
            .field("deadline", &self.deadline)
            .field("probe", &self.probe.map(|_| "…"))
            .finish()
    }
}

impl SampleControl<'_> {
    /// No limits, no probe: a controlled request behaves exactly like an
    /// uncontrolled one.
    pub const UNLIMITED: SampleControl<'static> =
        SampleControl { max_steps: None, deadline: None, probe: None };

    /// Whether a worker that has spent `steps` of its `budget` (its
    /// share of `max_steps`) must stop before the next batch.
    fn exhausted(&self, steps: u64, budget: Option<u64>) -> bool {
        if budget.is_some_and(|b| steps >= b) {
            return true;
        }
        self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }
}

/// A pool of sampled backward walks: the `B_l` of the paper, with the
/// type-1 paths `t(g)` (the `B¹_l`) stored deduplicated in a flat arena
/// and the type-0 walks tallied by outcome.
///
/// Layout: unique path `i` occupies `nodes[offsets[i]..offsets[i+1]]`
/// of the [`PathArena`] (walk order: `t` first, then each selected
/// predecessor) and was sampled `multiplicity[i]` times. Unique paths are
/// sorted lexicographically by node sequence, so pool contents are
/// canonical for a fixed sampled multiset of walks. All counting queries —
/// [`type1_count`](PathPool::type1_count),
/// [`coverage`](PathPool::coverage),
/// [`covered_count`](PathPool::covered_count),
/// [`pmax_estimate`](PathPool::pmax_estimate) — are multiplicity-weighted
/// and therefore exactly equal to what a duplicated per-`Vec` pool would
/// report.
///
/// The arena is immutable and `Arc`-shared: cloning a pool costs a
/// reference-count bump, and the cover instance built from a pool
/// (`raf_cover::CoverInstance::from_path_pool`) is a view over the same
/// bytes rather than a copy.
///
/// Path node ids are always in the *original* id space of the instance
/// that sampled the pool: on relabeled snapshots the assembler maps the
/// unique paths back through the inverse permutation before the
/// canonical sort, so pools sampled on relabeled and unrelabeled
/// snapshots of the same graph are bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPool {
    /// The unique type-1 paths and their multiplicities.
    arena: Arc<PathArena>,
    /// Number of walks sampled in total (`l`).
    total_samples: u64,
    /// Σ multiplicity: the `|B¹_l|` of the paper.
    type1_total: u64,
    /// Type-0 walks that dangled on `ℵ0` (Lemma 2 case a).
    dangling: u64,
    /// Type-0 walks that closed a cycle (Lemma 2 case b).
    cycles: u64,
}

/// A weighted family of `u32` sequences in CSR form: sequence `i` is
/// `nodes[offsets[i]..offsets[i + 1]]` with weight `multiplicity[i]`.
/// The storage shared by a [`PathPool`] and the cover instance built
/// from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathArena {
    nodes: Vec<u32>,
    offsets: Vec<u32>,
    multiplicity: Vec<u32>,
}

impl PathArena {
    /// Wraps CSR tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables are inconsistent: `offsets` must start at 0,
    /// never decrease, end at `nodes.len()`, and hold one more entry than
    /// `multiplicity`.
    pub fn new(nodes: Vec<u32>, offsets: Vec<u32>, multiplicity: Vec<u32>) -> Self {
        assert_eq!(offsets.len(), multiplicity.len() + 1, "one offset per sequence plus one");
        assert_eq!(offsets[0], 0, "offsets start at 0");
        assert_eq!(*offsets.last().unwrap() as usize, nodes.len(), "offsets end at nodes.len()");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets never decrease");
        PathArena { nodes, offsets, multiplicity }
    }

    /// Number of sequences.
    #[inline]
    pub fn len(&self) -> usize {
        self.multiplicity.len()
    }

    /// Whether the family has no sequence.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.multiplicity.is_empty()
    }

    /// The concatenated node ids.
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Sequence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn path(&self, i: usize) -> &[u32] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The per-sequence weights.
    #[inline]
    pub fn multiplicities(&self) -> &[u32] {
        &self.multiplicity
    }

    /// Logical heap footprint in bytes: the *length* (not capacity) of
    /// the three tables. Deterministic for a fixed content regardless of
    /// allocator growth history, which is what a byte-budgeted cache
    /// needs for reproducible eviction decisions.
    pub fn heap_bytes(&self) -> usize {
        (self.nodes.len() + self.offsets.len() + self.multiplicity.len())
            * std::mem::size_of::<u32>()
    }
}

impl PathPool {
    /// An empty pool that observed `total_samples` walks, none type-1.
    fn empty(total_samples: u64, dangling: u64, cycles: u64) -> Self {
        PathPool::from_canonical_parts(
            Vec::new(),
            vec![0],
            Vec::new(),
            total_samples,
            dangling,
            cycles,
        )
    }

    /// Builds a pool from already-canonical flat parts plus its walk
    /// tallies. The caller guarantees the parts are in canonical
    /// lexicographic order; debug builds re-check the tally invariant.
    fn from_canonical_parts(
        nodes: Vec<u32>,
        offsets: Vec<u32>,
        multiplicity: Vec<u32>,
        total_samples: u64,
        dangling: u64,
        cycles: u64,
    ) -> Self {
        let type1_total = multiplicity.iter().map(|&m| u64::from(m)).sum();
        debug_assert!(type1_total + dangling + cycles <= total_samples || total_samples == 0);
        let arena = Arc::new(PathArena::new(nodes, offsets, multiplicity));
        PathPool { arena, total_samples, type1_total, dangling, cycles }
    }

    /// Assembles a pool from per-thread walk shards, merging their
    /// already-deduplicated interners in the given (thread-index) order
    /// and permuting the unique paths into canonical lexicographic order.
    /// On relabeled snapshots `original_map` translates the unique paths
    /// back to original ids before the canonical sort, so assembled pools
    /// are always in the caller's original id space.
    fn assemble(shards: Vec<WalkShard>, total_samples: u64, original_map: Option<&[u32]>) -> Self {
        let dangling = shards.iter().map(|s| s.dangling).sum();
        let cycles = shards.iter().map(|s| s.cycles).sum();
        // A single shard (the sequential sampler) is consumed in place;
        // multiple shards stream their unique paths into the first —
        // each unique path crosses threads once, with its multiplicity.
        let mut shards = shards.into_iter();
        let merged = match shards.next() {
            None => return PathPool::empty(total_samples, dangling, cycles),
            Some(first) => {
                let mut merged = first.interner;
                for shard in shards {
                    merged.absorb(&shard.interner);
                }
                merged
            }
        };
        if merged.unique_count() == 0 {
            return PathPool::empty(total_samples, dangling, cycles);
        }
        let (nodes, offsets, multiplicity) = match original_map {
            None => merged.into_canonical_parts(),
            Some(map) => merged.into_canonical_parts_mapped(map),
        };
        PathPool::from_canonical_parts(
            nodes,
            offsets,
            multiplicity,
            total_samples,
            dangling,
            cycles,
        )
    }

    /// Number of distinct type-1 paths stored in the arena.
    #[inline]
    pub fn unique_count(&self) -> usize {
        self.arena.len()
    }

    /// `|B¹_l|`: the number of type-1 realizations in the pool, counting
    /// multiplicity (i.e. the number of *sampled walks* that were type-1,
    /// exactly as in the un-deduplicated pool).
    #[inline]
    pub fn type1_count(&self) -> usize {
        self.type1_total as usize
    }

    /// Number of walks sampled in total (`l`).
    #[inline]
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Type-0 walks that dangled on `ℵ0` (Lemma 2 case a).
    #[inline]
    pub fn dangling_count(&self) -> u64 {
        self.dangling
    }

    /// Type-0 walks that closed a cycle (Lemma 2 case b).
    #[inline]
    pub fn cycle_count(&self) -> u64 {
        self.cycles
    }

    /// The `i`-th unique path as raw node indices (`t` first, walk
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= unique_count()`.
    #[inline]
    pub fn path(&self, i: usize) -> &[u32] {
        self.arena.path(i)
    }

    /// How many sampled walks produced unique path `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= unique_count()`.
    #[inline]
    pub fn multiplicity(&self, i: usize) -> u32 {
        self.arena.multiplicity[i]
    }

    /// Iterates over `(path, multiplicity)` for every unique path, in the
    /// pool's canonical (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u32)> + '_ {
        (0..self.unique_count()).map(|i| (self.path(i), self.multiplicity(i)))
    }

    /// The pool's implied `p_max` estimate `|B¹_l| / l`.
    pub fn pmax_estimate(&self) -> f64 {
        if self.total_samples == 0 {
            0.0
        } else {
            self.type1_total as f64 / self.total_samples as f64
        }
    }

    /// Number of sampled type-1 walks covered by `I` (the `F(B_l, I)` of
    /// the paper), counting multiplicity. One pass over the arena with
    /// packed-bitset membership probes.
    pub fn covered_count(&self, invitations: &crate::InvitationSet) -> usize {
        let mut covered = 0u64;
        for (path, mult) in self.iter() {
            if path.iter().all(|&v| invitations.contains_index(v as usize)) {
                covered += u64::from(mult);
            }
        }
        covered as usize
    }

    /// Estimates `f(I)` against this pool: the fraction of all sampled
    /// walks covered by `I` (Corollary 1 applied to a fixed sample),
    /// implemented as [`covered_count`](Self::covered_count) over `l`.
    ///
    /// Evaluating many invitation sets against *one* pool is both faster
    /// than resampling per set and statistically paired (common random
    /// numbers), which is how the experiment harness compares RAF with
    /// the baselines at matched noise.
    pub fn coverage(&self, invitations: &crate::InvitationSet) -> f64 {
        if self.total_samples == 0 {
            return 0.0;
        }
        self.covered_count(invitations) as f64 / self.total_samples as f64
    }

    /// The pool's shared arena — the storage
    /// `raf_cover::CoverInstance::from_path_pool` keeps as its set family.
    #[inline]
    pub fn arena(&self) -> &Arc<PathArena> {
        &self.arena
    }

    /// Logical heap footprint of the pool's arena in bytes (see
    /// [`PathArena::heap_bytes`]). Clones share the arena, so this is
    /// the cost of the content, however many handles hold it.
    pub fn heap_bytes(&self) -> usize {
        self.arena.heap_bytes()
    }

    /// A word-wise FxHash over the whole arena (nodes, offsets,
    /// multiplicities) and the walk tallies: the integrity stamp a cache
    /// checks before answering from the pool. O(pool) — the same order
    /// as the cover solve it guards — and any change to a stored node id,
    /// weight, boundary or tally changes it (up to hash collisions).
    pub fn content_hash(&self) -> u64 {
        let a = &*self.arena;
        fxhash::hash64(&[
            fxhash::hash_u32s(&a.nodes),
            fxhash::hash_u32s(&a.offsets),
            fxhash::hash_u32s(&a.multiplicity),
            self.total_samples,
            self.dangling,
            self.cycles,
        ])
    }

    /// A copy of the pool whose arena differs from this one in exactly
    /// one node id (the last stored one, replaced by `(id + 1) % universe`
    /// for the pool's node count `universe ≥ 2`), every table length and
    /// tally unchanged — the content fault an integrity check must catch.
    /// `None` when no path is stored.
    pub fn with_one_node_changed(&self, universe: usize) -> Option<PathPool> {
        let last = self.arena.nodes.len().checked_sub(1)?;
        let mut arena = PathArena::clone(&self.arena);
        arena.nodes[last] = ((arena.nodes[last] as usize + 1) % universe) as u32;
        Some(PathPool { arena: Arc::new(arena), ..self.clone() })
    }
}

/// A thread-private streaming sampler shard: each walk runs in reusable
/// stack-first scratch and a type-1 walk is interned the moment it
/// completes — a duplicate (the common case) only bumps a multiplicity
/// and never touches the arena; type-0 walks cost nothing to discard.
struct WalkShard {
    interner: PathInterner,
    scratch: WalkScratch,
    dangling: u64,
    cycles: u64,
}

impl WalkShard {
    fn new() -> Self {
        WalkShard {
            interner: PathInterner::new(),
            scratch: WalkScratch::new(),
            dangling: 0,
            cycles: 0,
        }
    }

    /// Samples one backward walk and streams it into the interner,
    /// returning the walk's *step cost*: the nodes it recorded plus the
    /// terminating draw. Steps are a pure function of the RNG stream, so
    /// they are the deterministic work unit the budgeted sampler meters.
    fn sample<R: Rng>(&mut self, instance: &FriendingInstance<'_>, rng: &mut R) -> u64 {
        let outcome = sample_walk_scratch(instance, rng, &mut self.scratch);
        self.finish(outcome)
    }

    /// Books the walk currently in `scratch` under `outcome` — interning
    /// a type-1 path, tallying a type-0 termination — and returns its
    /// step cost. Shared by the scalar path (via
    /// [`sample`](Self::sample)) and the lockstep kernel's stepwise
    /// walks, so both meter identical work units per walk.
    fn finish(&mut self, outcome: WalkOutcome) -> u64 {
        match outcome {
            WalkOutcome::ReachedSeed => self.interner.intern_copy(self.scratch.nodes(), 1),
            WalkOutcome::Dangling => self.dangling += 1,
            WalkOutcome::Cycle => self.cycles += 1,
        }
        self.scratch.nodes().len() as u64 + 1
    }

    /// Samples up to `l` walks under a control's limits (a worker's
    /// `budget` share of `SampleControl::max_steps`), returning the walks
    /// actually sampled. Limits and the probe fire only at
    /// [`CANCEL_CHECK_INTERVAL`] boundaries, so the sampled walks are a
    /// deterministic prefix of the uncontrolled stream.
    fn run<R: Rng>(
        &mut self,
        instance: &FriendingInstance<'_>,
        l: u64,
        rng: &mut R,
        control: &SampleControl<'_>,
        budget: Option<u64>,
    ) -> u64 {
        let mut sampled = 0u64;
        let mut steps = 0u64;
        while sampled < l {
            if let Some(probe) = control.probe {
                probe(sampled);
            }
            if control.exhausted(steps, budget) {
                break;
            }
            let batch = (l - sampled).min(CANCEL_CHECK_INTERVAL);
            for _ in 0..batch {
                steps += self.sample(instance, rng);
            }
            sampled += batch;
        }
        sampled
    }
}

/// Which inner loop executes a sampling run's walks.
///
/// The kernel is a pure *scheduling* choice: every kernel consumes the
/// same per-lane RNG streams in the same per-lane order, so for a fixed
/// [`SampleRequest`] configuration (walks, seed, lanes, budget) the
/// returned pool is bit-identical across kernels. Only wall-clock
/// behavior differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum WalkKernel {
    /// Pick per instance: scalar below [`AUTO_LOCKSTEP_NODES`] nodes,
    /// lockstep at or above it — the committed bench cells show the
    /// prefetch cohort only pays for itself once the per-node walk
    /// metadata overflows L2 (see the constant's docs). Resolved by
    /// [`WalkKernel::resolve`] when a request runs; because kernels are
    /// pool-preserving, the heuristic can never change a result.
    #[default]
    Auto,
    /// One walk at a time per lane, to completion — the classic loop.
    /// Each walk step is a serial dependent-load chain (metadata record,
    /// then neighbor slice), so throughput is memory-latency-bound once
    /// the graph overflows the last-level cache.
    Scalar,
    /// All of a worker's lanes advance together, one step per lane per
    /// round, and each step software-prefetches the *next* node's
    /// metadata record before the scheduler moves to the other lanes —
    /// by the time the cohort wheels back, the load has (ideally)
    /// arrived. Converts the scalar kernel's serial latency chain into
    /// memory-level parallelism across the cohort. Loses on graphs small
    /// enough to sit in L2, where there is no latency to hide and the
    /// round-robin bookkeeping is pure overhead.
    Lockstep,
}

impl WalkKernel {
    /// Both concrete kernels, in bake-off order (scalar is the
    /// reference). `Auto` is a resolution policy, not a third loop, so
    /// it is deliberately absent.
    pub const ALL: [WalkKernel; 2] = [WalkKernel::Scalar, WalkKernel::Lockstep];

    /// Stable lowercase name, as used by `--walk-kernel` and the bench
    /// history's `kernel_ns` keys.
    pub fn name(self) -> &'static str {
        match self {
            WalkKernel::Auto => "auto",
            WalkKernel::Scalar => "scalar",
            WalkKernel::Lockstep => "lockstep",
        }
    }

    /// Inverse of [`name`](Self::name); `None` for unknown spellings.
    pub fn parse(raw: &str) -> Option<WalkKernel> {
        match raw {
            "auto" => Some(WalkKernel::Auto),
            "scalar" => Some(WalkKernel::Scalar),
            "lockstep" => Some(WalkKernel::Lockstep),
            _ => None,
        }
    }

    /// The concrete kernel a request over a `nodes`-node instance runs:
    /// `Auto` resolves by the [`AUTO_LOCKSTEP_NODES`] threshold; the
    /// explicit kernels resolve to themselves.
    pub fn resolve(self, nodes: usize) -> WalkKernel {
        match self {
            WalkKernel::Auto if nodes >= AUTO_LOCKSTEP_NODES => WalkKernel::Lockstep,
            WalkKernel::Auto => WalkKernel::Scalar,
            concrete => concrete,
        }
    }
}

impl std::fmt::Display for WalkKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One lane's slice of a sampling run: its decorrelated RNG seed, its
/// share of the requested walks, and its share of the step budget.
struct LaneSpec {
    seed: u64,
    share: u64,
    budget: Option<u64>,
}

/// A typed sampling run: the single entry point that replaced
/// `sample_pool` / `sample_pool_controlled` / `sample_pool_parallel`.
///
/// ```
/// use raf_graph::{GraphBuilder, NodeId, WeightScheme};
/// use raf_model::sampler::{SampleRequest, WalkKernel};
/// use raf_model::FriendingInstance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// b.add_edges(vec![(0, 1), (1, 2), (2, 3)])?;
/// let g = b.build(WeightScheme::UniformByDegree)?.to_csr();
/// let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3))?;
/// let pool = SampleRequest::new(10_000)
///     .seed(7)
///     .kernel(WalkKernel::Lockstep)
///     .run(&inst);
/// assert_eq!(pool.total_samples(), 10_000);
/// # Ok(())
/// # }
/// ```
///
/// # Determinism model: lanes
///
/// A run is decomposed into `L` **lanes** — virtual workers. Lane `i`
/// draws from `StdRng::seed_from_u64(seed ⊕ splitmix(i+1))` (the master
/// seed directly when `L == 1`) and owns a fixed share of the walks
/// (`walks/L`, the remainder spread over the low lane indices), exactly
/// like the per-thread split always did. The
/// per-lane interners merge in lane-index order at assembly. The pool is
/// therefore a pure function of `(instance, walks, seed, lanes,
/// max_steps)`: OS thread count and kernel choice never change the
/// result, only how fast it arrives. By default `L` follows the legacy
/// rule — one lane when `threads == 1` or `walks <`
/// [`PARALLEL_THRESHOLD`], otherwise `threads` lanes — which keeps every
/// pool bit-identical to what the original per-thread entry points
/// produced.
/// [`lanes`](Self::lanes) overrides `L` explicitly (e.g. to give the
/// lockstep kernel a wide cohort on a single core, or to pin pools
/// across machines with different core counts).
///
/// # Budget unit
///
/// `SampleControl::max_steps` is denominated in **walk-steps**: one unit
/// per node a walk records plus one for its terminating draw — a pure
/// function of the RNG stream, unlike wall-clock time. The budget is
/// split across lanes exactly like the walk shares. Each lane checks its
/// spent steps (and the probe, and the deadline) only at
/// [`CANCEL_CHECK_INTERVAL`]-walk boundaries, never mid-walk and never
/// mid-batch, so a budgeted run samples a deterministic prefix of the
/// unbudgeted run's per-lane walk streams — identical across kernels and
/// OS thread counts (property-tested in `tests/kernel_equivalence.rs`).
#[derive(Debug, Clone, Copy)]
pub struct SampleRequest<'a> {
    walks: u64,
    seed: u64,
    threads: usize,
    lanes: Option<usize>,
    kernel: WalkKernel,
    control: Option<&'a SampleControl<'a>>,
}

impl<'a> SampleRequest<'a> {
    /// A request for `walks` backward walks: sequential, master seed 0,
    /// auto kernel (resolved per instance at [`run`](Self::run) time),
    /// no control — refine with the builder methods.
    pub fn new(walks: u64) -> SampleRequest<'a> {
        SampleRequest {
            walks,
            seed: 0,
            threads: 1,
            lanes: None,
            kernel: WalkKernel::Auto,
            control: None,
        }
    }

    /// Replaces the walk count, keeping every other knob — how the
    /// repair path turns a cache entry's request template into a
    /// mini-request for exactly the invalidated multiplicity mass.
    pub fn with_walks(mut self, walks: u64) -> Self {
        self.walks = walks;
        self
    }

    /// Master seed the lane seeds derive from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// OS worker threads (minimum 1). Threads only *execute* lanes —
    /// contiguous chunks, merged in lane order — so the thread count
    /// never changes the pool, only the default lane count (see the
    /// determinism model above).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pins the lane count (minimum 1), overriding the legacy
    /// `threads`-derived default. The pool then depends on `lanes` but
    /// not on `threads`.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes.max(1));
        self
    }

    /// Selects the inner loop. Never changes the pool.
    pub fn kernel(mut self, kernel: WalkKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Attaches cooperative control (step budget, deadline, probe).
    pub fn control(mut self, control: &'a SampleControl<'a>) -> Self {
        self.control = Some(control);
        self
    }

    /// The lane count this request resolves to: the explicit override,
    /// or the legacy rule (1 when `threads <= 1` or `walks <`
    /// [`PARALLEL_THRESHOLD`], else `threads`).
    pub fn effective_lanes(&self) -> usize {
        match self.lanes {
            Some(lanes) => lanes,
            None => {
                let threads = self.threads.max(1);
                if threads == 1 || self.walks < PARALLEL_THRESHOLD {
                    1
                } else {
                    threads
                }
            }
        }
    }

    /// Runs the request and assembles the pool. See the type-level docs
    /// for the determinism guarantees; panics propagate from a panicking
    /// probe (the fault-injection seam the serving layer catches).
    pub fn run(&self, instance: &FriendingInstance<'_>) -> PathPool {
        let unlimited = SampleControl::UNLIMITED;
        let control = self.control.unwrap_or(&unlimited);
        let lanes = self.effective_lanes();
        let specs: Vec<LaneSpec> = (0..lanes as u64)
            .map(|i| LaneSpec {
                seed: if lanes == 1 { self.seed } else { self.seed ^ splitmix64(i + 1) },
                share: self.walks / lanes as u64 + u64::from((self.walks % lanes as u64) > i),
                budget: control
                    .max_steps
                    .map(|b| b / lanes as u64 + u64::from((b % lanes as u64) > i)),
            })
            .collect();
        let threads = self.threads.max(1).min(lanes);
        let kernel = self.kernel.resolve(instance.node_count());
        let groups: Vec<(Vec<WalkShard>, u64)> = if threads == 1 {
            vec![run_lane_group(instance, &specs, control, kernel)]
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                let mut start = 0usize;
                for i in 0..threads {
                    let count = lanes / threads + usize::from(lanes % threads > i);
                    let chunk = &specs[start..start + count];
                    start += count;
                    handles.push(
                        scope.spawn(move || run_lane_group(instance, chunk, control, kernel)),
                    );
                }
                handles.into_iter().map(|h| h.join().expect("sampler thread panicked")).collect()
            })
        };
        let sampled = groups.iter().map(|(_, s)| s).sum();
        let shards: Vec<WalkShard> = groups.into_iter().flat_map(|(shards, _)| shards).collect();
        PathPool::assemble(shards, sampled, instance.original_table())
    }
}

/// The outcome of [`repair_pool`]: either an incrementally repaired pool
/// or a directive to resample from scratch.
#[derive(Debug, Clone)]
pub enum PoolRepair {
    /// The pool was repaired in place: stale paths dropped, their
    /// multiplicity mass re-sampled on the post-delta instance, and the
    /// arena re-canonicalized.
    Repaired {
        /// The repaired pool.
        pool: PathPool,
        /// Unique paths that were invalidated and dropped.
        stale_unique: usize,
        /// Raw walks re-sampled (the invalidated multiplicity mass).
        resampled: u64,
    },
    /// The delta touched the initiator or the target, changing the seed
    /// set or the walks' first draw site — every walk (including the
    /// untracked type-0 tallies) is stale, so the caller must resample
    /// the full pool from its pure seed on the post-delta instance.
    FullResample,
}

/// Incrementally repairs `pool` after an edge delta whose effective
/// endpoint set is `touched` (original-space ids, as reported by
/// `DeltaApplied::touched_nodes`).
///
/// Under degree-derived weight schemes churn on `{u, v}` renormalizes
/// the whole in-weight distribution at both endpoints, so exactly the
/// stored walks that *drew a step* at a touched endpoint are stale —
/// resolved through the
/// [`EdgeWalkIndex`](crate::walk_index::EdgeWalkIndex) in time
/// proportional to the affected walks. Those paths are dropped and their multiplicity mass
/// is re-sampled on the post-delta `instance` through `template` (the
/// entry's [`SampleRequest`] with its walk count replaced by the stale
/// mass — the seed should be a *repair* seed derived from the pool seed
/// and the delta serial, keeping the repaired pool a pure function of
/// `(instance, walk history, seed, lanes)`). Kept paths and re-sampled
/// paths are both in canonical order, so one sorted merge (equal paths
/// summing their multiplicities) yields the canonical repaired arena:
/// two pools that agree as multisets still agree byte-for-byte after
/// repair.
///
/// Conservation: `total_samples` is unchanged; the stale type-1 mass
/// redistributes into the mini-pool's type-1/dangling/cycle tallies.
/// Type-0 walks are tallied but not stored, so the (typically tiny)
/// fraction of them that drew at a touched endpoint cannot be
/// identified and keeps its old classification — the documented
/// approximation, bounded by the type-0 share of the touched buckets
/// and property-tested against resample-from-scratch in
/// `tests/churn_repair.rs`.
///
/// Returns [`PoolRepair::FullResample`] when `touched` contains the
/// initiator or the target (seed-set / first-draw changes invalidate
/// walks the arena never stored).
pub fn repair_pool(
    pool: &PathPool,
    index: &crate::walk_index::EdgeWalkIndex,
    touched: &[u32],
    instance: &FriendingInstance<'_>,
    template: SampleRequest<'_>,
) -> PoolRepair {
    let s = instance.initiator_original().index() as u32;
    let t = instance.target_original().index() as u32;
    if touched.iter().any(|&v| v == s || v == t) {
        return PoolRepair::FullResample;
    }
    let invalidation = index.invalidated(pool, touched);
    if invalidation.is_empty() {
        return PoolRepair::Repaired { pool: pool.clone(), stale_unique: 0, resampled: 0 };
    }
    let mini = template.with_walks(invalidation.mass).run(instance);
    debug_assert_eq!(mini.total_samples(), invalidation.mass);
    let mut stale = invalidation.stale.iter().copied().peekable();
    let kept = (0..pool.unique_count()).filter(|&i| {
        let dropped = stale.peek() == Some(&(i as u32));
        if dropped {
            stale.next();
        }
        !dropped
    });
    let (nodes, offsets, multiplicity) = merge_canonical(pool, kept, &mini);
    let repaired = PathPool::from_canonical_parts(
        nodes,
        offsets,
        multiplicity,
        pool.total_samples(),
        pool.dangling_count() + mini.dangling_count(),
        pool.cycle_count() + mini.cycle_count(),
    );
    debug_assert_eq!(
        repaired.type1_count() as u64 + repaired.dangling_count() + repaired.cycle_count(),
        pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(),
        "repair must conserve the walk tally"
    );
    PoolRepair::Repaired {
        pool: repaired,
        stale_unique: invalidation.stale.len(),
        resampled: invalidation.mass,
    }
}

/// Merges the `kept` unique paths of `pool` with every unique path of
/// `fresh` into canonical flat parts. Both sides are canonical (sorted by
/// `[u32]::cmp`, which is the interner's canonical order) and distinct,
/// so one linear merge suffices; a path present on both sides appears
/// once with the summed multiplicity.
fn merge_canonical(
    pool: &PathPool,
    kept: impl Iterator<Item = usize>,
    fresh: &PathPool,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    use std::cmp::Ordering;
    let mut nodes = Vec::with_capacity(pool.arena.nodes.len() + fresh.arena.nodes.len());
    let mut offsets = Vec::with_capacity(pool.unique_count() + fresh.unique_count() + 1);
    let mut multiplicity = Vec::with_capacity(pool.unique_count() + fresh.unique_count());
    offsets.push(0u32);
    let mut left = kept.map(|i| (pool.path(i), pool.multiplicity(i))).peekable();
    let mut right = fresh.iter().peekable();
    loop {
        let order = match (left.peek(), right.peek()) {
            (None, None) => break,
            (Some(a), Some(b)) => a.0.cmp(b.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
        };
        let (path, mult) = match order {
            Ordering::Less => left.next().unwrap(),
            Ordering::Greater => right.next().unwrap(),
            Ordering::Equal => {
                let (path, a) = left.next().unwrap();
                let (_, b) = right.next().unwrap();
                (path, a.checked_add(b).expect("path multiplicity overflows u32"))
            }
        };
        nodes.extend_from_slice(path);
        offsets.push(u32::try_from(nodes.len()).expect("path arena overflows u32 offsets"));
        multiplicity.push(mult);
    }
    (nodes, offsets, multiplicity)
}

/// Executes one OS thread's contiguous chunk of lanes under `kernel`.
fn run_lane_group(
    instance: &FriendingInstance<'_>,
    specs: &[LaneSpec],
    control: &SampleControl<'_>,
    kernel: WalkKernel,
) -> (Vec<WalkShard>, u64) {
    match kernel {
        // `Auto` is resolved against the instance before dispatch; the
        // scalar loop is the safe identity if one ever slips through.
        WalkKernel::Auto | WalkKernel::Scalar => run_lanes_scalar(instance, specs, control),
        WalkKernel::Lockstep => run_lanes_lockstep(instance, specs, control),
    }
}

/// The scalar kernel: each lane runs to completion in turn, exactly the
/// classic per-thread sequential loop.
fn run_lanes_scalar(
    instance: &FriendingInstance<'_>,
    specs: &[LaneSpec],
    control: &SampleControl<'_>,
) -> (Vec<WalkShard>, u64) {
    let mut shards = Vec::with_capacity(specs.len());
    let mut sampled = 0u64;
    for spec in specs {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut shard = WalkShard::new();
        sampled += shard.run(instance, spec.share, &mut rng, control, spec.budget);
        shards.push(shard);
    }
    (shards, sampled)
}

/// Per-lane state for the lockstep kernel: the quantities the scalar
/// [`WalkShard::run`] loop keeps in locals, plus the in-flight walk
/// position, so the cohort scheduler can advance a lane one step at a
/// time and put it down again.
struct LaneState {
    shard: WalkShard,
    rng: StdRng,
    share: u64,
    budget: Option<u64>,
    sampled: u64,
    steps: u64,
    /// Walks left before the next batch-boundary control check.
    batch_left: u64,
    /// Node the in-flight walk stands on; meaningful iff `walking`.
    current: u32,
    walking: bool,
    done: bool,
}

impl LaneState {
    fn new(spec: &LaneSpec) -> Self {
        LaneState {
            shard: WalkShard::new(),
            rng: StdRng::seed_from_u64(spec.seed),
            share: spec.share,
            budget: spec.budget,
            sampled: 0,
            steps: 0,
            batch_left: 0,
            current: 0,
            walking: false,
            done: false,
        }
    }

    /// Advances this lane by one walk step (starting a new walk — and,
    /// at batch boundaries, running the probe/budget/deadline checks —
    /// as needed). Mirrors [`WalkShard::run`] + `sample_walk_scratch`
    /// exactly: per-lane RNG draws, probe calls, batch accounting, and
    /// walk outcomes are identical; only the interleaving across lanes
    /// differs, which the per-lane RNG streams make unobservable in the
    /// pool.
    fn advance(&mut self, instance: &FriendingInstance<'_>, control: &SampleControl<'_>) {
        if !self.walking {
            if self.batch_left == 0 {
                if self.sampled >= self.share {
                    self.done = true;
                    return;
                }
                if let Some(probe) = control.probe {
                    probe(self.sampled);
                }
                if control.exhausted(self.steps, self.budget) {
                    self.done = true;
                    return;
                }
                self.batch_left = (self.share - self.sampled).min(CANCEL_CHECK_INTERVAL);
            }
            let t = instance.target();
            self.shard.scratch.begin(t.index() as u32);
            self.current = t.index() as u32;
            self.walking = true;
        }
        let g = instance.graph();
        match g.select_guided(NodeId::new(self.current as usize), self.rng.gen::<f64>()) {
            None => self.complete(WalkOutcome::Dangling),
            Some(next) => {
                // Seed and cycle checks commute — see sample_walk_into.
                if instance.is_seed(next) {
                    self.complete(WalkOutcome::ReachedSeed);
                    return;
                }
                let next_id = next.index() as u32;
                if self.shard.scratch.contains(next_id) {
                    self.complete(WalkOutcome::Cycle);
                    return;
                }
                self.shard.scratch.push(next_id);
                // The next step's dependent load: start pulling this
                // lane's metadata record now, so it lands while the rest
                // of the cohort takes its turn.
                g.prefetch_node(next);
                self.current = next_id;
            }
        }
    }

    fn complete(&mut self, outcome: WalkOutcome) {
        self.steps += self.shard.finish(outcome);
        self.sampled += 1;
        self.batch_left -= 1;
        self.walking = false;
    }
}

/// The lockstep kernel: round-robin over the chunk's live lanes, one
/// step per lane per round, so each lane's freshly issued prefetch has
/// the whole rest of the cohort's work to complete under.
fn run_lanes_lockstep(
    instance: &FriendingInstance<'_>,
    specs: &[LaneSpec],
    control: &SampleControl<'_>,
) -> (Vec<WalkShard>, u64) {
    let mut lanes: Vec<LaneState> = specs.iter().map(LaneState::new).collect();
    let mut live: Vec<usize> = (0..lanes.len()).collect();
    while !live.is_empty() {
        live.retain(|&i| {
            lanes[i].advance(instance, control);
            !lanes[i].done
        });
    }
    let sampled = lanes.iter().map(|lane| lane.sampled).sum();
    (lanes.into_iter().map(|lane| lane.shard).collect(), sampled)
}

/// Worker thread count from the `RAF_THREADS` environment variable
/// (default 1 when unset or unparsable, minimum 1).
///
/// This is the repo-wide knob CI uses to exercise the parallel sampler's
/// determinism on every push: the test suites fold this value into their
/// thread matrices, and the `raf` CLI uses it as the `--threads` default.
pub fn threads_from_env() -> usize {
    std::env::var("RAF_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .map_or(1, |t| t.max(1))
}

/// The pure per-pair pool seed: `master ⊕ splitmix64(s ‖ t)` with the
/// pair packed as `(s << 32) | t`.
///
/// This is **the** derivation shared by every layer that samples a
/// per-pair pool from one master seed — the serve cache's pool seeds and
/// the campaign sampler both use it — so a campaign pool for `(s, t)`
/// and a single-target serve query on the same pair draw bit-identical
/// walk streams and can share one cache entry. Node ids are in the
/// *instance's* space (post-relabeling when a relabeled layout serves).
pub fn pair_seed(master: u64, s: u32, t: u32) -> u64 {
    master ^ splitmix64((u64::from(s) << 32) | u64::from(t))
}

/// SplitMix64 finalizer — decorrelates per-thread seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk_index::EdgeWalkIndex;
    use raf_graph::{CsrGraph, EdgeDelta, GraphBuilder, NodeId, SocialGraph, WeightScheme};

    fn path_csr(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edges((0..n - 1).map(|i| (i, i + 1))).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap().to_csr()
    }

    /// Two disjoint routes 0-1-2-3-7 and 0-4-5-6-7: seeds {1, 4}, so
    /// the stored type-1 shapes are [7,3,2] and [7,6,5].
    fn two_route_social() -> SocialGraph {
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 1), (1, 2), (2, 3), (3, 7), (0, 4), (4, 5), (5, 6), (6, 7)]).unwrap();
        b.build(WeightScheme::UniformByDegree).unwrap()
    }

    #[test]
    fn repair_conserves_tallies_and_is_deterministic() {
        let social = two_route_social();
        let csr0 = social.to_csr();
        let inst0 = FriendingInstance::new(&csr0, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(8_000).seed(5).run(&inst0);
        let applied = EdgeDelta::parse("-2:3,+2:6")
            .unwrap()
            .apply(&social, WeightScheme::UniformByDegree)
            .unwrap();
        let touched = applied.touched_nodes();
        assert_eq!(touched, vec![2, 3, 6]);
        let csr1 = applied.graph.to_csr();
        let inst1 = FriendingInstance::new(&csr1, NodeId::new(0), NodeId::new(7)).unwrap();
        let index = EdgeWalkIndex::build(&pool, csr0.node_count());
        let expect_mass = index.invalidated(&pool, &touched).mass;
        assert!(expect_mass > 0, "fixture delta should invalidate stored walks");
        let template = SampleRequest::new(0).seed(0xC0FFEE);
        let repaired = match repair_pool(&pool, &index, &touched, &inst1, template) {
            PoolRepair::Repaired { pool, stale_unique, resampled } => {
                assert!(stale_unique > 0);
                assert_eq!(resampled, expect_mass);
                pool
            }
            PoolRepair::FullResample => panic!("delta avoids s/t; repair must be incremental"),
        };
        // Conservation: the walk tally is redistributed, never lost.
        assert_eq!(repaired.total_samples(), pool.total_samples());
        assert_eq!(
            repaired.type1_count() as u64 + repaired.dangling_count() + repaired.cycle_count(),
            pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(),
        );
        // Every repaired path walks real edges of the post-delta graph
        // and ends one hop from a seed.
        for (path, _) in repaired.iter() {
            for w in path.windows(2) {
                let (u, v) = (NodeId::new(w[0] as usize), NodeId::new(w[1] as usize));
                assert!(applied.graph.has_edge(u, v), "repaired path uses dead edge {w:?}");
            }
            let last = NodeId::new(*path.last().unwrap() as usize);
            assert!(
                inst1.seeds().iter().any(|&s| applied.graph.has_edge(last, s)),
                "repaired path cannot terminate into the seed set"
            );
        }
        // Purity: the same inputs repair to the byte-identical pool,
        // regardless of thread count.
        for threads in [1usize, 4] {
            let again =
                match repair_pool(&pool, &index, &touched, &inst1, template.threads(threads)) {
                    PoolRepair::Repaired { pool, .. } => pool,
                    PoolRepair::FullResample => unreachable!(),
                };
            assert_eq!(again, repaired, "repair not pure at threads={threads}");
        }
    }

    #[test]
    fn repair_noop_when_no_stored_walk_is_touched() {
        let social = two_route_social();
        let csr = social.to_csr();
        let inst = FriendingInstance::new(&csr, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(4_000).seed(2).run(&inst);
        let index = EdgeWalkIndex::build(&pool, csr.node_count());
        // Node 1 is a seed: never a draw site, so its bucket is empty.
        match repair_pool(&pool, &index, &[1], &inst, SampleRequest::new(0).seed(9)) {
            PoolRepair::Repaired { pool: p, stale_unique, resampled } => {
                assert_eq!(stale_unique, 0);
                assert_eq!(resampled, 0);
                assert_eq!(p, pool);
            }
            PoolRepair::FullResample => panic!("untouched pool must not resample"),
        }
    }

    #[test]
    fn repair_demands_full_resample_when_s_or_t_is_touched() {
        let social = two_route_social();
        let csr = social.to_csr();
        let inst = FriendingInstance::new(&csr, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(4_000).seed(2).run(&inst);
        let index = EdgeWalkIndex::build(&pool, csr.node_count());
        let template = SampleRequest::new(0).seed(9);
        // Touching the initiator changes the seed set; touching the
        // target changes every walk's first draw.
        for touched in [[0u32, 5], [7, 5]] {
            assert!(matches!(
                repair_pool(&pool, &index, &touched, &inst, template),
                PoolRepair::FullResample
            ));
        }
    }

    #[test]
    fn repair_on_relabeled_snapshot_stays_in_original_space() {
        let social = two_route_social();
        let applied = EdgeDelta::parse("-2:3")
            .unwrap()
            .apply(&social, WeightScheme::UniformByDegree)
            .unwrap();
        let touched = applied.touched_nodes();
        let plain_csr = social.to_csr();
        let plain_inst =
            FriendingInstance::new(&plain_csr, NodeId::new(0), NodeId::new(7)).unwrap();
        let pool = SampleRequest::new(8_000).seed(5).run(&plain_inst);
        let index = EdgeWalkIndex::build(&pool, plain_csr.node_count());
        let template = SampleRequest::new(0).seed(0xC0FFEE);
        // Post-delta instances on the plain and hub-BFS layouts must
        // repair to bit-identical pools: paths (and the touched set) are
        // original-space, and the mini-pool inherits the sampler's
        // relabel equivariance.
        let plain1 = applied.graph.to_csr();
        let inst_plain = FriendingInstance::new(&plain1, NodeId::new(0), NodeId::new(7)).unwrap();
        let relabeling = std::sync::Arc::new(raf_graph::Relabeling::hub_bfs(&applied.graph));
        let hub_csr = applied.graph.to_csr_relabeled(&relabeling);
        let inst_hub =
            FriendingInstance::relabeled(&hub_csr, NodeId::new(0), NodeId::new(7), relabeling)
                .unwrap();
        let a = match repair_pool(&pool, &index, &touched, &inst_plain, template) {
            PoolRepair::Repaired { pool, .. } => pool,
            PoolRepair::FullResample => unreachable!(),
        };
        let b = match repair_pool(&pool, &index, &touched, &inst_hub, template) {
            PoolRepair::Repaired { pool, .. } => pool,
            PoolRepair::FullResample => unreachable!(),
        };
        assert_eq!(a, b);
    }

    #[test]
    fn pool_counts_consistent() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(10_000).seed(3).run(&inst);
        assert_eq!(pool.total_samples(), 10_000);
        assert!(pool.type1_count() <= 10_000);
        assert_eq!(pool.type1_count() as u64 + pool.dangling_count() + pool.cycle_count(), 10_000);
        // Closed form type-1 rate is 1/4 on this line.
        assert!((pool.pmax_estimate() - 0.25).abs() < 0.02);
        // The only type-1 shape on the line is [4, 3, 2]: one unique path.
        assert_eq!(pool.unique_count(), 1);
        assert_eq!(pool.path(0), &[4, 3, 2]);
        assert_eq!(pool.multiplicity(0) as usize, pool.type1_count());
    }

    #[test]
    fn parallel_matches_sequential_rate() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(40_000).seed(17).threads(4).run(&inst);
        assert_eq!(pool.total_samples(), 40_000);
        assert!((pool.pmax_estimate() - 0.25).abs() < 0.02, "rate {}", pool.pmax_estimate());
    }

    #[test]
    fn parallel_reproducible() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let a = SampleRequest::new(20_000).seed(99).threads(4).run(&inst);
        let b = SampleRequest::new(20_000).seed(99).threads(4).run(&inst);
        assert_eq!(a.type1_count(), b.type1_count());
        assert_eq!(a, b);
    }

    #[test]
    fn below_threshold_is_thread_count_independent() {
        // l < PARALLEL_THRESHOLD ⇒ every thread count resolves to one
        // lane with the master seed: byte-identical pools.
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let l = PARALLEL_THRESHOLD - 1;
        let seq = SampleRequest::new(l).seed(5).run(&inst);
        for threads in [1usize, 2, 4, 8] {
            let par = SampleRequest::new(l).seed(5).threads(threads).run(&inst);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn unlimited_control_is_bit_identical_to_uncontrolled() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        for (l, threads) in [(2_000u64, 1usize), (20_000, 4)] {
            let plain = SampleRequest::new(l).seed(42).threads(threads).run(&inst);
            let controlled = SampleRequest::new(l)
                .seed(42)
                .threads(threads)
                .control(&SampleControl::UNLIMITED)
                .run(&inst);
            assert_eq!(plain, controlled, "l={l} threads={threads}");
        }
    }

    #[test]
    fn pair_seed_is_pure_and_pair_sensitive() {
        // The derivation every layer shares: master ⊕ splitmix64(s ‖ t).
        assert_eq!(pair_seed(7, 3, 9), 7 ^ splitmix64((3u64 << 32) | 9));
        assert_eq!(pair_seed(7, 3, 9), pair_seed(7, 3, 9));
        assert_ne!(pair_seed(7, 3, 9), pair_seed(7, 9, 3), "pair order matters");
        assert_ne!(pair_seed(7, 3, 9), pair_seed(8, 3, 9), "master matters");
    }

    #[test]
    fn kernels_produce_identical_pools() {
        // The tentpole invariant: lockstep scheduling is a pure
        // reordering. For matched lane counts the pools are bit-equal —
        // across budgets, lane counts, and OS thread counts.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (2, 4), (3, 5), (5, 1)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let budgeted = SampleControl { max_steps: Some(7_000), ..SampleControl::UNLIMITED };
        for lanes in [1usize, 3, 16] {
            for threads in [1usize, 4] {
                for control in [&SampleControl::UNLIMITED, &budgeted] {
                    let run = |kernel| {
                        SampleRequest::new(12_000)
                            .seed(29)
                            .threads(threads)
                            .lanes(lanes)
                            .kernel(kernel)
                            .control(control)
                            .run(&inst)
                    };
                    let scalar = run(WalkKernel::Scalar);
                    let lockstep = run(WalkKernel::Lockstep);
                    assert_eq!(
                        scalar, lockstep,
                        "kernel divergence at lanes={lanes} threads={threads} budget={:?}",
                        control.max_steps
                    );
                    assert!(scalar.total_samples() > 0);
                }
            }
        }
    }

    #[test]
    fn lanes_override_decouples_pool_from_threads() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let reference = SampleRequest::new(9_000).seed(3).lanes(8).run(&inst);
        for threads in [1usize, 2, 4, 8, 16] {
            for kernel in WalkKernel::ALL {
                let pool = SampleRequest::new(9_000)
                    .seed(3)
                    .threads(threads)
                    .lanes(8)
                    .kernel(kernel)
                    .run(&inst);
                assert_eq!(pool, reference, "threads={threads} kernel={kernel}");
            }
        }
    }

    #[test]
    fn default_lanes_follow_the_legacy_rule() {
        assert_eq!(SampleRequest::new(PARALLEL_THRESHOLD).effective_lanes(), 1);
        assert_eq!(SampleRequest::new(PARALLEL_THRESHOLD).threads(4).effective_lanes(), 4);
        assert_eq!(SampleRequest::new(PARALLEL_THRESHOLD - 1).threads(4).effective_lanes(), 1);
        assert_eq!(SampleRequest::new(PARALLEL_THRESHOLD).threads(0).effective_lanes(), 1);
        assert_eq!(SampleRequest::new(10).threads(4).lanes(7).effective_lanes(), 7);
        assert_eq!(SampleRequest::new(10).lanes(0).effective_lanes(), 1, "lanes clamps to 1");
    }

    #[test]
    fn step_budget_truncates_deterministically() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let control = SampleControl { max_steps: Some(3_000), ..SampleControl::UNLIMITED };
        let request = SampleRequest::new(50_000).seed(9).control(&control);
        let a = request.run(&inst);
        let b = request.run(&inst);
        assert_eq!(a, b, "same (seed, budget) must truncate identically");
        assert!(a.total_samples() < 50_000, "budget must actually truncate");
        assert!(a.total_samples() > 0, "a positive budget samples at least one batch");
        // Truncation lands on a batch boundary.
        assert_eq!(a.total_samples() % CANCEL_CHECK_INTERVAL, 0);
        // The truncated pool is a prefix of the full run's walk stream:
        // resampling exactly that many walks uncontrolled is identical.
        let prefix = SampleRequest::new(a.total_samples()).seed(9).run(&inst);
        assert_eq!(a, prefix);
    }

    #[test]
    fn step_budget_is_monotone_in_walks() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let mut last = 0u64;
        for budget in [500u64, 2_000, 8_000, 64_000, u64::MAX] {
            let control = SampleControl { max_steps: Some(budget), ..SampleControl::UNLIMITED };
            let pool = SampleRequest::new(10_000).seed(5).control(&control).run(&inst);
            assert!(
                pool.total_samples() >= last,
                "budget {budget}: {} < {last} walks",
                pool.total_samples()
            );
            last = pool.total_samples();
        }
        assert_eq!(last, 10_000, "an unlimited budget samples every requested walk");
    }

    #[test]
    fn parallel_budget_split_is_deterministic() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let control = SampleControl { max_steps: Some(20_000), ..SampleControl::UNLIMITED };
        let request = SampleRequest::new(40_000).seed(11).threads(4).control(&control);
        let a = request.run(&inst);
        let b = request.run(&inst);
        assert_eq!(a, b);
        assert!(a.total_samples() < 40_000);
    }

    #[test]
    fn zero_budget_yields_empty_pool() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let control = SampleControl { max_steps: Some(0), ..SampleControl::UNLIMITED };
        for kernel in WalkKernel::ALL {
            let pool =
                SampleRequest::new(10_000).seed(5).kernel(kernel).control(&control).run(&inst);
            assert_eq!(pool.total_samples(), 0, "kernel={kernel}");
            assert_eq!(pool.unique_count(), 0, "kernel={kernel}");
        }
    }

    #[test]
    fn probe_sees_batch_boundaries_and_may_panic() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        use std::sync::atomic::{AtomicU64, Ordering};
        for kernel in WalkKernel::ALL {
            let calls = AtomicU64::new(0);
            let probe = |_walks: u64| {
                calls.fetch_add(1, Ordering::SeqCst);
            };
            let control = SampleControl { probe: Some(&probe), ..SampleControl::UNLIMITED };
            let pool = SampleRequest::new(CANCEL_CHECK_INTERVAL * 3)
                .seed(5)
                .kernel(kernel)
                .control(&control)
                .run(&inst);
            assert_eq!(pool.total_samples(), CANCEL_CHECK_INTERVAL * 3);
            assert_eq!(calls.load(Ordering::SeqCst), 3, "one probe call per batch ({kernel})");
            // A panicking probe unwinds out of the sampler (the serving
            // layer catches it); the RNG stream up to the panic is
            // untouched.
            let trap = |walks: u64| {
                assert!(
                    walks < CANCEL_CHECK_INTERVAL * 2,
                    "fault injection: panic at walk {walks}"
                );
            };
            let control = SampleControl { probe: Some(&trap), ..SampleControl::UNLIMITED };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SampleRequest::new(CANCEL_CHECK_INTERVAL * 4)
                    .seed(5)
                    .kernel(kernel)
                    .control(&control)
                    .run(&inst)
            }));
            assert!(result.is_err(), "the probe's panic must propagate ({kernel})");
        }
    }

    #[test]
    fn wall_clock_deadline_stops_sampling() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        // A deadline already in the past stops at the first boundary.
        let control = SampleControl {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..SampleControl::UNLIMITED
        };
        for kernel in WalkKernel::ALL {
            let pool =
                SampleRequest::new(100_000).seed(5).kernel(kernel).control(&control).run(&inst);
            assert_eq!(pool.total_samples(), 0, "an expired deadline samples nothing ({kernel})");
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for kernel in WalkKernel::ALL {
            assert_eq!(WalkKernel::parse(kernel.name()), Some(kernel));
        }
        assert_eq!(WalkKernel::parse("auto"), Some(WalkKernel::Auto));
        assert_eq!(WalkKernel::parse("vectorized"), None);
        assert_eq!(WalkKernel::default(), WalkKernel::Auto);
    }

    #[test]
    fn auto_kernel_resolves_by_node_count() {
        assert_eq!(WalkKernel::Auto.resolve(AUTO_LOCKSTEP_NODES - 1), WalkKernel::Scalar);
        assert_eq!(WalkKernel::Auto.resolve(AUTO_LOCKSTEP_NODES), WalkKernel::Lockstep);
        // Explicit kernels are fixed points: `--walk-kernel scalar`
        // still overrides the heuristic at any scale.
        for kernel in WalkKernel::ALL {
            assert_eq!(kernel.resolve(1), kernel);
            assert_eq!(kernel.resolve(usize::MAX), kernel);
        }
    }

    #[test]
    fn auto_switchover_preserves_pools() {
        // Either side of the Auto threshold, the resolved kernel must
        // hand back the same pool as both explicit kernels. The large
        // side uses a star graph (every walk terminates in one hop) so
        // building a >2^17-node instance stays cheap.
        let small = path_csr(6);
        let small_inst = FriendingInstance::new(&small, NodeId::new(0), NodeId::new(5)).unwrap();
        let mut b = GraphBuilder::new();
        b.add_edges((2..AUTO_LOCKSTEP_NODES + 8).map(|i| (0, i))).unwrap();
        b.add_edge(1, 2).unwrap(); // t = 1 hangs one hop off s's neighborhood
        let star = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let star_inst = FriendingInstance::new(&star, NodeId::new(0), NodeId::new(1)).unwrap();
        for (inst, expect) in
            [(&small_inst, WalkKernel::Scalar), (&star_inst, WalkKernel::Lockstep)]
        {
            assert_eq!(WalkKernel::Auto.resolve(inst.node_count()), expect);
            let auto = SampleRequest::new(6_000).seed(11).run(inst);
            for kernel in WalkKernel::ALL {
                let explicit = SampleRequest::new(6_000).seed(11).kernel(kernel).run(inst);
                assert_eq!(auto, explicit, "auto vs {kernel} at {} nodes", inst.node_count());
            }
        }
    }

    #[test]
    fn empty_pool() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(0).seed(1).run(&inst);
        assert_eq!(pool.total_samples(), 0);
        assert_eq!(pool.pmax_estimate(), 0.0);
        assert_eq!(pool.unique_count(), 0);
        assert_eq!(pool.iter().count(), 0);
    }

    #[test]
    fn coverage_matches_independent_estimate() {
        let g = path_csr(4);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(3)).unwrap();
        let pool = SampleRequest::new(40_000).seed(21).run(&inst);
        let full = crate::InvitationSet::full(4);
        // Closed form f(V) = 1/2 on the 4-node line.
        assert!((pool.coverage(&full) - 0.5).abs() < 0.02);
        let empty = crate::InvitationSet::empty(4);
        assert_eq!(pool.coverage(&empty), 0.0);
        assert_eq!(pool.covered_count(&full), pool.type1_count());
    }

    #[test]
    fn coverage_monotone_in_invitations() {
        let g = path_csr(5);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(20_000).seed(22).run(&inst);
        let small = crate::InvitationSet::from_nodes(5, [NodeId::new(4)]);
        let big = crate::InvitationSet::full(5);
        assert!(pool.coverage(&small) <= pool.coverage(&big));
    }

    #[test]
    fn all_type1_paths_contain_target() {
        let g = path_csr(6);
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(5)).unwrap();
        let pool = SampleRequest::new(5_000).seed(2).run(&inst);
        assert!(pool.unique_count() > 0);
        for (path, mult) in pool.iter() {
            assert_eq!(path[0], 5);
            assert!(mult >= 1);
        }
    }

    #[test]
    fn relabeled_pool_is_bit_identical() {
        use raf_graph::Relabeling;
        use std::sync::Arc;
        // A graph with a hub, parallel routes, and non-trivial BFS order.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 1), (2, 4), (3, 5), (5, 1)]).unwrap();
        let social = b.build(WeightScheme::UniformByDegree).unwrap();
        let plain_csr = social.to_csr();
        let r = Arc::new(Relabeling::hub_bfs(&social));
        assert!(!r.is_identity(), "fixture should actually permute");
        let relabeled_csr = social.to_csr_relabeled(&r);
        let plain = FriendingInstance::new(&plain_csr, NodeId::new(0), NodeId::new(1)).unwrap();
        let relab = FriendingInstance::relabeled(&relabeled_csr, NodeId::new(0), NodeId::new(1), r)
            .unwrap();
        for threads in [1usize, 4] {
            for kernel in WalkKernel::ALL {
                let a =
                    SampleRequest::new(20_000).seed(33).threads(threads).kernel(kernel).run(&plain);
                let b =
                    SampleRequest::new(20_000).seed(33).threads(threads).kernel(kernel).run(&relab);
                assert_eq!(a, b, "threads={threads} kernel={kernel}");
                assert!(a.unique_count() >= 2);
            }
        }
    }

    #[test]
    fn arena_paths_are_sorted_and_distinct() {
        // Canonical order: unique paths strictly increasing
        // lexicographically.
        let mut b = GraphBuilder::new();
        b.add_edges(vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)]).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let inst = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(1)).unwrap();
        let pool = SampleRequest::new(30_000).seed(7).run(&inst);
        assert!(pool.unique_count() >= 2, "both routes should be sampled");
        let paths: Vec<&[u32]> = (0..pool.unique_count()).map(|i| pool.path(i)).collect();
        for w in paths.windows(2) {
            assert!(w[0] < w[1], "paths out of order: {:?} !< {:?}", w[0], w[1]);
        }
        let total: u64 = (0..pool.unique_count()).map(|i| u64::from(pool.multiplicity(i))).sum();
        assert_eq!(total as usize, pool.type1_count());
    }
}
