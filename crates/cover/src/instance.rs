//! MpU/MSC problem instances.

use crate::CoverError;
use raf_model::sampler::{PathArena, PathPool};
use std::sync::Arc;

/// A (weighted) Minimum p-Union instance: a ground set `0..universe` and
/// a family of subsets, each carrying a positive integer *weight* (its
/// multiplicity in the original multiset family). Sets are stored in a
/// flat CSR [`PathArena`] — one `Vec<u32>` of elements plus an offset
/// table — and an instance built from a sampled [`PathPool`] shares the
/// pool's `Arc`-held arena: no copy, no per-set allocation.
///
/// In the RAF pipeline, each set is a sampled backward path `t(g)` (its
/// weight = how many sampled walks produced it) and the ground set is the
/// node set of the social graph. Choosing a set of weight `w` counts `w`
/// toward the requirement `p`, which keeps the deduplicated instance
/// exactly equivalent to the paper's duplicated one: covering a path
/// covers every sampled copy of it.
///
/// ```
/// use raf_cover::{CoverInstance, GreedyMarginal, MpuSolver};
///
/// # fn main() -> Result<(), raf_cover::CoverError> {
/// let inst = CoverInstance::new(5, vec![vec![0, 1], vec![1, 2], vec![3, 4]])?;
/// let sol = GreedyMarginal::new().solve(&inst, 2)?;
/// assert_eq!(sol.cost(), 3); // the two overlapping sets
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverInstance {
    universe: usize,
    /// The set family: set `i` is `sets.path(i)`, of weight
    /// `sets.multiplicities()[i]` (all 1 for [`CoverInstance::new`]).
    sets: Arc<PathArena>,
    /// Σ weights — the size `|U|` of the underlying multiset family.
    total_weight: usize,
}

impl CoverInstance {
    /// Builds an unweighted instance, normalizing each set (sort +
    /// dedup). Every set has weight 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::ElementOutOfRange`] when a set mentions an
    /// element `≥ universe`.
    pub fn new(universe: usize, sets: Vec<Vec<u32>>) -> Result<Self, CoverError> {
        let m = sets.len();
        let mut elems = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0u32);
        for mut set in sets {
            set.sort_unstable();
            set.dedup();
            if let Some(&max) = set.last() {
                if max as usize >= universe {
                    return Err(CoverError::ElementOutOfRange { element: max, universe });
                }
            }
            elems.extend_from_slice(&set);
            assert!(elems.len() <= u32::MAX as usize, "set family overflows u32 offsets");
            offsets.push(elems.len() as u32);
        }
        let sets = Arc::new(PathArena::new(elems, offsets, vec![1; m]));
        Ok(CoverInstance { universe, sets, total_weight: m })
    }

    /// Builds a weighted instance directly from a sampled [`PathPool`] —
    /// the zero-copy Alg. 3 handoff. The instance keeps the pool's shared
    /// arena as its set family: no copy, no per-set allocation, no
    /// re-sort. Set `i` is the pool's unique path `i` (elements in walk
    /// order — distinct by the walk's cycle check, but *not* sorted) with
    /// weight = the path's multiplicity.
    ///
    /// # Errors
    ///
    /// Returns [`CoverError::ElementOutOfRange`] when a path mentions a
    /// node `≥ universe`.
    pub fn from_path_pool(universe: usize, pool: PathPool) -> Result<Self, CoverError> {
        let sets = Arc::clone(pool.arena());
        if let Some(&max) = sets.nodes().iter().max() {
            if max as usize >= universe {
                return Err(CoverError::ElementOutOfRange { element: max, universe });
            }
        }
        let total_weight = sets.multiplicities().iter().map(|&w| w as usize).sum();
        Ok(CoverInstance { universe, sets, total_weight })
    }

    /// Whether this instance's set family is `pool`'s own arena (built by
    /// [`from_path_pool`](Self::from_path_pool) from that pool or a clone
    /// of it), as opposed to an equal copy.
    pub fn is_view_of(&self, pool: &PathPool) -> bool {
        Arc::ptr_eq(&self.sets, pool.arena())
    }

    /// Ground-set size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of distinct sets `m` in the family.
    #[inline]
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// The weight (multiplicity) of set `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn weight(&self, i: usize) -> usize {
        self.sets.multiplicities()[i] as usize
    }

    /// Σ weights: the size `|U|` of the underlying multiset family (equal
    /// to [`set_count`](Self::set_count) for unweighted instances).
    #[inline]
    pub fn total_weight(&self) -> usize {
        self.total_weight
    }

    /// The `i`-th set. Unweighted instances store sets sorted and
    /// deduplicated; pool-built instances store paths in walk order
    /// (elements distinct but unsorted).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&self, i: usize) -> &[u32] {
        self.sets.path(i)
    }

    /// Iterates over all sets in index order.
    pub fn iter_sets(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.set_count()).map(|i| self.set(i))
    }

    /// Marginal cost of adding set `i` to the partial union described by
    /// `in_union`: `|S_i \ A|`.
    pub fn marginal(&self, i: usize, in_union: &[bool]) -> usize {
        self.set(i).iter().filter(|&&e| !in_union[e as usize]).count()
    }

    /// Weighted number of sets fully contained in the element mask
    /// `mask` (each contained set counts its multiplicity).
    pub fn covered_count(&self, mask: &[bool]) -> usize {
        (0..self.set_count())
            .filter(|&i| self.set(i).iter().all(|&e| mask[e as usize]))
            .map(|i| self.weight(i))
            .sum()
    }

    /// The theoretical portfolio guarantee target `2√|U|` from the paper,
    /// where `|U|` counts the multiset family (Σ weights).
    pub fn approximation_target(&self) -> f64 {
        2.0 * (self.total_weight as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_sets() {
        let inst = CoverInstance::new(5, vec![vec![3, 1, 3, 0]]).unwrap();
        assert_eq!(inst.set(0), &[0, 1, 3]);
        assert_eq!(inst.weight(0), 1);
        assert_eq!(inst.total_weight(), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = CoverInstance::new(3, vec![vec![0, 5]]).unwrap_err();
        assert!(matches!(err, CoverError::ElementOutOfRange { element: 5, universe: 3 }));
    }

    #[test]
    fn marginal_counts_new_elements() {
        let inst = CoverInstance::new(6, vec![vec![0, 1, 2], vec![2, 3]]).unwrap();
        let mut in_union = vec![false; 6];
        assert_eq!(inst.marginal(0, &in_union), 3);
        in_union[2] = true;
        assert_eq!(inst.marginal(0, &in_union), 2);
        assert_eq!(inst.marginal(1, &in_union), 1);
    }

    #[test]
    fn covered_count() {
        let inst = CoverInstance::new(6, vec![vec![0, 1], vec![1, 2], vec![4]]).unwrap();
        let mut mask = vec![false; 6];
        mask[0] = true;
        mask[1] = true;
        assert_eq!(inst.covered_count(&mask), 1);
        mask[2] = true;
        assert_eq!(inst.covered_count(&mask), 2);
    }

    #[test]
    fn empty_sets_are_always_covered() {
        let inst = CoverInstance::new(3, vec![vec![], vec![0]]).unwrap();
        let mask = vec![false; 3];
        assert_eq!(inst.covered_count(&mask), 1);
    }

    #[test]
    fn approximation_target() {
        let inst = CoverInstance::new(3, vec![vec![0]; 16]).unwrap();
        assert_eq!(inst.approximation_target(), 8.0);
    }

    #[test]
    fn from_path_pool_is_weighted() {
        use raf_graph::{GraphBuilder, NodeId, WeightScheme};
        use raf_model::sampler::SampleRequest;
        use raf_model::FriendingInstance;
        // 0-1-2-3-4 line: the only type-1 path is [4, 3, 2].
        let mut b = GraphBuilder::new();
        b.add_edges((0..4).map(|i| (i, i + 1))).unwrap();
        let g = b.build(WeightScheme::UniformByDegree).unwrap().to_csr();
        let fi = FriendingInstance::new(&g, NodeId::new(0), NodeId::new(4)).unwrap();
        let pool = SampleRequest::new(4_000).seed(9).run(&fi);
        let type1 = pool.type1_count();
        assert!(type1 > 0);
        let inst = CoverInstance::from_path_pool(5, pool.clone()).unwrap();
        assert!(inst.is_view_of(&pool), "the instance shares the pool's arena");
        assert_eq!(inst.set_count(), 1);
        assert_eq!(inst.set(0), &[4, 3, 2]); // walk order, not sorted
        assert_eq!(inst.weight(0), type1);
        assert_eq!(inst.total_weight(), type1);
        // Universe too small: the node ids 2..=4 are out of range.
        let pool = SampleRequest::new(4_000).seed(9).run(&fi);
        assert!(matches!(
            CoverInstance::from_path_pool(3, pool),
            Err(CoverError::ElementOutOfRange { .. })
        ));
    }

    #[test]
    fn iter_sets_matches_indexing() {
        let inst = CoverInstance::new(6, vec![vec![0, 1], vec![2], vec![3, 4, 5]]).unwrap();
        let collected: Vec<&[u32]> = inst.iter_sets().collect();
        assert_eq!(collected.len(), inst.set_count());
        for (i, s) in collected.iter().enumerate() {
            assert_eq!(*s, inst.set(i));
        }
    }
}
