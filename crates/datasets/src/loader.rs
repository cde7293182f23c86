//! Dataset loading: real SNAP files when available, synthetic stand-ins
//! otherwise, with an optional hub-BFS relabeling applied at CSR build
//! time for the large-graph sampling path.

use crate::{synthetic, Dataset};
use raf_graph::io::{read_edge_list_path, EdgeListOptions};
use raf_graph::{
    CsrGraph, GraphError, NodeId, RelabelOrder, Relabeling, SocialGraph, WeightScheme,
};
use raf_model::{FriendingInstance, ModelError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where a loaded dataset came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSource {
    /// A real SNAP edge list found on disk.
    Real,
    /// The calibrated synthetic stand-in (see [`crate::synthetic`]).
    Synthetic,
}

/// A loaded dataset with provenance.
#[derive(Debug, Clone)]
pub struct LoadedDataset {
    /// The graph, weighted with the paper's `w(u,v) = 1/|N_v|` convention.
    pub graph: SocialGraph,
    /// Real file or synthetic stand-in.
    pub source: DatasetSource,
    /// Which dataset this is.
    pub dataset: Dataset,
}

/// How the CSR snapshot of a loaded dataset is laid out: the file's own
/// order, or one of the cache-locality renumberings of
/// [`RelabelOrder`]. Whatever the layout, instance results are reported
/// in original ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelabelMode {
    /// File/generator order, neighbor slices sorted by id.
    Plain,
    /// Hub-seeded BFS renumbering ([`Relabeling::hub_bfs`]): the
    /// cache-oblivious layout that collapses the walk loop's dependent
    /// metadata-load chain on large graphs. The default for dataset
    /// workloads.
    #[default]
    HubBfs,
    /// Degree-descending renumbering ([`Relabeling::degree_descending`]).
    DegreeDescending,
    /// Reverse Cuthill–McKee renumbering ([`Relabeling::rcm`]).
    Rcm,
}

impl RelabelMode {
    /// The layout order this mode applies (`None` for [`Plain`](Self::Plain)).
    pub fn order(self) -> Option<RelabelOrder> {
        match self {
            RelabelMode::Plain => None,
            RelabelMode::HubBfs => Some(RelabelOrder::HubBfs),
            RelabelMode::DegreeDescending => Some(RelabelOrder::DegreeDescending),
            RelabelMode::Rcm => Some(RelabelOrder::Rcm),
        }
    }

    /// The snake_case name (`plain` or the order's name) — the value the
    /// `raf experiment --relabel` flag accepts.
    pub fn name(self) -> &'static str {
        match self.order() {
            None => "plain",
            Some(order) => order.name(),
        }
    }

    /// Parses [`name`](Self::name) back into a mode. Delegates to
    /// [`RelabelOrder::parse`] for the ordered layouts, so a future
    /// order variant is covered the moment `From<RelabelOrder>` compiles.
    pub fn parse(name: &str) -> Option<RelabelMode> {
        if name == RelabelMode::Plain.name() {
            return Some(RelabelMode::Plain);
        }
        RelabelOrder::parse(name).map(RelabelMode::from)
    }
}

impl From<RelabelOrder> for RelabelMode {
    fn from(order: RelabelOrder) -> RelabelMode {
        match order {
            RelabelOrder::HubBfs => RelabelMode::HubBfs,
            RelabelOrder::DegreeDescending => RelabelMode::DegreeDescending,
            RelabelOrder::Rcm => RelabelMode::Rcm,
        }
    }
}

/// A dataset prepared for sampling: the CSR snapshot (possibly hub-BFS
/// relabeled) plus the permutation needed to build instances that report
/// original-space ids.
#[derive(Debug, Clone)]
pub struct PreparedCsr {
    /// The snapshot sampling runs on.
    pub csr: CsrGraph,
    /// The applied permutation (`None` for [`RelabelMode::Plain`]).
    pub relabeling: Option<Arc<Relabeling>>,
    /// Real file or synthetic stand-in.
    pub source: DatasetSource,
    /// Which dataset this is.
    pub dataset: Dataset,
}

impl PreparedCsr {
    /// Builds a [`FriendingInstance`] for an `(s, t)` pair given in
    /// **original** ids; on a relabeled snapshot the instance carries the
    /// inverse permutation so pools, paths, and invitation sets come back
    /// in original ids (bit-identical to the plain layout).
    ///
    /// # Errors
    ///
    /// Propagates instance validation failures ([`ModelError`]).
    pub fn instance(&self, s: NodeId, t: NodeId) -> Result<FriendingInstance<'_>, ModelError> {
        match &self.relabeling {
            None => FriendingInstance::new(&self.csr, s, t),
            Some(r) => FriendingInstance::relabeled(&self.csr, s, t, r.clone()),
        }
    }
}

/// Loads `dataset` at `scale`, preferring a real edge list at
/// `<data_dir>/<stem>.txt` (any SNAP-format file; `scale` is ignored for
/// real data, which is used as-is).
///
/// # Errors
///
/// Propagates file-parse errors for real data and generator errors for
/// synthetic data. A *missing* file is not an error — it selects the
/// synthetic path.
pub fn load_dataset(
    dataset: Dataset,
    scale: f64,
    seed: u64,
    data_dir: &Path,
) -> Result<LoadedDataset, GraphError> {
    let path = real_data_path(dataset, data_dir);
    if path.exists() {
        let builder = read_edge_list_path(&path, &EdgeListOptions::default())?;
        let graph = builder.build(WeightScheme::UniformByDegree)?;
        return Ok(LoadedDataset { graph, source: DatasetSource::Real, dataset });
    }
    let graph = synthetic::generate(dataset, scale, seed)?;
    Ok(LoadedDataset { graph, source: DatasetSource::Synthetic, dataset })
}

/// [`load_dataset`] followed by CSR construction under `mode` — the entry
/// point the experiment harness and the dataset bench scenarios use.
///
/// # Errors
///
/// As [`load_dataset`].
pub fn load_dataset_csr(
    dataset: Dataset,
    scale: f64,
    seed: u64,
    data_dir: &Path,
    mode: RelabelMode,
) -> Result<PreparedCsr, GraphError> {
    let loaded = load_dataset(dataset, scale, seed, data_dir)?;
    let (csr, relabeling) = match mode.order() {
        None => (loaded.graph.to_csr(), None),
        Some(order) => {
            let r = Arc::new(order.relabeling(&loaded.graph));
            (loaded.graph.to_csr_relabeled(&r), Some(r))
        }
    };
    Ok(PreparedCsr { csr, relabeling, source: loaded.source, dataset: loaded.dataset })
}

/// The expected on-disk location for a real copy of `dataset`.
pub fn real_data_path(dataset: Dataset, data_dir: &Path) -> PathBuf {
    data_dir.join(format!("{}.txt", dataset.spec().file_stem))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique-per-test scratch directory, removed on drop. The previous
    /// fixture wrote fixed paths under `temp_dir()` (e.g.
    /// `raf_datasets_real/hepth.txt`), which collided across concurrent
    /// and repeated test runs — each test now gets its own directory.
    struct ScratchDir {
        path: PathBuf,
    }

    impl ScratchDir {
        fn new(test: &str) -> Self {
            let unique = format!(
                "raf_datasets_{test}_{}_{:?}",
                std::process::id(),
                std::thread::current().id(),
            );
            let path = std::env::temp_dir().join(unique);
            // A stale directory from a killed run must not leak fixtures
            // into this one.
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            ScratchDir { path }
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    #[test]
    fn synthesizes_when_no_file() {
        let dir = ScratchDir::new("none");
        let loaded = load_dataset(Dataset::Wiki, 0.02, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Synthetic);
        assert!(loaded.graph.node_count() > 100);
    }

    #[test]
    fn prefers_real_file() {
        let dir = ScratchDir::new("real");
        let path = real_data_path(Dataset::HepTh, &dir.path);
        std::fs::write(&path, "# test\n0\t1\n1\t2\n2\t0\n").unwrap();
        let loaded = load_dataset(Dataset::HepTh, 1.0, 1, &dir.path).unwrap();
        assert_eq!(loaded.source, DatasetSource::Real);
        assert_eq!(loaded.graph.node_count(), 3);
        assert_eq!(loaded.graph.edge_count(), 3);
    }

    #[test]
    fn real_file_parse_error_propagates() {
        let dir = ScratchDir::new("bad");
        let path = real_data_path(Dataset::HepPh, &dir.path);
        std::fs::write(&path, "not numbers here\n").unwrap();
        assert!(load_dataset(Dataset::HepPh, 1.0, 1, &dir.path).is_err());
    }

    #[test]
    fn path_convention() {
        let p = real_data_path(Dataset::Youtube, Path::new("/data"));
        assert_eq!(p, PathBuf::from("/data/youtube.txt"));
    }

    #[test]
    fn csr_loader_modes_agree_through_the_mapping() {
        let dir = ScratchDir::new("csr_modes");
        let plain =
            load_dataset_csr(Dataset::Wiki, 0.01, 5, &dir.path, RelabelMode::Plain).unwrap();
        let hub = load_dataset_csr(Dataset::Wiki, 0.01, 5, &dir.path, RelabelMode::HubBfs).unwrap();
        assert!(plain.relabeling.is_none());
        let r = hub.relabeling.as_ref().expect("hub mode carries the permutation");
        assert_eq!(plain.csr.node_count(), hub.csr.node_count());
        assert_eq!(plain.csr.edge_count(), hub.csr.edge_count());
        assert!(!hub.csr.has_sorted_neighbors());
        // Spot-check the isomorphism: degrees transport through the map.
        for v in plain.csr.nodes().take(50) {
            assert_eq!(hub.csr.degree(r.new_of(v)), plain.csr.degree(v));
        }
        // Instances built from original ids agree on seed structure.
        let (s, t) = (NodeId::new(0), NodeId::new(plain.csr.node_count() - 1));
        if let (Ok(a), Ok(b)) = (plain.instance(s, t), hub.instance(s, t)) {
            assert_eq!(a.target_original(), b.target_original());
            let seeds_a: Vec<NodeId> = a.seeds().to_vec();
            let mut seeds_b: Vec<NodeId> = b.seeds().iter().map(|&v| b.original_of(v)).collect();
            seeds_b.sort_unstable();
            assert_eq!(seeds_a, seeds_b);
        }
    }

    #[test]
    fn relabel_mode_names_round_trip() {
        // Derived from RelabelOrder::ALL so a future order variant is
        // covered here without editing this list.
        let modes =
            std::iter::once(RelabelMode::Plain).chain(RelabelOrder::ALL.map(RelabelMode::from));
        for mode in modes {
            assert_eq!(RelabelMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(RelabelMode::parse("hub_bfs"), Some(RelabelMode::HubBfs));
        assert_eq!(RelabelMode::parse("no_such_layout"), None);
        assert_eq!(RelabelMode::Plain.order(), None);
        assert_eq!(RelabelMode::default(), RelabelMode::HubBfs);
    }

    #[test]
    fn every_relabel_order_loads_an_isomorphic_snapshot() {
        let dir = ScratchDir::new("csr_orders");
        let plain =
            load_dataset_csr(Dataset::Wiki, 0.01, 5, &dir.path, RelabelMode::Plain).unwrap();
        for mode in [RelabelMode::HubBfs, RelabelMode::DegreeDescending, RelabelMode::Rcm] {
            let prepared = load_dataset_csr(Dataset::Wiki, 0.01, 5, &dir.path, mode).unwrap();
            let r = prepared.relabeling.as_ref().expect("ordered modes carry the permutation");
            assert_eq!(prepared.csr.node_count(), plain.csr.node_count(), "{}", mode.name());
            assert_eq!(prepared.csr.edge_count(), plain.csr.edge_count(), "{}", mode.name());
            for v in plain.csr.nodes().take(50) {
                assert_eq!(
                    prepared.csr.degree(r.new_of(v)),
                    plain.csr.degree(v),
                    "{}: degree diverged at {v:?}",
                    mode.name()
                );
            }
        }
    }

    #[test]
    fn csr_loader_reports_real_source() {
        let dir = ScratchDir::new("csr_real");
        let path = real_data_path(Dataset::HepTh, &dir.path);
        std::fs::write(&path, "# four-cycle\n10\t20\n20\t30\n30\t40\n40\t10\n").unwrap();
        let prep =
            load_dataset_csr(Dataset::HepTh, 1.0, 1, &dir.path, RelabelMode::HubBfs).unwrap();
        assert_eq!(prep.source, DatasetSource::Real);
        assert_eq!(prep.csr.node_count(), 4);
        assert_eq!(prep.csr.edge_count(), 4);
    }
}
