//! Shared experiment configuration.

use raf_datasets::Dataset;
use std::path::PathBuf;

/// Knobs shared by every experiment, settable through `AF_*` environment
/// variables (defaults keep a full regeneration laptop-tractable; each
/// knob's doc gives its default).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Graph scale relative to Table I sizes (`AF_SCALE`, default 0.02;
    /// the paper uses 1.0).
    pub scale: f64,
    /// Pairs per dataset (`AF_PAIRS`, default 20; the paper uses 500).
    pub pairs: usize,
    /// Monte-Carlo samples per `f(I)` evaluation (`AF_EVAL_SAMPLES`,
    /// default 20 000).
    pub eval_samples: u64,
    /// RAF realization budget (`AF_BUDGET`, default 30 000; the paper's
    /// Fig. 6 uses up to 550 000).
    pub budget: u64,
    /// Master seed (`AF_SEED`, default 1).
    pub seed: u64,
    /// Sampling threads (`AF_THREADS`, default 1 — keep 1 for bitwise
    /// reproducibility across machines with different core counts).
    pub threads: usize,
    /// Datasets to run (`AF_DATASETS`, comma-separated names; default
    /// all four).
    pub datasets: Vec<Dataset>,
    /// Directory searched for real SNAP files (`AF_DATA_DIR`, default
    /// `data`).
    pub data_dir: PathBuf,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.02,
            pairs: 20,
            eval_samples: 20_000,
            budget: 30_000,
            seed: 1,
            threads: 1,
            datasets: Dataset::all().to_vec(),
            data_dir: PathBuf::from("data"),
        }
    }
}

impl ExperimentConfig {
    /// Reads the configuration from `AF_*` environment variables,
    /// falling back to the defaults above.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(v) = env_parse::<f64>("AF_SCALE") {
            cfg.scale = v;
        }
        if let Some(v) = env_parse::<usize>("AF_PAIRS") {
            cfg.pairs = v;
        }
        if let Some(v) = env_parse::<u64>("AF_EVAL_SAMPLES") {
            cfg.eval_samples = v;
        }
        if let Some(v) = env_parse::<u64>("AF_BUDGET") {
            cfg.budget = v;
        }
        if let Some(v) = env_parse::<u64>("AF_SEED") {
            cfg.seed = v;
        }
        if let Some(v) = env_parse::<usize>("AF_THREADS") {
            cfg.threads = v;
        }
        if let Ok(v) = std::env::var("AF_DATA_DIR") {
            cfg.data_dir = PathBuf::from(v);
        }
        if let Ok(v) = std::env::var("AF_DATASETS") {
            let selected: Vec<Dataset> = v
                .split(',')
                .filter_map(|name| match name.trim().to_ascii_lowercase().as_str() {
                    "wiki" => Some(Dataset::Wiki),
                    "hepth" => Some(Dataset::HepTh),
                    "hepph" => Some(Dataset::HepPh),
                    "youtube" => Some(Dataset::Youtube),
                    _ => None,
                })
                .collect();
            if !selected.is_empty() {
                cfg.datasets = selected;
            }
        }
        cfg
    }

    /// A down-scaled copy for Criterion benches (tiny graphs, few pairs).
    pub fn bench_scale() -> Self {
        ExperimentConfig {
            scale: 0.005,
            pairs: 2,
            eval_samples: 2_000,
            budget: 4_000,
            ..Self::default()
        }
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.datasets.len(), 4);
        assert!(cfg.scale > 0.0 && cfg.scale <= 1.0);
        assert!(cfg.pairs > 0);
    }

    #[test]
    fn bench_scale_is_smaller() {
        let bench = ExperimentConfig::bench_scale();
        let full = ExperimentConfig::default();
        assert!(bench.scale < full.scale);
        assert!(bench.pairs < full.pairs);
    }
}
