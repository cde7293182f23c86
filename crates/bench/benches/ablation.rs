//! Ablation benches for three design choices: cover-solver choice, the
//! `V_max` reduction, and realization budgets.
//!
//! These quantify the engineering trade-offs rather than reproduce a
//! paper artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raf_core::{RafAlgorithm, RafConfig, RealizationBudget, SolverKind};
use raf_datasets::{sample_pairs, synthetic, Dataset, PairSamplerConfig};
use raf_graph::{CsrGraph, NodeId};
use raf_model::FriendingInstance;

fn standin() -> CsrGraph {
    synthetic::generate(Dataset::HepTh, 0.01, 7).unwrap().to_csr()
}

fn instance_on(csr: &CsrGraph) -> FriendingInstance<'_> {
    let pairs = sample_pairs(
        csr,
        &PairSamplerConfig { pairs: 1, screen_samples: 1_000, seed: 5, ..Default::default() },
    );
    let p = pairs.first().expect("screened pair");
    FriendingInstance::new(csr, NodeId::new(p.s as usize), NodeId::new(p.t as usize)).unwrap()
}

/// Ablation 1: cover-solver choice inside the full RAF pipeline.
fn bench_solver_kinds(c: &mut Criterion) {
    let csr = standin();
    let instance = instance_on(&csr);
    let mut group = c.benchmark_group("ablation_solver_kind");
    group.sample_size(10);
    for (name, solver) in
        [("portfolio", SolverKind::Portfolio), ("greedy_only", SolverKind::Greedy)]
    {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let cfg = RafConfig::with_alpha(0.3)
                .seed(9)
                .budget(RealizationBudget::Fixed(10_000))
                .solver(solver);
            let raf = RafAlgorithm::new(cfg);
            b.iter(|| raf.run(&instance).unwrap())
        });
    }
    group.finish();
}

/// Ablation 2: the Sec. III-C `V_max` reduction on/off.
fn bench_vmax_reduction(c: &mut Criterion) {
    let csr = standin();
    let instance = instance_on(&csr);
    let mut group = c.benchmark_group("ablation_vmax_reduction");
    group.sample_size(10);
    for (name, on) in [("with_vmax", true), ("without_vmax", false)] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut cfg =
                RafConfig::with_alpha(0.3).seed(9).budget(RealizationBudget::Fixed(10_000));
            cfg.use_vmax_reduction = on;
            let raf = RafAlgorithm::new(cfg);
            b.iter(|| raf.run(&instance).unwrap())
        });
    }
    group.finish();
}

/// Ablation 3: pipeline cost vs realization budget (the practical knob
/// the paper's Sec. IV-E discusses).
fn bench_budget_scaling(c: &mut Criterion) {
    let csr = standin();
    let instance = instance_on(&csr);
    let mut group = c.benchmark_group("ablation_budget_scaling");
    group.sample_size(10);
    for l in [2_000u64, 10_000, 50_000] {
        group.bench_function(BenchmarkId::from_parameter(l), |b| {
            let cfg = RafConfig::with_alpha(0.3).seed(9).budget(RealizationBudget::Fixed(l));
            let raf = RafAlgorithm::new(cfg);
            b.iter(|| raf.run(&instance).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solver_kinds, bench_vmax_reduction, bench_budget_scaling);
criterion_main!(benches);
