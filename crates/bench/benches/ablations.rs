//! Criterion benchmarks for design-choice ablations around the substituted
//! methods (README, *Substitutions*): isolation-forest size, ZeroER
//! matching cost vs. key collision, and the relative cost of the FDR
//! procedures.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cleanml_cleaning::duplicates::{self, DuplicateDetection};
use cleanml_cleaning::outliers::IsolationForest1D;
use cleanml_datagen::{generate, spec_by_name};
use cleanml_stats::{benjamini_hochberg, benjamini_yekutieli, bonferroni};

fn benches(c: &mut Criterion) {
    // Isolation forest: cost vs. tree count.
    let values: Vec<f64> = (0..2000).map(|i| ((i * 97) % 500) as f64 / 10.0).collect();
    let mut group = c.benchmark_group("ablation/iforest_trees");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n_trees in [10usize, 50, 200] {
        group.bench_function(format!("fit_{n_trees}"), |b| {
            b.iter(|| black_box(IsolationForest1D::fit(black_box(&values), n_trees, 7)))
        });
    }
    group.finish();

    // Fit plus cleaning of the training table (`duplicates::fit` returns
    // both), on a duplicate-bearing dataset: for ZeroER, all-pairs
    // similarity, EM and the match filter; for key collision, the key
    // grouping. Hence the "fit_clean" series names.
    let data = generate(spec_by_name("Restaurant").expect("known dataset"), 42);
    let (train, _) = data.dirty.split(0.3, 1).expect("split");
    let mut group = c.benchmark_group("ablation/zeroer");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("fit_clean_restaurant_train", |b| {
        b.iter(|| black_box(duplicates::fit(DuplicateDetection::ZeroEr, black_box(&train))))
    });
    group.bench_function("key_collision_fit_clean", |b| {
        b.iter(|| black_box(duplicates::fit(DuplicateDetection::KeyCollision, black_box(&train))))
    });
    group.finish();

    // FDR procedures at R1 scale.
    let pvals: Vec<f64> = (0..3612).map(|i| ((i * 37 % 1000) as f64 + 0.5) / 1000.0).collect();
    let mut group = c.benchmark_group("ablation/fdr");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("bonferroni", |b| {
        b.iter(|| black_box(bonferroni(black_box(&pvals), 0.05)))
    });
    group.bench_function("benjamini_hochberg", |b| {
        b.iter(|| black_box(benjamini_hochberg(black_box(&pvals), 0.05)))
    });
    group.bench_function("benjamini_yekutieli", |b| {
        b.iter(|| black_box(benjamini_yekutieli(black_box(&pvals), 0.05)))
    });
    group.finish();
}

criterion_group!(ablation_benches, benches);
criterion_main!(ablation_benches);
