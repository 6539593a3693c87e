//! Criterion benchmarks for the end-to-end experiment pipeline: one full
//! R1 experiment (split × clean × train × evaluate × t-test) and the
//! statistics machinery at paper scale.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cleanml_core::schema::{Detection, ErrorType, Repair, Scenario, Spec1};
use cleanml_core::{run_r1_experiment, ExperimentConfig};
use cleanml_datagen::{generate, spec_by_name};
use cleanml_ml::ModelKind;
use cleanml_stats::{benjamini_yekutieli, paired_t_test};

fn benches(c: &mut Criterion) {
    let data = generate(spec_by_name("EEG").expect("known dataset"), 42);
    let spec = Spec1 {
        dataset: "EEG".into(),
        error_type: ErrorType::Outliers,
        detection: Detection::Iqr,
        repair: Repair::ImputeMean,
        model: ModelKind::LogisticRegression,
        scenario: Scenario::BD,
    };
    let cfg = ExperimentConfig { n_splits: 3, ..ExperimentConfig::quick() };

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("r1_experiment_eeg_iqr_mean_lr", |b| {
        b.iter(|| {
            black_box(run_r1_experiment(black_box(&data), black_box(&spec), &cfg).expect("run"))
        })
    });
    group.finish();

    // Statistics at paper scale: 3612 hypotheses through BY, and a t-test.
    let pvals: Vec<f64> = (0..3612).map(|i| ((i * 37 % 1000) as f64 + 0.5) / 1000.0).collect();
    let before: Vec<f64> = (0..20).map(|i| 0.8 + (i as f64) * 1e-3).collect();
    let after: Vec<f64> = (0..20).map(|i| 0.82 + (i as f64) * 1e-3).collect();
    let mut group = c.benchmark_group("stats");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("benjamini_yekutieli_3612", |b| {
        b.iter(|| black_box(benjamini_yekutieli(black_box(&pvals), 0.05)))
    });
    group.bench_function("paired_t_test_20", |b| {
        b.iter(|| black_box(paired_t_test(black_box(&after), black_box(&before)).expect("t")))
    });
    group.finish();
}

criterion_group!(pipeline_benches, benches);
criterion_main!(pipeline_benches);
