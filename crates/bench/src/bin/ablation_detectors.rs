//! Ablation: outlier-detector aggressiveness (paper Table 12 Q4.1's
//! finding that IQR/IF are "more aggressive" than SD).
//!
//! Sweeps the SD multiplier, the IQR fence factor and the isolation-forest
//! contamination on the EEG stand-in, reporting detected cells, detection
//! precision/recall against the injected ground truth, and the flag of the
//! downstream KNN experiment (the paper's most outlier-sensitive model).

use cleanml_bench::{banner, cli, header, install_workers};
use cleanml_cleaning::outliers::{self, OutlierDetection, OutlierRepair};
use cleanml_core::runner::evaluate_grid_with;
use cleanml_core::schema::ErrorType;
use cleanml_core::study::dataset_seed;
use cleanml_datagen::{generate, spec_by_name};
use cleanml_ml::ModelKind;
use cleanml_parallel::run_indexed;

fn detection_quality(
    data: &cleanml_datagen::GeneratedDataset,
    detection: OutlierDetection,
) -> (usize, f64, f64) {
    let cleaner = outliers::fit(detection, OutlierRepair::Mean, &data.dirty, 7).expect("fit");
    let detected = cleaner.detect(&data.dirty).expect("detect");

    // Ground truth: cells where dirty != clean in numeric feature columns.
    let mut truth = std::collections::HashSet::new();
    for c in data.dirty.schema().numeric_feature_indices() {
        for r in 0..data.dirty.n_rows() {
            if data.dirty.get(r, c).expect("cell") != data.clean_cells.get(r, c).expect("cell") {
                truth.insert((r, c));
            }
        }
    }
    let tp = detected.iter().filter(|cell| truth.contains(cell)).count();
    let precision = if detected.is_empty() { 1.0 } else { tp as f64 / detected.len() as f64 };
    let recall = if truth.is_empty() { 1.0 } else { tp as f64 / truth.len() as f64 };
    (detected.len(), precision, recall)
}

fn main() {
    let args = cli::SPEC_WORKERS.parse_or_exit(std::env::args());
    install_workers(args.engine.effective_workers());
    let cfg = args.spec.config();
    banner("Ablation: outlier-detector aggressiveness", &cfg);
    let data = generate(spec_by_name("EEG").expect("known"), dataset_seed("EEG", cfg.base_seed));

    header("Detection quality on EEG (vs injected ground truth)");
    println!("{:<26} {:>9} {:>10} {:>8}", "detector", "cells", "precision", "recall");
    let sweeps: Vec<(String, OutlierDetection)> = vec![
        ("SD n=2".into(), OutlierDetection::Sd { n_sigmas: 2.0 }),
        ("SD n=3 (paper)".into(), OutlierDetection::Sd { n_sigmas: 3.0 }),
        ("SD n=4".into(), OutlierDetection::Sd { n_sigmas: 4.0 }),
        ("IQR k=1.0".into(), OutlierDetection::Iqr { k: 1.0 }),
        ("IQR k=1.5 (paper)".into(), OutlierDetection::Iqr { k: 1.5 }),
        ("IQR k=3.0".into(), OutlierDetection::Iqr { k: 3.0 }),
        (
            "IF c=0.01 (paper)".into(),
            OutlierDetection::IsolationForest { contamination: 0.01, n_trees: 50 },
        ),
        (
            "IF c=0.05".into(),
            OutlierDetection::IsolationForest { contamination: 0.05, n_trees: 50 },
        ),
        (
            "IF c=0.10".into(),
            OutlierDetection::IsolationForest { contamination: 0.10, n_trees: 50 },
        ),
    ];
    // each detector sweep is independent: fan them out
    let qualities = run_indexed(sweeps.len(), |i| detection_quality(&data, sweeps[i].1));
    for ((name, _), (cells, p, r)) in sweeps.iter().zip(&qualities) {
        println!("{name:<26} {cells:>9} {p:>10.2} {r:>8.2}");
    }

    header("Downstream KNN flag per catalogue detector (scenario BD)");
    let methods = cleanml_cleaning::CleaningMethod::catalogue(ErrorType::Outliers);
    let grid = evaluate_grid_with(&data, ErrorType::Outliers, &methods, &[ModelKind::Knn], &cfg)
        .expect("grid");
    for row in grid.r1_rows().expect("rows") {
        if row.scenario == cleanml_core::Scenario::BD {
            println!(
                "{:<18} flag={} (B̄={:.3}, D̄={:.3}, p0={:.3})",
                format!("{}/{}", row.detection.name(), row.repair.name()),
                row.flag,
                row.evidence.mean_before,
                row.evidence.mean_after,
                row.evidence.p_two
            );
        }
    }
}
