//! Reproduces paper Table 18: data cleaning vs. robust-ML approaches
//! (§VII-B).
//!
//! Rows:
//! 1. LR + best cleaning vs **NaCL** on the missing-value datasets;
//! 2. best model + best cleaning vs **NaCL** on the same datasets;
//! 3. best model + best cleaning vs **MLP** on mislabels, inconsistencies,
//!    outliers and duplicates.
//!
//! P = cleaning better than the robust model.

use cleanml_bench::{banner, cli, dist_of, header, install_workers};
use cleanml_core::analysis::render_flag_table;
use cleanml_core::robust::RobustBaseline::{self, Mlp, Nacl};
use cleanml_core::robust::{compare_cleaning_vs_robust, table18_pool};
use cleanml_core::schema::ErrorType;
use cleanml_core::study::generate_datasets_for;
use cleanml_parallel::run_indexed;

/// One table row: label, error type, LR-only pool, robust baseline.
const ROWS: [(&str, ErrorType, bool, RobustBaseline); 6] = [
    ("LR + Best Cleaning vs NaCL | Missing Values", ErrorType::MissingValues, true, Nacl),
    ("Best Model + Best Cleaning vs NaCL | Missing Values", ErrorType::MissingValues, false, Nacl),
    ("Best Model + Best Cleaning vs MLP | Mislabel", ErrorType::Mislabels, false, Mlp),
    ("Best Model + Best Cleaning vs MLP | Inconsistency", ErrorType::Inconsistencies, false, Mlp),
    ("Best Model + Best Cleaning vs MLP | Outliers", ErrorType::Outliers, false, Mlp),
    ("Best Model + Best Cleaning vs MLP | Duplicates", ErrorType::Duplicates, false, Mlp),
];

fn main() {
    let args = cli::SPEC_WORKERS.parse_or_exit(std::env::args());
    install_workers(args.engine.effective_workers());
    let cfg = args.spec.config();
    banner("Table 18 (Robust ML vs Data Cleaning)", &cfg);

    header("Data Cleaning for ML vs Robust ML (P = cleaning better)");
    let mut rows = Vec::new();
    for (label, error_type, lr_only, baseline) in ROWS {
        let pool = table18_pool(lr_only);
        // Generate eagerly (shared mislabel bases are built once), then fan
        // the per-dataset comparisons out on the installed workers.
        let datasets = generate_datasets_for(error_type, cfg.base_seed);
        let flags = run_indexed(datasets.len(), |i| {
            compare_cleaning_vs_robust(&datasets[i], error_type, &pool, baseline, &cfg)
                .expect("comparison")
                .flag
        });
        rows.push((label.to_owned(), dist_of(&flags)));
    }
    print!("{}", render_flag_table("per-dataset flags aggregated", &rows));
}
