//! Writes all 14 dataset stand-ins (dirty + ground truth) as CSV files,
//! generated exactly as a study with the same `--seed` generates them.
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin dump_datasets -- [--seed S] [OUT_DIR]
//! ```

use cleanml_bench::cli;
use cleanml_core::study::dataset_seed;
use cleanml_datagen::{generate, specs};
use cleanml_dataset::csv::write_csv_file;

fn main() {
    let args = cli::DUMP_DATASETS.parse_or_exit(std::env::args());
    let dir = args.positional.unwrap_or_else(|| "datasets_out".into());
    let seed = args.spec.config().base_seed;
    std::fs::create_dir_all(&dir).expect("create output directory");

    println!("writing 14 datasets (seed {seed}) to {}", dir.display());
    for spec in specs() {
        let ds = generate(spec, dataset_seed(spec.name, seed));
        let dirty_path = dir.join(format!("{}_dirty.csv", spec.name));
        let clean_path = dir.join(format!("{}_truth.csv", spec.name));
        write_csv_file(&ds.dirty, &dirty_path).expect("write dirty");
        write_csv_file(&ds.clean_cells, &clean_path).expect("write truth");
        println!(
            "  {:<12} {:>4} rows  {:>3} missing cells  {:>3} dup rows  {:>3} mislabels  ({})",
            spec.name,
            ds.dirty.n_rows(),
            ds.dirty.n_missing_cells(),
            ds.duplicate_rows.len(),
            ds.mislabeled_rows.len(),
            spec.description,
        );
    }
}
