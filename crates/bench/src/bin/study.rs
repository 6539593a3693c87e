//! Runs the complete single-error-type study (all five error types, all
//! participating datasets) through the `cleanml-engine` scheduler and
//! materializes the CleanML relational database as CSV files — the paper's
//! central artifact (§III's relations R1/R2/R3).
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin study -- \
//!     [--quick|--paper] [--workers N] [--cache-dir DIR] \
//!     [--cache-max-bytes N[k|m|g]] [--cache-stats] \
//!     [--listen ADDR] [--lease-timeout SECS] [out_dir]
//! ```
//!
//! With `--cache-dir`, a repeated or resumed invocation — including one
//! killed mid-run — skips every finished cleaning, training and
//! evaluation task via the engine's content-addressed artifact store;
//! `--cache-max-bytes` keeps the run directory under a byte budget with
//! LRU eviction.
//!
//! With `--listen`, this process becomes a distributed coordinator:
//! `cleanml-worker --connect ADDR` processes lease ready tasks over TCP
//! and ship artifacts back into the shared store; a worker killed mid-run
//! costs only its in-flight task (re-leased after `--lease-timeout`).

use std::path::{Path, PathBuf};

use cleanml_bench::{banner, config_from_args, header, run_study_cli};
use cleanml_core::schema::ErrorType;
use cleanml_core::{CleanMlDb, Relation};

/// Writes the relations in their canonical CSV form — the same renderers
/// the HTTP gateway pages from, so `GET /studies/:id/r1` (and `r2`, `r3`)
/// byte-matches these files.
fn dump(db: &CleanMlDb, dir: &Path) -> std::io::Result<()> {
    std::fs::write(dir.join("r1.csv"), db.r1_csv())?;
    std::fs::write(dir.join("r2.csv"), db.r2_csv())?;
    std::fs::write(dir.join("r3.csv"), db.r3_csv())?;
    Ok(())
}

/// Positional `out_dir`: the first non-flag argument that is not the value
/// of a preceding flag.
fn out_dir_from_args(args: &[String]) -> PathBuf {
    const VALUE_FLAGS: [&str; 9] = [
        "--splits",
        "--seed",
        "--workers",
        "--cache-dir",
        "--cache-max-bytes",
        "--listen",
        "--lease-timeout",
        "--trace-out",
        "--http-token",
    ];
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            args.next();
        } else if !a.starts_with("--") {
            return PathBuf::from(a);
        }
    }
    PathBuf::from("cleanml_db")
}

fn main() {
    let cfg = config_from_args();
    banner("Full CleanML study", &cfg);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = out_dir_from_args(&args);
    std::fs::create_dir_all(&dir).expect("create output directory");

    let all = [
        ErrorType::MissingValues,
        ErrorType::Outliers,
        ErrorType::Duplicates,
        ErrorType::Inconsistencies,
        ErrorType::Mislabels,
    ];
    let db = run_study_cli(&all, &cfg);
    dump(&db, &dir).expect("write CSVs");

    header("CleanML database written");
    println!(
        "{}: R1 = {} rows, R2 = {} rows, R3 = {} rows ({} hypotheses BY-corrected in R1)",
        dir.display(),
        db.r1.len(),
        db.r2.len(),
        db.r3.len(),
        db.n_hypotheses(Relation::R1),
    );
    for et in all {
        let q1 = db.q1(Relation::R1, et);
        println!(
            "  {:<16} P {:>5}  S {:>5}  N {:>5}",
            et.name(),
            q1.render(cleanml_core::Flag::Positive),
            q1.render(cleanml_core::Flag::Insignificant),
            q1.render(cleanml_core::Flag::Negative),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir(args: &[&str]) -> PathBuf {
        out_dir_from_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_values_are_not_the_out_dir() {
        assert_eq!(out_dir(&["--trace-out", "t.json", "out"]), PathBuf::from("out"));
        assert_eq!(out_dir(&["--http-token", "s3cret", "--quick", "out"]), PathBuf::from("out"));
        assert_eq!(
            out_dir(&["--quick", "--splits", "2", "--cache-dir", "c", "o"]),
            PathBuf::from("o")
        );
        assert_eq!(
            out_dir(&["--cache-stats", "--trace-out", "t.json"]),
            PathBuf::from("cleanml_db")
        );
        assert_eq!(out_dir(&[]), PathBuf::from("cleanml_db"));
    }
}
