//! Runs the complete single-error-type study (all five error types, all
//! participating datasets) through the `cleanml-engine` scheduler and
//! materializes the CleanML relational database as CSV files — the paper's
//! central artifact (§III's relations R1/R2/R3).
//!
//! ```sh
//! cargo run --release -p cleanml-bench --bin study -- \
//!     [--quick|--paper] [--workers N] [--cache-dir DIR] [OUT_DIR]
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

use std::path::Path;

use cleanml_bench::{banner, cli, header, run_study_cli};
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

fn main() {
    let args = cli::STUDY.parse_or_exit(std::env::args());
    banner("Full CleanML study", &args.spec.config());
    let dir = args.positional.clone().unwrap_or_else(|| "cleanml_db".into());
    std::fs::create_dir_all(&dir).expect("create output directory");

    let all = ErrorType::all();
    let db = run_study_cli(&all, &args);
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

    fn out_dir(args: &[&str]) -> Option<std::path::PathBuf> {
        cli::STUDY
            .parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
            .unwrap()
            .positional
    }

    #[test]
    fn flag_values_are_not_the_out_dir() {
        assert_eq!(out_dir(&["--trace-out", "t.json", "out"]), Some("out".into()));
        assert_eq!(out_dir(&["--http-token", "s3cret", "--quick", "out"]), Some("out".into()));
        assert_eq!(
            out_dir(&["--quick", "--splits", "2", "--cache-dir", "c", "o"]),
            Some("o".into())
        );
        assert_eq!(out_dir(&["--cache-stats", "--trace-out", "t.json"]), None);
        assert_eq!(out_dir(&[]), None);
    }
}
