//! Golden results: the R1–R3 CSVs of a tier-1-sized study are pinned to the
//! committed SHA-256 digest table the benchmark checks too
//! (`benchmark/digests.txt`), on both execution paths — the serial runner
//! with its splits fanned out through a `ThreadBridge`, and the engine
//! cold, resumed from its store and repeated from memory.
//! A change that moves results on purpose regenerates the table with the
//! benchmark's `--oracle` mode and says why.

use std::sync::Arc;

use cleanml::core::database::CleanMlDb;
use cleanml::core::schema::ErrorType;
use cleanml::core::{run_study, ExperimentConfig};
use cleanml::engine::{Engine, EngineConfig, TaskKind};
use cleanml_parallel::{clear_bridge, install_bridge, ThreadBridge};

#[path = "../benchmark/src/sha256.rs"]
mod sha256;

const DIGESTS: &str = include_str!("../benchmark/digests.txt");

const ERRORS: [ErrorType; 2] = [ErrorType::Outliers, ErrorType::Duplicates];

fn cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, base_seed: 1, ..ExperimentConfig::quick() }
}

/// The `<r1> <r2> <r3>` digests recorded for `quick-outliers-duplicates-s2`
/// at seed 1.
fn recorded() -> Vec<&'static str> {
    DIGESTS
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 5 && f[0] == "quick-outliers-duplicates-s2" && f[1] == "1")
        .map(|f| f[2..].to_vec())
        .expect("digest table records quick-outliers-duplicates-s2 at seed 1")
}

fn assert_golden(db: &CleanMlDb, path: &str) {
    let got: Vec<String> = [db.r1_csv(), db.r2_csv(), db.r3_csv()]
        .iter()
        .map(|csv| sha256::hex_digest(csv.as_bytes()))
        .collect();
    assert_eq!(got, recorded(), "{path}: R1, R2, R3 digests differ from benchmark/digests.txt");
}

#[test]
fn runner_matches_golden_digests() {
    install_bridge(Arc::new(ThreadBridge { helpers: 1 }));
    let db = run_study(&ERRORS, &cfg());
    clear_bridge();
    assert_golden(&db.expect("study"), "runner under a ThreadBridge");
}

#[test]
fn engine_matches_golden_digests() {
    // Cold into a fresh store, a resume from that store on a fresh engine,
    // then a repeat on the resumed engine, answered from its memory: the
    // store and the warm path must reproduce the same bytes.
    let dir = std::env::temp_dir().join(format!("cleanml-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = || {
        Engine::new(EngineConfig { workers: 2, cache_dir: Some(dir.clone()), ..Default::default() })
    };

    let (db, cold) = engine().run_study_with_report(&ERRORS, &cfg()).expect("cold study");
    assert_golden(&db, "2-worker engine, cold");
    assert!(cold.executed(TaskKind::Train) > 0, "the cold study trains");

    let mut resumed = engine();
    let (db, resume) = resumed.run_study_with_report(&ERRORS, &cfg()).expect("resume");
    assert_golden(&db, "2-worker engine, resumed from the store");
    assert_eq!(resume.executed(TaskKind::Train) + resume.executed(TaskKind::Clean), 0);

    let (db, repeat) = resumed.run_study_with_report(&ERRORS, &cfg()).expect("repeat");
    assert_golden(&db, "2-worker engine, warm repeat");
    assert_eq!(repeat.executed_total(), 0, "the warm repeat executes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
