//! The resident-engine (serving core) guarantees:
//!
//! * N concurrent submissions against one `Engine` produce CSVs
//!   byte-identical to N serial `run_study` invocations, and overlapping
//!   submissions dedupe into the *same* in-flight tasks — the overlap
//!   trains exactly once, provably from the executed-task counts;
//! * a repeated submission executes zero `Train` tasks (warm in-memory
//!   reuse, not just a disk hit);
//! * cancelling one submission mid-run releases its subgraph without
//!   disturbing another submission's byte-identical output.
//!
//! The same guarantees over the wire are pinned in `http_gateway.rs`.

use std::time::Duration;

use cleanml_core::schema::ErrorType;
use cleanml_core::{run_study, CleanMlDb, ExperimentConfig};
use cleanml_engine::{Engine, EngineConfig, RunReport, TaskKind};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig { n_splits: 2, ..ExperimentConfig::quick() }
}

/// The canonical CSV rendering (headers included) — exactly what the
/// `study` binary writes.
fn csv_of(db: &CleanMlDb) -> String {
    format!("{}{}{}", db.r1_csv(), db.r2_csv(), db.r3_csv())
}

fn trains(report: &RunReport) -> usize {
    report.executed(TaskKind::Train) + report.remote(TaskKind::Train)
}

#[test]
fn concurrent_submissions_are_serial_identical_and_train_once() {
    let cfg = tiny_cfg();
    let ets = [ErrorType::Inconsistencies];

    let serial = run_study(&ets, &cfg).expect("serial study");
    let serial_csv = csv_of(&serial);

    // Baseline: how much a single cold run trains.
    let mut baseline = Engine::new(EngineConfig { workers: 4, ..Default::default() });
    let (_, base_report) = baseline.run_study_with_report(&ets, &cfg).expect("baseline");
    assert!(trains(&base_report) > 0, "a cold study must train");

    // Two submissions of the same study, merged into one resident engine
    // back to back, so the second rides the first's in-flight tasks.
    let engine = Engine::new(EngineConfig { workers: 4, ..Default::default() });
    let s1 = engine.submit_study(&ets, &cfg);
    let s2 = engine.submit_study(&ets, &cfg);
    let (db1, r1) = s1.wait().expect("first submission");
    let (db2, r2) = s2.wait().expect("second submission");

    assert_eq!(csv_of(&db1), serial_csv, "submission 1 vs serial");
    assert_eq!(csv_of(&db2), serial_csv, "submission 2 vs serial");
    assert_eq!(
        trains(&r1) + trains(&r2),
        trains(&base_report),
        "the overlap must dedupe into the same in-flight Train tasks: {r1:?} {r2:?}"
    );
    assert_eq!(
        r1.executed_total() + r2.executed_total(),
        base_report.executed_total(),
        "every task of the shared DAG executed exactly once"
    );

    // A third, repeated submission answers from the warm in-memory memo:
    // zero Train tasks — zero tasks at all.
    let s3 = engine.submit_study(&ets, &cfg);
    let (db3, r3) = s3.wait().expect("warm submission");
    assert_eq!(csv_of(&db3), serial_csv, "warm submission vs serial");
    assert_eq!(trains(&r3), 0, "warm submission retrained: {r3:?}");
    assert_eq!(r3.executed_total(), 0, "warm submission executed tasks: {r3:?}");
}

#[test]
fn cancel_mid_run_leaves_the_other_submission_byte_identical() {
    let cfg = tiny_cfg();
    let keep_ets = [ErrorType::Inconsistencies];

    let serial = run_study(&keep_ets, &cfg).expect("serial study");

    let engine = Engine::new(EngineConfig { workers: 2, ..Default::default() });
    let keep = engine.submit_study(&keep_ets, &cfg);
    // A disjoint study whose subgraph is exclusively its own.
    let doomed = engine.submit_study(&[ErrorType::Duplicates], &cfg);
    std::thread::sleep(Duration::from_millis(50));
    doomed.cancel();
    let err = doomed.wait().expect_err("cancelled submission must error");
    assert!(err.to_string().contains("cancelled"), "{err}");

    let (db, report) = keep.wait().expect("surviving submission");
    assert_eq!(csv_of(&db), csv_of(&serial), "cancel disturbed the surviving submission");
    assert!(trains(&report) > 0);
}
