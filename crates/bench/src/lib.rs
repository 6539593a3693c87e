//! # cleanml-bench
//!
//! The reproduction harness: one binary per paper table (Tables 11–19),
//! scientific ablation binaries, and Criterion micro-benchmarks.
//!
//! Every `tableNN` binary regenerates the corresponding table of the paper's
//! evaluation section from scratch — generate datasets, run the §IV protocol
//! through the `cleanml-engine` scheduler, apply Benjamini–Yekutieli, issue
//! the §V-A queries — and prints rows in the paper's `NN% (count)` format.
//! Absolute counts depend on the synthetic stand-ins (see `DESIGN.md` §4);
//! the *shape* — which flags dominate, which methods/models/datasets
//! deviate — is the reproduction target, recorded in `EXPERIMENTS.md`.
//!
//! Every binary's flags are rows of the one declarative table in [`cli`]:
//! the study spec (`--quick`/`--standard`/`--paper`, `--splits`, `--seed`),
//! the engine ([`cli::ENGINE`]) and per-run reporting ([`cli::RUN`]). Each
//! binary declares only the rows it reads; anything else exits 2.

pub mod cli;

use std::sync::{mpsc, Arc};

use cleanml_core::database::FlagDist;
use cleanml_core::schema::ErrorType;
use cleanml_core::{CleanMlDb, ExperimentConfig};
use cleanml_engine::{CacheStats, Engine, EngineEvent, RunReport, SlowTask, StatsSnapshot};
use cleanml_parallel::{install_bridge, run_indexed, ThreadBridge};
use cleanml_stats::Flag;

/// Parses a byte size: a plain integer, optionally suffixed `k`/`m`/`g`
/// (case-insensitive, powers of 1024), e.g. `64m`.
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 10),
        'm' | 'M' => (&s[..s.len() - 1], 20),
        'g' | 'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<u64>().ok()?.checked_mul(1u64 << shift)
}

/// Rebuilds the [`cache_stats_line`] inputs from a telemetry
/// [`StatsSnapshot`] delta — the run's figures as the metrics registry
/// observed them, rather than as the `RunReport` tallied them. The two
/// agree for a single CLI run; deriving the line from the registry makes
/// the `--cache-stats` output a cross-check of the telemetry plane.
pub fn stats_from_registry_delta(d: &StatsSnapshot) -> (CacheStats, RunReport) {
    use cleanml_engine::TaskKind;
    let kinds = |counts: &[u64]| -> Vec<(TaskKind, usize)> {
        TaskKind::ALL
            .iter()
            .zip(counts)
            .filter(|&(_, &n)| n > 0)
            .map(|(&k, &n)| (k, n as usize))
            .collect()
    };
    let stats = CacheStats {
        memory_hits: d.memory_hits as usize,
        disk_hits: d.disk_hits as usize,
        misses: d.misses as usize,
        disk_writes: d.store_writes as usize,
        disk_evictions: d.store_evictions as usize,
    };
    let report = RunReport {
        executed: kinds(&d.executed_local),
        remote_executed: kinds(&d.executed_remote),
        cache_hits: 0,
        pruned: 0,
        total: 0,
        workers: 0,
        remote_workers: d.workers_joined as usize,
        releases: d.releases as usize,
    };
    (stats, report)
}

/// Runs a study through the engine with live progress on stderr — the
/// shared entry point of every `tableNN` binary, configured by its
/// [`cli::STUDY_RUN`] flags. A failed `--trace-out` write exits 1.
pub fn run_study_cli(error_types: &[ErrorType], args: &cli::Args) -> CleanMlDb {
    let telemetry = cleanml_engine::telemetry::global();
    if args.trace_out.is_some() {
        telemetry.start_tracing();
    }
    let (tx, rx) = mpsc::channel();
    let mut engine = Engine::new(args.engine.clone()).with_events(tx);
    eprintln!("[engine] {} workers", engine.workers());
    if let Some(addr) = engine.remote_addr() {
        eprintln!("[engine] listening on {addr} (connect with: cleanml-worker --connect {addr})");
    }

    let render = std::thread::spawn(move || {
        let mut to_run = 0usize;
        let mut done = 0usize;
        for event in rx {
            match event {
                EngineEvent::GraphReady { total, cache_hits, pruned, to_run: t } => {
                    to_run = t;
                    eprintln!(
                        "[engine] {total} tasks: {t} to run, {cache_hits} cache hits, \
                         {pruned} pruned"
                    );
                }
                EngineEvent::TaskFinished { ok: true, .. } => {
                    done += 1;
                    if done.is_multiple_of(100) || done == to_run {
                        eprint!("\r[engine] {done}/{to_run} tasks done");
                    }
                }
                EngineEvent::WorkerJoined { worker } => {
                    eprintln!("\n[engine] remote worker joined: {worker}");
                }
                EngineEvent::LeaseExpired { worker, id, kind } => {
                    eprintln!(
                        "\n[engine] lease expired: task {id} ({}) re-queued after silence \
                         from {worker}",
                        kind.name()
                    );
                }
                EngineEvent::WorkerLeft { worker, completed } => {
                    eprintln!("\n[engine] remote worker left: {worker} ({completed} tasks)");
                }
                EngineEvent::RunFinished if to_run > 0 => {
                    eprintln!();
                }
                _ => {}
            }
        }
    });

    let started = std::time::Instant::now();
    let before = telemetry.stats_snapshot();
    telemetry.reset_slow_tasks(); // run boundary: the table is per-run
    let (db, report) =
        engine.run_study_with_report(error_types, &args.spec.config()).expect("engine study run");
    let delta = telemetry.stats_snapshot().since(&before);
    let stats = engine.cache_stats();
    let store_totals = engine.disk_store().map(|s| (s.total_bytes(), s.len()));
    let store_line = store_totals.map(|(bytes, _)| {
        format!(
            "; store: {} writes, {} evicted, {} B",
            stats.disk_writes, stats.disk_evictions, bytes
        )
    });
    drop(engine); // closes the event channel
    render.join().expect("progress thread");
    let by_kind: Vec<String> =
        report.executed.iter().map(|(k, n)| format!("{} {}", n, k.name())).collect();
    let remote_line = if report.remote_workers > 0 {
        format!(
            "; remote: {} workers executed {} tasks, {} leases re-queued",
            report.remote_workers,
            report.remote_total(),
            report.releases,
        )
    } else {
        String::new()
    };
    eprintln!(
        "[engine] executed {} tasks in {:.1?} ({}); cache: {} hits, {} pruned{}{}",
        report.executed_total(),
        started.elapsed(),
        if by_kind.is_empty() { "all cached".to_string() } else { by_kind.join(", ") },
        report.cache_hits,
        report.pruned,
        store_line.unwrap_or_default(),
        remote_line,
    );
    if args.cache_stats {
        // The line is derived from the metrics registry (snapshot delta
        // over the run), not the RunReport — byte-identical figures for a
        // single run, and a standing cross-check that the telemetry plane
        // counts what the scheduler does. With telemetry disabled the
        // registry saw nothing, so fall back to the report.
        let slow = telemetry.slowest_tasks();
        let cv = (delta.cv_fits, delta.fold_reuse);
        let line = if telemetry.enabled() {
            let (stats, run) = stats_from_registry_delta(&delta);
            cache_stats_line(&stats, store_totals, &run, cv, &slow)
        } else {
            cache_stats_line(&stats, store_totals, &report, cv, &slow)
        };
        println!("{line}");
        for (i, s) in slow.iter().enumerate() {
            eprintln!(
                "[engine] slowest {}: {} {} ({}) {:.1} ms",
                i + 1,
                s.kind,
                s.label,
                if s.class.is_empty() { "-" } else { &s.class },
                s.dur_us as f64 / 1000.0,
            );
        }
    }
    if let Some(path) = &args.trace_out {
        match telemetry.write_trace(path) {
            Ok(n) => eprintln!("[engine] wrote {n} trace events to {}", path.display()),
            Err(e) => {
                eprintln!("[engine] trace write failed ({}): {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    db
}

/// Renders the end-of-run `--cache-stats` summary: layer-by-layer counters,
/// the persistent store's size, and the run's execution provenance (local
/// vs remote, plus re-leased orphans), in a stable greppable format.
/// `executed_train` counts `Train` tasks across both provenances — the
/// warm-answer acceptance signal (a warm serve answers with
/// `executed_train=0`). `cv` is the run's `(cv_fits, fold_reuse)` delta
/// from the fold plane: how many candidate×fold model fits the search
/// grid executed and how many fold materializations were answered by an
/// already-built `FoldPlan` view (a warm serve, having trained nothing,
/// reports `cv_fits=0`). `slow` is the registry's top-8 slowest-tasks
/// table; each entry renders as `kind:class:duration` (`-` when empty).
pub fn cache_stats_line(
    stats: &CacheStats,
    store_totals: Option<(u64, usize)>,
    report: &RunReport,
    cv: (u64, u64),
    slow: &[SlowTask],
) -> String {
    use cleanml_engine::TaskKind;
    let (store_bytes, store_entries) = store_totals.unwrap_or((0, 0));
    let (cv_fits, fold_reuse) = cv;
    format!(
        "[cache-stats] memory_hits={} disk_hits={} misses={} disk_writes={} \
         disk_evictions={} store_entries={} store_bytes={} executed_local={} \
         executed_remote={} executed_train={} remote_workers={} releases={} \
         cv_fits={} fold_reuse={} slowest={}",
        stats.memory_hits,
        stats.disk_hits,
        stats.misses,
        stats.disk_writes,
        stats.disk_evictions,
        store_entries,
        store_bytes,
        report.local_total(),
        report.remote_total(),
        report.executed(TaskKind::Train) + report.remote(TaskKind::Train),
        report.remote_workers,
        report.releases,
        cv_fits,
        fold_reuse,
        slowest_tasks_field(slow),
    )
}

/// The `slowest=` field of [`cache_stats_line`]: comma-joined
/// `kind:class:duration` entries, slowest first (`-` when the table is
/// empty or telemetry was off).
pub fn slowest_tasks_field(slow: &[SlowTask]) -> String {
    if slow.is_empty() {
        return "-".into();
    }
    slow.iter()
        .map(|s| {
            format!(
                "{}:{}:{:.1}ms",
                s.kind,
                if s.class.is_empty() { "-" } else { &s.class },
                s.dur_us as f64 / 1000.0,
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Gives this thread's [`run_indexed`] calls `workers` threads in total:
/// the caller plus `workers - 1` helpers spawned per call. The binaries
/// that run outside the engine (Tables 17–19 and the detector/split
/// ablations) call this once after parsing; nested calls stay serial.
pub fn install_workers(workers: usize) {
    install_bridge(Arc::new(ThreadBridge { helpers: workers.saturating_sub(1) }));
}

/// Fans the per-dataset jobs of grouped comparisons (Tables 17/19) out
/// through [`run_indexed`] and regroups the flags by comparison,
/// preserving order.
pub fn grouped_flags<F>(comparisons: &[(&[&str], ErrorType)], f: F) -> Vec<Vec<Flag>>
where
    F: Fn(&str, ErrorType) -> Flag + Sync,
{
    let jobs: Vec<(usize, &str, ErrorType)> = comparisons
        .iter()
        .enumerate()
        .flat_map(|(ci, (datasets, et))| datasets.iter().map(move |&d| (ci, d, *et)))
        .collect();
    let flags = run_indexed(jobs.len(), |i| f(jobs[i].1, jobs[i].2));
    let mut grouped = vec![Vec::new(); comparisons.len()];
    for (&(ci, _, _), flag) in jobs.iter().zip(flags) {
        grouped[ci].push(flag);
    }
    grouped
}

/// The canonical RFC-4180 field escaping lives beside the relation
/// renderers in `cleanml_core::database`; re-exported here for the table
/// binaries.
pub use cleanml_core::database::csv_escape;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Converts a grouped query result into printable rows.
pub fn rows_of<K: std::fmt::Display>(
    map: &std::collections::BTreeMap<K, FlagDist>,
) -> Vec<(String, FlagDist)> {
    map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Builds a [`FlagDist`] from individual flags (Tables 17–19 aggregation).
pub fn dist_of(flags: &[Flag]) -> FlagDist {
    let mut d = FlagDist::default();
    for &f in flags {
        d.add(f);
    }
    d
}

/// Prints the run configuration banner.
pub fn banner(table: &str, cfg: &ExperimentConfig) {
    println!(
        "CleanML reproduction — {table} | splits={} search={:?} alpha={} seed={}",
        cfg.n_splits, cfg.search, cfg.alpha, cfg.base_seed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_aggregation() {
        let d = dist_of(&[Flag::Positive, Flag::Negative, Flag::Positive]);
        assert_eq!(d.p, 2);
        assert_eq!(d.n, 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn rows_render() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("EEG".to_string(), FlagDist { p: 1, s: 0, n: 0 });
        let rows = rows_of(&m);
        assert_eq!(rows[0].0, "EEG");
    }

    #[test]
    fn grouped_flags_preserves_comparison_order() {
        let comparisons: [(&[&str], ErrorType); 2] =
            [(&["A", "B"], ErrorType::Outliers), (&["C"], ErrorType::Duplicates)];
        install_workers(2);
        let grouped = grouped_flags(&comparisons, |name, et| {
            if name == "B" || et == ErrorType::Duplicates {
                Flag::Positive
            } else {
                Flag::Insignificant
            }
        });
        cleanml_parallel::clear_bridge();
        assert_eq!(grouped, vec![vec![Flag::Insignificant, Flag::Positive], vec![Flag::Positive]]);
    }

    #[test]
    fn csv_escaping_covers_rfc4180() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(csv_escape("cr\rhere"), "\"cr\rhere\"");
        assert_eq!(csv_escape(""), "");
    }

    #[test]
    fn cache_stats_line_is_stable_and_greppable() {
        use cleanml_engine::TaskKind;
        let stats = CacheStats {
            memory_hits: 1,
            disk_hits: 2,
            misses: 3,
            disk_writes: 4,
            disk_evictions: 5,
        };
        let report = RunReport {
            executed: vec![(TaskKind::Train, 6), (TaskKind::Reduce, 2)],
            remote_executed: vec![(TaskKind::Train, 9)],
            remote_workers: 2,
            releases: 1,
            ..Default::default()
        };
        let slow = vec![
            SlowTask {
                label: "train eeg lr".into(),
                kind: "Train",
                class: "eeg".into(),
                dur_us: 5_250,
            },
            SlowTask {
                label: "clean citation".into(),
                kind: "Clean",
                class: String::new(),
                dur_us: 900,
            },
        ];
        assert_eq!(
            cache_stats_line(&stats, Some((1024, 7)), &report, (45, 30), &slow),
            "[cache-stats] memory_hits=1 disk_hits=2 misses=3 disk_writes=4 \
             disk_evictions=5 store_entries=7 store_bytes=1024 executed_local=8 \
             executed_remote=9 executed_train=15 remote_workers=2 releases=1 \
             cv_fits=45 fold_reuse=30 slowest=Train:eeg:5.2ms,Clean:-:0.9ms"
        );
        // no persistent layer / purely local run: fields read as zero,
        // line shape stable
        let local = cache_stats_line(&stats, None, &RunReport::default(), (0, 0), &[]);
        assert!(local.contains("store_entries=0 store_bytes=0"));
        assert!(local.ends_with(
            "executed_local=0 executed_remote=0 executed_train=0 remote_workers=0 releases=0 \
             cv_fits=0 fold_reuse=0 slowest=-"
        ));
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("12345"), Some(12345));
        assert_eq!(parse_byte_size("64k"), Some(64 << 10));
        assert_eq!(parse_byte_size("8M"), Some(8 << 20));
        assert_eq!(parse_byte_size("2g"), Some(2 << 30));
        assert_eq!(parse_byte_size(" 1k "), Some(1024));
        assert_eq!(parse_byte_size("x"), None);
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("18446744073709551615g"), None, "overflow rejected");
    }
}
