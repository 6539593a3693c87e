//! The workloads and the metrics they report.
//!
//! Both run one study cold into a fresh store through the engine API, then
//! a closed loop of gateway sessions for `--seconds`, each on a fresh
//! engine over the now warm store:
//!
//! * `quick_cold` — the quick profile over outliers and duplicates, the
//!   error types with the costliest cleaning;
//! * `paper_search` — inconsistencies under the paper's random search with
//!   5-fold CV.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cleanml_engine::telemetry::{self, StatsSnapshot};
use cleanml_engine::{Engine, EngineConfig, TaskKind};

use crate::json;
use crate::oracle::{self, Csvs, Digests, Spec};
use crate::session::{self, Log, ROUTES};
use crate::stats::{self, median};
use crate::trace::{self, metric_key, Attribution, Vocabulary, KINDS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuickCold,
    PaperSearch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::QuickCold, Workload::PaperSearch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickCold => "quick_cold",
            Workload::PaperSearch => "paper_search",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self, seed: u64) -> Spec {
        match self {
            Workload::QuickCold => Spec::quick(seed),
            Workload::PaperSearch => Spec::paper(seed),
        }
    }
}

/// One measured invocation.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Fewest warm sessions a run makes, however short `--seconds`.
const MIN_SESSIONS: usize = 20;
/// Warm sessions in the traced run: the resume tail needs at least 20
/// samples to have ten beyond its median.
const TRACED_SESSIONS: usize = 30;

/// The result line plus the notes printed above it.
#[derive(Debug, Default)]
pub struct Report {
    wrong: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A metric that needs samples: a missing value makes the run
    /// incorrect instead of printing a made-up number.
    fn sampled(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => {
                self.wrong.push(format!("{name}: no samples"));
                self.metric(name, 0.0, unit);
            }
        }
    }

    fn tail(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let tail = stats::tail(samples);
        if let Some(t) = tail {
            self.notes.push(format!("{name} = p{} over {} samples", t.percentile, t.samples));
        }
        self.sampled(name, tail.map(|t| t.value), unit);
    }

    fn merge_log(&mut self, log: &Log) {
        self.attempted += log.sessions + log.requests_attempted();
        self.failed += log.sessions_failed + log.requests_failed();
        self.wrong.extend(log.wrong.iter().cloned());
    }

    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for w in &self.wrong {
            eprintln!("INCORRECT: {w}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

// ---- scratch space -----------------------------------------------------

/// Everything a run writes lives under `.bench_work/` in the current
/// directory; a run's own directory is removed when the run ends.
const WORK_ROOT: &str = ".bench_work";

struct WorkDir {
    path: PathBuf,
    next: usize,
}

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let path = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir { path, next: 0 })
    }

    /// A fresh, empty directory for one store.
    fn fresh(&mut self, what: &str) -> PathBuf {
        self.next += 1;
        self.path.join(format!("{what}-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn engine_config(store: &Path) -> EngineConfig {
    EngineConfig {
        workers: workers(),
        cache_dir: Some(store.to_path_buf()),
        listen: Some("127.0.0.1:0".to_string()),
        ..EngineConfig::default()
    }
}

// ---- the reference -------------------------------------------------------

/// Checks a study's CSVs against the oracle; a mismatch is recorded as
/// wrong output.
fn check_digests(report: &mut Report, csvs: &Csvs, want: &Digests, what: &str) -> bool {
    let bad = Digests::of_csvs(csvs).mismatches(want);
    if !bad.is_empty() {
        report.wrong.push(format!("{what}: {} differ from the serial oracle", bad.join(", ")));
    }
    bad.is_empty()
}

// ---- counters --------------------------------------------------------------

/// The registry's counters at one instant: the typed snapshot plus the
/// Prometheus render, for the series the snapshot does not carry.
struct Counters {
    stats: StatsSnapshot,
    prom: BTreeMap<String, f64>,
}

impl Counters {
    fn now() -> Counters {
        let t = telemetry::global();
        Counters { stats: t.stats_snapshot(), prom: parse_prometheus(&t.render()) }
    }

    fn prom_delta(&self, earlier: &Counters, series: &str) -> f64 {
        let get = |c: &Counters| c.prom.get(series).copied().unwrap_or(0.0);
        get(self) - get(earlier)
    }
}

/// `series{labels} value` lines of a Prometheus text exposition.
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k.to_string(), v)))
        .collect()
}

fn executed(stats: &StatsSnapshot, kind: TaskKind) -> u64 {
    let i = TaskKind::ALL.iter().position(|k| *k == kind).expect("kind listed in ALL");
    stats.executed_local[i] + stats.executed_remote[i]
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---- one study, one session --------------------------------------------------

/// Runs `spec` cold on `engine`: submit until R1–R3 are collected.
/// Returns the wall time and the relations' CSVs.
fn cold_study(
    engine: &Engine,
    spec: &Spec,
    want: &Digests,
    report: &mut Report,
    log: &mut Log,
) -> Option<(f64, Csvs)> {
    report.attempted += 1;
    let before = telemetry::global().stats_snapshot();
    let t0 = Instant::now();
    let result = engine.submit_study(&spec.errors, &spec.cfg).wait();
    let wall = t0.elapsed().as_secs_f64();
    log.span("Engine::submit_study+wait", t0);
    let delta = telemetry::global().stats_snapshot().since(&before);
    let db = match result {
        Ok((db, _)) => db,
        Err(e) => {
            report.failed += 1;
            eprintln!("study failed: {e}");
            return None;
        }
    };
    let csvs = Csvs::of(&db);
    let mut ok = check_digests(report, &csvs, want, "cold study");
    if spec.cfg.search.n_candidates > 1 && delta.fold_reuse == 0 {
        report.wrong.push("paper search study served no fold from a shared FoldPlan".into());
        ok = false;
    }
    if !ok {
        report.failed += 1;
    }
    Some((wall, csvs))
}

/// One session on a fresh engine over the warm `store`: the study resumed
/// through the library API, then the HTTP session; the engine is dropped
/// afterwards. A session that makes the engine train or clean anything is
/// wrong: the result must come from the store. Returns the `Engine::new`
/// time in ms.
fn warm_session(log: &mut Log, store: &Path, spec: &Spec, reference: &Csvs, k: usize) -> f64 {
    let t0 = Instant::now();
    let engine = Engine::new(engine_config(store));
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    log.span("Engine::new (warm store)", t0);
    let addr = engine.remote_addr().expect("engine listens");
    let before = telemetry::global().stats_snapshot();
    log.sessions += 1;
    let outcome = resume(log, &engine, spec, reference)
        .and_then(|()| session::run(log, addr, spec, reference, k));
    let delta = telemetry::global().stats_snapshot().since(&before);
    let (train, clean) = (executed(&delta, TaskKind::Train), executed(&delta, TaskKind::Clean));
    if train + clean > 0 {
        log.wrong.push(format!("session {k} executed {train} train and {clean} clean tasks"));
    }
    if let Err(e) = &outcome {
        eprintln!("session {k} failed: {e}");
    }
    if outcome.is_err() || train + clean > 0 {
        log.sessions_failed += 1;
    }
    open_ms
}

/// Resumes the warm study through `Engine::submit_study`: submit until
/// R1–R3 are collected, which must reproduce the oracle-checked CSVs.
fn resume(log: &mut Log, engine: &Engine, spec: &Spec, reference: &Csvs) -> Result<(), String> {
    let t0 = Instant::now();
    let result = engine.submit_study(&spec.errors, &spec.cfg).wait();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    log.span("Engine::submit_study+wait (warm)", t0);
    let (db, _) = result.map_err(|e| format!("resume: {e}"))?;
    if Csvs::of(&db) != *reference {
        return Err(log.mismatch("resumed study differs from the cold study's CSVs".into()));
    }
    log.resumes_ms.push(ms);
    Ok(())
}

// ---- the workload ---------------------------------------------------------------

pub fn run(args: &Args) -> Result<Report, String> {
    // Initialise the registry first so its trace epoch precedes every span.
    let _ = telemetry::global();
    let mut work = WorkDir::new()?;
    let name = args.workload.spec(0).name;
    let (base_seed, want) = oracle::recorded(oracle::RECORDED, name, args.seed)
        .ok_or_else(|| format!("benchmark/digests.txt records no seed of {name}"))?;
    let spec = args.workload.spec(base_seed);
    let mut report = Report::default();
    report.notes.push(format!("seed {} runs the study with base seed {base_seed}", args.seed));
    let mut log = Log::new(args.seed);

    let (engine, store) = fresh_engine(&mut work);

    if args.trace {
        // The study untraced, as in an untraced run, is the reference for
        // the overhead; then traced into another fresh store, followed by
        // traced sessions.
        let untraced = cold_study(&engine, &spec, &want, &mut report, &mut log).map(|(w, _)| w);
        drop(engine);
        let (engine, store) = fresh_engine(&mut work);
        telemetry::global().start_tracing();
        log.record_spans = true;
        let before = Counters::now();
        let t0 = Instant::now();
        let traced = cold_study(&engine, &spec, &want, &mut report, &mut log);
        drop(engine);
        let mut open_ms = Vec::new();
        if let Some((_, reference)) = &traced {
            for k in 0..TRACED_SESSIONS {
                open_ms.push(warm_session(&mut log, &store, &spec, reference, k));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let after = Counters::now();
        let overhead = untraced.zip(traced.map(|(w, _)| w)).map(|(u, t)| (t / u - 1.0) * 100.0);
        layer_metrics(&mut report, args, &work, &log, &before, &after, wall, &open_ms, overhead);
        return Ok(report);
    }

    let cold = cold_study(&engine, &spec, &want, &mut report, &mut log);
    drop(engine);
    let phase = Instant::now();
    let mut open_ms = Vec::new();
    if let Some((_, reference)) = &cold {
        while open_ms.len() < MIN_SESSIONS || phase.elapsed() < Duration::from_secs(args.seconds) {
            open_ms.push(warm_session(&mut log, &store, &spec, reference, open_ms.len()));
        }
    }
    let walls: Vec<f64> = cold.iter().map(|(w, _)| *w).collect();
    end_to_end(&mut report, &log, &open_ms, &walls, phase.elapsed().as_secs_f64());
    Ok(report)
}

/// A fresh store and an engine over it, for a cold study.
fn fresh_engine(work: &mut WorkDir) -> (Engine, PathBuf) {
    let store = work.fresh("store");
    (Engine::new(engine_config(&store)), store)
}

// ---- metrics -----------------------------------------------------------------

/// End-to-end metrics of an untraced run. `setup_s` is the median time
/// to start an engine over the warm store (`open_ms`, one per session):
/// the set-up every session pays before it can resume or serve anything.
fn end_to_end(report: &mut Report, log: &Log, open_ms: &[f64], walls: &[f64], phase_s: f64) {
    report.merge_log(log);
    report.sampled("setup_s", median(open_ms).map(|ms| ms / 1e3), "s");
    report.sampled("study_wall_s", median(walls), "s");
    let gets = get_ms(log);
    report.sampled("page_p50_ms", median(&gets), "ms");
    let done = log.requests.iter().filter(|r| r.ok).count() as f64;
    report.metric("requests_per_s", done / phase_s.max(1e-9), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.notes.push(format!(
        "{} cold studies, {} warm sessions, {} requests ({} GET)",
        walls.len(),
        log.sessions,
        log.requests.len(),
        gets.len()
    ));
}

/// Client-side times of the sessions' GET requests, in ms.
fn get_ms(log: &Log) -> Vec<f64> {
    log.requests.iter().filter(|r| r.get).map(|r| r.ms).collect()
}

/// Per-layer metrics of a traced phase lasting `wall` seconds, between
/// the counter readings `before` and `after`.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    args: &Args,
    work: &WorkDir,
    log: &Log,
    before: &Counters,
    after: &Counters,
    wall: f64,
    open_ms: &[f64],
    overhead_pct: Option<f64>,
) {
    report.merge_log(log);
    let attribution = match read_trace(args, work, log) {
        Ok(a) => a,
        Err(e) => {
            report.wrong.push(format!("traced run: {e}"));
            Attribution::default()
        }
    };
    if let Err(e) = attribution.check() {
        report.wrong.push(format!("attribution: {e}"));
    }
    let a = &attribution;
    let d = after.stats.since(&before.stats);
    let prom = |series: &str| after.prom_delta(before, series);

    for kind in KINDS {
        let (count, ms, queue) = a.kinds.get(kind).copied().unwrap_or_default();
        report.metric(format!("pool.task_ms.{kind}"), ms, "ms");
        report.metric(format!("pool.task_count.{kind}"), count as f64, "count");
        report.metric(format!("pool.queue_wait_ms.{kind}"), queue, "ms");
    }
    report.metric("pool.busy_frac", a.busy_ms() / (wall * 1e3 * workers() as f64), "ratio");
    report.metric("pool.tasks_failed", prom("cleanml_tasks_failed_total"), "count");

    for (family, ms) in &a.train_ms {
        report.metric(format!("ml.train_ms.{}", metric_key(family)), *ms, "ms");
    }
    report.metric("ml.cv_fits", d.cv_fits as f64, "count");
    report.metric("ml.fold_reuse", d.fold_reuse as f64, "count");
    let reuse_ratio = if d.cv_fits > 0 { d.fold_reuse as f64 / d.cv_fits as f64 } else { 0.0 };
    report.metric("ml.fold_reuse_ratio", reuse_ratio, "ratio");
    if args.workload == Workload::PaperSearch && d.fold_reuse == 0 {
        report.wrong.push("ml.fold_reuse is 0 on paper_search".into());
    }

    report.metric("subwork.batches", prom("cleanml_subwork_batches_total"), "count");
    report.metric("subwork.subtasks", prom("cleanml_subtasks_executed_total"), "count");

    for (detection, ms) in &a.clean_ms {
        report.metric(format!("cleaning.clean_ms.{}", metric_key(detection)), *ms, "ms");
    }
    report.metric("cleaning.clean_count", a.kinds.get("clean").map_or(0, |k| k.0) as f64, "count");
    report.metric("core.evaluate_ms", a.kind_ms("evaluate"), "ms");

    let hits = (d.memory_hits + d.disk_hits) as f64;
    let lookups = hits + d.misses as f64;
    report.metric("cache.memory_hits", d.memory_hits as f64, "count");
    report.metric("cache.disk_hits", d.disk_hits as f64, "count");
    report.metric("cache.misses", d.misses as f64, "count");
    report.metric("cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 }, "ratio");
    report.metric("store.writes", d.store_writes as f64, "count");
    report.metric("store.written_bytes", prom("cleanml_store_written_bytes_total"), "B");
    report.metric("store.persist_ms", a.persist_ms, "ms");
    report.sampled("store.open_ms", median(open_ms), "ms");

    for route in ROUTES {
        let samples: Vec<&session::Sample> =
            log.requests.iter().filter(|r| r.route == route).collect();
        let client: Vec<f64> = samples.iter().map(|r| r.ms).collect();
        let n = samples.len().max(1) as f64;
        let client_mean = client.iter().sum::<f64>() / n;
        let label = format!("{{route=\"{route}\"}}");
        let served = prom(&format!("cleanml_http_route_seconds_count{label}"));
        let server_mean = if served > 0.0 {
            prom(&format!("cleanml_http_route_seconds_sum{label}")) * 1e3 / served
        } else {
            0.0
        };
        let bytes = samples.iter().map(|r| r.bytes as f64).sum::<f64>() / n;
        report.metric(format!("http.client_ms.{route}"), median(&client).unwrap_or(0.0), "ms");
        report.metric(format!("http.route_ms.{route}"), server_mean, "ms");
        let accept_wait = if samples.is_empty() { 0.0 } else { client_mean - server_mean };
        report.metric(format!("http.accept_wait_ms.{route}"), accept_wait, "ms");
        report.metric(format!("http.response_bytes.{route}"), bytes, "B");
    }
    report.metric("http.rejected", prom("cleanml_http_rejected_total"), "count");

    // Session latencies that vary too much between runs on a shared host
    // to carry an end-to-end bound (see README.md), from the traced
    // sessions.
    report.sampled("resume_p50_ms", median(&log.resumes_ms), "ms");
    report.tail("resume_tail_ms", &log.resumes_ms, "ms");
    report.tail("page_tail_ms", &get_ms(log), "ms");

    report.sampled("trace.overhead_pct", overhead_pct, "%");
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("fail_ratio", fail_ratio, "ratio");
}

/// Writes the engine's spans plus the harness's own to
/// `.bench_work/trace-<workload>-<seed>.json` (kept for inspection) and
/// attributes the engine's.
fn read_trace(args: &Args, work: &WorkDir, log: &Log) -> Result<Attribution, String> {
    let engine_trace = work.path.join("engine-trace.json");
    telemetry::global().write_trace(&engine_trace).map_err(|e| format!("write_trace: {e}"))?;
    let text = std::fs::read_to_string(&engine_trace).map_err(|e| e.to_string())?;
    let spans = trace::parse_trace(&text)?;
    let attribution = trace::attribute(&spans, &Vocabulary::paper())?;

    let combined =
        Path::new(WORK_ROOT).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let mut out = text.trim_end().strip_suffix("]}").ok_or("unexpected trace layout")?.to_string();
    let epoch = log.spans.first().map(|s| s.start);
    for (i, s) in log.spans.iter().enumerate() {
        if i > 0 || !spans.is_empty() {
            out.push(',');
        }
        // Harness spans sit on their own track; timestamps are relative
        // to the first harness span, which starts the traced phase.
        let ts = epoch.map_or(0, |e| s.start.duration_since(e).as_micros());
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"harness\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":2,\"tid\":0,\"args\":{{}}}}",
            json::quote(&s.name),
            s.dur.as_micros()
        ));
    }
    out.push_str("]}");
    std::fs::write(&combined, out).map_err(|e| e.to_string())?;
    Ok(attribution)
}
