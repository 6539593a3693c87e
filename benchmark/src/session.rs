//! The closed-loop gateway client: one connection at a time, each
//! request timed at the client, a seeded think time of 0–20 ms before the
//! submit and each status poll, and every answer checked against the
//! oracle's CSV text.
//!
//! A session submits the spec (`POST /studies`), polls its status until
//! `done`, collects R1–R3 as full CSVs, pages the relations with filters,
//! order, limit and offset in both formats, then lists the studies and
//! scrapes `/metrics`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::http::{self, Response};
use crate::json::{self, Value};
use crate::oracle::{split_csv_line, Csvs, PageQuery, Spec, Table};
use crate::trace::metric_key;

/// The gateway's route classes, as its telemetry names them.
pub const ROUTES: [&str; 5] = ["metrics", "studies", "submit", "status", "rows"];

/// Per-request budget; a slower answer counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// A session whose study is not done by then counts as failed.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);
/// Larger than any relation, so one page pulls a whole relation.
const WHOLE_RELATION: usize = 10_000;

/// One finished request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub route: &'static str,
    pub get: bool,
    pub ms: f64,
    pub bytes: usize,
    pub ok: bool,
}

/// A harness-side span around one public call, for the traced run.
#[derive(Debug, Clone)]
pub struct HarnessSpan {
    pub name: String,
    pub start: Instant,
    pub dur: Duration,
}

/// Upper end of the client's think time before a submit and before each
/// status poll. It equals the gateway's 20 ms accept poll, so those
/// requests arrive at a uniformly random phase of that poll. Without it,
/// the resume time of a whole run locks onto one multiple of the poll
/// period, set by thread start-up offsets that differ from run to run.
/// The data reads follow their predecessor at once, like any closed-loop
/// client.
const MAX_THINK_US: u64 = 20_000;

/// Everything the client observed.
#[derive(Debug, Default)]
pub struct Log {
    /// State of the think-time generator (splitmix64, seeded by the run).
    think: u64,
    pub requests: Vec<Sample>,
    /// Library-path resumes of the warm study, per session.
    pub resumes_ms: Vec<f64>,
    pub sessions: u64,
    pub sessions_failed: u64,
    /// Wrong bytes or broken invariants (as opposed to refusals).
    pub wrong: Vec<String>,
    pub spans: Vec<HarnessSpan>,
    pub record_spans: bool,
}

impl Log {
    pub fn new(seed: u64) -> Log {
        Log { think: seed, ..Log::default() }
    }

    /// Sleeps a think time drawn uniformly from [0, 20 ms) (splitmix64).
    fn think(&mut self) {
        self.think = self.think.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.think;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        std::thread::sleep(Duration::from_micros((z ^ (z >> 31)) % MAX_THINK_US));
    }

    pub fn span(&mut self, name: impl Into<String>, start: Instant) {
        if self.record_spans {
            self.spans.push(HarnessSpan { name: name.into(), start, dur: start.elapsed() });
        }
    }

    /// Timed request; `Err` for transport failures and non-2xx answers.
    fn call(
        &mut self,
        addr: SocketAddr,
        route: &'static str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let start = Instant::now();
        let result = http::request(addr, path, body, REQUEST_TIMEOUT);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.span(format!("http {} {path}", if body.is_some() { "POST" } else { "GET" }), start);
        let (ok, bytes) = match &result {
            Ok(r) => (r.is_success(), r.body.len()),
            Err(_) => (false, 0),
        };
        self.requests.push(Sample { route, get: body.is_none(), ms, bytes, ok });
        match result {
            Ok(r) if r.is_success() => Ok(r),
            Ok(r) => Err(format!("{path}: HTTP {} {}", r.status, String::from_utf8_lossy(&r.body))),
            Err(e) => Err(format!("{path}: {e}")),
        }
    }

    pub fn mismatch(&mut self, what: String) -> String {
        self.wrong.push(what.clone());
        what
    }

    pub fn requests_attempted(&self) -> u64 {
        self.requests.len() as u64
    }

    pub fn requests_failed(&self) -> u64 {
        self.requests.iter().filter(|r| !r.ok).count() as u64
    }
}

/// The page queries of session `k`: rotated so successive sessions read
/// different slices.
fn page_queries(spec: &Spec, k: usize) -> Vec<(PageQuery, bool)> {
    let models = cleanml_ml::PAPER_MODELS;
    let family = metric_key(models[k % models.len()].name());
    let error = metric_key(spec.errors[k % spec.errors.len()].name());
    vec![
        (
            PageQuery {
                table: Table::R1,
                filters: vec![("model", family)],
                order: Some(("p_two", false)),
                limit: 25,
                offset: (k * 5) % 40,
            },
            false,
        ),
        (
            PageQuery {
                table: Table::R1,
                filters: vec![("error", error.clone())],
                order: Some(("mean_after", true)),
                limit: 50,
                offset: 0,
            },
            true,
        ),
        (
            PageQuery {
                table: Table::R2,
                filters: vec![("error", error)],
                order: Some(("dataset", true)),
                limit: 20,
                offset: k % 5,
            },
            false,
        ),
        (
            PageQuery {
                table: Table::R3,
                filters: vec![],
                order: Some(("p_two", true)),
                limit: 10,
                offset: k % 3,
            },
            true,
        ),
    ]
}

/// Runs the HTTP part of session `k` against the gateway at `addr`.
/// `Err` means the session failed; a failing request is already in the
/// log.
pub fn run(
    log: &mut Log,
    addr: SocketAddr,
    spec: &Spec,
    reference: &Csvs,
    k: usize,
) -> Result<(), String> {
    log.think();
    let t0 = Instant::now();
    let submitted = log.call(addr, "submit", "/studies", Some(&spec.form_body()))?;
    let id = json_field(&submitted, "id")?
        .as_f64()
        .filter(|n| n.fract() == 0.0 && *n >= 1.0)
        .ok_or("submit: id is not a positive integer")? as u64;
    loop {
        log.think();
        let status = log.call(addr, "status", &format!("/studies/{id}"), None)?;
        match json_field(&status, "state")?.as_str() {
            Some("done") => break,
            Some("running") if t0.elapsed() < SESSION_TIMEOUT => {}
            Some("running") => {
                return Err(format!("study {id} not done after {SESSION_TIMEOUT:?}"))
            }
            other => return Err(format!("study {id} state {other:?}")),
        }
    }

    for table in [Table::R1, Table::R2, Table::R3] {
        let path = format!("/studies/{id}/{}.csv?limit={WHOLE_RELATION}", table.path());
        let got = log.call(addr, "rows", &path, None)?;
        if got.body != reference.relation(table).as_bytes() {
            return Err(log.mismatch(format!("{path}: body differs from the oracle's CSV")));
        }
    }

    for (query, as_json) in page_queries(spec, k) {
        let (want, total) = query.expected(reference.relation(query.table))?;
        let ext = if as_json { "json" } else { "csv" };
        let path = format!("/studies/{id}/{}.{ext}?{}", query.table.path(), query.query_string());
        let got = log.call(addr, "rows", &path, None)?;
        let verdict =
            if as_json { check_json_page(&got, &want, total) } else { check_csv_page(&got, &want) };
        if let Err(e) = verdict {
            return Err(log.mismatch(format!("{path}: {e}")));
        }
    }

    let listed = log.call(addr, "studies", "/studies", None)?;
    let listed_ok = json_field(&listed, "studies")?.as_array().is_some_and(|studies| {
        studies.iter().any(|s| {
            s.get("id").and_then(Value::as_f64) == Some(id as f64)
                && s.get("state").and_then(Value::as_str) == Some("done")
        })
    });
    if !listed_ok {
        return Err(log.mismatch(format!("/studies does not list study {id} as done")));
    }
    let metrics = log.call(addr, "metrics", "/metrics", None)?;
    if !metrics.text()?.contains("\ncleanml_http_requests_total ") {
        return Err(log.mismatch("/metrics lacks cleanml_http_requests_total".into()));
    }
    Ok(())
}

fn json_field(r: &Response, key: &str) -> Result<Value, String> {
    let doc = json::parse(r.text()?.trim_end())?;
    doc.get(key).cloned().ok_or_else(|| format!("response lacks {key:?}"))
}

fn check_csv_page(got: &Response, want: &str) -> Result<(), String> {
    if got.body == want.as_bytes() {
        Ok(())
    } else {
        Err(format!("{} bytes, expected the oracle's {}-byte slice", got.body.len(), want.len()))
    }
}

/// A JSON page must report the filtered total and carry exactly the rows
/// of the expected CSV slice, field by field.
fn check_json_page(got: &Response, want_csv: &str, want_total: usize) -> Result<(), String> {
    let doc = json::parse(got.text()?.trim_end())?;
    if doc.get("total").and_then(Value::as_f64) != Some(want_total as f64) {
        return Err(format!("total {:?}, expected {want_total}", doc.get("total")));
    }
    let rows = doc.get("rows").and_then(Value::as_array).ok_or("no rows array")?;
    let mut lines = want_csv.split_inclusive('\n');
    let header = split_csv_line(lines.next().ok_or("empty expected page")?)?;
    let expected: Vec<Vec<String>> = lines.map(split_csv_line).collect::<Result<_, _>>()?;
    if rows.len() != expected.len() {
        return Err(format!("{} rows, expected {}", rows.len(), expected.len()));
    }
    for (row, want) in rows.iter().zip(&expected) {
        for (col, field) in header.iter().zip(want) {
            let same = match row.get(col) {
                Some(Value::Str(s)) => s == field,
                Some(Value::Num(n)) => field.parse::<f64>() == Ok(*n),
                _ => false,
            };
            if !same {
                return Err(format!("row field {col:?} is {:?}, expected {field:?}", row.get(col)));
            }
        }
    }
    Ok(())
}
