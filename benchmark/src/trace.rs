//! Reads the engine's Chrome trace and attributes task time to pool task
//! kinds, model families and cleaning detections by parsing span labels:
//!
//! * `train/<dataset>/<error type>/s<k>/<dirty | Detection-Repair>/<Family>`
//! * `clean/<dataset>/<error type>/s<k>/<Detection>-<Repair>`
//!
//! A pool span lasts the task body plus its store write; the write is the
//! span's `persist_ms` argument and its wait in the ready queue the
//! `queue_ms` argument. Execution time is the span minus `persist_ms`.
//! A train or clean label the parser does not recognise is an error, never
//! silently dropped from the totals.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// The pool's task kinds, as the engine names them.
pub const KINDS: [&str; 7] =
    ["generate", "context", "split", "clean", "train", "evaluate", "reduce"];

/// One complete span of the engine trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub cat: String,
    pub dur_ms: f64,
    pub args: Vec<(String, String)>,
}

impl Span {
    fn arg_ms(&self, key: &str) -> Result<Option<f64>, String> {
        match self.args.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("span {:?}: bad {key} {v:?}", self.name)),
        }
    }
}

/// Parses Chrome trace-event JSON into its complete (`ph:"X"`) spans.
pub fn parse_trace(text: &str) -> Result<Vec<Span>, String> {
    let doc = json::parse(text)?;
    let events = doc.get("traceEvents").and_then(Value::as_array).ok_or("no traceEvents array")?;
    let mut spans = Vec::with_capacity(events.len());
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let field = |k: &str| e.get(k).ok_or_else(|| format!("trace event without {k}"));
        let args = match e.get("args").and_then(Value::as_object) {
            Some(fields) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
            None => Vec::new(),
        };
        spans.push(Span {
            name: field("name")?.as_str().ok_or("span name is not a string")?.to_string(),
            cat: field("cat")?.as_str().ok_or("span cat is not a string")?.to_string(),
            dur_ms: field("dur")?.as_f64().ok_or("span dur is not a number")? / 1e3,
            args,
        });
    }
    Ok(spans)
}

/// The names a label may end in: model families for train tasks,
/// detections and repairs for clean tasks.
pub struct Vocabulary {
    pub families: Vec<&'static str>,
    pub detections: Vec<&'static str>,
    pub repairs: Vec<&'static str>,
}

impl Vocabulary {
    /// Every family, detection and repair of the paper's catalogue.
    pub fn paper() -> Vocabulary {
        let mut detections = Vec::new();
        let mut repairs = Vec::new();
        for et in cleanml_cleaning::ErrorType::all() {
            for m in cleanml_cleaning::CleaningMethod::catalogue(et) {
                if !detections.contains(&m.detection.name()) {
                    detections.push(m.detection.name());
                }
                if !repairs.contains(&m.repair.name()) {
                    repairs.push(m.repair.name());
                }
            }
        }
        Vocabulary {
            families: cleanml_ml::PAPER_MODELS.iter().map(|k| k.name()).collect(),
            detections,
            repairs,
        }
    }

    /// The model family a `train/…` label ends in.
    pub fn train_family(&self, label: &str) -> Result<&'static str, String> {
        let segs = task_segments(label, "train", 6)?;
        let family = segs[5];
        self.families
            .iter()
            .copied()
            .find(|f| *f == family)
            .ok_or_else(|| format!("train label {label:?}: unknown family {family:?}"))
    }

    /// The detection a `clean/…` label's `<Detection>-<Repair>` names.
    /// Matched against the catalogue, so hyphens inside either name can
    /// never shift the split.
    pub fn clean_detection(&self, label: &str) -> Result<&'static str, String> {
        let segs = task_segments(label, "clean", 5)?;
        let method = segs[4];
        self.detections
            .iter()
            .copied()
            .find(|d| {
                method
                    .strip_prefix(d)
                    .and_then(|rest| rest.strip_prefix('-'))
                    .is_some_and(|repair| self.repairs.contains(&repair))
            })
            .ok_or_else(|| format!("clean label {label:?}: unknown method {method:?}"))
    }
}

/// Splits `<prefix>/<dataset>/<error type>/s<k>/…` into exactly `n`
/// segments, checking the prefix and the split segment.
fn task_segments<'a>(label: &'a str, prefix: &str, n: usize) -> Result<Vec<&'a str>, String> {
    let segs: Vec<&str> = label.split('/').collect();
    let split_ok = segs.get(3).is_some_and(|s| {
        s.strip_prefix('s').is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()))
    });
    if segs.len() != n || segs[0] != prefix || !split_ok || segs.iter().any(|s| s.is_empty()) {
        return Err(format!("unrecognised {prefix} label {label:?}"));
    }
    Ok(segs)
}

/// Per-layer totals over one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Per kind: (executed tasks, execution ms, queue-wait ms).
    pub kinds: BTreeMap<&'static str, (u64, f64, f64)>,
    pub train_ms: BTreeMap<&'static str, f64>,
    pub clean_ms: BTreeMap<&'static str, f64>,
    pub persist_ms: f64,
}

impl Attribution {
    pub fn kind_ms(&self, kind: &str) -> f64 {
        self.kinds.get(kind).map_or(0.0, |k| k.1)
    }

    /// Σ of every kind's execution time.
    pub fn busy_ms(&self) -> f64 {
        self.kinds.values().map(|k| k.1).sum()
    }

    /// The consistency check: family times must add up to the train
    /// total and detection times to the clean total.
    pub fn check(&self) -> Result<(), String> {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        let train: f64 = self.train_ms.values().sum();
        let clean: f64 = self.clean_ms.values().sum();
        if !close(train, self.kind_ms("train")) {
            return Err(format!(
                "families sum to {train} ms, train tasks to {} ms",
                self.kind_ms("train")
            ));
        }
        if !close(clean, self.kind_ms("clean")) {
            return Err(format!(
                "detections sum to {clean} ms, clean tasks to {} ms",
                self.kind_ms("clean")
            ));
        }
        Ok(())
    }
}

/// Attributes every pool span of `spans`.
pub fn attribute(spans: &[Span], vocab: &Vocabulary) -> Result<Attribution, String> {
    let mut a = Attribution::default();
    for kind in KINDS {
        a.kinds.insert(kind, (0, 0.0, 0.0));
    }
    for f in &vocab.families {
        a.train_ms.insert(f, 0.0);
    }
    for d in &vocab.detections {
        a.clean_ms.insert(d, 0.0);
    }
    for span in spans {
        // helper stints on another task's subwork; the subwork counters
        // measure them
        if span.cat == "subwork" {
            continue;
        }
        let Some(kind) = KINDS.iter().copied().find(|k| *k == span.cat) else {
            return Err(format!("span {:?} has unknown category {:?}", span.name, span.cat));
        };
        let persist = span.arg_ms("persist_ms")?.unwrap_or(0.0);
        let queue = span.arg_ms("queue_ms")?.unwrap_or(0.0);
        let exec = span.dur_ms - persist;
        let entry = a.kinds.get_mut(kind).expect("every kind pre-inserted");
        entry.0 += 1;
        entry.1 += exec;
        entry.2 += queue;
        a.persist_ms += persist;
        match kind {
            "train" => {
                *a.train_ms.get_mut(vocab.train_family(&span.name)?).expect("family") += exec
            }
            "clean" => {
                *a.clean_ms.get_mut(vocab.clean_detection(&span.name)?).expect("detection") += exec
            }
            _ => {}
        }
    }
    Ok(a)
}

/// Metric-name form of a display name: `Random Forest` → `random_forest`.
pub fn metric_key(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, cat: &str, dur_ms: f64, args: &[(&str, &str)]) -> Span {
        Span {
            name: name.into(),
            cat: cat.into(),
            dur_ms,
            args: args.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    #[test]
    fn train_labels_with_spaces() {
        let v = Vocabulary::paper();
        assert_eq!(
            v.train_family("train/EEG/Missing Values/s0/dirty/Random Forest"),
            Ok("Random Forest")
        );
        assert_eq!(
            v.train_family("train/USCensus/Outliers/s1/IF-Median/Logistic Regression"),
            Ok("Logistic Regression")
        );
        assert_eq!(
            v.train_family("train/Airbnb/Duplicates/s12/Key Collision-Deletion/Naive Bayes"),
            Ok("Naive Bayes")
        );
    }

    #[test]
    fn clean_labels_with_hyphenated_methods() {
        let v = Vocabulary::paper();
        assert_eq!(v.clean_detection("clean/Airbnb/Duplicates/s0/ZeroER-Deletion"), Ok("ZeroER"));
        assert_eq!(
            v.clean_detection("clean/EEG/Missing Values/s1/Empty Entries-MeanDummy"),
            Ok("Empty Entries")
        );
        assert_eq!(
            v.clean_detection("clean/Sensor/Outliers/s0/HoloClean-HoloClean"),
            Ok("HoloClean")
        );
        assert_eq!(
            v.clean_detection("clean/Clothing/Mislabels/s0/cleanlab-cleanlab"),
            Ok("cleanlab")
        );
        assert_eq!(v.clean_detection("clean/EEG/Outliers/s0/IF-Mode"), Ok("IF"));
    }

    #[test]
    fn unknown_labels_fail_loudly() {
        let v = Vocabulary::paper();
        for bad in [
            "train/EEG/Outliers/s0/dirty/Random Forrest", // unknown family
            "train/EEG/Outliers/s0/Random Forest",        // missing variant segment
            "train/EEG/Outliers/x0/dirty/KNN",            // bad split segment
            "train/EEG/Outliers/s0/dirty/KNN/extra",
        ] {
            assert!(v.train_family(bad).is_err(), "{bad}");
        }
        for bad in [
            "clean/EEG/Outliers/s0/IF",         // no repair
            "clean/EEG/Outliers/s0/IF-Mystery", // unknown repair
            "clean/EEG/Outliers/s0/Magic-Mean", // unknown detection
            "clean/EEG/Outliers/s0/-Mean",      // empty detection
            "cleaner/EEG/Outliers/s0/IF-Mean",  // wrong prefix
        ] {
            assert!(v.clean_detection(bad).is_err(), "{bad}");
        }
        // an unrecognised label fails the whole attribution
        let spans = [span("train/EEG/Outliers/s0/dirty/Perceptron", "train", 5.0, &[])];
        assert!(attribute(&spans, &v).is_err());
        let spans = [span("mystery", "shuffle", 5.0, &[])];
        assert!(attribute(&spans, &v).is_err());
    }

    #[test]
    fn attribution_sums_and_checks() {
        let v = Vocabulary::paper();
        let spans = [
            span(
                "train/EEG/Outliers/s0/dirty/Random Forest",
                "train",
                12.0,
                &[("queue_ms", "1.5"), ("persist_ms", "2.0")],
            ),
            span("train/EEG/Outliers/s0/SD-Mean/XGBoost", "train", 7.0, &[]),
            span("clean/EEG/Outliers/s0/SD-Mean", "clean", 4.0, &[("persist_ms", "1.0")]),
            span("grid/EEG/Outliers", "reduce", 0.5, &[("queue_ms", "0.25")]),
            span("sub:train/EEG/Outliers/s0/dirty/Random Forest", "subwork", 3.0, &[]),
        ];
        let a = attribute(&spans, &v).expect("attribute");
        assert_eq!(a.kinds["train"], (2, 17.0, 1.5));
        assert_eq!(a.kinds["clean"], (1, 3.0, 0.0));
        assert_eq!(a.kinds["reduce"], (1, 0.5, 0.25));
        assert_eq!(a.kinds["generate"], (0, 0.0, 0.0));
        assert_eq!(a.train_ms["Random Forest"], 10.0);
        assert_eq!(a.train_ms["XGBoost"], 7.0);
        assert_eq!(a.clean_ms["SD"], 3.0);
        assert_eq!(a.persist_ms, 3.0);
        assert_eq!(a.busy_ms(), 20.5);
        assert_eq!(a.check(), Ok(()));

        let mut broken = a.clone();
        *broken.train_ms.get_mut("XGBoost").expect("xgb") += 1.0;
        assert!(broken.check().is_err());
    }

    #[test]
    fn vocabulary_covers_the_paper() {
        let v = Vocabulary::paper();
        assert_eq!(v.families.len(), 7);
        assert_eq!(v.detections.len(), 9);
        assert_eq!(metric_key("Random Forest"), "random_forest");
        assert_eq!(metric_key("Empty Entries"), "empty_entries");
    }
}
