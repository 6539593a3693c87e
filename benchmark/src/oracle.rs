//! The correctness reference: study specs, SHA-256 digests of the serial
//! oracle's R1–R3 CSVs (`cleanml_core::run_study`, not the engine), and an
//! independent re-implementation of the gateway's filter/order/page rule
//! that cuts expected pages out of the oracle's CSV text.

use cleanml_cleaning::ErrorType;
use cleanml_core::{CleanMlDb, ExperimentConfig};
use cleanml_engine::{Profile, SubmitSpec};

use crate::sha256::hex_digest;
use crate::trace::metric_key;

/// One study a workload runs: its error types and configuration, built
/// through the gateway's own spec type so the `POST /studies` body and
/// the library call resolve to the same [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct Spec {
    /// Key in the digest table.
    pub name: &'static str,
    pub errors: Vec<ErrorType>,
    pub cfg: ExperimentConfig,
    profile: &'static str,
}

const SPLITS: usize = 2;

impl Spec {
    /// The quick profile over the two error types with the costliest
    /// detections: outliers (SD, IQR, isolation forest) and duplicates
    /// (key collision, ZeroER). The whole five-type grid takes about 30 s
    /// cold on a two-core host, too long to repeat in every run.
    pub fn quick(seed: u64) -> Spec {
        Spec::new(
            "quick-outliers-duplicates-s2",
            vec![ErrorType::Outliers, ErrorType::Duplicates],
            Profile::Quick,
            "quick",
            seed,
        )
    }

    /// Inconsistencies under the paper's search budget (8 candidates ×
    /// 5-fold CV).
    pub fn paper(seed: u64) -> Spec {
        Spec::new(
            "paper-inconsistencies-s2",
            vec![ErrorType::Inconsistencies],
            Profile::Paper,
            "paper",
            seed,
        )
    }

    fn new(
        name: &'static str,
        errors: Vec<ErrorType>,
        profile: Profile,
        profile_name: &'static str,
        seed: u64,
    ) -> Spec {
        let submit = SubmitSpec {
            error_types: errors.clone(),
            profile,
            splits: Some(SPLITS),
            seed: Some(seed),
        };
        Spec { name, errors, cfg: submit.config(), profile: profile_name }
    }

    pub fn by_name(name: &str, seed: u64) -> Option<Spec> {
        [Spec::quick(seed), Spec::paper(seed)].into_iter().find(|s| s.name == name)
    }

    pub fn seed(&self) -> u64 {
        self.cfg.base_seed
    }

    /// The form-encoded `POST /studies` body for this spec.
    pub fn form_body(&self) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| metric_key(e.name())).collect();
        format!(
            "errors={}&profile={}&splits={SPLITS}&seed={}",
            errors.join(","),
            self.profile,
            self.seed()
        )
    }
}

/// SHA-256 of the three relation CSVs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests {
    pub r1: String,
    pub r2: String,
    pub r3: String,
}

impl Digests {
    pub fn of_csvs(csvs: &Csvs) -> Digests {
        Digests {
            r1: hex_digest(csvs.r1.as_bytes()),
            r2: hex_digest(csvs.r2.as_bytes()),
            r3: hex_digest(csvs.r3.as_bytes()),
        }
    }

    /// The relations whose digests differ from `expected`.
    pub fn mismatches(&self, expected: &Digests) -> Vec<&'static str> {
        [
            ("r1", &self.r1, &expected.r1),
            ("r2", &self.r2, &expected.r2),
            ("r3", &self.r3, &expected.r3),
        ]
        .into_iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, _, _)| name)
        .collect()
    }

    /// One digest-table line.
    pub fn line(&self, spec: &str, seed: u64) -> String {
        format!("{spec} {seed} {} {} {}", self.r1, self.r2, self.r3)
    }
}

/// The canonical CSV text of R1–R3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csvs {
    pub r1: String,
    pub r2: String,
    pub r3: String,
}

impl Csvs {
    pub fn of(db: &CleanMlDb) -> Csvs {
        Csvs { r1: db.r1_csv(), r2: db.r2_csv(), r3: db.r3_csv() }
    }

    pub fn relation(&self, table: Table) -> &str {
        match table {
            Table::R1 => &self.r1,
            Table::R2 => &self.r2,
            Table::R3 => &self.r3,
        }
    }
}

/// The digest table committed next to the benchmark, one
/// `<spec> <seed> <r1> <r2> <r3>` line per recorded (spec, seed).
pub const RECORDED: &str = include_str!("../digests.txt");

/// Looks `(spec, seed)` up in a digest table.
pub fn lookup(table: &str, spec: &str, seed: u64) -> Option<Digests> {
    table.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [s, n, r1, r2, r3] if *s == spec && n.parse() == Ok(seed) => {
                Some(Digests { r1: r1.to_string(), r2: r2.to_string(), r3: r3.to_string() })
            }
            _ => None,
        }
    })
}

/// The base seed and reference digests for workload seed `seed`: the
/// `seed mod k`-th of the `k` seeds the table records for `spec`, in
/// table order. Every seed thus has its reference without running the
/// oracle, which for the paper spec takes as long as the study itself.
pub fn recorded(table: &str, spec: &str, seed: u64) -> Option<(u64, Digests)> {
    let seeds: Vec<u64> = table
        .lines()
        .filter_map(|line| match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            [s, n, _, _, _] if *s == spec => n.parse().ok(),
            _ => None,
        })
        .collect();
    let base = *seeds.get((seed % seeds.len().max(1) as u64) as usize)?;
    Some((base, lookup(table, spec, base)?))
}

/// Runs the serial oracle for `spec` and digests its CSVs.
pub fn run_oracle(spec: &Spec) -> Result<Digests, String> {
    let db = cleanml_core::run_study(&spec.errors, &spec.cfg).map_err(|e| e.to_string())?;
    Ok(Digests::of_csvs(&Csvs::of(&db)))
}

// ---- expected gateway pages ------------------------------------------

/// The three result relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    R1,
    R2,
    R3,
}

impl Table {
    pub fn path(self) -> &'static str {
        match self {
            Table::R1 => "r1",
            Table::R2 => "r2",
            Table::R3 => "r3",
        }
    }
}

/// One page request against a relation: equality filters, one order key
/// (`column` or `column.desc`), limit and offset — the gateway's
/// documented query contract.
#[derive(Debug, Clone)]
pub struct PageQuery {
    pub table: Table,
    pub filters: Vec<(&'static str, String)>,
    pub order: Option<(&'static str, bool)>,
    pub limit: usize,
    pub offset: usize,
}

/// Value columns: filtered and ordered as numbers, not text.
const NUMERIC_COLUMNS: [&str; 6] =
    ["p_two", "p_upper", "p_lower", "mean_before", "mean_after", "n_splits"];

impl PageQuery {
    /// The query string, percent-encoded.
    pub fn query_string(&self) -> String {
        let mut pairs: Vec<String> =
            self.filters.iter().map(|(k, v)| format!("{k}={}", encode(v))).collect();
        if let Some((col, desc)) = self.order {
            pairs.push(format!("order={col}{}", if desc { ".desc" } else { "" }));
        }
        pairs.push(format!("limit={}", self.limit));
        pairs.push(format!("offset={}", self.offset));
        pairs.join("&")
    }

    /// The expected page, cut out of the relation's full CSV: the header
    /// line plus the selected data lines, byte for byte; and the number
    /// of rows the filters matched before paging.
    pub fn expected(&self, csv: &str) -> Result<(String, usize), String> {
        let mut lines = csv.split_inclusive('\n');
        let header = lines.next().ok_or("empty relation CSV")?;
        let columns: Vec<String> = split_csv_line(header)?;
        let index = |name: &str| {
            columns.iter().position(|c| c == name).ok_or_else(|| format!("no column {name:?}"))
        };
        let filters: Vec<(usize, bool, &str)> = self
            .filters
            .iter()
            .map(|(c, v)| {
                let c = if *c == "error" { "error_type" } else { c };
                Ok((index(c)?, NUMERIC_COLUMNS.contains(&c), v.as_str()))
            })
            .collect::<Result<_, String>>()?;
        let mut hits: Vec<(Vec<String>, &str)> = Vec::new();
        for line in lines {
            let fields = split_csv_line(line)?;
            if fields.len() != columns.len() {
                return Err(format!("row has {} fields, header {}", fields.len(), columns.len()));
            }
            let keep = filters.iter().all(|&(i, numeric, want)| {
                if numeric {
                    match (fields[i].parse::<f64>(), want.parse::<f64>()) {
                        (Ok(a), Ok(b)) => a == b,
                        _ => fields[i] == want,
                    }
                } else {
                    fold(&fields[i]) == fold(want)
                }
            });
            if keep {
                hits.push((fields, line));
            }
        }
        if let Some((col, desc)) = self.order {
            let i = index(col)?;
            if NUMERIC_COLUMNS.contains(&col) {
                let num = |f: &[String]| f[i].parse::<f64>().unwrap_or(f64::NAN);
                hits.sort_by(|a, b| {
                    let (x, y) = (num(&a.0), num(&b.0));
                    if desc {
                        y.total_cmp(&x)
                    } else {
                        x.total_cmp(&y)
                    }
                });
            } else if desc {
                hits.sort_by(|a, b| b.0[i].cmp(&a.0[i]));
            } else {
                hits.sort_by(|a, b| a.0[i].cmp(&b.0[i]));
            }
        }
        let total = hits.len();
        let mut page = header.to_string();
        for (_, line) in hits.iter().skip(self.offset).take(self.limit) {
            page.push_str(line);
        }
        Ok((page, total))
    }
}

/// Case- and punctuation-insensitive name comparison key, so
/// `random_forest` selects `Random Forest`.
fn fold(s: &str) -> String {
    s.chars().filter(char::is_ascii_alphanumeric).map(|c| c.to_ascii_lowercase()).collect()
}

fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b',') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Splits one RFC 4180 CSV line (with or without its newline) into
/// unescaped fields.
pub fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let mut field = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    Some('"') => break,
                    Some(c) => field.push(c),
                    None => return Err(format!("unterminated quote in {line:?}")),
                }
            }
            if !matches!(chars.peek(), None | Some(',')) {
                return Err(format!("text after closing quote in {line:?}"));
            }
        } else {
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                field.push(c);
                chars.next();
            }
        }
        fields.push(field);
        match chars.next() {
            Some(',') => continue,
            None => return Ok(fields),
            Some(_) => unreachable!("fields end at a comma or the line end"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R1: &str = "dataset,error_type,model,p_two\n\
        EEG,Outliers,Random Forest,1e-3\n\
        EEG,Outliers,KNN,5e-1\n\
        Titanic,Mislabels,Random Forest,2e-2\n\
        \"A,B\",Outliers,Random Forest,1e-4\n";

    fn digests() -> Digests {
        Digests::of_csvs(&Csvs { r1: R1.into(), r2: "x\n".into(), r3: "y\n".into() })
    }

    #[test]
    fn digest_check_rejects_a_one_byte_change() {
        let good = digests();
        // flip one byte anywhere in R1: the check must name r1, only r1
        for pos in [0, R1.len() / 2, R1.len() - 2] {
            let mut bytes = R1.as_bytes().to_vec();
            bytes[pos] ^= 0x01;
            let changed = Csvs {
                r1: String::from_utf8(bytes).expect("ascii"),
                r2: "x\n".into(),
                r3: "y\n".into(),
            };
            assert_eq!(Digests::of_csvs(&changed).mismatches(&good), vec!["r1"]);
        }
        // a dropped trailing newline is a change too
        let trimmed = Csvs { r1: R1.trim_end().into(), r2: "x\n".into(), r3: "y\n".into() };
        assert_eq!(Digests::of_csvs(&trimmed).mismatches(&good), vec!["r1"]);
        assert!(digests().mismatches(&good).is_empty());
    }

    #[test]
    fn digest_table_lookup() {
        let d = digests();
        let table = format!("# comment\n{}\n{}\n", d.line("a", 1), d.line("b", 2));
        assert_eq!(lookup(&table, "b", 2), Some(d.clone()));
        assert_eq!(lookup(&table, "a", 2), None);
        assert_eq!(lookup(&table, "c", 1), None);
        // workload seeds cycle through the recorded base seeds in order
        let table = format!("{table}{}\n", d.line("b", 5));
        let base = |seed| recorded(&table, "b", seed).map(|(b, _)| b);
        assert_eq!([base(0), base(1), base(2), base(7)], [Some(2), Some(5), Some(2), Some(5)]);
        assert_eq!(recorded(&table, "a", 9), Some((1, d.clone())));
        assert_eq!(recorded(&table, "c", 0), None);
    }

    #[test]
    fn pages_are_slices_of_the_csv() {
        let q = PageQuery {
            table: Table::R1,
            filters: vec![("model", "random_forest".into())],
            order: Some(("p_two", false)),
            limit: 2,
            offset: 1,
        };
        let (page, total) = q.expected(R1).expect("page");
        assert_eq!(total, 3);
        assert_eq!(
            page,
            "dataset,error_type,model,p_two\nEEG,Outliers,Random Forest,1e-3\nTitanic,Mislabels,Random Forest,2e-2\n"
        );
        assert_eq!(q.query_string(), "model=random_forest&order=p_two&limit=2&offset=1");

        let q = PageQuery {
            table: Table::R1,
            filters: vec![("error", "outliers".into())],
            order: Some(("dataset", true)),
            limit: 10,
            offset: 0,
        };
        let (page, total) = q.expected(R1).expect("page");
        assert_eq!(total, 3);
        // quoted field kept verbatim; text order descending, ties stable
        assert_eq!(
            page,
            "dataset,error_type,model,p_two\nEEG,Outliers,Random Forest,1e-3\nEEG,Outliers,KNN,5e-1\n\"A,B\",Outliers,Random Forest,1e-4\n"
        );
    }

    #[test]
    fn csv_lines_split_with_quotes() {
        assert_eq!(split_csv_line("a,\"b,c\",\"d\"\"e\"\n").expect("split"), ["a", "b,c", "d\"e"]);
        assert_eq!(split_csv_line("a,,").expect("split"), ["a", "", ""]);
        assert!(split_csv_line("\"open").is_err());
    }

    #[test]
    fn specs_match_the_gateway_body() {
        let q = Spec::quick(7);
        assert_eq!(q.cfg.n_splits, 2);
        assert_eq!(q.cfg.base_seed, 7);
        assert_eq!(q.cfg.search, ExperimentConfig::quick().search);
        assert_eq!(q.form_body(), "errors=outliers,duplicates&profile=quick&splits=2&seed=7");
        let p = Spec::paper(3);
        assert_eq!(p.cfg.search, cleanml_ml::cv::SearchBudget::paper());
        assert_eq!(p.form_body(), "errors=inconsistencies&profile=paper&splits=2&seed=3");
    }
}
