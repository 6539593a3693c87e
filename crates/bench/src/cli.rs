//! The one flag parser of every binary in this crate: a declarative table
//! of [`Flag`] rows (name, value metavariable, help line), of which each
//! binary's [`Cli`] declares the ones it reads. [`Cli::parse`] is pure;
//! [`Cli::parse_or_exit`] turns any misuse — unknown flag, stray
//! positional, missing or malformed value, repeated field, missing
//! required flag — into exit 2 with a message naming the argument and the
//! usage text rendered from the table, before the binary does any work.
//! The study-spec rows go through [`SubmitSpec::set_field`], the field
//! parser of the HTTP gateway's `POST /studies`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cleanml_engine::{EngineConfig, SubmitSpec};

/// One row of the flag table. Alternative spellings of one field (the
/// profile) share a row, separated by `|`.
pub struct Flag {
    name: &'static str,
    /// Metavariable of the value; `None` for a switch.
    value: Option<&'static str>,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, help }
}

const fn valued(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(value), help }
}

pub const PROFILE: Flag =
    switch("--quick|--standard|--paper", "6 splits | 20 splits (default) | 20 + 5-fold CV search");
pub const SPLITS: Flag = valued("--splits", "N", "train/test splits, 2..=1000");
pub const SEED: Flag = valued("--seed", "S", "base seed of datasets and splits (default 1)");
pub const ERRORS: Flag = valued("--errors", "LIST", "comma-separated error types (default all)");
pub const WORKERS: Flag = valued("--workers", "N", "worker threads (default 0 = all cores)");
pub const CACHE_DIR: Flag = valued("--cache-dir", "DIR", "persistent artifact store");
pub const CACHE_MAX_BYTES: Flag = valued("--cache-max-bytes", "N[k|m|g]", "store byte cap, LRU");
pub const LISTEN: Flag = valued("--listen", "HOST:PORT", "serve cleanml-worker and HTTP clients");
pub const LEASE_TIMEOUT: Flag =
    valued("--lease-timeout", "SECS", "requeue silent leases (default 5)");
pub const HTTP_TOKEN: Flag = valued("--http-token", "TOKEN", "bearer token for /studies routes");
pub const CACHE_STATS: Flag = switch("--cache-stats", "print the end-of-run [cache-stats] line");
pub const TRACE_OUT: Flag = valued("--trace-out", "FILE", "write task spans as Chrome trace JSON");
pub const CAP: Flag = valued("--cap", "N", "method catalogue cap per error type (default 3)");
pub const OUT: Flag = valued("--out", "FILE", "output JSON (default BENCH_quick.json)");
pub const CONNECT: Flag = valued("--connect", "HOST:PORT", "coordinator started with --listen");
pub const NAME: Flag = valued("--name", "NAME", "worker name (default worker-PID)");
pub const RETRY: Flag = valued("--retry", "SECS", "connect retry window (default 30)");

/// The study spec.
pub const SPEC: &[Flag] = &[PROFILE, SPLITS, SEED];
/// The engine: [`EngineConfig`].
pub const ENGINE: &[Flag] =
    &[WORKERS, CACHE_DIR, CACHE_MAX_BYTES, LISTEN, LEASE_TIMEOUT, HTTP_TOKEN];
/// Per-run reporting of [`crate::run_study_cli`].
pub const RUN: &[Flag] = &[CACHE_STATS, TRACE_OUT];

/// Tables 11–16 and `ablation_corrections`: a study through
/// [`crate::run_study_cli`].
pub const STUDY_RUN: Cli = Cli { flags: &[SPEC, ENGINE, RUN], positional: None, required: &[] };
/// `study`: a study run plus where its relations go.
pub const STUDY: Cli = Cli {
    positional: Some(("OUT_DIR", "where r1/r2/r3.csv go (default cleanml_db)")),
    ..STUDY_RUN
};
/// Tables 18–19, `ablation_splits`, `ablation_detectors`: jobs outside the
/// engine.
pub const SPEC_WORKERS: Cli = Cli { flags: &[SPEC, &[WORKERS]], positional: None, required: &[] };
pub const TABLE17: Cli = Cli { flags: &[SPEC, &[WORKERS, CAP]], ..SPEC_WORKERS };
pub const DUMP_DATASETS: Cli = Cli {
    flags: &[&[SEED]],
    positional: Some(("OUT_DIR", "where the CSVs go (default datasets_out)")),
    required: &[],
};
pub const SERVE: Cli = Cli { flags: &[ENGINE], positional: None, required: &["--listen"] };
pub const WORKER: Cli =
    Cli { flags: &[&[CONNECT, NAME, RETRY]], positional: None, required: &["--connect"] };
/// `cleanml-bench-trajectory`: `--out` defaults to `BENCH_quick.json`,
/// `--splits` to 2, the profile is quick.
pub const TRAJECTORY: Cli =
    Cli { flags: &[&[OUT, SPLITS, WORKERS, ERRORS, TRACE_OUT]], positional: None, required: &[] };

/// Everything a binary can read from its command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Profile, splits, seed and (`--errors`) error types.
    pub spec: SubmitSpec,
    pub engine: EngineConfig,
    pub cache_stats: bool,
    pub trace_out: Option<PathBuf>,
    pub positional: Option<PathBuf>,
    pub cap: Option<usize>,
    pub out: Option<PathBuf>,
    pub connect: Option<String>,
    pub name: Option<String>,
    pub retry: Option<u64>,
}

/// One binary's command line: the flag groups it reads, its positional
/// argument (metavariable, help) if it takes one, and the flags it cannot
/// run without.
pub struct Cli {
    flags: &'static [&'static [Flag]],
    positional: Option<(&'static str, &'static str)>,
    required: &'static [&'static str],
}

impl Cli {
    fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// Parses the arguments after the program name.
    pub fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut seen: Vec<&str> = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') || arg == "-" {
                match self.positional {
                    None => return Err(format!("unexpected argument {arg:?}")),
                    Some((meta, _)) if out.positional.is_some() => {
                        return Err(format!("{arg:?}: {meta} may be given once"))
                    }
                    Some(_) => out.positional = Some(arg.into()),
                }
                continue;
            }
            let Some(flag) = self.rows().find(|f| f.name.split('|').any(|n| n == arg)) else {
                return Err(format!("unknown flag {arg}"));
            };
            if seen.contains(&flag.name) {
                return Err(format!("{arg}: {} may be given once", flag.name));
            }
            seen.push(flag.name);
            let value = match flag.value {
                None => arg.as_str(),
                Some(meta) => match args.next() {
                    Some(v) if !v.starts_with("--") => v.as_str(),
                    _ => return Err(format!("{arg} expects {meta}")),
                },
            };
            store(&mut out, arg, value).map_err(|e| format!("{arg}: {e}"))?;
        }
        match self.required.iter().find(|r| !seen.contains(r)) {
            Some(missing) => Err(format!("{missing} is required")),
            None => Ok(out),
        }
    }

    /// Parses `argv` (program name first) or exits 2 with the reason and
    /// the usage text.
    pub fn parse_or_exit(&self, argv: impl IntoIterator<Item = String>) -> Args {
        let mut argv = argv.into_iter();
        let prog = argv.next().unwrap_or_default();
        let prog =
            Path::new(&prog).file_name().map_or(prog.clone(), |n| n.to_string_lossy().into());
        self.parse(&argv.collect::<Vec<_>>()).unwrap_or_else(|e| {
            eprint!("error: {e}\n{}", self.usage(&prog));
            std::process::exit(2);
        })
    }

    /// The usage text, rendered from the table.
    fn usage(&self, prog: &str) -> String {
        let shown = |f: &Flag| f.value.map_or(f.name.to_string(), |v| format!("{} {v}", f.name));
        let mut text = format!("usage: {prog}");
        for f in self.rows().filter(|f| self.required.contains(&f.name)) {
            text += &format!(" {}", shown(f));
        }
        text += " [flags]";
        if let Some((meta, _)) = self.positional {
            text += &format!(" [{meta}]");
        }
        text.push('\n');
        for f in self.rows() {
            text += &format!("  {:<28} {}\n", shown(f), f.help);
        }
        if let Some((meta, help)) = self.positional {
            text += &format!("  {meta:<28} {help}\n");
        }
        text
    }
}

/// Stores one flag's value (a switch gets its own spelling) in `args`.
fn store(args: &mut Args, flag: &str, value: &str) -> Result<(), String> {
    fn number<T: std::str::FromStr>(v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("not a number: {v:?}"))
    }
    match flag {
        "--quick" | "--standard" | "--paper" => args.spec.set_field("profile", &flag[2..])?,
        "--splits" | "--seed" | "--errors" => args.spec.set_field(&flag[2..], value)?,
        "--workers" => args.engine.workers = number(value)?,
        "--cache-dir" => args.engine.cache_dir = Some(value.into()),
        "--cache-max-bytes" => {
            let bytes = crate::parse_byte_size(value);
            args.engine.cache_max_bytes =
                Some(bytes.ok_or_else(|| format!("expects N[k|m|g], got {value:?}"))?);
        }
        "--listen" => args.engine.listen = Some(value.into()),
        "--lease-timeout" => match number(value)? {
            0 => return Err("expects whole seconds > 0".into()),
            secs => args.engine.lease_timeout = Duration::from_secs(secs),
        },
        "--http-token" if value.is_empty() => return Err("expects a non-empty token".into()),
        "--http-token" => args.engine.http_token = Some(value.into()),
        "--cache-stats" => args.cache_stats = true,
        "--trace-out" => args.trace_out = Some(value.into()),
        "--cap" => args.cap = Some(number(value)?),
        "--out" => args.out = Some(value.into()),
        "--connect" => args.connect = Some(value.into()),
        "--name" => args.name = Some(value.into()),
        "--retry" => args.retry = Some(number(value)?),
        other => return Err(format!("{other} has no store rule")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanml_core::schema::ErrorType;
    use cleanml_engine::Profile;

    fn parse(cli: &Cli, line: &str) -> Result<Args, String> {
        cli.parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn rejects(cli: &Cli, line: &str, needle: &str) {
        let err = parse(cli, line).expect_err(line);
        assert!(err.contains(needle), "{line:?}: {err:?} does not name {needle:?}");
    }

    #[test]
    fn misuse_fails_naming_the_argument() {
        rejects(&STUDY, "--bogus out_x", "--bogus");
        rejects(&STUDY, "--quick --splits", "--splits expects N");
        rejects(&STUDY, "--splits --quick out_x", "--splits expects N");
        rejects(&STUDY, "--http-token --quick", "--http-token expects TOKEN");
        rejects(&STUDY, "--workers abc", "--workers: not a number");
        rejects(&STUDY, "--seed -1", "--seed: not a number");
        rejects(&STUDY, "--splits 1 out_x", "--splits: 1 outside 2..=1000");
        rejects(&STUDY, "--splits 1001", "--splits: 1001 outside 2..=1000");
        rejects(&STUDY, "--quick --paper out_x", "--paper");
        rejects(&STUDY, "--splits 2 --splits 3", "--splits");
        rejects(&STUDY, "--cache-stats --cache-stats", "--cache-stats");
        rejects(&STUDY, "out_a out_b", "out_b");
        rejects(&STUDY, "--splits=3", "--splits=3");
        rejects(&STUDY_RUN, "--quick out", "out");
        rejects(&STUDY_RUN, "--cache-max-bytes 12q", "--cache-max-bytes");
        rejects(&STUDY_RUN, "--lease-timeout 0", "--lease-timeout");
        rejects(&TABLE17, "--cache-dir x", "--cache-dir");
        rejects(&TABLE17, "--cap many", "--cap");
        for flag in ["--cache-dir c", "--listen a:1", "--trace-out t", "--cache-stats"] {
            rejects(&SPEC_WORKERS, flag, flag.split(' ').next().unwrap());
        }
        rejects(&SERVE, "--workers 2", "--listen is required");
        rejects(&WORKER, "--name w1", "--connect is required");
        rejects(&TRAJECTORY, "--errors bogus", "--errors: unknown error type");
        rejects(&TRAJECTORY, "--quick", "--quick");
        rejects(&DUMP_DATASETS, "--splits 2", "--splits");
    }

    #[test]
    fn documented_invocations_parse_unchanged() {
        let a = parse(
            &STUDY,
            "--quick --splits 2 --cache-dir cache_dist --cache-max-bytes 64m \
             --listen 127.0.0.1:17431 --lease-timeout 5 --cache-stats out_dist",
        )
        .unwrap();
        assert_eq!((a.spec.profile, a.spec.splits, a.spec.seed), (Profile::Quick, Some(2), None));
        assert_eq!(a.engine.cache_dir, Some("cache_dist".into()));
        assert_eq!(a.engine.cache_max_bytes, Some(64 << 20));
        assert_eq!(a.engine.listen.as_deref(), Some("127.0.0.1:17431"));
        assert_eq!(a.engine.lease_timeout, Duration::from_secs(5));
        assert!(a.cache_stats && a.trace_out.is_none() && a.engine.http_token.is_none());
        assert_eq!(a.positional, Some("out_dist".into()));
        assert_eq!(a.spec.config().n_splits, 2);

        for line in [
            "--quick --splits 2 --workers 1 --cache-dir cache_scale_w1 --cache-stats out_scale_w1",
            "--quick --splits 2 --cache-dir cache_capped --cache-max-bytes 1m out_capped",
            "--quick --splits 2 --cache-dir cache_smoke --trace-out /nonexistent/dir/t.json out_t",
            "--quick --workers 8 --cache-dir runs/quick --cache-max-bytes 256m cleanml_db",
            "--quick --cache-dir runs/quick --listen 127.0.0.1:7401 --lease-timeout 5 cleanml_db",
            "--quick --splits 2 --trace-out trace.json out/",
            "--paper --seed 7 --http-token s3cret",
            "",
        ] {
            parse(&STUDY, line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
        let a = parse(&SERVE, "--listen 127.0.0.1:17477 --workers 2 --cache-dir c --http-token t")
            .unwrap();
        assert_eq!((a.engine.workers, a.engine.http_token.as_deref()), (2, Some("t")));
        let a = parse(&WORKER, "--connect 127.0.0.1:17431 --name w1 --retry 9").unwrap();
        assert_eq!(
            (a.connect.as_deref(), a.name.as_deref(), a.retry),
            (Some("127.0.0.1:17431"), Some("w1"), Some(9))
        );
        let a = parse(
            &TRAJECTORY,
            "--errors inconsistencies,outliers,duplicates --out B.json --trace-out t.json",
        )
        .unwrap();
        assert_eq!(
            a.spec.error_types,
            [ErrorType::Inconsistencies, ErrorType::Outliers, ErrorType::Duplicates]
        );
        assert_eq!((a.out, a.trace_out), (Some("B.json".into()), Some("t.json".into())));
        let a = parse(&TABLE17, "--quick --splits 4 --workers 2 --cap 5").unwrap();
        assert_eq!((a.cap, a.engine.workers), (Some(5), 2));
        assert_eq!(parse(&DUMP_DATASETS, "--seed 9 out").unwrap().spec.seed, Some(9));
        assert_eq!(parse(&DUMP_DATASETS, "").unwrap().spec.config().base_seed, 1);
    }

    #[test]
    fn every_row_has_a_store_rule_and_a_usage_line() {
        for cli in [STUDY, TABLE17, DUMP_DATASETS, SERVE, WORKER, TRAJECTORY] {
            let usage = cli.usage("prog");
            for flag in cli.rows() {
                for name in flag.name.split('|') {
                    let err = store(&mut Args::default(), name, "1").err().unwrap_or_default();
                    assert!(!err.contains("no store rule"), "{name}");
                }
                assert!(usage.contains(flag.help), "{usage}");
            }
        }
        assert!(SERVE
            .usage("cleanml-serve")
            .starts_with("usage: cleanml-serve --listen HOST:PORT"));
        assert!(STUDY.usage("study").lines().next().unwrap().ends_with("[flags] [OUT_DIR]"));
    }
}
