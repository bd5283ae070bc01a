//! `stackbench`: one whole-stack benchmark of the incremental data bubble
//! service — scenario generator → shard router → durable maintainer
//! (WAL, checkpoints, cold tier) → incremental maintenance → delta
//! clustering → subscriber poll. See README.md.
//!
//! ```text
//! stackbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!            [--scale full|smoke] [--out DIR]
//! stackbench compare RUNS_A RUNS_B
//! ```
//!
//! A run prints two lines on standard output: a report (resolved
//! configuration, host facts, sample counts, check outcomes, output
//! digest) and, last, the result `{"correct", "attempted", "failed",
//! "metrics"}`.

use stackbench::workload::{self, Config, Scale, DEFAULT_SEED};
use stackbench::{compare, host, run};
use std::path::PathBuf;
use std::process::ExitCode;

/// Run length when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  stackbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--out DIR]
  stackbench compare RUNS_A RUNS_B

workloads: ingest_d10, monitor_d2, many_bubbles, fsync_tiered";

enum Command {
    Run(run::RunOpts),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare(a.into(), b.into())),
            _ => Err("compare takes exactly two run directories".into()),
        };
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out = PathBuf::from(".stackbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::workload(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds must be in (0, 600], got {value:?}"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--scale" => {
                smoke = match value {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(format!("--scale takes full or smoke, got {value:?}")),
                };
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let w = workload.ok_or("--workload is required")?;
    let scale = if smoke {
        Scale::Smoke
    } else {
        Scale::Full { seconds }
    };
    Ok(Command::Run(run::RunOpts {
        config: Config::resolve(w, scale, seed),
        trace,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => match compare::compare(&a, &b) {
            Ok((table, regressed)) => {
                print!("{table}");
                if regressed {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("stackbench compare: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run(opts) => {
            if let Err(e) = host::check_hermetic() {
                eprintln!("stackbench: {e}");
                return ExitCode::from(2);
            }
            match run::run(&opts) {
                Ok(out) => {
                    println!("{}", out.report);
                    println!("{}", out.result_line());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("stackbench {}: {e}", opts.config.workload);
                    ExitCode::from(1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackbench::json::{self, Json};
    use stackbench::layers::PER_LAYER;
    use stackbench::workload::{END_TO_END, WORKLOADS};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Command::Run(o)) = parse_args(&args(
            "--workload monitor_d2 --seed 7 --seconds 3 --trace 1",
        )) else {
            panic!("expected a run");
        };
        assert_eq!(o.config.workload, "monitor_d2");
        assert_eq!(o.config.seed, 7);
        assert!(o.trace);
        for bad in [
            "--workload nope",
            "--workload monitor_d2 --seconds 0",
            "--workload monitor_d2 --seconds nan",
            "--workload monitor_d2 --trace 2",
            "--seed 3",
            "--workload monitor_d2 --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root must describe exactly the
    /// workloads and metrics this binary runs and reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), want);
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.name())
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
