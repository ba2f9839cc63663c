//! End-to-end and per-layer benchmark of the GRTX simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig13-train|orbit-views> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed drives scene synthesis (default 42). `--trace 0` measures the
//! end-to-end metrics (host time per simulated cycle, set-up time, peak RSS);
//! `--trace 1` runs the per-layer probes instead, timing calls into each
//! crate's public functions from this file's own spans, and writes those
//! spans as a Chrome trace under `.bench_build/perfbench/`. Every run
//! checks its outputs; a failed check counts against `attempted` and makes
//! the command exit non-zero. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod stats;
mod workloads;

use workloads::Workload;

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// The metrics a run reports, in report order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name — a bug in this benchmark.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            stats::valid_metric_name(&name),
            "invalid metric name {name:?}"
        );
        assert!(
            self.0.iter().all(|m| m.name != name),
            "duplicate metric {name}"
        );
        self.0.push(Metric { name, value, unit });
    }

    /// Names of metrics whose value is not a finite number.
    fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }

    /// The `"metrics"` JSON object; non-finite values print as `null`.
    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// A human-readable table, one metric per line.
    fn table(&self) -> String {
        self.0
            .iter()
            .map(|m| format!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig13-train|orbit-views> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be a positive number, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host and toolchain provenance printed with every run.
fn provenance() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let runtime = format!(
        "avx2={} fma={}",
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma")
    );
    #[cfg(not(target_arch = "x86_64"))]
    let runtime = "n/a".to_string();
    format!(
        "host: arch={} nproc={nproc} engine_threads={}; {rustc}; \
         compile-time avx2={} fma={}; runtime {runtime}",
        std::env::consts::ARCH,
        workloads::THREADS,
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
    )
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "error: perfbench measures host time and must run from a release build; \
             re-run with `cargo run --release --manifest-path perfbench/Cargo.toml -- ...`"
        );
        std::process::exit(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    println!("{}", provenance());
    println!(
        "paper Fig. 13 speedups over Baseline: GRTX-SW {:.2}x, GRTX-HW {:.2}x, GRTX {:.2}x",
        stats::PAPER_FIG13_SPEEDUPS[0],
        stats::PAPER_FIG13_SPEEDUPS[1],
        stats::PAPER_FIG13_SPEEDUPS[2]
    );

    let run = workloads::run(args.workload, args.seed, args.seconds, args.trace);
    let mut tally = run.tally;
    let non_finite = run.metrics.non_finite();
    if !non_finite.is_empty() {
        tally.record(Err(format!(
            "non-finite metrics: {}",
            non_finite.join(", ")
        )));
    }

    println!("{}", run.metrics.table());
    println!(
        "operations: attempted={} failed={} error_rate={}",
        tally.attempted,
        tally.failed,
        tally.error_rate()
    );
    for failure in &tally.failures {
        println!("FAILED: {failure}");
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        run.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "orbit-views",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::OrbitViews);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args(&["--workload", "fig13-train"]).unwrap();
        assert_eq!((d.seed, d.trace), (42, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "fig13-train", "--trace", "2"],
            &["--workload", "fig13-train", "--seconds", "0"],
            &["--workload", "fig13-train", "--seed"],
            &["--workload", "fig13-train", "--bogus", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metrics_print_as_json_with_units() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("bad", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            "{\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": null, \"unit\": \"count\"}}"
        );
        assert_eq!(m.non_finite(), vec!["bad"]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_metrics_are_a_bug() {
        let mut m = Metrics::default();
        m.push("x", 1.0, "s");
        m.push("x", 2.0, "s");
    }
}
