//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload against the public entry points for `--seconds`
//! seconds, checks the correctness gates, and prints one JSON object per
//! line: first the full record (environment, every metric with its unit and
//! sample count, gate verdicts), last the summary the benchmark contract
//! asks for. `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` runs the workload, replays its key frames through each
//! layer's public calls with spans on, and reports the per-layer metrics.
//! The exit code is non-zero when a gate fails or the run errors.

mod client;
mod json;
mod openloop;
mod replay;
mod schedule;
mod stats;
mod trace;
mod workloads;

use json::Json;
use workloads::{Metric, Threads, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is itself a git checkout (git is not asked to search parent
/// directories, which could belong to another repository), else
/// `$PERFBENCH_COMMIT`, else "unknown".
fn commit() -> String {
    std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .or_else(|| std::env::var("PERFBENCH_COMMIT").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metric_list(metrics: &[Metric]) -> Json {
    Json::Arr(
        metrics
            .iter()
            .map(|m| {
                Json::obj()
                    .with("name", m.name.as_str())
                    .with("value", m.value)
                    .with("unit", m.unit)
                    .with("samples", m.samples)
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let threads = Threads::for_workload(args.workload);
    st_tensor::parallel::set_threads(threads.kernel);
    let seconds = args.seconds as f64;
    let (out, live) = match args.workload {
        Workload::Mobile => workloads::run_mobile(threads, args.seed, seconds, args.trace),
        workload => workloads::run_open(workload, threads, args.seed, seconds, args.trace),
    }
    .map_err(|e| format!("run failed: {e}"))?;
    let mut gates = out.gates;
    let reported: Vec<Metric> = if args.trace {
        let (layers, trace_gates) = replay::per_layer(&live, args.workload, args.seed)
            .map_err(|e| format!("replay failed: {e}"))?;
        gates.extend(trace_gates);
        layers
    } else {
        out.e2e.clone()
    };
    let finite = reported.iter().all(|m| m.value.is_finite());
    let correct = finite && gates.iter().all(|g| g.ok);

    let record = Json::obj()
        .with("benchmark", "perfbench")
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("commit", commit())
        .with(
            "threads",
            Json::obj()
                .with("nproc", threads.nproc)
                .with("reactor", threads.reactor)
                .with("kernel", threads.kernel),
        )
        .with(
            "percentiles_below_rule",
            Json::Arr(
                out.below_rule
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        )
        .with("metrics", metric_list(&reported))
        .with("end_to_end", metric_list(&out.e2e))
        .with("detail", metric_list(&out.detail))
        .with(
            "gates",
            Json::Arr(
                gates
                    .iter()
                    .map(|g| {
                        Json::obj()
                            .with("name", g.name)
                            .with("ok", g.ok)
                            .with("detail", g.detail.as_str())
                    })
                    .collect(),
            ),
        );
    println!("{}", record.render());

    let mut metrics = Json::obj();
    for m in &reported {
        metrics.push(
            &m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    let summary = Json::obj()
        .with("correct", correct)
        .with("attempted", out.attempted.max(1))
        .with("failed", out.failed)
        .with("metrics", metrics);
    println!("{}", summary.render());
    for gate in gates.iter().filter(|g| !g.ok) {
        eprintln!("gate failed: {}: {}", gate.name, gate.detail);
    }
    if !finite {
        eprintln!("a reported metric is not finite");
    }
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
