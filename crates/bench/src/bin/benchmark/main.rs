//! The end-to-end benchmark: five named workloads against the shipped
//! `asap-server` binary and the ASAP operator, every output checked
//! against an in-process serial oracle before a clock is trusted, every
//! metric printed by name with its unit. See `README.md` beside this
//! file for what each workload and metric means.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! benchmark --all [--seed N] [--seconds S] [--smoke] [--repeat N]
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one run of one
//! workload, whose last line of standard output is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! second runs every workload untraced and then traced, prints both
//! tables and the layer budgets, and writes `results.json`; `--repeat N`
//! runs the untraced set N times and compares each metric's spread with
//! its bound. Run it from the repository root: it builds `asap-server`
//! there and spawns the binary it built.

mod batch;
mod child;
mod client;
mod dashboard;
mod env;
mod gen;
mod ingest;
mod json;
mod layers;
mod live;
mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use metrics::{workload_figures, Def, MetricSet, END_TO_END, PER_LAYER, WORKLOADS};
use run::{Ctx, Outcome};

const USAGE: &str =
    "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       \
                     benchmark --all [--seed N] [--seconds S] [--smoke] [--repeat N]";
/// `run_seconds` of `BENCHMARK.json`, the default measured phase.
pub const RUN_SECONDS: f64 = 15.0;
/// The measured phase of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.6;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !metrics::is_workload(name) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        names.join(", ")
                    ));
                }
                parsed.workload = Some(name.to_owned());
            }
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative whole number".to_owned())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a positive whole number")?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_owned());
    }
    if parsed.repeat > 1 && !parsed.all {
        return Err("--repeat goes with --all".to_owned());
    }
    Ok(parsed)
}

/// This process's scratch directory, removed when the run ends however
/// it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<Self, String> {
        let dir = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = match name {
        "ingest-mem" => ingest::run(ctx, false),
        "ingest-durable" => ingest::run(ctx, true),
        "dashboard-read" => dashboard::run(ctx),
        "live-mixed" => live::run(ctx),
        "asap-batch" => batch::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    outcome.put_failed_share();
    Ok(outcome)
}

/// The share of the run spent recording spans, from the calibrated cost
/// of one record. (What tracing does to the end-to-end figures takes two
/// runs to see: `--all` prints it as `client.trace_overhead_pct`.)
fn trace_record_pct(spans: usize, run_seconds: f64) -> f64 {
    100.0 * spans as f64 * trace::record_cost_ns() / (run_seconds * 1e9)
}

fn print_table(title: &str, defs: &[Def], metrics: &MetricSet) {
    println!("{title}");
    for def in defs {
        if let Some(sample) = metrics.get(def.name) {
            println!(
                "  {:<46} {:>16.4} {:<6} n={:<8} ({} is better)",
                def.name, sample.value, sample.unit, sample.samples, def.better
            );
        }
    }
}

/// The contract's result line.
fn result_line(outcome: &Outcome, defs: &[Def]) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.render(defs)
    )
}

fn write_trace(out_dir: &Path, workload: &str, outcome: &Outcome) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, &outcome.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} span(s) to {}",
        outcome.spans.len(),
        path.display()
    );
    Ok(())
}

fn metrics_json(defs: &[Def], metrics: &MetricSet) -> String {
    let fields: Vec<String> = defs
        .iter()
        .filter_map(|def| {
            let s = metrics.get(def.name)?;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json::quote(def.name),
                json::number(s.value),
                json::quote(s.unit),
                s.samples
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One traced run; adds the cost of recording its spans to its metrics.
fn traced(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut outcome = run_workload(name, ctx)?;
    let share = trace_record_pct(outcome.spans.len(), started.elapsed().as_secs_f64());
    outcome
        .metrics
        .put("client.trace_record_pct", share, outcome.spans.len());
    Ok(outcome)
}

fn single(args: &Args, ctx: &Ctx, out_dir: &Path) -> Result<(), String> {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let (outcome, defs) = if ctx.trace {
        let outcome = traced(name, ctx)?;
        write_trace(out_dir, name, &outcome)?;
        (outcome, &PER_LAYER[..])
    } else {
        (run_workload(name, ctx)?, &END_TO_END[..])
    };
    print_table(
        &format!("{name} (seed {}, {} s)", ctx.seed, ctx.seconds),
        defs,
        &outcome.metrics,
    );
    if !ctx.trace {
        print_table(
            "  this workload's own figures",
            workload_figures(),
            &outcome.metrics,
        );
    }
    println!("{}", result_line(&outcome, defs));
    Ok(())
}

fn all(
    args: &Args,
    ctx: &Ctx,
    out_dir: &Path,
    environment: &env::Environment,
) -> Result<(), String> {
    println!("environment: {}", environment.to_json());
    println!("server flags: {}", child::BASE_FLAGS.join(" "));
    let mut timed: BTreeMap<&str, Vec<Outcome>> = BTreeMap::new();
    let set_started = Instant::now();
    for round in 0..args.repeat {
        for workload in &WORKLOADS {
            let started = Instant::now();
            let outcome = run_workload(
                workload.name,
                &Ctx {
                    trace: false,
                    ..ctx.clone()
                },
            )?;
            let title = format!(
                "{} round {} ({:.1} s, {} attempted, {} failed)",
                workload.name,
                round + 1,
                started.elapsed().as_secs_f64(),
                outcome.attempted,
                outcome.failed
            );
            print_table(&title, &END_TO_END, &outcome.metrics);
            print_table(
                "  this workload's own figures",
                workload_figures(),
                &outcome.metrics,
            );
            timed.entry(workload.name).or_default().push(outcome);
        }
    }
    println!(
        "timed set(s) took {:.1} s",
        set_started.elapsed().as_secs_f64()
    );

    let mut results = Vec::new();
    let mut measured_layers = std::collections::BTreeSet::new();
    for workload in &WORKLOADS {
        println!("--- {} traced: {}", workload.name, workload.why);
        let outcome = traced(
            workload.name,
            &Ctx {
                trace: true,
                ..ctx.clone()
            },
        )?;
        write_trace(out_dir, workload.name, &outcome)?;
        print_table(
            &format!("{} per-layer", workload.name),
            &PER_LAYER,
            &outcome.metrics,
        );
        measured_layers.extend(outcome.metrics.iter().map(|(name, _)| name));
        let untraced = &timed[workload.name][0];
        for def in &END_TO_END {
            let (a, b) = (
                untraced.metrics.get(def.name),
                outcome.metrics.get(def.name),
            );
            if let (Some(a), Some(b)) = (a, b) {
                println!(
                    "  client.trace_overhead_pct (traced vs untraced) {:<20} {:>+7.2} %",
                    def.name,
                    100.0 * (b.value - a.value) / a.value
                );
            }
        }
        results.push(format!(
            "{}: {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"figures\": {}, \
             \"per_layer\": {}}}",
            json::quote(workload.name),
            untraced.attempted,
            untraced.failed,
            metrics_json(&END_TO_END, &untraced.metrics),
            metrics_json(workload_figures(), &untraced.metrics),
            metrics_json(&PER_LAYER, &outcome.metrics)
        ));
    }

    if args.repeat > 1 {
        println!(
            "spread over {} rounds (quartile distance / median, against the bound):",
            args.repeat
        );
        for workload in &WORKLOADS {
            for def in &END_TO_END {
                let values: Vec<f64> = timed[workload.name]
                    .iter()
                    .filter_map(|o| o.metrics.get(def.name).map(|s| s.value))
                    .collect();
                let spread = stats::quartile_spread(&values);
                let bound = def.bound.expect("end-to-end metrics carry a bound");
                println!(
                    "  {:<15} {:<18} min {:>14.4} median {:>14.4} max {:>14.4} {:<5} spread {:>6.2} % of bound {:>4.0} %{}",
                    workload.name,
                    def.name,
                    values.iter().copied().fold(f64::INFINITY, f64::min),
                    stats::median(&values),
                    values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    def.unit,
                    100.0 * spread,
                    100.0 * bound,
                    if spread > bound { "  <-- wider than its bound" } else { "" }
                );
            }
        }
    }

    let never: Vec<&str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|name| !measured_layers.contains(name))
        .collect();
    if !never.is_empty() {
        return Err(format!(
            "per-layer metrics no workload measured: {}",
            never.join(", ")
        ));
    }
    let failed: u64 = timed.values().flatten().map(|o| o.failed).sum();
    let path = out_dir.join("results.json");
    let document = format!(
        "{{\"environment\": {}, \"server_flags\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"workloads\": {{{}}}}}\n",
        environment.to_json(),
        json::quote(&child::BASE_FLAGS.join(" ")),
        ctx.seed,
        json::number(ctx.seconds),
        ctx.smoke,
        results.join(", ")
    );
    std::fs::write(&path, document).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {}; {failed} failed operation(s) in the timed set(s)",
        path.display()
    );
    Ok(())
}

fn try_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let needs_server = args.all || args.workload.as_deref() != Some("asap-batch");
    let server = if needs_server {
        child::build_server()?
    } else {
        PathBuf::new()
    };
    let out_dir = child::target_dir().join("benchmark");
    let work = WorkDir::create(&out_dir)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
        server,
        work_dir: work.0.clone(),
    };
    if args.all {
        all(&args, &ctx, &out_dir, &env::Environment::detect(&work.0))
    } else {
        single(&args, &ctx, &out_dir)
    }
}

fn main() {
    if let Err(message) = try_main() {
        eprintln!("benchmark: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&words)
    }

    #[test]
    fn the_contract_invocation_parses() {
        let parsed = args("--workload live-mixed --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("live-mixed"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (42, Some(12.0), true)
        );
        assert!(!parsed.all && !parsed.smoke);
        let parsed = args("--all --smoke --repeat 3").unwrap();
        assert!(parsed.all && parsed.smoke);
        assert_eq!((parsed.repeat, parsed.seed, parsed.seconds), (3, 1, None));
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            "",
            "--all --workload asap-batch",
            "--workload nope",
            "--workload asap-batch --trace 2",
            "--workload asap-batch --seconds 0",
            "--workload asap-batch --seconds 61",
            "--workload asap-batch --seed -1",
            "--workload asap-batch --repeat 2",
            "--all --repeat 0",
            "--all --frobnicate",
            "--all --seed",
        ] {
            assert!(args(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn every_workload_name_dispatches() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.01,
            trace: false,
            smoke: true,
            server: PathBuf::from("/nonexistent/asap-server"),
            work_dir: std::env::temp_dir(),
        };
        for workload in &WORKLOADS {
            match run_workload(workload.name, &ctx) {
                // Server workloads get as far as spawning the binary.
                Err(e) => assert!(e.contains("cannot spawn"), "{}: {e}", workload.name),
                Ok(outcome) => assert_eq!(workload.name, "asap-batch", "{outcome:?}"),
            }
        }
        assert!(run_workload("nope", &ctx)
            .unwrap_err()
            .contains("unknown workload"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        for def in &END_TO_END {
            outcome.metrics.put(def.name, 1.5, 1);
        }
        let line = result_line(&outcome, &END_TO_END);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": "
        ));
        assert!(line.ends_with("\"peak_rss_mb\": {\"value\": 1.5, \"unit\": \"MB\"}}}"));
        assert!(!line.contains('\n'));
        assert!(trace_record_pct(1_000, 1.0) > 0.0);
    }
}
