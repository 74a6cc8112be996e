//! `gcabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name and unit, and ends
//! with one JSON result line. Exits 1 when any correctness check failed
//! and 2 on a usage error.

use std::process::ExitCode;

use gcabench::{result_json, run, Size, Workload};

const USAGE: &str = "usage: gcabench --workload <churn-infra|assert-heavy|check-corpus> \
--seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, traced) = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let out = run(workload, seed, seconds, traced, Size::Full);

    println!("workload {} seed {seed}", workload.name());
    for (name, value, unit) in &out.metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    for note in &out.notes {
        println!("  ({note})");
    }
    if let Some(tracer) = &out.tracer {
        let dir = std::path::Path::new("gcabench/traces");
        let file = dir.join(format!("{}-seed{seed}.tsv", workload.name()));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tracer.to_tsv())) {
            Ok(()) => println!("  trace: {} spans in {}", tracer.len(), file.display()),
            Err(e) => eprintln!("cannot write {}: {e}", file.display()),
        }
        println!(
            "  {:<12} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in tracer.self_times() {
            println!(
                "  {name:<12} {n:>9} {:>14.3} {:>14.3}",
                total as f64 * 1e-6,
                own as f64 * 1e-6
            );
        }
    }
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", result_json(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        traced.unwrap_or(false),
    ))
}
