//! The `gca` script runner: executes and statically checks `.gca`
//! heap-scenario scripts.
//!
//! ```text
//! gca <script.gca>            # run a script file
//! gca -                       # read the script from stdin
//! gca check <script.gca>      # static analysis only: predict verdicts
//!     [--json]                # machine-readable report on stdout
//! gca suggest <script.gca>    # propose verified assertion placements
//!     [--json]                # machine-readable placements
//!     [--apply]               # print the annotated script on stdout
//! gca --check <script.gca>    # pre-flight check, then run
//! gca soak [options]          # run a fleet soak (see `gca soak --help`)
//! ```
//!
//! Run mode exits 0 when the script (including its `expect-*`
//! assertions) succeeds; 1 with a line-tagged diagnostic otherwise.
//! Check mode exits 0 when no must-violate diagnostics are found, 2 when
//! at least one is, and 1 on usage, read, or parse errors.  The
//! `--check` pre-flight prints the analyzer's diagnostics to stderr and
//! then runs the script regardless (a predicted violation may be exactly
//! what the script expects); the exit status is the run's.
//!
//! Suggest mode proposes `assert-dead` / region-bracket /
//! `assert-instances` placements for an unannotated script, each
//! verified by splicing it in and re-running; it exits 0 whether or not
//! placements were found (an already-annotated script is declined with a
//! reason), and 1 on usage, read, parse, or runtime errors.
//!
//! Soak mode drives a sharded VM fleet through an open-loop arrival
//! schedule with GC assertions on, optionally injecting faults and
//! serving a live `/metrics` endpoint; it exits 0 only when every
//! injected fault was detected and every clean shard stayed clean.

use std::io::Read;
use std::process::ExitCode;

use gca_script::analysis::json;
use gca_script::{analyze, apply_suggestions, suggest, Interpreter};

const USAGE: &str = "usage: gca [check [--json] | suggest [--json | --apply] | --check] \
                     <script.gca | ->  |  gca soak [options]";

const SOAK_USAGE: &str = "\
usage: gca soak [options]
  --shards N            fleet size (default 4)
  --scenarios CSV       session-cache,social-graph,broker (round-robin)
  --phases SPEC         comma-separated NAME:MS:RPS or NAME:MS:FROM:TO
                        (default ramp:250:100:800,steady:500:800,spike:250:2400)
  --pacing MODE         wall | virtual (default wall)
  --seed N              base RNG seed (default 42)
  --fault KIND@SHARD[:AFTER]
                        inject KIND (leak|ownership|unshared|drift) into
                        SHARD after AFTER requests (default 100); repeatable
  --slo-ms N            request-latency SLO in milliseconds (default 10)
  --http PORT           serve /metrics, /healthz, /status on 127.0.0.1:PORT
  --jsonl-dir DIR       write shard-<i>.jsonl + merged fleet.jsonl
  --bench-out PATH      write the BENCH_soak.json summary
exit status: 0 when every injected fault was detected and every clean
shard stayed clean; 1 otherwise.";

/// Parses the `--phases` spec: `NAME:MS:RPS` or `NAME:MS:FROM:TO`.
fn parse_phases(spec: &str) -> Result<Vec<gca_soak::Phase>, String> {
    let mut phases = Vec::new();
    for part in spec.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        let err = || format!("bad phase {part:?} (want NAME:MS:RPS or NAME:MS:FROM:TO)");
        match fields.as_slice() {
            [name, ms, rps] => {
                let ms = ms.parse().map_err(|_| err())?;
                let rps = rps.parse().map_err(|_| err())?;
                phases.push(gca_soak::Phase::steady(name, ms, rps));
            }
            [name, ms, from, to] => {
                let ms = ms.parse().map_err(|_| err())?;
                let from = from.parse().map_err(|_| err())?;
                let to = to.parse().map_err(|_| err())?;
                phases.push(gca_soak::Phase::ramp(name, ms, from, to));
            }
            _ => return Err(err()),
        }
    }
    Ok(phases)
}

/// Parses one `--fault` spec: `KIND@SHARD[:AFTER]`.
fn parse_fault(spec: &str) -> Result<gca_soak::FaultPlan, String> {
    let err = || format!("bad fault {spec:?} (want KIND@SHARD[:AFTER])");
    let (kind, rest) = spec.split_once('@').ok_or_else(err)?;
    let kind = gca_soak::FaultKind::parse(kind).ok_or_else(err)?;
    let (shard, after) = match rest.split_once(':') {
        Some((s, a)) => (s.parse().map_err(|_| err())?, a.parse().map_err(|_| err())?),
        None => (rest.parse().map_err(|_| err())?, 100),
    };
    Ok(gca_soak::FaultPlan::new(shard, kind, after))
}

fn parse_soak_config(args: &[String]) -> Result<gca_soak::SoakConfig, String> {
    let mut config = gca_soak::SoakConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" {
            return Err(SOAK_USAGE.to_string());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{SOAK_USAGE}"))?;
        match flag.as_str() {
            "--shards" => {
                config.shards = value
                    .parse()
                    .map_err(|_| format!("bad --shards {value:?}"))?;
                if config.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--scenarios" => {
                config.scenarios = value
                    .split(',')
                    .map(|s| {
                        gca_workloads::scenario::ScenarioKind::parse(s)
                            .ok_or_else(|| format!("unknown scenario {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--phases" => config.phases = parse_phases(value)?,
            "--pacing" => {
                config.pacing = match value.as_str() {
                    "wall" => gca_soak::Pacing::Wall,
                    "virtual" => gca_soak::Pacing::Virtual,
                    _ => return Err(format!("bad --pacing {value:?} (wall | virtual)")),
                }
            }
            "--seed" => {
                config.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "--fault" => config.faults.push(parse_fault(value)?),
            "--slo-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --slo-ms {value:?}"))?;
                config.slo_ns = ms * 1_000_000;
            }
            "--http" => {
                config.http_port =
                    Some(value.parse().map_err(|_| format!("bad --http {value:?}"))?);
            }
            "--jsonl-dir" => config.jsonl_dir = Some(value.into()),
            "--bench-out" => config.bench_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}\n{SOAK_USAGE}")),
        }
    }
    for fault in &config.faults {
        if fault.shard >= config.shards {
            return Err(format!(
                "--fault targets shard {} but the fleet has {} shards",
                fault.shard, config.shards
            ));
        }
    }
    Ok(config)
}

fn soak(args: &[String]) -> ExitCode {
    let config = match parse_soak_config(args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let fleet = match gca_soak::Fleet::start(config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error starting soak: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = fleet.http_addr() {
        println!("serving http://{addr}/metrics /healthz /status");
    }
    while !fleet.done() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    match fleet.wait() {
        Ok(report) => {
            print!("{}", report.summary());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error finishing soak: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_source(path: &str) -> Result<String, ExitCode> {
    if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("error reading stdin: {e}");
            return Err(ExitCode::FAILURE);
        }
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error reading {path}: {e}");
            ExitCode::FAILURE
        })
    }
}

/// Exit 0 = clean, 1 = parse error, 2 = must-violate present.
fn check(source: &str, as_json: bool) -> ExitCode {
    match analyze(source) {
        Ok(analysis) => {
            if as_json {
                println!("{}", json::analysis_to_json(&analysis));
            } else {
                print!("{}", analysis.render());
            }
            if analysis.has_errors() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `gca suggest`: propose placements (text or `--json`), or `--apply`
/// to print the spliced script. Exit 0 on success (including a
/// declined annotated script), 1 on any error.
fn suggest_cmd(source: &str, as_json: bool, apply: bool) -> ExitCode {
    match suggest(source) {
        Ok(outcome) => {
            if apply {
                print!("{}", apply_suggestions(source, &outcome.suggestions));
                if let Some(reason) = &outcome.refused {
                    eprintln!("suggest: declined — {reason}");
                }
            } else if as_json {
                println!("{}", json::suggest_to_json(&outcome));
            } else {
                print!("{}", outcome.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `check` / `suggest` flag lists: the one non-flag argument is
/// the script path; flags are validated per subcommand.
struct CheckArgs {
    path: String,
    json: bool,
    apply: bool,
}

fn parse_check_args(cmd: &str, args: &[String]) -> Result<CheckArgs, String> {
    let mut path = None;
    let mut json = false;
    let mut apply = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--apply" if cmd == "suggest" => apply = true,
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown flag {flag} for gca {cmd}"));
            }
            p => {
                if path.replace(p.to_string()).is_some() {
                    return Err(format!("gca {cmd} takes exactly one script path"));
                }
            }
        }
    }
    if json && apply {
        return Err("--json and --apply are mutually exclusive".into());
    }
    let path = path.ok_or_else(|| format!("gca {cmd} needs a script path"))?;
    Ok(CheckArgs { path, json, apply })
}

fn run(source: &str) -> ExitCode {
    match Interpreter::run_script(source) {
        Ok(output) => {
            for line in &output.lines {
                println!("{line}");
            }
            println!(
                "ok: {} major + {} minor collection(s), {} violation(s)",
                output.collections, output.minor_collections, output.total_violations
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("soak") {
        return soak(&args[1..]);
    }
    match args.as_slice() {
        [cmd, rest @ ..] if (cmd == "check" || cmd == "suggest") && !rest.is_empty() => {
            let parsed = match parse_check_args(cmd, rest) {
                Ok(p) => p,
                Err(msg) => {
                    eprintln!("error: {msg}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            let source = match read_source(&parsed.path) {
                Ok(s) => s,
                Err(code) => return code,
            };
            if cmd == "check" {
                check(&source, parsed.json)
            } else {
                suggest_cmd(&source, parsed.json, parsed.apply)
            }
        }
        [flag, path] if flag == "--check" => {
            let source = match read_source(path) {
                Ok(s) => s,
                Err(code) => return code,
            };
            // Pre-flight: diagnostics go to stderr so the run's output
            // stays clean on stdout.
            match analyze(&source) {
                Ok(analysis) => eprint!("{}", analysis.render()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            run(&source)
        }
        [path] if path != "check" && path != "--check" && path != "suggest" => {
            match read_source(path) {
                Ok(source) => run(&source),
                Err(code) => code,
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
