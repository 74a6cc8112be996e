//! The repository's benchmark: three workloads, driven from outside the
//! program through its public functions, each pass checked for correct
//! output. See `README.md` beside this crate for the workloads, the
//! metrics and how to read a traced run.

pub mod batch;
pub mod corpus;
pub mod pass;
pub mod reference;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use batch::Batch;
use corpus::Corpus;
use pass::{Pass, HOOK_UNITS};
use trace::{Spans, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Suite kernels under Base and Infrastructure (Figs. 2–3).
    ChurnInfra,
    /// `_209_db` and pseudojbb under Base and WithAssertions (Figs. 4–5),
    /// plus a buggy pseudojbb run whose report is rendered (Fig. 1).
    AssertHeavy,
    /// `.gca` scripts, analyzed and executed.
    CheckCorpus,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ChurnInfra,
        Workload::AssertHeavy,
        Workload::CheckCorpus,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnInfra => "churn-infra",
            Workload::AssertHeavy => "assert-heavy",
            Workload::CheckCorpus => "check-corpus",
        }
    }

    /// Rounds of [`reference::run`] beside each Base pass: about as long
    /// as the pass on the reference machine, so both see the same phase.
    fn reference_rounds(self, size: Size) -> usize {
        match self {
            Workload::ChurnInfra | Workload::AssertHeavy => size.scale(REF_ROUNDS_BATCH, 100),
            Workload::CheckCorpus => size.scale(REF_ROUNDS_CORPUS, 100),
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: the full benchmark, or a small copy for the crate's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Every input shrunk, so tests run in seconds.
    Small,
}

impl Size {
    /// `n` at full size, `n / divisor` (at least 1) when small.
    pub fn scale(self, n: usize, divisor: usize) -> usize {
        match self {
            Size::Full => n,
            Size::Small => (n / divisor).max(1),
        }
    }
}

/// A workload's generated inputs, after set-up.
enum Inputs {
    Batch(Batch),
    Corpus(Corpus),
}

impl Inputs {
    /// Generates the inputs for `seed`. This is the only place the seed
    /// is read: the program sees only what is generated from it.
    fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
        match workload {
            Workload::ChurnInfra => Inputs::Batch(Batch::churn(seed, size)),
            Workload::AssertHeavy => Inputs::Batch(Batch::assert_heavy(seed, size)),
            Workload::CheckCorpus => Inputs::Corpus(Corpus::new(seed, size)),
        }
    }

    fn pass(&self, checked: bool, spans: Spans) -> Pass {
        match self {
            Inputs::Batch(b) => b.pass(checked, spans),
            Inputs::Corpus(c) => c.pass(checked, spans),
        }
    }

    fn pair_check(&self, checked: &Pass, base: &Pass) -> Vec<String> {
        match self {
            Inputs::Batch(b) => b.pair_check(checked, base),
            Inputs::Corpus(_) => Vec::new(),
        }
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted over the run.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// How some metrics were taken, for the report.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Set-ups per run, spread evenly over it; `setup_s` is their mean.
const SETUPS: usize = 9;
/// [`Workload::reference_rounds`] at full size, for the batch workloads
/// and for the corpus.
const REF_ROUNDS_BATCH: usize = 50;
const REF_ROUNDS_CORPUS: usize = 3;
/// Fewest interleaved iterations per run, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;
/// Traced passes per traced run, one in each of the first iterations.
const TRACED_PASSES: usize = 3;

/// Runs `workload` for about `seconds` of measurement. With `traced`,
/// each of the first [`TRACED_PASSES`] iterations adds a traced checked
/// pass and the outcome carries the per-layer metrics; otherwise it
/// carries the end-to-end ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, size: Size) -> Outcome {
    let mut out = Outcome::default();

    // The first set-up feeds the run; the others repeat it between
    // iterations, spread over the run so that `setup_s` spans the
    // machine's phases instead of one moment.
    let (first, inputs) = set_up(workload, seed, size, &mut out);
    let mut setups = vec![first];

    // Interleaved iterations of a checked pass, a Base pass and the
    // reference.
    let budget = Duration::from_secs_f64(seconds);
    let mut tracer = traced.then(Tracer::new);
    let mut checked: Vec<Pass> = Vec::new();
    let mut base: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut peak_rss = f64::NAN;
    let start = Instant::now();
    let rounds = workload.reference_rounds(size);
    let mut reference: Vec<f64> = Vec::new();
    let mut marked = None;
    while checked.len() < MIN_ITERATIONS || start.elapsed() < budget {
        // Base runs between the checked pass and the reference, and the
        // ends swap each time, so each ratio compares neighbours in time.
        let order = if checked.len().is_multiple_of(2) {
            [Some(true), Some(false), None]
        } else {
            [None, Some(false), Some(true)]
        };
        for half in order {
            let Some(is_checked) = half else {
                let t = Instant::now();
                let m = reference::run(rounds);
                reference.push(t.elapsed().as_secs_f64());
                if *marked.get_or_insert(m) != m {
                    out.failures
                        .push(format!("the reference marked {m} nodes, not {marked:?}"));
                }
                continue;
            };
            let p = inputs.pass(is_checked, Spans::new(None));
            out.attempted += p.ops;
            out.failures.extend(p.failures.iter().cloned());
            if is_checked {
                checked.push(p);
            } else {
                base.push(p);
            }
            if base.len() == 1 && checked.len() == 1 && peak_rss.is_nan() {
                // Later passes repeat the same work on fresh VMs, and
                // the reference has not run yet: this is the workload's
                // peak.
                peak_rss = peak_rss_mb();
            }
        }
        let (c, b) = (
            checked.last().expect("pushed"),
            base.last().expect("pushed"),
        );
        out.failures.extend(inputs.pair_check(c, b));
        if setups.len() < SETUPS
            && start.elapsed() >= budget.mul_f64(setups.len() as f64 / SETUPS as f64)
        {
            setups.push(set_up(workload, seed, size, &mut out).0);
        }
        if let Some(t) = tracer
            .as_mut()
            .filter(|_| traced_passes.len() < TRACED_PASSES)
        {
            t.next_pass();
            let p = inputs.pass(true, Spans::new(Some(t)));
            out.attempted += p.ops;
            out.failures.extend(p.failures.iter().cloned());
            traced_passes.push(p);
        }
    }

    // Every checked pass, traced or not, must do the same work as the
    // first; so must every Base pass.
    for (label, passes, first) in [
        ("checked", &checked, &checked[0]),
        ("traced", &traced_passes, &checked[0]),
        ("Base", &base, &base[0]),
    ] {
        for (i, p) in passes.iter().enumerate() {
            if p.counts != first.counts {
                out.failures.push(format!(
                    "{label} pass {i} counted different work than the first {} pass",
                    if label == "Base" { "Base" } else { "checked" }
                ));
            }
        }
    }

    if traced {
        out.metrics = per_layer(
            &checked,
            &base,
            &traced_passes,
            workload,
            &mut out.failures,
            &mut out.notes,
        );
        out.tracer = tracer;
    } else {
        out.metrics = end_to_end(
            &setups,
            &checked,
            &base,
            &reference,
            peak_rss,
            &mut out.notes,
        );
    }
    for (name, value, _) in &mut out.metrics {
        if !value.is_finite() {
            out.failures.push(format!("{name} could not be measured"));
            *value = 0.0;
        }
    }
    out
}

/// Generates the inputs and warms up on them, returning the time taken
/// and the inputs. The batch workloads warm up on a small copy of their
/// runs, the corpus on itself.
fn set_up(workload: Workload, seed: u64, size: Size, out: &mut Outcome) -> (f64, Inputs) {
    let t = Instant::now();
    let inputs = Inputs::generate(workload, seed, size);
    let small;
    let warm = match &inputs {
        Inputs::Batch(_) => {
            small = Inputs::generate(workload, seed, Size::Small);
            &small
        }
        Inputs::Corpus(_) => &inputs,
    };
    for checked in [true, false] {
        let p = warm.pass(checked, Spans::new(None));
        out.attempted += p.ops;
        out.failures.extend(p.failures);
    }
    (t.elapsed().as_secs_f64(), inputs)
}

fn col(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn pairs(checked: &[Pass], base: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<(f64, f64)> {
    checked
        .iter()
        .zip(base)
        .map(|(c, b)| (f(c), f(b)))
        .collect()
}

fn end_to_end(
    setups: &[f64],
    checked: &[Pass],
    base: &[Pass],
    reference: &[f64],
    peak_rss: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let per_ref = |f: fn(&Pass) -> f64| {
        stats::pair_ratio(
            &base
                .iter()
                .zip(reference)
                .map(|(b, r)| (f(b), *r))
                .collect::<Vec<_>>(),
        )
    };
    let mutator = |p: &Pass| p.wall - p.gc;
    let walls = col(checked, |p| p.wall);
    // Absolute times swing with the machine's phases by more than any
    // bound allows, so they are printed but not gated.
    notes.push(format!(
        "not gated, means over {} passes: wall_s {:.6} s, gc_s {:.6} s, mutator_s {:.6} s, \
         base_wall_s {:.6} s, base_gc_s {:.6} s, reference_s {:.6} s",
        walls.len(),
        stats::mean(&walls),
        stats::mean(&col(checked, |p| p.gc)),
        stats::mean(&col(checked, mutator)),
        stats::mean(&col(base, |p| p.wall)),
        stats::mean(&col(base, |p| p.gc)),
        stats::mean(reference),
    ));
    notes.push(format!(
        "checked pass wall times: median {:.6} s, interquartile spread {:.3} of it",
        stats::median(&walls),
        stats::relative_spread(&walls)
    ));
    vec![
        ("setup_s", stats::mean(setups), "s"),
        (
            "total_ratio",
            stats::pair_ratio(&pairs(checked, base, |p| p.wall)),
            "ratio",
        ),
        (
            "gc_ratio",
            stats::pair_ratio(&pairs(checked, base, |p| p.gc)),
            "ratio",
        ),
        (
            "mutator_ratio",
            stats::pair_ratio(&pairs(checked, base, mutator)),
            "ratio",
        ),
        ("base_wall_ref", per_ref(|p| p.wall), "ratio"),
        ("base_gc_ref", per_ref(|p| p.gc), "ratio"),
        ("peak_rss_mb", peak_rss, "MB"),
    ]
}

fn per_layer(
    checked: &[Pass],
    base: &[Pass],
    traced: &[Pass],
    workload: Workload,
    failures: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let first = &checked[0];
    let count = |name: &'static str| (name, first.count(name) as f64, "count");
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&col(checked, f));

    // Telemetry must keep one record per collection.
    let t0 = &traced[0];
    // Scripts cannot turn telemetry on, so the corpus keeps no records.
    let has_telemetry = workload != Workload::CheckCorpus;
    if has_telemetry && t0.records != t0.count("collector.collections") {
        failures.push(format!(
            "telemetry kept {} records for {} collections",
            t0.records,
            t0.count("collector.collections")
        ));
    }
    let pauses: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.pauses.iter().copied())
        .collect();
    let (pause_p50, pause_p99, pause_max) = if pauses.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let p99 = stats::tail(&pauses, 99.0);
        notes.push(format!(
            "collector.pause_p99_ms is the p{:.2} of {} pauses",
            p99.percentile, p99.samples
        ));
        (
            stats::median(&pauses),
            p99.value,
            pauses.iter().copied().fold(0.0, f64::max),
        )
    };

    let mut m = vec![
        count("heap.allocations"),
        count("heap.allocated_words"),
        count("heap.frees"),
        count("heap.peak_occupied_words"),
        count("heap.pages"),
        count("collector.collections"),
        count("collector.objects_marked"),
        count("collector.edges_traced"),
        count("collector.objects_swept"),
        count("collector.words_swept"),
        ("collector.mark_s", med(&|p| p.mark), "s"),
        ("collector.sweep_s", med(&|p| p.sweep), "s"),
        (
            "collector.base_mark_s",
            stats::median(&col(base, |p| p.mark)),
            "s",
        ),
        (
            "collector.base_sweep_s",
            stats::median(&col(base, |p| p.sweep)),
            "s",
        ),
        (
            "collector.unattributed_s",
            med(&|p| p.gc - p.pre_root - p.mark - p.sweep),
            "s",
        ),
        ("collector.pause_p50_ms", pause_p50 * 1e3, "ms"),
        ("collector.pause_p99_ms", pause_p99 * 1e3, "ms"),
        ("collector.pause_max_ms", pause_max * 1e3, "ms"),
        ("core.pre_root_s", med(&|p| p.pre_root), "s"),
        count("core.pre_root_edges"),
        count("core.owners_scanned"),
        count("core.ownees_checked"),
        count("core.deferred_ownees"),
        count("core.dead_bits_seen"),
        count("core.instances_counted"),
        count("core.unshared_bits_seen"),
        count("core.calls.dead"),
        count("core.calls.owned_by"),
        count("core.calls.unshared"),
        count("core.calls.instances"),
        count("core.calls.region_objects"),
        (
            "core.hook_s",
            stats::median(
                &pairs(checked, base, |p| p.pre_root + p.mark)
                    .iter()
                    .map(|(c, b)| c - b)
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        count("core.violations"),
        count("core.path_steps"),
        ("core.render_s", med(&|p| p.render), "s"),
    ];
    for (name, units) in HOOK_UNITS.into_iter().zip(t0.hook_units) {
        m.push((name, units as f64, "count"));
    }
    m.extend([
        count("script.scripts"),
        ("script.check_s", med(&|p| p.check), "s"),
        ("script.run_s", med(&|p| p.run), "s"),
        count("script.must"),
        count("script.may"),
        count("script.safe"),
        count("script.executed_violations"),
        (
            "telemetry.traced_wall_ratio",
            stats::pair_ratio(&pairs(traced, checked, |p| p.wall)),
            "ratio",
        ),
        ("telemetry.records", t0.records as f64, "count"),
    ]);
    m
}

/// Peak resident memory of this process, from the kernel's `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass reads nothing but its generated inputs: two independently
    /// generated copies of one seed's inputs do the same work, pass after
    /// pass, so no seed or other hidden state reaches the program.
    #[test]
    fn passes_depend_only_on_generated_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 11, Size::Small);
            let b = Inputs::generate(w, 11, Size::Small);
            let first = a.pass(true, Spans::new(None));
            for inputs in [&a, &b, &a] {
                let p = inputs.pass(true, Spans::new(None));
                assert_eq!(p.counts, first.counts, "{}", w.name());
                assert!(p.failures.is_empty(), "{}: {:?}", w.name(), p.failures);
            }
        }
    }
}
