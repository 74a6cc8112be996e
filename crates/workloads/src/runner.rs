//! The measurement harness: runs workloads under the paper's three
//! configurations and reports total / GC / mutator time.

use std::fmt;
use std::time::{Duration, Instant};

use gc_assertions::{CollectorKind, Mode, Vm, VmConfig, VmError};

/// A workload that can be run against a fresh VM.
///
/// Workloads must be deterministic: the same parameters produce the same
/// allocation and pointer behaviour on every run, so timing differences
/// between configurations are attributable to the configurations alone.
pub trait Workload {
    /// Display name (benchmark name in the figures).
    fn name(&self) -> &str;

    /// Heap budget in words for this workload — the analogue of the
    /// paper's "heap size fixed at two times the minimum" methodology.
    fn heap_budget(&self) -> usize;

    /// Runs one iteration. `assertions` selects whether the workload adds
    /// its GC assertions (the WithAssertions configuration); workloads
    /// with no assertion sites ignore it.
    ///
    /// # Errors
    ///
    /// VM errors (should not occur for a correct workload).
    fn run(&self, vm: &mut Vm, assertions: bool) -> Result<(), VmError>;
}

/// The three measured configurations of §3.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpConfig {
    /// Unmodified collector, no assertion infrastructure.
    Base,
    /// Assertion infrastructure attached (flag checks + path-tracking
    /// worklist) but no assertions registered.
    Infrastructure,
    /// Infrastructure plus the workload's own assertions.
    WithAssertions,
}

impl ExpConfig {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ExpConfig::Base => "Base",
            ExpConfig::Infrastructure => "Infrastructure",
            ExpConfig::WithAssertions => "WithAssertions",
        }
    }
}

impl fmt::Display for ExpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Configuration measured.
    pub config: ExpConfig,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Time inside the collector.
    pub gc: Duration,
    /// `total - gc` (the paper's "mutator time").
    pub mutator: Duration,
    /// Collections performed.
    pub collections: u64,
    /// Violations detected (WithAssertions runs on buggy workloads).
    pub violations: u64,
    /// Objects allocated.
    pub allocations: u64,
    /// Average ownees checked per collection (§3.1.2 reports this).
    pub ownees_checked_per_gc: f64,
}

/// Runs `workload` once under `config` with a fresh VM and returns the
/// measurement.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once(workload: &dyn Workload, config: ExpConfig) -> Result<Measurement, VmError> {
    let mode = match config {
        ExpConfig::Base => Mode::Base,
        _ => Mode::Instrumented,
    };
    let vm_config = VmConfig::builder()
        .heap_budget(workload.heap_budget())
        .grow_on_oom(true)
        .mode(mode)
        .build();
    run_once_config(workload, config, vm_config)
}

/// As [`run_once`], but with full control of the [`VmConfig`] (used by the
/// ablation benchmarks, e.g. to disable path tracking). The `config`
/// argument is recorded in the measurement and selects whether the
/// workload registers its assertions; `vm_config` is used as given.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once_config(
    workload: &dyn Workload,
    config: ExpConfig,
    vm_config: VmConfig,
) -> Result<Measurement, VmError> {
    run_once_vm(workload, config, vm_config).map(|(m, _)| m)
}

/// As [`run_once_config`], but additionally returns the finished [`Vm`] so
/// callers can inspect post-run state (telemetry snapshots, violation
/// logs, heap statistics).
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once_vm(
    workload: &dyn Workload,
    config: ExpConfig,
    vm_config: VmConfig,
) -> Result<(Measurement, Vm), VmError> {
    let mut vm = Vm::new(vm_config);
    let assertions = config == ExpConfig::WithAssertions;

    let start = Instant::now();
    workload.run(&mut vm, assertions)?;
    // Final collection so assertions issued near the end of the run are
    // checked at least once (uniform across configurations).
    vm.collect()?;
    let total = start.elapsed();

    let gc = vm.gc_stats().total_gc_time;
    let collections = vm.gc_stats().collections;
    let measurement = Measurement {
        workload: workload.name().to_owned(),
        config,
        total,
        gc,
        mutator: total.saturating_sub(gc),
        collections,
        violations: vm.violation_log().len() as u64,
        allocations: vm.heap_stats().allocations,
        ownees_checked_per_gc: if collections == 0 {
            0.0
        } else {
            vm.check_totals().ownees_checked as f64 / collections as f64
        },
    };
    Ok((measurement, vm))
}

/// Runs `workload` once under `config` with telemetry recording enabled
/// and returns the measurement plus the telemetry snapshot.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once_telemetry(
    workload: &dyn Workload,
    config: ExpConfig,
) -> Result<(Measurement, gc_assertions::GcTelemetry), VmError> {
    run_once_telemetry_collector(workload, config, CollectorKind::MarkSweep)
}

/// As [`run_once_telemetry`], but on the chosen collector backend —
/// telemetry attributes phases to whichever engine ran the cycle.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once_telemetry_collector(
    workload: &dyn Workload,
    config: ExpConfig,
    collector: CollectorKind,
) -> Result<(Measurement, gc_assertions::GcTelemetry), VmError> {
    let mode = match config {
        ExpConfig::Base => Mode::Base,
        _ => Mode::Instrumented,
    };
    let vm_config = VmConfig::builder()
        .heap_budget(workload.heap_budget())
        .grow_on_oom(true)
        .mode(mode)
        .telemetry(true)
        .collector(collector)
        .build();
    let (measurement, vm) = run_once_vm(workload, config, vm_config)?;
    Ok((measurement, vm.telemetry()))
}

/// Runs `workload` once under `config` with both telemetry and the heap
/// census enabled and returns the measurement, the telemetry snapshot
/// (whose cycle records carry census fields), and the census snapshot
/// (per-class/per-site live tallies, drift detection, heap diffing).
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once_census(
    workload: &dyn Workload,
    config: ExpConfig,
) -> Result<
    (
        Measurement,
        gc_assertions::GcTelemetry,
        gc_assertions::HeapCensus,
    ),
    VmError,
> {
    run_once_census_collector(workload, config, CollectorKind::MarkSweep)
}

/// As [`run_once_census`], but on the chosen collector backend. The VM
/// takes the census from the live heap after each cycle, whichever
/// backend ran it, so the tallies come out identical.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_once_census_collector(
    workload: &dyn Workload,
    config: ExpConfig,
    collector: CollectorKind,
) -> Result<
    (
        Measurement,
        gc_assertions::GcTelemetry,
        gc_assertions::HeapCensus,
    ),
    VmError,
> {
    let mode = match config {
        ExpConfig::Base => Mode::Base,
        _ => Mode::Instrumented,
    };
    let vm_config = VmConfig::builder()
        .heap_budget(workload.heap_budget())
        .grow_on_oom(true)
        .mode(mode)
        .telemetry(true)
        .census(true)
        .collector(collector)
        .build();
    let (measurement, vm) = run_once_vm(workload, config, vm_config)?;
    let telemetry = vm.telemetry();
    Ok((measurement, telemetry, vm.census()))
}

/// Runs `workload` `n` times under `config` and returns the run with the
/// median total time — the repetition discipline of §3.1.1, scaled down.
///
/// # Errors
///
/// Propagates workload VM errors.
pub fn run_median(
    workload: &dyn Workload,
    config: ExpConfig,
    n: usize,
) -> Result<Measurement, VmError> {
    let mut runs: Vec<Measurement> = (0..n.max(1))
        .map(|_| run_once(workload, config))
        .collect::<Result<_, _>>()?;
    runs.sort_by_key(|r| r.total);
    Ok(runs.swap_remove(runs.len() / 2))
}

/// Relative overhead of `new` vs `base` in percent (e.g. `3.1` = +3.1%).
pub fn overhead_percent(base: Duration, new: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (new.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// Geometric mean of normalized ratios (`new/base`), in percent overhead,
/// as the paper reports its cross-benchmark means.
pub fn geomean_overhead_percent(pairs: &[(Duration, Duration)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pairs
        .iter()
        .map(|(base, new)| {
            let b = base.as_secs_f64().max(1e-9);
            (new.as_secs_f64().max(1e-9) / b).ln()
        })
        .sum();
    ((log_sum / pairs.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal allocation-churn workload for harness tests.
    struct Churn;

    impl Workload for Churn {
        fn name(&self) -> &str {
            "churn"
        }
        fn heap_budget(&self) -> usize {
            4_000
        }
        fn run(&self, vm: &mut Vm, _assertions: bool) -> Result<(), VmError> {
            let c = vm.register_class("X", &[]);
            let m = vm.main();
            for _ in 0..2_000 {
                vm.alloc(m, c, 0, 6)?;
            }
            Ok(())
        }
    }

    #[test]
    fn run_once_measures_gc_activity() {
        let m = run_once(&Churn, ExpConfig::Base).unwrap();
        assert_eq!(m.workload, "churn");
        assert!(m.collections > 0);
        assert_eq!(m.allocations, 2_000);
        assert!(m.total >= m.gc);
        assert_eq!(m.violations, 0);
    }

    #[test]
    fn all_three_configs_run() {
        for config in [
            ExpConfig::Base,
            ExpConfig::Infrastructure,
            ExpConfig::WithAssertions,
        ] {
            let m = run_once(&Churn, config).unwrap();
            assert_eq!(m.config, config);
            assert!(m.collections > 0, "{config} should collect");
        }
    }

    #[test]
    fn median_of_three() {
        let m = run_median(&Churn, ExpConfig::Base, 3).unwrap();
        assert_eq!(m.workload, "churn");
    }

    #[test]
    fn overhead_math() {
        let base = Duration::from_millis(100);
        let new = Duration::from_millis(103);
        let pct = overhead_percent(base, new);
        assert!((pct - 3.0).abs() < 0.01);
        let g = geomean_overhead_percent(&[(base, new), (base, new)]);
        assert!((g - 3.0).abs() < 0.01);
        assert_eq!(overhead_percent(Duration::ZERO, new), 0.0);
        assert_eq!(geomean_overhead_percent(&[]), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(ExpConfig::Base.to_string(), "Base");
        assert_eq!(ExpConfig::Infrastructure.label(), "Infrastructure");
        assert_eq!(ExpConfig::WithAssertions.label(), "WithAssertions");
    }
}
