//! Differential and acceptance tests for the heap-census subsystem.
//!
//! The census inherits telemetry's contract — *observation, never
//! participation* — and its differential tests are correspondingly
//! stricter: enabling the census must not change a single collector
//! decision under any engine (sequential, parallel, copying,
//! generational). On top sit the acceptance guarantees: census-enabled
//! JSONL records carry per-class live tallies and top allocation sites;
//! the drift detector flags the leaking class in SwapLeak and stays
//! silent on steady-state pseudojbb; and `Vm::census()` serves heap
//! diffs and Prometheus metrics.

use gc_assertions::{
    parse_jsonl, CollectorKind, CycleKind, DriftScope, GcReport, Mode, Vm, VmConfig,
    VmConfigBuilder,
};
use gca_workloads::pseudojbb::PseudoJbb;
use gca_workloads::runner::Workload;
use gca_workloads::suite;
use gca_workloads::swapleak::SwapLeak;

/// Everything a run produces that the census must not perturb (the same
/// distillation the telemetry differential uses).
#[derive(Debug, PartialEq)]
struct Outcome {
    live: Vec<String>,
    violations: Vec<gc_assertions::Violation>,
    collections: u64,
    minor_collections: u64,
    final_cycle: String,
    counters: gc_assertions::CheckCounters,
    halted: bool,
}

fn non_timing_cycle_key(report: &GcReport) -> String {
    let c = &report.cycle;
    format!(
        "marked={} edges={} pre_root_edges={} swept={} words={}",
        c.objects_marked, c.edges_traced, c.pre_root_edges, c.objects_swept, c.words_swept
    )
}

/// Runs `workload` to completion (plus one final collection) under the
/// given config and distils the outcome. The caller varies only the
/// census knob between the two runs of a differential pair.
fn run_outcome(
    workload: &dyn Workload,
    assertions: bool,
    builder: VmConfigBuilder,
) -> (Outcome, Vm) {
    let mut vm = Vm::new(builder.build());
    workload.run(&mut vm, assertions).unwrap();
    let report = vm.collect().unwrap();
    let mut live: Vec<String> = vm
        .heap()
        .iter()
        .map(|(r, o)| format!("{r}:{:?}:{}", o.class(), o.ref_count()))
        .collect();
    live.sort();
    let outcome = Outcome {
        live,
        violations: vm.violation_log().to_vec(),
        collections: vm.gc_stats().collections,
        minor_collections: vm.minor_collections(),
        final_cycle: non_timing_cycle_key(&report),
        counters: report.counters,
        halted: report.halted,
    };
    (outcome, vm)
}

fn base_builder(w: &dyn Workload, mode: Mode) -> VmConfigBuilder {
    VmConfig::builder()
        .heap_budget(w.heap_budget())
        .grow_on_oom(true)
        .mode(mode)
}

/// The tentpole differential: for a suite cross-section under every
/// engine — sequential instrumented, detached Base, parallel, copying and
/// generational — a census-on run is bit-identical (live set, violation
/// log, non-timing reports) to a census-off run.
#[test]
fn census_does_not_perturb_any_engine() {
    for mut w in suite::full_suite().into_iter().take(4) {
        w.iterations = (w.iterations / 10).max(3);
        let configs: Vec<(&str, VmConfigBuilder)> = vec![
            ("sequential", base_builder(&w, Mode::Instrumented)),
            ("base-mode", base_builder(&w, Mode::Base)),
            (
                "parallel",
                base_builder(&w, Mode::Instrumented).gc_threads(2),
            ),
            ("parallel-base", base_builder(&w, Mode::Base).gc_threads(2)),
            (
                "copying",
                base_builder(&w, Mode::Instrumented).collector(CollectorKind::Copying),
            ),
            (
                "generational",
                base_builder(&w, Mode::Instrumented).generational(16),
            ),
        ];
        for (label, builder) in configs {
            let (off, _) = run_outcome(&w, false, builder.clone().census(false));
            let (on, vm) = run_outcome(&w, false, builder.census(true));
            assert_eq!(off, on, "{}/{label}: census changed the outcome", w.name);
            let census = vm.census();
            assert!(census.enabled());
            assert_eq!(
                census.cycles(),
                on.collections,
                "{}/{label}: every major cycle gets a census",
                w.name
            );
        }
    }
}

/// A minor collection on a non-generational heap is a no-op, and the
/// next major's census counts every live object on every engine.
#[test]
fn census_after_minor_counts_every_live_object() {
    let engines: Vec<(&str, VmConfigBuilder)> = vec![
        ("mark-sweep", VmConfig::builder()),
        ("parallel", VmConfig::builder().gc_threads(2)),
        (
            "copying",
            VmConfig::builder().collector(CollectorKind::Copying),
        ),
    ];
    for (label, builder) in engines {
        let mut vm = Vm::new(builder.census(true).build());
        let node = vm.register_class("Node", &["next"]);
        let m = vm.main();
        let head = vm.alloc_rooted(m, node, 1, 0).unwrap();
        let tail = vm.alloc(m, node, 1, 0).unwrap();
        vm.set_field(head, 0, tail).unwrap();
        vm.collect_minor().unwrap();
        vm.collect().unwrap();
        let census = vm.census();
        let latest = census.latest().expect("the major took a census");
        assert_eq!(
            latest.data.total_objects(),
            vm.heap().live_objects() as u64,
            "{label}: census total against the live heap"
        );
        assert_eq!(vm.heap().live_objects(), 2, "{label}");
    }
}

/// The same differential over an assertion-rich workload, where the
/// engine does real checking work alongside the census accumulators.
#[test]
fn census_does_not_perturb_assertion_workloads() {
    let jbb = PseudoJbb::buggy_with_dead_asserts();
    let (off, _) = run_outcome(
        &jbb,
        true,
        base_builder(&jbb, Mode::Instrumented).census(false),
    );
    let (on, _) = run_outcome(
        &jbb,
        true,
        base_builder(&jbb, Mode::Instrumented).census(true),
    );
    assert!(!on.violations.is_empty(), "the planted leaks are reported");
    assert_eq!(off, on, "census changed an assertion outcome");
}

/// ISSUE acceptance: census-enabled runs export JSONL whose records
/// include per-class live object/byte counts and top allocation sites;
/// census-off records omit the fields entirely.
#[test]
fn jsonl_records_carry_census_fields() {
    let w = SwapLeak::default();
    let builder = base_builder(&w, Mode::Instrumented).telemetry(true);

    let (_, vm) = run_outcome(&w, false, builder.clone().census(true));
    let jsonl = vm.telemetry().to_jsonl(Some("swapleak"));
    let parsed = parse_jsonl(&jsonl).unwrap();
    assert!(!parsed.is_empty());
    for r in &parsed {
        let census = r.record.census.as_ref().expect("census fields present");
        assert!(!census.classes.is_empty());
        assert!(census.classes.iter().all(|e| e.objects > 0 && e.bytes > 0));
        assert!(!census.sites.is_empty(), "site attribution present");
    }
    // The labelled constructor site is visible in at least one record.
    assert!(
        parsed.iter().any(|r| {
            r.record
                .census
                .as_ref()
                .is_some_and(|c| c.sites.iter().any(|s| s.name == "SObject::new"))
        }),
        "SwapLeak's labelled allocation site shows up"
    );

    let (_, vm) = run_outcome(&w, false, builder.census(false));
    let jsonl = vm.telemetry().to_jsonl(Some("swapleak"));
    let parsed = parse_jsonl(&jsonl).unwrap();
    assert!(!parsed.is_empty());
    assert!(
        parsed.iter().all(|r| r.record.census.is_none()),
        "census-off records omit the census entirely"
    );
}

/// ISSUE acceptance (drift, positive): repeated SwapLeak rounds keep
/// pinning "discarded" SObjects, so the census flags a `CensusDrift`
/// naming the leaking class — and its labelled allocation site — and
/// derives an `assert-instances` limit from the data.
#[test]
fn swapleak_trips_class_and_site_drift() {
    let w = SwapLeak::default();
    let mut vm = Vm::new(base_builder(&w, Mode::Instrumented).census(true).build());
    for _ in 0..8 {
        w.run(&mut vm, false).unwrap();
        vm.collect().unwrap();
    }
    let census = vm.census();
    assert!(census.cycles() >= 8);

    let class_drift = census
        .drifts()
        .iter()
        .find(|d| d.scope == DriftScope::Class && d.name == "SObject")
        .expect("the leaking class drifts");
    assert!(class_drift.last_objects > class_drift.first_objects);
    assert!(class_drift.suggested_limit >= class_drift.first_objects);
    assert!(
        class_drift.render().contains("SObject"),
        "rendered drift names the class"
    );

    assert!(
        census
            .drifts()
            .iter()
            .any(|d| d.scope == DriftScope::Site && d.name == "SObject::new"),
        "the labelled constructor site drifts too"
    );

    assert!(
        census
            .suggested_limits()
            .iter()
            .any(|(name, limit)| name == "SObject" && *limit > 0),
        "a data-derived assert-instances limit is suggested"
    );

    // The heap diff between the first and last cycles shows SObject
    // retaining ever more bytes.
    let first = census.records().first().unwrap().seq;
    let last = census.records().last().unwrap().seq;
    let diff = census.heapdiff(first, last).expect("both cycles recorded");
    let row = diff
        .rows
        .iter()
        .find(|r| r.name == "SObject")
        .expect("SObject in the diff");
    assert!(row.bytes_delta() > 0);
    assert!(diff.render().contains("SObject"));

    // And the Prometheus exposition carries the drift.
    let prom = census.to_prometheus();
    assert!(prom.contains("gca_census_drift{scope=\"class\",name=\"SObject\"}"));
    assert!(prom.contains("gca_census_suggested_instance_limit{class=\"SObject\"}"));
    assert!(prom.contains("gca_census_live_bytes"));
}

/// ISSUE acceptance (drift, negative): steady-state pseudojbb runs at
/// least a full detection window without a single drift event — no
/// false positives on a stable heap. (Each SwapLeak iteration of the
/// positive test roots a fresh array, so only single-run workloads make
/// honest negatives.)
#[test]
fn steady_state_workloads_do_not_drift() {
    let jbb = PseudoJbb::for_figures();
    let (_, vm) = run_outcome(
        &jbb,
        false,
        base_builder(&jbb, Mode::Instrumented).census(true),
    );
    let census = vm.census();
    assert!(
        census.cycles() as usize >= census.window(),
        "pseudojbb must run a full detection window ({} cycles)",
        census.cycles()
    );
    assert!(
        census.drifts().is_empty(),
        "steady-state pseudojbb must not drift: {:?}",
        census.drifts()
    );
}

/// Generational runs census minor cycles too: nursery-survivor tallies
/// are recorded per minor collection (and kept out of the drift
/// windows), and minor cycle records report the full trace-counter set.
#[test]
fn generational_census_covers_minor_cycles() {
    let mut w = suite::full_suite().remove(0);
    w.iterations = (w.iterations / 10).max(3);
    let builder = base_builder(&w, Mode::Instrumented)
        .generational(16)
        .telemetry(true)
        .census(true);
    let (outcome, vm) = run_outcome(&w, false, builder);
    assert!(outcome.minor_collections > 0, "generational runs minors");

    let census = vm.census();
    assert_eq!(census.minor_cycles(), outcome.minor_collections);
    assert!(census.records().iter().any(|c| c.kind == CycleKind::Minor));

    // Satellite: minor cycle records now report the same counter set as
    // full collections (objects_marked / edges_traced were previously
    // always zero for minors).
    let t = vm.telemetry();
    let minors: Vec<_> = t
        .records()
        .iter()
        .filter(|r| r.kind == CycleKind::Minor)
        .collect();
    assert!(!minors.is_empty());
    assert!(
        minors.iter().any(|r| r.objects_marked > 0),
        "minor records carry mark counters"
    );
    assert!(
        minors.iter().any(|r| r.census.is_some()),
        "minor records carry nursery-survivor census data"
    );
}

/// Census off is the default, and the snapshot from a disabled VM is the
/// inert default no matter how much work ran.
#[test]
fn disabled_by_default_and_empty_when_disabled() {
    assert!(!VmConfig::default().census);
    let w = SwapLeak::default();
    let (outcome, vm) = run_outcome(&w, false, base_builder(&w, Mode::Instrumented));
    assert!(outcome.collections > 0);
    let census = vm.census();
    assert!(!census.enabled());
    assert_eq!(census.cycles(), 0);
    assert!(census.records().is_empty());
    assert!(census.drifts().is_empty());
    assert!(census.suggested_limits().is_empty());
}
