//! Seed and determinism checks, on small copies of every workload: the
//! same seed repeats every per-layer counter exactly, and another seed
//! changes them, so the seed does reach the inputs.

use gcabench::{run, Outcome, Size, Workload};

fn counters(out: &Outcome) -> Vec<(&'static str, f64)> {
    out.metrics
        .iter()
        .filter(|(_, _, unit)| *unit == "count")
        .map(|&(name, value, _)| (name, value))
        .collect()
}

fn traced(workload: Workload, seed: u64) -> Outcome {
    let out = run(workload, seed, 0.01, true, Size::Small);
    assert!(
        out.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        out.failures
    );
    out
}

#[test]
fn same_seed_repeats_every_counter() {
    for w in Workload::ALL {
        let a = counters(&traced(w, 7));
        let b = counters(&traced(w, 7));
        assert_eq!(a, b, "{}", w.name());
        let allocations = a.iter().find(|(n, _)| *n == "heap.allocations");
        assert!(allocations.is_some_and(|&(_, v)| v > 0.0), "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_counters() {
    for w in Workload::ALL {
        let a = counters(&traced(w, 7));
        let b = counters(&traced(w, 8));
        assert_ne!(a, b, "{}: the seed did not reach the inputs", w.name());
    }
}

#[test]
fn telemetry_keeps_one_record_per_collection() {
    for w in [Workload::ChurnInfra, Workload::AssertHeavy] {
        let out = traced(w, 3);
        let get = |name: &str| out.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        assert_eq!(
            get("telemetry.records"),
            get("collector.collections"),
            "{}",
            w.name()
        );
        assert!(out.tracer.as_ref().is_some_and(|t| !t.is_empty()));
    }
}
