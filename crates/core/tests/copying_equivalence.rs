//! Cross-engine differential fuzz suite: the semispace copying collector
//! must be *observationally identical* to the mark-sweep family.
//!
//! Copying changes *when* (at which address) objects live, not *whether*
//! they are live — so on arbitrary random heap programs mixing mutation
//! with every assertion kind, the copying backend must produce exactly the
//! same final live set, the same violation log (kind, object, report-once
//! — paths excluded, since a breadth-first scan discovers the same edge
//! *set* in a different *order*), the same assertion check counters (which
//! pins the visit multiplicities: one `visit_new` per object, one
//! `visit_marked` per extra incoming edge), and the same per-class /
//! per-site census tables as the sequential and parallel mark-sweep
//! engines.
//!
//! The generational engine is compared on final liveness only: its minor
//! cycles deliberately skip assertion checks (the paper's §2.2
//! observation), so violation *timing* legitimately differs while the live
//! set after a closing major collection may not.
//!
//! Failures shrink twice: proptest shrinks the generated input as usual,
//! and the failure path additionally runs the model checker's greedy
//! 1-minimal shrinker ([`gca_modelcheck::minimize_counterexample`]) and
//! prints a compact replay seed plus a runnable `.gca` script for the
//! implicated engine — zero overhead on passing cases.
//!
//! Case count: each property runs 256 random programs (64 for the
//! ForceTrue property), overridable with `PROPTEST_CASES`.

mod common;

use common::{fuzz_op_strategy, FuzzOp};
use gc_assertions::{CollectorKind, Reaction, VmConfig};
use gca_modelcheck::{check_program_with, minimize_counterexample, EngineSpec};
use proptest::prelude::*;

/// The shared base configuration: small growable heap so collections are
/// frequent, census on so the census tables are part of the comparison.
fn base() -> VmConfig {
    VmConfig::builder()
        .heap_budget(1_200)
        .grow_on_oom(true)
        .census(true)
        .build()
}

/// Differential check against an explicit engine matrix; on divergence,
/// minimizes the failing program and fails the property with the replay
/// seed and the runnable `.gca` counterexample.
fn check_minimized(matrix: &[EngineSpec], ops: &[FuzzOp]) {
    if let Err(error) = check_program_with(matrix, ops) {
        let cx = minimize_counterexample(matrix, ops);
        panic!(
            "{error}\nminimized {} ops -> {} ops: {}\nreplay seed: {}\n{}",
            ops.len(),
            cx.ops.len(),
            cx.error,
            cx.seed,
            cx.script
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Copying vs sequential mark-sweep and the 2- and 4-worker parallel
    /// mark: full-outcome equality (liveness, violations, check counters,
    /// census).
    #[test]
    fn copying_agrees_with_mark_sweep_family(
        ops in proptest::collection::vec(fuzz_op_strategy(), 1..120),
    ) {
        let matrix = [
            EngineSpec { name: "ms", config: base() },
            EngineSpec { name: "par2", config: base().gc_threads(2) },
            EngineSpec { name: "par4", config: base().gc_threads(4) },
            EngineSpec { name: "copying", config: base().collector(CollectorKind::Copying) },
        ];
        check_minimized(&matrix, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Copying vs generational: final-liveness equality only. Minor cycles
    /// check no assertions, so the violation log and check counters can
    /// legitimately differ in when (and, with report-once, whether) a
    /// violation is recorded; the live set after the closing major
    /// collection cannot. Each major schedule is checked against copying
    /// in a matrix of its own.
    #[test]
    fn copying_agrees_with_generational_on_liveness(
        ops in proptest::collection::vec(fuzz_op_strategy(), 1..120),
    ) {
        for (name, major_every) in [("gen-1", 1usize), ("gen-3", 3), ("gen-16", 16)] {
            let matrix = [
                EngineSpec { name: "copying", config: base().collector(CollectorKind::Copying) },
                EngineSpec { name, config: base().generational(major_every) },
            ];
            check_minimized(&matrix, &ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ForceTrue reaction (§2.6): the collector severs every encountered
    /// incoming edge to an asserted-dead object. A breadth-first scan
    /// encounters the same edge set as a depth-first one, so the severed
    /// set — and therefore both the violation log and which objects die
    /// at the *next* collection — must be identical.
    #[test]
    fn force_true_severs_the_same_edges(
        ops in proptest::collection::vec(fuzz_op_strategy(), 1..120),
    ) {
        let matrix = [
            EngineSpec { name: "ms", config: base().reaction(Reaction::ForceTrue) },
            EngineSpec {
                name: "copying",
                config: base().reaction(Reaction::ForceTrue).collector(CollectorKind::Copying),
            },
        ];
        check_minimized(&matrix, &ops);
    }
}
