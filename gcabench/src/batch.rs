//! The two batch workloads, `churn-infra` and `assert-heavy`: whole
//! workload runs on fresh VMs, the checked configuration interleaved
//! with its Base twin.

use std::time::Instant;

use gc_assertions::ViolationKind;
use gca_workloads::db::Db209;
use gca_workloads::pseudojbb::PseudoJbb;
use gca_workloads::runner::{run_once_vm, ExpConfig, Workload};
use gca_workloads::suite::{full_suite, SyntheticWorkload};

use crate::pass::{vm_config, Pass, Rng};
use crate::trace::Spans;
use crate::Size;

/// The suite kernels of `churn-infra`: allocation- and sweep-heavy, and
/// none registers an assertion.
pub const CHURN_KERNELS: [&str; 5] = ["bloat", "eclipse", "hsqldb", "jython", "luindex"];

/// What a checked run must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// No violation.
    Clean,
    /// A dead-reachable `Order` whose path passes through
    /// `longBTreeNode` (the paper's Figure 1).
    Figure1,
}

/// A batch workload: its runs and the configuration they are checked in.
pub struct Batch {
    checked: ExpConfig,
    runs: Vec<(Box<dyn Workload>, Expect)>,
}

impl Batch {
    /// `churn-infra`: the five kernels, each with a seed drawn from `seed`,
    /// run under Infrastructure against Base.
    pub fn churn(seed: u64, size: Size) -> Batch {
        let mut rng = Rng::new(seed, 1);
        let runs = full_suite()
            .into_iter()
            .filter(|k| CHURN_KERNELS.contains(&k.name))
            .map(|k| {
                let kernel = SyntheticWorkload {
                    seed: rng.next_u64(),
                    iterations: size.scale(k.iterations, 16),
                    ..k
                };
                (Box::new(kernel) as Box<dyn Workload>, Expect::Clean)
            })
            .collect::<Vec<_>>();
        assert_eq!(runs.len(), CHURN_KERNELS.len(), "suite kernels renamed");
        Batch {
            checked: ExpConfig::Infrastructure,
            runs,
        }
    }

    /// `assert-heavy`: `_209_db` and pseudojbb with their ownership
    /// assertions, run WithAssertions against Base, plus one buggy
    /// pseudojbb run with `assert-dead` in its destructors.
    pub fn assert_heavy(seed: u64, size: Size) -> Batch {
        let mut rng = Rng::new(seed, 2);
        let db = Db209::default();
        let db = Db209 {
            seed: rng.next_u64(),
            operations: size.scale(db.operations, 20),
            ..db
        };
        let jbb = PseudoJbb::for_figures();
        let jbb = PseudoJbb {
            seed: rng.next_u64(),
            transactions: size.scale(jbb.transactions, 20),
            ..jbb
        };
        let buggy = PseudoJbb {
            seed: rng.next_u64(),
            ..PseudoJbb::buggy_with_dead_asserts()
        };
        Batch {
            checked: ExpConfig::WithAssertions,
            runs: vec![
                (Box::new(db), Expect::Clean),
                (Box::new(jbb), Expect::Clean),
                (Box::new(buggy), Expect::Figure1),
            ],
        }
    }

    /// One pass: every run on a fresh VM, in the checked configuration
    /// or in Base.
    pub fn pass(&self, checked: bool, mut spans: Spans) -> Pass {
        let config = if checked {
            self.checked
        } else {
            ExpConfig::Base
        };
        let mut p = Pass::default();
        let mut wrong = Vec::new();
        let start = Instant::now();
        let pass_span = spans.begin("pass", 0);
        for (w, expect) in &self.runs {
            let span = spans.begin("run_once_vm", pass_span);
            let result = run_once_vm(
                w.as_ref(),
                config,
                vm_config(w.heap_budget(), config, spans.on()),
            );
            spans.end(span);
            let vm = match result {
                Ok((_, vm)) => vm,
                Err(e) => {
                    wrong.push(format!("{} under {config}: {e}", w.name()));
                    continue;
                }
            };
            p.fingerprint(&vm);
            p.absorb(&vm);
            if !vm.violation_log().is_empty() {
                let render = spans.begin("render", pass_span);
                p.render(&vm);
                spans.end(render);
            }
            if spans.on() {
                let telemetry = vm.telemetry();
                spans.cycles(span, telemetry.records().iter().map(|r| r.total_ns));
                p.absorb_telemetry(&telemetry);
            }
            let log = vm.violation_log();
            let expect = if checked { *expect } else { Expect::Clean };
            match expect {
                Expect::Clean if !log.is_empty() => wrong.push(format!(
                    "{} under {config}: {} violation(s) on a clean run",
                    w.name(),
                    log.len()
                )),
                Expect::Figure1
                    if !log.iter().any(|v| {
                        matches!(&v.kind, ViolationKind::DeadReachable { class_name, .. } if class_name == "Order")
                            && v.path.passes_through(vm.registry(), "longBTreeNode")
                    }) =>
                {
                    wrong.push(format!(
                        "{} under {config}: no dead-reachable Order through longBTreeNode",
                        w.name()
                    ))
                }
                _ => {}
            }
        }
        spans.end(pass_span);
        // The operation is the whole pass: the batch of runs a user waits
        // for.
        p.ops += 1;
        p.wall = start.elapsed().as_secs_f64();
        if !wrong.is_empty() {
            p.fail(wrong.join("; "));
        }
        p
    }

    /// `churn-infra` registers no assertions, so Infrastructure must do
    /// exactly Base's collection work on every kernel.
    pub fn pair_check(&self, checked: &Pass, base: &Pass) -> Vec<String> {
        if self.checked != ExpConfig::Infrastructure || checked.fingerprints == base.fingerprints {
            return Vec::new();
        }
        vec![format!(
            "Infrastructure and Base differ in (collections, marked, edges): {:?} vs {:?}",
            checked.fingerprints, base.fingerprints
        )]
    }
}
