//! The shared heap-program language and its deterministic interpreter.
//!
//! This is the *single* definition of the random/enumerated program
//! language consumed by every differential harness in the repository: the
//! proptest fuzz suites in `crates/core/tests`, the exhaustive bounded
//! model checker in [`crate::enumerate`], and the counterexample shrinker
//! in [`crate::shrink`]. Adding an op here (e.g. when the concurrent
//! marking engine lands) extends all of them at once.
//!
//! Object-referencing operations index into the *rooted* set modulo its
//! length, and every op silently no-ops when its preconditions are unmet,
//! so **any** op sequence — and any subsequence of one, which is what
//! makes greedy shrinking sound — is a valid program under any collection
//! schedule.

use gc_assertions::{ObjRef, Violation, ViolationKind, Vm, VmConfig};
use proptest::prelude::*;

/// One step of a heap program. Object-referencing operations index into
/// the *rooted* set (modulo its length), so every program is valid under
/// any collection schedule — an engine can never make an op dangle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzOp {
    /// Allocate a 3-field `N` object with `data` payload words (the data
    /// size selects the BiBOP size class, or the large-object space past
    /// the LOS threshold), optionally rooting it.
    Alloc {
        /// Data payload words.
        data: usize,
        /// Whether to root the new object.
        root: bool,
    },
    /// `rooted[from].field = rooted[to]`.
    Link {
        /// Source index into the rooted set.
        from: usize,
        /// Field index (modulo the field count).
        field: usize,
        /// Target index into the rooted set.
        to: usize,
    },
    /// `rooted[from].field = null`.
    Unlink {
        /// Source index into the rooted set.
        from: usize,
        /// Field index (modulo the field count).
        field: usize,
    },
    /// Exchange `rooted[a].field` and `rooted[b].field` — the third edge
    /// mutation shape (store / clear / swap) of the model checker's scope.
    Swap {
        /// First object index into the rooted set.
        a: usize,
        /// Second object index into the rooted set.
        b: usize,
        /// Field index (modulo the field count).
        field: usize,
    },
    /// Unroot every rooted object past the first `keep`.
    UnrootTo {
        /// Number of oldest roots to keep.
        keep: usize,
    },
    /// Full (major) collection + heap verification.
    Collect,
    /// Minor (nursery-only) collection on generational engines; the VM
    /// makes it a no-op everywhere else. Exercises the card-scan minor
    /// path, which explicit majors never reach on small programs.
    MinorGc,
    /// `assert-dead` on a rooted object. It passes if a later `UnrootTo`
    /// kills the object before the next collection, and reports a
    /// `DeadReachable` violation otherwise — both outcomes must be
    /// engine-independent.
    AssertDead {
        /// Target index into the rooted set.
        target: usize,
    },
    /// `assert-unshared` on a rooted object.
    AssertUnshared {
        /// Target index into the rooted set.
        target: usize,
    },
    /// `assert-instances` on class `N`.
    AssertInstances {
        /// Live-instance limit.
        limit: u32,
    },
    /// A bracketed `start_region` / `assert_alldead` pair allocating
    /// `1 + len % 4` objects inline; with `leak` the first one is rooted,
    /// which must produce a `DeadReachable` violation on every engine.
    Region {
        /// Controls the inline allocation count (`1 + len % 4`).
        len: usize,
        /// Whether to leak (root) the first region object.
        leak: bool,
    },
    /// Allocate an owner and an ownee, pin both as globals (so no
    /// collection schedule can kill a participant mid-program), link
    /// `owner -> ownee` and `assert_owned_by`.
    OwnPair,
    /// Leak the most recent ownee: `rooted[from].field = ownee`. Harmless
    /// while the owner edge stands (the pre-phase marks the ownee owned),
    /// but after `BreakOwner` the root scan reaches an unowned ownee.
    LeakOwnee {
        /// Source index into the rooted set.
        from: usize,
    },
    /// Sever the most recent owner's edge to its ownee.
    BreakOwner,
}

/// Strategy over [`FuzzOp`], weighted so programs mix heap mutation with
/// every assertion kind.
pub fn fuzz_op_strategy() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        4 => (0usize..6, any::<bool>()).prop_map(|(data, root)| FuzzOp::Alloc { data, root }),
        3 => (0usize..64, 0usize..3, 0usize..64)
            .prop_map(|(from, field, to)| FuzzOp::Link { from, field, to }),
        2 => (0usize..64, 0usize..3).prop_map(|(from, field)| FuzzOp::Unlink { from, field }),
        1 => (0usize..64, 0usize..64, 0usize..3)
            .prop_map(|(a, b, field)| FuzzOp::Swap { a, b, field }),
        1 => (0usize..16).prop_map(|keep| FuzzOp::UnrootTo { keep }),
        2 => Just(FuzzOp::Collect),
        1 => Just(FuzzOp::MinorGc),
        2 => (0usize..64).prop_map(|target| FuzzOp::AssertDead { target }),
        2 => (0usize..64).prop_map(|target| FuzzOp::AssertUnshared { target }),
        1 => (0u32..4).prop_map(|limit| FuzzOp::AssertInstances { limit }),
        1 => (0usize..4, any::<bool>()).prop_map(|(len, leak)| FuzzOp::Region { len, leak }),
        1 => Just(FuzzOp::OwnPair),
        1 => (0usize..64).prop_map(|from| FuzzOp::LeakOwnee { from }),
        1 => Just(FuzzOp::BreakOwner),
    ]
}

/// Strategy over the mutation-only subset of [`FuzzOp`] (no assertion
/// sites, no minors): allocation, edge stores/clears, unrooting, and
/// full collections. Used by the pure liveness-equivalence suite.
pub fn mutation_op_strategy() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        3 => (0usize..6, any::<bool>()).prop_map(|(data, root)| FuzzOp::Alloc { data, root }),
        2 => (0usize..64, 0usize..3, 0usize..64)
            .prop_map(|(from, field, to)| FuzzOp::Link { from, field, to }),
        1 => (0usize..64, 0usize..3).prop_map(|(from, field)| FuzzOp::Unlink { from, field }),
        1 => (0usize..16).prop_map(|keep| FuzzOp::UnrootTo { keep }),
        1 => Just(FuzzOp::Collect),
    ]
}

/// Everything one engine run observably produced. Two engines agree on a
/// program iff their `Outcome`s are equal (`PartialEq` derives field-wise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Allocation-ordered liveness bitmap after the closing collection.
    pub live: Vec<bool>,
    /// Normalized, sorted violation log across the whole run — one string
    /// per report keyed by (kind, object slot, class names); paths are
    /// deliberately excluded (a BFS scan reports edges in a different
    /// *order* than a DFS scan, but must report the same *set*).
    pub violations: Vec<String>,
    /// Cumulative assertion-checking work: this pins the visit
    /// *multiplicities* (one `visit_new` per object, one `visit_marked`
    /// per extra edge), not just the verdicts.
    pub check_totals: (u64, u64, u64, u64, u64, u64),
    /// Per-class live totals from the final collection's census.
    pub census_classes: Vec<(String, u64, u64)>,
    /// Per-allocation-site live totals from the final collection's census.
    pub census_sites: Vec<(String, u64, u64)>,
}

/// Collapses a violation to an order-independent, path-independent key.
pub fn violation_key(v: &Violation) -> String {
    match &v.kind {
        ViolationKind::DeadReachable { object, class_name } => {
            format!("dead:{}:{}", object.index(), class_name)
        }
        ViolationKind::InstanceLimit {
            class_name,
            limit,
            count,
        } => format!("instances:{class_name}:{limit}:{count}"),
        ViolationKind::Shared { object, class_name } => {
            format!("shared:{}:{}", object.index(), class_name)
        }
        ViolationKind::NotOwned {
            ownee,
            ownee_class,
            owner,
            owner_class,
        } => format!(
            "notowned:{}:{}:{}:{}",
            ownee.index(),
            ownee_class,
            owner.index(),
            owner_class
        ),
        ViolationKind::ImproperOwnership {
            ownee,
            ownee_class,
            scanned_owner,
            scanned_owner_class,
        } => format!(
            "improper:{}:{}:{}:{}",
            ownee.index(),
            ownee_class,
            scanned_owner.index(),
            scanned_owner_class
        ),
        ViolationKind::OwneeOutlivedOwner {
            ownee,
            ownee_class,
            owner_class,
        } => format!("outlived:{}:{}:{}", ownee.index(), ownee_class, owner_class),
        other => panic!("violation_key: unhandled violation kind {other:?}"),
    }
}

/// Normalizes a violation log for cross-engine comparison: per-violation
/// keys, sorted.
pub fn normalize_violations(vs: &[Violation]) -> Vec<String> {
    let mut out: Vec<String> = vs.iter().map(violation_key).collect();
    out.sort();
    out
}

/// Replays `ops` on a fresh VM built from `config` and returns the full
/// [`Outcome`].
///
/// After every collection (and at the end) the backend-dispatched
/// [`gc_assertions::Vm::heap`] `verify()` runs — page/card geometry,
/// dangling references, and the active space's address invariants — so a
/// substrate corruption fails the run rather than corrupting the
/// comparison.
///
/// # Panics
///
/// On any VM error or heap-verification failure (failing the property or
/// model-check run that called it).
pub fn run_program(config: VmConfig, ops: &[FuzzOp]) -> Outcome {
    let mut vm = Vm::new(config);
    let n = vm.register_class("N", &["a", "b", "c"]);
    let owner_c = vm.register_class("Owner", &["prop"]);
    let ownee_c = vm.register_class("Ownee", &["x"]);
    let m = vm.main();

    let mut allocated: Vec<ObjRef> = Vec::new();
    // Rooted handles with their root-slot indices (we unroot suffixes).
    let mut rooted: Vec<(usize, ObjRef)> = Vec::new();
    // Ownership participants are pinned as globals, never unrooted.
    let mut owners: Vec<ObjRef> = Vec::new();
    let mut ownees: Vec<ObjRef> = Vec::new();

    let verify = |vm: &Vm| {
        // One backend-dispatched check: page/card structure, dangling
        // references, and the active space's address invariants.
        let problems = vm.heap().verify();
        assert!(problems.is_empty(), "heap corruption: {problems:?}");
    };

    for op in ops {
        match op {
            FuzzOp::Alloc { data, root } => {
                let o = vm.alloc(m, n, 3, *data).unwrap();
                allocated.push(o);
                if *root {
                    let slot = vm.add_root(m, o).unwrap();
                    rooted.push((slot, o));
                }
            }
            FuzzOp::Link { from, field, to } if !rooted.is_empty() => {
                let f = rooted[from % rooted.len()].1;
                let t = rooted[to % rooted.len()].1;
                vm.set_field(f, field % 3, t).unwrap();
            }
            FuzzOp::Unlink { from, field } if !rooted.is_empty() => {
                let f = rooted[from % rooted.len()].1;
                vm.set_field(f, field % 3, ObjRef::NULL).unwrap();
            }
            FuzzOp::Swap { a, b, field } if !rooted.is_empty() => {
                let x = rooted[a % rooted.len()].1;
                let y = rooted[b % rooted.len()].1;
                let f = field % 3;
                let fx = vm.field(x, f).unwrap();
                let fy = vm.field(y, f).unwrap();
                vm.set_field(x, f, fy).unwrap();
                vm.set_field(y, f, fx).unwrap();
            }
            FuzzOp::UnrootTo { keep } if rooted.len() > *keep => {
                for &(slot, _) in &rooted[*keep..] {
                    vm.set_root(m, slot, ObjRef::NULL).unwrap();
                }
                rooted.truncate(*keep);
            }
            FuzzOp::Collect => {
                vm.collect().unwrap();
                verify(&vm);
            }
            FuzzOp::MinorGc => {
                vm.collect_minor().unwrap();
                verify(&vm);
            }
            FuzzOp::AssertDead { target } if !rooted.is_empty() => {
                let t = rooted[target % rooted.len()].1;
                vm.assert_dead(t).unwrap();
            }
            FuzzOp::AssertUnshared { target } if !rooted.is_empty() => {
                let t = rooted[target % rooted.len()].1;
                vm.assert_unshared(t).unwrap();
            }
            FuzzOp::AssertInstances { limit } => {
                vm.assert_instances(n, *limit).unwrap();
            }
            FuzzOp::Region { len, leak } => {
                vm.start_region(m).unwrap();
                let mut first = None;
                for _ in 0..(len % 4) + 1 {
                    let o = vm.alloc(m, n, 3, 0).unwrap();
                    allocated.push(o);
                    first.get_or_insert(o);
                }
                if *leak {
                    let o = first.unwrap();
                    let slot = vm.add_root(m, o).unwrap();
                    rooted.push((slot, o));
                }
                vm.assert_alldead(m).unwrap();
            }
            FuzzOp::OwnPair => {
                let o = vm.alloc(m, owner_c, 1, 0).unwrap();
                let e = vm.alloc(m, ownee_c, 1, 0).unwrap();
                allocated.push(o);
                allocated.push(e);
                vm.add_global(o).unwrap();
                // The ownee is pinned too: after `BreakOwner` it must stay
                // referenceable (for `LeakOwnee`) and the global root then
                // reaches an unowned ownee — a deterministic `NotOwned`.
                vm.add_global(e).unwrap();
                vm.set_field(o, 0, e).unwrap();
                vm.assert_owned_by(o, e).unwrap();
                owners.push(o);
                ownees.push(e);
            }
            FuzzOp::LeakOwnee { from } if !rooted.is_empty() && !ownees.is_empty() => {
                let f = rooted[from % rooted.len()].1;
                vm.set_field(f, from % 3, *ownees.last().unwrap()).unwrap();
            }
            FuzzOp::BreakOwner if !owners.is_empty() => {
                vm.set_field(*owners.last().unwrap(), 0, ObjRef::NULL)
                    .unwrap();
            }
            _ => {}
        }
    }
    vm.collect().unwrap();
    verify(&vm);

    let t = vm.check_totals();
    let check_totals = (
        t.owners_scanned,
        t.ownees_checked,
        t.deferred_ownees_processed,
        t.dead_bits_seen,
        t.tracked_instances_counted,
        t.unshared_bits_seen,
    );
    let census = vm.census();
    let (census_classes, census_sites) = match census.latest() {
        None => (Vec::new(), Vec::new()),
        Some(cycle) => (
            cycle
                .data
                .classes
                .iter()
                .map(|e| (e.name.clone(), e.objects, e.bytes))
                .collect(),
            cycle
                .data
                .sites
                .iter()
                .map(|e| (e.name.clone(), e.objects, e.bytes))
                .collect(),
        ),
    };
    Outcome {
        live: allocated.iter().map(|&o| vm.is_live(o)).collect(),
        violations: normalize_violations(vm.violation_log()),
        check_totals,
        census_classes,
        census_sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_exchanges_fields() {
        let ops = vec![
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Link {
                from: 0,
                field: 0,
                to: 1,
            },
            FuzzOp::Swap {
                a: 0,
                b: 1,
                field: 0,
            },
            FuzzOp::UnrootTo { keep: 1 },
            FuzzOp::Collect,
        ];
        // Before the swap: n0.a = n1, n1.a = null. After: n0.a = null,
        // n1.a = n1 (a self-loop). Unrooting n1 then leaves it
        // unreachable — the swap severed its only path from a root.
        let out = run_program(VmConfig::builder().build(), &ops);
        assert_eq!(out.live, vec![true, false]);
    }

    #[test]
    fn minor_gc_is_a_no_op_without_generational() {
        let ops = vec![
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::MinorGc,
            FuzzOp::Collect,
        ];
        let out = run_program(VmConfig::builder().build(), &ops);
        assert_eq!(out.live, vec![true]);
    }

    #[test]
    fn minor_gc_runs_on_generational() {
        let ops = vec![
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Alloc {
                data: 0,
                root: false,
            },
            FuzzOp::MinorGc,
        ];
        let out = run_program(VmConfig::builder().generational(4).build(), &ops);
        // The unrooted nursery object is reclaimed by the minor; the
        // rooted one is promoted and survives the closing major.
        assert_eq!(out.live, vec![true, false]);
    }
}
