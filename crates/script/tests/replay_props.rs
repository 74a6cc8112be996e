//! Property test for record/replay: a random program recorded as `.gca`
//! text replays, under the same configuration, to the same violations
//! and the same live set.

use gc_assertions::{CollectorKind, ObjRef, Vm, VmConfig};
use gca_modelcheck::violation_key;
use gca_script::{replay, Recorder};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        data: usize,
    },
    Link {
        from: usize,
        field: usize,
        to: usize,
    },
    Unlink {
        from: usize,
        field: usize,
    },
    Root {
        obj: usize,
    },
    Global {
        obj: usize,
    },
    Frame,
    EndFrame,
    AssertDead {
        obj: usize,
    },
    AssertUnshared {
        obj: usize,
    },
    AssertInstances {
        limit: u32,
    },
    OwnedBy {
        owner: usize,
        ownee: usize,
    },
    Gc,
    MinorGc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..6).prop_map(|data| Op::Alloc { data }),
        (0usize..64, 0usize..3, 0usize..64).prop_map(|(from, field, to)| Op::Link {
            from,
            field,
            to
        }),
        (0usize..64, 0usize..3).prop_map(|(from, field)| Op::Unlink { from, field }),
        (0usize..64).prop_map(|obj| Op::Root { obj }),
        (0usize..64).prop_map(|obj| Op::Global { obj }),
        Just(Op::Frame),
        Just(Op::EndFrame),
        (0usize..64).prop_map(|obj| Op::AssertDead { obj }),
        (0usize..64).prop_map(|obj| Op::AssertUnshared { obj }),
        (0u32..4).prop_map(|limit| Op::AssertInstances { limit }),
        (0usize..64, 0usize..64).prop_map(|(owner, ownee)| Op::OwnedBy { owner, ownee }),
        Just(Op::Gc),
        Just(Op::MinorGc),
    ]
}

/// Mark-sweep, generational (where `minor-gc` collects) and copying.
fn config(kind: u8) -> VmConfig {
    let b = VmConfig::builder().report_once(false);
    match kind {
        0 => b.build(),
        1 => b.generational(3).build(),
        _ => b.collector(CollectorKind::Copying).build(),
    }
}

fn live_set(vm: &Vm) -> Vec<String> {
    vm.heap()
        .iter()
        .map(|(r, obj)| format!("{r:?} {:?} {}", obj.class(), obj.size_words()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_recordings_replay_identically(
        kind in 0u8..3,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut rec = Recorder::new(config(kind));
        let class = rec.register_class("N", &["a", "b", "c"]).unwrap();
        // Operations target live objects, as a real recorded program's
        // would; a frame pop below the bottom frame is skipped.
        let mut live: Vec<ObjRef> = Vec::new();
        let mut frames = 0usize;

        for op in &ops {
            live.retain(|&o| rec.vm().is_live(o));
            let pick = |i: usize| live[i % live.len()];
            match op {
                Op::Alloc { data } => live.push(rec.alloc(class, *data).unwrap()),
                Op::Frame => {
                    rec.push_frame().unwrap();
                    frames += 1;
                }
                Op::EndFrame if frames > 0 => {
                    rec.pop_frame().unwrap();
                    frames -= 1;
                }
                Op::Gc => {
                    rec.collect().unwrap();
                }
                Op::MinorGc => {
                    rec.collect_minor().unwrap();
                }
                Op::AssertInstances { limit } => rec.assert_instances(class, *limit).unwrap(),
                _ if live.is_empty() => {}
                Op::Link { from, field, to } => {
                    rec.set_field(pick(*from), field % 3, pick(*to)).unwrap();
                }
                Op::Unlink { from, field } => {
                    rec.set_field(pick(*from), field % 3, ObjRef::NULL).unwrap();
                }
                Op::Root { obj } => {
                    rec.add_root(pick(*obj)).unwrap();
                }
                Op::Global { obj } => rec.add_global(pick(*obj)).unwrap(),
                Op::AssertDead { obj } => rec.assert_dead(pick(*obj)).unwrap(),
                Op::AssertUnshared { obj } => rec.assert_unshared(pick(*obj)).unwrap(),
                Op::OwnedBy { owner, ownee } if pick(*owner) != pick(*ownee) => {
                    // Re-registering an ownee is a VM error; the recorder
                    // then writes nothing, so the replay stays in step.
                    let _ = rec.assert_owned_by(pick(*owner), pick(*ownee));
                }
                Op::OwnedBy { .. } | Op::EndFrame => {}
            }
        }
        let (vm, script) = rec.finish();

        let replayed = replay(&script, config(kind))
            .unwrap_or_else(|e| panic!("{e}\n{script}"));
        let keys = |vm: &Vm| vm.violation_log().iter().map(violation_key).collect::<Vec<_>>();
        prop_assert_eq!(keys(&vm), keys(&replayed));
        prop_assert_eq!(live_set(&vm), live_set(&replayed));
        prop_assert_eq!(vm.collections(), replayed.collections());
        prop_assert_eq!(vm.minor_collections(), replayed.minor_collections());
        prop_assert_eq!(vm.heap_stats().allocations, replayed.heap_stats().allocations);
    }
}
