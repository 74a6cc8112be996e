//! The access-graph summary collector: abstract collections over heaps
//! that contain summary nodes.
//!
//! Once a `repeat`/`proc` body has been summarized, a single abstract
//! object may stand for unboundedly many runtime objects and the
//! analyzer can no longer replay the collector cycle exactly (flag state
//! such as report-once suppression diverges after the first summarized
//! iteration).  This module implements the sound degraded cycle:
//!
//! * **may-reachability** is a BFS over *all* edges — strong fields plus
//!   the weak [`summary_edges`](super::domain::AbsObj::summary_edges) —
//!   seeded from every root and global.  It
//!   over-approximates runtime reachability at every iteration of the
//!   summarized loop, so:
//! * objects that are **not** may-reachable are provably unreachable and
//!   are swept (this is where looping scripts earn Safe verdicts), and
//! * every assertion that *could* fire on a may-reachable object becomes
//!   a **may** verdict — the must-set of a summary collection is always
//!   empty, keeping the differential soundness contract trivially.
//!
//! Under [`havoc`](super::domain::AbsState::havoc) (a fixpoint that
//! failed to converge, or a replay past its work cap) the BFS is
//! replaced by "every live object is may-reachable": no Safe verdicts,
//! nothing swept.

use super::collect::{retire, CycleOutcome, PathStep, PredKind, PredViolation};
use super::domain::{AbsState, ObjId};

/// May-reachability over the access graph: `(reached, parent-edge)` per
/// object.  The parent chain reconstructs a witness path for Figure-1
/// style notes.
fn may_reach(st: &AbsState) -> (Vec<bool>, Vec<Option<(ObjId, usize)>>) {
    let n = st.objects.len();
    let mut may = vec![false; n];
    let mut parent: Vec<Option<(ObjId, usize)>> = vec![None; n];
    if st.havoc {
        for (i, o) in st.objects.iter().enumerate() {
            may[i] = o.alive;
        }
        return (may, parent);
    }
    let mut queue: Vec<ObjId> = st.gather_roots();
    while let Some(o) = queue.pop() {
        if may[o] || !st.objects[o].alive {
            continue;
        }
        may[o] = true;
        for (idx, f) in st.objects[o].fields.iter().enumerate() {
            if let Some(c) = f {
                if !may[*c] && st.objects[*c].alive {
                    parent[*c] = Some((o, idx));
                    queue.push(*c);
                }
            }
        }
        for &(idx, c) in &st.objects[o].summary_edges {
            if !may[c] && st.objects[c].alive {
                parent[c] = Some((o, idx));
                queue.push(c);
            }
        }
    }
    (may, parent)
}

/// Witness path root→`obj` from the BFS parent chain (empty when path
/// tracking is off or the domain is blind).
fn witness_path(st: &AbsState, parent: &[Option<(ObjId, usize)>], obj: ObjId) -> Vec<PathStep> {
    if !st.config.path_tracking || st.havoc {
        return Vec::new();
    }
    let mut rev = vec![PathStep { obj, field: None }];
    let mut cur = obj;
    while let Some((p, f)) = parent[cur] {
        rev.last_mut().expect("non-empty").field = Some(f);
        rev.push(PathStep {
            obj: p,
            field: None,
        });
        cur = p;
        if rev.len() > st.objects.len() {
            break;
        }
    }
    rev.reverse();
    rev
}

/// One summary major collection: may-verdicts for every assertion that
/// could fire, a sound sweep of provably unreachable objects, and a
/// conservative epilogue (no report-once latching, no force-true
/// severing, no halt latch — all uncertainty-increasing reactions are
/// modeled by the verdicts being *may*).
pub(crate) fn collect_summary(st: &mut AbsState) -> CycleOutcome {
    st.occupancy_unknown = true;
    let engine = !st.config.base_mode;
    let ownership_active = engine && !st.ownership.is_empty();
    let (may, parent) = may_reach(st);
    let mut violations = Vec::new();
    if engine {
        for (i, &reachable) in may.iter().enumerate() {
            if !st.objects[i].alive || !reachable {
                continue;
            }
            let class_name = st.classes[st.objects[i].class].name.clone();
            if st.objects[i].dead {
                violations.push(PredViolation {
                    kind: PredKind::DeadReachable,
                    summary: format!("dead-reachable {class_name}"),
                    obj: Some(i),
                    path: witness_path(st, &parent, i),
                });
            }
            if st.objects[i].unshared && (st.incoming(i) >= 2 || st.objects[i].summary) {
                violations.push(PredViolation {
                    kind: PredKind::Shared,
                    summary: format!("shared {class_name}"),
                    obj: Some(i),
                    path: witness_path(st, &parent, i),
                });
            }
            if ownership_active && st.objects[i].ownee {
                // Ownership reachability through summary nodes is where
                // the model earns the least trust: any reachable ownee
                // may fail the owner-scan.
                violations.push(PredViolation {
                    kind: PredKind::NotOwned,
                    summary: format!("not-owned {class_name}"),
                    obj: Some(i),
                    path: witness_path(st, &parent, i),
                });
            }
        }
        // Instance limits: may-reachable per-class counts (summary nodes
        // count once; the verdict is may, so undercounting only costs
        // recall, never soundness).
        for ci in 0..st.classes.len() {
            if let Some(lim) = st.classes[ci].limit {
                let count = st
                    .objects
                    .iter()
                    .enumerate()
                    .filter(|(i, o)| o.alive && may[*i] && o.class == ci)
                    .count() as u32;
                if count > lim.limit {
                    violations.push(PredViolation {
                        kind: PredKind::InstanceLimit,
                        summary: format!(
                            "instance-limit {} {}>{}",
                            st.classes[ci].name, count, lim.limit
                        ),
                        obj: None,
                        path: Vec::new(),
                    });
                }
            }
        }
    }
    // Sweep: only provably unreachable objects die.  Under a blind
    // domain nothing is provably unreachable, so nothing is swept.
    let mut swept_ownees = Vec::new();
    let mut swept_owners = Vec::new();
    for (i, &reachable) in may.iter().enumerate() {
        if !st.objects[i].alive {
            continue;
        }
        if reachable {
            st.objects[i].mark = false;
            st.objects[i].owned = false;
        } else {
            if engine {
                if st.objects[i].ownee {
                    swept_ownees.push(i);
                }
                if st.objects[i].owner {
                    swept_owners.push(i);
                }
            }
            st.objects[i].alive = false;
        }
    }
    if engine {
        retire(st, &swept_ownees, &swept_owners, &mut violations);
    }
    if st.config.generational.is_some() {
        let young = std::mem::take(&mut st.young);
        for y in young {
            if st.objects[y].alive {
                st.objects[y].old = true;
            }
        }
        for o in &mut st.objects {
            o.remembered = false;
        }
        st.remembered.clear();
        st.minors_since_major = 0;
    }
    st.region_queue.retain(|&o| st.objects[o].alive);
    CycleOutcome {
        violations,
        ownership_active,
    }
}

/// One summary minor collection (generational mode only):
/// promote-everything, sweep-nothing — a sound over-approximation that
/// makes no claims (minors report nothing in summary mode).
pub(crate) fn collect_minor_summary(st: &mut AbsState) -> Vec<PredViolation> {
    let young = std::mem::take(&mut st.young);
    for y in young {
        if st.objects[y].alive {
            st.objects[y].old = true;
        }
    }
    for o in &mut st.objects {
        o.remembered = false;
    }
    st.remembered.clear();
    st.minors_since_major += 1;
    Vec::new()
}
