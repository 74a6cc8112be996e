//! Core GC invariants, extracted for `debug_assert!`-guarded checking on
//! every collection cycle.
//!
//! These are the model-checkable properties the exhaustive small-scope
//! checker (`gca-modelcheck`) relies on implicitly; checking them *inside*
//! the collectors turns a latent heap corruption into an immediate panic
//! at the cycle that caused it, instead of a downstream differential
//! mismatch several programs later. Each function returns a list of
//! violation descriptions (empty = invariant holds) so the call sites can
//! stay `debug_assert!`-gated — release builds pay nothing, and the CI
//! model-check gate runs with `debug-assertions = true` (the `mcheck`
//! profile) so every enumerated program exercises them.

use std::collections::HashSet;

use gca_heap::{Flags, Heap};

/// Tri-color consistency at `trace_done` time (after the transitive mark,
/// before the sweep): no black-to-white edge may exist — every reference
/// field of a MARK'd (black) object must point to a MARK'd object. An
/// unmarked child here means the tracer lost an edge, and the sweep is
/// about to free a reachable object.
pub fn tricolor_violations(heap: &Heap) -> Vec<String> {
    let mut problems = Vec::new();
    for (r, obj) in heap.iter() {
        if !heap.has_flag(r, Flags::MARK).unwrap_or(false) {
            continue;
        }
        // §2.5.2 exemption: ownership scans *truncate* at ownees. An
        // ownee reached only through a foreign owner's region is marked
        // (and reported NotOwned/ImproperOwnership) but deliberately
        // never descended below — OWNED is exactly the bit that records
        // "my own owner's scan resumed under me", so a marked ownee
        // without it is a documented truncation point, not a lost edge.
        if heap.has_flag(r, Flags::OWNEE).unwrap_or(false)
            && !heap.has_flag(r, Flags::OWNED).unwrap_or(false)
        {
            continue;
        }
        for (i, &child) in obj.refs().iter().enumerate() {
            if !child.is_some() {
                continue;
            }
            match heap.has_flag(child, Flags::MARK) {
                Ok(true) => {}
                Ok(false) => problems.push(format!(
                    "black-to-white edge: marked {r:?}.{i} -> unmarked {child:?}"
                )),
                Err(e) => problems.push(format!(
                    "marked {r:?}.{i} -> invalid reference {child:?}: {e:?}"
                )),
            }
        }
    }
    problems
}

/// Forwarding totality for the copying backend, at `trace_done` time
/// (after evacuation, before the sweep and the flip): an object has a
/// forwarding address installed this cycle **iff** it is MARK'd. A marked
/// survivor without a forwarding address loses its location at the flip
/// (the space assigns it no to-space address); a forwarded-but-unmarked
/// object means something evacuated outside the tracer's knowledge.
///
/// Call only between `evac_begin` and `evac_finish` on a
/// [`gca_heap::SpaceKind::Semispace`] heap — outside a cycle no object
/// has a forwarding address and every marked object would be reported.
pub fn forwarding_totality_violations(heap: &Heap) -> Vec<String> {
    let mut problems = Vec::new();
    for (r, _) in heap.iter() {
        let marked = heap.has_flag(r, Flags::MARK).unwrap_or(false);
        let forwarded = heap.evac_forwarding_of(r).is_some();
        match (marked, forwarded) {
            (true, false) => problems.push(format!(
                "marked survivor {r:?} has no forwarding address installed"
            )),
            (false, true) => problems.push(format!(
                "unmarked object {r:?} was forwarded to {:?}",
                heap.evac_forwarding_of(r)
            )),
            _ => {}
        }
    }
    problems
}

/// Card cover, at the start of a generational minor: every live `OLD`
/// object that references a live non-`OLD` object must be in
/// [`Heap::remembered_from_cards`]. That is the specification of the
/// card-marking write barrier — the minor trace stops at old objects, so
/// an old→young edge outside the harvest would let the sweep free a
/// young object the program can still reach. (Harvest entries whose
/// children are all old are harmless: the trace skips old children.)
pub fn card_cover_violations(heap: &Heap) -> Vec<String> {
    let harvest: HashSet<_> = heap.remembered_from_cards().into_iter().collect();
    let is_old = |r| heap.has_flag(r, Flags::OLD).unwrap_or(false);
    let mut problems = Vec::new();
    for (r, obj) in heap.iter() {
        if !is_old(r) || harvest.contains(&r) {
            continue;
        }
        for (i, &child) in obj.refs().iter().enumerate() {
            if child.is_some() && heap.is_valid(child) && !is_old(child) {
                problems.push(format!(
                    "old {r:?}.{i} -> young {child:?}, but {r:?} is not on a dirty card"
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_heap::{ObjRef, SpaceKind};

    #[test]
    fn tricolor_flags_a_lost_edge() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let parent = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(parent, 0, child).unwrap();
        heap.set_flag(parent, Flags::MARK).unwrap();
        let problems = tricolor_violations(&heap);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("black-to-white"));
        heap.set_flag(child, Flags::MARK).unwrap();
        assert!(tricolor_violations(&heap).is_empty());
    }

    #[test]
    fn tricolor_ignores_null_fields_and_white_parents() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let parent = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(parent, 0, child).unwrap();
        heap.set_ref_field(parent, 0, ObjRef::NULL).unwrap();
        heap.set_flag(parent, Flags::MARK).unwrap();
        assert!(tricolor_violations(&heap).is_empty());
    }

    #[test]
    fn forwarding_totality_catches_both_directions() {
        let mut heap = Heap::with_space(SpaceKind::Semispace);
        let c = heap.register_class("T", &[]);
        let a = heap.alloc(c, 0, 0).unwrap();
        let b = heap.alloc(c, 0, 0).unwrap();
        heap.evac_begin();
        // Marked but not forwarded: the seeded-bug shape.
        heap.set_flag(a, Flags::MARK).unwrap();
        let problems = forwarding_totality_violations(&heap);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("no forwarding address"));
        // Forward it; now clean (b is unmarked and unforwarded).
        heap.evac_forward(a).unwrap();
        assert!(forwarding_totality_violations(&heap).is_empty());
        // Forwarded but never marked: the opposite corruption.
        heap.evac_forward(b).unwrap();
        let problems = forwarding_totality_violations(&heap);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("was forwarded"));
        heap.set_flag(b, Flags::MARK).unwrap();
        heap.evac_finish();
    }

    #[test]
    fn card_cover_fires_when_a_card_is_cleared_under_an_old_to_young_edge() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let old = heap.alloc(c, 1, 0).unwrap();
        let young = heap.alloc(c, 1, 0).unwrap();
        heap.set_flag(old, Flags::OLD).unwrap();
        heap.clear_cards();
        heap.set_ref_field(old, 0, young).unwrap();
        assert!(
            card_cover_violations(&heap).is_empty(),
            "the store dirtied the card"
        );
        heap.clear_cards();
        let problems = card_cover_violations(&heap);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("not on a dirty card"), "{problems:?}");
        // Promoting the child makes the edge old->old: nothing to cover.
        heap.set_flag(young, Flags::OLD).unwrap();
        assert!(card_cover_violations(&heap).is_empty());
    }
}
