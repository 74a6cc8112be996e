//! Nursery (minor) collection for the generational mode.
//!
//! The paper notes (§2.2) that GC assertions work with any tracing
//! collector, but that a generational collector "performs full-heap
//! collections infrequently, allowing some assertions to go unchecked for
//! long periods of time". This module supplies the minor-collection
//! machinery that lets the VM demonstrate exactly that trade-off:
//!
//! * objects carry an [`Flags::OLD`] bit once they survive a collection;
//! * a minor collection traces only the *young* population, starting from
//!   the roots and from the remembered set (old objects that may have
//!   acquired references to young objects — the VM harvests it from the
//!   card table its write barrier dirties), treating every old object as
//!   immortal;
//! * young survivors are promoted (their `OLD` bit is set);
//! * **no assertions are checked** — only the [`TraceHooks::swept`] hook
//!   runs, so engine metadata for reclaimed objects can be retired.

use std::time::{Duration, Instant};

use gca_heap::{Flags, Heap, HeapError, ObjRef};

use crate::hooks::TraceHooks;
use crate::tracer::{TraceCtx, Tracer};
use crate::Visit;

/// Statistics for one minor collection.
///
/// Minor cycles report the same trace counters as full collections
/// (`objects_marked`, `edges_traced`), so telemetry records for the two
/// cycle kinds are directly comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinorStats {
    /// Wall time of the cycle.
    pub total: Duration,
    /// Young objects that survived and were promoted.
    pub promoted: u64,
    /// Young objects reclaimed.
    pub objects_swept: u64,
    /// Words reclaimed.
    pub words_swept: u64,
    /// Remembered-set entries scanned.
    pub remembered_scanned: u64,
    /// Objects marked by the minor trace. Includes old objects the trace
    /// touched and stopped at (their mark is claimed before the visit
    /// decides to skip), so this can exceed `promoted`.
    pub objects_marked: u64,
    /// Reference edges traversed by the minor trace, including the
    /// remembered-set field scans.
    pub edges_traced: u64,
}

/// Hooks used internally by the minor trace: stop at old objects and
/// record which of them were touched so their mark bits can be cleared.
struct MinorHooks {
    touched_old: Vec<ObjRef>,
}

impl TraceHooks for MinorHooks {
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, _ctx: &TraceCtx<'_>) -> Visit {
        if heap.has_flag(obj, Flags::OLD).unwrap_or(false) {
            // Old objects are immortal for a minor collection; any young
            // objects they reference are covered by the remembered set.
            self.touched_old.push(obj);
            return Visit::Skip;
        }
        Visit::Descend
    }
}

/// Runs a minor collection.
///
/// `roots` is the usual stop-the-world root snapshot; `remembered` lists
/// the old objects that may reference young ones (the card harvest);
/// `young` is the list of objects allocated since the previous collection
/// (entries whose object already died are tolerated and skipped). Young
/// survivors are promoted in place (non-moving nursery). `hooks` receives
/// **only** `swept` calls.
///
/// Returns the statistics; the caller is responsible for clearing its
/// young list and card table afterwards.
///
/// # Errors
///
/// Tracing errors, which indicate a broken collector invariant.
pub fn collect_minor<H: TraceHooks>(
    tracer: &mut Tracer,
    heap: &mut Heap,
    roots: &[ObjRef],
    remembered: &[ObjRef],
    young: &[ObjRef],
    hooks: &mut H,
) -> Result<MinorStats, HeapError> {
    let start = Instant::now();
    let mut stats = MinorStats::default();

    tracer.set_path_mode(false);
    tracer.begin_cycle();
    for &r in roots {
        tracer.push_root(r);
    }
    for &r in remembered {
        if heap.is_valid(r) {
            stats.remembered_scanned += 1;
            // Scan the old object's fields without visiting the object
            // itself (it stays unmarked — old objects are not collected
            // here, and leaving it unmarked avoids a cleanup pass).
            tracer.push_children_of(heap, r)?;
        }
    }
    let mut minor_hooks = MinorHooks {
        touched_old: Vec::new(),
    };
    tracer.drain(heap, &mut minor_hooks)?;
    stats.objects_marked = tracer.objects_marked();
    stats.edges_traced = tracer.edges_traced();

    // Sweep the young population only.
    for &y in young {
        if !heap.is_valid(y) {
            continue; // already reclaimed (e.g. duplicate entry)
        }
        let marked = heap.has_flag(y, Flags::MARK)?;
        if marked {
            heap.clear_flag(y, Flags::PER_GC)?;
            heap.set_flag(y, Flags::OLD)?;
            stats.promoted += 1;
        } else if heap.has_flag(y, Flags::OLD)? {
            // Already promoted by an earlier entry (duplicates) — skip.
            continue;
        } else {
            hooks.swept(heap, y);
            stats.words_swept += heap.free(y)? as u64;
            stats.objects_swept += 1;
        }
    }

    // Clear the marks the trace left on touched old objects.
    for o in minor_hooks.touched_old {
        if heap.is_valid(o) {
            heap.clear_flag(o, Flags::PER_GC)?;
        }
    }

    stats.total = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;

    fn setup() -> (Heap, Tracer) {
        let mut heap = Heap::new();
        heap.register_class("T", &["a", "b"]);
        (heap, Tracer::new())
    }

    fn alloc(heap: &mut Heap) -> ObjRef {
        let c = heap.registry().lookup("T").unwrap();
        heap.alloc(c, 2, 0).unwrap()
    }

    #[test]
    fn unreachable_young_die_reachable_promote() {
        let (mut heap, mut tracer) = setup();
        let root = alloc(&mut heap);
        let kept = alloc(&mut heap);
        let dead = alloc(&mut heap);
        heap.set_ref_field(root, 0, kept).unwrap();
        let young = vec![root, kept, dead];
        let stats =
            collect_minor(&mut tracer, &mut heap, &[root], &[], &young, &mut NoHooks).unwrap();
        assert_eq!(stats.promoted, 2);
        assert_eq!(stats.objects_swept, 1);
        assert!(!heap.is_valid(dead));
        assert!(heap.has_flag(root, Flags::OLD).unwrap());
        assert!(heap.has_flag(kept, Flags::OLD).unwrap());
        assert!(!heap.has_flag(root, Flags::MARK).unwrap());
    }

    #[test]
    fn old_objects_are_immortal_in_minor() {
        let (mut heap, mut tracer) = setup();
        let old_garbage = alloc(&mut heap);
        heap.set_flag(old_garbage, Flags::OLD).unwrap();
        let stats = collect_minor(&mut tracer, &mut heap, &[], &[], &[], &mut NoHooks).unwrap();
        assert_eq!(stats.objects_swept, 0);
        assert!(heap.is_valid(old_garbage), "old garbage waits for a major");
    }

    #[test]
    fn remembered_set_keeps_young_alive() {
        let (mut heap, mut tracer) = setup();
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        let young = alloc(&mut heap);
        heap.set_ref_field(old, 0, young).unwrap();
        // `old` is not a root here (it is simply assumed live).
        let stats =
            collect_minor(&mut tracer, &mut heap, &[], &[old], &[young], &mut NoHooks).unwrap();
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.remembered_scanned, 1);
        assert!(heap.is_valid(young));
        assert!(heap.has_flag(young, Flags::OLD).unwrap());
        assert!(!heap.has_flag(old, Flags::MARK).unwrap());
    }

    #[test]
    fn young_without_remembered_edge_dies() {
        // The failure mode the write barrier exists to prevent: an
        // old->young edge NOT in the remembered set loses the young
        // object. This pins the invariant the VM's barrier maintains.
        let (mut heap, mut tracer) = setup();
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        let young = alloc(&mut heap);
        heap.set_ref_field(old, 0, young).unwrap();
        collect_minor(&mut tracer, &mut heap, &[], &[], &[young], &mut NoHooks).unwrap();
        assert!(!heap.is_valid(young), "no barrier entry, no survival");
    }

    #[test]
    fn trace_stops_at_old_objects() {
        // young root -> old -> young2: young2 must survive only through
        // the remembered set, not through the scan of the old object.
        let (mut heap, mut tracer) = setup();
        let root = alloc(&mut heap);
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        let young2 = alloc(&mut heap);
        heap.set_ref_field(root, 0, old).unwrap();
        heap.set_ref_field(old, 0, young2).unwrap();
        let young = vec![root, young2];
        collect_minor(&mut tracer, &mut heap, &[root], &[], &young, &mut NoHooks).unwrap();
        // Without a remembered entry for `old`, young2 is (incorrectly
        // from the program's view, correctly from the collector's
        // contract) reclaimed — the barrier is the VM's responsibility.
        assert!(!heap.is_valid(young2));
        assert!(heap.is_valid(root));
        assert!(
            !heap.has_flag(old, Flags::MARK).unwrap(),
            "touched old cleaned"
        );
    }

    #[test]
    fn minor_reports_trace_counters() {
        let (mut heap, mut tracer) = setup();
        let root = alloc(&mut heap);
        let kept = alloc(&mut heap);
        let dead = alloc(&mut heap);
        heap.set_ref_field(root, 0, kept).unwrap();
        let young = vec![root, kept, dead];
        let stats =
            collect_minor(&mut tracer, &mut heap, &[root], &[], &young, &mut NoHooks).unwrap();
        assert_eq!(stats.objects_marked, 2, "root and kept");
        assert_eq!(stats.edges_traced, 1, "the root->kept edge");
    }

    #[test]
    fn minor_counts_touched_old_as_marked() {
        // root -> old: the trace claims old's mark before skipping it, so
        // objects_marked counts it (documented on MinorStats).
        let (mut heap, mut tracer) = setup();
        let root = alloc(&mut heap);
        let old = alloc(&mut heap);
        heap.set_flag(old, Flags::OLD).unwrap();
        heap.set_ref_field(root, 0, old).unwrap();
        let stats =
            collect_minor(&mut tracer, &mut heap, &[root], &[], &[root], &mut NoHooks).unwrap();
        assert_eq!(stats.objects_marked, 2);
        assert_eq!(stats.promoted, 1);
    }

    #[test]
    fn swept_hook_fires_for_minor_victims() {
        struct Recorder(Vec<ObjRef>);
        impl TraceHooks for Recorder {
            fn swept(&mut self, _heap: &Heap, obj: ObjRef) {
                self.0.push(obj);
            }
        }
        let (mut heap, mut tracer) = setup();
        let dead = alloc(&mut heap);
        let mut rec = Recorder(Vec::new());
        collect_minor(&mut tracer, &mut heap, &[], &[], &[dead], &mut rec).unwrap();
        assert_eq!(rec.0, vec![dead]);
    }
}
