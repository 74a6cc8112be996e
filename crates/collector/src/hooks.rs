//! The trace-hook interface that assertion checking piggybacks on.

use gca_heap::{Heap, HeapError, ObjRef};

use crate::stats::CycleStats;
use crate::tracer::{TraceCtx, Tracer};

/// What the tracer should do after a hook has seen a newly marked object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Scan the object's reference fields (normal tracing).
    Descend,
    /// Do not scan the object's fields now. The ownership phase uses this
    /// to truncate scanning at ownee objects (§2.5.2) so collections are
    /// "essentially truncated when their leaves are reached".
    Skip,
}

/// Observation points a collection cycle offers to an attached checker.
///
/// The paper's whole design is that assertion checks ride along with work
/// the collector does anyway; every method here corresponds to one such
/// piggyback point. The default implementations do nothing, so a hooks
/// object only pays for what it overrides — and [`NoHooks`] (the Base
/// configuration) monomorphizes to the unmodified collector.
///
/// Hook order within [`crate::Collector::collect`]:
///
/// 1. [`TraceHooks::gc_begin`]
/// 2. [`TraceHooks::pre_root_phase`] — may drive the [`Tracer`] itself
///    (ownership phase)
/// 3. root scan + transitive marking (an evacuation on a semispace heap),
///    calling [`TraceHooks::visit_new`] on each first visit and
///    [`TraceHooks::visit_marked`] on each re-visit
/// 4. [`TraceHooks::trace_done`]
/// 5. sweep, calling [`TraceHooks::swept`] for each reclaimed object
/// 6. [`TraceHooks::gc_end`]
pub trait TraceHooks {
    /// If `true`, the collector uses the path-tracking worklist (§2.7) so
    /// [`TraceCtx::current_path`] can reconstruct root-to-object paths.
    /// Costs one extra worklist push per scanned object.
    fn wants_paths(&self) -> bool {
        false
    }

    /// Called before anything else in the cycle.
    fn gc_begin(&mut self, heap: &mut Heap) {
        let _ = heap;
    }

    /// Called after `gc_begin`, before the root scan, with a tracer ready
    /// to be driven. The assertion engine runs the `assert-ownedby`
    /// ownership phase here.
    ///
    /// # Errors
    ///
    /// Propagates heap errors from tracing (collector-internal invariant
    /// violations).
    fn pre_root_phase(&mut self, heap: &mut Heap, tracer: &mut Tracer) -> Result<(), HeapError> {
        let _ = (heap, tracer);
        Ok(())
    }

    /// Called when the tracer marks `obj` for the first time this cycle.
    /// The object's header has already been read and written (mark bit), so
    /// per the paper the extra flag checks here are effectively free.
    fn visit_new(&mut self, heap: &mut Heap, obj: ObjRef, ctx: &TraceCtx<'_>) -> Visit {
        let _ = (heap, obj, ctx);
        Visit::Descend
    }

    /// Called when the tracer encounters `obj` through an edge but finds it
    /// already marked — the second (or later) incoming pointer, which is
    /// where `assert-unshared` fires.
    fn visit_marked(&mut self, heap: &mut Heap, obj: ObjRef, ctx: &TraceCtx<'_>) {
        let _ = (heap, obj, ctx);
    }

    /// Called when marking has finished, before the sweep. Volume
    /// assertions check their accumulated counts here.
    fn trace_done(&mut self, heap: &mut Heap) {
        let _ = heap;
    }

    /// Called for each unreachable object just before it is freed. The
    /// engine uses this to retire metadata for dying owners/ownees.
    fn swept(&mut self, heap: &Heap, obj: ObjRef) {
        let _ = (heap, obj);
    }

    /// Called when the cycle is complete.
    fn gc_end(&mut self, heap: &mut Heap, cycle: &CycleStats) {
        let _ = (heap, cycle);
    }
}

/// The no-op hooks object: the **Base** configuration of the paper's
/// evaluation — a collector with no assertion infrastructure compiled in.
///
/// # Example
///
/// ```
/// use gca_collector::{Collector, NoHooks};
/// use gca_heap::Heap;
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("T", &[]);
/// let root = heap.alloc(c, 0, 0)?;
/// Collector::new().collect(&mut heap, &[root], &mut NoHooks)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl TraceHooks for NoHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hooks_defaults() {
        let mut h = NoHooks;
        assert!(!h.wants_paths());
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let o = heap.alloc(c, 0, 0).unwrap();
        // Default hook bodies are callable no-ops.
        h.gc_begin(&mut heap);
        assert_eq!(
            h.visit_new(&mut heap, o, &TraceCtx::no_paths()),
            Visit::Descend
        );
        h.visit_marked(&mut heap, o, &TraceCtx::no_paths());
        h.trace_done(&mut heap);
        h.swept(&heap, o);
        h.gc_end(&mut heap, &CycleStats::default());
    }
}
