//! Collection-cycle orchestration: pre-root phase, mark, sweep, timing.

use std::time::Instant;

use gca_heap::{Flags, Heap, HeapError, ObjRef, SpaceKind};

use crate::hooks::TraceHooks;
use crate::stats::{CycleStats, GcStats};
use crate::tracer::{Provenance, Tracer};

/// A full-heap tracing collector: mark-sweep on a paged heap, semispace
/// copying on a semispace heap.
///
/// The paper uses Jikes RVM's MarkSweep plan because it is a *full-heap*
/// collector that checks every assertion at every collection (§2.2); this
/// is the Rust analogue. The cycle is written once: only the mark step
/// depends on the heap's [`SpaceKind`] — the depth-first [`Tracer`] on
/// [`SpaceKind::Paged`], a Cheney evacuation on [`SpaceKind::Semispace`]
/// (see the `copying` module). The collector owns a reusable [`Tracer`],
/// the Cheney scan's [`Provenance`] table and cumulative [`GcStats`].
///
/// # Example
///
/// ```
/// use gca_collector::{Collector, NoHooks};
/// use gca_heap::Heap;
///
/// # fn main() -> Result<(), gca_heap::HeapError> {
/// let mut heap = Heap::new();
/// let c = heap.register_class("T", &["f"]);
/// let root = heap.alloc(c, 1, 0)?;
/// let garbage = heap.alloc(c, 1, 0)?;
/// let mut gc = Collector::new();
/// let cycle = gc.collect(&mut heap, &[root], &mut NoHooks)?;
/// assert_eq!(cycle.objects_marked, 1);
/// assert_eq!(cycle.objects_swept, 1);
/// assert!(!heap.is_valid(garbage));
/// assert_eq!(gc.stats().collections, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Collector {
    tracer: Tracer,
    /// First-arrival edges of the Cheney scan, for path reconstruction on
    /// semispace heaps.
    prov: Provenance,
    stats: GcStats,
}

impl Collector {
    /// Creates a collector with zeroed statistics.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Cumulative statistics across all collections.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Zeroes the cumulative statistics (used between benchmark
    /// iterations).
    pub fn reset_stats(&mut self) {
        self.stats = GcStats::new();
    }

    /// Runs one full collection cycle: `gc_begin`, the hooks' pre-root
    /// phase, root scan + transitive mark, `trace_done`, sweep, `gc_end`.
    ///
    /// `roots` is the stop-the-world snapshot of all thread stacks and
    /// global variables. Unreachable objects are freed; survivors have
    /// their per-GC flags ([`Flags::PER_GC`]) cleared for the next cycle.
    ///
    /// On a semispace heap the mark step evacuates every survivor to the
    /// to-space in breadth-first order and the spaces flip after the
    /// sweep. The hook schedule is the same call for call; only the
    /// traversal order differs. Handles are relocation-stable:
    ///
    /// ```
    /// use gca_collector::{Collector, NoHooks};
    /// use gca_heap::{Heap, SpaceKind};
    ///
    /// # fn main() -> Result<(), gca_heap::HeapError> {
    /// let mut heap = Heap::with_space(SpaceKind::Semispace);
    /// let c = heap.register_class("Node", &["next"]);
    /// let a = heap.alloc(c, 1, 0)?;
    /// let b = heap.alloc(c, 1, 0)?;
    /// let dead = heap.alloc(c, 1, 0)?;
    /// heap.set_ref_field(a, 0, b)?;
    ///
    /// let cycle = Collector::new().collect(&mut heap, &[a], &mut NoHooks)?;
    /// assert_eq!(cycle.objects_swept, 1); // only `dead` was unreachable
    /// assert!(heap.is_valid(b));
    /// assert_eq!(heap.space().flips(), 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates reference-validity errors from tracing, which indicate a
    /// broken collector invariant (e.g. a caller-supplied stale root).
    pub fn collect<H: TraceHooks>(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjRef],
        hooks: &mut H,
    ) -> Result<CycleStats, HeapError> {
        let cycle_start = Instant::now();
        hooks.gc_begin(heap);

        let path_mode = hooks.wants_paths();
        self.tracer.set_path_mode(path_mode);
        self.tracer.begin_cycle();

        let t = Instant::now();
        hooks.pre_root_phase(heap, &mut self.tracer)?;
        let pre_root = t.elapsed();
        let pre_root_edges = self.tracer.edges_traced();

        let copying = heap.space_kind() == SpaceKind::Semispace;
        let t = Instant::now();
        let (scan_marked, scan_edges) = if copying {
            let prov = path_mode.then_some(&mut self.prov);
            crate::copying::evacuate(heap, roots, hooks, prov)?
        } else {
            for &r in roots {
                self.tracer.push_root(r);
            }
            self.tracer.drain(heap, hooks)?;
            (0, 0)
        };
        let mark = t.elapsed();

        hooks.trace_done(heap);

        // Invariant modules (debug builds and the `mcheck` profile): the
        // transitive mark is complete, so no black-to-white edge may
        // exist — the sweep is about to free everything unmarked. On a
        // semispace heap the evacuation is still open, so every survivor
        // and only the survivors must have a forwarding address.
        #[cfg(debug_assertions)]
        {
            let problems = crate::invariants::tricolor_violations(heap);
            assert!(problems.is_empty(), "tri-color at trace_done: {problems:?}");
            if copying {
                let problems = crate::invariants::forwarding_totality_violations(heap);
                assert!(
                    problems.is_empty(),
                    "forwarding totality at trace_done: {problems:?}"
                );
            }
        }

        // On a semispace heap the unmarked objects are the ones never
        // evacuated; freeing their slots models their abandonment in
        // from-space, so reclamation is the same sweep either way.
        let t = Instant::now();
        let (objects_swept, words_swept) = sweep_heap(heap, hooks)?;
        let sweep_time = t.elapsed();

        if copying {
            crate::copying::flip(heap);
        }

        let cycle = CycleStats {
            total: cycle_start.elapsed(),
            pre_root,
            mark,
            sweep: sweep_time,
            objects_marked: self.tracer.objects_marked() + scan_marked,
            edges_traced: self.tracer.edges_traced() + scan_edges,
            pre_root_edges,
            objects_swept,
            words_swept,
        };
        hooks.gc_end(heap, &cycle);
        self.stats.absorb(&cycle);
        Ok(cycle)
    }

    /// Folds an externally-orchestrated cycle (e.g. a parallel-mark cycle
    /// driven by [`crate::mark_parallel`]) into the cumulative statistics.
    pub fn record_cycle(&mut self, cycle: &CycleStats) {
        self.stats.absorb(cycle);
    }
}

/// Sweeps the heap: frees every unmarked object (calling
/// [`TraceHooks::swept`] first) and clears the per-GC flags of survivors.
/// Returns `(objects_swept, words_swept)`.
///
/// Public so that callers orchestrating their own mark phase (the parallel
/// collector in `gc-assertions`) can reuse the identical sweep.
///
/// # Errors
///
/// Propagates heap errors, which indicate a broken collector invariant.
pub fn sweep_heap<H: TraceHooks>(heap: &mut Heap, hooks: &mut H) -> Result<(u64, u64), HeapError> {
    let mut objects = 0u64;
    let mut words = 0u64;
    for pid in 0..heap.page_count() {
        // One bitmap word per page decides the page's fate: dead slots are
        // live-but-unmarked; survivors get their PER_GC planes cleared in
        // a single word-wise operation.
        let meta = heap.page_meta(pid);
        let live = meta.live_mask();
        let survivors = live & meta.flag_word(Flags::MARK);
        let mut dead = live & !survivors;
        while dead != 0 {
            let slot = dead.trailing_zeros() as usize;
            dead &= dead - 1;
            let r = heap
                .page_meta(pid)
                .handle(slot)
                .expect("live bitmap slot must hold an object");
            hooks.swept(heap, r);
            words += heap.free(r)? as u64;
            objects += 1;
        }
        heap.clear_flag_word(pid, Flags::PER_GC, survivors);
    }
    Ok((objects, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::tracer::TraceCtx;
    use crate::Visit;

    #[test]
    fn unreachable_objects_are_reclaimed() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        let dead1 = heap.alloc(c, 1, 0).unwrap();
        let dead2 = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        heap.set_ref_field(dead1, 0, dead2).unwrap(); // garbage cycle feeder

        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 2);
        assert_eq!(cycle.objects_swept, 2);
        assert!(heap.is_valid(root));
        assert!(heap.is_valid(kept));
        assert!(!heap.is_valid(dead1));
        assert!(!heap.is_valid(dead2));
    }

    #[test]
    fn garbage_cycles_are_collected() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let a = heap.alloc(c, 1, 0).unwrap();
        let b = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(a, 0, b).unwrap();
        heap.set_ref_field(b, 0, a).unwrap();
        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_swept, 2);
        assert_eq!(heap.live_objects(), 0);
    }

    #[test]
    fn survivors_have_per_gc_flags_cleared() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(root, Flags::OWNED).unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert!(!heap.has_flag(root, Flags::MARK).unwrap());
        assert!(!heap.has_flag(root, Flags::OWNED).unwrap());
    }

    #[test]
    fn sticky_flags_survive_collection() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        heap.set_flag(root, Flags::DEAD | Flags::UNSHARED | Flags::OWNEE)
            .unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert!(heap
            .has_flag(root, Flags::DEAD | Flags::UNSHARED | Flags::OWNEE)
            .unwrap());
    }

    #[test]
    fn repeated_collections_are_stable() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let root = heap.alloc(c, 1, 0).unwrap();
        let kept = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(root, 0, kept).unwrap();
        let mut gc = Collector::new();
        for _ in 0..5 {
            let cycle = gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
            assert_eq!(cycle.objects_marked, 2);
            assert_eq!(cycle.objects_swept, 0);
        }
        assert_eq!(gc.stats().collections, 5);
        assert_eq!(gc.stats().objects_marked, 10);
    }

    /// Pre-root-phase hooks that mark one object in advance, simulating the
    /// ownership phase keeping owner-reachable objects alive.
    struct Premarker {
        target: ObjRef,
    }

    impl TraceHooks for Premarker {
        fn pre_root_phase(
            &mut self,
            heap: &mut Heap,
            tracer: &mut Tracer,
        ) -> Result<(), HeapError> {
            tracer.push_children_of(heap, self.target)?;
            tracer.drain(heap, &mut NoHooks)?;
            Ok(())
        }
    }

    #[test]
    fn pre_root_phase_marks_survive_even_if_unrooted() {
        // unrooted -> child. The pre-root phase scans from `unrooted`, so
        // `child` is marked and survives one extra GC (floating garbage,
        // exactly the paper's §2.5.2 trade-off), while `unrooted` itself is
        // collected because nothing marks it.
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["f"]);
        let unrooted = heap.alloc(c, 1, 0).unwrap();
        let child = heap.alloc(c, 1, 0).unwrap();
        heap.set_ref_field(unrooted, 0, child).unwrap();
        let mut gc = Collector::new();
        let mut hooks = Premarker { target: unrooted };
        let cycle = gc.collect(&mut heap, &[], &mut hooks).unwrap();
        assert!(!heap.is_valid(unrooted));
        assert!(heap.is_valid(child));
        assert_eq!(cycle.pre_root_edges, 1, "the unrooted->child edge");
        // Next collection reclaims the floating garbage.
        gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert!(!heap.is_valid(child));
    }

    /// Hooks that count visits and sweeps.
    #[derive(Default)]
    struct Counter {
        new: u64,
        marked: u64,
        swept: u64,
        begun: u64,
        ended: u64,
        traced: u64,
    }

    impl TraceHooks for Counter {
        fn gc_begin(&mut self, _heap: &mut Heap) {
            self.begun += 1;
        }
        fn visit_new(&mut self, _h: &mut Heap, _o: ObjRef, _c: &TraceCtx<'_>) -> Visit {
            self.new += 1;
            Visit::Descend
        }
        fn visit_marked(&mut self, _h: &mut Heap, _o: ObjRef, _c: &TraceCtx<'_>) {
            self.marked += 1;
        }
        fn trace_done(&mut self, _heap: &mut Heap) {
            self.traced += 1;
        }
        fn swept(&mut self, _heap: &Heap, _obj: ObjRef) {
            self.swept += 1;
        }
        fn gc_end(&mut self, _heap: &mut Heap, _cycle: &CycleStats) {
            self.ended += 1;
        }
    }

    #[test]
    fn hooks_fire_in_expected_quantities() {
        // diamond: root -> {l, r} -> shared ; plus one garbage object.
        let mut heap = Heap::new();
        let c = heap.register_class("T", &["a", "b"]);
        let root = heap.alloc(c, 2, 0).unwrap();
        let l = heap.alloc(c, 2, 0).unwrap();
        let r = heap.alloc(c, 2, 0).unwrap();
        let shared = heap.alloc(c, 2, 0).unwrap();
        let _garbage = heap.alloc(c, 2, 0).unwrap();
        heap.set_ref_field(root, 0, l).unwrap();
        heap.set_ref_field(root, 1, r).unwrap();
        heap.set_ref_field(l, 0, shared).unwrap();
        heap.set_ref_field(r, 0, shared).unwrap();

        let mut gc = Collector::new();
        let mut counter = Counter::default();
        let cycle = gc.collect(&mut heap, &[root], &mut counter).unwrap();
        assert_eq!(counter.new, 4);
        assert_eq!(counter.marked, 1); // shared revisited once
        assert_eq!(counter.swept, 1);
        assert_eq!(counter.begun, 1);
        assert_eq!(counter.ended, 1);
        assert_eq!(counter.traced, 1);
        assert_eq!(cycle.edges_traced, 4);
    }

    #[test]
    fn empty_heap_collects_cleanly() {
        let mut heap = Heap::new();
        let mut gc = Collector::new();
        let cycle = gc.collect(&mut heap, &[], &mut NoHooks).unwrap();
        assert_eq!(cycle.objects_marked, 0);
        assert_eq!(cycle.objects_swept, 0);
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut heap = Heap::new();
        let c = heap.register_class("T", &[]);
        let root = heap.alloc(c, 0, 0).unwrap();
        let mut gc = Collector::new();
        gc.collect(&mut heap, &[root], &mut NoHooks).unwrap();
        assert_eq!(gc.stats().collections, 1);
        gc.reset_stats();
        assert_eq!(gc.stats().collections, 0);
    }
}
