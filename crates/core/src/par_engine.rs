//! Parallel collection orchestration for the VM.
//!
//! This module drives the work-stealing mark phase of `gca-collector`
//! ([`mark_parallel`]) with assertion-checking shard visitors, mirroring
//! the sequential [`AssertionEngine`] semantics:
//!
//! * **Per-object checks** (`assert-dead`, `assert-instances`, ownership
//!   crediting) ride on `visit_new`, which fires exactly once per object —
//!   for the worker that wins the atomic mark race — so the shard totals
//!   merge to the same values a sequential trace produces.
//! * **Per-edge checks** (`assert-unshared`) ride on `visit_marked`, which
//!   fires exactly once per extra edge.
//! * The **ownership pre-phase** (§2.5.2) parallelizes over the owner
//!   list: one barriered round scans from every owner's children at once
//!   (each work item carries its owner's table index as `ctx`), then
//!   deferred-ownee rounds run until the queue drains — preserving the
//!   paper's ownee-queue truncation — and held-back verdicts are resolved
//!   sequentially at the end, exactly like the sequential engine.
//! * **Violations** are accumulated per worker as lightweight candidates
//!   and merged deterministically (sorted by object slot index, then
//!   violation kind), with report-once de-duplication applied during the
//!   merge, so reports are reproducible run to run.
//! * **Paths**: workers record only each item's one-edge provenance;
//!   root-to-violation paths are reconstructed on demand at report time
//!   ([`reconstruct_path`]) for just the flagged objects — a deterministic
//!   BFS honouring the tracer's ownership truncation rules. A sequential
//!   trace may report a *different* valid path to the same violation (its
//!   path is discovery-order dependent); both identify the object and a
//!   real retaining path.
//!
//! One deliberate divergence: with *overlapping* owner regions (improper
//! use per the paper's disjointness restriction), the sequential engine's
//! `ImproperOwnership` verdicts depend on owner scan order and mark-time
//! truncation. The merge reproduces the sequential verdict for the
//! supported shape — ownees referenced directly by their owners — by
//! reporting a foreign-scan candidate only if that scan's table index
//! precedes the ownee's own crediting scan.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gca_collector::{
    mark_parallel, push_child_items, reconstruct_path, sweep_heap, CycleStats, HeapPath, NoHooks,
    NoParVisitor, ParVisitor, TraceHooks, Visit, WorkItem, CTX_NONE,
};
use gca_heap::{ClassId, Flags, Heap, HeapError, ObjRef};

use crate::config::Reaction;
use crate::engine::AssertionEngine;
use crate::ownership::OwnershipTable;
use crate::report::CheckCounters;
use crate::violation::{Violation, ViolationKind};

/// Which barriered sub-phase a shard visitor is running in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanMode {
    /// Direct owner scans (§2.5.2 phase 1); `ctx` = owner table index.
    Direct,
    /// Deferred-ownee rounds; `ctx` = owner table index.
    Deferred,
    /// Root scan (phase 2); `ctx` = [`CTX_NONE`].
    Root,
}

/// A provisional violation observation, cheap enough to record on the
/// marking fast path; converted to a [`Violation`] (with path
/// reconstruction) during the deterministic merge.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    /// Asserted-dead object found reachable.
    Dead { obj: ObjRef, ctx: u32 },
    /// Extra edge into an asserted-unshared object.
    Shared { obj: ObjRef, ctx: u32 },
    /// A direct owner scan reached a foreign ownee.
    Improper { obj: ObjRef, scanned: usize },
    /// A deferred round reached a foreign ownee; verdict resolved against
    /// the final `OWNED` state after the whole ownership phase.
    Pending { obj: ObjRef, ctx: u32 },
    /// The root scan reached an uncredited ownee.
    RootNotOwned { obj: ObjRef },
}

impl Candidate {
    fn obj(&self) -> ObjRef {
        match *self {
            Candidate::Dead { obj, .. }
            | Candidate::Shared { obj, .. }
            | Candidate::Improper { obj, .. }
            | Candidate::Pending { obj, .. }
            | Candidate::RootNotOwned { obj } => obj,
        }
    }

    /// Merge order within one object, chosen to match the sequential
    /// engine's chronological reporting (a first visit precedes any
    /// extra-edge visit, so `Dead`/`NotOwned` precede `Shared`).
    fn rank(&self) -> u8 {
        match self {
            Candidate::Dead { .. } => 0,
            Candidate::Improper { .. } => 1,
            Candidate::Pending { .. } => 2,
            Candidate::RootNotOwned { .. } => 3,
            Candidate::Shared { .. } => 4,
        }
    }
}

/// Per-worker assertion visitor; one shard per worker, merged after each
/// phase.
#[derive(Debug)]
struct ShardVisitor<'a> {
    ownership: &'a OwnershipTable,
    mode: ScanMode,
    /// Record incoming edges to asserted-dead objects (the `ForceTrue`
    /// reaction; like the sequential engine, only when path provenance is
    /// enabled).
    record_dead_edges: bool,
    counters: CheckCounters,
    instance_counts: HashMap<ClassId, u32>,
    deferred: Vec<(ObjRef, usize)>,
    dead_edges: Vec<(ObjRef, usize)>,
    candidates: Vec<Candidate>,
}

impl<'a> ShardVisitor<'a> {
    fn new(ownership: &'a OwnershipTable, mode: ScanMode, record_dead_edges: bool) -> Self {
        ShardVisitor {
            ownership,
            mode,
            record_dead_edges,
            counters: CheckCounters::default(),
            instance_counts: HashMap::new(),
            deferred: Vec::new(),
            dead_edges: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Ownership crediting with an atomic claim on the `OWNED` bit, so
    /// exactly one racing worker queues the deferred scan (the sequential
    /// engine's `!OWNED` guard, made into a single RMW).
    fn credit(&mut self, heap: &Heap, obj: ObjRef, current: usize) {
        let before = heap
            .fetch_set_flag(obj, Flags::OWNED)
            .expect("traced object is live");
        if !before.contains(Flags::OWNED) {
            self.deferred.push((obj, current));
        }
    }

    fn ownee_in_ownership_phase(&mut self, heap: &Heap, obj: ObjRef, item: &WorkItem) {
        let current = item.ctx as usize;
        if self.ownership.entry_contains(current, obj) {
            self.credit(heap, obj, current);
        } else if self.mode == ScanMode::Direct {
            self.candidates.push(Candidate::Improper {
                obj,
                scanned: current,
            });
        } else {
            self.candidates
                .push(Candidate::Pending { obj, ctx: item.ctx });
        }
    }
}

impl ParVisitor for ShardVisitor<'_> {
    fn visit_new(&mut self, heap: &Heap, obj: ObjRef, prev: Flags, item: &WorkItem) -> Visit {
        let class = heap.get(obj).expect("traced object is live").class();

        // assert-instances: count every traced object of a tracked class.
        if heap.registry().info(class).instance_limit.is_some() {
            *self.instance_counts.entry(class).or_insert(0) += 1;
            self.counters.tracked_instances_counted += 1;
        }

        // assert-dead: the object is reachable (this worker just marked it).
        if prev.contains(Flags::DEAD) {
            self.counters.dead_bits_seen += 1;
            self.candidates.push(Candidate::Dead { obj, ctx: item.ctx });
            if self.record_dead_edges {
                if let Some(edge) = item.parent_edge() {
                    self.dead_edges.push(edge);
                }
            }
        }

        match self.mode {
            ScanMode::Direct | ScanMode::Deferred => {
                if prev.contains(Flags::OWNEE) {
                    self.counters.ownees_checked += 1;
                    self.ownee_in_ownership_phase(heap, obj, item);
                    // Truncate: ownees stop the scan and are processed
                    // from the deferred queue.
                    return Visit::Skip;
                }
                if prev.contains(Flags::OWNER) {
                    return Visit::Skip;
                }
                Visit::Descend
            }
            ScanMode::Root => {
                // The ownership phase ran to completion behind a barrier,
                // so the OWNED bit in the mark-claim snapshot is final.
                if prev.contains(Flags::OWNEE) && !prev.contains(Flags::OWNED) {
                    self.candidates.push(Candidate::RootNotOwned { obj });
                }
                Visit::Descend
            }
        }
    }

    fn visit_marked(&mut self, heap: &Heap, obj: ObjRef, prev: Flags, item: &WorkItem) {
        // In the ownership phase an already-marked ownee may still need
        // crediting (another scan's edge marked it first); for foreign
        // ownees a candidate is recorded so the merge can reproduce the
        // scan-order-dependent sequential verdict even when a racing
        // worker claimed the mark bit first.
        if let ScanMode::Direct | ScanMode::Deferred = self.mode {
            if prev.contains(Flags::OWNEE) {
                self.ownee_in_ownership_phase(heap, obj, item);
            }
        }
        // assert-unshared: one candidate per extra incoming edge.
        if prev.contains(Flags::UNSHARED) {
            self.counters.unshared_bits_seen += 1;
            self.candidates
                .push(Candidate::Shared { obj, ctx: item.ctx });
        }
        if prev.contains(Flags::DEAD) && self.record_dead_edges {
            if let Some(edge) = item.parent_edge() {
                self.dead_edges.push(edge);
            }
        }
    }
}

/// Accumulators merged across all phases of one parallel collection.
#[derive(Debug, Default)]
struct PhaseAccum {
    candidates: Vec<Candidate>,
    instance_counts: HashMap<ClassId, u32>,
    counters: CheckCounters,
    dead_edges: Vec<(ObjRef, usize)>,
    objects_marked: u64,
    edges_traced: u64,
    /// Per-worker busy time summed element-wise over every barriered
    /// mark sub-phase of the cycle (ownership rounds plus the root scan).
    worker_busy: Vec<Duration>,
}

/// Result of one parallel cycle: the standard stats plus the per-worker
/// mark-loop busy profile consumed by telemetry.
#[derive(Debug)]
pub(crate) struct ParCycle {
    /// Standard per-cycle statistics (recorded into `GcStats` by the VM).
    pub cycle: CycleStats,
    /// Busy time per tracing worker across the cycle's parallel mark
    /// loops, indexed by worker.
    pub worker_mark: Vec<Duration>,
}

/// Runs one barriered mark sub-phase and folds the shard results into
/// `acc`, returning the merged deferred-ownee queue.
fn run_phase(
    heap: &Heap,
    ownership: &OwnershipTable,
    mode: ScanMode,
    seeds: Vec<WorkItem>,
    workers: usize,
    record_dead_edges: bool,
    acc: &mut PhaseAccum,
) -> Result<Vec<(ObjRef, usize)>, HeapError> {
    let mut shards: Vec<ShardVisitor<'_>> = (0..workers)
        .map(|_| ShardVisitor::new(ownership, mode, record_dead_edges))
        .collect();
    let stats = mark_parallel(heap, seeds, &mut shards)?;
    acc.objects_marked += stats.objects_marked;
    acc.edges_traced += stats.edges_traced;
    for (i, busy) in stats.worker_busy.into_iter().enumerate() {
        if acc.worker_busy.len() <= i {
            acc.worker_busy.push(Duration::ZERO);
        }
        acc.worker_busy[i] += busy;
    }

    let mut deferred = Vec::new();
    for shard in shards {
        acc.candidates.extend(shard.candidates);
        for (class, n) in shard.instance_counts {
            *acc.instance_counts.entry(class).or_insert(0) += n;
        }
        acc.counters.ownees_checked += shard.counters.ownees_checked;
        acc.counters.dead_bits_seen += shard.counters.dead_bits_seen;
        acc.counters.tracked_instances_counted += shard.counters.tracked_instances_counted;
        acc.counters.unshared_bits_seen += shard.counters.unshared_bits_seen;
        acc.dead_edges.extend(shard.dead_edges);
        deferred.extend(shard.deferred);
    }
    Ok(deferred)
}

/// Runs a full parallel collection cycle for an instrumented VM:
/// `gc_begin` → parallel ownership pre-phase → parallel root mark →
/// deterministic candidate merge → `trace_done` → sweep → `gc_end`.
///
/// The sequential engine's own hooks are reused for everything that is
/// not the mark itself (begin/trace_done/sweep/end), so reactions,
/// instance limits, ownership retirement and the strict-owner-lifetime
/// extension behave identically in both modes.
pub(crate) fn collect_parallel(
    engine: &mut AssertionEngine,
    heap: &mut Heap,
    roots: &[ObjRef],
    workers: usize,
) -> Result<ParCycle, HeapError> {
    let workers = workers.max(1);
    let cycle_start = Instant::now();
    TraceHooks::gc_begin(engine, heap);

    let record_dead_edges = engine.path_tracking && engine.lifetime_reaction == Reaction::ForceTrue;
    let mut acc = PhaseAccum::default();

    // ---- ownership pre-phase (§2.5.2), barriered sub-phases ----
    let t = Instant::now();
    if !engine.ownership.is_empty() {
        // Phase A: every direct owner scan at once. Seeds are the owners'
        // children — never the owners themselves, so a dead owner is
        // still collected this cycle.
        let mut seeds = Vec::new();
        for idx in 0..engine.ownership.len() {
            let owner = engine.ownership.owner_at(idx);
            debug_assert!(heap.is_valid(owner), "dead owners are retired at gc_end");
            acc.counters.owners_scanned += 1;
            acc.edges_traced += push_child_items(heap, owner, idx as u32, &mut seeds)?;
        }
        let mut deferred = run_phase(
            heap,
            &engine.ownership,
            ScanMode::Direct,
            seeds,
            workers,
            record_dead_edges,
            &mut acc,
        )?;
        // Phase B: deferred-ownee rounds until the queue drains ("resume
        // scanning below the queued ownees, still on behalf of their
        // owners"). Each round is a barrier so crediting from round N is
        // visible to round N+1.
        while !deferred.is_empty() {
            deferred.sort_unstable();
            let mut seeds = Vec::new();
            for &(ownee, idx) in &deferred {
                acc.counters.deferred_ownees_processed += 1;
                acc.edges_traced += push_child_items(heap, ownee, idx as u32, &mut seeds)?;
            }
            deferred = run_phase(
                heap,
                &engine.ownership,
                ScanMode::Deferred,
                seeds,
                workers,
                record_dead_edges,
                &mut acc,
            )?;
        }
    }
    let pre_root = t.elapsed();
    let pre_root_edges = acc.edges_traced;

    // ---- root phase ----
    let t = Instant::now();
    let seeds: Vec<WorkItem> = roots
        .iter()
        .filter(|r| r.is_some())
        .map(|&r| WorkItem::seed(r, CTX_NONE))
        .collect();
    let stray = run_phase(
        heap,
        &engine.ownership,
        ScanMode::Root,
        seeds,
        workers,
        record_dead_edges,
        &mut acc,
    )?;
    debug_assert!(stray.is_empty(), "root scans never credit ownees");
    let mark = t.elapsed();

    // ---- deterministic merge ----
    // Instance counts first, so trace_done sees the merged totals.
    for (&class, &n) in &acc.instance_counts {
        heap.registry_mut().info_mut(class).instance_count += n;
    }
    engine.counters = acc.counters;
    acc.dead_edges
        .sort_unstable_by_key(|&(p, f)| (p.index(), f));
    engine.dead_edges.extend(acc.dead_edges);
    merge_candidates(engine, heap, roots, acc.candidates);

    TraceHooks::trace_done(engine, heap);

    // Invariant module (debug builds): the parallel mark must leave no
    // black-to-white edge, same as the sequential tracer.
    #[cfg(debug_assertions)]
    {
        let problems = gca_collector::tricolor_violations(heap);
        assert!(problems.is_empty(), "tri-color at trace_done: {problems:?}");
    }

    let t = Instant::now();
    let (objects_swept, words_swept) = sweep_heap(heap, engine)?;
    let sweep = t.elapsed();

    let cycle = CycleStats {
        total: cycle_start.elapsed(),
        pre_root,
        mark,
        sweep,
        objects_marked: acc.objects_marked,
        edges_traced: acc.edges_traced,
        pre_root_edges,
        objects_swept,
        words_swept,
    };
    TraceHooks::gc_end(engine, heap, &cycle);
    Ok(ParCycle {
        cycle,
        worker_mark: acc.worker_busy,
    })
}

/// Converts merged candidates into [`Violation`]s, sorted by object slot
/// index (then kind) so the report is identical run to run, applying
/// report-once de-duplication and the ownership verdict rules.
fn merge_candidates(
    engine: &mut AssertionEngine,
    heap: &mut Heap,
    roots: &[ObjRef],
    mut candidates: Vec<Candidate>,
) {
    candidates.sort_by_key(|c| (c.obj().index(), c.rank()));

    let mut violations: Vec<Violation> = Vec::new();
    let mut i = 0;
    while i < candidates.len() {
        let obj = candidates[i].obj();
        let group_end = candidates[i..]
            .iter()
            .position(|c| c.obj() != obj)
            .map(|off| i + off)
            .unwrap_or(candidates.len());
        let group = &candidates[i..group_end];

        // -- assert-dead (at most one candidate: visit_new fires once) --
        if let Some(Candidate::Dead { ctx, .. }) =
            group.iter().find(|c| matches!(c, Candidate::Dead { .. }))
        {
            if engine.should_report(heap, obj) {
                let class_name = AssertionEngine::class_name(heap, obj);
                let path = violation_path(engine, heap, roots, obj, *ctx);
                violations.push(Violation {
                    kind: ViolationKind::DeadReachable {
                        object: obj,
                        class_name,
                    },
                    path,
                });
            }
        }

        // -- ownership verdict: at most one violation per ownee --
        let mut ownership_reported = false;
        let improper_scan = group
            .iter()
            .filter_map(|c| match c {
                Candidate::Improper { scanned, .. } => Some(*scanned),
                _ => None,
            })
            .min();
        if let Some(j) = improper_scan {
            // Reproduce the sequential scan-order verdict: the foreign
            // direct scan `j` reports only if it precedes the scan that
            // credits the ownee (its owner's direct scan, when the owner
            // references it directly; deferred crediting always comes
            // after every direct scan).
            let crediting_scan = engine
                .ownership
                .owner_of(obj)
                .filter(|&idx| {
                    heap.get(engine.ownership.owner_at(idx))
                        .map(|o| o.refs().contains(&obj))
                        .unwrap_or(false)
                })
                .unwrap_or(usize::MAX);
            if j < crediting_scan {
                ownership_reported = true;
                let scanned_owner = engine.ownership.owner_at(j);
                let path = violation_path(engine, heap, roots, obj, j as u32);
                violations.push(Violation {
                    kind: ViolationKind::ImproperOwnership {
                        ownee: obj,
                        ownee_class: AssertionEngine::class_name(heap, obj),
                        scanned_owner,
                        scanned_owner_class: AssertionEngine::class_name(heap, scanned_owner),
                    },
                    path,
                });
            }
        }
        if !ownership_reported {
            let pending_ctx = group
                .iter()
                .filter_map(|c| match c {
                    Candidate::Pending { ctx, .. } => Some(*ctx),
                    _ => None,
                })
                .min();
            let from_root = group
                .iter()
                .any(|c| matches!(c, Candidate::RootNotOwned { .. }));
            if pending_ctx.is_some() || from_root {
                // Held-back verdict (pending) resolves against the final
                // OWNED state; a root-scan sighting is already final.
                let owned = heap.has_flag(obj, Flags::OWNED).unwrap_or(false);
                if !owned && engine.should_report(heap, obj) {
                    let (owner, owner_class) = match engine.ownership.owner_of(obj) {
                        Some(idx) => {
                            let e = engine.ownership.entry(idx);
                            (e.owner, e.owner_class.clone())
                        }
                        None => (ObjRef::NULL, "<unknown>".to_owned()),
                    };
                    let ctx = pending_ctx.unwrap_or(CTX_NONE);
                    let path = violation_path(engine, heap, roots, obj, ctx);
                    violations.push(Violation {
                        kind: ViolationKind::NotOwned {
                            ownee: obj,
                            ownee_class: AssertionEngine::class_name(heap, obj),
                            owner,
                            owner_class,
                        },
                        path,
                    });
                }
            }
        }

        // -- assert-unshared: one violation per extra edge (multiplicity
        //    preserved; report-once naturally keeps only the first) --
        for c in group {
            if let Candidate::Shared { ctx, .. } = c {
                if engine.should_report(heap, obj) {
                    let class_name = AssertionEngine::class_name(heap, obj);
                    let path = violation_path(engine, heap, roots, obj, *ctx);
                    violations.push(Violation {
                        kind: ViolationKind::Shared {
                            object: obj,
                            class_name,
                        },
                        path,
                    });
                }
            }
        }

        i = group_end;
    }

    engine.violations.extend(violations);
}

/// Reconstructs the report path for a violation on `obj` found by scan
/// `ctx` ([`CTX_NONE`] = the root scan). Empty when path tracking is off,
/// matching the sequential engine.
fn violation_path(
    engine: &AssertionEngine,
    heap: &Heap,
    roots: &[ObjRef],
    obj: ObjRef,
    ctx: u32,
) -> HeapPath {
    if !engine.path_tracking {
        return HeapPath::empty();
    }
    if ctx == CTX_NONE {
        let starts: Vec<(ObjRef, Option<usize>)> = roots
            .iter()
            .filter(|r| r.is_some())
            .map(|&r| (r, None))
            .collect();
        return reconstruct_path(heap, &starts, obj, |_, _| true).unwrap_or_default();
    }
    // Ownership-phase path: starts at the scanned owner's children (the
    // sequential engine's paths also begin there — the owner itself is
    // never traced), truncating exactly where the scan truncates: at
    // other owners and at foreign ownees.
    let j = ctx as usize;
    let owner = engine.ownership.owner_at(j);
    let mut starts = Vec::new();
    if let Ok(o) = heap.get(owner) {
        for (i, &child) in o.refs().iter().enumerate() {
            if child.is_some() {
                starts.push((child, Some(i)));
            }
        }
    }
    let ownership = &engine.ownership;
    reconstruct_path(heap, &starts, obj, |h, o| {
        let flags = match h.flags_of(o) {
            Ok(flags) => flags,
            Err(_) => return false,
        };
        if flags.contains(Flags::OWNER) {
            return false;
        }
        if flags.contains(Flags::OWNEE) && !ownership.entry_contains(j, o) {
            return false;
        }
        true
    })
    .unwrap_or_default()
}

/// A full parallel cycle for the Base (uninstrumented) configuration:
/// plain parallel mark + sequential sweep, no hooks.
pub(crate) fn collect_parallel_base(
    heap: &mut Heap,
    roots: &[ObjRef],
    workers: usize,
) -> Result<ParCycle, HeapError> {
    let cycle_start = Instant::now();
    let t = Instant::now();
    let seeds: Vec<WorkItem> = roots
        .iter()
        .filter(|r| r.is_some())
        .map(|&r| WorkItem::seed(r, CTX_NONE))
        .collect();
    let mut visitors = vec![NoParVisitor; workers.max(1)];
    let stats = mark_parallel(heap, seeds, &mut visitors)?;
    let mark = t.elapsed();

    #[cfg(debug_assertions)]
    {
        let problems = gca_collector::tricolor_violations(heap);
        assert!(problems.is_empty(), "tri-color at trace_done: {problems:?}");
    }

    let t = Instant::now();
    let (objects_swept, words_swept) = sweep_heap(heap, &mut NoHooks)?;
    let sweep = t.elapsed();

    Ok(ParCycle {
        cycle: CycleStats {
            total: cycle_start.elapsed(),
            pre_root: Duration::ZERO,
            mark,
            sweep,
            objects_marked: stats.objects_marked,
            edges_traced: stats.edges_traced,
            pre_root_edges: 0,
            objects_swept,
            words_swept,
        },
        worker_mark: stats.worker_busy,
    })
}
