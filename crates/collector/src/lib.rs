//! # gca-collector — full-heap collector with trace hooks
//!
//! The tracing collector for the GC-assertions reproduction (Aftandilian
//! & Guyer, PLDI 2009). The paper implements its assertions by
//! *piggybacking on the normal GC tracing process*; this crate provides the
//! piggyback points:
//!
//! * [`Collector::collect`] runs one full collection cycle over a
//!   [`gca_heap::Heap`], generic over a [`TraceHooks`] implementation. The
//!   cycle is written once; its mark step follows the heap's space: a
//!   depth-first mark on the paged heap (mark-sweep), a Cheney evacuation
//!   on the semispace heap (copying), with the same hook schedule.
//! * [`NoHooks`] compiles every hook away — this is the paper's **Base**
//!   configuration (an unmodified collector).
//! * A hooks object that returns `true` from [`TraceHooks::wants_paths`]
//!   switches the tracer to the **path-tracking worklist** of §2.7: gray
//!   objects are kept on the worklist with an *on-path* tag (the paper
//!   steals a low-order pointer bit), so at any moment the tagged suffix of
//!   the worklist is the exact root-to-current-object path. Violation
//!   reports read it via [`TraceCtx::current_path`].
//! * Hooks can run a *pre-root phase* ([`TraceHooks::pre_root_phase`]) that
//!   drives the [`Tracer`] directly — this is how the assertion engine
//!   implements the `assert-ownedby` ownership phase, which must trace from
//!   owner objects **before** the root scan (§2.5.2).
//! * [`mark_parallel`] is the work-stealing **parallel mark phase**: N
//!   workers with private mark stacks and [`StealDeque`]s race to claim
//!   mark bits with an atomic RMW, calling a per-worker [`ParVisitor`]
//!   shard exactly once per object (`visit_new`) and once per extra edge
//!   (`visit_marked`). Paths are not tracked on the fly; the caller
//!   reconstructs them for flagged objects with [`reconstruct_path`].
//!
//! # Example
//!
//! ```
//! use gca_collector::{Collector, NoHooks};
//! use gca_heap::Heap;
//!
//! # fn main() -> Result<(), gca_heap::HeapError> {
//! let mut heap = Heap::new();
//! let c = heap.register_class("Node", &["next"]);
//! let a = heap.alloc(c, 1, 0)?;
//! let b = heap.alloc(c, 1, 0)?;
//! let dead = heap.alloc(c, 1, 0)?;
//! heap.set_ref_field(a, 0, b)?;
//!
//! let mut gc = Collector::new();
//! let cycle = gc.collect(&mut heap, &[a], &mut NoHooks)?;
//! assert_eq!(cycle.objects_swept, 1); // only `dead` was unreachable
//! assert!(heap.is_valid(b));
//! assert!(!heap.is_valid(dead));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collector;
mod copying;
mod deque;
mod hooks;
mod invariants;
mod minor;
mod parallel;
mod path;
#[doc(hidden)]
pub mod sabotage;
mod stats;
mod tracer;

pub use collector::{sweep_heap, Collector};
pub use deque::StealDeque;
pub use hooks::{NoHooks, TraceHooks, Visit};
pub use invariants::{card_cover_violations, forwarding_totality_violations, tricolor_violations};
pub use minor::{collect_minor, MinorStats};
pub use parallel::{
    mark_parallel, push_child_items, reconstruct_path, NoParVisitor, ParMarkStats, ParVisitor,
    WorkItem, CTX_NONE,
};
pub use path::{HeapPath, PathDisplay, PathStep};
pub use stats::{CycleStats, GcStats};
pub use tracer::{Provenance, TraceCtx, Tracer};
