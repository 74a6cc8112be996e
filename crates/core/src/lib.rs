//! # gc-assertions — use the garbage collector to check heap properties
//!
//! A from-scratch Rust reproduction of
//! *GC Assertions: Using the Garbage Collector to Check Heap Properties*
//! (Edward E. Aftandilian and Samuel Z. Guyer, PLDI 2009).
//!
//! GC assertions let a program state expectations about heap structure and
//! object lifetime — properties no other subsystem can observe — and have
//! them checked *for free* during the garbage collector's normal trace:
//!
//! * [`Vm::assert_dead`] — this object must be reclaimed at the next
//!   collection (catches leaks at the granularity of single objects);
//! * [`Vm::start_region`] / [`Vm::assert_alldead`] — everything allocated
//!   in a bracketed region must be dead at the region's end (checks that
//!   e.g. a server's per-request code is memory-stable);
//! * [`Vm::assert_instances`] — at most *I* live instances of a class
//!   (checks singleton discipline, or performance recommendations like
//!   Lucene's one-`IndexSearcher` rule);
//! * [`Vm::assert_unshared`] — at most one incoming pointer (a tree has
//!   not silently become a DAG);
//! * [`Vm::assert_owned_by`] — an ownee must remain reachable *through*
//!   its owner and never outlive it (finds leaks without knowing the exact
//!   point of death).
//!
//! Violation reports carry the **full instance-level path** from a root to
//! the offending object (the paper's Figure 1), reconstructed from the
//! tracer's path-tracking worklist at zero additional asymptotic cost.
//!
//! # Quick start
//!
//! ```
//! use gc_assertions::{Vm, VmConfig, ViolationKind};
//!
//! # fn main() -> Result<(), gc_assertions::VmError> {
//! let mut vm = Vm::new(VmConfig::builder().build());
//! let m = vm.main();
//! let list = vm.register_class("List", &["head"]);
//! let node = vm.register_class("Node", &["next"]);
//!
//! // Build list -> node, root the list.
//! let l = vm.alloc(m, list, 1, 0)?;
//! vm.add_root(m, l)?;
//! let n = vm.alloc(m, node, 1, 0)?;
//! vm.set_field(l, 0, n)?;
//!
//! // The program believes clearing `head` kills the node...
//! vm.assert_dead(n)?;
//! // ...but forgets to clear it. The next GC reports the leak with a path.
//! let report = vm.collect()?;
//! assert_eq!(report.violations.len(), 1);
//! assert!(matches!(
//!     report.violations[0].kind,
//!     ViolationKind::DeadReachable { .. }
//! ));
//! println!("{}", report.violations[0].render(vm.registry()));
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! The crate layers the paper's contribution over two substrate crates:
//! [`gca_heap`] (object model, classes, free-list heap with
//! generation-checked handles) and [`gca_collector`] (mark-sweep with
//! pluggable [`gca_collector::TraceHooks`]). The [`AssertionEngine`] here
//! is a `TraceHooks` implementation; [`Mode::Base`] detaches it entirely,
//! reproducing the paper's three measured configurations (Base /
//! Infrastructure / WithAssertions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assertions;
mod census;
mod config;
mod engine;
mod error;
mod mutator;
mod ownership;
mod par_engine;
mod probe;
mod report;
mod shared;
mod violation;
mod vm;

pub use assertions::{Assertions, RegionGuard};
pub use census::AllocSite;
pub use config::{
    AssertionClass, CollectorKind, Mode, Reaction, VmConfig, VmConfigBuilder, MAX_GC_THREADS,
};
pub use engine::AssertionEngine;
pub use error::VmError;
pub use mutator::MutatorId;
pub use probe::Probe;
pub use report::{CheckCounters, GcReport};
pub use shared::{SharedVm, VmThread};
pub use violation::{Violation, ViolationKind};
pub use vm::{AssertionCallCounts, Vm};

// Re-export the substrate types users need to drive the VM.
pub use gca_collector::{CycleStats, GcStats, HeapPath, PathStep};
pub use gca_heap::{ClassId, Flags, HeapError, HeapStats, ObjRef, TypeRegistry};
pub use gca_telemetry::export::parse_jsonl;
pub use gca_telemetry::{
    AssertionKind, AssertionOverhead, CensusData, CensusDrift, CensusEntry, CycleCensus, CycleKind,
    CycleRecord, DriftScope, GcPhase, GcTelemetry, HeapCensus, HeapDiff, HeapDiffRow, JsonlRecord,
    KindOverhead, LatencyHistogram, TelemetryParseError,
};
