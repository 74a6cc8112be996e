//! Bounded model checking for the GC-assertions engine matrix.
//!
//! This crate exhaustively enumerates every small heap program up to a
//! configurable scope — allocations across the BiBOP size classes and
//! the large-object space, edge mutations (store / clear / swap),
//! root-set changes, explicit major/minor GC points, and every
//! assertion kind the paper describes, interleaved at every program
//! point — and runs each one through the full collector engine matrix
//! (`ms`, `par2`, `copying`, `gen-cards`), requiring
//! bit-identical observable outcomes per the pairing policy in
//! [`engines`].
//!
//! The walk is made tractable by canonical-form pruning (heap-graph
//! isomorphism reduction plus prefix memoization, see [`enumerate`])
//! without ever skipping a program check. When a pairing disagrees or an
//! engine trips an invariant, the failing program is minimized by the
//! greedy shrinker in [`shrink`] and emitted as a runnable `.gca`
//! script plus a compact replay seed by [`emit`].
//!
//! The same op language ([`program`]) feeds the randomized differential
//! suites in `crates/core/tests`, so the fuzzers and the model checker
//! can never drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod engines;
pub mod enumerate;
pub mod program;
pub mod shrink;

pub use emit::{emit_gca, parse_replay, replay_seed};
pub use engines::{
    check_program, check_program_with, engine_matrix, CheckError, EngineSpec, MODEL_HEAP_WORDS,
};
pub use enumerate::{
    explore, explore_with, minimize_counterexample, Counterexample, Report, Scope,
};
pub use program::{
    fuzz_op_strategy, mutation_op_strategy, normalize_violations, run_program, violation_key,
    FuzzOp, Outcome,
};
pub use shrink::shrink_ops;
