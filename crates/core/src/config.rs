//! VM configuration.

/// How the VM reacts when a collection detects assertion violations
/// (§2.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reaction {
    /// Log the error (into the [`crate::GcReport`]) and continue executing.
    /// This retains the semantics of the program without any assertions
    /// and is the paper's chosen default.
    #[default]
    Log,
    /// Log the error and halt: the VM refuses further mutator work, for
    /// assertions whose failure indicates a non-recoverable error.
    Halt,
    /// Force lifetime assertions to be true: the collector nulls out all
    /// incoming references to asserted-dead objects that it encountered
    /// during the trace, so the object is reclaimed at the *next*
    /// collection. As the paper notes, this may let a program run longer
    /// without exhausting memory but risks introducing null-pointer
    /// errors in the mutator.
    ForceTrue,
}

/// Which collector configuration the VM runs — the three configurations of
/// the paper's evaluation (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Unmodified collector ([`gca_collector::NoHooks`]); the assertion API
    /// is unavailable. Paper configuration **Base**.
    Base,
    /// Collector with the assertion engine attached. With no assertions
    /// registered this measures the infrastructure overhead (paper
    /// configuration **Infrastructure**); with assertions registered it is
    /// **WithAssertions**.
    #[default]
    Instrumented,
}

/// Which garbage-collection algorithm backs major collections.
///
/// The paper's machinery (§2.2–2.5) is defined in terms of the *trace*,
/// not of any particular collector; this enum makes that claim executable
/// by offering two structurally different backends that must agree on
/// every assertion verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectorKind {
    /// The paper's MarkSweep plan: non-moving trace-and-sweep, with the
    /// sequential DFS tracer or the parallel work-stealing mark phase
    /// depending on [`VmConfig::gc_threads`].
    #[default]
    MarkSweep,
    /// A semispace copying (Cheney-scan) collector: survivors are
    /// evacuated to the to-space in BFS order, the spaces flip, and
    /// assertion checks ride along at evacuation time. Copying changes
    /// *when* (at which address) objects live, not *whether* they are
    /// live, so all assertion verdicts are identical to MarkSweep.
    /// Full-heap and sequential: incompatible with
    /// [`VmConfig::generational`] and with `gc_threads > 1`.
    Copying,
}

/// Most mark workers a configuration may ask for: the parallel mark
/// starts one scoped thread per worker, so an unbounded count from a
/// script or CLI flag could exhaust the process's threads.
pub const MAX_GC_THREADS: usize = 64;

/// The classes of assertion a [`Reaction`] override can target — §2.6
/// suggests "different actions based on the class of assertion that is
/// violated" as future work; this implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssertionClass {
    /// `assert-dead` and region assertions (lifetime).
    Lifetime,
    /// `assert-instances` (volume).
    Volume,
    /// `assert-unshared` and `assert-ownedby` (connectivity/ownership).
    Connectivity,
}

/// Configuration for a [`crate::Vm`].
///
/// # Example
///
/// ```
/// use gc_assertions::{Reaction, VmConfig};
///
/// let config = VmConfig::new()
///     .heap_budget_words(64 * 1024)
///     .grow_on_oom(false)
///     .reaction(Reaction::Log);
/// assert_eq!(config.heap_budget, 64 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Heap budget in words; an allocation that would exceed it triggers a
    /// collection first. The paper's methodology fixes this at 2× the
    /// minimum heap for each benchmark.
    pub heap_budget: usize,
    /// If `true`, the budget doubles when a collection cannot make room
    /// (convenient default); if `false`, allocation fails with
    /// out-of-memory, as on a fixed experimental heap.
    pub grow: bool,
    /// Reaction to assertion violations.
    pub reaction: Reaction,
    /// Collector configuration (Base vs Instrumented).
    pub mode: Mode,
    /// Use the path-tracking worklist so reports carry full heap paths
    /// (§2.7). Disabling it removes the per-object worklist overhead and
    /// all path information; exposed for the ablation benchmark.
    pub path_tracking: bool,
    /// Report each violating object only once across collections (via the
    /// `REPORTED` header bit) instead of on every collection it survives.
    pub report_once: bool,
    /// Extension (not in the paper): when an owner dies, report any of its
    /// ownees that are still live, instead of silently dropping the pair.
    pub strict_owner_lifetime: bool,
    /// Per-assertion-class reaction overrides (paper §2.6 future work);
    /// classes without an override use [`VmConfig::reaction`].
    pub reaction_overrides: Vec<(AssertionClass, Reaction)>,
    /// Generational collection (paper §2.2): `Some(n)` makes
    /// allocation-triggered collections *minor* (nursery-only, no
    /// assertion checks) with a full major collection forced after `n`
    /// consecutive minors — demonstrating the paper's observation that a
    /// generational collector lets assertions go unchecked for long
    /// periods. `None` (default) is the paper's full-heap MarkSweep.
    pub generational: Option<usize>,
    /// Number of tracing workers for *major* collections. `1` (default)
    /// runs the sequential tracer with the §2.7 path-tracking worklist;
    /// `> 1` runs the work-stealing parallel mark phase with per-worker
    /// assertion shards (paths are then reconstructed on demand for
    /// flagged objects, so a report may show a different — equally valid —
    /// retaining path). `0` means *auto*: one worker per available core.
    /// Minor collections are always sequential (the nursery is small).
    pub gc_threads: usize,
    /// Record GC telemetry: per-cycle phase spans, per-worker mark
    /// timings, per-assertion-kind overhead attribution and pause
    /// histograms, exposed via `Vm::telemetry()`. Off by default —
    /// telemetry is pure observation (records are derived from cycle
    /// statistics *after* each collection), so disabling it leaves the
    /// collector's hot paths untouched.
    pub telemetry: bool,
    /// Record a heap census: per-class and per-allocation-site live
    /// object/byte histograms taken from the live heap after each
    /// collection, with a rolling-window drift detector over major
    /// cycles, exposed via `Vm::census()`. Off by default — the census
    /// observes the heap but never changes which objects are marked,
    /// swept, or reported, so
    /// census-on runs are bit-identical to census-off runs in everything
    /// except the census itself.
    pub census: bool,
    /// Which collector algorithm backs major collections (see
    /// [`CollectorKind`]). Defaults to the paper's MarkSweep.
    pub collector: CollectorKind,
    /// Shard identity when this VM is one member of a fleet (the soak
    /// harness runs one VM per shard thread). Purely informational: the
    /// VM never branches on it, but exporters use it to label telemetry
    /// series and event records with their shard of origin. `None`
    /// (default) for a standalone VM.
    pub shard: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_budget: 1 << 20,
            grow: true,
            reaction: Reaction::Log,
            mode: Mode::Instrumented,
            path_tracking: true,
            report_once: true,
            strict_owner_lifetime: false,
            reaction_overrides: Vec::new(),
            generational: None,
            gc_threads: 1,
            telemetry: false,
            census: false,
            collector: CollectorKind::MarkSweep,
            shard: None,
        }
    }
}

impl VmConfig {
    /// Default configuration: 1 Mi-word growable heap, instrumented mode,
    /// path tracking on, log-and-continue.
    pub fn new() -> VmConfig {
        VmConfig::default()
    }

    /// Sets the heap budget in words.
    #[must_use]
    pub fn heap_budget_words(mut self, words: usize) -> VmConfig {
        self.heap_budget = words;
        self
    }

    /// Sets whether the heap may grow when full.
    #[must_use]
    pub fn grow_on_oom(mut self, grow: bool) -> VmConfig {
        self.grow = grow;
        self
    }

    /// Sets the violation reaction.
    #[must_use]
    pub fn reaction(mut self, reaction: Reaction) -> VmConfig {
        self.reaction = reaction;
        self
    }

    /// Sets the collector configuration.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> VmConfig {
        self.mode = mode;
        self
    }

    /// Enables or disables the path-tracking worklist.
    #[must_use]
    pub fn path_tracking(mut self, on: bool) -> VmConfig {
        self.path_tracking = on;
        self
    }

    /// Enables or disables once-only violation reporting.
    #[must_use]
    pub fn report_once(mut self, on: bool) -> VmConfig {
        self.report_once = on;
        self
    }

    /// Enables the strict owner-lifetime extension.
    #[must_use]
    pub fn strict_owner_lifetime(mut self, on: bool) -> VmConfig {
        self.strict_owner_lifetime = on;
        self
    }

    /// Enables generational collection with a major collection forced
    /// after `major_every` consecutive minors.
    #[must_use]
    pub fn generational(mut self, major_every: usize) -> VmConfig {
        self.generational = Some(major_every.max(1));
        self
    }

    /// Sets the number of tracing workers for major collections
    /// (`0` = auto, one per available core).
    #[must_use]
    pub fn gc_threads(mut self, workers: usize) -> VmConfig {
        self.gc_threads = workers;
        self
    }

    /// Enables or disables GC telemetry recording.
    #[must_use]
    pub fn telemetry(mut self, on: bool) -> VmConfig {
        self.telemetry = on;
        self
    }

    /// Enables or disables the heap census (see [`VmConfig::census`]).
    #[must_use]
    pub fn census(mut self, on: bool) -> VmConfig {
        self.census = on;
        self
    }

    /// Selects the collector algorithm for major collections.
    #[must_use]
    pub fn collector(mut self, kind: CollectorKind) -> VmConfig {
        self.collector = kind;
        self
    }

    /// Tags this VM as shard `shard` of a fleet (see [`VmConfig::shard`]).
    #[must_use]
    pub fn shard(mut self, shard: u64) -> VmConfig {
        self.shard = Some(shard);
        self
    }

    /// Overrides the reaction for one assertion class (later overrides for
    /// the same class win).
    #[must_use]
    pub fn reaction_for(mut self, class: AssertionClass, reaction: Reaction) -> VmConfig {
        self.reaction_overrides.push((class, reaction));
        self
    }

    /// The effective reaction for an assertion class.
    pub fn effective_reaction(&self, class: AssertionClass) -> Reaction {
        self.reaction_overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == class)
            .map(|(_, r)| *r)
            .unwrap_or(self.reaction)
    }

    /// The resolved tracing-worker count: `gc_threads`, with `0` mapped to
    /// the number of available cores. Always 1 on the copying collector,
    /// whose Cheney scan is sequential.
    pub fn effective_gc_threads(&self) -> usize {
        match self.gc_threads {
            _ if self.collector == CollectorKind::Copying => 1,
            0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_GC_THREADS)),
            n => n,
        }
    }

    /// Checks the combination rules of the collector settings:
    /// `gc_threads` is at most [`MAX_GC_THREADS`] (the parallel mark
    /// starts one thread per worker); the copying collector is
    /// full-heap, so it cannot be generational, and its Cheney scan is
    /// sequential, so `gc_threads` must be 0 or 1. The builder,
    /// [`crate::Vm::new`], the script interpreter and `gca check` all
    /// apply these rules through this one function.
    ///
    /// # Errors
    ///
    /// A description of the first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.gc_threads > MAX_GC_THREADS {
            return Err("gc_threads is at most 64 (one mark thread per worker)");
        }
        if self.collector == CollectorKind::Copying {
            if self.generational.is_some() {
                return Err("the copying collector is full-heap; it cannot be generational");
            }
            if self.gc_threads > 1 {
                return Err("the copying collector's Cheney scan is sequential \
                            (gc_threads must be 0 or 1)");
            }
        }
        Ok(())
    }

    /// Starts a fluent [`VmConfigBuilder`], the preferred way to assemble
    /// a configuration:
    ///
    /// ```
    /// use gc_assertions::{AssertionClass, Reaction, VmConfig};
    ///
    /// let config = VmConfig::builder()
    ///     .heap_budget(64 * 1024)
    ///     .gc_threads(4)
    ///     .reaction_for(AssertionClass::Lifetime, Reaction::ForceTrue)
    ///     .build();
    /// assert_eq!(config.heap_budget, 64 * 1024);
    /// assert_eq!(config.gc_threads, 4);
    /// ```
    pub fn builder() -> VmConfigBuilder {
        VmConfigBuilder {
            config: VmConfig::default(),
        }
    }
}

/// Fluent builder for [`VmConfig`], obtained from [`VmConfig::builder`].
///
/// Every setter takes and returns the builder by value, so a
/// configuration reads as one chain ending in [`build`](Self::build),
/// which validates the combination before handing back the finished
/// [`VmConfig`].
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the VmConfig"]
pub struct VmConfigBuilder {
    config: VmConfig,
}

impl VmConfigBuilder {
    /// Sets the heap budget in words (must be non-zero).
    pub fn heap_budget(mut self, words: usize) -> VmConfigBuilder {
        self.config.heap_budget = words;
        self
    }

    /// Sets whether the heap may grow when full.
    pub fn grow_on_oom(mut self, grow: bool) -> VmConfigBuilder {
        self.config.grow = grow;
        self
    }

    /// Sets the violation reaction.
    pub fn reaction(mut self, reaction: Reaction) -> VmConfigBuilder {
        self.config.reaction = reaction;
        self
    }

    /// Sets the collector configuration (Base vs Instrumented).
    pub fn mode(mut self, mode: Mode) -> VmConfigBuilder {
        self.config.mode = mode;
        self
    }

    /// Enables or disables the path-tracking worklist.
    pub fn path_tracking(mut self, on: bool) -> VmConfigBuilder {
        self.config.path_tracking = on;
        self
    }

    /// Enables or disables once-only violation reporting.
    pub fn report_once(mut self, on: bool) -> VmConfigBuilder {
        self.config.report_once = on;
        self
    }

    /// Enables the strict owner-lifetime extension.
    pub fn strict_owner_lifetime(mut self, on: bool) -> VmConfigBuilder {
        self.config.strict_owner_lifetime = on;
        self
    }

    /// Enables generational collection with a major collection forced
    /// after `major_every` consecutive minors (clamped to at least 1).
    pub fn generational(mut self, major_every: usize) -> VmConfigBuilder {
        self.config.generational = Some(major_every.max(1));
        self
    }

    /// Sets the number of tracing workers for major collections
    /// (`0` = auto, one per available core).
    pub fn gc_threads(mut self, workers: usize) -> VmConfigBuilder {
        self.config.gc_threads = workers;
        self
    }

    /// Enables or disables GC telemetry recording (see
    /// [`VmConfig::telemetry`]).
    pub fn telemetry(mut self, on: bool) -> VmConfigBuilder {
        self.config.telemetry = on;
        self
    }

    /// Enables or disables the heap census (see [`VmConfig::census`]).
    pub fn census(mut self, on: bool) -> VmConfigBuilder {
        self.config.census = on;
        self
    }

    /// Selects the collector algorithm for major collections (see
    /// [`CollectorKind`]).
    pub fn collector(mut self, kind: CollectorKind) -> VmConfigBuilder {
        self.config.collector = kind;
        self
    }

    /// Tags this VM as shard `shard` of a fleet (see [`VmConfig::shard`]).
    pub fn shard(mut self, shard: u64) -> VmConfigBuilder {
        self.config.shard = Some(shard);
        self
    }

    /// Overrides the reaction for one assertion class (later overrides
    /// for the same class win).
    pub fn reaction_for(mut self, class: AssertionClass, reaction: Reaction) -> VmConfigBuilder {
        self.config.reaction_overrides.push((class, reaction));
        self
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the heap budget is zero, or if the configuration fails
    /// [`VmConfig::validate`].
    pub fn build(self) -> VmConfig {
        assert!(
            self.config.heap_budget > 0,
            "VmConfig: heap budget must be non-zero"
        );
        if let Err(msg) = self.config.validate() {
            panic!("VmConfig: {msg}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = VmConfig::new();
        assert_eq!(c.reaction, Reaction::Log);
        assert_eq!(c.mode, Mode::Instrumented);
        assert!(c.path_tracking);
        assert!(c.report_once);
        assert!(!c.strict_owner_lifetime);
        assert!(c.grow);
        assert!(!c.telemetry, "telemetry is observably dark by default");
        assert!(!c.census, "census is observably dark by default");
        assert_eq!(c.shard, None, "standalone VMs carry no shard tag");
    }

    #[test]
    fn shard_tag_round_trips_through_both_builders() {
        assert_eq!(VmConfig::new().shard(3).shard, Some(3));
        assert_eq!(VmConfig::builder().shard(7).build().shard, Some(7));
    }

    #[test]
    fn builder_chains() {
        let c = VmConfig::new()
            .heap_budget_words(123)
            .grow_on_oom(false)
            .reaction(Reaction::Halt)
            .mode(Mode::Base)
            .path_tracking(false)
            .report_once(false)
            .strict_owner_lifetime(true);
        assert_eq!(c.heap_budget, 123);
        assert!(!c.grow);
        assert_eq!(c.reaction, Reaction::Halt);
        assert_eq!(c.mode, Mode::Base);
        assert!(!c.path_tracking);
        assert!(!c.report_once);
        assert!(c.strict_owner_lifetime);
    }

    #[test]
    fn fluent_builder_equals_chained_setters() {
        let built = VmConfig::builder()
            .heap_budget(123)
            .grow_on_oom(false)
            .reaction(Reaction::Halt)
            .mode(Mode::Base)
            .path_tracking(false)
            .report_once(false)
            .strict_owner_lifetime(true)
            .generational(0)
            .gc_threads(4)
            .telemetry(true)
            .census(true)
            .reaction_for(AssertionClass::Volume, Reaction::Log)
            .build();
        assert_eq!(built.heap_budget, 123);
        assert!(!built.grow);
        assert_eq!(built.reaction, Reaction::Halt);
        assert_eq!(built.mode, Mode::Base);
        assert!(!built.path_tracking);
        assert!(!built.report_once);
        assert!(built.strict_owner_lifetime);
        assert_eq!(built.generational, Some(1)); // clamped
        assert_eq!(built.gc_threads, 4);
        assert!(built.telemetry);
        assert!(built.census);
        assert_eq!(
            built.effective_reaction(AssertionClass::Volume),
            Reaction::Log
        );
    }

    #[test]
    #[should_panic(expected = "heap budget must be non-zero")]
    fn builder_rejects_zero_budget() {
        let _ = VmConfig::builder().heap_budget(0).build();
    }

    #[test]
    fn collector_defaults_to_mark_sweep() {
        assert_eq!(VmConfig::new().collector, CollectorKind::MarkSweep);
        let c = VmConfig::builder()
            .collector(CollectorKind::Copying)
            .build();
        assert_eq!(c.collector, CollectorKind::Copying);
        let c = VmConfig::new().collector(CollectorKind::Copying);
        assert_eq!(c.collector, CollectorKind::Copying);
    }

    #[test]
    #[should_panic(expected = "full-heap")]
    fn builder_rejects_copying_generational() {
        let _ = VmConfig::builder()
            .collector(CollectorKind::Copying)
            .generational(4)
            .build();
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn builder_rejects_copying_parallel() {
        let _ = VmConfig::builder()
            .collector(CollectorKind::Copying)
            .gc_threads(4)
            .build();
    }

    #[test]
    fn gc_threads_zero_means_auto() {
        let c = VmConfig::builder().gc_threads(0).build();
        assert!(c.effective_gc_threads() >= 1);
        assert_eq!(VmConfig::new().effective_gc_threads(), 1);
        let copying = c.collector(CollectorKind::Copying);
        assert_eq!(
            copying.effective_gc_threads(),
            1,
            "the Cheney scan is sequential"
        );
    }

    #[test]
    fn validate_names_the_broken_copying_rule() {
        assert_eq!(VmConfig::new().validate(), Ok(()));
        let copying = VmConfig::new().collector(CollectorKind::Copying);
        assert_eq!(copying.clone().gc_threads(0).validate(), Ok(()));
        let err = copying.clone().generational(2).validate().unwrap_err();
        assert!(err.contains("full-heap"), "{err}");
        let err = copying.gc_threads(2).validate().unwrap_err();
        assert!(err.contains("sequential"), "{err}");
    }

    #[test]
    fn validate_bounds_gc_threads() {
        // Checked without building a VM: no mark thread is ever started.
        let at = VmConfig::new().gc_threads(MAX_GC_THREADS);
        assert_eq!(at.validate(), Ok(()));
        let past = VmConfig::new().gc_threads(MAX_GC_THREADS + 1);
        let err = past.validate().unwrap_err();
        assert!(err.contains("at most 64"), "{err}");
        let built =
            std::panic::catch_unwind(|| VmConfig::builder().gc_threads(MAX_GC_THREADS + 1).build());
        assert!(built.is_err(), "the builder applies the same bound");
    }
}
