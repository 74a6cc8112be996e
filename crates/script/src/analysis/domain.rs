//! The abstract heap domain: an allocation-site points-to graph.
//!
//! Because `.gca` scripts are straight-line (no branches, no loops, no
//! input), the abstract domain never needs to join two states — the
//! forward interpretation tracks a single abstract heap whose objects are
//! allocation sites, whose edges are the ref fields written so far, and
//! whose root set mirrors the mutator stack and global list.  Flow
//! sensitivity is exactness here: every command transforms the one state.
//! The *abstraction* shows up at presentation time instead, as the
//! Safe < May < Must verdict lattice (see `super`): whenever the
//! ownership subsystem is active during a collection the analyzer
//! deliberately downgrades its predictions to **may**, keeping the
//! must-set sound by construction.

use std::collections::HashMap;

/// Index of an abstract object (an allocation site occurrence).
pub(crate) type ObjId = usize;

/// Header words charged per object, mirroring the runtime heap layout.
pub(crate) const HEADER_WORDS: usize = 2;

/// An `assert-instances` limit registered against a class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstanceLimit {
    /// Maximum allowed marked instances per collection.
    pub limit: u32,
    /// Line of the registering `assert-instances`.
    pub line: usize,
}

/// A declared class in the abstract program.
#[derive(Debug, Clone)]
pub(crate) struct AbsClass {
    /// Class name as written in the script.
    pub name: String,
    /// Declared ref-field names, in order.
    pub fields: Vec<String>,
    /// `assert-instances` limit, if one was registered.
    pub limit: Option<InstanceLimit>,
    /// Marked-instance count for the collection in progress.
    pub gc_count: u32,
}

/// An abstract object: one `new` occurrence plus its evolving state.
#[derive(Debug, Clone)]
pub(crate) struct AbsObj {
    /// Index into [`AbsState::classes`].
    pub class: usize,
    /// Variable name the object was bound to at allocation.
    pub site_var: String,
    /// 1-based line of the allocating `new`.
    pub site_line: usize,
    /// Ref fields, `None` = null.
    pub fields: Vec<Option<ObjId>>,
    /// Data words (size accounting only).
    pub size_words: usize,
    /// Still allocated (not yet swept).
    pub alive: bool,
    /// `assert-dead` flag (sticky, like the runtime DEAD bit).
    pub dead: bool,
    /// Line of the `assert-dead`, for provenance notes.
    pub dead_line: Option<usize>,
    /// `assert-unshared` flag (sticky).
    pub unshared: bool,
    /// Line of the `assert-unshared`.
    pub unshared_line: Option<usize>,
    /// Currently registered as an ownee.
    pub ownee: bool,
    /// Currently registered as an owner.
    pub owner: bool,
    /// Violation already reported for this object (report-once mode).
    pub reported: bool,
    /// Promoted to the old generation.
    pub old: bool,
    /// In the remembered set (write barrier hit).
    pub remembered: bool,
    /// Mark bit; per-collection.
    pub mark: bool,
    /// OWNED bit; per-collection.
    pub owned: bool,
    /// Allocated inside the region active at its `new`, and that region
    /// has not ended yet (used by the region-escape lint).
    pub region: bool,
    /// Line of the `start-region` whose region allocated this object
    /// (sticky provenance for diagnostics).
    pub region_site: Option<usize>,
    /// A bounded access-graph summary node: this object stands for
    /// *every* allocation its site performs inside a summarized
    /// `repeat`/`proc` body, so field stores to it are weak updates.
    pub summary: bool,
    /// Weak field edges accumulated on a summary node: `(field, target)`
    /// pairs that *some* concretization may hold in addition to
    /// [`AbsObj::fields`].  Never removed — reachability through a
    /// summary node is an over-approximation by construction.
    pub summary_edges: Vec<(usize, ObjId)>,
}

impl AbsObj {
    /// Total heap words the object occupies.
    pub fn total_words(&self) -> usize {
        HEADER_WORDS + self.fields.len() + self.size_words
    }
}

/// One owner's entry in the abstract ownership table.
#[derive(Debug, Clone)]
pub(crate) struct OwnerEntry {
    /// The owning object.
    pub owner: ObjId,
    /// Its registered ownees.
    pub ownees: Vec<ObjId>,
}

/// Mirror of the runtime violation reactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reaction {
    /// Record and continue.
    Log,
    /// Record and refuse further mutation.
    Halt,
    /// For lifetime violations, sever the pinning edge.
    ForceTrue,
}

/// Mirror of the runtime VM configuration knobs the analyzer models.
#[derive(Debug, Clone)]
pub(crate) struct AbsConfig {
    /// Heap budget in words.
    pub heap_budget: usize,
    /// Whether the heap grows instead of reporting out-of-memory.
    pub grow: bool,
    /// Report each violating object at most once, ever.
    pub report_once: bool,
    /// Record root-to-object paths (affects force-true edge severing).
    pub path_tracking: bool,
    /// Report ownees that survive their owner's death.
    pub strict_owner_lifetime: bool,
    /// `Some(n)` = generational mode, full GC every `n` minors.
    pub generational: Option<usize>,
    /// Semispace copying backend. Deliberately *unused* by the abstract
    /// interpretation: copying changes when (at which address) objects
    /// live, not whether — verdict prediction is collector-agnostic. The
    /// field exists so the analyzer validates the key (and its conflicts
    /// with `generational` and `gc-threads`) exactly like the interpreter.
    pub copying: bool,
    /// Major-collection worker count. Deliberately *unused* like
    /// [`AbsConfig::copying`]: the worker count changes scheduling, never
    /// verdicts. Kept only for the copying rules.
    pub gc_threads: usize,
    /// Global violation reaction.
    pub reaction: Reaction,
    /// Base mode: assertion hooks disabled.
    pub base_mode: bool,
}

impl AbsConfig {
    /// The runtime configuration rules, checked by the same
    /// [`gc_assertions::VmConfig::validate`] the interpreter applies.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let mut vm = gc_assertions::VmConfig::new().gc_threads(self.gc_threads);
        if self.copying {
            vm = vm.collector(gc_assertions::CollectorKind::Copying);
        }
        vm.generational = self.generational;
        vm.validate()
    }
}

impl Default for AbsConfig {
    fn default() -> AbsConfig {
        AbsConfig {
            heap_budget: 1 << 20,
            grow: true,
            report_once: true,
            path_tracking: true,
            strict_owner_lifetime: false,
            generational: None,
            copying: false,
            gc_threads: 1,
            reaction: Reaction::Log,
            base_mode: false,
        }
    }
}

/// The whole abstract machine state threaded through the forward
/// interpretation.
#[derive(Debug, Default)]
pub(crate) struct AbsState {
    /// Modeled configuration.
    pub config: AbsConfig,
    /// Declared classes.
    pub classes: Vec<AbsClass>,
    /// Class name → index.
    pub class_by_name: HashMap<String, usize>,
    /// All abstract objects ever allocated, by id.
    pub objects: Vec<AbsObj>,
    /// Variable bindings (may alias, may be rebound).
    pub vars: HashMap<String, ObjId>,
    /// Global roots with the line that added them, in push order.
    pub globals: Vec<(ObjId, usize)>,
    /// Mutator stack roots with their provenance line; frames partition
    /// this by index.
    pub roots: Vec<(ObjId, usize)>,
    /// Frame boundaries: indices into `roots` at each `frame`.
    pub frames: Vec<usize>,
    /// Ownership table, in registration order.
    pub ownership: Vec<OwnerEntry>,
    /// Objects allocated since the last collection (generational young
    /// list), in allocation order.
    pub young: Vec<ObjId>,
    /// Remembered set, in barrier-hit order.
    pub remembered: Vec<ObjId>,
    /// Minor collections since the last major one.
    pub minors_since_major: usize,
    /// Whether a region is currently open, and its allocations.
    pub region_open: bool,
    /// Line of the active `start-region`.
    pub region_line: usize,
    /// Allocations of the active (or queued) regions awaiting `all-dead`.
    pub region_queue: Vec<ObjId>,
    /// Occupied heap words.
    pub occupied: usize,
    /// VM refused further mutation after a halt-reaction violation.
    pub halted: bool,
    /// Any command has started the VM (config gate mirror).
    pub started: bool,
    /// Ownership was ever active during a collection: the analyzer's
    /// exactness flag for expectation predictions is cleared.
    pub exact: bool,
    /// Summary node per allocation-site line, created while a block is
    /// being summarized and reused on every later round/iteration.
    pub summary_by_line: HashMap<usize, ObjId>,
    /// A block was ever summarized: collections switch permanently to
    /// the over-approximating access-graph collector (flag state such as
    /// report-once suppression can no longer be tracked exactly).
    pub summarized_ever: bool,
    /// A fixpoint failed to converge or a work cap tripped mid-replay,
    /// so the abstract heap may be missing edges: collections lose
    /// field-edge reasoning, treat every live object as may-reachable
    /// and claim Safe for nothing.
    pub havoc: bool,
    /// Occupancy can no longer be tracked exactly (a summarized loop's
    /// total allocation is unknown): implicit-collection and
    /// out-of-memory prediction are disabled.
    pub occupancy_unknown: bool,
    /// Violations predicted for the last *explicit* `gc`.
    pub last_report: Vec<super::collect::PredViolation>,
    /// All predicted violations, cumulative (mirror of the violation log).
    pub violation_log: Vec<super::collect::PredViolation>,
}

impl AbsState {
    /// Fresh pre-start state.  The mutator begins with its base frame
    /// already on the stack, mirroring `Mutator::new`.
    pub fn new() -> AbsState {
        AbsState {
            exact: true,
            frames: vec![0],
            ..AbsState::default()
        }
    }

    /// The object bound to `var`, if any.
    pub fn lookup(&self, var: &str) -> Option<ObjId> {
        self.vars.get(var).copied()
    }

    /// Incoming reference count for `obj`: heap edges from live objects
    /// (weak summary edges included) plus stack roots plus globals.
    /// Drives the `unshared-with-two-stores` lint.
    pub fn incoming(&self, obj: ObjId) -> usize {
        let heap_edges = self
            .objects
            .iter()
            .filter(|o| o.alive)
            .flat_map(|o| o.fields.iter())
            .filter(|f| **f == Some(obj))
            .count();
        let weak_edges = self
            .objects
            .iter()
            .filter(|o| o.alive)
            .flat_map(|o| o.summary_edges.iter())
            .filter(|(_, t)| *t == obj)
            .count();
        let roots = self.roots.iter().filter(|(r, _)| *r == obj).count();
        let globals = self.globals.iter().filter(|(g, _)| *g == obj).count();
        heap_edges + weak_edges + roots + globals
    }

    /// `label (Class, line N)` for messages and abstract paths.
    pub fn describe(&self, obj: ObjId) -> String {
        let o = &self.objects[obj];
        format!(
            "{}: {} (line {})",
            o.site_var, self.classes[o.class].name, o.site_line
        )
    }

    /// The roots in the exact order the runtime scans them: globals in
    /// push order, then the mutator stack bottom-up.
    pub fn gather_roots(&self) -> Vec<ObjId> {
        self.globals
            .iter()
            .map(|(g, _)| *g)
            .chain(self.roots.iter().map(|(r, _)| *r))
            .collect()
    }

    /// Root provenance: line where `obj` was most recently rooted (stack
    /// or global), if it is directly rooted right now.
    pub fn rooted_at(&self, obj: ObjId) -> Option<usize> {
        self.roots
            .iter()
            .chain(self.globals.iter())
            .filter(|(r, _)| *r == obj)
            .map(|(_, line)| *line)
            .next_back()
    }
}
