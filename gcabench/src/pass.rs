//! What one pass of a workload did: its times, its exact work counters
//! and the checks that failed.

use std::collections::BTreeMap;
use std::time::Instant;

use gc_assertions::{AssertionKind, GcTelemetry, Mode, Vm, VmConfig};
use gca_workloads::runner::ExpConfig;

/// The `core.hook_units.<kind>` metrics, in `AssertionKind::ALL` order.
pub const HOOK_UNITS: [&str; 5] = [
    "core.hook_units.dead",
    "core.hook_units.region",
    "core.hook_units.instances",
    "core.hook_units.unshared",
    "core.hook_units.owned_by",
];

/// The measurements of one pass. Times are in seconds.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: f64,
    /// Collector time (`gc_stats().total_gc_time`, summed over VMs).
    pub gc: f64,
    /// Pre-root (ownership) phase time.
    pub pre_root: f64,
    /// Mark phase time.
    pub mark: f64,
    /// Sweep phase time.
    pub sweep: f64,
    /// Time inside `Violation::render`.
    pub render: f64,
    /// Time inside `analyze`.
    pub check: f64,
    /// Time inside script execution.
    pub run: f64,
    /// Exact work counters by metric name; they repeat for a fixed seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Operations attempted (workload runs or scripts).
    pub ops: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Per-operation `(collections, objects_marked, edges_traced)`, for
    /// comparing the two halves of a pair.
    pub fingerprints: Vec<[u64; 3]>,
    /// Traced passes: each cycle's pause, from the telemetry records.
    pub pauses: Vec<f64>,
    /// Traced passes: telemetry's assertion overhead units per kind.
    pub hook_units: [u64; 5],
    /// Traced passes: telemetry records kept by the VMs.
    pub records: u64,
}

impl Pass {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: u64) {
        let e = self.counts.entry(name).or_default();
        *e = (*e).max(v);
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Counter `name`, 0 when the pass never touched it.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Folds a finished VM's public counters into the pass.
    pub fn absorb(&mut self, vm: &Vm) {
        let heap = vm.heap_stats();
        self.add("heap.allocations", heap.allocations);
        self.add("heap.allocated_words", heap.allocated_words);
        self.add("heap.frees", heap.frees);
        self.max("heap.peak_occupied_words", heap.peak_occupied_words as u64);
        self.max("heap.pages", vm.heap().page_count() as u64);

        let gc = vm.gc_stats();
        self.gc += gc.total_gc_time.as_secs_f64();
        self.pre_root += gc.pre_root_time.as_secs_f64();
        self.mark += gc.mark_time.as_secs_f64();
        self.sweep += gc.sweep_time.as_secs_f64();
        self.add("collector.collections", gc.collections);
        self.add("collector.objects_marked", gc.objects_marked);
        self.add("collector.edges_traced", gc.edges_traced);
        self.add("collector.objects_swept", gc.objects_swept);
        self.add("collector.words_swept", gc.words_swept);
        self.add("core.pre_root_edges", gc.pre_root_edges);

        let checks = vm.check_totals();
        self.add("core.owners_scanned", checks.owners_scanned);
        self.add("core.ownees_checked", checks.ownees_checked);
        self.add("core.deferred_ownees", checks.deferred_ownees_processed);
        self.add("core.dead_bits_seen", checks.dead_bits_seen);
        self.add("core.instances_counted", checks.tracked_instances_counted);
        self.add("core.unshared_bits_seen", checks.unshared_bits_seen);

        let calls = vm.assertion_calls();
        self.add("core.calls.dead", calls.dead);
        self.add("core.calls.owned_by", calls.owned_by);
        self.add("core.calls.unshared", calls.unshared);
        self.add("core.calls.instances", calls.instances);
        self.add("core.calls.region_objects", calls.region_objects);

        let log = vm.violation_log();
        self.add("core.violations", log.len() as u64);
        self.add(
            "core.path_steps",
            log.iter().map(|v| v.path.len() as u64).sum(),
        );
    }

    /// Renders every violation `vm` logged, the way a user reads its
    /// reports, timing each `Violation::render` call.
    pub fn render(&mut self, vm: &Vm) {
        for v in vm.violation_log() {
            let t = Instant::now();
            let text = std::hint::black_box(v.render(vm.registry()));
            self.render += t.elapsed().as_secs_f64();
            drop(text);
        }
    }

    /// Folds a traced VM's telemetry into the pass.
    pub fn absorb_telemetry(&mut self, t: &GcTelemetry) {
        self.records += t.records().len() as u64;
        for r in t.records() {
            self.pauses.push(r.total_ns as f64 * 1e-9);
        }
        for (slot, kind) in self.hook_units.iter_mut().zip(AssertionKind::ALL) {
            *slot += t.overhead().kind(kind).total();
        }
    }

    /// The per-operation fingerprint of a finished VM.
    pub fn fingerprint(&mut self, vm: &Vm) {
        let gc = vm.gc_stats();
        self.fingerprints
            .push([gc.collections, gc.objects_marked, gc.edges_traced]);
    }
}

/// The VM configuration a workload pass runs under: `budget` words of
/// heap that may grow, Base or instrumented collector, telemetry on
/// only in traced passes.
pub fn vm_config(budget: usize, config: ExpConfig, traced: bool) -> VmConfig {
    VmConfig::builder()
        .heap_budget(budget)
        .grow_on_oom(true)
        .mode(match config {
            ExpConfig::Base => Mode::Base,
            _ => Mode::Instrumented,
        })
        .telemetry(traced)
        .build()
}

/// A deterministic splitmix64 stream: every input the benchmark hands the
/// program is drawn from it, so one seed fixes all inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, offset by `stream` so workloads sharing a seed
    /// draw unrelated inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
