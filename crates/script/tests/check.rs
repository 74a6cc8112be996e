//! `gca check` coverage for the shipped scenarios: a golden test pinning
//! the analyzer's diagnostics for every script under `scripts/`, plus
//! the differential soundness harness — the analyzer's must-violate set
//! must be a subset of the violations the interpreter actually reports
//! (zero false positives at error severity).

use std::collections::{HashMap, VecDeque};

use gca_script::analysis::json;
use gca_script::{
    analyze, apply_suggestions, parse_script, suggest, Analysis, GcPrediction, Interpreter,
    Severity,
};

fn script_path(name: &str) -> String {
    format!("{}/../../scripts/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn read_script(name: &str) -> String {
    let path = script_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn all_scripts() -> Vec<String> {
    let dir = format!("{}/../../scripts", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".gca"))
        .collect();
    names.sort();
    names
}

fn check(name: &str) -> Analysis {
    analyze(&read_script(name)).unwrap_or_else(|e| panic!("{name}: parse error {e}"))
}

/// The golden transcript for every shipped script, pinned verbatim.
/// A new script must be added here — the `goldens_cover_every_script`
/// test enforces it.
const GOLDENS: &[(&str, &str)] = &[
    (
        "cache_leak.gca",
        "error[dead-reachable] line 21:1: session: Session (line 14) was asserted dead (line 20) but must still be reachable at this collection\n\
         \x20 path: cache: Cache (line 11) -.hit-> session: Session (line 14)\n\
         check: 2 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "checked_clean.gca",
        "check: 2 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "copying_backend.gca",
        "error[dead-reachable] line 24:1: session: Session (line 17) was asserted dead (line 23) but must still be reachable at this collection\n\
         \x20 path: cache: Cache (line 14) -.hit-> session: Session (line 17)\n\
         check: 2 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "force_true.gca",
        "error[dead-reachable] line 19:1: x: Obj (line 14) was asserted dead (line 17) but must still be reachable at this collection\n\
         \x20 path: h2: Holder (line 12) -.b-> x: Obj (line 14)\n\
         check: 2 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "generational.gca",
        "error[dead-reachable] line 21:1: victim: Obj (line 12) was asserted dead (line 14) but must still be reachable at this collection\n\
         \x20 path: holder: Holder (line 10) -.keep-> victim: Obj (line 12)\n\
         check: 3 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "list_builder.gca",
        "check: 1 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "ownership.gca",
        "warning[not-owned] line 26:1: y: Elem (line 17) may be reachable without passing through its owner at this collection\n\
         \x20 path: table: CacheTable (line 11) -.hit-> y: Elem (line 17)\n\
         check: 3 collection(s) analyzed, 0 error(s), 1 warning(s)\n",
    ),
    (
        "recursive_tree.gca",
        "check: 2 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "region_server.gca",
        "warning[region-escape] line 26:1: req2: Request (line 24) was allocated in the active region (region begun at line 22) but escapes into `audit`, which is outside it\n\
         error[dead-reachable] line 29:1: req2: Request (line 24) was asserted dead (line 28) but must still be reachable at this collection\n\
         \x20 path: audit: Audit (line 8) -.entry-> req2: Request (line 24)\n\
         \x20 allocated inside the region begun at line 22\n\
         check: 2 collection(s) analyzed, 1 error(s), 1 warning(s)\n",
    ),
    (
        "session_lru.gca",
        "error[dead-reachable] line 33:1: s2: Session (line 17) was asserted dead (line 32) but must still be reachable at this collection\n\
         \x20 path: sampler: Sampler (line 12) -.last-> s2: Session (line 17)\n\
         check: 3 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "singleton.gca",
        "error[instance-limit] line 23:1: instance limit must be exceeded: IndexSearcher 3>1 (asserted line 7)\n\
         check: 1 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "suggest_demo.gca",
        "check: 2 collection(s) analyzed, 0 error(s), 0 warning(s)\n",
    ),
    (
        "swap_leak.gca",
        "error[dead-reachable] line 25:1: fresh: SObject (line 15) was asserted dead (line 23) but must still be reachable at this collection\n\
         \x20 path: occupant: SObject (line 8) -.rep-> fresh_rep: Rep (line 16) -.outer-> fresh: SObject (line 15)\n\
         check: 1 collection(s) analyzed, 1 error(s), 0 warning(s)\n",
    ),
    (
        "unshared_tree.gca",
        "warning[unshared-with-two-stores] line 17:1: b: Node (line 10) now has 2 incoming references (asserted unshared at line 12)\n\
         error[unshared-violated] line 18:1: b: Node (line 10) was asserted unshared (line 12) but must be reachable through more than one reference\n\
         \x20 path: root: Node (line 6) -.l-> a: Node (line 8) -.l-> b: Node (line 10)\n\
         check: 2 collection(s) analyzed, 1 error(s), 1 warning(s)\n",
    ),
];

#[test]
fn goldens_cover_every_script() {
    let pinned: Vec<&str> = GOLDENS.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        all_scripts(),
        pinned,
        "every shipped script needs a pinned golden in tests/check.rs"
    );
}

#[test]
fn golden_diagnostics_for_every_script() {
    for (name, expected) in GOLDENS {
        let rendered = check(name).render();
        assert_eq!(
            rendered, *expected,
            "golden mismatch for {name}:\n--- got ---\n{rendered}--- want ---\n{expected}"
        );
    }
}

#[test]
fn swap_leak_is_flagged_with_a_line_accurate_path() {
    // The ISSUE's named acceptance case: the stale swap is caught
    // statically, with the paper-style root-to-object path naming each
    // allocation site and line.
    let a = check("swap_leak.gca");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("swap_leak must be statically flagged");
    assert_eq!(d.code, "dead-reachable");
    assert_eq!(d.line, 25);
    let path = d
        .notes
        .iter()
        .find(|n| n.starts_with("path: "))
        .expect("path note");
    assert_eq!(
        path,
        "path: occupant: SObject (line 8) -.rep-> fresh_rep: Rep (line 16) -.outer-> fresh: SObject (line 15)"
    );
}

#[test]
fn check_exit_condition_matches_must_presence() {
    // `gca check` exits non-zero iff a must-violate (error-severity)
    // diagnostic is present; `has_errors` is that exit condition.
    for name in all_scripts() {
        let a = check(&name);
        let has_must = a.collections.iter().any(|c| !c.must.is_empty());
        let has_runtime_failure = a
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code == "expect-will-fail");
        assert!(
            !has_runtime_failure,
            "{name}: analyzer predicts a failing expectation in a shipped script"
        );
        assert_eq!(
            a.has_errors(),
            has_must,
            "{name}: error severity must correspond to must-violate verdicts"
        );
    }
}

/// Checks one script's analyzer predictions against one dynamic run.
///
/// Since loops and procedures landed, a single `gc` *line* can execute
/// any number of times, so predictions are keyed by line rather than
/// zipped in stream order: exact predictions form a FIFO queue per line
/// (the analyzer replays blocks in program order, so queue order is
/// dynamic order), while a summarized prediction collapses to one
/// sticky entry standing for *every* dynamic execution of its line —
/// its must-set is empty by construction, which we also assert.
fn differential_check(name: &str, src: &str, analysis: &Analysis) {
    let mut interp = Interpreter::new();
    for (line, cmd) in parse_script(src).unwrap_or_else(|e| panic!("{name}: {e}")) {
        interp
            .execute(line, &cmd)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let log: Vec<String> = interp
        .vm_ref()
        .map(|vm| vm.violation_log().iter().map(|v| v.summary()).collect())
        .unwrap_or_default();
    let out = interp.finish();

    let mut queues: HashMap<usize, VecDeque<&GcPrediction>> = HashMap::new();
    let mut sticky: HashMap<usize, &GcPrediction> = HashMap::new();
    for c in analysis.collections.iter().filter(|c| c.explicit) {
        if c.summarized {
            assert!(
                c.must.is_empty(),
                "{name} line {}: a summarized collection must never promise a must-set",
                c.line
            );
            sticky.insert(c.line, c);
        } else {
            queues.entry(c.line).or_default().push_back(c);
        }
    }

    for (line, actual) in &out.explicit_gcs {
        if let Some(pred) = queues.get_mut(line).and_then(|q| q.pop_front()) {
            let mut remaining = actual.clone();
            for must in &pred.must {
                let pos = remaining.iter().position(|a| a == must).unwrap_or_else(|| {
                    panic!(
                        "{name} line {line}: FALSE POSITIVE — analyzer promised `{must}` \
                         but the interpreter reported {actual:?}"
                    )
                });
                remaining.remove(pos);
            }
            if pred.may.is_empty() {
                assert!(
                    remaining.is_empty(),
                    "{name} line {line}: analyzer claimed exactness but the interpreter \
                     also reported {remaining:?}"
                );
            }
        } else {
            assert!(
                sticky.contains_key(line),
                "{name} line {line}: the interpreter ran a gc the analyzer never predicted"
            );
        }
    }
    for (line, q) in &queues {
        assert!(
            q.is_empty(),
            "{name} line {line}: analyzer predicted {} gc(s) the interpreter never ran",
            q.len()
        );
    }

    // Cumulative check across every collection, implicit and minor
    // included.
    let mut remaining = log.clone();
    for c in &analysis.collections {
        for must in &c.must {
            let pos = remaining.iter().position(|a| a == must).unwrap_or_else(|| {
                panic!(
                    "{name}: cumulative FALSE POSITIVE — `{must}` absent from the \
                     violation log {log:?}"
                )
            });
            remaining.remove(pos);
        }
    }
}

/// The soundness pin: run analyzer and interpreter side by side over
/// every shipped script.  At each explicit `gc`, the analyzer's
/// must-set must be a sub-multiset of the report the interpreter
/// produced; when nothing was downgraded to may, the prediction must be
/// *exact*.  Finally the union of all must-sets (implicit collections
/// included) must be a sub-multiset of the cumulative violation log.
#[test]
fn differential_must_set_is_sound() {
    for name in all_scripts() {
        let src = read_script(&name);
        let analysis = analyze(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        differential_check(&name, &src, &analysis);
    }
}

/// The access graph earns Safe on `list_builder.gca`'s severed chain
/// (the retired per-site domain answered May here; EXPERIMENTS.md,
/// "Retired strawmen").
#[test]
fn list_builder_loop_summary_beats_per_site() {
    let a = check("list_builder.gca");
    assert!(!a.has_errors(), "{:?}", a.diagnostics);
    assert!(
        a.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Warning),
        "{:?}",
        a.diagnostics
    );
    let gc = &a.collections[0];
    assert!(gc.summarized, "the 200-iteration loop must be summarized");
    assert!(gc.must.is_empty() && gc.may.is_empty(), "Safe verdict");
}

/// One `--json` report pinned verbatim as the machine-readable contract
/// (satellite of the ISSUE): shape changes here are API changes.
#[test]
fn json_report_is_pinned_for_list_builder() {
    let a = check("list_builder.gca");
    assert_eq!(
        json::analysis_to_json(&a),
        "{\"tool\":\"gca-check\",\"errors\":0,\"warnings\":0,\
         \"notes\":1,\"diagnostics\":[{\"line\":24,\"column\":1,\"severity\":\"note\",\
         \"code\":\"redundant-assert-dead\",\"message\":\"this `assert-dead` is proven Safe \
         at every collection that examines it — the assertion can be removed\",\"notes\":[]}],\
         \"collections\":[{\"line\":25,\"explicit\":true,\"minor\":false,\"summarized\":true,\
         \"must\":[],\"may\":[]}]}"
    );
}

/// `gca suggest` on the unannotated demo: placements pinned verbatim,
/// then spliced back in and re-run — the annotated script must hold.
#[test]
fn suggest_demo_placements_are_pinned_and_verified() {
    let src = read_script("suggest_demo.gca");
    let out = suggest(&src).unwrap_or_else(|e| panic!("suggest_demo.gca: {e}"));
    assert!(out.refused.is_none(), "{:?}", out.refused);
    assert_eq!(out.rejected, 0, "all placements must survive verification");
    assert_eq!(
        out.render(),
        "@ line 7: + assert-instances Doc 2\n\
         \x20   reason: observed peak of 1 live `Doc` instance(s); limit adds census headroom\n\
         @ line 12: + start-region\n\
         \x20   reason: 3 allocation(s) on lines 12-14 all die before the next collection\n\
         @ line 16: + all-dead\n\
         \x20   reason: every allocation of the region above is unreachable here\n\
         @ line 20: + assert-dead tmp\n\
         \x20   reason: tmp: Scratch (line 19) is unreachable from here to the end of the run\n\
         suggest: 4 placement(s), 0 candidate(s) rejected by splice-and-verify\n"
    );

    let spliced = apply_suggestions(&src, &out.suggestions);
    let run = Interpreter::run_script(&spliced)
        .unwrap_or_else(|e| panic!("spliced suggest_demo.gca: {e}"));
    assert_eq!(run.total_violations, 0, "spliced assertions must all hold");
    let a = analyze(&spliced).unwrap_or_else(|e| panic!("spliced suggest_demo.gca: {e}"));
    assert!(!a.has_errors(), "{:?}", a.diagnostics);

    // Annotated scripts are declined rather than double-annotated.
    let again = suggest(&spliced).unwrap_or_else(|e| panic!("re-suggest: {e}"));
    assert!(again.refused.is_some());
    assert!(again.suggestions.is_empty());
}

#[test]
fn checked_clean_scenario_runs_clean() {
    let out = Interpreter::run_script(&read_script("checked_clean.gca"))
        .unwrap_or_else(|e| panic!("checked_clean.gca: {e}"));
    assert_eq!(out.total_violations, 0);
    assert_eq!(out.collections, 2);
}
