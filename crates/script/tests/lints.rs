//! Pinned diagnostics for the two advisory lints. Notes never appear in
//! the human `render()` transcript (goldens stay byte-stable), so the
//! fixtures pin the structured diagnostic — line, code and message —
//! and the `--json` surface where notes are reported.

use gca_script::analysis::json;
use gca_script::{analyze, Diagnostic, Interpreter, Severity};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn notes(src: &str) -> Vec<Diagnostic> {
    let a = analyze(src).expect("fixture parses");
    assert!(!a.has_errors(), "{:?}", a.diagnostics);
    a.diagnostics
        .into_iter()
        .filter(|d| d.severity == Severity::Note)
        .collect()
}

#[test]
fn redundant_assert_dead_fixture_is_pinned() {
    let src = fixture("redundant_assert_dead.gca");
    // The fixture is self-checking at runtime too: the probe passes.
    let out = Interpreter::run_script(&src).expect("fixture runs");
    assert_eq!(out.total_violations, 0);

    let notes = notes(&src);
    assert_eq!(notes.len(), 1, "{notes:?}");
    assert_eq!(notes[0].line, 9);
    assert_eq!(notes[0].code, "redundant-assert-dead");
    assert_eq!(
        notes[0].message,
        "this `assert-dead` is proven Safe at every collection that examines it \
         — the assertion can be removed"
    );
}

#[test]
fn loop_invariant_assertion_fixture_is_pinned() {
    let src = fixture("loop_invariant_assertion.gca");
    let out = Interpreter::run_script(&src).expect("fixture runs");
    assert_eq!(out.total_violations, 0);

    let notes = notes(&src);
    let lint = notes
        .iter()
        .find(|d| d.code == "loop-invariant-assertion")
        .unwrap_or_else(|| panic!("lint note missing: {notes:?}"));
    assert_eq!(lint.line, 13);
    assert_eq!(
        lint.message,
        "this assertion registers the same target on every iteration \
         — hoist it out of the loop"
    );
}

#[test]
fn notes_reach_the_json_surface_but_not_render() {
    let src = fixture("loop_invariant_assertion.gca");
    let a = analyze(&src).expect("fixture parses");
    assert!(
        !a.render().contains("loop-invariant-assertion"),
        "render() must stay note-free for golden stability"
    );
    let j = json::analysis_to_json(&a);
    assert!(j.contains("\"code\":\"loop-invariant-assertion\""), "{j}");
}
