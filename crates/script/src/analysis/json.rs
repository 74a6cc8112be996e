//! Machine-readable renderings of [`Analysis`](super::Analysis) and
//! [`SuggestOutcome`](super::SuggestOutcome) for `gca check --json` and
//! `gca suggest --json`.
//!
//! Hand-rolled (the workspace takes no serialization dependency): a
//! small escaper plus literal structure.  The shape is pinned by a
//! golden test in `tests/check.rs` — treat it as a public contract.
//! Unlike the classic transcript, the JSON report carries *all*
//! diagnostics, including the Note-severity advisory lints that
//! [`Analysis::render`](super::Analysis::render) omits.

use super::{Analysis, Severity, SuggestOutcome};

/// JSON string escaping per RFC 8259 (quote, backslash, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn string_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", inner.join(","))
}

/// Renders a full `gca check` report as a single JSON object.
pub fn analysis_to_json(a: &Analysis) -> String {
    let errors = a
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = a
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let notes = a
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Note)
        .count();
    let diags: Vec<String> = a
        .diagnostics
        .iter()
        .map(|d| {
            let severity = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Note => "note",
            };
            let column = d
                .column
                .map_or_else(|| "null".to_owned(), |c| c.to_string());
            format!(
                "{{\"line\":{},\"column\":{},\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\",\"notes\":{}}}",
                d.line,
                column,
                severity,
                esc(d.code),
                esc(&d.message),
                string_array(&d.notes),
            )
        })
        .collect();
    let collections: Vec<String> = a
        .collections
        .iter()
        .map(|c| {
            format!(
                "{{\"line\":{},\"explicit\":{},\"minor\":{},\"summarized\":{},\"must\":{},\"may\":{}}}",
                c.line,
                c.explicit,
                c.minor,
                c.summarized,
                string_array(&c.must),
                string_array(&c.may),
            )
        })
        .collect();
    format!(
        "{{\"tool\":\"gca-check\",\"errors\":{},\"warnings\":{},\"notes\":{},\"diagnostics\":[{}],\"collections\":[{}]}}",
        errors,
        warnings,
        notes,
        diags.join(","),
        collections.join(","),
    )
}

/// Renders a full `gca suggest` report as a single JSON object.
pub fn suggest_to_json(o: &SuggestOutcome) -> String {
    let refused = o
        .refused
        .as_ref()
        .map_or_else(|| "null".to_owned(), |r| format!("\"{}\"", esc(r)));
    let suggestions: Vec<String> = o
        .suggestions
        .iter()
        .map(|s| {
            format!(
                "{{\"beforeLine\":{},\"text\":\"{}\",\"reason\":\"{}\"}}",
                s.before_line,
                esc(&s.text),
                esc(&s.reason),
            )
        })
        .collect();
    format!(
        "{{\"tool\":\"gca-suggest\",\"refused\":{},\"rejected\":{},\"suggestions\":[{}]}}",
        refused,
        o.rejected,
        suggestions.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn check_json_is_well_formed_for_a_clean_script() {
        let a = super::super::analyze("class T\nnew a T\nroot a\ngc\n").unwrap();
        let j = analysis_to_json(&a);
        assert!(j.starts_with("{\"tool\":\"gca-check\""), "{j}");
        assert!(j.contains("\"errors\":0"), "{j}");
        assert!(j.contains("\"summarized\":false"), "{j}");
    }
}
