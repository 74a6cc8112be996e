//! Record in "production", replay in the lab — the deployment story the
//! paper's ~3% overhead enables, made concrete.
//!
//! ```text
//! cargo run -p gca-script --example record_replay [-- SCRIPT_PATH]
//! ```
//!
//! The recording is a plain `.gca` script, written to `SCRIPT_PATH`
//! (default: `record_replay.gca` in the system temp directory); `gca
//! SCRIPT_PATH` runs it again.

use gc_assertions::VmConfig;
use gca_script::{replay, Recorder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args().nth(1).map_or_else(
        || std::env::temp_dir().join("record_replay.gca"),
        Into::into,
    );

    // --- production: path tracking OFF (cheapest configuration) -------
    let mut rec = Recorder::new(VmConfig::builder().path_tracking(false).build());
    let registry = rec.register_class("SessionRegistry", &["head"])?;
    let session = rec.register_class("Session", &["next"])?;

    let reg = rec.alloc(registry, 0)?;
    rec.add_root(reg)?;
    // Sessions come and go; one "logged-out" session stays linked.
    let mut prev = rec.alloc(session, 8)?;
    rec.set_field(reg, 0, prev)?;
    for _ in 0..5 {
        let s = rec.alloc(session, 8)?;
        rec.set_field(s, 0, prev)?;
        rec.set_field(reg, 0, s)?;
        prev = s;
    }
    let leaked = prev; // the handler believes this one is gone
    rec.assert_dead(leaked)?;
    rec.collect()?;

    let (prod_vm, script) = rec.finish();
    println!(
        "production run: {} violation(s)",
        prod_vm.violation_log().len()
    );
    for v in prod_vm.violation_log() {
        println!("  (no path recorded) {}", v.summary());
    }

    // Ship the recording home.
    std::fs::write(&path, &script)?;
    println!(
        "\nrecorded script: {} lines, {} bytes, written to {}",
        script.lines().count(),
        script.len(),
        path.display()
    );

    // --- lab: identical history, full forensics -----------------------
    let lab_vm = replay(&script, VmConfig::builder().path_tracking(true).build())?;
    println!(
        "\nlab replay: {} violation(s), now with paths:",
        lab_vm.violation_log().len()
    );
    for v in lab_vm.violation_log() {
        println!("\n{}", v.render(lab_vm.registry()));
    }
    Ok(())
}
