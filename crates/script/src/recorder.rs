//! Record a live run as a `.gca` script, replay it under another
//! configuration.
//!
//! The paper's low overhead is what makes GC assertions viable in
//! deployment. [`Recorder`] completes that story: it drives a live
//! [`Vm`] and writes every heap operation it performs as one script line
//! — allocations, pointer writes, root operations, assertion calls and
//! explicit collections. [`replay`] runs that text through the
//! [`Interpreter`] under a different configuration (path tracking on,
//! `report_once` off, another reaction, even Base mode), so a violation
//! that was only summarized in production gets its full forensic report
//! in the lab. A recorded script is also a plain `gca <file>` input.
//!
//! Objects are named `o<seq>` by allocation sequence number, which is
//! stable across record and replay even when a replay's heap budget
//! makes collections land differently.
//!
//! # Example
//!
//! ```
//! use gc_assertions::VmConfig;
//! use gca_script::{replay, Recorder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Record a buggy run with path tracking off (cheap, "deployed").
//! let mut rec = Recorder::new(VmConfig::builder().path_tracking(false).build());
//! let class = rec.register_class("Holder", &["f"])?;
//! let h = rec.alloc(class, 0)?;
//! rec.add_root(h)?;
//! let x = rec.alloc(class, 0)?;
//! rec.set_field(h, 0, x)?;
//! rec.assert_dead(x)?;
//! rec.collect()?;
//! let (vm, script) = rec.finish();
//! assert!(vm.violation_log()[0].path.is_empty(), "no path in production");
//! assert!(script.contains("set o0.f o1\n"));
//!
//! // Replay in the lab with paths on: same violation, now with the path.
//! let lab = replay(&script, VmConfig::builder().path_tracking(true).build())?;
//! assert_eq!(lab.violation_log().len(), 1);
//! assert!(!lab.violation_log()[0].path.is_empty());
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use gc_assertions::{ClassId, GcReport, ObjRef, Vm, VmConfig, VmError};
use gca_collector::MinorStats;

use crate::error::{ScriptError, ScriptErrorKind};
use crate::interp::Interpreter;

/// A [`Vm`] wrapper that writes every heap operation it performs as a
/// `.gca` script line.
///
/// Each call executes against the wrapped VM first and appends its line
/// only if the VM accepted it, so the script never names a failed
/// operation. Everything runs on the main mutator, because a script
/// has no other.
///
/// Replay fidelity: the script captures mutator behaviour and explicit
/// collections, not the allocator's implicit ones, so a replay reclaims
/// identically only if its configuration does not collect *more
/// aggressively* than the recording (same heap budget) and does not
/// mutate the heap on violations (`ForceTrue` rewrites fields).
/// Observability settings — path tracking, report policy, `Log` vs
/// `Halt`, Base vs Instrumented — replay exactly.
#[derive(Debug)]
pub struct Recorder {
    vm: Vm,
    script: String,
    /// Allocation sequence number of every recorded object.
    ids: HashMap<ObjRef, u64>,
    next_id: u64,
}

/// Whether `name` reads back from a script line as the same single
/// token: non-empty, no whitespace, no `#` (comment) and no `.` (the
/// `set <var>.<field>` separator).
fn is_identifier(name: &str) -> bool {
    !name.is_empty()
        && !name
            .chars()
            .any(|c| c.is_whitespace() || c == '#' || c == '.')
}

impl Recorder {
    /// Creates a recorder around a fresh VM.
    ///
    /// # Panics
    ///
    /// As [`Vm::new`], if `config` fails [`VmConfig::validate`].
    pub fn new(config: VmConfig) -> Recorder {
        Recorder {
            vm: Vm::new(config),
            script: String::new(),
            ids: HashMap::new(),
            next_id: 0,
        }
    }

    /// Read access to the underlying VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The script recorded so far.
    pub fn script(&self) -> &str {
        &self.script
    }

    /// Ends the recording, returning the VM and the script.
    pub fn finish(self) -> (Vm, String) {
        (self.vm, self.script)
    }

    fn line(&mut self, args: std::fmt::Arguments<'_>) {
        self.script
            .write_fmt(args)
            .expect("writing to a String cannot fail");
        self.script.push('\n');
    }

    fn var(&self, obj: ObjRef) -> String {
        let id = self
            .ids
            .get(&obj)
            .expect("recorded operations only use recorded objects");
        format!("o{id}")
    }

    /// Registers a class and declares it with a `class` line (once per
    /// class).
    ///
    /// # Errors
    ///
    /// A [`ScriptErrorKind::BadArguments`] error, at the line the
    /// declaration would have taken, if the class or a field name would
    /// not read back as one script token, or a field name repeats.
    pub fn register_class(&mut self, name: &str, fields: &[&str]) -> Result<ClassId, ScriptError> {
        let line = || self.script.lines().count() + 1;
        let bad = |msg: String| ScriptError::new(line(), ScriptErrorKind::BadArguments(msg));
        if let Some(n) = std::iter::once(&name)
            .chain(fields)
            .find(|n| !is_identifier(n))
        {
            return Err(bad(format!("`{n}` is not a script identifier")));
        }
        if let Some((i, f)) = fields
            .iter()
            .enumerate()
            .find(|(i, f)| fields[..*i].contains(f))
        {
            return Err(bad(format!("field `{f}` repeats at position {i}")));
        }
        let declared = self.vm.registry().lookup(name).is_some();
        let id = self.vm.register_class(name, fields);
        if !declared {
            let fields: String = fields.iter().map(|f| format!(" {f}")).collect();
            self.line(format_args!("class {name}{fields}"));
        }
        Ok(id)
    }

    /// Allocates on the main mutator, with one reference slot per field
    /// the class declares (as the script's `new` does).
    ///
    /// # Errors
    ///
    /// As [`Vm::alloc`].
    pub fn alloc(&mut self, class: ClassId, data: usize) -> Result<ObjRef, VmError> {
        let nrefs = self.vm.registry().info(class).field_names().len();
        let main = self.vm.main();
        let obj = self.vm.alloc(main, class, nrefs, data)?;
        let id = self.next_id;
        self.next_id += 1;
        self.ids.insert(obj, id);
        let class = self.vm.registry().name(class).to_owned();
        if data == 0 {
            self.line(format_args!("new o{id} {class}"));
        } else {
            self.line(format_args!("new o{id} {class} {data}"));
        }
        Ok(obj)
    }

    /// Writes a reference field.
    ///
    /// # Errors
    ///
    /// As [`Vm::set_field`].
    pub fn set_field(&mut self, obj: ObjRef, field: usize, value: ObjRef) -> Result<(), VmError> {
        self.vm.set_field(obj, field, value)?;
        let class = self.vm.class_of(obj)?;
        let field = self.vm.registry().info(class).field_name(field);
        let var = self.var(obj);
        let value = if value.is_null() {
            "null".to_owned()
        } else {
            self.var(value)
        };
        self.line(format_args!("set {var}.{field} {value}"));
        Ok(())
    }

    /// Writes a data word.
    ///
    /// # Errors
    ///
    /// As [`Vm::set_data_word`].
    pub fn set_data_word(&mut self, obj: ObjRef, index: usize, value: u64) -> Result<(), VmError> {
        self.vm.set_data_word(obj, index, value)?;
        let var = self.var(obj);
        self.line(format_args!("data {var} {index} {value}"));
        Ok(())
    }

    /// Roots `obj` on the main mutator's current frame.
    ///
    /// # Errors
    ///
    /// As [`Vm::add_root`].
    pub fn add_root(&mut self, obj: ObjRef) -> Result<usize, VmError> {
        let main = self.vm.main();
        let slot = self.vm.add_root(main, obj)?;
        let var = self.var(obj);
        self.line(format_args!("root {var}"));
        Ok(slot)
    }

    /// Pushes a root frame on the main mutator.
    ///
    /// # Errors
    ///
    /// As [`Vm::push_frame`].
    pub fn push_frame(&mut self) -> Result<(), VmError> {
        let main = self.vm.main();
        self.vm.push_frame(main)?;
        self.line(format_args!("frame"));
        Ok(())
    }

    /// Pops the main mutator's top root frame.
    ///
    /// # Errors
    ///
    /// As [`Vm::pop_frame`].
    pub fn pop_frame(&mut self) -> Result<(), VmError> {
        let main = self.vm.main();
        self.vm.pop_frame(main)?;
        self.line(format_args!("end-frame"));
        Ok(())
    }

    /// Adds a global root.
    ///
    /// # Errors
    ///
    /// As [`Vm::add_global`].
    pub fn add_global(&mut self, obj: ObjRef) -> Result<(), VmError> {
        self.vm.add_global(obj)?;
        let var = self.var(obj);
        self.line(format_args!("global {var}"));
        Ok(())
    }

    /// Removes a global root.
    ///
    /// # Errors
    ///
    /// As [`Vm::remove_global`].
    pub fn remove_global(&mut self, obj: ObjRef) -> Result<(), VmError> {
        self.vm.remove_global(obj)?;
        let var = self.var(obj);
        self.line(format_args!("unglobal {var}"));
        Ok(())
    }

    /// Records `assert_dead`.
    ///
    /// # Errors
    ///
    /// As [`Vm::assert_dead`].
    pub fn assert_dead(&mut self, obj: ObjRef) -> Result<(), VmError> {
        self.vm.assert_dead(obj)?;
        let var = self.var(obj);
        self.line(format_args!("assert-dead {var}"));
        Ok(())
    }

    /// Records `assert_unshared`.
    ///
    /// # Errors
    ///
    /// As [`Vm::assert_unshared`].
    pub fn assert_unshared(&mut self, obj: ObjRef) -> Result<(), VmError> {
        self.vm.assert_unshared(obj)?;
        let var = self.var(obj);
        self.line(format_args!("assert-unshared {var}"));
        Ok(())
    }

    /// Records `assert_instances`.
    ///
    /// # Errors
    ///
    /// As [`Vm::assert_instances`].
    pub fn assert_instances(&mut self, class: ClassId, limit: u32) -> Result<(), VmError> {
        self.vm.assert_instances(class, limit)?;
        let class = self.vm.registry().name(class).to_owned();
        self.line(format_args!("assert-instances {class} {limit}"));
        Ok(())
    }

    /// Records `assert_owned_by`.
    ///
    /// # Errors
    ///
    /// As [`Vm::assert_owned_by`].
    pub fn assert_owned_by(&mut self, owner: ObjRef, ownee: ObjRef) -> Result<(), VmError> {
        self.vm.assert_owned_by(owner, ownee)?;
        let (owner, ownee) = (self.var(owner), self.var(ownee));
        self.line(format_args!("assert-owned-by {owner} {ownee}"));
        Ok(())
    }

    /// Records `release_ownee`.
    ///
    /// # Errors
    ///
    /// As [`Vm::release_ownee`].
    pub fn release_ownee(&mut self, ownee: ObjRef) -> Result<bool, VmError> {
        let was = self.vm.release_ownee(ownee)?;
        let var = self.var(ownee);
        self.line(format_args!("release-ownee {var}"));
        Ok(was)
    }

    /// Records `start_region` on the main mutator.
    ///
    /// # Errors
    ///
    /// As [`Vm::start_region`].
    pub fn start_region(&mut self) -> Result<(), VmError> {
        let main = self.vm.main();
        self.vm.start_region(main)?;
        self.line(format_args!("start-region"));
        Ok(())
    }

    /// Records `assert_alldead` on the main mutator.
    ///
    /// # Errors
    ///
    /// As [`Vm::assert_alldead`].
    pub fn assert_alldead(&mut self) -> Result<usize, VmError> {
        let main = self.vm.main();
        let n = self.vm.assert_alldead(main)?;
        self.line(format_args!("all-dead"));
        Ok(n)
    }

    /// Records an explicit collection.
    ///
    /// # Errors
    ///
    /// As [`Vm::collect`].
    pub fn collect(&mut self) -> Result<GcReport, VmError> {
        let report = self.vm.collect()?;
        self.line(format_args!("gc"));
        Ok(report)
    }

    /// Records an explicit minor collection.
    ///
    /// # Errors
    ///
    /// As [`Vm::collect_minor`].
    pub fn collect_minor(&mut self) -> Result<MinorStats, VmError> {
        let stats = self.vm.collect_minor()?;
        self.line(format_args!("minor-gc"));
        Ok(stats)
    }
}

/// Runs a recorded script on a fresh VM started from `config` and
/// returns that VM.
///
/// # Errors
///
/// The first [`ScriptError`] — typically a sign that `config` reclaims
/// more aggressively than the recording did, or lacks what the script
/// uses (assertions under Base mode); see [`Recorder`] for the fidelity
/// contract.
pub fn replay(script: &str, config: VmConfig) -> Result<Vm, ScriptError> {
    let mut interp = Interpreter::with_config(config);
    interp.run(script)?;
    Ok(interp.into_vm())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_replay_same_config_is_identical() {
        let mut rec = Recorder::new(VmConfig::builder().build());
        let c = rec.register_class("T", &["f"]).unwrap();
        let a = rec.alloc(c, 2).unwrap();
        rec.add_root(a).unwrap();
        let b = rec.alloc(c, 0).unwrap();
        rec.set_field(a, 0, b).unwrap();
        rec.set_data_word(a, 1, 99).unwrap();
        rec.assert_unshared(b).unwrap();
        rec.collect().unwrap();
        let (vm, script) = rec.finish();
        assert_eq!(
            script,
            "class T f\nnew o0 T 2\nroot o0\nnew o1 T\nset o0.f o1\ndata o0 1 99\n\
             assert-unshared o1\ngc\n"
        );

        let replayed = replay(&script, VmConfig::builder().build()).unwrap();
        assert_eq!(
            vm.heap_stats().allocations,
            replayed.heap_stats().allocations
        );
        assert_eq!(vm.collections(), replayed.collections());
        assert_eq!(vm.violation_log().len(), replayed.violation_log().len());
        assert_eq!(vm.heap().live_objects(), replayed.heap().live_objects());
        assert_eq!(replayed.data_word(a, 1).unwrap(), 99);
    }

    #[test]
    fn production_summary_lab_forensics() {
        // Record with paths off; replay with paths on and get the path.
        let mut rec = Recorder::new(VmConfig::builder().path_tracking(false).build());
        let holder = rec.register_class("Holder", &["keep"]).unwrap();
        let order = rec.register_class("Order", &[]).unwrap();
        let h = rec.alloc(holder, 0).unwrap();
        rec.add_root(h).unwrap();
        let o = rec.alloc(order, 0).unwrap();
        rec.set_field(h, 0, o).unwrap();
        rec.assert_dead(o).unwrap();
        rec.collect().unwrap();
        let (vm, script) = rec.finish();
        assert_eq!(vm.violation_log().len(), 1);
        assert!(vm.violation_log()[0].path.is_empty());

        let lab = replay(&script, VmConfig::builder().path_tracking(true).build()).unwrap();
        assert_eq!(lab.violation_log().len(), 1);
        let text = lab.violation_log()[0].render(lab.registry());
        assert!(text.contains("Holder"), "{text}");
        assert!(text.contains(".keep Order"), "{text}");
    }

    #[test]
    fn regions_and_mutators_replay() {
        let mut rec = Recorder::new(VmConfig::builder().build());
        let c = rec.register_class("Req", &[]).unwrap();
        rec.start_region().unwrap();
        rec.push_frame().unwrap();
        let r = rec.alloc(c, 4).unwrap();
        rec.add_root(r).unwrap();
        rec.pop_frame().unwrap();
        assert_eq!(rec.assert_alldead().unwrap(), 1);
        rec.collect().unwrap();
        let (vm, script) = rec.finish();
        assert!(vm.violation_log().is_empty());

        let replayed = replay(&script, VmConfig::builder().build()).unwrap();
        assert!(replayed.violation_log().is_empty());
        assert_eq!(replayed.assertion_calls().region_objects, 1);
    }

    #[test]
    fn replay_under_base_mode_fails_on_assertions() {
        // Base mode has no assertion API: replaying an asserting script
        // under it is an error at the assertion's line, not a panic.
        let mut rec = Recorder::new(VmConfig::builder().build());
        let c = rec.register_class("T", &[]).unwrap();
        let a = rec.alloc(c, 0).unwrap();
        rec.assert_dead(a).unwrap();
        let (_, script) = rec.finish();
        let err = replay(
            &script,
            VmConfig::builder().mode(gc_assertions::Mode::Base).build(),
        )
        .unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn ownership_history_replays() {
        let mut rec = Recorder::new(VmConfig::builder().build());
        let c = rec.register_class("C", &["e"]).unwrap();
        let owner = rec.alloc(c, 0).unwrap();
        rec.add_root(owner).unwrap();
        let e = rec.alloc(c, 0).unwrap();
        rec.set_field(owner, 0, e).unwrap();
        rec.assert_owned_by(owner, e).unwrap();
        rec.collect().unwrap();
        // Leak it.
        let keeper = rec.alloc(c, 0).unwrap();
        rec.add_root(keeper).unwrap();
        rec.set_field(keeper, 0, e).unwrap();
        rec.set_field(owner, 0, ObjRef::NULL).unwrap();
        rec.collect().unwrap();
        let (vm, script) = rec.finish();
        assert_eq!(vm.violation_log().len(), 1);
        assert!(script.contains("set o0.e null\n"), "{script}");

        let replayed = replay(&script, VmConfig::builder().build()).unwrap();
        assert_eq!(replayed.violation_log().len(), 1);
    }

    #[test]
    fn unreadable_names_are_errors_at_register_class() {
        let mut rec = Recorder::new(VmConfig::builder().build());
        rec.register_class("Ok", &["f"]).unwrap();
        for (name, fields) in [
            ("Two words", &[][..]),
            ("", &[][..]),
            ("Hash#tag", &[][..]),
            ("T", &["a.b"][..]),
            ("T", &["f", "f"][..]),
        ] {
            let e = rec.register_class(name, fields).unwrap_err();
            assert_eq!(e.line, 2, "{name:?} {fields:?}");
            assert!(matches!(e.kind, ScriptErrorKind::BadArguments(_)), "{e}");
        }
        // Nothing was declared for the rejected names.
        assert_eq!(rec.script(), "class Ok f\n");
        assert!(rec.vm().registry().lookup("T").is_none());
    }

    #[test]
    fn failed_operations_are_not_recorded() {
        let mut rec = Recorder::new(VmConfig::builder().build());
        let c = rec.register_class("T", &[]).unwrap();
        let a = rec.alloc(c, 0).unwrap();
        assert!(rec.pop_frame().is_err(), "the bottom frame cannot pop");
        assert!(rec.set_field(a, 0, a).is_err(), "T has no field 0");
        assert_eq!(rec.script(), "class T\nnew o0 T\n");
        crate::Interpreter::run_script(rec.script()).unwrap();
    }
}
