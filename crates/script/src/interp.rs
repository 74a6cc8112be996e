//! The script interpreter: executes commands against a [`Vm`].

use std::collections::HashMap;

use gc_assertions::{ClassId, CollectorKind, GcReport, Mode, ObjRef, Reaction, Vm, VmConfig};

use crate::ast::{
    parse_script, too_deep_message, Command, Target, MAX_BLOCK_NESTING, MAX_BODY_DEPTH,
    MAX_CALL_DEPTH,
};
use crate::error::{ScriptError, ScriptErrorKind};

/// Everything a script run produced: the printed lines and final state
/// summaries, for asserting on in tests or printing from the CLI.
#[derive(Debug, Default)]
pub struct Output {
    /// Lines the script emitted (`gc`, `probe`, `print` commands).
    pub lines: Vec<String>,
    /// Total violations across the run.
    pub total_violations: usize,
    /// Major collections performed.
    pub collections: u64,
    /// Minor collections performed.
    pub minor_collections: u64,
    /// One entry per explicit `gc` command, in execution order: the
    /// script line of the `gc` and the summaries of the violations that
    /// collection reported.  Loops and procedure calls append one entry
    /// per *dynamic* execution, so a `gc` inside `repeat 3` appears
    /// three times under the same line — this is what the differential
    /// soundness harness aligns the analyzer's predictions against.
    pub explicit_gcs: Vec<(usize, Vec<String>)>,
}

/// Which structured block an open [`Recording`] belongs to.
#[derive(Debug, Clone)]
enum BlockKind {
    /// `repeat <n>` … `end-repeat`: replay the body `n` times on close.
    Repeat { count: usize },
    /// `proc <name>` … `end-proc`: store the body for later `call`s.
    Proc { name: String },
}

/// A block body being recorded.  While a recording is open, commands are
/// buffered instead of executed; the matching `end-repeat`/`end-proc`
/// closes it and the body is replayed (repeat) or stored (proc).  Nested
/// blocks stay flat in the buffer — replay re-records them naturally.
#[derive(Debug)]
struct Recording {
    kind: BlockKind,
    /// Line of the opening `repeat`/`proc`, for unclosed-block errors.
    line: usize,
    /// Openers nested inside the body: `true` for `repeat`, `false` for
    /// `proc`.  Used to match each `end-*` against the right opener.
    open: Vec<bool>,
    body: Vec<(usize, Command)>,
}

#[derive(Debug, Clone)]
struct ClassDecl {
    id: ClassId,
    fields: Vec<String>,
}

/// The interpreter: owns the VM and the script's variable bindings.
///
/// # Example
///
/// ```
/// use gca_script::Interpreter;
///
/// let out = Interpreter::run_script(
///     "class T\nnew a T\nassert-dead a\ngc\nexpect-violations 0\nexpect-dead a\n",
/// )
/// .unwrap();
/// assert_eq!(out.total_violations, 0);
/// assert_eq!(out.collections, 1);
/// ```
#[derive(Debug)]
pub struct Interpreter {
    config: VmConfig,
    vm: Option<Vm>,
    vars: HashMap<String, ObjRef>,
    classes: HashMap<String, ClassDecl>,
    last_report: Option<GcReport>,
    output: Output,
    /// The block currently being recorded, if a `repeat`/`proc` is open.
    recording: Option<Recording>,
    /// Procedure bodies by name, recorded by `proc` … `end-proc`.
    procs: HashMap<String, Vec<(usize, Command)>>,
    /// Current dynamic `call` nesting depth.
    call_depth: usize,
    /// `call` and `repeat` bodies running inside one another.
    body_depth: usize,
    /// Depth bound: a `call` at this depth is a silent no-op, which is
    /// what makes unconditionally recursive procedures terminate.
    call_limit: usize,
}

/// Default `call` depth bound; override with `config call-depth <n>`.
const DEFAULT_CALL_LIMIT: usize = 16;

impl Interpreter {
    /// Creates an interpreter with the default VM configuration (tweak it
    /// with `config` commands before the first executing command).
    pub fn new() -> Interpreter {
        Interpreter::with_config(VmConfig::builder().build())
    }

    /// Creates an interpreter whose VM starts from `config`; the script's
    /// own `config` lines still apply on top of it.
    pub fn with_config(config: VmConfig) -> Interpreter {
        Interpreter {
            config,
            vm: None,
            vars: HashMap::new(),
            classes: HashMap::new(),
            last_report: None,
            output: Output::default(),
            recording: None,
            procs: HashMap::new(),
            call_depth: 0,
            body_depth: 0,
            call_limit: DEFAULT_CALL_LIMIT,
        }
    }

    /// Parses and executes `src`, returning the collected output.
    ///
    /// # Errors
    ///
    /// The first parse error, VM error, or failed expectation — tagged
    /// with its script line.
    pub fn run_script(src: &str) -> Result<Output, ScriptError> {
        let mut interp = Interpreter::new();
        interp.run(src)?;
        Ok(interp.finish())
    }

    /// Parses and executes `src` to the end, failing on a block left
    /// open.
    pub(crate) fn run(&mut self, src: &str) -> Result<(), ScriptError> {
        for (line, cmd) in parse_script(src)? {
            self.execute(line, &cmd)?;
        }
        if let Some(rec) = &self.recording {
            let msg = match &rec.kind {
                BlockKind::Repeat { .. } => {
                    "`repeat` opened here is never closed by `end-repeat`".to_owned()
                }
                BlockKind::Proc { name } => {
                    format!("`proc {name}` opened here is never closed by `end-proc`")
                }
            };
            return Err(ScriptError::new(
                rec.line,
                ScriptErrorKind::BadArguments(msg),
            ));
        }
        Ok(())
    }

    /// Finishes the run, yielding the output.
    pub fn finish(mut self) -> Output {
        if let Some(vm) = &self.vm {
            self.output.total_violations = vm.violation_log().len();
            self.output.collections = vm.collections();
            self.output.minor_collections = vm.minor_collections();
        }
        self.output
    }

    fn vm(&mut self) -> &mut Vm {
        self.vm.get_or_insert_with(|| Vm::new(self.config.clone()))
    }

    /// The VM, started now if no command has started it yet.
    pub(crate) fn into_vm(mut self) -> Vm {
        self.vm();
        self.vm.expect("just started")
    }

    /// The report from the most recent explicit `gc` command, if any.
    pub fn last_report(&self) -> Option<&GcReport> {
        self.last_report.as_ref()
    }

    /// The VM, if any command has started it yet.
    pub fn vm_ref(&self) -> Option<&Vm> {
        self.vm.as_ref()
    }

    /// Whether a `repeat`/`proc` recording is open — commands fed now
    /// are buffered, not executed.  (`gca suggest` uses this to tell
    /// top-level anchor steps from loop-body commands.)
    pub(crate) fn is_recording(&self) -> bool {
        self.recording.is_some()
    }

    /// The object currently bound to `name`, if any.
    pub(crate) fn binding(&self, name: &str) -> Option<ObjRef> {
        self.vars.get(name).copied()
    }

    /// The declared class id for `name`, if any.
    pub(crate) fn class_id(&self, name: &str) -> Option<ClassId> {
        self.classes.get(name).map(|c| c.id)
    }

    /// Mutable VM access for immediate heap probes, if started.
    pub(crate) fn vm_mut_opt(&mut self) -> Option<&mut Vm> {
        self.vm.as_mut()
    }

    fn var(&self, line: usize, name: &str) -> Result<ObjRef, ScriptError> {
        self.vars.get(name).copied().ok_or_else(|| {
            ScriptError::new(line, ScriptErrorKind::UnknownVariable(name.to_owned()))
        })
    }

    fn class(&self, line: usize, name: &str) -> Result<&ClassDecl, ScriptError> {
        self.classes
            .get(name)
            .ok_or_else(|| ScriptError::new(line, ScriptErrorKind::UnknownClass(name.to_owned())))
    }

    fn vm_err(line: usize) -> impl Fn(gc_assertions::VmError) -> ScriptError {
        move |e| ScriptError::new(line, ScriptErrorKind::Vm(e.to_string()))
    }

    fn expect_failed(line: usize, msg: String) -> ScriptError {
        ScriptError::new(line, ScriptErrorKind::ExpectationFailed(msg))
    }

    fn apply_config(&mut self, line: usize, key: &str, value: &str) -> Result<(), ScriptError> {
        if self.vm.is_some() {
            return Err(ScriptError::new(line, ScriptErrorKind::ConfigAfterStart));
        }
        let bad = |msg: &str| ScriptError::new(line, ScriptErrorKind::BadArguments(msg.to_owned()));
        let cfg = self.config.clone();
        let cfg = match key {
            "heap" => cfg.heap_budget_words(value.parse().map_err(|_| bad("heap <words>"))?),
            "grow" => cfg.grow_on_oom(parse_bool(value).ok_or_else(|| bad("grow on|off"))?),
            "report-once" => {
                cfg.report_once(parse_bool(value).ok_or_else(|| bad("report-once on|off"))?)
            }
            "path-tracking" => {
                cfg.path_tracking(parse_bool(value).ok_or_else(|| bad("path-tracking on|off"))?)
            }
            "strict-owner-lifetime" => cfg.strict_owner_lifetime(
                parse_bool(value).ok_or_else(|| bad("strict-owner-lifetime on|off"))?,
            ),
            "generational" => cfg.generational(value.parse().map_err(|_| bad("generational <n>"))?),
            "collector" => cfg.collector(match value {
                "mark-sweep" | "marksweep" => CollectorKind::MarkSweep,
                "copying" => CollectorKind::Copying,
                _ => return Err(bad("collector mark-sweep|copying")),
            }),
            "reaction" => cfg.reaction(match value {
                "log" => Reaction::Log,
                "halt" => Reaction::Halt,
                "force-true" => Reaction::ForceTrue,
                _ => return Err(bad("reaction log|halt|force-true")),
            }),
            "mode" => cfg.mode(match value {
                "base" => Mode::Base,
                "instrumented" => Mode::Instrumented,
                _ => return Err(bad("mode base|instrumented")),
            }),
            "gc-threads" => cfg.gc_threads(value.parse().map_err(|_| bad("gc-threads <workers>"))?),
            "call-depth" => {
                self.call_limit = value
                    .parse()
                    .ok()
                    .filter(|&n| n <= MAX_CALL_DEPTH)
                    .ok_or_else(|| bad(&format!("call-depth <n>, at most {MAX_CALL_DEPTH}")))?;
                cfg
            }
            _ => return Err(bad("unknown config key")),
        };
        cfg.validate().map_err(bad)?;
        self.config = cfg;
        Ok(())
    }

    /// Executes one command.
    ///
    /// While a `repeat`/`proc` block is open this *records* the command
    /// instead of running it; the matching `end-repeat` replays the body
    /// the requested number of times and `end-proc` stores it for later
    /// `call`s.  The method is therefore safe to feed one line at a time
    /// from a flat [`parse_script`] stream.
    ///
    /// # Errors
    ///
    /// VM errors, failed expectations, and block-structure errors
    /// (mismatched or stray `end-repeat`/`end-proc`, `call` of an
    /// undefined proc), tagged with `line`.
    pub fn execute(&mut self, line: usize, cmd: &Command) -> Result<(), ScriptError> {
        if self.recording.is_some() {
            return match self.record(line, cmd) {
                Ok(Some(closed)) => self.run_repeat(closed),
                other => other.map(|_| ()),
            };
        }
        // Every other arm lives in its own function: `execute` is on the
        // native stack once per running `call`/`repeat` body, so its
        // frame stays small.
        match cmd {
            Command::Repeat(_) | Command::Proc(_) | Command::EndRepeat | Command::EndProc => {
                self.open_block(line, cmd)
            }
            Command::Call(name) => self.run_call(line, name),
            _ => self.execute_one(line, cmd),
        }
    }

    /// Opens a `repeat`/`proc` recording; a stray closer is an error.
    fn open_block(&mut self, line: usize, cmd: &Command) -> Result<(), ScriptError> {
        let kind = match cmd {
            Command::Repeat(count) => BlockKind::Repeat { count: *count },
            Command::Proc(name) => BlockKind::Proc { name: name.clone() },
            _ => {
                let opener = if matches!(cmd, Command::EndRepeat) {
                    "repeat"
                } else {
                    "proc"
                };
                return Err(ScriptError::new(
                    line,
                    ScriptErrorKind::BadArguments(format!(
                        "end-{opener} without an open `{opener}`"
                    )),
                ));
            }
        };
        self.recording = Some(Recording {
            kind,
            line,
            open: Vec::new(),
            body: Vec::new(),
        });
        Ok(())
    }

    /// Buffers `cmd` into the open recording, closing the block when the
    /// matching `end-repeat`/`end-proc` arrives: a closed `proc` is
    /// stored, a closed `repeat` is returned for the caller to run.
    fn record(&mut self, line: usize, cmd: &Command) -> Result<Option<Recording>, ScriptError> {
        let rec = self.recording.as_mut().expect("recording is open");
        let closes_repeat = match cmd {
            Command::Repeat(_) | Command::Proc(_) => {
                // The outermost open block is level 1.
                if rec.open.len() + 2 > MAX_BLOCK_NESTING {
                    return Err(ScriptError::new(
                        line,
                        ScriptErrorKind::BadArguments(format!(
                            "blocks nest deeper than {MAX_BLOCK_NESTING} levels"
                        )),
                    ));
                }
                rec.open.push(matches!(cmd, Command::Repeat(_)));
                rec.body.push((line, cmd.clone()));
                return Ok(None);
            }
            Command::EndRepeat => true,
            Command::EndProc => false,
            _ => {
                rec.body.push((line, cmd.clone()));
                return Ok(None);
            }
        };
        let mismatch = |line: usize, closes_repeat: bool| {
            let msg = if closes_repeat {
                "end-repeat cannot close a `proc` (use end-proc)"
            } else {
                "end-proc cannot close a `repeat` (use end-repeat)"
            };
            ScriptError::new(line, ScriptErrorKind::BadArguments(msg.to_owned()))
        };
        if let Some(opener_is_repeat) = rec.open.pop() {
            // Closes a block nested inside the body: keep recording.
            if opener_is_repeat != closes_repeat {
                return Err(mismatch(line, closes_repeat));
            }
            rec.body.push((line, cmd.clone()));
            return Ok(None);
        }
        // Closes the outermost open block.
        if matches!(rec.kind, BlockKind::Repeat { .. }) != closes_repeat {
            return Err(mismatch(line, closes_repeat));
        }
        let rec = self.recording.take().expect("recording is open");
        match rec.kind {
            BlockKind::Repeat { .. } => return Ok(Some(rec)),
            BlockKind::Proc { name } => {
                self.procs.insert(name, rec.body);
            }
        }
        Ok(None)
    }

    /// Runs a closed `repeat` body its count of times.
    fn run_repeat(&mut self, rec: Recording) -> Result<(), ScriptError> {
        let BlockKind::Repeat { count } = rec.kind else {
            unreachable!("only a closed `repeat` is replayed")
        };
        self.enter_body(rec.line)?;
        let mut result = Ok(());
        'replay: for _ in 0..count {
            for (l, c) in &rec.body {
                result = self.execute(*l, c);
                if result.is_err() {
                    break 'replay;
                }
            }
        }
        self.body_depth -= 1;
        result
    }

    /// Runs a recorded procedure body; a call at the depth bound is a
    /// silent no-op, so unconditionally recursive procs terminate.
    fn run_call(&mut self, line: usize, name: &str) -> Result<(), ScriptError> {
        let body = self.procs.get(name).cloned().ok_or_else(|| {
            ScriptError::new(
                line,
                ScriptErrorKind::BadArguments(format!(
                    "call of undefined proc `{name}` (define it with `proc {name}` first)"
                )),
            )
        })?;
        if self.call_depth >= self.call_limit {
            return Ok(());
        }
        self.enter_body(line)?;
        self.call_depth += 1;
        let mut result = Ok(());
        for (l, c) in &body {
            result = self.execute(*l, c);
            if result.is_err() {
                break;
            }
        }
        self.call_depth -= 1;
        self.body_depth -= 1;
        result
    }

    /// Counts one more `call`/`repeat` body running, or fails at `line`
    /// past [`MAX_BODY_DEPTH`] (each body is a level of native stack).
    fn enter_body(&mut self, line: usize) -> Result<(), ScriptError> {
        if self.body_depth >= MAX_BODY_DEPTH {
            return Err(ScriptError::new(
                line,
                ScriptErrorKind::BadArguments(too_deep_message()),
            ));
        }
        self.body_depth += 1;
        Ok(())
    }

    /// Executes one non-structural command against the VM.
    fn execute_one(&mut self, line: usize, cmd: &Command) -> Result<(), ScriptError> {
        let ve = Self::vm_err(line);
        match cmd {
            Command::Config { key, value } => self.apply_config(line, key, value)?,
            Command::Class { name, fields } => {
                let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
                let id = self.vm().register_class(name, &refs);
                self.classes.insert(
                    name.clone(),
                    ClassDecl {
                        id,
                        fields: fields.clone(),
                    },
                );
            }
            Command::New {
                var,
                class,
                data_words,
            } => {
                let decl = self.class(line, class)?.clone();
                let m = self.vm().main();
                let nrefs = decl.fields.len();
                let obj = self
                    .vm()
                    .alloc(m, decl.id, nrefs, *data_words)
                    .map_err(&ve)?;
                self.vars.insert(var.clone(), obj);
            }
            Command::Set { var, field, value } => {
                let obj = self.var(line, var)?;
                let class_id = self.vm().class_of(obj).map_err(&ve)?;
                let decl = self
                    .classes
                    .values()
                    .find(|d| d.id == class_id)
                    .cloned()
                    .ok_or_else(|| {
                        ScriptError::new(
                            line,
                            ScriptErrorKind::UnknownClass(format!("{class_id:?}")),
                        )
                    })?;
                let idx = decl.fields.iter().position(|f| f == field).ok_or_else(|| {
                    let class_name = self
                        .classes
                        .iter()
                        .find(|(_, d)| d.id == class_id)
                        .map(|(n, _)| n.clone())
                        .unwrap_or_default();
                    ScriptError::new(
                        line,
                        ScriptErrorKind::UnknownField {
                            class: class_name,
                            field: field.clone(),
                        },
                    )
                })?;
                let value = match value {
                    Target::Null => ObjRef::NULL,
                    Target::Var(v) => self.var(line, v)?,
                };
                self.vm().set_field(obj, idx, value).map_err(&ve)?;
            }
            Command::Data { var, index, value } => {
                let obj = self.var(line, var)?;
                self.vm().set_data_word(obj, *index, *value).map_err(&ve)?;
            }
            Command::Root(var) => {
                let obj = self.var(line, var)?;
                let m = self.vm().main();
                self.vm().add_root(m, obj).map_err(&ve)?;
            }
            Command::Frame => {
                let m = self.vm().main();
                self.vm().push_frame(m).map_err(&ve)?;
            }
            Command::EndFrame => {
                let m = self.vm().main();
                self.vm().pop_frame(m).map_err(&ve)?;
            }
            Command::Global(var) => {
                let obj = self.var(line, var)?;
                self.vm().add_global(obj).map_err(&ve)?;
            }
            Command::Unglobal(var) => {
                let obj = self.var(line, var)?;
                self.vm().remove_global(obj).map_err(&ve)?;
            }
            Command::AssertDead(var) => {
                let obj = self.var(line, var)?;
                self.vm().assert_dead(obj).map_err(&ve)?;
            }
            Command::AssertUnshared(var) => {
                let obj = self.var(line, var)?;
                self.vm().assert_unshared(obj).map_err(&ve)?;
            }
            Command::AssertInstances { class, limit } => {
                let id = self.class(line, class)?.id;
                self.vm().assert_instances(id, *limit).map_err(&ve)?;
            }
            Command::AssertOwnedBy { owner, ownee } => {
                let o = self.var(line, owner)?;
                let e = self.var(line, ownee)?;
                self.vm().assert_owned_by(o, e).map_err(&ve)?;
            }
            Command::ReleaseOwnee(var) => {
                let obj = self.var(line, var)?;
                self.vm().release_ownee(obj).map_err(&ve)?;
            }
            Command::StartRegion => {
                let m = self.vm().main();
                self.vm().start_region(m).map_err(&ve)?;
            }
            Command::AllDead => {
                let m = self.vm().main();
                let n = self.vm().assert_alldead(m).map_err(&ve)?;
                self.output
                    .lines
                    .push(format!("all-dead: {n} object(s) asserted"));
            }
            Command::Copy { dst, src } => {
                let obj = self.var(line, src)?;
                self.vars.insert(dst.clone(), obj);
            }
            Command::Gc => {
                let report = self.vm().collect().map_err(&ve)?;
                self.output.lines.push(format!("gc: {report}"));
                self.output.explicit_gcs.push((
                    line,
                    report.violations.iter().map(|v| v.summary()).collect(),
                ));
                self.last_report = Some(report);
            }
            Command::MinorGc => {
                let stats = self.vm().collect_minor().map_err(&ve)?;
                self.output.lines.push(format!(
                    "minor-gc: {} promoted, {} swept",
                    stats.promoted, stats.objects_swept
                ));
            }
            Command::Probe(var) => {
                let obj = self.var(line, var)?;
                let path = self.vm().probe_path(obj).map_err(&ve)?;
                let msg = {
                    let vm = self.vm.as_ref().expect("vm started");
                    match path {
                        Some(p) => format!("probe {var}: {}", p.display(vm.registry())),
                        None => format!("probe {var}: unreachable"),
                    }
                };
                self.output.lines.push(msg);
            }
            Command::Print => {
                let vm = self.vm.as_ref();
                if let (Some(vm), Some(report)) = (vm, &self.last_report) {
                    self.output.lines.push(format!("report: {report}"));
                    for v in &report.violations {
                        self.output.lines.push(v.render(vm.registry()));
                    }
                } else {
                    self.output
                        .lines
                        .push("report: (no collection yet)".to_owned());
                }
            }
            Command::Histogram => {
                let vm = self.vm();
                let mut by_class: std::collections::HashMap<String, (usize, usize)> =
                    std::collections::HashMap::new();
                for (_, obj) in vm.heap().iter() {
                    let name = vm.heap().registry().name(obj.class()).to_owned();
                    let e = by_class.entry(name).or_default();
                    e.0 += 1;
                    e.1 += obj.size_words();
                }
                let mut rows: Vec<(String, usize, usize)> =
                    by_class.into_iter().map(|(k, (n, w))| (k, n, w)).collect();
                rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
                for (class, n, words) in rows {
                    self.output
                        .lines
                        .push(format!("histogram: {class} x{n} ({words} words)"));
                }
            }
            Command::Stats => {
                let vm = self.vm();
                let line = format!(
                    "stats: {} live objects, {} words occupied, {} allocations, {} majors, {} minors",
                    vm.heap().live_objects(),
                    vm.heap().occupied_words(),
                    vm.heap_stats().allocations,
                    vm.collections(),
                    vm.minor_collections(),
                );
                self.output.lines.push(line);
            }
            Command::ExpectViolations(n) => {
                let got = self
                    .last_report
                    .as_ref()
                    .map(|r| r.violations.len())
                    .unwrap_or(0);
                if got != *n {
                    return Err(Self::expect_failed(
                        line,
                        format!("expected {n} violation(s) in the last gc, got {got}"),
                    ));
                }
            }
            Command::ExpectTotalViolations(n) => {
                let got = self.vm().violation_log().len();
                if got != *n {
                    return Err(Self::expect_failed(
                        line,
                        format!("expected {n} total violation(s), got {got}"),
                    ));
                }
            }
            Command::ExpectLive(var) => {
                let obj = self.var(line, var)?;
                if !self.vm().is_live(obj) {
                    return Err(Self::expect_failed(
                        line,
                        format!("`{var}` was reclaimed but expected live"),
                    ));
                }
            }
            Command::ExpectDead(var) => {
                let obj = self.var(line, var)?;
                if self.vm().is_live(obj) {
                    return Err(Self::expect_failed(
                        line,
                        format!("`{var}` is live but expected reclaimed"),
                    ));
                }
            }
            Command::ExpectInstances { class, count } => {
                let id = self.class(line, class)?.id;
                let got = self.vm().probe_instances(id).map_err(&ve)?;
                if got != *count {
                    return Err(Self::expect_failed(
                        line,
                        format!("expected {count} live {class} instance(s), found {got}"),
                    ));
                }
            }
            Command::Repeat(_)
            | Command::EndRepeat
            | Command::Proc(_)
            | Command::EndProc
            | Command::Call(_) => {
                unreachable!("structured commands are dispatched by `execute`")
            }
        }
        Ok(())
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "on" | "true" | "yes" => Some(true),
        "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_scenario_end_to_end() {
        let out = Interpreter::run_script(
            "
class Registry entries
class Session user
class Cache hit
new r Registry
root r
new s Session
set r.entries s
new c Cache
root c
set c.hit s
set r.entries null
assert-dead s
gc
expect-violations 1
expect-live s
set c.hit null
gc
expect-dead s
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 1);
        assert_eq!(out.collections, 2);
    }

    #[test]
    fn config_is_applied() {
        let out = Interpreter::run_script(
            "
config heap 128
config grow on
config generational 4
class T
new a T 8
minor-gc
",
        )
        .unwrap();
        assert_eq!(out.minor_collections, 1);
    }

    #[test]
    fn config_after_start_rejected() {
        let e = Interpreter::run_script("class T\nconfig heap 99\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.kind, ScriptErrorKind::ConfigAfterStart);
    }

    #[test]
    fn copying_config_conflicts_are_errors_at_the_second_line() {
        for (src, rule) in [
            (
                "config collector copying\nconfig gc-threads 2\n",
                "sequential",
            ),
            (
                "config gc-threads 2\nconfig collector copying\n",
                "sequential",
            ),
            (
                "config collector copying\nconfig generational 4\n",
                "full-heap",
            ),
            (
                "config generational 4\nconfig collector copying\n",
                "full-heap",
            ),
        ] {
            let e = Interpreter::run_script(src).unwrap_err();
            assert_eq!(e.line, 2, "{src}");
            assert!(
                matches!(&e.kind, ScriptErrorKind::BadArguments(msg) if msg.contains(rule)),
                "{src}: {e}"
            );
        }
    }

    #[test]
    fn unknown_names_are_errors_with_lines() {
        let e = Interpreter::run_script("class T\nnew a U\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ScriptErrorKind::UnknownClass(_)));

        let e = Interpreter::run_script("class T f\nnew a T\nset a.g a\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(matches!(e.kind, ScriptErrorKind::UnknownField { .. }));

        let e = Interpreter::run_script("root nobody\n").unwrap_err();
        assert!(matches!(e.kind, ScriptErrorKind::UnknownVariable(_)));
    }

    #[test]
    fn expectations_fail_with_message() {
        let e =
            Interpreter::run_script("class T\nnew a T\nroot a\ngc\nexpect-dead a\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert!(matches!(e.kind, ScriptErrorKind::ExpectationFailed(_)));
    }

    #[test]
    fn probe_prints_path_or_unreachable() {
        let out = Interpreter::run_script(
            "class T f\nnew a T\nroot a\nnew b T\nset a.f b\nprobe b\nset a.f null\nprobe b\n",
        )
        .unwrap();
        assert!(out.lines[0].contains("T"), "{:?}", out.lines);
        assert!(out.lines[1].contains("unreachable"));
    }

    #[test]
    fn frames_and_regions_work() {
        let out = Interpreter::run_script(
            "
class Buf
start-region
frame
new a Buf 8
root a
end-frame
all-dead
gc
expect-violations 0
",
        )
        .unwrap();
        assert!(out.lines.iter().any(|l| l.contains("all-dead: 1")));
    }

    #[test]
    fn histogram_and_stats_commands() {
        let out = Interpreter::run_script(
            "class Big\nclass Small\nnew a Big 20\nroot a\nnew b Small\nroot b\nnew c Small\nroot c\nhistogram\nstats\n",
        )
        .unwrap();
        let hist: Vec<&String> = out
            .lines
            .iter()
            .filter(|l| l.starts_with("histogram:"))
            .collect();
        assert_eq!(hist.len(), 2);
        assert!(hist[0].contains("Big x1 (22 words)"), "{hist:?}");
        assert!(hist[1].contains("Small x2"), "{hist:?}");
        let stats = out.lines.iter().find(|l| l.starts_with("stats:")).unwrap();
        assert!(stats.contains("3 live objects"), "{stats}");
        assert!(stats.contains("3 allocations"), "{stats}");
    }

    #[test]
    fn instance_expectation_probes_now() {
        Interpreter::run_script(
            "class S\nnew a S\nroot a\nnew b S\nroot b\nexpect-instances S 2\n",
        )
        .unwrap();
    }

    #[test]
    fn repeat_builds_a_list_via_copy() {
        // A loop chains ten cells head-first; nulling the head kills them
        // all, which `all-dead` then proves.
        let out = Interpreter::run_script(
            "
class Head next
class Cell next
new head Head
root head
copy prev head
repeat 10
new cell Cell
set prev.next cell
copy prev cell
end-repeat
expect-instances Cell 10
set head.next null
gc
expect-instances Cell 0
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
        assert_eq!(out.collections, 1);
    }

    #[test]
    fn repeat_zero_skips_the_body() {
        let out =
            Interpreter::run_script("class T\nrepeat 0\nnew a T\nroot a\nend-repeat\nstats\n")
                .unwrap();
        let stats = out.lines.iter().find(|l| l.starts_with("stats:")).unwrap();
        assert!(stats.contains("0 live objects"), "{stats}");
    }

    #[test]
    fn nested_repeats_multiply() {
        let out = Interpreter::run_script(
            "class T\nrepeat 3\nrepeat 4\nnew a T\nroot a\nend-repeat\nend-repeat\nexpect-instances T 12\n",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
    }

    #[test]
    fn recursive_proc_is_depth_bounded() {
        // `grow` allocates one node then calls itself; the depth bound
        // turns the infinite recursion into exactly `call-depth` rounds.
        let out = Interpreter::run_script(
            "
config call-depth 5
class Node next
proc grow
new n Node
root n
call grow
end-proc
call grow
expect-instances Node 5
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
    }

    #[test]
    fn gc_inside_repeat_records_each_execution() {
        let out = Interpreter::run_script("class T\nrepeat 3\nnew a T\ngc\nend-repeat\n").unwrap();
        assert_eq!(out.collections, 3);
        assert_eq!(out.explicit_gcs.len(), 3);
        assert!(out
            .explicit_gcs
            .iter()
            .all(|(line, v)| *line == 4 && v.is_empty()));
    }

    #[test]
    fn block_structure_errors_are_line_tagged() {
        let e = Interpreter::run_script("class T\nend-repeat\n").unwrap_err();
        assert_eq!(e.line, 2);

        let e = Interpreter::run_script("repeat 2\nclass T\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("never closed"), "{e}");

        let e = Interpreter::run_script("proc p\nclass T\nend-repeat\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("end-proc"), "{e}");

        let e = Interpreter::run_script("class T\ncall nowhere\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("undefined proc"), "{e}");
    }

    #[test]
    fn assertions_and_frames_work_inside_loops() {
        // Frames, regions, and assert-dead all live inside a repeat body;
        // each iteration's temporary dies before the gc at iteration end.
        let out = Interpreter::run_script(
            "
class Buf
repeat 4
start-region
frame
new tmp Buf 8
root tmp
end-frame
all-dead
gc
expect-violations 0
end-repeat
",
        )
        .unwrap();
        assert_eq!(out.total_violations, 0);
        assert_eq!(out.collections, 4);
    }

    #[test]
    fn gc_threads_config_is_accepted() {
        let out =
            Interpreter::run_script("config gc-threads 2\nclass T\nnew a T\nroot a\ngc\n").unwrap();
        assert_eq!(out.collections, 1);
    }

    #[test]
    fn minor_gc_without_generations_leaves_no_stale_marks() {
        let out = Interpreter::run_script(
            "class T\nnew a T\nroot a\nassert-dead a\nminor-gc\ngc\nexpect-violations 1\n",
        )
        .unwrap();
        assert_eq!(out.total_violations, 1);
        assert_eq!(
            out.minor_collections, 0,
            "a minor without a nursery is no collection"
        );
    }

    #[test]
    fn outside_input_caps_are_errors_just_past_their_value() {
        // `call-depth` and `gc-threads` are checked at the config line,
        // before any VM (or mark thread) exists.
        let ok = format!("config call-depth {MAX_CALL_DEPTH}\n");
        Interpreter::run_script(&ok).unwrap();
        let e = Interpreter::run_script(&format!("config call-depth {}\n", MAX_CALL_DEPTH + 1))
            .unwrap_err();
        assert!(e.to_string().contains("at most 1024"), "{e}");

        let threads = gc_assertions::MAX_GC_THREADS;
        Interpreter::run_script(&format!("config gc-threads {threads}\n")).unwrap();
        let e =
            Interpreter::run_script(&format!("config gc-threads {}\n", threads + 1)).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("at most 64"), "{e}");

        // Nesting: the deepest allowed block runs, one more level is a
        // block-structure error at the opening line of that level.
        let nest = |n: usize| {
            format!(
                "class T\n{}new a T\nroot a\n{}",
                "repeat 1\n".repeat(n),
                "end-repeat\n".repeat(n)
            )
        };
        let out = Interpreter::run_script(&format!(
            "{}expect-instances T 1\n",
            nest(MAX_BLOCK_NESTING)
        ))
        .unwrap();
        assert_eq!(out.total_violations, 0);
        let e = Interpreter::run_script(&nest(MAX_BLOCK_NESTING + 1)).unwrap_err();
        assert_eq!(e.line, MAX_BLOCK_NESTING + 2, "{e}");
        assert!(e.to_string().contains("nest deeper than 64"), "{e}");
    }

    #[test]
    fn body_depth_cap_is_an_error_not_a_stack_overflow() {
        // A recursion at the deepest `call-depth` inside the deepest
        // nesting runs; a `repeat` inside the recursion takes it one body
        // past the cap per call. (A thread with a roomy stack keeps the
        // harness's own frames out of the measurement.)
        let at_cap = format!(
            "config call-depth {MAX_CALL_DEPTH}\nclass T\nproc p\ncall p\nend-proc\n{}call p\n{}",
            "repeat 1\n".repeat(MAX_BLOCK_NESTING),
            "end-repeat\n".repeat(MAX_BLOCK_NESTING)
        );
        let past = format!(
            "config call-depth {MAX_CALL_DEPTH}\nclass T\nproc p\nrepeat 1\ncall p\nend-repeat\nend-proc\ncall p\n"
        );
        let (ok, err) = std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(move || {
                (
                    Interpreter::run_script(&at_cap).map(|_| ()),
                    Interpreter::run_script(&past).unwrap_err(),
                )
            })
            .unwrap()
            .join()
            .unwrap();
        ok.unwrap();
        assert_eq!(err.line, 5, "{err}");
        assert!(err.to_string().contains("more than 1088 deep"), "{err}");
    }
}
