//! `check-corpus`: `.gca` scripts, each statically checked by the
//! analyzer and then executed by the interpreter.
//!
//! The corpus is the shipped `scripts/*.gca` plus seeded FuzzOp heap
//! programs rendered by `gca_modelcheck::emit_gca`. Each generated
//! program copies one shipped script's [`Shape`] — its heap ops in order
//! and its `repeat` or recursive `proc` — and the seed draws only the
//! operands, so the corpus keeps the shipped mix of straight-line,
//! looping and recursive code and of op kinds, scaled up to be timed.
//! The scripts' VMs are tiny, so collector changes should not move this
//! workload.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use gc_assertions::VmConfig;
use gca_modelcheck::{emit_gca, FuzzOp};
use gca_script::{
    analyze, parse_script, Analysis, Command, GcPrediction, Interpreter, Output, Target,
};

use crate::pass::{Pass, Rng};
use crate::trace::{SpanId, Spans};
use crate::Size;

/// The scripts shipped in `scripts/`, compiled in so the corpus does not
/// depend on the working directory.
const SHIPPED: [(&str, &str); 14] = [
    (
        "cache_leak.gca",
        include_str!("../../scripts/cache_leak.gca"),
    ),
    (
        "checked_clean.gca",
        include_str!("../../scripts/checked_clean.gca"),
    ),
    (
        "copying_backend.gca",
        include_str!("../../scripts/copying_backend.gca"),
    ),
    (
        "force_true.gca",
        include_str!("../../scripts/force_true.gca"),
    ),
    (
        "generational.gca",
        include_str!("../../scripts/generational.gca"),
    ),
    (
        "list_builder.gca",
        include_str!("../../scripts/list_builder.gca"),
    ),
    ("ownership.gca", include_str!("../../scripts/ownership.gca")),
    (
        "recursive_tree.gca",
        include_str!("../../scripts/recursive_tree.gca"),
    ),
    (
        "region_server.gca",
        include_str!("../../scripts/region_server.gca"),
    ),
    (
        "session_lru.gca",
        include_str!("../../scripts/session_lru.gca"),
    ),
    ("singleton.gca", include_str!("../../scripts/singleton.gca")),
    (
        "suggest_demo.gca",
        include_str!("../../scripts/suggest_demo.gca"),
    ),
    ("swap_leak.gca", include_str!("../../scripts/swap_leak.gca")),
    (
        "unshared_tree.gca",
        include_str!("../../scripts/unshared_tree.gca"),
    ),
];

/// `call` depth of a script without `config call-depth`, as in the
/// interpreter.
const DEFAULT_CALL_DEPTH: usize = 16;

/// Generated programs that copy each shipped script's shape, so the
/// corpus keeps the shipped mix while being large enough to time.
const COPIES: usize = 70;

/// The `check-corpus` inputs: script name and source.
#[derive(Debug, Clone)]
pub struct Corpus {
    scripts: Vec<(String, String)>,
}

impl Corpus {
    /// The shipped scripts plus, for each of them, [`COPIES`] programs of
    /// its shape whose operands are drawn from `seed`.
    pub fn new(seed: u64, size: Size) -> Corpus {
        let mut rng = Rng::new(seed, 5);
        let shapes = Shape::measure();
        let mut scripts: Vec<(String, String)> = SHIPPED
            .iter()
            .map(|(name, src)| (name.to_string(), src.to_string()))
            .collect();
        for copy in 0..size.scale(COPIES, 35) {
            for ((name, _), shape) in SHIPPED.iter().zip(&shapes) {
                let src = shape.generate(&mut rng);
                scripts.push((format!("{copy}-{name}"), src));
            }
        }
        Corpus { scripts }
    }

    /// One pass over the corpus: analyze then execute every script
    /// (checked), or only execute it (Base).
    pub fn pass(&self, checked: bool, mut spans: Spans) -> Pass {
        let mut p = Pass::default();
        let start = Instant::now();
        let pass_span = spans.begin("pass", 0);
        for (name, src) in &self.scripts {
            let analysis = if checked {
                let span = spans.begin("analyze", pass_span);
                let t = Instant::now();
                let a = analyze(src);
                p.check += t.elapsed().as_secs_f64();
                spans.end(span);
                match a {
                    Ok(a) => Some(a),
                    Err(e) => {
                        p.fail(format!("{name}: analyze: {e}"));
                        None
                    }
                }
            } else {
                None
            };
            let span = spans.begin("run_script", pass_span);
            let t = Instant::now();
            let out = run_script(src, &mut p, &mut spans, span);
            p.run += t.elapsed().as_secs_f64();
            spans.end(span);
            p.ops += 1;
            p.add("script.scripts", 1);
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    p.fail(format!("{name}: {e}"));
                    continue;
                }
            };
            p.add("script.executed_violations", out.total_violations as u64);
            if let Some(a) = analysis {
                tally(&a, &mut p);
                if let Err(e) = must_subset(&a, &out) {
                    p.fail(format!("{name}: {e}"));
                }
            }
        }
        spans.end(pass_span);
        p.wall = start.elapsed().as_secs_f64();
        p
    }
}

/// Executes `src` command by command — what `Interpreter::run_script`
/// does — keeping the VM long enough to read its counters. In a traced
/// pass each command that collected gets its cycles as `gc` children of
/// `span`: scripts cannot turn telemetry on, so a command's collector
/// time is split evenly over the cycles it ran (exact for one cycle).
fn run_script(src: &str, p: &mut Pass, spans: &mut Spans, span: SpanId) -> Result<Output, String> {
    let commands = parse_script(src).map_err(|e| e.to_string())?;
    let mut interp = Interpreter::new();
    let stats = |i: &Interpreter| {
        i.vm_ref().map_or((0, 0), |vm| {
            (
                vm.collections(),
                vm.gc_stats().total_gc_time.as_nanos() as u64,
            )
        })
    };
    for (line, cmd) in &commands {
        let (c0, ns0) = stats(&interp);
        let r = interp.execute(*line, cmd);
        if spans.on() {
            let (c1, ns1) = stats(&interp);
            if c1 > c0 {
                let each = (ns1 - ns0) / (c1 - c0);
                spans.cycles(span, (c0..c1).map(|_| each));
                p.pauses.extend((c0..c1).map(|_| each as f64 * 1e-9));
            }
        }
        r.map_err(|e| e.to_string())?;
    }
    if let Some(line) = unclosed_block(&commands) {
        return Err(format!("line {line}: block opened here is never closed"));
    }
    if let Some(vm) = interp.vm_ref() {
        p.absorb(vm);
        if !vm.violation_log().is_empty() {
            p.render(vm);
        }
    }
    Ok(interp.finish())
}

/// Verdict counts: must and may entries, and collections predicted safe.
fn tally(a: &Analysis, p: &mut Pass) {
    for c in &a.collections {
        p.add("script.must", c.must.len() as u64);
        p.add("script.may", c.may.len() as u64);
        p.add(
            "script.safe",
            u64::from(c.must.is_empty() && c.may.is_empty()),
        );
    }
}

/// The line of the outermost `repeat` or `proc` still open after the
/// last command, the error `Interpreter::run_script` reports there. A
/// closer that matches no opener already failed in `execute`.
fn unclosed_block(commands: &[(usize, Command)]) -> Option<usize> {
    let mut open = Vec::new();
    for (line, cmd) in commands {
        match cmd {
            Command::Repeat(_) | Command::Proc(_) => open.push(*line),
            Command::EndRepeat | Command::EndProc => {
                open.pop();
            }
            _ => {}
        }
    }
    open.first().copied()
}

/// The analyzer's predictions against the explicit collections the
/// script ran, line by line, as the script crate's differential test
/// matches them: each must-violation is among the violations reported,
/// an exact prediction (no may-entries) leaves none unexplained, every
/// collection run was predicted and every prediction ran. A summarized
/// prediction stands for every dynamic execution of its line and
/// promises no must-set.
fn must_subset(a: &Analysis, out: &Output) -> Result<(), String> {
    let mut queues: HashMap<usize, VecDeque<&GcPrediction>> = HashMap::new();
    let mut sticky = HashSet::new();
    for c in a.collections.iter().filter(|c| c.explicit) {
        if c.summarized {
            if !c.must.is_empty() {
                return Err(format!(
                    "line {}: summarized collection promises {:?}",
                    c.line, c.must
                ));
            }
            sticky.insert(c.line);
        } else {
            queues.entry(c.line).or_default().push_back(c);
        }
    }
    for (line, actual) in &out.explicit_gcs {
        let Some(pred) = queues.get_mut(line).and_then(|q| q.pop_front()) else {
            if sticky.contains(line) {
                continue;
            }
            return Err(format!(
                "line {line}: ran a gc the analyzer never predicted"
            ));
        };
        let mut remaining = actual.clone();
        for m in &pred.must {
            match remaining.iter().position(|r| r == m) {
                Some(i) => {
                    remaining.remove(i);
                }
                None => {
                    return Err(format!(
                        "line {line}: must-violation `{m}` not reported (reported {actual:?})"
                    ))
                }
            }
        }
        if pred.may.is_empty() && !remaining.is_empty() {
            return Err(format!(
                "line {line}: exact prediction, but {remaining:?} were also reported"
            ));
        }
    }
    match queues.iter().find(|(_, q)| !q.is_empty()) {
        Some((line, q)) => Err(format!(
            "line {line}: {} predicted gc(s) never ran",
            q.len()
        )),
        None => Ok(()),
    }
}

/// The op a shipped command stands for. `Swap` and `LeakOwnee` have no
/// command of their own in the shipped scripts and never occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `new`, and whether the script roots the variable.
    Alloc {
        rooted: bool,
    },
    Link,
    Unlink,
    Collect,
    AssertDead,
    AssertUnshared,
    AssertInstances,
    Region,
    UnrootTo,
    OwnPair,
    BreakOwner,
}

impl Kind {
    /// The op `cmd` stands for, if any; `rooted` names the variables the
    /// script roots.
    fn of(cmd: &Command, rooted: &HashSet<&str>) -> Option<Kind> {
        Some(match cmd {
            Command::New { var, .. } => Kind::Alloc {
                rooted: rooted.contains(var.as_str()),
            },
            Command::Set {
                value: Target::Null,
                ..
            } => Kind::Unlink,
            Command::Set { .. } => Kind::Link,
            Command::Gc => Kind::Collect,
            Command::AssertDead(_) => Kind::AssertDead,
            Command::AssertUnshared(_) => Kind::AssertUnshared,
            Command::AssertInstances { .. } => Kind::AssertInstances,
            Command::StartRegion => Kind::Region,
            Command::EndFrame => Kind::UnrootTo,
            Command::AssertOwnedBy { .. } => Kind::OwnPair,
            Command::ReleaseOwnee(_) => Kind::BreakOwner,
            _ => return None,
        })
    }

    /// Whether the op may run more than once: the emitted forms of the
    /// ownership ops and of `UnrootTo` assume they run once.
    fn loop_safe(self) -> bool {
        !matches!(self, Kind::UnrootTo | Kind::OwnPair | Kind::BreakOwner)
    }

    /// An op of this kind with operands drawn from `rng`.
    fn draw(self, rng: &mut Rng) -> FuzzOp {
        let mut draw = |n: u64| rng.below(n) as usize;
        match self {
            Kind::Alloc { rooted } => FuzzOp::Alloc {
                data: draw(4),
                root: rooted,
            },
            Kind::Link => FuzzOp::Link {
                from: draw(8),
                field: draw(3),
                to: draw(8),
            },
            Kind::Unlink => FuzzOp::Unlink {
                from: draw(8),
                field: draw(3),
            },
            Kind::Collect => FuzzOp::Collect,
            Kind::AssertDead => FuzzOp::AssertDead { target: draw(8) },
            Kind::AssertUnshared => FuzzOp::AssertUnshared { target: draw(8) },
            Kind::AssertInstances => FuzzOp::AssertInstances {
                limit: 1 + draw(6) as u32,
            },
            Kind::Region => FuzzOp::Region {
                len: draw(6),
                leak: draw(4) == 0,
            },
            Kind::UnrootTo => FuzzOp::UnrootTo { keep: 1 + draw(4) },
            Kind::OwnPair => FuzzOp::OwnPair,
            Kind::BreakOwner => FuzzOp::BreakOwner,
        }
    }
}

/// A shipped script's outermost block: a `repeat` and its count, or a
/// recursive `proc` and the script's `call-depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Repeat(usize),
    Recurse(usize),
}

/// What the generated programs copy from one shipped script: its ops in
/// order, split around its outermost block. Inside the block only
/// loop-safe ops are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shape {
    before: Vec<Kind>,
    block: Option<(Block, Vec<Kind>)>,
    after: Vec<Kind>,
}

impl Shape {
    /// The shapes of the shipped scripts, in [`SHIPPED`] order.
    fn measure() -> Vec<Shape> {
        SHIPPED
            .iter()
            .map(|(name, src)| {
                let commands = parse_script(src).unwrap_or_else(|e| panic!("{name}: {e}"));
                Shape::of(&commands)
            })
            .collect()
    }

    fn of(commands: &[(usize, Command)]) -> Shape {
        let rooted: HashSet<&str> = commands
            .iter()
            .filter_map(|(_, c)| match c {
                Command::Root(var) => Some(var.as_str()),
                _ => None,
            })
            .collect();
        let mut call_depth = DEFAULT_CALL_DEPTH;
        let mut shape = Shape {
            before: Vec::new(),
            block: None,
            after: Vec::new(),
        };
        let mut depth = 0usize;
        for (_, cmd) in commands {
            match cmd {
                Command::Config { key, value } if key == "call-depth" => {
                    call_depth = value.parse().expect("numeric call-depth");
                }
                Command::Repeat(n) if depth == 0 && shape.block.is_none() => {
                    shape.block = Some((Block::Repeat(*n), Vec::new()));
                }
                Command::Proc(_) if depth == 0 && shape.block.is_none() => {
                    shape.block = Some((Block::Recurse(0), Vec::new()));
                }
                _ => {}
            }
            match cmd {
                Command::Repeat(_) | Command::Proc(_) => depth += 1,
                Command::EndRepeat | Command::EndProc => depth -= 1,
                _ => {}
            }
            let Some(kind) = Kind::of(cmd, &rooted) else {
                continue;
            };
            match &mut shape.block {
                None => shape.before.push(kind),
                Some((_, body)) if depth > 0 => {
                    if kind.loop_safe() {
                        body.push(kind);
                    }
                }
                Some(_) => shape.after.push(kind),
            }
        }
        if let Some((Block::Recurse(d), _)) = &mut shape.block {
            *d = call_depth;
        }
        shape
    }

    /// A program of this shape whose operands are drawn from `rng`.
    fn generate(&self, rng: &mut Rng) -> String {
        let config = VmConfig::default();
        let mut ops: Vec<FuzzOp> = self.before.iter().map(|k| k.draw(rng)).collect();
        let Some((block, body)) = &self.block else {
            return emit_gca(&ops, &config, &[]);
        };
        // `emit_gca` renders op by op and ends every program with the
        // same `gc` and `print`, so each part's statements start where
        // the rendering of the ops before it ends.
        let cut = |ops: &[FuzzOp]| split(&emit_gca(ops, &config, &[])).1.len() - 2;
        let body_start = cut(&ops);
        ops.extend(body.iter().map(|k| k.draw(rng)));
        let body_end = cut(&ops);
        ops.extend(self.after.iter().map(|k| k.draw(rng)));
        let whole = emit_gca(&ops, &config, &[]);
        let (preamble, statements) = split(&whole);
        let before = statements[..body_start].join("\n");
        let body = statements[body_start..body_end].join("\n");
        let after = statements[body_end..].join("\n");
        match block {
            Block::Repeat(count) => {
                format!("{preamble}{before}\nrepeat {count}\n{body}\nend-repeat\n{after}\n")
            }
            Block::Recurse(depth) => format!(
                "config call-depth {depth}\n{preamble}{before}\n\
                 proc body\n{body}\ncall body\nend-proc\ncall body\n{after}\n"
            ),
        }
    }
}

/// Splits an `emit_gca` rendering into its `config` and `class` lines
/// and its statements, dropping comments.
fn split(emitted: &str) -> (String, Vec<&str>) {
    let mut preamble = String::new();
    let mut statements = Vec::new();
    for line in emitted.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if t.starts_with("config ") || t.starts_with("class ") {
            preamble.push_str(line);
            preamble.push('\n');
        } else {
            statements.push(line);
        }
    }
    (preamble, statements)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shapes are read off the shipped scripts: `list_builder.gca`
    /// is the one `repeat`, `recursive_tree.gca` the one recursive
    /// `proc`, whose `assert-owned-by` cannot repeat and is left out.
    #[test]
    fn shapes_are_read_off_the_shipped_scripts() {
        let shapes = Shape::measure();
        let blocks: Vec<(&str, Block, &[Kind])> = SHIPPED
            .iter()
            .zip(&shapes)
            .filter_map(|((name, _), s)| s.block.as_ref().map(|(b, body)| (*name, *b, &body[..])))
            .collect();
        let cell = [Kind::Alloc { rooted: false }, Kind::Link];
        assert_eq!(
            blocks,
            [
                ("list_builder.gca", Block::Repeat(200), &cell[..]),
                ("recursive_tree.gca", Block::Recurse(6), &cell[..]),
            ]
        );
        let ownership = &shapes[SHIPPED.iter().position(|s| s.0 == "ownership.gca").unwrap()];
        assert_eq!(
            ownership
                .before
                .iter()
                .filter(|k| **k == Kind::OwnPair)
                .count(),
            2
        );
        assert!(ownership.before.contains(&Kind::BreakOwner));
        assert!(ownership.before.contains(&Kind::Alloc { rooted: true }));
    }

    /// Every generated shape parses, keeps its block and runs without
    /// error.
    #[test]
    fn generated_programs_keep_their_shape_and_run() {
        let mut rng = Rng::new(3, 5);
        for shape in Shape::measure() {
            let src = shape.generate(&mut rng);
            let commands = parse_script(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            assert_eq!(Shape::of(&commands).block, shape.block, "{src}");
            Interpreter::run_script(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        }
    }

    #[test]
    fn unclosed_block_is_an_error() {
        let mut p = Pass::default();
        let err = run_script(
            "class N a\nnew x N\nrepeat 3\nnew y N\n",
            &mut p,
            &mut Spans::new(None),
            0,
        )
        .unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    fn prediction(line: usize, must: &[&str], may: &[&str], summarized: bool) -> GcPrediction {
        GcPrediction {
            line,
            explicit: true,
            minor: false,
            must: must.iter().map(|s| s.to_string()).collect(),
            may: may.iter().map(|s| s.to_string()).collect(),
            summarized,
        }
    }

    fn ran(gcs: &[(usize, &[&str])]) -> Output {
        Output {
            explicit_gcs: gcs
                .iter()
                .map(|(l, v)| (*l, v.iter().map(|s| s.to_string()).collect()))
                .collect(),
            ..Output::default()
        }
    }

    /// The soundness check fails on every way predictions and
    /// collections can disagree.
    #[test]
    fn must_subset_flags_every_mismatch() {
        let analysis = |collections| Analysis {
            diagnostics: Vec::new(),
            collections,
        };
        let a = analysis(vec![prediction(4, &["v"], &[], false)]);
        assert!(must_subset(&a, &ran(&[(4, &["v"])])).is_ok());
        // The must-violation was not reported.
        assert!(must_subset(&a, &ran(&[(4, &[])])).is_err());
        // An exact prediction left a violation unexplained.
        assert!(must_subset(&a, &ran(&[(4, &["v", "w"])])).is_err());
        // The predicted gc never ran.
        assert!(must_subset(&a, &ran(&[])).is_err());
        // A gc ran that nobody predicted.
        assert!(must_subset(&a, &ran(&[(4, &["v"]), (9, &[])])).is_err());
        // A summarized prediction covers any number of runs of its line.
        let a = analysis(vec![prediction(7, &[], &["v"], true)]);
        assert!(must_subset(&a, &ran(&[(7, &["v"]), (7, &[]), (7, &["v"])])).is_ok());
    }
}
