//! Counterexample emission: a failing op sequence becomes a runnable
//! `.gca` script (for the existing `gca` / golden-pin workflow) plus a
//! compact replay seed that round-trips through [`parse_replay`].
//!
//! Emission replays the program on a small shadow interpreter so every
//! modulo-indexed operand is resolved to the concrete variable it hit —
//! including `Swap`, which the script language has no primitive for (the
//! shadow knows both field values, so it lowers to two `set`s).

use gc_assertions::{CollectorKind, VmConfig};

use crate::program::FuzzOp;

const N_FIELDS: [&str; 3] = ["a", "b", "c"];

/// Serializes ops as a compact one-line replay seed.
pub fn replay_seed(ops: &[FuzzOp]) -> String {
    let mut parts = Vec::with_capacity(ops.len());
    for op in ops {
        parts.push(match op {
            FuzzOp::Alloc { data, root } => {
                format!("a{data}{}", if *root { "r" } else { "" })
            }
            FuzzOp::Link { from, field, to } => format!("l{from},{field},{to}"),
            FuzzOp::Unlink { from, field } => format!("u{from},{field}"),
            FuzzOp::Swap { a, b, field } => format!("s{a},{b},{field}"),
            FuzzOp::UnrootTo { keep } => format!("k{keep}"),
            FuzzOp::Collect => "g".to_string(),
            FuzzOp::MinorGc => "m".to_string(),
            FuzzOp::AssertDead { target } => format!("d{target}"),
            FuzzOp::AssertUnshared { target } => format!("n{target}"),
            FuzzOp::AssertInstances { limit } => format!("i{limit}"),
            FuzzOp::Region { len, leak } => {
                format!("r{len}{}", if *leak { "x" } else { "" })
            }
            FuzzOp::OwnPair => "o".to_string(),
            FuzzOp::LeakOwnee { from } => format!("e{from}"),
            FuzzOp::BreakOwner => "b".to_string(),
        });
    }
    parts.join(";")
}

/// Parses a replay seed back into the op sequence.
///
/// # Errors
///
/// A human-readable description of the first malformed token.
pub fn parse_replay(seed: &str) -> Result<Vec<FuzzOp>, String> {
    let mut ops = Vec::new();
    for tok in seed.split(';').filter(|t| !t.is_empty()) {
        let (head, rest) = tok.split_at(1);
        let nums = |s: &str, n: usize| -> Result<Vec<usize>, String> {
            let parts: Vec<&str> = s.split(',').collect();
            if parts.len() != n {
                return Err(format!("token {tok:?}: expected {n} operands"));
            }
            parts
                .iter()
                .map(|p| {
                    p.parse::<usize>()
                        .map_err(|_| format!("bad operand in {tok:?}"))
                })
                .collect()
        };
        ops.push(match head {
            "a" => {
                let (digits, root) = match rest.strip_suffix('r') {
                    Some(d) => (d, true),
                    None => (rest, false),
                };
                FuzzOp::Alloc {
                    data: digits.parse().map_err(|_| format!("bad data in {tok:?}"))?,
                    root,
                }
            }
            "l" => {
                let v = nums(rest, 3)?;
                FuzzOp::Link {
                    from: v[0],
                    field: v[1],
                    to: v[2],
                }
            }
            "u" => {
                let v = nums(rest, 2)?;
                FuzzOp::Unlink {
                    from: v[0],
                    field: v[1],
                }
            }
            "s" => {
                let v = nums(rest, 3)?;
                FuzzOp::Swap {
                    a: v[0],
                    b: v[1],
                    field: v[2],
                }
            }
            "k" => FuzzOp::UnrootTo {
                keep: rest.parse().map_err(|_| format!("bad keep in {tok:?}"))?,
            },
            "g" => FuzzOp::Collect,
            "m" => FuzzOp::MinorGc,
            "d" => FuzzOp::AssertDead {
                target: rest.parse().map_err(|_| format!("bad target in {tok:?}"))?,
            },
            "n" => FuzzOp::AssertUnshared {
                target: rest.parse().map_err(|_| format!("bad target in {tok:?}"))?,
            },
            "i" => FuzzOp::AssertInstances {
                limit: rest.parse().map_err(|_| format!("bad limit in {tok:?}"))?,
            },
            "r" => {
                let (digits, leak) = match rest.strip_suffix('x') {
                    Some(d) => (d, true),
                    None => (rest, false),
                };
                FuzzOp::Region {
                    len: digits.parse().map_err(|_| format!("bad len in {tok:?}"))?,
                    leak,
                }
            }
            "o" => FuzzOp::OwnPair,
            "e" => FuzzOp::LeakOwnee {
                from: rest.parse().map_err(|_| format!("bad from in {tok:?}"))?,
            },
            "b" => FuzzOp::BreakOwner,
            other => return Err(format!("unknown op tag {other:?} in {tok:?}")),
        });
    }
    Ok(ops)
}

/// Shadow object for name resolution during emission.
struct EObj {
    var: String,
    fields: Vec<Option<usize>>, // alloc ids
}

/// Renders `ops` as a runnable `.gca` script configured for `config`
/// (collector kind and generational schedule are scriptable; worker count and census are noted as comments). Extra
/// `header` lines are prepended as `#` comments — the caller puts the
/// mismatch description and replay seed there.
pub fn emit_gca(ops: &[FuzzOp], config: &VmConfig, header: &[String]) -> String {
    let mut out = String::new();
    let mut push = |line: &str| {
        out.push_str(line);
        out.push('\n');
    };
    push("# gca-modelcheck counterexample");
    for h in header {
        push(&format!("# {h}"));
    }
    push(&format!("# replay seed: {}", replay_seed(ops)));
    push(&format!("config heap {}", config.heap_budget));
    push(&format!(
        "config grow {}",
        if config.grow { "on" } else { "off" }
    ));
    if config.collector == CollectorKind::Copying {
        push("config collector copying");
    }
    if let Some(n) = config.generational {
        push(&format!("config generational {n}"));
    }
    if config.gc_threads > 1 {
        push(&format!(
            "# gc_threads {} is not scriptable; run this engine via the API",
            config.gc_threads
        ));
    }
    push("class N a b c");
    push("class Owner prop");
    push("class Ownee x");

    let generational = config.generational.is_some();
    let mut objs: Vec<EObj> = Vec::new();
    let mut rooted: Vec<usize> = Vec::new(); // alloc ids, one frame each
    let mut owners: Vec<usize> = Vec::new();
    let mut ownees: Vec<usize> = Vec::new();
    let mut n_count = 0usize;
    let mut own_count = 0usize;

    let alloc_n = |objs: &mut Vec<EObj>, n_count: &mut usize| -> usize {
        let var = format!("n{n_count}");
        *n_count += 1;
        objs.push(EObj {
            var,
            fields: vec![None; 3],
        });
        objs.len() - 1
    };
    let field_target = |objs: &[EObj], id: Option<usize>| -> String {
        match id {
            None => "null".to_string(),
            Some(i) => objs[i].var.clone(),
        }
    };

    for op in ops {
        match op {
            FuzzOp::Alloc { data, root } => {
                let id = alloc_n(&mut objs, &mut n_count);
                if *data > 0 {
                    push(&format!("new {} N {}", objs[id].var, data));
                } else {
                    push(&format!("new {} N", objs[id].var));
                }
                if *root {
                    push("frame");
                    push(&format!("root {}", objs[id].var));
                    rooted.push(id);
                }
            }
            FuzzOp::Link { from, field, to } if !rooted.is_empty() => {
                let f = rooted[from % rooted.len()];
                let t = rooted[to % rooted.len()];
                let fi = field % 3;
                objs[f].fields[fi] = Some(t);
                let tv = objs[t].var.clone();
                push(&format!("set {}.{} {}", objs[f].var, N_FIELDS[fi], tv));
            }
            FuzzOp::Unlink { from, field } if !rooted.is_empty() => {
                let f = rooted[from % rooted.len()];
                let fi = field % 3;
                objs[f].fields[fi] = None;
                push(&format!("set {}.{} null", objs[f].var, N_FIELDS[fi]));
            }
            FuzzOp::Swap { a, b, field } if !rooted.is_empty() => {
                let x = rooted[a % rooted.len()];
                let y = rooted[b % rooted.len()];
                let fi = field % 3;
                let old_x = objs[x].fields[fi];
                let old_y = objs[y].fields[fi];
                objs[x].fields[fi] = old_y;
                objs[y].fields[fi] = old_x;
                // The script language has no swap or field reads; the
                // shadow knows both old values, so lower to two stores.
                let xv = field_target(&objs, old_y);
                push(&format!("set {}.{} {}", objs[x].var, N_FIELDS[fi], xv));
                let yv = field_target(&objs, old_x);
                push(&format!("set {}.{} {}", objs[y].var, N_FIELDS[fi], yv));
            }
            FuzzOp::UnrootTo { keep } if rooted.len() > *keep => {
                // One frame per root makes unrooting a suffix exactly a
                // run of frame pops (the rooted set is LIFO).
                for _ in *keep..rooted.len() {
                    push("end-frame");
                }
                rooted.truncate(*keep);
            }
            FuzzOp::Collect => push("gc"),
            FuzzOp::MinorGc => {
                if generational {
                    push("minor-gc");
                } else {
                    push("# minor-gc (no-op: engine is not generational)");
                }
            }
            FuzzOp::AssertDead { target } if !rooted.is_empty() => {
                let t = rooted[target % rooted.len()];
                push(&format!("assert-dead {}", objs[t].var));
            }
            FuzzOp::AssertUnshared { target } if !rooted.is_empty() => {
                let t = rooted[target % rooted.len()];
                push(&format!("assert-unshared {}", objs[t].var));
            }
            FuzzOp::AssertInstances { limit } => {
                push(&format!("assert-instances N {limit}"));
            }
            FuzzOp::Region { len, leak } => {
                push("start-region");
                let mut first = None;
                for _ in 0..(len % 4) + 1 {
                    let id = alloc_n(&mut objs, &mut n_count);
                    push(&format!("new {} N", objs[id].var));
                    first.get_or_insert(id);
                }
                if *leak {
                    let id = first.unwrap();
                    push("frame");
                    push(&format!("root {}", objs[id].var));
                    rooted.push(id);
                }
                push("all-dead");
            }
            FuzzOp::OwnPair => {
                let ov = format!("ow{own_count}");
                let ev = format!("oe{own_count}");
                own_count += 1;
                objs.push(EObj {
                    var: ov.clone(),
                    fields: vec![None; 1],
                });
                let oid = objs.len() - 1;
                objs.push(EObj {
                    var: ev.clone(),
                    fields: vec![None; 1],
                });
                let eid = objs.len() - 1;
                push(&format!("new {ov} Owner"));
                push(&format!("new {ev} Ownee"));
                push(&format!("global {ov}"));
                push(&format!("global {ev}"));
                objs[oid].fields[0] = Some(eid);
                push(&format!("set {ov}.prop {ev}"));
                push(&format!("assert-owned-by {ov} {ev}"));
                owners.push(oid);
                ownees.push(eid);
            }
            FuzzOp::LeakOwnee { from } if !rooted.is_empty() && !ownees.is_empty() => {
                let f = rooted[from % rooted.len()];
                let fi = from % 3;
                let e = *ownees.last().unwrap();
                objs[f].fields[fi] = Some(e);
                let ev = objs[e].var.clone();
                push(&format!("set {}.{} {}", objs[f].var, N_FIELDS[fi], ev));
            }
            FuzzOp::BreakOwner if !owners.is_empty() => {
                let o = *owners.last().unwrap();
                objs[o].fields[0] = None;
                push(&format!("set {}.prop null", objs[o].var));
            }
            _ => push(&format!("# skipped (preconditions unmet): {op:?}")),
        }
    }
    push("gc");
    push("print");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<FuzzOp> {
        vec![
            FuzzOp::Alloc {
                data: 0,
                root: true,
            },
            FuzzOp::Alloc {
                data: 27,
                root: true,
            },
            FuzzOp::Link {
                from: 0,
                field: 1,
                to: 1,
            },
            FuzzOp::Swap {
                a: 0,
                b: 1,
                field: 1,
            },
            FuzzOp::OwnPair,
            FuzzOp::LeakOwnee { from: 0 },
            FuzzOp::BreakOwner,
            FuzzOp::Region { len: 1, leak: true },
            FuzzOp::AssertDead { target: 2 },
            FuzzOp::AssertUnshared { target: 0 },
            FuzzOp::AssertInstances { limit: 1 },
            FuzzOp::UnrootTo { keep: 1 },
            FuzzOp::MinorGc,
            FuzzOp::Collect,
        ]
    }

    #[test]
    fn replay_seed_round_trips() {
        let ops = sample_ops();
        let seed = replay_seed(&ops);
        assert_eq!(parse_replay(&seed).unwrap(), ops);
    }

    #[test]
    fn emitted_script_mentions_every_construct() {
        let cfg = VmConfig::builder().generational(2).build();
        let text = emit_gca(&sample_ops(), &cfg, &["demo".to_string()]);
        for needle in [
            "config generational 2",
            "class N a b c",
            "new n0 N",
            "new n1 N 27",
            "set n0.b n1",
            "assert-owned-by ow0 oe0",
            "start-region",
            "all-dead",
            "assert-instances N 1",
            "end-frame",
            "minor-gc",
            "gc",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
