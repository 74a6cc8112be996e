//! A fixed yardstick for the machine's speed: plain Rust code that
//! builds random graphs in an arena and marks them from a root, as a
//! collector would, and names and looks up symbols in a hash map, as
//! the script layer does. It is run beside every Base pass, and Base's
//! times are reported as ratios to it.
//!
//! The speed of the reference machine moves by up to 1.7× in phases of
//! seconds to minutes, so an absolute time measured in one run cannot
//! be compared with one measured minutes later. A ratio to work done in
//! the same second can: the phase slows both sides alike. The yardstick
//! lives in the benchmark and never changes with the program, so a
//! slower Base collector shows as a larger ratio.

use std::collections::HashMap;

use crate::pass::Rng;

/// Nodes per graph.
const NODES: usize = 1 << 17;
/// Out-edges per node.
const EDGES: usize = 3;
/// Symbols named and looked up per graph.
const SYMBOLS: usize = 1 << 14;

/// Builds `rounds` random graphs of [`NODES`] nodes and marks each from
/// node 0 with an explicit stack, then enters [`SYMBOLS`] names built
/// from its edges in a hash map and looks each one up. Returns the nodes
/// marked plus the names found, which is the same on every call with the
/// same `rounds`.
pub fn run(rounds: usize) -> u64 {
    let mut rng = Rng::new(0, 9);
    let mut marked = 0;
    for _ in 0..rounds {
        let edges: Vec<u32> = (0..NODES * EDGES)
            .map(|_| rng.below(NODES as u64) as u32)
            .collect();
        let mut mark = vec![false; NODES];
        let mut stack = vec![0u32];
        mark[0] = true;
        while let Some(node) = stack.pop() {
            marked += 1;
            let start = node as usize * EDGES;
            for &to in &edges[start..start + EDGES] {
                if !std::mem::replace(&mut mark[to as usize], true) {
                    stack.push(to);
                }
            }
        }
        let symbol = |i: usize| format!("n{}.{}", edges[i], i % 3);
        let names: HashMap<String, usize> = (0..SYMBOLS).map(|i| (symbol(i), i)).collect();
        marked += (0..SYMBOLS)
            .filter(|&i| names.contains_key(&symbol(i)))
            .count() as u64;
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_rounds_do_the_same_work() {
        let one = run(1);
        assert!(one > (NODES / 2 + SYMBOLS) as u64, "{one}");
        assert!(one <= (NODES + SYMBOLS) as u64, "{one}");
        assert_eq!(run(2), run(2));
        assert!(run(2) > one);
    }
}
