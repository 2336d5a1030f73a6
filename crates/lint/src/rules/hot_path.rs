//! RL-A001/RL-A002: heap allocation on designated hot paths.
//!
//! The per-event handlers of the DES and the steal loop run millions of
//! times per simulated second; a `Vec::new`, `format!` or heap `.clone()`
//! there turns into allocator traffic that dominates the run. `lint.toml`'s
//! `[hot_path]` section names the root functions (`hot_fns`); every
//! function reachable from a root through the call graph is hot.
//!
//! - **RL-A001** — an allocation directly inside a root hot function.
//! - **RL-A002** — an allocation in a transitive callee; the message
//!   carries the BFS call chain from the root.
//!
//! Setup-time allocations (building per-node state before the event
//! loop spins) are deliberate keepers: `lint:allow(RL-A001)` with a
//! rationale, so the inventory stays visible.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, Step};
use crate::diag::Diagnostic;
use crate::rules::emit;
use crate::source::SourceFile;

const RULE: &str = "hot-path";

/// `hot_fns` must resolve against the scoped files — a typo would
/// silently un-gate the whole family, so it is a config error instead.
pub fn check(
    files: &[SourceFile],
    hot_fns: &[String],
    out: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    let graph = CallGraph::build(files);
    for name in hot_fns {
        if !graph.bodies.contains_key(name) {
            return Err(format!(
                "[hot_path] hot_fns names `{name}`, which is not a function in the \
                 configured paths"
            ));
        }
    }
    let reachable = graph.reachable(hot_fns);
    let mut seen: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    for (fn_name, chain) in &reachable {
        let is_root = chain.len() == 1;
        for body in graph.bodies.get(fn_name).into_iter().flatten() {
            let Some(file) = files.get(body.file_idx) else {
                continue;
            };
            for step in &body.steps {
                let Step::Alloc { what, line, .. } = step else {
                    continue;
                };
                if !seen.insert((body.file_idx, *line, what.clone())) {
                    continue;
                }
                if is_root {
                    emit(
                        out,
                        file,
                        "RL-A001",
                        RULE,
                        *line,
                        format!("heap allocation ({what}) in hot function `{fn_name}`"),
                    );
                } else {
                    emit(
                        out,
                        file,
                        "RL-A002",
                        RULE,
                        *line,
                        format!(
                            "heap allocation ({what}) in `{fn_name}`, on the hot path \
                             {}",
                            chain.join(" -> ")
                        ),
                    );
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, roots: &[&str]) -> Result<Vec<Diagnostic>, String> {
        let f = SourceFile::new("x.rs".into(), src);
        let mut out = Vec::new();
        check(
            &[f],
            &roots.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn alloc_in_root_is_a001() {
        let src = "fn handle(&mut self) { let v = Vec::new(); }";
        let diags = run(src, &["handle"]).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-A001");
        assert!(diags[0].message.contains("Vec::new"));
    }

    #[test]
    fn alloc_in_callee_is_a002_with_chain() {
        let src = "fn handle(&mut self) { self.route(e); }\nfn route(&mut self, e: E) { let s = format!(\"{e:?}\"); }";
        let diags = run(src, &["handle"]).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-A002");
        assert!(diags[0].message.contains("handle -> route"));
    }

    #[test]
    fn alloc_off_the_hot_path_is_clean() {
        let src = "fn handle(&mut self) {}\nfn cold() { let v = vec![1, 2]; }";
        assert!(run(src, &["handle"]).unwrap().is_empty());
    }

    #[test]
    fn unresolved_root_is_a_config_error() {
        assert!(run("fn handle() {}", &["no_such_fn"]).is_err());
    }

    #[test]
    fn named_closure_can_be_a_root() {
        let src = "fn spawn_all() { let run_worker = move |ix: usize| { let v = x.to_vec(); }; }";
        let diags = run(src, &["run_worker"]).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-A001");
    }
}
