//! `amud-analyze` — token-level static analysis for the workspace's
//! domain rules (std-only, no syn).
//!
//! The engine is a pipeline (DESIGN.md §11): [`tokenizer`] lexes each file
//! into a faithful token stream, [`index`] derives structural facts
//! (brace-matched item spans, `#[cfg(test)]` masks, parallel-closure
//! bodies, a function index with one-level `let` dataflow), and
//! [`passes`] runs the per-file rules over that index:
//!
//! * `float-determinism` — no unordered f32 reductions inside `par_*`
//!   closures
//! * `cache-key-completeness` — every parameter of a store-consulting
//!   function flows into its cache key or is `KEY-EXEMPT`-justified
//!
//! On top of the per-file passes, [`symbols`] + [`callgraph`] fuse every
//! file into one workspace view, and [`workspace`] runs two
//! interprocedural passes over it (DESIGN.md §12): `determinism-taint`
//! and `error-taxonomy`.
//!
//! Generic code rules — unwrap/expect, `unsafe` and its `// SAFETY:`
//! comments, public docs, thread and sync construction, panics in kernel
//! crates — are rustc and clippy lints, configured in the workspace
//! `Cargo.toml` and `clippy.toml`, not passes here. The disjointness of
//! parallel blocks is `amud_par::par_row_blocks_mut`'s always-on asserts.

pub mod callgraph;
pub mod index;
pub mod passes;
pub mod report;
pub mod symbols;
pub mod tokenizer;
pub mod workspace;

pub use passes::{RuleKind, Violation};

use std::time::{Duration, Instant};

/// Wall time per pipeline stage or rule, for the `--timings` column.
pub type Timings = Vec<(String, Duration)>;

/// Runs the full engine — per-file passes *and* the interprocedural
/// workspace passes — over a set of `(label, source)` pairs. This is what
/// the CLI runs over the workspace, and what the fixtures run over a
/// single file (a one-file workspace is still a workspace).
///
/// Violations come back sorted by file, line, column and rule. The stage
/// timings are human output only: they never reach the JSON report, so
/// `analyze-report.json` stays byte-identical across runs.
pub fn analyze_files(files: &[(String, String)]) -> (Vec<Violation>, Timings) {
    let mut timings = Vec::new();
    let t0 = Instant::now();
    let indexed: Vec<(String, index::FileIndex)> = files
        .iter()
        .map(|(label, src)| (label.clone(), index::FileIndex::new(tokenizer::tokenize(src))))
        .collect();
    timings.push(("tokenize+index".to_string(), t0.elapsed()));

    let mut out = Vec::new();
    for (name, pass) in passes::FILE_PASSES {
        let t = Instant::now();
        for (label, ix) in &indexed {
            pass(label, ix, &mut out);
        }
        timings.push((name.to_string(), t.elapsed()));
    }

    let t = Instant::now();
    let syms = symbols::SymbolTable::build(&indexed);
    let cg = callgraph::CallGraph::build(&indexed, &syms);
    timings.push(("symbols+callgraph".to_string(), t.elapsed()));

    for (name, pass) in workspace::WORKSPACE_PASSES {
        let t = Instant::now();
        pass(&indexed, &syms, &cg, &mut out);
        timings.push((name.to_string(), t.elapsed()));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    (out, timings)
}
