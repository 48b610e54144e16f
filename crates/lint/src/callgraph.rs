//! Name-resolved call graph over the [`SymbolTable`].
//!
//! A call site is a live identifier directly followed by `(` that is not
//! a keyword, not a macro invocation (`name!`), and not the definition
//! site itself (`fn name(`). Each site resolves to *every* workspace
//! function with that bare name — over-approximate by design (see
//! [`crate::symbols`]): a safety pass would rather follow a spurious
//! same-name edge than miss a real one.
//!
//! One refinement keeps the over-approximation useful: a path-qualified
//! call `Type::name(…)` resolves only to symbols defined in a file that
//! has an `impl` header mentioning `Type`, and `Self::name(…)` resolves
//! only within the caller's own file. Without this, every `Vec::new()`
//! would alias every `new` constructor in the workspace and taint would
//! flow through all of them.

use crate::index::{next_code, prev_code, FileIndex};
use crate::symbols::SymbolTable;
use crate::tokenizer::TokKind;

/// Identifiers that look like calls lexically but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "as", "in", "move", "impl", "struct", "enum", "trait", "use", "pub", "mod", "where", "unsafe",
    "ref", "mut", "dyn", "box", "crate", "self", "Self", "super", "static", "const", "type",
    "union", "async", "await", "extern", "true", "false",
];

/// One call site inside a function body.
pub struct CallSite {
    /// Bare callee name as written.
    pub callee: String,
    /// Token index of the callee identifier in the owning file.
    pub at: usize,
    /// Workspace symbols this site resolves to (qualifier-filtered),
    /// sorted. Empty for calls into std / compat / closures.
    pub targets: Vec<usize>,
}

/// The workspace call graph: per-symbol call sites and their resolved
/// targets.
pub struct CallGraph {
    /// Call sites per caller symbol id (token order).
    pub sites: Vec<Vec<CallSite>>,
}

/// Uppercase identifiers appearing in the file's `impl` headers (type
/// names, trait names, generic bounds — an over-approximate "this file
/// implements something for `T`" set used to filter `T::name(…)` calls).
fn impl_header_types(ix: &FileIndex) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for i in 0..ix.toks.len() {
        if !ix.is_live(i) || !ix.toks[i].is_ident("impl") {
            continue;
        }
        let mut j = i + 1;
        while j < ix.toks.len() {
            let t = &ix.toks[j];
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            if t.kind == TokKind::Ident && t.text.chars().next().is_some_and(char::is_uppercase) {
                out.insert(t.text.clone());
            }
            j += 1;
        }
    }
    out
}

impl CallGraph {
    /// Extracts call sites from every symbol body and resolves them.
    pub fn build(files: &[(String, FileIndex)], syms: &SymbolTable) -> CallGraph {
        let impl_types: Vec<std::collections::BTreeSet<String>> =
            files.iter().map(|(_, ix)| impl_header_types(ix)).collect();
        let mut sites: Vec<Vec<CallSite>> = Vec::with_capacity(syms.len());
        for s in &syms.symbols {
            let ix = &files[s.file].1;
            let mut my_sites = Vec::new();
            for i in s.body.clone() {
                if !ix.is_live(i) || ix.toks[i].kind != TokKind::Ident {
                    continue;
                }
                let name = ix.toks[i].text.as_str();
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                let Some(nx) = next_code(&ix.toks, i + 1) else { continue };
                if !ix.toks[nx].is_punct("(") {
                    continue; // macros (`name!`) and turbofish paths drop out here
                }
                if prev_code(&ix.toks, i).is_some_and(|p| ix.toks[p].is_ident("fn")) {
                    continue; // a nested fn's definition site, not a call
                }
                // `Q::name(…)` — use the path qualifier to filter
                // candidates; `Vec::new()` must not alias workspace `new`s.
                let qualifier = prev_code(&ix.toks, i)
                    .filter(|&p| ix.toks[p].is_punct("::"))
                    .and_then(|p| prev_code(&ix.toks, p))
                    .filter(|&q| ix.toks[q].kind == TokKind::Ident)
                    .map(|q| ix.toks[q].text.as_str());
                let mut targets = Vec::new();
                for &t in syms.resolve(name) {
                    let keep = match qualifier {
                        Some("Self") => syms.get(t).file == s.file,
                        Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                            impl_types[syms.get(t).file].contains(q)
                        }
                        // Lowercase qualifiers are module paths — those
                        // rarely collide, so bare-name resolution stands.
                        _ => true,
                    };
                    if keep {
                        targets.push(t);
                    }
                }
                my_sites.push(CallSite { callee: name.to_string(), at: i, targets });
            }
            sites.push(my_sites);
        }
        CallGraph { sites }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FileIndex;
    use crate::tokenizer::tokenize;

    fn graph(files: &[(&str, &str)]) -> (Vec<(String, FileIndex)>, SymbolTable) {
        let files: Vec<(String, FileIndex)> = files
            .iter()
            .map(|(label, src)| (label.to_string(), FileIndex::new(tokenize(src))))
            .collect();
        let table = SymbolTable::build(&files);
        (files, table)
    }

    fn id(t: &SymbolTable, name: &str) -> usize {
        t.resolve(name)[0]
    }

    /// Resolved callee ids of `caller`, sorted, without self-edges.
    fn callees(cg: &CallGraph, caller: usize) -> Vec<usize> {
        let mut out: Vec<usize> = cg.sites[caller]
            .iter()
            .flat_map(|c| c.targets.iter().copied())
            .filter(|&t| t != caller)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn cross_crate_calls_resolve() {
        let (files, t) = graph(&[
            ("crates/nn/src/a.rs", "pub fn kernel() { helper(1); }\n"),
            ("crates/graph/src/b.rs", "pub fn helper(x: usize) -> usize { x }\n"),
        ]);
        let cg = CallGraph::build(&files, &t);
        assert_eq!(callees(&cg, id(&t, "kernel")), vec![id(&t, "helper")]);
    }

    #[test]
    fn macros_keywords_and_defs_are_not_calls() {
        let (files, t) = graph(&[(
            "crates/nn/src/a.rs",
            "pub fn f() { if (x) { panic!(\"no\"); } g(); fn g() {} }\npub fn h() { g(); }\n",
        )]);
        let cg = CallGraph::build(&files, &t);
        let f_sites: Vec<&str> = cg.sites[id(&t, "f")].iter().map(|s| s.callee.as_str()).collect();
        assert_eq!(f_sites, vec!["g"], "if/panic!/fn-def must not register as calls");
        assert_eq!(callees(&cg, id(&t, "h")), vec![id(&t, "g")]);
    }

    #[test]
    fn method_calls_resolve_by_bare_name_to_all_candidates() {
        let (files, t) = graph(&[
            ("crates/nn/src/a.rs", "pub fn f(m: &M) { m.scale(2.0); }\n"),
            ("crates/nn/src/m.rs", "impl M { pub fn scale(&self, s: f32) {} }\n"),
            ("crates/graph/src/n.rs", "impl N { pub fn scale(&self, s: f32) {} }\n"),
        ]);
        let cg = CallGraph::build(&files, &t);
        assert_eq!(
            callees(&cg, id(&t, "f")).len(),
            2,
            "bare-name resolution is deliberately plural"
        );
    }

    #[test]
    fn qualified_calls_filter_by_impl_header() {
        let (files, t) = graph(&[
            (
                "crates/nn/src/a.rs",
                "pub fn f() { Vec::new(); DenseMatrix::new(3); }\n",
            ),
            (
                "crates/nn/src/m.rs",
                "impl DenseMatrix {\n    pub fn new(n: usize) -> Self { Self::init(n) }\n    fn init(n: usize) -> Self { todo_impl() }\n}\n",
            ),
            ("crates/models/src/g.rs", "impl Gprgnn {\n    pub fn new(k: usize) -> Self { x }\n}\n"),
        ]);
        let cg = CallGraph::build(&files, &t);
        let f_callees: Vec<&str> =
            callees(&cg, id(&t, "f")).iter().map(|&c| t.get(c).label.as_str()).collect();
        assert_eq!(
            f_callees,
            vec!["crates/nn/src/m.rs"],
            "Vec::new resolves nowhere; DenseMatrix::new only to the impl's file"
        );
        let new_dm = t
            .resolve("new")
            .iter()
            .copied()
            .find(|&c| t.get(c).label == "crates/nn/src/m.rs")
            .expect("DenseMatrix::new indexed");
        assert_eq!(
            callees(&cg, new_dm),
            vec![id(&t, "init")],
            "Self::init stays inside the defining file"
        );
    }
}
