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
//! call `Type::name(…)` resolves only to symbols defined inside an `impl`
//! block whose header mentions `Type` (as the self type or the trait),
//! and `Self::name(…)` only to symbols of the caller's own self type in
//! the caller's file. Without this, every `Vec::new()` would alias every
//! `new` constructor in the workspace, and `Plain::new()` every `new` in
//! a file that also implements `Tuned`, and taint would flow through all
//! of them.

use crate::index::{match_delim, next_code, prev_code, FileIndex};
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

/// One `impl` block: its body's token range, the uppercase identifiers
/// of its header (type, trait and bound names) and its self type.
struct ImplBlock {
    body: std::ops::Range<usize>,
    header: std::collections::BTreeSet<String>,
    self_ty: Option<String>,
}

/// Every live `impl` block of a file. The self type is the first
/// uppercase identifier after a depth-0 `for`, else the first one after
/// the generic parameter list (`impl<T: Bound> Type<T>`).
fn impl_blocks(ix: &FileIndex) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    for i in 0..ix.toks.len() {
        if !ix.is_live(i) || !ix.toks[i].is_ident("impl") {
            continue;
        }
        let mut header = std::collections::BTreeSet::new();
        let (mut first, mut after_for) = (None, None);
        let (mut angle, mut saw_for) = (0isize, false);
        let mut j = i + 1;
        while j < ix.toks.len() {
            let t = &ix.toks[j];
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            match t.text.as_str() {
                "<" if t.kind == TokKind::Punct => angle += 1,
                ">" if t.kind == TokKind::Punct => angle -= 1,
                ">>" if t.kind == TokKind::Punct => angle -= 2,
                "for" if t.kind == TokKind::Ident && angle == 0 => saw_for = true,
                _ => {}
            }
            if t.kind == TokKind::Ident && t.text.chars().next().is_some_and(char::is_uppercase) {
                header.insert(t.text.clone());
                let slot = if saw_for { &mut after_for } else { &mut first };
                if (saw_for || angle == 0) && slot.is_none() {
                    *slot = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let body = if ix.toks.get(j).is_some_and(|t| t.is_punct("{")) {
            j..match_delim(&ix.toks, j).map_or(ix.toks.len(), |c| c + 1)
        } else {
            j..j
        };
        out.push(ImplBlock { body, header, self_ty: after_for.or(first) });
    }
    out
}

/// The innermost impl block whose body holds token `at`.
fn enclosing(blocks: &[ImplBlock], at: usize) -> Option<&ImplBlock> {
    blocks.iter().filter(|b| b.body.contains(&at)).max_by_key(|b| b.body.start)
}

impl CallGraph {
    /// Extracts call sites from every symbol body and resolves them.
    pub fn build(files: &[(String, FileIndex)], syms: &SymbolTable) -> CallGraph {
        let blocks: Vec<Vec<ImplBlock>> = files.iter().map(|(_, ix)| impl_blocks(ix)).collect();
        let impl_of: Vec<Option<&ImplBlock>> =
            syms.symbols.iter().map(|t| enclosing(&blocks[t.file], t.at)).collect();
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
                let self_ty = |id: usize| impl_of[id].and_then(|b| b.self_ty.as_deref());
                let mut targets = Vec::new();
                for &t in syms.resolve(name) {
                    let keep = match qualifier {
                        Some("Self") => syms.get(t).file == s.file && self_ty(t) == self_ty(s.id),
                        Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                            impl_of[t].is_some_and(|b| b.header.contains(q))
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
