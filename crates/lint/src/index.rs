//! Structural index over a token stream: brace-matched spans, test-module
//! masks, parallel-closure bodies, and a function index.
//!
//! Everything here is *lexical* structure — no type information — which is
//! exactly the level the analysis passes need: "which tokens are inside the
//! closure passed to a `par_*` call", "which identifiers feed this
//! function's cache key". The index is built once per file and shared by
//! every pass.

use crate::tokenizer::{Tok, TokKind};
use std::ops::Range;

/// A token stream plus the structural facts passes share.
pub struct FileIndex {
    pub toks: Vec<Tok>,
    /// `true` for tokens inside a `#[cfg(test)]` item (the whole item,
    /// attribute included). Test code is exempt from every rule.
    pub test_mask: Vec<bool>,
}

/// Advances to the next code (non-comment) token at or after `i`.
pub fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if toks[i].is_code() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The previous code (non-comment) token strictly before `i`.
pub fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| toks[j].is_code())
}

/// Given the index of an opening delimiter token (`{`, `(` or `[`), returns
/// the index of its matching close, counting only that delimiter pair.
pub fn match_delim(toks: &[Tok], open: usize) -> Option<usize> {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// First `{` at bracket depth 0 starting from `i` (skipping over any
/// `(...)` / `[...]` groups, e.g. a parameter list or return type).
fn first_body_brace(toks: &[Tok], mut i: usize) -> Option<usize> {
    let mut depth = 0isize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "(" | "[" if t.kind == TokKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokKind::Punct => depth -= 1,
            "{" if t.kind == TokKind::Punct && depth == 0 => return Some(i),
            ";" if t.kind == TokKind::Punct && depth == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Whether the attribute starting at `hash` (a `#` token) gates the item
/// to test builds; returns the index of the closing `]` when it is any
/// attribute at all.
///
/// A cfg attribute is test-gating when the ident `test` appears anywhere
/// inside it **outside** a `not(...)` group — this covers `#[cfg(test)]`,
/// `#[cfg(all(test, feature = "slow"))]` and `#[cfg(any(test, fuzzing))]`
/// while leaving `#[cfg(not(test))]` live. (`any(test, …)` items are also
/// compiled in non-test builds when the other arm holds; masking them is
/// the conservative choice for a test-code detector — we would rather skip
/// dual-use scaffolding than lint generated test harness code.)
fn attr_span(toks: &[Tok], hash: usize) -> Option<(usize, bool)> {
    let open = next_code(toks, hash + 1)?;
    if !toks[open].is_punct("[") {
        return None;
    }
    let close = match_delim(toks, open)?;
    let inner: Vec<&str> =
        toks[open + 1..close].iter().filter(|t| t.is_code()).map(|t| t.text.as_str()).collect();
    let is_cfg_test = inner.first() == Some(&"cfg") && cfg_mentions_live_test(&inner[1..]);
    Some((close, is_cfg_test))
}

/// Whether the token stream of a cfg predicate (everything after the `cfg`
/// ident) contains the ident `test` at a position not nested inside a
/// `not(...)` group.
fn cfg_mentions_live_test(inner: &[&str]) -> bool {
    // Depths (paren levels) at which a `not(` group opened; `test` counts
    // only while no such group is on the stack.
    let mut depth = 0usize;
    let mut not_stack: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < inner.len() {
        match inner[i] {
            "(" => {
                if i > 0 && inner[i - 1] == "not" {
                    not_stack.push(depth);
                }
                depth += 1;
            }
            ")" => {
                depth = depth.saturating_sub(1);
                if not_stack.last() == Some(&depth) {
                    not_stack.pop();
                }
            }
            "test" if not_stack.is_empty() => return true,
            _ => {}
        }
        i += 1;
    }
    false
}

impl FileIndex {
    /// Builds the index: tokenizes nothing (takes tokens), computes the
    /// `#[cfg(test)]` mask by brace-matching the annotated item.
    pub fn new(toks: Vec<Tok>) -> Self {
        let mut test_mask = vec![false; toks.len()];
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_punct("#") {
                if let Some((close, true)) = attr_span(&toks, i) {
                    // Skip any further attributes/doc comments, then mask to
                    // the end of the annotated item (brace-matched block or
                    // trailing `;`).
                    let mut j = close + 1;
                    while let Some(k) = next_code(&toks, j) {
                        if toks[k].is_punct("#") {
                            match attr_span(&toks, k) {
                                Some((c2, _)) => j = c2 + 1,
                                None => break,
                            }
                        } else {
                            break;
                        }
                    }
                    let end = match first_body_brace(&toks, j) {
                        Some(open) => match_delim(&toks, open).unwrap_or(toks.len() - 1),
                        None => {
                            // `;`-terminated item (e.g. `#[cfg(test)] use x;`).
                            let mut k = j;
                            while k < toks.len() && !toks[k].is_punct(";") {
                                k += 1;
                            }
                            k.min(toks.len() - 1)
                        }
                    };
                    for m in test_mask.iter_mut().take(end + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i += 1;
        }
        FileIndex { toks, test_mask }
    }

    /// Whether token `i` is live, non-test code.
    pub fn is_live(&self, i: usize) -> bool {
        self.toks[i].is_code() && !self.test_mask[i]
    }

    /// Body spans of every closure passed to a parallel entry point:
    /// an identifier starting with `par_`, or `run` qualified as
    /// `pool::run` / `amud_par::run`. The span covers the closure body
    /// tokens up to the call's closing paren.
    pub fn par_closure_bodies(&self) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            if !self.is_live(i) || self.toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = self.toks[i].text.as_str();
            let is_par = name.starts_with("par_")
                || (name == "run"
                    && prev_code(&self.toks, i)
                        .filter(|&j| self.toks[j].is_punct("::"))
                        .and_then(|j| prev_code(&self.toks, j))
                        .is_some_and(|j| {
                            self.toks[j].is_ident("pool") || self.toks[j].is_ident("amud_par")
                        }));
            if !is_par {
                continue;
            }
            let Some(open) = next_code(&self.toks, i + 1) else { continue };
            if !self.toks[open].is_punct("(") {
                continue;
            }
            let Some(close) = match_delim(&self.toks, open) else { continue };
            // Find the closure's parameter bars at depth 1 inside the call.
            let mut depth = 0isize;
            let mut j = open;
            while j < close {
                let t = &self.toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "||" if depth == 1 => {
                            out.push(j + 1..close);
                            break;
                        }
                        "|" if depth == 1 => {
                            // Matching closing bar of the parameter list.
                            let mut k = j + 1;
                            while k < close && !self.toks[k].is_punct("|") {
                                k += 1;
                            }
                            out.push(k + 1..close);
                            break;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
        }
        out
    }

    /// Index of every live `fn` item: name, parameter names, body span.
    pub fn fn_items(&self) -> Vec<FnItem> {
        let mut out = Vec::new();
        for i in 0..self.toks.len() {
            if !self.is_live(i) || !self.toks[i].is_ident("fn") {
                continue;
            }
            let Some(name_i) = next_code(&self.toks, i + 1) else { continue };
            if self.toks[name_i].kind != TokKind::Ident {
                continue;
            }
            // Skip a generic parameter list `<...>` if present (`->` and
            // `>>` are single tokens, so plain angle counting works).
            let mut j = match next_code(&self.toks, name_i + 1) {
                Some(j) => j,
                None => continue,
            };
            if self.toks[j].is_punct("<") {
                let mut angle = 0isize;
                while j < self.toks.len() {
                    match self.toks[j].text.as_str() {
                        "<" if self.toks[j].kind == TokKind::Punct => angle += 1,
                        ">" if self.toks[j].kind == TokKind::Punct => {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        ">>" if self.toks[j].kind == TokKind::Punct => angle -= 2,
                        _ => {}
                    }
                    j += 1;
                }
                j = match next_code(&self.toks, j + 1) {
                    Some(j) => j,
                    None => continue,
                };
            }
            if !self.toks[j].is_punct("(") {
                continue;
            }
            let Some(params_close) = match_delim(&self.toks, j) else { continue };
            let params = param_names(&self.toks, j, params_close);
            let Some(body_open) = first_body_brace(&self.toks, params_close + 1) else {
                continue; // trait method signature without a body
            };
            let body_close = match_delim(&self.toks, body_open).unwrap_or(self.toks.len() - 1);
            out.push(FnItem {
                name: self.toks[name_i].text.clone(),
                at: i,
                params,
                body: body_open..body_close + 1,
            });
        }
        out
    }

    /// `let <name> = <init>;` bindings inside `body`, each with its
    /// initialiser's token range. One level of lexical data flow — enough
    /// to trace `let fp = fingerprint(x); key = (fp, …)` back to `x`.
    pub fn let_inits(&self, body: &Range<usize>) -> Vec<(String, Range<usize>)> {
        let toks = &self.toks;
        let mut out = Vec::new();
        let mut i = body.start;
        while i < body.end {
            if self.is_live(i) && toks[i].is_ident("let") {
                let Some(mut j) = next_code(toks, i + 1) else { break };
                if toks[j].is_ident("mut") {
                    match next_code(toks, j + 1) {
                        Some(n) => j = n,
                        None => break,
                    }
                }
                if toks[j].kind == TokKind::Ident {
                    let name = toks[j].text.clone();
                    let mut k = j + 1;
                    while k < body.end && !toks[k].is_punct("=") && !toks[k].is_punct(";") {
                        k += 1;
                    }
                    if k < body.end && toks[k].is_punct("=") {
                        // The initialiser runs to the `;` at statement depth.
                        let mut depth = 0isize;
                        let mut m = k + 1;
                        while m < body.end {
                            let t = &toks[m];
                            if t.kind == TokKind::Punct {
                                match t.text.as_str() {
                                    "(" | "[" | "{" => depth += 1,
                                    ")" | "]" | "}" => depth -= 1,
                                    ";" if depth <= 0 => break,
                                    _ => {}
                                }
                            }
                            m += 1;
                        }
                        out.push((name, k + 1..m));
                        i = m;
                        continue;
                    }
                }
            }
            i += 1;
        }
        out
    }
}

/// One `fn` item.
pub struct FnItem {
    pub name: String,
    /// Token index of the `fn` keyword.
    pub at: usize,
    pub params: Vec<String>,
    /// Token range of the body including braces.
    pub body: Range<usize>,
}

/// Parameter names between `(` at `open` and `)` at `close`: the last
/// identifier before each depth-1 `:` (skips `self`, `mut`, references).
fn param_names(toks: &[Tok], open: usize, close: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    for j in open..=close {
        let t = &toks[j];
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            ":" if depth == 1 => {
                if let Some(p) = prev_code(toks, j) {
                    if toks[p].kind == TokKind::Ident && !toks[p].is_ident("self") {
                        out.push(toks[p].text.clone());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn index(src: &str) -> FileIndex {
        FileIndex::new(tokenize(src))
    }

    #[test]
    fn cfg_test_module_is_masked_even_mid_file() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn also_live() { y.unwrap(); }\n";
        let ix = index(src);
        let live: Vec<&str> = (0..ix.toks.len())
            .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
            .map(|i| ix.toks[i].text.as_str())
            .collect();
        assert!(live.contains(&"also_live"), "code after a test module stays live");
        assert!(live.contains(&"y"));
        assert!(!live.contains(&"t"), "test module contents are masked");
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let ix = index("#[cfg(not(test))]\nfn live() { x.unwrap(); }\n");
        let live: Vec<&str> = (0..ix.toks.len())
            .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
            .map(|i| ix.toks[i].text.as_str())
            .collect();
        assert!(live.contains(&"live"), "cfg(not(test)) code is production code");
    }

    #[test]
    fn cfg_all_and_any_with_test_are_masked() {
        for src in [
            "#[cfg(all(test, feature = \"slow\"))]\nmod harness { fn t() { x.unwrap(); } }\nfn live() {}\n",
            "#[cfg(any(test, fuzzing))]\nmod harness { fn t() { x.unwrap(); } }\nfn live() {}\n",
        ] {
            let ix = index(src);
            let live: Vec<&str> = (0..ix.toks.len())
                .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
                .map(|i| ix.toks[i].text.as_str())
                .collect();
            assert!(!live.contains(&"t"), "composite test cfg is masked in {src:?}");
            assert!(live.contains(&"live"), "following item stays live in {src:?}");
        }
    }

    #[test]
    fn cfg_with_test_only_inside_not_stays_live() {
        for src in [
            "#[cfg(all(not(test), feature = \"slow\"))]\nfn live() { x.unwrap(); }\n",
            "#[cfg(any(not(test), fuzzing))]\nfn live() { x.unwrap(); }\n",
        ] {
            let ix = index(src);
            let live: Vec<&str> = (0..ix.toks.len())
                .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
                .map(|i| ix.toks[i].text.as_str())
                .collect();
            assert!(live.contains(&"live"), "not(test)-guarded item is live in {src:?}");
        }
        // `test` outside the `not(...)` still wins even when one also
        // appears inside it.
        let ix = index("#[cfg(all(test, not(test)))]\nfn odd() {}\n");
        let live: Vec<&str> = (0..ix.toks.len())
            .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
            .map(|i| ix.toks[i].text.as_str())
            .collect();
        assert!(!live.contains(&"odd"));
    }

    #[test]
    fn cfg_feature_named_like_test_is_not_masked() {
        // Only the bare ident `test` gates; `feature = "test"` is a string
        // literal and `integration_test` is a different ident.
        let ix =
            index("#[cfg(feature = \"test\")]\nfn a() {}\n#[cfg(integration_test)]\nfn b() {}\n");
        let live: Vec<&str> = (0..ix.toks.len())
            .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
            .map(|i| ix.toks[i].text.as_str())
            .collect();
        assert!(live.contains(&"a"));
        assert!(live.contains(&"b"));
    }

    #[test]
    fn par_closure_body_is_extracted() {
        let src = "fn f() { amud_par::par_row_blocks_mut(&mut d, 4, &p, |_, rows, block| { block.fill(0.0); acc(rows) }); }";
        let ix = index(src);
        let bodies = ix.par_closure_bodies();
        assert_eq!(bodies.len(), 1);
        let texts: Vec<&str> = bodies[0].clone().map(|i| ix.toks[i].text.as_str()).collect();
        assert!(texts.contains(&"fill"));
        assert!(texts.contains(&"acc"));
    }

    #[test]
    fn pool_run_and_bare_par_names_count_nothing_else() {
        let src = "fn f() { pool::run(n, |i| { g(i) }); other::run(n, |i| h(i)); }";
        let ix = index(src);
        assert_eq!(ix.par_closure_bodies().len(), 1, "only pool::run is a parallel entry");
    }

    #[test]
    fn fn_items_with_generics_and_params() {
        let src =
            "pub fn operators<T: Clone>(adj: &CsrMatrix, max_order: usize) -> T { body(adj) }";
        let ix = index(src);
        let fns = ix.fn_items();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "operators");
        assert_eq!(fns[0].params, vec!["adj", "max_order"]);
    }

    #[test]
    fn let_inits_map_to_initialiser_ranges() {
        let src = "fn f(x: T) { let fp = fingerprint(x); let key = (fp, N); use_it(key); }";
        let ix = index(src);
        let f = &ix.fn_items()[0];
        let idents = |init: &Range<usize>| -> Vec<&str> {
            init.clone()
                .filter(|&k| ix.toks[k].kind == TokKind::Ident)
                .map(|k| ix.toks[k].text.as_str())
                .collect()
        };
        let lets = ix.let_inits(&f.body);
        assert_eq!(lets[0].0, "fp");
        assert_eq!(idents(&lets[0].1), vec!["fingerprint", "x"]);
        assert_eq!(lets[1].0, "key");
        assert!(idents(&lets[1].1).contains(&"fp"));
    }

    #[test]
    fn brace_matching_ignores_braces_in_strings() {
        let src = "fn f() { let s = \"}}}\"; g(); }";
        let ix = index(src);
        let fns = ix.fn_items();
        assert_eq!(fns.len(), 1);
        let texts: Vec<&str> = fns[0].body.clone().map(|i| ix.toks[i].text.as_str()).collect();
        assert!(texts.contains(&"g"), "body extends past the string literal");
    }
}
