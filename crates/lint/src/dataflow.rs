//! Value-level abstract interpretation over the token index: an interval +
//! symbolic-length domain for let-bindings, loop bounds, and
//! `len()`/`n_rows`-style facts, plus the three passes built on it.
//!
//! * `index-bounds` — every indexed access (`a[i]`, `get_unchecked`, range
//!   slicing) in the governed kernel files must be dominated by a proving
//!   comparison/loop bound, or carry an audited `// BOUNDS(var): reason`
//!   escape. `split_even`/`split_by_weight`/`par_row_blocks_mut` range math
//!   is modeled as the static twin of the runtime disjointness sanitizer.
//! * `shape-consistency` — matrix dimensions traced through ctors,
//!   `matmul*`/`spmm`/`matmul_deq` call sites, and `QMatrix` decode paths;
//!   statically-known inner-dim mismatches become lint errors instead of
//!   runtime `VerifierRejected` surprises.
//! * `exit-code-registry` — every `process::exit(n)` and exit-code constant
//!   workspace-wide is checked against the README exit-code table (train
//!   codes 0–8, serve codes 9–12), including constants flowing through
//!   exit-sink helpers like `die(msg, code)`.
//!
//! The domain is deliberately lexical: facts are normalized token spans
//! (`"a.len()"`, `"n_rows+1"`), upper bounds come from `for`/`while`/`if`
//! guards and `assert!`s, and equalities from `let` bindings with
//! kill-on-rebind semantics. What it proves, it proves on **all** paths;
//! what it cannot prove needs either a refactor the prover can see or a
//! `// BOUNDS(var): reason` escape (reason ≥ 10 chars) naming the
//! data-structure invariant.

use crate::callgraph::CallGraph;
use crate::index::{match_delim, next_code, prev_code, FileIndex, FnItem};
use crate::passes::{RuleKind, Severity, Violation};
use crate::symbols::{crate_of, SymbolTable};
use crate::tokenizer::TokKind;
use crate::workspace::binding_inits;
use std::collections::BTreeMap;
use std::ops::Range;

// ---------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------

/// A (possibly half-open) integer interval; `None` is ±∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub lo: Option<i64>,
    pub hi: Option<i64>,
}

impl Interval {
    /// The single-point interval `[v, v]`.
    pub fn point(v: i64) -> Interval {
        Interval { lo: Some(v), hi: Some(v) }
    }

    /// The unbounded interval `(-∞, +∞)`.
    pub fn top() -> Interval {
        Interval { lo: None, hi: None }
    }

    /// Least upper bound of two intervals.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Standard widening: any bound still moving jumps to ±∞, so loop
    /// iteration terminates in one step per bound.
    pub fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: match (self.lo, next.lo) {
                (Some(a), Some(b)) if b >= a => Some(a),
                _ => None,
            },
            hi: match (self.hi, next.hi) {
                (Some(a), Some(b)) if b <= a => Some(a),
                _ => None,
            },
        }
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo.is_none_or(|l| l <= v) && self.hi.is_none_or(|h| v <= h)
    }
}

// ---------------------------------------------------------------------
// Expression machinery over live-token-index slices
// ---------------------------------------------------------------------

fn is_open(ix: &FileIndex, t: usize) -> bool {
    let tok = &ix.toks[t];
    tok.kind == TokKind::Punct && matches!(tok.text.as_str(), "(" | "[" | "{")
}

fn is_close(ix: &FileIndex, t: usize) -> bool {
    let tok = &ix.toks[t];
    tok.kind == TokKind::Punct && matches!(tok.text.as_str(), ")" | "]" | "}")
}

/// Live code token indices of `range`, with leading `&`/`&mut` and any
/// fully-wrapping outer parens stripped.
fn expr_toks(ix: &FileIndex, range: &Range<usize>) -> Vec<usize> {
    let mut ts: Vec<usize> =
        range.clone().filter(|&i| i < ix.toks.len() && ix.is_live(i)).collect();
    loop {
        match ts.first() {
            Some(&f) if ix.toks[f].is_punct("&") => {
                ts.remove(0);
            }
            Some(&f) if ix.toks[f].is_ident("mut") && ts.len() > 1 => {
                ts.remove(0);
            }
            _ => break,
        }
    }
    strip_outer_parens(ix, &mut ts);
    ts
}

/// Removes `( … )` pairs that wrap the whole slice.
fn strip_outer_parens(ix: &FileIndex, ts: &mut Vec<usize>) {
    loop {
        if ts.len() < 2 || !ix.toks[ts[0]].is_punct("(") || !ix.toks[ts[ts.len() - 1]].is_punct(")")
        {
            return;
        }
        let mut depth = 0i32;
        let mut close_pos = None;
        for (p, &t) in ts.iter().enumerate() {
            if is_open(ix, t) {
                depth += 1;
            } else if is_close(ix, t) {
                depth -= 1;
                if depth == 0 {
                    close_pos = Some(p);
                    break;
                }
            }
        }
        if close_pos == Some(ts.len() - 1) {
            ts.pop();
            ts.remove(0);
        } else {
            return;
        }
    }
}

/// Drops a trailing `as <type>` cast (repeatedly) and outer parens.
fn normalize(ix: &FileIndex, ts: &[usize]) -> Vec<usize> {
    let mut v = ts.to_vec();
    strip_outer_parens(ix, &mut v);
    loop {
        let mut depth = 0i32;
        let mut at = None;
        for (p, &t) in v.iter().enumerate() {
            if is_open(ix, t) {
                depth += 1;
            } else if is_close(ix, t) {
                depth -= 1;
            } else if depth == 0 && ix.toks[t].is_ident("as") {
                at = Some(p);
            }
        }
        match at {
            Some(p) if p > 0 => v.truncate(p),
            _ => break,
        }
        strip_outer_parens(ix, &mut v);
    }
    v
}

/// Canonical text of a token slice: token texts joined, with a space only
/// between two word-like tokens (`"a.len()"`, `"n_rows+1"`, `"c as usize"`
/// never reaches here — casts are stripped by [`normalize`]).
pub(crate) fn norm(ix: &FileIndex, ts: &[usize]) -> String {
    let mut s = String::new();
    let mut prev_word = false;
    for &i in ts {
        let t = &ix.toks[i];
        let word = matches!(t.kind, TokKind::Ident | TokKind::NumLit);
        if word && prev_word {
            s.push(' ');
        }
        s.push_str(&t.text);
        prev_word = word;
    }
    s
}

/// Splits at the **last** depth-0 occurrence of any operator in `ops`
/// (left-associative parse), excluding unary uses.
fn split_last_top<'o>(
    ix: &FileIndex,
    ts: &[usize],
    ops: &[&'o str],
) -> Option<(Vec<usize>, &'o str, Vec<usize>)> {
    let mut depth = 0i32;
    let mut found: Option<(usize, &'o str)> = None;
    for (p, &t) in ts.iter().enumerate() {
        if is_open(ix, t) {
            depth += 1;
        } else if is_close(ix, t) {
            depth -= 1;
        } else if ix.toks[t].kind == TokKind::Punct && depth == 0 && p > 0 && p + 1 < ts.len() {
            if let Some(&op) = ops.iter().find(|&&o| o == ix.toks[t].text) {
                let prev = &ix.toks[ts[p - 1]];
                let prev_is_operand = matches!(prev.kind, TokKind::Ident | TokKind::NumLit)
                    || prev.is_punct(")")
                    || prev.is_punct("]");
                if prev_is_operand {
                    found = Some((p, op));
                }
            }
        }
    }
    found.map(|(p, op)| (ts[..p].to_vec(), op, ts[p + 1..].to_vec()))
}

/// Top-level comma split of a token-index slice.
fn split_args(ix: &FileIndex, ts: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 0i32;
    for &t in ts {
        if is_open(ix, t) {
            depth += 1;
        } else if is_close(ix, t) {
            depth -= 1;
        } else if ix.toks[t].is_punct(",") && depth == 0 {
            out.push(std::mem::take(&mut cur));
            continue;
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The rightmost top-level method call: `recv.name(args…)` →
/// `(recv, name, args)`.
fn method_tail(ix: &FileIndex, ts: &[usize]) -> Option<(Vec<usize>, String, Vec<Vec<usize>>)> {
    if ts.len() < 4 || !ix.toks[*ts.last()?].is_punct(")") {
        return None;
    }
    let mut depth = 0i32;
    let mut open_pos = None;
    for p in (0..ts.len()).rev() {
        if is_close(ix, ts[p]) {
            depth += 1;
        } else if is_open(ix, ts[p]) {
            depth -= 1;
            if depth == 0 {
                open_pos = Some(p);
                break;
            }
        }
    }
    let open_pos = open_pos?;
    if open_pos < 3 || !ix.toks[ts[open_pos]].is_punct("(") {
        return None;
    }
    let name_t = &ix.toks[ts[open_pos - 1]];
    if name_t.kind != TokKind::Ident || !ix.toks[ts[open_pos - 2]].is_punct(".") {
        return None;
    }
    let recv = ts[..open_pos - 2].to_vec();
    if recv.is_empty() {
        return None;
    }
    let args = split_args(ix, &ts[open_pos + 1..ts.len() - 1]);
    Some((recv, name_t.text.clone(), args))
}

/// A free/path call `path::to::f(args…)` spanning the whole slice →
/// `(path segments, args)`.
fn call_path(ix: &FileIndex, ts: &[usize]) -> Option<(Vec<String>, Vec<Vec<usize>>)> {
    let open_rel = ts.iter().position(|&t| ix.toks[t].is_punct("("))?;
    if open_rel == 0 {
        return None;
    }
    let mut names = Vec::new();
    for &t in &ts[..open_rel] {
        let tok = &ix.toks[t];
        if tok.kind == TokKind::Ident {
            names.push(tok.text.clone());
        } else if !tok.is_punct("::") {
            return None;
        }
    }
    let mut depth = 0i32;
    let mut close = None;
    for (p, &t) in ts.iter().enumerate().skip(open_rel) {
        if is_open(ix, t) {
            depth += 1;
        } else if is_close(ix, t) {
            depth -= 1;
            if depth == 0 {
                close = Some(p);
                break;
            }
        }
    }
    if close != Some(ts.len() - 1) {
        return None;
    }
    Some((names, split_args(ix, &ts[open_rel + 1..ts.len() - 1])))
}

/// `container.len()` → the container's canonical text.
fn is_len_of(ix: &FileIndex, ts: &[usize]) -> Option<String> {
    let (recv, name, args) = method_tail(ix, ts)?;
    if name == "len" && args.is_empty() {
        Some(norm(ix, &recv))
    } else {
        None
    }
}

/// A bare identifier (after cast/paren stripping).
fn single_ident(ix: &FileIndex, ts: &[usize]) -> Option<String> {
    let ts = normalize(ix, ts);
    if ts.len() == 1 && ix.toks[ts[0]].kind == TokKind::Ident {
        Some(ix.toks[ts[0]].text.clone())
    } else {
        None
    }
}

/// Parses an integer literal (underscores, type suffixes, radix prefixes).
fn int_lit(text: &str) -> Option<i64> {
    let t = text.replace('_', "");
    let t = ["usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8"]
        .iter()
        .find_map(|s| t.strip_suffix(s))
        .unwrap_or(&t);
    if t.is_empty() {
        return None;
    }
    if let Some(h) = t.strip_prefix("0x") {
        i64::from_str_radix(h, 16).ok()
    } else if let Some(b) = t.strip_prefix("0b") {
        i64::from_str_radix(b, 2).ok()
    } else if let Some(o) = t.strip_prefix("0o") {
        i64::from_str_radix(o, 8).ok()
    } else {
        t.parse().ok()
    }
}

// ---------------------------------------------------------------------
// Workspace constant environment
// ---------------------------------------------------------------------

/// Integer `const` items workspace-wide, by bare name, resolved through a
/// short fixpoint so consts defined in terms of other consts fold too.
pub(crate) fn const_env(files: &[(String, FileIndex)]) -> BTreeMap<String, i64> {
    let mut env = BTreeMap::new();
    for _ in 0..3 {
        for (_, ix) in files {
            for (name, ts) in const_decls(ix) {
                if let Some(v) = const_eval(ix, &ts, &env, 0) {
                    env.insert(name, v);
                }
            }
        }
    }
    env
}

/// Live `const NAME: T = <init>;` declarations with their initialiser
/// token slice.
fn const_decls(ix: &FileIndex) -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::new();
    for i in 0..ix.toks.len() {
        if !ix.is_live(i) || !ix.toks[i].is_ident("const") {
            continue;
        }
        let Some(name_i) = next_code(&ix.toks, i + 1) else { continue };
        if ix.toks[name_i].kind != TokKind::Ident {
            continue;
        }
        let mut k = name_i + 1;
        let mut depth = 0i32;
        while k < ix.toks.len() {
            if is_open(ix, k) {
                depth += 1;
            } else if is_close(ix, k) {
                depth -= 1;
            } else if depth == 0
                && ix.toks[k].kind == TokKind::Punct
                && (ix.toks[k].text == "=" || ix.toks[k].text == ";")
            {
                break;
            }
            k += 1;
        }
        if k >= ix.toks.len() || !ix.toks[k].is_punct("=") {
            continue;
        }
        let mut m = k + 1;
        let mut depth = 0i32;
        while m < ix.toks.len() {
            if is_open(ix, m) {
                depth += 1;
            } else if is_close(ix, m) {
                depth -= 1;
            } else if ix.toks[m].is_punct(";") && depth <= 0 {
                break;
            }
            m += 1;
        }
        out.push((ix.toks[name_i].text.clone(), expr_toks(ix, &(k + 1..m))));
    }
    out
}

/// Folds a constant expression: literals, named consts, `+ - * / %`,
/// unary minus, casts, parens, `.min(…)`/`.max(…)`.
pub(crate) fn const_eval(
    ix: &FileIndex,
    ts: &[usize],
    env: &BTreeMap<String, i64>,
    depth: usize,
) -> Option<i64> {
    if depth > 8 || ts.is_empty() {
        return None;
    }
    let ts = normalize(ix, ts);
    if ts.len() == 1 {
        let t = &ix.toks[ts[0]];
        return match t.kind {
            TokKind::NumLit => int_lit(&t.text),
            TokKind::Ident => env.get(&t.text).copied(),
            _ => None,
        };
    }
    if ts.len() == 2 && ix.toks[ts[0]].is_punct("-") {
        return const_eval(ix, &ts[1..], env, depth + 1).map(|v| -v);
    }
    if let Some((l, op, r)) = split_last_top(ix, &ts, &["+", "-"]) {
        let a = const_eval(ix, &l, env, depth + 1)?;
        let b = const_eval(ix, &r, env, depth + 1)?;
        return if op == "+" { a.checked_add(b) } else { a.checked_sub(b) };
    }
    if let Some((l, op, r)) = split_last_top(ix, &ts, &["*", "/", "%"]) {
        let a = const_eval(ix, &l, env, depth + 1)?;
        let b = const_eval(ix, &r, env, depth + 1)?;
        return match op {
            "*" => a.checked_mul(b),
            "/" if b != 0 => Some(a / b),
            "%" if b != 0 => Some(a % b),
            _ => None,
        };
    }
    if let Some((recv, name, args)) = method_tail(ix, &ts) {
        if (name == "min" || name == "max") && args.len() == 1 {
            let a = const_eval(ix, &recv, env, depth + 1)?;
            let b = const_eval(ix, &args[0], env, depth + 1)?;
            return Some(if name == "min" { a.min(b) } else { a.max(b) });
        }
    }
    None
}

// ---------------------------------------------------------------------
// Per-function fact collection
// ---------------------------------------------------------------------

/// An upper-bound expression: a token slice, a container's length, or a
/// known constant.
#[derive(Debug, Clone)]
enum BoundExpr {
    Toks(Vec<usize>),
    LenOf(String),
    Const(i64),
    /// A normalized expression *string* — used for facts that cross file
    /// boundaries (interprocedural method-return summaries), where token
    /// indices of the defining file would be meaningless at the use site.
    Sym(String),
}

/// `var < bound` (strict) or `var <= bound`, valid over `scope`.
#[derive(Debug)]
struct Upper {
    var: String,
    bound: BoundExpr,
    strict: bool,
    scope: Range<usize>,
}

/// `var == <init>` from a `let`, valid over `scope`; `at` re-anchors
/// recursive lookups to the binding site.
#[derive(Debug)]
struct EqFact {
    var: String,
    init: Vec<usize>,
    scope: Range<usize>,
    at: usize,
}

/// `container.len() == len`, valid over `scope`.
#[derive(Debug)]
struct LenFact {
    container: String,
    len: BoundExpr,
    scope: Range<usize>,
}

/// Everything the walker learned about one function body.
#[derive(Debug, Default)]
struct FnFacts {
    uppers: Vec<Upper>,
    eqs: Vec<EqFact>,
    lens: Vec<LenFact>,
    /// Containers proven non-empty (`!c.is_empty()` guards/asserts).
    nonempty: Vec<(String, Range<usize>)>,
    /// `var` is a multiple of `k` over the scope (`let m = n - n % K`).
    aligned: Vec<(String, i64, Range<usize>)>,
    /// `var` is a `chunks_exact(K)` iterator over some slice.
    chunkers: Vec<(String, Vec<usize>, Range<usize>)>,
    /// `var += <rhs>` sites: (var, site, rhs tokens).
    increments: Vec<(String, usize, Vec<usize>)>,
    /// `let mut var = <init>` initialisers.
    mut_inits: Vec<(String, Vec<usize>)>,
    /// Vars hit by a plain `var = …` reassignment (kills alignment).
    reassigned: Vec<String>,
}

impl FnFacts {
    /// Rebinding/reassignment at `pos` ends every earlier fact about
    /// `name` (lexical kill — the symbol now means something else).
    fn kill(&mut self, name: &str, pos: usize) {
        for u in &mut self.uppers {
            if u.var == name && u.scope.start < pos && pos < u.scope.end {
                u.scope.end = pos;
            }
        }
        for e in &mut self.eqs {
            if e.var == name && e.scope.start < pos && pos < e.scope.end {
                e.scope.end = pos;
            }
        }
        for l in &mut self.lens {
            if l.container == name && l.scope.start < pos && pos < l.scope.end {
                l.scope.end = pos;
            }
        }
        for n in &mut self.nonempty {
            if n.0 == name && n.1.start < pos && pos < n.1.end {
                n.1.end = pos;
            }
        }
        for a in &mut self.aligned {
            if a.0 == name && a.2.start < pos && pos < a.2.end {
                a.2.end = pos;
            }
        }
        for c in &mut self.chunkers {
            if c.0 == name && c.2.start < pos && pos < c.2.end {
                c.2.end = pos;
            }
        }
    }
}

/// End of the statement starting at `i`: index of the depth-0 `;` (or
/// `body.end`).
fn stmt_end(ix: &FileIndex, i: usize, body_end: usize) -> usize {
    let mut depth = 0i32;
    let mut m = i;
    while m < body_end {
        if is_open(ix, m) {
            depth += 1;
        } else if is_close(ix, m) {
            depth -= 1;
        } else if ix.toks[m].is_punct(";") && depth <= 0 {
            return m;
        }
        m += 1;
    }
    body_end
}

/// First depth-0 occurrence of a punct/ident `what` in `i..limit`. The
/// match test runs before depth bookkeeping so an opener (`{`) can itself
/// be the target.
fn find_top(ix: &FileIndex, i: usize, limit: usize, what: &str, stop: &[&str]) -> Option<usize> {
    let mut depth = 0i32;
    let mut m = i;
    while m < limit {
        if depth == 0 && ix.is_live(m) {
            let t = &ix.toks[m].text;
            if t == what {
                return Some(m);
            }
            if stop.iter().any(|s| s == t) {
                return None;
            }
        }
        if is_open(ix, m) {
            depth += 1;
        } else if is_close(ix, m) {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        }
        m += 1;
    }
    None
}

/// Identifiers bound by a (possibly nested-tuple) pattern, in token order.
fn pattern_idents(ix: &FileIndex, range: &Range<usize>) -> Vec<String> {
    range
        .clone()
        .filter(|&i| ix.is_live(i) && ix.toks[i].kind == TokKind::Ident)
        .map(|i| ix.toks[i].text.clone())
        .filter(|t| t != "mut" && t != "ref" && t != "_")
        .collect()
}

/// Collects the value facts of one function body in a single forward walk.
fn collect_facts(
    ix: &FileIndex,
    f: &FnItem,
    env: &BTreeMap<String, i64>,
    sums: &Summaries,
) -> FnFacts {
    let mut facts = FnFacts::default();
    collect_param_lens(ix, f, &mut facts);
    let body = f.body.clone();
    let mut i = body.start;
    while i < body.end {
        if !ix.is_live(i) {
            i += 1;
            continue;
        }
        let text = ix.toks[i].text.as_str();
        match text {
            "let" => {
                if let Some(next) = collect_let(ix, i, &body, env, sums, &mut facts) {
                    i = next;
                    continue;
                }
            }
            "for" => if let Some(()) = collect_for(ix, i, &body, &mut facts) {},
            "while" => collect_while(ix, i, &body, &mut facts),
            "if" => collect_if(ix, i, &body, &mut facts),
            "assert" | "debug_assert" => collect_assert(ix, i, &body, &mut facts),
            "assert_eq" | "debug_assert_eq" => collect_assert_eq(ix, i, &body, &mut facts),
            "run" => collect_pool_run(ix, i, &mut facts),
            "windows" => if let Some(()) = collect_windows(ix, i, &mut facts) {},
            "par_row_blocks_mut" => collect_row_blocks(ix, i, &mut facts),
            _ => collect_assignment(ix, i, &body, &mut facts),
        }
        i += 1;
    }
    facts
}

/// Fixed-size-array parameters (`acc: [f32; N]`, `&mut [f32; 8]`) give the
/// parameter a length fact over the whole body.
fn collect_param_lens(ix: &FileIndex, f: &FnItem, facts: &mut FnFacts) {
    let mut last_param: Option<String> = None;
    let mut depth = 0i32;
    let mut i = f.at;
    while i < f.body.start {
        let t = &ix.toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "{" => depth += 1,
                ")" | "}" => depth -= 1,
                "[" if depth >= 1 => {
                    if let (Some(close), Some(name)) = (match_delim(&ix.toks, i), &last_param) {
                        if let Some(semi) = find_top(ix, i + 1, close, ";", &[]) {
                            facts.lens.push(LenFact {
                                container: name.clone(),
                                len: BoundExpr::Toks(expr_toks(ix, &(semi + 1..close))),
                                scope: f.body.clone(),
                            });
                        }
                        i = close;
                    }
                }
                ":" if depth == 1 => {
                    if let Some(p) = prev_code(&ix.toks, i) {
                        if ix.toks[p].kind == TokKind::Ident && !ix.toks[p].is_ident("self") {
                            last_param = Some(ix.toks[p].text.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
}

/// One `let` statement: kill + equality fact + any length/alignment/
/// chunker facts its initialiser yields. Returns the token index to resume
/// the walk from (the statement's `;`).
fn collect_let(
    ix: &FileIndex,
    let_at: usize,
    body: &Range<usize>,
    env: &BTreeMap<String, i64>,
    sums: &Summaries,
    facts: &mut FnFacts,
) -> Option<usize> {
    let mut j = next_code(&ix.toks, let_at + 1)?;
    let is_mut = ix.toks[j].is_ident("mut");
    if is_mut {
        j = next_code(&ix.toks, j + 1)?;
    }
    if ix.toks[j].is_punct("(") {
        return collect_tuple_let(ix, let_at, j, body, env, sums, facts);
    }
    if ix.toks[j].kind != TokKind::Ident || j >= body.end {
        return None;
    }
    let name = ix.toks[j].text.clone();
    let mut k = j + 1;
    let mut depth = 0i32;
    while k < body.end {
        if is_open(ix, k) {
            depth += 1;
        } else if is_close(ix, k) {
            depth -= 1;
        } else if depth == 0 && (ix.toks[k].is_punct("=") || ix.toks[k].is_punct(";")) {
            break;
        }
        k += 1;
    }
    if k >= body.end || !ix.toks[k].is_punct("=") {
        return None;
    }
    let end = stmt_end(ix, k + 1, body.end);
    let init = expr_toks(ix, &(k + 1..end));
    facts.kill(&name, let_at);
    let scope = end..body.end;
    facts.eqs.push(EqFact { var: name.clone(), init: init.clone(), scope: scope.clone(), at: end });
    if is_mut {
        facts.mut_inits.push((name.clone(), init.clone()));
    }
    collect_init_facts(ix, &name, &init, env, sums, scope, facts);
    Some(end)
}

/// Strips leading `&`/`mut` and outer parens from a token list.
fn strip_ref(ix: &FileIndex, mut ts: Vec<usize>) -> Vec<usize> {
    while let Some(&f) = ts.first() {
        if ix.toks[f].is_punct("&") || (ix.toks[f].is_ident("mut") && ts.len() > 1) {
            ts.remove(0);
        } else {
            break;
        }
    }
    strip_outer_parens(ix, &mut ts);
    ts
}

/// `let (a, b) = (e1, e2);` — parallel mini-lets: each pattern ident is
/// killed, bound to its tuple element, and mined for initialiser facts.
/// Non-tuple initialisers (a call returning a tuple) still kill.
fn collect_tuple_let(
    ix: &FileIndex,
    let_at: usize,
    open: usize,
    body: &Range<usize>,
    env: &BTreeMap<String, i64>,
    sums: &Summaries,
    facts: &mut FnFacts,
) -> Option<usize> {
    let close = match_delim(&ix.toks, open)?;
    if close >= body.end {
        return None;
    }
    let pat_list: Vec<usize> = (open + 1..close).filter(|&i| ix.is_live(i)).collect();
    let pat_names: Vec<Option<String>> = split_args(ix, &pat_list)
        .into_iter()
        .map(|mut e| {
            while let Some(&f) = e.first() {
                if ix.toks[f].is_ident("mut") || ix.toks[f].is_ident("ref") {
                    e.remove(0);
                } else {
                    break;
                }
            }
            single_ident(ix, &e)
        })
        .collect();
    let mut k = close + 1;
    let mut depth = 0i32;
    while k < body.end {
        if is_open(ix, k) {
            depth += 1;
        } else if is_close(ix, k) {
            depth -= 1;
        } else if depth == 0 && (ix.toks[k].is_punct("=") || ix.toks[k].is_punct(";")) {
            break;
        }
        k += 1;
    }
    for name in pat_names.iter().flatten() {
        facts.kill(name, let_at);
    }
    if k >= body.end || !ix.toks[k].is_punct("=") {
        return None;
    }
    let end = stmt_end(ix, k + 1, body.end);
    let init = expr_toks(ix, &(k + 1..end));
    let elems = split_args(ix, &init);
    if elems.len() == pat_names.len() {
        for (name, elem) in pat_names.iter().zip(elems) {
            let elem = strip_ref(ix, elem);
            if let Some(name) = name {
                let scope = end..body.end;
                facts.eqs.push(EqFact {
                    var: name.clone(),
                    init: elem.clone(),
                    scope: scope.clone(),
                    at: end,
                });
                collect_init_facts(ix, name, &elem, env, sums, scope, facts);
            }
        }
    }
    Some(end)
}

/// Length/alignment/chunker facts derivable from one initialiser.
fn collect_init_facts(
    ix: &FileIndex,
    name: &str,
    init: &[usize],
    env: &BTreeMap<String, i64>,
    sums: &Summaries,
    scope: Range<usize>,
    facts: &mut FnFacts,
) {
    // `vec![x; E]` — length is E.
    if init.len() >= 3
        && ix.toks[init[0]].is_ident("vec")
        && ix.toks[init[1]].is_punct("!")
        && ix.toks[init[2]].is_punct("[")
    {
        let inner: Vec<usize> = init[3..init.len().saturating_sub(1)].to_vec();
        if let Some(semi) = inner.iter().position(|&t| ix.toks[t].is_punct(";")) {
            facts.lens.push(LenFact {
                container: name.to_string(),
                len: BoundExpr::Toks(inner[semi + 1..].to_vec()),
                scope,
            });
        }
        return;
    }
    // Array literal `[x; E]` / `[a, b, c]`.
    if !init.is_empty() && ix.toks[init[0]].is_punct("[") && is_close(ix, init[init.len() - 1]) {
        let inner = &init[1..init.len() - 1];
        let mut depth = 0i32;
        let mut semi = None;
        let mut commas = 0usize;
        for (p, &t) in inner.iter().enumerate() {
            if is_open(ix, t) {
                depth += 1;
            } else if is_close(ix, t) {
                depth -= 1;
            } else if depth == 0 && ix.toks[t].is_punct(";") {
                semi = Some(p);
            } else if depth == 0 && ix.toks[t].is_punct(",") {
                commas += 1;
            }
        }
        let len = match semi {
            Some(p) => Some(BoundExpr::Toks(inner[p + 1..].to_vec())),
            None if !inner.is_empty() => Some(BoundExpr::Const(commas as i64 + 1)),
            None => None,
        };
        if let Some(len) = len {
            facts.lens.push(LenFact { container: name.to_string(), len, scope });
        }
        return;
    }
    // Partition providers: `split_even(n, parts)` / `split_by_weight(w, parts)`
    // return exactly `parts` ranges — the static twin of the runtime
    // disjointness sanitizer's range-count check.
    if let Some((names, args)) = call_path(ix, init) {
        if let Some(last) = names.last() {
            if (last == "split_even" || last == "split_by_weight") && args.len() >= 2 {
                facts.lens.push(LenFact {
                    container: name.to_string(),
                    len: BoundExpr::Toks(args[1].clone()),
                    scope,
                });
                return;
            }
        }
    }
    if let Some((recv, mname, margs)) = method_tail(ix, init) {
        if (mname == "chunks_exact" || mname == "chunks_exact_mut") && margs.len() == 1 {
            facts.chunkers.push((name.to_string(), margs[0].clone(), scope));
            return;
        }
        // Interprocedural: a summarized slice-returning method gives the
        // binding a symbolic length (`let a_row = a.row(i)` → `a.cols`).
        if let Some(path) = sums.slice_rets.get(&mname) {
            facts.lens.push(LenFact {
                container: name.to_string(),
                len: BoundExpr::Sym(format!("{}.{path}", norm(ix, &normalize(ix, &recv)))),
                scope: scope.clone(),
            });
            return;
        }
    }
    // `X[lo..lo + K]` / `X[..K]` — name is a slice of known length K.
    if init.len() >= 4 && ix.toks[init[init.len() - 1]].is_punct("]") {
        let mut depth = 0i32;
        let mut open_pos = None;
        for p in (0..init.len()).rev() {
            if is_close(ix, init[p]) {
                depth += 1;
            } else if is_open(ix, init[p]) {
                depth -= 1;
                if depth == 0 {
                    open_pos = Some(p);
                    break;
                }
            }
        }
        if let Some(op) = open_pos {
            if op > 0 && ix.toks[init[op]].is_punct("[") {
                let inner = &init[op + 1..init.len() - 1];
                if let Some((lo, hi, false)) = split_last_range(ix, inner) {
                    let len = if lo.is_empty() && !hi.is_empty() {
                        Some(hi)
                    } else {
                        split_last_top(ix, &hi, &["+"]).and_then(|(pl, _, pr)| {
                            (norm(ix, &normalize(ix, &pl)) == norm(ix, &normalize(ix, &lo)))
                                .then_some(pr)
                        })
                    };
                    if let Some(len) = len {
                        facts.lens.push(LenFact {
                            container: name.to_string(),
                            len: BoundExpr::Toks(len),
                            scope: scope.clone(),
                        });
                        return;
                    }
                }
            }
        }
    }
    // `X - X % K` — name is a K-aligned prefix length.
    if let Some((l, _, r)) = split_last_top(ix, init, &["-"]) {
        if let Some((ml, _, mr)) = split_last_top(ix, &r, &["%"]) {
            if norm(ix, &normalize(ix, &l)) == norm(ix, &normalize(ix, &ml)) {
                if let Some(k) = const_eval(ix, &mr, env, 0) {
                    if k > 0 {
                        facts.aligned.push((name.to_string(), k, scope));
                    }
                }
            }
        }
    }
}

/// `recv.windows(K).all(|w| …)` — the adapter yields exactly-`K`-length
/// windows, so the closure parameter carries a length fact over the
/// closure body.
fn collect_windows(ix: &FileIndex, at: usize, facts: &mut FnFacts) -> Option<()> {
    if !prev_code(&ix.toks, at).is_some_and(|p| ix.toks[p].is_punct(".")) {
        return None;
    }
    let open = next_code(&ix.toks, at + 1)?;
    if !ix.toks[open].is_punct("(") {
        return None;
    }
    let close = match_delim(&ix.toks, open)?;
    let k = expr_toks(ix, &(open + 1..close));
    if k.is_empty() {
        return None;
    }
    let dot = next_code(&ix.toks, close + 1)?;
    let m = next_code(&ix.toks, dot + 1)?;
    let open2 = next_code(&ix.toks, m + 1)?;
    if !ix.toks[dot].is_punct(".")
        || ix.toks[m].kind != TokKind::Ident
        || !ix.toks[open2].is_punct("(")
    {
        return None;
    }
    let close2 = match_delim(&ix.toks, open2)?;
    let bar = next_code(&ix.toks, open2 + 1)?;
    let p = next_code(&ix.toks, bar + 1)?;
    let bar2 = next_code(&ix.toks, p + 1)?;
    if !ix.toks[bar].is_punct("|")
        || ix.toks[p].kind != TokKind::Ident
        || !ix.toks[bar2].is_punct("|")
    {
        return None;
    }
    facts.lens.push(LenFact {
        container: ix.toks[p].text.clone(),
        len: BoundExpr::Toks(k),
        scope: open2..close2 + 1,
    });
    Some(())
}

/// `for <pat> in <iter> { … }` — range bounds, `.enumerate()` indices and
/// `chunks_exact` zip chains all yield facts scoped to the loop body.
fn collect_for(ix: &FileIndex, at: usize, body: &Range<usize>, facts: &mut FnFacts) -> Option<()> {
    let in_at = find_top(ix, at + 1, body.end, "in", &["{", ";"])?;
    let brace = find_top(ix, in_at + 1, body.end, "{", &[";"])?;
    let close = match_delim(&ix.toks, brace)?;
    let loop_body = brace..close + 1;
    let pats = pattern_idents(ix, &(at + 1..in_at));
    for p in &pats {
        facts.kill(p, at);
    }
    let iter = expr_toks(ix, &(in_at + 1..brace));
    // `lo..hi` / `lo..=hi` with a single-ident pattern (lower bounds are
    // not tracked — indices are usize, so ≥ 0 is free).
    for (op, strict) in [("..", true), ("..=", false)] {
        if let Some((_, o, hi)) = split_last_top(ix, &iter, &[op]) {
            if o == op && pats.len() == 1 && !hi.is_empty() {
                facts.uppers.push(Upper {
                    var: pats[0].clone(),
                    bound: bound_of(ix, &hi),
                    strict,
                    scope: loop_body.clone(),
                });
                return Some(());
            }
        }
    }
    // `.enumerate()` — first tuple element indexes the iterated container.
    if let Some((recv, name, args)) = method_tail(ix, &iter) {
        if name == "enumerate" && args.is_empty() && !pats.is_empty() {
            let base = match method_tail(ix, &recv) {
                Some((r, n, a))
                    if a.is_empty() && matches!(n.as_str(), "iter" | "iter_mut" | "into_iter") =>
                {
                    r
                }
                _ => recv.clone(),
            };
            facts.uppers.push(Upper {
                var: pats[0].clone(),
                bound: BoundExpr::LenOf(norm(ix, &normalize(ix, &base))),
                strict: true,
                scope: loop_body.clone(),
            });
            return Some(());
        }
    }
    // Zip chains over `chunks_exact` iterators: each pattern element bound
    // to a chunk gets a length fact of the chunk size. A chain bound to a
    // local first (`let chunks = …zip(…); for … in chunks`) resolves
    // through the equality fact.
    let mut cur = iter.clone();
    if let Some(name) = single_ident(ix, &cur) {
        if let Some(eq) = facts.eqs.iter().rev().find(|e| e.var == name && e.scope.contains(&at)) {
            cur = eq.init.clone();
        }
    }
    let mut elems: Vec<Vec<usize>> = Vec::new();
    while let Some((recv, name, args)) = method_tail(ix, &cur) {
        if name == "zip" && args.len() == 1 {
            elems.push(args[0].clone());
            cur = recv;
        } else {
            break;
        }
    }
    elems.push(cur);
    elems.reverse();
    if elems.len() == pats.len() {
        for (pat, elem) in pats.iter().zip(&elems) {
            if let Some(k) = chunk_width(ix, elem, facts, at) {
                facts.lens.push(LenFact {
                    container: pat.clone(),
                    len: BoundExpr::Toks(k),
                    scope: loop_body.clone(),
                });
            }
        }
    }
    Some(())
}

/// If `elem` is a `chunks_exact(K)` expression (directly, via a bound
/// chunker, or through `.by_ref()`), the chunk width `K`.
fn chunk_width(ix: &FileIndex, elem: &[usize], facts: &FnFacts, pos: usize) -> Option<Vec<usize>> {
    if let Some((_, name, args)) = method_tail(ix, elem) {
        if (name == "chunks_exact" || name == "chunks_exact_mut") && args.len() == 1 {
            return Some(args[0].clone());
        }
    }
    let name = single_ident(ix, elem).or_else(|| {
        // `ch.by_ref()`
        method_tail(ix, elem).and_then(|(recv, n, a)| {
            if n == "by_ref" && a.is_empty() {
                single_ident(ix, &recv)
            } else {
                None
            }
        })
    })?;
    facts
        .chunkers
        .iter()
        .rev()
        .find(|(c, _, scope)| *c == name && scope.contains(&pos))
        .map(|(_, k, _)| k.clone())
}

/// `while <cond> { … }` — `v < E` / `v <= E` conjuncts bound `v` in the
/// loop body.
fn collect_while(ix: &FileIndex, at: usize, body: &Range<usize>, facts: &mut FnFacts) {
    let Some(brace) = find_top(ix, at + 1, body.end, "{", &[";"]) else { return };
    let Some(close) = match_delim(&ix.toks, brace) else { return };
    let cond = expr_toks(ix, &(at + 1..brace));
    collect_conjuncts(ix, &cond, brace..close + 1, facts);
}

/// `if <cond> { … }` — either scoped guards (facts in the then-body) or,
/// when the body immediately `return`s, negated early-exit guards valid to
/// the end of the function: `¬(a ≥ n ‖ b > m)` ⇒ `a < n ∧ b ≤ m`.
fn collect_if(ix: &FileIndex, at: usize, body: &Range<usize>, facts: &mut FnFacts) {
    let Some(next) = next_code(&ix.toks, at + 1) else { return };
    if ix.toks[next].is_ident("let") {
        return; // `if let` patterns carry no numeric guard
    }
    let Some(brace) = find_top(ix, at + 1, body.end, "{", &[";"]) else { return };
    let Some(close) = match_delim(&ix.toks, brace) else { return };
    let cond = expr_toks(ix, &(at + 1..brace));
    let first_in_body = next_code(&ix.toks, brace + 1);
    let early_return = first_in_body.is_some_and(|j| j < close && ix.toks[j].is_ident("return"));
    if early_return {
        let scope = close + 1..body.end;
        for disj in split_all_top(ix, &cond, "||") {
            collect_negated(ix, &disj, scope.clone(), facts);
        }
    } else {
        collect_conjuncts(ix, &cond, brace..close + 1, facts);
    }
}

/// All top-level `op`-separated pieces of a condition.
fn split_all_top(ix: &FileIndex, ts: &[usize], op: &str) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = ts.to_vec();
    while let Some((l, _, r)) = split_last_top(ix, &cur, &[op]) {
        out.push(r);
        cur = l;
    }
    out.push(cur);
    out.reverse();
    out
}

/// Positive conjuncts (`a && b && …`): each may yield an upper bound or a
/// non-emptiness fact over `scope`.
fn collect_conjuncts(ix: &FileIndex, cond: &[usize], scope: Range<usize>, facts: &mut FnFacts) {
    for conj in split_all_top(ix, cond, "&&") {
        // `!c.is_empty()`
        if conj.first().is_some_and(|&t| ix.toks[t].is_punct("!")) {
            if let Some((recv, name, args)) = method_tail(ix, &conj[1..]) {
                if name == "is_empty" && args.is_empty() {
                    facts.nonempty.push((norm(ix, &normalize(ix, &recv)), scope.clone()));
                }
            }
            continue;
        }
        for (op, strict) in [("<", true), ("<=", false)] {
            if let Some((l, _, r)) = split_last_top(ix, &conj, &[op]) {
                if let Some(v) = single_ident(ix, &l) {
                    facts.uppers.push(Upper {
                        var: v,
                        bound: bound_of(ix, &r),
                        strict,
                        scope: scope.clone(),
                    });
                }
            }
        }
        // Reversed comparison: `E > v` / `E >= v`.
        for (op, strict) in [(">", true), (">=", false)] {
            if let Some((l, _, r)) = split_last_top(ix, &conj, &[op]) {
                if let Some(v) = single_ident(ix, &r) {
                    facts.uppers.push(Upper {
                        var: v,
                        bound: bound_of(ix, &l),
                        strict,
                        scope: scope.clone(),
                    });
                }
            }
        }
    }
}

/// One negated early-return disjunct: `v >= E` ⇒ `v < E`, `v > E` ⇒
/// `v <= E`, `c.is_empty()` ⇒ `!c.is_empty()` — all valid after the `if`.
fn collect_negated(ix: &FileIndex, disj: &[usize], scope: Range<usize>, facts: &mut FnFacts) {
    if let Some((recv, name, args)) = method_tail(ix, disj) {
        if name == "is_empty" && args.is_empty() {
            facts.nonempty.push((norm(ix, &normalize(ix, &recv)), scope));
            return;
        }
    }
    for (op, strict) in [(">=", true), (">", false)] {
        if let Some((l, o, r)) = split_last_top(ix, disj, &[op]) {
            if o == op {
                if let Some(v) = single_ident(ix, &l) {
                    facts.uppers.push(Upper { var: v, bound: bound_of(ix, &r), strict, scope });
                    return;
                }
            }
        }
    }
    // Reversed: `E <= v` ⇒ `v > …` is a lower bound — not tracked.
}

/// An upper-bound expression, preferring `LenOf` when the bound is a plain
/// `c.len()`.
fn bound_of(ix: &FileIndex, ts: &[usize]) -> BoundExpr {
    let ts = normalize(ix, ts);
    match is_len_of(ix, &ts) {
        Some(c) => BoundExpr::LenOf(c),
        None => BoundExpr::Toks(ts),
    }
}

/// `assert!(cond)` / `debug_assert!(cond)` — conjunct facts valid from the
/// assertion to the end of the function.
fn collect_assert(ix: &FileIndex, at: usize, body: &Range<usize>, facts: &mut FnFacts) {
    let Some(bang) = next_code(&ix.toks, at + 1) else { return };
    if !ix.toks[bang].is_punct("!") {
        return;
    }
    let Some(open) = next_code(&ix.toks, bang + 1) else { return };
    if !ix.toks[open].is_punct("(") {
        return;
    }
    let Some(close) = match_delim(&ix.toks, open) else { return };
    let args = split_args(ix, &expr_toks(ix, &(open + 1..close)));
    if let Some(cond) = args.first() {
        collect_conjuncts(ix, cond, close + 1..body.end, facts);
    }
}

/// `assert_eq!(a.len(), n)` (either order) pins a length fact from the
/// assertion to the end of the function.
fn collect_assert_eq(ix: &FileIndex, at: usize, body: &Range<usize>, facts: &mut FnFacts) {
    let Some(bang) = next_code(&ix.toks, at + 1) else { return };
    if !ix.toks[bang].is_punct("!") {
        return;
    }
    let Some(open) = next_code(&ix.toks, bang + 1) else { return };
    if !ix.toks[open].is_punct("(") {
        return;
    }
    let Some(close) = match_delim(&ix.toks, open) else { return };
    let args = split_args(ix, &expr_toks(ix, &(open + 1..close)));
    if args.len() < 2 {
        return;
    }
    let scope = close + 1..body.end;
    for (a, b) in [(&args[0], &args[1]), (&args[1], &args[0])] {
        if let Some(c) = is_len_of(ix, &normalize(ix, a)) {
            facts.lens.push(LenFact { container: c, len: bound_of(ix, b), scope: scope.clone() });
        }
    }
}

/// `pool::run(n, |task| …)` — the closure parameter ranges over
/// `0..n_tasks`, the contract the runtime disjointness sanitizer enforces
/// dynamically.
fn collect_pool_run(ix: &FileIndex, at: usize, facts: &mut FnFacts) {
    let qualified = prev_code(&ix.toks, at)
        .filter(|&j| ix.toks[j].is_punct("::"))
        .and_then(|j| prev_code(&ix.toks, j))
        .is_some_and(|j| ix.toks[j].is_ident("pool") || ix.toks[j].is_ident("amud_par"));
    if !qualified {
        return;
    }
    let Some(args) = crate::workspace::call_args(ix, at) else { return };
    if args.len() < 2 {
        return;
    }
    bind_closure_param(ix, &args[1], &args[0], facts);
}

/// `par_row_blocks_mut(data, cols, parts, |b, …| …)` — the closure's first
/// parameter indexes `parts`.
fn collect_row_blocks(ix: &FileIndex, at: usize, facts: &mut FnFacts) {
    let Some(args) = crate::workspace::call_args(ix, at) else { return };
    if args.len() < 4 {
        return;
    }
    let parts = expr_toks(ix, &args[2]);
    let Some(pname) = single_ident(ix, &parts) else { return };
    let closure: Vec<usize> = args[3].clone().filter(|&i| ix.is_live(i)).collect();
    let Some(bar) = closure.iter().position(|&t| ix.toks[t].is_punct("|")) else { return };
    let Some(close_bar) = closure[bar + 1..].iter().position(|&t| ix.toks[t].is_punct("|")) else {
        return;
    };
    let params = &closure[bar + 1..bar + 1 + close_bar];
    let Some(&first) = params.first() else { return };
    if ix.toks[first].kind != TokKind::Ident || ix.toks[first].text == "_" {
        return;
    }
    let name = ix.toks[first].text.clone();
    facts.kill(&name, first);
    facts.uppers.push(Upper {
        var: name,
        bound: BoundExpr::LenOf(pname),
        strict: true,
        scope: args[3].clone(),
    });
}

/// Binds a closure's first parameter to `0..bound` over the closure span.
fn bind_closure_param(
    ix: &FileIndex,
    closure: &Range<usize>,
    bound: &Range<usize>,
    facts: &mut FnFacts,
) {
    let toks: Vec<usize> = closure.clone().filter(|&i| ix.is_live(i)).collect();
    let Some(bar) = toks.iter().position(|&t| ix.toks[t].is_punct("|")) else { return };
    let Some(close_bar) = toks[bar + 1..].iter().position(|&t| ix.toks[t].is_punct("|")) else {
        return;
    };
    let params = &toks[bar + 1..bar + 1 + close_bar];
    let Some(&first) = params.first() else { return };
    if ix.toks[first].kind != TokKind::Ident || ix.toks[first].text == "_" {
        return;
    }
    let name = ix.toks[first].text.clone();
    facts.kill(&name, first);
    facts.uppers.push(Upper {
        var: name,
        bound: BoundExpr::Toks(expr_toks(ix, bound)),
        strict: true,
        scope: closure.clone(),
    });
}

/// Plain reassignment kills facts; compound `+=` feeds alignment tracking.
fn collect_assignment(ix: &FileIndex, at: usize, body: &Range<usize>, facts: &mut FnFacts) {
    if ix.toks[at].kind != TokKind::Ident {
        return;
    }
    // Field/path positions are not local rebinds.
    if prev_code(&ix.toks, at)
        .is_some_and(|j| ix.toks[j].is_punct(".") || ix.toks[j].is_punct("::"))
    {
        return;
    }
    let Some(next) = next_code(&ix.toks, at + 1) else { return };
    let name = ix.toks[at].text.clone();
    let op = ix.toks[next].text.as_str();
    if ix.toks[next].kind != TokKind::Punct {
        return;
    }
    match op {
        "=" => {
            facts.kill(&name, at);
            facts.reassigned.push(name);
        }
        "+=" => {
            let end = stmt_end(ix, next + 1, body.end);
            facts.increments.push((name, at, expr_toks(ix, &(next + 1..end))));
        }
        "-=" | "*=" | "/=" | "%=" | "<<=" | ">>=" | "&=" | "|=" | "^=" => {
            facts.kill(&name, at);
            facts.reassigned.push(name);
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// The prover
// ---------------------------------------------------------------------

/// Interprocedural return-value summaries mined from single-expression
/// method bodies, keyed by method name. A name that summarizes
/// differently in two impls is dropped — name-keyed summaries must be
/// unambiguous workspace-wide to be sound.
///
/// - `getters`: `fn cols(&self) -> usize { self.cols }` ⇒ `x.cols()`
///   canonicalizes to `x.cols` in proof-obligation strings.
/// - `slice_rets`: `fn row(&self, r) -> &[T] { &self.data[r * self.cols
///   .. (r + 1) * self.cols] }` ⇒ `x.row(i)` yields a slice of `x.cols`
///   elements (the field path is stored relative to the receiver).
#[derive(Debug, Default)]
pub(crate) struct Summaries {
    getters: BTreeMap<String, String>,
    slice_rets: BTreeMap<String, String>,
}

impl Summaries {
    /// The symbolic length of a method-call *container* (`self.row(r)` →
    /// `self.cols`), for sites that index straight into a call result.
    fn container_sym(&self, container: &str) -> Option<String> {
        if !container.ends_with(')') {
            return None;
        }
        let head = &container[..container.find('(')?];
        let dot = head.rfind('.')?;
        let path = self.slice_rets.get(&head[dot + 1..])?;
        Some(format!("{}.{path}", &head[..dot]))
    }
}

fn method_summaries(files: &[(String, FileIndex)]) -> Summaries {
    let mut sums = Summaries::default();
    let mut dead: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let insert = |map: &mut BTreeMap<String, String>,
                  dead: &mut std::collections::BTreeSet<String>,
                  name: &str,
                  val: String| {
        match map.get(name) {
            Some(v) if *v == val => {}
            Some(_) => {
                map.remove(name);
                dead.insert(name.to_string());
            }
            None if dead.contains(name) => {}
            None => {
                map.insert(name.to_string(), val);
            }
        }
    };
    for (_, ix) in files {
        for f in ix.fn_items() {
            if !ix.is_live(f.at) || f.body.len() < 2 {
                continue;
            }
            let ts = expr_toks(ix, &(f.body.start + 1..f.body.end - 1));
            // Getter: body is exactly `self.<field>`.
            if ts.len() == 3
                && ix.toks[ts[0]].is_ident("self")
                && ix.toks[ts[1]].is_punct(".")
                && ix.toks[ts[2]].kind == TokKind::Ident
            {
                insert(&mut sums.getters, &mut dead, &f.name, ix.toks[ts[2]].text.clone());
                continue;
            }
            // Slice return: body is exactly `&[mut] self.<field>[E1..E2]`.
            if ts.len() >= 7
                && ix.toks[ts[0]].is_ident("self")
                && ix.toks[ts[1]].is_punct(".")
                && ix.toks[ts[2]].kind == TokKind::Ident
                && ix.toks[ts[3]].is_punct("[")
                && is_close(ix, ts[ts.len() - 1])
            {
                let inner = &ts[4..ts.len() - 1];
                let Some((lo, hi, false)) = split_last_range(ix, inner) else { continue };
                let len = if let Some((pl, _, pr)) = split_last_top(ix, &hi, &["+"]) {
                    // `E1 .. E1 + K` — length K.
                    (norm(ix, &normalize(ix, &pl)) == norm(ix, &normalize(ix, &lo))).then_some(pr)
                } else {
                    // `r·X .. (r + 1)·X` — length X.
                    match (
                        split_last_top(ix, &normalize(ix, &lo), &["*"]),
                        split_last_top(ix, &normalize(ix, &hi), &["*"]),
                    ) {
                        (Some((ll, _, lr)), Some((hl, _, hr)))
                            if norm(ix, &normalize(ix, &lr)) == norm(ix, &normalize(ix, &hr))
                                && norm(ix, &normalize(ix, &hl))
                                    == format!("{}+1", norm(ix, &normalize(ix, &ll))) =>
                        {
                            Some(hr)
                        }
                        _ => None,
                    }
                };
                if let Some(len) = len {
                    let len_str = norm(ix, &normalize(ix, &len));
                    if let Some(path) = len_str.strip_prefix("self.") {
                        if !path.contains("self") {
                            insert(&mut sums.slice_rets, &mut dead, &f.name, path.to_string());
                        }
                    }
                }
            }
        }
    }
    sums
}

const MAX_PROOF_DEPTH: usize = 7;

struct Prover<'a> {
    ix: &'a FileIndex,
    facts: &'a FnFacts,
    env: &'a BTreeMap<String, i64>,
    sums: &'a Summaries,
    /// The access site under proof. Container facts (lengths, non-empty)
    /// are evaluated here: equality hops rewind `pos` to binding points
    /// where a loop-scoped length fact is not yet visible, but the access
    /// itself happens at the site, so that is where `c.len()` is read.
    site: std::cell::Cell<usize>,
}

impl<'a> Prover<'a> {
    /// Rewrites parameterless getter calls to their field (`a.cols()` →
    /// `a.cols`) so symbolic summary lengths compare across idioms.
    fn canon(&self, s: &str) -> String {
        let mut s = s.to_string();
        for (m, fld) in &self.sums.getters {
            s = s.replace(&format!(".{m}()"), &format!(".{fld}"));
        }
        s
    }

    fn eqs_of(&self, name: &str, pos: usize) -> Vec<&EqFact> {
        self.facts.eqs.iter().filter(|e| e.var == name && e.scope.contains(&pos)).collect()
    }

    fn uppers_of(&self, name: &str, pos: usize) -> Vec<&Upper> {
        self.facts.uppers.iter().filter(|u| u.var == name && u.scope.contains(&pos)).collect()
    }

    fn lens_of(&self, container: &str, pos: usize) -> Vec<&LenFact> {
        let at = pos.max(self.site.get());
        self.facts
            .lens
            .iter()
            .filter(|l| l.container == container && l.scope.contains(&at))
            .collect()
    }

    fn nonempty(&self, container: &str, pos: usize) -> bool {
        let at = pos.max(self.site.get());
        self.facts.nonempty.iter().any(|(c, s)| c == container && s.contains(&at))
    }

    /// Constant lengths known for `container` at `pos`.
    fn len_consts(&self, container: &str, pos: usize) -> Vec<i64> {
        self.lens_of(container, pos)
            .iter()
            .filter_map(|l| match &l.len {
                BoundExpr::Const(v) => Some(*v),
                BoundExpr::Toks(ts) => const_eval(self.ix, ts, self.env, 0),
                BoundExpr::LenOf(_) | BoundExpr::Sym(_) => None,
            })
            .collect()
    }

    /// `var` is provably a multiple of `k` at `pos`: a recorded alignment
    /// fact, or `let mut var = 0` advanced only by `var += c·k` with no
    /// plain reassignment (the lane-tail accumulator idiom). Only
    /// increments lexically before `limit` count — an increment after the
    /// bounding loop (the scalar tail's `j += 1`) can never have executed
    /// while control is still inside it.
    fn aligned_var(&self, var: &str, k: i64, pos: usize, limit: usize) -> bool {
        if self.facts.aligned.iter().any(|(v, kk, s)| v == var && *kk == k && s.contains(&pos)) {
            return true;
        }
        if self.facts.reassigned.iter().any(|v| v == var) {
            return false;
        }
        let init_ok = self.facts.mut_inits.iter().any(|(v, init)| {
            v == var && const_eval(self.ix, init, self.env, 0).is_some_and(|c| c % k == 0)
        });
        if !init_ok {
            return false;
        }
        let incs: Vec<_> =
            self.facts.increments.iter().filter(|(v, at, _)| v == var && *at < limit).collect();
        !incs.is_empty()
            && incs.iter().all(|(_, _, rhs)| {
                const_eval(self.ix, rhs, self.env, 0).is_some_and(|c| c % k == 0)
            })
    }

    /// The bound expression `m` is `k`-aligned: a `X - X % k` shape, an
    /// aligned variable, or an equality hop away from either.
    fn aligned_bound(&self, m: &BoundExpr, k: i64, pos: usize, depth: usize) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let ts = match m {
            BoundExpr::Toks(ts) => ts.clone(),
            BoundExpr::Const(v) => return v % k == 0,
            BoundExpr::LenOf(_) | BoundExpr::Sym(_) => return false,
        };
        let ts = normalize(self.ix, &ts);
        if let Some((l, _, r)) = split_last_top(self.ix, &ts, &["-"]) {
            if let Some((ml, _, mr)) = split_last_top(self.ix, &r, &["%"]) {
                if norm(self.ix, &normalize(self.ix, &l)) == norm(self.ix, &normalize(self.ix, &ml))
                    && const_eval(self.ix, &mr, self.env, 0) == Some(k)
                {
                    return true;
                }
            }
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            if self.aligned_var(&name, k, pos, usize::MAX) {
                return true;
            }
            for eq in self.eqs_of(&name, pos) {
                if self.aligned_bound(&BoundExpr::Toks(eq.init.clone()), k, eq.at, depth + 1) {
                    return true;
                }
            }
        }
        false
    }

    /// Proves `e ≤ c.len()` at `pos`.
    fn prove_le(&self, e: &[usize], c: &str, pos: usize, depth: usize) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let ts = normalize(self.ix, e);
        if ts.is_empty() {
            return true; // an open range end: `c[lo..]` slices to len
        }
        // `e` is literally `c.len()`.
        if is_len_of(self.ix, &ts).as_deref() == Some(c) {
            return true;
        }
        let ne = norm(self.ix, &ts);
        let ce = const_eval(self.ix, &ts, self.env, 0);
        for lf in self.lens_of(c, pos) {
            match &lf.len {
                BoundExpr::Const(v) => {
                    if ce.is_some_and(|x| x <= *v) {
                        return true;
                    }
                }
                BoundExpr::Toks(lts) => {
                    let lnorm_ts = normalize(self.ix, lts);
                    if norm(self.ix, &lnorm_ts) == ne {
                        return true;
                    }
                    if let Some(v) = const_eval(self.ix, &lnorm_ts, self.env, 0) {
                        if ce.is_some_and(|x| x <= v) {
                            return true;
                        }
                    }
                    // len == L' + k2 with k2 ≥ 0 and e == L'.
                    if let Some((ll, _, lr)) = split_last_top(self.ix, &lnorm_ts, &["+"]) {
                        if const_eval(self.ix, &lr, self.env, 0).is_some_and(|k2| k2 >= 0)
                            && norm(self.ix, &normalize(self.ix, &ll)) == ne
                        {
                            return true;
                        }
                    }
                }
                BoundExpr::LenOf(other) => {
                    // c.len() == other.len(): e ≤ other.len() ⇒ e ≤ c.len().
                    if is_len_of(self.ix, &ts).as_deref() == Some(other.as_str()) {
                        return true;
                    }
                }
                BoundExpr::Sym(sym) => {
                    if self.canon(&ne) == self.canon(sym) {
                        return true;
                    }
                }
            }
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            for eq in self.eqs_of(&name, pos) {
                if self.prove_le(&eq.init, c, eq.at, depth + 1) {
                    return true;
                }
            }
            for u in self.uppers_of(&name, pos) {
                match &u.bound {
                    BoundExpr::LenOf(b) if b == c => return true,
                    BoundExpr::LenOf(_) | BoundExpr::Const(_) | BoundExpr::Sym(_) => {}
                    BoundExpr::Toks(b) => {
                        if self.prove_le(b, c, pos, depth + 1) {
                            return true;
                        }
                    }
                }
            }
        }
        // Structural rules. These recurse on a strictly smaller token
        // slice, so they keep the caller's depth — only eq/upper hops
        // (which can revisit same-size expressions) burn fuel.
        if let Some((l, op, r)) = split_last_top(self.ix, &ts, &["+", "-"]) {
            match op {
                // usize subtraction cannot increase the value.
                "-" if self.prove_le(&l, c, pos, depth) => {
                    return true;
                }
                "+" => {
                    if let Some(k) = const_eval(self.ix, &r, self.env, 0) {
                        if k >= 0 && self.prove_plus_le(&l, k, c, pos, depth) {
                            return true;
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some((l, op, r)) = split_last_top(self.ix, &ts, &["*", "/", "%"]) {
            match op {
                "%"
                    // a % b ≤ min(a, b-1) when executed (b ≠ 0).
                    if (self.prove_le(&l, c, pos, depth)
                        || self.prove_le(&r, c, pos, depth))
                    => {
                        return true;
                    }
                "/"
                    if const_eval(self.ix, &r, self.env, 0).is_some_and(|v| v >= 1)
                        && self.prove_le(&l, c, pos, depth)
                    => {
                        return true;
                    }
                // a·K ≤ c.len() when a ≤ X/K for some X ≤ c.len() —
                // integer division: (X/K)·K ≤ X.
                "*"
                    if const_eval(self.ix, &r, self.env, 0)
                        .is_some_and(|k| k >= 1 && self.le_div_len(&l, c, k, pos, depth))
                    => {
                        return true;
                    }
                _ => {}
            }
        }
        if let Some((recv, name, args)) = method_tail(self.ix, &ts) {
            if name == "min"
                && args.len() == 1
                && (self.prove_le(&recv, c, pos, depth) || self.prove_le(&args[0], c, pos, depth))
            {
                return true;
            }
        }
        // Interval fallback: a constant upper bound under a constant
        // length.
        if let Some(ub) = self.upper_const(&ts, pos, depth) {
            if self.len_consts(c, pos).iter().any(|&v| ub <= v) {
                return true;
            }
        }
        false
    }

    /// Proves `e ≤ X / k` for some `X ≤ c.len()` — the scaled-prefix rule
    /// behind `b4[..main * 4]` where `main ≤ n ≤ b4.len() / 4`.
    fn le_div_len(&self, e: &[usize], c: &str, k: i64, pos: usize, depth: usize) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let ts = normalize(self.ix, e);
        if let Some((l, _, r)) = split_last_top(self.ix, &ts, &["/"]) {
            if const_eval(self.ix, &r, self.env, 0) == Some(k) && self.prove_le(&l, c, pos, depth) {
                return true;
            }
        }
        if let Some((l, op, _)) = split_last_top(self.ix, &ts, &["-", "%"]) {
            // Subtraction / remainder cannot increase a usize value.
            if (op == "-" || op == "%") && self.le_div_len(&l, c, k, pos, depth) {
                return true;
            }
        }
        if let Some((recv, name, args)) = method_tail(self.ix, &ts) {
            if name == "min"
                && args.len() == 1
                && (self.le_div_len(&recv, c, k, pos, depth)
                    || self.le_div_len(&args[0], c, k, pos, depth))
            {
                return true;
            }
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            for eq in self.eqs_of(&name, pos) {
                if self.le_div_len(&eq.init, c, k, eq.at, depth + 1) {
                    return true;
                }
            }
            for u in self.uppers_of(&name, pos) {
                if let BoundExpr::Toks(b) = &u.bound {
                    if self.le_div_len(b, c, k, pos, depth + 1) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Conservative constant upper bound of `e` at `pos`, from constant
    /// evaluation, loop/guard uppers and equality hops — the interval
    /// half of the domain. All values are usize-context (non-negative).
    fn upper_const(&self, e: &[usize], pos: usize, depth: usize) -> Option<i64> {
        if depth > MAX_PROOF_DEPTH {
            return None;
        }
        let ts = normalize(self.ix, e);
        if let Some(v) = const_eval(self.ix, &ts, self.env, 0) {
            return Some(v);
        }
        if let Some((l, op, r)) = split_last_top(self.ix, &ts, &["+", "-"]) {
            match op {
                "+" => {
                    if let (Some(a), Some(b)) =
                        (self.upper_const(&l, pos, depth), self.upper_const(&r, pos, depth))
                    {
                        return Some(a + b);
                    }
                }
                "-" => return self.upper_const(&l, pos, depth),
                _ => {}
            }
        }
        if let Some((l, op, r)) = split_last_top(self.ix, &ts, &["*", "/", "%"]) {
            let rc = const_eval(self.ix, &r, self.env, 0);
            match op {
                "*" => {
                    if let (Some(a), Some(b)) = (self.upper_const(&l, pos, depth), rc) {
                        if b >= 0 {
                            return Some(a * b);
                        }
                    }
                }
                "/" => {
                    if let (Some(a), Some(b)) = (self.upper_const(&l, pos, depth), rc) {
                        if b >= 1 {
                            return Some(a / b);
                        }
                    }
                }
                "%" => {
                    let from_mod = rc.filter(|&b| b >= 1).map(|b| b - 1);
                    let from_lhs = self.upper_const(&l, pos, depth);
                    return match (from_mod, from_lhs) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                _ => {}
            }
        }
        if let Some((recv, name, args)) = method_tail(self.ix, &ts) {
            if name == "min" && args.len() == 1 {
                let a = self.upper_const(&recv, pos, depth);
                let b = self.upper_const(&args[0], pos, depth);
                return match (a, b) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            let mut best: Option<i64> = None;
            let mut push = |v: i64| best = Some(best.map_or(v, |b: i64| b.min(v)));
            for u in self.uppers_of(&name, pos) {
                let bound = match &u.bound {
                    BoundExpr::Const(v) => Some(*v),
                    BoundExpr::Toks(b) => self.upper_const(b, pos, depth + 1),
                    BoundExpr::LenOf(_) | BoundExpr::Sym(_) => None,
                };
                if let Some(v) = bound {
                    push(if u.strict { v - 1 } else { v });
                }
            }
            for eq in self.eqs_of(&name, pos) {
                if let Some(v) = self.upper_const(&eq.init, eq.at, depth + 1) {
                    push(v);
                }
            }
            return best;
        }
        None
    }

    /// Proves `a + k ≤ c.len()` where `k` is a constant: either a length
    /// fact `c.len() == L' + k2` with `k2 ≥ k` and `a ≤ L'`, or the
    /// aligned-slice rule (`a < m`, `m` and `a` both `k`-aligned ⇒
    /// `a + k ≤ m`).
    fn prove_plus_le(&self, a: &[usize], k: i64, c: &str, pos: usize, depth: usize) -> bool {
        let na = norm(self.ix, &normalize(self.ix, a));
        for lf in self.lens_of(c, pos) {
            if let BoundExpr::Toks(lts) = &lf.len {
                let lnorm = normalize(self.ix, lts);
                if let Some((ll, _, lr)) = split_last_top(self.ix, &lnorm, &["+"]) {
                    if const_eval(self.ix, &lr, self.env, 0).is_some_and(|k2| k2 >= k)
                        && self.reach_norm(a, &norm(self.ix, &normalize(self.ix, &ll)), pos, depth)
                    {
                        return true;
                    }
                }
            }
        }
        let _ = na;
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        if let Some(av) = single_ident(self.ix, a) {
            for u in self.uppers_of(&av, pos) {
                if !u.strict {
                    continue;
                }
                if self.aligned_bound(&u.bound, k, pos, depth + 1)
                    && self.aligned_var(&av, k, pos, u.scope.end)
                {
                    if let BoundExpr::Toks(m) = &u.bound {
                        if self.prove_le(m, c, pos, depth + 1) {
                            return true;
                        }
                    }
                    if let BoundExpr::LenOf(b) = &u.bound {
                        if b == c {
                            return true;
                        }
                    }
                }
            }
            for eq in self.eqs_of(&av, pos) {
                if self.prove_plus_le(&eq.init, k, c, eq.at, depth + 1) {
                    return true;
                }
            }
        }
        // Scaled-index rule: `a = q·K` with `q < M/K` (strict, integer
        // division) gives `q·K ≤ M − K`, so `a + k ≤ M` whenever `k ≤ K`.
        let ts = normalize(self.ix, a);
        if let Some((l, _, r)) = split_last_top(self.ix, &ts, &["*"]) {
            if let Some(kf) = const_eval(self.ix, &r, self.env, 0) {
                if kf >= k && kf >= 1 {
                    if let Some(q) = single_ident(self.ix, &l) {
                        for u in self.uppers_of(&q, pos) {
                            if !u.strict {
                                continue;
                            }
                            let BoundExpr::Toks(b) = &u.bound else { continue };
                            let bn = normalize(self.ix, b);
                            let Some((ml, _, mr)) = split_last_top(self.ix, &bn, &["/"]) else {
                                continue;
                            };
                            if const_eval(self.ix, &mr, self.env, 0) == Some(kf)
                                && self.prove_le(&ml, c, pos, depth + 1)
                            {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Whether `e` provably equals the normalized expression `target`
    /// (directly or through equality hops).
    fn reach_norm(&self, e: &[usize], target: &str, pos: usize, depth: usize) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let ts = normalize(self.ix, e);
        if norm(self.ix, &ts) == target {
            return true;
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            for eq in self.eqs_of(&name, pos) {
                if self.reach_norm(&eq.init, target, eq.at, depth + 1) {
                    return true;
                }
            }
        }
        false
    }

    /// Proves `e < c.len()` at `pos`.
    fn prove_lt(&self, e: &[usize], c: &str, pos: usize, depth: usize) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let ts = normalize(self.ix, e);
        if ts.is_empty() {
            return false;
        }
        if let Some(v) = const_eval(self.ix, &ts, self.env, 0) {
            if self.len_consts(c, pos).iter().any(|&lc| v < lc) {
                return true;
            }
            if v == 0 && self.nonempty(c, pos) {
                return true;
            }
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            for u in self.uppers_of(&name, pos) {
                match (&u.bound, u.strict) {
                    (BoundExpr::LenOf(b), true) if b == c => return true,
                    (BoundExpr::Toks(b), true) if self.prove_le(b, c, pos, depth + 1) => {
                        return true;
                    }
                    (BoundExpr::Toks(b), false) if self.prove_lt(b, c, pos, depth + 1) => {
                        return true;
                    }
                    (BoundExpr::Const(v), true)
                        if self.len_consts(c, pos).iter().any(|&lc| *v <= lc) =>
                    {
                        return true;
                    }
                    (BoundExpr::Const(v), false)
                        if self.len_consts(c, pos).iter().any(|&lc| *v < lc) =>
                    {
                        return true;
                    }
                    _ => {}
                }
            }
            for eq in self.eqs_of(&name, pos) {
                if self.prove_lt(&eq.init, c, eq.at, depth + 1) {
                    return true;
                }
            }
        }
        if let Some((l, op, r)) = split_last_top(self.ix, &ts, &["+", "-"]) {
            match op {
                "-"
                    // a - b < a ≤ len when b ≥ 1 (usize: executed ⇒ no wrap).
                    if const_eval(self.ix, &r, self.env, 0).is_some_and(|v| v >= 1)
                        && self.prove_le(&l, c, pos, depth + 1)
                    => {
                        return true;
                    }
                "+" => {
                    if let Some(k) = const_eval(self.ix, &r, self.env, 0) {
                        // a < u and len == L' + k2 with u == L', k2 ≥ k+1…
                        // is subsumed by: a + (k+1) ≤ len.
                        if k >= 0 && self.prove_plus_le(&l, k + 1, c, pos, depth + 1) {
                            return true;
                        }
                        // CSR idiom `row_ptr[r + 1]`: r < u, u ≤ L', and
                        // len == L' + k2 with k2 ≥ k ⇒ r + k < len.
                        if k >= 0 && self.prove_upper_slack(&l, k, c, pos, depth) {
                            return true;
                        }
                    }
                    // Interleaved: `i * K + j` handled below.
                }
                _ => {}
            }
        }
        if let Some((_, op, r)) = split_last_top(self.ix, &ts, &["%"]) {
            // a % b < b ≤ len (executed ⇒ b ≠ 0).
            if op == "%" && self.prove_le(&r, c, pos, depth + 1) {
                return true;
            }
        }
        if self.prove_interleaved(&ts, c, pos, depth) {
            return true;
        }
        // Interval fallback: a constant upper bound strictly under a
        // constant length.
        if let Some(ub) = self.upper_const(&ts, pos, depth) {
            if self.len_consts(c, pos).iter().any(|&v| ub < v) {
                return true;
            }
        }
        false
    }

    /// `a + k < c.len()` via a strict upper `a < u` where `u` reaches `L'`
    /// and `c.len() == L' + k2` with `k2 ≥ k` (e.g. `row_ptr[r + 1]` with
    /// `row_ptr.len() == n_rows + 1` and `r < n_rows`).
    fn prove_upper_slack(&self, a: &[usize], k: i64, c: &str, pos: usize, depth: usize) -> bool {
        let Some(av) = single_ident(self.ix, a) else { return false };
        for u in self.uppers_of(&av, pos) {
            if !u.strict {
                continue;
            }
            let u_toks = match &u.bound {
                BoundExpr::Toks(b) => b.clone(),
                _ => continue,
            };
            for lf in self.lens_of(c, pos) {
                if let BoundExpr::Toks(lts) = &lf.len {
                    let lnorm = normalize(self.ix, lts);
                    if let Some((ll, _, lr)) = split_last_top(self.ix, &lnorm, &["+"]) {
                        if const_eval(self.ix, &lr, self.env, 0).is_some_and(|k2| k2 >= k)
                            && self.reach_norm(
                                &u_toks,
                                &norm(self.ix, &normalize(self.ix, &ll)),
                                pos,
                                depth + 1,
                            )
                        {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Interleaved layout: `i * K` or `i * K + j < c.len()` when `i` is
    /// strictly bounded by an expression reaching `c.len() / K` and
    /// `j < K`.
    fn prove_interleaved(&self, ts: &[usize], c: &str, pos: usize, depth: usize) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let (mul_part, j_part) = match split_last_top(self.ix, ts, &["+"]) {
            Some((l, _, r)) => (l, Some(r)),
            None => (ts.to_vec(), None),
        };
        let Some((a_part, op, k_part)) = split_last_top(self.ix, &mul_part, &["*"]) else {
            return false;
        };
        if op != "*" {
            return false;
        }
        let Some(a) = single_ident(self.ix, &a_part) else { return false };
        let k_toks = normalize(self.ix, &k_part);
        let k_norm = norm(self.ix, &k_toks);
        let k_const = const_eval(self.ix, &k_toks, self.env, 0);
        // `i` must be < something reaching `c.len() / K`.
        let mut i_ok = false;
        for u in self.uppers_of(&a, pos) {
            if !u.strict {
                continue;
            }
            if let BoundExpr::Toks(b) = &u.bound {
                if self.is_div_len(b, c, &k_norm, k_const, pos, depth + 1) {
                    i_ok = true;
                    break;
                }
            }
        }
        if !i_ok {
            return false;
        }
        match j_part {
            None => true,
            Some(j) => {
                if let Some(jv) = const_eval(self.ix, &j, self.env, 0) {
                    return k_const.is_some_and(|kv| 0 <= jv && jv < kv);
                }
                if let Some(jn) = single_ident(self.ix, &j) {
                    for u in self.uppers_of(&jn, pos) {
                        if !u.strict {
                            continue;
                        }
                        if let BoundExpr::Toks(b) = &u.bound {
                            let bn = normalize(self.ix, b);
                            if norm(self.ix, &bn) == k_norm {
                                return true;
                            }
                            if let (Some(bv), Some(kv)) =
                                (const_eval(self.ix, &bn, self.env, 0), k_const)
                            {
                                if bv <= kv {
                                    return true;
                                }
                            }
                        }
                    }
                }
                false
            }
        }
    }

    /// Whether `ts` is (or reaches) an expression of the form
    /// `c.len() / K` — possibly inside a `.min(…)` chain.
    fn is_div_len(
        &self,
        ts: &[usize],
        c: &str,
        k_norm: &str,
        k_const: Option<i64>,
        pos: usize,
        depth: usize,
    ) -> bool {
        if depth > MAX_PROOF_DEPTH {
            return false;
        }
        let ts = normalize(self.ix, ts);
        if let Some((l, op, r)) = split_last_top(self.ix, &ts, &["/"]) {
            if op == "/" {
                let rn = normalize(self.ix, &r);
                let k_ok = norm(self.ix, &rn) == k_norm
                    || (const_eval(self.ix, &rn, self.env, 0).is_some()
                        && const_eval(self.ix, &rn, self.env, 0) == k_const);
                // `X / K` with any `X ≤ c.len()`: `i < X/K` still keeps
                // `i·K + (K−1) ≤ X − 1 < c.len()`.
                if k_ok && self.prove_le(&l, c, pos, depth) {
                    return true;
                }
                return false;
            }
        }
        if let Some((recv, name, args)) = method_tail(self.ix, &ts) {
            if name == "min" && args.len() == 1 {
                return self.is_div_len(&recv, c, k_norm, k_const, pos, depth + 1)
                    || self.is_div_len(&args[0], c, k_norm, k_const, pos, depth + 1);
            }
        }
        if let Some(name) = single_ident(self.ix, &ts) {
            for eq in self.eqs_of(&name, pos) {
                if self.is_div_len(&eq.init, c, k_norm, k_const, eq.at, depth + 1) {
                    return true;
                }
            }
        }
        false
    }
}

// ---------------------------------------------------------------------
// Indexed-access sites
// ---------------------------------------------------------------------

#[derive(Debug)]
enum SiteKind {
    Index(Vec<usize>),
    RangeIdx { lo: Vec<usize>, hi: Vec<usize>, inclusive: bool },
    Unchecked(Vec<usize>),
}

#[derive(Debug)]
struct Site {
    /// Token the diagnostic anchors to (the `[` or the method name).
    at: usize,
    /// Canonical container text (`"row_ptr"`, `"self.data"`).
    container: String,
    /// Last identifier of the container chain, for `BOUNDS(name)` hints.
    last_name: String,
    kind: SiteKind,
}

/// Backward delimiter match: the opener of the close token at `close`.
fn rev_match_delim(ix: &FileIndex, close: usize) -> Option<usize> {
    let (o, c) = match ix.toks[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        "}" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        let t = &ix.toks[j];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "return", "in", "let", "mut", "ref", "move", "as", "break", "continue",
    "loop", "while", "for", "where", "impl", "fn", "pub", "use", "const", "static", "struct",
    "enum", "unsafe", "dyn", "type", "trait", "mod", "crate", "super", "box", "await",
];

/// Start of the postfix chain ending at code token `p` (e.g. for
/// `self.data[..]`, `p` is `data` and the chain starts at `self`).
fn chain_start(ix: &FileIndex, mut s: usize) -> usize {
    loop {
        let t = &ix.toks[s];
        if t.is_punct(")") || t.is_punct("]") {
            match rev_match_delim(ix, s) {
                Some(o) => s = o,
                None => return s,
            }
            // A call/index: keep walking from the name before the opener.
            match prev_code(&ix.toks, s) {
                Some(q)
                    if ix.toks[q].kind == TokKind::Ident
                        && !KEYWORDS.contains(&ix.toks[q].text.as_str()) =>
                {
                    s = q;
                }
                _ => return s,
            }
            continue;
        }
        if matches!(t.kind, TokKind::Ident | TokKind::NumLit) {
            match prev_code(&ix.toks, s) {
                Some(q) if ix.toks[q].is_punct(".") || ix.toks[q].is_punct("::") => {
                    match prev_code(&ix.toks, q) {
                        Some(r) => {
                            s = r;
                            continue;
                        }
                        None => return s,
                    }
                }
                _ => return s,
            }
        }
        return s;
    }
}

/// Canonical container text + last identifier for the chain `s..=p`.
fn container_of(ix: &FileIndex, s: usize, p: usize) -> (String, String) {
    let ts: Vec<usize> = (s..=p).filter(|&i| ix.is_live(i)).collect();
    let container = norm(ix, &ts);
    // Last *top-level* ident — for a method-call container
    // (`self.row_values(r)`) that is the method name, not its argument.
    let mut depth = 0i32;
    let mut last_name = None;
    for &i in &ts {
        if is_open(ix, i) {
            depth += 1;
        } else if is_close(ix, i) {
            depth -= 1;
        } else if depth == 0 && ix.toks[i].kind == TokKind::Ident {
            last_name = Some(ix.toks[i].text.clone());
        }
    }
    (container.clone(), last_name.unwrap_or(container))
}

/// All indexed accesses, range slicings, and `get_unchecked*` calls in a
/// function body.
fn index_sites(ix: &FileIndex, f: &FnItem) -> Vec<Site> {
    let mut out = Vec::new();
    for i in f.body.clone() {
        if !ix.is_live(i) {
            continue;
        }
        // `container[…]`
        if ix.toks[i].is_punct("[") {
            let Some(p) = prev_code(&ix.toks, i) else { continue };
            if p < f.body.start {
                continue;
            }
            let indexable = (ix.toks[p].kind == TokKind::Ident
                && !KEYWORDS.contains(&ix.toks[p].text.as_str()))
                || ix.toks[p].is_punct(")")
                || ix.toks[p].is_punct("]")
                || ix.toks[p].is_punct("?");
            if !indexable {
                continue;
            }
            let Some(close) = match_delim(&ix.toks, i) else { continue };
            let content = expr_toks(ix, &(i + 1..close));
            if content.is_empty() {
                continue;
            }
            let s = chain_start(ix, p);
            let (container, last_name) = container_of(ix, s, p);
            let kind = match split_last_range(ix, &content) {
                Some((lo, hi, inclusive)) => SiteKind::RangeIdx { lo, hi, inclusive },
                None => SiteKind::Index(content),
            };
            out.push(Site { at: i, container, last_name, kind });
        }
        // `container.get_unchecked(…)` / `get_unchecked_mut`
        if ix.toks[i].kind == TokKind::Ident
            && (ix.toks[i].text == "get_unchecked" || ix.toks[i].text == "get_unchecked_mut")
        {
            let Some(dot) = prev_code(&ix.toks, i) else { continue };
            if !ix.toks[dot].is_punct(".") {
                continue;
            }
            let Some(args) = crate::workspace::call_args(ix, i) else { continue };
            let Some(arg0) = args.first() else { continue };
            let Some(recv_end) = prev_code(&ix.toks, dot) else { continue };
            let s = chain_start(ix, recv_end);
            let (container, last_name) = container_of(ix, s, recv_end);
            out.push(Site {
                at: i,
                container,
                last_name,
                kind: SiteKind::Unchecked(expr_toks(ix, arg0)),
            });
        }
    }
    out
}

/// Top-level `..` / `..=` split of an index expression.
fn split_last_range(ix: &FileIndex, ts: &[usize]) -> Option<(Vec<usize>, Vec<usize>, bool)> {
    let mut depth = 0i32;
    for (p, &t) in ts.iter().enumerate() {
        if is_open(ix, t) {
            depth += 1;
        } else if is_close(ix, t) {
            depth -= 1;
        } else if depth == 0
            && ix.toks[t].kind == TokKind::Punct
            && (ix.toks[t].text == ".." || ix.toks[t].text == "..=")
        {
            return Some((ts[..p].to_vec(), ts[p + 1..].to_vec(), ix.toks[t].text == "..="));
        }
    }
    None
}

// ---------------------------------------------------------------------
// `// BOUNDS(var): reason` escapes
// ---------------------------------------------------------------------

/// Minimum substantive length of an escape reason (after the colon).
const MIN_BOUNDS_REASON: usize = 10;

/// Escapes declared inside a function body: `(name, reason_is_substantive,
/// comment token)`.
fn bounds_escapes(ix: &FileIndex, body: &Range<usize>) -> Vec<(String, bool, usize)> {
    let mut out = Vec::new();
    for i in body.clone() {
        if ix.test_mask[i]
            || !matches!(ix.toks[i].kind, TokKind::LineComment | TokKind::BlockComment)
        {
            continue;
        }
        let text = ix.toks[i].text.trim_start_matches('/').trim_start_matches('*').trim();
        let Some(rest) = text.strip_prefix("BOUNDS(") else { continue };
        let Some(close) = rest.find(')') else { continue };
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').unwrap_or("").trim();
        // One escape may audit several parallel names: `BOUNDS(a, b): …`.
        for name in rest[..close].split(',') {
            out.push((name.trim().to_string(), reason.len() >= MIN_BOUNDS_REASON, i));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Pass: index-bounds
// ---------------------------------------------------------------------

/// Kernel hot-path files governed by `index-bounds`. Fixture files staged
/// under the kernel crates are governed too, so seeded-violation fixtures
/// and CLI subprocess tests exercise the pass.
const GOVERNED: &[&str] = &[
    "crates/nn/src/matrix.rs",
    "crates/graph/src/csr.rs",
    "crates/par/src/lanes.rs",
    "crates/par/src/partition.rs",
    "crates/par/src/chunks.rs",
    "crates/par/src/fold.rs",
    "crates/quant/src/lib.rs",
];

fn index_bounds_governed(label: &str) -> bool {
    GOVERNED.contains(&label)
        || (label.ends_with("/fixture.rs")
            && ["crates/nn/src/", "crates/graph/src/", "crates/par/src/", "crates/quant/src/"]
                .iter()
                .any(|p| label.starts_with(p)))
}

fn violation(
    label: &str,
    ix: &FileIndex,
    at: usize,
    rule: RuleKind,
    message: String,
    suggestion: String,
) -> Violation {
    Violation {
        file: label.to_string(),
        line: ix.toks[at].line,
        col: ix.toks[at].col,
        rule,
        severity: Severity::Error,
        message,
        suggestion: Some(suggestion),
    }
}

/// Every indexed access in the governed kernel files must be proved in
/// bounds by the abstract domain or carry an audited `BOUNDS` escape.
pub(crate) fn pass_index_bounds(
    files: &[(String, FileIndex)],
    _syms: &SymbolTable,
    _cg: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let env = const_env(files);
    let sums = method_summaries(files);
    for (label, ix) in files {
        if !index_bounds_governed(label) {
            continue;
        }
        for f in ix.fn_items() {
            if !ix.is_live(f.at) {
                continue;
            }
            let mut facts = collect_facts(ix, &f, &env, &sums);
            let escapes = bounds_escapes(ix, &f.body);
            let sites = index_sites(ix, &f);
            // Sites that index straight into a summarized method call
            // (`self.row(r)[start..end]`) get their symbolic length here —
            // there is no binding for collect_init_facts to hang it on.
            let mut seen = std::collections::BTreeSet::new();
            for s in &sites {
                if seen.insert(s.container.clone()) {
                    if let Some(sym) = sums.container_sym(&s.container) {
                        facts.lens.push(LenFact {
                            container: s.container.clone(),
                            len: BoundExpr::Sym(sym),
                            scope: f.body.clone(),
                        });
                    }
                }
            }
            let prover =
                Prover { ix, facts: &facts, env: &env, sums: &sums, site: std::cell::Cell::new(0) };
            for site in sites {
                prover.site.set(site.at);
                let proved = match &site.kind {
                    SiteKind::Index(e) | SiteKind::Unchecked(e) => {
                        prover.prove_lt(e, &site.container, site.at, 0)
                    }
                    SiteKind::RangeIdx { lo, hi, inclusive } => {
                        let hi_ok = if *inclusive {
                            !hi.is_empty() && prover.prove_lt(hi, &site.container, site.at, 0)
                        } else {
                            prover.prove_le(hi, &site.container, site.at, 0)
                        };
                        hi_ok && prover.prove_le(lo, &site.container, site.at, 0)
                    }
                };
                if proved {
                    continue;
                }
                let escape =
                    escapes.iter().find(|(n, _, _)| *n == site.last_name || *n == site.container);
                let what = match &site.kind {
                    SiteKind::Index(e) => {
                        format!("indexed access `{}[{}]`", site.container, norm(ix, e))
                    }
                    SiteKind::RangeIdx { lo, hi, inclusive } => format!(
                        "range slice `{}[{}{}{}]`",
                        site.container,
                        norm(ix, lo),
                        if *inclusive { "..=" } else { ".." },
                        norm(ix, hi)
                    ),
                    SiteKind::Unchecked(e) => {
                        format!("`{}.get_unchecked({})`", site.container, norm(ix, e))
                    }
                };
                match escape {
                    Some((_, true, _)) => {}
                    Some((name, false, _)) => out.push(violation(
                        label,
                        ix,
                        site.at,
                        RuleKind::IndexBounds,
                        format!(
                            "{what} has a `// BOUNDS({name})` escape with a placeholder reason"
                        ),
                        format!(
                            "state the data-structure invariant that keeps `{}` in bounds \
                             (≥ {MIN_BOUNDS_REASON} chars after the colon)",
                            site.last_name
                        ),
                    )),
                    None => out.push(violation(
                        label,
                        ix,
                        site.at,
                        RuleKind::IndexBounds,
                        format!("{what} has no dominating bounds proof"),
                        format!(
                            "guard the index with a comparison or loop bound the dataflow layer \
                             can see, or add `// BOUNDS({}): <invariant>` citing the \
                             data-structure invariant",
                            site.last_name
                        ),
                    )),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pass: shape-consistency
// ---------------------------------------------------------------------

/// One matrix dimension: a folded constant or a normalized symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Dim {
    Const(i64),
    Sym(String),
}

impl Dim {
    fn render(&self) -> String {
        match self {
            Dim::Const(v) => v.to_string(),
            Dim::Sym(s) => s.clone(),
        }
    }

    /// A provable mismatch needs both sides statically known.
    fn conflicts(&self, other: &Dim) -> bool {
        matches!((self, other), (Dim::Const(a), Dim::Const(b)) if a != b)
    }
}

#[derive(Debug, Clone)]
struct Shape {
    rows: Dim,
    cols: Dim,
}

impl Shape {
    fn render(&self) -> String {
        format!("{}×{}", self.rows.render(), self.cols.render())
    }
}

fn dim_of(ix: &FileIndex, ts: &[usize], env: &BTreeMap<String, i64>) -> Dim {
    let ts = normalize(ix, ts);
    match const_eval(ix, &ts, env, 0) {
        Some(v) => Dim::Const(v),
        None => Dim::Sym(norm(ix, &ts)),
    }
}

/// Shape of an initialiser, consulting already-traced bindings. `None`
/// means "unknown — drop the binding from the map".
fn shape_of_init(
    ix: &FileIndex,
    ts: &[usize],
    shapes: &BTreeMap<String, Shape>,
    env: &BTreeMap<String, i64>,
    depth: usize,
) -> Option<Shape> {
    if depth > 4 {
        return None;
    }
    let mut ts = normalize(ix, ts);
    // Strip a trailing `?`.
    if ts.last().is_some_and(|&t| ix.toks[t].is_punct("?")) {
        ts.pop();
    }
    if let Some((names, args)) = call_path(ix, &ts) {
        let ctor = names.len() >= 2;
        if ctor {
            let ty = &names[names.len() - 2];
            let f = &names[names.len() - 1];
            if ty == "DenseMatrix"
                && matches!(
                    f.as_str(),
                    "zeros" | "ones" | "from_fn" | "from_vec" | "xavier_uniform"
                )
                && args.len() >= 2
            {
                return Some(Shape {
                    rows: dim_of(ix, &args[0], env),
                    cols: dim_of(ix, &args[1], env),
                });
            }
            if ty == "CsrMatrix"
                && matches!(f.as_str(), "zeros" | "from_coo" | "identity")
                && args.len() >= 2
            {
                return Some(Shape {
                    rows: dim_of(ix, &args[0], env),
                    cols: dim_of(ix, &args[1], env),
                });
            }
            if ty == "QMatrix" && f == "quantize" && !args.is_empty() {
                let src = single_ident(ix, &args[0])?;
                return shapes.get(&src).cloned();
            }
        }
        return None;
    }
    if let Some((recv, name, args)) = method_tail(ix, &ts) {
        match (name.as_str(), args.len()) {
            // `.expect("…")` / `.unwrap()` / `.clone()` pass the shape through.
            ("expect", 1) | ("unwrap", 0) | ("clone", 0) | ("dequantize", 0) | ("as_slice", 0) => {
                return shape_of_init(ix, &recv, shapes, env, depth + 1)
            }
            ("transpose", 0) => {
                let s = shape_of_init(ix, &recv, shapes, env, depth + 1)?;
                return Some(Shape { rows: s.cols, cols: s.rows });
            }
            ("matmul", 1) | ("matmul_transb", 1) | ("matmul_transa", 1) => {
                let a = shape_of_init(ix, &recv, shapes, env, depth + 1)?;
                let b = shape_of_init(ix, &args[0], shapes, env, depth + 1)?;
                return Some(match name.as_str() {
                    "matmul" => Shape { rows: a.rows, cols: b.cols },
                    "matmul_transb" => Shape { rows: a.rows, cols: b.rows },
                    _ => Shape { rows: a.cols, cols: b.cols },
                });
            }
            ("hadamard", 1) | ("add", 1) | ("sub", 1) => {
                return shape_of_init(ix, &recv, shapes, env, depth + 1)
            }
            _ => return None,
        }
    }
    if let Some(name) = single_ident(ix, &ts) {
        return shapes.get(&name).cloned();
    }
    None
}

/// Binary-op call sites whose operand shapes must agree.
const SHAPE_SINKS: &[&str] =
    &["matmul", "matmul_transb", "matmul_transa", "hadamard", "add", "sub", "spmm"];

/// Dimension checks traced through ctors and `let` bindings: a
/// statically-known inner-dim mismatch is an error before the tape
/// verifier would ever see it.
pub(crate) fn pass_shape_consistency(
    files: &[(String, FileIndex)],
    _syms: &SymbolTable,
    _cg: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let env = const_env(files);
    for (label, ix) in files {
        if label.starts_with("crates/compat/") {
            continue;
        }
        for f in ix.fn_items() {
            if !ix.is_live(f.at) {
                continue;
            }
            check_fn_shapes(label, ix, &f, &env, out);
        }
    }
}

fn check_fn_shapes(
    label: &str,
    ix: &FileIndex,
    f: &FnItem,
    env: &BTreeMap<String, i64>,
    out: &mut Vec<Violation>,
) {
    let binds = binding_inits(ix, &f.body);
    let mut shapes: BTreeMap<String, Shape> = BTreeMap::new();
    // Events in source order: bindings update the map, sinks check it.
    let mut bind_iter = binds.iter().peekable();
    for i in f.body.clone() {
        while bind_iter.peek().is_some_and(|(_, init)| init.start <= i) {
            if let Some((name, init)) = bind_iter.next() {
                let init_ts = expr_toks(ix, init);
                match shape_of_init(ix, &init_ts, &shapes, env, 0) {
                    Some(s) => {
                        shapes.insert(name.clone(), s);
                    }
                    None => {
                        shapes.remove(name);
                    }
                }
            }
        }
        if !ix.is_live(i) || ix.toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = ix.toks[i].text.as_str();
        // Free-fn quantized GEMM: `matmul_deq(&a, &qb, …)`.
        if name == "matmul_deq" && !prev_code(&ix.toks, i).is_some_and(|j| ix.toks[j].is_punct("."))
        {
            if let Some(args) = crate::workspace::call_args(ix, i) {
                if args.len() >= 2 {
                    let a = arg_shape(ix, &args[0], &shapes, env);
                    let b = arg_shape(ix, &args[1], &shapes, env);
                    if let (Some((an, a)), Some((bn, b))) = (a, b) {
                        if a.cols.conflicts(&b.rows) {
                            out.push(shape_violation(
                                label,
                                ix,
                                i,
                                "matmul_deq",
                                &an,
                                &a,
                                &bn,
                                &b,
                                "a.cols == b.rows",
                            ));
                        }
                    }
                }
            }
            continue;
        }
        if !SHAPE_SINKS.contains(&name) {
            continue;
        }
        let Some(dot) = prev_code(&ix.toks, i) else { continue };
        if !ix.toks[dot].is_punct(".") {
            continue;
        }
        let Some(recv_i) = prev_code(&ix.toks, dot) else { continue };
        if ix.toks[recv_i].kind != TokKind::Ident {
            continue;
        }
        let recv_name = ix.toks[recv_i].text.clone();
        let Some(recv_shape) = shapes.get(&recv_name).cloned() else { continue };
        let Some(args) = crate::workspace::call_args(ix, i) else { continue };
        let Some(arg0) = args.first() else { continue };
        let Some((arg_name, arg_shape)) = arg_shape(ix, arg0, &shapes, env) else { continue };
        let (lhs, rhs, law) = match name {
            "matmul" | "spmm" => {
                (recv_shape.cols.clone(), arg_shape.rows.clone(), "a.cols == b.rows")
            }
            "matmul_transb" => {
                (recv_shape.cols.clone(), arg_shape.cols.clone(), "a.cols == b.cols")
            }
            "matmul_transa" => {
                (recv_shape.rows.clone(), arg_shape.rows.clone(), "a.rows == b.rows")
            }
            _ => (recv_shape.rows.clone(), arg_shape.rows.clone(), "same shape"),
        };
        if lhs.conflicts(&rhs) {
            out.push(shape_violation(
                label,
                ix,
                i,
                name,
                &recv_name,
                &recv_shape,
                &arg_name,
                &arg_shape,
                law,
            ));
            continue;
        }
        // Elementwise ops additionally need matching cols.
        if matches!(name, "hadamard" | "add" | "sub") && recv_shape.cols.conflicts(&arg_shape.cols)
        {
            out.push(shape_violation(
                label,
                ix,
                i,
                name,
                &recv_name,
                &recv_shape,
                &arg_name,
                &arg_shape,
                law,
            ));
        }
    }
}

/// Shape of a call argument: `&x`, `x`, or `x.as_slice()` for a traced `x`.
fn arg_shape(
    ix: &FileIndex,
    arg: &Range<usize>,
    shapes: &BTreeMap<String, Shape>,
    env: &BTreeMap<String, i64>,
) -> Option<(String, Shape)> {
    let ts = expr_toks(ix, arg);
    let name = single_ident(ix, &ts).or_else(|| {
        method_tail(ix, &ts).and_then(|(recv, n, a)| {
            if n == "as_slice" && a.is_empty() {
                single_ident(ix, &recv)
            } else {
                None
            }
        })
    })?;
    let s = shape_of_init(ix, &ts, shapes, env, 0)?;
    Some((name, s))
}

#[allow(clippy::too_many_arguments)]
fn shape_violation(
    label: &str,
    ix: &FileIndex,
    at: usize,
    op: &str,
    an: &str,
    a: &Shape,
    bn: &str,
    b: &Shape,
    law: &str,
) -> Violation {
    violation(
        label,
        ix,
        at,
        RuleKind::ShapeConsistency,
        format!(
            "`{op}` dimension mismatch: `{an}` is {} but `{bn}` is {} (needs {law})",
            a.render(),
            b.render()
        ),
        "fix the construction site or the call — at runtime the tape verifier would reject \
         this with VerifierRejected"
            .to_string(),
    )
}

// ---------------------------------------------------------------------
// Pass: exit-code-registry
// ---------------------------------------------------------------------

/// The workspace exit-code registry, mirroring README.md's table: code,
/// meaning, and the crates allowed to produce it (empty = any crate).
/// Codes 0–8 are the train-side table; 9–12 belong to `amud-serve`.
pub const EXIT_REGISTRY: &[(i64, &str, &[&str])] = &[
    (0, "success", &[]),
    (1, "I/O error", &[]),
    (2, "usage error", &[]),
    (3, "bad input", &["train", "datasets", "amud-repro"]),
    (4, "dataset parse error", &["train", "datasets", "amud-repro"]),
    (5, "verifier rejected", &["train", "amud-repro"]),
    (6, "non-finite loss / divergence", &["train", "bench", "amud-repro"]),
    (7, "gradient explosion", &["train", "amud-repro"]),
    (8, "timeout", &["train", "amud-repro"]),
    (9, "snapshot error", &["serve", "amud-repro"]),
    (10, "deadline miss", &["serve", "amud-repro"]),
    (11, "overload shed", &["serve", "amud-repro"]),
    (12, "bad request", &["serve", "amud-repro"]),
];

/// amud-lint's own exit codes live in a separate, smaller domain.
const LINT_EXIT_MAX: i64 = 4;

/// One claimed exit-code value with its source location.
struct Claim {
    file_idx: usize,
    at: usize,
    value: i64,
}

/// Collects every `process::exit(n)`, `exit_code()` return value, and
/// `EXIT_*` constant workspace-wide and checks them against the registry —
/// including constants flowing through exit-sink helpers (`die(msg, 1)`).
pub(crate) fn pass_exit_code_registry(
    files: &[(String, FileIndex)],
    _syms: &SymbolTable,
    _cg: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let env = const_env(files);
    let mut claims: Vec<Claim> = Vec::new();
    let mut lint_consts: Vec<Claim> = Vec::new();
    // Exit sinks: fn name → index of the parameter that reaches
    // `process::exit`.
    let mut sinks: Vec<(String, usize)> = Vec::new();

    for (fi, (label, ix)) in files.iter().enumerate() {
        if label.starts_with("crates/compat/") {
            continue;
        }
        let lintish = label.starts_with("crates/lint/");
        for (name, init) in const_decls(ix) {
            if !name.starts_with("EXIT_") {
                continue;
            }
            if let Some(v) = const_eval(ix, &init, &env, 0) {
                let at = init.first().copied().unwrap_or(0);
                if lintish {
                    lint_consts.push(Claim { file_idx: fi, at, value: v });
                } else {
                    claims.push(Claim { file_idx: fi, at, value: v });
                }
            }
        }
        if lintish {
            continue; // lint's own exit sites use the lint domain above
        }
        for f in ix.fn_items() {
            if !ix.is_live(f.at) {
                continue;
            }
            let exit_code_fn = f.name == "exit_code";
            for i in f.body.clone() {
                if !ix.is_live(i) {
                    continue;
                }
                if exit_code_fn && ix.toks[i].kind == TokKind::NumLit {
                    if let Some(v) = int_lit(&ix.toks[i].text) {
                        claims.push(Claim { file_idx: fi, at: i, value: v });
                    }
                    continue;
                }
                if !ix.toks[i].is_ident("exit") {
                    continue;
                }
                let qualified = prev_code(&ix.toks, i)
                    .filter(|&j| ix.toks[j].is_punct("::"))
                    .and_then(|j| prev_code(&ix.toks, j))
                    .is_some_and(|j| ix.toks[j].is_ident("process"));
                if !qualified {
                    continue;
                }
                let Some(args) = crate::workspace::call_args(ix, i) else { continue };
                let Some(arg0) = args.first() else { continue };
                let ts = expr_toks(ix, arg0);
                if let Some(v) = const_eval(ix, &ts, &env, 0) {
                    claims.push(Claim { file_idx: fi, at: i, value: v });
                } else if let Some(p) = single_ident(ix, &ts) {
                    if let Some(idx) = f.params.iter().position(|q| *q == p) {
                        sinks.push((f.name.clone(), idx));
                    }
                }
            }
        }
    }

    // Constants flowing through exit sinks: `die(msg, 1)` claims 1.
    for (fi, (label, ix)) in files.iter().enumerate() {
        if label.starts_with("crates/compat/") || label.starts_with("crates/lint/") {
            continue;
        }
        for i in 0..ix.toks.len() {
            if !ix.is_live(i) || ix.toks[i].kind != TokKind::Ident {
                continue;
            }
            let Some((_, pidx)) = sinks.iter().find(|(n, _)| *n == ix.toks[i].text).cloned() else {
                continue;
            };
            if prev_code(&ix.toks, i)
                .is_some_and(|j| ix.toks[j].is_ident("fn") || ix.toks[j].is_punct("."))
            {
                continue;
            }
            let Some(args) = crate::workspace::call_args(ix, i) else { continue };
            let Some(arg) = args.get(pidx) else { continue };
            if let Some(v) = const_eval(ix, &expr_toks(ix, arg), &env, 0) {
                claims.push(Claim { file_idx: fi, at: i, value: v });
            }
        }
    }

    for c in &claims {
        let (label, ix) = &files[c.file_idx];
        match EXIT_REGISTRY.iter().find(|(v, _, _)| *v == c.value) {
            None => out.push(violation(
                label,
                ix,
                c.at,
                RuleKind::ExitCodeRegistry,
                format!("undocumented exit code {} — not in the README exit-code table", c.value),
                "add a row to README.md's exit-code table and to EXIT_REGISTRY in \
                 crates/lint/src/dataflow.rs, or reuse a documented code"
                    .to_string(),
            )),
            Some((v, meaning, owners)) => {
                let krate = crate_of(label);
                if !owners.is_empty() && !owners.contains(&krate) {
                    out.push(violation(
                        label,
                        ix,
                        c.at,
                        RuleKind::ExitCodeRegistry,
                        format!(
                            "exit code {v} ({meaning}) used from crate `{krate}`, which does \
                             not own it"
                        ),
                        "codes 0–8 belong to the train-side table and 9–12 to the serve \
                         table — exit with a code from this crate's own range"
                            .to_string(),
                    ));
                }
            }
        }
    }

    // amud-lint's own domain: EXIT_* consts must be 0–4 and pairwise
    // distinct (duplicates would alias CI outcomes).
    let mut seen: Vec<i64> = Vec::new();
    for c in &lint_consts {
        let (label, ix) = &files[c.file_idx];
        if !(0..=LINT_EXIT_MAX).contains(&c.value) {
            out.push(violation(
                label,
                ix,
                c.at,
                RuleKind::ExitCodeRegistry,
                format!("lint exit code {} outside amud-lint's 0–{LINT_EXIT_MAX} domain", c.value),
                "amud-lint's exit codes are clean/violation/usage/regression/internal (0–4)"
                    .to_string(),
            ));
        } else if seen.contains(&c.value) {
            out.push(violation(
                label,
                ix,
                c.at,
                RuleKind::ExitCodeRegistry,
                format!("duplicate lint exit code {}", c.value),
                "every amud-lint outcome needs a distinct exit code".to_string(),
            ));
        }
        seen.push(c.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::index::FileIndex;
    use crate::symbols::SymbolTable;
    use crate::tokenizer::tokenize;

    /// Runs one workspace pass over a one-file workspace.
    fn run_pass(
        label: &str,
        src: &str,
        pass: fn(&[(String, FileIndex)], &SymbolTable, &CallGraph, &mut Vec<Violation>),
    ) -> Vec<Violation> {
        let files = vec![(label.to_string(), FileIndex::new(tokenize(src)))];
        let syms = SymbolTable::build(&files);
        let cg = CallGraph::build(&files, &syms);
        let mut out = Vec::new();
        pass(&files, &syms, &cg, &mut out);
        out
    }

    fn bounds(src: &str) -> Vec<Violation> {
        run_pass("crates/par/src/fixture.rs", src, pass_index_bounds)
    }

    fn shapes(src: &str) -> Vec<Violation> {
        run_pass("crates/train/src/shapes.rs", src, pass_shape_consistency)
    }

    fn exits(label: &str, src: &str) -> Vec<Violation> {
        run_pass(label, src, pass_exit_code_registry)
    }

    // ------------------------------------------------------------------
    // Constant environment
    // ------------------------------------------------------------------

    #[test]
    fn const_env_folds_workspace_constants() {
        let src = "pub const A: usize = 8;\npub const B: usize = A * 4 - 2;\n";
        let env = const_env(&[("x".to_string(), FileIndex::new(tokenize(src)))]);
        assert_eq!(env.get("A"), Some(&8));
        assert_eq!(env.get("B"), Some(&30));
    }

    // ------------------------------------------------------------------
    // index-bounds: the abstract domain
    // ------------------------------------------------------------------

    #[test]
    fn loop_bound_over_len_is_proved() {
        let src = "pub fn f(a: &[f32]) -> f32 {\n\
                   let mut s = 0.0;\n\
                   for i in 0..a.len() {\n s += a[i];\n }\n s\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn symbolic_len_alias_is_proved() {
        let src = "pub fn f(a: &[f32]) -> f32 {\n\
                   let n = a.len();\n let m = n;\n let mut s = 0.0;\n\
                   for i in 0..m {\n s += a[i];\n }\n s\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn unproved_access_is_flagged() {
        let src = "pub fn f(a: &[f32], i: usize) -> f32 {\n a[i]\n }\n";
        let vs = bounds(src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule.name(), "index-bounds");
    }

    #[test]
    fn shadow_rebind_kills_the_length_fact() {
        let src = "pub fn f(a: &[f32]) -> f32 {\n\
                   let n = a.len();\n let n = n + 1;\n let mut s = 0.0;\n\
                   for i in 0..n {\n s += a[i];\n }\n s\n }\n";
        assert_eq!(bounds(src).len(), 1);
    }

    #[test]
    fn tuple_let_binds_both_lengths() {
        let src = "pub fn f(a: &[f32], b: &[f32]) -> f32 {\n\
                   let (n, m) = (a.len(), b.len());\n let mut s = 0.0;\n\
                   for i in 0..n {\n s += a[i];\n }\n\
                   for j in 0..m {\n s += b[j];\n }\n s\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn min_chain_proves_every_operand() {
        let src = "pub fn f(o: &mut [f32], a: &[f32], b: &[f32], c: &[f32], d: &[f32]) {\n\
                   let n = o.len().min(a.len()).min(b.len()).min(c.len()).min(d.len());\n\
                   for i in 0..n {\n o[i] = a[i] + b[i] + c[i] + d[i];\n }\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn scaled_index_and_slice_window_are_proved() {
        // The lane-blocked kernel shape: i < n/4 proves the 4-wide window
        // i*4..i*4+4, and the window binding carries a length-4 fact.
        let src = "pub fn f(a: &[f32]) -> f32 {\n\
                   let n = a.len() - a.len() % 4;\n let mut s = 0.0;\n\
                   for i in 0..n / 4 {\n\
                   let w = &a[i * 4..i * 4 + 4];\n\
                   s += w[0] + w[3];\n }\n s\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn chunks_exact_width_is_a_length_fact() {
        let src = "pub fn f(a: &[f32]) -> f32 {\n\
                   let mut s = 0.0;\n\
                   for ch in a.chunks_exact(4) {\n s += ch[0] + ch[3];\n }\n s\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn windows_closure_binding_is_proved() {
        let src = "pub fn sorted(p: &[usize]) -> bool {\n\
                   p.windows(2).all(|w| w[0] <= w[1])\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn interprocedural_getter_and_row_summary() {
        // The quantized-GEMM shape: `m.cols()` canonicalises to `m.cols`,
        // and the `row` summary gives `r` a symbolic length of `m.cols`.
        let src = "pub struct M { data: Vec<f32>, cols: usize }\n\
                   impl M {\n\
                   pub fn cols(&self) -> usize {\n self.cols\n }\n\
                   pub fn row(&self, r: usize) -> &[f32] {\n\
                   // BOUNDS(data): row-major invariant, callers pass r < rows\n\
                   &self.data[r * self.cols..(r + 1) * self.cols]\n }\n }\n\
                   pub fn dot4(m: &M, r: usize) -> f32 {\n\
                   let a_row = m.row(r);\n\
                   let k_extent = m.cols();\n\
                   let k_main = k_extent - k_extent % 4;\n\
                   let mut s = 0.0;\n\
                   for kb in 0..k_main / 4 {\n\
                   let k = kb * 4;\n\
                   s += a_row[k] + a_row[k + 1] + a_row[k + 2] + a_row[k + 3];\n\
                   }\n s\n }\n";
        assert!(bounds(src).is_empty());
    }

    // ------------------------------------------------------------------
    // index-bounds: the BOUNDS escape grammar
    // ------------------------------------------------------------------

    #[test]
    fn audited_escape_suppresses_the_finding() {
        let src = "pub fn f(a: &[f32], i: usize) -> f32 {\n\
                   // BOUNDS(a): callers uphold i < a.len() by construction\n\
                   a[i]\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn placeholder_escape_reason_is_rejected() {
        let src = "pub fn f(a: &[f32], i: usize) -> f32 {\n\
                   // BOUNDS(a): todo\n\
                   a[i]\n }\n";
        assert_eq!(bounds(src).len(), 1);
    }

    #[test]
    fn comma_list_escape_covers_multiple_containers() {
        let src = "pub fn f(a: &[f32], b: &[f32], i: usize) -> f32 {\n\
                   // BOUNDS(a, b): parallel arrays, callers pass i below both\n\
                   a[i] + b[i]\n }\n";
        assert!(bounds(src).is_empty());
    }

    #[test]
    fn escape_in_one_fn_does_not_leak_to_another() {
        let src = "pub fn f(a: &[f32], i: usize) -> f32 {\n\
                   // BOUNDS(a): callers uphold i < a.len() by construction\n\
                   a[i]\n }\n\
                   pub fn g(a: &[f32], i: usize) -> f32 {\n a[i]\n }\n";
        assert_eq!(bounds(src).len(), 1);
    }

    // ------------------------------------------------------------------
    // shape-consistency
    // ------------------------------------------------------------------

    #[test]
    fn matmul_dimension_mismatch_is_flagged() {
        let src = "pub fn f() {\n\
                   let a = DenseMatrix::zeros(2, 3);\n\
                   let b = DenseMatrix::zeros(4, 5);\n\
                   let _c = a.matmul(&b);\n }\n";
        let vs = shapes(src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("dimension mismatch"), "{}", vs[0].message);
    }

    #[test]
    fn matching_matmul_is_clean() {
        let src = "pub fn f() {\n\
                   let a = DenseMatrix::zeros(2, 3);\n\
                   let b = DenseMatrix::zeros(3, 5);\n\
                   let _c = a.matmul(&b);\n }\n";
        assert!(shapes(src).is_empty());
    }

    #[test]
    fn const_dims_flow_into_shapes() {
        let src = "pub const N: usize = 4;\n\
                   pub fn f() {\n\
                   let s = CsrMatrix::zeros(3, N);\n\
                   let d = DenseMatrix::zeros(3, 2);\n\
                   let _y = s.spmm(d.as_slice(), 2);\n }\n";
        let vs = shapes(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("spmm"));
    }

    #[test]
    fn quantized_weights_keep_their_source_shape() {
        let src = "pub fn f() {\n\
                   let a = DenseMatrix::zeros(2, 3);\n\
                   let w = DenseMatrix::zeros(5, 4);\n\
                   let qw = QMatrix::quantize(w, Mode::F16);\n\
                   let _y = matmul_deq(&a, &qw);\n }\n";
        let vs = shapes(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("matmul_deq"));
    }

    // ------------------------------------------------------------------
    // exit-code-registry
    // ------------------------------------------------------------------

    #[test]
    fn undocumented_exit_code_is_flagged() {
        let src = "fn main() {\n std::process::exit(42);\n }\n";
        let vs = exits("crates/train/src/main.rs", src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("undocumented exit code 42"), "{}", vs[0].message);
    }

    #[test]
    fn serve_code_from_train_crate_is_flagged() {
        let src = "fn main() {\n std::process::exit(9);\n }\n";
        let vs = exits("crates/train/src/main.rs", src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("does not own it"), "{}", vs[0].message);
    }

    #[test]
    fn documented_code_in_owner_crate_is_clean() {
        let src = "fn main() {\n std::process::exit(3);\n }\n";
        assert!(exits("crates/train/src/main.rs", src).is_empty());
    }

    #[test]
    fn constant_through_exit_sink_is_checked() {
        let src = "fn die(msg: &str, code: i32) -> ! {\n\
                   eprintln!(\"{msg}\");\n std::process::exit(code)\n }\n\
                   fn main() {\n die(\"boom\", 42);\n }\n";
        let vs = exits("crates/train/src/main.rs", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("undocumented exit code 42"), "{}", vs[0].message);
    }

    #[test]
    fn duplicate_lint_exit_codes_are_flagged() {
        let src = "pub const EXIT_A: u8 = 1;\npub const EXIT_B: u8 = 1;\n";
        let vs = exits("crates/lint/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("duplicate lint exit code 1"), "{}", vs[0].message);
    }

    #[test]
    fn lint_exit_code_outside_domain_is_flagged() {
        let src = "pub const EXIT_WILD: u8 = 9;\n";
        let vs = exits("crates/lint/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("outside"), "{}", vs[0].message);
    }
}
