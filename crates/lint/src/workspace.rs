//! Workspace-level interprocedural passes, built on [`crate::symbols`] +
//! [`crate::callgraph`].
//!
//! Where the per-file passes in [`crate::passes`] see one token stream at
//! a time, these two see the whole workspace at once:
//!
//! * `determinism-taint` — values originating from `std::env`, wall-clock
//!   time, or ambient RNG state must not flow — through `let` bindings
//!   and call arguments, interprocedurally — into cache keys
//!   (`*_store(…).get(key)`), ordered-fold inputs (`ordered_sum` /
//!   `ordered_dot`), or tensor contents (`from_vec` / `from_fn` / `set`
//!   data arguments). The shape-pure thread-budget accessors of
//!   `amud-par` (`max_threads` and friends) are exempt: the proptested
//!   determinism contract guarantees thread count never changes output
//!   values. A `// TAINT-PURE(name): reason` comment inside a function
//!   body is the audited escape hatch (the sibling of `KEY-EXEMPT`): it
//!   declares a local — or, naming the function itself, its return
//!   value — run-pure despite its env-derived provenance, for the
//!   sanctioned patterns the lexical engine cannot see through (an env
//!   var selecting among fixed presets, a user-facing knob that only
//!   bounds a loop).
//! * `error-taxonomy` — public fallible functions in `crates/train`,
//!   `crates/datasets` and `crates/serve` must return the typed error
//!   enums, not `String` / `Box` payloads. No clippy lint rejects
//!   `Result<_, String>`, so this one stays here.
//!
//! All analysis is lexical and over-approximate in the same way the
//! symbol table is: a call resolves to every workspace function with
//! that bare name. For safety checks that is the right polarity — a
//! spurious same-name edge can cost a code change or an audited escape
//! comment, a missed real edge would cost a silent non-deterministic
//! result.

use crate::callgraph::CallGraph;
use crate::index::{match_delim, next_code, prev_code, FileIndex};
use crate::passes::{violation, RuleKind, Violation};
use crate::symbols::SymbolTable;
use crate::tokenizer::TokKind;
use std::collections::BTreeSet;
use std::ops::Range;

/// A workspace pass entry point over the indexed files, symbol table and
/// call graph.
pub(crate) type WsPass = fn(&[(String, FileIndex)], &SymbolTable, &CallGraph, &mut Vec<Violation>);

/// The interprocedural passes in dispatch order, labelled by the rule
/// they enforce (the label feeds the `--timings` column).
pub(crate) const WORKSPACE_PASSES: &[(&str, WsPass)] =
    &[("determinism-taint", pass_determinism_taint), ("error-taxonomy", pass_error_taxonomy)];

/// Top-level comma-split argument ranges of the call whose callee
/// identifier is at `at`. Closure arguments may split at their parameter
/// commas — harmless for taint (the union covers the same tokens).
fn call_args(ix: &FileIndex, at: usize) -> Option<Vec<Range<usize>>> {
    let open = next_code(&ix.toks, at + 1)?;
    if !ix.toks[open].is_punct("(") {
        return None;
    }
    let close = match_delim(&ix.toks, open)?;
    let mut args = Vec::new();
    let mut depth = 0isize;
    let mut start = open + 1;
    for j in open + 1..close {
        let t = &ix.toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    args.push(start..j);
                    start = j + 1;
                }
                _ => {}
            }
        }
    }
    if start < close {
        args.push(start..close);
    }
    Some(args)
}

// ---------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------

/// Thread-budget accessors whose returns are shape-pure by the proptested
/// determinism contract: thread count never changes output values, so
/// their env-derived results do not count as taint.
const SHAPE_PURE: &[&str] = &[
    "max_threads",
    "current_threads",
    "default_threads",
    "with_threads",
    "split_even",
    "split_by_weight",
];

/// Ordered-fold sinks: any tainted argument is a violation.
const ORDERED_SINKS: &[&str] = &["ordered_sum", "ordered_dot"];

/// Tensor-content sinks: taint in the *data* arguments (index ≥ 2 of
/// `from_vec(rows, cols, data)` / `from_fn(rows, cols, f)` /
/// `set(r, c, v)`) is a violation; shape arguments are not contents.
const TENSOR_SINKS: &[&str] = &["from_vec", "from_fn", "set"];

/// Classifies token `i` as a non-determinism source, if it is one.
fn source_kind(ix: &FileIndex, i: usize) -> Option<&'static str> {
    let t = &ix.toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let qualifier = |i: usize| {
        prev_code(&ix.toks, i)
            .filter(|&j| ix.toks[j].is_punct("::"))
            .and_then(|j| prev_code(&ix.toks, j))
    };
    match t.text.as_str() {
        "var" | "var_os" => {
            qualifier(i).filter(|&j| ix.toks[j].is_ident("env")).map(|_| "std::env")
        }
        "now" => qualifier(i)
            .filter(|&j| ix.toks[j].is_ident("Instant") || ix.toks[j].is_ident("SystemTime"))
            .map(|_| "the wall clock"),
        "thread_rng" | "from_entropy" => Some("ambient RNG state"),
        _ => None,
    }
}

/// Per-function facts the taint fixpoint consumes.
struct TaintFacts {
    /// Token indices of non-determinism sources in the body.
    sources: BTreeSet<usize>,
    /// `let` bindings with initialiser ranges.
    bindings: Vec<(String, Range<usize>)>,
    /// Call sites with argument ranges and their qualifier-filtered
    /// resolved targets.
    calls: Vec<CallFacts>,
    /// Resolved targets per call-site token index, for taint lookups on
    /// arbitrary sub-ranges of the body.
    call_targets: std::collections::BTreeMap<usize, Vec<usize>>,
    /// Ranges whose taint makes the function's return tainted: explicit
    /// `return` expressions plus the final statement/tail expression.
    returns: Vec<Range<usize>>,
    /// Names declared run-pure by `// TAINT-PURE(name): reason` comments
    /// in the body (with a substantive reason).
    pure_names: BTreeSet<String>,
}

/// One call site inside a function body, as the taint pass sees it.
struct CallFacts {
    /// Callee name at the site.
    callee: String,
    /// Token index of the callee identifier.
    at: usize,
    /// Token range of each argument.
    args: Vec<Range<usize>>,
    /// Qualifier-filtered resolution targets (symbol ids).
    targets: Vec<usize>,
}

/// `// TAINT-PURE(name): reason` exemptions inside `body` — the reason
/// must be substantive (≥ 10 chars) for the exemption to count.
fn taint_pure_names(ix: &FileIndex, body: &Range<usize>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for j in body.clone() {
        let t = &ix.toks[j];
        if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let mut rest = t.text.as_str();
        while let Some(pos) = rest.find("TAINT-PURE(") {
            rest = &rest[pos + "TAINT-PURE(".len()..];
            if let Some(end) = rest.find(')') {
                let name = rest[..end].trim();
                let after = rest[end + 1..].trim_start();
                if after.starts_with(':') && after[1..].trim().len() >= 10 {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

/// Explicit `return` expression ranges plus the body's final top-level
/// statement (the lexical stand-in for the tail expression).
fn return_ranges(ix: &FileIndex, body: &Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    if body.end <= body.start + 2 {
        return out;
    }
    let inner = body.start + 1..body.end - 1;
    let mut depth = 0isize;
    let mut seg_start = inner.start;
    let mut last_seg: Option<Range<usize>> = None;
    for i in inner.clone() {
        let t = &ix.toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        last_seg = Some(seg_start..i + 1);
                        seg_start = i + 1;
                    }
                }
                ";" if depth == 0 => {
                    last_seg = Some(seg_start..i);
                    seg_start = i + 1;
                }
                _ => {}
            }
        } else if ix.is_live(i) && t.is_ident("return") {
            let mut d = 0isize;
            let mut j = i + 1;
            while j < body.end {
                let u = &ix.toks[j];
                if u.kind == TokKind::Punct {
                    match u.text.as_str() {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => {
                            if d == 0 {
                                break;
                            }
                            d -= 1;
                        }
                        ";" if d == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            out.push(i + 1..j);
        }
    }
    let tail = seg_start..inner.end;
    if tail.is_empty() {
        // Body ends exactly at a statement boundary; the final statement
        // (e.g. a trailing if/match used as the tail) is the best lexical
        // stand-in for the return expression.
        if let Some(seg) = last_seg {
            out.push(seg);
        }
    } else {
        out.push(tail);
    }
    out
}

/// Any taint inside `range`: a source token, a tainted local, or a call
/// to a taint-returning workspace function.
fn range_tainted(
    ix: &FileIndex,
    range: &Range<usize>,
    tainted: &BTreeSet<String>,
    facts: &TaintFacts,
    syms: &SymbolTable,
    returns_taint: &[bool],
) -> bool {
    for i in range.clone() {
        if !ix.is_live(i) {
            continue;
        }
        if facts.sources.contains(&i) {
            return true;
        }
        let t = &ix.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if tainted.contains(&t.text) {
            return true;
        }
        // A call to a taint-returning workspace function. Per-site
        // resolution (qualifier-filtered) keeps `Vec::new()` from
        // aliasing every workspace `new`; bare-name resolution is only
        // the fallback for idents the call graph did not register.
        if !SHAPE_PURE.contains(&t.text.as_str())
            && next_code(&ix.toks, i + 1).is_some_and(|j| ix.toks[j].is_punct("("))
        {
            let via_site = match facts.call_targets.get(&i) {
                Some(targets) => targets.iter().any(|&id| returns_taint[id]),
                None => syms.resolve(&t.text).iter().any(|&id| returns_taint[id]),
            };
            if via_site {
                return true;
            }
        }
    }
    false
}

/// Locals tainted inside one function, given its tainted parameters —
/// the binding-level fixpoint.
fn local_taint(
    ix: &FileIndex,
    params: &[String],
    tainted_params: &BTreeSet<usize>,
    facts: &TaintFacts,
    syms: &SymbolTable,
    returns_taint: &[bool],
) -> BTreeSet<String> {
    let mut tainted: BTreeSet<String> = tainted_params
        .iter()
        .filter_map(|&k| params.get(k).cloned())
        .filter(|name| !facts.pure_names.contains(name))
        .collect();
    loop {
        let mut grew = false;
        for (name, init) in &facts.bindings {
            if !tainted.contains(name)
                && !facts.pure_names.contains(name)
                && range_tainted(ix, init, &tainted, facts, syms, returns_taint)
            {
                tainted.insert(name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    tainted
}

fn pass_determinism_taint(
    files: &[(String, FileIndex)],
    syms: &SymbolTable,
    cg: &CallGraph,
    out: &mut Vec<Violation>,
) {
    let facts: Vec<TaintFacts> = syms
        .symbols
        .iter()
        .map(|s| {
            let ix = &files[s.file].1;
            let sources =
                s.body.clone().filter(|&i| ix.is_live(i) && source_kind(ix, i).is_some()).collect();
            let calls: Vec<CallFacts> = cg.sites[s.id]
                .iter()
                .filter_map(|c| {
                    call_args(ix, c.at).map(|args| CallFacts {
                        callee: c.callee.clone(),
                        at: c.at,
                        args,
                        targets: c.targets.clone(),
                    })
                })
                .collect();
            let call_targets = calls.iter().map(|c| (c.at, c.targets.clone())).collect();
            TaintFacts {
                sources,
                bindings: ix.let_inits(&s.body),
                calls,
                call_targets,
                returns: return_ranges(ix, &s.body),
                pure_names: taint_pure_names(ix, &s.body),
            }
        })
        .collect();

    // Summary fixpoint: which params carry taint in, which returns carry
    // taint out. Monotone over finite sets, so it terminates.
    //
    // A return counts as tainted only from the function's own sources
    // (its body and its callees' tainted returns), never from a tainted
    // parameter: a caller passing taint in already sees it in its own
    // argument tokens, and a summary that kept the parameter's taint
    // would taint every other caller's result too.
    let mut param_taint: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); syms.len()];
    let mut returns_taint = vec![false; syms.len()];
    let no_params = BTreeSet::new();
    loop {
        let mut changed = false;
        for s in &syms.symbols {
            let ix = &files[s.file].1;
            let own = local_taint(ix, &s.params, &no_params, &facts[s.id], syms, &returns_taint);
            if !returns_taint[s.id]
                && !SHAPE_PURE.contains(&s.name.as_str())
                && !facts[s.id].pure_names.contains(&s.name)
                && facts[s.id]
                    .returns
                    .iter()
                    .any(|r| range_tainted(ix, r, &own, &facts[s.id], syms, &returns_taint))
            {
                returns_taint[s.id] = true;
                changed = true;
            }
            let tainted =
                local_taint(ix, &s.params, &param_taint[s.id], &facts[s.id], syms, &returns_taint);
            for call in &facts[s.id].calls {
                if SHAPE_PURE.contains(&call.callee.as_str()) {
                    continue;
                }
                for (k, arg) in call.args.iter().enumerate() {
                    if !range_tainted(ix, arg, &tainted, &facts[s.id], syms, &returns_taint) {
                        continue;
                    }
                    for &t in &call.targets {
                        if k < syms.get(t).params.len() && param_taint[t].insert(k) {
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Sink scan with the converged summaries.
    for s in &syms.symbols {
        let ix = &files[s.file].1;
        let tainted =
            local_taint(ix, &s.params, &param_taint[s.id], &facts[s.id], syms, &returns_taint);
        let is_tainted =
            |r: &Range<usize>| range_tainted(ix, r, &tainted, &facts[s.id], syms, &returns_taint);
        for call in &facts[s.id].calls {
            let (callee, at, args) = (&call.callee, call.at, &call.args);
            if ORDERED_SINKS.contains(&callee.as_str()) && args.iter().any(&is_tainted) {
                out.push(violation(
                    &s.label,
                    ix,
                    at,
                    RuleKind::DeterminismTaint,
                    format!(
                        "env/time/RNG-derived value flows into the ordered fold `{callee}` in `{}`",
                        s.name
                    ),
                    "ordered folds must see run-independent inputs — derive the value from data, config literals, or a seeded RNG",
                ));
            }
            if TENSOR_SINKS.contains(&callee.as_str())
                && args.len() >= 3
                && args[2..].iter().any(&is_tainted)
            {
                out.push(violation(
                    &s.label,
                    ix,
                    at,
                    RuleKind::DeterminismTaint,
                    format!(
                        "env/time/RNG-derived value flows into tensor contents via `{callee}` in `{}`",
                        s.name
                    ),
                    "tensor contents must be reproducible — thread the value through a seeded RNG or config instead",
                ));
            }
        }
        // Cache-key sink: `*_store(…).get(key)` with taint in the key.
        let mut i = s.body.start;
        while i < s.body.end {
            let is_store = ix.is_live(i)
                && ix.toks[i].kind == TokKind::Ident
                && ix.toks[i].text.ends_with("_store");
            if is_store {
                if let Some(close) = next_code(&ix.toks, i + 1)
                    .filter(|&j| ix.toks[j].is_punct("("))
                    .and_then(|j| match_delim(&ix.toks, j))
                {
                    let get_i = next_code(&ix.toks, close + 1)
                        .filter(|&j| ix.toks[j].is_punct("."))
                        .and_then(|j| next_code(&ix.toks, j + 1))
                        .filter(|&j| ix.toks[j].is_ident("get"));
                    if let Some(get_i) = get_i {
                        if let Some(arg_close) = next_code(&ix.toks, get_i + 1)
                            .filter(|&j| ix.toks[j].is_punct("("))
                            .and_then(|j| match_delim(&ix.toks, j))
                        {
                            if is_tainted(&(get_i + 2..arg_close)) {
                                out.push(violation(
                                    &s.label,
                                    ix,
                                    get_i,
                                    RuleKind::DeterminismTaint,
                                    format!(
                                        "env/time/RNG-derived value flows into a cache key in `{}`",
                                        s.name
                                    ),
                                    "cache keys must be pure content fingerprints — a run-dependent key silently forks the cache",
                                ));
                            }
                            i = arg_close + 1;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// error-taxonomy
// ---------------------------------------------------------------------

/// Crates whose public API must use the typed error enums.
const TAXONOMY_PATHS: &[&str] = &["crates/train/src/", "crates/datasets/src/", "crates/serve/src/"];

fn pass_error_taxonomy(
    files: &[(String, FileIndex)],
    syms: &SymbolTable,
    _cg: &CallGraph,
    out: &mut Vec<Violation>,
) {
    for s in &syms.symbols {
        if !TAXONOMY_PATHS.iter().any(|p| s.label.starts_with(p)) {
            continue;
        }
        let ix = &files[s.file].1;
        // `pub fn` only (not `pub(crate)`): walk back from the `fn`
        // keyword over the permitted modifiers.
        let k = s.at;
        let mut is_pub = false;
        let mut p = k;
        let mut hops = 0;
        while hops < 4 {
            let Some(prev) = prev_code(&ix.toks, p) else { break };
            let t = &ix.toks[prev];
            if t.is_ident("pub") {
                is_pub = !next_code(&ix.toks, prev + 1).is_some_and(|n| ix.toks[n].is_punct("("));
                break;
            }
            if matches!(t.text.as_str(), "unsafe" | "const" | "async" | "extern")
                || t.kind == TokKind::StrLit
            {
                p = prev;
                hops += 1;
                continue;
            }
            break;
        }
        if !is_pub {
            continue;
        }
        // Return type tokens: between `->` and the body brace (stopping at
        // a `where` clause).
        let mut saw_arrow = false;
        let mut ret: Vec<&str> = Vec::new();
        for i in k..s.body.start {
            let t = &ix.toks[i];
            if !t.is_code() {
                continue;
            }
            if t.is_punct("->") {
                saw_arrow = true;
                continue;
            }
            if t.is_ident("where") {
                break;
            }
            if saw_arrow && t.kind == TokKind::Ident {
                ret.push(t.text.as_str());
            }
        }
        if !ret.contains(&"Result") {
            continue;
        }
        if let Some(bad) = ["String", "Box"].iter().find(|b| ret.contains(*b)) {
            out.push(violation(
                &s.label,
                ix,
                k,
                RuleKind::ErrorTaxonomy,
                format!(
                    "public fallible fn `{}` returns `{bad}`-flavoured errors instead of a typed error enum",
                    s.name
                ),
                "return the crate's typed error (DatasetError / TrainError) so callers can match on failure classes",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<(String, String)> =
            files.iter().map(|(label, src)| (label.to_string(), src.to_string())).collect();
        crate::analyze_files(&files).0
    }

    fn by_rule(vs: &[Violation], rule: RuleKind) -> Vec<&Violation> {
        vs.iter().filter(|v| v.rule == rule).collect()
    }

    #[test]
    fn determinism_taint_flows_through_calls_and_lets() {
        let vs = analyze(&[(
            "crates/train/src/sched.rs",
            "fn jitter() -> f32 { let t = std::env::var(\"J\").ok(); parse(t) }\n\
             pub fn blend(xs: &[f32]) -> f32 { let j = jitter(); let scaled = scale_all(xs, j); amud_par::ordered_sum(&scaled) }\n",
        )]);
        let hits = by_rule(&vs, RuleKind::DeterminismTaint);
        assert_eq!(hits.len(), 1, "{vs:?}");
        assert!(hits[0].message.contains("ordered_sum"));
    }

    #[test]
    fn shape_pure_thread_budget_is_not_taint() {
        let vs = analyze(&[(
            "crates/train/src/sched.rs",
            "pub fn reduce(xs: &[f32]) -> f32 { let n = max_threads(); let parts = split_even(xs.len(), n); amud_par::ordered_sum(xs) }\n",
        )]);
        assert!(by_rule(&vs, RuleKind::DeterminismTaint).is_empty(), "{vs:?}");
    }

    #[test]
    fn taint_pure_comment_exempts_binding_and_return() {
        // Without the comment, `preset` (env-derived) reaching the fold is
        // a violation; with an audited TAINT-PURE it is sanctioned.
        let flagged = analyze(&[(
            "crates/train/src/sched.rs",
            "pub fn blend(xs: &[f32]) -> f32 { let preset = std::env::var(\"P\").ok(); amud_par::ordered_sum(pick(xs, preset)) }\n",
        )]);
        assert_eq!(by_rule(&flagged, RuleKind::DeterminismTaint).len(), 1, "{flagged:?}");

        let exempt_local = analyze(&[(
            "crates/train/src/sched.rs",
            "pub fn blend(xs: &[f32]) -> f32 {\n\
             // TAINT-PURE(preset): env var only selects among fixed presets, never enters values\n\
             let preset = std::env::var(\"P\").ok(); amud_par::ordered_sum(pick(xs, preset)) }\n",
        )]);
        assert!(by_rule(&exempt_local, RuleKind::DeterminismTaint).is_empty(), "{exempt_local:?}");

        // Naming the function itself exempts its return value at call sites.
        let exempt_fn = analyze(&[(
            "crates/train/src/sched.rs",
            "fn env_scale() -> Scale {\n\
             // TAINT-PURE(env_scale): the env var selects among fixed preset structs\n\
             match std::env::var(\"S\").as_deref() { Ok(\"tiny\") => Scale::tiny(), _ => Scale::default() } }\n\
             pub fn blend(xs: &[f32]) -> f32 { let s = env_scale(); amud_par::ordered_sum(pick(xs, s)) }\n",
        )]);
        assert!(by_rule(&exempt_fn, RuleKind::DeterminismTaint).is_empty(), "{exempt_fn:?}");

        // A thin reason does not buy the exemption.
        let thin = analyze(&[(
            "crates/train/src/sched.rs",
            "pub fn blend(xs: &[f32]) -> f32 {\n\
             // TAINT-PURE(preset): ok\n\
             let preset = std::env::var(\"P\").ok(); amud_par::ordered_sum(pick(xs, preset)) }\n",
        )]);
        assert_eq!(by_rule(&thin, RuleKind::DeterminismTaint).len(), 1, "{thin:?}");
    }

    #[test]
    fn error_taxonomy_flags_stringly_public_results() {
        let vs = analyze(&[(
            "crates/datasets/src/load.rs",
            "pub fn load(p: &str) -> Result<Data, String> { imp(p) }\n\
             pub(crate) fn internal(p: &str) -> Result<Data, String> { imp(p) }\n\
             pub fn typed(p: &str) -> Result<Data, DatasetError> { imp(p) }\n",
        )]);
        let hits = by_rule(&vs, RuleKind::ErrorTaxonomy);
        assert_eq!(hits.len(), 1, "{vs:?}");
        assert!(hits[0].message.contains("`load`"));
    }
}
