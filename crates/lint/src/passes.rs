//! The per-file analysis passes of `amud-analyze`.
//!
//! Every pass runs over the shared [`FileIndex`] (token stream + structural
//! facts) and emits [`Violation`]s anchored to `file:line:col`. Rules:
//!
//! * `float-determinism` — inside a closure passed to a `par_*` entry
//!   point, iterator `.sum()` / `.fold(…)` and bare-identifier compound
//!   accumulation (`acc += …`) are banned: reductions go through the
//!   ordered-fold helpers in `crates/par` so the bit-identity contract is
//!   auditable in one place. Writes through the task's own block
//!   (`*o += …`, `block[i] += …`) stay allowed.
//! * `cache-key-completeness` — in the cache crates, every parameter of a
//!   function that consults a content-addressed store must flow into the
//!   cache key (traced through `let` bindings) or carry an explicit
//!   `// KEY-EXEMPT(param): reason` justification.
//!
//! The interprocedural rules (`panic-reachability`, `determinism-taint`,
//! `par-disjointness`, `error-taxonomy`) live in [`crate::workspace`].

use crate::index::{match_delim, next_code, prev_code, FileIndex};
use crate::tokenizer::TokKind;
use std::collections::BTreeSet;
use std::fmt;

/// Which rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleKind {
    FloatDeterminism,
    CacheKeyCompleteness,
    PanicReachability,
    DeterminismTaint,
    ParDisjointness,
    ErrorTaxonomy,
}

impl RuleKind {
    pub fn name(self) -> &'static str {
        match self {
            RuleKind::FloatDeterminism => "float-determinism",
            RuleKind::CacheKeyCompleteness => "cache-key-completeness",
            RuleKind::PanicReachability => "panic-reachability",
            RuleKind::DeterminismTaint => "determinism-taint",
            RuleKind::ParDisjointness => "par-disjointness",
            RuleKind::ErrorTaxonomy => "error-taxonomy",
        }
    }

    /// Every rule, for the report summary.
    pub fn all() -> &'static [RuleKind] {
        &[
            RuleKind::FloatDeterminism,
            RuleKind::CacheKeyCompleteness,
            RuleKind::PanicReachability,
            RuleKind::DeterminismTaint,
            RuleKind::ParDisjointness,
            RuleKind::ErrorTaxonomy,
        ]
    }
}

/// One structured finding, anchored to a file, 1-based line and column.
/// Every finding is an error: any one of them fails the run.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: RuleKind,
    pub message: String,
    /// How to fix it, or which audited escape applies.
    pub suggestion: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}] {} (help: {})",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message,
            self.suggestion
        )
    }
}

/// A finding of `rule` anchored at token `at` of the file labelled `path`.
pub(crate) fn violation(
    path: &str,
    ix: &FileIndex,
    at: usize,
    rule: RuleKind,
    message: String,
    suggestion: &str,
) -> Violation {
    Violation {
        file: path.to_string(),
        line: ix.toks[at].line,
        col: ix.toks[at].col,
        rule,
        message,
        suggestion: suggestion.to_string(),
    }
}

/// A per-file pass entry point; gating on the file's path happens inside.
pub(crate) type FilePass = fn(&str, &FileIndex, &mut Vec<Violation>);

/// Everywhere except `amud-par`, which hosts the approved ordered folds.
fn gate_float(path: &str, ix: &FileIndex, out: &mut Vec<Violation>) {
    if !path.starts_with("crates/par/src/") {
        pass_float_determinism(path, ix, out);
    }
}

/// The cache layer, plus amud-quant: quantization parameters (scales,
/// precision codes) are part of a stored tensor's identity, so every
/// key-adjacent fn param there must flow or be KEY-EXEMPT-annotated.
fn gate_cache_key(path: &str, ix: &FileIndex, out: &mut Vec<Violation>) {
    if path.starts_with("crates/cache/src/")
        || path.starts_with("crates/quant/src/")
        || path == "crates/core/src/precompute.rs"
    {
        pass_cache_key(path, ix, out);
    }
}

/// The per-file passes in dispatch order, labelled by the rule they
/// enforce (the label feeds the `--timings` column).
pub(crate) const FILE_PASSES: &[(&str, FilePass)] =
    &[("float-determinism", gate_float), ("cache-key-completeness", gate_cache_key)];

/// Unordered float reductions inside `par_*` closures, plus hand-rolled
/// `[f32; N]` lane-accumulator folds anywhere in the file.
fn pass_float_determinism(path: &str, ix: &FileIndex, out: &mut Vec<Violation>) {
    pass_raw_lane_accumulators(path, ix, out);
    for body in ix.par_closure_bodies() {
        for i in body.clone() {
            if !ix.is_live(i) {
                continue;
            }
            let t = &ix.toks[i];
            // `.sum(…)` / `.sum::<f32>()` — iterator reduction.
            if t.is_punct(".") {
                let Some(name) = next_code(&ix.toks, i + 1) else { continue };
                if name >= body.end {
                    continue;
                }
                if ix.toks[name].is_ident("sum")
                    || ix.toks[name].is_ident("fold")
                    || ix.toks[name].is_ident("product")
                {
                    out.push(violation(
                        path,
                        ix,
                        name,
                        RuleKind::FloatDeterminism,
                        format!(
                            "iterator `.{}(…)` inside a parallel closure",
                            ix.toks[name].text
                        ),
                        "use amud_par::lane_sum / lane_dot (the canonical lane-folded order) or ordered_sum / ordered_dot, or an explicit indexed loop",
                    ));
                }
                continue;
            }
            // Bare-identifier compound accumulation: `acc += …`. Writes
            // through the task's own block (`*o += …`, `block[i] += …`,
            // `s.field += …`) are the deterministic per-element updates the
            // kernels are built on and stay allowed.
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), "+=" | "-=" | "*=" | "/=") {
                let Some(lhs) = prev_code(&ix.toks, i) else { continue };
                if ix.toks[lhs].kind != TokKind::Ident {
                    continue;
                }
                let bare = match prev_code(&ix.toks, lhs) {
                    None => true,
                    Some(p) => {
                        let pt = &ix.toks[p];
                        pt.kind == TokKind::Punct
                            && matches!(pt.text.as_str(), ";" | "{" | "}" | "(" | "," | "|" | "=>")
                    }
                };
                if bare {
                    out.push(violation(
                        path,
                        ix,
                        lhs,
                        RuleKind::FloatDeterminism,
                        format!(
                            "`{} {}` accumulates into a closure-local inside a parallel region",
                            ix.toks[lhs].text, t.text
                        ),
                        "reduce via amud_par::lane_sum / lane_dot (or ordered_sum / ordered_dot), or write each element through the task's own output block",
                    ));
                }
            }
        }
    }
}

/// A float literal token: has a decimal point or an explicit f32/f64
/// suffix (`0.0`, `0.0f32`, `0f32`, `1e-3f32`, …).
fn is_float_literal(t: &crate::tokenizer::Tok) -> bool {
    t.kind == TokKind::NumLit
        && (t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64"))
}

/// Hand-rolled lane accumulators: `let mut acc = [0.0f32; N]` (or with an
/// explicit `[f32; N]` type ascription) later folded through an indexed
/// compound assignment `acc[…] += …`. That is a partial-sums reduction
/// whose tree shape is pinned nowhere — exactly the pattern `amud_par::
/// lanes` exists to own. Outside `crates/par` the fold must go through
/// `lane_sum`/`lane_dot`, whose reduction tree is canonical and
/// proptested, so the autovectorizer story never forks the numerics.
fn pass_raw_lane_accumulators(path: &str, ix: &FileIndex, out: &mut Vec<Violation>) {
    for i in 0..ix.toks.len() {
        if !ix.is_live(i) || !ix.toks[i].is_ident("let") {
            continue;
        }
        let Some(mut_i) = next_code(&ix.toks, i + 1).filter(|&j| ix.toks[j].is_ident("mut")) else {
            continue;
        };
        let Some(name_i) = next_code(&ix.toks, mut_i + 1) else { continue };
        if ix.toks[name_i].kind != TokKind::Ident {
            continue;
        }
        let name = ix.toks[name_i].text.clone();
        // Optional `: [f32; N]` ascription.
        let mut j = match next_code(&ix.toks, name_i + 1) {
            Some(j) => j,
            None => continue,
        };
        let mut ascribed_float_array = false;
        if ix.toks[j].is_punct(":") {
            let Some(open) = next_code(&ix.toks, j + 1).filter(|&k| ix.toks[k].is_punct("["))
            else {
                continue;
            };
            ascribed_float_array = next_code(&ix.toks, open + 1)
                .map(|k| ix.toks[k].is_ident("f32") || ix.toks[k].is_ident("f64"))
                .unwrap_or(false);
            let Some(close) = match_delim(&ix.toks, open) else { continue };
            j = match next_code(&ix.toks, close + 1) {
                Some(j) => j,
                None => continue,
            };
        }
        if !ix.toks[j].is_punct("=") {
            continue;
        }
        // Repeat-array float init: `[<float-lit>; <len>]`.
        let float_repeat_init = next_code(&ix.toks, j + 1)
            .filter(|&k| ix.toks[k].is_punct("["))
            .and_then(|open| {
                let lit = next_code(&ix.toks, open + 1)?;
                let semi = next_code(&ix.toks, lit + 1)?;
                Some(is_float_literal(&ix.toks[lit]) && ix.toks[semi].is_punct(";"))
            })
            .unwrap_or(false);
        if !ascribed_float_array && !float_repeat_init {
            continue;
        }
        // Is the accumulator ever folded by index? `acc[…] += …` (or any
        // compound float assignment through an index).
        let mut k = name_i + 1;
        let mut folded = false;
        while let Some(u) =
            ix.toks[k..].iter().position(|t| t.text == name && t.kind == TokKind::Ident)
        {
            let use_i = k + u;
            k = use_i + 1;
            if !ix.is_live(use_i) {
                continue;
            }
            let Some(open) = next_code(&ix.toks, use_i + 1).filter(|&v| ix.toks[v].is_punct("["))
            else {
                continue;
            };
            let Some(close) = match_delim(&ix.toks, open) else { continue };
            let compound = next_code(&ix.toks, close + 1)
                .map(|v| {
                    ix.toks[v].kind == TokKind::Punct
                        && matches!(ix.toks[v].text.as_str(), "+=" | "-=" | "*=" | "/=")
                })
                .unwrap_or(false);
            if compound {
                folded = true;
                break;
            }
        }
        if folded {
            out.push(violation(
                path,
                ix,
                name_i,
                RuleKind::FloatDeterminism,
                format!("raw `[f32; N]` lane accumulator `{name}` folded outside crates/par"),
                "partial-sums reductions belong to amud_par::lanes — reduce via amud_par::lane_sum / lane_dot so the tree shape stays canonical",
            ));
        }
    }
}

/// Cache-key completeness: every parameter of a store-consulting function
/// flows into the key or is explicitly exempted.
fn pass_cache_key(path: &str, ix: &FileIndex, out: &mut Vec<Violation>) {
    for f in ix.fn_items() {
        // Collect the identifiers of every `<x>_store(…).get(<key>)` call's
        // key expression inside this function.
        let mut key_idents: BTreeSet<String> = BTreeSet::new();
        let mut consults_store = false;
        let mut i = f.body.start;
        while i < f.body.end {
            let is_store = ix.is_live(i)
                && ix.toks[i].kind == TokKind::Ident
                && ix.toks[i].text.ends_with("_store");
            if is_store {
                if let Some(open) = next_code(&ix.toks, i + 1).filter(|&j| ix.toks[j].is_punct("("))
                {
                    if let Some(close) = match_delim(&ix.toks, open) {
                        let dotted = next_code(&ix.toks, close + 1)
                            .filter(|&j| ix.toks[j].is_punct("."))
                            .and_then(|j| next_code(&ix.toks, j + 1))
                            .filter(|&j| ix.toks[j].is_ident("get"));
                        if let Some(get_i) = dotted {
                            if let Some(arg_open) =
                                next_code(&ix.toks, get_i + 1).filter(|&j| ix.toks[j].is_punct("("))
                            {
                                if let Some(arg_close) = match_delim(&ix.toks, arg_open) {
                                    consults_store = true;
                                    for k in arg_open + 1..arg_close {
                                        if ix.is_live(k) && ix.toks[k].kind == TokKind::Ident {
                                            key_idents.insert(ix.toks[k].text.clone());
                                        }
                                    }
                                    i = arg_close + 1;
                                    continue;
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
        if !consults_store {
            continue;
        }
        // Expand key identifiers through one-level `let` bindings to a
        // fixpoint: `let fp = fingerprint(adj); let key = (fp, n)` covers
        // `adj`.
        let lets = ix.let_inits(&f.body);
        loop {
            let mut grew = false;
            for (name, init) in &lets {
                if key_idents.contains(name) {
                    for d in init.clone().filter(|&k| ix.toks[k].kind == TokKind::Ident) {
                        grew |= key_idents.insert(ix.toks[d].text.clone());
                    }
                }
            }
            if !grew {
                break;
            }
        }
        // `// KEY-EXEMPT(param): reason` comments inside the function body.
        let mut exempt: BTreeSet<String> = BTreeSet::new();
        for j in f.body.clone() {
            let t = &ix.toks[j];
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let mut rest = t.text.as_str();
            while let Some(pos) = rest.find("KEY-EXEMPT(") {
                rest = &rest[pos + "KEY-EXEMPT(".len()..];
                if let Some(end) = rest.find(')') {
                    let name = rest[..end].trim();
                    let after = rest[end + 1..].trim_start();
                    // The justification must actually exist.
                    if after.starts_with(':') && after[1..].trim().len() >= 10 {
                        exempt.insert(name.to_string());
                    }
                }
            }
        }
        for p in &f.params {
            if !key_idents.contains(p) && !exempt.contains(p) {
                out.push(violation(
                    path,
                    ix,
                    f.at,
                    RuleKind::CacheKeyCompleteness,
                    format!(
                        "parameter `{p}` of `{}` does not flow into the cache key it looks up",
                        f.name
                    ),
                    "fingerprint it into the key, or add `// KEY-EXEMPT(param): reason` explaining why identity is covered",
                ));
            }
        }
    }
}
