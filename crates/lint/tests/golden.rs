//! Golden `analyze-report.json` snapshots — one per analysis pass — plus
//! tokenizer assertions over the stress corpus.
//!
//! Each test runs the full engine over a seeded fixture under a label that
//! selects the pass (a one-file workspace), renders the JSON report, and
//! compares it byte-for-byte to `fixtures/golden/<name>.json`. Regenerate
//! after an intentional diagnostic change with:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p amud-lint --test golden
//! ```

use amud_lint::tokenizer::{tokenize, TokKind};
use amud_lint::{analyze_files, report, RuleKind, Violation};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixtures_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn analyze(fixture_name: &str, label: &str) -> Vec<Violation> {
    analyze_files(&[(label.to_string(), fixture(fixture_name))]).0
}

/// Analyzes `fixture_name` under `label`, checks each listed rule fired
/// exactly the expected number of times, and snapshots the rendered report.
fn golden_check(fixture_name: &str, label: &str, expect: &[(RuleKind, usize)]) {
    let violations = analyze(fixture_name, label);
    for &(rule, n) in expect {
        let fired = violations.iter().filter(|v| v.rule == rule).count();
        assert_eq!(
            fired,
            n,
            "{fixture_name}: expected {n} {} finding(s), got {fired}: {violations:#?}",
            rule.name()
        );
    }

    let json = report::render_json(1, &violations);
    let golden_path = fixtures_dir()
        .join("golden")
        .join(format!("{}.json", fixture_name.trim_end_matches(".rs")));
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &json)
            .unwrap_or_else(|e| panic!("write {}: {e}", golden_path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} — regenerate with BLESS_GOLDEN=1 cargo test -p amud-lint --test golden",
            golden_path.display()
        )
    });
    assert_eq!(
        json, expected,
        "{fixture_name}: report drifted from its golden snapshot; if the change is \
         intentional, regenerate with BLESS_GOLDEN=1"
    );
}

#[test]
fn float_determinism_pass_golden() {
    // .sum, .fold, and a bare `acc +=` inside the par closure, plus the
    // file-wide raw `[f32; 8]` lane-accumulator fold.
    golden_check(
        "float_determinism.rs",
        "crates/train/src/fixture.rs",
        &[(RuleKind::FloatDeterminism, 4)],
    );
}

#[test]
fn cache_key_pass_golden() {
    // `incomplete` drops conv_r; `complete` and `exempted` stay silent.
    golden_check(
        "cache_key.rs",
        "crates/cache/src/fixture.rs",
        &[(RuleKind::CacheKeyCompleteness, 1)],
    );
}

#[test]
fn determinism_taint_pass_golden() {
    // Wall-clock taint into `ordered_sum`, env-var taint into `from_vec`.
    golden_check(
        "determinism_taint.rs",
        "crates/train/src/fixture.rs",
        &[(RuleKind::DeterminismTaint, 2)],
    );
}

#[test]
fn determinism_taint_resolves_same_name_constructors_by_type_golden() {
    // Two `new`s in one file, only `Tuned::new` reads an env var: only its
    // callers are flagged, directly and through the pass-through `doubled`.
    golden_check(
        "taint_same_name.rs",
        "crates/train/src/fixture.rs",
        &[(RuleKind::DeterminismTaint, 2)],
    );
}

#[test]
fn quant_crate_is_governed_golden() {
    // amud-quant is governed like the cache layer: `lookup_dropping_scale`
    // omits its per-tensor `scale` from the store key (1 × cache-key), and
    // an env-var epsilon reaches tensor contents through `env_epsilon` →
    // `from_vec` (1 × determinism-taint). Both land in the same snapshot.
    golden_check(
        "quant_key.rs",
        "crates/quant/src/fixture.rs",
        &[(RuleKind::CacheKeyCompleteness, 1), (RuleKind::DeterminismTaint, 1)],
    );
}

#[test]
fn error_taxonomy_pass_golden() {
    // `Result<_, String>` and `Result<_, Box<dyn Error>>` on pub fns.
    golden_check(
        "error_taxonomy.rs",
        "crates/datasets/src/fixture.rs",
        &[(RuleKind::ErrorTaxonomy, 2)],
    );
}

#[test]
fn serve_error_taxonomy_pass_golden() {
    // The serving crate is governed too: stringly-typed errors on its pub
    // API (instead of `ServeError`/`SnapshotError`) are fresh findings.
    golden_check(
        "serve_error_taxonomy.rs",
        "crates/serve/src/fixture.rs",
        &[(RuleKind::ErrorTaxonomy, 2)],
    );
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    for label in
        ["crates/core/src/fixture.rs", "crates/nn/src/fixture.rs", "crates/train/src/fixture.rs"]
    {
        let vs = analyze("clean.rs", label);
        assert!(vs.is_empty(), "clean.rs under {label}: {vs:#?}");
    }
    // Snapshot the all-clean report too: the summary must still list every
    // rule, with zero rows, so report diffs stay aligned across runs.
    golden_check("clean.rs", "crates/nn/src/fixture.rs", &[]);
}

#[test]
fn tokenizer_handles_the_stress_corpus() {
    let toks = tokenize(&fixture("tokens.rs"));

    // The macro-body `unsafe` is a real identifier token…
    assert!(toks.iter().any(|t| t.is_ident("unsafe")), "unsafe inside macro body is lexed");
    // …while every rule keyword inside the raw string stays string content.
    let idents: Vec<&str> =
        toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect();
    assert!(!idents.contains(&"Mutex"), "raw-string contents must not lex as identifiers");
    assert!(
        toks.iter().any(|t| t.kind == TokKind::RawStrLit && t.text.contains(".unwrap()")),
        "raw string captured verbatim"
    );

    // Nested block comment is one token.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::BlockComment && t.text.contains("still one comment")));

    // Lifetimes vs char literals.
    assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
    assert!(toks.iter().any(|t| t.kind == TokKind::CharLit && t.text == "'x'"));
    assert!(toks.iter().any(|t| t.kind == TokKind::CharLit && t.text == r"'\''"));

    // Numbers keep exponents but release `..` and method calls.
    assert!(toks.iter().any(|t| t.kind == TokKind::NumLit && t.text == "1.5e-3f32"));
    assert!(toks.iter().any(|t| t.is_punct("..")));
    assert!(toks.iter().any(|t| t.is_ident("max")));

    // The analysis itself must not fire on the corpus decoys.
    let vs = analyze("tokens.rs", "crates/train/src/fixture.rs");
    assert!(vs.is_empty(), "decoys must not trip any rule: {vs:#?}");
}
