//! Report rendering for `amud-analyze`: the machine-readable
//! `analyze-report.json` and the human summary printed by `ci.sh`.
//!
//! The JSON is deliberately hand-rendered (std-only workspace) and
//! deterministic: violations are sorted, there are no timestamps, and maps
//! iterate in `BTreeMap` order — so golden-snapshot tests can compare the
//! exact bytes.

use crate::passes::{RuleKind, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn violation_json(v: &Violation, indent: &str) -> String {
    format!(
        "{indent}{{\n\
         {indent}  \"file\": \"{}\",\n\
         {indent}  \"line\": {},\n\
         {indent}  \"col\": {},\n\
         {indent}  \"rule\": \"{}\",\n\
         {indent}  \"message\": \"{}\",\n\
         {indent}  \"suggestion\": \"{}\"\n\
         {indent}}}",
        esc(&v.file),
        v.line,
        v.col,
        v.rule.name(),
        esc(&v.message),
        esc(&v.suggestion),
    )
}

/// Renders the full machine-readable report.
pub fn render_json(files_scanned: usize, violations: &[Violation]) -> String {
    let mut out = String::from("{\n  \"schema\": \"amud-analyze/2\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {files_scanned},");

    out.push_str("  \"summary\": {");
    let rows: Vec<String> = summary_counts(violations)
        .iter()
        .map(|(rule, n)| format!("\n    \"{rule}\": {n}"))
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("\n  },\n");

    out.push_str("  \"violations\": [");
    let items: Vec<String> =
        violations.iter().map(|v| format!("\n{}", violation_json(v, "    "))).collect();
    out.push_str(&items.join(","));
    out.push_str(if violations.is_empty() { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
    out
}

/// Findings per rule, sorted by rule name. Every registered rule appears —
/// zero rows included — so a pass that went silent is visible in the
/// summary and report diffs stay aligned across runs.
fn summary_counts(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut map: BTreeMap<&'static str, usize> =
        RuleKind::all().iter().map(|r| (r.name(), 0)).collect();
    for v in violations {
        *map.entry(v.rule.name()).or_default() += 1;
    }
    map
}

/// The human summary printed after a run: one row per rule, then a total
/// line. With `timings` (the `--timings` flag) each row gains a wall-time
/// column, the pipeline stages that are not rules (lexing, symbol fusion)
/// get rows of their own, and a parseable total-time line is added.
pub fn render_summary(
    files_scanned: usize,
    violations: &[Violation],
    timings: Option<&[(String, Duration)]>,
) -> String {
    let ms = |d: &Duration| d.as_secs_f64() * 1000.0;
    let mut out = String::new();
    let summary = summary_counts(violations);
    for (rule, n) in &summary {
        let _ = write!(out, "  {rule:<26} findings {n:>3}");
        if let Some(ts) = timings {
            let t = ts.iter().find(|(name, _)| name == rule).map_or(0.0, |(_, d)| ms(d));
            let _ = write!(out, "   {t:>8.2} ms");
        }
        out.push('\n');
    }
    if let Some(ts) = timings {
        for (name, d) in ts.iter().filter(|(name, _)| !summary.contains_key(name.as_str())) {
            let _ = writeln!(out, "  {name:<26} {:<15}{:>8.2} ms", "(stage)", ms(d));
        }
        let total: f64 = ts.iter().map(|(_, d)| ms(d)).sum();
        let _ = writeln!(out, "amud-analyze: analysis wall time {:.0} ms", total.ceil());
    }
    let _ =
        writeln!(out, "amud-analyze: {files_scanned} file(s), {} violation(s)", violations.len());
    out
}
