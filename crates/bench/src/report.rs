//! The `BENCH_*.json` layout, written and read back in one place.
//!
//! A report is one JSON object: fields in the order they were added,
//! scalars on a line each, arrays of flat row objects with one row per
//! line. The layout keeps committed reports diffable and lets
//! [`parse_baseline`] read a row back with a line scan. Std-only: the
//! workspace has no serde.

use std::fmt::Display;

/// A JSON object whose fields keep their insertion order: a whole report,
/// or one row of a report's array.
#[derive(Default)]
pub struct Object(Vec<(String, String)>);

impl Object {
    /// An object with no fields.
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends `"key": value`, with `value` rendered as it displays: a
    /// number (format floats to a fixed precision first), a bool, or a
    /// `Debug`-rendered list.
    pub fn field(mut self, key: &str, value: impl Display) -> Object {
        self.0.push((quote(key), value.to_string()));
        self
    }

    /// Appends `"key": "s"`, with `s` escaped.
    pub fn str(self, key: &str, s: &str) -> Object {
        self.field(key, quote(s))
    }

    /// Appends an array of row objects, one per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Object>) -> Object {
        let rows: Vec<String> = rows.into_iter().map(|r| format!("    {}", r.line())).collect();
        let body = if rows.is_empty() { String::new() } else { rows.join(",\n") + "\n" };
        self.field(key, format!("[\n{body}  ]"))
    }

    /// The object on one line: `{"a": 1, "b": "x"}`.
    fn line(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The report's text: one field per line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("  {k}: {v}")).collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Writes the report to `path`; exits 1 if it cannot.
    pub fn write(&self, path: &str) {
        if let Err(e) = std::fs::write(path, self.render()) {
            crate::fail(&format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
}

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The unescaped string value of `"key": "…"` in one rendered row.
fn json_str_field(row: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let mut chars = row[row.find(&tag)? + tag.len()..].chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// The numeric value of `"key": <num>` in one rendered row.
fn json_num_field(row: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = row.find(&tag)? + tag.len();
    let num: String = row[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

/// Every `(kernel, shape) → serial_ms` row of a rendered report. Rows
/// sit one per line, so a line scan is exact.
pub(crate) fn parse_baseline(text: &str) -> Vec<((String, String), f64)> {
    text.lines()
        .filter_map(|row| {
            let kernel = json_str_field(row, "kernel")?;
            let shape = json_str_field(row, "shape")?;
            Some(((kernel, shape), json_num_field(row, "serial_ms")?))
        })
        .collect()
}
