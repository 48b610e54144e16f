//! Workspace symbol table: every live `fn` item across every crate,
//! keyed by bare name.
//!
//! The table is the first interprocedural layer on top of [`FileIndex`]:
//! it fuses the per-file function indexes into one id space so the
//! [`crate::callgraph`] can resolve a call site in one crate to a
//! definition in another. Resolution is *lexical* — by bare name, with no
//! type information — so a method call resolves to every workspace
//! function of that name. Passes built on the table are therefore
//! over-approximate (they may follow an edge the type system would
//! reject) but never miss a same-name edge, which is the right polarity
//! for safety checks like determinism taint.
//!
//! The vendored API stubs under `crates/compat/` are deliberately **not**
//! indexed: they stand in for external dependencies, and treating their
//! bodies as workspace code would let a stub's internals poison every
//! caller of a common name like `sample`.

use crate::index::FileIndex;
use std::collections::BTreeMap;
use std::ops::Range;

/// One workspace function definition.
pub struct Symbol {
    /// Dense id — the index into [`SymbolTable::symbols`].
    pub id: usize,
    /// Bare function name (no path qualification).
    pub name: String,
    /// Index into the `files` slice the table was built from.
    pub file: usize,
    /// Workspace-relative path of the defining file.
    pub label: String,
    /// Token index of the `fn` keyword in the defining file.
    pub at: usize,
    /// Parameter names in declaration order (`self` excluded).
    pub params: Vec<String>,
    /// Token range of the body in the defining file, braces included.
    pub body: Range<usize>,
}

/// All live workspace functions with a by-name resolution index.
pub struct SymbolTable {
    pub symbols: Vec<Symbol>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table from `(label, index)` pairs — one per scanned
    /// file. Compat stubs are skipped (they model *external* crates).
    pub fn build(files: &[(String, FileIndex)]) -> SymbolTable {
        let mut symbols = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, (label, ix)) in files.iter().enumerate() {
            if label.starts_with("crates/compat/") {
                continue;
            }
            for item in ix.fn_items() {
                let id = symbols.len();
                by_name.entry(item.name.clone()).or_default().push(id);
                symbols.push(Symbol {
                    id,
                    name: item.name,
                    file: fi,
                    label: label.clone(),
                    at: item.at,
                    params: item.params,
                    body: item.body,
                });
            }
        }
        SymbolTable { symbols, by_name }
    }

    /// Ids of every workspace function named `name` (possibly several —
    /// same-name methods on different types all match).
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn get(&self, id: usize) -> &Symbol {
        &self.symbols[id]
    }

    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn table(files: &[(&str, &str)]) -> (Vec<(String, FileIndex)>, SymbolTable) {
        let files: Vec<(String, FileIndex)> = files
            .iter()
            .map(|(label, src)| (label.to_string(), FileIndex::new(tokenize(src))))
            .collect();
        let table = SymbolTable::build(&files);
        (files, table)
    }

    #[test]
    fn fns_are_indexed_across_files_by_bare_name() {
        let (_files, t) = table(&[
            ("crates/nn/src/a.rs", "pub fn shared() {}\nfn only_a() {}\n"),
            ("crates/graph/src/b.rs", "impl T {\n    pub fn shared(&self) {}\n}\n"),
        ]);
        assert_eq!(t.resolve("shared").len(), 2, "same name in two crates → two candidates");
        assert_eq!(t.resolve("only_a").len(), 1);
        assert!(t.resolve("missing").is_empty());
    }

    #[test]
    fn compat_stubs_and_test_code_are_invisible() {
        let (_files, t) = table(&[
            ("crates/compat/rand/src/lib.rs", "pub fn sample() {}\n"),
            ("crates/nn/src/a.rs", "#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n"),
        ]);
        assert!(t.resolve("sample").is_empty(), "compat stubs model external crates");
        assert!(t.resolve("helper").is_empty(), "test code is exempt everywhere");
    }
}
