//! `cargo run -p amud-lint` — the `amud-analyze` workspace engine.
//!
//! Scans every library source file (`crates/*/src/**`, `src/**`) with the
//! passes in [`amud_lint::passes`] and [`amud_lint::workspace`], and exits
//! with a distinct code per failure class:
//!
//! ```text
//! 0  clean
//! 1  violation
//! 2  usage error — unknown flag
//! 4  internal error — unreadable file, unwritable report
//! ```
//!
//! ```text
//! cargo run -p amud-lint                        # check the workspace
//! cargo run -p amud-lint -- --report out.json   # also write analyze-report.json
//! cargo run -p amud-lint -- --timings           # per-pass wall-time summary column
//! cargo run -p amud-lint -- FILE…               # lint specific files
//! ```

use amud_lint::{analyze_files, report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const EXIT_CLEAN: u8 = 0;
const EXIT_VIOLATION: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INTERNAL: u8 = 4;

/// Workspace root: two levels above this crate's manifest. The layout is
/// fixed by the repo (crates/lint/Cargo.toml), so the ancestor always
/// exists; fall back to `.` rather than crash inside the linter.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap_or(Path::new(".")).to_path_buf()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Fixture corpora inside a crate are lint subjects' test data,
            // not workspace code.
            if name != "fixtures" {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Library sources: every workspace crate's `src/` tree plus the root
/// package's `src/` (bins included — they ship). Tests, examples and
/// benches are not hot paths and stay unscanned.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        // crates/compat holds its stub crates one level deeper.
        if let Ok(compat) = std::fs::read_dir(root.join("crates").join("compat")) {
            crates.extend(compat.flatten().map(|e| e.path()));
        }
        crates.sort();
        for krate in crates {
            collect_rs_files(&krate.join("src"), &mut files);
        }
    }
    collect_rs_files(&root.join("src"), &mut files);
    files.sort();
    files
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

struct Options {
    timings: bool,
    report_path: Option<PathBuf>,
    explicit: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options { timings: false, report_path: None, explicit: Vec::new() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timings" => opts.timings = true,
            "--report" => match it.next() {
                Some(p) => opts.report_path = Some(PathBuf::from(p)),
                None => return Err("--report needs a path".into()),
            },
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag '{flag}' (recognised: --timings, --report <path>)"
                ));
            }
            file => opts.explicit.push(PathBuf::from(file)),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let root = workspace_root();
    let files = if opts.explicit.is_empty() { workspace_sources(&root) } else { opts.explicit };

    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let label = rel(&root, path);
        match std::fs::read_to_string(path) {
            Ok(source) => sources.push((label, source)),
            Err(e) => {
                eprintln!("error: cannot read {label}: {e}");
                return ExitCode::from(EXIT_INTERNAL);
            }
        }
    }
    // Explicit-file mode is simply a small workspace: the per-file and
    // interprocedural passes run over whatever set was given.
    let (violations, timings) = analyze_files(&sources);

    if let Some(report_path) = &opts.report_path {
        let json = report::render_json(sources.len(), &violations);
        if let Err(e) = std::fs::write(report_path, json) {
            eprintln!("error: cannot write {}: {e}", report_path.display());
            return ExitCode::from(EXIT_INTERNAL);
        }
    }

    for v in &violations {
        println!("{v}");
    }
    let timings = opts.timings.then_some(timings.as_slice());
    print!("{}", report::render_summary(sources.len(), &violations, timings));

    if violations.is_empty() {
        ExitCode::from(EXIT_CLEAN)
    } else {
        ExitCode::from(EXIT_VIOLATION)
    }
}
