//! Orchestration: walk the tree, lex + parse every Rust file, run the
//! passes, render reports.

use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::diag::{self, Diagnostic};
use crate::hir::{self, FileHir};
use crate::lexer;
use crate::passes::{self, atomics, confine};

/// One parsed source file.
pub struct SourceFile {
    /// Root-relative path with `/` separators.
    pub rel: String,
    /// Raw source text (signature/snippet rendering).
    pub src: String,
    pub hir: FileHir,
    /// Whole file is test/bench/example code by path.
    pub all_test: bool,
}

impl SourceFile {
    /// Is token `i` inside test code (by path or `#[cfg(test)]` item)?
    pub fn is_test_tok(&self, i: usize) -> bool {
        self.all_test || self.hir.test_tok.get(i).copied().unwrap_or(false)
    }

    /// Trimmed source line (1-indexed), truncated for diagnostics.
    pub fn snippet(&self, line: u32) -> String {
        let t = self
            .src
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim();
        if t.len() > 60 {
            let cut = t
                .char_indices()
                .take(57)
                .last()
                .map_or(0, |(i, c)| i + c.len_utf8());
            format!("{}…", &t[..cut])
        } else {
            t.to_string()
        }
    }

    /// Source text spanned by tokens `lo..hi` (token indices, `hi`
    /// exclusive).
    pub fn sig_text(&self, lo: usize, hi: usize) -> String {
        if hi <= lo || hi > self.hir.toks.len() {
            return String::new();
        }
        let a = self.hir.toks[lo].start;
        let b = self.hir.toks[hi - 1].end;
        self.src.get(a..b).unwrap_or("").to_string()
    }
}

/// Everything one `analyze` run produced: diagnostics plus the tables
/// `--dump` renders.
pub struct Analysis {
    pub diags: Vec<Diagnostic>,
    pub atomic_table: atomics::AtomicTable,
    pub unwrap_counts: confine::UnwrapCounts,
}

impl Analysis {
    /// Render the current counts in `LINT.md` row form (the `--dump`
    /// authoring aid).
    pub fn dump_tables(&self) -> String {
        let mut out = String::new();
        out.push_str("## Ordering allowlist (current counts)\n\n");
        out.push_str("| file | field | ordering | max | rationale |\n");
        out.push_str("|---|---|---|---|---|\n");
        for ((file, field, ordering), lines) in atomics::grouped(&self.atomic_table) {
            out.push_str(&format!(
                "| {file} | `{field}` | {ordering} | {} | TODO |\n",
                lines.len()
            ));
        }
        out.push_str("\n## Declared seqlock protocols (structural; no budget rows)\n\n");
        out.push_str("| file | field | protocol |\n");
        out.push_str("|---|---|---|\n");
        for p in &self.atomic_table.protocols {
            out.push_str(&format!(
                "| {} | `{}` | {} |\n",
                p.file, p.field, p.protocol
            ));
        }
        out.push_str("\n## Unwrap/expect budgets (current counts)\n\n");
        out.push_str("| file | max | rationale |\n");
        out.push_str("|---|---|---|\n");
        for (f, lines) in &self.unwrap_counts {
            out.push_str(&format!("| {f} | {} | TODO |\n", lines.len()));
        }
        out
    }

    /// The machine-readable diagnostics artifact (CI `--json` upload).
    pub fn to_json(&self) -> String {
        diag::to_json(&self.diags)
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            let name = entry.file_name();
            // `fixtures` holds the analyzer's seeded-violation corpus —
            // deliberately-broken trees that must not lint the real one.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lex + parse every `crates/**/*.rs` under `root`.
fn load(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("{}: no crates/ directory here", root.display()));
    }
    let mut paths = Vec::new();
    walk_rs(&crates_dir, &mut paths).map_err(|e| format!("walk failed: {e}"))?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let all_test = rel
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let hir = hir::parse(lexer::lex(&src));
        files.push(SourceFile {
            rel,
            src,
            hir,
            all_test,
        });
    }
    Ok(files)
}

/// Run every pass over the tree at `root`.
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let files = load(root)?;
    let cfg = match std::fs::read_to_string(root.join("LINT.md")) {
        Ok(text) => Config::parse(&text),
        Err(_) => Config::default(),
    };

    let mut diags: Vec<Diagnostic> = Vec::new();
    let unwrap_counts = confine::run(&files, &cfg, &mut diags);
    passes::hotpath::run(&files, &mut diags);
    let atomic_table = atomics::collect(&files);
    atomics::check(&files, &atomic_table, &cfg, &mut diags);
    passes::drift::run(root, &files, &mut diags);

    diag::sort(&mut diags);
    Ok(Analysis {
        diags,
        atomic_table,
        unwrap_counts,
    })
}

/// Render the public-API snapshot for `root` in `API.md` format.
pub fn api_dump(root: &Path) -> Result<String, String> {
    let files = load(root)?;
    Ok(passes::api::render(&files))
}

/// The `csm-analyze` CLI driver.
pub fn cli_main() -> std::process::ExitCode {
    use std::process::ExitCode;
    let tool = "csm-analyze";

    let mut root = PathBuf::from(".");
    let mut dump = false;
    let mut api = false;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dump" => dump = true,
            "--api-dump" => api = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("{tool}: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: {tool} [ROOT] [--dump | --api-dump] [--json PATH]");
                println!("  checks project invariants over ROOT/crates/**/*.rs");
                println!("  budgets and allowlists come from ROOT/LINT.md");
                println!("  --dump prints current counts in LINT.md row form");
                println!("  --api-dump prints the public-API snapshot (API.md format)");
                println!("  --json PATH writes a machine-readable diagnostics artifact");
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }

    if api {
        return match api_dump(&root) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{tool}: {e}");
                ExitCode::from(2)
            }
        };
    }

    match analyze(&root) {
        Err(e) => {
            eprintln!("{tool}: {e}");
            ExitCode::from(2)
        }
        Ok(analysis) => {
            if dump {
                print!("{}", analysis.dump_tables());
            }
            if let Some(p) = &json_path {
                if let Err(e) = std::fs::write(p, analysis.to_json()) {
                    eprintln!("{tool}: write {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
            if analysis.diags.is_empty() {
                if !dump {
                    println!("{tool}: OK");
                }
                ExitCode::SUCCESS
            } else {
                for d in &analysis.diags {
                    println!("{d}");
                }
                eprintln!("{tool}: {} violation(s)", analysis.diags.len());
                ExitCode::FAILURE
            }
        }
    }
}
