//! Cross-artifact drift passes.
//!
//! * `metric-drift` — the Prometheus family names the telemetry plane
//!   emits (string literals in `crates/service/src/telemetry.rs`) are
//!   reconciled three ways: every name the integration test asserts
//!   must be emitted, every name README documents must be emitted, and
//!   every emitted name must be documented in README's metrics table.
//! * `kind-exhaustive` — enum/exporter lock-step: variant count vs. the
//!   `NUM_*` const vs. the `*_NAMES` table; every variant referenced in
//!   its decode/name exporters; the registry's JSON exporter
//!   (`RunReport::to_json`) must reference the counter name table.
//!
//! Each check silently no-ops when its artifact is absent, so scratch
//! trees (and the fixture corpus) only pay for what they contain.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::diag::Diagnostic;
use crate::engine::SourceFile;
use crate::hir::{FileHir, ItemKind};
use crate::lexer::{self, TokKind};

const TELEMETRY_FILE: &str = "crates/service/src/telemetry.rs";
const TELEMETRY_TEST: &str = "tests/telemetry_plane.rs";
const README: &str = "README.md";

/// Names in README that are not telemetry families (binary/crate names).
const README_IGNORE: [&str; 2] = ["paracosm_check", "paracosm_core"];

/// `(file, enum, NUM const, NAMES const)` triples kept in lock-step.
const TRIPLES: [(&str, &str, &str, &str); 3] = [
    (
        "crates/core/src/trace.rs",
        "Counter",
        "NUM_COUNTERS",
        "COUNTER_NAMES",
    ),
    (
        "crates/core/src/trace/window.rs",
        "WindowCounter",
        "NUM_WINDOW_COUNTERS",
        "WINDOW_COUNTER_NAMES",
    ),
    (
        "crates/core/src/trace/profile.rs",
        "ProfileCounter",
        "NUM_PROFILE_COUNTERS",
        "PROFILE_COUNTER_NAMES",
    ),
];

/// `(file, enum, exporter fn)` — the fn body must reference every
/// variant of the enum.
const COVERAGE: [(&str, &str, &str); 6] = [
    ("crates/core/src/trace.rs", "Counter", "counter_from_index"),
    (
        "crates/core/src/trace/profile.rs",
        "ProfileCounter",
        "profile_counter_from_index",
    ),
    ("crates/core/src/trace/flight.rs", "FlightStage", "name"),
    (
        "crates/core/src/trace/flight.rs",
        "FlightStage",
        "from_code",
    ),
    ("crates/core/src/trace/flight.rs", "FanKind", "name"),
    ("crates/core/src/trace/flight.rs", "FanKind", "from_code"),
];

/// `(file, owner, fn, required idents)` — registry exporters must
/// reference the name table, so a counter added to the enum cannot
/// silently vanish from the report.
const EXPORT_REFS: [(&str, &str, &str, [&str; 1]); 1] = [(
    "crates/core/src/trace.rs",
    "RunReport",
    "to_json",
    ["COUNTER_NAMES"],
)];

pub fn run(root: &Path, files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    metric_drift(root, files, diags);
    kind_exhaustive(files, diags);
}

/// Extract `paracosm_…` family names from a string, with the value
/// attributed to `line` (names -> first line seen).
fn metric_words(s: &str, line: u32, out: &mut BTreeMap<String, u32>) {
    let b = s.as_bytes();
    let mut from = 0;
    while let Some(off) = s[from..].find("paracosm_") {
        let start = from + off;
        let mut end = start + "paracosm_".len();
        while end < b.len()
            && (b[end].is_ascii_lowercase() || b[end].is_ascii_digit() || b[end] == b'_')
        {
            end += 1;
        }
        let name = s[start..end].trim_end_matches('_').to_string();
        if name.len() > "paracosm_".len() {
            out.entry(name).or_insert(line);
        }
        from = end;
    }
}

/// Names inside the non-test string literals of a lexed file.
fn str_metric_words(file: &FileHir, test_tok: impl Fn(usize) -> bool) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for (i, t) in file.toks.iter().enumerate() {
        if t.kind == TokKind::Str && !test_tok(i) {
            metric_words(&t.text, t.line, &mut out);
        }
    }
    out
}

fn metric_drift(root: &Path, files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let Some(tele) = files.iter().find(|f| f.rel == TELEMETRY_FILE) else {
        return;
    };
    let emitted = str_metric_words(&tele.hir, |i| tele.is_test_tok(i));
    if emitted.is_empty() {
        return; // scratch/fixture telemetry stub — nothing to reconcile
    }

    // Direction 1: every name the integration test asserts is emitted.
    if let Ok(src) = std::fs::read_to_string(root.join(TELEMETRY_TEST)) {
        let hir = crate::hir::parse(lexer::lex(&src));
        let asserted = str_metric_words(&hir, |_| false);
        for (name, line) in &asserted {
            if !emitted.contains_key(name) {
                diags.push(Diagnostic::new(
                    TELEMETRY_TEST,
                    *line,
                    "metric-drift",
                    format!(
                        "test asserts metric `{name}` which the telemetry exporter \
                         never emits — fix the asserted name or the exporter"
                    ),
                ));
            }
        }
    }

    // Directions 2 and 3: README names are emitted, emitted names are
    // documented.
    if let Ok(readme) = std::fs::read_to_string(root.join(README)) {
        let mut documented = BTreeMap::new();
        for (lineno, line) in readme.lines().enumerate() {
            metric_words(line, lineno as u32 + 1, &mut documented);
        }
        let ignore: BTreeSet<&str> = README_IGNORE.into_iter().collect();
        for (name, line) in &documented {
            if !ignore.contains(name.as_str()) && !emitted.contains_key(name) {
                diags.push(Diagnostic::new(
                    README,
                    *line,
                    "metric-drift",
                    format!(
                        "README documents metric `{name}` which the telemetry \
                         exporter never emits — fix the name drift"
                    ),
                ));
            }
        }
        for (name, line) in &emitted {
            if !documented.contains_key(name) {
                diags.push(Diagnostic::new(
                    TELEMETRY_FILE,
                    *line,
                    "metric-drift",
                    format!(
                        "metric `{name}` is emitted but not documented — add it to \
                         README's telemetry metrics table"
                    ),
                ));
            }
        }
    }
}

/// Find fn `name` in `file`, preferring one inside an impl/trait block
/// whose header names `owner`; fall back to any fn with that name.
fn scoped_fn<'a>(file: &'a SourceFile, owner: &str, name: &str) -> Option<&'a crate::hir::FnDecl> {
    let hir = &file.hir;
    for item in &hir.items {
        if !matches!(item.kind, ItemKind::Impl | ItemKind::Trait) {
            continue;
        }
        let header = &hir.toks[item.sig_start..item.sig_end.min(hir.toks.len())];
        if !header.iter().any(|t| t.is_ident(owner)) {
            continue;
        }
        if let Some(f) = hir.fns.iter().find(|f| {
            f.name == name
                && f.body
                    .is_some_and(|(o, _)| o > item.sig_end && f.body.unwrap().1 < item.end)
        }) {
            return Some(f);
        }
    }
    hir.fn_named(name)
}

fn kind_exhaustive(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), f)).collect();

    for (rel, enum_name, num_name, names_name) in TRIPLES {
        let Some(file) = by_rel.get(rel) else {
            continue;
        };
        let hir = &file.hir;
        let Some(en) = hir.enums.iter().find(|e| e.name == enum_name) else {
            continue;
        };
        let nvariants = en.variants.len();

        // NUM const: first numeric token of the initializer.
        if let Some(item) = hir
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Const && i.name == num_name)
        {
            let value = hir.toks[item.sig_end..item.end]
                .iter()
                .find(|t| t.kind == TokKind::Num)
                .and_then(|t| t.text.parse::<usize>().ok());
            if let Some(v) = value {
                if v != nvariants {
                    diags.push(Diagnostic::new(
                        rel,
                        item.line,
                        "kind-exhaustive",
                        format!(
                            "`{num_name}` is {v} but `{enum_name}` has {nvariants} \
                             variants — exporters index by variant; keep the const \
                             in lock-step"
                        ),
                    ));
                }
            }
        }

        // NAMES table: one string per variant.
        if let Some(item) = hir
            .items
            .iter()
            .find(|i| matches!(i.kind, ItemKind::Const | ItemKind::Static) && i.name == names_name)
        {
            let nstrs = hir.toks[item.sig_end..item.end]
                .iter()
                .filter(|t| t.kind == TokKind::Str)
                .count();
            if nstrs != nvariants {
                diags.push(Diagnostic::new(
                    rel,
                    item.line,
                    "kind-exhaustive",
                    format!(
                        "`{names_name}` has {nstrs} entries but `{enum_name}` has \
                         {nvariants} variants — every variant needs an export name"
                    ),
                ));
            }
        }
    }

    for (rel, enum_name, fn_name) in COVERAGE {
        let Some(file) = by_rel.get(rel) else {
            continue;
        };
        let hir = &file.hir;
        let Some(en) = hir.enums.iter().find(|e| e.name == enum_name) else {
            continue;
        };
        let Some(f) = scoped_fn(file, enum_name, fn_name) else {
            continue;
        };
        for variant in &en.variants {
            if !hir.body_has_ident(f, variant) {
                diags.push(Diagnostic::new(
                    rel,
                    f.line,
                    "kind-exhaustive",
                    format!(
                        "exporter `{fn_name}` does not reference \
                         `{enum_name}::{variant}` — decode/name maps must stay \
                         exhaustive over the enum"
                    ),
                ));
            }
        }
    }

    for (rel, owner, fn_name, idents) in EXPORT_REFS {
        let Some(file) = by_rel.get(rel) else {
            continue;
        };
        let Some(f) = scoped_fn(file, owner, fn_name) else {
            continue;
        };
        for ident in idents {
            if !file.hir.body_has_ident(f, ident) {
                diags.push(Diagnostic::new(
                    rel,
                    f.line,
                    "kind-exhaustive",
                    format!(
                        "`{owner}::{fn_name}` does not reference `{ident}` — every \
                         registry counter must appear in the JSON report"
                    ),
                ));
            }
        }
    }
}
