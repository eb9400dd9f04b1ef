//! Ported confinement rules: forbid-unsafe, raw thread spawns,
//! `std::net`, sub-pattern key construction, unwrap/expect budgets.
//! All of them now run over tokens (strings/comments can never match)
//! with per-item `#[cfg(test)]` exemption instead of the old
//! everything-after-the-first-test-module heuristic.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::engine::SourceFile;
use crate::lexer::TokKind;
use crate::passes::{match_at, Pat};

/// Files allowed to spawn raw threads.
const SPAWN_ALLOWED: [&str; 3] = [
    "crates/graph/src/par.rs",
    "crates/core/src/inner.rs",
    "crates/service/src/telemetry.rs",
];

/// The only library file allowed to touch `std::net`.
const NET_ALLOWED: &str = "crates/service/src/telemetry.rs";

/// The only files allowed to *construct* canonical sub-pattern keys.
const SUBPATTERN_ALLOWED: [&str; 2] = ["crates/graph/src/query.rs", "crates/service/src/shared.rs"];

const SUBPATTERN_TYPES: [&str; 2] = ["EdgePatternKey", "TwoPathKey"];

/// Hot-path files for the trace-local-only rule.
const TRACE_HOT_FILES: [&str; 2] = ["crates/core/src/kernel.rs", "crates/core/src/inner.rs"];

/// The only file allowed to do shard-id arithmetic: `shard_index_for`
/// is the partition function, and exactly one may exist. `graph.rs`
/// reaches it only through `ShardConfig`'s `Route::store_of`, defined
/// next to it.
const SHARD_ROUTING_ALLOWED: &str = "crates/graph/src/shard.rs";

use TokKind::{Ident as I, Punct as P};

const FORBID_UNSAFE: [Pat; 8] = [
    (P, "#"),
    (P, "!"),
    (P, "["),
    (I, "forbid"),
    (P, "("),
    (I, "unsafe_code"),
    (P, ")"),
    (P, "]"),
];

/// Per-file `.unwrap()`/`.expect(` occurrence lines, as collected by
/// [`run`] (the engine renders these in `--dump`).
pub type UnwrapCounts = BTreeMap<String, Vec<u32>>;

pub fn run(files: &[SourceFile], cfg: &Config, diags: &mut Vec<Diagnostic>) -> UnwrapCounts {
    let mut unwrap_uses: UnwrapCounts = BTreeMap::new();

    for file in files {
        let rel = file.rel.as_str();
        let toks = &file.hir.toks;

        // forbid-unsafe-missing: every crate root carries the attribute.
        if rel.starts_with("crates/") && rel.ends_with("/src/lib.rs") {
            let has = (0..toks.len()).any(|i| match_at(toks, i, &FORBID_UNSAFE));
            if !has {
                diags.push(Diagnostic::new(
                    rel,
                    1,
                    "forbid-unsafe-missing",
                    "crate root lacks #![forbid(unsafe_code)] (document any \
                     exception in LINT.md and downgrade deliberately)",
                ));
            }
        }

        for i in 0..toks.len() {
            if file.is_test_tok(i) {
                continue;
            }
            let t = &toks[i];

            // thread-spawn-confined
            if t.is_ident("thread")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks
                    .get(i + 2)
                    .is_some_and(|t| t.is_ident("spawn") || t.is_ident("scope"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
            {
                let via_facade =
                    i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("sync");
                if !via_facade && !SPAWN_ALLOWED.contains(&rel) {
                    diags.push(Diagnostic::new(
                        rel,
                        t.line,
                        "thread-spawn-confined",
                        format!(
                            "raw thread::{} outside par.rs/inner.rs — use \
                             csm_graph::par::run_jobs or map_slice ({})",
                            toks[i + 2].text,
                            file.snippet(t.line)
                        ),
                    ));
                }
            }

            // std-net-confined
            if t.is_ident("std")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("net"))
                && rel != NET_ALLOWED
            {
                diags.push(Diagnostic::new(
                    rel,
                    t.line,
                    "std-net-confined",
                    format!(
                        "std::net outside {NET_ALLOWED} — the telemetry plane is \
                         the only sanctioned socket surface ({})",
                        file.snippet(t.line)
                    ),
                ));
            }

            // subpattern-key-confined: `Key::canonical(` calls and
            // `Key { … }` struct literals (type/impl positions excluded).
            if !SUBPATTERN_ALLOWED.contains(&rel)
                && t.kind == TokKind::Ident
                && SUBPATTERN_TYPES.contains(&t.text.as_str())
            {
                let canonical_call = toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("canonical"))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct("("));
                let struct_literal = toks.get(i + 1).is_some_and(|t| t.is_punct("{"))
                    && !(i > 0
                        && (toks[i - 1].is_punct(">")
                            || matches!(
                                toks[i - 1].text.as_str(),
                                "impl" | "struct" | "enum" | "trait" | "union" | "for"
                            )));
                if canonical_call || struct_literal {
                    diags.push(Diagnostic::new(
                        rel,
                        t.line,
                        "subpattern-key-confined",
                        format!(
                            "sub-pattern key construction outside query.rs/shared.rs \
                             — consume keys opaquely; canonicalization lives in \
                             QueryGraph::edge_pattern_keys and the shared index ({})",
                            file.snippet(t.line)
                        ),
                    ));
                }
            }

            // shard-routing-confined: the partition function may only be
            // named (defined *or* called) inside shard.rs — the graph
            // layer asks its `Route`, everything above it routes through
            // `GraphShard::shard_of`, so vertex→shard arithmetic can
            // never fork.
            if t.is_ident("shard_index_for") && rel != SHARD_ROUTING_ALLOWED {
                diags.push(Diagnostic::new(
                    rel,
                    t.line,
                    "shard-routing-confined",
                    format!(
                        "shard-id arithmetic outside {SHARD_ROUTING_ALLOWED} — \
                         route through GraphShard::shard_of; the partition \
                         function must stay unique ({})",
                        file.snippet(t.line)
                    ),
                ));
            }

            // trace-local-only
            if TRACE_HOT_FILES.contains(&rel)
                && t.is_ident("tracer")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("count"))
                && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
            {
                diags.push(Diagnostic::new(
                    rel,
                    t.line,
                    "trace-local-only",
                    format!(
                        "shared Tracer call on a hot path — count in the \
                         worker's own fields and fold them into its shard \
                         once per run ({})",
                        file.snippet(t.line)
                    ),
                ));
            }

            // unwrap-denied (library paths of core + graph)
            if (rel.starts_with("crates/core/src/") || rel.starts_with("crates/graph/src/"))
                && t.is_punct(".")
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            {
                // `.unwrap()` needs the empty-arg shape; `.expect(` any.
                let is_unwrap = toks[i + 1].is_ident("unwrap");
                if !is_unwrap || toks.get(i + 3).is_some_and(|t| t.is_punct(")")) {
                    unwrap_uses.entry(rel.to_string()).or_default().push(t.line);
                }
            }
        }
    }

    for (f, lines) in &unwrap_uses {
        let max = cfg.unwrap.get(f).copied().unwrap_or(0);
        for &lineno in lines.iter().skip(max) {
            diags.push(Diagnostic::new(
                f,
                lineno,
                "unwrap-denied",
                format!(
                    "unwrap()/expect() in a library path ({} uses > budget {max}) — \
                     return a Result or document the invariant and bump the \
                     LINT.md budget",
                    lines.len()
                ),
            ));
        }
    }

    unwrap_uses
}
