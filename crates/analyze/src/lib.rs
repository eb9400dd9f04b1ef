//! `csm-analyze` — the project's semantic static-analysis engine.
//!
//! A real (still dependency-free) pipeline rather than a lexical
//! scrubber:
//!
//! ```text
//! source text ──lexer──▶ tokens ──HIR-lite parser──▶ items / fields /
//!   fns / loop scopes ──passes──▶ diagnostics
//! ```
//!
//! * [`lexer`] — a hand-rolled Rust lexer that gets the hard cases right:
//!   raw strings with `#` delimiters, nested block comments, byte/char
//!   literals vs. lifetimes, raw identifiers. Comments are not discarded:
//!   `@protocol:` annotations are extracted for the atomics pass.
//! * [`hir`] — an item/scope parser ("HIR-lite"): modules, fns (with loop
//!   nesting inside bodies), impls, structs with fields, enums with
//!   variants, item-level `#[cfg(test)]` regions.
//! * [`passes`] — three semantic pass families over the parsed tree:
//!   atomic-protocol checking (per-field `(file, field, ordering)`
//!   budgets plus declared seqlock protocol verification), scope-aware
//!   hot-path rules (loop bodies and function scopes instead of per-file
//!   line heuristics), and cross-artifact drift (Prometheus metric names
//!   across emitter/tests/README, enum-kind exhaustiveness across
//!   exporters, parser-backed API snapshots).
//!
//! The engine is what the `csm-analyze` binary runs in CI; diagnostics are
//! `path:line: [rule] message` with exit code 1 on any violation, plus a
//! machine-readable `--json` artifact. Budgets and allowlists come from
//! `LINT.md` ([`config`]).

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod engine;
pub mod hir;
pub mod lexer;
pub mod passes;

pub use config::Config;
pub use diag::Diagnostic;
pub use engine::{analyze, api_dump, cli_main, Analysis};
