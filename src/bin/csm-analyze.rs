//! `csm-analyze` — the project's semantic static-analysis gate
//! (CI-blocking).
//!
//! All of the logic lives in the `csm-analyze` library crate
//! (`crates/analyze`): a hand-rolled lexer feeds an HIR-lite item/scope
//! parser, over which run the atomic-protocol checker (per-field
//! `(file, field, ordering)` budgets plus declared seqlock protocol
//! verification), the scope-aware hot-path rules, the confinement
//! rules, and the cross-artifact drift passes (telemetry metric names,
//! enum/exporter exhaustiveness).
//!
//! ```text
//! csm-analyze [ROOT] [--dump | --api-dump] [--json PATH]
//! ```
//!
//! Diagnostics are `path:line: [rule] message`, exit 1 on any
//! violation, exit 2 on errors. `--json PATH` additionally writes the
//! machine-readable artifact CI uploads. `--dump` prints current counts
//! in `LINT.md` row form; `--api-dump` prints the public-API snapshot
//! in `API.md` format.

use std::process::ExitCode;

fn main() -> ExitCode {
    csm_analyze::cli_main()
}
