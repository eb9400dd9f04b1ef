//! Scope-aware hot-path rules.
//!
//! * `kernel-hot-loop` — allocation/timing patterns are denied inside
//!   actual **loop bodies** of the search kernel. Function-scope setup
//!   (building per-run scratch before the descent) is fine; the old
//!   per-file count with an exception table is gone.
//! * `flight-hot-path` — the flight-recorder record path stays
//!   allocation-free over its whole surface (every fn in `flight.rs` is
//!   on the per-update critical path by contract), and the ring
//!   internals (`FlightShard`/`FlightSlot`) may not be named outside the
//!   trace module.
//! * `profile-hot-path` — the profiler's frame/absorb half
//!   (`trace/profile.rs`) is allocation-free by the same contract
//!   (`ProfileFrame::add` runs per extension attempt; exporters live in
//!   `trace/profile/cold.rs`, which is exempt by path).
//!
//! All of these run on tokens, so patterns inside strings, comments, or
//! doc examples can never fire — the false-positive class the lexical
//! scrubber had to approximate away is structurally gone.

use crate::diag::Diagnostic;
use crate::engine::SourceFile;
use crate::lexer::TokKind;
use crate::passes::{match_at, ALLOC_PATTERNS};

const KERNEL_FILE: &str = "crates/core/src/kernel.rs";
const FLIGHT_HOT_FILE: &str = "crates/core/src/trace/flight.rs";
const FLIGHT_RING_DIR: &str = "crates/core/src/trace/";
const FLIGHT_RING_TYPES: [&str; 2] = ["FlightShard", "FlightSlot"];
const PROFILE_HOT_FILE: &str = "crates/core/src/trace/profile.rs";

pub fn run(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for file in files {
        let rel = file.rel.as_str();
        let toks = &file.hir.toks;

        if rel == KERNEL_FILE {
            for i in 0..toks.len() {
                if file.is_test_tok(i) || file.hir.loop_depth[i] == 0 {
                    continue;
                }
                for (name, pat) in ALLOC_PATTERNS {
                    if match_at(toks, i, pat) {
                        diags.push(Diagnostic::new(
                            rel,
                            toks[i].line,
                            "kernel-hot-loop",
                            format!(
                                "`{name}` inside a loop body of the search kernel — \
                                 hoist the allocation/syscall out of the hot loop; \
                                 per-run setup belongs at fn scope ({})",
                                file.snippet(toks[i].line)
                            ),
                        ));
                    }
                }
            }
        }

        if rel == PROFILE_HOT_FILE {
            for i in 0..toks.len() {
                if file.is_test_tok(i) {
                    continue;
                }
                for (name, pat) in ALLOC_PATTERNS {
                    if match_at(toks, i, pat) {
                        diags.push(Diagnostic::new(
                            rel,
                            toks[i].line,
                            "profile-hot-path",
                            format!(
                                "`{name}` in the profiler's frame/absorb path — \
                                 attribution counting is allocation-free by \
                                 contract; exporters belong in \
                                 trace/profile/cold.rs ({})",
                                file.snippet(toks[i].line)
                            ),
                        ));
                    }
                }
            }
        }

        if rel == FLIGHT_HOT_FILE {
            for i in 0..toks.len() {
                if file.is_test_tok(i) {
                    continue;
                }
                for (name, pat) in ALLOC_PATTERNS {
                    if match_at(toks, i, pat) {
                        diags.push(Diagnostic::new(
                            rel,
                            toks[i].line,
                            "flight-hot-path",
                            format!(
                                "`{name}` in the flight-recorder record path — span \
                                 recording is allocation-free by contract; move cold \
                                 work into trace/flight/cold.rs ({})",
                                file.snippet(toks[i].line)
                            ),
                        ));
                    }
                }
            }
        } else if !rel.starts_with(FLIGHT_RING_DIR) {
            for (i, t) in toks.iter().enumerate() {
                if file.is_test_tok(i) || t.kind != TokKind::Ident {
                    continue;
                }
                if FLIGHT_RING_TYPES.contains(&t.text.as_str()) {
                    diags.push(Diagnostic::new(
                        rel,
                        t.line,
                        "flight-hot-path",
                        format!(
                            "{} outside crates/core/src/trace/ — the flight \
                             ring's seqlock internals have one author; record \
                             through FlightRecorder instead ({})",
                            t.text,
                            file.snippet(t.line)
                        ),
                    ));
                }
            }
        }
    }
}
