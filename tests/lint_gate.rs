//! Gate tests for the project static analyzer: the real tree must
//! pass, a seeded violation must fail with a `file:line` diagnostic
//! and a nonzero exit code, and the committed public-API snapshot
//! (`API.md`) must match what `--api-dump` extracts from the tree.
//!
//! Every test drives the `csm-analyze` binary. The analyzer's own
//! fixture corpus lives in `crates/analyze/tests/fixtures.rs`.

use std::path::PathBuf;
use std::process::Command;

fn analyze_bin() -> &'static str {
    env!("CARGO_BIN_EXE_csm-analyze")
}

#[test]
fn linter_passes_on_the_repo() {
    let out = Command::new(analyze_bin())
        .arg(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "csm-analyze reported violations on the tree:\n{stdout}{stderr}"
    );
}

/// The `--json` artifact (what CI uploads) must be well-formed and
/// agree with the exit status.
#[test]
fn analyzer_passes_and_writes_json_artifact() {
    let artifact = scratch_dir("json").with_extension("json");
    let out = Command::new(analyze_bin())
        .arg(env!("CARGO_MANIFEST_DIR"))
        .arg("--json")
        .arg(&artifact)
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "csm-analyze reported violations on the tree:\n{stdout}{stderr}"
    );
    let json = std::fs::read_to_string(&artifact).expect("read --json artifact");
    let compact: String = json.split_whitespace().collect();
    assert!(
        compact.contains("\"tool\":\"csm-analyze\"") && compact.contains("\"violations\":0"),
        "artifact should carry the tool name and a zero violation count:\n{json}"
    );
    std::fs::remove_file(&artifact).ok();
}

/// Build a throwaway `crates/` tree containing one seeded violation and
/// check the linter rejects it, pointing at the offending file and line.
#[test]
fn linter_fails_on_seeded_seqcst_violation() {
    let root = scratch_dir("seqcst");
    let src = root.join("crates/foo/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch crate");
    std::fs::write(
        src.join("lib.rs"),
        "#![forbid(unsafe_code)]\n\
         use std::sync::atomic::{AtomicUsize, Ordering};\n\
         pub fn bump(c: &AtomicUsize) -> usize {\n\
             c.fetch_add(1, Ordering::SeqCst)\n\
         }\n",
    )
    .expect("write seeded violation");

    let out = Command::new(analyze_bin())
        .arg(&root)
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "csm-analyze accepted a seeded SeqCst violation:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/foo/src/lib.rs:4: [seqcst-denied]"),
        "diagnostic should carry file:line and rule, got:\n{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// Comments and string literals must not trip rules, and a missing
/// `#![forbid(unsafe_code)]` in a crate root must.
#[test]
fn linter_scrubs_comments_and_checks_forbid_unsafe() {
    let root = scratch_dir("scrub");
    let src = root.join("crates/bar/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch crate");
    // No forbid(unsafe_code); the SeqCst mentions live only in a comment
    // and a string literal, so the sole expected diagnostic is the
    // missing attribute.
    std::fs::write(
        src.join("lib.rs"),
        "// Ordering::SeqCst in a comment is fine\n\
         pub const DOC: &str = \"Ordering::SeqCst in a string is fine\";\n",
    )
    .expect("write scratch crate");

    let out = Command::new(analyze_bin())
        .arg(&root)
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "missing forbid(unsafe_code) not caught"
    );
    assert!(
        stdout.contains("crates/bar/src/lib.rs:1: [forbid-unsafe-missing]"),
        "expected only the forbid-unsafe diagnostic, got:\n{stdout}"
    );
    assert!(
        !stdout.contains("seqcst"),
        "commented/quoted SeqCst must not trip the linter:\n{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// `std::net` is confined to the telemetry plane: a seeded socket use in
/// any other library file must fail with the `std-net-confined` rule,
/// while the sanctioned file path stays clean.
#[test]
fn linter_fails_on_seeded_std_net_violation() {
    let root = scratch_dir("stdnet");
    let src = root.join("crates/foo/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch crate");
    std::fs::write(
        src.join("lib.rs"),
        "#![forbid(unsafe_code)]\n\
         pub fn leak() -> std::io::Result<std::net::TcpListener> {\n\
             std::net::TcpListener::bind(\"127.0.0.1:0\")\n\
         }\n",
    )
    .expect("write seeded violation");
    // The sanctioned file: same token, must not be flagged.
    let tele = root.join("crates/service/src");
    std::fs::create_dir_all(&tele).expect("mkdir scratch service crate");
    std::fs::write(tele.join("lib.rs"), "#![forbid(unsafe_code)]\n").expect("write lib");
    std::fs::write(
        tele.join("telemetry.rs"),
        "pub fn ok() { let _ = std::net::TcpListener::bind(\"127.0.0.1:0\"); }\n",
    )
    .expect("write telemetry scratch");

    let out = Command::new(analyze_bin())
        .arg(&root)
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "csm-analyze accepted a seeded std::net violation:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/foo/src/lib.rs:2: [std-net-confined]"),
        "diagnostic should carry file:line and rule, got:\n{stdout}"
    );
    // The rule's message text names the sanctioned path; what must not
    // appear is a diagnostic *located* there (path:line prefix).
    assert!(
        !stdout.contains("telemetry.rs:"),
        "the sanctioned telemetry file must not be flagged:\n{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// Canonical sub-pattern key construction is confined to the query
/// decomposition and the shared index: a seeded `EdgePatternKey` literal
/// in any other library file must fail with `subpattern-key-confined`,
/// while the two sanctioned paths stay clean.
#[test]
fn linter_fails_on_seeded_subpattern_key_violation() {
    let root = scratch_dir("subpattern");
    let src = root.join("crates/foo/src");
    std::fs::create_dir_all(&src).expect("mkdir scratch crate");
    std::fs::write(
        src.join("lib.rs"),
        "#![forbid(unsafe_code)]\n\
         pub fn fork_the_scheme(a: u32, b: u32) -> (u32, u32) {\n\
             let k = EdgePatternKey::canonical(a, b, None);\n\
             k\n\
         }\n",
    )
    .expect("write seeded violation");
    // The sanctioned files: same tokens, must not be flagged.
    for (dir, name) in [
        ("crates/graph/src", "query.rs"),
        ("crates/service/src", "shared.rs"),
    ] {
        let d = root.join(dir);
        std::fs::create_dir_all(&d).expect("mkdir sanctioned dir");
        std::fs::write(d.join("lib.rs"), "#![forbid(unsafe_code)]\n").expect("write lib");
        std::fs::write(
            d.join(name),
            "pub fn ok(a: u32, b: u32) { let _ = EdgePatternKey::canonical(a, b, None); }\n",
        )
        .expect("write sanctioned scratch");
    }

    let out = Command::new(analyze_bin())
        .arg(&root)
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "csm-analyze accepted a seeded sub-pattern key violation:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/foo/src/lib.rs:3: [subpattern-key-confined]"),
        "diagnostic should carry file:line and rule, got:\n{stdout}"
    );
    assert!(
        !stdout.contains("query.rs:") && !stdout.contains("shared.rs:"),
        "the sanctioned files must not be flagged:\n{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// The flight-recorder record path is allocation-free by contract and
/// its ring internals are confined to the trace module: a seeded
/// allocation in a scratch `trace/flight.rs` and a seeded `FlightShard`
/// mention outside `crates/core/src/trace/` must both fail with
/// `flight-hot-path`, while cold-module allocation stays clean.
#[test]
fn linter_fails_on_seeded_flight_hot_path_violation() {
    let root = scratch_dir("flight");
    let trace = root.join("crates/core/src/trace");
    std::fs::create_dir_all(trace.join("flight")).expect("mkdir scratch trace module");
    std::fs::write(
        root.join("crates/core/src/lib.rs"),
        "#![forbid(unsafe_code)]\n",
    )
    .expect("write lib");
    // Seeded violation 1: an allocation in the record path.
    std::fs::write(
        trace.join("flight.rs"),
        "pub fn record_all(spans: &[u64]) -> Vec<u64> {\n\
             spans.to_vec()\n\
         }\n",
    )
    .expect("write seeded hot-path violation");
    // Sanctioned: the cold module allocates freely.
    std::fs::write(
        trace.join("flight/cold.rs"),
        "pub fn snapshot() -> Vec<u64> {\n\
             Vec::with_capacity(8)\n\
         }\n",
    )
    .expect("write cold scratch");
    // Seeded violation 2: ring internals named outside the trace module.
    let svc = root.join("crates/service/src");
    std::fs::create_dir_all(&svc).expect("mkdir scratch service crate");
    std::fs::write(svc.join("lib.rs"), "#![forbid(unsafe_code)]\n").expect("write lib");
    std::fs::write(
        svc.join("rogue.rs"),
        "pub fn poke(shard: &FlightShard) -> u64 {\n\
             shard.seq()\n\
         }\n",
    )
    .expect("write seeded confinement violation");

    let out = Command::new(analyze_bin())
        .arg(&root)
        .output()
        .expect("run csm-analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "csm-analyze accepted seeded flight-hot-path violations:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/trace/flight.rs:2: [flight-hot-path]"),
        "allocation in the record path should be flagged at file:line, got:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/service/src/rogue.rs:1: [flight-hot-path]"),
        "ring internals outside trace/ should be flagged, got:\n{stdout}"
    );
    assert!(
        !stdout.contains("cold.rs:"),
        "the cold module must not be flagged:\n{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}

/// The public surface under `crates/*/src` must match the committed
/// `API.md` snapshot exactly: any `pub` item added, removed or re-signed
/// without regenerating the snapshot is surface drift and fails here.
#[test]
fn api_snapshot_is_current() {
    let out = Command::new(analyze_bin())
        .arg("--api-dump")
        .arg(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run csm-analyze --api-dump");
    assert!(
        out.status.success(),
        "csm-analyze --api-dump failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let current = String::from_utf8(out.stdout).expect("utf-8 dump");
    let committed =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("API.md"))
            .expect("read committed API.md");
    if current != committed {
        let diff: Vec<String> = {
            let cur: Vec<&str> = current.lines().collect();
            let com: Vec<&str> = committed.lines().collect();
            let mut d = Vec::new();
            for line in &cur {
                if !com.contains(line) {
                    d.push(format!("+ {line}"));
                }
            }
            for line in &com {
                if !cur.contains(line) {
                    d.push(format!("- {line}"));
                }
            }
            d
        };
        panic!(
            "public API drifted from the committed API.md snapshot.\n\
             If the change is deliberate, regenerate with:\n\
             \n    cargo run --bin csm-analyze -- --api-dump > API.md\n\n\
             line-level drift:\n{}",
            diff.join("\n")
        );
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csm-analyze-gate-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
