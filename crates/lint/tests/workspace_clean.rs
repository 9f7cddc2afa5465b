//! The real workspace must be lint-clean — this is the same check CI runs
//! via `cargo run -p dynmo-lint -- --workspace`, kept as a test so `cargo
//! test` alone catches a freshly introduced violation.

use std::path::Path;

#[test]
fn the_workspace_has_no_lint_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let violations = dynmo_lint::lint_workspace(&root).expect("workspace walk failed");
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

/// Teeth check: a seeded violation in each rule's jurisdiction is caught.
#[test]
fn seeded_violations_are_caught() {
    let cases = [
        (
            "crates/x/src/lib.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            "unsafe-safety",
        ),
        (
            "shims/loom/src/exec.rs",
            "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n",
            "ordering-relaxed",
        ),
        (
            "crates/runtime/src/fabric.rs",
            "fn f() { let _ = std::time::Instant::now(); }\n",
            "wall-clock",
        ),
        (
            "crates/core/src/lib.rs",
            "use std::sync::Mutex;\n",
            "std-mutex",
        ),
    ];
    for (path, source, rule) in cases {
        let violations = dynmo_lint::lint_source(Path::new(path), source);
        assert_eq!(
            violations.len(),
            1,
            "{rule}: expected exactly one violation, got {violations:?}"
        );
        assert_eq!(violations[0].rule, rule);
    }
}
