//! `dynmo-lint`: token-level invariant checks for the workspace.
//!
//! Four rules, each encoding a correctness invariant the test suite cannot
//! check by running code:
//!
//! 1. **`unsafe-safety`** — every `unsafe` block and `unsafe impl` carries a
//!    `// SAFETY:` comment on the same line or just above it (declared
//!    `unsafe fn`s are exempt: their obligations live in `# Safety` docs).
//! 2. **`ordering-relaxed`** — every `Ordering::Relaxed` in shim source
//!    carries an `// ORDERING:` comment justifying why the weakest ordering
//!    suffices.  Relaxed is the ordering most likely to be cargo-culted; the
//!    loom suite can only check protocols someone thought to model.
//! 3. **`wall-clock`** — no `std::time::Instant`/`SystemTime`, and no
//!    `telemetry::Stopwatch` reading (`Stopwatch::start`/`Stopwatch::time`),
//!    outside the telemetry stopwatch, the bench crate, and the criterion
//!    shim.  The repo's determinism contract (a simulated result is a pure
//!    function of configuration and seed; byte-identical sweep artifacts
//!    across runs and thread counts) dies the moment a host-time reading
//!    reaches a simulated clock or artifact data; keeping acquisition
//!    choke-pointed makes the contract auditable.
//!    `// LINT: allow(wall-clock)` on or just above the line waives a
//!    legitimate site (e.g. a test that times a parser and asserts only the
//!    ratio of two timings).
//! 4. **`std-mutex`** — no direct `std::sync::Mutex` outside `shims/`:
//!    workspace crates go through the shim facades, which is what makes the
//!    loom model-check instrumentation reach them.
//!
//! The scanner is a comment/string-aware lexer, not a parser: it splits each
//! line into code and comment parts (handling nested block comments, raw
//! strings, and char-vs-lifetime ambiguity) and runs the rules on the code
//! part only, so occurrences inside strings or docs never trip a rule.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path as given to the linter (workspace-relative in `--workspace`).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`unsafe-safety`, `ordering-relaxed`, `wall-clock`,
    /// `std-mutex`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source line split into its code and comment parts.
#[derive(Debug, Default, Clone)]
struct Line {
    code: String,
    comment: String,
}

/// Split `source` into per-line code and comment parts.  String and char
/// literal *contents* are blanked in the code part (delimiters kept) so rule
/// patterns never match inside literals; comment text (line, block, doc) is
/// collected per line in the comment part.
fn split_lines(source: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut state = State::Code;
    let mut lines = Vec::new();
    let mut current = Line::default();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut current));
            i += 1;
            continue;
        }
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    current.code.push('"');
                    state = State::Str;
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // r"..", r#".."#, br".." — count the hashes so the
                    // matching closer is recognized.
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    current.code.push('"');
                    state = State::RawStr(hashes);
                    i = j + 1; // past the opening quote
                }
                '\'' => {
                    // Char literal vs lifetime: 'x' or '\..' is a literal;
                    // 'ident with no closing quote is a lifetime.
                    let is_literal = match next {
                        Some('\\') => true,
                        Some(n) if n != '\'' => chars.get(i + 2) == Some(&'\''),
                        _ => false,
                    };
                    current.code.push('\'');
                    if is_literal {
                        state = State::Char;
                    }
                    i += 1;
                }
                _ => {
                    current.code.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                current.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    current.comment.push(c);
                    i += 1;
                }
            }
            State::Str => match c {
                '\\' => i += 2,
                '"' => {
                    current.code.push('"');
                    state = State::Code;
                    i += 1;
                }
                _ => i += 1,
            },
            State::RawStr(hashes) => {
                if c == '"' && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    current.code.push('"');
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
            State::Char => match c {
                '\\' => i += 2,
                '\'' => {
                    current.code.push('\'');
                    state = State::Code;
                    i += 1;
                }
                _ => i += 1,
            },
        }
    }
    if !current.code.is_empty() || !current.comment.is_empty() {
        lines.push(current);
    }
    lines
}

/// True at an `r"`, `r#"`, `br"`-style raw-string opener that is not the
/// tail of an identifier (`for`, `attr`, ...).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        if chars.get(j + 1) != Some(&'r') {
            return false;
        }
        j += 1;
    }
    let mut k = j + 1;
    while chars.get(k) == Some(&'#') {
        k += 1;
    }
    chars.get(k) == Some(&'"')
}

/// True if the `unsafe` on line `idx` is covered by a `SAFETY:` comment:
/// either on the same line, or in the contiguous run of comment-only (or
/// further `unsafe`) lines directly above it.  An intervening ordinary code
/// line breaks the run — a SAFETY comment must sit against the block it
/// justifies.  Stacked `unsafe impl Send`/`Sync` pairs share one comment.
fn safety_comment_covers(lines: &[Line], idx: usize) -> bool {
    if lines[idx].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    for _ in 0..25 {
        if j == 0 {
            return false;
        }
        j -= 1;
        let line = &lines[j];
        if !line.code.trim().is_empty() && !has_word(&line.code, "unsafe") {
            return false;
        }
        if line.comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// True if any of the `lookback` lines up to and including `end` has
/// `needle` in its comment part.
fn comment_window_contains(lines: &[Line], end: usize, lookback: usize, needle: &str) -> bool {
    let start = end.saturating_sub(lookback);
    lines[start..=end]
        .iter()
        .any(|line| line.comment.contains(needle))
}

/// Where a file sits in the workspace, deciding which rules apply.
struct FileClass {
    /// Under `shims/*/src/` — the ordering-annotation rule applies.
    shim_src: bool,
    /// Under `shims/` at all — exempt from the std-mutex rule.
    shim: bool,
    /// Allowlisted for wall-clock use (telemetry stopwatch, bench crate,
    /// criterion shim).
    wall_clock_ok: bool,
}

fn classify(rel_path: &Path) -> FileClass {
    let p = rel_path.to_string_lossy().replace('\\', "/");
    let shim = p.starts_with("shims/");
    FileClass {
        shim_src: shim && p.contains("/src/"),
        shim,
        wall_clock_ok: p == "crates/telemetry/src/stopwatch.rs"
            || p.starts_with("crates/bench/")
            || p.starts_with("shims/criterion/"),
    }
}

/// Lint one file's source.  `rel_path` is workspace-relative and decides
/// which rules apply (see `classify`).
pub fn lint_source(rel_path: &Path, source: &str) -> Vec<Violation> {
    let lines = split_lines(source);
    let class = classify(rel_path);
    let mut violations = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: &str| {
        violations.push(Violation {
            file: rel_path.to_path_buf(),
            line: line + 1,
            rule,
            message: message.to_string(),
        });
    };

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();

        // Rule 1: unsafe blocks / impls need a SAFETY comment.
        for pos in match_word(code, "unsafe") {
            let rest = code[pos + "unsafe".len()..].trim_start();
            // `unsafe fn` declarations document their obligations in
            // `# Safety` doc sections instead.
            if rest.starts_with("fn ") || rest.starts_with("fn(") {
                continue;
            }
            if !safety_comment_covers(&lines, idx) {
                push(
                    idx,
                    "unsafe-safety",
                    "`unsafe` without a `// SAFETY:` comment on or above it",
                );
            }
        }

        // Rule 2: Relaxed orderings in shim source need justification.
        if class.shim_src
            && contains_path(code, &["Ordering", "Relaxed"])
            && !comment_window_contains(&lines, idx, 6, "ORDERING:")
        {
            push(
                idx,
                "ordering-relaxed",
                "`Ordering::Relaxed` without an `// ORDERING:` justification",
            );
        }

        // Rule 3: wall-clock acquisition outside the allowlist.  Only
        // qualified forms match (`std::time::Instant`, `Instant::now`, the
        // use-import, and the two ways to read a `Stopwatch`) — a bare
        // `Instant` may be an unrelated name, e.g. a telemetry event variant.
        if !class.wall_clock_ok {
            let hit = contains_path(code, &["std", "time", "Instant"])
                || contains_path(code, &["std", "time", "SystemTime"])
                || contains_path(code, &["Instant", "now"])
                || contains_path(code, &["SystemTime", "now"])
                || contains_path(code, &["Stopwatch", "start"])
                || contains_path(code, &["Stopwatch", "time"])
                || (has_word(code, "use")
                    && contains_path(code, &["std", "time"])
                    && (has_word(code, "Instant") || has_word(code, "SystemTime")));
            if hit && !comment_window_contains(&lines, idx, 2, "LINT: allow(wall-clock)") {
                push(
                    idx,
                    "wall-clock",
                    "wall-clock acquisition outside telemetry/bench (determinism \
                     hazard); waive with `// LINT: allow(wall-clock)`",
                );
            }
        }

        // Rule 4: std::sync::Mutex outside shims.
        if !class.shim {
            let hit = contains_path(code, &["std", "sync", "Mutex"])
                || (has_word(code, "use")
                    && contains_path(code, &["std", "sync"])
                    && has_word(code, "Mutex"));
            if hit {
                push(
                    idx,
                    "std-mutex",
                    "direct `std::sync::Mutex` outside shims/ — use the shim \
                     facades so loom instrumentation reaches this lock",
                );
            }
        }
    }
    violations
}

/// Byte offsets of `word` occurrences in `code` at identifier boundaries.
fn match_word(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(at) = code[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let pre_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if pre_ok && post_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

fn has_word(code: &str, word: &str) -> bool {
    !match_word(code, word).is_empty()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True if `code` contains the segments joined by `::` (whitespace around
/// the separators tolerated), each at identifier boundaries.
fn contains_path(code: &str, segments: &[&str]) -> bool {
    'outer: for start in match_word(code, segments[0]) {
        let mut cursor = start + segments[0].len();
        for segment in &segments[1..] {
            let rest = code[cursor..].trim_start();
            let Some(rest) = rest.strip_prefix("::") else {
                continue 'outer;
            };
            let rest = rest.trim_start();
            if !rest.starts_with(segment) {
                continue 'outer;
            }
            let after = &rest[segment.len()..];
            if after.bytes().next().is_some_and(is_ident_byte) {
                continue 'outer;
            }
            cursor = code.len() - after.len();
        }
        return true;
    }
    false
}

/// Recursively lint every `.rs` file under the workspace `root`'s source
/// trees (`crates/`, `shims/`, `src/`, `examples/`), skipping `target/` and
/// dotted directories.  Paths in the returned violations are
/// workspace-relative and sorted.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for top in ["crates", "shims", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            lint_dir(root, &dir, &mut violations)?;
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

fn lint_dir(root: &Path, dir: &Path, violations: &mut Vec<Violation>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            lint_dir(root, &path, violations)?;
        } else if name.ends_with(".rs") {
            let source = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path);
            violations.extend(lint_source(rel, &source));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, source: &str) -> Vec<Violation> {
        lint_source(Path::new(path), source)
    }

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unannotated_unsafe_block_is_flagged() {
        let bad = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules(&lint_at("crates/x/src/lib.rs", bad)),
            ["unsafe-safety"]
        );
        let good =
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract.\n    unsafe { *p }\n}\n";
        assert!(lint_at("crates/x/src/lib.rs", good).is_empty());
    }

    #[test]
    fn unsafe_impl_needs_safety_but_unsafe_fn_does_not() {
        let impl_bad = "unsafe impl Send for X {}\n";
        assert_eq!(
            rules(&lint_at("crates/x/src/lib.rs", impl_bad)),
            ["unsafe-safety"]
        );
        let fn_ok = "/// # Safety\n/// Caller contract.\npub unsafe fn f() {}\n";
        assert!(lint_at("crates/x/src/lib.rs", fn_ok).is_empty());
    }

    #[test]
    fn unsafe_inside_strings_and_comments_is_ignored() {
        let s = "fn f() { let _ = \"unsafe { }\"; }\n// unsafe in a comment\n/* unsafe */\n";
        assert!(lint_at("crates/x/src/lib.rs", s).is_empty());
    }

    #[test]
    fn relaxed_ordering_needs_justification_in_shim_src_only() {
        let bad = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n";
        assert_eq!(
            rules(&lint_at("shims/loom/src/exec.rs", bad)),
            ["ordering-relaxed"]
        );
        let good = "// ORDERING: Relaxed — owner-local counter.\n\
                    fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n";
        assert!(lint_at("shims/loom/src/exec.rs", good).is_empty());
        // Outside shim src (e.g. shim model tests seeding mutations) it is
        // free.
        assert!(lint_at("shims/loom/tests/model_semantics.rs", bad).is_empty());
        assert!(lint_at("crates/core/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn wall_clock_is_flagged_outside_allowlist() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules(&lint_at("crates/core/src/lib.rs", bad)),
            ["wall-clock"]
        );
        let import = "use std::time::{Duration, Instant};\n";
        assert_eq!(
            rules(&lint_at("crates/core/src/lib.rs", import)),
            ["wall-clock"]
        );
        // Allowlisted locations.
        assert!(lint_at("crates/telemetry/src/stopwatch.rs", bad).is_empty());
        assert!(lint_at("crates/bench/src/bin/bench_pool.rs", bad).is_empty());
        assert!(lint_at("shims/criterion/src/lib.rs", bad).is_empty());
        // Inline waiver.
        let waived = "// LINT: allow(wall-clock) — lock timeout only.\n\
                      fn f() { let t = std::time::Instant::now(); }\n";
        assert!(lint_at("crates/core/src/lib.rs", waived).is_empty());
        // Duration alone (no Instant/SystemTime) is fine.
        assert!(lint_at("crates/core/src/lib.rs", "use std::time::Duration;\n").is_empty());
        // A telemetry enum variant named Instant is not wall-clock.
        assert!(lint_at(
            "crates/core/src/lib.rs",
            "fn f(e: &Event) -> bool { matches!(e, Event::Instant { .. }) }\n"
        )
        .is_empty());
    }

    #[test]
    fn stopwatch_readings_are_wall_clock() {
        let start = "fn f() { let sw = Stopwatch::start(); }\n";
        assert_eq!(
            rules(&lint_at("crates/core/src/controller.rs", start)),
            ["wall-clock"]
        );
        let timed = "fn f() { let (x, s) = dynmo_telemetry::Stopwatch::time(|| 1); }\n";
        assert_eq!(
            rules(&lint_at("crates/resilience/src/store.rs", timed)),
            ["wall-clock"]
        );
        // The same line is fine where wall-clock is allowed.
        assert!(lint_at("crates/bench/src/bin/trace_export.rs", start).is_empty());
        assert!(lint_at("crates/telemetry/src/stopwatch.rs", start).is_empty());
        // Inline waiver.
        let waived = "// LINT: allow(wall-clock) — host-time diagnostic only.\n\
                      fn f() { let sw = Stopwatch::start(); }\n";
        assert!(lint_at("crates/core/src/controller.rs", waived).is_empty());
        // Naming the type (a re-export, a doc link in code) is not a reading.
        assert!(lint_at(
            "crates/telemetry/src/lib.rs",
            "pub use stopwatch::Stopwatch;\n"
        )
        .is_empty());
    }

    #[test]
    fn std_mutex_is_flagged_outside_shims() {
        let direct = "static LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n";
        assert_eq!(
            rules(&lint_at("crates/core/src/lib.rs", direct)),
            ["std-mutex"]
        );
        let import = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(
            rules(&lint_at("crates/core/src/lib.rs", import)),
            ["std-mutex"]
        );
        assert!(lint_at("shims/parking_lot/src/lib.rs", direct).is_empty());
        // Arc-only imports are fine.
        assert!(lint_at("crates/core/src/lib.rs", "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn lexer_handles_raw_strings_and_lifetimes() {
        let s = concat!(
            "fn f<'a>(x: &'a str) -> &'a str { x }\n",
            "const S: &str = r#\"unsafe std::sync::Mutex Instant::now()\"#;\n",
            "const C: char = '\"';\n",
            "fn g() { let _ = std::sync::Mutex::new(0); }\n",
        );
        // Only the real Mutex on the last line fires.
        let violations = lint_at("crates/x/src/lib.rs", s);
        assert_eq!(rules(&violations), ["std-mutex"]);
        assert_eq!(violations[0].line, 4);
    }

    #[test]
    fn nested_block_comments_do_not_swallow_code() {
        let s = "/* outer /* inner */ still comment */\nfn f() { unsafe {} }\n";
        assert_eq!(rules(&lint_at("crates/x/src/lib.rs", s)), ["unsafe-safety"]);
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        // An intervening code line severs the comment from the block.
        let severed = "// SAFETY: detached.\nfn g() {}\nfn f() { unsafe {} }\n";
        assert_eq!(
            rules(&lint_at("crates/x/src/lib.rs", severed)),
            ["unsafe-safety"]
        );
        // One comment covers a stacked Send/Sync pair.
        let stacked = "// SAFETY: shared by both impls.\n\
                       unsafe impl<T> Send for X<T> {}\n\
                       unsafe impl<T> Sync for X<T> {}\n";
        assert!(lint_at("crates/x/src/lib.rs", stacked).is_empty());
    }
}
