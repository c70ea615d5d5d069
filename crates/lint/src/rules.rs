//! The workspace invariants, as textual rules over lexed sources.
//!
//! Each rule guards a discipline the parallel engines' bit-identity
//! promise rests on; see the README's "Correctness tooling" section for
//! the full rationale. Rule IDs are stable — they appear in suppression
//! comments, so renaming one is a breaking change to every suppression
//! that names it.

use crate::lexer::{find_word, LexedFile};
use crate::walk::SourceFile;

/// Stable identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// L1: every `unsafe` must carry an adjacent `// SAFETY:` rationale.
    SafetyComment,
    /// L2: thread primitives confined to `crates/pool`.
    ThreadConfinement,
    /// L3: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in library-crate non-test code.
    NoPanic,
    /// L4: handle bit packing confined to
    /// `octree::{arena,node,shard,snapshot}`.
    HandleBits,
    /// L5: suppressions must name a known rule and give a reason.
    BadSuppression,
    /// L6: atomics and epoch/pin primitives confined to `crates/pool`
    /// and `octree::snapshot`.
    AtomicConfinement,
    /// L7: direct `std::fs` mutation confined to `map::durable` — the
    /// crash-safety layer (temp-file atomicity, fsync, fault injection)
    /// only holds if every library write goes through it.
    FsConfinement,
}

impl Rule {
    /// Every rule, in `L1`..`L7` order.
    pub const ALL: [Rule; 7] = [
        Rule::SafetyComment,
        Rule::ThreadConfinement,
        Rule::NoPanic,
        Rule::HandleBits,
        Rule::BadSuppression,
        Rule::AtomicConfinement,
        Rule::FsConfinement,
    ];

    /// The short code used in diagnostics (`L1` … `L7`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::SafetyComment => "L1",
            Rule::ThreadConfinement => "L2",
            Rule::NoPanic => "L3",
            Rule::HandleBits => "L4",
            Rule::BadSuppression => "L5",
            Rule::AtomicConfinement => "L6",
            Rule::FsConfinement => "L7",
        }
    }

    /// The stable slug used in `allow(...)` comments.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::ThreadConfinement => "thread-confinement",
            Rule::NoPanic => "no-panic",
            Rule::HandleBits => "handle-bits",
            Rule::BadSuppression => "bad-suppression",
            Rule::AtomicConfinement => "atomic-confinement",
            Rule::FsConfinement => "fs-confinement",
        }
    }

    /// Parse a rule name as written in an `allow(...)` comment; both the
    /// slug and the short code are accepted.
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.slug() == name || r.code() == name)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.code(), self.slug())
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule this line violates.
    pub rule: Rule,
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The trimmed raw source line, for the human report.
    pub excerpt: String,
    /// Human-readable explanation of what tripped and how to fix it.
    pub message: String,
}

/// A parsed `// omu-lint: allow(no-panic) — reason` suppression.
#[derive(Debug)]
struct Suppression {
    rule: Option<Rule>,
    reason: String,
    /// Line the comment sits on.
    comment_line: usize,
    /// Line whose violations it suppresses (the same line for trailing
    /// comments, the next code line for standalone comment lines).
    target_line: Option<usize>,
}

/// The marker every suppression comment starts with.
const ALLOW_MARKER: &str = "omu-lint:";

/// Check one file; `raw` is the original text (for excerpts), `lexed` the
/// lexer output. Returns un-suppressed violations.
pub fn check_file(file: &SourceFile, raw: &str, lexed: &LexedFile) -> Vec<Violation> {
    let raw_lines: Vec<&str> = raw.split('\n').collect();
    let mut out = Vec::new();

    let suppressions = collect_suppressions(lexed);
    // L5 first: malformed suppressions are violations themselves and can
    // never be suppressed (an allow cannot vouch for another allow).
    for s in &suppressions {
        match (&s.rule, s.reason.is_empty()) {
            (None, _) => out.push(make(
                Rule::BadSuppression,
                file,
                s.comment_line,
                &raw_lines,
                "suppression names an unknown rule (see `omu-lint --rules`)".into(),
            )),
            (Some(_), true) => out.push(make(
                Rule::BadSuppression,
                file,
                s.comment_line,
                &raw_lines,
                "suppression without a reason — write `// omu-lint: allow(rule) — <why this is sound>`"
                    .into(),
            )),
            _ => {}
        }
    }

    let mut raw_violations = Vec::new();
    check_safety_comments(file, lexed, &raw_lines, &mut raw_violations);
    check_thread_confinement(file, lexed, &raw_lines, &mut raw_violations);
    check_no_panic(file, lexed, &raw_lines, &mut raw_violations);
    check_handle_bits(file, lexed, &raw_lines, &mut raw_violations);
    check_atomic_confinement(file, lexed, &raw_lines, &mut raw_violations);
    check_fs_confinement(file, lexed, &raw_lines, &mut raw_violations);

    // Apply well-formed suppressions.
    for v in raw_violations {
        let suppressed = suppressions.iter().any(|s| {
            s.rule == Some(v.rule) && !s.reason.is_empty() && s.target_line == Some(v.line)
        });
        if !suppressed {
            out.push(v);
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    out
}

fn make(
    rule: Rule,
    file: &SourceFile,
    line: usize,
    raw_lines: &[&str],
    message: String,
) -> Violation {
    let excerpt = raw_lines
        .get(line - 1)
        .map(|l| {
            let t = l.trim();
            // Keep fingerprints reasonable for pathological lines.
            if t.len() > 240 {
                &t[..240]
            } else {
                t
            }
        })
        .unwrap_or("")
        .to_owned();
    Violation {
        rule,
        path: file.rel_path.clone(),
        line,
        excerpt,
        message,
    }
}

/// Extract every suppression comment. Unknown directives after the
/// marker parse as rule-less suppressions and surface as L5, so typos
/// fail loudly instead of silently not suppressing.
fn collect_suppressions(lexed: &LexedFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, line) in lexed.lines.iter().enumerate() {
        let Some(pos) = line.comment.find(ALLOW_MARKER) else {
            continue;
        };
        let directive = line.comment[pos + ALLOW_MARKER.len()..].trim();
        let (rule, reason) = parse_allow(directive);
        let comment_line = idx + 1;
        let target_line = if line.blank_code {
            // Standalone comment: applies to the next line with code.
            lexed.lines[idx + 1..]
                .iter()
                .position(|l| !l.blank_code)
                .map(|off| comment_line + 1 + off)
        } else {
            Some(comment_line)
        };
        out.push(Suppression {
            rule,
            reason,
            comment_line,
            target_line,
        });
    }
    out
}

/// Parse `allow(rule) — reason` (also accepts `--` as the separator).
/// Returns `(None, _)` when the rule name is unknown or the shape is
/// wrong; the reason is empty when missing.
fn parse_allow(directive: &str) -> (Option<Rule>, String) {
    let Some(rest) = directive.strip_prefix("allow") else {
        return (None, String::new());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return (None, String::new());
    };
    let Some(close) = rest.find(')') else {
        return (None, String::new());
    };
    let rule = Rule::parse(rest[..close].trim());
    let mut reason = rest[close + 1..].trim();
    for sep in ["—", "--", "–"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim();
            break;
        }
    }
    (rule, reason.to_owned())
}

/// L1: every `unsafe` token needs a `// SAFETY:` comment on the same
/// line or heading the contiguous comment/attribute block directly above.
fn check_safety_comments(
    file: &SourceFile,
    lexed: &LexedFile,
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !file.class.rules().contains(&Rule::SafetyComment) {
        return;
    }
    for (idx, line) in lexed.lines.iter().enumerate() {
        if find_word(&line.code, "unsafe", 0).is_none() {
            continue;
        }
        if line.comment.contains("SAFETY:") {
            continue;
        }
        // Walk up through comment-only and attribute-only lines.
        let mut ok = false;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let above = &lexed.lines[j];
            let code_trim = above.code.trim();
            let is_attr_only = code_trim.starts_with("#[") && above.comment.is_empty();
            if above.blank_code && !above.comment.is_empty() {
                if above.comment.trim_start().starts_with("SAFETY:") {
                    ok = true;
                    break;
                }
                // keep scanning up the comment block
            } else if is_attr_only {
                // attributes may sit between the comment and the item
            } else {
                break;
            }
        }
        if !ok {
            out.push(make(
                Rule::SafetyComment,
                file,
                idx + 1,
                raw_lines,
                "`unsafe` without an immediately preceding `// SAFETY:` rationale".into(),
            ));
        }
    }
}

/// L2 tokens. `thread::scope`/`thread::spawn` catch both `std::thread::`
/// and `use std::thread; thread::spawn` forms; `JoinHandle` catches
/// stashed handles regardless of how the spawn itself was spelled.
const THREAD_TOKENS: [&str; 3] = ["thread::spawn", "thread::scope", "JoinHandle"];

fn check_thread_confinement(
    file: &SourceFile,
    lexed: &LexedFile,
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !file.class.rules().contains(&Rule::ThreadConfinement) {
        return;
    }
    if file.crate_name.as_deref() == Some("pool") {
        return; // the one crate allowed to own thread lifecycle
    }
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in THREAD_TOKENS {
            if line.code.contains(token) {
                out.push(make(
                    Rule::ThreadConfinement,
                    file,
                    idx + 1,
                    raw_lines,
                    format!(
                        "`{token}` outside `crates/pool` — dispatch through `omu::pool::WorkerPool` instead"
                    ),
                ));
                break;
            }
        }
    }
}

/// L3 tokens: `(needle, must_be_call)`.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

fn check_no_panic(
    file: &SourceFile,
    lexed: &LexedFile,
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !file.class.rules().contains(&Rule::NoPanic) {
        return;
    }
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in PANIC_TOKENS {
            if let Some(at) = line.code.find(token) {
                // `.expect(` must not match `.expect_err(`; the find is
                // already exact for the other tokens since they end in a
                // delimiter. Guard the macro names against being part of
                // a longer identifier (`my_panic!` is somebody's macro).
                if token.ends_with('!') {
                    let bytes = line.code.as_bytes();
                    let before = at
                        .checked_sub(1)
                        .map(|i| bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                        .unwrap_or(false);
                    if before {
                        continue;
                    }
                }
                out.push(make(
                    Rule::NoPanic,
                    file,
                    idx + 1,
                    raw_lines,
                    format!(
                        "`{}` in library non-test code — return a typed error (`MapError`, `KeyError`, …) or justify with an allow",
                        token.trim_start_matches('.').trim_end_matches('(')
                    ),
                ));
                break;
            }
        }
    }
}

/// L4: identifiers and shift patterns that constitute handle packing.
/// `handle()`/`shard_of()`/`row()` *calls* are the sanctioned accessors
/// (defined only inside the allowed files, mostly `pub(crate)`); what
/// this rule catches is raw bit math re-deriving the packed layout.
const HANDLE_IDENTS: [&str; 7] = [
    "SHARD_BITS",
    "OCT_BITS",
    "ROW_BITS",
    "MASK_BITS",
    "MAX_ROW",
    "ROOT_ROW",
    "SPINE_SHARD",
];
const HANDLE_SHIFTS: [&str; 2] = ["<< 8", ">> 8"];

/// Files allowed to do handle bit arithmetic (within the octree crate).
/// `snapshot.rs` earns its slot the same way `arena.rs` does: its frozen
/// tables walk raw rows, so it addresses nodes through the packed layout.
const HANDLE_FILES: [&str; 4] = ["arena.rs", "node.rs", "shard.rs", "snapshot.rs"];

fn check_handle_bits(
    file: &SourceFile,
    lexed: &LexedFile,
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !file.class.rules().contains(&Rule::HandleBits) {
        return;
    }
    if file.crate_name.as_deref() != Some("octree") {
        return;
    }
    if HANDLE_FILES.iter().any(|f| file.rel_path.ends_with(f)) {
        return;
    }
    for (idx, line) in lexed.lines.iter().enumerate() {
        let ident_hit = HANDLE_IDENTS
            .iter()
            .find(|id| find_word(&line.code, id, 0).is_some());
        let shift_hit = HANDLE_SHIFTS.iter().find(|s| line.code.contains(*s));
        if let Some(tok) = ident_hit.or(shift_hit) {
            out.push(make(
                Rule::HandleBits,
                file,
                idx + 1,
                raw_lines,
                format!(
                    "handle bit arithmetic (`{tok}`) outside `octree::{{arena,node,shard,snapshot}}` — use the handle accessors instead"
                ),
            ));
        }
    }
}

/// L6 tokens. The atomic type names and `sync::atomic` catch
/// declarations and imports; the memory-ordering paths catch every
/// load/store/RMW call site without colliding with `std::cmp::Ordering`
/// (whose variants are `Less`/`Equal`/`Greater`, never these).
const ATOMIC_TOKENS: [&str; 10] = [
    "sync::atomic",
    "AtomicBool",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// L6: lock-free state is how epoch pins and pool wakeups are published
/// cross-thread, and every new atomic is a new memory-ordering proof
/// obligation. Confine them to the two modules that own such a proof:
/// `crates/pool` (scope latches, shuffle state) and `octree::snapshot`
/// (the pin registry the row-COW reclamation floor reads). Everything
/// else synchronizes through those abstractions or a plain mutex.
fn check_atomic_confinement(
    file: &SourceFile,
    lexed: &LexedFile,
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !file.class.rules().contains(&Rule::AtomicConfinement) {
        return;
    }
    if file.crate_name.as_deref() == Some("pool") {
        return; // thread lifecycle and its wakeup flags live here
    }
    if file.crate_name.as_deref() == Some("octree") && file.rel_path.ends_with("snapshot.rs") {
        return; // the epoch-pin registry behind snapshot reclamation
    }
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in ATOMIC_TOKENS {
            if line.code.contains(token) {
                out.push(make(
                    Rule::AtomicConfinement,
                    file,
                    idx + 1,
                    raw_lines,
                    format!(
                        "atomic primitive (`{token}`) outside `crates/pool` / `octree::snapshot` — synchronize through the pool or the snapshot pin registry (or a mutex)"
                    ),
                ));
                break;
            }
        }
    }
}

/// L7 tokens: the `std::fs` mutation surface. Reads (`fs::read*`) are
/// deliberately absent — only writes need crash-safety discipline.
const FS_TOKENS: [&str; 6] = [
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "fs::create_dir",
    "File::create",
    "OpenOptions",
];

/// The one library module allowed to touch the filesystem directly:
/// it *is* the durable-storage layer (atomic temp-file renames, fsync,
/// the fault-injection wrappers).
const FS_FILE: &str = "crates/map/src/durable.rs";

/// L7: a `fs::write` sprinkled anywhere else bypasses temp-file
/// atomicity and fsync, so a crash mid-write leaves a torn file the
/// recovery path was never designed to meet. Route library writes
/// through `omu_map::DurableDir` / `DurableFile`.
fn check_fs_confinement(
    file: &SourceFile,
    lexed: &LexedFile,
    raw_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    if !file.class.rules().contains(&Rule::FsConfinement) {
        return;
    }
    if file.rel_path == FS_FILE {
        return; // the sanctioned durable-storage implementation
    }
    for (idx, line) in lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in FS_TOKENS {
            if line.code.contains(token) {
                out.push(make(
                    Rule::FsConfinement,
                    file,
                    idx + 1,
                    raw_lines,
                    format!(
                        "filesystem mutation (`{token}`) outside `map::durable` — write through `DurableDir`/`DurableFile` so crash atomicity and fault injection apply"
                    ),
                ));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.slug()), Some(r));
            assert_eq!(Rule::parse(r.code()), Some(r));
        }
        assert_eq!(Rule::parse("no-such-rule"), None);
    }

    #[test]
    fn allow_parsing() {
        let (r, reason) = parse_allow("allow(no-panic) — capacity checked above");
        assert_eq!(r, Some(Rule::NoPanic));
        assert_eq!(reason, "capacity checked above");
        let (r, reason) = parse_allow("allow(no-panic) -- double dash works");
        assert_eq!(r, Some(Rule::NoPanic));
        assert_eq!(reason, "double dash works");
        let (r, reason) = parse_allow("allow(no-panic)");
        assert_eq!(r, Some(Rule::NoPanic));
        assert!(reason.is_empty());
        let (r, _) = parse_allow("allow(bogus) — reason");
        assert_eq!(r, None);
    }
}
