//! `omu-lint` — the workspace invariant checker.
//!
//! The repo's core promise is that the scalar oracle and the sharded
//! batch engine, at every shard count, produce **bit-identical** maps
//! (the property the OMU accelerator model is verified against). That promise rests on a few
//! hand-maintained disciplines that ordinary clippy cannot express:
//!
//! - **L1 `safety-comment`** — every `unsafe` block/fn/impl carries an
//!   immediately preceding `// SAFETY:` rationale. The pool's
//!   lifetime-erased task transmute is exactly the kind of site whose
//!   soundness argument must stay next to the code.
//! - **L2 `thread-confinement`** — `thread::spawn` / `thread::scope` /
//!   `JoinHandle` appear only in `crates/pool`. Every other layer
//!   dispatches through the persistent [`WorkerPool`]; a stray spawn is
//!   how per-call thread storms crept in before the pool existed.
//! - **L3 `no-panic`** — library-crate non-test code returns typed
//!   errors (`MapError`, `ParallelInsertError`, `KeyError`) instead of
//!   `unwrap`/`expect`/`panic!`; a panic on a worker thread is a
//!   structural hazard the pool has to contain.
//! - **L4 `handle-bits`** — the `shard:4|row:25|oct:3` node-handle
//!   packing is an implementation secret of
//!   `octree::{arena,node,shard,snapshot}`; re-deriving it with raw
//!   shifts elsewhere breaks the next layout change silently.
//! - **L5 `bad-suppression`** — escape hatches exist
//!   (`// omu-lint: allow(no-panic) — reason`) but must name a known
//!   rule and a non-empty reason; reason-less suppressions are
//!   violations.
//! - **L6 `atomic-confinement`** — atomics (`sync::atomic` types and
//!   the memory orderings) appear only in `crates/pool` and
//!   `octree::snapshot`: the pool's wakeup latches and the snapshot
//!   pin registry are the workspace's two lock-free protocols, each
//!   with a written ordering argument. New lock-free state elsewhere
//!   must either route through them or make its case here first.
//! - **L7 `fs-confinement`** — direct `std::fs` mutation (`fs::write`,
//!   `File::create`, `OpenOptions`, renames/removes) appears only in
//!   `map::durable`, the crash-safety layer. Its temp-file-then-rename
//!   atomicity, fsync discipline and fault-injection hooks only protect
//!   writes that go through `DurableDir`/`DurableFile`; a stray
//!   `fs::write` elsewhere is a torn-file bug waiting for a power cut.
//!
//! Every finding fails the gate; the one escape hatch is a justified
//! suppression comment (L5). Run with `cargo run -p omu-lint` from the
//! workspace root.
//!
//! [`WorkerPool`]: https://docs.rs/omu-pool

pub mod lexer;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use rules::{Rule, Violation};
pub use walk::{discover, FileClass, SourceFile};

/// Result of linting a whole tree.
#[derive(Debug)]
pub struct Report {
    /// Number of source files discovered and linted.
    pub files_checked: usize,
    /// Every un-suppressed violation — any one fails the gate.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint every source under `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let files = discover(root)?;
    let mut violations = Vec::new();
    for file in &files {
        let raw = fs::read_to_string(&file.abs_path)?;
        let lexed = lexer::lex(&raw);
        violations.extend(rules::check_file(file, &raw, &lexed));
    }
    Ok(Report {
        files_checked: files.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_clean_logic() {
        let r = Report {
            files_checked: 1,
            violations: vec![],
        };
        assert!(r.is_clean());
    }
}
