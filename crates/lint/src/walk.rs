//! Workspace source discovery and per-file rule applicability.
//!
//! The walker mirrors the repository layout rather than parsing cargo
//! metadata: `crates/<name>/src` holds crate sources, `src/` the umbrella
//! crate, root `tests/` and `crates/*/tests` integration tests, and
//! `examples/` the user-facing examples. `vendor/` (offline shims of
//! external crates) and `target/` are never linted, and anything under a
//! `fixtures/` directory is lint *input*, not workspace code.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::Rule;

/// How strictly a file is held to the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library crate source: every rule applies.
    Library,
    /// Binary / bench / example source: panicking on bad input is the
    /// normal CLI idiom, so L3 does not apply; the thread and unsafe
    /// disciplines still do.
    Bin,
    /// Test source: only the unsafe rationale and suppression hygiene
    /// apply — tests spawn threads and unwrap freely by design.
    Test,
}

impl FileClass {
    /// The rules checked for files of this class.
    pub fn rules(self) -> &'static [Rule] {
        match self {
            FileClass::Library => &[
                Rule::SafetyComment,
                Rule::ThreadConfinement,
                Rule::NoPanic,
                Rule::HandleBits,
                Rule::BadSuppression,
                Rule::AtomicConfinement,
                Rule::FsConfinement,
            ],
            FileClass::Bin => &[
                Rule::SafetyComment,
                Rule::ThreadConfinement,
                Rule::HandleBits,
                Rule::BadSuppression,
                Rule::AtomicConfinement,
            ],
            FileClass::Test => &[Rule::SafetyComment, Rule::BadSuppression],
        }
    }
}

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute on-disk path, for reading the contents.
    pub abs_path: PathBuf,
    /// Workspace-relative, `/`-separated (stable across hosts — this is
    /// what goes into diagnostics).
    pub rel_path: String,
    /// The `<name>` in `crates/<name>/…`, when the file belongs to one.
    pub crate_name: Option<String>,
    /// Rule-applicability class derived from the path.
    pub class: FileClass,
}

/// Crates whose binaries-only layout exempts them from L3 wholesale.
const BIN_CRATES: [&str; 2] = ["bench", "lint"];

/// Discover every lintable source under `root`.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in sorted_entries(&crates_dir)? {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.is_empty() {
                continue;
            }
            collect(&entry.join("src"), root, &mut out)?;
            collect(&entry.join("tests"), root, &mut out)?;
            collect(&entry.join("examples"), root, &mut out)?;
            collect(&entry.join("benches"), root, &mut out)?;
        }
    }
    collect(&root.join("src"), root, &mut out)?;
    collect(&root.join("tests"), root, &mut out)?;
    collect(&root.join("examples"), root, &mut out)?;
    collect(&root.join("benches"), root, &mut out)?;
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    v.sort();
    Ok(v)
}

fn collect(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in sorted_entries(dir)? {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if name == "fixtures" || name == "target" || name == "vendor" {
                continue;
            }
            collect(&entry, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(classify(entry.clone(), rel));
        }
    }
    Ok(())
}

/// Derive crate name and class from the workspace-relative path.
fn classify(abs_path: PathBuf, rel_path: String) -> SourceFile {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") {
        parts.get(1).map(|s| (*s).to_owned())
    } else {
        None
    };
    let class = file_class(&parts, crate_name.as_deref());
    SourceFile {
        abs_path,
        rel_path,
        crate_name,
        class,
    }
}

fn file_class(parts: &[&str], crate_name: Option<&str>) -> FileClass {
    let in_tests = parts.contains(&"tests") || parts.contains(&"benches");
    if in_tests {
        return FileClass::Test;
    }
    let in_examples = parts.contains(&"examples");
    let in_bin_dir = parts.contains(&"bin");
    let is_main = parts.last() == Some(&"main.rs");
    let bin_crate = crate_name.is_some_and(|c| BIN_CRATES.contains(&c));
    if in_examples || in_bin_dir || is_main || bin_crate {
        FileClass::Bin
    } else {
        FileClass::Library
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_of(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = if parts.first() == Some(&"crates") {
            parts.get(1).copied()
        } else {
            None
        };
        file_class(&parts, crate_name)
    }

    #[test]
    fn classification() {
        assert_eq!(class_of("crates/octree/src/tree.rs"), FileClass::Library);
        assert_eq!(class_of("src/lib.rs"), FileClass::Library);
        assert_eq!(class_of("crates/bench/src/runner.rs"), FileClass::Bin);
        assert_eq!(
            class_of("crates/bench/src/bin/bench_guards.rs"),
            FileClass::Bin
        );
        assert_eq!(class_of("examples/quickstart.rs"), FileClass::Bin);
        assert_eq!(class_of("tests/equivalence.rs"), FileClass::Test);
        assert_eq!(
            class_of("crates/octree/tests/invariants.rs"),
            FileClass::Test
        );
        assert_eq!(class_of("crates/map/src/main.rs"), FileClass::Bin);
    }
}
