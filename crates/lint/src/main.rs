//! CLI front end for the workspace invariant checker.
//!
//! ```text
//! cargo run -p omu-lint                  # gate: fail on any violation
//! cargo run -p omu-lint -- --root <dir>  # lint another tree (fixtures)
//! cargo run -p omu-lint -- --rules       # list rules
//! ```
//!
//! Exit codes: `0` clean, `1` violations, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use omu_lint::Rule;

struct Options {
    root: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        list_rules: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--rules" => opts.list_rules = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn print_help() {
    println!(
        "omu-lint: enforce the workspace's unsafe/panic/thread/handle-bit discipline\n\n\
         USAGE: omu-lint [--root DIR] [--rules]\n\n\
         Suppress a single finding with a justified comment on (or right above)\n\
         the offending line:\n\
         \x20   // omu-lint: allow(no-panic) — length checked two lines up\n\n\
         Exit codes: 0 clean, 1 violations, 2 usage/io error."
    );
}

/// Locate the workspace root: the nearest ancestor of the current
/// directory that has both a `Cargo.toml` and a `crates/` directory.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("omu-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in Rule::ALL {
            println!("{r}");
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) = opts.root.clone().or_else(find_root) else {
        eprintln!("omu-lint: could not locate the workspace root (use --root)");
        return ExitCode::from(2);
    };
    if !root.is_dir() {
        eprintln!("omu-lint: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }

    let report = match omu_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("omu-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if report.files_checked == 0 {
        // A gate that finds nothing to check is misconfigured, not clean.
        eprintln!(
            "omu-lint: no lintable sources under `{}` — wrong --root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    for v in &report.violations {
        println!("{} {}:{}: {}", v.rule, v.path, v.line, v.message);
        println!("    {}", v.excerpt);
    }

    println!(
        "omu-lint: {} files checked, {} violation(s)",
        report.files_checked,
        report.violations.len(),
    );

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
