//! `omu-perfbench`: the end-to-end benchmark of the durable `MapService`.
//!
//! One invocation runs one seeded workload (`corridor` or `campus`)
//! through a durable `MapService` — the production path over
//! the ray front end, the update engine, snapshots, the WAL and
//! checkpoints — checks the result, and prints every metric by name with
//! its unit and sample count. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! pass twice, untraced and traced, then the writer replicas, and prints
//! the per-layer metrics; its spans are written to
//! `.perfbench_out/<workload>-seed<seed>.spans.jsonl`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corridor --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It exits non-zero on a failed correctness check, and without a result
//! line when the run cannot be made at all. The design is documented in
//! `perfbench/README.md`.

mod inputs;
mod planner;
mod replica;
mod report;
mod service_pass;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use omu_geometry::Scan;

use crate::report::Report;
use crate::trace::Tracer;
use crate::workload::{Plan, Workload, SETUPS};

const USAGE: &str =
    "usage: omu-perfbench --workload <corridor|campus> --seed <n> --seconds <n> --trace <0|1>";

/// Scratch directory for the services' durable state, under the
/// directory the benchmark is started from.
const WORK_DIR: &str = ".perfbench_work";
/// Where traced runs write their spans.
const OUT_DIR: &str = ".perfbench_out";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad(()))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(WORK_DIR).join(format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let plan = Plan::new(args.workload, args.seconds);
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let offset = inputs::offset(args.seed, plan.dataset.spec().resolution);
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} offset=({:.4}, {:.4}, {:.4}) m",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        offset.x,
        offset.y,
        offset.z,
    );
    // 1. Inputs first, untimed.
    let base = service_pass::run(
        &plan,
        inputs::generate(&plan, args.seed, SETUPS),
        args.seed,
        work,
        None,
    )?;
    if !args.trace {
        return Ok(Report {
            header,
            metrics: report::end_to_end(&base),
            attempted: base.attempted,
            failed: base.failed,
            mismatches: base.mismatches,
        });
    }

    let tracer = Arc::new(Tracer::new());
    let traced = service_pass::run(
        &plan,
        inputs::generate(&plan, args.seed, SETUPS),
        args.seed,
        work,
        Some(&tracer),
    )?;
    let replayed = inputs::generate(&plan, args.seed, 1);
    let scans: Vec<Scan> = replayed
        .warmups
        .into_iter()
        .flatten()
        .chain(replayed.main)
        .chain(replayed.tail)
        .collect();
    let writer = replica::writer(&plan, &scans, &tracer)?;
    let split = replica::split(&plan, &scans, &tracer)?;
    drop(scans);

    let spans = tracer.finish();
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;

    let mut mismatches = base.mismatches.clone();
    mismatches.extend(traced.mismatches.iter().cloned());
    if writer.leaves != traced.last_leaves {
        mismatches.push("the writer replica's leaves differ from the service's".to_owned());
    }
    if split.leaves != traced.last_leaves {
        mismatches.push("the split replica's leaves differ from the service's".to_owned());
    }
    Ok(Report {
        header: format!("{header} spans={}", path.display()),
        metrics: report::per_layer(&plan, &base, &traced, &writer, &split, &spans),
        attempted: base.attempted + traced.attempted,
        failed: base.failed + traced.failed,
        mismatches,
    })
}
