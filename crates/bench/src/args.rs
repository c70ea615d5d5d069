//! The harness's tiny command-line convention.
//!
//! Every reproduction binary accepts:
//!
//! - `--scale X` — run `X` fraction of each dataset's scans (results are
//!   linearly extrapolated to full-dataset estimates);
//! - `--full` — run every scan (equivalent to `--scale 1`);
//! - `--engine {scalar,sharded[:N]}` — which update engine drives both
//!   the software baseline and the accelerator model (default
//!   `sharded:1`, the Morton-batched schedule; bare `sharded` is 8
//!   shards, the paper's PE count; `scalar` reproduces the paper's
//!   stock-OctoMap shape). Engine parsing lives in [`omu_map::Engine`],
//!   the same value the `omu::map` facade dispatches on;
//! - the `OMU_SCALE` environment variable as a default scale.
//!
//! Without any of these, per-dataset default scales keep the whole
//! `repro_all` run in the minutes range.

use omu_map::Engine;

/// Options shared by the reproduction binaries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunOptions {
    /// Scan-count scale override (`None` = per-dataset defaults).
    pub scale: Option<f64>,
    /// Update engine for baseline and accelerator runs.
    pub engine: Engine,
}

impl RunOptions {
    /// Parses `std::env::args()` and `OMU_SCALE`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1), std::env::var("OMU_SCALE").ok())
    }

    /// Parses an explicit argument list (testable core of
    /// [`RunOptions::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I, env_scale: Option<String>) -> Self {
        let mut scale = env_scale.map(|s| {
            s.parse::<f64>()
                .unwrap_or_else(|_| panic!("OMU_SCALE must be a number, got {s:?}"))
        });
        let mut engine = Engine::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => scale = Some(1.0),
                "--scale" => {
                    let v = it.next().expect("--scale requires a value");
                    scale = Some(
                        v.parse::<f64>()
                            .unwrap_or_else(|_| panic!("--scale must be a number, got {v:?}")),
                    );
                }
                "--engine" => {
                    let v = it.next().expect("--engine requires a value");
                    engine = v.parse::<Engine>().unwrap_or_else(|e| panic!("{e}"));
                }
                other => {
                    panic!("unknown argument {other:?} (expected --scale X, --full or --engine E)")
                }
            }
        }
        if let Some(s) = scale {
            assert!(s > 0.0 && s <= 1.0, "scale must be in (0, 1], got {s}");
        }
        RunOptions { scale, engine }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none_scale_and_batched_engine() {
        let o = RunOptions::parse(std::iter::empty(), None);
        assert_eq!(o.scale, None);
        assert_eq!(o.engine, Engine::Sharded { shards: 1 });
    }

    #[test]
    fn scale_flag_parses() {
        let o = RunOptions::parse(["--scale".to_owned(), "0.25".to_owned()], None);
        assert_eq!(o.scale, Some(0.25));
    }

    #[test]
    fn engine_flag_parses_all_variants() {
        for (flag, engine) in [
            ("scalar", Engine::Scalar),
            ("sharded", Engine::Sharded { shards: 8 }),
            ("sharded:4", Engine::Sharded { shards: 4 }),
        ] {
            let o = RunOptions::parse(["--engine".to_owned(), flag.to_owned()], None);
            assert_eq!(o.engine, engine, "--engine {flag}");
        }
    }

    #[test]
    fn full_flag_wins_over_env() {
        let o = RunOptions::parse(["--full".to_owned()], Some("0.1".to_owned()));
        assert_eq!(o.scale, Some(1.0));
    }

    #[test]
    fn env_scale_used_as_default() {
        let o = RunOptions::parse(std::iter::empty(), Some("0.5".to_owned()));
        assert_eq!(o.scale, Some(0.5));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_arguments_rejected() {
        let _ = RunOptions::parse(["--bogus".to_owned()], None);
    }

    #[test]
    #[should_panic(expected = "unknown engine")]
    fn unknown_engine_rejected() {
        let _ = RunOptions::parse(["--engine".to_owned(), "hyper".to_owned()], None);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn out_of_range_scale_rejected() {
        let _ = RunOptions::parse(["--scale".to_owned(), "2.0".to_owned()], None);
    }
}
