//! The update-engine selector: which insertion path a map drives, as a
//! value rather than a method name.

use std::fmt;
use std::str::FromStr;

use omu_core::UpdateEngine;

/// Maximum worker-shard count of [`Engine::Sharded`] (one shard per
/// first-level octree branch, like the paper's 8 PEs).
pub const MAX_SHARDS: usize = 8;

/// Which update engine an [`OccupancyMap`](crate::OccupancyMap) drives.
///
/// Both engines produce bit-identical maps; they differ in how tree
/// maintenance is scheduled (and therefore in throughput). The engine is
/// resolved once by the [`MapBuilder`](crate::MapBuilder), so callers
/// pass a value instead of picking between insertion method names.
///
/// # Examples
///
/// ```
/// use omu_map::Engine;
///
/// let e: Engine = "sharded:4".parse()?;
/// assert_eq!(e, Engine::Sharded { shards: 4 });
/// assert_eq!(Engine::default(), Engine::Sharded { shards: 1 });
/// # Ok::<(), omu_map::ParseEngineError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One full descent + parent-refresh pass per voxel update (OctoMap's
    /// `updateNode` loop): the paper's CPU baseline and the test oracle.
    Scalar,
    /// Per-scan Morton-sorted batches with cached descent and deferred
    /// parent refresh: one ray front end streams each scan into the
    /// batch's group-by, and the tree walk is spread over `shards`
    /// workers (one first-level octree branch per shard, like the
    /// paper's PEs). `Sharded { shards: 1 }` is the default.
    Sharded {
        /// Worker shards for the tree walk (1 ..= [`MAX_SHARDS`]).
        shards: usize,
    },
}

impl Default for Engine {
    fn default() -> Self {
        Engine::Sharded { shards: 1 }
    }
}

impl Engine {
    /// The oracle, the default and the paper's 8-PE design point — one
    /// engine per accelerator schedule, handy for sweeps and equivalence
    /// tests.
    pub const ALL: [Engine; 3] = [
        Engine::Scalar,
        Engine::Sharded { shards: 1 },
        Engine::Sharded { shards: MAX_SHARDS },
    ];

    /// The flag spelling of this engine's family (`--engine` value;
    /// [`Engine::Sharded`] renders its shard count via [`fmt::Display`]).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Sharded { .. } => "sharded",
        }
    }

    /// The accelerator schedule this engine maps onto: one shard is the
    /// Morton-batched schedule, more shards the PE-grouped sharded one
    /// (the shard count is a software-side knob; the PE count is
    /// hardware configuration).
    pub fn update_engine(&self) -> UpdateEngine {
        match self {
            Engine::Scalar => UpdateEngine::Scalar,
            Engine::Sharded { shards: 1 } => UpdateEngine::MortonBatched,
            Engine::Sharded { .. } => UpdateEngine::ShardedParallel,
        }
    }

    /// Validates the engine's parameters (shard count in
    /// 1 ..= [`MAX_SHARDS`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MapError::InvalidShards`] for an out-of-range
    /// shard count.
    pub fn validate(&self) -> Result<(), crate::MapError> {
        if let Engine::Sharded { shards } = self {
            if !(1..=MAX_SHARDS).contains(shards) {
                return Err(crate::MapError::InvalidShards(*shards));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Sharded { shards } => write!(f, "sharded:{shards}"),
            other => f.write_str(other.name()),
        }
    }
}

/// An unrecognized `--engine` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineError {
    /// The rejected input.
    pub input: String,
}

impl fmt::Display for ParseEngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown engine {:?} (expected scalar, sharded or sharded:N with N in \
             1..={MAX_SHARDS})",
            self.input
        )
    }
}

impl std::error::Error for ParseEngineError {}

impl FromStr for Engine {
    type Err = ParseEngineError;

    /// Parses the shared `--engine` flag: `scalar`, `sharded` (8 shards,
    /// the paper's PE count) or `sharded:N`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let reject = || ParseEngineError {
            input: s.to_owned(),
        };
        match s {
            "scalar" => Ok(Engine::Scalar),
            "sharded" => Ok(Engine::Sharded { shards: MAX_SHARDS }),
            other => {
                let shards = other
                    .strip_prefix("sharded:")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|n| (1..=MAX_SHARDS).contains(n))
                    .ok_or_else(reject)?;
                Ok(Engine::Sharded { shards })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_display() {
        for e in [
            Engine::Scalar,
            Engine::default(),
            Engine::Sharded { shards: 3 },
        ] {
            assert_eq!(e.to_string().parse::<Engine>(), Ok(e));
        }
    }

    #[test]
    fn bare_sharded_defaults_to_eight() {
        assert_eq!("sharded".parse(), Ok(Engine::Sharded { shards: 8 }));
    }

    #[test]
    fn bad_inputs_rejected() {
        for bad in [
            "",
            "warp-drive",
            "batched",
            "parallel",
            "sharded:0",
            "sharded:9",
            "sharded:x",
        ] {
            let e = bad.parse::<Engine>().unwrap_err();
            assert_eq!(e.input, bad);
            assert!(e.to_string().contains("unknown engine"));
        }
    }

    #[test]
    fn update_engine_mapping() {
        assert_eq!(Engine::Scalar.update_engine(), UpdateEngine::Scalar);
        assert_eq!(
            Engine::Sharded { shards: 1 }.update_engine(),
            UpdateEngine::MortonBatched
        );
        assert_eq!(
            Engine::Sharded { shards: 2 }.update_engine(),
            UpdateEngine::ShardedParallel
        );
    }

    #[test]
    fn shard_validation() {
        assert!(Engine::Sharded { shards: 0 }.validate().is_err());
        assert!(Engine::Sharded { shards: 9 }.validate().is_err());
        for e in Engine::ALL {
            assert!(e.validate().is_ok());
        }
    }
}
