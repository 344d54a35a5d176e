//! Per-point correctness: digests of per-run metrics, the recorded oracle
//! reference, and the verdict that decides whether a timed point failed.

use std::collections::BTreeMap;

/// Identifies one sweep point: the fault level (index into the workload's
/// non-zero fault strengths) and the slot in the chip-seed pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PointKey {
    /// Index of the fault strength, `0..LEVELS`.
    pub level: usize,
    /// Index into the chip-seed pool, `0..POOL`.
    pub slot: usize,
}

/// FNV-1a digest of the per-run metrics' bit patterns, in run order.
pub fn digest(per_run: &[f32]) -> u64 {
    let bytes: Vec<u8> = per_run
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    invnorm_nn::checkpoint::fnv1a64(&bytes)
}

/// Why a timed point counts as failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The engine or evaluate call returned an error.
    Error(String),
    /// A per-run metric was NaN or infinite.
    NonFinite,
    /// The per-run metrics differ from the oracle's for the same key.
    Mismatch { expected: u64, actual: u64 },
    /// No recorded digest, and the oracle could not be recomputed: the point
    /// could not be checked.
    NoOracle(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => write!(f, "error: {e}"),
            Failure::NonFinite => f.write_str("non-finite per-run metric"),
            Failure::Mismatch { expected, actual } => {
                write!(f, "digest {actual:016x} != oracle {expected:016x}")
            }
            Failure::NoOracle(e) => write!(f, "unchecked, oracle failed: {e}"),
        }
    }
}

/// Judges one timed point against the oracle digest for its key.
pub fn judge(result: &Result<Vec<f32>, String>, oracle: &Result<u64, String>) -> Option<Failure> {
    match (result, oracle) {
        (Err(e), _) => Some(Failure::Error(e.clone())),
        (Ok(per_run), _) if per_run.iter().any(|v| !v.is_finite()) => Some(Failure::NonFinite),
        (Ok(_), Err(e)) => Some(Failure::NoOracle(e.clone())),
        (Ok(per_run), &Ok(oracle)) => {
            let actual = digest(per_run);
            (actual != oracle).then_some(Failure::Mismatch {
                expected: oracle,
                actual,
            })
        }
    }
}

/// Failed points as a share of attempted points.
pub fn failed_frac(failures: &[Option<Failure>]) -> f64 {
    let failed = failures.iter().filter(|f| f.is_some()).count();
    failed as f64 / failures.len().max(1) as f64
}

/// Oracle digests recorded from the tree, keyed by tier, workload and point.
#[derive(Debug, Default)]
pub struct Reference {
    digests: BTreeMap<(String, String, PointKey), u64>,
}

/// The committed reference data (see `--record` in the README).
const RECORDED: &str = include_str!("../reference_digests.txt");

impl Reference {
    /// The reference compiled into the benchmark.
    pub fn recorded() -> Self {
        Self::parse(RECORDED).expect("reference_digests.txt is well-formed")
    }

    /// Parses `tier workload level slot digest` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let [tier, workload, level, slot, hex] = fields[..] else {
                return Err(bad());
            };
            let key = PointKey {
                level: level.parse().map_err(|_| bad())?,
                slot: slot.parse().map_err(|_| bad())?,
            };
            let value = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
            digests.insert((tier.to_string(), workload.to_string(), key), value);
        }
        Ok(Self { digests })
    }

    /// The recorded oracle digest, if this tier has one for the point.
    pub fn get(&self, tier: &str, workload: &str, key: PointKey) -> Option<u64> {
        self.digests
            .get(&(tier.to_string(), workload.to_string(), key))
            .copied()
    }

    /// Formats one reference line.
    pub fn line(tier: &str, workload: &str, key: PointKey, digest: u64) -> String {
        format!("{tier} {workload} {} {} {digest:016x}", key.level, key.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_bit_in_one_run_fails_the_point() {
        let per_run = vec![0.75f32, 0.5, 0.625, 0.875];
        let oracle = Ok(digest(&per_run));
        assert_eq!(judge(&Ok(per_run.clone()), &oracle), None);
        for run in 0..per_run.len() {
            let mut flipped = per_run.clone();
            flipped[run] = f32::from_bits(flipped[run].to_bits() ^ 1);
            assert!(matches!(
                judge(&Ok(flipped), &oracle),
                Some(Failure::Mismatch { .. })
            ));
        }
    }

    #[test]
    fn erroring_and_non_finite_points_count_as_failed() {
        let good = vec![0.5f32, 0.25];
        let oracle = Ok(digest(&good));
        let failures = vec![
            judge(&Ok(good.clone()), &oracle),
            judge(&Err("injection failed".into()), &oracle),
            judge(&Ok(vec![0.5, f32::NAN]), &oracle),
            judge(&Ok(good.clone()), &oracle),
            judge(&Ok(good), &Err("oracle failed".into())),
        ];
        assert!(matches!(failures[1], Some(Failure::Error(_))));
        assert_eq!(failures[2], Some(Failure::NonFinite));
        assert!(matches!(failures[4], Some(Failure::NoOracle(_))));
        assert_eq!(failed_frac(&failures), 0.6);
    }

    #[test]
    fn reference_round_trips_and_rejects_garbage() {
        let key = PointKey { level: 3, slot: 1 };
        let text = format!(
            "# comment\n{}\n",
            Reference::line("avx2", "paper_fig5", key, 0xabc)
        );
        let reference = Reference::parse(&text).unwrap();
        assert_eq!(reference.get("avx2", "paper_fig5", key), Some(0xabc));
        assert_eq!(reference.get("avx512", "paper_fig5", key), None);
        assert!(Reference::parse("avx2 paper_fig5 1 x 00").is_err());
        assert!(Reference::parse("avx2 paper_fig5 1").is_err());
        Reference::recorded();
    }
}
