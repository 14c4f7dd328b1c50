//! Last Branch Records.

/// Depth of the LBR stack on the modeled (Skylake-class) hardware.
pub const LBR_DEPTH: usize = 32;

/// One retired taken branch: source and destination addresses.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LbrRecord {
    /// Address of the branch instruction.
    pub from: u64,
    /// Address the branch transferred to.
    pub to: u64,
}

/// One LBR sample: the last up-to-32 taken branches at the sampling
/// interrupt, ordered oldest first.
///
/// (Hardware reports newest-first; the simulator normalizes to oldest
/// first, which is the order aggregation walks.)
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LbrSample {
    /// Records, oldest first, at most [`LBR_DEPTH`].
    pub records: Vec<LbrRecord>,
}

impl LbrSample {
    /// Creates a sample, asserting the depth bound.
    pub fn new(records: Vec<LbrRecord>) -> Self {
        assert!(records.len() <= LBR_DEPTH, "LBR stack depth exceeded");
        LbrSample { records }
    }
}

/// How the profiler samples.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SamplingConfig {
    /// Taken branches between consecutive samples.
    pub period: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        // A period low enough that small simulated runs still gather
        // dense profiles; real deployments use ~100k-1M.
        SamplingConfig { period: 199 }
    }
}

/// A raw profile: the samples collected over one profiling run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HardwareProfile {
    /// Name of the profiled binary.
    pub binary_name: String,
    /// All samples in collection order.
    pub samples: Vec<LbrSample>,
}

impl HardwareProfile {
    /// Creates an empty profile for `binary_name`.
    pub fn new(binary_name: impl Into<String>) -> Self {
        HardwareProfile {
            binary_name: binary_name.into(),
            samples: Vec::new(),
        }
    }

    /// Total branch records across samples.
    pub fn num_records(&self) -> usize {
        self.samples.iter().map(|s| s.records.len()).sum()
    }

    /// The on-disk size of the raw profile: 16 bytes per record plus a
    /// 64-byte header per sample (mirrors `perf.data` overheads; used
    /// by the memory/cost models).
    pub fn raw_size_bytes(&self) -> u64 {
        (self.num_records() * 16 + self.samples.len() * 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_depth_enforced() {
        let r = LbrRecord { from: 1, to: 2 };
        LbrSample::new(vec![r; LBR_DEPTH]); // ok
    }

    #[test]
    #[should_panic(expected = "depth exceeded")]
    fn oversized_sample_rejected() {
        let r = LbrRecord { from: 1, to: 2 };
        LbrSample::new(vec![r; LBR_DEPTH + 1]);
    }

    #[test]
    fn raw_size_counts_records_and_headers() {
        let mut p = HardwareProfile::new("bin");
        p.samples.push(LbrSample::new(vec![
            LbrRecord { from: 1, to: 2 },
            LbrRecord { from: 3, to: 4 },
        ]));
        p.samples
            .push(LbrSample::new(vec![LbrRecord { from: 5, to: 6 }]));
        assert_eq!(p.num_records(), 3);
        assert_eq!(p.raw_size_bytes(), 3 * 16 + 2 * 64);
    }
}
