//! Quick vs. paper-scale experiment parameters.
//!
//! The paper's simulations replay up to 99 297 flows on an 80-switch
//! FatTree. The `Quick` profile shrinks the *flow count* while preserving
//! the properties results depend on (destination-reuse ratio via
//! `active_vms`, load, topology, cache fraction semantics); `Full` is the
//! paper's configuration, whose cost per figure has not been timed on the
//! analytic-link engine (a quick figure takes seconds to minutes).

use sv2p_topology::FatTreeConfig;
use sv2p_traces::{AlibabaConfig, HadoopConfig, MicroburstsConfig, WebSearchConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Single-core-friendly (minutes per figure).
    #[default]
    Quick,
    /// The paper's §5 parameters (untimed on the current engine).
    Full,
}

impl Scale {
    /// The FT32-1M topology of the million-VM tier (1 048 576 VMs; the
    /// same at both scales).
    pub fn ft32(self) -> FatTreeConfig {
        FatTreeConfig::ft32_1m()
    }

    /// The million-VM tier's Hadoop-style workload: the full
    /// million-VM pool with a 4096-VM active subset (preserving the
    /// flows-per-destination reuse ratio) and load matched to the active
    /// servers. Pair with [`Self::ft32`] at 32 VMs per server.
    pub fn huge_hadoop(self) -> HadoopConfig {
        HadoopConfig {
            vms: 1_048_576,
            active_vms: Some(4_096),
            flows: 20_000,
            hosts: 4_096,
            ..Default::default()
        }
    }

    /// The FT8-10K topology (both scales use the real switch fabric; quick
    /// mode shrinks traffic, not the network).
    pub fn ft8(self) -> FatTreeConfig {
        FatTreeConfig::ft8_10k()
    }

    /// Hadoop trace parameters.
    pub fn hadoop(self) -> HadoopConfig {
        match self {
            Scale::Quick => HadoopConfig {
                active_vms: Some(512),
                flows: 5_000,
                ..Default::default()
            },
            Scale::Full => HadoopConfig::default(),
        }
    }

    /// WebSearch trace parameters.
    pub fn websearch(self) -> WebSearchConfig {
        match self {
            Scale::Quick => WebSearchConfig {
                active_vms: Some(512),
                flows: 400,
            },
            Scale::Full => WebSearchConfig::default(),
        }
    }

    /// Microbursts trace parameters.
    pub fn microbursts(self) -> MicroburstsConfig {
        match self {
            Scale::Quick => MicroburstsConfig {
                // Shrink the pool with the burst count so the paper's
                // cross-burst destination reuse survives the scale-down.
                vms: 1_024,
                bursts: 1_500,
                mean_burst_ns: 12_000,
            },
            Scale::Full => MicroburstsConfig::default(),
        }
    }

    /// How long the video streams run (ns): 20 ms quick, 100 ms full.
    pub fn video_ns(self) -> u64 {
        match self {
            Scale::Quick => 20_000_000,
            Scale::Full => 100_000_000,
        }
    }

    /// Alibaba trace parameters (and its topology).
    pub fn alibaba(self) -> (FatTreeConfig, AlibabaConfig, u32) {
        match self {
            Scale::Quick => (
                // The full 50-pod fabric with a reduced container census.
                FatTreeConfig::ft16_400k(),
                AlibabaConfig {
                    vms: 409_600,
                    rpcs: 10_000,
                    duration_ns: 1_000_000,
                    ..Default::default()
                },
                32,
            ),
            Scale::Full => (
                FatTreeConfig::ft16_400k(),
                AlibabaConfig {
                    vms: 409_600,
                    ..Default::default()
                },
                32,
            ),
        }
    }

    /// The active address count the cache fraction is measured against.
    pub fn active_addresses(self, dataset: &str) -> usize {
        match (self, dataset) {
            (Scale::Quick, "hadoop") => 512,
            (Scale::Quick, "websearch") => 512,
            (Scale::Quick, "microbursts") => 1_024,
            (_, "alibaba") => 409_600,
            (Scale::Full, _) => 10_240,
            (Scale::Quick, _) => 10_240,
        }
    }

    /// The aggregate cache budget for the fixed-cache analyses (Figures
    /// 7-10, Tables 4-5, ablations), which the paper runs "with a cache
    /// size of 50%".
    ///
    /// At full scale that is 0.5 x 10 240 = 5 120 entries = 64 lines per
    /// switch on the 80-switch FT8-10K. Quick mode shrinks the *address
    /// space*, so matching the 50% *fraction* would leave 3-line caches
    /// whose direct-mapped conflicts dominate; instead quick mode matches
    /// the paper's **per-switch capacity** (64 lines x 80 switches), the
    /// quantity these analyses actually depend on.
    pub fn analysis_cache_entries(self) -> usize {
        match self {
            Scale::Quick => 64 * 80,
            Scale::Full => 10_240 / 2,
        }
    }

    /// The cache-size axis (fractions of the active address space).
    pub fn cache_fracs(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.01, 0.1, 0.5, 1.0, 4.0, 15.0],
            Scale::Full => vec![0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0, 100.0, 1500.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.hadoop().flows < Scale::Full.hadoop().flows);
        assert!(Scale::Quick.websearch().flows < Scale::Full.websearch().flows);
        assert!(Scale::Quick.cache_fracs().len() < Scale::Full.cache_fracs().len());
    }

    #[test]
    fn quick_preserves_reuse_ratio() {
        let q = Scale::Quick.hadoop();
        let f = Scale::Full.hadoop();
        let q_ratio = q.flows as f64 / q.active_vms.unwrap() as f64;
        let f_ratio = f.flows as f64 / f.vms as f64;
        assert!(
            (q_ratio / f_ratio - 1.0).abs() < 0.2,
            "quick reuse {q_ratio:.1} vs full {f_ratio:.1}"
        );
    }
}
