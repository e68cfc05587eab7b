//! SwitchV2P protocol configuration and ablation switches.

/// How stale entries are repaired after a migration (§3.3, Table 4 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationMode {
    /// Misdelivery tags only; no invalidation packets ("SwitchV2P w/o
    /// invalidations").
    None,
    /// Invalidation packets on every tagged misdelivery ("w/o timestamp
    /// vector") — correct but bursty.
    NoTimestampVector,
    /// Full design: per-target timestamps suppress duplicates within one
    /// base RTT ("w/ timestamp vector").
    TimestampVector,
}

/// Protocol knobs. Defaults are the paper's evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchV2PConfig {
    /// Generate learning packets at gateway ToRs (at rate
    /// [`crate::agent::P_LEARN`]).
    pub learning_packets: bool,
    /// Piggyback evicted entries for downstream reinsertion (§3.2.2).
    pub spillover: bool,
    /// Only spill evictees whose access bit was set (stricter variant; the
    /// default spills every valid evictee, matching the paper's Figure 4b
    /// example).
    pub spill_only_active: bool,
    /// Spines promote hot entries to cores (§3.2.2).
    pub promotion: bool,
    /// Invalidation machinery (§3.3).
    pub invalidation: InvalidationMode,
    /// Relative memory shares per layer (ToR, spine, core); the paper's
    /// default is homogeneous (1, 1, 1). §4 leaves layer-aware allocation
    /// to future work — these weights implement the mechanism. A layer of
    /// weight 0 gets no cache lines ([`Self::tor_only`]).
    pub layer_weights: (f64, f64, f64),
}

impl Default for SwitchV2PConfig {
    fn default() -> Self {
        SwitchV2PConfig {
            learning_packets: true,
            spillover: true,
            spill_only_active: false,
            promotion: true,
            invalidation: InvalidationMode::TimestampVector,
            layer_weights: (1.0, 1.0, 1.0),
        }
    }
}

impl SwitchV2PConfig {
    /// The ablation with learning packets disabled.
    pub fn without_learning_packets() -> Self {
        SwitchV2PConfig {
            learning_packets: false,
            ..Default::default()
        }
    }

    /// The ablation with spillover disabled.
    pub fn without_spillover() -> Self {
        SwitchV2PConfig {
            spillover: false,
            ..Default::default()
        }
    }

    /// The ablation with promotion disabled.
    pub fn without_promotion() -> Self {
        SwitchV2PConfig {
            promotion: false,
            ..Default::default()
        }
    }

    /// Table 4's "w/o invalidations" variant.
    pub fn without_invalidations() -> Self {
        SwitchV2PConfig {
            invalidation: InvalidationMode::None,
            ..Default::default()
        }
    }

    /// Table 4's "w/o timestamp vector" variant.
    pub fn without_timestamp_vector() -> Self {
        SwitchV2PConfig {
            invalidation: InvalidationMode::NoTimestampVector,
            ..Default::default()
        }
    }

    /// §4's ToR-only memory allocation: every line at the ToRs.
    pub fn tor_only() -> Self {
        SwitchV2PConfig {
            layer_weights: (1.0, 0.0, 0.0),
            ..Default::default()
        }
    }

    /// A ToR-heavy heterogeneous allocation (edge switches see the most
    /// reuse in TCP traces, Table 5).
    pub fn tor_heavy() -> Self {
        SwitchV2PConfig {
            layer_weights: (4.0, 1.0, 1.0),
            ..Default::default()
        }
    }

    /// A core-heavy allocation (sharing across pods, the Microbursts
    /// regime of Table 5).
    pub fn core_heavy() -> Self {
        SwitchV2PConfig {
            layer_weights: (1.0, 1.0, 4.0),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = SwitchV2PConfig::default();
        assert!(c.learning_packets && c.spillover && c.promotion);
        assert_eq!(c.invalidation, InvalidationMode::TimestampVector);
    }

    #[test]
    fn ablation_constructors_flip_one_knob() {
        assert!(!SwitchV2PConfig::without_learning_packets().learning_packets);
        assert!(!SwitchV2PConfig::without_spillover().spillover);
        assert!(!SwitchV2PConfig::without_promotion().promotion);
        assert_eq!(
            SwitchV2PConfig::without_invalidations().invalidation,
            InvalidationMode::None
        );
        assert_eq!(
            SwitchV2PConfig::without_timestamp_vector().invalidation,
            InvalidationMode::NoTimestampVector
        );
        assert_eq!(SwitchV2PConfig::tor_only().layer_weights, (1.0, 0.0, 0.0));
        assert_eq!(SwitchV2PConfig::tor_heavy().layer_weights, (4.0, 1.0, 1.0));
        assert_eq!(SwitchV2PConfig::core_heavy().layer_weights, (1.0, 1.0, 4.0));
    }

    #[test]
    fn default_weights_are_homogeneous() {
        assert_eq!(SwitchV2PConfig::default().layer_weights, (1.0, 1.0, 1.0));
    }
}
