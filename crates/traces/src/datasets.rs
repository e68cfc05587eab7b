//! The concrete dataset generators.
//!
//! One plain function per dataset ([`hadoop`], [`websearch`], [`alibaba`],
//! [`microbursts`], [`video`], [`incast`]), each returning the whole trace
//! as a `Vec<TraceFlow>` in start order. A trace is about 48 B per flow —
//! the paper's full Hadoop trace, 99 297 flows, is some 5 MB — and the
//! engine keeps every flow's spec for the length of the run anyway, so
//! nothing is gained by yielding flows lazily.
//!
//! The draw order is part of the output: a generator shuffles its endpoint
//! pool first, then draws *all* Poisson start gaps (`poisson_starts`), then
//! makes the per-flow draws from the same RNG. Every `results/*.txt` and
//! golden digest depends on that order.

use sv2p_simcore::SimRng;

use crate::dist::{EmpiricalCdf, Zipf};
use crate::spec::{FlowProfile, TraceFlow};

/// Summary statistics of a generated trace (the paper's "Address reuse
/// characteristics" paragraph).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of flows.
    pub flows: usize,
    /// Total payload bytes.
    pub total_bytes: u64,
    /// Trace duration (ns) from first to last flow start.
    pub duration_ns: u64,
    /// VMs that are a destination of at least one flow.
    pub distinct_dsts: usize,
    /// VMs that are a destination in at least two flows.
    pub dsts_with_2plus: usize,
    /// VMs that are a destination in at least ten flows.
    pub dsts_with_10plus: usize,
}

/// Computes [`TraceStats`].
pub fn stats(flows: &[TraceFlow]) -> TraceStats {
    use std::collections::HashMap;
    let mut counts: HashMap<usize, u32> = HashMap::new();
    for f in flows {
        *counts.entry(f.dst_vm).or_insert(0) += 1;
    }
    let start = flows.iter().map(|f| f.start_ns).min().unwrap_or(0);
    let end = flows.iter().map(|f| f.start_ns).max().unwrap_or(0);
    TraceStats {
        flows: flows.len(),
        total_bytes: flows.iter().map(|f| f.bytes()).sum(),
        duration_ns: end - start,
        distinct_dsts: counts.len(),
        dsts_with_2plus: counts.values().filter(|&&c| c >= 2).count(),
        dsts_with_10plus: counts.values().filter(|&&c| c >= 10).count(),
    }
}

/// A VM drawn uniformly from the `vms - 1` that are not `peer`.
fn uniform_other(vms: usize, peer: usize, rng: &mut SimRng) -> usize {
    let vm = rng.gen_range(0..vms - 1);
    if vm >= peer {
        vm + 1
    } else {
        vm
    }
}

/// The VM ids `0..vms` in an order shuffled by `rng` (u32: 4 bytes per VM,
/// which matters at a million VMs).
fn shuffled_ids(vms: usize, rng: &mut SimRng) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..vms as u32).collect();
    rng.shuffle(&mut ids);
    ids
}

/// Start times (ns) of `n` Poisson arrivals with `mean_gap` seconds between
/// them. All gaps are drawn here, before any per-flow draw.
fn poisson_starts(n: usize, mean_gap: f64, rng: &mut SimRng) -> Vec<u64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exponential(mean_gap);
            (t * 1e9) as u64
        })
        .collect()
}

/// Offered load of the TCP traces as a fraction of aggregate host NIC
/// capacity (§5: "network load of 30%").
const NETWORK_LOAD: f64 = 0.3;

/// Host NIC rate (§5: "100 Gbps links"); the TCP traces' load and a
/// microburst's line rate are fractions and multiples of it.
const NIC_BPS: u64 = 100_000_000_000;

/// The FT8-10K fabric's VM pool (§5, Table 3: 10 240 VMs), from which the
/// WebSearch, Microbursts and Video traces draw their endpoints.
const FT8_VMS: usize = 10_240;

/// The FT8-10K fabric's physical servers (§5, Table 3: 128), whose NICs
/// the WebSearch trace loads.
const FT8_SERVERS: usize = 128;

/// The seed of the traces that take none (WebSearch, Microbursts, Video),
/// and the default of those that do. The paper gives none (its traces are
/// fixed files); every results file was drawn with 1.
const TRACE_SEED: u64 = 1;

/// Datagram payload of §5's two UDP datasets, Microbursts and 8K-Video. The
/// paper states rates and burst lengths, not packet sizes; 1000 B is this
/// reproduction's choice.
const DATAGRAM_PAYLOAD: u32 = 1000;

/// The TCP traces (Hadoop, WebSearch): uniform endpoint pairs over `cfg`'s
/// pool, flow sizes from `cdf`, Poisson arrivals at the rate that offers
/// [`NETWORK_LOAD`] of `cfg.hosts` NICs.
fn tcp_trace(cfg: &HadoopConfig, cdf: &EmpiricalCdf) -> Vec<TraceFlow> {
    let HadoopConfig {
        vms,
        active_vms,
        flows,
        hosts,
        seed,
    } = *cfg;
    assert!(vms >= 2 && flows > 0 && hosts > 0);
    let mut rng = SimRng::new(seed);
    // Optionally restrict the endpoints to a random subset of the pool so a
    // scaled-down flow count keeps the paper's flows-per-destination reuse
    // ratio; the subset is shuffled, so it stays spread over all racks.
    // `None` means the identity pool `0..vms`, which is never built.
    let pool: Option<Vec<u32>> = active_vms.map(|k| {
        assert!(k >= 2 && k <= vms);
        let mut ids = shuffled_ids(vms, &mut rng);
        ids.truncate(k);
        ids.shrink_to_fit();
        ids
    });
    let n = pool.as_ref().map_or(vms, Vec::len);
    // Offered load = load × aggregate host capacity; flow arrival rate
    // follows from the mean flow size (the HPCC-style load model).
    let agg_bps = NETWORK_LOAD * hosts as f64 * NIC_BPS as f64;
    let mean_bits = cdf.mean() * 8.0;
    let rate = agg_bps / mean_bits;
    poisson_starts(flows, 1.0 / rate, &mut rng)
        .into_iter()
        .map(|start_ns| {
            let si = rng.gen_range(0..n);
            let di = uniform_other(n, si, &mut rng);
            let (src_vm, dst_vm) = match &pool {
                Some(p) => (p[si] as usize, p[di] as usize),
                None => (si, di),
            };
            let bytes = cdf.sample(&mut rng).max(1.0) as u64;
            TraceFlow {
                src_vm,
                dst_vm,
                start_ns,
                profile: FlowProfile::Tcp { bytes },
            }
        })
        .collect()
}

/// A generated trace as an owning iterator. Kept only for
/// `benchmark/src/workloads.rs`, which names `FlowSource::{hadoop, alibaba}`
/// and maps over the result; everything else calls [`hadoop`] and
/// [`alibaba`] directly.
#[derive(Debug)]
pub struct FlowSource(std::vec::IntoIter<TraceFlow>);

impl FlowSource {
    /// The flows of [`hadoop`].
    pub fn hadoop(cfg: &HadoopConfig) -> Self {
        FlowSource(hadoop(cfg).into_iter())
    }

    /// The flows of [`alibaba`].
    pub fn alibaba(cfg: &AlibabaConfig) -> Self {
        FlowSource(alibaba(cfg).into_iter())
    }
}

impl Iterator for FlowSource {
    type Item = TraceFlow;

    fn next(&mut self) -> Option<TraceFlow> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Hadoop trace parameters (defaults: FT8-10K; the paper's full trace has
/// 99 297 flows — scale `flows` down for quick runs).
#[derive(Debug, Clone)]
pub struct HadoopConfig {
    /// VM pool size.
    pub vms: usize,
    /// If set, only this many (randomly chosen) VMs exchange traffic —
    /// preserves the reuse ratio when `flows` is scaled down.
    pub active_vms: Option<usize>,
    /// Number of flows.
    pub flows: usize,
    /// Physical host count whose NICs the trace loads.
    pub hosts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HadoopConfig {
    fn default() -> Self {
        HadoopConfig {
            vms: FT8_VMS,
            active_vms: None,
            flows: 99_297,
            hosts: FT8_SERVERS,
            seed: TRACE_SEED,
        }
    }
}

/// Generates the Hadoop trace: short TCP flows, uniform src/dst, heavy
/// cross-flow destination reuse at paper scale.
pub fn hadoop(cfg: &HadoopConfig) -> Vec<TraceFlow> {
    tcp_trace(cfg, &EmpiricalCdf::facebook_hadoop())
}

/// WebSearch trace parameters (the pool is FT8-10K's).
#[derive(Debug, Clone)]
pub struct WebSearchConfig {
    /// Optional active-subset restriction (see [`HadoopConfig::active_vms`]).
    pub active_vms: Option<usize>,
    /// Number of flows (heavy flows: far fewer than Hadoop at equal load).
    pub flows: usize,
}

impl Default for WebSearchConfig {
    fn default() -> Self {
        WebSearchConfig {
            active_vms: None,
            flows: 5_000,
        }
    }
}

/// Generates the WebSearch trace: DCTCP flow sizes, minimal reuse.
pub fn websearch(cfg: &WebSearchConfig) -> Vec<TraceFlow> {
    let pool = HadoopConfig {
        active_vms: cfg.active_vms,
        flows: cfg.flows,
        ..HadoopConfig::default()
    };
    tcp_trace(&pool, &EmpiricalCdf::dctcp_websearch())
}

/// Zipf exponent over the Alibaba trace's callee services: 1.32 reproduces
/// §5's "over 95% of the total requests are processed by just 5% of the
/// microservices".
const ALIBABA_ZIPF_S: f64 = 1.32;

/// Alibaba microservice trace parameters.
#[derive(Debug, Clone)]
pub struct AlibabaConfig {
    /// Container pool size (410 865 at paper scale on FT16-400K).
    pub vms: usize,
    /// Number of RPC calls.
    pub rpcs: usize,
    /// Trace duration (ns): the RPC prefix is replayed over this window
    /// (the paper replays a prefix of the call trace rather than matching
    /// a byte-load target — RPCs are tiny, so a load-derived arrival rate
    /// would collapse the trace into a burst).
    pub duration_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlibabaConfig {
    fn default() -> Self {
        AlibabaConfig {
            vms: 410_865,
            rpcs: 200_000,
            duration_ns: 20_000_000,
            seed: TRACE_SEED,
        }
    }
}

/// Generates the Alibaba trace: small TCP RPCs with Zipf-skewed callees,
/// arriving as a Poisson process over the configured replay window.
pub fn alibaba(cfg: &AlibabaConfig) -> Vec<TraceFlow> {
    assert!(cfg.vms >= 2 && cfg.rpcs > 0 && cfg.duration_ns > 0);
    let zipf = Zipf::new(cfg.vms, ALIBABA_ZIPF_S);
    // Permute ranks over VM ids so popular services are spread across
    // racks.
    let perm = shuffled_ids(cfg.vms, &mut SimRng::new(cfg.seed ^ 0xA11BABA));
    let mut rng = SimRng::new(cfg.seed);
    let rate = cfg.rpcs as f64 / (cfg.duration_ns as f64 / 1e9);
    let cdf = EmpiricalCdf::alibaba_rpc();
    poisson_starts(cfg.rpcs, 1.0 / rate, &mut rng)
        .into_iter()
        .map(|start_ns| {
            let dst_vm = perm[zipf.sample(&mut rng)] as usize;
            let src_vm = uniform_other(cfg.vms, dst_vm, &mut rng);
            let bytes = cdf.sample(&mut rng).max(1.0) as u64;
            TraceFlow {
                src_vm,
                dst_vm,
                start_ns,
                profile: FlowProfile::Tcp { bytes },
            }
        })
        .collect()
}

/// Microburst arrival rate across the cluster (§5's Microbursts dataset,
/// Poisson arrivals at 2 M bursts/s). The paper states the burst lengths;
/// this rate and [`MICROBURST_ZIPF_S`] are the generator's calibration.
const BURSTS_PER_SEC: f64 = 2_000_000.0;

/// Zipf exponent of microburst destination popularity (§5's Microbursts
/// dataset: Zipf 0.9, calibrated for cross-burst destination reuse).
const MICROBURST_ZIPF_S: f64 = 0.9;

/// Microbursts trace parameters.
#[derive(Debug, Clone)]
pub struct MicroburstsConfig {
    /// VM pool size.
    pub vms: usize,
    /// Number of bursts.
    pub bursts: usize,
    /// Mean burst duration (ns); exponential durations give the paper's
    /// "99th percentile burst duration of 158 µs" at a 34.3 µs mean.
    pub mean_burst_ns: u64,
}

impl Default for MicroburstsConfig {
    fn default() -> Self {
        MicroburstsConfig {
            vms: FT8_VMS,
            bursts: 20_000,
            mean_burst_ns: 34_300,
        }
    }
}

/// Generates the Microbursts trace: UDP bursts to Zipf-popular
/// destinations, each sent at `NIC_BPS` line rate.
pub fn microbursts(cfg: &MicroburstsConfig) -> Vec<TraceFlow> {
    let mut rng = SimRng::new(TRACE_SEED);
    let zipf = Zipf::new(cfg.vms, MICROBURST_ZIPF_S);
    let perm = shuffled_ids(cfg.vms, &mut rng);
    poisson_starts(cfg.bursts, 1.0 / BURSTS_PER_SEC, &mut rng)
        .into_iter()
        .map(|start_ns| {
            let dst_vm = perm[zipf.sample(&mut rng)] as usize;
            let src_vm = uniform_other(cfg.vms, dst_vm, &mut rng);
            let duration = rng.exponential(cfg.mean_burst_ns as f64).max(1.0);
            let bytes = duration * NIC_BPS as f64 / 8.0 / 1e9;
            let count = (bytes / DATAGRAM_PAYLOAD as f64).ceil().max(1.0) as u32;
            TraceFlow {
                src_vm,
                dst_vm,
                start_ns,
                profile: FlowProfile::UdpBurst {
                    count,
                    payload: DATAGRAM_PAYLOAD,
                },
            }
        })
        .collect()
}

/// Streams of the 8K-Video trace (§5: "64 senders").
const VIDEO_STREAMS: usize = 64;

/// Per-stream rate of the 8K-Video trace (§5: "at 48 Mbps").
const VIDEO_RATE_BPS: u64 = 48_000_000;

/// Generates the 8K-Video trace: `VIDEO_STREAMS` disjoint sender →
/// receiver CBR streams over the FT8-10K pool, each lasting `duration_ns`
/// (no destination reuse).
pub fn video(duration_ns: u64) -> Vec<TraceFlow> {
    let ids = shuffled_ids(FT8_VMS, &mut SimRng::new(TRACE_SEED));
    ids.chunks_exact(2)
        .take(VIDEO_STREAMS)
        .map(|pair| TraceFlow {
            src_vm: pair[0] as usize,
            dst_vm: pair[1] as usize,
            start_ns: 0,
            profile: FlowProfile::UdpCbr {
                rate_bps: VIDEO_RATE_BPS,
                duration_ns,
                payload: DATAGRAM_PAYLOAD,
            },
        })
        .collect()
}

/// Packets of the migration incast, across all senders (§5.2: "The entire
/// trace lasts 1 msec, totaling 64K packets").
const INCAST_PACKETS: u32 = 65_536;

/// Length of the migration incast (§5.2: 1 ms).
const INCAST_DURATION_NS: u64 = 1_000_000;

/// Datagram payload of the migration incast: small packets keep §5.2's
/// 64 Kpkt/ms aggregate within the destination NIC rate.
const INCAST_PAYLOAD: u32 = 100;

/// Generates the §5.2 migration incast toward `dst_vm`: one CBR stream from
/// each of `sender_vms` (the paper's 64, each on a distinct server), together
/// sending `INCAST_PACKETS` over `INCAST_DURATION_NS`.
pub fn incast(sender_vms: &[usize], dst_vm: usize) -> Vec<TraceFlow> {
    let per_sender = INCAST_PACKETS / sender_vms.len() as u32;
    let rate_bps =
        (per_sender as u64 * INCAST_PAYLOAD as u64 * 8) * 1_000_000_000 / INCAST_DURATION_NS;
    sender_vms
        .iter()
        .map(|&src_vm| {
            assert_ne!(src_vm, dst_vm);
            TraceFlow {
                src_vm,
                dst_vm,
                start_ns: 0,
                profile: FlowProfile::UdpCbr {
                    rate_bps,
                    duration_ns: INCAST_DURATION_NS,
                    payload: INCAST_PAYLOAD,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each constant is the §5 (or §5.2) figure its doc comment cites.
    #[test]
    fn constants_match_paper_setup() {
        assert_eq!(NETWORK_LOAD, 0.3);
        assert_eq!(NIC_BPS, 100_000_000_000);
        assert_eq!((FT8_VMS, FT8_SERVERS), (10_240, 128));
        assert_eq!(ALIBABA_ZIPF_S, 1.32);
        assert_eq!((MICROBURST_ZIPF_S, BURSTS_PER_SEC), (0.9, 2_000_000.0));
        assert_eq!((VIDEO_STREAMS, VIDEO_RATE_BPS), (64, 48_000_000));
        assert_eq!(INCAST_PACKETS, 64 * 1024);
        assert_eq!(INCAST_PAYLOAD, 100);
        assert_eq!(INCAST_DURATION_NS, 1_000_000);
    }

    #[test]
    fn hadoop_is_deterministic_and_sorted() {
        let cfg = HadoopConfig {
            flows: 2000,
            ..Default::default()
        };
        let a = hadoop(&cfg);
        let b = hadoop(&cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(a.iter().all(|f| f.src_vm != f.dst_vm));
    }

    #[test]
    fn hadoop_load_matches_target() {
        let cfg = HadoopConfig {
            flows: 30_000,
            ..Default::default()
        };
        let t = hadoop(&cfg);
        let s = stats(&t);
        let offered = s.total_bytes as f64 * 8.0 / (s.duration_ns as f64 / 1e9);
        let target = 0.3 * 128.0 * 100e9;
        assert!(
            (offered - target).abs() / target < 0.25,
            "offered {offered:e} vs target {target:e}"
        );
    }

    #[test]
    fn paper_scale_hadoop_reuse_characteristics() {
        let t = hadoop(&HadoopConfig::default());
        let s = stats(&t);
        assert_eq!(s.flows, 99_297);
        // "10,233 VMs serve as destinations in at least two flows."
        assert!(s.dsts_with_2plus > 10_000, "{s:?}");
        assert!(s.distinct_dsts > 10_200, "{s:?}");
    }

    #[test]
    fn active_subset_preserves_reuse_ratio() {
        let cfg = HadoopConfig {
            flows: 5_000,
            active_vms: Some(512),
            ..Default::default()
        };
        let t = hadoop(&cfg);
        let s = stats(&t);
        assert!(s.distinct_dsts <= 512, "{s:?}");
        // ~9.8 flows per destination: nearly all active VMs repeat.
        assert!(s.dsts_with_2plus > 450, "{s:?}");
        // Endpoints spread over the whole pool, not just low ids.
        assert!(t.iter().any(|f| f.dst_vm > 5_000));
    }

    #[test]
    fn websearch_has_low_reuse_and_heavy_flows() {
        let t = websearch(&WebSearchConfig::default());
        let s = stats(&t);
        assert_eq!(s.flows, 5_000);
        // "only 48% of the VMs being a destination in at least one flow"
        let frac = s.distinct_dsts as f64 / 10_240.0;
        assert!((0.3..0.6).contains(&frac), "dst fraction {frac}");
        // Few VMs repeat: order ~1.5K ("1,466 VMs are destinations in at
        // least two flows").
        assert!(s.dsts_with_2plus < 3_000, "{s:?}");
        let mean = s.total_bytes / s.flows as u64;
        assert!(mean > 1_000_000, "websearch mean flow {mean} too small");
    }

    #[test]
    fn alibaba_concentrates_destinations() {
        let cfg = AlibabaConfig {
            vms: 50_000,
            rpcs: 100_000,
            ..Default::default()
        };
        let t = alibaba(&cfg);
        let s = stats(&t);
        // High cross-flow reuse: thousands of VMs with >= 10 RPCs.
        assert!(s.dsts_with_10plus > 300, "{s:?}");
        // Only a minority of the pool receives anything (24% in the paper).
        assert!((s.distinct_dsts as f64) < 0.5 * cfg.vms as f64, "{s:?}");
    }

    #[test]
    fn alibaba_spreads_over_its_window() {
        let cfg = AlibabaConfig {
            vms: 10_000,
            rpcs: 5_000,
            duration_ns: 1_000_000,
            ..Default::default()
        };
        let t = alibaba(&cfg);
        let s = stats(&t);
        // Poisson arrivals: the realized span is near the configured window.
        assert!(
            (s.duration_ns as f64) > 0.7e6 && (s.duration_ns as f64) < 1.6e6,
            "{s:?}"
        );
    }

    #[test]
    fn microbursts_shape() {
        let cfg = MicroburstsConfig {
            bursts: 5_000,
            ..Default::default()
        };
        let t = microbursts(&cfg);
        // p99 burst duration ≈ 158 us => p99 packets ≈ 158us*100G/8/1000B ≈ 1975.
        let mut counts: Vec<u32> = t
            .iter()
            .map(|f| match f.profile {
                FlowProfile::UdpBurst { count, .. } => count,
                _ => panic!("not a burst"),
            })
            .collect();
        counts.sort_unstable();
        let p99 = counts[(counts.len() as f64 * 0.99) as usize];
        assert!(
            (1_200..=3_000).contains(&p99),
            "p99 burst packets {p99} off target"
        );
        let s = stats(&t);
        assert!(s.dsts_with_10plus > 40, "{s:?}");
    }

    #[test]
    fn video_streams_are_disjoint() {
        let t = video(100_000_000);
        assert_eq!(t.len(), 64);
        let mut endpoints: Vec<usize> = t.iter().flat_map(|f| [f.src_vm, f.dst_vm]).collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        assert_eq!(endpoints.len(), 128, "no endpoint reuse allowed");
        let s = stats(&t);
        assert_eq!(s.dsts_with_2plus, 0);
    }

    #[test]
    fn incast_totals_match() {
        let senders: Vec<usize> = (1..=64).collect();
        let t = incast(&senders, 0);
        assert_eq!(t.len(), 64);
        let total: u64 = t.iter().map(|f| f.bytes()).sum();
        let expect = 65_536 / 64 * 64 * 100;
        assert!(
            (total as i64 - expect as i64).unsigned_abs() < 7_000,
            "total {total} vs {expect}"
        );
    }
}
