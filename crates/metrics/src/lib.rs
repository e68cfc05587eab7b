//! Metrics collection for simulation runs.
//!
//! Records every quantity the paper's evaluation reports (Table 2's rows):
//! flow completion times, first-packet latency, cache hit rate and its
//! per-layer distribution (Table 5), per-switch and per-pod byte counts
//! (Figures 7–8), packet stretch, gateway load, misdelivery and
//! invalidation accounting for the migration study (Table 4), and
//! reordering (§4).
//!
//! The recorder is split by how its fields combine. [`Counters`] is
//! everything order-free: sums, maxima and multisets. [`Metrics`] is what
//! depends on global event order. A run keeps one of each, and
//! [`RunSummary`] and [`RecoveryReport`] are pure functions of the pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use sv2p_packet::{FlowId, SwitchTag};
use sv2p_simcore::stats::{Percentiles, Running};
use sv2p_simcore::SimTime;

/// Recovery-series window: 100 µs of virtual time.
pub const WINDOW_NS: u64 = 100_000;

pub use sv2p_topology::Layer;

/// A started flow's record: when it started, and whether its first packet
/// and its completion have been recorded. 16 bytes, `None` included.
#[derive(Debug, Clone, Copy)]
struct FlowRecord {
    started: SimTime,
    first_delivered: bool,
    completed: bool,
}

/// Why a tenant data packet was dropped (index into [`Counters::drops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DropCause {
    /// Drop-tail queue overflow (link buffer or an agent's control-plane
    /// queue).
    Queue,
    /// No usable route to the destination (null translation, missing
    /// follow-me rule, or every ECMP next-hop down).
    Unroutable,
    /// The packet traversed a switch or gateway during its blackout window.
    Blackout,
    /// Stochastic loss injected by a `LossRate` fault.
    Loss,
    /// Shed by an overloaded gateway whose bounded ingress queue was full.
    GatewayShed,
}

/// Names one executed migration to [`Counters::record_stale_hit`], as
/// handed out by [`Metrics::record_migration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRef {
    /// Its position in execution order (index into
    /// [`Counters::recovery_ns`]).
    pub idx: usize,
    /// When the mapping changed.
    pub at: SimTime,
}

/// One injected fault, timestamped so experiments can align time series to
/// it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultAnnotation {
    /// Virtual time of the event, microseconds.
    pub at_us: f64,
    /// Human-readable description ("switch_reboot_start node=12" …).
    pub label: String,
}

/// Tenant traffic counted over a span of the run: one recovery window (the
/// FCT half of a window is order-sensitive and lives in [`Metrics`]), or
/// all of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Traffic {
    /// Data packets handed to the network by senders.
    pub data_sent: u64,
    /// Data packets that reached a translation gateway.
    pub gateway: u64,
}

impl Traffic {
    /// Adds `other`'s traffic to this.
    pub fn add(&mut self, other: &Traffic) {
        self.data_sent += other.data_sent;
        self.gateway += other.gateway;
    }

    /// Fraction of the data packets that avoided the gateways ("the
    /// fraction of all sent packets that do not reach the gateways", §5.1);
    /// `None` with no traffic.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.data_sent == 0 {
            None
        } else {
            Some(1.0 - self.gateway as f64 / self.data_sent as f64)
        }
    }
}

/// Fault-recovery analysis over the windowed series, relative to one fault
/// window `[fault_at, fault_end)`.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// Mean hit rate over complete windows before the fault.
    pub pre_fault_hit_rate: f64,
    /// Mean hit rate over windows overlapping the fault.
    pub during_fault_hit_rate: f64,
    /// Mean hit rate over windows after the fault cleared.
    pub post_fault_hit_rate: f64,
    /// Mean FCT (µs) of flows completing before the fault.
    pub pre_fault_avg_fct_us: f64,
    /// Mean FCT (µs) of flows completing during the fault.
    pub during_fault_avg_fct_us: f64,
    /// Mean FCT (µs) of flows completing after the fault cleared.
    pub post_fault_avg_fct_us: f64,
    /// `during_fault_avg_fct_us / pre_fault_avg_fct_us` (1.0 when either
    /// side has no samples).
    pub fct_degradation: f64,
    /// Virtual time from fault end until the first window whose hit rate
    /// reaches 95 % of the pre-fault rate; `None` if it never recovers
    /// within the run.
    pub time_to_recover_us: Option<f64>,
}

/// Grows `v` with defaults to at least `len` entries.
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if len > v.len() {
        v.resize(len, T::default());
    }
}

/// `v[from..to]`, with both ends clamped to `v`'s length.
fn span<T>(v: &[T], from: usize, to: usize) -> &[T] {
    &v[from.min(v.len())..to.min(v.len())]
}

/// The order-free ledger: every field is a sum, a maximum or a multiset,
/// so what it reads does not depend on the order events are recorded in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Bytes processed per switch tag (a packet counts at every switch it
    /// traverses, matching Figure 7's counting rule).
    pub bytes_by_switch: Vec<u64>,
    /// Tenant data traffic since t = 0 (the sum of `windows`).
    pub total: Traffic,
    /// Tenant data packets dropped anywhere, by [`DropCause`].
    pub drops: [u64; 5],
    /// Tenant data packets that a switch cache resolved, by the switch's
    /// [`Layer`].
    pub hits_by_layer: [u64; 3],
    /// Cache hits of flow-first packets, by [`Layer`].
    pub first_hits_by_layer: [u64; 3],
    /// Packets that arrived at a host that no longer hosts the VM.
    pub misdelivered_packets: u64,
    /// Arrival time of the last misdelivered packet (Table 4).
    pub last_misdelivery: Option<SimTime>,
    /// Invalidation packets generated.
    pub invalidation_packets: u64,
    /// Learning packets generated.
    pub learning_packets: u64,
    /// Spillover options successfully reinserted at another switch.
    pub spillover_inserts: u64,
    /// Promotions accepted at core switches.
    pub promotion_inserts: u64,
    /// Reordered segment observations summed over receivers: a finished
    /// receiver's are folded in as it is dropped, a running one's read off
    /// it when the ledger is read.
    pub reordered_segments: u64,
    /// TCP retransmissions summed over senders (likewise).
    pub retransmissions: u64,
    /// Cache hits that served a mapping disagreeing with the ground truth
    /// (misdelivery exposure).
    pub stale_cache_hits: u64,
    /// Age of the stale entry at each attributable stale hit, nanoseconds
    /// since the migration that invalidated it, in the order recorded.
    pub stale_age_ns: Vec<u64>,
    /// Per migration, by [`MigrationRef::idx`]: the age of the oldest stale
    /// entry hit after it (and before any later migration of the same VIP)
    /// — the recovery time, how long the network kept acting on the old
    /// mapping. Zero when nobody's cache was stale for it.
    pub recovery_ns: Vec<u64>,
    /// Windowed traffic series; window `i` covers
    /// `[i * WINDOW_NS, (i + 1) * WINDOW_NS)`.
    pub windows: Vec<Traffic>,
}

impl Counters {
    /// A ledger for a fabric of `switches` switches (dense tags).
    pub fn new(switches: usize) -> Self {
        Counters {
            bytes_by_switch: vec![0; switches],
            ..Counters::default()
        }
    }

    /// Bytes of the ledger's growing records: the stale-hit ages, the
    /// per-migration recovery times and the windowed traffic series.
    pub fn record_bytes(&self) -> usize {
        (self.stale_age_ns.capacity() + self.recovery_ns.capacity()) * size_of::<u64>()
            + self.windows.capacity() * size_of::<Traffic>()
    }

    /// A packet of `bytes` traversed switch `tag`.
    pub fn record_switch_bytes(&mut self, tag: SwitchTag, bytes: u32) {
        self.bytes_by_switch[tag.0 as usize] += bytes as u64;
    }

    /// A cache of a switch in `layer` resolved a packet.
    pub fn record_cache_hit(&mut self, layer: Layer, first_of_flow: bool) {
        self.hits_by_layer[layer as usize] += 1;
        if first_of_flow {
            self.first_hits_by_layer[layer as usize] += 1;
        }
    }

    fn window_mut(&mut self, now: SimTime) -> &mut Traffic {
        let idx = (now.as_nanos() / WINDOW_NS) as usize;
        grow(&mut self.windows, idx + 1);
        &mut self.windows[idx]
    }

    /// A tenant data packet entered the network.
    pub fn record_data_sent(&mut self, now: SimTime) {
        self.total.data_sent += 1;
        self.window_mut(now).data_sent += 1;
    }

    /// A tenant data packet reached a translation gateway.
    pub fn record_gateway_packet(&mut self, now: SimTime) {
        self.total.gateway += 1;
        self.window_mut(now).gateway += 1;
    }

    /// A tenant data packet was dropped for `cause`.
    pub fn record_drop(&mut self, cause: DropCause) {
        self.drops[cause as usize] += 1;
    }

    /// A cache hit served a stale mapping at `now`. `migration` is the
    /// latest migration of the hit VIP, if it ever migrated; the stale
    /// entry's age (ns since that migration) is recorded and returned.
    pub fn record_stale_hit(
        &mut self,
        migration: Option<MigrationRef>,
        now: SimTime,
    ) -> Option<u64> {
        self.stale_cache_hits += 1;
        let m = migration?;
        let age = now.as_nanos().saturating_sub(m.at.as_nanos());
        grow(&mut self.recovery_ns, m.idx + 1);
        self.recovery_ns[m.idx] = self.recovery_ns[m.idx].max(age);
        self.stale_age_ns.push(age);
        Some(age)
    }

    /// A packet arrived at a host that no longer hosts the destination VM.
    pub fn record_misdelivery(&mut self, now: SimTime) {
        self.misdelivered_packets += 1;
        self.last_misdelivery = self.last_misdelivery.max(Some(now));
    }
}

/// What only the master records: the streams whose content depends on the
/// global order of events, and the counters of events only the driver
/// executes.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Per flow, by dense id: its record once it has started.
    flows: Vec<Option<FlowRecord>>,
    /// Distinct flows that started.
    flows_started: u64,

    /// Flows that completed.
    pub flows_completed: u64,
    /// Tenant data packets delivered to their (correct) destination VM.
    pub data_packets_delivered: u64,
    /// Switch hops per delivered packet (packet stretch, §5.3).
    pub stretch: Running,
    /// End-to-end latency per delivered data packet, microseconds.
    pub packet_latency_us: Running,
    /// Flow-first-packet end-to-end latency, microseconds.
    pub first_packet_latency_us: Percentiles,
    /// Completed-flow FCTs, microseconds.
    pub fct_us: Percentiles,
    /// Per recovery window: sum of the FCTs (µs) of the flows completing
    /// in it, and their count.
    fct_windows: Vec<(f64, u64)>,

    /// VM migrations executed.
    pub migrations: u64,
    /// Churn tenants that arrived.
    pub churn_arrivals: u64,
    /// Churn tenants that departed.
    pub churn_departures: u64,
    /// Rolling migration waves that started.
    pub migration_waves: u64,
    /// Injected faults, in injection order.
    pub fault_events: Vec<FaultAnnotation>,
}

impl Metrics {
    /// Creates the recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the per-flow table for flow ids below `flows` (the ids are
    /// dense: a workload registers them in order).
    pub fn reserve_flows(&mut self, flows: usize) {
        grow(&mut self.flows, flows);
    }

    /// Bytes of the per-flow table.
    pub fn flow_table_bytes(&self) -> usize {
        self.flows.capacity() * size_of::<Option<FlowRecord>>()
    }

    /// Bytes of the exact-percentile samples (first-packet latency, FCT)
    /// and the per-window FCT sums: one sample per flow each, O(flows).
    pub fn sample_bytes(&self) -> usize {
        self.first_packet_latency_us.resident_bytes()
            + self.fct_us.resident_bytes()
            + self.fct_windows.capacity() * size_of::<(f64, u64)>()
    }

    fn record_mut(&mut self, flow: FlowId) -> Option<&mut FlowRecord> {
        self.flows.get_mut(flow.0 as usize)?.as_mut()
    }

    /// A flow's first packet entered the network.
    pub fn flow_started(&mut self, flow: FlowId, now: SimTime) {
        let id = flow.0 as usize;
        grow(&mut self.flows, id + 1);
        self.flows_started += u64::from(self.flows[id].is_none());
        self.flows[id] = Some(FlowRecord {
            started: now,
            first_delivered: false,
            completed: false,
        });
    }

    /// A flow's first packet reached its destination.
    pub fn first_packet_delivered(&mut self, flow: FlowId, now: SimTime) {
        if let Some(rec) = self.record_mut(flow).filter(|r| !r.first_delivered) {
            rec.first_delivered = true;
            let lat = now.saturating_since(rec.started).as_micros_f64();
            self.first_packet_latency_us.push(lat);
        }
    }

    /// A flow finished (all bytes acked / last datagram delivered).
    pub fn flow_completed(&mut self, flow: FlowId, now: SimTime) {
        let fct = match self.record_mut(flow) {
            Some(rec) if !rec.completed => {
                rec.completed = true;
                now.saturating_since(rec.started).as_micros_f64()
            }
            _ => return,
        };
        self.flows_completed += 1;
        self.fct_us.push(fct);
        let idx = (now.as_nanos() / WINDOW_NS) as usize;
        grow(&mut self.fct_windows, idx + 1);
        self.fct_windows[idx].0 += fct;
        self.fct_windows[idx].1 += 1;
    }

    /// A data packet was delivered; records latency and stretch.
    pub fn record_delivery(&mut self, sent_at: SimTime, now: SimTime, switch_hops: u16) {
        self.data_packets_delivered += 1;
        self.packet_latency_us
            .push(now.saturating_since(sent_at).as_micros_f64());
        self.stretch.push(switch_hops as f64);
    }

    /// Records a migration executed at `at` (its scheduled instant) and
    /// names it for the stale hits that will attribute to it.
    pub fn record_migration(&mut self, at: SimTime) -> MigrationRef {
        self.migrations += 1;
        MigrationRef {
            idx: self.migrations as usize - 1,
            at,
        }
    }

    /// Records an injected fault so time series can be aligned to it.
    pub fn record_fault(&mut self, now: SimTime, label: impl Into<String>) {
        self.fault_events.push(FaultAnnotation {
            at_us: now.as_micros_f64(),
            label: label.into(),
        });
    }

    /// Analyzes recovery relative to the fault window `[fault_at,
    /// fault_end)` using the windowed series: traffic from `c`, FCTs from
    /// this recorder.
    pub fn recovery_report(
        &self,
        c: &Counters,
        fault_at: SimTime,
        fault_end: SimTime,
    ) -> RecoveryReport {
        // Complete windows strictly before the fault.
        let pre_end = (fault_at.as_nanos() / WINDOW_NS) as usize;
        // First window entirely after the fault cleared.
        let post_start = (fault_end.as_nanos().div_ceil(WINDOW_NS)) as usize;

        let mean_hit = |from: usize, to: usize| -> f64 {
            let mut sum = Traffic::default();
            for w in span(&c.windows, from, to) {
                sum.add(w);
            }
            sum.hit_rate().unwrap_or(0.0)
        };
        let mean_fct = |from: usize, to: usize| -> f64 {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for &(fct_sum_us, fct_count) in span(&self.fct_windows, from, to) {
                sum += fct_sum_us;
                n += fct_count;
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };

        let pre_hit = mean_hit(0, pre_end);
        let pre_fct = mean_fct(0, pre_end);
        let during_fct = mean_fct(pre_end, post_start);
        let fct_degradation = if pre_fct > 0.0 && during_fct > 0.0 {
            during_fct / pre_fct
        } else {
            1.0
        };

        // Time to recover: first post-fault window with traffic whose hit
        // rate reaches 95 % of the pre-fault rate.
        let threshold = 0.95 * pre_hit;
        let mut time_to_recover_us = None;
        for (i, s) in c.windows.iter().enumerate().skip(post_start) {
            if let Some(h) = s.hit_rate() {
                if h >= threshold {
                    let win_start_ns = i as u64 * WINDOW_NS;
                    let delta_ns = win_start_ns.saturating_sub(fault_end.as_nanos());
                    time_to_recover_us = Some(delta_ns as f64 / 1_000.0);
                    break;
                }
            }
        }

        RecoveryReport {
            pre_fault_hit_rate: pre_hit,
            during_fault_hit_rate: mean_hit(pre_end, post_start),
            post_fault_hit_rate: mean_hit(post_start, usize::MAX),
            pre_fault_avg_fct_us: pre_fct,
            during_fault_avg_fct_us: during_fct,
            post_fault_avg_fct_us: mean_fct(post_start, usize::MAX),
            fct_degradation,
            time_to_recover_us,
        }
    }

    /// Derives the serializable summary from this recorder and the ledger
    /// `c`. A pure read: calling it changes nothing, so calling it
    /// again — now or after more of the run — is always sound.
    pub fn summary(&self, c: &Counters, name: &str) -> RunSummary {
        let layer_share = |hits: &[u64; 3]| {
            let total: u64 = hits.iter().sum();
            let pct = |l: Layer| {
                if total == 0 {
                    0.0
                } else {
                    hits[l as usize] as f64 / total as f64
                }
            };
            (pct(Layer::Core), pct(Layer::Spine), pct(Layer::Tor))
        };
        let (hit_core, hit_spine, hit_tor) = layer_share(&c.hits_by_layer);
        let (fhit_core, fhit_spine, fhit_tor) = layer_share(&c.first_hits_by_layer);
        let mut ages = c.stale_age_ns.clone();
        ages.sort_unstable();
        let age_q = |q: f64| -> f64 {
            if ages.is_empty() {
                return 0.0;
            }
            let idx = ((ages.len() - 1) as f64 * q).round() as usize;
            ages[idx] as f64 / 1_000.0
        };
        // Every migration counts, the clean ones (no entry) as zero.
        let recoveries = (0..self.migrations as usize)
            .map(|i| c.recovery_ns.get(i).copied().unwrap_or(0) as f64 / 1_000.0);
        let recovery_max_us = recoveries.clone().fold(0.0f64, f64::max);
        let recovery_avg_us = if self.migrations == 0 {
            0.0
        } else {
            recoveries.sum::<f64>() / self.migrations as f64
        };
        RunSummary {
            name: name.to_string(),
            flows: self.flows_started,
            flows_completed: self.flows_completed,
            data_packets_sent: c.total.data_sent,
            data_packets_delivered: self.data_packets_delivered,
            packets_dropped: c.drops.iter().sum(),
            drops_queue: c.drops[DropCause::Queue as usize],
            drops_unroutable: c.drops[DropCause::Unroutable as usize],
            drops_blackout: c.drops[DropCause::Blackout as usize],
            drops_loss: c.drops[DropCause::Loss as usize],
            drops_shed: c.drops[DropCause::GatewayShed as usize],
            fault_count: self.fault_events.len() as u64,
            gateway_packets: c.total.gateway,
            hit_rate: c.total.hit_rate().unwrap_or(0.0),
            avg_fct_us: self.fct_us.mean(),
            p99_fct_us: self.fct_us.quantile(0.99),
            avg_first_packet_latency_us: self.first_packet_latency_us.mean(),
            p99_first_packet_latency_us: self.first_packet_latency_us.quantile(0.99),
            avg_packet_latency_us: self.packet_latency_us.mean(),
            avg_stretch: self.stretch.mean(),
            total_switch_bytes: c.bytes_by_switch.iter().sum(),
            misdelivered_packets: c.misdelivered_packets,
            last_misdelivery_us: c.last_misdelivery.map(|t| t.as_micros_f64()),
            invalidation_packets: c.invalidation_packets,
            learning_packets: c.learning_packets,
            reordered_segments: c.reordered_segments,
            retransmissions: c.retransmissions,
            hit_share_core: hit_core,
            hit_share_spine: hit_spine,
            hit_share_tor: hit_tor,
            first_hit_share_core: fhit_core,
            first_hit_share_spine: fhit_spine,
            first_hit_share_tor: fhit_tor,
            migrations: self.migrations,
            churn_arrivals: self.churn_arrivals,
            churn_departures: self.churn_departures,
            migration_waves: self.migration_waves,
            stale_cache_hits: c.stale_cache_hits,
            stale_age_p50_us: age_q(0.50),
            stale_age_p99_us: age_q(0.99),
            recovery_avg_us,
            recovery_max_us,
        }
    }
}

/// Derived results of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Scheme/run label.
    pub name: String,
    /// Flows started.
    pub flows: u64,
    /// Flows that completed.
    pub flows_completed: u64,
    /// Data packets handed to the network.
    pub data_packets_sent: u64,
    /// Data packets delivered.
    pub data_packets_delivered: u64,
    /// Data packets dropped.
    pub packets_dropped: u64,
    /// Drops from full queues.
    pub drops_queue: u64,
    /// Drops for lack of a usable route.
    pub drops_unroutable: u64,
    /// Drops inside a blackout window.
    pub drops_blackout: u64,
    /// Drops from injected stochastic loss.
    pub drops_loss: u64,
    /// Drops shed by overloaded gateways.
    pub drops_shed: u64,
    /// Fault events injected during the run.
    pub fault_count: u64,
    /// Data packets processed by gateways.
    pub gateway_packets: u64,
    /// 1 − gateway share.
    pub hit_rate: f64,
    /// Mean flow completion time.
    pub avg_fct_us: f64,
    /// 99th-percentile FCT.
    pub p99_fct_us: f64,
    /// Mean first-packet latency.
    pub avg_first_packet_latency_us: f64,
    /// 99th-percentile first-packet latency.
    pub p99_first_packet_latency_us: f64,
    /// Mean per-packet latency.
    pub avg_packet_latency_us: f64,
    /// Mean switches traversed per delivered packet.
    pub avg_stretch: f64,
    /// Total bytes processed across all switches.
    pub total_switch_bytes: u64,
    /// Misdelivered packet count (Table 4).
    pub misdelivered_packets: u64,
    /// Arrival time of the last misdelivered packet, µs (Table 4).
    pub last_misdelivery_us: Option<f64>,
    /// Invalidation packets generated (Table 4).
    pub invalidation_packets: u64,
    /// Learning packets generated.
    pub learning_packets: u64,
    /// Reordered segments observed by receivers.
    pub reordered_segments: u64,
    /// TCP retransmissions.
    pub retransmissions: u64,
    /// Share of cache hits at each layer (Table 5, "Total").
    pub hit_share_core: f64,
    /// See `hit_share_core`.
    pub hit_share_spine: f64,
    /// See `hit_share_core`.
    pub hit_share_tor: f64,
    /// Share of first-packet hits at each layer (Table 5, "First packet").
    pub first_hit_share_core: f64,
    /// See `first_hit_share_core`.
    pub first_hit_share_spine: f64,
    /// See `first_hit_share_core`.
    pub first_hit_share_tor: f64,
    /// VM migrations executed.
    pub migrations: u64,
    /// Churn tenants that arrived.
    pub churn_arrivals: u64,
    /// Churn tenants that departed.
    pub churn_departures: u64,
    /// Rolling migration waves.
    pub migration_waves: u64,
    /// Cache hits served from a stale mapping (misdelivery exposure).
    pub stale_cache_hits: u64,
    /// Median stale-entry age at hit time, µs since the migration.
    pub stale_age_p50_us: f64,
    /// 99th-percentile stale-entry age, µs.
    pub stale_age_p99_us: f64,
    /// Mean time from a migration to its last stale-cache hit, µs
    /// (migrations with no stale exposure count as zero).
    pub recovery_avg_us: f64,
    /// Worst-case recovery time over all migrations, µs.
    pub recovery_max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv2p_simcore::{FxHashMap, SimDuration};

    #[test]
    fn hit_rate_is_one_minus_gateway_share() {
        let total = Traffic {
            data_sent: 100,
            gateway: 25,
        };
        assert!((total.hit_rate().unwrap() - 0.75).abs() < 1e-12);
        let empty = Metrics::new().summary(&Counters::default(), "x");
        assert_eq!(empty.hit_rate, 0.0);
    }

    #[test]
    fn total_switch_bytes_sums_every_switch() {
        let mut c = Counters::new(3);
        c.record_switch_bytes(SwitchTag(0), 100);
        c.record_switch_bytes(SwitchTag(1), 200);
        c.record_switch_bytes(SwitchTag(2), 400);
        assert_eq!(Metrics::new().summary(&c, "x").total_switch_bytes, 700);
    }

    #[test]
    fn fct_and_first_packet_flow_accounting() {
        let mut m = Metrics::new();
        let f = FlowId(1);
        m.flow_started(f, SimTime::from_micros(10));
        m.first_packet_delivered(f, SimTime::from_micros(25));
        // A second "first delivery" (retransmitted first segment) is ignored.
        m.first_packet_delivered(f, SimTime::from_micros(60));
        m.flow_completed(f, SimTime::from_micros(110));
        m.flow_completed(f, SimTime::from_micros(500)); // duplicate ignored
        let s = m.summary(&Counters::default(), "x");
        assert_eq!(s.flows, 1);
        assert_eq!(s.flows_completed, 1);
        assert!((s.avg_first_packet_latency_us - 15.0).abs() < 1e-9);
        assert!((s.avg_fct_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dense_flow_records_keep_each_flow_once() {
        let (mut m, us) = (Metrics::new(), SimTime::from_micros);
        m.reserve_flows(4);
        m.flow_started(FlowId(2), us(10));
        m.flow_completed(FlowId(2), us(40));
        // A first packet delivered after its flow completed still counts,
        // once.
        m.first_packet_delivered(FlowId(2), us(30));
        m.first_packet_delivered(FlowId(2), us(35));
        // A second completion is ignored.
        m.flow_completed(FlowId(2), us(90));
        // Unstarted flows, and ids past the table, record nothing.
        m.first_packet_delivered(FlowId(1), us(50));
        m.flow_completed(FlowId(3), us(50));
        m.flow_completed(FlowId(9), us(50));
        // An id past the reserved table grows it.
        m.flow_started(FlowId(6), us(20));
        m.flow_started(FlowId(6), us(20));
        let s = m.summary(&Counters::default(), "x");
        assert_eq!(s.flows, 2, "distinct starts");
        assert_eq!(s.flows_completed, 1);
        assert_eq!(m.first_packet_latency_us.count(), 1);
        assert!((s.avg_first_packet_latency_us - 20.0).abs() < 1e-9);
        assert!((s.avg_fct_us - 30.0).abs() < 1e-9);
        assert_eq!(m.flow_table_bytes(), m.flows.capacity() * 16);
    }

    #[test]
    fn layer_shares_sum_to_one() {
        let mut c = Counters::default();
        for _ in 0..7 {
            c.record_cache_hit(Layer::Tor, false);
        }
        for _ in 0..2 {
            c.record_cache_hit(Layer::Spine, true);
        }
        c.record_cache_hit(Layer::Core, true);
        let s = Metrics::new().summary(&c, "x");
        assert!((s.hit_share_tor + s.hit_share_spine + s.hit_share_core - 1.0).abs() < 1e-12);
        assert!((s.hit_share_tor - 0.7).abs() < 1e-12);
        assert!((s.first_hit_share_spine - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.hit_share_core, 0.1);
    }

    #[test]
    fn misdelivery_tracks_latest_arrival() {
        let mut c = Counters::default();
        c.record_misdelivery(SimTime::from_micros(100));
        c.record_misdelivery(SimTime::from_micros(50));
        assert_eq!(c.misdelivered_packets, 2);
        assert_eq!(c.last_misdelivery, Some(SimTime::from_micros(100)));
    }

    #[test]
    fn delivery_records_latency_and_stretch() {
        let mut m = Metrics::new();
        let t0 = SimTime::from_micros(5);
        m.record_delivery(t0, t0 + SimDuration::from_micros(20), 5);
        m.record_delivery(t0, t0 + SimDuration::from_micros(10), 9);
        assert_eq!(m.data_packets_delivered, 2);
        assert!((m.packet_latency_us.mean() - 15.0).abs() < 1e-9);
        assert!((m.stretch.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn per_cause_drops_sum_to_total() {
        let mut c = Counters::default();
        c.record_drop(DropCause::Queue);
        c.record_drop(DropCause::Queue);
        c.record_drop(DropCause::Unroutable);
        c.record_drop(DropCause::Blackout);
        c.record_drop(DropCause::Loss);
        c.record_drop(DropCause::GatewayShed);
        assert_eq!(c.drops, [2, 1, 1, 1, 1]);
        let s = Metrics::new().summary(&c, "x");
        assert_eq!(s.packets_dropped, 6);
        assert_eq!(
            s.packets_dropped,
            s.drops_queue + s.drops_unroutable + s.drops_blackout + s.drops_loss + s.drops_shed
        );
    }

    #[test]
    fn stale_hits_attribute_to_latest_migration() {
        let mut m = Metrics::new();
        let mut c = Counters::default();
        let us = SimTime::from_micros;
        // The caller keeps "latest migration of this VIP"; 9 never migrates.
        let mut latest = FxHashMap::default();
        latest.insert(7, m.record_migration(us(100)));
        let hit = |c: &mut Counters, latest: &FxHashMap<u32, MigrationRef>, vip, at| {
            c.record_stale_hit(latest.get(&vip).copied(), at)
        };
        assert_eq!(hit(&mut c, &latest, 7, us(130)), Some(30_000));
        assert_eq!(hit(&mut c, &latest, 7, us(110)), Some(10_000));
        // A hit on a VIP that never migrated counts but has no age.
        assert_eq!(hit(&mut c, &latest, 9, us(140)), None);
        // A second migration of the same VIP takes over attribution.
        latest.insert(7, m.record_migration(us(200)));
        assert_eq!(hit(&mut c, &latest, 7, us(250)), Some(50_000));
        assert_eq!(c.stale_cache_hits, 4);
        assert_eq!(c.recovery_ns, [30_000, 50_000]);
        let s = m.summary(&c, "x");
        assert_eq!(s.migrations, 2);
        assert_eq!(s.stale_cache_hits, 4);
        // Ages sorted: [10, 30, 50] µs → p50 = 30.
        assert!((s.stale_age_p50_us - 30.0).abs() < 1e-9);
        assert!((s.stale_age_p99_us - 50.0).abs() < 1e-9);
        // Recoveries: 30 µs and 50 µs.
        assert!((s.recovery_avg_us - 40.0).abs() < 1e-9);
        assert!((s.recovery_max_us - 50.0).abs() < 1e-9);
        // The summary sorted a copy: the ledger still holds arrival order.
        assert_eq!(c.stale_age_ns, [30_000, 10_000, 50_000]);
    }

    #[test]
    fn clean_migration_reports_zero_recovery() {
        let mut m = Metrics::new();
        m.record_migration(SimTime::from_micros(50));
        let s = m.summary(&Counters::default(), "x");
        assert_eq!(s.migrations, 1);
        assert_eq!(s.stale_cache_hits, 0);
        assert_eq!(s.recovery_avg_us, 0.0);
        assert_eq!(s.recovery_max_us, 0.0);
    }

    #[test]
    fn fault_annotations_record_time_and_label() {
        let mut m = Metrics::new();
        m.record_fault(SimTime::from_micros(250), "link_down link=3");
        m.record_fault(SimTime::from_micros(900), "link_up link=3");
        assert_eq!(m.fault_events.len(), 2);
        assert!((m.fault_events[0].at_us - 250.0).abs() < 1e-9);
        assert_eq!(m.fault_events[1].label, "link_up link=3");
        assert_eq!(m.summary(&Counters::default(), "x").fault_count, 2);
    }

    #[test]
    fn windowed_series_buckets_by_time() {
        let mut c = Counters::default(); // 100us windows
        c.record_data_sent(SimTime::from_micros(10));
        c.record_data_sent(SimTime::from_micros(20));
        c.record_gateway_packet(SimTime::from_micros(30));
        c.record_data_sent(SimTime::from_micros(150));
        assert_eq!(c.windows.len(), 2);
        assert_eq!(c.windows[0].data_sent, 2);
        assert_eq!(c.windows[0].gateway, 1);
        assert_eq!(c.windows[0].hit_rate(), Some(0.5));
        assert_eq!(c.windows[1].data_sent, 1);
        assert_eq!(c.windows[1].hit_rate(), Some(1.0));
        // Totals stay in sync with the windowed series.
        assert_eq!(c.total.data_sent, 3);
        assert_eq!(c.total.gateway, 1);
    }

    #[test]
    fn recovery_report_finds_recovery_window() {
        let mut c = Counters::default();
        let us = SimTime::from_micros;
        // Pre-fault: two windows at hit rate 1.0.
        for t in [10u64, 110] {
            for _ in 0..10 {
                c.record_data_sent(us(t));
            }
        }
        // Fault [200us, 400us): everything falls back to the gateway.
        for t in [210u64, 310] {
            for _ in 0..10 {
                c.record_data_sent(us(t));
                c.record_gateway_packet(us(t));
            }
        }
        // Post-fault: one degraded window, then recovered.
        for _ in 0..10 {
            c.record_data_sent(us(410));
        }
        for _ in 0..5 {
            c.record_gateway_packet(us(410));
        }
        for _ in 0..10 {
            c.record_data_sent(us(510));
        }
        let r = Metrics::new().recovery_report(&c, us(200), us(400));
        assert!((r.pre_fault_hit_rate - 1.0).abs() < 1e-12);
        assert!((r.during_fault_hit_rate - 0.0).abs() < 1e-12);
        // Window [400,500) has hit rate 0.5 < 0.95; window [500,600) hits
        // 1.0, i.e. 100us after the fault cleared.
        assert_eq!(r.time_to_recover_us, Some(100.0));
    }

    #[test]
    fn recovery_report_fct_degradation() {
        let mut m = Metrics::new();
        let us = SimTime::from_micros;
        m.flow_started(FlowId(0), us(0));
        m.flow_completed(FlowId(0), us(50)); // pre: FCT 50us
        m.flow_started(FlowId(1), us(200));
        m.flow_completed(FlowId(1), us(350)); // during: FCT 150us
        let r = m.recovery_report(&Counters::default(), us(300), us(400));
        assert!((r.pre_fault_avg_fct_us - 50.0).abs() < 1e-9);
        assert!((r.during_fault_avg_fct_us - 150.0).abs() < 1e-9);
        assert!((r.fct_degradation - 3.0).abs() < 1e-9);
    }
}
