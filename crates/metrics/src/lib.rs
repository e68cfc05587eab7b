//! Metrics collection for simulation runs.
//!
//! Records every quantity the paper's evaluation reports (Table 2's rows):
//! flow completion times, first-packet latency, cache hit rate and its
//! per-layer distribution (Table 5), per-switch and per-pod byte counts
//! (Figures 7–8), packet stretch, gateway load, misdelivery and
//! invalidation accounting for the migration study (Table 4), and
//! reordering (§4).
//!
//! [`Metrics`] is the recording surface the simulator writes into;
//! [`RunSummary`] is the derived, serializable result the harness consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use sv2p_packet::{FlowId, SwitchTag};
use sv2p_simcore::stats::{Percentiles, Running};
use sv2p_simcore::{FxHashMap, SimTime};

/// Default recovery-series window: 100 µs of virtual time.
pub const DEFAULT_WINDOW_NS: u64 = 100_000;

pub use sv2p_topology::Layer;

/// Static description of one switch, registered up front.
#[derive(Debug, Clone, Copy)]
pub struct SwitchInfo {
    /// Its layer.
    pub layer: Layer,
    /// Its pod (`None` for cores).
    pub pod: Option<u16>,
}

/// Per-flow in-progress record.
#[derive(Debug, Clone, Copy)]
struct FlowRecord {
    started: SimTime,
    completed: Option<SimTime>,
    first_pkt_latency: Option<f64>,
}

/// Why a tenant data packet was dropped (per-cause breakdown of
/// [`Metrics::packets_dropped`]).
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

/// One VM migration and the stale-cache exposure it caused, in migration
/// order. `last_stale_ns` starts at the migration instant, so a migration
/// nobody's cache was stale for reports a recovery time of zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MigrationEvent {
    /// Raw VIP key of the migrated VM.
    pub vip: u32,
    /// When the mapping changed, virtual nanoseconds.
    pub at_ns: u64,
    /// Cache hits served from a stale entry for this VIP after this
    /// migration (and before any later migration of the same VIP).
    pub stale_hits: u64,
    /// Virtual time of the last such stale hit — `last_stale_ns - at_ns`
    /// is the recovery time: how long the network kept acting on the old
    /// mapping.
    pub last_stale_ns: u64,
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

/// Per-window counters backing the recovery metrics.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct WindowStat {
    /// Data packets handed to the network in this window.
    pub data_sent: u64,
    /// Data packets that reached a gateway in this window.
    pub gateway: u64,
    /// Sum of FCTs (µs) of flows completing in this window.
    pub fct_sum_us: f64,
    /// Flows completing in this window.
    pub fct_count: u64,
}

impl WindowStat {
    /// Window-local hit rate (1 − gateway share); `None` with no traffic.
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

/// The recording surface.
#[derive(Debug, Default)]
pub struct Metrics {
    switches: Vec<SwitchInfo>,
    /// Bytes processed per switch (a packet counts at every switch it
    /// traverses, matching Figure 7's counting rule).
    pub bytes_by_switch: Vec<u64>,
    flows: FxHashMap<FlowId, FlowRecord>,

    /// Tenant data packets handed to the network by senders.
    pub data_packets_sent: u64,
    /// Tenant data packets delivered to their (correct) destination VM.
    pub data_packets_delivered: u64,
    /// Tenant data packets dropped anywhere (sum of the per-cause counters).
    pub packets_dropped: u64,
    /// Drops from full queues (link buffers, agent control-plane queues).
    pub drops_queue: u64,
    /// Drops for lack of a usable route.
    pub drops_unroutable: u64,
    /// Drops inside a switch/gateway blackout window.
    pub drops_blackout: u64,
    /// Drops from injected stochastic loss.
    pub drops_loss: u64,
    /// Drops shed by overloaded gateways (bounded ingress queue full).
    pub drops_shed: u64,
    /// Tenant data packets that were processed by a translation gateway.
    pub gateway_packets: u64,
    /// Tenant data packets that a switch cache resolved.
    pub cache_hits: u64,
    /// Cache hits by switch layer.
    pub hits_by_layer: FxHashMap<Layer, u64>,
    /// Cache hits of flow-first packets, by layer.
    pub first_hits_by_layer: FxHashMap<Layer, u64>,
    /// First packets sent (denominator for first-packet hit shares).
    pub first_packets_sent: u64,

    /// Switch hops per delivered packet (packet stretch, §5.3).
    pub stretch: Running,
    /// End-to-end latency per delivered data packet, microseconds.
    pub packet_latency_us: Running,
    /// Flow-first-packet end-to-end latency, microseconds.
    pub first_packet_latency_us: Percentiles,
    /// Completed-flow FCTs, microseconds.
    pub fct_us: Percentiles,

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
    /// Reordered segment observations summed over receivers.
    pub reordered_segments: u64,
    /// TCP retransmissions summed over senders.
    pub retransmissions: u64,

    /// Cache hits that served a mapping disagreeing with the ground-truth
    /// database (misdelivery exposure).
    pub stale_cache_hits: u64,
    /// Age of the stale entry at each attributable stale hit, nanoseconds
    /// since the migration that invalidated it. Sorted lazily by
    /// [`Metrics::summary`] for the exposure percentiles.
    pub stale_age_ns: Vec<u64>,
    /// Every migration with its stale-exposure accounting, in registration
    /// order (index-aligned between the master recorder and every shard's,
    /// so the fold zip-merges them).
    pub migration_events: Vec<MigrationEvent>,
    /// VIP key → index of its latest entry in `migration_events`, for
    /// attributing stale hits.
    stale_attr: FxHashMap<u32, usize>,
    /// Churn tenants that arrived (master-only: churn marks execute on the
    /// driver and are never broadcast).
    pub churn_arrivals: u64,
    /// Churn tenants that departed (master-only).
    pub churn_departures: u64,
    /// Rolling migration waves that started (master-only).
    pub migration_waves: u64,

    /// Injected faults, in injection order.
    pub fault_events: Vec<FaultAnnotation>,
    /// Windowed traffic series feeding [`Metrics::recovery_report`];
    /// window `i` covers `[i*window_ns, (i+1)*window_ns)`.
    pub windows: Vec<WindowStat>,
    /// Recovery-series window length in nanoseconds (0 ⇒
    /// [`DEFAULT_WINDOW_NS`]).
    pub window_ns: u64,
}

impl Metrics {
    /// Creates the recorder; switches must be registered before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers switch `tag` (tags must be dense, registered in order).
    pub fn register_switch(&mut self, tag: SwitchTag, info: SwitchInfo) {
        assert_eq!(tag.0 as usize, self.switches.len(), "tags must be dense");
        self.switches.push(info);
        self.bytes_by_switch.push(0);
    }

    /// Number of registered switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// A packet of `bytes` traversed switch `tag`.
    pub fn record_switch_bytes(&mut self, tag: SwitchTag, bytes: u32) {
        self.bytes_by_switch[tag.0 as usize] += bytes as u64;
    }

    /// A switch cache resolved a packet.
    pub fn record_cache_hit(&mut self, tag: SwitchTag, first_of_flow: bool) {
        self.cache_hits += 1;
        let layer = self.switches[tag.0 as usize].layer;
        *self.hits_by_layer.entry(layer).or_insert(0) += 1;
        if first_of_flow {
            *self.first_hits_by_layer.entry(layer).or_insert(0) += 1;
        }
    }

    /// A flow's first packet entered the network.
    pub fn flow_started(&mut self, flow: FlowId, now: SimTime) {
        self.flows.insert(
            flow,
            FlowRecord {
                started: now,
                completed: None,
                first_pkt_latency: None,
            },
        );
        self.first_packets_sent += 1;
    }

    /// A flow's first packet reached its destination.
    pub fn first_packet_delivered(&mut self, flow: FlowId, now: SimTime) {
        if let Some(rec) = self.flows.get_mut(&flow) {
            if rec.first_pkt_latency.is_none() {
                let lat = now.saturating_since(rec.started).as_micros_f64();
                rec.first_pkt_latency = Some(lat);
                self.first_packet_latency_us.push(lat);
            }
        }
    }

    /// A flow finished (all bytes acked / last datagram delivered).
    pub fn flow_completed(&mut self, flow: FlowId, now: SimTime) {
        let fct = match self.flows.get_mut(&flow) {
            Some(rec) if rec.completed.is_none() => {
                rec.completed = Some(now);
                now.saturating_since(rec.started).as_micros_f64()
            }
            _ => return,
        };
        self.fct_us.push(fct);
        let win = self.window_mut(now);
        win.fct_sum_us += fct;
        win.fct_count += 1;
    }

    /// A data packet was delivered; records latency and stretch.
    pub fn record_delivery(&mut self, sent_at: SimTime, now: SimTime, switch_hops: u16) {
        self.data_packets_delivered += 1;
        self.packet_latency_us
            .push(now.saturating_since(sent_at).as_micros_f64());
        self.stretch.push(switch_hops as f64);
    }

    /// Effective recovery-series window length in nanoseconds.
    pub fn window_len_ns(&self) -> u64 {
        if self.window_ns == 0 {
            DEFAULT_WINDOW_NS
        } else {
            self.window_ns
        }
    }

    fn window_mut(&mut self, now: SimTime) -> &mut WindowStat {
        let idx = (now.as_nanos() / self.window_len_ns()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowStat::default());
        }
        &mut self.windows[idx]
    }

    /// A tenant data packet entered the network.
    pub fn record_data_sent(&mut self, now: SimTime) {
        self.data_packets_sent += 1;
        self.window_mut(now).data_sent += 1;
    }

    /// A tenant data packet reached a translation gateway.
    pub fn record_gateway_packet(&mut self, now: SimTime) {
        self.gateway_packets += 1;
        self.window_mut(now).gateway += 1;
    }

    /// A tenant data packet was dropped for `cause`.
    pub fn record_drop(&mut self, cause: DropCause) {
        self.packets_dropped += 1;
        match cause {
            DropCause::Queue => self.drops_queue += 1,
            DropCause::Unroutable => self.drops_unroutable += 1,
            DropCause::Blackout => self.drops_blackout += 1,
            DropCause::Loss => self.drops_loss += 1,
            DropCause::GatewayShed => self.drops_shed += 1,
        }
    }

    /// Records that `vip_key` migrated at `at` (its scheduled instant, the
    /// same on every recorder whatever the shard count). Later stale hits on the VIP attribute to this entry.
    pub fn record_migration(&mut self, vip_key: u32, at: SimTime) {
        let idx = self.migration_events.len();
        self.migration_events.push(MigrationEvent {
            vip: vip_key,
            at_ns: at.as_nanos(),
            stale_hits: 0,
            last_stale_ns: at.as_nanos(),
        });
        self.stale_attr.insert(vip_key, idx);
    }

    /// A cache hit served a stale mapping for `vip_key` at `now`. Returns
    /// the stale entry's age (ns since the migration that invalidated it)
    /// when the hit attributes to a recorded migration.
    pub fn record_stale_hit(&mut self, vip_key: u32, now: SimTime) -> Option<u64> {
        self.stale_cache_hits += 1;
        let &idx = self.stale_attr.get(&vip_key)?;
        let ev = &mut self.migration_events[idx];
        let age = now.as_nanos().saturating_sub(ev.at_ns);
        ev.stale_hits += 1;
        ev.last_stale_ns = ev.last_stale_ns.max(now.as_nanos());
        self.stale_age_ns.push(age);
        Some(age)
    }

    /// Records an injected fault so time series can be aligned to it.
    pub fn record_fault(&mut self, now: SimTime, label: impl Into<String>) {
        self.fault_events.push(FaultAnnotation {
            at_us: now.as_micros_f64(),
            label: label.into(),
        });
    }

    /// Analyzes recovery relative to the fault window `[fault_at,
    /// fault_end)` using the windowed series.
    pub fn recovery_report(&self, fault_at: SimTime, fault_end: SimTime) -> RecoveryReport {
        let w = self.window_len_ns();
        // Complete windows strictly before the fault.
        let pre_end = (fault_at.as_nanos() / w) as usize;
        // First window entirely after the fault cleared.
        let post_start = (fault_end.as_nanos().div_ceil(w)) as usize;

        let mean_hit = |range: &[WindowStat]| -> f64 {
            let (mut sent, mut gw) = (0u64, 0u64);
            for s in range {
                sent += s.data_sent;
                gw += s.gateway;
            }
            if sent == 0 {
                0.0
            } else {
                1.0 - gw as f64 / sent as f64
            }
        };
        let mean_fct = |range: &[WindowStat]| -> f64 {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for s in range {
                sum += s.fct_sum_us;
                n += s.fct_count;
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };

        let all = &self.windows[..];
        let pre = &all[..pre_end.min(all.len())];
        let during = &all[pre_end.min(all.len())..post_start.min(all.len())];
        let post = &all[post_start.min(all.len())..];

        let pre_hit = mean_hit(pre);
        let pre_fct = mean_fct(pre);
        let during_fct = mean_fct(during);
        let fct_degradation = if pre_fct > 0.0 && during_fct > 0.0 {
            during_fct / pre_fct
        } else {
            1.0
        };

        // Time to recover: first post-fault window with traffic whose hit
        // rate reaches 95 % of the pre-fault rate.
        let threshold = 0.95 * pre_hit;
        let mut time_to_recover_us = None;
        for (i, s) in all.iter().enumerate().skip(post_start) {
            if let Some(h) = s.hit_rate() {
                if h >= threshold {
                    let win_start_ns = i as u64 * w;
                    let delta_ns = win_start_ns.saturating_sub(fault_end.as_nanos());
                    time_to_recover_us = Some(delta_ns as f64 / 1_000.0);
                    break;
                }
            }
        }

        RecoveryReport {
            pre_fault_hit_rate: pre_hit,
            during_fault_hit_rate: mean_hit(during),
            post_fault_hit_rate: mean_hit(post),
            pre_fault_avg_fct_us: pre_fct,
            during_fault_avg_fct_us: during_fct,
            post_fault_avg_fct_us: mean_fct(post),
            fct_degradation,
            time_to_recover_us,
        }
    }

    /// A packet arrived at a host that no longer hosts the destination VM.
    pub fn record_misdelivery(&mut self, now: SimTime) {
        self.misdelivered_packets += 1;
        self.last_misdelivery = Some(match self.last_misdelivery {
            Some(t) => t.max(now),
            None => now,
        });
    }

    /// Folds a shard-local recorder into this master recorder.
    ///
    /// The sharded engine splits metrics in two: order-sensitive streams
    /// (deliveries, flow lifecycle, faults) replay on the master in exact
    /// global order, while order-free counters accumulate shard-locally
    /// and are summed here at finalization. This method therefore touches
    /// **only** commutative fields; everything order-sensitive on `other`
    /// (the flows map, latency/stretch accumulators, fct windows, fault
    /// annotations) is intentionally ignored — the master already holds
    /// the authoritative copy.
    pub fn absorb_shard(&mut self, other: &Metrics) {
        for (b, &o) in self.bytes_by_switch.iter_mut().zip(&other.bytes_by_switch) {
            *b += o;
        }
        self.data_packets_sent += other.data_packets_sent;
        self.packets_dropped += other.packets_dropped;
        self.drops_queue += other.drops_queue;
        self.drops_unroutable += other.drops_unroutable;
        self.drops_blackout += other.drops_blackout;
        self.drops_loss += other.drops_loss;
        self.drops_shed += other.drops_shed;
        self.gateway_packets += other.gateway_packets;
        self.cache_hits += other.cache_hits;
        for (&l, &n) in &other.hits_by_layer {
            *self.hits_by_layer.entry(l).or_insert(0) += n;
        }
        for (&l, &n) in &other.first_hits_by_layer {
            *self.first_hits_by_layer.entry(l).or_insert(0) += n;
        }
        self.misdelivered_packets += other.misdelivered_packets;
        self.last_misdelivery = match (self.last_misdelivery, other.last_misdelivery) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.invalidation_packets += other.invalidation_packets;
        self.learning_packets += other.learning_packets;
        self.spillover_inserts += other.spillover_inserts;
        self.promotion_inserts += other.promotion_inserts;
        self.stale_cache_hits += other.stale_cache_hits;
        self.stale_age_ns.extend_from_slice(&other.stale_age_ns);
        // Every shard's recorder opens one entry per migration, in the
        // same order, so per-migration exposure merges index-wise.
        debug_assert!(other.migration_events.len() <= self.migration_events.len());
        for (ev, o) in self.migration_events.iter_mut().zip(&other.migration_events) {
            ev.stale_hits += o.stale_hits;
            ev.last_stale_ns = ev.last_stale_ns.max(o.last_stale_ns);
        }
        if other.windows.len() > self.windows.len() {
            self.windows
                .resize(other.windows.len(), WindowStat::default());
        }
        for (w, o) in self.windows.iter_mut().zip(&other.windows) {
            w.data_sent += o.data_sent;
            w.gateway += o.gateway;
        }
    }

    /// Fraction of data packets that avoided the gateways ("the fraction of
    /// all sent packets that do not reach the gateways", §5.1).
    pub fn hit_rate(&self) -> f64 {
        if self.data_packets_sent == 0 {
            return 0.0;
        }
        1.0 - self.gateway_packets as f64 / self.data_packets_sent as f64
    }

    /// Total bytes processed by all switches in `pod`.
    pub fn pod_bytes(&self, pod: u16) -> u64 {
        self.switches
            .iter()
            .zip(&self.bytes_by_switch)
            .filter(|(s, _)| s.pod == Some(pod))
            .map(|(_, &b)| b)
            .sum()
    }

    /// Total bytes processed by all switches (network load proxy, §5.3).
    pub fn total_switch_bytes(&self) -> u64 {
        self.bytes_by_switch.iter().sum()
    }

    /// Completed flow count.
    pub fn flows_completed(&self) -> usize {
        self.flows.values().filter(|f| f.completed.is_some()).count()
    }

    /// Derives the serializable summary.
    pub fn summary(&mut self, name: &str) -> RunSummary {
        let layer_share = |map: &FxHashMap<Layer, u64>| {
            let total: u64 = map.values().sum();
            let pct = |l: Layer| {
                if total == 0 {
                    0.0
                } else {
                    *map.get(&l).unwrap_or(&0) as f64 / total as f64
                }
            };
            (pct(Layer::Core), pct(Layer::Spine), pct(Layer::Tor))
        };
        let (hit_core, hit_spine, hit_tor) = layer_share(&self.hits_by_layer);
        let (fhit_core, fhit_spine, fhit_tor) = layer_share(&self.first_hits_by_layer);
        self.stale_age_ns.sort_unstable();
        let age_q = |q: f64| -> f64 {
            if self.stale_age_ns.is_empty() {
                return 0.0;
            }
            let idx = ((self.stale_age_ns.len() - 1) as f64 * q).round() as usize;
            self.stale_age_ns[idx] as f64 / 1_000.0
        };
        let recoveries = self
            .migration_events
            .iter()
            .map(|ev| ev.last_stale_ns.saturating_sub(ev.at_ns) as f64 / 1_000.0);
        let recovery_max_us = recoveries.clone().fold(0.0f64, f64::max);
        let recovery_avg_us = if self.migration_events.is_empty() {
            0.0
        } else {
            recoveries.sum::<f64>() / self.migration_events.len() as f64
        };
        RunSummary {
            name: name.to_string(),
            flows: self.flows.len() as u64,
            flows_completed: self.flows_completed() as u64,
            data_packets_sent: self.data_packets_sent,
            data_packets_delivered: self.data_packets_delivered,
            packets_dropped: self.packets_dropped,
            drops_queue: self.drops_queue,
            drops_unroutable: self.drops_unroutable,
            drops_blackout: self.drops_blackout,
            drops_loss: self.drops_loss,
            drops_shed: self.drops_shed,
            fault_count: self.fault_events.len() as u64,
            gateway_packets: self.gateway_packets,
            hit_rate: self.hit_rate(),
            avg_fct_us: self.fct_us.mean(),
            p99_fct_us: self.fct_us.quantile(0.99),
            avg_first_packet_latency_us: self.first_packet_latency_us.mean(),
            p99_first_packet_latency_us: self.first_packet_latency_us.quantile(0.99),
            avg_packet_latency_us: self.packet_latency_us.mean(),
            avg_stretch: self.stretch.mean(),
            total_switch_bytes: self.total_switch_bytes(),
            misdelivered_packets: self.misdelivered_packets,
            last_misdelivery_us: self.last_misdelivery.map(|t| t.as_micros_f64()),
            invalidation_packets: self.invalidation_packets,
            learning_packets: self.learning_packets,
            reordered_segments: self.reordered_segments,
            retransmissions: self.retransmissions,
            hit_share_core: hit_core,
            hit_share_spine: hit_spine,
            hit_share_tor: hit_tor,
            first_hit_share_core: fhit_core,
            first_hit_share_spine: fhit_spine,
            first_hit_share_tor: fhit_tor,
            migrations: self.migration_events.len() as u64,
            churn_arrivals: self.churn_arrivals,
            churn_departures: self.churn_departures,
            migration_waves: self.migration_waves,
            stale_cache_hits: self.stale_cache_hits,
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
    use sv2p_simcore::SimDuration;

    fn recorder_with_switches() -> Metrics {
        let mut m = Metrics::new();
        m.register_switch(
            SwitchTag(0),
            SwitchInfo {
                layer: Layer::Tor,
                pod: Some(0),
            },
        );
        m.register_switch(
            SwitchTag(1),
            SwitchInfo {
                layer: Layer::Spine,
                pod: Some(0),
            },
        );
        m.register_switch(
            SwitchTag(2),
            SwitchInfo {
                layer: Layer::Core,
                pod: None,
            },
        );
        m
    }

    #[test]
    fn hit_rate_is_one_minus_gateway_share() {
        let mut m = Metrics::new();
        m.data_packets_sent = 100;
        m.gateway_packets = 25;
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
        let empty = Metrics::new();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn pod_bytes_filters_by_pod() {
        let mut m = recorder_with_switches();
        m.record_switch_bytes(SwitchTag(0), 100);
        m.record_switch_bytes(SwitchTag(1), 200);
        m.record_switch_bytes(SwitchTag(2), 400);
        assert_eq!(m.pod_bytes(0), 300);
        assert_eq!(m.pod_bytes(1), 0);
        assert_eq!(m.total_switch_bytes(), 700);
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
        let s = m.summary("x");
        assert_eq!(s.flows, 1);
        assert_eq!(s.flows_completed, 1);
        assert!((s.avg_first_packet_latency_us - 15.0).abs() < 1e-9);
        assert!((s.avg_fct_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn layer_shares_sum_to_one() {
        let mut m = recorder_with_switches();
        for _ in 0..7 {
            m.record_cache_hit(SwitchTag(0), false);
        }
        for _ in 0..2 {
            m.record_cache_hit(SwitchTag(1), true);
        }
        m.record_cache_hit(SwitchTag(2), true);
        let s = m.summary("x");
        assert!((s.hit_share_tor + s.hit_share_spine + s.hit_share_core - 1.0).abs() < 1e-12);
        assert!((s.hit_share_tor - 0.7).abs() < 1e-12);
        assert!((s.first_hit_share_spine - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.hit_share_core, 0.1);
    }

    #[test]
    fn misdelivery_tracks_latest_arrival() {
        let mut m = Metrics::new();
        m.record_misdelivery(SimTime::from_micros(100));
        m.record_misdelivery(SimTime::from_micros(50));
        assert_eq!(m.misdelivered_packets, 2);
        assert_eq!(m.last_misdelivery, Some(SimTime::from_micros(100)));
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
        let mut m = Metrics::new();
        m.record_drop(DropCause::Queue);
        m.record_drop(DropCause::Queue);
        m.record_drop(DropCause::Unroutable);
        m.record_drop(DropCause::Blackout);
        m.record_drop(DropCause::Loss);
        m.record_drop(DropCause::GatewayShed);
        assert_eq!(m.packets_dropped, 6);
        assert_eq!(m.drops_queue, 2);
        assert_eq!(m.drops_unroutable, 1);
        assert_eq!(m.drops_blackout, 1);
        assert_eq!(m.drops_loss, 1);
        assert_eq!(m.drops_shed, 1);
        let s = m.summary("x");
        assert_eq!(
            s.packets_dropped,
            s.drops_queue + s.drops_unroutable + s.drops_blackout + s.drops_loss + s.drops_shed
        );
    }

    #[test]
    fn stale_hits_attribute_to_latest_migration() {
        let mut m = Metrics::new();
        let us = SimTime::from_micros;
        m.record_migration(7, us(100));
        assert_eq!(m.record_stale_hit(7, us(130)), Some(30_000));
        assert_eq!(m.record_stale_hit(7, us(110)), Some(10_000));
        // A hit on a VIP that never migrated counts but has no age.
        assert_eq!(m.record_stale_hit(9, us(140)), None);
        // A second migration of the same VIP takes over attribution.
        m.record_migration(7, us(200));
        assert_eq!(m.record_stale_hit(7, us(250)), Some(50_000));
        assert_eq!(m.stale_cache_hits, 4);
        assert_eq!(m.migration_events[0].stale_hits, 2);
        assert_eq!(m.migration_events[0].last_stale_ns, 130_000);
        assert_eq!(m.migration_events[1].stale_hits, 1);
        let s = m.summary("x");
        assert_eq!(s.migrations, 2);
        assert_eq!(s.stale_cache_hits, 4);
        // Ages sorted: [10, 30, 50] µs → p50 = 30.
        assert!((s.stale_age_p50_us - 30.0).abs() < 1e-9);
        assert!((s.stale_age_p99_us - 50.0).abs() < 1e-9);
        // Recoveries: 30 µs and 50 µs.
        assert!((s.recovery_avg_us - 40.0).abs() < 1e-9);
        assert!((s.recovery_max_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn clean_migration_reports_zero_recovery() {
        let mut m = Metrics::new();
        m.record_migration(1, SimTime::from_micros(50));
        let s = m.summary("x");
        assert_eq!(s.migrations, 1);
        assert_eq!(s.stale_cache_hits, 0);
        assert_eq!(s.recovery_avg_us, 0.0);
        assert_eq!(s.recovery_max_us, 0.0);
    }

    #[test]
    fn absorb_shard_merges_stale_exposure() {
        let mut master = Metrics::new();
        let us = SimTime::from_micros;
        master.record_migration(7, us(100));
        let mut shard = Metrics::new();
        shard.record_migration(7, us(100));
        shard.record_stale_hit(7, us(160));
        shard.record_drop(DropCause::GatewayShed);
        master.absorb_shard(&shard);
        assert_eq!(master.stale_cache_hits, 1);
        assert_eq!(master.stale_age_ns, vec![60_000]);
        assert_eq!(master.migration_events[0].stale_hits, 1);
        assert_eq!(master.migration_events[0].last_stale_ns, 160_000);
        assert_eq!(master.drops_shed, 1);
    }

    #[test]
    fn fault_annotations_record_time_and_label() {
        let mut m = Metrics::new();
        m.record_fault(SimTime::from_micros(250), "link_down link=3");
        m.record_fault(SimTime::from_micros(900), "link_up link=3");
        assert_eq!(m.fault_events.len(), 2);
        assert!((m.fault_events[0].at_us - 250.0).abs() < 1e-9);
        assert_eq!(m.fault_events[1].label, "link_up link=3");
        assert_eq!(m.summary("x").fault_count, 2);
    }

    #[test]
    fn windowed_series_buckets_by_time() {
        let mut m = Metrics::new(); // 100us default window
        m.record_data_sent(SimTime::from_micros(10));
        m.record_data_sent(SimTime::from_micros(20));
        m.record_gateway_packet(SimTime::from_micros(30));
        m.record_data_sent(SimTime::from_micros(150));
        assert_eq!(m.windows.len(), 2);
        assert_eq!(m.windows[0].data_sent, 2);
        assert_eq!(m.windows[0].gateway, 1);
        assert_eq!(m.windows[0].hit_rate(), Some(0.5));
        assert_eq!(m.windows[1].data_sent, 1);
        assert_eq!(m.windows[1].hit_rate(), Some(1.0));
        // Totals stay in sync with the windowed series.
        assert_eq!(m.data_packets_sent, 3);
        assert_eq!(m.gateway_packets, 1);
    }

    #[test]
    fn recovery_report_finds_recovery_window() {
        let mut m = Metrics::new();
        let us = SimTime::from_micros;
        // Pre-fault: two windows at hit rate 1.0.
        for t in [10u64, 110] {
            for _ in 0..10 {
                m.record_data_sent(us(t));
            }
        }
        // Fault [200us, 400us): everything falls back to the gateway.
        for t in [210u64, 310] {
            for _ in 0..10 {
                m.record_data_sent(us(t));
                m.record_gateway_packet(us(t));
            }
        }
        // Post-fault: one degraded window, then recovered.
        for _ in 0..10 {
            m.record_data_sent(us(410));
        }
        for _ in 0..5 {
            m.record_gateway_packet(us(410));
        }
        for _ in 0..10 {
            m.record_data_sent(us(510));
        }
        let r = m.recovery_report(us(200), us(400));
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
        let r = m.recovery_report(us(300), us(400));
        assert!((r.pre_fault_avg_fct_us - 50.0).abs() < 1e-9);
        assert!((r.during_fault_avg_fct_us - 150.0).abs() < 1e-9);
        assert!((r.fct_degradation - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_switch_tags_panic() {
        let mut m = Metrics::new();
        m.register_switch(
            SwitchTag(3),
            SwitchInfo {
                layer: Layer::Tor,
                pod: None,
            },
        );
    }
}
