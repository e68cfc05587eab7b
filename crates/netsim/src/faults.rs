//! Declarative fault injection: scheduled link/switch/gateway failures and
//! stochastic loss.
//!
//! A [`FaultPlan`] is a time-ordered list of [`FaultEvent`]s that the
//! [`crate::Engine`] consumes through its normal event queue (alongside
//! migrations): every fault has an explicit start and end instant, so a plan
//! can never wedge a run — once the last fault window closes, the network is
//! healthy again and in-flight recovery (TCP RTOs, gateway re-resolution,
//! cache re-learning) drains the queue.
//!
//! The semantics, per event:
//!
//! * [`FaultEvent::SwitchReboot`] — the switch blacks out for `blackout`:
//!   every packet traversing it during the window is dropped
//!   ([`sv2p_metrics::DropCause::Blackout`]). When it comes back it is
//!   cold: its [`sv2p_vnet::SwitchAgent`] is reset, and if it is a ToR the
//!   [`sv2p_vnet::HostAgent`] forgets what its attached servers held (their
//!   vswitches restarted with the rack). This generalizes the instantaneous
//!   [`crate::Engine::fail_switch`] into a scheduled, windowed event.
//! * [`FaultEvent::LinkDown`] — the directed link is excluded from ECMP
//!   next-hop selection; flows rehash onto surviving ports, and a packet
//!   with no surviving port is dropped as
//!   [`sv2p_metrics::DropCause::Unroutable`].
//! * [`FaultEvent::GatewayOutage`] — the gateway drops everything during the
//!   window; unresolved senders ride TCP's RTO until it returns (or their
//!   flow's gateway was unaffected).
//! * [`FaultEvent::LossRate`] — uniform random loss on one link (or all
//!   links) at the given rate, drawn from the simulation's dedicated fault
//!   RNG stream so packet-level determinism is preserved.
//!
//! Windows on the same link or node compose: a link is down, or a node
//! blacked out, while any of its windows is open, and overlapping loss
//! windows add their rates. (A switch still comes back cold at the end of
//! each of its reboot windows.)

use sv2p_simcore::{SimDuration, SimTime};
use sv2p_topology::{LinkId, NodeId};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A switch reboots: blackout while down, cold caches when back.
    SwitchReboot {
        /// The rebooting switch.
        node: NodeId,
        /// When the switch goes dark.
        at: SimTime,
        /// How long the blackout lasts.
        blackout: SimDuration,
    },
    /// A directed link goes down, then comes back.
    LinkDown {
        /// The failed link.
        link: LinkId,
        /// Failure instant.
        at: SimTime,
        /// Restoration instant.
        up_at: SimTime,
    },
    /// A translation gateway is unreachable for a window.
    GatewayOutage {
        /// The failed gateway node.
        node: NodeId,
        /// Outage start.
        at: SimTime,
        /// Outage end.
        up_at: SimTime,
    },
    /// Stochastic loss on one link (`Some`) or the whole fabric (`None`).
    LossRate {
        /// Affected link, or every link when `None`.
        link: Option<LinkId>,
        /// Per-packet loss probability in `[0, 1]`.
        rate: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
}

impl FaultEvent {
    /// The instant the fault takes effect.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::SwitchReboot { at, .. } => at,
            FaultEvent::LinkDown { at, .. } => at,
            FaultEvent::GatewayOutage { at, .. } => at,
            FaultEvent::LossRate { from, .. } => from,
        }
    }

    /// The instant the fault clears.
    pub fn end(&self) -> SimTime {
        match *self {
            FaultEvent::SwitchReboot { at, blackout, .. } => at + blackout,
            FaultEvent::LinkDown { up_at, .. } => up_at,
            FaultEvent::GatewayOutage { up_at, .. } => up_at,
            FaultEvent::LossRate { until, .. } => until,
        }
    }

    /// Human-readable tag for metrics annotations.
    pub fn label(&self) -> String {
        match *self {
            FaultEvent::SwitchReboot { node, .. } => format!("reboot sw{}", node.0),
            FaultEvent::LinkDown { link, .. } => format!("link{} down", link.0),
            FaultEvent::GatewayOutage { node, .. } => format!("gw{} outage", node.0),
            FaultEvent::LossRate { link, rate, .. } => match link {
                Some(l) => format!("loss {rate} on link{}", l.0),
                None => format!("loss {rate} fabric-wide"),
            },
        }
    }

    /// Checks internal consistency (a well-formed window, a sane rate).
    fn validate(&self) -> Result<(), String> {
        if self.end() < self.at() {
            return Err(format!("{}: end precedes start", self.label()));
        }
        if let FaultEvent::LossRate { rate, .. } = *self {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("loss rate {rate} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

/// A validated, time-ordered set of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from events, validating each and ordering by start
    /// time (stable, so same-instant faults keep insertion order — the
    /// determinism contract).
    pub fn from_events(events: impl IntoIterator<Item = FaultEvent>) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for ev in events {
            plan.push(ev)?;
        }
        Ok(plan)
    }

    /// Adds one fault, keeping the plan ordered by start time.
    pub fn push(&mut self, ev: FaultEvent) -> Result<(), String> {
        ev.validate()?;
        // Stable insertion: after the last event starting at or before it.
        let pos = self.events.partition_point(|e| e.at() <= ev.at());
        self.events.insert(pos, ev);
        Ok(())
    }

    /// The ordered events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    #[test]
    fn plan_orders_by_start_time_stably() {
        let plan = FaultPlan::from_events([
            FaultEvent::LinkDown {
                link: LinkId(3),
                at: us(50),
                up_at: us(60),
            },
            FaultEvent::SwitchReboot {
                node: NodeId(1),
                at: us(10),
                blackout: SimDuration::from_micros(5),
            },
            FaultEvent::GatewayOutage {
                node: NodeId(9),
                at: us(10),
                up_at: us(20),
            },
        ])
        .unwrap();
        let starts: Vec<u64> = plan.events().iter().map(|e| e.at().as_nanos()).collect();
        assert_eq!(starts, vec![10_000, 10_000, 50_000]);
        // Same-instant events keep insertion order.
        assert!(matches!(plan.events()[0], FaultEvent::SwitchReboot { .. }));
        assert!(matches!(plan.events()[1], FaultEvent::GatewayOutage { .. }));
    }

    #[test]
    fn invalid_windows_and_rates_are_rejected() {
        assert!(FaultPlan::from_events([FaultEvent::LinkDown {
            link: LinkId(0),
            at: us(10),
            up_at: us(5),
        }])
        .is_err());
        assert!(FaultPlan::from_events([FaultEvent::LossRate {
            link: None,
            rate: 1.5,
            from: us(0),
            until: us(10),
        }])
        .is_err());
        assert!(FaultPlan::from_events([FaultEvent::LossRate {
            link: None,
            rate: -0.1,
            from: us(0),
            until: us(10),
        }])
        .is_err());
    }

    #[test]
    fn event_windows_and_labels() {
        let ev = FaultEvent::SwitchReboot {
            node: NodeId(4),
            at: us(100),
            blackout: SimDuration::from_micros(25),
        };
        assert_eq!(ev.at(), us(100));
        assert_eq!(ev.end(), us(125));
        assert_eq!(ev.label(), "reboot sw4");

        let loss = FaultEvent::LossRate {
            link: None,
            rate: 0.001,
            from: us(0),
            until: us(500),
        };
        assert_eq!(loss.end(), us(500));
        assert!(loss.label().contains("fabric-wide"));
    }

    #[test]
    fn zero_length_windows_are_legal() {
        // An instantaneous reboot is the old fail_switch semantics.
        let plan = FaultPlan::from_events([FaultEvent::SwitchReboot {
            node: NodeId(0),
            at: us(10),
            blackout: SimDuration::ZERO,
        }])
        .unwrap();
        assert_eq!(plan.len(), 1);
    }
}
