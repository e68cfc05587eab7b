//! The control-plane request/response vocabulary.
//!
//! Every interaction with the served V2P control plane — over
//! `sv2p-ctld`'s TCP front-end or in-process against
//! [`crate::StripedControlPlane`] — is a
//! [`RequestBatch`] of [`CtlOp`]s answered by a [`ReplyBatch`] of
//! [`CtlReply`]s, one reply per op in order. Responses are *epoch-versioned*:
//! the batch carries the database epoch observed after the last op executed,
//! so clients can order what they saw against other writers.

use sv2p_packet::{Pip, Vip};
use sv2p_vnet::{ApplyError, MappingOp};

/// One control-plane operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlOp {
    /// Resolve a VIP (gateway read path).
    Lookup {
        /// The virtual address to resolve.
        vip: Vip,
    },
    /// Install or overwrite a mapping.
    Install {
        /// The virtual address being placed.
        vip: Vip,
        /// Its physical location.
        pip: Pip,
    },
    /// Withdraw a mapping.
    Invalidate {
        /// The virtual address being withdrawn.
        vip: Vip,
    },
    /// Move an existing mapping, optionally stamping the migration instant
    /// (virtual ns) for staleness accounting.
    Migrate {
        /// The migrating virtual address.
        vip: Vip,
        /// Destination physical address.
        to_pip: Pip,
        /// Migration instant, if tracked.
        at_ns: Option<u64>,
    },
    /// Dump the full table (sorted by VIP — deterministic).
    Snapshot,
    /// Fetch the service's cumulative counters.
    Stats,
}

impl CtlOp {
    /// The VIP a keyed op touches; `None` for `Snapshot` and `Stats`, which
    /// read the whole table and act as barriers within a batch.
    pub fn vip(&self) -> Option<Vip> {
        match *self {
            CtlOp::Lookup { vip }
            | CtlOp::Install { vip, .. }
            | CtlOp::Invalidate { vip }
            | CtlOp::Migrate { vip, .. } => Some(vip),
            CtlOp::Snapshot | CtlOp::Stats => None,
        }
    }

    /// The mutation this op performs, if it is a write.
    pub fn as_mapping_op(&self) -> Option<MappingOp> {
        match *self {
            CtlOp::Install { vip, pip } => Some(MappingOp::Install { vip, pip }),
            CtlOp::Invalidate { vip } => Some(MappingOp::Invalidate { vip }),
            CtlOp::Migrate { vip, to_pip, at_ns } => {
                Some(MappingOp::Migrate { vip, to_pip, at_ns })
            }
            CtlOp::Lookup { .. } | CtlOp::Snapshot | CtlOp::Stats => None,
        }
    }
}

/// A batch of operations, answered as if executed in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RequestBatch {
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub id: u64,
    /// The operations. The replies are those of executing them front to
    /// back; the server may run ops on different VIPs in another order
    /// (`StripedControlPlane::execute_shared` says which), but never
    /// reorders two ops on one VIP, nor an op across a `Snapshot` or
    /// `Stats`.
    pub ops: Vec<CtlOp>,
}

impl RequestBatch {
    /// A batch with the given correlation id and no ops yet.
    pub fn new(id: u64) -> Self {
        RequestBatch {
            id,
            ops: Vec::new(),
        }
    }
}

/// Why a write was rejected. Wire-stable: each variant has a fixed code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A `Migrate` named a VIP that was never placed.
    UnknownVip,
}

impl RejectReason {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            RejectReason::UnknownVip => 0,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(RejectReason::UnknownVip),
            _ => None,
        }
    }
}

impl From<ApplyError> for RejectReason {
    fn from(e: ApplyError) -> Self {
        match e {
            ApplyError::UnknownVip(_) => RejectReason::UnknownVip,
        }
    }
}

/// Cumulative service counters, as returned by [`CtlOp::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Request batches executed.
    pub batches: u64,
    /// Total ops executed (all kinds).
    pub ops: u64,
    /// Lookup ops served.
    pub lookups: u64,
    /// Lookups that resolved.
    pub hits: u64,
    /// Installs applied.
    pub installs: u64,
    /// Invalidations applied.
    pub invalidates: u64,
    /// Migrations applied.
    pub migrates: u64,
    /// Writes rejected.
    pub rejected: u64,
    /// Snapshot ops served.
    pub snapshots: u64,
    /// Database epoch at the time of the stats read.
    pub epoch: u64,
    /// Live mappings at the time of the stats read.
    pub mappings: u64,
    /// p50 of per-batch service time, nanoseconds (0 when untimed).
    pub exec_p50_ns: u64,
    /// p99 of per-batch service time, nanoseconds (0 when untimed).
    pub exec_p99_ns: u64,
}

/// One reply, positionally matched to the request op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlReply {
    /// Lookup resolved.
    Found {
        /// The current physical location.
        pip: Pip,
    },
    /// Lookup found no mapping.
    NotFound,
    /// A write was applied; `old`/`new` mirror [`sv2p_vnet::MappingDelta`].
    Applied {
        /// The mapping before the write.
        old: Option<Pip>,
        /// The mapping after the write.
        new: Option<Pip>,
    },
    /// A write was rejected; the database is unchanged.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Full table dump, sorted by VIP.
    Snapshot {
        /// All `(vip, pip)` mappings.
        entries: Vec<(Vip, Pip)>,
    },
    /// Cumulative counters.
    Stats {
        /// The counter values, boxed: they are 104 bytes, and every reply of
        /// a batch would otherwise be sized for them.
        stats: Box<ServiceStats>,
    },
}

const _: () = assert!(std::mem::size_of::<CtlReply>() <= 32);

/// A batch of replies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplyBatch {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// Database epoch observed after the batch's last op.
    pub epoch: u64,
    /// One reply per request op, in order.
    pub replies: Vec<CtlReply>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_map_onto_mapping_ops_and_reads_do_not() {
        assert_eq!(
            CtlOp::Install {
                vip: Vip(1),
                pip: Pip(2)
            }
            .as_mapping_op(),
            Some(MappingOp::Install {
                vip: Vip(1),
                pip: Pip(2)
            })
        );
        assert_eq!(
            CtlOp::Invalidate { vip: Vip(3) }.as_mapping_op(),
            Some(MappingOp::Invalidate { vip: Vip(3) })
        );
        assert_eq!(
            CtlOp::Migrate {
                vip: Vip(4),
                to_pip: Pip(5),
                at_ns: Some(6)
            }
            .as_mapping_op(),
            Some(MappingOp::Migrate {
                vip: Vip(4),
                to_pip: Pip(5),
                at_ns: Some(6)
            })
        );
        assert_eq!(CtlOp::Lookup { vip: Vip(1) }.as_mapping_op(), None);
        assert_eq!(CtlOp::Snapshot.as_mapping_op(), None);
        assert_eq!(CtlOp::Stats.as_mapping_op(), None);
    }

    #[test]
    fn keyed_ops_name_their_vip_and_barriers_none() {
        assert_eq!(CtlOp::Lookup { vip: Vip(1) }.vip(), Some(Vip(1)));
        assert_eq!(
            CtlOp::Install {
                vip: Vip(2),
                pip: Pip(0)
            }
            .vip(),
            Some(Vip(2))
        );
        assert_eq!(CtlOp::Invalidate { vip: Vip(3) }.vip(), Some(Vip(3)));
        assert_eq!(
            CtlOp::Migrate {
                vip: Vip(4),
                to_pip: Pip(0),
                at_ns: None
            }
            .vip(),
            Some(Vip(4))
        );
        assert_eq!(CtlOp::Snapshot.vip(), None);
        assert_eq!(CtlOp::Stats.vip(), None);
    }

    #[test]
    fn reject_codes_are_stable() {
        assert_eq!(RejectReason::UnknownVip.code(), 0);
        assert_eq!(RejectReason::from_code(0), Some(RejectReason::UnknownVip));
        assert_eq!(RejectReason::from_code(200), None);
    }
}
