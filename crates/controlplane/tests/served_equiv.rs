//! The served path against the data structure's own semantics: an op log
//! sent over TCP to a [`CtlServer`] (the striped concurrent state behind
//! the one batch interpreter) must give the replies, epochs, end state and
//! counters of folding the same log, one op at a time, over a single
//! [`MappingDb`]. The fold is written here and calls nothing in
//! `v2p_controlplane`; `MappingDb` itself is certified against a HashMap
//! oracle in `sv2p-vnet`'s `proptest_vnet`.
//!
//! The server runs a batch's keyed ops as per-stripe groups between the
//! barriers `Snapshot` and `Stats`, so the logs carry barriers mid-batch,
//! and every suite runs at [`STRIPES`] — one stripe (one group), and
//! counts that do and do not divide the VIP range evenly.

use std::sync::{Arc, Barrier};

use sv2p_packet::{Pip, Vip};
use sv2p_simcore::SimRng;
use sv2p_vnet::{ApplyError, MappingDb, MappingOp};
use v2p_controlplane::{
    CtlClient, CtlOp, CtlReply, CtlServer, RejectReason, ReplyBatch, RequestBatch, ServiceStats,
    StripedControlPlane,
};

/// The stripe counts every suite runs at.
const STRIPES: [usize; 4] = [1, 3, 8, 16];

/// A deterministic mixed op log over VIPs `vip_base..vip_base + 200`:
/// installs, lookups, migrations (with and without timestamps),
/// invalidations — including migrations of never-placed VIPs, which must
/// be rejected — and, one op in fifty, a `Snapshot` or `Stats` barrier.
fn synth_ops(seed: u64, n: usize, vip_base: u32) -> Vec<CtlOp> {
    let mut rng = SimRng::new(seed);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.chance(0.02) {
            ops.push(if rng.chance(0.5) {
                CtlOp::Snapshot
            } else {
                CtlOp::Stats
            });
            continue;
        }
        let vip = Vip(vip_base + rng.gen_range(0u32..200));
        ops.push(match rng.gen_range(0u32..10) {
            0..=2 => CtlOp::Install {
                vip,
                pip: Pip(rng.gen_range(0u32..1000)),
            },
            3..=5 => CtlOp::Lookup { vip },
            6 => CtlOp::Invalidate { vip },
            7 => CtlOp::Migrate {
                vip,
                to_pip: Pip(rng.gen_range(0u32..1000)),
                at_ns: None,
            },
            _ => CtlOp::Migrate {
                vip,
                to_pip: Pip(rng.gen_range(0u32..1000)),
                at_ns: Some(rng.gen_range(0u64..1_000_000)),
            },
        });
    }
    ops
}

fn batches(ops: &[CtlOp], batch: usize) -> Vec<RequestBatch> {
    ops.chunks(batch)
        .enumerate()
        .map(|(i, chunk)| RequestBatch {
            id: i as u64,
            ops: chunk.to_vec(),
        })
        .collect()
}

/// The reference: one `MappingDb`, one op at a time, counters kept by hand.
#[derive(Default)]
struct Fold {
    db: MappingDb,
    counts: ServiceStats,
}

impl Fold {
    fn over(reqs: &[RequestBatch]) -> (Fold, Vec<ReplyBatch>) {
        let mut fold = Fold::default();
        let reps = reqs.iter().map(|r| fold.execute(r)).collect();
        (fold, reps)
    }

    fn execute(&mut self, req: &RequestBatch) -> ReplyBatch {
        self.counts.batches += 1;
        self.counts.ops += req.ops.len() as u64;
        let replies = req.ops.iter().map(|op| self.step(*op)).collect();
        ReplyBatch {
            id: req.id,
            epoch: self.db.epoch(),
            replies,
        }
    }

    fn step(&mut self, op: CtlOp) -> CtlReply {
        match op {
            CtlOp::Snapshot => {
                self.counts.snapshots += 1;
                return CtlReply::Snapshot {
                    entries: self.snapshot(),
                };
            }
            CtlOp::Stats => {
                return CtlReply::Stats {
                    stats: Box::new(self.stats()),
                }
            }
            _ => {}
        }
        let c = &mut self.counts;
        let (write, kind) = match op {
            CtlOp::Lookup { vip } => {
                c.lookups += 1;
                return match self.db.lookup(vip) {
                    Some(pip) => {
                        c.hits += 1;
                        CtlReply::Found { pip }
                    }
                    None => CtlReply::NotFound,
                };
            }
            CtlOp::Install { vip, pip } => (MappingOp::Install { vip, pip }, &mut c.installs),
            CtlOp::Invalidate { vip } => (MappingOp::Invalidate { vip }, &mut c.invalidates),
            CtlOp::Migrate { vip, to_pip, at_ns } => {
                (MappingOp::Migrate { vip, to_pip, at_ns }, &mut c.migrates)
            }
            CtlOp::Snapshot | CtlOp::Stats => unreachable!("answered above"),
        };
        match self.db.try_apply(write) {
            Ok(delta) => {
                *kind += 1;
                CtlReply::Applied {
                    old: delta.old,
                    new: delta.new,
                }
            }
            Err(ApplyError::UnknownVip(_)) => {
                c.rejected += 1;
                CtlReply::Rejected {
                    reason: RejectReason::UnknownVip,
                }
            }
        }
    }

    fn snapshot(&self) -> Vec<(Vip, Pip)> {
        let mut entries: Vec<_> = self.db.iter().collect();
        entries.sort_unstable_by_key(|&(v, _)| v.0);
        entries
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            epoch: self.db.epoch(),
            mappings: self.db.len() as u64,
            ..self.counts
        }
    }
}

/// Every counter of the served state; host time (the exec percentiles) is
/// not part of the contract.
fn untimed(stats: ServiceStats) -> ServiceStats {
    ServiceStats {
        exec_p50_ns: 0,
        exec_p99_ns: 0,
        ..stats
    }
}

fn served_stats(state: &StripedControlPlane) -> ServiceStats {
    untimed(state.stats())
}

/// The replies with every `Stats` reply's host time zeroed.
fn untimed_replies(mut reps: Vec<ReplyBatch>) -> Vec<ReplyBatch> {
    for reply in reps.iter_mut().flat_map(|r| &mut r.replies) {
        if let CtlReply::Stats { stats } = reply {
            **stats = untimed(**stats);
        }
    }
    reps
}

fn serve(stripes: usize) -> (Arc<StripedControlPlane>, CtlServer) {
    let state = Arc::new(StripedControlPlane::new(stripes));
    let server = CtlServer::spawn("127.0.0.1:0", Arc::clone(&state)).expect("bind");
    (state, server)
}

fn connect(server: &CtlServer) -> CtlClient {
    CtlClient::connect(server.addr()).expect("connect")
}

fn replay(client: &mut CtlClient, reqs: &[RequestBatch]) -> Vec<ReplyBatch> {
    untimed_replies(reqs.iter().map(|r| client.call(r).expect("call")).collect())
}

#[test]
fn served_replies_epochs_and_end_state_match_the_fold() {
    let reqs = batches(&synth_ops(42, 3000, 0), 64);
    let (fold, fold_reps) = Fold::over(&reqs);
    let barriers = |op: &&CtlOp| op.vip().is_none();
    assert!(reqs.iter().flat_map(|r| &r.ops).filter(barriers).count() > 20);

    for stripes in STRIPES {
        let (state, mut server) = serve(stripes);
        let served_reps = replay(&mut connect(&server), &reqs);

        // Per-op replies — the barriers' snapshots and counters included —
        // and per-batch epochs are identical, not just the end state.
        assert_eq!(fold_reps, served_reps, "at {stripes} stripes");

        // End states match entry-for-entry and epoch-for-epoch.
        assert_eq!(fold.snapshot(), state.snapshot());
        assert_eq!(fold.db.epoch(), state.epoch());
        assert!(state.epoch() > 0, "log must contain accepted writes");

        server.shutdown();
    }
}

#[test]
fn served_end_state_matches_for_multiple_seeds_and_batch_sizes() {
    for (seed, batch) in [(1u64, 1usize), (7, 17), (1234, 500)] {
        let reqs = batches(&synth_ops(seed, 800, 0), batch);
        let (fold, fold_reps) = Fold::over(&reqs);

        for stripes in STRIPES {
            let (state, mut server) = serve(stripes);
            let served_reps = replay(&mut connect(&server), &reqs);

            let case = format!("seed {seed} batch {batch} at {stripes} stripes");
            assert_eq!(fold_reps, served_reps, "replies diverged for {case}");
            assert_eq!(
                fold.snapshot(),
                state.snapshot(),
                "end states diverged for {case}"
            );
            assert_eq!(fold.db.epoch(), state.epoch());
            server.shutdown();
        }
    }
}

#[test]
fn served_counters_match_the_fold() {
    let reqs = batches(&synth_ops(99, 1000, 0), 50);
    let (fold, _) = Fold::over(&reqs);

    for stripes in STRIPES {
        let (state, mut server) = serve(stripes);
        replay(&mut connect(&server), &reqs);

        let want = fold.stats();
        assert_eq!(want, served_stats(&state), "at {stripes} stripes");
        assert!(want.rejected > 0, "log must exercise the rejection path");
        assert!(want.snapshots > 0, "log must exercise the snapshot barrier");
        server.shutdown();
    }
}

/// Per-VIP linearizability of the striped state, observed through the
/// transport: four connections write disjoint VIP ranges at once, so each
/// sees exactly the keyed replies of its own log folded alone, and the
/// table ends as the fold of the four logs laid end to end. (A barrier
/// sees the other connections' writes too, so only its kind is compared.)
#[test]
fn concurrent_clients_on_disjoint_vips_match_the_fold_of_the_union() {
    let logs: Vec<Vec<RequestBatch>> = (0..4u32)
        .map(|k| batches(&synth_ops(100 + u64::from(k), 1500, k * 200), 32))
        .collect();

    for stripes in STRIPES {
        let (state, mut server) = serve(stripes);
        // All four are connected before any sends, so the logs overlap.
        let connected = Barrier::new(logs.len());
        let served: Vec<Vec<ReplyBatch>> = std::thread::scope(|s| {
            let (server, connected) = (&server, &connected);
            let clients: Vec<_> = logs
                .iter()
                .map(|reqs| {
                    s.spawn(move || {
                        let mut client = connect(server);
                        connected.wait();
                        replay(&mut client, reqs)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect()
        });

        for (reqs, served_reps) in logs.iter().zip(&served) {
            let (_, alone) = Fold::over(reqs);
            for (want, got) in alone.iter().zip(served_reps) {
                assert_eq!(want.replies.len(), got.replies.len());
                for (w, g) in want.replies.iter().zip(&got.replies) {
                    match (w, g) {
                        (CtlReply::Snapshot { .. }, CtlReply::Snapshot { .. })
                        | (CtlReply::Stats { .. }, CtlReply::Stats { .. }) => {}
                        _ => assert_eq!(w, g, "at {stripes} stripes"),
                    }
                }
            }
            // Other connections' writes interleave, so a batch's epoch is
            // only bounded: it never runs backwards on one connection.
            assert!(served_reps.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        }

        let (union, _) = Fold::over(&logs.concat());
        let want = union.stats();
        assert_eq!(want, served_stats(&state), "at {stripes} stripes");
        assert_eq!(want.epoch, want.installs + want.invalidates + want.migrates);
        assert!(want.rejected > 0, "logs must exercise the rejection path");
        assert_eq!(union.snapshot(), state.snapshot());
        server.shutdown();
    }
}
