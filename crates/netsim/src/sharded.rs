//! Several shards, one calendar: the one-shard engine's events, each run on
//! the shard that owns it.
//!
//! Sharding is an *equivalence oracle*, not a speed path: it re-executes a
//! run with the fabric cut into pods — each shard owning its nodes' link
//! queues, agents, RNG streams and transport machines — and must arrive at
//! the same bytes. An order dependence (a tie-break on hash-map order, a
//! planner reading shards in the wrong order) shows as a diff.
//!
//! Every event sits on the driver's one calendar under the key the
//! one-shard engine gives it, and every packet in its one arena, so the
//! shards interleave event by event: pop the next event, hand it to the
//! shard that owns it ([`owner`]), repeat (DESIGN.md, "Why the shards
//! interleave"). A packet offered to a link whose far end another shard
//! owns is an arrival filed when the link accepts it, as on one shard; it
//! runs on the far shard when it comes up. A flow's events run where its
//! source VM is hosted, so a migration re-homes them by moving the VM, and
//! [`move_vm`] moves the flows' transport state after it.

use sv2p_simcore::SimTime;

use crate::effects::{Event, Master, Probe};
use crate::engine::exec_global;
use crate::sim::Shard;
use crate::world::{Control, World};

/// The shard an event runs on, read off the event; `None` for a global
/// event, which the driver runs.
fn owner(world: &World, ctl: &Control, ev: &Event) -> Option<usize> {
    let node = match *ev {
        Event::LinkArrival { link, .. } => world.topo.link(link).to,
        Event::GatewayDone { node, .. }
        | Event::ReInject { node, .. }
        | Event::HostForward { node, .. } => node,
        Event::FlowStart(f) | Event::UdpSend { flow: f, .. } | Event::RtoTimer { flow: f, .. } => {
            ctl.placement.node_of(ctl.flows[f as usize].src_vm)
        }
        _ => return None,
    };
    Some(world.shard_of(node))
}

/// What the interleaved loop counts across `run_until`s: turns (maximal
/// runs of consecutive events on one shard) and link arrivals that ran on
/// a shard other than the one owning the link's sending end, and the shard
/// the last event ran on.
#[derive(Default)]
pub(crate) struct Turns {
    pub turns: u64,
    pub cut_events: u64,
    last: Option<usize>,
}

/// Runs every event due up to and including `horizon`, each on the shard
/// that owns it, and parks: resumable at any instant, like the one-shard
/// loop it mirrors pop for pop.
pub(crate) fn run_interleaved<P: Probe>(
    world: &World,
    ctl: &mut Control,
    shards: &mut [Shard],
    master: &mut Master,
    turns: &mut Turns,
    probe: &mut P,
    horizon: SimTime,
) {
    let bt = SimTime::from_nanos(horizon.as_nanos().saturating_add(1));
    loop {
        probe.begin();
        let Some(se) = master.events.pop_before(bt) else {
            break;
        };
        probe.popped();
        let phase = se.payload.phase();
        match owner(world, ctl, &se.payload) {
            None => exec_global(ctl, master, shards, se.payload),
            Some(s) => {
                if turns.last != Some(s) {
                    (turns.turns, turns.last) = (turns.turns + 1, Some(s));
                }
                if let Event::LinkArrival { link, .. } = se.payload {
                    let from = world.topo.link_from(link);
                    turns.cut_events += u64::from(world.shard_of(from) != s);
                }
                shards[s].dispatch(ctl, master, se.payload);
            }
        }
        probe.dispatched(phase, master);
    }
}

/// Moves the transport state of every flow with an endpoint on VM `vm`
/// from shard `from`, which owned the VM's old host, to `to`, which owns
/// its new one.
pub(crate) fn move_vm(ctl: &Control, vm: usize, shards: &mut [Shard], from: usize, to: usize) {
    let [from, to] = shards.get_disjoint_mut([from, to]).expect("two shards");
    for (i, spec) in ctl.flows.iter().enumerate() {
        let (old, new) = (&mut from.flows[i], &mut to.flows[i]);
        // The sender machine evolves where ACKs are delivered: the source
        // VM's host. Taking it matters: the end-of-run fold sums transport
        // statistics over *all* shards, so a moved machine must not stay
        // behind as a double-counted copy.
        if spec.src_vm == vm && spec.is_tcp() {
            new.tcp_tx = old.tcp_tx.take();
            new.completed = old.completed;
        }
        // The receiver side evolves on the destination VM's host.
        if spec.dst_vm == vm {
            new.tcp_rx = old.tcp_rx.take();
            new.rx_done = old.rx_done;
            new.udp_delivered = std::mem::take(&mut old.udp_delivered);
            if !spec.is_tcp() {
                // TCP completion is authoritative on the sender side.
                new.completed = old.completed;
            }
        }
    }
}
