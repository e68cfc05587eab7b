//! Flow specifications and runtime flow state.

use sv2p_packet::FlowId;
use sv2p_simcore::SimTime;
use sv2p_transport::{TcpReceiver, TcpSender, UdpSchedule};

/// What kind of traffic a flow carries.
#[derive(Debug, Clone)]
pub enum FlowKind {
    /// A TCP transfer of `bytes` (Hadoop / WebSearch / Alibaba RPCs).
    Tcp {
        /// Flow size in bytes.
        bytes: u64,
    },
    /// A UDP flow following a precomputed schedule (Video / Microbursts /
    /// incast).
    Udp {
        /// When each datagram leaves the sender.
        schedule: UdpSchedule,
    },
}

/// One flow of the workload, as produced by the trace generators.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Sending VM (index into the placement).
    pub src_vm: usize,
    /// Destination VM (index into the placement).
    pub dst_vm: usize,
    /// When the flow starts.
    pub start: SimTime,
    /// Payload profile.
    pub kind: FlowKind,
}

impl FlowSpec {
    pub(crate) fn is_tcp(&self) -> bool {
        matches!(self.kind, FlowKind::Tcp { .. })
    }

    /// Datagrams in the UDP schedule (0 for TCP flows).
    pub(crate) fn udp_total(&self) -> usize {
        match &self.kind {
            FlowKind::Udp { schedule } => schedule.len(),
            FlowKind::Tcp { .. } => 0,
        }
    }
}

/// Source port of flow `flow` (gives distinct ECMP keys per flow).
pub(crate) fn src_port(flow: FlowId) -> u16 {
    1024 + (flow.0 % 50_000) as u16
}

/// A flow's transport state as one shard holds it. The sender side evolves
/// where ACKs are delivered (the source VM's host), the receiver side on
/// the destination VM's host, so a flow is live on at most two shards;
/// when a migration re-homes an endpoint its side moves with it. Each TCP
/// machine is boxed only while it runs — the sender from `FlowStart` to the
/// ACK of the last byte, the receiver from the first segment to the last
/// byte in order — so a flow at rest is these few words.
#[derive(Debug, Default)]
pub(crate) struct FlowXport {
    /// TCP sender machine and its timer while the flow runs (None for UDP
    /// flows, before the start and after the completion).
    pub tcp_tx: Option<Box<Sender>>,
    /// TCP receiver machine, from the first segment until it has every byte.
    pub tcp_rx: Option<Box<TcpReceiver>>,
    /// The receiver had every byte: a later segment is a duplicate.
    pub rx_done: bool,
    pub completed: bool,
    /// Datagrams delivered so far (UDP completion tracking).
    pub udp_delivered: u32,
}

/// A running TCP flow's sender: its machine and its retransmission timer,
/// which die together when the flow completes (a timer event still filed
/// then pops into nothing).
#[derive(Debug)]
pub(crate) struct Sender {
    pub tcp: TcpSender,
    pub rto: LazyRto,
}

/// A calendar key: `(time, seq)`.
pub(crate) type Key = (SimTime, u64);

/// A flow's retransmission timer, filed once per RTO, not once per arm: an
/// arm for later than the filed deadline records its key, and the filed
/// event re-files itself there when it pops. Each arm reserves its seq
/// either way, so a timer fires at the key one event per arm would have had.
#[derive(Debug, Default)]
pub(crate) struct LazyRto {
    /// The deadline last asked for, with the seq reserved then.
    armed: Option<Key>,
    /// The one filing that can act, at or before `armed`: the one of
    /// generation `gen`, which each filing bumps (and may wrap).
    filed: Option<Key>,
    gen: u32,
}

/// What a popped `RtoTimer` event does: nothing (an `Orphan` of an earlier
/// deadline's filing), time the sender out (`Fire`), or file generation
/// `gen` at `at` (`Refile`).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RtoPop {
    Orphan,
    Fire,
    Refile { at: Key, gen: u32 },
}

impl LazyRto {
    /// Arms for `key`; returns the generation to file it under, if no
    /// filing is at or before it.
    pub fn arm(&mut self, key: Key) -> Option<u32> {
        self.armed = Some(key);
        let file = self.filed.is_none_or(|f| key < f);
        if file {
            (self.filed, self.gen) = (Some(key), self.gen.wrapping_add(1));
        }
        debug_assert!(self.filed <= self.armed, "a timer filed after its deadline");
        file.then_some(self.gen)
    }

    #[cfg(test)]
    pub fn is_set(&self) -> bool {
        self.armed.is_some() || self.filed.is_some()
    }

    /// The live filing (of generation `gen`) is the one at or before the
    /// deadline armed last, which a fire consumes and a sender that times
    /// out re-arms at once; any other filing is an orphan.
    pub fn on_pop(&mut self, gen: u32) -> RtoPop {
        if gen != self.gen {
            return RtoPop::Orphan;
        }
        let armed = self.armed.expect("a live filing has a deadline");
        if self.filed.take() == Some(armed) {
            self.armed = None;
            return RtoPop::Fire;
        }
        RtoPop::Refile {
            at: armed,
            gen: self.arm(armed).expect("nothing is filed"),
        }
    }
}

#[cfg(test)]
mod oracle {
    //! The timer as it was filed before [`LazyRto`]: one event per arm, and
    //! a re-arm leaves every earlier event to pop as a no-op.
    use super::{Key, LazyRto, RtoPop};

    /// A retransmission timer as the calendar drives it.
    pub trait Timer {
        /// The generation to file an event under at `key`, if any.
        fn arm(&mut self, key: Key) -> Option<u32>;
        fn on_pop(&mut self, gen: u32) -> RtoPop;
        /// Whether an event filed under `gen` can still act.
        fn live(&self, gen: u32) -> bool;
    }

    /// Reference timer: each arm files an event under a fresh generation.
    #[derive(Debug, Default)]
    pub struct EagerRto {
        gen: u32,
    }

    impl Timer for EagerRto {
        fn arm(&mut self, _key: Key) -> Option<u32> {
            self.gen = self.gen.wrapping_add(1);
            Some(self.gen)
        }
        fn on_pop(&mut self, gen: u32) -> RtoPop {
            match gen == self.gen {
                true => RtoPop::Fire,
                false => RtoPop::Orphan,
            }
        }
        fn live(&self, gen: u32) -> bool {
            gen == self.gen
        }
    }

    impl Timer for LazyRto {
        fn arm(&mut self, key: Key) -> Option<u32> {
            LazyRto::arm(self, key)
        }
        fn on_pop(&mut self, gen: u32) -> RtoPop {
            LazyRto::on_pop(self, gen)
        }
        fn live(&self, gen: u32) -> bool {
            gen == self.gen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{EagerRto, Timer};
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use sv2p_simcore::SimDuration;

    #[test]
    fn udp_flow_tracks_schedule_length() {
        let schedule = UdpSchedule::cbr(
            SimTime::ZERO,
            SimDuration::from_micros(500),
            48_000_000,
            1000,
        );
        let n = schedule.len();
        let f = FlowSpec {
            src_vm: 0,
            dst_vm: 1,
            start: SimTime::ZERO,
            kind: FlowKind::Udp { schedule },
        };
        assert!(!f.is_tcp());
        assert_eq!(f.udp_total(), n);
    }

    #[test]
    fn ports_are_flow_distinct() {
        assert_ne!(src_port(FlowId(1)), src_port(FlowId(2)));
    }

    fn key(t: u64, seq: u64) -> Key {
        (SimTime::from_nanos(t), seq)
    }

    #[test]
    fn a_pop_is_an_orphan_once_an_earlier_deadline_is_filed() {
        let mut t = LazyRto::default();
        let late = t.arm(key(10, 0)).expect("first arm files");
        let early = t.arm(key(5, 1)).expect("an earlier deadline files");
        assert_ne!(late, early);
        assert_eq!(t.on_pop(late), RtoPop::Orphan);
        assert_eq!(t.on_pop(early), RtoPop::Fire);
        assert!(!t.is_set());
    }

    #[test]
    fn a_pop_at_the_armed_key_fires() {
        let mut t = LazyRto::default();
        let gen = t.arm(key(10, 0)).expect("first arm files");
        assert_eq!(t.on_pop(gen), RtoPop::Fire);
        assert!(!t.is_set());
    }

    #[test]
    fn a_pop_refiles_at_a_later_or_equal_deadline_under_its_reserved_seq() {
        let mut t = LazyRto::default();
        let gen = t.arm(key(10, 0)).expect("first arm files");
        assert_eq!(t.arm(key(20, 1)), None, "a later deadline files nothing");
        assert_eq!(t.arm(key(20, 2)), None, "nor does an equal one");
        let RtoPop::Refile { at, gen } = t.on_pop(gen) else {
            panic!("the deadline moved later: re-file");
        };
        assert_eq!(at, key(20, 2));
        assert_eq!(t.on_pop(gen), RtoPop::Fire);
    }

    /// What one run of [`drive`] saw.
    #[derive(Default)]
    struct Run {
        /// The `(time, seq)` of every fire, in order.
        fires: Vec<Key>,
        /// Events pending after each tape step.
        pending: Vec<usize>,
    }

    /// A `(time, seq)` heap standing in for the calendar.
    #[derive(Default)]
    struct Cal {
        heap: BinaryHeap<Reverse<(Key, u32)>>,
        next_seq: u64,
        /// The deadline armed last.
        last: u64,
    }

    impl Cal {
        fn arm<T: Timer>(&mut self, timer: &mut T, at: u64) {
            let key = key(at, self.next_seq);
            self.next_seq += 1;
            self.last = at;
            if let Some(gen) = timer.arm(key) {
                self.heap.push(Reverse((key, gen)));
            }
        }
    }

    /// Drives `timer` through a `(time, seq)` heap as the calendar would.
    /// Each tape step `(gap, op, d)` moves the clock `gap` ns on, pops every
    /// event due before it, then arms `d` ns ahead (op 0, 1, 3), arms at
    /// the deadline armed last (op 2: an equal deadline) or, for one op in
    /// 64, completes the flow: the timer is dropped with its sender, so
    /// every later arm is skipped and every later pop finds nothing. The
    /// step itself takes a seq, as the handler calling the timer is an
    /// event. A fire re-arms, as a sender's timeout does, until the last
    /// step drains the heap.
    fn drive<T: Timer>(timer: T, tape: &[(u8, u8, u8)]) -> Run {
        let (mut cal, mut run, mut now) = (Cal::default(), Run::default(), 0u64);
        let mut timer = Some(timer);
        // A last step past every deadline drains the heap.
        let drain = (u8::MAX, 0, 0);
        for (step, &(gap, op, d)) in tape.iter().chain([drain].iter()).enumerate() {
            now += u64::from(gap);
            let due = match step == tape.len() {
                true => key(u64::MAX, 0),
                false => key(now, cal.next_seq),
            };
            while let Some(&Reverse((at, gen))) = cal.heap.peek().filter(|e| e.0 .0 < due) {
                cal.heap.pop();
                let Some(t) = timer.as_mut() else { continue };
                match t.on_pop(gen) {
                    RtoPop::Fire => {
                        run.fires.push(at);
                        if step < tape.len() {
                            let backoff = 7 + run.fires.len() as u64 % 5;
                            cal.arm(t, at.0.as_nanos() + backoff);
                        }
                    }
                    RtoPop::Refile { at: later, gen } => {
                        assert!(later > at, "a re-file moves later");
                        cal.heap.push(Reverse((later, gen)));
                    }
                    RtoPop::Orphan => {}
                }
            }
            if step == tape.len() {
                break;
            }
            cal.next_seq += 1;
            if let Some(t) = timer.as_mut() {
                match (op % 4, op % 64) {
                    (3, 3) => timer = None,
                    (0 | 1 | 3, _) => cal.arm(t, now + u64::from(d % 64)),
                    _ => cal.arm(t, cal.last.max(now)),
                }
            }
            let live = |e: &&Reverse<(Key, u32)>| timer.as_ref().is_some_and(|t| t.live(e.0 .1));
            let acting = cal.heap.iter().filter(live).count();
            assert!(acting <= 1, "{acting} filings can act");
            run.pending.push(cal.heap.len());
        }
        assert!(cal.heap.is_empty());
        run
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_timer_fires_where_the_eager_oracle_does(
            tape in proptest::collection::vec((0u8..24, any::<u8>(), any::<u8>()), 1..300),
        ) {
            let eager = drive(EagerRto::default(), &tape);
            let lazy = drive(LazyRto::default(), &tape);
            prop_assert_eq!(&lazy.fires, &eager.fires);
            for (l, e) in lazy.pending.iter().zip(&eager.pending) {
                prop_assert!(l <= e, "lazy {} pending > eager {}", l, e);
            }
        }
    }
}
