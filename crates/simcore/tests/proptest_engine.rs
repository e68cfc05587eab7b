//! Property tests: the event calendar's ordering contract under arbitrary
//! interleavings.

use proptest::prelude::*;
use sv2p_simcore::{EventQueue, SimTime};

proptest! {
    #[test]
    fn events_pop_in_time_then_fifo_order(
        times in proptest::collection::vec(0u64..1_000, 1..300),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.time >= lt);
                if ev.time == lt {
                    prop_assert!(ev.payload > li, "FIFO violated among ties");
                }
            }
            last = Some((ev.time, ev.payload));
        }
        prop_assert_eq!(q.events_executed(), times.len() as u64);
    }

    #[test]
    fn interleaved_scheduling_respects_causality(
        script in proptest::collection::vec((0u64..50, any::<bool>()), 1..200),
    ) {
        // Alternate pushes (relative delays) and pops; the clock must be
        // nondecreasing and every pop at or after its schedule time.
        let mut q = EventQueue::new();
        let mut clock = SimTime::ZERO;
        for (delay, pop) in script {
            if pop {
                if let Some(ev) = q.pop() {
                    prop_assert!(ev.time >= clock);
                    clock = ev.time;
                }
            } else {
                q.schedule_in(sv2p_simcore::SimDuration::from_nanos(delay), ());
            }
            prop_assert_eq!(q.now(), clock);
        }
    }
}
