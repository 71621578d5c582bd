//! The event queue against the structure it replaced.
//!
//! The kernel used to keep its events in a `BinaryHeap` ordered by
//! `(at, seq)`, `seq` growing with every push. [`EventQueue`] keeps one
//! FIFO per tick instead and must pop the very same sequence. The heap
//! survives here, as the reference model: first under the queue alone,
//! over seeded random schedules, then under a whole [`Network`] driven by
//! scripted actors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prb_net::message::{Envelope, TimerId};
use prb_net::queue::EventQueue;
use prb_net::sim::{Actor, Context, NetConfig, Network};
use prb_net::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The old queue: earliest `(at, seq)` first.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
}

impl HeapModel {
    fn push(&mut self, at: u64, item: u32) {
        self.heap.push(Reverse((at, self.next_seq, item)));
        self.next_seq += 1;
    }

    fn next_tick(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        self.heap.pop().map(|Reverse((at, _, item))| (at, item))
    }
}

/// A delay drawn to hit every region of the queue: the tick being drained,
/// the link-delay range, the edge of the ring, and far beyond it.
fn delay(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..10) {
        0 => 0,
        1..=5 => rng.gen_range(1..=10),
        6 => rng.gen_range(11..250),
        7 => rng.gen_range(250..260),
        8 => rng.gen_range(260..5_000),
        _ => rng.gen_range(5_000..2_000_000),
    }
}

#[test]
fn pops_what_a_heap_over_at_and_seq_pops() {
    for seed in 0..40 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        let mut model = HeapModel::default();
        let mut now = 0u64;
        let mut item = 0u32;
        for _ in 0..4_000 {
            // Bursts of pushes — several into one tick, so same-tick FIFO
            // is exercised — between pops that move the clock.
            if model.heap.is_empty() || rng.gen_range(0..3) > 0 {
                let at = now + delay(&mut rng);
                for _ in 0..rng.gen_range(1..4) {
                    queue.push(SimTime(at), item);
                    model.push(at, item);
                    item += 1;
                }
            } else {
                let expected = model.pop().expect("not empty");
                assert_eq!(queue.pop(), Some((SimTime(expected.0), expected.1)));
                now = expected.0;
            }
            assert_eq!(queue.len(), model.heap.len(), "seed {seed}");
            assert_eq!(queue.next_tick(), model.next_tick().map(SimTime));
        }
        while let Some((at, item)) = model.pop() {
            assert_eq!(queue.pop(), Some((SimTime(at), item)), "seed {seed}");
        }
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.next_tick(), None);
    }
}

#[test]
fn a_push_into_the_tick_being_drained_goes_last_in_it() {
    let mut queue = EventQueue::new();
    for item in 0..3 {
        queue.push(SimTime(5), item);
    }
    queue.push(SimTime(6), 9);
    assert_eq!(queue.pop(), Some((SimTime(5), 0)));
    queue.push(SimTime(5), 3); // zero delay, from the handler of item 0
    assert_eq!(queue.pop(), Some((SimTime(5), 1)));
    assert_eq!(queue.pop(), Some((SimTime(5), 2)));
    assert_eq!(queue.pop(), Some((SimTime(5), 3)));
    // Even once the tick has run dry, it is still the present.
    queue.push(SimTime(5), 4);
    assert_eq!(queue.pop(), Some((SimTime(5), 4)));
    assert_eq!(queue.pop(), Some((SimTime(6), 9)));
}

#[test]
fn far_pushes_keep_their_place_among_later_near_ones() {
    // Tick 1000 is beyond the ring when first pushed to, inside it later:
    // the early arrivals must still come out first.
    let mut queue = EventQueue::new();
    queue.push(SimTime(1_000), 0);
    queue.push(SimTime(1_000), 1);
    queue.push(SimTime(900), 2);
    assert_eq!(queue.pop(), Some((SimTime(900), 2)));
    queue.push(SimTime(1_000), 3); // within the ring now
    queue.push(SimTime(u64::MAX), 4); // "never" is a tick too
    assert_eq!(queue.len(), 4);
    for item in [0, 1, 3] {
        assert_eq!(queue.pop(), Some((SimTime(1_000), item)));
    }
    assert_eq!(queue.pop(), Some((SimTime(u64::MAX), 4)));
}

#[test]
#[should_panic(expected = "in the past")]
fn a_push_behind_the_last_pop_is_refused() {
    let mut queue = EventQueue::new();
    queue.push(SimTime(10), 0);
    queue.pop();
    queue.push(SimTime(9), 1);
}

/// What a scripted node does when message `id` reaches it.
#[derive(Clone, Debug)]
enum Action {
    /// `send_after` to itself with this delay, carrying this id.
    Send(u64, u32),
    /// `set_timer` with this delay.
    Timer(u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seen {
    Message(u32),
    Timer(TimerId),
}

/// Logs every callback with its time and plays `script[id]` on message
/// `id` (ids past the script do nothing).
struct Scripted {
    script: Vec<Vec<Action>>,
    log: Vec<(u64, Seen)>,
    /// Timer ids in the order they were requested.
    timers: Vec<TimerId>,
}

impl Actor for Scripted {
    type Msg = u32;

    fn on_message(&mut self, env: Envelope<u32>, ctx: &mut Context<'_, u32>) {
        self.log
            .push((ctx.now().ticks(), Seen::Message(env.payload)));
        let me = ctx.self_idx();
        for action in self.script.get(env.payload as usize).into_iter().flatten() {
            match *action {
                Action::Send(after, id) => ctx.send_after(me, "s", id, SimDuration(after)),
                Action::Timer(after) => self.timers.push(ctx.set_timer(SimDuration(after))),
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, u32>) {
        self.log.push((ctx.now().ticks(), Seen::Timer(timer)));
    }
}

/// Items of the network-level model: a message id, or the n-th timer
/// requested.
const TIMER_BASE: u32 = 1 << 30;

/// Runs `script` under a real network and under the heap model, feeding
/// both the same external commands and the same `run_until` deadlines,
/// and checks the two logs against each other after every deadline.
fn check_network_against_model(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ids = 400u32;
    let script: Vec<Vec<Action>> = (0..ids)
        .map(|_| {
            (0..rng.gen_range(0..4))
                .map(|_| {
                    if rng.gen_range(0..3) == 0 {
                        Action::Timer(delay(&mut rng).min(20_000))
                    } else {
                        // Most targets are past the script and do
                        // nothing, so the fan-out dies down.
                        Action::Send(delay(&mut rng).min(20_000), rng.gen_range(ids / 4..ids * 2))
                    }
                })
                .collect()
        })
        .collect();
    let mut net = Network::new(NetConfig::default(), seed);
    let node = net.add_node(Scripted {
        script: script.clone(),
        log: Vec::new(),
        timers: Vec::new(),
    });
    let mut model = HeapModel::default();
    let mut expected: Vec<(u64, u32)> = Vec::new();
    let mut timers_requested = 0u32;
    let mut now = 0u64;
    for _ in 0..60 {
        // External commands at arbitrary times from now on, several per
        // tick, some beyond the ring.
        for _ in 0..rng.gen_range(0..6) {
            let at = now + delay(&mut rng).min(3_000);
            let id = rng.gen_range(0..ids / 4);
            net.send_external(node, "cmd", id, SimTime(at));
            model.push(at, id);
        }
        let deadline = now + rng.gen_range(0..400);
        net.run_until(SimTime(deadline));
        while model.next_tick().is_some_and(|at| at <= deadline) {
            let (at, item) = model.pop().expect("peeked");
            expected.push((at, item));
            if item >= TIMER_BASE {
                continue;
            }
            // The kernel queues a callback's sends first, then its timers.
            let actions = script.get(item as usize).map_or(&[][..], Vec::as_slice);
            for action in actions {
                if let Action::Send(after, id) = action {
                    model.push(at + after, *id);
                }
            }
            for action in actions {
                if let Action::Timer(after) = action {
                    model.push(at + after, TIMER_BASE + timers_requested);
                    timers_requested += 1;
                }
            }
        }
        now = deadline;
        assert_eq!(net.now(), SimTime(deadline), "seed {seed}");
        let actor = net.node(node);
        let seen: Vec<(u64, u32)> = actor
            .log
            .iter()
            .map(|(at, seen)| match seen {
                Seen::Message(id) => (*at, *id),
                Seen::Timer(timer) => {
                    let nth = actor.timers.iter().position(|t| t == timer);
                    (*at, TIMER_BASE + nth.expect("a timer it requested") as u32)
                }
            })
            .collect();
        // Everything due by the deadline ran, in the model's order, and
        // nothing due after it did — same-tick events on both sides of
        // the cut included.
        assert_eq!(seen, expected, "seed {seed} deadline {deadline}");
    }
    assert_eq!(net.events_processed(), expected.len() as u64);
    assert!(
        expected.len() > 200,
        "seed {seed}: the schedule is not trivial"
    );
}

#[test]
fn a_network_runs_the_schedule_the_heap_kernel_ran() {
    for seed in 0..25 {
        check_network_against_model(seed);
    }
}

#[test]
fn run_until_cuts_exactly_at_the_deadline() {
    // Three events at the deadline tick — one of them queued by a handler
    // that itself runs at the deadline — and one a tick later.
    let script = vec![vec![Action::Send(0, 7)], vec![], vec![]];
    let mut net = Network::new(NetConfig::default(), 1);
    let node = net.add_node(Scripted {
        script,
        log: Vec::new(),
        timers: Vec::new(),
    });
    net.send_external(node, "cmd", 1, SimTime(50));
    net.send_external(node, "cmd", 0, SimTime(50));
    net.send_external(node, "cmd", 2, SimTime(51));
    net.run_until(SimTime(50));
    let ids: Vec<Seen> = net.node(node).log.iter().map(|(_, seen)| *seen).collect();
    assert_eq!(
        ids,
        [Seen::Message(1), Seen::Message(0), Seen::Message(7)],
        "the zero-delay send lands in the tick being drained, behind it"
    );
    assert_eq!(net.now(), SimTime(50));
    assert!(net.step());
    assert_eq!(net.now(), SimTime(51));
    assert!(!net.step());
}
