//! Deterministic event queue and simulation run loop.
//!
//! The kernel is intentionally minimal: a binary-heap future event list with
//! a FIFO tie-break sequence number (so same-timestamp events execute in
//! scheduling order, which keeps runs bit-reproducible), and a [`Simulation`]
//! driver that pops events and hands them to the [`Model`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::calendar::CalendarQueue;
use crate::time::{Duration, Time};

/// A simulation model: owns all mutable world state and interprets events.
///
/// The model is driven by [`Simulation::run`]; each popped event is passed to
/// [`Model::handle`] together with the current simulated time and a
/// [`Scheduler`] for enqueueing future events.
pub trait Model {
    /// The event vocabulary of this model.
    type Event;

    /// Processes one event at simulated instant `now`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then lowest seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

enum Queue<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    Calendar(CalendarQueue<E>),
}

/// Pending-event population above which an auto-promoting scheduler
/// migrates its heap into a calendar queue. Below this the binary heap's
/// lower constant factors win; above it the calendar queue's O(1)
/// amortized enqueue/dequeue takes over (big network runs keep hundreds
/// of thousands of events in flight). Promotion is invisible to results:
/// both backends pop the exact same `(time, seq)` order.
pub const PROMOTE_PENDING: usize = 16_384;

impl<E> Queue<E> {
    fn len(&self) -> usize {
        match self {
            Queue::Heap(h) => h.len(),
            Queue::Calendar(c) => c.len(),
        }
    }

    fn push(&mut self, at: Time, seq: u64, event: E) {
        match self {
            Queue::Heap(h) => h.push(Scheduled { at, seq, event }),
            Queue::Calendar(c) => c.push(at, seq, event),
        }
    }

    fn peek_time(&self) -> Option<Time> {
        match self {
            Queue::Heap(h) => h.peek().map(|s| s.at),
            Queue::Calendar(c) => c.peek().map(|(t, _)| t),
        }
    }

    fn pop(&mut self) -> Option<(Time, u64, E)> {
        match self {
            Queue::Heap(h) => h.pop().map(|s| (s.at, s.seq, s.event)),
            Queue::Calendar(c) => c.pop(),
        }
    }
}

/// The future event list.
///
/// Events at the same timestamp are delivered in the order they were
/// scheduled, which makes simulations deterministic for a fixed seed.
/// Two backing structures are available: a binary heap (default) and a
/// calendar queue ([`Scheduler::new_calendar`]) that is faster for the
/// large, densely-timed event populations of big network runs. Both
/// deliver the exact same order.
pub struct Scheduler<E> {
    queue: Queue<E>,
    now: Time,
    seq: u64,
    executed: u64,
    /// Auto-promote the heap to a calendar queue past [`PROMOTE_PENDING`]
    /// pending events (set by [`Scheduler::new`]; the explicit-backend
    /// constructors pin their backend for differential tests and the
    /// scheduler microbenchmarks).
    auto_promote: bool,
    /// Peak simultaneous pending events over the scheduler's lifetime.
    peak_pending: usize,
    /// `(time, seq)` of the last popped event, for the debug-build
    /// invariant checks (popped times never decrease; same-time pops obey
    /// FIFO order).
    #[cfg(debug_assertions)]
    last_pop: Option<(Time, u64)>,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero. Starts binary-heap backed
    /// and promotes itself to a calendar queue when the pending population
    /// crosses [`PROMOTE_PENDING`] — the right default at every scale,
    /// since both backends deliver identical pop order.
    pub fn new() -> Self {
        Scheduler {
            queue: Queue::Heap(BinaryHeap::new()),
            now: Time::ZERO,
            seq: 0,
            executed: 0,
            auto_promote: true,
            peak_pending: 0,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Creates an empty scheduler pinned to the binary heap (never
    /// promotes). For backend-differential tests and the `sched_heap`
    /// microbenchmark, which must measure the heap even past the
    /// promotion threshold.
    pub fn new_heap() -> Self {
        Scheduler {
            auto_promote: false,
            ..Scheduler::new()
        }
    }

    /// Creates an empty calendar-queue-backed scheduler.
    pub fn new_calendar() -> Self {
        Scheduler {
            queue: Queue::Calendar(CalendarQueue::new()),
            now: Time::ZERO,
            seq: 0,
            executed: 0,
            auto_promote: false,
            peak_pending: 0,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// The current simulated time (the timestamp of the event being
    /// processed, or the last processed event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Peak simultaneous pending events over the scheduler's lifetime —
    /// the event-list high-water mark the `scaling` experiment reports.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Total events ever scheduled (the tie-break sequence counter).
    #[inline]
    pub fn events_scheduled(&self) -> u64 {
        self.seq
    }

    /// True when the event list is currently calendar-queue backed
    /// (either constructed that way or auto-promoted).
    pub fn calendar_backed(&self) -> bool {
        matches!(self.queue, Queue::Calendar(_))
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (strictly before the current time);
    /// causality violations are programming errors.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, self.seq, event);
        self.seq += 1;
        let depth = self.queue.len();
        if depth > self.peak_pending {
            self.peak_pending = depth;
        }
        if self.auto_promote && depth > PROMOTE_PENDING {
            self.promote();
        }
    }

    /// Drains the heap into a calendar queue, preserving every `(time,
    /// seq)` pair. Pop order is unchanged by construction — the calendar
    /// queue orders by the same key — so promotion never perturbs a run.
    fn promote(&mut self) {
        let Queue::Heap(heap) = &mut self.queue else {
            return;
        };
        let mut cal = CalendarQueue::new();
        for s in std::mem::take(heap) {
            cal.push(s.at, s.seq, s.event);
        }
        self.queue = Queue::Calendar(cal);
    }

    /// Schedules `event` after `delay` from the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (after all events already
    /// queued for this instant).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Pops the next event, returning its timestamp, tie-break sequence
    /// number, and payload, and advancing the clock.
    ///
    /// Exposing the sequence number lets differential tests (and the
    /// scheduler microbenchmarks) compare the *exact* delivery order of
    /// the two queue backends rather than just the timestamps.
    pub fn pop_scheduled(&mut self) -> Option<(Time, u64, E)> {
        let (at, seq, event) = self.queue.pop()?;
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                at >= self.now,
                "popped event time regressed below the clock"
            );
            if let Some((last_at, last_seq)) = self.last_pop {
                debug_assert!(at >= last_at, "popped times must be non-decreasing");
                debug_assert!(
                    at > last_at || seq > last_seq,
                    "same-time events must pop in FIFO (scheduling) order"
                );
            }
            self.last_pop = Some((at, seq));
        }
        self.now = at;
        self.executed += 1;
        Some((at, seq, event))
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_scheduled().map(|(at, _seq, event)| (at, event))
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// Drives a [`Model`] until its event queue drains (or a horizon/budget is
/// reached).
pub struct Simulation<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
}

/// Why a call to [`Simulation::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future event list drained.
    Drained,
    /// The time horizon was reached with events still pending.
    Horizon,
    /// The event-count budget was exhausted.
    Budget,
    /// The [`Simulation::run_until_observed`] observer asked to stop
    /// (e.g. a runtime oracle detected livelock — continuing would only
    /// spin to the horizon).
    Stopped,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation around `model` with an empty event queue.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Like [`Simulation::new`] but with a calendar-queue event list.
    pub fn new_calendar(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new_calendar(),
        }
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Shared access to the scheduler (e.g. to read the clock).
    pub fn scheduler(&self) -> &Scheduler<M::Event> {
        &self.sched
    }

    /// Exclusive access to the scheduler (e.g. to seed initial events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Simultaneous exclusive access to model and scheduler, for
    /// initialization code that must call model methods which themselves
    /// schedule events.
    pub fn split(&mut self) -> (&mut M, &mut Scheduler<M::Event>) {
        (&mut self.model, &mut self.sched)
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((now, ev)) => {
                self.model.handle(now, ev, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains. Returns the final simulated time.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.sched.now()
    }

    /// Runs until the queue drains, `horizon` is passed, or `max_events`
    /// events have executed in this call.
    pub fn run_until(&mut self, horizon: Time, max_events: u64) -> StopReason {
        self.run_until_observed(horizon, max_events, u64::MAX, |_, _| true)
    }

    /// [`Simulation::run_until`] with a periodic observation hook: after
    /// every `every` events executed in this call, `observe` sees the
    /// model and the clock. Returning `false` stops the run
    /// ([`StopReason::Stopped`]).
    ///
    /// This is how release-mode runtime oracles (stuck-flow watermarks,
    /// invariant sweeps) get scheduled without an event-queue presence:
    /// the cadence is in executed events, not simulated time, so the
    /// hook is deterministic — the same run observes at the same points
    /// regardless of wall clock, thread count, or queue backend.
    pub fn run_until_observed(
        &mut self,
        horizon: Time,
        max_events: u64,
        every: u64,
        mut observe: impl FnMut(&mut M, Time) -> bool,
    ) -> StopReason {
        let mut budget = max_events;
        let every = every.max(1);
        let mut until_observe = every;
        loop {
            match self.sched.peek_time() {
                None => return StopReason::Drained,
                Some(t) if t > horizon => return StopReason::Horizon,
                Some(_) => {}
            }
            if budget == 0 {
                return StopReason::Budget;
            }
            budget -= 1;
            self.step();
            until_observe -= 1;
            if until_observe == 0 {
                until_observe = every;
                if !observe(&mut self.model, self.sched.now()) {
                    return StopReason::Stopped;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now.as_ps(), ev));
            if ev == 1 {
                // Fan out two same-time events; FIFO order must hold.
                sched.schedule_now(10);
                sched.schedule_now(11);
                sched.schedule_in(Duration::from_ps(5), 2);
            }
        }
    }

    #[test]
    fn events_execute_in_time_then_fifo_order() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.scheduler_mut().schedule_at(Time::from_ps(100), 1);
        sim.run();
        assert_eq!(
            sim.model().log,
            vec![(100, 1), (100, 10), (100, 11), (105, 2)]
        );
    }

    #[test]
    fn run_until_respects_horizon() {
        struct Ticker;
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), s: &mut Scheduler<()>) {
                s.schedule_in(Duration::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        let r = sim.run_until(Time::from_ns(10), u64::MAX);
        assert_eq!(r, StopReason::Horizon);
        assert!(sim.scheduler().now() <= Time::from_ns(10));
        assert_eq!(sim.scheduler().events_executed(), 11); // t=0..=10ns
    }

    #[test]
    fn run_until_respects_budget() {
        struct Ticker;
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), s: &mut Scheduler<()>) {
                s.schedule_in(Duration::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        let r = sim.run_until(Time::MAX, 7);
        assert_eq!(r, StopReason::Budget);
        assert_eq!(sim.scheduler().events_executed(), 7);
    }

    #[test]
    fn observer_fires_on_cadence_and_can_stop() {
        struct Ticker;
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), s: &mut Scheduler<()>) {
                s.schedule_in(Duration::from_ns(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        let mut seen: Vec<u64> = Vec::new();
        let r = sim.run_until_observed(Time::MAX, u64::MAX, 3, |_, now| {
            seen.push(now.as_ps());
            seen.len() < 2
        });
        assert_eq!(r, StopReason::Stopped);
        // Observed after events 3 and 6 (t = 2 ns and 5 ns: the first
        // event runs at t=0).
        assert_eq!(sim.scheduler().events_executed(), 6);
        assert_eq!(seen, vec![2_000, 5_000]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sched: Scheduler<()> = Scheduler::new();
        sched.schedule_at(Time::from_ns(5), ());
        // Force time forward.
        sched.pop();
        sched.schedule_at(Time::from_ns(1), ());
    }

    #[test]
    fn auto_promotion_preserves_pop_order_and_counters() {
        let mut auto = Scheduler::<u64>::new();
        let mut heap = Scheduler::<u64>::new_heap();
        let n = (PROMOTE_PENDING + 1_000) as u64;
        // A colliding timestamp pattern so FIFO tie-breaks matter.
        for i in 0..n {
            let at = Time::from_ps((i * 7919) % 4_096);
            auto.schedule_at(at, i);
            heap.schedule_at(at, i);
        }
        assert!(auto.calendar_backed(), "population crossed the threshold");
        assert!(!heap.calendar_backed(), "pinned heap never promotes");
        assert_eq!(auto.peak_pending(), PROMOTE_PENDING + 1_000);
        assert_eq!(auto.events_scheduled(), n);
        loop {
            let a = auto.pop_scheduled();
            let h = heap.pop_scheduled();
            assert_eq!(a, h, "promotion changed delivery order");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn drained_queue_reports_drained() {
        struct Nop;
        impl Model for Nop {
            type Event = ();
            fn handle(&mut self, _n: Time, _e: (), _s: &mut Scheduler<()>) {}
        }
        let mut sim = Simulation::new(Nop);
        sim.scheduler_mut().schedule_at(Time::ZERO, ());
        assert_eq!(sim.run_until(Time::MAX, u64::MAX), StopReason::Drained);
        assert_eq!(sim.scheduler().pending(), 0);
    }
}
