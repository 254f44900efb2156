//! The event-driven simulation loop.
//!
//! [`Engine`] owns the virtual clock and the event queue; the caller owns
//! the *world* (all model state) and implements [`Handler`] to react to
//! events. Splitting engine and world this way keeps the borrow checker
//! happy — a handler can freely schedule follow-up events through the
//! engine while mutating its own state.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Reacts to simulation events.
///
/// See the [crate-level example](crate) for a complete simulation.
pub trait Handler<E> {
    /// Handles one event at the engine's current virtual time.
    fn handle(&mut self, engine: &mut Engine<E>, event: E);
}

/// The simulation engine: virtual clock plus event queue.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Engine<E> {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is in the past.
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        assert!(
            due >= self.now,
            "cannot schedule into the past: now {:?}, due {:?}",
            self.now,
            due
        );
        self.queue.push(due, event);
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Runs until the queue drains. Returns the number of events
    /// processed by this call.
    pub fn run<W: Handler<E>>(&mut self, world: &mut W) -> u64 {
        let mut processed = 0;
        while let Some((due, event)) = self.queue.pop() {
            debug_assert!(due >= self.now, "event queue went backwards");
            self.now = due;
            processed += 1;
            world.handle(self, event);
        }
        processed
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Engine<E> {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick,
        Boom,
    }

    #[derive(Default)]
    struct World {
        ticks: u32,
        times: Vec<f64>,
    }

    impl Handler<Ev> for World {
        fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
            self.times.push(engine.now().as_secs());
            match event {
                Ev::Tick => {
                    self.ticks += 1;
                    if self.ticks < 5 {
                        engine.schedule_in(SimDuration::from_secs(1.0), Ev::Tick);
                    }
                }
                Ev::Boom => {}
            }
        }
    }

    #[test]
    fn runs_to_quiescence() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick);
        let mut world = World::default();
        let n = engine.run(&mut world);
        assert_eq!(n, 5);
        assert_eq!(world.ticks, 5);
        assert_eq!(engine.now(), SimTime::from_secs(4.0));
    }

    #[test]
    fn clock_is_monotone() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(3.0), Ev::Boom);
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Boom);
        engine.schedule_at(SimTime::from_secs(2.0), Ev::Boom);
        let mut world = World::default();
        engine.run(&mut world);
        assert_eq!(world.times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(5.0), Ev::Boom);
        let mut world = World::default();
        engine.run(&mut world);
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Boom);
    }
}
