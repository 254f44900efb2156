//! Event sinks: the [`Recorder`] trait and its implementations.
//!
//! Hot paths hold a `Box<dyn Recorder>` and guard emission with
//! [`Recorder::enabled`], so the uninstrumented default
//! ([`NullRecorder`]) costs one virtual call returning a constant
//! `false` per potential event — no allocation, no formatting.

use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::rc::Rc;

use crate::event::TraceEvent;
use crate::jsonl;

/// A sink for [`TraceEvent`]s.
pub trait Recorder {
    /// Whether events will actually be kept. Callers should skip
    /// constructing events when this is `false`.
    fn enabled(&self) -> bool;

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);
}

/// The no-op recorder: [`enabled`](Recorder::enabled) is `false` and
/// [`record`](Recorder::record) drops the event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects every event in memory, in arrival order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryRecorder {
    events: Vec<TraceEvent>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Removes and returns all recorded events.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Reserves room for at least `additional` more events, so a
    /// measured steady-state window can record without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Writes the events as JSONL to `path`, creating parent
    /// directories as needed.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        jsonl::write_events(path, &self.events)
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A cloneable handle to one shared [`MemoryRecorder`], so the
/// middleware, monitor and orchestrator can all append to a single
/// trace. Single-threaded by design (`Rc<RefCell<…>>`), like the
/// simulation itself.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder {
    inner: Rc<RefCell<MemoryRecorder>>,
}

impl SharedRecorder {
    /// A new, empty shared recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the events recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events().to_vec()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&self, additional: usize) {
        self.inner.borrow_mut().reserve(additional);
    }

    /// Writes the events as JSONL to `path`, creating parent
    /// directories as needed.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        self.inner.borrow().write_jsonl(path)
    }
}

impl Recorder for SharedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.inner.borrow_mut().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(demand: u64) -> TraceEvent {
        TraceEvent::Log {
            t: demand as f64,
            demand,
            level: "Info".into(),
            message: format!("m{demand}"),
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(ev(1));
    }

    #[test]
    fn memory_recorder_keeps_order() {
        let mut r = MemoryRecorder::new();
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.len(), 2);
        assert_eq!(r.events()[0].demand(), 1);
        let taken = r.take();
        assert_eq!(taken.len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn shared_recorder_clones_share_a_sink() {
        let shared = SharedRecorder::new();
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(ev(1));
        b.record(ev(2));
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.snapshot()[1].demand(), 2);
    }
}
