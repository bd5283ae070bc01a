//! The recorder contract: where journal events go.
//!
//! * [`NullRecorder`] — the default; reports itself disabled so emission
//!   sites skip event construction and timing entirely.
//! * [`RingRecorder`] — an in-memory log for tests and the equivalence
//!   suites.
//! * [`JsonlRecorder`] — appends one JSON object per event to a file,
//!   opened lazily on the first event so idle maintainers leave no
//!   artifacts.

use crate::event::Event;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A sink for journal [`Event`]s.
///
/// Recorders must be cheap: events arrive on the thread driving the
/// maintainer, inside structural operations. Implementations that report
/// [`Recorder::is_enabled`] `false` are never sent events and emission
/// sites skip the surrounding timing, which is what makes the default
/// [`NullRecorder`] free.
pub trait Recorder: Send + Sync {
    /// Accepts one event.
    fn record(&self, event: Event);

    /// Whether emission sites should construct and send events at all.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered events to their destination.
    fn flush(&self) {}
}

/// The default recorder: drops everything and reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// An in-memory recorder keeping every event, for tests and the
/// bit-identity suites.
#[derive(Debug, Default)]
pub struct RingRecorder {
    events: Mutex<Vec<Event>>,
}

impl RingRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the recorded events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("ring poisoned").clone()
    }

    /// The number of events recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("ring poisoned").len()
    }

    /// Whether no events are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes and returns every recorded event, oldest first.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("ring poisoned"))
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: Event) {
        self.events.lock().expect("ring poisoned").push(event);
    }
}

/// A recorder appending one JSONL line per event to a file.
///
/// The file is created lazily on the first event. Write errors disable
/// the recorder for the rest of its life (journaling must never take the
/// maintainer down) and are surfaced once on stderr.
#[derive(Debug)]
pub struct JsonlRecorder {
    inner: Mutex<JsonlInner>,
}

#[derive(Debug)]
struct JsonlInner {
    path: PathBuf,
    state: JsonlState,
}

#[derive(Debug)]
enum JsonlState {
    Closed,
    Open(BufWriter<File>),
    Poisoned,
}

impl JsonlRecorder {
    /// A recorder that will append to `path`, creating parent directories
    /// and the file on the first event.
    #[must_use]
    pub fn create<P: AsRef<Path>>(path: P) -> Self {
        JsonlRecorder {
            inner: Mutex::new(JsonlInner {
                path: path.as_ref().to_path_buf(),
                state: JsonlState::Closed,
            }),
        }
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> PathBuf {
        self.inner.lock().expect("jsonl poisoned").path.clone()
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: Event) {
        let mut inner = self.inner.lock().expect("jsonl poisoned");
        if matches!(inner.state, JsonlState::Closed) {
            let opened = inner
                .path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| {
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&inner.path)
                });
            inner.state = match opened {
                Ok(f) => JsonlState::Open(BufWriter::new(f)),
                Err(e) => {
                    eprintln!(
                        "idb-obs: cannot open journal {}: {e}; journaling disabled",
                        inner.path.display()
                    );
                    JsonlState::Poisoned
                }
            };
        }
        if let JsonlState::Open(w) = &mut inner.state {
            let mut line = event.to_jsonl();
            line.push('\n');
            if let Err(e) = w.write_all(line.as_bytes()) {
                eprintln!(
                    "idb-obs: journal write to {} failed: {e}; journaling disabled",
                    inner.path.display()
                );
                inner.state = JsonlState::Poisoned;
            }
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().expect("jsonl poisoned");
        if let JsonlState::Open(w) = &mut inner.state {
            let _ = w.flush();
        }
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(bubble: u32) -> Event {
        Event::new(EventKind::Insert { bubble }, 1)
    }

    #[test]
    fn null_recorder_is_disabled() {
        let r = NullRecorder;
        assert!(!r.is_enabled());
        r.record(ev(0)); // No-op.
    }

    #[test]
    fn ring_keeps_order_and_honors_capacity() {
        let r = RingRecorder::new();
        assert!(r.is_enabled() && r.is_empty());
        for i in 0..4 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        let events: Vec<u32> = r
            .take()
            .iter()
            .map(|e| match e.kind {
                EventKind::Insert { bubble } => bubble,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(events, vec![0, 1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn jsonl_recorder_writes_parseable_lines_lazily() {
        let dir = std::env::temp_dir().join(format!(
            "idb-obs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("journal.jsonl");
        let r = JsonlRecorder::create(&path);
        assert!(!path.exists(), "file must not exist before the first event");
        r.record(ev(3));
        r.record(ev(4));
        r.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| Event::parse_jsonl(l).expect("parseable"))
            .collect();
        assert_eq!(events, vec![ev(3), ev(4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
