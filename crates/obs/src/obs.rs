//! The [`Obs`] handle: one cheap, cloneable bundle of recorder + metrics
//! registry that instrumented components carry around.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::recorder::{NullRecorder, Recorder};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The observability handle threaded through the maintainer stack.
///
/// Bundles a journal [`Recorder`] and a [`MetricsRegistry`], plus cached
/// enable flags so disabled observability costs one branch per emission
/// site. Cloning shares both underlying sinks — a
/// [`DurableMaintainer`](https://docs.rs) holding a clone of the
/// summarizer's handle journals into the same stream.
#[derive(Clone)]
pub struct Obs {
    recorder: Arc<dyn Recorder>,
    metrics: Arc<MetricsRegistry>,
    journal_on: bool,
    metrics_on: bool,
    shard: Option<u32>,
}

impl Obs {
    /// Fully inert observability: [`NullRecorder`], metrics off. This is
    /// the default everywhere and must stay free.
    #[must_use]
    pub fn disabled() -> Self {
        Obs {
            recorder: Arc::new(NullRecorder),
            metrics: Arc::new(MetricsRegistry::new()),
            journal_on: false,
            metrics_on: false,
            shard: None,
        }
    }

    /// Journal into `recorder` (if it reports itself enabled) and collect
    /// metrics into `metrics`.
    #[must_use]
    pub fn new(recorder: Arc<dyn Recorder>, metrics: Arc<MetricsRegistry>) -> Self {
        let journal_on = recorder.is_enabled();
        Obs {
            recorder,
            metrics,
            journal_on,
            metrics_on: true,
            shard: None,
        }
    }

    /// Journal into `recorder` with a fresh metrics registry.
    #[must_use]
    pub fn with_recorder(recorder: Arc<dyn Recorder>) -> Self {
        Obs::new(recorder, Arc::new(MetricsRegistry::new()))
    }

    /// Collect metrics only; no journal.
    #[must_use]
    pub fn metrics_only() -> Self {
        Obs::new(Arc::new(NullRecorder), Arc::new(MetricsRegistry::new()))
    }

    /// A clone of this handle that stamps every emitted event with the
    /// given shard (maintainer-domain) tag. The clone shares the recorder
    /// and metrics registry, so a sharded deployment writes one combined
    /// journal whose events [`check_journal_sharded`](crate::check_journal_sharded)
    /// can demultiplex per domain.
    #[must_use]
    pub fn tagged(&self, shard: u32) -> Self {
        let mut o = self.clone();
        o.shard = Some(shard);
        o
    }

    /// The shard tag stamped onto emitted events, if any.
    #[must_use]
    pub fn shard(&self) -> Option<u32> {
        self.shard
    }

    /// Whether any emission site should do work at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.journal_on || self.metrics_on
    }

    /// Whether journal events are being recorded.
    #[must_use]
    pub fn journal_on(&self) -> bool {
        self.journal_on
    }

    /// Whether metrics are being collected.
    #[must_use]
    pub fn metrics_on(&self) -> bool {
        self.metrics_on
    }

    /// The journal recorder.
    #[must_use]
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Starts a stopwatch — a live one only when observability is
    /// enabled, so disabled handles never read the clock.
    #[must_use]
    pub fn start(&self) -> ObsTimer {
        ObsTimer(self.enabled().then(Instant::now))
    }

    /// Emits one journal event, if journaling is on.
    pub fn emit(&self, kind: EventKind, us: u64) {
        if self.journal_on {
            self.recorder.record(Event {
                kind,
                us,
                shard: self.shard,
            });
        }
    }

    /// Emits one journal event stamped with the stopwatch's elapsed time.
    pub fn emit_timed(&self, kind: EventKind, timer: &ObsTimer) {
        self.emit(kind, timer.us());
    }

    /// Flushes the journal recorder.
    pub fn flush(&self) {
        self.recorder.flush();
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("journal_on", &self.journal_on)
            .field("metrics_on", &self.metrics_on)
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}

/// A stopwatch handed out by [`Obs::start`]: live only when observability
/// is enabled.
#[derive(Debug, Clone, Copy)]
pub struct ObsTimer(Option<Instant>);

impl ObsTimer {
    /// Elapsed microseconds since [`Obs::start`]; zero when the handle was
    /// disabled.
    #[must_use]
    pub fn us(&self) -> u64 {
        self.0.map_or(0, |t0| {
            u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RingRecorder;

    #[test]
    fn disabled_obs_emits_nothing_and_skips_the_clock() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let t = obs.start();
        obs.emit(EventKind::Insert { bubble: 0 }, t.us());
        assert_eq!(t.us(), 0);
    }

    #[test]
    fn ring_backed_obs_records_in_order() {
        let ring = Arc::new(RingRecorder::new());
        let obs = Obs::with_recorder(ring.clone());
        assert!(obs.journal_on() && obs.metrics_on());
        obs.emit(EventKind::Insert { bubble: 1 }, 5);
        obs.emit(EventKind::Delete { bubble: 2 }, 6);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Insert { bubble: 1 });
        assert_eq!(events[1].kind, EventKind::Delete { bubble: 2 });
    }

    #[test]
    fn null_recorder_obs_keeps_metrics_but_no_journal() {
        let obs = Obs::with_recorder(Arc::new(NullRecorder));
        assert!(!obs.journal_on());
        assert!(obs.metrics_on());
        obs.emit(EventKind::Insert { bubble: 1 }, 5); // Dropped.
        obs.metrics().counter("x").inc();
        assert_eq!(obs.metrics().counters(), vec![("x".to_string(), 1)]);
    }

    #[test]
    fn tagged_handles_stamp_the_shard_and_share_sinks() {
        let ring = Arc::new(RingRecorder::new());
        let obs = Obs::with_recorder(ring.clone());
        let s0 = obs.tagged(0);
        let s3 = obs.tagged(3);
        obs.emit(EventKind::Insert { bubble: 1 }, 0);
        s0.emit(EventKind::Insert { bubble: 2 }, 0);
        s3.emit(EventKind::Delete { bubble: 3 }, 0);
        let events = ring.events();
        assert_eq!(
            events.iter().map(|e| e.shard).collect::<Vec<_>>(),
            vec![None, Some(0), Some(3)]
        );
        assert_eq!(s3.shard(), Some(3));
        assert_eq!(obs.shard(), None);
    }

    #[test]
    fn clones_share_sinks() {
        let ring = Arc::new(RingRecorder::new());
        let obs = Obs::with_recorder(ring.clone());
        let clone = obs.clone();
        clone.emit(EventKind::Insert { bubble: 9 }, 0);
        obs.metrics().counter("shared").inc();
        assert_eq!(ring.len(), 1);
        assert_eq!(clone.metrics().counter("shared").get(), 1);
    }
}
