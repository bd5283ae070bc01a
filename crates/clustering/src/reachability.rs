//! Reachability plots.
//!
//! OPTICS does not return flat clusters; it returns an *ordering* of the
//! objects together with a reachability distance for each — the
//! reachability plot. Valleys in the plot are clusters; the depth at which
//! a valley sits reflects the density of the cluster, and nesting of
//! valleys reflects the cluster hierarchy.
//!
//! Entries carry an opaque `u64` id so the same plot type serves point-level
//! OPTICS (ids are [`idb_store::PointId`] values) and the expansion of a
//! bubble-level ordering (ids are the bubble members' point ids).

/// One entry of a reachability plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlotEntry {
    /// Opaque object id (a point id in this workspace).
    pub id: u64,
    /// Reachability distance; `f64::INFINITY` when undefined (the start of
    /// a new connected component).
    pub reachability: f64,
}

/// An ordered reachability plot.
#[derive(Debug, Clone, Default)]
pub struct ReachabilityPlot {
    entries: Vec<PlotEntry>,
}

impl ReachabilityPlot {
    /// An empty plot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a pre-built entry sequence.
    #[must_use]
    pub fn from_entries(entries: Vec<PlotEntry>) -> Self {
        Self { entries }
    }

    /// Appends one entry.
    pub fn push(&mut self, id: u64, reachability: f64) {
        self.entries.push(PlotEntry { id, reachability });
    }

    /// The entries in OPTICS order.
    #[must_use]
    pub fn entries(&self) -> &[PlotEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the plot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut p = ReachabilityPlot::new();
        p.push(4, f64::INFINITY);
        p.push(7, 1.5);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.entries()[1].id, 7);
        assert_eq!(p.entries()[1].reachability, 1.5);
    }

    #[test]
    fn empty_plot() {
        let p = ReachabilityPlot::new();
        assert!(p.is_empty());
    }
}
