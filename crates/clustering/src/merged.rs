//! Cross-domain OPTICS: one clustering pass over the union of several
//! independently-maintained bubble sets.
//!
//! A sharded service keeps one maintainer per partition, each with its
//! own bubble list. Clustering must still see the whole database, so the
//! per-partition lists are concatenated *domain-major* — domain 0's
//! bubbles first, each domain's internal order preserved — and a single
//! [`optics_bubbles`] pass runs over the union. The concatenation
//! order depends only on the domain numbering, never on how domains are
//! grouped into shards or threads, which is what makes the merged
//! ordering a pure function of the logical partition contents (the
//! shard-count bit-identity the differential suites check).
//!
//! [`MergedRef`] maps each merged index back to `(domain, index within
//! domain)` so callers can resolve ordered entries to their owning
//! maintainer — e.g. to expand bubble members into a point-level plot.

use crate::optics_bubbles::{optics_bubbles, BubbleOrdering};
use idb_core::DataSummary;

/// Provenance of one entry in a merged bubble set: which domain
/// (partition) it came from and its index within that domain's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MergedRef {
    /// The owning domain, in the caller's `domains` order.
    pub domain: u32,
    /// Index within that domain's summary slice.
    pub index: usize,
}

/// The union of several per-domain summary sets, ready for one OPTICS
/// pass. Built by [`merge_domains`]; `refs[i]` is the provenance of
/// merged index `i`.
#[derive(Debug)]
pub struct MergedBubbles<'a, S> {
    /// Borrowed summaries, domain-major.
    pub summaries: Vec<&'a S>,
    /// Provenance aligned with `summaries`.
    pub refs: Vec<MergedRef>,
}

/// Concatenates per-domain summary slices domain-major.
///
/// # Panics
/// Panics if more than `u32::MAX` domains are supplied.
#[must_use]
pub fn merge_domains<'a, S: DataSummary>(domains: &[&'a [S]]) -> MergedBubbles<'a, S> {
    let total: usize = domains.iter().map(|d| d.len()).sum();
    let mut summaries = Vec::with_capacity(total);
    let mut refs = Vec::with_capacity(total);
    for (domain, slice) in domains.iter().enumerate() {
        let domain = u32::try_from(domain).expect("more than u32::MAX domains");
        for (index, summary) in slice.iter().enumerate() {
            summaries.push(summary);
            refs.push(MergedRef { domain, index });
        }
    }
    MergedBubbles { summaries, refs }
}

/// Runs OPTICS over the union of per-domain bubble sets.
///
/// Returns the provenance table and the ordering; `ordering.order`
/// indexes into the returned `Vec<MergedRef>`. Empty summaries are
/// skipped exactly as in [`optics_bubbles`].
///
/// # Panics
/// Panics if `min_pts == 0` or more than `u32::MAX` domains are
/// supplied.
#[must_use]
pub fn optics_merged<S: DataSummary>(
    domains: &[&[S]],
    eps: f64,
    min_pts: usize,
) -> (Vec<MergedRef>, BubbleOrdering) {
    let merged = merge_domains(domains);
    let ordering = optics_bubbles(&merged.summaries, eps, min_pts);
    (merged.refs, ordering)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal summary: a ball of `n` points at `center`.
    #[derive(Debug, Clone)]
    struct Ball {
        center: Vec<f64>,
        n: u64,
        extent: f64,
    }

    impl DataSummary for Ball {
        fn dim(&self) -> usize {
            self.center.len()
        }
        fn n(&self) -> u64 {
            self.n
        }
        fn rep(&self) -> Vec<f64> {
            self.center.clone()
        }
        fn extent(&self) -> f64 {
            self.extent
        }
        fn nn_dist(&self, _k: usize) -> f64 {
            self.extent / 4.0
        }
    }

    fn ball(x: f64, y: f64, n: u64) -> Ball {
        Ball {
            center: vec![x, y],
            n,
            extent: 0.5,
        }
    }

    #[test]
    fn refs_are_domain_major_and_aligned() {
        let a = [ball(0.0, 0.0, 5), ball(1.0, 0.0, 5)];
        let b = [ball(10.0, 0.0, 5)];
        let merged = merge_domains(&[&a[..], &b[..]]);
        assert_eq!(merged.summaries.len(), 3);
        assert_eq!(
            merged.refs,
            vec![
                MergedRef {
                    domain: 0,
                    index: 0
                },
                MergedRef {
                    domain: 0,
                    index: 1
                },
                MergedRef {
                    domain: 1,
                    index: 0
                },
            ]
        );
    }

    #[test]
    fn merged_ordering_equals_flat_ordering() {
        // The same nine bubbles, once as a flat slice and once split
        // across three domains: identical orderings bit for bit.
        let all: Vec<Ball> = (0u32..9)
            .map(|i| {
                ball(
                    f64::from(i % 3) * 8.0,
                    f64::from(i / 3),
                    4 + u64::from(i % 2),
                )
            })
            .collect();
        let flat = optics_bubbles(&all, f64::INFINITY, 3);

        let (d0, rest) = all.split_at(3);
        let (d1, d2) = rest.split_at(3);
        let (refs, merged) = optics_merged(&[d0, d1, d2], f64::INFINITY, 3);

        assert_eq!(merged.order, flat.order);
        assert_eq!(merged.reachability, flat.reachability);
        assert_eq!(merged.virtual_reachability, flat.virtual_reachability);
        // Provenance resolves every merged index back to the original.
        for (merged_idx, r) in refs.iter().enumerate() {
            assert_eq!(r.domain as usize * 3 + r.index, merged_idx);
        }
    }

    #[test]
    fn empty_domains_are_transparent() {
        let a = [ball(0.0, 0.0, 5), ball(9.0, 0.0, 5)];
        let empty: [Ball; 0] = [];
        let (refs, ordering) = optics_merged(&[&empty[..], &a[..], &empty[..]], f64::INFINITY, 2);
        assert_eq!(refs.len(), 2);
        assert_eq!(ordering.len(), 2);
        assert!(refs.iter().all(|r| r.domain == 1));
    }
}
