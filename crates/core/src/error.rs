//! Typed errors and reports for fault-tolerant maintenance.
//!
//! The original update path (`apply_batch`, `maintain_adaptive`) follows
//! the paper's assumption of a well-behaved update stream and panics on
//! malformed input. Long-running deployments cannot afford that: a single
//! bad record in a feed must not take the summarization down, and a bug
//! (or a corrupted snapshot) that damages the internal tables must be
//! detectable and repairable without a full O(N·s) rebuild.
//!
//! This module defines the error surface for the fallible twins
//! ([`IncrementalBubbles::try_apply_batch`],
//! [`IncrementalBubbles::try_maintain_adaptive`]) and for the invariant
//! auditor ([`IncrementalBubbles::audit`] /
//! [`IncrementalBubbles::repair`]). Everything is hand-rolled on
//! `std::error::Error` — the workspace deliberately carries no error-
//! handling dependency.
//!
//! [`IncrementalBubbles::try_apply_batch`]: crate::IncrementalBubbles::try_apply_batch
//! [`IncrementalBubbles::try_maintain_adaptive`]: crate::IncrementalBubbles::try_maintain_adaptive
//! [`IncrementalBubbles::audit`]: crate::IncrementalBubbles::audit
//! [`IncrementalBubbles::repair`]: crate::IncrementalBubbles::repair

use idb_store::PointId;
use std::fmt;

/// Why a batch (or a policy) was rejected before anything was applied.
///
/// Returned by the validating entry points; when one of these comes back,
/// the maintainer and the store are guaranteed untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// An insert's coordinate vector has the wrong dimensionality.
    DimensionMismatch {
        /// Index of the offending insert within `batch.inserts`.
        index: usize,
        /// The summarization's dimensionality.
        expected: usize,
        /// The insert's dimensionality.
        found: usize,
    },
    /// An insert carries a NaN or infinite coordinate.
    NonFiniteCoordinate {
        /// Index of the offending insert within `batch.inserts`.
        index: usize,
        /// Axis of the non-finite component.
        axis: usize,
        /// The offending value.
        value: f64,
    },
    /// A delete names a point that is not live (never existed, already
    /// deleted, or not tracked by the summarization).
    StaleDelete {
        /// The offending id.
        id: PointId,
    },
    /// The same point is named by more than one delete in one batch.
    ConflictingOps {
        /// The id named more than once.
        id: PointId,
    },
    /// An [`AdaptivePolicy`](crate::AdaptivePolicy) violates
    /// `0 < min_avg_points < max_avg_points` (or holds a non-finite bound).
    InvalidPolicy {
        /// The policy's `min_avg_points`.
        min_avg_points: f64,
        /// The policy's `max_avg_points`.
        max_avg_points: f64,
    },
    /// The batch was shed by the durability layer before application: the
    /// disk budget or the degraded-mode buffer cap was reached. The
    /// summarization and the store are untouched; the caller may retry
    /// after compaction or recovery frees resources.
    Storage(idb_store::StorageError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "insert {index}: dimension mismatch (expected {expected}, found {found})"
            ),
            Self::NonFiniteCoordinate { index, axis, value } => write!(
                f,
                "insert {index}: non-finite coordinate {value} on axis {axis}"
            ),
            Self::StaleDelete { id } => {
                write!(f, "delete of {id:?}: point is not live")
            }
            Self::ConflictingOps { id } => {
                write!(f, "conflicting operations: {id:?} deleted more than once")
            }
            Self::InvalidPolicy {
                min_avg_points,
                max_avg_points,
            } => write!(
                f,
                "adaptive policy requires 0 < min_avg_points < max_avg_points \
                 (got min = {min_avg_points}, max = {max_avg_points})"
            ),
            Self::Storage(e) => write!(f, "batch shed: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<idb_store::StorageError> for UpdateError {
    fn from(e: idb_store::StorageError) -> Self {
        Self::Storage(e)
    }
}

/// One violated invariant found by [`IncrementalBubbles::audit`].
///
/// [`IncrementalBubbles::audit`]: crate::IncrementalBubbles::audit
#[derive(Debug, Clone, PartialEq)]
pub enum AuditIssue {
    /// The tracked point total disagrees with the store's live count.
    TotalCountMismatch {
        /// What the summarization believes it covers.
        tracked: u64,
        /// The store's live point count.
        live: u64,
    },
    /// A bubble's `n` statistic disagrees with its member-list length.
    MemberCountMismatch {
        /// The inconsistent bubble.
        bubble: usize,
        /// The `n` recorded in the sufficient statistics.
        stats_n: u64,
        /// The member-list length.
        members: usize,
    },
    /// A bubble's member list names a point that is not live in the store.
    DeadMember {
        /// The bubble holding the dead id.
        bubble: usize,
        /// The dead id.
        id: PointId,
    },
    /// A member's reverse-lookup entry points at a different bubble.
    AssignMismatch {
        /// The bubble whose member list contains the point.
        bubble: usize,
        /// The point.
        id: PointId,
        /// Where the assignment table claims the point lives (`None` when
        /// unassigned).
        assigned: Option<usize>,
    },
    /// A member's position entry does not point back at the member slot.
    MemberPosMismatch {
        /// The bubble whose member list contains the point.
        bubble: usize,
        /// The point.
        id: PointId,
        /// The member's actual position in the list.
        expected: usize,
    },
    /// A live store point is claimed by no bubble, or its assignment entry
    /// does not resolve back to it.
    UnassignedLivePoint {
        /// The uncovered point.
        id: PointId,
    },
    /// A dead slot still carries an assignment.
    StaleAssignment {
        /// The dead point id.
        id: PointId,
        /// The bubble the stale entry points at.
        bubble: usize,
    },
    /// A bubble's linear sum drifted away from its recomputed member sum.
    DriftedLinearSum {
        /// The inconsistent bubble.
        bubble: usize,
        /// Axis of the worst component.
        axis: usize,
        /// The stored value.
        stored: f64,
        /// The value recomputed from the members.
        recomputed: f64,
    },
    /// A bubble's square sum drifted away from its recomputed value.
    DriftedSquareSum {
        /// The inconsistent bubble.
        bubble: usize,
        /// The stored value.
        stored: f64,
        /// The value recomputed from the members.
        recomputed: f64,
    },
    /// A bubble's sufficient statistics contain NaN or infinity.
    NonFiniteStats {
        /// The inconsistent bubble.
        bubble: usize,
    },
    /// A bubble's seed contains NaN or infinity.
    NonFiniteSeed {
        /// The inconsistent bubble.
        bubble: usize,
    },
    /// A bubble's seed disagrees with the seed neighbor table's copy.
    SeedOutOfSync {
        /// The inconsistent bubble.
        bubble: usize,
    },
    /// A seed's neighbor row does not list every seed exactly once.
    NeighborRowNotPermutation {
        /// The bubble owning the row.
        row: usize,
    },
    /// A seed's neighbor row is not sorted by `(distance, index)`: entry
    /// `pos - 1` does not order strictly before entry `pos`.
    NeighborRowMisordered {
        /// The bubble owning the row.
        row: usize,
        /// The first out-of-order position.
        pos: usize,
    },
    /// A distance stored in bubble `i`'s neighbor row for bubble `j` is
    /// non-finite or disagrees with the distance recomputed from the seed
    /// coordinates.
    NeighborDistanceDrift {
        /// The bubble owning the row.
        i: usize,
        /// The bubble the entry names.
        j: usize,
        /// The stored distance.
        stored: f64,
        /// The recomputed distance.
        recomputed: f64,
    },
}

impl AuditIssue {
    /// The bubbles this issue implicates (what
    /// [`repair`](crate::IncrementalBubbles::repair) quarantines).
    /// Empty for global issues such as a total-count mismatch.
    #[must_use]
    pub fn implicated_bubbles(&self) -> Vec<usize> {
        match *self {
            Self::TotalCountMismatch { .. } | Self::UnassignedLivePoint { .. } => Vec::new(),
            Self::MemberCountMismatch { bubble, .. }
            | Self::DeadMember { bubble, .. }
            | Self::AssignMismatch { bubble, .. }
            | Self::MemberPosMismatch { bubble, .. }
            | Self::StaleAssignment { bubble, .. }
            | Self::DriftedLinearSum { bubble, .. }
            | Self::DriftedSquareSum { bubble, .. }
            | Self::NonFiniteStats { bubble }
            | Self::NonFiniteSeed { bubble }
            | Self::SeedOutOfSync { bubble } => vec![bubble],
            Self::NeighborRowNotPermutation { row } | Self::NeighborRowMisordered { row, .. } => {
                vec![row]
            }
            Self::NeighborDistanceDrift { i, j, .. } => vec![i, j],
        }
    }
}

impl fmt::Display for AuditIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TotalCountMismatch { tracked, live } => {
                write!(f, "summary tracks {tracked} points, store holds {live}")
            }
            Self::MemberCountMismatch {
                bubble,
                stats_n,
                members,
            } => write!(
                f,
                "bubble {bubble}: stats n = {stats_n} but {members} members"
            ),
            Self::DeadMember { bubble, id } => {
                write!(f, "bubble {bubble}: member {id:?} is not live")
            }
            Self::AssignMismatch {
                bubble,
                id,
                assigned,
            } => write!(
                f,
                "bubble {bubble}: member {id:?} is assigned to {assigned:?}"
            ),
            Self::MemberPosMismatch {
                bubble,
                id,
                expected,
            } => write!(
                f,
                "bubble {bubble}: member {id:?} at position {expected} has a stale position entry"
            ),
            Self::UnassignedLivePoint { id } => {
                write!(f, "live point {id:?} is not covered by any bubble")
            }
            Self::StaleAssignment { id, bubble } => {
                write!(f, "dead point {id:?} still assigned to bubble {bubble}")
            }
            Self::DriftedLinearSum {
                bubble,
                axis,
                stored,
                recomputed,
            } => write!(
                f,
                "bubble {bubble}: linear sum axis {axis} drifted ({stored} vs {recomputed})"
            ),
            Self::DriftedSquareSum {
                bubble,
                stored,
                recomputed,
            } => write!(
                f,
                "bubble {bubble}: square sum drifted ({stored} vs {recomputed})"
            ),
            Self::NonFiniteStats { bubble } => {
                write!(f, "bubble {bubble}: non-finite sufficient statistics")
            }
            Self::NonFiniteSeed { bubble } => {
                write!(f, "bubble {bubble}: non-finite seed")
            }
            Self::SeedOutOfSync { bubble } => {
                write!(
                    f,
                    "bubble {bubble}: seed table out of sync with bubble seed"
                )
            }
            Self::NeighborRowNotPermutation { row } => {
                write!(
                    f,
                    "bubble {row}: neighbor row does not list every seed once"
                )
            }
            Self::NeighborRowMisordered { row, pos } => {
                write!(f, "bubble {row}: neighbor row out of order at {pos}")
            }
            Self::NeighborDistanceDrift {
                i,
                j,
                stored,
                recomputed,
            } => write!(
                f,
                "bubble {i}: neighbor distance to {j} drifted ({stored} vs {recomputed})"
            ),
        }
    }
}

/// A clean bill of health from [`IncrementalBubbles::audit`].
///
/// [`IncrementalBubbles::audit`]: crate::IncrementalBubbles::audit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// Bubbles checked.
    pub bubbles: usize,
    /// Points covered by the (verified) membership tables.
    pub points: u64,
    /// Neighbor-table distances verified.
    pub checked_pairs: usize,
}

/// The audit found violated invariants; carries every one found, not just
/// the first.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditError {
    /// All violations, in discovery order.
    pub issues: Vec<AuditIssue>,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} invariant violation(s)", self.issues.len())?;
        for issue in &self.issues {
            write!(f, "; {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditError {}

/// What [`IncrementalBubbles::repair`] did.
///
/// [`IncrementalBubbles::repair`]: crate::IncrementalBubbles::repair
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Invariant violations found by the pre-repair audit.
    pub issues_found: usize,
    /// Bubbles quarantined and rebuilt locally.
    pub quarantined: usize,
    /// Bubbles whose seed had to be re-drawn (non-finite seed).
    pub reseeded: usize,
    /// Points reattached to a bubble (drained from quarantined bubbles or
    /// found uncovered).
    pub reassigned_points: u64,
    /// Stale assignment entries of dead points that were cleared.
    pub cleared_stale_assignments: usize,
}

impl RepairReport {
    /// `true` when the audit was already green and nothing was touched.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.issues_found == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_error_messages_name_the_offender() {
        let e = UpdateError::NonFiniteCoordinate {
            index: 3,
            axis: 1,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("insert 3"), "{e}");
        let e = UpdateError::InvalidPolicy {
            min_avg_points: 10.0,
            max_avg_points: 5.0,
        };
        assert!(e.to_string().contains("adaptive policy"), "{e}");
    }

    #[test]
    fn implicated_bubbles_cover_every_variant_shape() {
        assert!(AuditIssue::TotalCountMismatch {
            tracked: 1,
            live: 2
        }
        .implicated_bubbles()
        .is_empty());
        assert_eq!(
            AuditIssue::NonFiniteSeed { bubble: 4 }.implicated_bubbles(),
            vec![4]
        );
        assert_eq!(
            AuditIssue::NeighborRowMisordered { row: 3, pos: 7 }.implicated_bubbles(),
            vec![3]
        );
        assert_eq!(
            AuditIssue::NeighborDistanceDrift {
                i: 1,
                j: 2,
                stored: 0.0,
                recomputed: 1.0
            }
            .implicated_bubbles(),
            vec![1, 2]
        );
    }

    #[test]
    fn audit_error_lists_every_issue() {
        let e = AuditError {
            issues: vec![
                AuditIssue::TotalCountMismatch {
                    tracked: 1,
                    live: 2,
                },
                AuditIssue::NonFiniteSeed { bubble: 0 },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("2 invariant violation(s)"), "{s}");
        assert!(s.contains("non-finite seed"), "{s}");
    }
}
