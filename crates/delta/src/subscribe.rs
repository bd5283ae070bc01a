//! Typed subscriptions over the delta stream.
//!
//! Clients register an [`Interest`] with
//! [`DeltaEngine::subscribe`](crate::DeltaEngine::subscribe) and drain
//! matched [`VersionedDelta`]s with
//! [`DeltaEngine::poll`](crate::DeltaEngine::poll). Delivery guarantees:
//!
//! * **exactly once** — every delta an interest matches is queued for
//!   that subscription exactly once;
//! * **in order** — queued deltas carry their epoch number and are
//!   drained in (epoch, emission) order;
//! * **bounded by the subscription's lifetime** — nothing from epochs
//!   that ran before `subscribe` or after `unsubscribe` is ever
//!   delivered.

use crate::deltas::{ClusterDelta, ClusterId};
use std::collections::VecDeque;
use std::fmt;

/// What a subscription wants to see.
pub enum Interest {
    /// Every delta of every epoch.
    Tree,
    /// Deltas whose subject lies in the subtree rooted at the given
    /// cluster (the cluster itself included). Removal deltas are matched
    /// against the tree they removed the subject *from*, so the final
    /// [`Retired`](ClusterDelta::Retired) of a watched subtree is still
    /// delivered.
    Subtree(ClusterId),
    /// Deltas matching an arbitrary predicate.
    Predicate(Box<dyn Fn(&ClusterDelta) -> bool + Send>),
}

impl fmt::Debug for Interest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interest::Tree => f.write_str("Tree"),
            Interest::Subtree(id) => f.debug_tuple("Subtree").field(id).finish(),
            Interest::Predicate(_) => f.write_str("Predicate(..)"),
        }
    }
}

/// Handle of a registered subscription, unique for the engine's
/// lifetime (ids are never reused, even after unsubscribe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// One delivered delta, stamped with the epoch that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedDelta {
    /// The producing epoch ([`EpochReport::epoch`](crate::EpochReport::epoch)).
    pub epoch: u64,
    /// The delta itself.
    pub delta: ClusterDelta,
}

/// The engine's subscription registry: interests plus their undrained
/// delivery queues.
#[derive(Debug, Default)]
pub(crate) struct Subscriptions {
    next: u64,
    subs: Vec<(SubscriptionId, Interest, VecDeque<VersionedDelta>)>,
}

impl Subscriptions {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn subscribe(&mut self, interest: Interest) -> SubscriptionId {
        let id = SubscriptionId(self.next);
        self.next += 1;
        self.subs.push((id, interest, VecDeque::new()));
        id
    }

    pub(crate) fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|(sid, _, _)| *sid != id);
        self.subs.len() != before
    }

    pub(crate) fn poll(&mut self, id: SubscriptionId) -> Vec<VersionedDelta> {
        self.subs
            .iter_mut()
            .find(|(sid, _, _)| *sid == id)
            .map_or_else(Vec::new, |(_, _, queue)| queue.drain(..).collect())
    }

    /// Whether any subscription filters by subtree.
    pub(crate) fn has_subtree(&self) -> bool {
        self.subs
            .iter()
            .any(|(_, interest, _)| matches!(interest, Interest::Subtree(_)))
    }

    /// Queues `deltas` (already in emission order) for every subscription
    /// whose interest matches; `in_subtree(root, delta)` answers subtree
    /// membership against the epoch's trees.
    pub(crate) fn fanout(
        &mut self,
        epoch: u64,
        deltas: &[ClusterDelta],
        in_subtree: impl Fn(ClusterId, &ClusterDelta) -> bool,
    ) {
        for (_, interest, queue) in &mut self.subs {
            for delta in deltas {
                let matched = match interest {
                    Interest::Tree => true,
                    Interest::Subtree(root) => in_subtree(*root, delta),
                    Interest::Predicate(pred) => pred(delta),
                };
                if matched {
                    queue.push_back(VersionedDelta {
                        epoch,
                        delta: delta.clone(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn born(id: u64) -> ClusterDelta {
        ClusterDelta::Born {
            id: ClusterId(id),
            parent: None,
            members: vec![id],
        }
    }

    #[test]
    fn ids_are_never_reused_and_poll_after_unsubscribe_is_empty() {
        let mut subs = Subscriptions::new();
        let a = subs.subscribe(Interest::Tree);
        assert!(subs.unsubscribe(a));
        assert!(!subs.unsubscribe(a), "double unsubscribe reports false");
        let b = subs.subscribe(Interest::Tree);
        assert_ne!(a, b);
        subs.fanout(0, &[born(1)], |_, _| true);
        assert!(subs.poll(a).is_empty(), "dead id yields nothing");
        assert_eq!(subs.poll(b).len(), 1);
        assert!(subs.poll(b).is_empty(), "drained exactly once");
    }

    #[test]
    fn predicates_and_subtrees_filter_the_stream() {
        let mut subs = Subscriptions::new();
        let odd = subs.subscribe(Interest::Predicate(Box::new(|d| d.subject().0 % 2 == 1)));
        let sub = subs.subscribe(Interest::Subtree(ClusterId(2)));
        subs.fanout(3, &[born(1), born(2), born(3)], |root, d| {
            d.subject() == root
        });
        let got: Vec<u64> = subs.poll(odd).iter().map(|v| v.delta.subject().0).collect();
        assert_eq!(got, [1, 3]);
        let got: Vec<u64> = subs.poll(sub).iter().map(|v| v.delta.subject().0).collect();
        assert_eq!(got, [2]);
        assert!(subs.poll(sub)[..].is_empty());
    }
}
