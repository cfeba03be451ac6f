//! Primary/backup failover bookkeeping (§III-E).
//!
//! Production Dynamo runs every controller as a primary/backup pair;
//! when a primary dies, the backup — which polls the same devices and
//! keeps its own copy of the decision state — takes over at the next
//! cycle. The simulator models that as one skipped cycle per induced
//! failure: [`FailoverState`] holds the pending-failure flag per
//! controller, the running takeover count, and per-controller
//! skipped-cycle tallies for reporting.

use dcsim::snap::{
    get_bool_vec, get_u64_vec, put_bool_slice, put_u64_slice, SnapError, SnapReader, SnapWriter,
    Snapshot,
};

/// Pending primary failures and the cumulative failover count for both
/// controller tiers.
#[derive(Debug, Clone)]
pub(crate) struct FailoverState {
    leaf_failed: Vec<bool>,
    upper_failed: Vec<bool>,
    leaf_skipped: Vec<u64>,
    upper_skipped: Vec<u64>,
    count: u64,
}

impl FailoverState {
    /// No failures pending, zero failovers recorded.
    pub(crate) fn new(leaf_count: usize, upper_count: usize) -> Self {
        FailoverState {
            leaf_failed: vec![false; leaf_count],
            upper_failed: vec![false; upper_count],
            leaf_skipped: vec![0; leaf_count],
            upper_skipped: vec![0; upper_count],
            count: 0,
        }
    }

    /// Marks leaf `i`'s primary as crashed.
    pub(crate) fn fail_leaf(&mut self, i: usize) {
        self.leaf_failed[i] = true;
    }

    /// Marks upper `i`'s primary as crashed.
    pub(crate) fn fail_upper(&mut self, i: usize) {
        self.upper_failed[i] = true;
    }

    /// Whether leaf `i` has a pending, unconsumed primary failure.
    pub(crate) fn leaf_pending(&self, i: usize) -> bool {
        self.leaf_failed[i]
    }

    /// If leaf `i` has a pending failure, consumes it (the backup takes
    /// over), records the failover, and returns `true`: the caller
    /// skips this cycle.
    pub(crate) fn take_leaf(&mut self, i: usize) -> bool {
        if self.leaf_failed[i] {
            self.leaf_failed[i] = false;
            self.record_leaf(i);
            true
        } else {
            false
        }
    }

    /// Upper-tier counterpart of [`FailoverState::take_leaf`].
    pub(crate) fn take_upper(&mut self, i: usize) -> bool {
        if self.upper_failed[i] {
            self.upper_failed[i] = false;
            self.upper_skipped[i] += 1;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// The leaf pending-failure flags, for the leaf dispatch: lanes
    /// clear their own flags and the merge records each takeover
    /// afterwards via [`FailoverState::record_leaf`], because lanes
    /// cannot touch the shared counters.
    pub(crate) fn leaf_flags_mut(&mut self) -> &mut [bool] {
        &mut self.leaf_failed
    }

    /// Records a leaf takeover observed outside [`FailoverState::take_leaf`]
    /// (the dispatch consumes flags in its lanes).
    pub(crate) fn record_leaf(&mut self, i: usize) {
        self.leaf_skipped[i] += 1;
        self.count += 1;
    }

    /// Cycles each leaf controller skipped to a backup takeover.
    pub(crate) fn leaf_skipped(&self) -> &[u64] {
        &self.leaf_skipped
    }

    /// Total failovers so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Overwrites this state from a decoded snapshot, validating that
    /// the tier sizes match the rebuilt control plane.
    pub(crate) fn restore(&mut self, other: &FailoverState) -> Result<(), SnapError> {
        if other.leaf_failed.len() != self.leaf_failed.len()
            || other.upper_failed.len() != self.upper_failed.len()
        {
            return Err(SnapError::Corrupt(format!(
                "failover snapshot tier sizes ({} leaves, {} uppers) disagree with the \
                 rebuilt control plane ({} leaves, {} uppers)",
                other.leaf_failed.len(),
                other.upper_failed.len(),
                self.leaf_failed.len(),
                self.upper_failed.len()
            )));
        }
        self.leaf_failed.clone_from(&other.leaf_failed);
        self.upper_failed.clone_from(&other.upper_failed);
        self.leaf_skipped.clone_from(&other.leaf_skipped);
        self.upper_skipped.clone_from(&other.upper_skipped);
        self.count = other.count;
        Ok(())
    }
}

impl Snapshot for FailoverState {
    const KIND: &'static str = "dynamo.FailoverState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        put_bool_slice(w, &self.leaf_failed);
        put_bool_slice(w, &self.upper_failed);
        put_u64_slice(w, &self.leaf_skipped);
        put_u64_slice(w, &self.upper_skipped);
        w.put_u64(self.count);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let leaf_failed = get_bool_vec(r)?;
        let upper_failed = get_bool_vec(r)?;
        let leaf_skipped = get_u64_vec(r)?;
        let upper_skipped = get_u64_vec(r)?;
        if leaf_skipped.len() != leaf_failed.len() || upper_skipped.len() != upper_failed.len() {
            return Err(SnapError::Corrupt(
                "failover skipped tallies disagree with flag arrays".into(),
            ));
        }
        Ok(FailoverState {
            leaf_failed,
            upper_failed,
            leaf_skipped,
            upper_skipped,
            count: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_consumes_the_flag_and_counts_once() {
        let mut f = FailoverState::new(2, 1);
        f.fail_leaf(1);
        assert!(!f.take_leaf(0));
        assert!(f.take_leaf(1));
        assert!(!f.take_leaf(1), "flag is consumed by the takeover");
        f.fail_upper(0);
        assert!(f.take_upper(0));
        assert_eq!(f.count(), 2);
        assert_eq!(f.leaf_skipped(), &[0, 1]);
    }

    #[test]
    fn parallel_merge_records_per_leaf() {
        let mut f = FailoverState::new(3, 0);
        f.fail_leaf(0);
        f.fail_leaf(2);
        for flag in f.leaf_flags_mut() {
            *flag = false; // workers consume their own flags
        }
        f.record_leaf(0);
        f.record_leaf(2);
        assert_eq!(f.count(), 2);
        assert_eq!(f.leaf_skipped(), &[1, 0, 1]);
        assert!(!f.take_leaf(0) && !f.take_leaf(2));
    }
}
