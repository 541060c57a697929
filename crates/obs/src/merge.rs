//! Deterministic merging of per-worker observability state.
//!
//! The parallel executor (`abw-exec`) gives every worker its own
//! recorder, metric set and manifest fragment so the hot path never
//! contends on a shared sink. At join time the fragments are folded back
//! together **in job-index order** — the one ordering that makes a
//! parallel run indistinguishable from a serial one. [`Merge`] is the
//! contract every foldable type implements:
//!
//! * histograms merge **bucket-wise** (geometry-checked),
//! * event buffers **append** in job order,
//! * span profiles merge node by name (counts and times sum),
//! * link snapshots and manifests use their existing accumulation
//!   rules.

use crate::manifest::{LinkSnapshot, RunManifest};
use crate::metrics::LogLinearHistogram;
use crate::prof::Profile;
use crate::record::MemoryRecorder;

/// Fold another instance of the same observable into `self`.
///
/// Callers merge fragments in **job-index order**; implementations whose
/// semantics are order-sensitive (event buffers) rely on that.
pub trait Merge {
    /// Accumulates `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

impl Merge for LogLinearHistogram {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Merge for MemoryRecorder {
    fn merge_from(&mut self, other: &Self) {
        MemoryRecorder::merge_from(self, other);
    }
}

impl Merge for LinkSnapshot {
    fn merge_from(&mut self, other: &Self) {
        LinkSnapshot::merge_from(self, other);
    }
}

impl Merge for RunManifest {
    fn merge_from(&mut self, other: &Self) {
        self.absorb(other.clone());
    }
}

impl Merge for Profile {
    fn merge_from(&mut self, other: &Self) {
        Profile::merge_from(self, other);
    }
}

/// Folds `fragments` into `base` in index order — the canonical join
/// loop of the executor, exposed for direct use and tests.
pub fn merge_in_order<T: Merge>(base: &mut T, fragments: &[T]) {
    for fragment in fragments {
        base.merge_from(fragment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;
    use crate::record::Recorder as _;

    #[test]
    fn histograms_merge_bucket_wise() {
        let mut a = LogLinearHistogram::new(16, 4, 2);
        let mut b = LogLinearHistogram::new(16, 4, 2);
        a.record(17);
        b.record(17);
        b.record(40);
        Merge::merge_from(&mut a, &b);
        let counts: Vec<u64> = a.buckets().map(|(_, _, c)| c).collect();
        assert_eq!(counts[0], 2, "both 17s in the first bucket");
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn memory_recorders_merged_in_job_order_equal_the_serial_recorder() {
        // "serial": one recorder sees the jobs back-to-back
        let mut serial = MemoryRecorder::new();
        // "parallel": each worker records its own job
        let mut workers: Vec<MemoryRecorder> = Vec::new();
        for job in 0..4u64 {
            let mut w = MemoryRecorder::new();
            for step in 0..3u64 {
                let fields = [("job", Value::U64(job)), ("step", Value::U64(step))];
                serial.instant(job * 10 + step, "job.step", &fields);
                w.instant(job * 10 + step, "job.step", &fields);
            }
            workers.push(w);
        }
        let mut merged = MemoryRecorder::new();
        merge_in_order(&mut merged, &workers);
        assert_eq!(merged.events(), serial.events());
    }

    #[test]
    fn profiles_fold_span_trees_by_name() {
        let mut worker0 = Profile::new();
        worker0.record_path(&["exec.job"], 2, 100);
        worker0.record_path(&["exec.job", "pathload"], 2, 80);
        let mut worker1 = Profile::new();
        worker1.record_path(&["exec.job"], 1, 50);
        worker1.record_path(&["exec.job", "spruce"], 1, 40);
        let mut merged = Profile::new();
        merge_in_order(&mut merged, &[worker0, worker1]);
        assert_eq!(merged.node_stats(&["exec.job"]), Some((3, 150)));
        assert_eq!(merged.node_stats(&["exec.job", "pathload"]), Some((2, 80)));
        assert_eq!(merged.node_stats(&["exec.job", "spruce"]), Some((1, 40)));
    }

    #[test]
    fn manifests_fold_counters_and_links() {
        let mut base = RunManifest::default();
        base.add_counter("injected", 5);
        let mut frag = RunManifest::default();
        frag.add_counter("injected", 7);
        frag.fold_link(LinkSnapshot {
            link: "0".into(),
            forwarded_pkts: 3,
            ..LinkSnapshot::default()
        });
        Merge::merge_from(&mut base, &frag);
        assert_eq!(base.counters, vec![("injected".to_string(), 12)]);
        assert_eq!(base.links.len(), 1);
        assert_eq!(base.links[0].forwarded_pkts, 3);
    }
}
