//! Distributed cluster assignment by pointer jumping.
//!
//! The paper performs density-peak selection and cluster assignment
//! centrally (§III-A Step 3), arguing the `(rho, delta)` sets are small.
//! That is true — but the assignment chain walk is still O(N) sequential
//! work on the master, and for billion-point data sets even that step is
//! worth distributing. This module implements assignment as a sequence of
//! **pointer-jumping** MapReduce jobs, the classic technique for
//! list/tree contraction in MapReduce:
//!
//! * every selected peak points to itself (a root);
//! * every other point starts by pointing at its upslope point;
//! * each round runs one job that replaces `ptr[i]` with `ptr[ptr[i]]`
//!   (the mapper sends each point's id to its target as a *query* and its
//!   own pointer as a *fact*; the reducer answers queries with the fact);
//! * pointers double their reach every round, so `⌈log₂ chain-depth⌉`
//!   rounds converge — 30-some jobs suffice for a billion points.
//!
//! Because peaks self-loop, a pointer can never jump *past* a peak:
//! every point converges to the first selected peak on its upslope chain,
//! which is exactly what the centralized assignment computes
//! (equivalence is tested).

use crate::common::PipelineConfig;
use dp_core::decision::Clustering;
use dp_core::dp::{DpResult, NO_UPSLOPE};
use dp_core::PointId;
use mapreduce::{plan, Emitter, JobMetrics, Mapper, Reducer, Stage};

/// One round's record: a point and its current pointer.
type Ptr = (PointId, PointId);

/// Round message: either this key's current target (`Fact`) or a request
/// from `asker` to learn the key's target (`Query`).
/// Encoded as `(tag, id)`: tag 0 = fact (id = the target), tag 1 = query
/// (id = the asker).
type Msg = (u8, PointId);

struct JumpMapper;
impl Mapper for JumpMapper {
    type InKey = PointId;
    type InValue = PointId;
    type OutKey = PointId;
    type OutValue = Msg;

    fn map(&self, i: PointId, ptr: PointId, out: &mut Emitter<PointId, Msg>) {
        // Publish my own pointer under my id...
        out.emit(i, (0, ptr));
        // ...and ask my target for its pointer (self-loops need not ask).
        if ptr != i {
            out.emit(ptr, (1, i));
        }
    }
}

struct JumpReducer;
impl Reducer for JumpReducer {
    type InKey = PointId;
    type InValue = Msg;
    type OutKey = PointId;
    type OutValue = PointId;

    fn reduce(&self, key: &PointId, msgs: Vec<Msg>, out: &mut Emitter<PointId, PointId>) {
        let mut target = None;
        let mut askers = Vec::new();
        for (tag, id) in msgs {
            match tag {
                0 => target = Some(id),
                _ => askers.push(id),
            }
        }
        let target = target.expect("every point publishes its pointer");
        // My own (unchanged) pointer record...
        out.emit(*key, target);
        // ...and the doubled pointers of everyone who asked.
        for a in askers {
            out.emit(a, target);
        }
    }
}

/// Output of the distributed assignment.
#[derive(Debug)]
pub struct DistributedAssignment {
    /// The final clustering (identical to the centralized one).
    pub clustering: Clustering,
    /// Metrics of each pointer-jumping round.
    pub rounds: Vec<JobMetrics>,
}

/// Assigns every point to the cluster of the first selected peak on its
/// upslope chain, as a sequence of pointer-jumping MapReduce jobs.
///
/// Semantics match [`dp_core::decision::assign`] exactly: points whose
/// chain ends at an unselected absolute peak fall into the first peak's
/// cluster.
///
/// # Panics
/// Panics if `peaks` is empty, contains duplicates, or is out of range.
pub fn assign_distributed(
    result: &DpResult,
    peaks: &[PointId],
    pipeline: &PipelineConfig,
) -> DistributedAssignment {
    let _pipeline_span = obsv::span!("pipeline", "assign-mr");
    assert!(!peaks.is_empty(), "at least one density peak is required");
    let n = result.len();
    let mut peak_cluster = vec![u32::MAX; n];
    for (c, &p) in peaks.iter().enumerate() {
        assert!((p as usize) < n, "peak {p} out of range");
        assert!(
            peak_cluster[p as usize] == u32::MAX,
            "duplicate peak id {p}"
        );
        peak_cluster[p as usize] = c as u32;
    }

    // Initial pointers: peaks self-loop; everyone else follows upslope
    // (the absolute peak, if unselected, also self-loops and is resolved
    // to cluster 0 at the end — matching the centralized fallback).
    let mut ptrs: Vec<Ptr> = (0..n as PointId)
        .map(|i| {
            let target = if peak_cluster[i as usize] != u32::MAX {
                i
            } else {
                match result.upslope[i as usize] {
                    NO_UPSLOPE => i,
                    u => u,
                }
            };
            (i, target)
        })
        .collect();

    // Pointer doubling until fixpoint (at most ceil(log2 n) + 1 rounds).
    // Each round's input is freshly doubled pointers, so no two rounds
    // share a source and nothing is elidable — but routing every round
    // through the driver still buys auto-recorded metrics and per-stage
    // spans.
    let job_cfg = pipeline.job_config();
    let mut driver = pipeline.driver();
    let max_rounds = (usize::BITS - n.leading_zeros()) as usize + 1;
    for round in 0..max_rounds {
        let name = format!("assign/jump-{round}");
        let next = driver.run_plan(
            plan(name.clone())
                .rows(ptrs.clone())
                .stage(Stage::new(name, JumpMapper, JumpReducer).config(job_cfg))
                .build(),
        );
        // Each point receives its own (unchanged) pointer from its key's
        // reduce and — unless it was already a self-loop — the doubled
        // pointer from its target's reduce. The doubled one is whichever
        // candidate differs from the old pointer.
        let mut merged: Vec<PointId> = ptrs.iter().map(|&(_, t)| t).collect();
        for (i, t) in next {
            if t != ptrs[i as usize].1 {
                debug_assert_eq!(
                    t, ptrs[ptrs[i as usize].1 as usize].1,
                    "answer must be the doubled pointer"
                );
                merged[i as usize] = t;
            }
        }
        let new_ptrs: Vec<Ptr> = (0..n as PointId).map(|i| (i, merged[i as usize])).collect();
        let converged = new_ptrs == ptrs;
        ptrs = new_ptrs;
        if converged {
            break;
        }
    }

    let labels: Vec<u32> = ptrs
        .iter()
        .map(|&(_, root)| {
            let c = peak_cluster[root as usize];
            if c != u32::MAX {
                c
            } else {
                0 // unselected absolute peak: centralized fallback
            }
        })
        .collect();

    DistributedAssignment {
        clustering: Clustering::from_labels(labels, peaks.len() as u32),
        rounds: driver.into_history(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{compute_exact, Dataset};

    fn chain_heavy_dataset() -> Dataset {
        // A long gradient chain plus two blobs: deep upslope chains
        // exercise multiple doubling rounds.
        let mut ds = Dataset::new(1);
        for i in 0..64 {
            // Increasingly dense toward the right.
            let x = 100.0 - (i as f64).powf(1.3);
            ds.push(&[x]);
        }
        for i in 0..20 {
            ds.push(&[-50.0 + i as f64 * 0.05]);
        }
        ds
    }

    #[test]
    fn matches_centralized_assignment() {
        let ds = chain_heavy_dataset();
        let r = compute_exact(&ds, 3.0);
        for k in [1usize, 2, 4] {
            let peaks = dp_core::decision::select_top_k(&r, k);
            let central = dp_core::decision::assign(&r, &peaks);
            let dist = assign_distributed(&r, &peaks, &PipelineConfig::default());
            assert_eq!(
                central.labels(),
                dist.clustering.labels(),
                "k = {k}: distributed assignment must equal centralized"
            );
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let ds = chain_heavy_dataset();
        let r = compute_exact(&ds, 3.0);
        let peaks = dp_core::decision::select_top_k(&r, 2);
        let dist = assign_distributed(&r, &peaks, &PipelineConfig::default());
        let n = ds.len();
        assert!(
            dist.rounds.len() <= (usize::BITS - n.leading_zeros()) as usize + 1,
            "{} rounds for {} points",
            dist.rounds.len(),
            n
        );
        assert!(dist.rounds.len() >= 2, "deep chains need several rounds");
    }

    #[test]
    fn single_peak_collapses_everything() {
        let ds = chain_heavy_dataset();
        let r = compute_exact(&ds, 3.0);
        let peaks = dp_core::decision::select_top_k(&r, 1);
        let dist = assign_distributed(&r, &peaks, &PipelineConfig::default());
        assert!(dist.clustering.labels().iter().all(|&l| l == 0));
    }

    #[test]
    #[should_panic(expected = "at least one density peak")]
    fn rejects_empty_peaks() {
        let ds = chain_heavy_dataset();
        let r = compute_exact(&ds, 3.0);
        let _ = assign_distributed(&r, &[], &PipelineConfig::default());
    }
}
