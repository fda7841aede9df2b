//! Job metrics, mirroring Hadoop's job counter report.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Duration summary of one phase's task attempts (nanoseconds), derived
/// from the span layer's per-task measurements. All-zero when a job
/// predates task timing — the field deserializes via `#[serde(default)]`
/// from older metric dumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTimes {
    /// Task attempts measured.
    pub tasks: u64,
    /// Median task duration (ns, bucket upper bound).
    pub p50_ns: u64,
    /// 95th-percentile task duration (ns).
    pub p95_ns: u64,
    /// 99th-percentile task duration (ns).
    pub p99_ns: u64,
    /// Longest task attempt (ns, exact) — the straggler that bounds the
    /// phase's critical path.
    pub max_ns: u64,
}

impl TaskTimes {
    /// Merges two summaries the way [`JobMetrics::aggregate`] needs:
    /// attempt counts add, quantiles take the element-wise max (the
    /// aggregate answers "how bad did any constituent job's tasks get",
    /// not a recomputed cross-job distribution).
    pub fn merge(self, other: TaskTimes) -> TaskTimes {
        TaskTimes {
            tasks: self.tasks + other.tasks,
            p50_ns: self.p50_ns.max(other.p50_ns),
            p95_ns: self.p95_ns.max(other.p95_ns),
            p99_ns: self.p99_ns.max(other.p99_ns),
            max_ns: self.max_ns.max(other.max_ns),
        }
    }
}

/// Measured statistics of one completed MapReduce job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub name: String,
    /// Records fed to the map phase.
    pub map_input_records: u64,
    /// Records emitted by mappers (before any combiner).
    pub map_output_records: u64,
    /// Records after map-side combining (equals `map_output_records` when
    /// no combiner is configured).
    pub combine_output_records: u64,
    /// Records crossing the shuffle boundary.
    pub shuffle_records: u64,
    /// Estimated serialized bytes crossing the shuffle boundary — the
    /// paper's "shuffled data" (Figure 10(b)).
    pub shuffle_bytes: u64,
    /// Bytes that *would* have crossed the shuffle boundary but didn't,
    /// because the scheduler elided this stage's map+shuffle and reused a
    /// co-partitioned intermediate retained from an earlier stage. Kept
    /// separate from `shuffle_bytes` so Figure 10(b) accounting stays
    /// exact: the logical shuffle volume of a plan is
    /// `shuffle_bytes + shuffle_bytes_saved`. Defaults to 0 in metric
    /// dumps that predate plan execution.
    #[serde(default)]
    pub shuffle_bytes_saved: u64,
    /// Distinct keys seen by the reduce phase.
    pub reduce_input_groups: u64,
    /// Records emitted by reducers.
    pub reduce_output_records: u64,
    /// Size of the largest single reduce group (values under one key) —
    /// the skew signal behind the paper's Figure 12(a) observation that
    /// small `M` with large `pi` degrades runtime.
    pub max_reduce_group: u64,
    /// Records handled by the most loaded reduce task.
    pub max_reduce_task_records: u64,
    /// Task attempts wasted to injected crashes and retried
    /// (see [`crate::fault::FaultPlan`]); 0 without fault injection.
    pub task_retries: u64,
    /// Speculative task clones launched against stragglers.
    #[serde(default)]
    pub speculative_launched: u64,
    /// Speculative clones that finished before their straggling original
    /// — the wins that shortened the phase's critical path.
    #[serde(default)]
    pub speculative_wins: u64,
    /// Wasted work re-executed by speculative clones, in nanoseconds
    /// (every clone re-pays its task body, win or lose).
    #[serde(default)]
    pub speculative_work_ns: u64,
    /// Injected straggler delay actually slept, in nanoseconds (delay
    /// avoided by winning speculative clones is not included).
    #[serde(default)]
    pub straggler_delay_ns: u64,
    /// Bytes written to the DFS as stage checkpoints on behalf of this
    /// job's plan stage; 0 when checkpointing is off.
    #[serde(default)]
    pub checkpoint_bytes: u64,
    /// Peak resident heap bytes observed while the job (stage) ran, as
    /// measured by the instrumenting global allocator
    /// (`obsv::alloc`). 0 when heap accounting is disabled or for
    /// metric dumps that predate the telemetry plane.
    #[serde(default)]
    pub peak_resident_bytes: u64,
    /// Shuffle bytes this job moved to the disk spill tier under memory
    /// pressure (map-side bucket spills plus spilled retention copies);
    /// 0 without a memory budget.
    #[serde(default)]
    pub spill_bytes: u64,
    /// Nanoseconds this job's reduce tasks spent stalled at the memory
    /// governor's admission gate; 0 without a memory budget.
    #[serde(default)]
    pub backpressure_stall_ns: u64,
    /// Wall-clock duration of the job on the host machine.
    #[serde(with = "duration_secs")]
    pub wall_time: Duration,
    /// Wall-clock duration of the map (+ combine + partition) phase.
    #[serde(with = "duration_secs")]
    pub map_time: Duration,
    /// Wall-clock duration of the sort/group + reduce phase.
    #[serde(with = "duration_secs")]
    pub reduce_time: Duration,
    /// Wall-clock duration of the shuffle merge (per-reducer bucket
    /// concatenation + byte accounting).
    #[serde(with = "duration_secs", default)]
    pub shuffle_time: Duration,
    /// Per-attempt duration summary of the map tasks.
    #[serde(default)]
    pub map_task_times: TaskTimes,
    /// Per-attempt duration summary of the reduce tasks.
    #[serde(default)]
    pub reduce_task_times: TaskTimes,
    /// Named pipeline-level counters: whatever the stage's `finalize`
    /// hook records (e.g. cumulative distance evaluations), plus the
    /// scheduler's `resumed_from_checkpoint` marker.
    pub user: BTreeMap<String, u64>,
}

mod duration_secs {
    use serde::{Deserialize, Deserializer, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(d.as_secs_f64())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let secs = f64::deserialize(d)?;
        Ok(Duration::from_secs_f64(secs))
    }
}

impl JobMetrics {
    /// Sums the cost-relevant counters of a sequence of jobs (e.g. all four
    /// LSH-DDP jobs) into one aggregate; `wall_time`s add, names join with
    /// `+`.
    pub fn aggregate<'a>(jobs: impl IntoIterator<Item = &'a JobMetrics>) -> JobMetrics {
        let mut out = JobMetrics::default();
        let mut names = Vec::new();
        for j in jobs {
            names.push(j.name.clone());
            out.map_input_records += j.map_input_records;
            out.map_output_records += j.map_output_records;
            out.combine_output_records += j.combine_output_records;
            out.shuffle_records += j.shuffle_records;
            out.shuffle_bytes += j.shuffle_bytes;
            out.shuffle_bytes_saved += j.shuffle_bytes_saved;
            out.reduce_input_groups += j.reduce_input_groups;
            out.reduce_output_records += j.reduce_output_records;
            out.max_reduce_group = out.max_reduce_group.max(j.max_reduce_group);
            out.max_reduce_task_records =
                out.max_reduce_task_records.max(j.max_reduce_task_records);
            out.task_retries += j.task_retries;
            out.speculative_launched += j.speculative_launched;
            out.speculative_wins += j.speculative_wins;
            out.speculative_work_ns += j.speculative_work_ns;
            out.straggler_delay_ns += j.straggler_delay_ns;
            out.checkpoint_bytes += j.checkpoint_bytes;
            // Stages run sequentially against the same heap, so the
            // pipeline's peak is the worst single stage, not a sum.
            out.peak_resident_bytes = out.peak_resident_bytes.max(j.peak_resident_bytes);
            out.spill_bytes += j.spill_bytes;
            out.backpressure_stall_ns += j.backpressure_stall_ns;
            out.wall_time += j.wall_time;
            out.map_time += j.map_time;
            out.reduce_time += j.reduce_time;
            out.shuffle_time += j.shuffle_time;
            out.map_task_times = out.map_task_times.merge(j.map_task_times);
            out.reduce_task_times = out.reduce_task_times.merge(j.reduce_task_times);
            for (k, v) in &j.user {
                *out.user.entry(k.clone()).or_insert(0) += v;
            }
        }
        out.name = names.join("+");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_times_merge_adds_counts_and_maxes_quantiles() {
        let a = TaskTimes {
            tasks: 4,
            p50_ns: 100,
            p95_ns: 200,
            p99_ns: 300,
            max_ns: 400,
        };
        let b = TaskTimes {
            tasks: 2,
            p50_ns: 150,
            p95_ns: 180,
            p99_ns: 350,
            max_ns: 390,
        };
        let m = a.merge(b);
        assert_eq!(m.tasks, 6);
        assert_eq!(m.p50_ns, 150);
        assert_eq!(m.p95_ns, 200);
        assert_eq!(m.p99_ns, 350);
        assert_eq!(m.max_ns, 400);
    }

    #[test]
    fn job_metrics_load_from_pre_task_times_dumps() {
        // Backward compat: metric dumps written before the task-time and
        // shuffle-time fields existed must still deserialize, with the
        // missing fields defaulting. Serialize a current JobMetrics to the
        // Value tree, strip the new fields (emulating an old dump), and
        // load it back.
        #[derive(Debug)]
        struct E(String);
        impl std::fmt::Display for E {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl serde::de::Error for E {
            fn custom<T: std::fmt::Display>(msg: T) -> Self {
                E(msg.to_string())
            }
        }

        let current = JobMetrics {
            name: "legacy".into(),
            shuffle_bytes: 123,
            shuffle_bytes_saved: 55,
            wall_time: Duration::from_millis(7),
            shuffle_time: Duration::from_millis(2),
            map_task_times: TaskTimes {
                tasks: 3,
                max_ns: 99,
                ..Default::default()
            },
            ..Default::default()
        };
        let serde::Value::Map(fields) = serde::to_value(&current) else {
            panic!("JobMetrics must serialize to a map");
        };
        let old_dump: Vec<(String, serde::Value)> = fields
            .into_iter()
            .filter(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "shuffle_time"
                        | "map_task_times"
                        | "reduce_task_times"
                        | "shuffle_bytes_saved"
                        | "speculative_launched"
                        | "speculative_wins"
                        | "speculative_work_ns"
                        | "straggler_delay_ns"
                        | "checkpoint_bytes"
                        | "peak_resident_bytes"
                        | "spill_bytes"
                        | "backpressure_stall_ns"
                )
            })
            .collect();
        let loaded: JobMetrics =
            serde::from_value::<_, E>(serde::Value::Map(old_dump)).expect("old dump must load");
        assert_eq!(loaded.name, "legacy");
        assert_eq!(loaded.shuffle_bytes, 123);
        assert_eq!(loaded.shuffle_bytes_saved, 0);
        assert_eq!(loaded.speculative_launched, 0);
        assert_eq!(loaded.checkpoint_bytes, 0);
        assert_eq!(loaded.peak_resident_bytes, 0);
        assert_eq!(loaded.spill_bytes, 0);
        assert_eq!(loaded.backpressure_stall_ns, 0);
        assert_eq!(loaded.wall_time, Duration::from_millis(7));
        assert_eq!(loaded.shuffle_time, Duration::ZERO);
        assert_eq!(loaded.map_task_times, TaskTimes::default());
        assert_eq!(loaded.reduce_task_times, TaskTimes::default());
    }

    #[test]
    fn metrics_aggregate_sums_fields() {
        let a = JobMetrics {
            name: "j1".into(),
            shuffle_bytes: 100,
            shuffle_records: 10,
            wall_time: Duration::from_millis(5),
            ..Default::default()
        };
        let mut b = a.clone();
        b.name = "j2".into();
        let agg = JobMetrics::aggregate([&a, &b]);
        assert_eq!(agg.name, "j1+j2");
        assert_eq!(agg.shuffle_bytes, 200);
        assert_eq!(agg.shuffle_records, 20);
        assert_eq!(agg.wall_time, Duration::from_millis(10));
    }

    #[test]
    fn metrics_aggregate_merges_user_counters() {
        let mut a = JobMetrics::default();
        a.user.insert("dist".into(), 5);
        let mut b = JobMetrics::default();
        b.user.insert("dist".into(), 7);
        b.user.insert("other".into(), 1);
        let agg = JobMetrics::aggregate([&a, &b]);
        assert_eq!(agg.user["dist"], 12);
        assert_eq!(agg.user["other"], 1);
    }
}
