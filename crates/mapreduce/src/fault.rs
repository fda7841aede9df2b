//! Task-level fault injection and retry — MapReduce's hallmark
//! fault-tolerance behavior.
//!
//! Hadoop reschedules a failed task attempt on another worker, up to
//! `mapred.map.max.attempts` (default 4) before failing the whole job.
//! Because a task is a pure function of its input split, retries are
//! invisible in the output; only wasted work shows up in the counters.
//!
//! [`ChaosPlan`] is the one fault plan. It injects deterministic crashes:
//! attempt `a` of task `t` in phase `p` fails iff a seeded hash lands
//! under the configured per-mille rate. The engine charges the wasted
//! attempts to [`crate::JobMetrics::task_retries`] and panics like
//! Hadoop's job-kill if a task exhausts its attempts. On top of crashes
//! the plan layers the rest of what the hardware can throw at a job:
//!
//! * **Stragglers** — a seeded subset of tasks is charged a slowdown
//!   multiplier on its measured runtime (capped so tests stay fast); the
//!   engine answers with speculative re-execution.
//! * **Record corruption** — a seeded subset of attempts is drawn as
//!   having produced output that failed its checksum, and is retried
//!   like a failed attempt. The draw is the attempt's outcome; no frame
//!   is decoded for it.
//! * **Permanent partition loss** — a seeded subset of partitions in a
//!   named scope never comes back; callers with redundancy (LSH-DDP's
//!   `M` layouts) degrade gracefully instead of dying.
//!
//! Every schedule is a pure function of `(seed, phase, task, attempt)`,
//! so a chaos run is exactly reproducible and — because tasks are
//! deterministic — bit-identical in output to the fault-free run
//! whenever no task exhausts its attempts.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which phase a task belongs to (used in failure hashing so map and
/// reduce attempts fail independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Map (+ combine + partition) tasks.
    Map,
    /// Sort/group + reduce tasks.
    Reduce,
}

fn phase_salt(phase: Phase) -> u64 {
    match phase {
        Phase::Map => 0x6d61u64,
        Phase::Reduce => 0x7265u64,
    }
}

/// The splitmix64-style mixer behind every chaos schedule: a pure
/// function of `(seed, a, b, c)` with well-spread low bits. Shared
/// with the storage-fault schedules in [`crate::io_shim`].
pub(crate) fn chaos_hash(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an injected attempt did: succeeded, crashed, or produced output
/// whose checksum does not verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Attempt completes and its output verifies.
    Ok,
    /// Attempt crashes (classic task failure).
    Fail,
    /// Attempt completes but its output fails checksum verification;
    /// the engine discards it and retries, like a failure.
    Corrupt,
}

/// Wasted work charged to a task before its first good attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskWastage {
    /// Attempts that crashed outright.
    pub failed: u32,
    /// Attempts whose output was detected corrupt via checksum.
    pub corrupt: u32,
}

impl TaskWastage {
    /// Total wasted attempts (each re-ran the full task body).
    pub fn total(&self) -> u32 {
        self.failed + self.corrupt
    }
}

/// Deterministic whole-cluster failure plan: task crashes plus
/// stragglers, record corruption, and permanent partition loss.
///
/// All schedules share one seed, salted per failure class, so one seed
/// reproduces an entire chaotic run. A plan with `max_attempts: 0` dooms
/// every task it reaches: the kill drills' way to stop a job.
///
/// ```
/// use mapreduce::{ChaosPlan, Phase};
/// let chaos = ChaosPlan::new(100, 42).with_stragglers(250, 4.0, 20);
/// // Schedules are pure functions of the seed:
/// assert_eq!(
///     chaos.is_straggler(Phase::Map, 3),
///     chaos.is_straggler(Phase::Map, 3),
/// );
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Crash probability per task attempt, in per-mille (0–999).
    pub fail_per_mille: u32,
    /// Attempts a task gets in total before the job is killed (Hadoop
    /// default: 4).
    pub max_attempts: u32,
    /// Hash seed: same plan + same job shape = same faults.
    pub seed: u64,
    /// Fraction of tasks (per mille) charged a straggler slowdown.
    #[serde(default)]
    pub straggler_per_mille: u32,
    /// Runtime multiplier for straggler tasks; values `<= 1` disable the
    /// extra delay.
    #[serde(default)]
    pub straggler_slowdown: f64,
    /// Upper bound on the injected delay per straggler task, in
    /// milliseconds (`0` = uncapped). Keeps chaos tests fast.
    #[serde(default)]
    pub straggler_cap_ms: u64,
    /// Fraction of attempts (per mille) whose output is corrupted in
    /// flight and caught by checksum verification.
    #[serde(default)]
    pub corrupt_per_mille: u32,
    /// Fraction of partitions (per mille) permanently lost per scope —
    /// see [`ChaosPlan::loses_partition`].
    #[serde(default)]
    pub partition_loss_per_mille: u32,
}

impl ChaosPlan {
    /// A plan crashing roughly `fail_per_mille`/1000 of attempts, with 4
    /// attempts per task and every other failure class off.
    pub fn new(fail_per_mille: u32, seed: u64) -> Self {
        assert!(
            fail_per_mille < 1000,
            "a rate of 1000 would fail every attempt"
        );
        ChaosPlan {
            fail_per_mille,
            max_attempts: 4,
            seed,
            straggler_per_mille: 0,
            straggler_slowdown: 0.0,
            straggler_cap_ms: 0,
            corrupt_per_mille: 0,
            partition_loss_per_mille: 0,
        }
    }

    /// Enables straggler injection: `per_mille` of tasks run `slowdown`×
    /// their natural time, with the extra delay capped at `cap_ms`.
    pub fn with_stragglers(mut self, per_mille: u32, slowdown: f64, cap_ms: u64) -> Self {
        assert!(per_mille <= 1000, "straggler rate is per mille");
        self.straggler_per_mille = per_mille;
        self.straggler_slowdown = slowdown;
        self.straggler_cap_ms = cap_ms;
        self
    }

    /// Enables record corruption at `per_mille` of attempts.
    pub fn with_corruption(mut self, per_mille: u32) -> Self {
        assert!(
            per_mille < 1000,
            "a rate of 1000 would corrupt every attempt"
        );
        self.corrupt_per_mille = per_mille;
        self
    }

    /// Enables permanent partition loss at `per_mille` of partitions.
    pub fn with_partition_loss(mut self, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "loss rate is per mille");
        self.partition_loss_per_mille = per_mille;
        self
    }

    /// Outcome of one attempt: crash failures take precedence over
    /// corruption (a crashed attempt never ships output to verify).
    pub fn attempt_outcome(&self, phase: Phase, task: usize, attempt: u32) -> AttemptOutcome {
        // Crashes hash the bare seed; corruption salts it with "corr".
        let draw = |salt: u64| {
            chaos_hash(
                self.seed ^ salt,
                phase_salt(phase),
                task as u64,
                attempt as u64,
            ) % 1000
        };
        if self.fail_per_mille > 0 && draw(0) < self.fail_per_mille as u64 {
            return AttemptOutcome::Fail;
        }
        if self.corrupt_per_mille > 0 && draw(0x636f_7272) < self.corrupt_per_mille as u64 {
            return AttemptOutcome::Corrupt;
        }
        AttemptOutcome::Ok
    }

    /// Wasted attempts before the first verified success, or `None` when
    /// every allowed attempt fails or corrupts (job kill). The engine
    /// charges these without re-running task bodies: tasks are
    /// deterministic, so a retry reproduces the same output.
    pub fn task_wastage(&self, phase: Phase, task: usize) -> Option<TaskWastage> {
        let mut w = TaskWastage::default();
        for attempt in 0..self.max_attempts {
            match self.attempt_outcome(phase, task, attempt) {
                AttemptOutcome::Ok => return Some(w),
                AttemptOutcome::Fail => w.failed += 1,
                AttemptOutcome::Corrupt => w.corrupt += 1,
            }
        }
        None
    }

    /// Whether a task is a straggler (charged the slowdown multiplier).
    pub fn is_straggler(&self, phase: Phase, task: usize) -> bool {
        if self.straggler_per_mille == 0 {
            return false;
        }
        let z = chaos_hash(
            self.seed ^ 0x7374_7261, // "stra"
            phase_salt(phase),
            task as u64,
            0,
        );
        (z % 1000) < self.straggler_per_mille as u64
    }

    /// Extra delay charged to a straggler whose natural runtime was
    /// `base`: `base * (slowdown - 1)`, capped at `straggler_cap_ms`.
    pub fn straggler_delay(&self, base: Duration) -> Duration {
        let factor = (self.straggler_slowdown - 1.0).max(0.0);
        let extra = base.mul_f64(factor);
        if self.straggler_cap_ms == 0 {
            extra
        } else {
            extra.min(Duration::from_millis(self.straggler_cap_ms))
        }
    }

    /// Whether partition `index` of the named `scope` (e.g. one LSH
    /// layout's hash) is permanently lost. Loss is stable for the whole
    /// run: every job that asks gets the same answer, modeling a dead
    /// node whose partitions never come back.
    pub fn loses_partition(&self, scope: u64, index: usize) -> bool {
        if self.partition_loss_per_mille == 0 {
            return false;
        }
        let z = chaos_hash(
            self.seed ^ 0x6c6f_7373, // "loss"
            scope,
            index as u64,
            0,
        );
        (z % 1000) < self.partition_loss_per_mille as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashes(plan: &ChaosPlan, phase: Phase, task: usize, attempt: u32) -> bool {
        plan.attempt_outcome(phase, task, attempt) == AttemptOutcome::Fail
    }

    #[test]
    fn zero_rate_never_fails() {
        let plan = ChaosPlan::new(0, 1);
        for t in 0..100 {
            assert_eq!(plan.attempt_outcome(Phase::Map, t, 0), AttemptOutcome::Ok);
        }
        assert_eq!(
            plan.task_wastage(Phase::Map, 0),
            Some(TaskWastage::default())
        );
    }

    #[test]
    fn failure_rate_is_roughly_honored() {
        let plan = ChaosPlan::new(200, 9);
        let failures = (0..10_000)
            .filter(|&t| crashes(&plan, Phase::Map, t, 0))
            .count();
        assert!(
            (1500..2500).contains(&failures),
            "expected ~2000/10000 failures, got {failures}"
        );
    }

    #[test]
    fn failures_are_deterministic_and_phase_dependent() {
        let plan = ChaosPlan::new(300, 7);
        for t in 0..50 {
            for a in 0..4 {
                assert_eq!(
                    plan.attempt_outcome(Phase::Map, t, a),
                    plan.attempt_outcome(Phase::Map, t, a)
                );
            }
        }
        // Map and reduce schedules differ somewhere.
        let differs = (0..200)
            .any(|t| crashes(&plan, Phase::Map, t, 0) != crashes(&plan, Phase::Reduce, t, 0));
        assert!(differs);
    }

    #[test]
    fn task_wastage_matches_the_attempt_schedule() {
        let plan = ChaosPlan::new(400, 13).with_corruption(250);
        let (mut saw_fail, mut saw_corrupt, mut saw_doom) = (false, false, false);
        for t in 0..500 {
            let outcomes: Vec<AttemptOutcome> = (0..plan.max_attempts)
                .map(|a| plan.attempt_outcome(Phase::Map, t, a))
                .collect();
            let wasted = |o: AttemptOutcome, upto: usize| {
                outcomes[..upto].iter().filter(|&&x| x == o).count() as u32
            };
            match plan.task_wastage(Phase::Map, t) {
                Some(w) => {
                    let first_ok = w.total() as usize;
                    assert_eq!(outcomes[first_ok], AttemptOutcome::Ok, "task {t}");
                    assert!(!outcomes[..first_ok].contains(&AttemptOutcome::Ok));
                    assert_eq!(w.failed, wasted(AttemptOutcome::Fail, first_ok));
                    assert_eq!(w.corrupt, wasted(AttemptOutcome::Corrupt, first_ok));
                    saw_fail |= w.failed > 0;
                    saw_corrupt |= w.corrupt > 0;
                }
                None => {
                    assert!(!outcomes.contains(&AttemptOutcome::Ok), "task {t}");
                    saw_doom = true;
                }
            }
        }
        assert!(saw_fail && saw_corrupt && saw_doom);
    }

    #[test]
    fn chaos_schedules_are_deterministic_and_independent() {
        let chaos = ChaosPlan::new(200, 11)
            .with_stragglers(300, 4.0, 10)
            .with_corruption(150);
        for t in 0..100 {
            assert_eq!(
                chaos.is_straggler(Phase::Map, t),
                chaos.is_straggler(Phase::Map, t)
            );
            assert_eq!(
                chaos.attempt_outcome(Phase::Reduce, t, 1),
                chaos.attempt_outcome(Phase::Reduce, t, 1)
            );
        }
        // Straggler and failure schedules disagree somewhere: different salts.
        let differs = (0..500)
            .any(|t| chaos.is_straggler(Phase::Map, t) != crashes(&chaos, Phase::Map, t, 0));
        assert!(differs);
    }

    #[test]
    fn corruption_rate_is_roughly_honored() {
        let chaos = ChaosPlan::new(0, 17).with_corruption(200);
        let corrupt = (0..10_000)
            .filter(|&t| chaos.attempt_outcome(Phase::Map, t, 0) == AttemptOutcome::Corrupt)
            .count();
        assert!(
            (1500..2500).contains(&corrupt),
            "expected ~2000/10000 corruptions, got {corrupt}"
        );
    }

    #[test]
    fn crash_takes_precedence_over_corruption() {
        let crash_only = ChaosPlan::new(999, 3);
        let chaos = crash_only.with_corruption(999);
        // Nearly every attempt fails; none of the failing ones may report
        // Corrupt (a crashed attempt ships no output).
        for t in 0..200 {
            if crashes(&crash_only, Phase::Map, t, 0) {
                assert_eq!(
                    chaos.attempt_outcome(Phase::Map, t, 0),
                    AttemptOutcome::Fail
                );
            }
        }
    }

    #[test]
    fn straggler_delay_is_capped() {
        let chaos = ChaosPlan::new(0, 1).with_stragglers(1000, 10.0, 5);
        let d = chaos.straggler_delay(Duration::from_secs(1));
        assert_eq!(d, Duration::from_millis(5));
        let small = chaos.straggler_delay(Duration::from_micros(100));
        assert_eq!(small, Duration::from_micros(900));
    }

    #[test]
    fn partition_loss_is_stable_and_scoped() {
        let chaos = ChaosPlan::new(0, 5).with_partition_loss(400);
        let lost: Vec<bool> = (0..32).map(|i| chaos.loses_partition(99, i)).collect();
        let again: Vec<bool> = (0..32).map(|i| chaos.loses_partition(99, i)).collect();
        assert_eq!(lost, again, "loss is permanent");
        assert!(
            lost.iter().any(|&l| l),
            "rate 0.4 over 32 partitions loses some"
        );
        assert!(!lost.iter().all(|&l| l), "and keeps some");
        let other: Vec<bool> = (0..32).map(|i| chaos.loses_partition(100, i)).collect();
        assert_ne!(lost, other, "scopes fail independently");
    }

    #[test]
    fn task_wastage_none_when_all_attempts_bad() {
        let chaos = ChaosPlan::new(999, 5);
        let doomed = (0..10_000)
            .find(|&t| (0..4).all(|a| crashes(&chaos, Phase::Map, t, a)))
            .expect("a doomed task exists at rate 0.999");
        assert_eq!(chaos.task_wastage(Phase::Map, doomed), None);
    }
}
