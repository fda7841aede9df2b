//! The one fault plan: seeded compute and storage fault injection —
//! MapReduce's hallmark fault-tolerance behavior, plus the durability
//! tier's.
//!
//! Hadoop reschedules a failed task attempt on another worker, up to
//! `mapred.map.max.attempts` (default 4) before failing the whole job.
//! Because a task is a pure function of its input split, retries are
//! invisible in the output; only wasted work shows up in the counters.
//!
//! [`FaultPlan`] holds every fault class under one seed. Each class is a
//! per-mille rate drawn by one salted hash (`FaultPlan::hits`), so a
//! schedule is a pure function of the seed and the draw's coordinates:
//!
//! * **Crashes** (`fail`) — attempt `a` of task `t` in phase `p` fails.
//!   The job engine charges the wasted attempts to
//!   [`crate::JobMetrics::task_retries`] and panics like Hadoop's
//!   job-kill if a task exhausts [`FaultPlan::max_attempts`].
//! * **Stragglers** (`straggle`) — a seeded subset of tasks is charged a
//!   slowdown multiplier on its measured runtime (capped so tests stay
//!   fast); the engine answers with speculative re-execution.
//! * **Storage faults** (`eio`, `enospc`, `crash`, `torn`, `crash-at`) —
//!   read only by [`crate::io_shim::FaultFs`], which applies them per
//!   durable I/O op.
//!
//! The job engine reads only the compute classes and the shim only the
//! storage ones, so one plan arms both. Tasks are deterministic and every
//! durability path recovers, so no class can move an output bit: a
//! faulted run is bit-identical to the fault-free run whenever no task
//! exhausts its attempts and no storage fault is surfaced.

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

/// The splitmix64-style mixer behind every fault schedule: a pure
/// function of `(seed, a, b, c)` with well-spread low bits.
fn fault_hash(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic whole-cluster fault plan: task crashes and stragglers
/// for the job engine, EIO, ENOSPC and power cuts for the storage shim.
///
/// All schedules share one seed, salted per fault class, so one seed
/// reproduces an entire faulted run. A plan with `max_attempts: 0` dooms
/// every task it reaches: the kill drills' way to stop a job.
///
/// ```
/// use mapreduce::{FaultPlan, Phase};
/// let plan = FaultPlan::parse("seed=42,fail=100,straggle=250,eio=50").unwrap();
/// assert_eq!((plan.fail_per_mille, plan.eio_per_mille), (100, 50));
/// // Schedules are pure functions of the seed:
/// assert_eq!(plan.is_straggler(Phase::Map, 3), plan.is_straggler(Phase::Map, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Hash seed: same plan + same job shape = same faults.
    pub seed: u64,
    /// Crash probability per task attempt, in per-mille (0–999).
    pub fail_per_mille: u32,
    /// Attempts a task gets in total before the job is killed (Hadoop
    /// default: 4).
    pub max_attempts: u32,
    /// Fraction of tasks (per mille) charged a straggler slowdown.
    #[serde(default)]
    pub straggler_per_mille: u32,
    /// Runtime multiplier for straggler tasks; values `<= 1` disable the
    /// extra delay.
    #[serde(default)]
    pub straggler_slowdown: f64,
    /// Upper bound on the injected delay per straggler task, in
    /// milliseconds (`0` = uncapped). Keeps fault tests fast.
    #[serde(default)]
    pub straggler_cap_ms: u64,
    /// Transient `EIO` rate per storage op *attempt* — hashed on
    /// `(op, attempt)`, so a retry of the same op can succeed.
    #[serde(default)]
    pub eio_per_mille: u32,
    /// Persistent `ENOSPC` rate per storage op — hashed on the op alone,
    /// so retries cannot help (the disk stays full).
    #[serde(default)]
    pub enospc_per_mille: u32,
    /// Clean power-cut rate per storage op: unsynced data is truncated
    /// away.
    #[serde(default)]
    pub crash_per_mille: u32,
    /// Torn power-cut rate per storage op: half the in-flight write lands
    /// first.
    #[serde(default)]
    pub torn_per_mille: u32,
    /// Pin a power cut to exactly this storage op index (the drill's
    /// crash-point enumerator). Flavor chosen by [`Self::crash_torn`].
    #[serde(default)]
    pub crash_at: Option<u64>,
    /// Whether [`Self::crash_at`] tears the in-flight write instead of
    /// cutting cleanly.
    #[serde(default)]
    pub crash_torn: bool,
}

impl Default for FaultPlan {
    /// No faults of any class, 4 attempts per task.
    fn default() -> Self {
        FaultPlan::new(0, 0)
    }
}

impl FaultPlan {
    /// A plan crashing roughly `fail_per_mille`/1000 of task attempts,
    /// with 4 attempts per task and every other fault class off.
    pub fn new(fail_per_mille: u32, seed: u64) -> Self {
        assert!(
            fail_per_mille < 1000,
            "a rate of 1000 would fail every attempt"
        );
        FaultPlan {
            seed,
            fail_per_mille,
            max_attempts: 4,
            straggler_per_mille: 0,
            straggler_slowdown: 0.0,
            straggler_cap_ms: 0,
            eio_per_mille: 0,
            enospc_per_mille: 0,
            crash_per_mille: 0,
            torn_per_mille: 0,
            crash_at: None,
            crash_torn: false,
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

    /// Parses a `key=value` spec, e.g.
    /// `seed=7,fail=100,straggle=150,eio=200,enospc=5,crash=3,torn=3,crash-at=42,crash-torn`.
    /// Rates are per mille, `fail` below 1000 (1000 would fail every
    /// attempt) and the others up to 1000; a rate out of range or an
    /// unknown key is an error naming the key. Stragglers run 4× their
    /// natural time, capped at 20 ms; omitted keys are 0.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default().with_stragglers(0, 4.0, 20);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (part.trim(), None),
            };
            let num = |v: Option<&str>| -> Result<u64, String> {
                v.ok_or_else(|| format!("fault plan: `{key}` needs a value"))?
                    .parse::<u64>()
                    .map_err(|_| format!("fault plan: bad number in `{part}`"))
            };
            let rate = |v: Option<&str>, max: u32| -> Result<u32, String> {
                let n = num(v)?;
                u32::try_from(n)
                    .ok()
                    .filter(|&r| r <= max)
                    .ok_or_else(|| format!("fault plan: `{key}` is per mille (0-{max}), got {n}"))
            };
            match key {
                "seed" => plan.seed = num(val)?,
                "fail" => plan.fail_per_mille = rate(val, 999)?,
                "straggle" => plan.straggler_per_mille = rate(val, 1000)?,
                "eio" => plan.eio_per_mille = rate(val, 1000)?,
                "enospc" => plan.enospc_per_mille = rate(val, 1000)?,
                "crash" => plan.crash_per_mille = rate(val, 1000)?,
                "torn" => plan.torn_per_mille = rate(val, 1000)?,
                "crash-at" => plan.crash_at = Some(num(val)?),
                "crash-torn" => plan.crash_torn = true,
                other => return Err(format!("fault plan: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The one salted draw behind every schedule: whether the seeded hash
    /// of `(a, b, c)` under `salt` lands below `per_mille`/1000.
    pub(crate) fn hits(&self, per_mille: u32, salt: u64, a: u64, b: u64, c: u64) -> bool {
        per_mille > 0 && fault_hash(self.seed ^ salt, a, b, c) % 1000 < per_mille as u64
    }

    /// Whether attempt `attempt` of a task crashes.
    pub fn crashes(&self, phase: Phase, task: usize, attempt: u32) -> bool {
        // Crashes hash the bare seed.
        self.hits(
            self.fail_per_mille,
            0,
            phase_salt(phase),
            task as u64,
            attempt as u64,
        )
    }

    /// Crashed attempts before a task's first success, or `None` when
    /// every allowed attempt crashes (job kill). The engine charges these
    /// without re-running task bodies: tasks are deterministic, so a
    /// retry reproduces the same output.
    pub fn task_wastage(&self, phase: Phase, task: usize) -> Option<u32> {
        (0..self.max_attempts).find(|&attempt| !self.crashes(phase, task, attempt))
    }

    /// Whether a task is a straggler (charged the slowdown multiplier).
    pub fn is_straggler(&self, phase: Phase, task: usize) -> bool {
        self.hits(
            self.straggler_per_mille,
            0x7374_7261, // "stra"
            phase_salt(phase),
            task as u64,
            0,
        )
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fails() {
        let plan = FaultPlan::new(0, 1);
        assert!((0..100).all(|t| !plan.crashes(Phase::Map, t, 0)));
        assert_eq!(plan.task_wastage(Phase::Map, 0), Some(0));
    }

    #[test]
    fn failure_rate_is_roughly_honored() {
        let plan = FaultPlan::new(200, 9);
        let failures = (0..10_000)
            .filter(|&t| plan.crashes(Phase::Map, t, 0))
            .count();
        assert!(
            (1500..2500).contains(&failures),
            "expected ~2000/10000 failures, got {failures}"
        );
    }

    #[test]
    fn failures_are_deterministic_and_phase_dependent() {
        let plan = FaultPlan::new(300, 7);
        let schedule =
            |phase| -> Vec<bool> { (0..200).map(|t| plan.crashes(phase, t, 1)).collect() };
        assert_eq!(schedule(Phase::Map), schedule(Phase::Map));
        assert_ne!(schedule(Phase::Map), schedule(Phase::Reduce));
    }

    #[test]
    fn task_wastage_matches_the_attempt_schedule() {
        let plan = FaultPlan::new(600, 13);
        let (mut saw_fail, mut saw_doom) = (false, false);
        for t in 0..500 {
            let crashed: Vec<bool> = (0..plan.max_attempts)
                .map(|a| plan.crashes(Phase::Map, t, a))
                .collect();
            match plan.task_wastage(Phase::Map, t) {
                Some(w) => {
                    let first_ok = w as usize;
                    assert!(!crashed[first_ok], "task {t}");
                    assert!(crashed[..first_ok].iter().all(|&c| c));
                    saw_fail |= w > 0;
                }
                None => {
                    assert!(crashed.iter().all(|&c| c), "task {t}");
                    saw_doom = true;
                }
            }
        }
        assert!(saw_fail && saw_doom);
    }

    #[test]
    fn chaos_schedules_are_deterministic_and_independent() {
        let plan = FaultPlan::new(200, 11).with_stragglers(300, 4.0, 10);
        let stragglers: Vec<bool> = (0..500).map(|t| plan.is_straggler(Phase::Map, t)).collect();
        let crashes: Vec<bool> = (0..500).map(|t| plan.crashes(Phase::Map, t, 0)).collect();
        assert_eq!(
            stragglers,
            (0..500)
                .map(|t| plan.is_straggler(Phase::Map, t))
                .collect::<Vec<_>>()
        );
        // Different salts: the two schedules disagree somewhere.
        assert_ne!(stragglers, crashes);
    }

    #[test]
    fn straggler_delay_is_capped() {
        let plan = FaultPlan::new(0, 1).with_stragglers(1000, 10.0, 5);
        let d = plan.straggler_delay(Duration::from_secs(1));
        assert_eq!(d, Duration::from_millis(5));
        let small = plan.straggler_delay(Duration::from_micros(100));
        assert_eq!(small, Duration::from_micros(900));
    }

    #[test]
    fn task_wastage_none_when_all_attempts_bad() {
        let plan = FaultPlan::new(999, 5);
        let doomed = (0..10_000)
            .find(|&t| (0..4).all(|a| plan.crashes(Phase::Map, t, a)))
            .expect("a doomed task exists at rate 0.999");
        assert_eq!(plan.task_wastage(Phase::Map, doomed), None);
    }

    /// Every key of the grammar lands in its field; an unknown key or an
    /// out-of-range rate is an error naming the key, never a silent wrap.
    #[test]
    fn plan_spec_round_trip() {
        let spec =
            "seed=7,fail=300,straggle=150,eio=200,enospc=5,crash=3,torn=2,crash-at=42,crash-torn";
        let want = FaultPlan {
            seed: 7,
            fail_per_mille: 300,
            max_attempts: 4,
            straggler_per_mille: 150,
            straggler_slowdown: 4.0,
            straggler_cap_ms: 20,
            eio_per_mille: 200,
            enospc_per_mille: 5,
            crash_per_mille: 3,
            torn_per_mille: 2,
            crash_at: Some(42),
            crash_torn: true,
        };
        assert_eq!(FaultPlan::parse(spec), Ok(want));
        let none = FaultPlan::default().with_stragglers(0, 4.0, 20);
        assert_eq!(FaultPlan::parse(""), Ok(none));
        // Later keys win, so a caller can prepend a default seed.
        assert_eq!(FaultPlan::parse("seed=1,seed=9").map(|p| p.seed), Ok(9));
        assert_eq!(
            FaultPlan::parse("torn=1000").map(|p| p.torn_per_mille),
            Ok(1000)
        );
        assert_eq!(
            FaultPlan::parse("fail=999").map(|p| p.fail_per_mille),
            Ok(999)
        );
        for (spec, key) in [
            ("fail=1000", "`fail` is per mille"),
            ("straggle=1001", "`straggle` is per mille"),
            ("eio=70000", "`eio` is per mille"),
            ("enospc=1001", "`enospc` is per mille"),
            ("crash=65536", "`crash` is per mille"),
            ("seed=1,torn=2000", "`torn` is per mille"),
            ("fail=4294967596", "`fail` is per mille"),
            ("bogus=1", "`bogus`"),
            ("eio", "`eio` needs a value"),
            ("crash-at=x", "`crash-at=x`"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(key), "{spec}: {err}");
        }
    }

    /// The crash and straggler schedules for fixed seeds are pinned: a
    /// change to a salt, the hash or the draw moves every recorded fault
    /// run. A task's digit counts its crashed attempts before the first
    /// success; `x` is a doomed task.
    #[test]
    fn compute_schedules_are_pinned() {
        let wastage = |spec: &str, phase| -> String {
            let plan = FaultPlan::parse(spec).unwrap();
            (0..16)
                .map(|t| plan.task_wastage(phase, t))
                .map(|w| w.map_or('x', |w| char::from_digit(w, 10).unwrap()))
                .collect()
        };
        assert_eq!(wastage("seed=7,fail=300", Phase::Map), "0000000010010110");
        assert_eq!(
            wastage("seed=7,fail=300", Phase::Reduce),
            "0111000000312000"
        );
        assert_eq!(wastage("seed=3,fail=700", Phase::Map), "0xx10003x0x3100x");
        let plan = FaultPlan::parse("seed=42,straggle=250").unwrap();
        let stragglers =
            |phase| -> Vec<usize> { (0..40).filter(|&t| plan.is_straggler(phase, t)).collect() };
        let map = [6, 9, 11, 15, 20, 22, 26, 28, 29, 32, 33, 37];
        assert_eq!(stragglers(Phase::Map), map);
        assert_eq!(
            stragglers(Phase::Reduce),
            [3, 7, 10, 14, 19, 26, 27, 28, 35]
        );
    }
}
