//! `ledger/HISTORY.jsonl`: one line per recorded run, appended, never
//! replaced.

use crate::run::{Options, Outcome};
use crate::spec::{self, Sizes};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;

pub const PATH: &str = "ledger/HISTORY.jsonl";

#[derive(Serialize)]
struct Quartiles {
    /// Mean of the best cycles (a count: the count).
    value: f64,
    /// Spread of those cycles, as a share of `value`.
    spread: f64,
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

#[derive(Serialize)]
struct Entry {
    commit: String,
    date: String,
    seed: u64,
    seconds: f64,
    worker_threads: usize,
    best_of: usize,
    sizes: Sizes,
    /// workload -> end-to-end metric -> reported value and the cycles behind it.
    end_to_end: BTreeMap<&'static str, BTreeMap<&'static str, Quartiles>>,
    /// workload -> per-layer metric -> value over the traced cycles; 0 for
    /// a layer the workload's cycle does not go through.
    per_layer: BTreeMap<&'static str, BTreeMap<&'static str, f64>>,
    /// `workload/metric` of differences the traced run could not tell
    /// from the host's noise.
    unresolved: Vec<String>,
}

/// `YYYY-MM-DD` (UTC) of a Unix time, by the civil-from-days algorithm.
fn date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn append(o: &Options, untraced: &[Outcome], traced: &[Outcome]) -> Result<(), String> {
    let end_to_end = untraced
        .iter()
        .map(|out| {
            let row = spec::END_TO_END
                .iter()
                .map(|m| {
                    let v = &out.values[m.name];
                    (
                        m.name,
                        Quartiles {
                            value: v.value,
                            spread: v.spread,
                            median: v.cycles.median,
                            q1: v.cycles.q1,
                            q3: v.cycles.q3,
                            n: v.cycles.n,
                        },
                    )
                })
                .collect();
            (out.workload.name, row)
        })
        .collect();
    let per_layer = traced
        .iter()
        .map(|out| {
            let row = spec::PER_LAYER
                .iter()
                .map(|m| (m.name, out.values[m.name].value))
                .collect();
            (out.workload.name, row)
        })
        .collect();
    let unresolved = traced
        .iter()
        .flat_map(|out| {
            let name = out.workload.name;
            out.values
                .iter()
                .filter(|(_, v)| v.unresolved)
                .map(move |(metric, _)| format!("{name}/{metric}"))
        })
        .collect();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let entry = Entry {
        commit: commit(),
        date: date(now),
        seed: o.seed,
        seconds: o.seconds,
        worker_threads: 1,
        best_of: spec::BEST_OF,
        sizes: Sizes::of(o.smoke),
        end_to_end,
        per_layer,
        unresolved,
    };
    let line = serde_json::to_string(&entry).expect("printing JSON cannot fail");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(PATH)
        .map_err(|e| format!("opening {PATH}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("appending to {PATH}: {e}"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn civil_dates() {
        assert_eq!(super::date(0), "1970-01-01");
        assert_eq!(super::date(951_782_400), "2000-02-29");
        assert_eq!(super::date(1_790_553_600), "2026-09-28");
    }
}
