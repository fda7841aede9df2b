//! One cycle of one workload, in a process of its own: `peak_rss_mb` is
//! this process's high-water mark and `setup_s` is real process set-up.
//! The parent reads the cycle's figures from standard output.

use crate::spans::Spans;
use crate::spec::{Kind, Sizes, Workload};
use crate::{fit, serve};
use dp_core::DpResult;
use std::path::PathBuf;
use std::time::Instant;

/// What a cycle hands back to the parent.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV digest of the `(rho, delta, upslope)` bits the cycle produced.
    pub digest: Option<u64>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one operation or output check; `why` describes a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// One line per fact; `{}` prints an `f64` with all its digits.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        out.push_str(&format!(
            "attempted {}\nfailed {}\n",
            self.attempted, self.failed
        ));
        if let Some(d) = self.digest {
            out.push_str(&format!("digest {d:016x}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let bad = |line: &str| format!("unreadable cycle output line {line:?}");
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').ok_or_else(|| bad(line))?;
            match key {
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(|| bad(line))?;
                    r.metric(name, value.parse().map_err(|_| bad(line))?);
                }
                "attempted" => r.attempted = rest.parse().map_err(|_| bad(line))?,
                "failed" => r.failed = rest.parse().map_err(|_| bad(line))?,
                "digest" => r.digest = Some(u64::from_str_radix(rest, 16).map_err(|_| bad(line))?),
                "failure" => r.failures.push(rest.to_string()),
                _ => return Err(bad(line)),
            }
        }
        Ok(r)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Everything a cycle needs besides its workload.
pub struct Ctx {
    /// Process start, as near as `main` can tell.
    pub started: Instant,
    pub sizes: Sizes,
    pub seed: u64,
    pub cycle: usize,
    /// Traced cycle: spans recorded, the program's own capture and heap
    /// accounting on, layer probes run.
    pub traced: bool,
    /// Inputs of the workload (read-only).
    pub inputs: PathBuf,
    /// Scratch for this cycle's WAL, saved models and probe files.
    pub scratch: PathBuf,
    /// Where a traced cycle writes its spans.
    pub trace_file: PathBuf,
    pub spans: Spans,
}

/// FNV-1a over the bits of `(rho, delta, upslope)`.
pub fn digest(r: &DpResult) -> u64 {
    let mut bytes = Vec::with_capacity(16 * r.len());
    bytes.extend(r.rho.iter().flat_map(|x| x.to_le_bytes()));
    bytes.extend(r.delta.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    bytes.extend(r.upslope.iter().flat_map(|x| x.to_le_bytes()));
    mapreduce::checksum64(&bytes)
}

/// This process's resident-set high-water mark, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the cycle and prints its report. A panic inside the program is a
/// failed operation, not a crash of the benchmark.
pub fn run(w: &'static Workload, ctx: Ctx) -> i32 {
    if ctx.traced {
        obsv::alloc::enable_accounting();
        obsv::enable_capture();
    }
    let mut rep = Report::default();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match w.kind {
        Kind::Fit {
            k,
            budget,
            relabels,
            ..
        } => fit::cycle(w, (k, budget, relabels), &ctx, &mut rep),
        Kind::Serve => serve::cycle(&ctx, &mut rep),
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => rep.op(false, || e),
        Err(_) => rep.op(false, || format!("{} cycle {} panicked", w.name, ctx.cycle)),
    }
    if ctx.traced {
        rep.metric(
            "obsv.spans_recorded",
            (ctx.spans.len() + obsv::drain_events().len()) as f64,
        );
        if let Err(e) = ctx.spans.write(&ctx.trace_file, w.name) {
            rep.op(false, || {
                format!("writing {}: {e}", ctx.trace_file.display())
            });
        }
    }
    print!("{}", rep.to_text());
    i32::from(rep.failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_every_digit() {
        let mut r = Report::default();
        r.metric("job_s", 3.0123456789012345);
        r.metric("ari", 1.0);
        r.metric("x", 1e-7);
        r.op(true, || unreachable!());
        r.op(false, || "digest changed\nbetween cycles".into());
        r.digest = Some(0xdead_beef_0000_0001);
        let back = Report::parse(&r.to_text()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.digest, r.digest);
        assert_eq!(back.failures, vec!["digest changed between cycles"]);
        assert!(Report::parse("nonsense").is_err());
    }
}
