//! Live metrics exposition over a tiny hand-rolled HTTP listener.
//!
//! An [`Exposition`] holds named registry sources (the `&'static`
//! process-global registry, per-server `Arc` registries) plus an
//! optional pre-scrape collector (e.g.
//! [`snapshot_pool_stats`](crate::snapshot_pool_stats)), and serves:
//!
//! * `GET /metrics` — Prometheus text format 0.0.4, with raw histogram
//!   buckets (`_bucket{le="..."}` series are cumulative and monotone by
//!   construction; the `+Inf` bucket always equals `_count`);
//! * `GET /metrics.json` — the same instruments as strict JSON, emitted
//!   by hand like every other document in this crate and parseable by
//!   [`crate::json`];
//! * `GET /healthz` — liveness probe;
//! * `GET /spans` — the recent span tree as indented text.
//!
//! The listener is deliberately minimal: blocking accept loop on one
//! background thread, one request per connection, `Connection: close`.
//! A scraper every few seconds costs nothing measurable; this is not a
//! general web server and does not try to be one.

use crate::metrics::Registry;
use crate::tracer::{drain_events, SpanEvent};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most lines `/spans` will render before truncating.
const SPANS_MAX_LINES: usize = 4000;

/// A registry reference an exposition can hold: the process-global
/// registry is `&'static`, per-server registries are shared `Arc`s.
#[derive(Clone)]
pub enum RegistryRef {
    /// A process-lifetime registry (e.g. [`crate::global`]).
    Static(&'static Registry),
    /// A shared, reference-counted registry (e.g. a serve instance's).
    Shared(Arc<Registry>),
}

impl RegistryRef {
    fn get(&self) -> &Registry {
        match self {
            RegistryRef::Static(r) => r,
            RegistryRef::Shared(r) => r,
        }
    }
}

type Collector = Box<dyn Fn() + Send + Sync>;

/// Named registry sources plus an optional pre-scrape collector; build
/// one, then [`Exposition::serve`] it on a background thread.
#[derive(Default)]
pub struct Exposition {
    sources: Vec<(String, RegistryRef)>,
    collector: Option<Collector>,
}

impl Exposition {
    /// An exposition with no sources.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a registry under `prefix` (sanitized into the metric names).
    pub fn source(mut self, prefix: &str, reg: RegistryRef) -> Self {
        self.sources.push((prefix.to_string(), reg));
        self
    }

    /// Installs a hook run before each `/metrics` or `/metrics.json`
    /// render — the place to copy pull-style stats (pool counters, …)
    /// into the source registries.
    pub fn collector(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.collector = Some(Box::new(f));
        self
    }

    fn collect(&self) {
        // Allocator gauges are always refreshed (no-op while accounting
        // is off); custom collectors stack on top.
        crate::alloc::publish_gauges(crate::metrics::global());
        if let Some(c) = &self.collector {
            c();
        }
    }

    /// Renders the Prometheus text document for the current sources.
    pub fn prometheus(&self) -> String {
        let srcs: Vec<(&str, &Registry)> = self
            .sources
            .iter()
            .map(|(p, r)| (p.as_str(), r.get()))
            .collect();
        prometheus_text(&srcs)
    }

    /// Renders the JSON document for the current sources.
    pub fn json(&self) -> String {
        let srcs: Vec<(&str, &Registry)> = self
            .sources
            .iter()
            .map(|(p, r)| (p.as_str(), r.get()))
            .collect();
        metrics_json(&srcs)
    }

    fn respond(&self, path: &str) -> Option<(&'static str, String)> {
        match path {
            "/metrics" => {
                self.collect();
                Some(("text/plain; version=0.0.4", self.prometheus()))
            }
            "/metrics.json" => {
                self.collect();
                Some(("application/json", self.json()))
            }
            "/healthz" => Some(("text/plain", "ok\n".to_string())),
            "/spans" => Some(("text/plain", spans_text(&drain_events()))),
            _ => None,
        }
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the endpoints on a
    /// background thread until the returned handle shuts down or drops.
    pub fn serve(self, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obsv-expose".into())
            .spawn(move || accept_loop(listener, self, stop2))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }
}

/// Handle to a running exposition listener; shuts down on drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the listener thread (idempotent).
    pub fn shutdown(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, exp: Exposition, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        if let Ok(stream) = conn {
            let _ = handle_conn(stream, &exp);
        }
    }
}

fn handle_conn(mut stream: TcpStream, exp: &Exposition) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&req);
    let mut parts = text.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        match exp.respond(path) {
            Some((ct, b)) => ("200 OK", ct, b),
            None => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Prometheus text rendering
// ---------------------------------------------------------------------------

/// Rewrites `s` into a legal Prometheus metric-name fragment: characters
/// outside `[a-zA-Z0-9_:]` become `_`, a leading digit is prefixed, and
/// the empty string becomes `_`.
pub fn sanitize_metric_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 1);
    for c in s.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    } else if out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escapes a `# HELP` text: backslash and newline.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double quote, and newline.
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Claims a unique family name for `raw` under `prefix`: sanitization
/// can collapse distinct registry names ("a.b" and "a_b") onto one
/// Prometheus name, which would interleave duplicate series, so
/// collisions get a numeric suffix.
fn unique_family(used: &mut std::collections::HashSet<String>, prefix: &str, raw: &str) -> String {
    let base = format!("{prefix}_{}", sanitize_metric_name(raw));
    let mut name = base.clone();
    let mut k = 2;
    while !used.insert(name.clone()) {
        name = format!("{base}_{k}");
        k += 1;
    }
    name
}

/// Renders `(prefix, registry)` sources as one Prometheus text document.
/// Exposed (rather than buried in the listener) so tests can property-
/// check the grammar directly.
pub fn prometheus_text(sources: &[(&str, &Registry)]) -> String {
    let mut out = String::new();
    for (prefix, reg) in sources {
        let p = sanitize_metric_name(prefix);
        let mut used = std::collections::HashSet::new();
        used.insert(format!("{p}_up"));
        // Identity series carrying the original (escaped) source name.
        let _ = writeln!(
            out,
            "# HELP {p}_up source {} is exported",
            escape_help(prefix)
        );
        let _ = writeln!(out, "# TYPE {p}_up gauge");
        let _ = writeln!(out, "{p}_up{{source=\"{}\"}} 1", escape_label(prefix));
        let snap = reg.snapshot();
        for (name, v) in &snap.counters {
            let n = unique_family(&mut used, &p, name);
            let _ = writeln!(out, "# HELP {n} counter {}", escape_help(name));
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &snap.gauges {
            let n = unique_family(&mut used, &p, name);
            let _ = writeln!(out, "# HELP {n} gauge {}", escape_help(name));
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in reg.histogram_handles() {
            let n = unique_family(&mut used, &p, &name);
            let _ = writeln!(out, "# HELP {n} histogram {}", escape_help(&name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            // One pass supplies buckets *and* the total, so `+Inf` always
            // equals `_count` even while writers race the render.
            let cum = h.cumulative_buckets();
            let total = cum.last().map_or(0, |&(_, c)| c);
            for (hi, c) in &cum {
                if *hi != u64::MAX {
                    let _ = writeln!(out, "{n}_bucket{{le=\"{hi}\"}} {c}");
                }
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{n}_sum {}", h.sum());
            let _ = writeln!(out, "{n}_count {total}");
        }
    }
    out
}

/// Renders `(prefix, registry)` sources as one strict-JSON document
/// (validated round-trip through [`crate::json`] in tests).
pub fn metrics_json(sources: &[(&str, &Registry)]) -> String {
    let mut out = String::from("{\"sources\":{");
    for (i, (prefix, reg)) in sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        crate::export::escape_into(&mut out, prefix);
        out.push_str("\":{\"counters\":{");
        let snap = reg.snapshot();
        for (j, (name, v)) in snap.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            crate::export::escape_into(&mut out, name);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (j, (name, v)) in snap.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            crate::export::escape_into(&mut out, name);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (j, (name, s)) in snap.histograms.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            crate::export::escape_into(&mut out, name);
            let _ = write!(
                out,
                "\":{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                s.count, s.sum, s.mean, s.p50, s.p95, s.p99, s.max
            );
        }
        out.push_str("}}");
    }
    out.push_str("}}");
    out
}

// ---------------------------------------------------------------------------
// Span tree rendering
// ---------------------------------------------------------------------------

/// Renders buffered span events as an indented tree, most-recent state
/// first by start time, truncated at `SPANS_MAX_LINES` lines.
pub fn spans_text(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} spans buffered", events.len());
    let idx: HashMap<u64, usize> = events.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    let mut roots = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match idx.get(&e.parent) {
            Some(&p) if e.parent != 0 && e.parent != e.id => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let mut lines = 0usize;
    // Depth-first, explicit stack; children were pushed in start order.
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        if lines >= SPANS_MAX_LINES {
            let _ = writeln!(out, "... truncated at {SPANS_MAX_LINES} lines");
            break;
        }
        let e = &events[i];
        let _ = writeln!(
            out,
            "{:indent$}{} [{}] {:.3}ms @t{}",
            "",
            e.name,
            e.cat,
            e.dur_ns as f64 / 1e6,
            e.tid,
            indent = depth * 2
        );
        lines += 1;
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizer_produces_legal_names() {
        assert_eq!(
            sanitize_metric_name("pool.worker_0.chunks"),
            "pool_worker_0_chunks"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("a:b_c1"), "a:b_c1");
    }

    #[test]
    fn escapes() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn prometheus_text_histogram_invariants() {
        let r = Registry::new();
        r.counter("reqs.total").inc(7);
        r.gauge("depth").set(-3);
        let h = r.histogram("lat.ns");
        for v in [1u64, 5, 5, 900, 1_000_000] {
            h.record(v);
        }
        let text = prometheus_text(&[("serve", &r)]);
        assert!(text.contains("serve_reqs_total 7"));
        assert!(text.contains("serve_depth -3"));
        assert!(text.contains("serve_lat_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("serve_lat_ns_count 5"));
        assert!(text.contains("serve_lat_ns_sum 1000911"));
        // every bucket line's le and count ascend
        let mut last: Option<(u64, u64)> = None;
        for line in text
            .lines()
            .filter(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf"))
        {
            let le: u64 = line
                .split("le=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let c: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            if let Some((ple, pc)) = last {
                assert!(le > ple && c >= pc);
            }
            last = Some((le, c));
        }
        assert!(last.is_some());
    }

    #[test]
    fn metrics_json_parses_strictly() {
        let r = Registry::new();
        r.counter("a\"quoted\"").inc(1);
        r.histogram("h").record(12);
        let doc = metrics_json(&[("x\\y", &r)]);
        let v = crate::json::parse(&doc).expect("strict json");
        let h = v
            .get("sources")
            .and_then(|s| s.get("x\\y"))
            .and_then(|s| s.get("histograms"))
            .and_then(|s| s.get("h"))
            .expect("histogram present");
        assert_eq!(h.get("count").and_then(|n| n.as_num()), Some(1.0));
    }

    #[test]
    fn spans_tree_indents_children() {
        let ev = |id, parent, name: &str, start| SpanEvent {
            seq: id,
            id,
            parent,
            tid: 0,
            cat: "t",
            name: name.into(),
            start_ns: start,
            dur_ns: 10,
        };
        let text = spans_text(&[
            ev(1, 0, "root", 0),
            ev(2, 1, "kid", 1),
            ev(3, 99, "orphan", 2),
        ]);
        assert!(text.contains("root [t]"));
        assert!(text.contains("  kid [t]"));
        assert!(text.contains("orphan [t]"), "missing parents become roots");
    }

    #[test]
    fn http_listener_serves_all_endpoints() {
        let exp = Exposition::new().source("t", RegistryRef::Static(crate::metrics::global()));
        crate::metrics::global().counter("expose.test.hits").inc(3);
        let mut srv = exp.serve("127.0.0.1:0").expect("bind");
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(srv.addr()).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            s.read_to_string(&mut body).unwrap();
            body
        };
        assert!(get("/healthz").contains("200 OK"));
        let m = get("/metrics");
        assert!(m.contains("200 OK") && m.contains("t_expose_test_hits 3"));
        let j = get("/metrics.json");
        let json_body = j.split("\r\n\r\n").nth(1).unwrap();
        assert!(crate::json::parse(json_body).is_ok());
        assert!(get("/spans").contains("spans buffered"));
        assert!(get("/nope").contains("404"));
        srv.shutdown();
    }
}
