//! Golden-shape validation of the chrome-tracing exporter: capture a
//! known span tree, export it, parse it back with `obsv::json`, and
//! check the document against what `chrome://tracing` / Perfetto expect.
//!
//! Lives in its own integration-test binary because it toggles the
//! process-global capture flag.

use obsv::export::{chrome_trace, jsonl, write_trace};
use obsv::json::{parse, Json};
use obsv::{clear_events, disable_capture, drain_events, enable_capture, span};

fn captured_tree() -> Vec<obsv::SpanEvent> {
    // Capture is process-global: two tests capturing at once would drain
    // each other's spans.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    enable_capture();
    clear_events();
    span!("pipeline", "lsh-ddp" => {
        span!("job", "lsh/rho-local" => {
            let _m = span!("phase", "map:lsh/rho-local");
            drop(_m);
            let _r = span!("phase", "reduce:lsh/rho-local");
        });
        span!("job", "lsh/delta-local" => {});
    });
    disable_capture();
    drain_events()
}

#[test]
fn exported_trace_is_valid_chrome_json() {
    let events = captured_tree();
    assert_eq!(events.len(), 5);

    let text = chrome_trace(&events);
    let doc = parse(&text).expect("exporter output must be valid JSON");

    // Top-level shape.
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let trace_events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), events.len());

    // Every event is a complete ("X") event with the required fields, in
    // microseconds, and matches the captured span it came from.
    for (obj, ev) in trace_events.iter().zip(&events) {
        assert_eq!(obj.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            obj.get("name").and_then(Json::as_str),
            Some(ev.name.as_str())
        );
        assert_eq!(obj.get("cat").and_then(Json::as_str), Some(ev.cat));
        assert_eq!(obj.get("pid").and_then(Json::as_num), Some(1.0));
        assert_eq!(obj.get("tid").and_then(Json::as_num), Some(ev.tid as f64));
        let ts = obj.get("ts").and_then(Json::as_num).unwrap();
        let dur = obj.get("dur").and_then(Json::as_num).unwrap();
        assert!((ts - ev.start_ns as f64 / 1_000.0).abs() < 1e-6);
        assert!((dur - ev.dur_ns as f64 / 1_000.0).abs() < 1e-6);
        let args = obj.get("args").expect("args object");
        assert_eq!(args.get("id").and_then(Json::as_num), Some(ev.id as f64));
        assert_eq!(
            args.get("parent").and_then(Json::as_num),
            Some(ev.parent as f64)
        );
    }

    // The captured tree has the expected parent structure.
    let find = |name: &str| events.iter().find(|e| e.name == name).unwrap();
    let root = find("lsh-ddp");
    assert_eq!(root.parent, 0);
    for job in ["lsh/rho-local", "lsh/delta-local"] {
        assert_eq!(find(job).parent, root.id, "{job} under the pipeline");
    }
    for phase in ["map:lsh/rho-local", "reduce:lsh/rho-local"] {
        assert_eq!(
            find(phase).parent,
            find("lsh/rho-local").id,
            "{phase} under its job"
        );
    }
}

#[test]
fn jsonl_lines_parse_individually() {
    let events = captured_tree();
    let text = jsonl(&events);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, ev) in lines.iter().zip(&events) {
        let obj = parse(line).expect("each JSONL line is a document");
        assert_eq!(obj.get("seq").and_then(Json::as_num), Some(ev.seq as f64));
        assert_eq!(
            obj.get("start_ns").and_then(Json::as_num),
            Some(ev.start_ns as f64)
        );
        assert_eq!(
            obj.get("name").and_then(Json::as_str),
            Some(ev.name.as_str())
        );
    }
}

#[test]
fn write_trace_picks_format_by_extension() {
    let events = captured_tree();
    let dir = std::env::temp_dir();
    let chrome_path = dir.join("obsv_test_trace.json");
    let jsonl_path = dir.join("obsv_test_trace.jsonl");

    write_trace(chrome_path.to_str().unwrap(), &events).unwrap();
    write_trace(jsonl_path.to_str().unwrap(), &events).unwrap();

    let chrome = std::fs::read_to_string(&chrome_path).unwrap();
    assert!(parse(&chrome).unwrap().get("traceEvents").is_some());

    let lines = std::fs::read_to_string(&jsonl_path).unwrap();
    assert_eq!(lines.lines().count(), events.len());

    let _ = std::fs::remove_file(chrome_path);
    let _ = std::fs::remove_file(jsonl_path);
}
