//! Request/response types of the prediction protocol.
//!
//! One request per line, one response line per result. A predict
//! request carries a batch spec (the same text format `spmv-locality
//! batch` reads, with literal newlines escaped as `\n` inside the JSON
//! string) and yields one `report` line per job — byte-identical to the
//! batch command's output, wrapped in `{"id":...,"report":...}` framing
//! — followed by a `done` line. Errors are always typed: a machine-
//! readable [`ErrorCode`] plus a human-readable message.

use locality_engine::BatchStats;
use obs::json::{escape, Json};
use std::fmt;

/// Machine-readable error discriminants on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line parsed as JSON but was not a valid request, or its spec
    /// failed to parse/resolve.
    BadRequest,
    /// The service queue is full; retry later.
    Overloaded,
    /// The request's deadline elapsed before its jobs finished.
    DeadlineExceeded,
    /// The request line exceeded the service's line cap.
    OversizedLine,
    /// The service is draining and accepts no new work.
    ShuttingDown,
    /// An engine-side failure while running the jobs.
    Internal,
    /// The referenced object (a trace id) is unknown — never retained,
    /// or already evicted from the bounded trace buffer.
    NotFound,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::OversizedLine => "oversized_line",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
            ErrorCode::NotFound => "not_found",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a batch spec and stream its reports back.
    Predict {
        /// Client-chosen correlation id, echoed on every response line.
        id: String,
        /// Batch spec text (the `batch` command's file format).
        spec: String,
        /// Per-request deadline in milliseconds, overriding any
        /// `deadline_ms` directive inside the spec.
        deadline_ms: Option<u64>,
    },
    /// Return the service telemetry document.
    Status {
        /// Correlation id.
        id: String,
    },
    /// Return the phase tree of a finished predict request.
    Trace {
        /// Correlation id of *this* request.
        id: String,
        /// The predict request id whose trace is wanted.
        request: String,
    },
    /// Return the Prometheus text exposition of the live counters.
    Metrics {
        /// Correlation id.
        id: String,
    },
    /// Ask the service to drain and exit.
    Shutdown {
        /// Correlation id.
        id: String,
    },
}

/// A request that could not be accepted, ready to serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// The request id when one could be recovered from the line.
    pub id: Option<String>,
    /// Typed discriminant.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl Request {
    /// Parses one request line.
    ///
    /// On failure the error carries the request `id` whenever the line
    /// was well-formed enough to contain one, so clients can correlate
    /// rejections with their requests.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let value = Json::parse(line).map_err(|e| RequestError {
            id: None,
            code: ErrorCode::BadRequest,
            message: format!("invalid JSON: {e}"),
        })?;
        let bad = |id: Option<String>, message: String| RequestError {
            id,
            code: ErrorCode::BadRequest,
            message,
        };
        if value.get("id").is_none() {
            return Err(bad(None, "missing \"id\"".into()));
        }
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(None, "\"id\" must be a string".into()))?
            .to_string();
        if id.is_empty() {
            return Err(bad(None, "\"id\" must be non-empty".into()));
        }
        let flag = |key: &str| -> Result<bool, RequestError> {
            match value.get(key) {
                None => Ok(false),
                Some(v) => v
                    .as_bool()
                    .filter(|b| *b)
                    .ok_or_else(|| bad(Some(id.clone()), format!("\"{key}\" must be true"))),
            }
        };
        let has_spec = value.get("spec").is_some();
        let has_trace = value.get("trace").is_some();
        let has_status = flag("status")?;
        let has_metrics = flag("metrics")?;
        let has_shutdown = flag("shutdown")?;
        let verbs = [has_spec, has_status, has_trace, has_metrics, has_shutdown]
            .iter()
            .filter(|&&v| v)
            .count();
        if verbs > 1 {
            return Err(bad(
                Some(id),
                "\"spec\", \"status\", \"trace\", \"metrics\" and \"shutdown\" are mutually exclusive"
                    .into(),
            ));
        }
        if has_spec {
            let spec = value
                .get("spec")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(Some(id.clone()), "\"spec\" must be a string".into()))?
                .to_string();
            let deadline_ms = match value.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().filter(|ms| *ms > 0).ok_or_else(|| {
                    bad(
                        Some(id.clone()),
                        "\"deadline_ms\" must be a positive integer".into(),
                    )
                })?),
            };
            return Ok(Request::Predict {
                id,
                spec,
                deadline_ms,
            });
        }
        if has_trace {
            let request = value
                .get("trace")
                .and_then(Json::as_str)
                .filter(|r| !r.is_empty())
                .ok_or_else(|| {
                    bad(
                        Some(id.clone()),
                        "\"trace\" must be a non-empty request id".into(),
                    )
                })?
                .to_string();
            return Ok(Request::Trace { id, request });
        }
        if has_status {
            return Ok(Request::Status { id });
        }
        if has_metrics {
            return Ok(Request::Metrics { id });
        }
        if has_shutdown {
            return Ok(Request::Shutdown { id });
        }
        Err(bad(
            Some(id),
            "expected one of \"spec\", \"status\": true, \"trace\": \"<id>\", \"metrics\": true, \"shutdown\": true"
                .into(),
        ))
    }
}

/// A `report` response line: the batch engine's report JSON wrapped in
/// id framing. `report_json` must already be a single-line JSON value
/// (it is `Report::to_json_line` output).
pub fn report_line(id: &str, report_json: &str) -> String {
    format!("{{\"id\":\"{}\",\"report\":{}}}", escape(id), report_json)
}

/// The `done` line closing a predict request's response stream.
pub fn done_line(id: &str, stats: &BatchStats) -> String {
    format!(
        "{{\"id\":\"{}\",\"done\":{{\"matrices\":{},\"jobs\":{},\"profile_hits\":{},\"profile_computations\":{}}}}}",
        escape(id),
        stats.matrices,
        stats.jobs,
        stats.profile_hits,
        stats.profile_computations
    )
}

/// A typed `error` line; `id` is `null` when the line was too broken to
/// carry one.
pub fn error_line(id: Option<&str>, code: ErrorCode, message: &str) -> String {
    let id = match id {
        Some(id) => format!("\"{}\"", escape(id)),
        None => "null".into(),
    };
    format!(
        "{{\"id\":{},\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
        id,
        code.label(),
        escape(message)
    )
}

impl RequestError {
    /// Serializes this rejection as its wire line.
    pub fn to_line(&self) -> String {
        error_line(self.id.as_deref(), self.code, &self.message)
    }
}

/// A `status` response line wrapping an already-rendered single-line
/// JSON document (the obs metrics doc).
pub fn status_line(id: &str, body_json: &str) -> String {
    format!("{{\"id\":\"{}\",\"status\":{}}}", escape(id), body_json)
}

/// A `trace` response line wrapping an already-rendered single-line
/// trace document ([`obs::trace::Trace::to_json`] output).
pub fn trace_line(id: &str, trace_json: &str) -> String {
    format!("{{\"id\":\"{}\",\"trace\":{}}}", escape(id), trace_json)
}

/// A `metrics` response line carrying the Prometheus text exposition as
/// a JSON string (newlines become `\n` escapes; clients unescape to
/// recover the scrape body byte-for-byte).
pub fn metrics_line(id: &str, exposition: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"metrics\":\"{}\"}}",
        escape(id),
        escape(exposition)
    )
}

/// Acknowledges a `shutdown` request: the service is draining.
pub fn shutdown_line(id: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"shutdown\":{{\"draining\":true}}}}",
        escape(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_predict_requests() {
        let r = Request::parse(
            r#"{"id": "r1", "spec": "matrix dense 8 8\nmethod paper", "deadline_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Predict {
                id: "r1".into(),
                spec: "matrix dense 8 8\nmethod paper".into(),
                deadline_ms: Some(250),
            }
        );
    }

    #[test]
    fn parses_status_and_shutdown() {
        assert_eq!(
            Request::parse(r#"{"id":"s","status":true}"#).unwrap(),
            Request::Status { id: "s".into() }
        );
        assert_eq!(
            Request::parse(r#"{"id":"q","shutdown":true}"#).unwrap(),
            Request::Shutdown { id: "q".into() }
        );
    }

    #[test]
    fn parses_trace_and_metrics() {
        assert_eq!(
            Request::parse(r#"{"id":"t1","trace":"r42"}"#).unwrap(),
            Request::Trace {
                id: "t1".into(),
                request: "r42".into()
            }
        );
        assert_eq!(
            Request::parse(r#"{"id":"m1","metrics":true}"#).unwrap(),
            Request::Metrics { id: "m1".into() }
        );
        let e = Request::parse(r#"{"id":"t2","trace":""}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = Request::parse(r#"{"id":"t3","trace":"r1","metrics":true}"#).unwrap_err();
        assert!(e.message.contains("mutually exclusive"), "{}", e.message);
    }

    #[test]
    fn trace_and_metrics_lines_are_valid_json() {
        let t = trace_line("t1", r#"{"request": "r42", "total_ns": 9, "phases": []}"#);
        let parsed = Json::parse(&t).expect("valid JSON");
        assert!(parsed.get("trace").is_some());

        let body = "# TYPE spmv_serve_requests counter\nspmv_serve_requests 3\n";
        let m = metrics_line("m1", body);
        assert!(!m.contains('\n'), "exposition newlines must be escaped");
        let parsed = Json::parse(&m).expect("valid JSON");
        // The exposition round-trips through the JSON string unharmed.
        assert_eq!(parsed.get("metrics").and_then(Json::as_str), Some(body));
    }

    #[test]
    fn rejections_are_typed_and_carry_the_id_when_recoverable() {
        let e = Request::parse("not json").unwrap_err();
        assert_eq!((e.id, e.code), (None, ErrorCode::BadRequest));

        let e = Request::parse(r#"{"spec":"x"}"#).unwrap_err();
        assert_eq!(e.id, None);

        let e = Request::parse(r#"{"id":"r7","deadline_ms":5}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r7"));
        assert_eq!(e.code, ErrorCode::BadRequest);

        let e = Request::parse(r#"{"id":"r8","spec":"x","deadline_ms":0}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r8"));

        let e = Request::parse(r#"{"id":"r9","spec":"x","status":true}"#).unwrap_err();
        assert!(e.message.contains("mutually exclusive"), "{}", e.message);
    }

    #[test]
    fn response_lines_are_valid_json() {
        let stats = BatchStats {
            matrices: 2,
            jobs: 4,
            profile_computations: 2,
            profile_hits: 2,
        };
        let lines = [
            report_line("a\"b", r#"{"job":0}"#),
            done_line("r1", &stats),
            error_line(None, ErrorCode::Overloaded, "queue full (8 queued)"),
            error_line(Some("r2"), ErrorCode::DeadlineExceeded, "deadline exceeded"),
            status_line("r3", r#"{"counters":{}}"#),
            shutdown_line("r4"),
        ];
        for line in &lines {
            let parsed = Json::parse(line).expect("valid JSON");
            assert!(!line.contains('\n'));
            assert!(parsed.get("id").is_some());
        }
        assert_eq!(
            lines[1],
            r#"{"id":"r1","done":{"matrices":2,"jobs":4,"profile_hits":2,"profile_computations":2}}"#
        );
    }

    #[test]
    fn report_framing_strips_back_to_the_batch_payload() {
        // The acceptance criterion: clients recover the exact batch
        // output by removing the id framing prefix/suffix.
        let payload = r#"{"job":0,"matrix":"dense","l2_misses":123}"#;
        let framed = report_line("req-1", payload);
        let prefix = r#"{"id":"req-1","report":"#;
        assert!(framed.starts_with(prefix) && framed.ends_with('}'));
        assert_eq!(&framed[prefix.len()..framed.len() - 1], payload);
    }
}
