//! The inference wire format: JSON bodies for `POST /v1/infer`.
//!
//! Request — sample dims plus flat f32 pixels, with optional scheduling
//! fields carried straight into the runtime's
//! [`snn_runtime::SubmitOptions`]:
//!
//! ```json
//! {"dims": [3, 32, 32], "pixels": [0.1, 0.2, ...],
//!  "deadline_ms": 5.0, "priority": 2}
//! ```
//!
//! Response — logits, top-1 class, and the timing split the streaming
//! server measured for this request:
//!
//! ```json
//! {"logits": [...], "top1": 3, "batch_size": 4,
//!  "queue_wait_us": 812.0, "exec_us": 1554.0, "e2e_us": 2410.0}
//! ```
//!
//! The codec rides the vendored `serde_json` shim, whose float printing is
//! shortest-round-trip: an `f32 → text → f32` trip is bit-exact, which is
//! what lets the end-to-end tests demand logits *identical* to the
//! in-process engines through the HTTP boundary.
//!
//! [`InferRequest`] implements [`Deserialize`] by hand because
//! `deadline_ms` and `priority` are optional (the derive shim requires
//! every field); everything else derives.

use serde::{field, Content, Deserialize, Error as SerdeError, Serialize};
use snn_runtime::{ModelStatus, SubmitOptions};
use snn_trace::{AttrValue, SpanSnapshot, TraceId};
use std::time::Duration;

/// One inference request as it appears on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Per-sample dims, e.g. `[3, 32, 32]`; must match the gateway's
    /// configured input geometry exactly.
    pub dims: Vec<usize>,
    /// Flat row-major pixels; length must equal the product of `dims`.
    pub pixels: Vec<f32>,
    /// Optional deadline in milliseconds (fractional allowed): the
    /// request's EDF sort key — tighter deadlines are taken first when
    /// requests queue — and its SLO deadline-miss bound. It never delays
    /// the request. Omitted → the streaming server's configured
    /// `max_delay`; the gateway clamps it to half its `handler_timeout`.
    pub deadline_ms: Option<f64>,
    /// Optional EDF tie-break priority (0–255, default 0; higher is taken
    /// first on equal deadlines).
    pub priority: u8,
}

impl InferRequest {
    /// A request with default scheduling (no explicit deadline, priority 0).
    pub fn new(dims: Vec<usize>, pixels: Vec<f32>) -> Self {
        Self {
            dims,
            pixels,
            deadline_ms: None,
            priority: 0,
        }
    }

    /// Converts the wire scheduling fields into runtime [`SubmitOptions`].
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a `400` body when `deadline_ms` is
    /// negative or not a finite, representable duration.
    pub fn submit_options(&self) -> Result<SubmitOptions, String> {
        let deadline = match self.deadline_ms {
            None => None,
            Some(ms) => Some(
                Duration::try_from_secs_f64(ms / 1e3)
                    .map_err(|_| format!("deadline_ms {ms} is not a valid duration"))?,
            ),
        };
        Ok(SubmitOptions {
            deadline,
            priority: self.priority,
            trace: None,
        })
    }

    /// Validates the sample geometry against the gateway's configured
    /// dims.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a `400` body when `dims` differs
    /// from `expected` or `pixels` does not fill the geometry.
    pub fn validate(&self, expected: &[usize]) -> Result<(), String> {
        if self.dims != expected {
            return Err(format!(
                "dims {:?} do not match the served model's input dims {:?}",
                self.dims, expected
            ));
        }
        let len: usize = self.dims.iter().product();
        if self.pixels.len() != len {
            return Err(format!(
                "pixels has {} values but dims {:?} require {}",
                self.pixels.len(),
                self.dims,
                len
            ));
        }
        Ok(())
    }
}

impl Serialize for InferRequest {
    fn to_content(&self) -> Content {
        let mut map = vec![
            ("dims".to_string(), self.dims.to_content()),
            ("pixels".to_string(), self.pixels.to_content()),
        ];
        if let Some(ms) = self.deadline_ms {
            map.push(("deadline_ms".to_string(), Content::F64(ms)));
        }
        if self.priority != 0 {
            map.push(("priority".to_string(), Content::U64(self.priority.into())));
        }
        Content::Map(map)
    }
}

impl Deserialize for InferRequest {
    fn from_content(content: &Content) -> Result<Self, SerdeError> {
        let map = content
            .as_map()
            .ok_or_else(|| SerdeError::msg("infer request must be a JSON object"))?;
        let dims = Vec::<usize>::from_content(field(map, "dims")?)?;
        let pixels = Vec::<f32>::from_content(field(map, "pixels")?)?;
        let deadline_ms = match map.iter().find(|(k, _)| k == "deadline_ms") {
            None => None,
            Some((_, Content::Null)) => None,
            Some((_, v)) => Some(
                v.as_f64()
                    .ok_or_else(|| SerdeError::msg("deadline_ms must be a number"))?,
            ),
        };
        let priority = match map.iter().find(|(k, _)| k == "priority") {
            None => 0,
            Some((_, Content::Null)) => 0,
            Some((_, v)) => {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| SerdeError::msg("priority must be an integer in 0..=255"))?;
                u8::try_from(raw)
                    .map_err(|_| SerdeError::msg("priority must be an integer in 0..=255"))?
            }
        };
        Ok(Self {
            dims,
            pixels,
            deadline_ms,
            priority,
        })
    }
}

/// One successful inference response as it appears on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferResponse {
    /// Decoded logits for this sample, `[classes]`.
    pub logits: Vec<f32>,
    /// Index of the largest logit.
    pub top1: usize,
    /// Images in the formed batch this request rode in.
    pub batch_size: usize,
    /// Time from submission until a worker began executing the batch, µs.
    pub queue_wait_us: f64,
    /// Backend execution time of the formed batch, µs.
    pub exec_us: f64,
    /// Submit-to-result latency as measured inside the gateway, µs.
    pub e2e_us: f64,
    /// Modeled per-image energy of the formed batch this request rode in,
    /// µJ on the paper's proposed processor configuration. `0.0` when the
    /// serving stack has no energy pricer attached (telemetry disabled).
    pub energy_uj: f64,
    /// The request's trace id (16 hex digits); empty when the gateway
    /// serves an untraced [`snn_runtime::StreamingServer`]. Feed it to
    /// `GET /v1/trace/<id>` to retrieve the recorded span tree.
    pub trace_id: String,
}

/// Renders one recorded span tree as the `GET /v1/trace/<id>` response
/// body:
///
/// ```json
/// {"trace_id": "000000800000002a", "spans": [
///   {"span_id": 3, "parent_id": 0, "name": "http.request",
///    "start_us": 12, "dur_us": 840, "track": 2,
///    "attrs": {"status": 200}}, ...]}
/// ```
///
/// Spans arrive sorted by start time; attribute values keep their native
/// JSON types (strings stay strings, counters stay integers).
pub fn render_trace(trace: TraceId, spans: &[SpanSnapshot]) -> Vec<u8> {
    let spans = spans
        .iter()
        .map(|span| {
            let attrs = span
                .attrs
                .iter()
                .map(|(key, value)| {
                    let value = match *value {
                        AttrValue::Str(s) => Content::Str(s.to_string()),
                        AttrValue::U64(n) => Content::U64(n),
                        AttrValue::F64(x) => Content::F64(x),
                    };
                    ((*key).to_string(), value)
                })
                .collect();
            Content::Map(vec![
                ("span_id".to_string(), Content::U64(span.span_id)),
                ("parent_id".to_string(), Content::U64(span.parent_id)),
                ("name".to_string(), Content::Str(span.name.to_string())),
                ("start_us".to_string(), Content::U64(span.start_us)),
                ("dur_us".to_string(), Content::U64(span.dur_us)),
                ("track".to_string(), Content::U64(span.track.into())),
                ("attrs".to_string(), Content::Map(attrs)),
            ])
        })
        .collect();
    let body = Content::Map(vec![
        ("trace_id".to_string(), Content::Str(trace.to_string())),
        ("spans".to_string(), Content::Seq(spans)),
    ]);
    serde_json::to_string(&body)
        .unwrap_or_else(|_| "{\"error\":\"internal error\"}".to_string())
        .into_bytes()
}

/// The `POST /v1/models/<name>/swap` request body: which version the
/// name's active pointer should move to.
///
/// ```json
/// {"version": "2"}
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapRequest {
    /// Target version label (the artifact `name@version` must exist).
    pub version: String,
}

/// The `GET /v1/models` response body: one
/// [`ModelStatus`] row per cataloged artifact.
#[derive(Debug, Clone, Serialize)]
pub struct ModelListBody {
    /// Cataloged models with residency state, sorted by `name@version`.
    pub models: Vec<ModelStatus>,
}

/// The JSON error body every non-2xx response carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable reason, safe to echo to clients.
    pub error: String,
}

impl ErrorBody {
    /// Serializes an error message to its JSON wire form.
    pub fn render(message: impl Into<String>) -> Vec<u8> {
        let body = ErrorBody {
            error: message.into(),
        };
        serde_json::to_string(&body)
            .unwrap_or_else(|_| "{\"error\":\"internal error\"}".to_string())
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_with_options() {
        let req = InferRequest {
            dims: vec![1, 2, 2],
            pixels: vec![0.25, 0.5, 0.75, 1.0],
            deadline_ms: Some(2.5),
            priority: 7,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: InferRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn request_optional_fields_default() {
        let back: InferRequest =
            serde_json::from_str(r#"{"dims":[1,1,2],"pixels":[0.1,0.9]}"#).unwrap();
        assert_eq!(back.deadline_ms, None);
        assert_eq!(back.priority, 0);
        let opts = back.submit_options().unwrap();
        assert_eq!(opts, SubmitOptions::default());
    }

    #[test]
    fn request_rejects_bad_shapes() {
        assert!(serde_json::from_str::<InferRequest>("[1,2]").is_err());
        assert!(serde_json::from_str::<InferRequest>(r#"{"dims":[1]}"#).is_err());
        assert!(serde_json::from_str::<InferRequest>(
            r#"{"dims":[1],"pixels":[0.5],"priority":999}"#
        )
        .is_err());
        assert!(serde_json::from_str::<InferRequest>(
            r#"{"dims":[1],"pixels":[0.5],"deadline_ms":"soon"}"#
        )
        .is_err());
    }

    #[test]
    fn validate_checks_geometry() {
        let req = InferRequest::new(vec![1, 2, 2], vec![0.0; 4]);
        assert!(req.validate(&[1, 2, 2]).is_ok());
        assert!(req.validate(&[3, 2, 2]).unwrap_err().contains("dims"));
        let short = InferRequest::new(vec![1, 2, 2], vec![0.0; 3]);
        assert!(short.validate(&[1, 2, 2]).unwrap_err().contains("pixels"));
    }

    #[test]
    fn submit_options_rejects_negative_deadline() {
        let mut req = InferRequest::new(vec![1], vec![0.5]);
        req.deadline_ms = Some(-1.0);
        assert!(req.submit_options().is_err());
        req.deadline_ms = Some(3.5);
        let opts = req.submit_options().unwrap();
        assert_eq!(opts.deadline, Some(Duration::from_micros(3500)));
    }

    #[test]
    fn pixel_floats_roundtrip_bit_exact() {
        // The equivalence guarantee across the HTTP boundary hangs on
        // this: shortest-round-trip printing makes f32 → text → f32 exact.
        let vals: Vec<f32> = vec![0.1, 1.0 / 3.0, -0.687_194_9, 2.337_512e-6, 0.999_999_94];
        let req = InferRequest::new(vec![5], vals.clone());
        let json = serde_json::to_string(&req).unwrap();
        let back: InferRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.pixels.len(), vals.len());
        for (a, b) in back.pixels.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let resp = InferResponse {
            logits: vec![0.1, -0.9],
            top1: 0,
            batch_size: 3,
            queue_wait_us: 12.5,
            exec_us: 99.0,
            e2e_us: 120.0,
            energy_uj: 431.25,
            trace_id: "00000080000002ab".to_string(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: InferResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn render_trace_keeps_native_attr_types() {
        let trace = TraceId::from_raw(0xab).unwrap();
        let spans = vec![SpanSnapshot {
            trace,
            span_id: 2,
            parent_id: 1,
            name: "batch.flush",
            start_us: 10,
            dur_us: 0,
            track: 3,
            attrs: vec![
                ("reason", AttrValue::Str("max_batch")),
                ("batch_size", AttrValue::U64(4)),
            ],
        }];
        let body = String::from_utf8(render_trace(trace, &spans)).unwrap();
        let parsed: Content = serde_json::from_str(&body).unwrap();
        let map = parsed.as_map().unwrap();
        assert_eq!(
            field(map, "trace_id").unwrap().as_str(),
            Some("00000000000000ab")
        );
        let spans_json = field(map, "spans").unwrap().as_seq().unwrap();
        let span = spans_json[0].as_map().unwrap();
        assert_eq!(field(span, "name").unwrap().as_str(), Some("batch.flush"));
        assert_eq!(field(span, "parent_id").unwrap().as_u64(), Some(1));
        let attrs = field(span, "attrs").unwrap().as_map().unwrap();
        assert_eq!(field(attrs, "reason").unwrap().as_str(), Some("max_batch"));
        assert_eq!(field(attrs, "batch_size").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn error_body_renders_json() {
        let body = String::from_utf8(ErrorBody::render("queue full")).unwrap();
        assert_eq!(body, r#"{"error":"queue full"}"#);
    }
}
