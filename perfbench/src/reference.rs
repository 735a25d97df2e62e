//! Reference answers, computed in-process before anything is timed, and the
//! check every wire response must pass.
//!
//! Each corpus frame is served once on an in-process `ScenarioEngine`
//! through the path the server takes for it (`serve_batch` for bare specs,
//! `serve_traced` for `"trace":true` envelopes, `serve_recorded` for
//! `"record"` envelopes) and rendered with the server's own renderers. A
//! wire answer must equal that rendering byte for byte once its wall-clock
//! `"trace"` member is removed.

use rome_server::proto::{self, Frame, Request};
use rome_server::{Json, ResultPayload, ScenarioEngine, ScenarioResult, ServerError};
use rome_sim::MemorySystemKind;

/// One corpus frame with its expected answer.
pub struct Entry {
    pub line: String,
    pub kind: EntryKind,
}

pub enum EntryKind {
    /// `{"op":"stats"}`: answered from live counters, checked for shape.
    Stats,
    Request(Box<Served>),
}

pub struct Served {
    pub req: Request,
    pub result: Result<ScenarioResult, ServerError>,
    /// The rendered `"record"` member for recorded requests.
    pub record: Option<Json>,
    /// Why this entry can never be answered correctly (an error result, an
    /// aborted run, a closed loop that lost requests), if it cannot.
    pub defect: Option<String>,
    /// Engine work counts of the reference serve (deterministic).
    pub events: u64,
    pub idle_wakeups: u64,
}

/// The wall-clock phase timings a traced answer carries, in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSpans {
    pub parse_us: u64,
    pub admission_us: u64,
    pub calibration_us: u64,
    pub simulate_us: u64,
}

/// Serve every line of `corpus` in-process on `engine` (calibrations warmed
/// first, as the server's set-up warms them).
pub fn compute(engine: &ScenarioEngine, corpus: &[String]) -> Result<Vec<Entry>, String> {
    engine
        .calibration()
        .get_or_calibrate(MemorySystemKind::Hbm4);
    engine
        .calibration()
        .get_or_calibrate(MemorySystemKind::Rome);
    let events = engine.registry().counter("engine.events");
    let idle = engine.registry().counter("engine.idle_wakeups");
    corpus
        .iter()
        .map(|line| {
            let frame = proto::parse_frame(line).map_err(|e| format!("corpus line {line}: {e}"))?;
            let kind = match frame {
                Frame::Stats { .. } => EntryKind::Stats,
                Frame::Flight { .. } => return Err("flight frames are not benchmarked".into()),
                Frame::Request(req) => {
                    let (e0, i0) = (events.get(), idle.get());
                    let (result, record) = match (&req.record, req.trace) {
                        (Some(rec), _) => {
                            let (result, _, buffer) = engine.serve_recorded(&req.spec, rec.level);
                            (
                                result,
                                Some(proto::record_json(rec.level, &buffer, rec.limit)),
                            )
                        }
                        (None, true) => (engine.serve_traced(&req.spec).0, None),
                        (None, false) => {
                            let mut results = engine.serve_batch(std::slice::from_ref(&req.spec));
                            (results.swap_remove(0), None)
                        }
                    };
                    let defect = defect(&result);
                    EntryKind::Request(Box::new(Served {
                        req,
                        result,
                        record,
                        defect,
                        events: events.get() - e0,
                        idle_wakeups: idle.get() - i0,
                    }))
                }
            };
            Ok(Entry {
                line: line.clone(),
                kind,
            })
        })
        .collect()
}

/// A result no answer may match: errors, aborted runs, and closed-loop
/// points that did not complete everything they injected.
fn defect(result: &Result<ScenarioResult, ServerError>) -> Option<String> {
    let ok = match result {
        Ok(ok) => ok,
        Err(e) => return Some(format!("reference serve failed: {}", e.detail)),
    };
    let aborted = |r: &rome_engine::SimulationReport| r.aborted.is_some();
    match &ok.payload {
        ResultPayload::ClosedLoop(points) => points
            .iter()
            .find(|p| p.completed != p.injected || p.aborted.is_some())
            .map(|p| {
                format!(
                    "{}: window {} completed {} of {} injected",
                    ok.name, p.window, p.completed, p.injected
                )
            }),
        ResultPayload::QueueDepth(rows) if rows.iter().any(|r| aborted(&r.report)) => {
            Some(format!("{}: aborted queue-depth run", ok.name))
        }
        ResultPayload::MultiCube(mc) if aborted(&mc.merged) => {
            Some(format!("{}: aborted multi-cube run", ok.name))
        }
        _ => None,
    }
}

impl Served {
    /// The answer expected for this request sent with envelope id `id`.
    pub fn expected(&self, id: Option<u64>) -> String {
        match &self.record {
            Some(record) => proto::render_recorded_response(
                id,
                &self.req.spec,
                &self.result,
                None,
                record.clone(),
            ),
            None => proto::render_response(id, &self.req.spec, &self.result),
        }
    }

    /// This request as a traced envelope: the id is kept (or `fallback`
    /// assigned), `"trace":true` added, a `"record"` member kept.
    pub fn traced_line(&self, fallback: u64) -> (String, u64) {
        let id = self.req.id.unwrap_or(fallback);
        let record = self
            .req
            .record
            .as_ref()
            .map(|rec| (rec.level.as_str(), rec.limit.map(|l| l as u64)));
        (
            crate::corpus::envelope(id, &self.req.spec, true, record),
            id,
        )
    }
}

/// Split a wire answer into its body without the `"trace"` member and the
/// phase timings that member held. The server appends `"trace"` after the
/// result members (before `"record"`), and its object holds only integers.
pub fn strip_trace(reply: &str) -> (String, Option<WireSpans>) {
    const KEY: &str = ",\"trace\":{";
    let Some(at) = reply.find(KEY) else {
        return (reply.to_string(), None);
    };
    let body_start = at + KEY.len();
    let Some(len) = reply[body_start..].find('}') else {
        return (reply.to_string(), None);
    };
    let inner = &reply[body_start..body_start + len];
    let field = |name: &str| {
        inner.split(',').find_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            (k.trim_matches('"') == name).then(|| v.parse::<u64>().ok())?
        })
    };
    let spans = WireSpans {
        parse_us: field("parse_us").unwrap_or(0),
        admission_us: field("admission_us").unwrap_or(0),
        calibration_us: field("calibration_us").unwrap_or(0),
        simulate_us: field("simulate_us").unwrap_or(0),
    };
    let mut stripped = String::with_capacity(reply.len());
    stripped.push_str(&reply[..at]);
    stripped.push_str(&reply[body_start + len + 1..]);
    (stripped, Some(spans))
}

/// Check one wire answer against its entry; `id` is the envelope id the
/// frame carried. Returns the phase timings of a traced answer.
pub fn check(entry: &Entry, id: Option<u64>, reply: &str) -> Result<Option<WireSpans>, String> {
    match &entry.kind {
        EntryKind::Stats => {
            let v = rome_server::json::parse(reply).map_err(|e| format!("stats reply: {e}"))?;
            let ok = v.get("scenario").and_then(Json::as_str) == Some("stats")
                && v.get("counters").is_some();
            ok.then_some(None)
                .ok_or_else(|| format!("not a stats frame: {reply}"))
        }
        EntryKind::Request(served) => {
            if let Some(defect) = &served.defect {
                return Err(defect.clone());
            }
            let (body, spans) = strip_trace(reply);
            if body == served.expected(id) {
                Ok(spans)
            } else {
                Err(format!(
                    "answer differs from the in-process reference for {}",
                    served.req.spec.name()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_trace_removes_only_the_trace_member() {
        let reply = "{\"id\":3,\"name\":\"x\",\"v\":1,\"trace\":{\"parse_us\":4,\"admission_us\":0,\"calibration_us\":1,\"simulate_us\":250},\"record\":{\"events\":[]}}";
        let (body, spans) = strip_trace(reply);
        assert_eq!(
            body,
            "{\"id\":3,\"name\":\"x\",\"v\":1,\"record\":{\"events\":[]}}"
        );
        let spans = spans.unwrap();
        assert_eq!(
            (
                spans.parse_us,
                spans.admission_us,
                spans.calibration_us,
                spans.simulate_us
            ),
            (4, 0, 1, 250)
        );
        assert_eq!(strip_trace("{\"a\":1}"), ("{\"a\":1}".to_string(), None));
    }

    #[test]
    fn references_match_a_direct_render_and_catch_mismatches() {
        let engine = ScenarioEngine::new();
        let corpus = crate::corpus::generate("rome_rows", crate::corpus::DEFAULT_SEED).unwrap();
        let entries = compute(&engine, &corpus).unwrap();
        for entry in &entries {
            if let EntryKind::Request(served) = &entry.kind {
                assert!(served.defect.is_none(), "{:?}", served.defect);
                let id = served.req.id;
                let good = served.expected(id);
                assert!(check(entry, id, &good).is_ok());
                assert!(check(entry, id, &good.replacen('1', "2", 1)).is_err());
            }
        }
    }
}
