//! CI telemetry-artifact validator.
//!
//! Reads the `facts.jsonl` a run directory's [`asr_obs::RunDirSink`] wrote
//! and checks the document is well-formed end to end:
//!
//! - every line parses as one flat JSON fact with `kind` and `ts_us`;
//! - the first record is the `host` metadata fact;
//! - timestamps never go backwards in file order (the sink is append-only
//!   behind a lock, so emission order is write order);
//! - every `span` fact carries `trace`, `seq` and `event` fields, with
//!   per-event payload fields present (`finished` has an `outcome`,
//!   `rejected` a `scope`, `enqueued` a `depth`, …), and belongs to a
//!   trace: none is recorded on the nil trace 0;
//! - within every trace, sequence numbers strictly increase, the first
//!   event is `admitted`, and exactly one terminal (`finished`/`rejected`)
//!   closes the trace — no orphaned or double-terminated requests.
//!
//! Usage: `obs_validate <facts.jsonl>`.  Exits non-zero with a line-numbered
//! report on the first malformed record or any unbalanced trace.

use asr_obs::{Fact, FieldValue};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn u64_field(fact: &Fact, name: &str) -> Result<u64, String> {
    fact.field(name)
        .and_then(FieldValue::as_u64)
        .ok_or_else(|| format!("missing u64 field {name:?}"))
}

fn str_field<'f>(fact: &'f Fact, name: &str) -> Result<&'f str, String> {
    fact.field(name)
        .and_then(FieldValue::as_str)
        .ok_or_else(|| format!("missing string field {name:?}"))
}

/// The payload fields each span event kind must carry (beyond the envelope's
/// `trace`/`seq`/`event`).  Unknown event names are rejected: a telemetry
/// producer and this validator must agree on the taxonomy.
fn required_payload(event: &str) -> Result<&'static [&'static str], String> {
    Ok(match event {
        "admitted" => &["req"],
        "enqueued" => &["depth"],
        "batch_formed" => &["worker", "batch"],
        "decode_started" => &["worker"],
        "shard_dispatch" => &["threads"],
        "vad_speech_start" => &["frame"],
        "vad_speech_end" | "forced_endpoint" | "barge_in" => &["frames"],
        "partial_emitted" => &["words", "latency_us"],
        "finished" => &["outcome", "frames"],
        "rejected" => &["scope"],
        other => return Err(format!("unknown span event {other:?}")),
    })
}

struct TraceState {
    first_event: String,
    last_seq: u64,
    terminated: bool,
    events: usize,
}

fn validate(text: &str) -> Result<String, String> {
    let mut last_ts: Option<u64> = None;
    let mut traces: BTreeMap<u64, TraceState> = BTreeMap::new();
    let mut facts = 0usize;
    let mut spans = 0usize;

    for (index, line) in text.lines().enumerate() {
        let line_no = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fact = Fact::parse_json(line).map_err(|e| format!("line {line_no}: {e}"))?;
        facts += 1;
        if facts == 1 && fact.kind != "host" {
            return Err(format!(
                "line {line_no}: first record must be the host fact, got kind {:?}",
                fact.kind
            ));
        }
        if let Some(previous) = last_ts {
            if fact.ts_us < previous {
                return Err(format!(
                    "line {line_no}: timestamp {} goes backwards (previous {previous})",
                    fact.ts_us
                ));
            }
        }
        last_ts = Some(fact.ts_us);

        if fact.kind != "span" {
            continue;
        }
        spans += 1;
        let trace = u64_field(&fact, "trace").map_err(|e| format!("line {line_no}: {e}"))?;
        let seq = u64_field(&fact, "seq").map_err(|e| format!("line {line_no}: {e}"))?;
        let event = str_field(&fact, "event")
            .map_err(|e| format!("line {line_no}: {e}"))?
            .to_string();
        for field in required_payload(&event).map_err(|e| format!("line {line_no}: {e}"))? {
            if fact.field(field).is_none() {
                return Err(format!(
                    "line {line_no}: span event {event:?} missing payload field {field:?}"
                ));
            }
        }
        if trace == 0 {
            return Err(format!(
                "line {line_no}: span event {event:?} on the nil trace 0"
            ));
        }
        let terminal = matches!(event.as_str(), "finished" | "rejected");
        match traces.get_mut(&trace) {
            None => {
                traces.insert(
                    trace,
                    TraceState {
                        first_event: event.clone(),
                        last_seq: seq,
                        terminated: terminal,
                        events: 1,
                    },
                );
            }
            Some(state) => {
                if seq <= state.last_seq {
                    return Err(format!(
                        "line {line_no}: trace {trace} seq {seq} does not increase \
                         (previous {})",
                        state.last_seq
                    ));
                }
                if state.terminated {
                    return Err(format!(
                        "line {line_no}: trace {trace} emits {event:?} after its terminal"
                    ));
                }
                state.last_seq = seq;
                state.terminated = terminal;
                state.events += 1;
            }
        }
    }

    if facts == 0 {
        return Err("document contains no facts".into());
    }
    for (trace, state) in &traces {
        if state.first_event != "admitted" {
            return Err(format!(
                "trace {trace} opens with {:?}, must open with \"admitted\"",
                state.first_event
            ));
        }
        if !state.terminated {
            return Err(format!(
                "trace {trace} never terminated ({} events, no finished/rejected)",
                state.events
            ));
        }
    }
    Ok(format!(
        "obs_validate: OK ({facts} facts, {spans} span events, {} balanced traces)",
        traces.len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: obs_validate <facts.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs_validate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&text) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_validate: FAIL in {path}\n{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_obs::{host_fact, Outcome, RequestKind, SpanEvent, Telemetry};

    fn demo_document() -> String {
        // The host fact is stamped first so file order stays monotone, the
        // same order `RunDirSink::create` produces.
        let host = host_fact();
        let (telemetry, sink) = Telemetry::to_memory();
        let trace = telemetry.begin_trace();
        telemetry.emit(
            trace,
            &SpanEvent::Admitted {
                kind: RequestKind::Decode,
                model: Some("default".into()),
                tenant: None,
            },
        );
        telemetry.emit(trace, &SpanEvent::Enqueued { depth: 1 });
        telemetry.emit(trace, &SpanEvent::DecodeStarted { worker: 0 });
        telemetry.emit(
            trace,
            &SpanEvent::Finished {
                outcome: Outcome::Completed,
                frames: 42,
            },
        );
        let mut lines = vec![host.to_json()];
        lines.extend(sink.facts().iter().map(Fact::to_json));
        lines.join("\n") + "\n"
    }

    #[test]
    fn accepts_a_balanced_document() {
        let report = validate(&demo_document()).expect("valid document");
        assert!(report.contains("1 balanced traces"), "{report}");
        assert!(report.contains("4 span events"), "{report}");
    }

    #[test]
    fn rejects_structural_defects() {
        let good = demo_document();
        // Truncating the terminal leaves an unterminated trace.
        let truncated: String = good
            .lines()
            .filter(|l| !l.contains("\"finished\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(validate(&truncated)
            .unwrap_err()
            .contains("never terminated"));
        // Dropping the host fact breaks the header rule.
        let headless: String = good.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(validate(&headless)
            .unwrap_err()
            .contains("first record must be the host fact"));
        // A malformed line is reported with its line number.
        let corrupt = format!("{good}not json\n");
        assert!(validate(&corrupt).unwrap_err().starts_with("line 6:"));
        // Duplicate terminals are caught.
        let last = good.lines().last().expect("terminal line");
        let doubled = format!("{good}{last}\n");
        let err = validate(&doubled).unwrap_err();
        assert!(
            err.contains("after its terminal") || err.contains("does not increase"),
            "{err}"
        );
        // An empty document is rejected.
        assert!(validate("").unwrap_err().contains("no facts"));
    }

    #[test]
    fn rejects_a_span_fact_on_the_nil_trace() {
        let good = demo_document();
        let last = good.lines().last().expect("terminal line");
        let mut fact = Fact::parse_json(last).expect("fact");
        fact.fields.retain(|(name, _)| name != "trace");
        let orphan = fact.with("trace", 0u64).to_json();
        let err = validate(&format!("{good}{orphan}\n")).unwrap_err();
        assert!(
            err.contains("line 6:") && err.contains("nil trace"),
            "{err}"
        );
    }
}
