//! Fact records and sinks: one self-describing JSONL record per event or
//! snapshot, written to memory (tests) or an append-only run directory
//! (experiments), modeled on append-only per-run fact logs.
//!
//! A [`Fact`] is a flat record — a `kind`, a monotone process timestamp, and
//! typed named fields — that encodes to exactly one JSON object per line.
//! The encoding is hand-rolled (no serde in this workspace) and covered by a
//! parse/print round-trip, so `bench_gate`-adjacent tools can read the same
//! files they were written from.

use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One typed field value of a [`Fact`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, ids, microseconds).
    U64(u64),
    /// A signed integer (a non-negative one reads back as `U64`).
    I64(i64),
    /// A float (ratios, RTF).
    F64(f64),
    /// A string (names, outcomes).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl FieldValue {
    /// The value as `u64` when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One self-describing observability record: a record `kind`, the monotone
/// process timestamp it was produced at, and its typed fields.  Encodes to
/// one JSON object per line — `{"kind":…,"ts_us":…,<fields>}` — with field
/// order preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Record type: `"host"`, `"span"`, `"hw_report"`, ….
    pub kind: String,
    /// Microseconds since the process observability epoch (first telemetry
    /// use); monotone across all facts of one process.
    pub ts_us: u64,
    /// Named typed fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Fact {
    /// Starts a fact of `kind` stamped with the current monotone timestamp.
    pub fn new(kind: &str) -> Self {
        Fact {
            kind: kind.to_string(),
            ts_us: now_micros(),
            fields: Vec::new(),
        }
    }

    /// Builder: appends one named field.
    #[must_use]
    pub fn with(mut self, name: &str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((name.to_string(), value.into()));
        self
    }

    /// Looks a field up by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Encodes the fact as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"kind\":");
        push_json_string(&mut out, &self.kind);
        out.push_str(",\"ts_us\":");
        out.push_str(&self.ts_us.to_string());
        for (name, value) in &self.fields {
            out.push(',');
            push_json_string(&mut out, name);
            out.push(':');
            match value {
                FieldValue::U64(v) => out.push_str(&v.to_string()),
                FieldValue::I64(v) => out.push_str(&v.to_string()),
                FieldValue::F64(v) => {
                    // `{:?}` keeps a decimal point or exponent, so the value
                    // parses back as F64 rather than an integer.
                    if v.is_finite() {
                        out.push_str(&format!("{v:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
                FieldValue::Str(v) => push_json_string(&mut out, v),
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSON line produced by [`Fact::to_json`] back into a fact.
    ///
    /// This is a reader for the *flat* schema this module writes (string,
    /// integer, float, and boolean values only — no nesting), not a general
    /// JSON parser; the `obs_validate` tool and tests use it to check emitted
    /// run directories.  It runs in time linear in the line's length and
    /// takes any line, however malformed, without panicking; a fact it
    /// returns re-encodes to a line that parses back to the same fact.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed construct.
    pub fn parse_json(line: &str) -> Result<Fact, String> {
        let mut p = Parser {
            text: line,
            bytes: line.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut kind: Option<String> = None;
        let mut ts_us: Option<u64> = None;
        let mut fields = Vec::new();
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            if !fields.is_empty() || kind.is_some() || ts_us.is_some() {
                p.expect(b',')?;
                p.skip_ws();
            }
            let name = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            match (name.as_str(), &value) {
                ("kind", FieldValue::Str(s)) => kind = Some(s.clone()),
                ("kind", _) => return Err("\"kind\" must be a string".into()),
                ("ts_us", FieldValue::U64(v)) => ts_us = Some(*v),
                ("ts_us", _) => return Err("\"ts_us\" must be an unsigned integer".into()),
                _ => fields.push((name, value)),
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(Fact {
            kind: kind.ok_or("missing \"kind\" field")?,
            ts_us: ts_us.ok_or("missing \"ts_us\" field")?,
            fields,
        })
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Minimal cursor over one flat JSON object line.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err("unknown escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.  Every step before this
                    // one consumed whole characters, so `pos` is on a
                    // boundary of the input `&str`.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid utf-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn value(&mut self) -> Result<FieldValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(FieldValue::Str(self.string()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(FieldValue::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(FieldValue::Bool(false))
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                let mut float = false;
                while let Some(&b) = self.bytes.get(self.pos) {
                    match b {
                        b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                        b'.' | b'e' | b'E' => {
                            float = true;
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid number")?;
                // The writer encodes a non-finite float as `null` and a
                // non-negative integer as `U64`; reading the same way keeps
                // every parsed fact re-encodable to itself.
                if float {
                    match text.parse::<f64>() {
                        Ok(v) if v.is_finite() => Ok(FieldValue::F64(v)),
                        _ => Err(format!("invalid float {text:?}")),
                    }
                } else if let Ok(v) = text.parse::<u64>() {
                    Ok(FieldValue::U64(v))
                } else {
                    match text.parse::<i64>() {
                        Ok(v) if v < 0 => Ok(FieldValue::I64(v)),
                        Ok(v) => Ok(FieldValue::U64(v.unsigned_abs())),
                        Err(_) => Err(format!("invalid integer {text:?}")),
                    }
                }
            }
            _ => Err(format!("unexpected value at offset {}", self.pos)),
        }
    }
}

/// Microseconds since the process observability epoch — a shared [`Instant`]
/// pinned at first use, so every fact's `ts_us` is monotone within the
/// process and comparable across threads.
pub fn now_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now()
        .saturating_duration_since(epoch)
        .as_micros()
        .min(u64::MAX as u128) as u64
}

/// A host-metadata fact — the first record of every run directory, so a
/// fact file is self-describing about where it was recorded (matching the
/// `host/cpus` record `bench_gate` keys its ratio checks on).
pub fn host_fact() -> Fact {
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Fact::new("host")
        .with(
            "cpus",
            std::thread::available_parallelism().map_or(0usize, |n| n.get()),
        )
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with("unix_s", unix_s)
}

/// Where facts go.  Implementations must tolerate concurrent `record` calls;
/// a sink failure must never panic the instrumented thread (writers count
/// drops instead).
pub trait ObsSink: Send + Sync + fmt::Debug {
    /// Records one fact.
    fn record(&self, fact: &Fact);

    /// Flushes buffered records to durable storage (no-op for memory sinks).
    fn flush(&self) {}
}

/// An in-memory sink for tests: records every fact, hands back a snapshot.
#[derive(Debug, Default)]
pub struct MemorySink {
    facts: Mutex<Vec<Fact>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every fact recorded so far, in record order.
    pub fn facts(&self) -> Vec<Fact> {
        self.facts.lock().expect("memory sink poisoned").clone()
    }

    /// Number of facts recorded so far.
    pub fn len(&self) -> usize {
        self.facts.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ObsSink for MemorySink {
    fn record(&self, fact: &Fact) {
        self.facts
            .lock()
            .expect("memory sink poisoned")
            .push(fact.clone());
    }
}

/// An append-only run-directory sink: creates `<dir>/facts.jsonl`, writes a
/// [`host_fact`] first, then one JSON line per recorded fact.  Lines are
/// buffered; [`ObsSink::flush`] (called by `Telemetry::flush`) makes them
/// durable.  I/O errors never panic the recording thread — failed writes are
/// counted in [`RunDirSink::dropped`].
#[derive(Debug)]
pub struct RunDirSink {
    dir: PathBuf,
    writer: Mutex<BufWriter<fs::File>>,
    dropped: AtomicU64,
}

impl RunDirSink {
    /// Creates (or reuses) the run directory and opens `facts.jsonl` for
    /// appending, stamping the host-metadata record.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or opening the file.
    pub fn create(dir: impl AsRef<Path>) -> std::io::Result<RunDirSink> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("facts.jsonl"))?;
        let sink = RunDirSink {
            dir,
            writer: Mutex::new(BufWriter::new(file)),
            dropped: AtomicU64::new(0),
        };
        sink.record(&host_fact());
        Ok(sink)
    }

    /// The run directory this sink writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the fact file (`<dir>/facts.jsonl`).
    pub fn facts_path(&self) -> PathBuf {
        self.dir.join("facts.jsonl")
    }

    /// Number of facts lost to I/O errors (0 in healthy runs).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl ObsSink for RunDirSink {
    fn record(&self, fact: &Fact) {
        let mut writer = self.writer.lock().expect("run dir sink poisoned");
        let line = fact.to_json();
        if writeln!(writer, "{line}").is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().expect("run dir sink poisoned");
        if writer.flush().is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for RunDirSink {
    fn drop(&mut self) {
        if let Ok(writer) = self.writer.get_mut() {
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_json_round_trips() {
        let fact = Fact::new("span")
            .with("trace", 7u64)
            .with("event", "finished")
            .with("ok", true)
            .with("delta", -3i64)
            .with("rtf", 0.25f64)
            .with("note", "quote \" slash \\ newline \n tab \t");
        let line = fact.to_json();
        let back = Fact::parse_json(&line).expect("parse");
        assert_eq!(back, fact);
        // And the re-encoding is stable.
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"kind\":\"x\"}",
            "{\"kind\":3,\"ts_us\":1}",
            "{\"kind\":\"x\",\"ts_us\":-1}",
            "{\"kind\":\"x\",\"ts_us\":1} trailing",
            "{\"kind\":\"x\",\"ts_us\":1,\"v\":}",
        ] {
            assert!(Fact::parse_json(bad).is_err(), "must reject {bad:?}");
        }
    }

    /// xorshift64: a local seeded generator, so the hostile-input test
    /// needs no dev-dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Truncations, byte flips and splices of valid lines: every input
    /// parses or is rejected without a panic, and whatever parses
    /// re-encodes to a line that parses back to the same fact.
    #[test]
    fn hostile_lines_parse_or_fail_and_what_parses_round_trips() {
        let valid: Vec<String> = [
            Fact::new("span")
                .with("trace", 7u64)
                .with("event", "finished")
                .with("ok", true)
                .with("delta", -3i64)
                .with("rtf", 0.25f64),
            Fact::new("host")
                .with("note", "quote \" slash \\ nl \n tab \t ctl \u{1} é 😀")
                .with("big", u64::MAX)
                .with("small", i64::MIN)
                .with("tiny", 1e-300f64)
                .with("huge", 1e300f64)
                .with("neg", -0.0f64)
                .with("off", false),
            Fact::new(""),
        ]
        .iter()
        .map(Fact::to_json)
        .collect();
        // Bytes that change a line's JSON structure, flipped in half the time.
        let significant = b"{}\":,.-+0123456789eEtrufalsn \\\t\n";
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let mut parsed = 0;
        for _ in 0..20_000 {
            let mut bytes = valid[rng.below(valid.len())].as_bytes().to_vec();
            match rng.below(3) {
                0 => bytes.truncate(rng.below(bytes.len() + 1)),
                1 => {
                    for _ in 0..=rng.below(4) {
                        let at = rng.below(bytes.len());
                        bytes[at] = if rng.below(2) == 0 {
                            significant[rng.below(significant.len())]
                        } else {
                            rng.next() as u8
                        };
                    }
                }
                _ => {
                    let other = valid[rng.below(valid.len())].as_bytes();
                    bytes.truncate(rng.below(bytes.len() + 1));
                    bytes.extend_from_slice(&other[rng.below(other.len() + 1)..]);
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            if let Ok(fact) = Fact::parse_json(&line) {
                parsed += 1;
                let again = fact.to_json();
                assert_eq!(
                    Fact::parse_json(&again).as_ref(),
                    Ok(&fact),
                    "{line:?} re-encodes as {again:?}"
                );
            }
        }
        assert!(parsed > 0, "some mutations must still parse");
    }

    /// Parsing is linear in the line's length: a 2 MB string field parses
    /// well inside a watchdog that a per-character rescan of the rest of
    /// the line would blow by minutes.
    #[test]
    fn a_two_megabyte_string_field_parses_under_a_watchdog() {
        let unit = "text é 😀 \" ";
        let note = unit.repeat((2 << 20) / unit.len() + 1);
        let fact = Fact::new("span").with("note", note);
        let line = fact.to_json();
        let (done, finished) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let parsed = Fact::parse_json(&line);
            let _ = done.send(());
            parsed
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a 2 MB string field must parse within 10 s");
        let back = parser.join().expect("parser thread").expect("parse");
        assert_eq!(back, fact);
    }

    #[test]
    fn timestamps_are_monotone() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
        let f1 = Fact::new("a");
        let f2 = Fact::new("b");
        assert!(f2.ts_us >= f1.ts_us);
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(&Fact::new("one"));
        sink.record(&Fact::new("two"));
        let facts = sink.facts();
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[0].kind, "one");
        assert_eq!(facts[1].kind, "two");
    }

    #[test]
    fn run_dir_sink_writes_host_record_first() {
        let dir = std::env::temp_dir().join(format!(
            "asr-obs-test-{}-{}",
            std::process::id(),
            now_micros()
        ));
        let sink = RunDirSink::create(&dir).expect("create");
        sink.record(&Fact::new("span").with("trace", 1u64));
        sink.flush();
        let text = fs::read_to_string(sink.facts_path()).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let host = Fact::parse_json(lines[0]).expect("host line");
        assert_eq!(host.kind, "host");
        assert!(host.field("cpus").and_then(FieldValue::as_u64).is_some());
        let span = Fact::parse_json(lines[1]).expect("span line");
        assert_eq!(span.kind, "span");
        assert_eq!(sink.dropped(), 0);
        drop(sink);
        fs::remove_dir_all(&dir).ok();
    }
}
