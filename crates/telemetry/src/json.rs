//! JSONL emission and validation for interval records.
//!
//! The workspace is zero-dependency, so both directions are hand-rolled:
//! the emitter writes one flat JSON object per interval, and the validator
//! parses that flat shape back (string/number/bool/null scalar values
//! only — no nesting) to check the stream a run produced.
//!
//! # Interval schema (one object per line)
//!
//! | key                 | type          | meaning                            |
//! |---------------------|---------------|------------------------------------|
//! | `seq`               | int           | interval index, dense from 0       |
//! | `instructions`      | int           | cumulative retired at interval end |
//! |                     |               | (= running sum of `d_instructions`)|
//! | `cycles`            | int           | cumulative cycles at interval end  |
//! |                     |               | (= running sum of `d_cycles`)      |
//! | `ipc`               | float         | interval IPC (deltas)              |
//! | `threshold`         | int \| null   | policy threshold (filter policies) |
//! | `weight_saturation` | float \| null | saturated perceptron weight frac.  |
//! | `d_<counter>`       | int           | interval delta, one per counter in |
//! |                     |               | `TelemetryCounters::FIELD_NAMES`   |
//! |                     |               | (28, from `d_instructions` to      |
//! |                     |               | `d_os_shootdowns`)                 |

use pagecross_types::{IntervalRecord, TelemetryCounters};
use std::fmt::Write as _;

/// Serialises one interval record as a single JSON line (no trailing
/// newline).
pub fn interval_to_json(r: &IntervalRecord) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"seq\":{},\"instructions\":{},\"cycles\":{},\"ipc\":{:.6}",
        r.seq,
        r.end_instructions,
        r.end_cycles,
        r.ipc()
    );
    match &r.policy {
        Some(p) => {
            let _ = write!(
                s,
                ",\"threshold\":{},\"weight_saturation\":{:.6}",
                p.threshold, p.weight_saturation
            );
        }
        None => {
            s.push_str(",\"threshold\":null,\"weight_saturation\":null");
        }
    }
    for (name, value) in r.delta.entries() {
        let _ = write!(s, ",\"d_{name}\":{value}");
    }
    s.push('}');
    s
}

/// What JSONL validation found wrong, with the offending line (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Aggregates a valid JSONL stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonlSummary {
    /// Number of interval lines.
    pub lines: usize,
    /// Sum of every `d_*` delta across all lines — equals the run's final
    /// cumulative counters when the stream is complete.
    pub totals: TelemetryCounters,
    /// Cumulative instruction count on the last line (0 when empty).
    pub final_instructions: u64,
    /// Cumulative cycle count on the last line (0 when empty).
    pub final_cycles: u64,
}

/// A parsed flat-JSON scalar value.
#[derive(Clone, Debug, PartialEq)]
enum Scalar {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Parses a flat JSON object (scalar values only) into key/value pairs.
///
/// Supports exactly the shape this crate emits: one object, string keys,
/// values that are numbers, strings (with `\"`/`\\`/`\n`/`\t`/`\r`/`\/`
/// `\b`/`\f`/`\uXXXX` escapes), booleans or null. Nested objects/arrays
/// are rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\r' | b'\n') {
            *i += 1;
        }
    }

    fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err("expected '\"'".into());
        }
        *i += 1;
        let mut s = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*i + 1..*i + 5)
                                .ok_or("truncated \\u escape")
                                .and_then(|h| {
                                    std::str::from_utf8(h).map_err(|_| "bad \\u escape")
                                })?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    *i += 1;
                }
                c if c < 0x20 => return Err("control character in string".into()),
                _ => {
                    // Copy the full UTF-8 sequence starting here.
                    let start = *i;
                    *i += 1;
                    while *i < b.len() && (b[*i] & 0xC0) == 0x80 {
                        *i += 1;
                    }
                    s.push_str(std::str::from_utf8(&b[start..*i]).map_err(|_| "invalid UTF-8")?);
                }
            }
        }
        Err("unterminated string".into())
    }

    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'{') {
        return Err("expected '{'".into());
    }
    i += 1;
    skip_ws(b, &mut i);
    if b.get(i) == Some(&b'}') {
        i += 1;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err("trailing characters after object".into());
        }
        return Ok(out);
    }
    loop {
        skip_ws(b, &mut i);
        let key = parse_string(b, &mut i)?;
        skip_ws(b, &mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(b, &mut i);
        let value = match b.get(i) {
            Some(b'"') => Scalar::Str(parse_string(b, &mut i)?),
            Some(b't') => {
                if b[i..].starts_with(b"true") {
                    i += 4;
                    Scalar::Bool(true)
                } else {
                    return Err("bad literal".into());
                }
            }
            Some(b'f') => {
                if b[i..].starts_with(b"false") {
                    i += 5;
                    Scalar::Bool(false)
                } else {
                    return Err("bad literal".into());
                }
            }
            Some(b'n') => {
                if b[i..].starts_with(b"null") {
                    i += 4;
                    Scalar::Null
                } else {
                    return Err("bad literal".into());
                }
            }
            Some(b'{') | Some(b'[') => {
                return Err("nested values are not part of the schema".into())
            }
            Some(_) => {
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                let text = std::str::from_utf8(&b[start..i]).map_err(|_| "invalid UTF-8")?;
                let num: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
                Scalar::Num(num)
            }
            None => return Err("truncated object".into()),
        };
        out.push((key, value));
        skip_ws(b, &mut i);
        match b.get(i) {
            Some(b',') => {
                i += 1;
            }
            Some(b'}') => {
                i += 1;
                skip_ws(b, &mut i);
                if i != b.len() {
                    return Err("trailing characters after object".into());
                }
                return Ok(out);
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

fn get_num(kv: &[(String, Scalar)], key: &str) -> Option<f64> {
    kv.iter().find_map(|(k, v)| {
        if k == key {
            match v {
                Scalar::Num(n) => Some(*n),
                _ => None,
            }
        } else {
            None
        }
    })
}

/// Validates a telemetry JSONL stream.
///
/// Checks, per the schema in the module docs:
/// * every line parses as a flat JSON object;
/// * `seq` is dense from 0;
/// * cumulative `instructions`/`cycles` are monotone non-decreasing and
///   equal the running sums of `d_instructions`/`d_cycles`;
/// * every `d_<counter>` key is present exactly once, integral and ≥ 0
///   (non-negative deltas);
/// * `ipc` is present and finite; `threshold`/`weight_saturation` are
///   present (value or null).
///
/// Returns the line count and summed deltas on success (for reconciliation
/// against a final `Report`).
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, JsonlError> {
    let mut summary = JsonlSummary::default();
    let mut prev_instructions = 0u64;
    let mut prev_cycles = 0u64;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |message: String| JsonlError {
            line: lineno,
            message,
        };
        if raw.trim().is_empty() {
            return Err(err("blank line in JSONL stream".into()));
        }
        let kv = parse_flat_object(raw).map_err(err)?;

        let seq = get_num(&kv, "seq").ok_or_else(|| err("missing numeric \"seq\"".into()))?;
        if seq != idx as f64 {
            return Err(err(format!("seq {seq} but expected {idx} (dense from 0)")));
        }
        let instructions = get_num(&kv, "instructions")
            .ok_or_else(|| err("missing numeric \"instructions\"".into()))?;
        let cycles =
            get_num(&kv, "cycles").ok_or_else(|| err("missing numeric \"cycles\"".into()))?;
        if instructions < 0.0
            || instructions.fract() != 0.0
            || cycles < 0.0
            || cycles.fract() != 0.0
        {
            return Err(err(
                "cumulative counters must be non-negative integers".into()
            ));
        }
        let (instructions, cycles) = (instructions as u64, cycles as u64);
        if instructions < prev_instructions {
            return Err(err(format!(
                "cumulative instructions went backwards: {prev_instructions} -> {instructions}"
            )));
        }
        if cycles < prev_cycles {
            return Err(err(format!(
                "cumulative cycles went backwards: {prev_cycles} -> {cycles}"
            )));
        }
        prev_instructions = instructions;
        prev_cycles = cycles;

        let ipc = get_num(&kv, "ipc").ok_or_else(|| err("missing numeric \"ipc\"".into()))?;
        if !ipc.is_finite() {
            return Err(err("non-finite ipc".into()));
        }
        for key in ["threshold", "weight_saturation"] {
            let present = kv
                .iter()
                .any(|(k, v)| k == key && matches!(v, Scalar::Num(_) | Scalar::Null));
            if !present {
                return Err(err(format!("missing \"{key}\" (number or null)")));
            }
        }

        for name in TelemetryCounters::FIELD_NAMES {
            let key = format!("d_{name}");
            let matches: Vec<&Scalar> = kv
                .iter()
                .filter_map(|(k, v)| if *k == key { Some(v) } else { None })
                .collect();
            if matches.len() != 1 {
                return Err(err(format!(
                    "key \"{key}\" present {} times, expected exactly once",
                    matches.len()
                )));
            }
            let v = match matches[0] {
                Scalar::Num(n) => *n,
                _ => return Err(err(format!("\"{key}\" is not a number"))),
            };
            if v < 0.0 || v.fract() != 0.0 {
                return Err(err(format!(
                    "\"{key}\" = {v} is not a non-negative integer"
                )));
            }
            assert!(summary.totals.add_named(name, v as u64));
        }
        for (key, cumulative, summed) in [
            ("instructions", instructions, summary.totals.instructions),
            ("cycles", cycles, summary.totals.cycles),
        ] {
            if cumulative != summed {
                return Err(err(format!(
                    "cumulative {key} {cumulative} != running sum of d_{key} {summed}"
                )));
            }
        }

        summary.lines = lineno;
        summary.final_instructions = instructions;
        summary.final_cycles = cycles;
    }

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::{IntervalRecord, PolicyTelemetry};

    fn record(seq: u64, instrs: u64, cycles: u64) -> IntervalRecord {
        let delta = TelemetryCounters {
            instructions: instrs,
            cycles,
            l1d_misses: 3,
            ..Default::default()
        };
        IntervalRecord {
            seq,
            end_instructions: (seq + 1) * instrs,
            end_cycles: (seq + 1) * cycles,
            delta,
            policy: None,
        }
    }

    #[test]
    fn emit_then_validate_round_trips() {
        let lines: Vec<String> = (0..3)
            .map(|s| interval_to_json(&record(s, 100, 250)))
            .collect();
        let text = lines.join("\n");
        let summary = validate_jsonl(&text).expect("valid stream");
        assert_eq!(summary.lines, 3);
        assert_eq!(summary.totals.instructions, 300);
        assert_eq!(summary.totals.cycles, 750);
        assert_eq!(summary.totals.l1d_misses, 9);
        assert_eq!(summary.final_instructions, 300);
        assert_eq!(summary.final_cycles, 750);
    }

    #[test]
    fn policy_fields_serialise_as_numbers_or_null() {
        let mut r = record(0, 10, 20);
        assert!(interval_to_json(&r).contains("\"threshold\":null"));
        r.policy = Some(PolicyTelemetry {
            threshold: -4,
            weight_saturation: 0.125,
        });
        let line = interval_to_json(&r);
        assert!(line.contains("\"threshold\":-4"));
        assert!(line.contains("\"weight_saturation\":0.125000"));
        validate_jsonl(&line).expect("policy line validates");
    }

    #[test]
    fn rejects_unparseable_line() {
        let e = validate_jsonl("{not json").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_non_dense_seq() {
        let a = interval_to_json(&record(0, 10, 20));
        let b = interval_to_json(&record(2, 10, 20));
        let e = validate_jsonl(&format!("{a}\n{b}")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("seq"));
    }

    #[test]
    fn rejects_backwards_cumulative_counters() {
        let mut r0 = record(0, 10, 20);
        r0.end_instructions = 1_000;
        r0.delta.instructions = 1_000;
        let mut r1 = record(1, 10, 20);
        r1.end_instructions = 500;
        r1.end_cycles = r0.end_cycles + 1;
        let text = format!("{}\n{}", interval_to_json(&r0), interval_to_json(&r1));
        let e = validate_jsonl(&text).unwrap_err();
        assert!(e.message.contains("backwards"), "{}", e.message);
    }

    #[test]
    fn rejects_cumulative_counters_that_contradict_deltas() {
        // Monotone cumulative columns, but line 2 claims 30 instructions
        // where its deltas sum to 20.
        let r0 = record(0, 10, 20);
        let mut r1 = record(1, 10, 20);
        r1.end_instructions = 30;
        let text = format!("{}\n{}", interval_to_json(&r0), interval_to_json(&r1));
        let e = validate_jsonl(&text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            e.message.contains("instructions 30") && e.message.contains("d_instructions 20"),
            "{}",
            e.message
        );
    }

    #[test]
    fn rejects_missing_delta_key() {
        let line = interval_to_json(&record(0, 10, 20));
        let broken = line.replace(",\"d_l1d_misses\":3", "");
        let e = validate_jsonl(&broken).unwrap_err();
        assert!(e.message.contains("d_l1d_misses"), "{}", e.message);
    }

    #[test]
    fn rejects_negative_delta() {
        let line = interval_to_json(&record(0, 10, 20));
        let broken = line.replace("\"d_l1d_misses\":3", "\"d_l1d_misses\":-3");
        let e = validate_jsonl(&broken).unwrap_err();
        assert!(e.message.contains("non-negative"), "{}", e.message);
    }

    #[test]
    fn rejects_blank_lines() {
        let line = interval_to_json(&record(0, 10, 20));
        let e = validate_jsonl(&format!("{line}\n\n")).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn empty_stream_is_vacuously_valid() {
        let s = validate_jsonl("").expect("empty stream");
        assert_eq!(s.lines, 0);
        assert_eq!(s.totals, TelemetryCounters::default());
    }

    #[test]
    fn flat_parser_handles_escapes_and_rejects_nesting() {
        let kv = parse_flat_object(r#"{"a":"x\"y\\z","b":true,"c":null}"#).unwrap();
        assert_eq!(kv.len(), 3);
        assert_eq!(kv[0].1, Scalar::Str("x\"y\\z".into()));
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_err());
    }
}
