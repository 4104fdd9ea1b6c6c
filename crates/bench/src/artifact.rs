//! The one format of the `BENCH_*.json` perf artifacts: a flat list of
//! metric rows.
//!
//! ```text
//! {
//!   "benchmark": "scoring_pipeline",
//!   "executor": "scalar (threads=1, ccd_block_width=8, isa=avx2)",
//!   "metrics": [
//!     {"name": "pipeline.speedup", "value": 1.027, "unit": "ratio", "better": "higher", "gate": "ratio"},
//!     {"name": "health_sweep.overhead_ratio", "value": 0.00003, "unit": "ratio", "better": "lower", "gate": "bound", "bound": 0.03},
//!     {"name": "pipeline.batched_ns_per_member_iter", "value": 489375.4, "unit": "ns", "better": "lower", "gate": "none"}
//!   ]
//! }
//! ```
//!
//! Each row says how the perf gate treats it: `ratio` rows are held to
//! their committed baseline within a noise tolerance, `bound` rows to an
//! absolute bound, and `none` rows (absolute timings, counts, host facts)
//! are recorded for the perf trajectory only.  The benches push rows into
//! an [`Artifact`] and write it; `check_regression` reads it back with the
//! same type, so no other code knows the layout.
//!
//! The JSON handling is a deliberately small recursive-descent parser: the
//! artifacts are produced by our own benches with a known shape, and the
//! container build has no serde.

use std::fmt::Write as _;

/// A parsed JSON value (the subset our bench artifacts use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as f64; our artifacts stay well inside
    /// the exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: numeric field of an object.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Convenience: string field of an object.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                });
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 sequences pass through byte by byte; the
                // artifacts are ASCII in practice.
                out.push(c as char);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

/// Which way a metric is supposed to point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A speedup: regression = the value falls.
    Higher,
    /// A cost: regression = the value rises.
    Lower,
}

/// How the perf gate treats a metric row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Held to the committed baseline value within the gate's tolerance.
    /// Only in-process ratios qualify: both sides are measured on the same
    /// host, so the ratio is robust to runner speed.
    Ratio,
    /// Held to this absolute bound regardless of the baseline value.
    Bound(f64),
    /// Recorded for the perf trajectory only.
    None,
}

/// One measured number of a bench artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Unique name within its artifact; the gate pairs rows by it.
    pub name: String,
    /// The measured value (`null` in the file when not finite).
    pub value: f64,
    /// Unit of `value` (`ratio`, `ns`, `ms`, `count`, ...).
    pub unit: String,
    /// Which way is an improvement.
    pub better: Better,
    /// How the perf gate treats the row.
    pub gate: Gate,
}

/// One `BENCH_*.json` file: which bench wrote it, on what executor, and
/// its metric rows in the order the bench measured them.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The bench that wrote the artifact.
    pub benchmark: String,
    /// The executor capabilities the measurements are attributable to.
    pub executor: Option<String>,
    /// The measured rows.
    pub metrics: Vec<MetricRow>,
}

impl Artifact {
    /// An empty artifact for `benchmark`.
    pub fn new(benchmark: &str, executor: Option<String>) -> Artifact {
        Artifact {
            benchmark: benchmark.to_string(),
            executor,
            metrics: Vec::new(),
        }
    }

    /// Append one row.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &str,
        better: Better,
        gate: Gate,
    ) {
        self.metrics.push(MetricRow {
            name: name.into(),
            value,
            unit: unit.to_string(),
            better,
            gate,
        });
    }

    /// Append a ratio row the gate holds to its baseline.
    pub fn ratio(&mut self, name: impl Into<String>, value: f64, better: Better) {
        self.push(name, value, "ratio", better, Gate::Ratio);
    }

    /// Append an ungated nanosecond timing.
    pub fn ns(&mut self, name: impl Into<String>, value: f64) {
        self.push(name, value, "ns", Better::Lower, Gate::None);
    }

    /// The row called `name`, if any.
    pub fn row(&self, name: &str) -> Option<&MetricRow> {
        self.metrics.iter().find(|r| r.name == name)
    }

    /// Render the artifact, one metric row per line.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"benchmark\": {},\n", quoted(&self.benchmark));
        let executor = self.executor.as_deref().map_or("null".to_string(), quoted);
        let _ = writeln!(out, "  \"executor\": {executor},\n  \"metrics\": [");
        for (i, row) in self.metrics.iter().enumerate() {
            let better = match row.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let gate = match row.gate {
                Gate::Ratio => "\"ratio\"".to_string(),
                Gate::Bound(b) => format!("\"bound\", \"bound\": {}", number(b)),
                Gate::None => "\"none\"".to_string(),
            };
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": \"{better}\", \"gate\": {gate}}}{comma}",
                quoted(&row.name),
                number(row.value),
                quoted(&row.unit),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse an artifact, rejecting rows with a missing or unknown field,
    /// `bound` rows without a bound, and duplicate names.
    pub fn parse(text: &str) -> Result<Artifact, String> {
        let json = Json::parse(text)?;
        let benchmark = json
            .str("benchmark")
            .ok_or("artifact missing \"benchmark\"")?;
        let executor = match json.get("executor") {
            None | Some(Json::Null) => None,
            Some(e) => Some(
                e.as_str()
                    .ok_or("\"executor\" is not a string")?
                    .to_string(),
            ),
        };
        let rows = json
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("artifact missing \"metrics\" array")?;
        let mut artifact = Artifact::new(benchmark, executor);
        for row in rows {
            let name = row.str("name").ok_or("metric row missing \"name\"")?;
            let field = |key: &str| {
                row.str(key)
                    .ok_or(format!("metric {name:?} missing {key:?}"))
            };
            let value = match row.get("value") {
                Some(Json::Null) => f64::NAN,
                v => v
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric {name:?} missing \"value\""))?,
            };
            let better = match field("better")? {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("metric {name:?}: unknown direction {other:?}")),
            };
            let gate = match field("gate")? {
                "ratio" => Gate::Ratio,
                "bound" => Gate::Bound(
                    row.num("bound")
                        .ok_or(format!("bound metric {name:?} carries no \"bound\""))?,
                ),
                "none" => Gate::None,
                other => return Err(format!("metric {name:?}: unknown gate {other:?}")),
            };
            if artifact.row(name).is_some() {
                return Err(format!("duplicate metric {name:?}"));
            }
            artifact.push(name, value, field("unit")?, better, gate);
        }
        Ok(artifact)
    }

    /// Write the artifact as `file_name` at the workspace root (benches run
    /// from the crate directory under cargo), next to ROADMAP.md.
    pub fn write_to_workspace_root(&self, file_name: &str) {
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| format!("{d}/../.."))
            .unwrap_or_else(|_| ".".to_string());
        let path = format!("{root}/{file_name}");
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// A JSON string literal (the artifacts' strings need only `"` and `\`
/// escaped).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number to six significant digits, or one decimal for large
/// values (`null` when not finite, which the gate reads back as a
/// regression).
fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(1, 17) as usize;
    let text = format!("{v:.decimals$}");
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_the_writer() {
        let mut a = Artifact::new("demo", Some("scalar (threads=1)".to_string()));
        a.push(
            "x.speedup",
            4.133183528,
            "ratio",
            Better::Higher,
            Gate::Ratio,
        );
        a.push(
            "x.overhead",
            0.0000307,
            "ratio",
            Better::Lower,
            Gate::Bound(0.03),
        );
        a.push("x.ns", 489375.4, "ns", Better::Lower, Gate::None);
        a.push("x.broken", f64::NAN, "ratio", Better::Higher, Gate::Ratio);
        let back = Artifact::parse(&a.to_json()).unwrap();
        assert_eq!(back.benchmark, "demo");
        assert_eq!(back.executor, a.executor);
        assert_eq!(back.row("x.speedup").unwrap().value, 4.13318);
        assert_eq!(back.row("x.overhead").unwrap().value, 0.0000307);
        assert_eq!(back.row("x.overhead").unwrap().gate, Gate::Bound(0.03));
        assert_eq!(back.row("x.ns").unwrap(), &a.metrics[2]);
        assert!(back.row("x.broken").unwrap().value.is_nan());
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let doc = |row: &str| format!("{{\"benchmark\": \"b\", \"metrics\": [{row}]}}");
        let ok =
            r#"{"name": "m", "value": 1.0, "unit": "ratio", "better": "higher", "gate": "ratio"}"#;
        assert!(Artifact::parse(&doc(ok)).is_ok());
        for bad in [
            ok.replace("\"better\": \"higher\", ", ""),
            ok.replace("\"higher\"", "\"up\""),
            ok.replace("\"gate\": \"ratio\"", "\"gate\": \"bound\""),
            ok.replace("\"value\": 1.0, ", ""),
            format!("{ok}, {ok}"),
        ] {
            assert!(Artifact::parse(&doc(&bad)).is_err(), "accepted {bad}");
        }
    }
}
