//! The `wsu-bench/1` benchmark record: the one format of every
//! `results/BENCH_*.json` file, with its one writer
//! ([`BenchRecord::render`]) and its one reader ([`BenchRecord::parse`]).
//!
//! ```json
//! {
//!   "schema": "wsu-bench/1",
//!   "bench": "BENCH_http",
//!   "unit": "ns",
//!   "stamp": {"nproc":2,"cpu":"…","target_features":["fma","avx","sse4.2"],"profile":"release"},
//!   "requests_per_sec": 60523.7,
//!   "results": [
//!     { "name": "http/demand/latency_p50", "median_ns": 19887, "min_ns": 9238, "max_ns": 10919083 }
//!   ]
//! }
//! ```
//!
//! Every row is in nanoseconds: `median_ns` is the median ns/op of a
//! micro-benchmark or the median wall time of a whole run, and
//! `min_ns`/`max_ns` bound the samples. The fields between the stamp
//! and the rows are informational ([`BenchRecord::info`]);
//! `bench_compare` judges only the rows.

use std::io;
use std::path::Path;
use std::time::Duration;

use crate::event::json_escape;
use crate::jsonl::{write_file, JsonValue};

/// The schema string every record carries.
pub const SCHEMA: &str = "wsu-bench/1";

/// The target features a stamp names when the build enables them, `fma`
/// first: the golden suite runs about 8× slower without it.
const STAMPED_FEATURES: [(&str, bool); 6] = [
    ("fma", cfg!(target_feature = "fma")),
    ("avx512f", cfg!(target_feature = "avx512f")),
    ("avx2", cfg!(target_feature = "avx2")),
    ("avx", cfg!(target_feature = "avx")),
    ("sse4.2", cfg!(target_feature = "sse4.2")),
    ("neon", cfg!(target_feature = "neon")),
];

/// The build profile a stamp names, by whether debug assertions are on.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// This process's stamp: what it can see of the host and build it runs
/// on. `nproc` is its hardware threads (0 when unknown), `cpu` the model
/// from `/proc/cpuinfo` (`unknown` when absent), `target_features` the
/// speed-relevant features compiled in and `profile` `release` or
/// `debug`.
pub fn stamp() -> JsonValue {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = |s: &str| JsonValue::String(s.to_owned());
    let features = STAMPED_FEATURES.iter().filter(|(_, on)| *on);
    JsonValue::Object(vec![
        ("nproc".to_owned(), JsonValue::Number(nproc as f64)),
        (
            "cpu".to_owned(),
            text(model.map_or("unknown", |(_, m)| m.trim())),
        ),
        (
            "target_features".to_owned(),
            JsonValue::Array(features.map(|(f, _)| text(f)).collect()),
        ),
        ("profile".to_owned(), text(PROFILE)),
    ])
}

/// One measured row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// The row's name, unique in its record (`bayes/rebase/96x96x32/n4m`).
    pub name: String,
    /// Median time per operation (or per run), in nanoseconds.
    pub median_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
}

impl BenchRow {
    /// The median, fastest and slowest of `samples` (all zero when
    /// there are none).
    pub fn from_samples(name: impl Into<String>, samples: &mut [Duration]) -> BenchRow {
        samples.sort();
        let ns = |d: Option<&Duration>| d.map_or(0, |d| d.as_nanos().min(u64::MAX.into()) as u64);
        BenchRow {
            name: name.into(),
            median_ns: ns(samples.get(samples.len() / 2)),
            min_ns: ns(samples.first()),
            max_ns: ns(samples.last()),
        }
    }

    fn from_json(row: &JsonValue) -> Result<BenchRow, String> {
        Ok(BenchRow {
            name: string(row, "name")?.to_owned(),
            median_ns: count(row, "median_ns")?,
            min_ns: count(row, "min_ns")?,
            max_ns: count(row, "max_ns")?,
        })
    }
}

/// A whole `BENCH_*.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The record's name, conventionally its file stem (`BENCH_bayes`).
    pub bench: String,
    /// Where it was measured ([`stamp`]), an object; `None` in a record
    /// written before stamps.
    pub stamp: Option<JsonValue>,
    /// Informational fields in order (a load run's `requests_per_sec`),
    /// none named `schema`, `bench`, `unit`, `stamp` or `results`.
    pub info: Vec<(String, JsonValue)>,
    /// The measured rows, in order.
    pub rows: Vec<BenchRow>,
}

impl BenchRecord {
    /// An empty record named `bench`, stamped with this process's
    /// [`stamp`].
    pub fn new(bench: impl Into<String>) -> BenchRecord {
        BenchRecord {
            bench: bench.into(),
            stamp: Some(stamp()),
            info: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Renders the file: one field per line and one line per row.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let bench = json_escape(&self.bench);
        let mut out = format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"bench\": \"{bench}\",\n");
        out.push_str("  \"unit\": \"ns\",\n");
        if let Some(stamp) = &self.stamp {
            let _ = writeln!(out, "  \"stamp\": {stamp},");
        }
        for (key, value) in &self.info {
            let _ = writeln!(out, "  \"{}\": {value},", json_escape(key));
        }
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {} }}{}",
                json_escape(&row.name),
                row.median_ns,
                row.min_ns,
                row.max_ns,
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`render`](BenchRecord::render) to `path` through
    /// [`write_file`], which creates its parent directories.
    ///
    /// # Errors
    ///
    /// The first I/O error from creating a directory or writing.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        write_file(path, self.render())
    }

    /// Reads a record: one JSON object, no key given twice, with the
    /// [`SCHEMA`], a `bench` name, the unit `ns`, an optional stamp and
    /// a `results` list of rows, each with a name no other row has and
    /// three counts of nanoseconds.
    ///
    /// # Errors
    ///
    /// What is wrong with the document, naming the field or row.
    pub fn parse(json: &str) -> Result<BenchRecord, String> {
        let document = JsonValue::parse(json).map_err(|error| error.to_string())?;
        let JsonValue::Object(fields) = &document else {
            return Err("not a JSON object".to_owned());
        };
        if let Some(key) = repeated(fields.iter().map(|(key, _)| key)) {
            return Err(format!("field {key:?} appears twice"));
        }
        if string(&document, "schema")? != SCHEMA || string(&document, "unit")? != "ns" {
            return Err(format!("not a {SCHEMA} record in ns"));
        }
        let Some(JsonValue::Array(results)) = document.get("results") else {
            return Err("no \"results\" list".to_owned());
        };
        let rows = results
            .iter()
            .enumerate()
            .map(|(i, row)| BenchRow::from_json(row).map_err(|e| format!("results[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(name) = repeated(rows.iter().map(|row| &row.name)) {
            return Err(format!("row {name:?} appears twice"));
        }
        let stamp = document.get("stamp");
        if stamp.is_some_and(|stamp| !matches!(stamp, JsonValue::Object(_))) {
            return Err("the stamp is not an object".to_owned());
        }
        let own = ["schema", "bench", "unit", "stamp", "results"];
        Ok(BenchRecord {
            bench: string(&document, "bench")?.to_owned(),
            stamp: stamp.cloned(),
            info: fields
                .iter()
                .filter(|(key, _)| !own.contains(&key.as_str()))
                .cloned()
                .collect(),
            rows,
        })
    }
}

/// The string at `key` of the object `value`.
fn string<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    let found = value.get(key).and_then(JsonValue::as_str);
    found.ok_or_else(|| format!("no {key:?} string"))
}

/// The count at `key` of the object `value`.
fn count(value: &JsonValue, key: &str) -> Result<u64, String> {
    let found = value.get(key).and_then(JsonValue::as_u64);
    found.ok_or_else(|| format!("no {key:?} count"))
}

/// The first item that appears twice.
fn repeated<'a>(mut items: impl Iterator<Item = &'a String>) -> Option<&'a String> {
    let mut seen = std::collections::HashSet::new();
    items.find(|item| !seen.insert(*item))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, median_ns: u64) -> BenchRow {
        BenchRow {
            name: name.to_owned(),
            median_ns,
            min_ns: median_ns / 2,
            max_ns: median_ns * 2,
        }
    }

    fn record(rows: Vec<BenchRow>) -> BenchRecord {
        BenchRecord {
            rows,
            ..BenchRecord::new("BENCH_test")
        }
    }

    #[test]
    fn parses_rendered_reports_round_trip() {
        let mut record = record(vec![row("a/b", 1234), row("c \"d\"\\e\n", 9_999_999)]);
        record.bench = "BENCH_\"quoted\"".to_owned();
        let list = JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(1.169)]);
        record.info = vec![
            ("requests_per_sec".to_owned(), JsonValue::Number(60_523.7)),
            ("connections".to_owned(), JsonValue::Number(2.0)),
            ("speedup".to_owned(), list),
        ];
        let stamp = record.stamp.as_ref().expect("a new record is stamped");
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(
            stamp.get("profile").and_then(JsonValue::as_str),
            Some(profile)
        );
        let text = record.render();
        assert_eq!(BenchRecord::parse(&text), Ok(record.clone()));
        // One line per field and per row.
        assert_eq!(text.lines().count(), 4 + 1 + 3 + 1 + 2 + 2);
        // A record written before stamps reads with none.
        record.stamp = None;
        assert_eq!(BenchRecord::parse(&record.render()), Ok(record));
    }

    #[test]
    fn rejects_foreign_schemas_and_empty_input() {
        let good = record(vec![row("a", 1), row("b", 2)]).render();
        let bad = [
            String::new(),
            "not json".to_owned(),
            "[1, 2]".to_owned(),
            good[..good.len() / 2].to_owned(),
            good.replace(SCHEMA, "other/2"),
            good.replace("\"unit\": \"ns\"", "\"unit\": \"ms\""),
            good.replace("\"bench\": \"BENCH_test\",\n", ""),
            good.replace("\"name\": \"b\"", "\"name\": \"a\""),
            good.replace("\"median_ns\": 2,", "\"median_ns\": -2,"),
            good.replace("\"median_ns\": 2,", "\"median_ns\": 2.5,"),
            good.replace("\"min_ns\": 1,", ""),
            good.replace("\"stamp\": {", "\"stamp\": [{")
                .replace("},\n  \"results", "}],\n  \"results"),
            good.replace("\"unit\": \"ns\",", "\"unit\": \"ns\", \"unit\": \"ns\","),
        ];
        for text in &bad {
            assert!(BenchRecord::parse(text).is_err(), "accepted {text:?}");
        }
        let empty = record(Vec::new());
        assert_eq!(BenchRecord::parse(&empty.render()), Ok(empty));
    }

    #[test]
    fn rows_from_samples_take_the_median_and_the_bounds() {
        let ms = Duration::from_millis;
        let row = BenchRow::from_samples("r", &mut [ms(3), ms(1), ms(2), ms(9)]);
        let ns = (row.median_ns, row.min_ns, row.max_ns);
        assert_eq!(ns, (3_000_000, 1_000_000, 9_000_000));
        let none = BenchRow::from_samples("r", &mut []);
        assert_eq!((none.median_ns, none.min_ns, none.max_ns), (0, 0, 0));
    }
}
