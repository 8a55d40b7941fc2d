//! Minimal fixed-width table formatting for experiment reports, plus
//! [`Record`], the one JSON writer behind every artifact the CLI emits
//! (`bench`, `bench --host`, `loadgen`, `soak` and `profile`).
//!
//! JSON is emitted by hand: the offline build carries no serde, and the
//! records are small structures.

use riscv_core::{Hotspot, PerfCounters};
use std::fmt;

/// One JSON value inside a [`Record`].
#[derive(Debug, Clone)]
pub enum Value {
    /// A number or boolean, already formatted.
    Raw(String),
    /// A string, escaped on output.
    Str(String),
    /// An object, keys in insertion order.
    Object(Vec<(String, Value)>),
    /// An array.
    List(Vec<Value>),
}

impl Value {
    /// `x` with `decimals` digits after the point; `null` when not
    /// finite, which JSON cannot represent.
    pub fn float(x: f64, decimals: usize) -> Value {
        Value::Raw(if x.is_finite() {
            format!("{x:.decimals$}")
        } else {
            "null".to_string()
        })
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value as JSON text. Containers nested less than two deep get
    /// one entry per line, so every top-level field and every entry of
    /// a top-level object or list sits on a line of its own; deeper
    /// containers are written inline.
    fn render(&self, depth: usize) -> String {
        let (open, close, entries): (_, _, Vec<String>) = match self {
            Value::Raw(s) => return s.clone(),
            Value::Str(s) => return quote(s),
            Value::Object(fields) => {
                let entry =
                    |(k, v): &(String, Value)| format!("{}: {}", quote(k), v.render(depth + 1));
                ('{', '}', fields.iter().map(entry).collect())
            }
            Value::List(items) => (
                '[',
                ']',
                items.iter().map(|v| v.render(depth + 1)).collect(),
            ),
        };
        let pad = "  ".repeat(depth);
        match (entries.is_empty(), depth < 2) {
            (true, _) => format!("{open}{close}"),
            (false, true) => {
                let body = entries.join(&format!(",\n{pad}  "));
                format!("{open}\n{pad}  {body}\n{pad}{close}")
            }
            (false, false) => format!("{open}{}{close}", entries.join(", ")),
        }
    }
}

/// Numbers and booleans take their `Display` form.
macro_rules! raw_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::Raw(x.to_string())
            }
        }
    )*};
}
raw_values!(u64, usize, bool);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// A machine-readable artifact: a label, the deterministic fields, and
/// the host-side (wall-clock or scheduling-dependent) fields.
///
/// [`Record::to_json`] writes `"label"` first, then the deterministic
/// fields at top level in insertion order, then every host field inside
/// one final `"host"` object — so deleting `"host"` leaves a record
/// that is byte-identical across runs of the same configuration.
#[derive(Debug, Clone)]
pub struct Record {
    /// `"label"` and the deterministic fields.
    pub(crate) exact: Vec<(String, Value)>,
    /// The host-side fields.
    pub(crate) host: Vec<(String, Value)>,
}

impl Record {
    /// A record labelled `label`, with no other fields yet.
    pub fn new(label: &str) -> Record {
        Record {
            exact: vec![("label".to_string(), label.into())],
            host: Vec::new(),
        }
    }

    /// Appends a deterministic field: a pure function of the
    /// configuration and seed.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Record {
        self.exact.push((key.to_string(), value.into()));
        self
    }

    /// Appends a host field: wall-clock time, or a count that depends
    /// on how the host scheduled the work.
    pub fn host(mut self, key: &str, value: impl Into<Value>) -> Record {
        self.host.push((key.to_string(), value.into()));
        self
    }

    /// Serializes the record as a self-contained JSON object, one
    /// top-level field per `"key": value` line.
    pub fn to_json(&self) -> String {
        let mut fields = self.exact.clone();
        fields.push(("host".to_string(), Value::Object(self.host.clone())));
        Value::Object(fields).render(0)
    }
}

/// A kernel's attributed cycle profile: full performance counters
/// (including the per-class cycle ledger) plus the hot-PC histogram from
/// a traced run.
#[derive(Debug, Clone)]
pub struct HotspotProfile {
    /// Name of the profiled kernel configuration.
    pub kernel: String,
    /// Per-run performance counters; `perf.ledger` carries the per-class
    /// cycle attribution.
    pub perf: PerfCounters,
    /// Hottest static instructions, descending by attributed cycles.
    pub hotspots: Vec<Hotspot>,
}

/// The `profile` record. The `ledger` object maps each cycle-class name
/// to its cycle count and includes the sum under `"total"`; by the
/// core's retire invariant that total equals `"cycles"`.
impl From<&HotspotProfile> for Record {
    fn from(p: &HotspotProfile) -> Record {
        let ledger = p
            .perf
            .ledger
            .entries()
            .map(|(class, cycles)| (class.name(), Value::from(cycles)))
            .chain([("total", Value::from(p.perf.ledger.total()))]);
        let hotspots = p.hotspots.iter().map(|h| {
            Value::object([
                ("pc", Value::from(format!("{:#010x}", h.pc))),
                ("disasm", Value::from(h.instr.to_string())),
                ("cycles", Value::from(h.cycles)),
                ("count", Value::from(h.count)),
            ])
        });
        Record::new("profile")
            .field("kernel", p.kernel.as_str())
            .field("cycles", p.perf.cycles)
            .field("instret", p.perf.instret)
            .field("macs", p.perf.total_macs())
            .field("ledger", Value::object(ledger))
            .field("hotspots", Value::List(hotspots.collect()))
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

/// Escapes `s` for use inside a JSON string literal.
fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A simple text table: headers plus rows, padded per column.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, " ")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:<width$}", width = w[i])?;
                if i + 1 < cells.len() {
                    write!(f, " |")?;
                }
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 3 * w.len() + 1;
        writeln!(f, " {}", "-".repeat(total))?;
        for r in &self.rows {
            line(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_padded_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x", "1"]);
        t.row(&["long-name", "23"]);
        let s = t.to_string();
        assert!(s.contains("name"));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align: every data line has the separator in the same
        // position.
        let pos1 = lines[2].find('|').unwrap();
        let pos2 = lines[3].find('|').unwrap();
        assert_eq!(pos1, pos2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn profile_json_is_well_formed() {
        use pulp_isa::instr::{AluOp, Instr};
        use pulp_isa::Reg;
        use riscv_core::CycleClass;

        let mut perf = PerfCounters::new();
        perf.cycles = 12;
        perf.instret = 10;
        perf.ledger.charge(CycleClass::Alu, 9);
        perf.ledger.charge(CycleClass::Load, 3);
        let profile = HotspotProfile {
            kernel: "conv-test\"quoted\"".to_string(),
            perf,
            hotspots: vec![Hotspot {
                pc: 0x1c00_8000,
                cycles: 7,
                count: 7,
                instr: Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    imm: 1,
                },
            }],
        };
        let json = Record::from(&profile).to_json();
        assert!(json.contains("\"label\": \"profile\""));
        assert!(json.contains("\"cycles\": 12"));
        assert!(json.contains("\"alu\": 9"));
        assert!(json.contains("\"total\": 12"));
        assert!(json.contains("\"pc\": \"0x1c008000\""));
        assert!(json.contains("conv-test\\\"quoted\\\""));
    }

    #[test]
    fn record_writes_one_field_per_line_and_host_last() {
        let inner = Value::object([
            ("a", Value::from(1u64)),
            ("b", Value::List(vec![true.into()])),
        ]);
        let rec = Record::new("q\"")
            .field("x", Value::float(0.123_456, 4))
            .field("nan", Value::float(f64::NAN, 2))
            .field("s", "a\\b\nc\u{1}")
            .field(
                "obj",
                Value::object([("k", inner.clone()), ("e", Value::List(vec![]))]),
            )
            .field("list", Value::List(vec![inner, 3u64.into()]))
            .host("n", 7u64);
        let want = r#"{
  "label": "q\"",
  "x": 0.1235,
  "nan": null,
  "s": "a\\b\nc\u0001",
  "obj": {
    "k": {"a": 1, "b": [true]},
    "e": []
  },
  "list": [
    {"a": 1, "b": [true]},
    3
  ],
  "host": {
    "n": 7
  }
}"#;
        assert_eq!(rec.to_json(), want);
        assert!(Record::new("e").to_json().ends_with("\"host\": {}\n}"));
    }
}
