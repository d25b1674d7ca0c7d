//! The JSONL trace schema, in both directions.
//!
//! Every line a `--trace-out` trace holds is one [`TraceLine`]: a
//! timestamp, a task label and a typed [`Record`]. This module is the
//! only code that writes such a line ([`TraceLine::to_json`]) and the
//! only code that reads one back ([`TraceLine::parse`],
//! [`parse_trace`]). The `schema!` table below lists every record kind
//! with its fields in wire order, once; each entry expands into one arm
//! of the writer and one arm of the reader. Each field's JSON encoding
//! is declared once per Rust type by the private `Field` trait. The
//! reader decodes by field name and rejects missing, extra, duplicate
//! and mistyped fields, unknown kinds and unknown enum names, so a line
//! that parses is schema-valid. For a line the writer produced,
//! `parse(line).to_json() == line`.

use crate::collector::Phase;
use crate::event::{Event, Mechanism, SolveStatus, UnknownReason};
use std::fmt::Write as _;

/// One trace record: a campaign [`Event`] or one of the synthetic
/// records the collector and the flight recorder write.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A structured campaign event (also kept in the collector's ring).
    Event(Event),
    /// A phase span ended (`Collector::phase`).
    Phase {
        /// The phase the span measured.
        phase: Phase,
        /// Self time of the span: its duration minus its child spans.
        micros: u64,
    },
    /// Once-per-campaign compiled-settle and witness-oracle summary
    /// (`Collector::emit_settle_metrics`).
    Metrics {
        /// Cone executions on the two-state fast path.
        settle_fast_path: u64,
        /// Cone executions that escaped to the four-state interpreter.
        settle_escapes: u64,
        /// High-water mark of escaped cones in one settle.
        x_island_cones: u64,
        /// Combinational settle passes.
        settle_sweeps: u64,
        /// Solver replays that missed their target.
        witness_misses: u64,
    },
    /// Once-per-campaign incremental-solver summary
    /// (`Collector::emit_solver_cache_metrics`).
    SolverCache {
        /// Frames served from the bitblast cache.
        bitblast_cache_hits: u64,
        /// Frames blasted fresh.
        bitblast_cache_misses: u64,
        /// Warm-session reuse ratio ×1000.
        session_reuse_milli: u64,
    },
    /// The headline numbers of one flight-recorder sample
    /// (`Sampler::maybe_sample`).
    Flight {
        /// Sample interval index.
        interval: u64,
        /// Input vectors consumed.
        vectors: u64,
        /// Coverage points reached.
        coverage: u64,
        /// Consecutive coverage-flat intervals.
        stagnant: u64,
        /// Input vectors since the previous sample.
        d_vectors: u64,
        /// Solver calls since the previous sample.
        d_solver_calls: u64,
        /// Fast-path cone executions since the previous sample.
        d_settle_fast_path: u64,
        /// Escaped cone executions since the previous sample.
        d_settle_escapes: u64,
    },
}

/// One JSONL trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    /// Clock reading at record time (wall micros under `--trace-out`).
    pub t: u64,
    /// Task label of the collector that wrote the line.
    pub task: u64,
    /// The record.
    pub record: Record,
}

impl TraceLine {
    /// Renders the line (no trailing newline): `t`, `task`, `kind`,
    /// then the record's fields in schema order.
    pub fn to_json(&self) -> String {
        let mut w = Writer(String::with_capacity(96));
        let _ = write!(
            w.0,
            "{{\"t\":{},\"task\":{},\"kind\":\"{}\"",
            self.t,
            self.task,
            self.record.kind()
        );
        self.record.write_fields(&mut w);
        w.0.push('}');
        w.0
    }

    /// Parses and schema-checks one line. Fields may come in any
    /// order; whitespace between tokens is allowed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation.
    pub fn parse(line: &str) -> Result<TraceLine, String> {
        let mut r = Reader(parse_object(line)?);
        let t = r.f("t")?;
        let task = r.f("task")?;
        let kind: String = r.f("kind")?;
        let record = Record::read_fields(&kind, &mut r)?;
        if !r.0.is_empty() {
            let extra: Vec<&str> = r.0.iter().map(|(k, _)| k.as_str()).collect();
            return Err(format!("`{kind}` has unexpected fields {extra:?}"));
        }
        Ok(TraceLine { t, task, record })
    }
}

/// Generates [`Record::kind`] and the per-kind writer and reader arms
/// from one table of record kinds and their fields in wire order, so
/// the two directions cannot disagree on a field's name or position.
macro_rules! schema {
    (
        events { $($ev:ident { $($ef:ident),* })* }
        records { $($rv:ident { $($rf:ident),* })* }
    ) => {
        impl Record {
            /// The schema discriminator written as the line's `kind`:
            /// an [`Event::KINDS`] entry or the synthetic record's name.
            pub fn kind(&self) -> &'static str {
                match self {
                    Record::Event(e) => e.kind(),
                    $(Record::$rv { .. } => stringify!($rv),)*
                }
            }

            fn write_fields(&self, w: &mut Writer) {
                match self {
                    $(Record::Event(Event::$ev { $($ef),* }) => { $(w.f(stringify!($ef), $ef);)* })*
                    $(Record::$rv { $($rf),* } => { $(w.f(stringify!($rf), $rf);)* })*
                }
            }

            fn read_fields(kind: &str, r: &mut Reader) -> Result<Record, String> {
                Ok(match kind {
                    $(stringify!($ev) => Record::Event(Event::$ev {
                        $($ef: r.f(stringify!($ef))?),*
                    }),)*
                    $(stringify!($rv) => Record::$rv { $($rf: r.f(stringify!($rf))?),* },)*
                    _ => {
                        return Err(format!(
                            "unknown kind `{kind}` (expected one of {:?} or {:?})",
                            Event::KINDS,
                            [$(stringify!($rv)),*]
                        ))
                    }
                })
            }
        }
    };
}

schema! {
    events {
        CoverageDelta { vectors, coverage, delta }
        StagnationEnter { vectors, intervals }
        SymbolicEpisode { checkpoint, eqns, solve_result }
        SmtSolve { vars, clauses, sat, micros }
        PartialReset { prefix_len }
        FullReset {}
        BugFired { property, vector }
        BudgetExhausted { reason, level, conflicts, decisions, propagations }
        NodeCovered { node, vector, mechanism, goal, checkpoint }
        EdgeCovered { edge, src, dst, vector, mechanism }
        GoalSolveCost {
            register, value, status, depth, calls, conflicts, learned, restarts, hist
        }
        CoreExtracted { register, value, core, blamed }
    }
    records {
        Phase { phase, micros }
        Metrics { settle_fast_path, settle_escapes, x_island_cones, settle_sweeps, witness_misses }
        SolverCache { bitblast_cache_hits, bitblast_cache_misses, session_reuse_milli }
        Flight {
            interval, vectors, coverage, stagnant,
            d_vectors, d_solver_calls, d_settle_fast_path, d_settle_escapes
        }
    }
}

/// Parses a whole JSONL trace, skipping blank lines and reporting the
/// first bad line by number.
///
/// # Errors
///
/// Returns `"line N: <why>"` for the first syntax or schema violation.
pub fn parse_trace(text: &str) -> Result<Vec<TraceLine>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| TraceLine::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Appends `s` to `out` with JSON string escaping.
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// --- the field trait: one JSON encoding per Rust type ---------------------

/// A JSON value as the flat trace schema spells it.
enum Raw {
    Num(u64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<u64>),
}

impl Raw {
    fn type_name(&self) -> &'static str {
        match self {
            Raw::Num(_) => "number",
            Raw::Str(_) => "string",
            Raw::Bool(_) => "bool",
            Raw::Null => "null",
            Raw::Arr(_) => "array",
        }
    }
}

/// A record field type: how it is written and how it is read back.
trait Field: Sized {
    fn write(&self, out: &mut String);
    fn read(raw: Raw) -> Result<Self, String>;
}

fn mistyped(expected: &str, raw: &Raw) -> String {
    format!("must be {expected}, got {}", raw.type_name())
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(raw: Raw) -> Result<u64, String> {
        match raw {
            Raw::Num(n) => Ok(n),
            r => Err(mistyped("number", &r)),
        }
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(raw: Raw) -> Result<bool, String> {
        match raw {
            Raw::Bool(b) => Ok(b),
            r => Err(mistyped("bool", &r)),
        }
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        out.push('"');
        escape_json_into(self, out);
        out.push('"');
    }
    fn read(raw: Raw) -> Result<String, String> {
        match raw {
            Raw::Str(s) => Ok(s),
            r => Err(mistyped("string", &r)),
        }
    }
}

impl Field for Option<u64> {
    fn write(&self, out: &mut String) {
        match self {
            Some(n) => n.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(raw: Raw) -> Result<Option<u64>, String> {
        match raw {
            Raw::Num(n) => Ok(Some(n)),
            Raw::Null => Ok(None),
            r => Err(mistyped("number or null", &r)),
        }
    }
}

impl Field for Vec<u64> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            n.write(out);
        }
        out.push(']');
    }
    fn read(raw: Raw) -> Result<Vec<u64>, String> {
        match raw {
            Raw::Arr(a) => Ok(a),
            r => Err(mistyped("array", &r)),
        }
    }
}

/// Closed string enums: written by their stable name, read back
/// through the enum's own `parse`.
macro_rules! name_field {
    ($ty:ty, $name:ident, $what:literal) => {
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.$name());
                out.push('"');
            }
            fn read(raw: Raw) -> Result<$ty, String> {
                let s = String::read(raw)?;
                <$ty>::parse(&s).ok_or_else(|| format!("unknown {} `{s}`", $what))
            }
        }
    };
}

name_field!(SolveStatus, serial, "solve status");
name_field!(UnknownReason, name, "budget reason");
name_field!(Mechanism, name, "mechanism");
name_field!(Phase, name, "phase");

/// Appends `,"name":value` pairs to a line.
struct Writer(String);

impl Writer {
    fn f<F: Field>(&mut self, name: &str, value: &F) {
        self.0.push_str(",\"");
        self.0.push_str(name);
        self.0.push_str("\":");
        value.write(&mut self.0);
    }
}

/// Takes fields out of a parsed object by name.
struct Reader(Vec<(String, Raw)>);

impl Reader {
    fn f<F: Field>(&mut self, name: &str) -> Result<F, String> {
        let i = self
            .0
            .iter()
            .position(|(k, _)| k == name)
            .ok_or_else(|| format!("missing `{name}`"))?;
        F::read(self.0.remove(i).1).map_err(|e| format!("`{name}` {e}"))
    }
}

// --- flat JSON parsing ---------------------------------------------------

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.src[self.pos..];
        self.pos += rest.len()
            - rest
                .trim_start_matches(|c: char| c.is_ascii_whitespace())
                .len();
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.src[self.pos..].chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    self.pos = self.src.len() - chars.as_str().len();
                    return Ok(out);
                }
                '\\' => match chars.next().ok_or("unterminated escape")? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex = chars.as_str().get(..4).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        chars = chars.as_str()[4..].chars();
                    }
                    other => return Err(format!("bad escape `\\{other}`")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let digits = self.src[start..].bytes().take_while(u8::is_ascii_digit);
        self.pos += digits.count();
        self.src[start..self.pos]
            .parse::<u64>()
            .map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Raw, String> {
        match self.peek() {
            Some(b'"') => Ok(Raw::Str(self.string()?)),
            Some(b't') => self.literal("true", Raw::Bool(true)),
            Some(b'f') => self.literal("false", Raw::Bool(false)),
            Some(b'n') => self.literal("null", Raw::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Raw::Arr(items));
                }
                loop {
                    match self.value()? {
                        Raw::Num(n) => items.push(n),
                        v => {
                            return Err(format!("arrays hold numbers only, got {}", v.type_name()))
                        }
                    }
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Raw::Arr(items));
                        }
                        other => return Err(format!("expected `,` or `]`, got {other:?}")),
                    }
                }
            }
            Some(b) if b.is_ascii_digit() => self.number().map(Raw::Num),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, lit: &str, val: Raw) -> Result<Raw, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }
}

/// Parses one flat JSON object (`{"k": scalar, ...}`, the whole trace
/// schema; nested objects are rejected) into its fields in line order.
fn parse_object(line: &str) -> Result<Vec<(String, Raw)>, String> {
    let mut c = Cursor { src: line, pos: 0 };
    c.expect(b'{')?;
    let mut fields: Vec<(String, Raw)> = Vec::new();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            let key = c.string()?;
            c.expect(b':')?;
            let val = c.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            fields.push((key, val));
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    if c.peek().is_some() {
        return Err(format!("trailing garbage at byte {}", c.pos));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(t: u64, task: u64, record: Record) -> TraceLine {
        TraceLine { t, task, record }
    }

    fn ev(t: u64, task: u64, e: Event) -> String {
        line(t, task, Record::Event(e)).to_json()
    }

    /// Every record kind, with adversarial strings and boundary
    /// numbers, in both directions.
    #[test]
    fn every_record_kind_round_trips() {
        const MAX: u64 = u64::MAX;
        let nasty = "q\"b\\s\nn\r\t\u{1}\u{1f}\u{7f}/é日本🦀".to_string();
        let cases = vec![
            line(
                0,
                0,
                Record::Event(Event::CoverageDelta {
                    vectors: MAX,
                    coverage: 0,
                    delta: 1,
                }),
            ),
            line(
                MAX,
                MAX,
                Record::Event(Event::StagnationEnter {
                    vectors: 400,
                    intervals: MAX,
                }),
            ),
            line(
                1,
                2,
                Record::Event(Event::SymbolicEpisode {
                    checkpoint: None,
                    eqns: 12,
                    solve_result: SolveStatus::Unknown(UnknownReason::UnrollDepth),
                }),
            ),
            line(
                1,
                2,
                Record::Event(Event::SymbolicEpisode {
                    checkpoint: Some(MAX),
                    eqns: 0,
                    solve_result: SolveStatus::Skipped,
                }),
            ),
            line(
                3,
                0,
                Record::Event(Event::SmtSolve {
                    vars: 40,
                    clauses: MAX,
                    sat: true,
                    micros: 0,
                }),
            ),
            line(
                3,
                0,
                Record::Event(Event::SmtSolve {
                    vars: 0,
                    clauses: 0,
                    sat: false,
                    micros: MAX,
                }),
            ),
            line(4, 1, Record::Event(Event::PartialReset { prefix_len: MAX })),
            line(5, 1, Record::Event(Event::FullReset)),
            line(
                6,
                1,
                Record::Event(Event::BugFired {
                    property: nasty.clone(),
                    vector: MAX,
                }),
            ),
            line(
                6,
                1,
                Record::Event(Event::BugFired {
                    property: String::new(),
                    vector: 0,
                }),
            ),
            line(
                7,
                3,
                Record::Event(Event::BudgetExhausted {
                    reason: UnknownReason::WallClock,
                    level: 2,
                    conflicts: MAX,
                    decisions: 31_407,
                    propagations: 918_222,
                }),
            ),
            line(
                8,
                3,
                Record::Event(Event::NodeCovered {
                    node: 4,
                    vector: 120,
                    mechanism: Mechanism::SolverGuided,
                    goal: Some(0),
                    checkpoint: Some(MAX),
                }),
            ),
            line(
                8,
                3,
                Record::Event(Event::NodeCovered {
                    node: MAX,
                    vector: 0,
                    mechanism: Mechanism::ConstrainedRandom,
                    goal: None,
                    checkpoint: None,
                }),
            ),
            line(
                9,
                3,
                Record::Event(Event::EdgeCovered {
                    edge: 9,
                    src: MAX,
                    dst: 0,
                    vector: 121,
                    mechanism: Mechanism::ReplayPrefix,
                }),
            ),
            line(
                10,
                0,
                Record::Event(Event::GoalSolveCost {
                    register: nasty.clone(),
                    value: MAX,
                    status: SolveStatus::Unknown(UnknownReason::Conflicts),
                    depth: 4,
                    calls: 3,
                    conflicts: 99,
                    learned: 80,
                    restarts: 2,
                    hist: vec![MAX; crate::HIST_BUCKETS],
                }),
            ),
            line(
                10,
                0,
                Record::Event(Event::GoalSolveCost {
                    register: "r".into(),
                    value: 0,
                    status: SolveStatus::Sat,
                    depth: 0,
                    calls: 0,
                    conflicts: 0,
                    learned: 0,
                    restarts: 0,
                    hist: Vec::new(),
                }),
            ),
            line(
                11,
                0,
                Record::Event(Event::CoreExtracted {
                    register: nasty,
                    value: 7,
                    core: 0,
                    blamed: MAX,
                }),
            ),
            line(
                12,
                4,
                Record::Phase {
                    phase: Phase::Reset,
                    micros: MAX,
                },
            ),
            line(
                13,
                4,
                Record::Metrics {
                    settle_fast_path: MAX,
                    settle_escapes: 0,
                    x_island_cones: 3,
                    settle_sweeps: 100,
                    witness_misses: 2,
                },
            ),
            line(
                14,
                4,
                Record::SolverCache {
                    bitblast_cache_hits: 30,
                    bitblast_cache_misses: MAX,
                    session_reuse_milli: 0,
                },
            ),
            line(
                15,
                4,
                Record::Flight {
                    interval: 1,
                    vectors: 1000,
                    coverage: 42,
                    stagnant: 0,
                    d_vectors: MAX,
                    d_solver_calls: 3,
                    d_settle_fast_path: 900,
                    d_settle_escapes: 100,
                },
            ),
        ];
        let mut kinds: Vec<&str> = cases.iter().map(|l| l.record.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let mut expected: Vec<&str> = Event::KINDS.to_vec();
        expected.extend(["Phase", "Metrics", "SolverCache", "Flight"]);
        expected.sort_unstable();
        assert_eq!(kinds, expected, "every record kind is covered");
        for l in &cases {
            let s = l.to_json();
            let back = TraceLine::parse(&s).unwrap_or_else(|e| panic!("`{s}`: {e}"));
            assert_eq!(back, *l, "{s}");
            assert_eq!(back.to_json(), s);
        }
        // Every phase, solve status, budget reason and mechanism name.
        for phase in Phase::ALL {
            let l = line(0, 0, Record::Phase { phase, micros: 1 });
            assert_eq!(TraceLine::parse(&l.to_json()).unwrap(), l);
        }
        for serial in SolveStatus::SERIALS {
            let s = format!(
                "{{\"t\":0,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
                 \"eqns\":1,\"solve_result\":\"{serial}\"}}"
            );
            assert_eq!(TraceLine::parse(&s).unwrap().to_json(), s);
        }
        for reason in UnknownReason::ALL {
            let s = ev(
                0,
                0,
                Event::BudgetExhausted {
                    reason,
                    level: 0,
                    conflicts: 1,
                    decisions: 1,
                    propagations: 1,
                },
            );
            assert_eq!(TraceLine::parse(&s).unwrap().to_json(), s);
        }
        for mechanism in Mechanism::ALL {
            let s = ev(
                0,
                0,
                Event::EdgeCovered {
                    edge: 0,
                    src: 0,
                    dst: 0,
                    vector: 0,
                    mechanism,
                },
            );
            assert_eq!(TraceLine::parse(&s).unwrap().to_json(), s);
        }
    }

    #[test]
    fn reader_accepts_any_field_order_and_whitespace() {
        let l = TraceLine::parse(
            " { \"prefix_len\" : 9 , \"kind\":\"PartialReset\", \"task\":1,\"t\":2 } ",
        )
        .unwrap();
        assert_eq!(
            l,
            line(2, 1, Record::Event(Event::PartialReset { prefix_len: 9 }))
        );
        assert_eq!(
            l.to_json(),
            "{\"t\":2,\"task\":1,\"kind\":\"PartialReset\",\"prefix_len\":9}"
        );
        // `\u` escapes and `\/` decode; the writer re-escapes only
        // what JSON requires.
        let l = TraceLine::parse(
            "{\"t\":0,\"task\":0,\"kind\":\"BugFired\",\"property\":\"a\\u0041\\/\\u00e9\",\
             \"vector\":1}",
        )
        .unwrap();
        assert_eq!(
            l.to_json(),
            "{\"t\":0,\"task\":0,\"kind\":\"BugFired\",\"property\":\"aA/é\",\"vector\":1}"
        );
    }

    #[test]
    fn json_lines_are_well_formed() {
        let e = Event::SymbolicEpisode {
            checkpoint: Some(5),
            eqns: 12,
            solve_result: SolveStatus::Sat,
        };
        assert_eq!(
            ev(42, 1, e),
            "{\"t\":42,\"task\":1,\"kind\":\"SymbolicEpisode\",\"checkpoint\":5,\
             \"eqns\":12,\"solve_result\":\"sat\"}"
        );
        let e = Event::FullReset;
        assert_eq!(ev(0, 0, e), "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}");
        let e = Event::BudgetExhausted {
            reason: UnknownReason::WallClock,
            level: 2,
            conflicts: 7,
            decisions: 9,
            propagations: 11,
        };
        assert_eq!(
            ev(3, 0, e),
            "{\"t\":3,\"task\":0,\"kind\":\"BudgetExhausted\",\"reason\":\"wall_clock\",\
             \"level\":2,\"conflicts\":7,\"decisions\":9,\"propagations\":11}"
        );
        let e = Event::NodeCovered {
            node: 5,
            vector: 17,
            mechanism: Mechanism::ConstrainedRandom,
            goal: None,
            checkpoint: None,
        };
        assert_eq!(
            ev(17, 2, e),
            "{\"t\":17,\"task\":2,\"kind\":\"NodeCovered\",\"node\":5,\"vector\":17,\
             \"mechanism\":\"random\",\"goal\":null,\"checkpoint\":null}"
        );
        let e = Event::EdgeCovered {
            edge: 2,
            src: 0,
            dst: 5,
            vector: 17,
            mechanism: Mechanism::SolverGuided,
        };
        assert_eq!(
            ev(17, 2, e),
            "{\"t\":17,\"task\":2,\"kind\":\"EdgeCovered\",\"edge\":2,\"src\":0,\"dst\":5,\
             \"vector\":17,\"mechanism\":\"solver\"}"
        );
    }

    #[test]
    fn solver_introspection_lines_are_well_formed() {
        let e = Event::GoalSolveCost {
            register: "state".into(),
            value: 3,
            status: SolveStatus::Unknown(UnknownReason::Conflicts),
            depth: 4,
            calls: 3,
            conflicts: 120,
            learned: 100,
            restarts: 1,
            hist: vec![0, 1, 2],
        };
        assert_eq!(
            ev(9, 1, e),
            "{\"t\":9,\"task\":1,\"kind\":\"GoalSolveCost\",\"register\":\"state\",\
             \"value\":3,\"status\":\"unknown:conflicts\",\"depth\":4,\"calls\":3,\
             \"conflicts\":120,\"learned\":100,\"restarts\":1,\"hist\":[0,1,2]}"
        );
        let e = Event::CoreExtracted {
            register: "lock\"r".into(),
            value: 7,
            core: 2,
            blamed: 2,
        };
        assert_eq!(
            ev(1, 0, e),
            "{\"t\":1,\"task\":0,\"kind\":\"CoreExtracted\",\"register\":\"lock\\\"r\",\
             \"value\":7,\"core\":2,\"blamed\":2}"
        );
    }

    #[test]
    fn property_names_are_escaped() {
        let e = Event::BugFired {
            property: "a\"b\\c\n".into(),
            vector: 1,
        };
        let line = ev(0, 0, e);
        assert!(line.contains("a\\\"b\\\\c\\n"));
    }

    #[test]
    fn schema_violations_are_rejected() {
        let bad = [
            // Missing field.
            "{\"t\":1,\"task\":0,\"kind\":\"PartialReset\"}",
            // Wrong type.
            "{\"t\":1,\"task\":0,\"kind\":\"PartialReset\",\"prefix_len\":\"x\"}",
            // Unknown kind.
            "{\"t\":1,\"task\":0,\"kind\":\"Nope\"}",
            // Extra field.
            "{\"t\":1,\"task\":0,\"kind\":\"FullReset\",\"x\":1}",
            // Missing or mistyped header.
            "{\"task\":0,\"kind\":\"FullReset\"}",
            "{\"t\":1,\"task\":0}",
            "{\"t\":true,\"task\":0,\"kind\":\"FullReset\"}",
            "{\"t\":1,\"task\":0,\"kind\":7}",
            // Unknown solve outcome.
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"maybe\"}",
            // An unknown ceiling name inside a structured unknown.
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"unknown:gremlins\"}",
            // `checkpoint` is a number or null, never a bool.
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":false,\
             \"eqns\":1,\"solve_result\":\"sat\"}",
            // Unknown budget ceiling name.
            "{\"t\":1,\"task\":0,\"kind\":\"BudgetExhausted\",\"reason\":\"patience\",\
             \"level\":0,\"conflicts\":1,\"decisions\":1,\"propagations\":1}",
            // Unknown phase name.
            "{\"t\":1,\"task\":0,\"kind\":\"Phase\",\"phase\":\"nap\",\"micros\":4}",
            // Unknown coverage mechanism.
            "{\"t\":1,\"task\":0,\"kind\":\"NodeCovered\",\"node\":1,\"vector\":2,\
             \"mechanism\":\"telepathy\",\"goal\":null,\"checkpoint\":null}",
            "{\"t\":1,\"task\":0,\"kind\":\"EdgeCovered\",\"edge\":0,\"src\":1,\"dst\":2,\
             \"vector\":3,\"mechanism\":\"osmosis\"}",
            // A truncated flight record.
            "{\"t\":100,\"task\":2,\"kind\":\"Flight\",\"interval\":1,\"vectors\":1000}",
            // Truncated summary records.
            "{\"t\":1,\"task\":0,\"kind\":\"Metrics\",\"settle_fast_path\":1}",
            "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":1}",
            // A non-numeric counter.
            "{\"t\":1,\"task\":0,\"kind\":\"SolverCache\",\"bitblast_cache_hits\":1,\
             \"bitblast_cache_misses\":\"1\",\"session_reuse_milli\":0}",
            // Unknown solve status on a goal cost.
            "{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\"value\":3,\
             \"status\":\"maybe\",\"depth\":1,\"calls\":1,\"conflicts\":0,\"learned\":0,\
             \"restarts\":0,\"hist\":[]}",
            // `hist` must be an array.
            "{\"t\":1,\"task\":0,\"kind\":\"GoalSolveCost\",\"register\":\"st\",\"value\":3,\
             \"status\":\"sat\",\"depth\":1,\"calls\":1,\"conflicts\":0,\"learned\":0,\
             \"restarts\":0,\"hist\":7}",
            "{\"t\":1,\"task\":0,\"kind\":\"CoreExtracted\",\"register\":\"st\",\"value\":3,\
             \"core\":2}",
            // Duplicate key.
            "{\"t\":1,\"task\":0,\"kind\":\"FullReset\",\"t\":2}",
            // Out-of-range and negative numbers.
            "{\"t\":18446744073709551616,\"task\":0,\"kind\":\"FullReset\"}",
            "{\"t\":-1,\"task\":0,\"kind\":\"FullReset\"}",
        ];
        for line in bad {
            assert!(TraceLine::parse(line).is_err(), "accepted `{line}`");
        }
        // A structured unknown is a valid outcome.
        assert!(TraceLine::parse(
            "{\"t\":1,\"task\":0,\"kind\":\"SymbolicEpisode\",\"checkpoint\":null,\
             \"eqns\":1,\"solve_result\":\"unknown:conflicts\"}"
        )
        .is_ok());
    }

    #[test]
    fn syntax_errors_are_rejected() {
        for bad in [
            "{\"a\":1",
            "{\"a\":1} x",
            "{\"a\":1,\"a\":2}",
            "{\"hist\":[\"x\"]}",
            "{\"hist\":[1,]}",
            "{\"a\":{}}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\u00\"}",
            "{\"a\":tru}",
            "",
        ] {
            assert!(parse_object(bad).is_err(), "accepted `{bad}`");
        }
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn trace_errors_carry_line_numbers() {
        let text = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let text = "{\"t\":0,\"task\":0,\"kind\":\"FullReset\"}\n\
                    {\"t\":0,\"task\":0,\"kind\":\"PartialReset\",\"prefix_len\":\"x\"}\n";
        let err = parse_trace(text).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("prefix_len"),
            "{err}"
        );
    }
}
