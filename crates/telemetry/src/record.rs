//! Every telemetry artifact schema, in both directions.
//!
//! Three artifacts leave the telemetry layer, and this module is the
//! only code that writes them and the only code that reads them back:
//!
//! * a `--trace-out` JSONL trace, one [`TraceLine`] per line: a
//!   timestamp, a task label and a typed [`Record`]
//!   ([`TraceLine::to_json`], [`TraceLine::parse`], [`parse_trace`]);
//! * the flight recorder's `flight.jsonl` stream, one [`FlightSample`]
//!   per line ([`FlightSample::to_json`], [`FlightSample::parse`]);
//! * the flight recorder's `status.json` heartbeat, one [`Status`]
//!   ([`Status::to_json`], [`Status::parse`]).
//!
//! The `schema!` table below lists every trace record kind with its
//! fields in wire order, once; each entry expands into one arm of the
//! writer and one arm of the reader. Each field's JSON encoding is
//! declared once per Rust type by the private `Field` trait. The readers
//! decode by field name and reject missing, extra, duplicate and
//! mistyped fields, numbers that are not non-negative integers, unknown
//! kinds and unknown enum names; the flight readers also reject a wrong
//! `"v"`, metric names out of their fixed order and vectors of the wrong
//! width. So a line that parses is schema-valid, and for a line the
//! writer produced, `parse(line).to_json() == line`.

use crate::collector::{Counter, Gauge, Phase};
use crate::event::{Event, Mechanism, SolveStatus, UnknownReason};
use crate::sampler::FlightSample;
use crate::snapshot::MetricsSnapshot;
use std::fmt::Write as _;

/// Schema version stamped into every flight record and status
/// heartbeat (`"v"` field). Bump when the sample layout changes.
pub const FLIGHT_VERSION: u64 = 1;

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
        r.finish(&format!("`{kind}`"))?;
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

// --- the flight recorder: flight.jsonl and status.json --------------------

impl FlightSample {
    /// Renders the sample as one `flight.jsonl` line (no trailing
    /// newline): `"v"`, the scalars, then the four positional vectors.
    /// Two equal samples always render identically, which is what the
    /// `--jobs` byte-identity contract of the merged stream rests on.
    pub fn to_json(&self) -> String {
        let mut w = Writer(format!("{{\"v\":{FLIGHT_VERSION}"));
        w.f("interval", &self.interval);
        w.f("t", &self.t);
        w.f("task", &self.task);
        w.f("vectors", &self.vectors);
        w.f("coverage", &self.coverage);
        w.f("nodes", &self.nodes);
        w.f("edges", &self.edges);
        w.f("stagnant", &self.stagnant);
        w.f("d_counters", &self.d_counters);
        w.f("gauges", &self.gauges);
        w.f("d_events", &self.d_events);
        w.f("d_phase_micros", &self.d_phase_micros);
        w.0.push('}');
        w.0
    }

    /// Parses and schema-checks one `flight.jsonl` line. Each vector
    /// must be exactly as wide as its fixed order ([`Counter::ALL`],
    /// [`Gauge::ALL`], [`Event::KINDS`], [`Phase::ALL`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation.
    pub fn parse(line: &str) -> Result<FlightSample, String> {
        let mut r = Reader(parse_object(line)?);
        r.version()?;
        let sample = FlightSample {
            interval: r.f("interval")?,
            t: r.f("t")?,
            task: r.f("task")?,
            vectors: r.f("vectors")?,
            coverage: r.f("coverage")?,
            nodes: r.f("nodes")?,
            edges: r.f("edges")?,
            stagnant: r.f("stagnant")?,
            d_counters: r.vector("d_counters", Counter::COUNT)?,
            gauges: r.vector("gauges", Gauge::COUNT)?,
            d_events: r.vector("d_events", Event::KIND_COUNT)?,
            d_phase_micros: r.vector("d_phase_micros", Phase::COUNT)?,
        };
        r.finish("a flight record")?;
        Ok(sample)
    }
}

/// The `status.json` heartbeat: the latest sample's scalars, the
/// campaign's cumulative metrics, and the profiler sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// Sample interval index of the latest sample.
    pub interval: u64,
    /// Clock reading at the latest sample.
    pub t: u64,
    /// Input vectors consumed.
    pub vectors: u64,
    /// Coverage points reached.
    pub coverage: u64,
    /// CFG nodes covered.
    pub nodes: u64,
    /// CFG edges covered.
    pub edges: u64,
    /// Consecutive coverage-flat intervals.
    pub stagnant: u64,
    /// Cumulative counters, `(name, value)` in [`Counter::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels, `(name, value)` in [`Gauge::ALL`] order.
    pub gauges: Vec<(String, u64)>,
    /// Event counts, `(kind, count)` in [`Event::KINDS`] order.
    pub events: Vec<(String, u64)>,
    /// Phase self-times, `(phase, micros)` in [`Phase::ALL`] order.
    pub phase_self_micros: Vec<(String, u64)>,
    /// Profiler sections, `(name, JSON object text)` in wire order. The
    /// telemetry crate has no serde, so the caller renders and decodes
    /// them; this module only checks that each is a JSON object.
    pub sections: Vec<(String, String)>,
}

impl Status {
    /// The heartbeat for the latest sample and its cumulative snapshot,
    /// with the caller's profiler `sections`.
    pub fn new(
        latest: &FlightSample,
        snapshot: &MetricsSnapshot,
        sections: Vec<(String, String)>,
    ) -> Status {
        Status {
            interval: latest.interval,
            t: latest.t,
            vectors: latest.vectors,
            coverage: latest.coverage,
            nodes: latest.nodes,
            edges: latest.edges,
            stagnant: latest.stagnant,
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            events: snapshot.events.clone(),
            phase_self_micros: snapshot
                .phases
                .iter()
                .map(|p| (p.phase.clone(), p.self_micros))
                .collect(),
            sections,
        }
    }

    /// The scalar header, `(field name, value)` in wire order.
    pub fn scalars(&self) -> [(&'static str, u64); 7] {
        [
            ("interval", self.interval),
            ("t", self.t),
            ("vectors", self.vectors),
            ("coverage", self.coverage),
            ("nodes", self.nodes),
            ("edges", self.edges),
            ("stagnant", self.stagnant),
        ]
    }

    /// Renders the heartbeat (no trailing newline): `"v"`, the scalars,
    /// the four cumulative sections, then the profiler sections.
    pub fn to_json(&self) -> String {
        let mut w = Writer(format!("{{\"v\":{FLIGHT_VERSION}"));
        for (name, value) in self.scalars() {
            w.f(name, &value);
        }
        w.f("counters", &self.counters);
        w.f("gauges", &self.gauges);
        w.f("events", &self.events);
        w.f("phase_self_micros", &self.phase_self_micros);
        for (name, json) in &self.sections {
            w.0.push(',');
            name.write(&mut w.0);
            w.0.push(':');
            w.0.push_str(json);
        }
        w.0.push('}');
        w.0
    }

    /// Parses and schema-checks a heartbeat. The four cumulative
    /// sections must name their entries in the fixed orders; every
    /// other field must be a JSON object and becomes a profiler section.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema violation.
    pub fn parse(text: &str) -> Result<Status, String> {
        let mut r = Reader(object(text, |c| c.nested_value())?);
        r.version()?;
        let mut status = Status {
            interval: r.f("interval")?,
            t: r.f("t")?,
            vectors: r.f("vectors")?,
            coverage: r.f("coverage")?,
            nodes: r.f("nodes")?,
            edges: r.f("edges")?,
            stagnant: r.f("stagnant")?,
            counters: r.named("counters", &Counter::ALL.map(Counter::name))?,
            gauges: r.named("gauges", &Gauge::ALL.map(Gauge::name))?,
            events: r.named("events", &Event::KINDS)?,
            phase_self_micros: r.named("phase_self_micros", &Phase::ALL.map(Phase::name))?,
            sections: Vec::new(),
        };
        for (name, raw) in r.0 {
            let Raw::Obj(json) = raw else {
                return Err(format!("unexpected field `{name}`, not an object"));
            };
            status.sections.push((name, json));
        }
        Ok(status)
    }
}

// --- the field trait: one JSON encoding per Rust type ---------------------

/// A JSON value as the schemas spell it.
enum Raw {
    Num(u64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<u64>),
    /// A nested object's source text (a heartbeat's sections).
    Obj(String),
}

impl Raw {
    fn type_name(&self) -> &'static str {
        match self {
            Raw::Num(_) => "number",
            Raw::Str(_) => "string",
            Raw::Bool(_) => "bool",
            Raw::Null => "null",
            Raw::Arr(_) => "array",
            Raw::Obj(_) => "object",
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
        for c in self.chars() {
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

/// A `name → number` object, such as a heartbeat's `counters`.
impl Field for Vec<(String, u64)> {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (name, n)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            name.write(out);
            out.push(':');
            n.write(out);
        }
        out.push('}');
    }
    fn read(raw: Raw) -> Result<Vec<(String, u64)>, String> {
        match raw {
            Raw::Obj(text) => parse_object(&text)?
                .into_iter()
                .map(|(name, v)| match u64::read(v) {
                    Ok(n) => Ok((name, n)),
                    Err(e) => Err(format!("`{name}` {e}")),
                })
                .collect(),
            r => Err(mistyped("object", &r)),
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

    /// Takes `"v"`, which must be [`FLIGHT_VERSION`].
    fn version(&mut self) -> Result<(), String> {
        let v: u64 = self.f("v")?;
        if v != FLIGHT_VERSION {
            return Err(format!(
                "unsupported flight schema v{v} (this reader speaks v{FLIGHT_VERSION})"
            ));
        }
        Ok(())
    }

    /// Takes a number array that must hold exactly `width` entries.
    fn vector(&mut self, name: &str, width: usize) -> Result<Vec<u64>, String> {
        let v: Vec<u64> = self.f(name)?;
        if v.len() != width {
            return Err(format!(
                "`{name}` has {} entries, expected {width}",
                v.len()
            ));
        }
        Ok(v)
    }

    /// Takes a `name → number` object whose names must be `order`.
    fn named(&mut self, name: &str, order: &[&str]) -> Result<Vec<(String, u64)>, String> {
        let pairs: Vec<(String, u64)> = self.f(name)?;
        let got: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        if got != order {
            let i = got.iter().zip(order).take_while(|(a, b)| a == b).count();
            let show = |k: Option<&&str>| k.map_or("nothing".to_string(), |k| format!("`{k}`"));
            return Err(format!(
                "`{name}` entry {i} is {}, expected {}",
                show(got.get(i)),
                show(order.get(i))
            ));
        }
        Ok(pairs)
    }

    /// Fails if any field was left untaken.
    fn finish(self, what: &str) -> Result<(), String> {
        if self.0.is_empty() {
            return Ok(());
        }
        let extra: Vec<&str> = self.0.iter().map(|(k, _)| k.as_str()).collect();
        Err(format!("{what} has unexpected fields {extra:?}"))
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
        if matches!(self.src.as_bytes().get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(NOT_NATURAL.into());
        }
        self.src[start..self.pos]
            .parse::<u64>()
            .map_err(|e| e.to_string())
    }

    /// Parses the rest of a bracketed list whose opening byte was just
    /// consumed: `item (, item)* close`, or `close` alone.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected `,` or `{}`, got {other:?}",
                        close as char
                    ))
                }
            }
        }
    }

    /// A scalar or a number array; nested objects are rejected.
    fn value(&mut self) -> Result<Raw, String> {
        match self.peek() {
            Some(b'"') => Ok(Raw::Str(self.string()?)),
            Some(b't') => self.literal("true", Raw::Bool(true)),
            Some(b'f') => self.literal("false", Raw::Bool(false)),
            Some(b'n') => self.literal("null", Raw::Null),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.list(b']', |c| match c.value()? {
                    Raw::Num(n) => {
                        items.push(n);
                        Ok(())
                    }
                    v => Err(format!("arrays hold numbers only, got {}", v.type_name())),
                })?;
                Ok(Raw::Arr(items))
            }
            Some(b'-') => Err(NOT_NATURAL.into()),
            Some(b) if b.is_ascii_digit() => self.number().map(Raw::Num),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    /// Like [`Cursor::value`], but a nested object is kept as its
    /// source text.
    fn nested_value(&mut self) -> Result<Raw, String> {
        if self.peek() != Some(b'{') {
            return self.value();
        }
        let start = self.pos;
        self.skip()?;
        Ok(Raw::Obj(self.src[start..self.pos].to_string()))
    }

    /// Steps over one JSON value of any nesting, checking its syntax.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                self.list(b'}', |c| {
                    c.string()?;
                    c.expect(b':')?;
                    c.skip()
                })
            }
            Some(b'[') => {
                self.pos += 1;
                self.list(b']', Cursor::skip)
            }
            _ => self.value().map(drop),
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

const NOT_NATURAL: &str = "must be a non-negative integer";

/// Parses one flat JSON object (`{"k": scalar, ...}`, a trace or flight
/// line; nested objects are rejected) into its fields in line order.
fn parse_object(line: &str) -> Result<Vec<(String, Raw)>, String> {
    object(line, |c| c.value())
}

/// Parses one JSON object, reading each field's value with `value`,
/// into its fields in source order.
fn object(
    src: &str,
    value: fn(&mut Cursor) -> Result<Raw, String>,
) -> Result<Vec<(String, Raw)>, String> {
    let mut c = Cursor { src, pos: 0 };
    c.expect(b'{')?;
    let mut fields: Vec<(String, Raw)> = Vec::new();
    c.list(b'}', |c| {
        let key = c.string()?;
        c.expect(b':')?;
        let val = value(c).map_err(|e| format!("`{key}` {e}"))?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
        fields.push((key, val));
        Ok(())
    })?;
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

    /// A flight sample with every number set to `n` and full-width
    /// vectors.
    fn sample(n: u64) -> FlightSample {
        FlightSample {
            interval: n,
            t: n,
            task: n,
            vectors: n,
            coverage: n,
            nodes: n,
            edges: n,
            stagnant: n,
            d_counters: vec![n; Counter::COUNT],
            gauges: vec![n; Gauge::COUNT],
            d_events: vec![n; Event::KIND_COUNT],
            d_phase_micros: vec![n; Phase::COUNT],
        }
    }

    /// A heartbeat with every number set to `n`, names in the fixed
    /// orders, and the given profiler sections.
    fn status(n: u64, sections: Vec<(String, String)>) -> Status {
        let named = |names: &[&str]| names.iter().map(|k| (k.to_string(), n)).collect();
        Status {
            interval: n,
            t: n,
            vectors: n,
            coverage: n,
            nodes: n,
            edges: n,
            stagnant: n,
            counters: named(&Counter::ALL.map(Counter::name)),
            gauges: named(&Gauge::ALL.map(Gauge::name)),
            events: named(&Event::KINDS),
            phase_self_micros: named(&Phase::ALL.map(Phase::name)),
            sections,
        }
    }

    /// Flight samples and heartbeats, with boundary numbers and escaped
    /// strings in a profiler section, in both directions.
    #[test]
    fn flight_samples_and_status_round_trip() {
        let mut mixed = sample(7);
        mixed.d_counters[0] = u64::MAX;
        mixed.d_phase_micros[Phase::COUNT - 1] = u64::MAX;
        for s in [sample(0), sample(u64::MAX), mixed] {
            let line = s.to_json();
            assert!(line.starts_with("{\"v\":1,\"interval\":"), "{line}");
            let back = FlightSample::parse(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(back, s, "{line}");
            assert_eq!(back.to_json(), line);
        }
        let nasty = "{\"rows\":[{\"label\":\"q\\\"b\\\\s\\n\\u0001é日本\",\"execs\":18446744073709551615}],\
                     \"op_classes\":[[\"alu\",0]],\"nested\":{\"empty\":[],\"obj\":{}}}";
        let sections = vec![
            ("vm_profile".to_string(), nasty.to_string()),
            ("solver_profile".to_string(), "{\"goals\":[]}".to_string()),
            ("odd \"name\"".to_string(), "{}".to_string()),
        ];
        for st in [
            status(0, Vec::new()),
            status(u64::MAX, Vec::new()),
            status(u64::MAX, sections),
        ] {
            let text = st.to_json();
            let back = Status::parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(back, st, "{text}");
            assert_eq!(back.to_json(), text);
        }
        // A heartbeat built from a real sample and snapshot.
        let c = crate::Collector::deterministic();
        c.add(Counter::Vectors, 100);
        let st = Status::new(&sample(3), &c.snapshot(), Vec::new());
        assert_eq!(st.counters[0], ("vectors".to_string(), 100));
        assert_eq!(Status::parse(&st.to_json()).unwrap(), st);
        // Written text, read and re-emitted byte for byte.
        let text = status(5, vec![("solver_scope".into(), "{\"version\":1}".into())]).to_json();
        assert!(text.starts_with("{\"v\":1,\"interval\":5,\"t\":5,\"vectors\":5,"));
        assert!(
            text.ends_with(",\"solver_scope\":{\"version\":1}}"),
            "{text}"
        );
        assert_eq!(Status::parse(&text).unwrap().to_json(), text);
    }

    /// Each corruption of a written flight line or heartbeat is
    /// rejected, with an error naming what is wrong.
    #[test]
    fn flight_and_status_corruptions_are_rejected() {
        let line = sample(3).to_json();
        let text = status(3, vec![("vm_profile".into(), "{\"rows\":[]}".into())]).to_json();
        let flight_cases: &[(&str, &str, &str)] = &[
            (
                "\"vectors\":3",
                "\"vectors\":1.5",
                "`vectors` must be a non-negative",
            ),
            (
                "\"vectors\":3",
                "\"vectors\":-7",
                "`vectors` must be a non-negative",
            ),
            ("\"v\":1", "\"v\":1.9", "`v` must be a non-negative"),
            ("\"v\":1", "\"v\":2", "unsupported flight schema v2"),
            ("\"v\":1,", "", "missing `v`"),
            ("\"t\":3", "\"t\":1e2", "`t` must be a non-negative"),
            ("\"task\":3", "\"task\":\"3\"", "`task` must be number"),
            (
                "\"nodes\":3",
                "\"nodes\":3,\"nodes\":3",
                "duplicate key `nodes`",
            ),
            ("\"vectors\":3", "\"vectorz\":3", "missing `vectors`"),
            (
                "\"d_counters\":[3,",
                "\"d_counters\":[",
                "`d_counters` has 24 entries",
            ),
            (
                "\"gauges\":[3,",
                "\"gauges\":[3,3,",
                "`gauges` has 10 entries",
            ),
            (
                "\"d_events\":[3,3,3,3,3,3,3,3,3,3,3,3]",
                "\"d_events\":[]",
                "`d_events` has 0",
            ),
            (
                "\"d_phase_micros\":[3,",
                "\"d_phase_micros\":[3.5,",
                "`d_phase_micros` must",
            ),
            ("}", ",\"x\":1}", "unexpected fields [\"x\"]"),
            ("{", "{\"x\":{},", "`x` unexpected value start"),
            (
                "\"d_phase_micros\":[3,3,3,3,3,3]}",
                "\"d_phase_micros\":[3,3,3,3,3,3]",
                "expected",
            ),
        ];
        for (from, to, why) in flight_cases {
            assert!(line.contains(from), "{from}");
            let bad = line.replacen(from, to, 1);
            let err = FlightSample::parse(&bad).expect_err(&bad);
            assert!(err.contains(why), "`{bad}`: `{err}` does not say `{why}`");
        }
        let status_cases: &[(&str, &str, &str)] = &[
            (
                "\"vectors\":3",
                "\"vectors\":1.5",
                "`vectors` must be a non-negative",
            ),
            (
                "\"vectors\":3",
                "\"vectors\":-7",
                "`vectors` must be a non-negative",
            ),
            ("\"v\":1", "\"v\":1.9", "`v` must be a non-negative"),
            ("\"v\":1", "\"v\":2", "unsupported flight schema v2"),
            ("{", "{\"bogus\":1,", "unexpected field `bogus`"),
            (
                "\"nodes\":3",
                "\"nodes\":3,\"nodes\":3",
                "duplicate key `nodes`",
            ),
            (
                "{\"vectors\":3",
                "{\"vectorz\":3",
                "`counters` entry 0 is `vectorz`",
            ),
            ("\"t\":3", "\"t\":1e2", "`t` must be a non-negative"),
            ("\"t\":3,", "", "missing `t`"),
            (
                "\"vectors\":3",
                "\"vectors\":\"many\"",
                "`vectors` must be number",
            ),
            (
                "{\"mutate\":3,",
                "{",
                "`phase_self_micros` entry 0 is `settle`",
            ),
            (
                "\"reset\":3}",
                "\"reset\":3,\"nap\":3}",
                "entry 6 is `nap`, expected nothing",
            ),
            (
                "\"gauges\":{",
                "\"gauges\":{\"x\":{},",
                "`x` unexpected value start",
            ),
            (
                "\"events\":{",
                "\"events\":[],\"e\":{",
                "`events` must be object",
            ),
            ("{\"rows\":[]}", "{\"rows\":[}", "unexpected value start"),
            (
                "{\"rows\":[]}",
                "[]",
                "unexpected field `vm_profile`, not an object",
            ),
            ("{\"rows\":[]}", "{\"rows\":[-1]}", "must be a non-negative"),
        ];
        for (from, to, why) in status_cases {
            assert!(text.contains(from), "{from}");
            let bad = text.replacen(from, to, 1);
            let err = Status::parse(&bad).expect_err(&bad);
            assert!(err.contains(why), "`{bad}`: `{err}` does not say `{why}`");
        }
        // Not an object at all.
        for bad in ["", "[]", "{\"v\":1", "null"] {
            assert!(Status::parse(bad).is_err(), "accepted `{bad}`");
            assert!(FlightSample::parse(bad).is_err(), "accepted `{bad}`");
        }
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
