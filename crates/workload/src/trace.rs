//! Workload traces: capture real request logs, replay them as scenarios.
//!
//! The scenario engine *synthesizes* arrivals (periodic / Poisson /
//! bursty). Production serving is validated against *recorded* traffic:
//! this module defines a versioned, line-delimited trace format plus the
//! replay source that turns a recorded log back into a first-class
//! scenario ([`crate::ScenarioScript`] attaches a [`TraceSource`] and
//! sets [`crate::ArrivalProcess::Trace`]).
//!
//! ## Format (version 1)
//!
//! A trace file is UTF-8 JSON-lines:
//!
//! * line 1 — the [`TraceHeader`]: `{"format":"alert-trace","version":1,
//!   "source":…,"seed":…}`. Anything else fails with
//!   [`TraceError::NotATrace`]; a known format with an unknown version
//!   fails with [`TraceError::Version`].
//! * every further non-empty line — one [`TraceRecord`]: the session and
//!   stream ids, the per-input sequence number, the **inter-arrival
//!   time** to the next input, the realized **input scale**, the goal in
//!   force at dispatch (deadline / quality floor / energy budget), an
//!   optional **device** (the node device the input was placed on —
//!   absent means device `0`, the primary CPU, which is what every trace
//!   captured before the device axis ran on), and an optional observed
//!   [`TraceOutcome`].
//!
//! The `device` key is a compatible extension *within* version 1: it is
//! omitted when `None`, so device-0-only captures serialize to the exact
//! bytes the pre-device format produced, and old files load with
//! `device: None` and round-trip bit-exactly.
//!
//! Records of different sessions may interleave (the capture order of a
//! multi-session runtime), but each session's records appear in dispatch
//! order — [`WorkloadTrace::replay_source`] extracts one session's
//! sequence without re-sorting.
//!
//! Floats survive the format bit-exactly: values are rendered with
//! Rust's shortest-round-trip `f64` formatting, so capture → save → load
//! → replay reproduces every inter-arrival and scale to the bit — the
//! identity the replay benches and CI gate on.
//!
//! [`WorkloadTrace`] holds a trace in memory; its `write_to`/`read_from`
//! write and read the format over any `Write`/`BufRead`, and
//! `save`/`load` over files.

use alert_stats::units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::path::Path;

/// Magic tag of the first line of every trace file.
pub const TRACE_FORMAT: &str = "alert-trace";

/// The trace format version this build reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// Trace-subsystem errors. Everything is reported, nothing panics: a
/// malformed or foreign file is an expected runtime condition.
#[derive(Debug)]
pub enum TraceError {
    /// An I/O error while reading or writing.
    Io(std::io::Error),
    /// The file does not start with an `alert-trace` header line.
    NotATrace(String),
    /// The header declares a version this build does not support.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A record line failed to parse (1-based line number).
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A record failed to serialize (should not happen for valid data).
    Serialize(String),
    /// The trace (or the requested session within it) has no records.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::NotATrace(why) => write!(f, "not an alert-trace file: {why}"),
            TraceError::Version { found, supported } => write!(
                f,
                "unsupported trace version {found} (this build reads version {supported})"
            ),
            TraceError::Malformed { line, message } => {
                write!(f, "malformed trace record at line {line}: {message}")
            }
            TraceError::Serialize(why) => write!(f, "trace record failed to serialize: {why}"),
            TraceError::Empty => write!(f, "trace holds no records"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The first line of a trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Magic tag — always [`TRACE_FORMAT`].
    pub format: String,
    /// Format version — [`TRACE_VERSION`] for files this build writes.
    pub version: u32,
    /// Free-form provenance: the scenario name or runtime the trace was
    /// captured from.
    pub source: String,
    /// The seed of the captured run, when known (re-running the capture
    /// with it reproduces the trace bit-exactly).
    pub seed: Option<u64>,
}

impl TraceHeader {
    /// A version-1 header.
    pub fn new(source: impl Into<String>, seed: Option<u64>) -> Self {
        TraceHeader {
            format: TRACE_FORMAT.to_string(),
            version: TRACE_VERSION,
            source: source.into(),
            seed,
        }
    }
}

/// The observed outcome of one captured input (what the scheduler picked
/// and what the platform delivered) — carried for offline analysis and
/// capture-vs-counterfactual comparisons; replay does not re-impose it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceOutcome {
    /// Model the scheduler picked.
    pub model: String,
    /// Power cap the scheduler programmed.
    pub cap: Watts,
    /// Delivered latency.
    pub latency: Seconds,
    /// Delivered quality score.
    pub quality: f64,
    /// Period energy (run + idle).
    pub energy: Joules,
}

/// One captured input: one line of the trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Session the input belonged to (runtime-local id of the capture).
    pub session: u64,
    /// Content-derived stream identity of the session's input stream.
    pub stream: u64,
    /// Input index within the session, ascending per session.
    pub seq: usize,
    /// Time until the session's next input arrived.
    pub inter_arrival: Seconds,
    /// Realized per-input latency scale (stream sample × scripted drift).
    pub scale: f64,
    /// Node device the input was placed on. `None` means device `0`
    /// (the primary CPU): traces captured before the device axis carry
    /// no key at all, and the field is skipped when `None` so such
    /// files round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub device: Option<u64>,
    /// Goal deadline in force at dispatch (before group adjustment).
    pub deadline: Seconds,
    /// Quality floor in force at dispatch, if any.
    pub min_quality: Option<f64>,
    /// Energy budget in force at dispatch, if any.
    pub energy_budget: Option<Joules>,
    /// Observed outcome, when the capture recorded one.
    pub outcome: Option<TraceOutcome>,
}

/// A fully materialized trace: header plus records in capture order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTrace {
    header: TraceHeader,
    records: Vec<TraceRecord>,
}

impl WorkloadTrace {
    /// An empty trace with a fresh version-1 header.
    pub fn new(source: impl Into<String>, seed: Option<u64>) -> Self {
        WorkloadTrace {
            header: TraceHeader::new(source, seed),
            records: Vec::new(),
        }
    }

    /// The header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// All records, in capture order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Appends one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The distinct session ids, in first-appearance order.
    pub fn sessions(&self) -> Vec<u64> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out: Vec<u64> = Vec::new();
        for r in &self.records {
            if seen.insert(r.session) {
                out.push(r.session);
            }
        }
        out
    }

    /// One session's records, in capture (= dispatch) order.
    pub fn session_records(&self, session: u64) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.session == session)
    }

    /// Extracts one session's arrival/scale sequence as a replayable
    /// [`TraceSource`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when the trace holds no records for
    /// `session`.
    pub fn replay_source(&self, session: u64) -> Result<TraceSource, TraceError> {
        let steps: Vec<TraceStep> = self
            .session_records(session)
            .map(|r| TraceStep {
                inter_arrival: r.inter_arrival,
                scale: r.scale,
            })
            .collect();
        if steps.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(TraceSource::new(
            format!("{}#session-{session}", self.header.source),
            steps,
        ))
    }

    /// Writes the whole trace to `w` in the line-delimited format: the
    /// header line, then one line per record.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceError> {
        let header = std::iter::once(serde_json::to_string(&self.header));
        let records = self.records.iter().map(serde_json::to_string);
        for line in header.chain(records) {
            let line = line.map_err(|e| TraceError::Serialize(e.to_string()))?;
            writeln!(w, "{line}")?;
        }
        w.flush()?;
        Ok(())
    }

    /// Reads a trace in the line-delimited format, validating the header
    /// line first and then each record line. Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// [`TraceError::NotATrace`] or [`TraceError::Version`] for a bad
    /// header, [`TraceError::Malformed`] (with the 1-based line number)
    /// for a bad record line, [`TraceError::Io`] for a failed read.
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, TraceError> {
        let mut lines = r.lines();
        let first = lines
            .next()
            .ok_or_else(|| TraceError::NotATrace("empty file".into()))??;
        let header: TraceHeader = serde_json::from_str(&first)
            .map_err(|e| TraceError::NotATrace(format!("unreadable header line: {e}")))?;
        if header.format != TRACE_FORMAT {
            return Err(TraceError::NotATrace(format!(
                "header declares format '{}', expected '{TRACE_FORMAT}'",
                header.format
            )));
        }
        if header.version != TRACE_VERSION {
            return Err(TraceError::Version {
                found: header.version,
                supported: TRACE_VERSION,
            });
        }
        let mut records = Vec::new();
        // The header is line 1, so item k (from 0) of `lines` is line k + 2.
        for (k, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue; // tolerate blank (e.g. trailing) lines
            }
            let record = serde_json::from_str(&line).map_err(|e| TraceError::Malformed {
                line: k + 2,
                message: e.to_string(),
            })?;
            records.push(record);
        }
        Ok(WorkloadTrace { header, records })
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let file = std::fs::File::create(path)?;
        self.write_to(std::io::BufWriter::new(file))
    }

    /// Loads a trace from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)?;
        Self::read_from(std::io::BufReader::new(file))
    }
}

/// How a replayed trace is fitted onto a horizon (stream length) that
/// differs from the trace's own length `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceFit {
    /// Wrap around: input `i` replays step `i mod m`. A short trace
    /// repeats; a long one is cut. Always applicable.
    Loop,
    /// Use the trace verbatim: input `i` replays step `i`. Requires
    /// `m ≥ horizon` (environment realization reports the mismatch as a
    /// script error); a longer trace is cut at the horizon.
    Truncate,
    /// Resample the trace onto the horizon: input `i` of `n` replays step
    /// `⌊i·m/n⌋` with its inter-arrival scaled by `m/n`, so the replay
    /// spans the same total duration with the same shape. With `m == n`
    /// the factor is exactly `1.0` and replay is bit-identical.
    Stretch,
}

impl std::fmt::Display for TraceFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFit::Loop => write!(f, "loop"),
            TraceFit::Truncate => write!(f, "truncate"),
            TraceFit::Stretch => write!(f, "stretch"),
        }
    }
}

/// One replayable step: what environment realization needs per input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Period until the next input.
    pub inter_arrival: Seconds,
    /// Per-input latency scale (replaces the stream's sampled scale; any
    /// drift scripted on the *replay* composes multiplicatively on top).
    pub scale: f64,
}

/// The arrival/scale sequence of one recorded session, attachable to a
/// [`crate::ScenarioScript`] and replayed by
/// `ArrivalProcess::Trace` (see `alert-sched::env::EpisodeEnv`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSource {
    /// Provenance label (trace source + session).
    pub name: String,
    steps: Vec<TraceStep>,
}

impl TraceSource {
    /// A source from explicit steps.
    pub fn new(name: impl Into<String>, steps: Vec<TraceStep>) -> Self {
        TraceSource {
            name: name.into(),
            steps,
        }
    }

    /// The steps in replay order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the source has no steps (never valid for replay).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Validates the source for replay: at least one step, every
    /// inter-arrival finite and positive, every scale finite and
    /// positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps.is_empty() {
            return Err("trace source holds no steps".into());
        }
        for (i, s) in self.steps.iter().enumerate() {
            if !(s.inter_arrival.is_finite() && s.inter_arrival.get() > 0.0) {
                return Err(format!(
                    "trace step {i}: inter-arrival must be positive, got {}",
                    s.inter_arrival
                ));
            }
            if !(s.scale.is_finite() && s.scale > 0.0) {
                return Err(format!(
                    "trace step {i}: scale must be positive, got {}",
                    s.scale
                ));
            }
        }
        Ok(())
    }

    /// Checks that this source can cover `horizon` inputs under `fit`
    /// (only [`TraceFit::Truncate`] can fail, on a too-short trace).
    pub fn check_horizon(&self, horizon: usize, fit: TraceFit) -> Result<(), String> {
        if self.steps.is_empty() {
            return Err("trace source holds no steps".into());
        }
        if fit == TraceFit::Truncate && self.steps.len() < horizon {
            return Err(format!(
                "trace '{}' has {} steps but the horizon needs {horizon} under \
                 truncate fit; use loop or stretch",
                self.name,
                self.steps.len()
            ));
        }
        Ok(())
    }

    /// The step replayed for input `i` of a `horizon`-input stream under
    /// `fit`. Total (never panics); [`TraceSource::check_horizon`] is the
    /// validity gate. When the trace length equals the horizon, every
    /// mode is the bit-exact identity.
    pub fn step(&self, i: usize, horizon: usize, fit: TraceFit) -> TraceStep {
        let m = self.steps.len().max(1);
        match fit {
            TraceFit::Loop => self.steps[i % m],
            TraceFit::Truncate => self.steps[i.min(m - 1)],
            TraceFit::Stretch => {
                let n = horizon.max(1);
                let j = ((i * m) / n).min(m - 1);
                let s = self.steps[j];
                TraceStep {
                    inter_arrival: s.inter_arrival * (m as f64 / n as f64),
                    scale: s.scale,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn record(session: u64, seq: usize, period: f64, scale: f64) -> TraceRecord {
        TraceRecord {
            session,
            stream: 0xfeed,
            seq,
            inter_arrival: Seconds(period),
            scale,
            device: None,
            deadline: Seconds(0.4),
            min_quality: Some(0.9),
            energy_budget: None,
            outcome: Some(TraceOutcome {
                model: "m".into(),
                cap: Watts(70.0),
                latency: Seconds(0.11),
                quality: 0.91,
                energy: Joules(5.5),
            }),
        }
    }

    fn sample_trace() -> WorkloadTrace {
        let mut t = WorkloadTrace::new("UnitTest", Some(7));
        // Awkward floats: the round-trip must be bit-exact, not close.
        t.push(record(0, 0, 0.1 + 0.2, 1.0 / 3.0));
        t.push(record(1, 0, 0.123456789012345, 0.7));
        t.push(record(0, 1, f64::MIN_POSITIVE, 1.9999999999999998));
        t
    }

    #[test]
    fn jsonl_roundtrip_is_bit_exact() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = WorkloadTrace::read_from(Cursor::new(&buf)).unwrap();
        assert_eq!(t, back);
        for (a, b) in t.records().iter().zip(back.records()) {
            assert_eq!(
                a.inter_arrival.get().to_bits(),
                b.inter_arrival.get().to_bits()
            );
            assert_eq!(a.scale.to_bits(), b.scale.to_bits());
        }
        // And a second serialization is byte-identical.
        let mut buf2 = Vec::new();
        back.write_to(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn pre_device_records_parse_and_round_trip_byte_identically() {
        // A verbatim line from a trace written before the device axis:
        // no `device` key anywhere.
        let line = r#"{"deadline":0.4,"energy_budget":null,"inter_arrival":0.30000000000000004,"min_quality":0.9,"outcome":{"cap":70,"energy":5.5,"latency":0.11,"model":"m","quality":0.91},"scale":0.3333333333333333,"seq":0,"session":0,"stream":65261}"#;
        let r: TraceRecord = serde_json::from_str(line).unwrap();
        assert_eq!(r.device, None, "missing key must mean the primary CPU");
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            line,
            "device-less records must re-serialize to the exact v1 bytes"
        );
    }

    #[test]
    fn placed_records_round_trip_their_device() {
        let mut r = record(3, 0, 0.25, 1.0);
        r.device = Some(1);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"device\":1"));
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.device, Some(1));
        assert_eq!(r, back);
    }

    #[test]
    fn blank_lines_are_skipped_but_counted() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // A blank line after the header, a whitespace-only line between
        // records, and trailing blank lines.
        let spaced = text
            .replacen('\n', "\n\n", 1)
            .replacen("}\n{", "}\n  \n{", 1)
            + "\n\n";
        let back = WorkloadTrace::read_from(Cursor::new(&spaced)).unwrap();
        assert_eq!(back, t);
        // Blank lines still count toward the 1-based line numbers: the
        // header, 3 records and 2 blank lines occupy lines 1-6, and the
        // trailing blanks 7-8.
        let bad = spaced + "{ not a record }\n";
        match WorkloadTrace::read_from(Cursor::new(bad)).unwrap_err() {
            TraceError::Malformed { line, .. } => assert_eq!(line, 9),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn foreign_and_versioned_files_fail_typed() {
        let not_json = "hello world\n";
        assert!(matches!(
            WorkloadTrace::read_from(Cursor::new(not_json)),
            Err(TraceError::NotATrace(_))
        ));
        let wrong_magic = r#"{"format":"other","version":1,"source":"x","seed":null}"#;
        assert!(matches!(
            WorkloadTrace::read_from(Cursor::new(wrong_magic)),
            Err(TraceError::NotATrace(_))
        ));
        let future = r#"{"format":"alert-trace","version":99,"source":"x","seed":null}"#;
        assert!(matches!(
            WorkloadTrace::read_from(Cursor::new(future)),
            Err(TraceError::Version {
                found: 99,
                supported: TRACE_VERSION
            })
        ));
        assert!(matches!(
            WorkloadTrace::read_from(Cursor::new("")),
            Err(TraceError::NotATrace(_))
        ));
    }

    #[test]
    fn malformed_record_lines_carry_line_numbers() {
        let mut buf = Vec::new();
        sample_trace().write_to(&mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("{ this is not a record }\n");
        let err = WorkloadTrace::read_from(Cursor::new(text)).unwrap_err();
        match err {
            TraceError::Malformed { line, .. } => assert_eq!(line, 5),
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn replay_source_extracts_per_session_sequences() {
        let t = sample_trace();
        assert_eq!(t.sessions(), vec![0, 1]);
        let s0 = t.replay_source(0).unwrap();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0.steps()[0].inter_arrival, Seconds(0.1 + 0.2));
        let s1 = t.replay_source(1).unwrap();
        assert_eq!(s1.len(), 1);
        assert!(matches!(t.replay_source(99), Err(TraceError::Empty)));
    }

    #[test]
    fn source_validation_rejects_degenerate_steps() {
        assert!(TraceSource::new("e", vec![]).validate().is_err());
        let bad_period = TraceSource::new(
            "b",
            vec![TraceStep {
                inter_arrival: Seconds(0.0),
                scale: 1.0,
            }],
        );
        assert!(bad_period.validate().is_err());
        let bad_scale = TraceSource::new(
            "b",
            vec![TraceStep {
                inter_arrival: Seconds(0.1),
                scale: f64::NAN,
            }],
        );
        assert!(bad_scale.validate().is_err());
        let ok = TraceSource::new(
            "ok",
            vec![TraceStep {
                inter_arrival: Seconds(0.1),
                scale: 1.0,
            }],
        );
        assert!(ok.validate().is_ok());
    }

    fn steps(periods: &[f64]) -> TraceSource {
        TraceSource::new(
            "fit",
            periods
                .iter()
                .enumerate()
                .map(|(i, &p)| TraceStep {
                    inter_arrival: Seconds(p),
                    scale: 1.0 + i as f64,
                })
                .collect(),
        )
    }

    #[test]
    fn fit_modes_are_identity_when_lengths_match() {
        let src = steps(&[0.1, 0.25, 0.4]);
        for fit in [TraceFit::Loop, TraceFit::Truncate, TraceFit::Stretch] {
            src.check_horizon(3, fit).unwrap();
            for i in 0..3 {
                let s = src.step(i, 3, fit);
                assert_eq!(
                    s.inter_arrival.get().to_bits(),
                    src.steps()[i].inter_arrival.get().to_bits(),
                    "{fit} step {i}"
                );
                assert_eq!(s.scale.to_bits(), src.steps()[i].scale.to_bits());
            }
        }
    }

    #[test]
    fn loop_fit_wraps_short_traces() {
        let src = steps(&[0.1, 0.2]);
        src.check_horizon(5, TraceFit::Loop).unwrap();
        let got: Vec<f64> = (0..5)
            .map(|i| src.step(i, 5, TraceFit::Loop).inter_arrival.get())
            .collect();
        assert_eq!(got, vec![0.1, 0.2, 0.1, 0.2, 0.1]);
    }

    #[test]
    fn truncate_fit_requires_coverage_and_cuts_long_traces() {
        let src = steps(&[0.1, 0.2]);
        assert!(src.check_horizon(3, TraceFit::Truncate).is_err());
        assert!(src.check_horizon(2, TraceFit::Truncate).is_ok());
        // A longer trace is cut: horizon 1 replays only step 0.
        assert!(src.check_horizon(1, TraceFit::Truncate).is_ok());
        assert_eq!(
            src.step(0, 1, TraceFit::Truncate).inter_arrival,
            Seconds(0.1)
        );
    }

    #[test]
    fn stretch_fit_resamples_and_conserves_duration() {
        // 2 steps over a 4-input horizon: each step replayed twice at
        // half its inter-arrival — same total duration.
        let src = steps(&[0.4, 0.8]);
        src.check_horizon(4, TraceFit::Stretch).unwrap();
        let got: Vec<f64> = (0..4)
            .map(|i| src.step(i, 4, TraceFit::Stretch).inter_arrival.get())
            .collect();
        assert_eq!(got, vec![0.2, 0.2, 0.4, 0.4]);
        let total: f64 = got.iter().sum();
        assert!((total - 1.2).abs() < 1e-12);
        // And the other direction: 4 inputs squeezed onto 2 replays the
        // trace at double speed... i.e. 2-input horizon from 4 steps.
        let long = steps(&[0.1, 0.2, 0.3, 0.4]);
        let got: Vec<f64> = (0..2)
            .map(|i| long.step(i, 2, TraceFit::Stretch).inter_arrival.get())
            .collect();
        assert_eq!(got, vec![0.2, 0.6]);
    }

    #[test]
    fn header_serde_shapes() {
        let h = TraceHeader::new("src", None);
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.contains("\"alert-trace\""));
        let back: TraceHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
