//! The scenario-script DSL: declarative, composable dynamic environments.
//!
//! ALERT's headline claim is robustness under *changing* conditions —
//! co-runner contention, power-cap changes, and goal changes mid-stream
//! (paper §5, Table 3, Fig. 9). A [`ScenarioScript`] describes such an
//! environment as a **timeline of events** over one serving episode:
//!
//! * [`ScriptEvent::Contention`] — a co-runner (memory or compute) with
//!   its own on/off [`PhaseSchedule`]; any number compose, including both
//!   kinds at once (compound stress).
//! * [`ScriptEvent::CapStep`] — from a timeline mark onward, the platform
//!   enforces a power-cap ceiling (a fraction of the feasible cap range;
//!   `1.0` restores the full range). Schedulers are *not* told — they
//!   observe the slowdown, exactly as on real hardware under RAPL.
//! * [`ScriptEvent::GoalChange`] — the user's requirement changes
//!   mid-stream: deadlines tighten or relax (a scale on the base
//!   deadline), quality floors move, energy budgets scale.
//! * [`ScriptEvent::DriftRamp`] — input-distribution drift: the
//!   per-input latency scale ramps toward a peak factor (e.g. sentences
//!   growing longer), composing multiplicatively with the stream's own
//!   sampled variability.
//! * [`ScriptEvent::ArrivalChange`] — the arrival process switches
//!   (periodic → bursty → Poisson → trace replay), reshaping the
//!   dispatch grid and the idle-energy accounting windows.
//!   [`ArrivalProcess::Trace`] replays a recorded request log attached
//!   via [`ScenarioScript::with_trace`]: each input's inter-arrival time
//!   and latency scale come from the capture, fitted onto the horizon by
//!   a [`crate::trace::TraceFit`] mode, and every other event class
//!   (caps, goal patches, drift, contention) composes on top — recorded
//!   traffic re-run under counterfactual environments.
//! * [`ScriptEvent::Churn`] — a wave of sessions opens and closes
//!   against the serving runtime. Environment realization ignores churn
//!   (it does not touch the frozen per-input state); runtime drivers
//!   (`alert-bench --bin scenarios`) execute the waves.
//! * [`ScriptEvent::DeviceCapStep`] / [`ScriptEvent::GpuThrottle`] —
//!   heterogeneous-node events: a cap ceiling lands on one *device* of a
//!   multi-backend episode, or a GPU backend is clock-throttled a number
//!   of frequency-table levels. On single-CPU episodes both are inert
//!   (a GPU throttle has no GPU to bind to; a device-targeted cap only
//!   binds to its device), so a heterogeneous scenario can join the
//!   CPU-only matrix unchanged.
//!
//! **Timeline units.** Contention schedules are wall-clock seconds: they
//! model external co-runners with their own clocks (and keep the Fig. 9
//! scripted window bit-compatible). All other events fire at a `t` that
//! is a **fraction of the episode horizon** (`n_inputs × base deadline`,
//! clamped to `[0, 1]`), so named scenarios compose with any stream
//! length or deadline without retuning.
//!
//! **Frozen randomness.** A script is *declarative*: realizing it
//! (`alert-sched::env::EpisodeEnv::build`) draws every random quantity
//! once from seed-keyed streams and freezes it, so every scheme faces
//! bit-identical conditions and Oracle counterfactuals stay exact. The
//! script itself holds no RNG state and serializes losslessly.

use alert_platform::contention::{ContentionKind, ContentionProcess, PhaseSchedule};
use alert_stats::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::constraints::Goal;
use crate::trace::{TraceFit, TraceSource};

/// How inputs arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Fixed grid: one input per effective deadline (sensor-style
    /// periodic inputs, paper §2.1). The historical default.
    Periodic,
    /// Poisson arrivals: exponential inter-arrival times with mean
    /// `deadline / rate_scale` (`rate_scale > 1` ⇒ overload).
    Poisson {
        /// Arrival-rate multiplier over the periodic rate.
        rate_scale: f64,
    },
    /// Bursts of `burst` inputs spaced `spread × deadline` apart,
    /// followed by a gap that keeps the mean period equal to the
    /// deadline (same offered load, bursty shape).
    Bursty {
        /// Inputs per burst (≥ 1).
        burst: usize,
        /// Intra-burst spacing as a fraction of the deadline (in `(0, 1)`).
        spread: f64,
    },
    /// Replay of a recorded request log: the script's attached
    /// [`TraceSource`] ([`ScenarioScript::with_trace`]) supplies each
    /// input's inter-arrival time *and* latency scale, fitted onto the
    /// horizon by `fit`. Environment realization resolves this variant
    /// against the attachment; a bare [`ArrivalSampler`] (no trace in
    /// reach) falls back to the periodic grid.
    Trace {
        /// How a horizon/trace length mismatch is reconciled.
        fit: TraceFit,
    },
}

impl ArrivalProcess {
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::Periodic => Ok(()),
            ArrivalProcess::Poisson { rate_scale } => {
                if rate_scale.is_finite() && rate_scale > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "Poisson rate_scale must be positive, got {rate_scale}"
                    ))
                }
            }
            ArrivalProcess::Bursty { burst, spread } => {
                if burst == 0 {
                    return Err("Bursty burst must be ≥ 1".into());
                }
                if !(spread.is_finite() && spread > 0.0 && spread < 1.0) {
                    return Err(format!("Bursty spread must be in (0,1), got {spread}"));
                }
                Ok(())
            }
            // The fit mode is self-valid; the attached source is checked
            // at the script level (`ScenarioScript::validate`).
            ArrivalProcess::Trace { .. } => Ok(()),
        }
    }
}

/// Samples successive inter-arrival periods for a (possibly switching)
/// arrival process. One uniform draw `u ∈ [0, 1)` is consumed per input
/// *regardless of the process in force*, so switching the arrival shape
/// never re-aligns the other frozen random streams.
#[derive(Debug, Clone, Default)]
pub struct ArrivalSampler {
    /// Position inside the current burst cycle (`Bursty` only).
    burst_pos: usize,
}

impl ArrivalSampler {
    /// A fresh sampler at the start of an episode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the burst-cycle state. Environment realization calls this
    /// while a trace segment is in force (trace periods bypass
    /// [`ArrivalSampler::next_period`]), so a later switch back to
    /// `Bursty` starts a fresh cycle exactly as a direct `next_period`
    /// call under `Trace` would have left it.
    pub fn reset(&mut self) {
        self.burst_pos = 0;
    }

    /// The period until the next input under `process`, given the
    /// effective `deadline` and one pre-drawn uniform `u ∈ [0, 1)`.
    pub fn next_period(&mut self, process: &ArrivalProcess, deadline: Seconds, u: f64) -> Seconds {
        match *process {
            ArrivalProcess::Periodic => {
                self.burst_pos = 0;
                deadline
            }
            ArrivalProcess::Poisson { rate_scale } => {
                self.burst_pos = 0;
                let mean = deadline.get() / rate_scale;
                // Inverse-CDF; floored so dispatch time stays monotone
                // with a strictly positive step.
                Seconds((-(1.0 - u).ln() * mean).max(1e-6))
            }
            ArrivalProcess::Bursty { burst, spread } => {
                let pos = self.burst_pos % burst.max(1);
                self.burst_pos = pos + 1;
                if pos + 1 < burst {
                    deadline * spread
                } else {
                    // Close the cycle: total cycle time = burst × deadline.
                    self.burst_pos = 0;
                    deadline * (burst as f64 - spread * (burst as f64 - 1.0))
                }
            }
            // Trace replay is resolved by environment realization against
            // the script's attached source; a bare sampler degrades to
            // the periodic grid.
            ArrivalProcess::Trace { .. } => {
                self.burst_pos = 0;
                deadline
            }
        }
    }
}

/// A family's achievable quality range, used to resolve *relative*
/// quality-floor patches ([`GoalPatch::min_quality_frac`]): fraction `f`
/// maps to `lo + f × (hi − lo)`. Image-quality families span roughly
/// `[0.85, 0.94]` while sentence prediction scores negative
/// perplexities, so named scenarios express floors as range fractions
/// and stay family-generic (see
/// `alert_workload::constraints::quality_span`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualitySpan {
    /// Quality of the least accurate candidate.
    pub lo: f64,
    /// Quality of the most accurate candidate.
    pub hi: f64,
}

impl QualitySpan {
    /// A span from explicit bounds (ordered on construction).
    pub fn new(lo: f64, hi: f64) -> Self {
        QualitySpan {
            lo: lo.min(hi),
            hi: lo.max(hi),
        }
    }

    /// The absolute floor at fraction `frac` of the span.
    pub fn floor_at(&self, frac: f64) -> f64 {
        self.lo + frac * (self.hi - self.lo)
    }
}

/// A mid-stream change of the user requirement, applied to the *base*
/// goal. Patches on the timeline compose cumulatively in event order:
/// deadline/budget scales multiply, quality floors last-set-wins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoalPatch {
    /// Multiplies the deadline in force (`< 1` tightens).
    pub deadline_scale: f64,
    /// Replaces the quality floor with an absolute value
    /// (minimize-energy goals). Mutually exclusive with
    /// `min_quality_frac`.
    pub min_quality: Option<f64>,
    /// Replaces the quality floor with a *fraction* of the candidate
    /// family's achievable quality range (a [`QualitySpan`], supplied at
    /// realization), so one named scenario works across image-quality
    /// and negative-perplexity families. Mutually exclusive with
    /// `min_quality`.
    pub min_quality_frac: Option<f64>,
    /// Multiplies the energy budget in force (minimize-error goals).
    pub energy_budget_scale: Option<f64>,
}

impl Default for GoalPatch {
    /// The identity patch: nothing changes.
    fn default() -> Self {
        GoalPatch {
            deadline_scale: 1.0,
            min_quality: None,
            min_quality_frac: None,
            energy_budget_scale: None,
        }
    }
}

impl GoalPatch {
    /// A patch that only rescales the deadline.
    pub fn deadline(scale: f64) -> Self {
        GoalPatch {
            deadline_scale: scale,
            ..Default::default()
        }
    }

    /// A patch that moves the quality floor to fraction `frac` of the
    /// family's achievable range (family-generic floor raise).
    pub fn floor_frac(frac: f64) -> Self {
        GoalPatch {
            min_quality_frac: Some(frac),
            ..Default::default()
        }
    }

    /// Validates the patch fields (finite positive scales, floor forms
    /// mutually exclusive). Public so admission-time degradation
    /// ([`crate::admission`], `alert-sched::serving`) can reject a
    /// malformed degrade patch before any request consults it.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.deadline_scale.is_finite() && self.deadline_scale > 0.0) {
            return Err(format!(
                "goal deadline_scale must be positive, got {}",
                self.deadline_scale
            ));
        }
        if let Some(s) = self.energy_budget_scale {
            if !(s.is_finite() && s > 0.0) {
                return Err(format!(
                    "goal energy_budget_scale must be positive, got {s}"
                ));
            }
        }
        if let Some(q) = self.min_quality {
            if !q.is_finite() {
                return Err(format!("goal min_quality must be finite, got {q}"));
            }
        }
        if let Some(f) = self.min_quality_frac {
            if !(f.is_finite() && (0.0..=1.0).contains(&f)) {
                return Err(format!("goal min_quality_frac must be in [0,1], got {f}"));
            }
            if self.min_quality.is_some() {
                return Err(
                    "goal patch sets both min_quality and min_quality_frac; pick one".into(),
                );
            }
        }
        Ok(())
    }

    /// Applies the patch to `goal` in place. Relative quality floors
    /// ([`GoalPatch::min_quality_frac`]) resolve against `span` when
    /// supplied and are otherwise ignored. Public so the serving
    /// front-end can degrade a request's goal at admission time with
    /// the exact semantics scripted mid-stream goal changes use — the
    /// patched goal is then the *effective* goal the episode records
    /// and is judged against.
    pub fn apply(&self, goal: &mut Goal, span: Option<QualitySpan>) {
        goal.deadline = goal.deadline * self.deadline_scale;
        if let Some(q) = self.min_quality {
            goal.min_quality = Some(q);
        }
        if let (Some(f), Some(s)) = (self.min_quality_frac, span) {
            goal.min_quality = Some(s.floor_at(f));
        }
        if let (Some(s), Some(b)) = (self.energy_budget_scale, goal.energy_budget) {
            goal.energy_budget = Some(b * s);
        }
    }
}

/// One timeline event of a [`ScenarioScript`].
///
/// `at`/`from`/`to` marks are fractions of the episode horizon (see the
/// module docs); contention schedules are wall-clock seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScriptEvent {
    /// A co-located job with its own activity schedule.
    Contention {
        /// What the co-runner stresses.
        kind: ContentionKind,
        /// When it is active (wall-clock seconds).
        schedule: PhaseSchedule,
    },
    /// From `at` onward the platform enforces a cap ceiling at `frac` of
    /// the feasible cap range (`0` = minimum cap, `1` = unrestricted).
    /// Later steps replace earlier ones.
    CapStep {
        /// Horizon fraction at which the step lands.
        at: f64,
        /// Ceiling position within the feasible cap range.
        frac: f64,
    },
    /// From `at` onward the requirement changes by `patch` (cumulative
    /// with earlier goal changes).
    GoalChange {
        /// Horizon fraction at which the requirement changes.
        at: f64,
        /// The change.
        patch: GoalPatch,
    },
    /// The per-input latency scale ramps linearly from 1 at `from` to
    /// `peak` at `to`, holding `peak` afterwards. Multiple ramps compose
    /// multiplicatively.
    DriftRamp {
        /// Horizon fraction where the ramp starts.
        from: f64,
        /// Horizon fraction where the ramp reaches `peak`.
        to: f64,
        /// Latency-scale factor at the top of the ramp.
        peak: f64,
    },
    /// From `at` onward inputs arrive under `process`.
    ArrivalChange {
        /// Horizon fraction at which the arrival process switches.
        at: f64,
        /// The new arrival process.
        process: ArrivalProcess,
    },
    /// At `at`, a runtime driver opens `open` and closes `close`
    /// background sessions (ignored by environment realization).
    Churn {
        /// Horizon fraction of the wave.
        at: f64,
        /// Sessions to open.
        open: usize,
        /// Sessions to close.
        close: usize,
    },
    /// From `at` onward, device `device` of a heterogeneous node
    /// enforces a cap ceiling at `frac` of *that device's* feasible cap
    /// range. The global [`ScriptEvent::CapStep`] keeps its historical
    /// meaning (device 0); on a targeted device the two compose by
    /// minimum. Later steps on the same device replace earlier ones.
    DeviceCapStep {
        /// Horizon fraction at which the step lands.
        at: f64,
        /// Device index within the episode's backend list.
        device: usize,
        /// Ceiling position within the device's feasible cap range.
        frac: f64,
    },
    /// From `at` onward a GPU backend is clock-throttled `steps` levels
    /// below its top frequency-table entry (an external thermal or
    /// driver throttle). Realization maps the step count onto the
    /// board-power ceiling of the throttled table level; non-GPU
    /// backends ignore the event. Later throttles replace earlier ones;
    /// `steps = 0` restores the full clock.
    GpuThrottle {
        /// Horizon fraction at which the throttle lands.
        at: f64,
        /// Clock levels below the top of the GPU frequency table
        /// (saturating at the slowest level).
        steps: usize,
    },
}

/// A declarative scripted environment: an initial arrival process plus a
/// timeline of [`ScriptEvent`]s. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioScript {
    /// Arrival process in force at the start of the episode.
    pub arrival: ArrivalProcess,
    /// Timeline events, in any order (queries sort by mark internally
    /// where order matters).
    pub events: Vec<ScriptEvent>,
    /// The recorded request log replayed by any
    /// [`ArrivalProcess::Trace`] arrival on this script (initial or via
    /// [`ScriptEvent::ArrivalChange`]); validation requires it whenever
    /// the script replays a trace. `None` for synthetic scripts.
    pub trace: Option<TraceSource>,
}

impl Default for ScenarioScript {
    /// The quiescent script: periodic arrivals, no events — the paper's
    /// "Default" environment.
    fn default() -> Self {
        ScenarioScript {
            arrival: ArrivalProcess::Periodic,
            events: Vec::new(),
            trace: None,
        }
    }
}

fn frac_ok(t: f64) -> bool {
    t.is_finite() && (0.0..=1.0).contains(&t)
}

impl ScenarioScript {
    /// A quiescent script (periodic arrivals, empty timeline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (builder-style).
    pub fn with(mut self, event: ScriptEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Sets the initial arrival process (builder-style).
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Attaches the recorded request log replayed by
    /// [`ArrivalProcess::Trace`] arrivals (builder-style).
    pub fn with_trace(mut self, trace: TraceSource) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The attached replay source, if any.
    pub fn trace(&self) -> Option<&TraceSource> {
        self.trace.as_ref()
    }

    /// Every trace fit mode the script's arrival timeline can put in
    /// force (initial arrival plus `ArrivalChange` events), deduplicated.
    pub fn trace_fits(&self) -> Vec<TraceFit> {
        let mut out: Vec<TraceFit> = Vec::new();
        let mut push = |p: &ArrivalProcess| {
            if let ArrivalProcess::Trace { fit } = p {
                if !out.contains(fit) {
                    out.push(*fit);
                }
            }
        };
        push(&self.arrival);
        for e in &self.events {
            if let ScriptEvent::ArrivalChange { process, .. } = e {
                push(process);
            }
        }
        out
    }

    /// `true` when any arrival on the timeline replays a trace.
    pub fn uses_trace(&self) -> bool {
        !self.trace_fits().is_empty()
    }

    /// `true` when any goal change moves the quality floor *relative* to
    /// the family range — such scripts need a [`QualitySpan`] at
    /// realization.
    pub fn uses_relative_floor(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                ScriptEvent::GoalChange { patch, .. } if patch.min_quality_frac.is_some()
            )
        })
    }

    /// Validates the whole script; realization refuses invalid scripts.
    pub fn validate(&self) -> Result<(), String> {
        self.arrival.validate()?;
        if let Some(trace) = &self.trace {
            trace.validate()?;
        }
        if self.uses_trace() && self.trace.is_none() {
            return Err("script replays a trace arrival but no trace is attached \
                 (ScenarioScript::with_trace)"
                .into());
        }
        for (i, e) in self.events.iter().enumerate() {
            let res = match e {
                ScriptEvent::Contention { schedule, .. } => match schedule {
                    PhaseSchedule::Windows(ws) => ws
                        .iter()
                        .all(|(s, t)| s.is_finite() && t.is_finite() && s <= t)
                        .then_some(())
                        .ok_or_else(|| "contention windows must satisfy start ≤ end".to_string()),
                    PhaseSchedule::Random { on, off, .. } => {
                        let ok = |(lo, hi): &(Seconds, Seconds)| {
                            lo.is_finite() && hi.is_finite() && lo.get() > 0.0 && lo <= hi
                        };
                        (ok(on) && ok(off)).then_some(()).ok_or_else(|| {
                            "random phase ranges must be positive and ordered".to_string()
                        })
                    }
                    _ => Ok(()),
                },
                ScriptEvent::CapStep { at, frac } => (frac_ok(*at) && frac_ok(*frac))
                    .then_some(())
                    .ok_or_else(|| format!("cap step needs at/frac in [0,1], got {at}/{frac}")),
                ScriptEvent::GoalChange { at, patch } => {
                    if !frac_ok(*at) {
                        Err(format!("goal change mark must be in [0,1], got {at}"))
                    } else {
                        patch.validate()
                    }
                }
                ScriptEvent::DriftRamp { from, to, peak } => {
                    if !(frac_ok(*from) && frac_ok(*to) && from <= to) {
                        Err(format!(
                            "drift ramp needs 0 ≤ from ≤ to ≤ 1, got {from}..{to}"
                        ))
                    } else if !(peak.is_finite() && *peak >= 0.05) {
                        Err(format!("drift peak must be ≥ 0.05, got {peak}"))
                    } else {
                        Ok(())
                    }
                }
                ScriptEvent::ArrivalChange { at, process } => {
                    if !frac_ok(*at) {
                        Err(format!("arrival change mark must be in [0,1], got {at}"))
                    } else {
                        process.validate()
                    }
                }
                ScriptEvent::Churn { at, .. } => frac_ok(*at)
                    .then_some(())
                    .ok_or_else(|| format!("churn mark must be in [0,1], got {at}")),
                ScriptEvent::DeviceCapStep { at, frac, .. } => (frac_ok(*at) && frac_ok(*frac))
                    .then_some(())
                    .ok_or_else(|| {
                        format!("device cap step needs at/frac in [0,1], got {at}/{frac}")
                    }),
                ScriptEvent::GpuThrottle { at, .. } => frac_ok(*at)
                    .then_some(())
                    .ok_or_else(|| format!("gpu throttle mark must be in [0,1], got {at}")),
            };
            res.map_err(|msg| format!("event {i}: {msg}"))?;
        }
        Ok(())
    }

    /// Instantiates one stateful activity process per contention event
    /// (queried monotonically by environment realization).
    pub fn contention_processes(&self) -> Vec<(ContentionKind, ContentionProcess)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ScriptEvent::Contention { kind, schedule } => {
                    Some((*kind, ContentionProcess::new(schedule.clone())))
                }
                _ => None,
            })
            .collect()
    }

    /// The contention kinds the script ever activates (deduplicated, in
    /// first-appearance order).
    pub fn contention_kinds(&self) -> Vec<ContentionKind> {
        let mut out: Vec<ContentionKind> = Vec::new();
        for e in &self.events {
            if let ScriptEvent::Contention { kind, .. } = e {
                if !out.contains(kind) {
                    out.push(*kind);
                }
            }
        }
        out
    }

    /// The requirement in force at horizon fraction `t`: every goal
    /// change at or before `t`, applied to `base` in mark order.
    /// Relative floor patches resolve against `span`; without one they
    /// leave the floor untouched (realization refuses that combination
    /// up front, so it only arises in direct queries).
    pub fn goal_at(&self, t: f64, base: &Goal, span: Option<QualitySpan>) -> Goal {
        let mut changes: Vec<(f64, &GoalPatch)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ScriptEvent::GoalChange { at, patch } if *at <= t => Some((*at, patch)),
                _ => None,
            })
            .collect();
        changes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut goal = *base;
        for (_, patch) in changes {
            patch.apply(&mut goal, span);
        }
        goal
    }

    /// The cap ceiling in force at horizon fraction `t`, as a fraction of
    /// the feasible cap range, or `None` when unrestricted.
    pub fn cap_frac_at(&self, t: f64) -> Option<f64> {
        let mut best: Option<(f64, f64)> = None; // (mark, frac)
        for e in &self.events {
            if let ScriptEvent::CapStep { at, frac } = e {
                if *at <= t && best.is_none_or(|(m, _)| *at >= m) {
                    best = Some((*at, *frac));
                }
            }
        }
        match best {
            Some((_, frac)) if frac < 1.0 => Some(frac),
            _ => None,
        }
    }

    /// The cap ceiling in force at horizon fraction `t` for device `d` of
    /// a heterogeneous node, as a fraction of that device's cap range, or
    /// `None` when no [`ScriptEvent::DeviceCapStep`] binds there. The
    /// global [`ScenarioScript::cap_frac_at`] is queried separately by
    /// realization (it applies to device 0 only).
    pub fn device_cap_frac_at(&self, t: f64, d: usize) -> Option<f64> {
        let mut best: Option<(f64, f64)> = None; // (mark, frac)
        for e in &self.events {
            if let ScriptEvent::DeviceCapStep { at, device, frac } = e {
                if *device == d && *at <= t && best.is_none_or(|(m, _)| *at >= m) {
                    best = Some((*at, *frac));
                }
            }
        }
        match best {
            Some((_, frac)) if frac < 1.0 => Some(frac),
            _ => None,
        }
    }

    /// The GPU clock-throttle depth in force at horizon fraction `t`
    /// (levels below the top of the frequency table), or `None` when the
    /// clock is unrestricted. Last throttle wins; `steps = 0` restores.
    pub fn gpu_throttle_at(&self, t: f64) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for e in &self.events {
            if let ScriptEvent::GpuThrottle { at, steps } = e {
                if *at <= t && best.is_none_or(|(m, _)| *at >= m) {
                    best = Some((*at, *steps));
                }
            }
        }
        match best {
            Some((_, steps)) if steps > 0 => Some(steps),
            _ => None,
        }
    }

    /// The input-distribution drift factor at horizon fraction `t`
    /// (product over all ramps).
    pub fn drift_at(&self, t: f64) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let ScriptEvent::DriftRamp { from, to, peak } = e {
                f *= if t <= *from {
                    1.0
                } else if t >= *to {
                    *peak
                } else {
                    1.0 + (peak - 1.0) * (t - from) / (to - from)
                };
            }
        }
        f
    }

    /// The arrival process in force at horizon fraction `t`.
    pub fn arrival_at(&self, t: f64) -> ArrivalProcess {
        let mut best: Option<(f64, ArrivalProcess)> = None;
        for e in &self.events {
            if let ScriptEvent::ArrivalChange { at, process } = e {
                if *at <= t && best.is_none_or(|(m, _)| *at >= m) {
                    best = Some((*at, *process));
                }
            }
        }
        best.map_or(self.arrival, |(_, p)| p)
    }

    /// The churn waves on the timeline, ascending by mark:
    /// `(mark, open, close)`.
    pub fn churn_waves(&self) -> Vec<(f64, usize, usize)> {
        let mut waves: Vec<(f64, usize, usize)> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ScriptEvent::Churn { at, open, close } => Some((*at, *open, *close)),
                _ => None,
            })
            .collect();
        waves.sort_by(|a, b| a.0.total_cmp(&b.0));
        waves
    }

    /// `true` when the script never perturbs anything (the "Default"
    /// environment).
    pub fn is_quiescent(&self) -> bool {
        self.events.is_empty() && self.arrival == ArrivalProcess::Periodic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::Joules;

    fn base_goal() -> Goal {
        Goal::minimize_energy(Seconds(0.4), 0.9)
    }

    #[test]
    fn default_script_is_quiescent() {
        let s = ScenarioScript::default();
        assert!(s.is_quiescent());
        assert!(s.validate().is_ok());
        assert_eq!(s.goal_at(0.5, &base_goal(), None), base_goal());
        assert_eq!(s.cap_frac_at(0.5), None);
        assert_eq!(s.drift_at(0.5), 1.0);
        assert_eq!(s.arrival_at(0.9), ArrivalProcess::Periodic);
        assert!(s.churn_waves().is_empty());
        assert!(!s.uses_trace());
        assert!(!s.uses_relative_floor());
    }

    #[test]
    fn goal_changes_compose_in_mark_order() {
        let s = ScenarioScript::new()
            .with(ScriptEvent::GoalChange {
                at: 0.6,
                patch: GoalPatch::deadline(2.0),
            })
            .with(ScriptEvent::GoalChange {
                at: 0.3,
                patch: GoalPatch::deadline(0.5),
            });
        assert!(s.validate().is_ok());
        assert_eq!(s.goal_at(0.0, &base_goal(), None).deadline, Seconds(0.4));
        assert_eq!(s.goal_at(0.4, &base_goal(), None).deadline, Seconds(0.2));
        // 0.4 × 0.5 × 2.0 — cumulative, independent of event-list order.
        assert!((s.goal_at(1.0, &base_goal(), None).deadline.get() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn goal_patch_moves_floor_and_budget() {
        let s = ScenarioScript::new().with(ScriptEvent::GoalChange {
            at: 0.5,
            patch: GoalPatch {
                min_quality: Some(0.95),
                energy_budget_scale: Some(0.5),
                ..Default::default()
            },
        });
        let g = s.goal_at(0.7, &base_goal(), None);
        assert_eq!(g.min_quality, Some(0.95));
        let err_goal = Goal::minimize_error(Seconds(0.4), Joules(10.0));
        let g = s.goal_at(0.7, &err_goal, None);
        assert_eq!(g.energy_budget, Some(Joules(5.0)));
    }

    #[test]
    fn relative_floor_resolves_against_the_family_span() {
        let s = ScenarioScript::new().with(ScriptEvent::GoalChange {
            at: 0.5,
            patch: GoalPatch::floor_frac(0.75),
        });
        assert!(s.validate().is_ok());
        assert!(s.uses_relative_floor());
        // An image-quality span and a negative-perplexity span both
        // resolve inside their own range — the same named scenario works
        // for either family.
        let image = QualitySpan::new(0.855, 0.935);
        let g = s.goal_at(0.7, &base_goal(), Some(image));
        assert!((g.min_quality.unwrap() - 0.915).abs() < 1e-12);
        let nlp = QualitySpan::new(-160.0, -120.0);
        let g = s.goal_at(0.7, &base_goal(), Some(nlp));
        assert!((g.min_quality.unwrap() - -130.0).abs() < 1e-12);
        // Without a span the relative patch leaves the floor untouched.
        let g = s.goal_at(0.7, &base_goal(), None);
        assert_eq!(g.min_quality, base_goal().min_quality);
        // Before the mark, nothing changes even with a span.
        let g = s.goal_at(0.3, &base_goal(), Some(image));
        assert_eq!(g.min_quality, base_goal().min_quality);
    }

    #[test]
    fn relative_floor_validation() {
        let out_of_range = ScenarioScript::new().with(ScriptEvent::GoalChange {
            at: 0.5,
            patch: GoalPatch::floor_frac(1.5),
        });
        assert!(out_of_range.validate().is_err());
        let both = ScenarioScript::new().with(ScriptEvent::GoalChange {
            at: 0.5,
            patch: GoalPatch {
                min_quality: Some(0.9),
                min_quality_frac: Some(0.5),
                ..Default::default()
            },
        });
        assert!(both.validate().is_err());
    }

    #[test]
    fn trace_arrivals_require_an_attached_source() {
        use crate::trace::{TraceFit, TraceSource, TraceStep};
        let bare = ScenarioScript::new().with_arrival(ArrivalProcess::Trace {
            fit: TraceFit::Loop,
        });
        assert!(bare.uses_trace());
        assert!(bare.validate().is_err(), "no source attached");
        let source = TraceSource::new(
            "t",
            vec![TraceStep {
                inter_arrival: Seconds(0.3),
                scale: 1.1,
            }],
        );
        let attached = bare.with_trace(source.clone());
        assert!(attached.validate().is_ok());
        assert_eq!(attached.trace_fits(), vec![TraceFit::Loop]);
        // A mid-stream switch to trace replay is also detected.
        let switched = ScenarioScript::new()
            .with(ScriptEvent::ArrivalChange {
                at: 0.5,
                process: ArrivalProcess::Trace {
                    fit: TraceFit::Stretch,
                },
            })
            .with_trace(source);
        assert!(switched.validate().is_ok());
        assert_eq!(switched.trace_fits(), vec![TraceFit::Stretch]);
        // An attached but degenerate source is rejected outright.
        let empty = ScenarioScript::new().with_trace(TraceSource::new("e", vec![]));
        assert!(empty.validate().is_err());
    }

    #[test]
    fn cap_steps_last_one_wins_and_one_restores() {
        let s = ScenarioScript::new()
            .with(ScriptEvent::CapStep { at: 0.2, frac: 0.3 })
            .with(ScriptEvent::CapStep { at: 0.6, frac: 1.0 });
        assert_eq!(s.cap_frac_at(0.1), None);
        assert_eq!(s.cap_frac_at(0.4), Some(0.3));
        assert_eq!(s.cap_frac_at(0.8), None, "frac 1.0 restores");
    }

    #[test]
    fn device_cap_steps_bind_per_device_and_last_one_wins() {
        let s = ScenarioScript::new()
            .with(ScriptEvent::DeviceCapStep {
                at: 0.2,
                device: 1,
                frac: 0.4,
            })
            .with(ScriptEvent::DeviceCapStep {
                at: 0.6,
                device: 1,
                frac: 1.0,
            })
            .with(ScriptEvent::DeviceCapStep {
                at: 0.3,
                device: 0,
                frac: 0.5,
            });
        assert!(s.validate().is_ok());
        assert_eq!(s.device_cap_frac_at(0.1, 1), None);
        assert_eq!(s.device_cap_frac_at(0.4, 1), Some(0.4));
        assert_eq!(s.device_cap_frac_at(0.8, 1), None, "frac 1.0 restores");
        // Device targeting is exact: device 0's step never leaks to 1.
        assert_eq!(s.device_cap_frac_at(0.4, 0), Some(0.5));
        assert_eq!(s.device_cap_frac_at(0.4, 2), None);
        // The global cap query ignores device-targeted steps entirely.
        assert_eq!(s.cap_frac_at(0.4), None);
    }

    #[test]
    fn gpu_throttle_last_one_wins_and_zero_restores() {
        let s = ScenarioScript::new()
            .with(ScriptEvent::GpuThrottle { at: 0.3, steps: 8 })
            .with(ScriptEvent::GpuThrottle { at: 0.7, steps: 0 });
        assert!(s.validate().is_ok());
        assert_eq!(s.gpu_throttle_at(0.1), None);
        assert_eq!(s.gpu_throttle_at(0.5), Some(8));
        assert_eq!(s.gpu_throttle_at(0.9), None, "steps 0 restores");
    }

    #[test]
    fn device_events_validate_marks() {
        let bad_mark = ScenarioScript::new().with(ScriptEvent::DeviceCapStep {
            at: 1.5,
            device: 1,
            frac: 0.5,
        });
        assert!(bad_mark.validate().is_err());
        let bad_frac = ScenarioScript::new().with(ScriptEvent::DeviceCapStep {
            at: 0.5,
            device: 1,
            frac: -0.1,
        });
        assert!(bad_frac.validate().is_err());
        let bad_throttle = ScenarioScript::new().with(ScriptEvent::GpuThrottle {
            at: f64::NAN,
            steps: 2,
        });
        assert!(bad_throttle.validate().is_err());
    }

    #[test]
    fn drift_ramps_interpolate_and_hold() {
        let s = ScenarioScript::new().with(ScriptEvent::DriftRamp {
            from: 0.2,
            to: 0.6,
            peak: 2.0,
        });
        assert_eq!(s.drift_at(0.1), 1.0);
        assert!((s.drift_at(0.4) - 1.5).abs() < 1e-12);
        assert_eq!(s.drift_at(0.9), 2.0);
    }

    #[test]
    fn arrival_switches_at_marks() {
        let burst = ArrivalProcess::Bursty {
            burst: 4,
            spread: 0.25,
        };
        let s = ScenarioScript::new().with(ScriptEvent::ArrivalChange {
            at: 0.5,
            process: burst,
        });
        assert_eq!(s.arrival_at(0.4), ArrivalProcess::Periodic);
        assert_eq!(s.arrival_at(0.6), burst);
    }

    #[test]
    fn bursty_sampler_conserves_mean_load() {
        let mut sampler = ArrivalSampler::new();
        let p = ArrivalProcess::Bursty {
            burst: 4,
            spread: 0.25,
        };
        let d = Seconds(0.4);
        let total: f64 = (0..8).map(|_| sampler.next_period(&p, d, 0.0).get()).sum();
        // Two full cycles of 4 inputs each average one deadline per input.
        assert!((total - 8.0 * 0.4).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn poisson_sampler_is_positive_and_mean_matches() {
        let mut sampler = ArrivalSampler::new();
        let p = ArrivalProcess::Poisson { rate_scale: 2.0 };
        let d = Seconds(0.4);
        let mut rng = alert_stats::rng::stream_rng(7, "arrival-test");
        use rand::Rng;
        let n = 4000;
        let mut total = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen_range(0.0..1.0);
            let period = sampler.next_period(&p, d, u);
            assert!(period.get() > 0.0);
            total += period.get();
        }
        let mean = total / n as f64;
        assert!((mean - 0.2).abs() < 0.02, "mean inter-arrival {mean}");
    }

    #[test]
    fn validation_rejects_bad_events() {
        let bad = [
            ScenarioScript::new().with(ScriptEvent::CapStep { at: 1.5, frac: 0.5 }),
            ScenarioScript::new().with(ScriptEvent::CapStep {
                at: 0.5,
                frac: -0.1,
            }),
            ScenarioScript::new().with(ScriptEvent::GoalChange {
                at: 0.5,
                patch: GoalPatch::deadline(0.0),
            }),
            ScenarioScript::new().with(ScriptEvent::DriftRamp {
                from: 0.8,
                to: 0.2,
                peak: 1.5,
            }),
            ScenarioScript::new().with(ScriptEvent::ArrivalChange {
                at: 0.5,
                process: ArrivalProcess::Bursty {
                    burst: 0,
                    spread: 0.5,
                },
            }),
            ScenarioScript::new().with_arrival(ArrivalProcess::Poisson { rate_scale: -1.0 }),
        ];
        for s in bad {
            assert!(s.validate().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn serde_roundtrip_is_bit_exact() {
        let s = ScenarioScript::new()
            .with_arrival(ArrivalProcess::Poisson { rate_scale: 1.25 })
            .with(ScriptEvent::Contention {
                kind: ContentionKind::Memory,
                schedule: PhaseSchedule::Random {
                    on: (Seconds(8.0), Seconds(20.0)),
                    off: (Seconds(6.0), Seconds(16.0)),
                    seed: 11,
                },
            })
            .with(ScriptEvent::CapStep {
                at: 0.25,
                frac: 0.3,
            })
            .with(ScriptEvent::GoalChange {
                at: 0.5,
                patch: GoalPatch {
                    deadline_scale: 0.6,
                    min_quality: Some(0.92),
                    min_quality_frac: None,
                    energy_budget_scale: Some(0.8),
                },
            })
            .with(ScriptEvent::DriftRamp {
                from: 0.2,
                to: 0.8,
                peak: 1.7,
            })
            .with(ScriptEvent::Churn {
                at: 0.5,
                open: 4,
                close: 2,
            });
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioScript = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // Bit-exactness of the floats, not just PartialEq.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}
