//! Episode environment realization.
//!
//! Before an episode runs, every random quantity is drawn once and frozen:
//! per-input latency scale (from the task's input stream, times any
//! scripted drift), baseline noise primitives, contention primitives for
//! *both* co-runner kinds, arrival jitter, and the co-runners' on/off
//! activity at each dispatch time. The scripted deterministic quantities
//! — the requirement (goal) in force, the enforced power-cap ceiling, the
//! arrival process — are resolved per input at build time too. Freezing
//! buys two things the paper's methodology needs:
//!
//! * every scheme in a comparison faces *bit-identical* conditions, and
//! * the Oracle schemes can evaluate **counterfactual** configurations
//!   exactly — "perfect predictions for every input under every DNN/power
//!   setting" (§5.1) — because the environment's effect on any (model,
//!   cap) pair is a deterministic function of the frozen draws.
//!
//! The dispatch grid is computed **once per scenario**, independent of
//! any scheme's processing latencies (sensor-style arrivals, §2.1), so
//! the co-runner activity pattern, the goal timeline and the cap
//! timeline are identical across schemes — including through cap/goal
//! phase boundaries.
//!
//! # Nodes
//!
//! [`EpisodeEnv::build`] realizes the episode on a node: a device list
//! with device `0` first. Every random draw is shared across devices —
//! the frozen per-input state is platform-independent — so a placement
//! decision is a pure counterfactual: the Oracle can ask "what if this
//! input had run on the GPU" and get the exact answer from the same
//! draws. Only the scripted cap timeline is per-device: a
//! [`ScriptEvent::DeviceCapStep`](alert_workload::ScriptEvent) binds to
//! one device, a
//! [`ScriptEvent::GpuThrottle`](alert_workload::ScriptEvent) binds to
//! every GPU backend by mapping clock steps onto that board's power
//! ceiling, and a [`ScriptEvent::CapStep`](alert_workload::ScriptEvent)
//! keeps its device-0 meaning. The `*_on` methods
//! ([`EpisodeEnv::realize_on`] etc.) take the device index; a
//! single-platform episode is the one-device node.

use alert_models::inference::{self, InferenceResult, StopPolicy};
use alert_models::ModelProfile;
use alert_platform::contention::{ContentionDraws, ContentionKind};
use alert_platform::error::PowerError;
use alert_platform::platform::{FreqResponse, NoiseDraws, PlatformId};
use alert_platform::{PeriodEnergy, Platform};
use alert_stats::rng::stream_rng;
use alert_stats::units::{Joules, Seconds, Watts};
use alert_workload::{
    ArrivalProcess, ArrivalSampler, Goal, InputStream, QualitySpan, Scenario, ScenarioScript,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Environment-path errors: invalid scenario scripts at build time,
/// infeasible power requests at realize time.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvError {
    /// The scenario script failed validation (see message).
    Script(String),
    /// A requested power cap was infeasible for the platform.
    Power(PowerError),
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::Script(msg) => write!(f, "invalid scenario script: {msg}"),
            EnvError::Power(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EnvError {}

impl From<PowerError> for EnvError {
    fn from(e: PowerError) -> Self {
        EnvError::Power(e)
    }
}

/// The frozen state of one input: random draws plus the scripted
/// deterministic conditions in force at its dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvRealization {
    /// When this input arrives (scenario-defined grid).
    pub dispatch_time: Seconds,
    /// Period until the next input (idle-energy accounting window).
    pub period: Seconds,
    /// Task-dependent per-input latency scale (stream sample × drift).
    pub scale: f64,
    /// The requirement in force at dispatch (base goal + scripted
    /// changes).
    pub goal: Goal,
    /// Whether a memory co-runner is active at dispatch.
    pub mem_active: bool,
    /// Whether a compute co-runner is active at dispatch.
    pub cmp_active: bool,
    /// Memory-contention randomness primitives.
    pub mem_draws: ContentionDraws,
    /// Compute-contention randomness primitives.
    pub cmp_draws: ContentionDraws,
    /// Baseline-noise randomness primitives.
    pub noise: NoiseDraws,
}

impl EnvRealization {
    /// Whether any co-runner is active at dispatch.
    pub fn contention_active(&self) -> bool {
        self.mem_active || self.cmp_active
    }
}

/// A fully realized episode environment. Two environments compare
/// equal when every device, every frozen per-input state and every
/// device's cap timeline match, which is what "a rebuild is
/// bit-identical" means.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeEnv {
    /// The node's devices, device `0` first; never empty.
    node: Vec<Platform>,
    kind: Option<ContentionKind>,
    realizations: Vec<EnvRealization>,
    /// Per-input scripted cap ceilings, indexed `[device][input]`.
    cap_limits: Vec<Vec<Option<Watts>>>,
}

/// The scripted cap ceiling in force for `device` on `platform` at
/// horizon fraction `frac`: on device 0 the global
/// [`ScenarioScript::cap_frac_at`] step (its historical meaning),
/// composed (by `min`) with a device-targeted cap step and, on a GPU
/// backend, a clock throttle.
fn scripted_limit(
    script: &ScenarioScript,
    frac: f64,
    device: usize,
    platform: &Platform,
) -> Option<Watts> {
    let range = platform.cap_range();
    let (lo, hi) = (range.min(), range.max());
    let at = |f: f64| Watts(lo.get() + f * (hi.get() - lo.get()));
    let global = script.cap_frac_at(frac).filter(|_| device == 0).map(at);
    let stepped = script.device_cap_frac_at(frac, device).map(at);
    let throttled = if platform.id() == PlatformId::Gpu {
        script
            .gpu_throttle_at(frac)
            .and_then(|steps| match &platform.spec().response {
                FreqResponse::Table { table, .. } => Some(table.throttled_power(steps)),
                FreqResponse::Curve(_) => None,
            })
    } else {
        None
    };
    compose_limits(global, compose_limits(stepped, throttled))
}

/// Min-composition of two optional ceilings.
fn compose_limits(a: Option<Watts>, b: Option<Watts>) -> Option<Watts> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl EpisodeEnv {
    /// Builds the environment for `stream` under `scenario` on `node`
    /// (device `0` first), resolving relative quality-floor patches
    /// against `span` (the serving family's achievable quality range,
    /// [`alert_workload::quality_span`]).
    ///
    /// The arrival grid follows the script's arrival process (the default
    /// is periodic at the effective goal deadline; for grouped tasks the
    /// per-word period equals the per-word share of the sentence budget).
    /// Event marks are resolved against the nominal horizon
    /// `stream.len() × goal.deadline`. The frozen per-input state is the
    /// same whatever the node; each device gets its own scripted cap
    /// timeline.
    ///
    /// Under [`ArrivalProcess::Trace`] both the period *and* the
    /// per-input scale come from the script's attached
    /// [`TraceSource`](alert_workload::TraceSource) (fitted onto the
    /// horizon by the process's `TraceFit` mode), replacing the sampled
    /// grid and the stream's own scales; scripted drift still composes
    /// multiplicatively on top, and the per-input arrival draw is still
    /// consumed so switching to or from replay never re-aligns the other
    /// frozen random streams.
    ///
    /// # Errors
    ///
    /// Fails when `node` is empty, when the scenario script does not
    /// validate, when a relative floor is scripted without a `span`, or
    /// when the attached trace cannot cover the horizon under its fit
    /// mode.
    pub fn build(
        node: &[Platform],
        scenario: &Scenario,
        stream: &InputStream,
        goal: &Goal,
        seed: u64,
        span: Option<QualitySpan>,
    ) -> Result<Self, EnvError> {
        if node.is_empty() {
            return Err(EnvError::Script(
                "an episode needs at least one platform".into(),
            ));
        }
        let script = scenario.script();
        script.validate().map_err(EnvError::Script)?;
        if script.uses_relative_floor() && span.is_none() {
            return Err(EnvError::Script(
                "script moves the quality floor relative to the family range; \
                 pass the family's QualitySpan to EpisodeEnv::build"
                    .into(),
            ));
        }
        for fit in script.trace_fits() {
            // validate() guarantees the source exists when a trace
            // arrival is scripted.
            // lint:allow(no-panic): validate() guarantees the source exists when a trace arrival is scripted
            let source = script.trace().expect("validated trace attachment");
            source
                .check_horizon(stream.len(), fit)
                .map_err(EnvError::Script)?;
        }
        let mut noise_rng = stream_rng(seed, "episode-noise");
        let mut cont_rng = stream_rng(seed, "episode-contention");
        let mut arrival_rng = stream_rng(seed, "episode-arrival");
        let mut processes = script.contention_processes();
        let kind = scenario.kind();

        let horizon = goal.deadline.get() * stream.len() as f64;
        let mut sampler = ArrivalSampler::new();

        let mut realizations = Vec::with_capacity(stream.len());
        let mut cap_limits: Vec<Vec<Option<Watts>>> = node
            .iter()
            .map(|_| Vec::with_capacity(stream.len()))
            .collect();
        let mut now = Seconds::ZERO;
        for (i, input) in stream.inputs().iter().enumerate() {
            let frac = (now.get() / horizon).clamp(0.0, 1.0);
            let eff_goal = script.goal_at(frac, goal, span);
            for (device, (platform, limits)) in node.iter().zip(&mut cap_limits).enumerate() {
                limits.push(scripted_limit(script, frac, device, platform));
            }
            // One arrival draw per input regardless of the process in
            // force (trace replay included), so the frozen streams never
            // re-align across arrival switches.
            let arrival_u: f64 = arrival_rng.gen_range(0.0..1.0);
            let (period, base_scale) = match script.arrival_at(frac) {
                ArrivalProcess::Trace { fit } => {
                    // Trace periods bypass the sampler; clear its burst
                    // state so a later switch back to `Bursty` starts a
                    // fresh cycle (same semantics as the sampler's own
                    // `Trace` arm).
                    sampler.reset();
                    // lint:allow(no-panic): validate() guarantees the source exists when a trace arrival is scripted
                    let step = script.trace().expect("validated trace attachment").step(
                        i,
                        stream.len(),
                        fit,
                    );
                    (step.inter_arrival, step.scale)
                }
                process => (
                    sampler.next_period(&process, eff_goal.deadline, arrival_u),
                    input.scale,
                ),
            };
            let mut mem_active = false;
            let mut cmp_active = false;
            for (k, p) in processes.iter_mut() {
                if p.active_at(now) {
                    match k {
                        ContentionKind::Memory => mem_active = true,
                        ContentionKind::Compute => cmp_active = true,
                    }
                }
            }
            realizations.push(EnvRealization {
                dispatch_time: now,
                period,
                scale: base_scale * script.drift_at(frac),
                goal: eff_goal,
                mem_active,
                cmp_active,
                mem_draws: ContentionDraws::sample(&mut cont_rng),
                cmp_draws: ContentionDraws::sample(&mut cont_rng),
                noise: NoiseDraws::sample(&mut noise_rng),
            });
            now += period;
        }
        Ok(EpisodeEnv {
            node: node.to_vec(),
            kind,
            realizations,
            cap_limits,
        })
    }

    /// The node's devices, device `0` first.
    pub fn node(&self) -> &[Platform] {
        &self.node
    }

    /// The primary contention kind of the scenario, if any (reporting
    /// only; realization honors every scripted co-runner).
    pub fn kind(&self) -> Option<ContentionKind> {
        self.kind
    }

    /// Number of inputs.
    pub fn len(&self) -> usize {
        self.realizations.len()
    }

    /// `true` if the episode has no inputs.
    pub fn is_empty(&self) -> bool {
        self.realizations.is_empty()
    }

    /// The frozen state of input `i`.
    pub fn realization(&self, i: usize) -> &EnvRealization {
        &self.realizations[i]
    }

    /// Whether any co-runner is active at input `i`'s dispatch.
    pub fn active(&self, i: usize) -> bool {
        self.realizations[i].contention_active()
    }

    /// The idle-accounting period of input `i`.
    pub fn period(&self, i: usize) -> Seconds {
        self.realizations[i].period
    }

    /// The requirement in force at input `i`'s dispatch.
    pub fn goal_of(&self, i: usize) -> &Goal {
        &self.realizations[i].goal
    }

    /// The scripted cap ceiling in force for `device` at input `i`, if
    /// any.
    pub fn cap_limit_on(&self, device: usize, i: usize) -> Option<Watts> {
        self.cap_limits[device][i]
    }

    /// The cap `device` actually programs when `requested` is asked for
    /// at input `i`: the scripted ceiling clamps silently, exactly like a
    /// RAPL limit the scheduler was not told about.
    fn effective_cap_on(&self, device: usize, i: usize, requested: Watts) -> Watts {
        match self.cap_limit_on(device, i) {
            Some(limit) => requested.min(limit),
            None => requested,
        }
    }

    /// The deterministic environment factor input `i` applies to
    /// `profile` on `device` (scale × baseline noise × contention
    /// inflation of every active co-runner kind). The draws are shared
    /// (the frozen state is platform-independent), but each device maps
    /// them through its own noise and contention models, so the same
    /// co-runner hurts a GPU and a CPU differently.
    fn env_factor_on(&self, device: usize, i: usize, profile: &ModelProfile) -> f64 {
        let platform = &self.node[device];
        let r = &self.realizations[i];
        let mut f = r.scale * platform.noise().factor_from_draws(&r.noise);
        if r.mem_active {
            f *= platform
                .contention_model(ContentionKind::Memory)
                .factor_from_draws(&r.mem_draws, profile.mem_intensity);
        }
        if r.cmp_active {
            f *= platform
                .contention_model(ContentionKind::Compute)
                .factor_from_draws(&r.cmp_draws, profile.rho);
        }
        f
    }

    /// Executes input `i` with `profile` on `device` at `cap` under
    /// `stop`, after applying the device's scripted cap ceiling.
    ///
    /// When a ceiling clamps the request, the execution runs at the
    /// clamped cap but the result's `profile_equivalent` is billed
    /// against the *requested* cap — the caller's profile tables know
    /// nothing of the hidden limit, so the throttling surfaces as
    /// observed slowdown ξ, which is exactly how a controller on real
    /// RAPL-capped hardware experiences an external cap change (§5).
    ///
    /// # Errors
    ///
    /// Fails when the cap is infeasible for the device's platform —
    /// schedulers pick caps from [`Platform::power_settings`], so this
    /// indicates a malformed caller, reported instead of panicking.
    pub fn realize_on(
        &self,
        device: usize,
        i: usize,
        profile: &ModelProfile,
        cap: Watts,
        stop: StopPolicy,
    ) -> Result<InferenceResult, EnvError> {
        let platform = &self.node[device];
        let eff = self.effective_cap_on(device, i, cap);
        let f = self.env_factor_on(device, i, profile);
        let mut result = inference::execute(profile, platform, eff, f, stop)?;
        if eff != cap {
            let t_requested = inference::profile_latency(profile, platform, cap)?;
            let t_clamped = inference::profile_latency(profile, platform, eff)?;
            if t_clamped.get() > 0.0 {
                result.profile_equivalent = result.profile_equivalent * (t_requested / t_clamped);
            }
        }
        Ok(result)
    }

    /// Power `device` draws while input `i`'s pipeline idles at `cap`:
    /// the base idle draw plus the extra draw of every active co-runner,
    /// never exceeding the (ceiling-clamped) cap.
    pub fn idle_draw_on(&self, device: usize, i: usize, cap: Watts) -> Watts {
        let platform = &self.node[device];
        let cap = self.effective_cap_on(device, i, cap);
        let r = &self.realizations[i];
        let mut draw = platform.idle_draw(cap, None);
        if r.mem_active {
            draw += platform
                .contention_model(ContentionKind::Memory)
                .idle_draw_extra;
        }
        if r.cmp_active {
            draw += platform
                .contention_model(ContentionKind::Compute)
                .idle_draw_extra;
        }
        draw.min(cap)
    }

    /// Period energy of input `i` on `device`, given the chosen
    /// profile/cap and the realized execution: run energy plus the idle
    /// energy of the rest of the period.
    pub fn period_energy_on(
        &self,
        device: usize,
        i: usize,
        profile: &ModelProfile,
        cap: Watts,
        result: &InferenceResult,
    ) -> Joules {
        let platform = &self.node[device];
        let cap = self.effective_cap_on(device, i, cap);
        let run_p = inference::run_power(profile, platform, cap);
        let idle_p = self.idle_draw_on(device, i, cap);
        PeriodEnergy::from_draws(run_p, result.latency, idle_p, self.period(i)).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_models::zoo::resnet50;
    use alert_workload::{ArrivalProcess, GoalPatch, ScenarioScript, ScriptEvent, TaskId};

    fn setup(scenario: Scenario) -> (EpisodeEnv, InputStream) {
        let platform = Platform::cpu2();
        let stream = InputStream::generate(TaskId::Img2, 200, 7);
        let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        let env =
            EpisodeEnv::build(&[platform], &scenario, &stream, &goal, 99, None).expect("valid");
        (env, stream)
    }

    #[test]
    fn build_is_deterministic() {
        let (a, _) = setup(Scenario::memory_env(3));
        let (b, _) = setup(Scenario::memory_env(3));
        assert!(a == b);
    }

    #[test]
    fn default_scenario_never_active() {
        let (env, _) = setup(Scenario::default_env());
        for i in 0..env.len() {
            assert!(!env.active(i));
            assert_eq!(env.cap_limit_on(0, i), None);
            assert_eq!(env.goal_of(i), &Goal::minimize_energy(Seconds(0.2), 0.9));
            assert_eq!(env.period(i), Seconds(0.2));
        }
    }

    #[test]
    fn contention_scenario_has_phases() {
        let (env, _) = setup(Scenario::memory_env(3));
        let active = (0..env.len()).filter(|&i| env.active(i)).count();
        assert!(active > 20, "active inputs: {active}");
        assert!(active < env.len() - 20, "never-off contention");
    }

    #[test]
    fn env_factor_reflects_contention_and_model_sensitivity() {
        let (env, _) = setup(Scenario::memory_env(3));
        let model = resnet50();
        let mut mem_sensitive = model.clone();
        mem_sensitive.mem_intensity = 0.9;
        let mut mem_insensitive = model.clone();
        mem_insensitive.mem_intensity = 0.1;
        let mut sens_sum = 0.0;
        let mut insens_sum = 0.0;
        let mut n = 0;
        for i in 0..env.len() {
            if env.active(i) {
                sens_sum += env.env_factor_on(0, i, &mem_sensitive);
                insens_sum += env.env_factor_on(0, i, &mem_insensitive);
                n += 1;
            }
        }
        assert!(n > 0);
        assert!(
            sens_sum / n as f64 > insens_sum / n as f64 + 0.3,
            "memory-bound model must suffer more"
        );
    }

    #[test]
    fn realize_matches_env_factor() {
        let (env, _) = setup(Scenario::compute_env(5));
        let m = resnet50();
        let cap = Watts(100.0);
        for i in [0, 50, 150] {
            let r = env
                .realize_on(0, i, &m, cap, StopPolicy::RunToCompletion)
                .unwrap();
            let expected = inference::profile_latency(&m, &env.node()[0], cap)
                .expect("feasible preset cap")
                .get()
                * env.env_factor_on(0, i, &m);
            assert!((r.latency.get() - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn realize_reports_infeasible_caps_instead_of_panicking() {
        // Regression: this used to `expect()` deep in the env path.
        let (env, _) = setup(Scenario::default_env());
        let m = resnet50();
        let err = env.realize_on(0, 0, &m, Watts(1.0), StopPolicy::RunToCompletion);
        assert!(matches!(err, Err(EnvError::Power(_))), "{err:?}");
    }

    #[test]
    fn build_rejects_invalid_scripts() {
        let stream = InputStream::generate(TaskId::Img2, 10, 7);
        let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        let bad = Scenario::from_script(
            "Bad",
            ScenarioScript::new().with(ScriptEvent::CapStep { at: 2.0, frac: 0.5 }),
        );
        let err = EpisodeEnv::build(&[Platform::cpu2()], &bad, &stream, &goal, 1, None);
        assert!(matches!(err, Err(EnvError::Script(_))), "{err:?}");
        // An empty node has no device to realize the script on.
        let default = Scenario::default_env();
        let err = EpisodeEnv::build(&[], &default, &stream, &goal, 1, None);
        assert!(matches!(err, Err(EnvError::Script(_))), "{err:?}");
    }

    #[test]
    fn period_energy_includes_idle() {
        let (env, _) = setup(Scenario::default_env());
        let m = resnet50();
        let cap = Watts(100.0);
        let r = env
            .realize_on(0, 0, &m, cap, StopPolicy::RunToCompletion)
            .unwrap();
        let e = env.period_energy_on(0, 0, &m, cap, &r);
        let run_only = inference::run_power(&m, &env.node()[0], cap) * r.latency;
        assert!(e > run_only, "idle energy must be accounted");
    }

    #[test]
    fn counterfactuals_share_randomness() {
        // The same input applies *correlated* conditions to two different
        // models: the oracle property.
        let (env, _) = setup(Scenario::memory_env(3));
        let m1 = resnet50();
        let mut m2 = resnet50();
        m2.ref_latency_s *= 0.5;
        for i in 0..20 {
            let f1 = env.env_factor_on(0, i, &m1);
            let f2 = env.env_factor_on(0, i, &m2);
            // Same sensitivity → identical factor (scale & draws shared).
            assert!((f1 - f2).abs() < 1e-12);
        }
    }

    #[test]
    fn cap_steps_clamp_realization_exactly_from_their_mark() {
        let scenario = Scenario::from_script(
            "HalfCap",
            ScenarioScript::new().with(ScriptEvent::CapStep { at: 0.5, frac: 0.0 }),
        );
        let (env, _) = setup(scenario);
        let cap_min = env.node()[0].cap_range().min();
        let m = resnet50();
        let cap = Watts(100.0);
        let n = env.len();
        // Before the mark: unrestricted; after: clamped to the range min.
        assert_eq!(env.effective_cap_on(0, 0, cap), cap);
        assert_eq!(env.effective_cap_on(0, n - 1, cap), cap_min);
        let boundary = (0..n)
            .find(|&i| env.cap_limit_on(0, i).is_some())
            .expect("cap step must land");
        assert!(boundary > n / 3 && boundary < 2 * n / 3, "at {boundary}");
        // Realized latency after the mark equals the min-cap latency.
        let r = env
            .realize_on(0, n - 1, &m, cap, StopPolicy::RunToCompletion)
            .unwrap();
        let expected = inference::profile_latency(&m, &env.node()[0], cap_min)
            .expect("min cap feasible")
            .get()
            * env.env_factor_on(0, n - 1, &m);
        assert!((r.latency.get() - expected).abs() < 1e-12);
    }

    #[test]
    fn goal_changes_land_on_the_grid_and_reshape_periods() {
        let scenario = Scenario::goal_flip();
        let (env, _) = setup(scenario);
        let base = Seconds(0.2);
        let tightened: Vec<usize> = (0..env.len())
            .filter(|&i| env.goal_of(i).deadline < base)
            .collect();
        assert!(!tightened.is_empty(), "flip must tighten somewhere");
        for &i in &tightened {
            assert!((env.goal_of(i).deadline.get() - 0.12).abs() < 1e-12);
            // Periodic arrivals follow the effective deadline.
            assert!((env.period(i).get() - 0.12).abs() < 1e-12);
        }
        // The flip flips back: the last input runs at the base deadline.
        assert_eq!(env.goal_of(env.len() - 1).deadline, base);
    }

    #[test]
    fn goal_floor_change_is_visible() {
        let scenario = Scenario::from_script(
            "FloorUp",
            ScenarioScript::new().with(ScriptEvent::GoalChange {
                at: 0.5,
                patch: GoalPatch {
                    min_quality: Some(0.95),
                    ..Default::default()
                },
            }),
        );
        let (env, _) = setup(scenario);
        assert_eq!(env.goal_of(0).min_quality, Some(0.9));
        assert_eq!(env.goal_of(env.len() - 1).min_quality, Some(0.95));
    }

    #[test]
    fn relative_floor_needs_a_span_and_resolves_with_one() {
        let node = [Platform::cpu2()];
        let stream = InputStream::generate(TaskId::Img2, 100, 7);
        let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        let scenario = Scenario::floor_raise();
        // Span-less realization refuses loudly...
        let err = EpisodeEnv::build(&node, &scenario, &stream, &goal, 3, None);
        assert!(matches!(err, Err(EnvError::Script(_))), "{err:?}");
        // ...and a span resolves the floor inside it.
        let span = alert_workload::QualitySpan::new(0.855, 0.935);
        let env = EpisodeEnv::build(&node, &scenario, &stream, &goal, 3, Some(span)).unwrap();
        assert_eq!(env.goal_of(0).min_quality, Some(0.9));
        let raised = env.goal_of(env.len() - 1).min_quality.unwrap();
        assert!((raised - span.floor_at(0.85)).abs() < 1e-12, "{raised}");
    }

    #[test]
    fn trace_replay_reproduces_recorded_arrivals_and_scales() {
        use alert_workload::{TraceFit, TraceSource, TraceStep};
        // "Record" an environment: its periods and realized scales become
        // the trace; the replay must reproduce both bit-exactly.
        let (orig, stream) = setup(Scenario::drift_ramp());
        let steps: Vec<TraceStep> = (0..orig.len())
            .map(|i| TraceStep {
                inter_arrival: orig.period(i),
                scale: orig.realization(i).scale,
            })
            .collect();
        let source = TraceSource::new("recorded", steps);
        for fit in [TraceFit::Loop, TraceFit::Truncate, TraceFit::Stretch] {
            let replay = Scenario::replay("Replay", source.clone(), fit);
            let (env, _) = setup(replay);
            assert_eq!(env.len(), orig.len());
            for i in 0..env.len() {
                assert_eq!(
                    env.period(i).get().to_bits(),
                    orig.period(i).get().to_bits(),
                    "{fit} period {i}"
                );
                assert_eq!(
                    env.realization(i).scale.to_bits(),
                    orig.realization(i).scale.to_bits(),
                    "{fit} scale {i}"
                );
            }
        }
        let _ = stream;
    }

    #[test]
    fn trace_replay_composes_with_counterfactual_scripts() {
        use alert_workload::{TraceFit, TraceSource, TraceStep};
        let (orig, _) = setup(Scenario::default_env());
        let steps: Vec<TraceStep> = (0..orig.len())
            .map(|i| TraceStep {
                inter_arrival: orig.period(i),
                scale: orig.realization(i).scale,
            })
            .collect();
        let source = TraceSource::new("recorded", steps);
        // Counterfactual: the same traffic under a cap crash and a goal
        // tightening — arrivals/scales stay recorded, conditions change.
        let counter = Scenario::replay_under(
            "ReplayUnderStress",
            source,
            TraceFit::Truncate,
            ScenarioScript::new()
                .with(ScriptEvent::CapStep { at: 0.5, frac: 0.0 })
                .with(ScriptEvent::GoalChange {
                    at: 0.5,
                    patch: GoalPatch::deadline(0.8),
                }),
        );
        let (env, _) = setup(counter);
        let n = env.len();
        for i in 0..n {
            assert_eq!(
                env.period(i).get().to_bits(),
                orig.period(i).get().to_bits()
            );
            assert_eq!(
                env.realization(i).scale.to_bits(),
                orig.realization(i).scale.to_bits()
            );
        }
        // The overlaid events bind: the tail is capped and tightened.
        assert!(env.cap_limit_on(0, n - 1).is_some());
        assert!(env.goal_of(n - 1).deadline < env.goal_of(0).deadline);
        // Unlike periodic arrivals, the recorded grid does NOT follow the
        // tightened deadline — it is historical traffic.
        assert_eq!(
            env.period(n - 1).get().to_bits(),
            orig.period(n - 1).get().to_bits()
        );
    }

    #[test]
    fn bursty_restarts_fresh_after_a_trace_segment() {
        use alert_workload::{TraceFit, TraceSource, TraceStep};
        // Regression: while a trace segment is in force the sampler is
        // bypassed; switching back to Bursty must start a fresh burst
        // cycle, not resume mid-cycle from the pre-trace position.
        let bursty = ArrivalProcess::Bursty {
            burst: 4,
            spread: 0.25,
        };
        let source = TraceSource::new(
            "mid",
            vec![TraceStep {
                inter_arrival: Seconds(0.5),
                scale: 1.0,
            }],
        );
        let scenario = Scenario::from_script(
            "BurstTraceBurst",
            ScenarioScript::new()
                .with_arrival(bursty)
                .with(ScriptEvent::ArrivalChange {
                    at: 0.4,
                    process: ArrivalProcess::Trace {
                        fit: TraceFit::Loop,
                    },
                })
                .with(ScriptEvent::ArrivalChange {
                    at: 0.7,
                    process: bursty,
                })
                .with_trace(source),
        );
        let (env, _) = setup(scenario);
        // Find the first input back on the bursty grid after the trace
        // segment (trace periods are 0.5; bursty periods are 0.05 or the
        // cycle-closing 0.65).
        let first_trace = (0..env.len())
            .find(|&i| env.period(i) == Seconds(0.5))
            .expect("trace segment lands");
        let first_back = (first_trace..env.len())
            .find(|&i| env.period(i) != Seconds(0.5))
            .expect("bursty resumes");
        // A fresh cycle starts with the intra-burst spacing, never the
        // cycle-closing gap a mid-cycle resume could produce.
        assert!(
            (env.period(first_back).get() - 0.2 * 0.25).abs() < 1e-12,
            "post-trace burst must restart, got period {}",
            env.period(first_back)
        );
    }

    #[test]
    fn trace_replay_fit_modes_cover_horizon_mismatch() {
        use alert_workload::{TraceFit, TraceSource, TraceStep};
        let short = TraceSource::new(
            "short",
            (0..10)
                .map(|k| TraceStep {
                    inter_arrival: Seconds(0.1 + 0.01 * k as f64),
                    scale: 1.0 + 0.05 * k as f64,
                })
                .collect(),
        );
        // Truncate refuses a 200-input horizon over a 10-step trace...
        let err = || {
            let stream = InputStream::generate(TaskId::Img2, 200, 7);
            let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
            EpisodeEnv::build(
                &[Platform::cpu2()],
                &Scenario::replay("R", short.clone(), TraceFit::Truncate),
                &stream,
                &goal,
                99,
                None,
            )
        };
        assert!(matches!(err(), Err(EnvError::Script(_))));
        // ...Loop wraps, Stretch resamples with time-rescaling.
        let (looped, _) = setup(Scenario::replay("R", short.clone(), TraceFit::Loop));
        for i in 0..looped.len() {
            assert_eq!(
                looped.period(i).get().to_bits(),
                short.steps()[i % 10].inter_arrival.get().to_bits()
            );
        }
        let (stretched, _) = setup(Scenario::replay("R", short.clone(), TraceFit::Stretch));
        let factor = 10.0 / stretched.len() as f64;
        for i in 0..stretched.len() {
            let j = (i * 10) / stretched.len();
            let expected = short.steps()[j].inter_arrival.get() * factor;
            assert_eq!(stretched.period(i).get().to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn drift_ramp_scales_inputs_multiplicatively() {
        let (drifted, stream) = setup(Scenario::drift_ramp());
        let (base, _) = setup(Scenario::default_env());
        for i in 0..drifted.len() {
            let ratio = drifted.realization(i).scale / base.realization(i).scale;
            assert!(
                (1.0..=1.7 + 1e-9).contains(&ratio),
                "input {i}: drift ratio {ratio}"
            );
        }
        // The tail is fully drifted.
        let last = drifted.realization(stream.len() - 1);
        assert!((last.scale / base.realization(stream.len() - 1).scale - 1.7).abs() < 1e-9);
    }

    #[test]
    fn bursty_arrivals_compress_the_grid_but_conserve_load() {
        let (bursty, _) = setup(Scenario::burst_arrival());
        let (base, _) = setup(Scenario::default_env());
        let n = bursty.len();
        let short = (0..n).filter(|&i| bursty.period(i) < Seconds(0.1)).count();
        assert!(short > 20, "bursts must compress periods, got {short}");
        // Same offered load: total horizon within a cycle's slack.
        let t_b: f64 = (0..n).map(|i| bursty.period(i).get()).sum();
        let t_p: f64 = (0..n).map(|i| base.period(i).get()).sum();
        assert!(
            (t_b - t_p).abs() < 4.0 * 0.2,
            "bursty {t_b} vs periodic {t_p}"
        );
    }

    #[test]
    fn poisson_arrivals_are_irregular_and_frozen() {
        let scenario = Scenario::from_script(
            "AllPoisson",
            ScenarioScript::new().with_arrival(ArrivalProcess::Poisson { rate_scale: 1.0 }),
        );
        let (a, _) = setup(scenario.clone());
        let (b, _) = setup(scenario);
        assert!(a == b, "frozen across builds");
        let distinct: std::collections::BTreeSet<u64> =
            (0..a.len()).map(|i| a.period(i).get().to_bits()).collect();
        assert!(distinct.len() > a.len() / 2, "Poisson periods must vary");
    }

    #[test]
    fn compound_stress_composes_both_corunners() {
        let (env, _) = setup(Scenario::compound_stress(5));
        let both: Vec<usize> = (0..env.len())
            .filter(|&i| env.realization(i).mem_active && env.realization(i).cmp_active)
            .collect();
        // With two independent random co-runners some overlap is expected
        // for this seed; the factor there reflects both models.
        assert!(!both.is_empty(), "no overlap for this seed");
        let m = resnet50();
        let i = both[0];
        let f_both = env.env_factor_on(0, i, &m);
        let platform = &env.node()[0];
        let noise = platform
            .noise()
            .factor_from_draws(&env.realization(i).noise);
        let f_mem = platform
            .contention_model(ContentionKind::Memory)
            .factor_from_draws(&env.realization(i).mem_draws, m.mem_intensity);
        let f_cmp = platform
            .contention_model(ContentionKind::Compute)
            .factor_from_draws(&env.realization(i).cmp_draws, m.rho);
        let expected = env.realization(i).scale * noise * f_mem * f_cmp;
        assert!((f_both - expected).abs() < 1e-12);
        // Idle draw includes both extras (below the cap).
        let cap = Watts(100.0);
        let base_idle = platform.idle_draw(cap, None);
        let extra_mem = platform
            .contention_model(ContentionKind::Memory)
            .idle_draw_extra;
        let extra_cmp = platform
            .contention_model(ContentionKind::Compute)
            .idle_draw_extra;
        assert_eq!(
            env.idle_draw_on(0, i, cap),
            (base_idle + extra_mem + extra_cmp).min(cap)
        );
    }

    fn hetero_setup(scenario: Scenario) -> EpisodeEnv {
        let node = [Platform::cpu2(), Platform::gpu()];
        let stream = InputStream::generate(TaskId::Img2, 200, 7);
        let goal = Goal::minimize_energy(Seconds(0.2), 0.9);
        EpisodeEnv::build(&node, &scenario, &stream, &goal, 99, None).expect("valid")
    }

    #[test]
    fn hetero_build_shares_the_frozen_grid_bit_exactly() {
        // The whole point of device-as-counterfactual: adding a GPU must
        // not perturb a single frozen draw of the primary device.
        let (single, _) = setup(Scenario::memory_env(3));
        let hetero = hetero_setup(Scenario::memory_env(3));
        assert_eq!(hetero.node().len(), 2);
        assert_eq!(hetero.node()[1].id(), PlatformId::Gpu);
        assert_eq!(single.realizations, hetero.realizations);
        assert_eq!(single.cap_limits[0], hetero.cap_limits[0]);
        // No device events scripted → no device-1 ceilings either.
        assert!(hetero.cap_limits[1].iter().all(Option::is_none));
    }

    #[test]
    fn gpu_realization_uses_the_gpu_platform() {
        let env = hetero_setup(Scenario::default_env());
        let m = resnet50();
        let gpu_cap = Watts(215.0);
        let r = env
            .realize_on(1, 0, &m, gpu_cap, StopPolicy::RunToCompletion)
            .unwrap();
        let expected = inference::profile_latency(&m, &env.node()[1], gpu_cap)
            .expect("top GPU cap feasible")
            .get()
            * env.env_factor_on(1, 0, &m);
        assert!((r.latency.get() - expected).abs() < 1e-12);
        // A 215 W request is infeasible on the CPU device — the same
        // call against device 0 reports, proving the platforms differ.
        let err = env.realize_on(0, 0, &m, gpu_cap, StopPolicy::RunToCompletion);
        assert!(matches!(err, Err(EnvError::Power(_))), "{err:?}");
    }

    #[test]
    fn device_cap_steps_bind_to_their_device_only() {
        let scenario = Scenario::from_script(
            "GpuCapCrash",
            ScenarioScript::new().with(ScriptEvent::DeviceCapStep {
                at: 0.5,
                device: 1,
                frac: 0.0,
            }),
        );
        let env = hetero_setup(scenario);
        let (baseline, _) = setup(Scenario::default_env());
        // Device 0's frozen state is untouched by a device-1 event...
        assert_eq!(env.realizations, baseline.realizations);
        assert_eq!(env.cap_limits[0], baseline.cap_limits[0]);
        // ...while device 1 is clamped to its range floor from the mark.
        let n = env.len();
        let gpu_min = env.node()[1].cap_range().min();
        assert_eq!(env.cap_limit_on(1, 0), None);
        assert_eq!(env.cap_limit_on(1, n - 1), Some(gpu_min));
        assert_eq!(env.effective_cap_on(1, n - 1, Watts(215.0)), gpu_min);
    }

    #[test]
    fn gpu_throttle_binds_to_gpu_backends_only() {
        let steps = 6;
        let scenario = Scenario::from_script(
            "Throttle",
            ScenarioScript::new().with(ScriptEvent::GpuThrottle { at: 0.5, steps }),
        );
        let env = hetero_setup(scenario);
        let (baseline, _) = setup(Scenario::default_env());
        // The CPU device never sees a throttle event.
        assert_eq!(env.realizations, baseline.realizations);
        assert_eq!(env.cap_limits[0], baseline.cap_limits[0]);
        let expected = match &env.node()[1].spec().response {
            FreqResponse::Table { table, .. } => table.throttled_power(steps),
            FreqResponse::Curve(_) => unreachable!("GPU platform uses a table"),
        };
        let n = env.len();
        assert_eq!(env.cap_limit_on(1, 0), None);
        assert_eq!(env.cap_limit_on(1, n - 1), Some(expected));
        assert!(expected < Watts(215.0), "throttle must lower the ceiling");
    }

    #[test]
    fn device_zero_ceiling_is_the_min_of_global_and_targeted_caps() {
        let scenario = Scenario::from_script(
            "MinCompose",
            ScenarioScript::new()
                .with(ScriptEvent::CapStep { at: 0.0, frac: 0.5 })
                .with(ScriptEvent::DeviceCapStep {
                    at: 0.5,
                    device: 0,
                    frac: 0.0,
                }),
        );
        let (env, _) = setup(scenario);
        let range = env.node()[0].cap_range();
        let (lo, hi) = (range.min(), range.max());
        let half = Watts(lo.get() + 0.5 * (hi.get() - lo.get()));
        let n = env.len();
        // Before the targeted step the global ceiling rules; after, the
        // tighter targeted ceiling wins the min-composition.
        assert_eq!(env.cap_limit_on(0, 0), Some(half));
        assert_eq!(env.cap_limit_on(0, n - 1), Some(lo));
    }
}
