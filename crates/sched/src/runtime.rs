//! The session runtime: long-lived, concurrent, checkpointable serving.
//!
//! The original harness was one-shot: `run_episode` drove exactly one
//! stream to completion and returned. A [`Runtime`] instead *owns* any
//! number of independent [`SessionId`]-addressed sessions, each a
//! long-lived handle over (stream, frozen environment, goal, scheduler):
//!
//! * [`Runtime::session`] opens a session from a serializable
//!   [`SessionSpec`] (scenario + seed + goal + optional policy override);
//! * [`Runtime::submit`] advances one session by exactly one input,
//!   emitting an [`EpisodeEvent`] to the configured [`EventSink`]s;
//! * [`Runtime::close`] folds a session into the classic [`Episode`];
//! * [`Runtime::drain`] runs every open session to the end and closes it.
//!
//! Sessions are fully independent — each owns its scheduler state and
//! deadline budget — so any interleaving of `submit` calls across
//! sessions produces records bit-identical to running each stream
//! standalone (`tests/runtime_sessions.rs` proves this for 64 sessions).
//!
//! The runtime keeps its sessions in **shards**: one by default
//! ([`RuntimeBuilder::build`]), `N` with
//! [`RuntimeBuilder::build_sharded`]. Shard `k` of `N` hands out ids
//! `k, k + N, k + 2N, …`, so every per-session call routes by
//! [`SessionId::shard_of`] without a lookup table, and new sessions are
//! placed round-robin, which keeps ids dense (0, 1, 2, …) whatever `N`
//! is. Sharding matters only to [`Runtime::drain`], which runs each
//! non-empty shard on its own thread; episodes are bit-identical per
//! session for every shard count (see `DESIGN.md` §"Threading model").
//!
//! Sessions opened from a [`SessionSpec`] can also be *checkpointed*
//! ([`Runtime::snapshot_session`]) and *restored* — in the same runtime
//! or a different one (migration): the snapshot carries the engine state
//! (cursor, budget, records) plus the scheduler's learned state via
//! [`alert_core::ControllerSnapshot`], and the environment is rebuilt
//! deterministically from the spec.
//!
//! The runtime's own configuration round-trips through [`RunSpec`]
//! (serde), so a whole run — platform, family, policy, params — can be
//! stored in a file and rebuilt with [`RuntimeBuilder::from_spec`].

use crate::env::EpisodeEnv;
use crate::error::Error;
use crate::executor;
use crate::experiment::FamilyKind;
use crate::harness::{Episode, SessionEngine, StepError};
use crate::registry::{PolicyContext, PolicyRegistry, UnknownPolicy};
use crate::scheduler::Scheduler;
use alert_core::alert::AlertParams;
use alert_core::ControllerSnapshot;
use alert_models::ModelFamily;
use alert_platform::{Platform, PlatformId};
use alert_stats::units::Watts;
use alert_workload::{
    EpisodeSummary, Goal, InputRecord, InputStream, QualitySpan, Scenario, SessionId, StreamId,
    TaskId,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The candidate family of a run, in serializable form: either one of
/// the paper's two named families or an explicit custom family with its
/// driving task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FamilySpec {
    /// A named paper family (Sparse-ResNet image / RNN sentence).
    Kind(FamilyKind),
    /// An explicit candidate family.
    Custom {
        /// The candidate models.
        family: ModelFamily,
        /// The task whose input statistics drive the streams.
        task: TaskId,
    },
}

impl FamilySpec {
    /// Materializes the candidate family.
    pub fn family(&self) -> ModelFamily {
        match self {
            FamilySpec::Kind(k) => k.family(),
            FamilySpec::Custom { family, .. } => family.clone(),
        }
    }

    /// The task generating the input streams.
    pub fn task(&self) -> TaskId {
        match self {
            FamilySpec::Kind(k) => k.task(),
            FamilySpec::Custom { task, .. } => *task,
        }
    }
}

/// The full serializable configuration of a [`Runtime`]. Written to a
/// file, a `RunSpec` is everything needed to rebuild the same runtime
/// (modulo custom policies, which must be re-registered by name).
///
/// The JSON format is documented in `DESIGN.md` §"RunSpec".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Platform preset (device `0` of the node).
    pub platform: PlatformId,
    /// Extra device presets serving alongside `platform`: device `d` is
    /// `extra_backends[d - 1]`. Empty (the serde default, so pre-device
    /// spec files parse unchanged) means the classic single-device node.
    #[serde(default)]
    pub extra_backends: Vec<PlatformId>,
    /// Node-level power envelope split across all devices' config
    /// tables in proportion to their maximum draw; `None` (the serde
    /// default) leaves every device its full cap range.
    #[serde(default)]
    pub shared_budget: Option<Watts>,
    /// Candidate family.
    pub family: FamilySpec,
    /// Default policy name for new sessions (resolved via the registry).
    pub policy: String,
    /// Controller parameters handed to ALERT-family policies.
    pub params: AlertParams,
    /// Default seed for sessions that do not carry their own.
    pub seed: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            platform: PlatformId::Cpu1,
            extra_backends: Vec::new(),
            shared_budget: None,
            family: FamilySpec::Kind(FamilyKind::Image),
            policy: "ALERT".to_string(),
            params: AlertParams::default(),
            seed: 2020,
        }
    }
}

/// One session's serializable description: everything needed to rebuild
/// its stream and frozen environment deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// The session's goal (objective + constraints).
    pub goal: Goal,
    /// The runtime environment scenario.
    pub scenario: Scenario,
    /// Inputs in the stream (words for grouped tasks).
    pub n_inputs: usize,
    /// Seed for the stream and environment realization; `None` uses the
    /// runtime's default seed ([`RunSpec::seed`]).
    pub seed: Option<u64>,
    /// Policy override; `None` uses the runtime's default policy.
    pub policy: Option<String>,
}

impl SessionSpec {
    /// A minimal spec for sessions opened on an externally built
    /// environment ([`SessionOptions::on`]): only the goal — and a
    /// [`SessionOptions::policy`] override, if any — matters there; the
    /// scenario, input count, and seed are carried by the external
    /// stream/environment pair.
    pub fn external(goal: Goal) -> Self {
        SessionSpec {
            goal,
            scenario: Scenario::default_env(),
            n_inputs: 1,
            seed: None,
            policy: None,
        }
    }
}

/// A checkpoint of one live session, sufficient to resume it in this or
/// another [`Runtime`] ([`Runtime::restore_session`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The configuration of the runtime the session was snapshotted
    /// from. Restore validates the target against it: the platform,
    /// family and params must match, or the resumed records would
    /// silently diverge from the first half.
    pub origin: RunSpec,
    /// The generating spec (stream + environment rebuild recipe). The
    /// policy is always resolved (`Some`) in a snapshot, so restoring
    /// into a runtime with a different default policy is safe.
    pub spec: SessionSpec,
    /// Reporting name of the scheme that was driving the session.
    pub scheme: String,
    /// Engine state: cursor, shared-deadline budget, records, overhead.
    pub engine: SessionEngine,
    /// The scheduler's learned state, when the policy supports export.
    /// A snapshot past input 0 must carry it: restore rejects one that
    /// does not.
    pub controller: Option<ControllerSnapshot>,
}

/// Lifecycle events emitted through the runtime's [`EventSink`], one per
/// session transition or processed input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EpisodeEvent {
    /// A session was opened.
    SessionOpened {
        /// The new session.
        session: SessionId,
        /// Content identity of its input stream.
        stream: StreamId,
        /// Reporting name of the scheme driving it.
        scheme: String,
        /// Total inputs the stream will deliver.
        inputs: usize,
    },
    /// One input was processed.
    InputProcessed {
        /// The session that advanced.
        session: SessionId,
        /// The per-input record (same schema as `Episode::records`).
        record: InputRecord,
    },
    /// A session was closed.
    SessionClosed {
        /// The closed session.
        session: SessionId,
        /// Reporting name of the scheme that drove it.
        scheme: String,
        /// Aggregated post-warm-up summary.
        summary: EpisodeSummary,
    },
    /// A telemetry observation (decision trace, admission verdict) —
    /// emitted only when the runtime's
    /// [`TelemetryConfig`](crate::telemetry::TelemetryConfig) asks for
    /// it, always *after* the [`EpisodeEvent::InputProcessed`] it
    /// describes.
    Telemetry {
        /// The typed observation.
        event: crate::telemetry::TelemetryEvent,
    },
}

/// Receives [`EpisodeEvent`]s as the runtime processes inputs.
pub trait EventSink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &EpisodeEvent);
}

impl EventSink for std::sync::mpsc::Sender<EpisodeEvent> {
    fn emit(&mut self, event: &EpisodeEvent) {
        // A disconnected receiver is not the runtime's problem.
        let _ = self.send(event.clone());
    }
}

impl<F: FnMut(&EpisodeEvent) + Send> EventSink for F {
    fn emit(&mut self, event: &EpisodeEvent) {
        self(event)
    }
}

/// Hands `event` to every sink, in installation order.
pub(crate) fn fan_out(sinks: &mut [Box<dyn EventSink>], event: &EpisodeEvent) {
    for sink in sinks {
        sink.emit(event);
    }
}

/// The one builder behind every way of opening a session, returned by
/// [`Runtime::session`]. The plain form materializes the spec and can be
/// checkpointed; sessions opened with [`SessionOptions::on`] ride an
/// externally built environment and cannot. [`SessionOptions::on_shard`]
/// pins the session to a shard instead of the round-robin default — the
/// serving front-end uses this to co-locate a request with its admission
/// queue. Every session's scheduler comes from the policy registry: a
/// scheme of one's own is registered with
/// [`PolicyRegistry::register_fn`].
#[must_use = "the builder opens nothing until .open() is called"]
pub struct SessionOptions<'rt> {
    rt: &'rt mut Runtime,
    spec: SessionSpec,
    shard: Option<usize>,
    external: Option<(InputStream, Arc<EpisodeEnv>)>,
}

impl SessionOptions<'_> {
    /// Overrides the spec's policy name (the registry key building the
    /// scheduler).
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.spec.policy = Some(name.into());
        self
    }

    /// Overrides the spec's seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = Some(seed);
        self
    }

    /// Pins the session to shard `shard` (below
    /// [`Runtime::shard_count`]) instead of the round-robin default.
    /// Pinning does not advance the round-robin cursor.
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Opens on an externally built (possibly shared) frozen
    /// environment instead of materializing the spec's scenario — the
    /// experiment-sweep path, where every scheme must face bit-identical
    /// conditions. The environment must be realized on this runtime's
    /// node. The spec's scenario/n_inputs/seed are ignored; its goal and
    /// policy still apply. Such sessions cannot be checkpointed.
    pub fn on(mut self, stream: InputStream, env: Arc<EpisodeEnv>) -> Self {
        self.external = Some((stream, env));
        self
    }

    /// Opens the session.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] on a malformed spec, an
    /// out-of-range shard, an environment realized on another node, or
    /// an environment with fewer inputs than its stream;
    /// [`Error::Policy`] when the policy name fails to resolve
    /// or rejects the session context.
    pub fn open(self) -> Result<SessionId, Error> {
        let SessionOptions {
            rt,
            spec,
            shard,
            external,
        } = self;
        rt.open_parts(shard, spec, external)
    }
}

/// One live session: scheduler + frozen environment + stepping engine.
///
/// A session owns all of its mutable state and shares only `Arc`-held
/// read-only context, so it is `Send`: [`Runtime::drain`] moves whole
/// shards of sessions onto worker threads.
pub(crate) struct Session {
    /// Rebuild recipe; `None` for sessions opened on externally built
    /// environments (those cannot be checkpointed).
    pub(crate) spec: Option<SessionSpec>,
    pub(crate) scheme: String,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) env: Arc<EpisodeEnv>,
    pub(crate) stream: InputStream,
    pub(crate) goal: Goal,
    pub(crate) engine: SessionEngine,
}

impl Session {
    /// Advances this session by one input; returns a reference to the
    /// freshly accumulated record (cloning is the caller's choice), or
    /// `Ok(None)` when the stream is exhausted.
    pub(crate) fn step(&mut self, family: &ModelFamily) -> Result<Option<&InputRecord>, StepError> {
        self.engine
            .step(self.scheduler.as_mut(), &self.env, family, &self.stream)
    }

    /// Folds this session into its episode.
    pub(crate) fn finish(self) -> Episode {
        self.engine.finish(&self.scheme, &self.goal)
    }
}

/// Builder for [`Runtime`] — see the module docs for the full picture.
pub struct RuntimeBuilder {
    spec: RunSpec,
    registry: Option<PolicyRegistry>,
    sinks: Vec<Box<dyn EventSink>>,
    telemetry: crate::telemetry::TelemetryConfig,
}

impl RuntimeBuilder {
    /// A builder with the default spec (CPU1, image family, ALERT).
    pub fn new() -> Self {
        RuntimeBuilder {
            spec: RunSpec::default(),
            registry: None,
            sinks: Vec::new(),
            telemetry: crate::telemetry::TelemetryConfig::Off,
        }
    }

    /// Starts from an existing serialized configuration.
    pub fn from_spec(spec: RunSpec) -> Self {
        RuntimeBuilder {
            spec,
            ..Self::new()
        }
    }

    /// Sets the platform preset.
    pub fn platform(mut self, platform: PlatformId) -> Self {
        self.spec.platform = platform;
        self
    }

    /// Adds an extra device preset serving alongside the primary
    /// platform (call repeatedly to grow the node).
    pub fn extra_backend(mut self, platform: PlatformId) -> Self {
        self.spec.extra_backends.push(platform);
        self
    }

    /// Sets the node-level power envelope split across all devices.
    pub fn shared_budget(mut self, budget: Watts) -> Self {
        self.spec.shared_budget = Some(budget);
        self
    }

    /// Sets a named paper family.
    pub fn family(mut self, family: FamilyKind) -> Self {
        self.spec.family = FamilySpec::Kind(family);
        self
    }

    /// Sets an explicit candidate family with its driving task.
    pub fn family_custom(mut self, family: ModelFamily, task: TaskId) -> Self {
        self.spec.family = FamilySpec::Custom { family, task };
        self
    }

    /// Sets the default policy for new sessions.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.spec.policy = name.into();
        self
    }

    /// Sets the controller parameters handed to ALERT-family policies.
    pub fn params(mut self, params: AlertParams) -> Self {
        self.spec.params = params;
        self
    }

    /// Sets the default session seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Installs a policy registry (defaults to
    /// [`PolicyRegistry::builtin`]).
    pub fn registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Installs an event sink receiving every [`EpisodeEvent`]. May be
    /// called repeatedly: sinks fan out in installation order.
    pub fn sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Sets how much decision telemetry the runtime emits (default:
    /// [`TelemetryConfig::Off`](crate::telemetry::TelemetryConfig::Off)
    /// — no telemetry events, byte-identical to the historical
    /// runtime). Telemetry is runtime instrumentation, not workload
    /// configuration, so it lives here rather than in [`RunSpec`]: two
    /// runtimes differing only in telemetry share one spec and produce
    /// bit-identical episodes.
    pub fn telemetry(mut self, config: crate::telemetry::TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Builds a one-shard runtime: `build_sharded(1)`.
    ///
    /// # Errors
    ///
    /// Fails when the default policy does not resolve.
    pub fn build(self) -> Result<Runtime, Error> {
        self.build_sharded(1)
    }

    /// Builds a runtime whose sessions live in `workers` shards (clamped
    /// to at least one), so [`Runtime::drain`] runs on up to `workers`
    /// threads. Every other operation behaves as on one shard.
    ///
    /// # Errors
    ///
    /// Fails when the default policy does not resolve.
    pub fn build_sharded(self, workers: usize) -> Result<Runtime, Error> {
        let RuntimeBuilder {
            spec,
            registry,
            sinks,
            telemetry,
        } = self;
        let registry = registry.unwrap_or_else(PolicyRegistry::builtin);
        if !registry.contains(&spec.policy) {
            return Err(UnknownPolicy {
                name: spec.policy.clone(),
                known: registry.names(),
            }
            .into());
        }
        let family = spec.family.family();
        let device0 = Platform::by_id(spec.platform);
        let span = alert_workload::quality_span(&family, &device0);
        // The node's device list, device 0 first — the environment
        // rebuild recipe for every session this runtime opens.
        let node: Vec<Platform> = std::iter::once(device0)
            .chain(spec.extra_backends.iter().map(|&id| Platform::by_id(id)))
            .collect();
        Ok(Runtime {
            node,
            span,
            family,
            task: spec.family.task(),
            spec,
            registry,
            sinks,
            telemetry,
            shards: (0..workers.max(1) as u64).map(Shard::new).collect(),
            next_shard: 0,
        })
    }
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// One shard of a [`Runtime`]: its open sessions plus its id cursor.
struct Shard {
    sessions: BTreeMap<SessionId, Session>,
    next_id: u64,
}

impl Shard {
    /// Shard `k`, whose first session gets id `k`.
    fn new(k: u64) -> Self {
        Shard {
            sessions: BTreeMap::new(),
            next_id: k,
        }
    }
}

/// A long-lived multi-session serving runtime. See the module docs.
///
/// ```
/// use alert_sched::runtime::Runtime;
///
/// let rt = Runtime::builder().build_sharded(4).expect("builds");
/// assert_eq!(rt.shard_count(), 4);
/// ```
pub struct Runtime {
    /// All node devices, device 0 first; never empty.
    node: Vec<Platform>,
    /// The family's achievable quality range on device 0, which
    /// relative quality floors resolve against.
    span: QualitySpan,
    family: ModelFamily,
    task: TaskId,
    spec: RunSpec,
    registry: PolicyRegistry,
    sinks: Vec<Box<dyn EventSink>>,
    telemetry: crate::telemetry::TelemetryConfig,
    /// Never empty: the builder clamps the shard count to at least one.
    shards: Vec<Shard>,
    /// Round-robin cursor placing new sessions.
    next_shard: usize,
}

/// The open session `id` among `shards`, routed by [`SessionId::shard_of`].
/// A free function so callers can keep borrowing the runtime's other
/// fields (family, sinks) while they hold the session.
fn routed(shards: &mut [Shard], id: SessionId) -> Result<&mut Session, Error> {
    let k = id.shard_of(shards.len());
    shards
        .get_mut(k)
        .and_then(|shard| shard.sessions.get_mut(&id))
        .ok_or(Error::UnknownSession(id))
}

impl Runtime {
    /// Starts a builder.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// The runtime's serializable configuration.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// All node devices, device 0 first — length `1` for the classic
    /// single-device runtime.
    pub fn node(&self) -> &[Platform] {
        &self.node
    }

    /// The candidate family sessions schedule over.
    pub fn family(&self) -> &ModelFamily {
        &self.family
    }

    /// The family's achievable quality range on device 0
    /// ([`alert_workload::quality_span`]).
    pub(crate) fn span(&self) -> QualitySpan {
        self.span
    }

    /// The policy registry in force.
    pub fn registry(&self) -> &PolicyRegistry {
        &self.registry
    }

    /// Number of shards (`1` unless built with
    /// [`RuntimeBuilder::build_sharded`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ids of all open sessions, ascending.
    pub fn open_sessions(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|shard| shard.sessions.keys().copied())
            .collect();
        ids.sort();
        ids
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.sessions.len()).sum()
    }

    /// Open sessions per shard, in shard order.
    pub fn shard_session_counts(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| shard.sessions.len())
            .collect()
    }

    /// Places `session` on shard `pin` (validated by the caller), or on
    /// the round-robin cursor's shard, advancing the cursor. Shard `k` of
    /// `N` hands out ids `k, k + N, …`, so the id routes back to it.
    fn insert_session(&mut self, pin: Option<usize>, session: Session) -> SessionId {
        let n = self.shards.len();
        let k = pin.unwrap_or_else(|| {
            let k = self.next_shard;
            self.next_shard = (k + 1) % n;
            k
        });
        let shard = &mut self.shards[k];
        let id = SessionId(shard.next_id);
        shard.next_id += n as u64;
        if !self.sinks.is_empty() {
            let event = EpisodeEvent::SessionOpened {
                session: id,
                stream: session.stream.stream_id(),
                scheme: session.scheme.clone(),
                inputs: session.stream.len(),
            };
            fan_out(&mut self.sinks, &event);
        }
        shard.sessions.insert(id, session);
        id
    }

    fn build_scheduler(
        &self,
        policy: &str,
        goal: Goal,
        env: &Arc<EpisodeEnv>,
        stream: &InputStream,
    ) -> Result<Box<dyn Scheduler>, Error> {
        let ctx = PolicyContext {
            family: &self.family,
            node: &self.node,
            goal,
            params: self.spec.params,
            shared_budget: self.spec.shared_budget,
            env,
            stream,
        };
        Ok(self.registry.build(policy, &ctx)?)
    }

    /// Validates a spec and materializes its session ingredients — the
    /// single code path behind both [`Runtime::session`] and
    /// [`Runtime::restore_session`] (the bit-identical-resume guarantee
    /// depends on these never diverging). The returned spec has its
    /// seed and policy resolved against the runtime defaults, so it is
    /// self-contained for later checkpoints.
    #[allow(clippy::type_complexity)]
    fn materialize(
        &self,
        mut spec: SessionSpec,
    ) -> Result<
        (
            SessionSpec,
            InputStream,
            Arc<EpisodeEnv>,
            Box<dyn Scheduler>,
        ),
        Error,
    > {
        if spec.n_inputs == 0 {
            return Err(Error::InvalidSpec("n_inputs must be > 0".into()));
        }
        spec.goal.validate().map_err(Error::InvalidSpec)?;
        let seed = spec.seed.unwrap_or(self.spec.seed);
        spec.seed = Some(seed);
        let policy = spec
            .policy
            .take()
            .unwrap_or_else(|| self.spec.policy.clone());
        let stream = InputStream::generate(self.task, spec.n_inputs, seed);
        // Sessions always realize span-aware: scenarios that move the
        // quality floor relative to the family range resolve it against
        // the serving family (a no-op for absolute scripts).
        let env = Arc::new(
            EpisodeEnv::build(
                &self.node,
                &spec.scenario,
                &stream,
                &spec.goal,
                seed,
                Some(self.span),
            )
            .map_err(|e| Error::InvalidSpec(e.to_string()))?,
        );
        let scheduler = self.build_scheduler(&policy, spec.goal, &env, &stream)?;
        // Store the spec fully resolved so later checkpoints are
        // self-contained.
        spec.policy = Some(policy);
        Ok((spec, stream, env, scheduler))
    }

    /// Starts a [`SessionOptions`] builder — the single entry point for
    /// opening sessions. The plain form materializes the spec
    /// (checkpointable); chain [`SessionOptions::on`] for an externally
    /// built environment:
    ///
    /// ```text
    /// runtime.session(spec).open()                          // from spec
    /// runtime.session(spec).on(stream, env).open()          // external env
    /// runtime.session(spec).on_shard(2).open()              // pinned shard
    /// ```
    pub fn session(&mut self, spec: SessionSpec) -> SessionOptions<'_> {
        SessionOptions {
            rt: self,
            spec,
            shard: None,
            external: None,
        }
    }

    /// The single open path behind [`Runtime::session`]:
    /// spec-materialized and external-environment sessions both land
    /// here.
    fn open_parts(
        &mut self,
        pin: Option<usize>,
        spec: SessionSpec,
        external: Option<(InputStream, Arc<EpisodeEnv>)>,
    ) -> Result<SessionId, Error> {
        if let Some(k) = pin.filter(|&k| k >= self.shards.len()) {
            return Err(Error::InvalidSpec(format!(
                "no shard {k}: this runtime has {} shard(s)",
                self.shards.len()
            )));
        }
        let session = match external {
            // From the serializable spec: generates the stream, freezes
            // the environment, and builds the policy's scheduler.
            None => {
                let (spec, stream, env, scheduler) = self.materialize(spec)?;
                Session {
                    goal: spec.goal,
                    spec: Some(spec),
                    scheme: scheduler.name().to_string(),
                    scheduler,
                    env,
                    stream,
                    engine: SessionEngine::new(),
                }
            }
            // Externally built (possibly shared) frozen environment — the
            // experiment-sweep path, where every scheme must face
            // bit-identical conditions. Not checkpointable: the runtime
            // cannot rebuild the environment.
            Some((stream, env)) => {
                // The policy builds for this runtime's node while every
                // input runs on the environment's, so the two must match.
                if env.node() != self.node.as_slice() {
                    let ids = |node: &[Platform]| node.iter().map(Platform::id).collect::<Vec<_>>();
                    return Err(Error::InvalidSpec(format!(
                        "the environment was realized on node {:?}, this runtime's node is {:?}",
                        ids(env.node()),
                        ids(&self.node)
                    )));
                }
                // Every input is realized from the environment's frozen
                // state, so a shorter environment would fail mid-stream.
                if env.len() < stream.len() {
                    return Err(Error::InvalidSpec(format!(
                        "the environment realizes {} inputs, the stream has {}",
                        env.len(),
                        stream.len()
                    )));
                }
                let policy = spec.policy.as_deref().unwrap_or(&self.spec.policy);
                let scheduler = self.build_scheduler(policy, spec.goal, &env, &stream)?;
                Session {
                    spec: None,
                    scheme: scheduler.name().to_string(),
                    scheduler,
                    env,
                    stream,
                    goal: spec.goal,
                    engine: SessionEngine::new(),
                }
            }
        };
        Ok(self.insert_session(pin, session))
    }

    fn session_ref(&self, id: SessionId) -> Result<&Session, Error> {
        self.shards
            .get(id.shard_of(self.shards.len()))
            .and_then(|shard| shard.sessions.get(&id))
            .ok_or(Error::UnknownSession(id))
    }

    /// `true` once the session has processed its whole stream.
    pub fn is_finished(&self, id: SessionId) -> Result<bool, Error> {
        let s = self.session_ref(id)?;
        Ok(s.engine.is_finished(&s.stream))
    }

    /// Inputs processed so far.
    pub fn progress(&self, id: SessionId) -> Result<usize, Error> {
        Ok(self.session_ref(id)?.engine.cursor())
    }

    /// The scheme name driving a session.
    pub fn scheme(&self, id: SessionId) -> Result<&str, Error> {
        Ok(&self.session_ref(id)?.scheme)
    }

    /// Builds the decision-telemetry event for a freshly stepped input,
    /// when the config samples it and the scheme keeps a trace. Pure
    /// observation: it only *reads* the trace the controller recorded on
    /// its own, after the selection was final.
    pub(crate) fn decision_telemetry(
        config: crate::telemetry::TelemetryConfig,
        id: SessionId,
        record: &InputRecord,
        scheduler: &dyn Scheduler,
    ) -> Option<EpisodeEvent> {
        if !config.records(record.index) {
            return None;
        }
        let trace = scheduler.decision_trace()?;
        let (post_mean, post_std) = scheduler
            .belief()
            .unwrap_or((trace.belief_mean, trace.belief_std));
        Some(EpisodeEvent::Telemetry {
            event: crate::telemetry::TelemetryEvent::Decision(crate::telemetry::DecisionEvent {
                session: id,
                index: record.index,
                trace,
                post_mean,
                post_std,
                deadline: record.deadline,
                realized_latency: record.latency,
                missed: record.latency.get() > record.deadline.get(),
            }),
        })
    }

    /// Advances `id` by one input and emits its events; returns the
    /// record when `keep` asks for an owned copy. The record is cloned
    /// at most once: for the sinks, if any are installed, and the copy
    /// that rode through the event is then moved out for the caller.
    /// `Ok(None)` means the stream is exhausted.
    fn step_session(
        &mut self,
        id: SessionId,
        keep: bool,
    ) -> Result<Option<Option<InputRecord>>, Error> {
        let s = routed(&mut self.shards, id)?;
        let Some(record) = s.step(&self.family)? else {
            return Ok(None);
        };
        // No sinks: skip event construction entirely — without `keep`
        // the hot path clones nothing.
        if self.sinks.is_empty() {
            return Ok(Some(keep.then(|| record.clone())));
        }
        // Cloning first releases the step borrow so the scheduler's
        // trace is readable; the clone then rides through the event.
        let record = record.clone();
        let telemetry = Self::decision_telemetry(self.telemetry, id, &record, s.scheduler.as_ref());
        let event = EpisodeEvent::InputProcessed {
            session: id,
            record,
        };
        fan_out(&mut self.sinks, &event);
        if let Some(telemetry) = telemetry {
            fan_out(&mut self.sinks, &telemetry);
        }
        let EpisodeEvent::InputProcessed { record, .. } = event else {
            // lint:allow(no-panic): the event variant is constructed just above; no other variant can reach here
            unreachable!("constructed above")
        };
        Ok(Some(keep.then_some(record)))
    }

    /// Advances `id` by exactly one input. Returns the record, or
    /// `Ok(None)` when the stream is exhausted.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSession`] for an id that is not open;
    /// [`Error::Step`] when the scheduler hands back a
    /// configuration the node cannot execute. A step error is terminal
    /// for the session (see [`SessionEngine::step`]): close it.
    pub fn submit(&mut self, id: SessionId) -> Result<Option<InputRecord>, Error> {
        Ok(self.step_session(id, true)?.flatten())
    }

    /// Drives `id` to the end of its stream; returns the number of
    /// inputs processed by this call.
    ///
    /// # Errors
    ///
    /// As [`Runtime::submit`].
    pub fn run_to_completion(&mut self, id: SessionId) -> Result<usize, Error> {
        let mut n = 0;
        while self.step_session(id, false)?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Closes a session, returning its [`Episode`]. The session need not
    /// be finished; the episode covers the inputs processed so far.
    pub fn close(&mut self, id: SessionId) -> Result<Episode, Error> {
        let k = id.shard_of(self.shards.len());
        let s = self
            .shards
            .get_mut(k)
            .and_then(|shard| shard.sessions.remove(&id))
            .ok_or(Error::UnknownSession(id))?;
        let episode = s.engine.finish(&s.scheme, &s.goal);
        if !self.sinks.is_empty() {
            let event = EpisodeEvent::SessionClosed {
                session: id,
                scheme: s.scheme,
                summary: episode.summary.clone(),
            };
            fan_out(&mut self.sinks, &event);
        }
        Ok(episode)
    }

    /// Steps every open session to the end of its stream and closes it,
    /// returning the episodes ascending by id.
    ///
    /// Each non-empty shard runs on its own scoped thread, stepping its
    /// sessions round-robin in id order. Sessions share no mutable
    /// state, so every session's records are **bit-identical** to
    /// submitting its inputs one at a time, for any shard count
    /// (`tests/parallel_executor.rs` proves it property-style). The one
    /// exception is inherent to the scheme, not the drain: sessions
    /// under `OverheadPolicy::Measured` feed measured decision cost back
    /// into their deadline reserve, so their records are
    /// timing-dependent even across two single-shard runs.
    ///
    /// With sinks installed, the workers send their events over a
    /// channel to the calling thread, which hands them to the sinks:
    /// each session's `InputProcessed` events arrive in index order,
    /// followed by its `SessionClosed`. *Cross*-session interleaving
    /// depends on thread scheduling; no consumer may rely on it.
    ///
    /// # Errors
    ///
    /// [`Error::Step`] when a scheduler hands back a configuration
    /// the node cannot execute — the first such error in shard order.
    /// The drain takes every session out of the runtime before it
    /// starts, so the sessions are gone on error as on success:
    /// `session_count() == 0` afterwards.
    pub fn drain(&mut self) -> Result<Vec<(SessionId, Episode)>, Error> {
        let shards = self
            .shards
            .iter_mut()
            .map(|shard| std::mem::take(&mut shard.sessions))
            .collect();
        executor::drain_shards(shards, &self.family, &mut self.sinks, self.telemetry)
    }

    /// Checkpoints a session opened from a [`SessionSpec`].
    ///
    /// Fails for sessions opened on external environments (no rebuild
    /// recipe) and for policies that cannot export their state once the
    /// session has started (nothing to carry the learned state over).
    pub fn snapshot_session(&self, id: SessionId) -> Result<SessionSnapshot, Error> {
        let s = self.session_ref(id)?;
        // Session specs are stored fully resolved (seed + policy), so
        // the snapshot is self-contained.
        let spec = s.spec.clone().ok_or_else(|| {
            Error::NotCheckpointable(
                id,
                "opened on an external environment (no rebuild recipe)".into(),
            )
        })?;
        let controller = s.scheduler.controller_snapshot();
        if controller.is_none() && s.engine.cursor() > 0 {
            return Err(Error::NotCheckpointable(
                id,
                format!("policy '{}' does not export controller state", s.scheme),
            ));
        }
        Ok(SessionSnapshot {
            origin: self.spec.clone(),
            spec,
            scheme: s.scheme.clone(),
            engine: s.engine.clone(),
            controller,
        })
    }

    /// The decision-table bundle an open session's scheduler holds.
    #[cfg(test)]
    pub(crate) fn session_tables(&self, id: SessionId) -> Option<Arc<alert_core::DecisionTables>> {
        let s = self.session_ref(id).ok()?;
        s.scheduler.decision_tables().cloned()
    }

    /// Restores a checkpointed session into this runtime (the migration
    /// path): rebuilds the stream and environment from the snapshot's
    /// spec, builds a fresh scheduler, restores its learned state, and
    /// resumes from the recorded cursor. Returns the new session id.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] when this runtime differs from the
    /// snapshot's origin, when the engine state is inconsistent, when a
    /// started session carries no controller state, when the controller
    /// state is one no controller reaches or embeds other Kalman
    /// constants than the policy builds with, or when a mid-sentence cut
    /// lost its budget tracker; otherwise as [`Runtime::session`].
    pub fn restore_session(&mut self, snap: &SessionSnapshot) -> Result<SessionId, Error> {
        // The target runtime must match the snapshot's origin on
        // everything that shaped the already-recorded half of the
        // episode; otherwise the resumed records would silently diverge.
        if self.spec.platform != snap.origin.platform {
            return Err(Error::InvalidSpec(format!(
                "snapshot was taken on platform {:?}, this runtime is {:?}",
                snap.origin.platform, self.spec.platform
            )));
        }
        if self.spec.extra_backends != snap.origin.extra_backends
            || self.spec.shared_budget != snap.origin.shared_budget
        {
            return Err(Error::InvalidSpec(format!(
                "snapshot was taken on a different device topology \
                 (origin extras {:?} budget {:?}, this runtime {:?} / {:?}) — \
                 already-recorded placements would not be reproducible",
                snap.origin.extra_backends,
                snap.origin.shared_budget,
                self.spec.extra_backends,
                self.spec.shared_budget
            )));
        }
        if self.spec.family != snap.origin.family {
            return Err(Error::InvalidSpec(
                "snapshot was taken over a different candidate family".into(),
            ));
        }
        if self.spec.params != snap.origin.params {
            return Err(Error::InvalidSpec(
                "snapshot was taken under different controller params".into(),
            ));
        }
        if snap.engine.cursor() > snap.spec.n_inputs
            || snap.engine.records().len() != snap.engine.cursor()
        {
            return Err(Error::InvalidSpec(format!(
                "engine state inconsistent: cursor {} / {} records over a {}-input stream",
                snap.engine.cursor(),
                snap.engine.records().len(),
                snap.spec.n_inputs
            )));
        }
        // A started session's records were shaped by what its controller
        // learned; resuming on a fresh one would silently diverge from
        // an uninterrupted run. `snapshot_session` never writes such a
        // snapshot, but snapshots also arrive as JSON from outside.
        if snap.controller.is_none() && snap.engine.cursor() > 0 {
            return Err(Error::InvalidSpec(format!(
                "snapshot cut at input {} carries no controller state, so the resumed \
                 controller would forget everything it learned",
                snap.engine.cursor()
            )));
        }
        // Controller state also arrives as JSON: a belief no controller can
        // reach would panic the next decision or plan against the wrong
        // deadline.
        if let Some(ctl) = &snap.controller {
            ctl.validate()
                .map_err(|e| Error::InvalidSpec(format!("controller state: {e}")))?;
        }
        let (spec, stream, env, mut scheduler) = self.materialize(snap.spec.clone())?;
        // A snapshot carries learned state, not configuration: its ξ
        // filter must embed the Kalman constants this runtime's policy
        // builds with. Restoring others would install constants no
        // validation has seen (`q_min` above `q0` panics the next update).
        if let (Some(ctl), Some(fresh)) = (&snap.controller, scheduler.controller_snapshot()) {
            let (theirs, ours) = (ctl.xi.filter().params(), fresh.xi.filter().params());
            if theirs != ours {
                return Err(Error::InvalidSpec(format!(
                    "snapshot's ξ filter carries Kalman constants {theirs:?}, but this \
                     runtime's policy builds with {ours:?}"
                )));
            }
        }
        // Mid-sentence integrity (NLP1 grouped streams, paper §3.2 step
        // 2): when the next input is a non-leading group member, the
        // engine must arrive with its shared-budget tracker still inside
        // the group. A snapshot whose tracker state was lost (reset)
        // would not fail here on its own — it would silently hand every
        // remaining member of the sentence the 1 µs floor deadline, so
        // the resumed records diverge from an uninterrupted run without
        // any error. Reject such snapshots loudly instead.
        if let Some(next) = stream.inputs().get(snap.engine.cursor()) {
            if let Some(g) = next.group {
                let budget = snap.engine.budget();
                let expected_left = g.group_len - g.member_idx;
                if g.member_idx != 0
                    && (!budget.in_group() || budget.members_left() != expected_left)
                {
                    return Err(Error::InvalidSpec(format!(
                        "snapshot cut mid-sentence (next input is member {} of a {}-word \
                         group, so {} members' budget should remain claimable) but its \
                         budget tracker carries {} — the tracker was reset or the snapshot \
                         predates budget carry-over",
                        g.member_idx,
                        g.group_len,
                        expected_left,
                        if budget.in_group() {
                            format!("{} members", budget.members_left())
                        } else {
                            "no group state".to_string()
                        }
                    )));
                }
            }
        }
        if let Some(ctl) = &snap.controller {
            scheduler.restore_controller(ctl);
        }
        Ok(self.insert_session(
            None,
            Session {
                goal: spec.goal,
                spec: Some(spec),
                scheme: snap.scheme.clone(),
                scheduler,
                env,
                stream,
                engine: snap.engine.clone(),
            },
        ))
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("spec", &self.spec)
            .field("shards", &self.shards.len())
            .field("sessions", &self.session_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::Seconds;
    use std::sync::mpsc;

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec {
            goal: Goal::minimize_energy(Seconds(0.4), 0.9),
            scenario: Scenario::memory_env(seed),
            n_inputs: 60,
            seed: Some(seed),
            policy: None,
        }
    }

    fn runtime() -> Runtime {
        Runtime::builder().build().expect("default builds")
    }

    fn hetero_runtime() -> Runtime {
        Runtime::builder()
            .extra_backend(PlatformId::Gpu)
            .shared_budget(Watts(250.0))
            .build()
            .expect("hetero node builds")
    }

    #[test]
    fn builder_rejects_unknown_default_policy() {
        let err = Runtime::builder().policy("NoSuch").build().unwrap_err();
        assert!(matches!(err, Error::Policy(_)), "{err}");
    }

    #[test]
    fn open_submit_close_lifecycle() {
        let mut rt = runtime();
        let id = rt.session(spec(7)).open().unwrap();
        assert_eq!(rt.session_count(), 1);
        assert!(!rt.is_finished(id).unwrap());
        let first = rt.submit(id).unwrap().expect("one record");
        assert_eq!(first.index, 0);
        assert_eq!(rt.progress(id).unwrap(), 1);
        let n = rt.run_to_completion(id).unwrap();
        assert_eq!(n, 59);
        assert!(rt.is_finished(id).unwrap());
        assert!(rt.submit(id).unwrap().is_none());
        let ep = rt.close(id).unwrap();
        assert_eq!(ep.records.len(), 60);
        assert_eq!(ep.scheme, "ALERT");
        assert_eq!(rt.session_count(), 0);
        assert!(matches!(rt.submit(id), Err(Error::UnknownSession(_))));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut rt = runtime();
        let mut s = spec(1);
        s.n_inputs = 0;
        assert!(matches!(rt.session(s).open(), Err(Error::InvalidSpec(_))));
        let mut s = spec(1);
        s.goal.min_quality = None;
        assert!(matches!(rt.session(s).open(), Err(Error::InvalidSpec(_))));
        let mut s = spec(1);
        s.policy = Some("NoSuch".into());
        assert!(matches!(rt.session(s).open(), Err(Error::Policy(_))));
    }

    #[test]
    fn shard_pins_must_name_an_existing_shard() {
        for shards in [1, 3] {
            let mut rt = Runtime::builder().build_sharded(shards).unwrap();
            let id = rt.session(spec(1)).on_shard(shards - 1).open().unwrap();
            assert_eq!(id.shard_of(shards), shards - 1);
            assert!(matches!(
                rt.session(spec(1)).on_shard(shards).open(),
                Err(Error::InvalidSpec(_))
            ));
        }
    }

    #[test]
    fn sessions_inherit_runtime_default_seed() {
        // `seed: None` resolves to the RunSpec seed: two runtimes with
        // the same default seed agree, a third with a different default
        // diverges.
        let run_with_default = |rt_seed: u64| {
            let mut rt = Runtime::builder().seed(rt_seed).build().unwrap();
            let id = rt
                .session(SessionSpec {
                    seed: None,
                    ..spec(1)
                })
                .open()
                .unwrap();
            rt.run_to_completion(id).unwrap();
            rt.close(id).unwrap()
        };
        let a = run_with_default(500);
        let b = run_with_default(500);
        let c = run_with_default(501);
        assert_eq!(a.records, b.records);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn per_session_policy_override() {
        let mut rt = runtime();
        let a = rt
            .session(SessionSpec {
                policy: Some("App-only".into()),
                ..spec(3)
            })
            .open()
            .unwrap();
        let b = rt.session(spec(3)).open().unwrap();
        assert_eq!(rt.scheme(a).unwrap(), "App-only");
        assert_eq!(rt.scheme(b).unwrap(), "ALERT");
    }

    #[test]
    fn interleaved_sessions_match_isolated_sessions() {
        // Three sessions multiplexed through one runtime, stepped in a
        // deliberately unfair interleaving, produce records identical to
        // three separately drained runtimes.
        let seeds = [11u64, 12, 13];
        let isolated: Vec<Episode> = seeds
            .iter()
            .map(|&s| {
                let mut rt = runtime();
                let id = rt.session(spec(s)).open().unwrap();
                rt.run_to_completion(id).unwrap();
                rt.close(id).unwrap()
            })
            .collect();

        let mut rt = runtime();
        let ids: Vec<SessionId> = seeds
            .iter()
            .map(|&s| rt.session(spec(s)).open().unwrap())
            .collect();
        // Unfair schedule: two steps of session 0, one of 1, three of 2...
        let pattern = [0usize, 0, 1, 2, 2, 2];
        let mut done = 0;
        while done < ids.len() {
            done = 0;
            for &k in &pattern {
                let _ = rt.submit(ids[k]).unwrap();
            }
            for &id in &ids {
                if rt.is_finished(id).unwrap() {
                    done += 1;
                }
            }
        }
        for (&id, isolated_ep) in ids.iter().zip(&isolated) {
            let ep = rt.close(id).unwrap();
            assert_eq!(ep.records, isolated_ep.records);
        }
    }

    #[test]
    fn relative_floor_scenarios_resolve_against_the_serving_family() {
        // The runtime realizes sessions span-aware, so the family-generic
        // FloorRaise scenario needs no extra plumbing from callers.
        let mut rt = runtime();
        let span = alert_workload::quality_span(rt.family(), &rt.node()[0]);
        let id = rt
            .session(SessionSpec {
                scenario: Scenario::floor_raise(),
                ..spec(3)
            })
            .open()
            .unwrap();
        rt.run_to_completion(id).unwrap();
        let ep = rt.close(id).unwrap();
        let first = ep.records.first().unwrap();
        let last = ep.records.last().unwrap();
        assert_eq!(first.min_quality, Some(0.9), "base floor before the mark");
        let raised = last.min_quality.expect("floor in force");
        assert!(
            (raised - span.floor_at(0.85)).abs() < 1e-12,
            "raised floor {raised} must sit at 85% of the family span"
        );
    }

    #[test]
    fn events_flow_through_mpsc_sink() {
        let (tx, rx) = mpsc::channel();
        let mut rt = Runtime::builder().sink(tx).build().unwrap();
        let id = rt.session(spec(5)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        let _ = rt.close(id).unwrap();
        drop(rt); // drop the sender inside the runtime
        let events: Vec<EpisodeEvent> = rx.iter().collect();
        assert_eq!(events.len(), 1 + 60 + 1);
        assert!(matches!(
            &events[0],
            EpisodeEvent::SessionOpened { session, inputs: 60, .. } if *session == id
        ));
        for (i, e) in events[1..=60].iter().enumerate() {
            match e {
                EpisodeEvent::InputProcessed { session, record } => {
                    assert_eq!(*session, id);
                    assert_eq!(record.index, i);
                }
                other => panic!("expected InputProcessed, got {other:?}"),
            }
        }
        assert!(matches!(
            &events[61],
            EpisodeEvent::SessionClosed { session, .. } if *session == id
        ));
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Run uninterrupted for the reference...
        let mut rt = runtime();
        let id = rt.session(spec(21)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        let reference = rt.close(id).unwrap();

        // ...then run half, checkpoint, migrate to a NEW runtime, finish.
        let mut rt1 = runtime();
        let id1 = rt1.session(spec(21)).open().unwrap();
        for _ in 0..30 {
            rt1.submit(id1).unwrap();
        }
        let snap = rt1.snapshot_session(id1).unwrap();
        drop(rt1);

        let mut rt2 = runtime();
        let id2 = rt2.restore_session(&snap).unwrap();
        assert_eq!(rt2.progress(id2).unwrap(), 30);
        rt2.run_to_completion(id2).unwrap();
        let resumed = rt2.close(id2).unwrap();
        assert_eq!(reference.records, resumed.records);
    }

    #[test]
    fn restore_rejects_mismatched_runtime_config() {
        let mut rt = runtime();
        let id = rt.session(spec(6)).open().unwrap();
        for _ in 0..5 {
            rt.submit(id).unwrap();
        }
        let snap = rt.snapshot_session(id).unwrap();

        // Different platform.
        let mut gpu = Runtime::builder()
            .platform(PlatformId::Gpu)
            .build()
            .unwrap();
        assert!(matches!(
            gpu.restore_session(&snap),
            Err(Error::InvalidSpec(_))
        ));

        // Different controller params.
        let mut other = Runtime::builder()
            .params(AlertParams {
                initial_idle_ratio: 0.7,
                ..Default::default()
            })
            .build()
            .unwrap();
        assert!(matches!(
            other.restore_session(&snap),
            Err(Error::InvalidSpec(_))
        ));

        // A different *default policy* is fine: the snapshot carries the
        // resolved policy name.
        let mut app = Runtime::builder().policy("App-only").build().unwrap();
        let restored = app.restore_session(&snap).unwrap();
        assert_eq!(app.scheme(restored).unwrap(), "ALERT");
    }

    #[test]
    fn hetero_sessions_run_snapshot_and_restore_identically() {
        // Uninterrupted CPU+GPU session for the reference...
        let mut rt = hetero_runtime();
        assert_eq!(rt.node().len(), 2);
        let id = rt.session(spec(21)).open().unwrap();
        rt.run_to_completion(id).unwrap();
        let reference = rt.close(id).unwrap();
        assert!(
            reference.records.iter().all(|r| r.device < 2),
            "placements must stay inside the node"
        );

        // ...then half, checkpoint, migrate to a new hetero runtime.
        let mut rt1 = hetero_runtime();
        let id1 = rt1.session(spec(21)).open().unwrap();
        for _ in 0..30 {
            rt1.submit(id1).unwrap();
        }
        let snap = rt1.snapshot_session(id1).unwrap();
        drop(rt1);

        let mut rt2 = hetero_runtime();
        let id2 = rt2.restore_session(&snap).unwrap();
        rt2.run_to_completion(id2).unwrap();
        let resumed = rt2.close(id2).unwrap();
        assert_eq!(reference.records, resumed.records);

        // A single-device runtime cannot re-home the recorded
        // placements: topology is part of the origin check.
        let mut cpu_only = runtime();
        assert!(matches!(
            cpu_only.restore_session(&snap),
            Err(Error::InvalidSpec(_))
        ));
    }

    #[test]
    fn run_spec_without_device_fields_parses_as_single_node() {
        // Spec files written before the device axis carry neither
        // `extra_backends` nor `shared_budget`; they must keep parsing
        // as the classic single-device node.
        let serde_json::Value::Object(mut obj) = serde_json::to_value(&RunSpec::default()) else {
            panic!("RunSpec serializes as a map");
        };
        obj.remove("extra_backends");
        obj.remove("shared_budget");
        let json = serde_json::to_string(&serde_json::Value::Object(obj)).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, RunSpec::default());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let mut rt = runtime();
        let id = rt.session(spec(6)).open().unwrap();
        for _ in 0..5 {
            rt.submit(id).unwrap();
        }
        let good = rt.snapshot_session(id).unwrap();

        let mut zero = good.clone();
        zero.spec.n_inputs = 0;
        assert!(matches!(
            rt.restore_session(&zero),
            Err(Error::InvalidSpec(_))
        ));

        let mut bad_goal = good.clone();
        bad_goal.spec.goal.min_quality = None;
        assert!(matches!(
            rt.restore_session(&bad_goal),
            Err(Error::InvalidSpec(_))
        ));

        let mut short = good.clone();
        short.spec.n_inputs = 3; // cursor 5 > stream of 3
        assert!(matches!(
            rt.restore_session(&short),
            Err(Error::InvalidSpec(_))
        ));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut rt = runtime();
        let id = rt.session(spec(2)).open().unwrap();
        for _ in 0..10 {
            rt.submit(id).unwrap();
        }
        let snap = rt.snapshot_session(id).unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        let back: SessionSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn stateless_policies_cannot_checkpoint_mid_stream() {
        let mut rt = runtime();
        let id = rt
            .session(SessionSpec {
                policy: Some("App-only".into()),
                ..spec(4)
            })
            .open()
            .unwrap();
        // Fresh sessions can snapshot (nothing learned yet)...
        assert!(rt.snapshot_session(id).is_ok());
        rt.submit(id).unwrap();
        // ...started ones cannot: App-only exports no controller state.
        assert!(matches!(
            rt.snapshot_session(id),
            Err(Error::NotCheckpointable(_, _))
        ));
    }

    #[test]
    fn external_env_sessions_cannot_checkpoint() {
        let mut rt = runtime();
        let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
        let stream = InputStream::generate(TaskId::Img2, 30, 9);
        let env = Arc::new(
            EpisodeEnv::build(rt.node(), &Scenario::default_env(), &stream, &goal, 9, None)
                .unwrap(),
        );
        let id = rt
            .session(SessionSpec::external(goal))
            .policy("ALERT")
            .on(stream, env)
            .open()
            .unwrap();
        assert!(matches!(
            rt.snapshot_session(id),
            Err(Error::NotCheckpointable(_, _))
        ));
    }

    #[test]
    fn external_env_must_realize_every_input_of_the_stream() {
        let mut rt = runtime();
        let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
        let stream = InputStream::generate(TaskId::Img2, 10, 9);
        let short = Arc::new(
            EpisodeEnv::build(
                rt.node(),
                &Scenario::default_env(),
                &InputStream::generate(TaskId::Img2, 5, 9),
                &goal,
                9,
                None,
            )
            .unwrap(),
        );
        let opened = rt
            .session(SessionSpec::external(goal))
            .policy("ALERT")
            .on(stream, short)
            .open();
        assert!(matches!(opened, Err(Error::InvalidSpec(_))), "{opened:?}");
    }

    #[test]
    fn external_env_must_be_realized_on_the_runtime_node() {
        let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
        let stream = InputStream::generate(TaskId::Img2, 40, 9);
        let env_on = |node: &[Platform]| {
            Arc::new(
                EpisodeEnv::build(node, &Scenario::default_env(), &stream, &goal, 9, None).unwrap(),
            )
        };
        let open = |rt: &mut Runtime, env| {
            rt.session(SessionSpec::external(goal))
                .on(stream.clone(), env)
                .open()
        };
        // A CPU1 runtime over a CPU2 environment, and a CPU1 + GPU
        // runtime over a CPU1-only one: the policy would build its
        // tables for one node while every input ran on the other.
        let mut cpu1 = runtime();
        let opened = open(&mut cpu1, env_on(&[Platform::cpu2()]));
        assert!(matches!(opened, Err(Error::InvalidSpec(_))), "{opened:?}");
        let mut hetero = hetero_runtime();
        let opened = open(&mut hetero, env_on(&[Platform::cpu1()]));
        assert!(matches!(opened, Err(Error::InvalidSpec(_))), "{opened:?}");
        // Each runtime still opens on an environment of its own node.
        for rt in [&mut cpu1, &mut hetero] {
            let env = env_on(rt.node());
            let id = open(rt, env).expect("matching node opens");
            rt.run_to_completion(id).unwrap();
        }
    }

    #[test]
    fn run_spec_roundtrips_through_json() {
        let spec = RunSpec {
            platform: PlatformId::Gpu,
            policy: "ALERT-Any".to_string(),
            seed: 99,
            ..RunSpec::default()
        };
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let rt = RuntimeBuilder::from_spec(back).build().unwrap();
        assert_eq!(rt.spec().policy, "ALERT-Any");
        assert_eq!(rt.spec().platform, PlatformId::Gpu);
    }

    #[test]
    fn drain_closes_everything() {
        let mut rt = runtime();
        let mut specs = Vec::new();
        for s in 0..5u64 {
            let mut sp = spec(40 + s);
            sp.n_inputs = 20 + s as usize * 7; // uneven lengths
            specs.push(sp.clone());
            rt.session(sp).open().unwrap();
        }
        let episodes = rt.drain().unwrap();
        assert_eq!(episodes.len(), 5);
        assert_eq!(rt.session_count(), 0);
        for ((_, ep), sp) in episodes.iter().zip(&specs) {
            assert_eq!(ep.records.len(), sp.n_inputs);
        }
    }
}
