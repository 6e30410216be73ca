//! The open policy registry: string-keyed scheduler constructors.
//!
//! A [`Policy`] is a named constructor that builds a [`Scheduler`] for
//! one session from a [`PolicyContext`], and a [`PolicyRegistry`] maps
//! names to policies. A scheme's name is its only identity: external
//! crates (and `examples/custom_policy.rs`) register their schemes next
//! to the built-ins, and everything downstream — the runtime, the paper
//! sweep, `RunSpec` files — addresses them by name.
//!
//! All nine paper schemes are pre-registered by
//! [`PolicyRegistry::builtin`] under their Table 3/4 column labels
//! (`"ALERT"`, `"ALERT-Any"`, `"Oracle"`, …). The four ALERT variants
//! are [`AlertPolicy`]s, which share one decision-table bundle across
//! every session over the same configuration.

use crate::alert::{decision_tables, AlertScheduler};
use crate::app_only::AppOnly;
use crate::env::EpisodeEnv;
use crate::no_coord::NoCoord;
use crate::oracle::{Oracle, OracleStatic};
use crate::scheduler::Scheduler;
use crate::sys_only::SysOnly;
use alert_core::alert::{AlertParams, DecisionTables, ProbabilityMode};
use alert_models::family::CandidateSet;
use alert_models::ModelFamily;
use alert_platform::Platform;
use alert_stats::units::Watts;
use alert_workload::{Goal, InputStream};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a policy may consult when building a scheduler for one
/// session. The frozen environment and the input stream are included
/// for the oracle schemes (paper §5.1 calls them impractical for
/// exactly this reason); honest policies should touch only the family,
/// node, goal and params — the node's device list is physical
/// configuration visible to any real scheduler, not foreknowledge of
/// the environment's draws.
pub struct PolicyContext<'a> {
    /// The candidate model family of the session.
    pub family: &'a ModelFamily,
    /// The node the session runs on, device `0` first (the environment
    /// is realized on the same node).
    pub node: &'a [Platform],
    /// The session's goal.
    pub goal: Goal,
    /// Controller parameters from the run specification (ALERT-family
    /// policies honour these; others may ignore them).
    pub params: AlertParams,
    /// Node-level power envelope shared by all devices
    /// ([`RunSpec::shared_budget`](crate::runtime::RunSpec)); `None`
    /// leaves every device its full cap range.
    pub shared_budget: Option<Watts>,
    /// The frozen episode environment (oracles, plus device topology).
    pub env: &'a Arc<EpisodeEnv>,
    /// The session's input stream (OracleStatic needs lookahead).
    pub stream: &'a InputStream,
}

/// A named scheduler constructor.
pub trait Policy: Send + Sync {
    /// The registry key and reporting label.
    fn name(&self) -> &str;

    /// Builds a fresh scheduler instance for one session.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the session's context
    /// cannot support the scheme (invalid goal, no fitting model, bad
    /// controller parameters) — all user-configuration conditions that
    /// must surface to the caller rather than abort the process.
    fn build(&self, ctx: &PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String>;
}

/// A boxed scheduler constructor, as stored by [`FnPolicy`].
pub type BuildFn =
    Box<dyn Fn(&PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String> + Send + Sync>;

/// A [`Policy`] from a name and a closure — the quickest way to register
/// a custom scheme.
pub struct FnPolicy {
    name: String,
    build: BuildFn,
}

impl FnPolicy {
    /// Wraps `build` as a policy named `name`.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(&PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String> + Send + Sync + 'static,
    ) -> Self {
        FnPolicy {
            name: name.into(),
            build: Box::new(build),
        }
    }
}

impl Policy for FnPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String> {
        (self.build)(ctx)
    }
}

/// The inputs a [`DecisionTables`] bundle is a pure function of, besides
/// the policy's own candidate set. Compared by value, so equal
/// configurations share a bundle whatever allocation they come from.
struct TablesKey {
    family: ModelFamily,
    node: Vec<Platform>,
    shared_budget: Option<u64>,
}

impl TablesKey {
    fn matches(&self, family: &ModelFamily, node: &[Platform], budget: Option<u64>) -> bool {
        self.shared_budget == budget && self.family == *family && self.node == node
    }
}

/// An ALERT-family policy: the controller over one candidate set,
/// optionally forcing a probability mode (ALERT\*'s mean-only ablation).
///
/// The candidate table and its fast lane depend only on the family, the
/// candidate set, the node and the shared budget, so the
/// policy keeps the last [`DecisionTables`] bundle it built and hands
/// every session over the same configuration an `Arc` clone of it; a
/// different configuration builds a fresh bundle that replaces the
/// entry. The policy sits behind an `Arc` in the registry, so every
/// clone of a registry — each shard of a sharded runtime, a registry
/// that shadows this policy by delegating to it — shares the one entry.
pub struct AlertPolicy {
    name: String,
    set: CandidateSet,
    /// `None` keeps the run specification's mode.
    mode: Option<ProbabilityMode>,
    last: Mutex<Option<(TablesKey, Arc<DecisionTables>)>>,
}

impl AlertPolicy {
    /// An ALERT policy named `name` over `set`; `mode` overrides the run
    /// specification's [`ProbabilityMode`] when given.
    pub fn new(name: impl Into<String>, set: CandidateSet, mode: Option<ProbabilityMode>) -> Self {
        AlertPolicy {
            name: name.into(),
            set,
            mode,
            last: Mutex::new(None),
        }
    }

    /// The bundle for `family` on `node` under `shared_budget`: the
    /// kept one when its key matches, else a freshly built one that
    /// replaces it.
    fn tables(
        &self,
        family: &ModelFamily,
        node: &[Platform],
        shared_budget: Option<Watts>,
    ) -> Result<Arc<DecisionTables>, String> {
        let budget = shared_budget.map(|w| w.get().to_bits());
        if let Some((key, tables)) = &*self.last.lock() {
            if key.matches(family, node, budget) {
                return Ok(tables.clone());
            }
        }
        // Built outside the lock: a concurrent miss builds an equal
        // bundle, and either may stay.
        let tables = decision_tables(family, self.set, node, shared_budget)?;
        let key = TablesKey {
            family: family.clone(),
            node: node.to_vec(),
            shared_budget: budget,
        };
        *self.last.lock() = Some((key, tables.clone()));
        Ok(tables)
    }
}

impl Policy for AlertPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String> {
        let tables = self.tables(ctx.family, ctx.node, ctx.shared_budget)?;
        let params = AlertParams {
            mode: self.mode.unwrap_or(ctx.params.mode),
            ..ctx.params
        };
        Ok(Box::new(AlertScheduler::with_tables(
            self.name.clone(),
            tables,
            ctx.goal,
            params,
        )?))
    }
}

/// Error resolving a policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub name: String,
    /// The names that were available.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy '{}' (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// Error building a scheduler through the registry: either the name is
/// not registered, or the policy rejected the session's context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The policy name failed to resolve.
    Unknown(UnknownPolicy),
    /// The policy resolved but could not build a scheduler for this
    /// context (invalid goal, no fitting model, bad parameters).
    Build {
        /// The policy that rejected the context.
        policy: String,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Unknown(e) => write!(f, "{e}"),
            RegistryError::Build { policy, reason } => {
                write!(f, "policy '{policy}' cannot build a scheduler: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<UnknownPolicy> for RegistryError {
    fn from(e: UnknownPolicy) -> Self {
        RegistryError::Unknown(e)
    }
}

/// String-keyed policy table. Cheap to clone (policies are shared).
#[derive(Clone, Default)]
pub struct PolicyRegistry {
    policies: BTreeMap<String, Arc<dyn Policy>>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the nine paper schemes under their
    /// Table 3/4 labels.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register(Arc::new(AlertPolicy::new(
            "ALERT",
            CandidateSet::Standard,
            None,
        )));
        r.register(Arc::new(AlertPolicy::new(
            "ALERT-Any",
            CandidateSet::AnytimeOnly,
            None,
        )));
        r.register(Arc::new(AlertPolicy::new(
            "ALERT-Trad",
            CandidateSet::TraditionalOnly,
            None,
        )));
        r.register(Arc::new(AlertPolicy::new(
            "ALERT*",
            CandidateSet::Standard,
            Some(ProbabilityMode::MeanOnly),
        )));
        r.register_fn("Oracle", |ctx| {
            let oracle = Oracle::new(ctx.env.clone(), ctx.family.clone(), ctx.goal)?;
            Ok(Box::new(oracle) as Box<dyn Scheduler>)
        });
        r.register_fn("OracleStatic", |ctx| {
            let oracle =
                OracleStatic::new(ctx.env.clone(), ctx.family.clone(), ctx.stream, ctx.goal)?;
            Ok(Box::new(oracle) as Box<dyn Scheduler>)
        });
        r.register_fn("App-only", |ctx| {
            let platform = ctx.node.first().ok_or("App-only needs a node device")?;
            Ok(Box::new(AppOnly::new(ctx.family, platform)?) as Box<dyn Scheduler>)
        });
        r.register_fn("Sys-only", |ctx| {
            let sys = SysOnly::new(ctx.family, ctx.node, ctx.goal)?;
            Ok(Box::new(sys) as Box<dyn Scheduler>)
        });
        r.register_fn("No-coord", |ctx| {
            let nc = NoCoord::new(ctx.family, ctx.node, ctx.goal)?;
            Ok(Box::new(nc) as Box<dyn Scheduler>)
        });
        r
    }

    /// Registers `policy` under its own name, replacing any previous
    /// holder of that name (latest registration wins, so callers can
    /// shadow built-ins).
    pub fn register(&mut self, policy: Arc<dyn Policy>) {
        self.policies.insert(policy.name().to_string(), policy);
    }

    /// Registers a closure-backed policy (see [`FnPolicy`]).
    pub fn register_fn(
        &mut self,
        name: impl Into<String>,
        build: impl Fn(&PolicyContext<'_>) -> Result<Box<dyn Scheduler>, String> + Send + Sync + 'static,
    ) {
        self.register(Arc::new(FnPolicy::new(name, build)));
    }

    /// Looks up a policy by name.
    pub fn resolve(&self, name: &str) -> Option<Arc<dyn Policy>> {
        self.policies.get(name).cloned()
    }

    /// `true` if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.policies.contains_key(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.policies.keys().cloned().collect()
    }

    /// Builds a scheduler by policy name.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Unknown`] when the name is not registered;
    /// [`RegistryError::Build`] when the policy rejects the context.
    pub fn build(
        &self,
        name: &str,
        ctx: &PolicyContext<'_>,
    ) -> Result<Box<dyn Scheduler>, RegistryError> {
        match self.resolve(name) {
            Some(p) => p.build(ctx).map_err(|reason| RegistryError::Build {
                policy: name.to_string(),
                reason,
            }),
            None => Err(RegistryError::Unknown(UnknownPolicy {
                name: name.to_string(),
                known: self.names(),
            })),
        }
    }
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("policies", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alert_stats::units::Seconds;
    use alert_workload::{Scenario, TaskId};

    fn ctx_parts() -> (
        ModelFamily,
        [Platform; 1],
        Goal,
        InputStream,
        Arc<EpisodeEnv>,
    ) {
        let family = ModelFamily::image_classification();
        let node = [Platform::cpu1()];
        let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
        let stream = InputStream::generate(TaskId::Img2, 40, 3);
        let env = Arc::new(
            EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 3, None).unwrap(),
        );
        (family, node, goal, stream, env)
    }

    #[test]
    fn builtin_covers_the_nine_paper_schemes() {
        let r = PolicyRegistry::builtin();
        let names = [
            "ALERT",
            "ALERT-Any",
            "ALERT-Trad",
            "ALERT*",
            "Oracle",
            "OracleStatic",
            "App-only",
            "Sys-only",
            "No-coord",
        ];
        for name in names {
            assert!(r.contains(name), "missing {name}");
        }
        assert_eq!(r.names().len(), names.len());
    }

    #[test]
    fn builtin_policies_build_correctly_named_schedulers() {
        let (family, node, goal, stream, env) = ctx_parts();
        let ctx = PolicyContext {
            family: &family,
            node: &node,
            goal,
            params: AlertParams::default(),
            shared_budget: None,
            env: &env,
            stream: &stream,
        };
        let r = PolicyRegistry::builtin();
        for name in r.names() {
            let s = r.build(&name, &ctx).unwrap();
            assert_eq!(s.name(), name, "policy name must match scheduler name");
        }
    }

    #[test]
    fn builtin_policies_build_on_heterogeneous_nodes() {
        // On a CPU+GPU node every built-in must still build; the
        // placement-capable schemes see both devices, the rest stay
        // pinned to device 0.
        let family = ModelFamily::image_classification();
        let node = [Platform::cpu1(), Platform::gpu()];
        let goal = Goal::minimize_energy(Seconds(0.4), 0.9);
        let stream = InputStream::generate(TaskId::Img2, 40, 3);
        let env = Arc::new(
            EpisodeEnv::build(&node, &Scenario::default_env(), &stream, &goal, 3, None).unwrap(),
        );
        let ctx = PolicyContext {
            family: &family,
            node: &node,
            goal,
            params: AlertParams::default(),
            shared_budget: Some(Watts(200.0)),
            env: &env,
            stream: &stream,
        };
        let r = PolicyRegistry::builtin();
        for name in r.names() {
            let s = r.build(&name, &ctx).unwrap();
            assert_eq!(s.name(), name, "policy name must match scheduler name");
        }
    }

    #[test]
    fn unknown_name_reports_known_set() {
        let (family, node, goal, stream, env) = ctx_parts();
        let ctx = PolicyContext {
            family: &family,
            node: &node,
            goal,
            params: AlertParams::default(),
            shared_budget: None,
            env: &env,
            stream: &stream,
        };
        let err = match PolicyRegistry::builtin().build("NoSuch", &ctx) {
            Ok(_) => panic!("unknown policy must not resolve"),
            Err(RegistryError::Unknown(e)) => e,
            Err(other) => panic!("expected Unknown, got {other}"),
        };
        assert_eq!(err.name, "NoSuch");
        assert!(err.known.contains(&"ALERT".to_string()));
        assert!(err.to_string().contains("unknown policy"));
    }

    #[test]
    fn custom_registration_shadows_builtin() {
        let (family, node, goal, stream, env) = ctx_parts();
        let ctx = PolicyContext {
            family: &family,
            node: &node,
            goal,
            params: AlertParams::default(),
            shared_budget: None,
            env: &env,
            stream: &stream,
        };
        let mut r = PolicyRegistry::builtin();
        r.register_fn("ALERT", |ctx| {
            Ok(Box::new(AppOnly::new(ctx.family, &ctx.node[0])?) as Box<dyn Scheduler>)
        });
        let s = r.build("ALERT", &ctx).unwrap();
        assert_eq!(s.name(), "App-only");
    }

    #[test]
    fn params_reach_alert_policies() {
        let (family, node, goal, stream, env) = ctx_parts();
        let params = AlertParams {
            initial_idle_ratio: 0.55,
            ..Default::default()
        };
        let ctx = PolicyContext {
            family: &family,
            node: &node,
            goal,
            params,
            shared_budget: None,
            env: &env,
            stream: &stream,
        };
        let r = PolicyRegistry::builtin();
        let s = r.build("ALERT", &ctx).unwrap();
        assert!(s.controller_snapshot().is_some());
        let snap = s.controller_snapshot().unwrap();
        assert_eq!(snap.idle.ratio(), 0.55);
    }
}
