//! The unified error taxonomy of the crate.
//!
//! Every fallible surface in the serving stack returns or converts into
//! the one top-level [`enum@Error`]. The runtime returns it directly, and
//! the layer errors — [`RegistryError`] for policy resolution,
//! [`StepError`]/[`EnvError`] for execution, [`TraceError`] for
//! capture/replay — convert into it *losslessly*, so an application can
//! `?` across any mix of runtime, serving, and trace calls with a single
//! error type:
//!
//! | layer error | lands in |
//! |---|---|
//! | [`RegistryError`] / [`UnknownPolicy`] | [`Error::Policy`] |
//! | [`StepError`] | [`Error::Step`] |
//! | [`EnvError`] | [`Error::Env`] |
//! | [`TraceError`] | [`Error::Trace`] |
//!
//! [`Error::UnknownSession`], [`Error::NotCheckpointable`] and
//! [`Error::InvalidSpec`] have no layer error: the runtime raises them
//! itself.
//!
//! The enum is `#[non_exhaustive]`: downstream matches must carry a
//! wildcard arm, which lets later PRs grow the taxonomy (new subsystems,
//! new failure classes) without a breaking release.

use crate::env::EnvError;
use crate::harness::StepError;
use crate::registry::{RegistryError, UnknownPolicy};
use alert_workload::{SessionId, TraceError};

/// Top-level error of `alert-sched`: every layer error converts in via
/// `From`, losslessly. See the [module docs](self) for the mapping.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A policy name failed to resolve, or resolved but rejected the
    /// session context — see [`RegistryError`].
    Policy(RegistryError),
    /// No open session has this id.
    UnknownSession(SessionId),
    /// The session cannot be checkpointed (see message).
    NotCheckpointable(SessionId, String),
    /// A spec failed validation (see message).
    InvalidSpec(String),
    /// A session step failed — see [`StepError`].
    Step(StepError),
    /// An environment could not be realized — see [`EnvError`].
    Env(EnvError),
    /// Trace capture/replay failed — see [`TraceError`].
    Trace(TraceError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Policy(e) => write!(f, "{e}"),
            Error::UnknownSession(id) => write!(f, "no open session {id}"),
            Error::NotCheckpointable(id, why) => {
                write!(f, "{id} cannot be checkpointed: {why}")
            }
            Error::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            Error::Step(e) => write!(f, "{e}"),
            Error::Env(e) => write!(f, "{e}"),
            Error::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Policy(e) => Some(e),
            Error::Step(e) => Some(e),
            Error::Env(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::UnknownSession(_) | Error::NotCheckpointable(..) | Error::InvalidSpec(_) => None,
        }
    }
}

impl From<RegistryError> for Error {
    fn from(e: RegistryError) -> Self {
        Error::Policy(e)
    }
}

impl From<UnknownPolicy> for Error {
    fn from(e: UnknownPolicy) -> Self {
        Error::Policy(RegistryError::Unknown(e))
    }
}

impl From<StepError> for Error {
    fn from(e: StepError) -> Self {
        Error::Step(e)
    }
}

impl From<EnvError> for Error {
    fn from(e: EnvError) -> Self {
        Error::Env(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn runtime_errors_display_their_cause() {
        let cases = [
            (
                Error::UnknownSession(SessionId(7)),
                "no open session session-7",
            ),
            (
                Error::NotCheckpointable(SessionId(3), "external env".into()),
                "session-3 cannot be checkpointed: external env",
            ),
            (Error::InvalidSpec("bad".into()), "invalid spec: bad"),
        ];
        for (e, shown) in cases {
            assert_eq!(e.to_string(), shown);
            assert!(e.source().is_none());
        }
    }

    #[test]
    fn layer_errors_convert_and_expose_sources() {
        let unified: Error = UnknownPolicy {
            name: "NoSuch".into(),
            known: vec!["ALERT".into()],
        }
        .into();
        assert!(matches!(unified, Error::Policy(_)));
        assert!(unified.source().is_some());

        let unified: Error = EnvError::Script("bad script".into()).into();
        assert!(matches!(unified, Error::Env(_)));
        assert!(unified.to_string().contains("bad script"));

        let unified: Error = TraceError::NotATrace("nope".into()).into();
        assert!(matches!(unified, Error::Trace(_)));
        assert!(unified.source().is_some());
    }
}
