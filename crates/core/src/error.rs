//! Configuration validation errors.

use std::fmt;

/// Error returned by [`crate::system::SystemBuilder::build`] when the
/// configuration is inconsistent.
// Not `Eq`: three variants carry the rejected f64.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The epoch length is zero.
    ZeroEpoch,
    /// The simulation horizon is shorter than one epoch.
    HorizonTooShort,
    /// The arrival rate is not strictly positive and finite.
    InvalidArrivalRate,
    /// Fewer than two DVFS levels were requested.
    TooFewDvfsLevels,
    /// The workload mix contains no sources.
    EmptyWorkloadMix,
    /// The mesh edge override is zero.
    ZeroMesh,
    /// A fault-injection fraction or rate is NaN or outside `[0, 1]`.
    InvalidFaultFraction {
        /// The offending configuration field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Faults were requested but the horizon is zero, so no injection
    /// time exists (faults spread over the first half of the run).
    FaultsNeedHorizon,
    /// A criticality-metric or test-scheduler setting is NaN, infinite
    /// or out of range.
    InvalidSchedulerSetting {
        /// The offending configuration field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// What the field must satisfy.
        requirement: &'static str,
    },
    /// An aging-model parameter is NaN, infinite or out of range.
    InvalidAgingModel {
        /// The offending field of the aging model.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// What the field must satisfy.
        requirement: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroEpoch => write!(f, "epoch length must be positive"),
            BuildError::HorizonTooShort => {
                write!(f, "simulation horizon must cover at least one epoch")
            }
            BuildError::InvalidArrivalRate => {
                write!(f, "arrival rate must be positive and finite")
            }
            BuildError::TooFewDvfsLevels => write!(f, "need at least two DVFS levels"),
            BuildError::EmptyWorkloadMix => write!(f, "workload mix has no sources"),
            BuildError::ZeroMesh => write!(f, "mesh edge must be positive"),
            BuildError::InvalidFaultFraction { field, value } => {
                write!(f, "{field} must be a probability in [0,1], got {value}")
            }
            BuildError::FaultsNeedHorizon => {
                write!(f, "fault injection needs a positive horizon to place faults in")
            }
            BuildError::InvalidSchedulerSetting {
                field,
                value,
                requirement,
            }
            | BuildError::InvalidAgingModel {
                field,
                value,
                requirement,
            } => write!(f, "{field} must be {requirement}, got {value}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        for e in [
            BuildError::ZeroEpoch,
            BuildError::HorizonTooShort,
            BuildError::InvalidArrivalRate,
            BuildError::TooFewDvfsLevels,
            BuildError::EmptyWorkloadMix,
            BuildError::ZeroMesh,
            BuildError::InvalidFaultFraction {
                field: "vf_windowed_fault_fraction",
                value: f64::NAN,
            },
            BuildError::FaultsNeedHorizon,
            BuildError::InvalidSchedulerSetting {
                field: "test_scheduler.ipc",
                value: 0.0,
                requirement: "finite and positive",
            },
            BuildError::InvalidAgingModel {
                field: "aging.t_ambient",
                value: -5.0,
                requirement: "finite and positive",
            },
        ] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(BuildError::ZeroEpoch);
        assert!(e.source().is_none());
    }
}
