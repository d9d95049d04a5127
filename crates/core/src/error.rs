//! The workspace's unified error type.
//!
//! Every layer already reports failures through its own typed error
//! (`FitError`, `SolveError`, `CsvError`, `SpecError`, `TrainError`, …,
//! all implementing [`std::error::Error`]). [`Error`] folds them into one
//! enum with `From` conversions, so the CLI — and any embedding
//! application — can propagate any of them with `?` and print a single
//! one-line diagnostic before exiting nonzero.

use std::fmt;

/// Any failure a Slice Tuner run can surface.
#[derive(Debug)]
pub enum Error {
    /// Power-law fitting failed.
    Fit(st_curve::FitError),
    /// The linear-algebra layer's solver failed.
    Solve(st_linalg::SolveError),
    /// CSV ingestion failed.
    Csv(st_data::CsvError),
    /// An experiment spec failed to parse.
    Spec(crate::config::SpecError),
    /// Training hit a numeric guard.
    Train(st_models::TrainError),
    /// A trial exhausted its retries.
    Trial(crate::trials::TrialError),
    /// An estimation measurement exhausted its retries.
    Estimate(st_curve::EstimateError),
    /// A checkpoint could not be written, read, or applied.
    Checkpoint(crate::checkpoint::CheckpointError),
    /// A configuration value failed validation.
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Fit(e) => write!(f, "{e}"),
            Error::Solve(e) => write!(f, "{e}"),
            Error::Csv(e) => write!(f, "{e}"),
            Error::Spec(e) => write!(f, "{e}"),
            Error::Train(e) => write!(f, "{e}"),
            Error::Trial(e) => write!(f, "{e}"),
            Error::Estimate(e) => write!(f, "{e}"),
            Error::Checkpoint(e) => write!(f, "{e}"),
            Error::Config(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Fit(e) => Some(e),
            Error::Solve(e) => Some(e),
            Error::Csv(e) => Some(e),
            Error::Spec(e) => Some(e),
            Error::Train(e) => Some(e),
            Error::Trial(e) => Some(e),
            Error::Estimate(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
            Error::Config(_) => None,
        }
    }
}

macro_rules! from_impl {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        }
    };
}

from_impl!(Fit, st_curve::FitError);
from_impl!(Solve, st_linalg::SolveError);
from_impl!(Csv, st_data::CsvError);
from_impl!(Spec, crate::config::SpecError);
from_impl!(Train, st_models::TrainError);
from_impl!(Trial, crate::trials::TrialError);
from_impl!(Estimate, st_curve::EstimateError);
from_impl!(Checkpoint, crate::checkpoint::CheckpointError);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_displays_one_line() {
        let errs: Vec<Error> = vec![
            st_curve::FitError::NotEnoughPoints.into(),
            st_data::CsvError::TooFewColumns { line: 3 }.into(),
            crate::config::SpecError::MissingEquals { line: 1 }.into(),
            st_models::TrainError::NonFiniteLoss { epoch: 2 }.into(),
            crate::checkpoint::CheckpointError::Version { found: 9 }.into(),
            Error::Config("budget must be positive".to_string()),
        ];
        for e in errs {
            let line = e.to_string();
            assert!(!line.is_empty());
            assert!(!line.contains('\n'), "one-line diagnostics only: {line}");
        }
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        use std::error::Error as _;
        let e: Error = st_models::TrainError::NonFiniteLoss { epoch: 0 }.into();
        assert!(e.source().is_some());
        assert!(Error::Config("x".into()).source().is_none());
    }
}
