//! Shared primitives for the EVE simulator workspace.
//!
//! This crate holds the small vocabulary types every other crate speaks:
//! [`Cycle`] and [`Picos`] for time, [`Stats`] for named counters, and the
//! bit-manipulation helpers used by the bit-accurate SRAM model.
//!
//! # Examples
//!
//! ```
//! use eve_common::{Cycle, Picos};
//!
//! let c = Cycle(10) + Cycle(5);
//! assert_eq!(c, Cycle(15));
//! // 15 cycles at a 1.025 ns clock:
//! assert_eq!(c.to_picos(Picos(1025)), Picos(15_375));
//! ```

pub mod bits;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;

pub use bits::{bit, deposit_bits, extract_bits, set_bit, transpose32};
pub use rng::SplitMix64;
pub use stats::{Counter, Stats};
pub use time::{Cycle, Picos};

/// Error type shared across the workspace for configuration problems.
///
/// Configuration errors are reported when a machine or array is constructed
/// with parameters that cannot describe real hardware (for example a
/// parallelization factor that does not divide the element width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a new configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The human-readable description of what was invalid.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Convenience alias for results carrying a [`ConfigError`].
pub type ConfigResult<T> = Result<T, ConfigError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_displays_message() {
        let e = ConfigError::new("segment width 5 does not divide 32");
        assert_eq!(
            e.to_string(),
            "invalid configuration: segment width 5 does not divide 32"
        );
        assert_eq!(e.message(), "segment width 5 does not divide 32");
    }

    #[test]
    fn config_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
