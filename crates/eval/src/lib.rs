//! # sqlpp-eval — the SQL++ evaluator
//!
//! Interprets SQL++ Core plans over binding streams, implementing the
//! paper's semantics end to end:
//!
//! * FROM variables bind to *any* value, left-correlated (§III);
//! * the two absent values propagate per §IV-B's three MISSING-producing
//!   cases, with the SQL-compat COALESCE exception;
//! * two typing modes (§IV): permissive (type error → MISSING, "healthy"
//!   data keeps flowing) and stop-on-error;
//! * `GROUP BY … GROUP AS` materializes first-class groups (§V-B);
//! * `COLL_*` aggregates are ordinary collection functions (§V-C); over a
//!   subquery they consume its element stream and never build the bag —
//!   the pipelining the paper explicitly licenses;
//! * PIVOT/UNPIVOT turn attribute names into data and back (§VI).
//!
//! The [`mod@reference`] module is a transparent transcription of the paper's
//! Pseudocodes 1–2, used as a differential-testing oracle.

#![warn(missing_docs)]

pub mod agg;
mod arith;
mod bytecode;
mod cast;
mod env;
mod error;
mod functions;
pub mod govern;
mod interp;
mod like;
#[cfg(test)]
mod operand_tests;
pub mod reference;
pub mod spill;
pub mod stats;
mod stream;

pub use env::Env;
pub use error::{EvalError, TypingMode};
pub use govern::{CancelToken, FaultInjector, FaultSite, Limits, ResourceGovernor};
pub use interp::{EvalConfig, Evaluator};
pub use like::like_match;
pub use spill::SpillConfig;
pub use stats::{ExecStats, OpStats};
pub use stream::DEFAULT_BATCH_SIZE;
