//! Evaluation errors and the paper's two typing modes (§IV).

use std::fmt;

use sqlpp_value::Value;

/// "SQL++ allows processing to continue even when dynamic type errors
/// happen […] To support applications that want to catch type errors
/// early and stop processing when they happen, SQL++ also offers a
/// stop-on-error mode." (§I relaxation 2)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TypingMode {
    /// Type errors become MISSING and flow on; "healthy" data keeps
    /// processing (§IV-B case 2).
    #[default]
    Permissive,
    /// Stop-on-error: the first dynamic type error aborts the query.
    StrictError,
}

/// A runtime evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A dynamic type error (only surfaced in strict mode).
    Type(String),
    /// A name that resolved neither to a variable, a catalog entry, nor a
    /// unique attribute of an in-scope binding.
    UnknownName(String),
    /// A positional parameter with no supplied value.
    MissingParam(usize),
    /// Unknown function.
    UnknownFunction(String),
    /// Numeric overflow or division by zero in strict mode.
    Arithmetic(String),
    /// A SQL scalar subquery produced more than one row (strict mode).
    Cardinality(String),
    /// Resource guard tripped (e.g. recursion depth).
    Resource(String),
    /// A governed resource budget (memory, spill space, nesting depth) was
    /// exceeded. Structured so clients can tell *which* budget and by how
    /// much.
    ResourceExhausted {
        /// Which budget: `"memory budget (bytes)"`
        /// ([`crate::govern::MEMORY_BUDGET`]), `"spill budget (bytes)"`,
        /// `"eval nesting depth"`.
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The usage that was refused (first value past the limit).
        used: u64,
    },
    /// The query was cancelled — deadline expiry or a tripped
    /// cancellation token.
    Cancelled {
        /// Human-readable cause (`"deadline of 50ms exceeded"`, …).
        reason: String,
    },
}

impl EvalError {
    /// Whether the error is about the data or the query — a type,
    /// arithmetic or name error — rather than about running it (a
    /// resource limit, cancellation, an injected fault). Only the former
    /// may wait in an aggregate's state until the aggregate is read.
    pub fn is_data_error(&self) -> bool {
        !matches!(
            self,
            EvalError::Resource(_)
                | EvalError::ResourceExhausted { .. }
                | EvalError::Cancelled { .. }
        )
    }

    /// A data error ([`EvalError::is_data_error`]) as a value — how a
    /// waiting error spills to disk or rides in a binding.
    pub(crate) fn to_value(&self) -> Value {
        let (tag, payload) = match self {
            EvalError::Type(m) => ("type", Value::Str(m.clone())),
            EvalError::UnknownName(m) => ("name", Value::Str(m.clone())),
            EvalError::MissingParam(i) => ("param", Value::Int(*i as i64)),
            EvalError::UnknownFunction(m) => ("function", Value::Str(m.clone())),
            EvalError::Arithmetic(m) => ("arithmetic", Value::Str(m.clone())),
            EvalError::Cardinality(m) => ("cardinality", Value::Str(m.clone())),
            other => ("resource", Value::Str(other.to_string())),
        };
        Value::Array(vec![Value::Str(tag.into()), payload])
    }

    /// Inverse of [`EvalError::to_value`]; `None` for any other value.
    pub(crate) fn from_value(v: &Value) -> Option<EvalError> {
        let Value::Array(parts) = v else {
            return None;
        };
        let [Value::Str(tag), payload] = parts.as_slice() else {
            return None;
        };
        Some(match (tag.as_str(), payload) {
            ("type", Value::Str(m)) => EvalError::Type(m.clone()),
            ("name", Value::Str(m)) => EvalError::UnknownName(m.clone()),
            ("param", Value::Int(i)) => EvalError::MissingParam(usize::try_from(*i).ok()?),
            ("function", Value::Str(m)) => EvalError::UnknownFunction(m.clone()),
            ("arithmetic", Value::Str(m)) => EvalError::Arithmetic(m.clone()),
            ("cardinality", Value::Str(m)) => EvalError::Cardinality(m.clone()),
            ("resource", Value::Str(m)) => EvalError::Resource(m.clone()),
            _ => return None,
        })
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Type(m) => write!(f, "type error: {m}"),
            EvalError::UnknownName(n) => write!(f, "unknown name: {n}"),
            EvalError::MissingParam(i) => {
                write!(f, "no value supplied for parameter ${i}")
            }
            EvalError::UnknownFunction(n) => write!(f, "unknown function: {n}"),
            EvalError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            EvalError::Cardinality(m) => write!(f, "cardinality error: {m}"),
            EvalError::Resource(m) => write!(f, "resource limit: {m}"),
            EvalError::ResourceExhausted {
                resource,
                limit,
                used,
            } => write!(
                f,
                "resource exhausted: {resource} limit {limit} exceeded (needed {used})"
            ),
            EvalError::Cancelled { reason } => write!(f, "query cancelled: {reason}"),
        }
    }
}

impl std::error::Error for EvalError {}
