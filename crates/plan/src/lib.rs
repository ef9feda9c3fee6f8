//! # sqlpp-plan — SQL++ Core and the sugar rewritings
//!
//! The paper reconciles SQL compatibility with composability by defining
//! "a SQL++ Core, consisting of fully composable operators", with SQL
//! itself as "'syntactic sugar' rewritings over the SQL++ Core" (§I).
//! This crate is that construction:
//!
//! * [`core`] — the Core algebra: binding-stream operators
//!   (FROM/WHERE/GROUP AS/ORDER/LIMIT/SELECT VALUE/PIVOT) and composable
//!   expressions with explicit variables and `COLL_*` aggregates;
//! * [`lower`] — the rewritings (SELECT lists, SQL aggregates, subquery
//!   coercion, wildcards), gated by the paper's [`CompatMode`] flag;
//! * [`optimize`] — conservative plan cleanup (constant folding, filter
//!   fusion);
//! * `EXPLAIN` — [`CoreQuery::explain`] prints the lowered pipeline, which
//!   is how the listing gallery shows Listings 15→16 and 17→18 as actual
//!   machine rewrites.

#![warn(missing_docs)]

pub mod core;
mod error;
pub mod lower;
mod optimize;
mod scope;
pub mod typecheck;

pub use crate::core::{
    AggFunc, Coercion, CoreExpr, CoreFrom, CoreJoinKind, CoreOp, CoreQuery, CoreSetOp, CoreSortKey,
    GroupFold, WindowDef, WindowFunc, SET_OP_ELEMENT,
};
pub use error::PlanError;
pub use lower::{lower_expr, lower_query, CompatMode, PlanConfig};
pub use optimize::optimize;
pub use scope::Scope;
pub use typecheck::{check as typecheck, TypeWarning};

/// Parses, lowers, and optimizes in one step.
pub fn plan(src: &str, config: &PlanConfig) -> Result<CoreQuery, Box<dyn std::error::Error>> {
    let ast = sqlpp_syntax::parse_query(src)?;
    Ok(optimize(lower_query(&ast, config)?))
}
