//! # sqlpp-testkit — hermetic, first-party test infrastructure
//!
//! This workspace builds with **zero external dependencies** (see
//! README.md, "Hermetic builds"); the price is that the testing stack —
//! previously `rand` and `proptest` — must live in-tree. This crate is
//! that stack, cut down to exactly what a deterministic, reproducible
//! verification of the paper's claims needs:
//!
//! | module | replaces | provides |
//! |---|---|---|
//! | [`rng`] | `rand` | SplitMix64 + xoshiro256\*\* with `gen_range` / `shuffle` / `choose` |
//! | [`prop`] | `proptest` | composable [`prop::Gen`] combinators, fixed-seed case iteration, choice-stream shrinking, persisted regression seeds, the [`sqlpp_prop!`] macro |
//! | [`fault`] | (chaos harness) | seeded, deterministic [`fault::FaultPlan`]s — "fail the k-th visit to site S" — for the engine's fault-injection hooks |
//!
//! The paper's methodology leans on exactly these tools: differential
//! testing against a reference nested-loop semantics (the original SQL++
//! formation) and algebraic NULL/MISSING laws, both of which need a
//! generator + shrinker harness to be worth anything. Determinism is the
//! design center: every random stream is reproducible from one printed
//! `u64` seed.

#![warn(missing_docs)]

pub mod fault;
pub mod prop;
pub mod rng;

pub use prop::gen::{self as gen};
pub use prop::{Config as PropConfig, Gen, Source};
pub use rng::Rng;
