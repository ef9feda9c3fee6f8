//! A minimal, dependency-free property-testing framework.
//!
//! Design (Hypothesis-style "choice stream" shrinking):
//!
//! * A [`Gen<T>`] is a composable recipe that draws raw `u64`s from a
//!   [`Source`] and turns them into a `T`. All randomness flows through
//!   [`Source::draw`], which **records** the raw choices.
//! * When a property fails, the recorded choice stream is **shrunk**
//!   directly — chunks deleted, values zeroed and halved — and the
//!   generator replayed over the shrunk stream. Because every generator
//!   maps the zero draw to its simplest output (shortest vec, smallest
//!   int, first alternative), stream-level shrinking yields structurally
//!   minimal counterexamples without per-type shrinkers.
//! * Replay past the end of a shrunk stream yields zero draws, so every
//!   candidate stream decodes to *some* value and shrinking always
//!   terminates.
//!
//! The fixed [`DEFAULT_SEED`] makes `cargo test` deterministic; set
//! `SQLPP_PROP_SEED` to explore, `SQLPP_PROP_CASES` to scale case counts.
//! Failures are persisted (seed per property) under
//! `target/sqlpp-prop/`, and re-run first on the next invocation.
//!
//! The [`sqlpp_prop!`](crate::sqlpp_prop) macro gives `proptest!`-like
//! surface syntax; see the workspace `tests/` for ports.

use std::cell::Cell;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use crate::rng::{mix, Rng};

pub mod gen;
pub mod values;

/// The workspace-wide default seed: reproducible runs out of the box.
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE_F00D_2024;

/// Runtime configuration for one property.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run (default 64; env `SQLPP_PROP_CASES`
    /// overrides upward or downward).
    pub cases: u32,
    /// Base seed for the run (default [`DEFAULT_SEED`]; env
    /// `SQLPP_PROP_SEED` overrides).
    pub seed: u64,
    /// Cap on shrink candidate evaluations after a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = cases(64);
        let seed = std::env::var("SQLPP_PROP_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or(DEFAULT_SEED);
        Config {
            cases,
            seed,
            max_shrink_iters: 4096,
        }
    }
}

/// `default_count` cases, unless `SQLPP_PROP_CASES` says otherwise. An
/// explicit `cases = …` in a property's config block beats the
/// environment, so a property whose sweep CI scales writes
/// `cases = prop::cases(n)`.
pub fn cases(default_count: u32) -> u32 {
    std::env::var("SQLPP_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_count)
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The tape of raw choices a generator draws from.
///
/// In *random* mode draws come from the PRNG and are recorded; in
/// *replay* mode they come from a (possibly shrunk) recorded stream,
/// padded with zeros past its end.
pub struct Source {
    rng: Option<Rng>,
    replay: Vec<u64>,
    pos: usize,
    record: Vec<u64>,
    collect_repr: bool,
    reprs: Vec<String>,
}

impl Source {
    /// A recording source drawing fresh randomness from `seed`.
    pub fn random(seed: u64) -> Self {
        Source {
            rng: Some(Rng::new(seed)),
            replay: Vec::new(),
            pos: 0,
            record: Vec::new(),
            collect_repr: false,
            reprs: Vec::new(),
        }
    }

    /// A source replaying a recorded stream (zero-padded past the end).
    pub fn replay(data: Vec<u64>) -> Self {
        Source {
            rng: None,
            replay: data,
            pos: 0,
            record: Vec::new(),
            collect_repr: false,
            reprs: Vec::new(),
        }
    }

    /// One raw choice. This is the *only* randomness entry point — every
    /// combinator builds on it, which is what makes stream shrinking
    /// universal.
    pub fn draw(&mut self) -> u64 {
        let v = match &mut self.rng {
            Some(rng) => rng.next_u64(),
            None => {
                let v = self.replay.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                v
            }
        };
        self.record.push(v);
        v
    }

    /// A draw mapped into `[0, bound)` such that the zero draw maps to 0
    /// (the "simplest" choice — shrinking relies on this monotonicity).
    /// The modulo bias is irrelevant at test-generation bound sizes.
    pub fn draw_below(&mut self, bound: u64) -> u64 {
        if bound <= 1 {
            // Consume no entropy for forced choices: keeps streams short.
            return 0;
        }
        self.draw() % bound
    }

    /// An integer in `[lo, hi]`, zero-draw ↦ `lo`.
    pub fn draw_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128) as u128 + 1;
        if span > u128::from(u64::MAX) {
            return self.draw() as i64;
        }
        lo.wrapping_add(self.draw_below(span as u64) as i64)
    }

    /// A length/size in `[lo, hi]`, zero-draw ↦ `lo`.
    pub fn draw_len(&mut self, lo: usize, hi: usize) -> usize {
        self.draw_range_i64(lo as i64, hi as i64) as usize
    }

    /// A float in `[lo, hi)`, zero-draw ↦ `lo`.
    pub fn draw_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// Generates one argument of a property, recording its `Debug` repr
    /// when the runner is assembling a counterexample report. Used by the
    /// `sqlpp_prop!` macro; rarely called by hand.
    pub fn arg<T: std::fmt::Debug + 'static>(&mut self, name: &str, g: &Gen<T>) -> T {
        let v = g.generate(self);
        if self.collect_repr {
            self.reprs.push(format!("{name} = {v:?}"));
        }
        v
    }

    fn into_record(self) -> Vec<u64> {
        self.record
    }
}

/// A composable generator of `T` values.
///
/// Cheap to clone (an `Rc` around the closure). Build them from the
/// combinators in [`gen`] and [`values`], or from [`Gen::new`].
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            f: Rc::clone(&self.f),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a raw drawing function.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Runs the generator against a source.
    pub fn generate(&self, src: &mut Source) -> T {
        (self.f)(src)
    }

    /// Applies a pure function to every generated value.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| f(self.generate(src)))
    }

    /// A dependent generator: feed each value to `f` and run the
    /// generator it returns.
    pub fn flat_map<U: 'static>(self, f: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        Gen::new(move |src| f(self.generate(src)).generate(src))
    }
}

thread_local! {
    /// True while a property body is executing under the runner; the
    /// process-global panic hook stays quiet for those panics (each shrink
    /// candidate fails on purpose — hundreds of backtraces help nobody).
    static IN_PROPERTY: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_PROPERTY.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, converting a panic into the panic message.
fn run_case(f: &dyn Fn(&mut Source), src: &mut Source) -> Result<(), String> {
    install_quiet_hook();
    IN_PROPERTY.with(|flag| flag.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(src)));
    IN_PROPERTY.with(|flag| flag.set(false));
    match outcome {
        Ok(()) => Ok(()),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".to_string())),
    }
}

/// Replays `data`; `Some(message)` when the property still fails.
fn fails_on(f: &dyn Fn(&mut Source), data: &[u64]) -> Option<String> {
    let mut src = Source::replay(data.to_vec());
    run_case(f, &mut src).err()
}

/// Hashes one choice stream for the shrink cache.
fn stream_hash(data: &[u64]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    data.hash(&mut h);
    h.finish()
}

/// Greedy choice-stream shrinking: repeatedly tries structurally smaller
/// streams, keeping any candidate on which the property still fails,
/// until a full pass makes no progress (or the iteration budget runs
/// out). Returns the minimal stream and its failure message.
///
/// The different passes (and successive sweeps) often propose the same
/// candidate stream more than once — deleting index 0 of `[0, 1]` and
/// zeroing index 1 both yield `[0, …]` after replay padding, and every
/// sweep re-proposes the tail truncations. Replaying the property is the
/// expensive part, so a cache of already-tried stream hashes skips exact
/// duplicates without spending any of the iteration budget. (A 64-bit
/// hash collision would silently skip one novel candidate — harmless:
/// shrinking stays correct, at worst one step less minimal.)
fn shrink(
    f: &dyn Fn(&mut Source),
    mut data: Vec<u64>,
    mut message: String,
    budget: u32,
) -> (Vec<u64>, String) {
    let mut spent = 0u32;
    let mut tried: std::collections::HashSet<u64> = std::collections::HashSet::new();
    tried.insert(stream_hash(&data));
    let try_candidate = |candidate: &[u64],
                         data: &mut Vec<u64>,
                         message: &mut String,
                         spent: &mut u32,
                         tried: &mut std::collections::HashSet<u64>|
     -> bool {
        if *spent >= budget {
            return false;
        }
        if !tried.insert(stream_hash(candidate)) {
            return false; // exact stream already tried — skip for free
        }
        *spent += 1;
        if let Some(msg) = fails_on(f, candidate) {
            *data = candidate.to_vec();
            *message = msg;
            true
        } else {
            false
        }
    };

    let mut progressed = true;
    while progressed && spent < budget {
        progressed = false;

        // Pass 1: delete chunks, largest first (drops whole generated
        // substructures — vec elements, tuple attributes — because their
        // draws disappear from the stream).
        for chunk in [64usize, 16, 8, 4, 2, 1] {
            let mut i = 0;
            while i + chunk <= data.len() {
                let mut candidate = data.clone();
                candidate.drain(i..i + chunk);
                if try_candidate(&candidate, &mut data, &mut message, &mut spent, &mut tried) {
                    progressed = true;
                    // Stay at the same index: the next chunk shifted in.
                } else {
                    i += 1;
                }
            }
        }

        // Pass 2: zero out draws (zero is every combinator's simplest
        // choice), then binary-search values downward.
        for i in 0..data.len() {
            if data[i] == 0 {
                continue;
            }
            let mut candidate = data.clone();
            candidate[i] = 0;
            if try_candidate(&candidate, &mut data, &mut message, &mut spent, &mut tried) {
                progressed = true;
                continue;
            }
            while data[i] > 1 {
                let mut candidate = data.clone();
                candidate[i] /= 2;
                if !try_candidate(&candidate, &mut data, &mut message, &mut spent, &mut tried) {
                    break;
                }
                progressed = true;
            }
            if data[i] > 0 {
                let mut candidate = data.clone();
                candidate[i] -= 1;
                progressed |=
                    try_candidate(&candidate, &mut data, &mut message, &mut spent, &mut tried);
            }
        }

        // Pass 3: truncate the tail entirely.
        while !data.is_empty() {
            let candidate = data[..data.len() - 1].to_vec();
            if try_candidate(&candidate, &mut data, &mut message, &mut spent, &mut tried) {
                progressed = true;
            } else {
                break;
            }
        }
    }
    (data, message)
}

/// Replays the minimal stream once more, collecting the `Debug` reprs of
/// the property's arguments for the failure report.
fn describe(f: &dyn Fn(&mut Source), data: &[u64]) -> Vec<String> {
    let mut src = Source::replay(data.to_vec());
    src.collect_repr = true;
    let _ = run_case(f, &mut src);
    src.reprs
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn persist_dir() -> std::path::PathBuf {
    std::env::var_os("SQLPP_PROP_PERSIST_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/sqlpp-prop"))
}

/// Records a failing seed so the next run re-checks it first.
fn persist_failure(name: &str, seed: u64, repr: &str) {
    let dir = persist_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{}.seeds", sanitize(name)));
    let mut line = format!("0x{seed:016x}");
    let _ = write!(line, " # {}", repr.replace('\n', " "));
    line.truncate(240);
    line.push('\n');
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    if !existing.lines().any(|l| l.starts_with(&line[..18])) {
        let _ = std::fs::write(&path, existing + &line);
    }
}

/// Previously persisted failing seeds for this property.
fn persisted_seeds(name: &str) -> Vec<u64> {
    let path = persist_dir().join(format!("{}.seeds", sanitize(name)));
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| parse_seed(l.split('#').next().unwrap_or("")))
        .collect()
}

/// Runs a property: `cfg.cases` random cases (after replaying any
/// persisted regression seeds). On failure, shrinks the choice stream,
/// persists the seed, and panics with the minimal counterexample and
/// reproduction instructions.
///
/// Usually invoked via [`sqlpp_prop!`](crate::sqlpp_prop).
pub fn check(name: &str, cfg: &Config, property: impl Fn(&mut Source)) {
    let f: &dyn Fn(&mut Source) = &property;
    let mut case_seeds: Vec<(u64, &'static str)> = persisted_seeds(name)
        .into_iter()
        .map(|s| (s, "persisted regression"))
        .collect();
    case_seeds.extend((0..cfg.cases).map(|i| (mix(cfg.seed, u64::from(i)), "random")));

    for (i, (case_seed, kind)) in case_seeds.into_iter().enumerate() {
        let mut src = Source::random(case_seed);
        let Err(first_message) = run_case(f, &mut src) else {
            continue;
        };
        let record = src.into_record();
        let (minimal, message) = shrink(f, record, first_message, cfg.max_shrink_iters);
        let reprs = describe(f, &minimal);
        let counterexample = if reprs.is_empty() {
            "<no generated arguments>".to_string()
        } else {
            reprs.join("\n    ")
        };
        persist_failure(name, case_seed, &counterexample);
        panic!(
            "property {name} failed ({kind} case {i}, case seed 0x{case_seed:016x})\n\
             \x20 minimal counterexample (after shrinking):\n    {counterexample}\n\
             \x20 failure: {message}\n\
             \x20 reproduce: SQLPP_PROP_SEED=0x{run_seed:016x} cargo test -q {short}\n\
             \x20 (the failing seed is also persisted under {dir})",
            run_seed = cfg.seed,
            short = name.rsplit("::").next().unwrap_or(name),
            dir = persist_dir().display(),
        );
    }
}

/// `proptest!`-style surface syntax over [`check`].
///
/// ```ignore
/// sqlpp_prop! {
///     #![config(cases = 64)]
///     fn reverse_is_involutive(xs in gen::vec_of(gen::any_i64(), 0..=8)) {
///         let mut once = xs.clone();
///         once.reverse();
///         once.reverse();
///         prop_assert_eq!(once, xs);
///     }
/// }
/// ```
#[macro_export]
macro_rules! sqlpp_prop {
    (#![config($($key:ident = $val:expr),* $(,)?)] $($rest:tt)*) => {
        $crate::__sqlpp_prop_fns! { { $($key = $val),* } $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__sqlpp_prop_fns! { { } $($rest)* }
    };
}

/// Implementation detail of [`sqlpp_prop!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __sqlpp_prop_fns {
    ( { $($key:ident = $val:expr),* } ) => {};
    (
        { $($key:ident = $val:expr),* }
        $(#[$attr:meta])*
        fn $name:ident ( $($arg:ident in $gen:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        #[test]
        fn $name() {
            #[allow(unused_mut)]
            let mut __cfg = $crate::prop::Config::default();
            $( __cfg.$key = $val; )*
            let __gens = ( $( $gen, )* );
            #[allow(non_snake_case, unused_variables)]
            {
                let ( $( $arg, )* ) = &__gens;
                $crate::prop::check(
                    concat!(module_path!(), "::", stringify!($name)),
                    &__cfg,
                    |__src| {
                        $( let $arg = __src.arg(stringify!($arg), $arg); )*
                        $body
                    },
                );
            }
        }
        $crate::__sqlpp_prop_fns! { { $($key = $val),* } $($rest)* }
    };
}

/// Asserts a condition inside a property; on failure the case is
/// reported, shrunk and persisted by the runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!($($fmt)+);
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left:  {:?}\n  right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A property that fails only on the exact stream `[0, 1]` never
    /// shrinks — and the duplicate candidates the passes propose
    /// (`[0]` via delete-index-1, truncate; `[0, 0]` via zero and
    /// decrement) must each replay only once.
    #[test]
    fn shrink_cache_skips_duplicate_candidate_streams() {
        let calls = Cell::new(0u32);
        let f = |src: &mut Source| {
            calls.set(calls.get() + 1);
            let a = src.draw();
            let b = src.draw();
            assert!(!(a == 0 && b == 1), "boom");
        };
        let (minimal, message) = shrink(&f, vec![0, 1], "boom".to_string(), 4096);
        assert_eq!(minimal, vec![0, 1], "no smaller stream fails");
        assert!(message.contains("boom"));
        // Distinct candidates: [], [1], [0], [0, 0]. Without the cache
        // the passes would replay [0] and [0, 0] twice each (6 runs).
        assert_eq!(calls.get(), 4, "duplicate candidate streams replayed");
    }

    /// The cache must never block progress: an always-failing property
    /// still shrinks to the empty stream.
    #[test]
    fn shrink_cache_preserves_minimization() {
        let f = |src: &mut Source| {
            let _ = src.draw();
            panic!("always");
        };
        let (minimal, _) = shrink(&f, vec![7, 7, 7, 7], "always".to_string(), 4096);
        assert!(minimal.is_empty(), "expected full shrink, got {minimal:?}");
    }
}
