//! Generator combinators: the building blocks property tests compose.
//!
//! Every combinator maps the all-zero choice stream to its *simplest*
//! output — smallest number, empty collection, first alternative — which
//! is the contract the stream shrinker in [`super`] relies on.

use super::{Gen, Source};

/// Always the same value.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone())
}

/// A lazily constructed generator — the building block for recursive
/// generators (construct the sub-generator only when a case needs it).
pub fn lazy<T: 'static>(build: impl Fn() -> Gen<T> + 'static) -> Gen<T> {
    Gen::new(move |src| build().generate(src))
}

/// A uniform `bool` (shrinks toward `false`).
pub fn any_bool() -> Gen<bool> {
    Gen::new(|src| src.draw_below(2) == 1)
}

/// The full `i64` domain, biased toward small magnitudes and the
/// classic boundary values (shrinks toward 0).
pub fn any_i64() -> Gen<i64> {
    Gen::new(|src| match src.draw_below(8) {
        0 => src.draw_range_i64(-16, 16),
        1 => *src_choose(src, &[0, 1, -1, i64::MAX, i64::MIN, 42]),
        _ => src.draw() as i64,
    })
}

fn src_choose<'a, T>(src: &mut Source, items: &'a [T]) -> &'a T {
    &items[src.draw_below(items.len() as u64) as usize]
}

/// An integer in `[lo, hi]` (shrinks toward `lo`).
pub fn i64_range(range: std::ops::Range<i64>) -> Gen<i64> {
    assert!(range.start < range.end, "empty range");
    let (lo, hi) = (range.start, range.end - 1);
    Gen::new(move |src| src.draw_range_i64(lo, hi))
}

/// A `u32` in `[lo, hi)` (shrinks toward `lo`).
pub fn u32_range(range: std::ops::Range<u32>) -> Gen<u32> {
    i64_range(i64::from(range.start)..i64::from(range.end)).map(|v| v as u32)
}

/// A `usize` in `[lo, hi)` (shrinks toward `lo`).
pub fn usize_range(range: std::ops::Range<usize>) -> Gen<usize> {
    i64_range(range.start as i64..range.end as i64).map(|v| v as usize)
}

/// A float in `[lo, hi)` (shrinks toward `lo`).
pub fn f64_range(range: std::ops::Range<f64>) -> Gen<f64> {
    let (lo, hi) = (range.start, range.end);
    Gen::new(move |src| src.draw_f64(lo, hi))
}

/// One of the alternatives, uniformly (shrinks toward the *first* —
/// order alternatives simplest-first, as with `prop_oneof!`).
pub fn one_of<T: 'static>(alternatives: Vec<Gen<T>>) -> Gen<T> {
    assert!(
        !alternatives.is_empty(),
        "one_of needs at least one alternative"
    );
    Gen::new(move |src| {
        let idx = src.draw_below(alternatives.len() as u64) as usize;
        alternatives[idx].generate(src)
    })
}

/// `None` or `Some` (shrinks toward `None`).
pub fn option_of<T: 'static>(inner: Gen<T>) -> Gen<Option<T>> {
    Gen::new(move |src| {
        if src.draw_below(2) == 1 {
            Some(inner.generate(src))
        } else {
            None
        }
    })
}

/// A vector with a length drawn from `len` (shrinks toward shorter).
pub fn vec_of<T: 'static>(element: Gen<T>, len: std::ops::RangeInclusive<usize>) -> Gen<Vec<T>> {
    let (lo, hi) = len.into_inner();
    Gen::new(move |src| {
        let n = src.draw_len(lo, hi);
        (0..n).map(|_| element.generate(src)).collect()
    })
}

/// A byte vector (shrinks toward empty / zero bytes).
pub fn bytes(len: std::ops::RangeInclusive<usize>) -> Gen<Vec<u8>> {
    vec_of(i64_range(0..256).map(|b| b as u8), len)
}

/// A string of characters drawn from an inclusive character range —
/// `char_string('a'..='z', 0..=4)` stands in for regex classes like
/// `[a-z]{0,4}` (shrinks toward shorter strings of the low character).
pub fn char_string(
    chars: std::ops::RangeInclusive<char>,
    len: std::ops::RangeInclusive<usize>,
) -> Gen<String> {
    let (clo, chi) = chars.into_inner();
    let (llo, lhi) = len.into_inner();
    Gen::new(move |src| {
        let n = src.draw_len(llo, lhi);
        (0..n)
            .map(|_| loop {
                let cp = src.draw_range_i64(clo as i64, chi as i64) as u32;
                if let Some(c) = char::from_u32(cp) {
                    return c;
                }
            })
            .collect()
    })
}

/// A printable-ASCII string — the `[ -~]{…}` idiom.
pub fn ascii_string(len: std::ops::RangeInclusive<usize>) -> Gen<String> {
    char_string(' '..='~', len)
}

/// A string over (nearly) the whole of Unicode, standing in for the
/// `\PC` any-printable-char idiom of fuzz-style generators: mixes ASCII,
/// Latin-1, BMP and astral-plane characters (shrinks toward ASCII).
pub fn unicode_string(len: std::ops::RangeInclusive<usize>) -> Gen<String> {
    let (llo, lhi) = len.into_inner();
    Gen::new(move |src| {
        let n = src.draw_len(llo, lhi);
        (0..n)
            .map(|_| match src.draw_below(4) {
                0 => src.draw_range_i64(0x20, 0x7e) as u8 as char,
                1 => char::from_u32(src.draw_range_i64(0x00, 0xff) as u32).unwrap(),
                2 => loop {
                    let cp = src.draw_range_i64(0x100, 0xffff) as u32;
                    if let Some(c) = char::from_u32(cp) {
                        break c;
                    }
                },
                _ => char::from_u32(src.draw_range_i64(0x1_0000, 0x1_f9ff) as u32)
                    .unwrap_or('\u{1F600}'),
            })
            .collect()
    })
}

/// Pairs of independent generators.
pub fn pair<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |src| (a.generate(src), b.generate(src)))
}

/// Triples of independent generators.
pub fn triple<A: 'static, B: 'static, C: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    Gen::new(move |src| (a.generate(src), b.generate(src), c.generate(src)))
}

/// A uniformly chosen element of a fixed slice (shrinks toward the
/// first element).
pub fn element_of<T: Clone + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "element_of needs a non-empty pool");
    Gen::new(move |src| items[src.draw_below(items.len() as u64) as usize].clone())
}

/// A corpus entry corrupted by a few structural mutations — chunk
/// deletion, duplication, character swap, truncation, or insertion of a
/// random printable character — always at `char` boundaries, so the
/// result is valid UTF-8 but rarely still well-formed. The fuzz idiom
/// for "almost right" inputs, which reach far deeper into a parser than
/// byte soup (shrinks toward the first corpus entry, unmutated).
pub fn mutated_string(corpus: Vec<String>) -> Gen<String> {
    assert!(
        !corpus.is_empty(),
        "mutated_string needs a non-empty corpus"
    );
    Gen::new(move |src| {
        let picked = &corpus[src.draw_below(corpus.len() as u64) as usize];
        let mut s: Vec<char> = picked.chars().collect();
        let rounds = src.draw_len(0, 4);
        for _ in 0..rounds {
            if s.is_empty() {
                break;
            }
            let n = s.len();
            let at = src.draw_below(n as u64) as usize;
            let len = src.draw_len(1, 8).min(n - at);
            match src.draw_below(5) {
                0 => {
                    s.drain(at..at + len);
                }
                1 => {
                    let chunk: Vec<char> = s[at..at + len].to_vec();
                    s.splice(at..at, chunk);
                }
                2 => {
                    let other = src.draw_below(n as u64) as usize;
                    s.swap(at, other);
                }
                3 => s.truncate(at),
                _ => {
                    let c = src.draw_range_i64(0x20, 0x7e) as u8 as char;
                    s.insert(at, c);
                }
            }
        }
        s.into_iter().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::Source;

    fn sample<T: 'static>(g: &Gen<T>, seed: u64) -> T {
        g.generate(&mut Source::random(seed))
    }

    #[test]
    fn zero_stream_produces_simplest_values() {
        // The shrinker's contract: an all-zero replay is the minimum.
        let mut z = Source::replay(vec![]);
        assert_eq!(vec_of(any_i64(), 0..=9).generate(&mut z), Vec::<i64>::new());
        assert_eq!(i64_range(5..50).generate(&mut z), 5);
        assert!(!any_bool().generate(&mut z));
        assert_eq!(option_of(any_i64()).generate(&mut z), None);
        assert_eq!(ascii_string(0..=9).generate(&mut z), "");
        assert_eq!(one_of(vec![just(1), just(2), just(3)]).generate(&mut z), 1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = vec_of(pair(any_i64(), ascii_string(0..=6)), 0..=10);
        assert_eq!(sample(&g, 99), sample(&g, 99));
    }

    #[test]
    fn ranges_and_lengths_are_respected() {
        let g = vec_of(i64_range(-3..4), 2..=5);
        for seed in 0..50 {
            let v = sample(&g, seed);
            assert!((2..=5).contains(&v.len()));
            assert!(v.iter().all(|x| (-3..4).contains(x)));
        }
        for seed in 0..50 {
            let s = sample(&char_string('a'..='c', 1..=3), seed);
            assert!((1..=3).contains(&s.chars().count()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn mutated_strings_start_from_the_corpus_and_stay_utf8() {
        let corpus = vec![
            "SELECT VALUE x FROM t AS x".to_string(),
            "1 + 2".to_string(),
        ];
        let g = mutated_string(corpus.clone());
        // Zero stream: first corpus entry, unmutated (the shrink target).
        let mut z = Source::replay(vec![]);
        assert_eq!(g.generate(&mut z), corpus[0]);
        // Mutations actually fire, deterministically per seed.
        let mut changed = false;
        for seed in 0..60 {
            let s = sample(&g, seed);
            assert_eq!(s, sample(&g, seed));
            changed |= !corpus.contains(&s);
        }
        assert!(changed, "60 seeds and no mutation ever fired");
    }

    #[test]
    fn unicode_strings_are_valid_and_varied() {
        let g = unicode_string(0..=40);
        let mut non_ascii = false;
        for seed in 0..40 {
            let s = sample(&g, seed);
            non_ascii |= !s.is_ascii();
            assert!(s.chars().count() <= 40);
        }
        assert!(non_ascii, "40 unicode strings with no non-ASCII char");
    }
}
