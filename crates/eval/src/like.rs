//! The SQL `LIKE` pattern matcher: `%` matches any sequence, `_` any
//! single character, and an optional ESCAPE character quotes either.
//! Implemented with the classic two-pointer backtracking algorithm —
//! linear in practice, and immune to the exponential blowup a naive
//! recursive matcher suffers on patterns like `%a%a%a%…`. It reads the
//! pattern and the text in place, one character at a time, and
//! allocates nothing.

/// One pattern element.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pat {
    /// Match exactly this character.
    Lit(char),
    /// `_`
    One,
    /// `%`
    Any,
}

/// Errors from pattern compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LikeError {
    /// The ESCAPE string was not a single character.
    BadEscape,
    /// The pattern ended immediately after an escape character.
    DanglingEscape,
}

/// Whether `text` matches `pattern`; `escape` is the ESCAPE character, if
/// any. The whole pattern is checked first, so an ill-formed one fails
/// whatever the text.
pub fn like_match(text: &str, pattern: &str, escape: Option<char>) -> Result<bool, LikeError> {
    let mut chars = pattern.chars();
    while let Some(c) = chars.next() {
        if Some(c) == escape && chars.next().is_none() {
            return Err(LikeError::DanglingEscape);
        }
    }
    Ok(matches(text, pattern, escape))
}

/// The first element of a checked `pattern` and the pattern after it. A
/// run of `%` is one element (the runs are equivalent, and the collapse
/// keeps backtracking cheap).
fn next_pat(pattern: &str, escape: Option<char>) -> Option<(Pat, &str)> {
    let mut chars = pattern.chars();
    let c = chars.next()?;
    let pat = if Some(c) == escape {
        Pat::Lit(chars.next().expect("the pattern has no dangling escape"))
    } else if c == '%' {
        // `%` is not the escape here, so every `%` after it is one too.
        return Some((Pat::Any, chars.as_str().trim_start_matches('%')));
    } else if c == '_' {
        Pat::One
    } else {
        Pat::Lit(c)
    };
    Some((pat, chars.as_str()))
}

fn matches(mut text: &str, mut pat: &str, escape: Option<char>) -> bool {
    // The pattern after the last %, and the text it is tried against.
    let mut star: Option<(&str, &str)> = None;
    while let Some(t) = text.chars().next() {
        match next_pat(pat, escape) {
            Some((Pat::Any, rest)) => {
                star = Some((rest, text));
                pat = rest;
                continue;
            }
            Some((Pat::One, rest)) => {
                text = &text[t.len_utf8()..];
                pat = rest;
                continue;
            }
            Some((Pat::Lit(c), rest)) if c == t => {
                text = &text[t.len_utf8()..];
                pat = rest;
                continue;
            }
            _ => {}
        }
        // Mismatch: backtrack to the last %, consuming one more char.
        match star {
            Some((sp, st)) => {
                let st = &st[st.chars().next().map_or(0, char::len_utf8)..];
                pat = sp;
                text = st;
                star = Some((sp, st));
            }
            None => return false,
        }
    }
    // Remaining pattern must be all %.
    matches!(next_pat(pat, escape), None | Some((Pat::Any, "")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(text: &str, pattern: &str) -> bool {
        like_match(text, pattern, None).unwrap()
    }

    #[test]
    fn paper_pattern_percent_security_percent() {
        // Listing 2's predicate.
        assert!(m("OLAP Security", "%Security%"));
        assert!(m("OLTP Security", "%Security%"));
        assert!(!m("Serverless Query", "%Security%"));
        assert!(m("Security", "%Security%"));
    }

    #[test]
    fn exact_and_underscore() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "abd"));
        assert!(m("abc", "a_c"));
        assert!(!m("ac", "a_c"));
        assert!(m("chief x", "chief _"));
    }

    #[test]
    fn percent_positions() {
        assert!(m("Chief Officer", "Chief %"));
        assert!(!m("chief officer", "Chief %")); // case-sensitive
        assert!(m("", "%"));
        assert!(m("", ""));
        assert!(!m("a", ""));
        assert!(m("abc", "%"));
        assert!(m("abc", "a%"));
        assert!(m("abc", "%c"));
        assert!(m("abc", "%b%"));
    }

    #[test]
    fn escape_characters() {
        assert!(like_match("50%", "50\\%", Some('\\')).unwrap());
        assert!(!like_match("50x", "50\\%", Some('\\')).unwrap());
        assert!(like_match("a_b", "a!_b", Some('!')).unwrap());
        assert!(!like_match("axb", "a!_b", Some('!')).unwrap());
        // Escaped escape.
        assert!(like_match("a!b", "a!!b", Some('!')).unwrap());
        assert_eq!(
            like_match("x", "abc!", Some('!')),
            Err(LikeError::DanglingEscape)
        );
    }

    #[test]
    fn pathological_patterns_terminate_quickly() {
        let text = "a".repeat(2000);
        let pattern = "%a".repeat(40) + "b";
        // Must return (false) fast rather than exploding exponentially.
        assert!(!m(&text, &pattern));
    }

    #[test]
    fn backtracking_over_four_kib_stays_linear() {
        let text = "a".repeat(4096);
        assert!(!m(&text, &("%a".repeat(64) + "b")));
        assert!(m(&text, &("%a".repeat(64) + "%")));
        assert!(m(&(text.clone() + "b"), &("%a".repeat(64) + "%b")));
    }

    #[test]
    fn unicode() {
        assert!(m("héllo", "h_llo"));
        assert!(m("日本語", "%本%"));
    }
}
