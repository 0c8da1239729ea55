//! JSON string escaping: the one rule set every hand-rendered JSON
//! document in the workspace uses — the service's wire frames, the
//! throughput and metrics reports, the Chrome trace, and the SCC audit
//! log.
//!
//! `"` and `\` are backslash-escaped and every control character below
//! U+0020 becomes `\u00XX`; everything else, non-ASCII included, passes
//! through unchanged. The rendered documents are pinned byte for byte,
//! so the rule set must not change.

use std::fmt::Write as _;

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// [`escape`], appending to `out` instead of allocating.
pub fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls_only() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\t\u{1f}"), "x\\u000ay\\u0009\\u001f");
        assert_eq!(escape("héllo ✓ \u{7f}"), "héllo ✓ \u{7f}");
        let mut out = String::from("[");
        push_escaped(&mut out, "q\"");
        assert_eq!(out, "[q\\\"");
    }
}
