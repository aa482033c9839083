//! JSON string escaping for the workspace's hand-written JSON writers
//! (`repro report --format json`, `simlint --json`, the fuzzer's
//! `findings.jsonl`). There is no serde; this is the one escaper.

/// Escape `s` for use between the quotes of a JSON string: quotes,
/// backslashes and every control character, so the output never holds a
/// raw byte below 0x20.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_known_answers() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("a\tb\rc\u{1}"), "a\\tb\\rc\\u0001");
        assert_eq!(escape("δ-window"), "δ-window");
    }
}
