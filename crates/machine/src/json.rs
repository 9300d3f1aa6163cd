//! The JSON string escaper shared by every hand-written JSON writer in
//! the workspace: `serve`'s replies and `repro --json`.

/// Quote and escape `s` as a JSON string literal (including the
/// surrounding `"`), so a hand-rolled JSON writer stays parseable for
/// any input — store paths, labels and error texts can legally contain
/// `"`, `\`, or control characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes_hostile_input() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_str("line\nbreak\ttab\rcr"), "\"line\\nbreak\\ttab\\rcr\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        // Non-ASCII passes through (JSON strings are UTF-8).
        assert_eq!(json_str("μs"), "\"μs\"");
    }
}
