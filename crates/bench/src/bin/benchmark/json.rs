//! The little JSON the benchmark needs: it only ever writes.

/// `text` as a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with all its digits.
pub fn number(value: f64) -> String {
    assert!(value.is_finite(), "JSON cannot carry {value}");
    format!("{value}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_numbers_keep_their_digits() {
        assert_eq!(
            quote("a \"q\" \\ b\nc\td\u{1}"),
            r#""a \"q\" \\ b\nc\td\u0001""#
        );
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(15.0), "15");
    }
}
