//! The input text a parser consumes.

use std::cell::OnceCell;

use crate::span::{LineCol, LineMap, Span};

/// A parser's view of the source text.
///
/// Parsing is byte-oriented (PEGs are scannerless, and the hot loops match
/// ASCII terminals), but [`Input::char_at`] decodes full Unicode scalar
/// values for `.` and character-class matching above 0x7F.
///
/// # Examples
///
/// ```
/// use modpeg_runtime::Input;
///
/// let input = Input::new("if (x) y;");
/// assert!(input.starts_with(0, "if"));
/// assert_eq!(input.char_at(4), Some(('x', 1)));
/// assert_eq!(input.len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct Input<'i> {
    text: &'i str,
    /// Built on first use: only error rendering and diagnostics need it.
    line_map: OnceCell<LineMap>,
}

impl<'i> Input<'i> {
    /// Wraps `text`; its line map is built on first use.
    pub fn new(text: &'i str) -> Self {
        Input {
            text,
            line_map: OnceCell::new(),
        }
    }

    /// The underlying text.
    #[inline]
    pub fn text(&self) -> &'i str {
        self.text
    }

    /// The raw bytes of the text.
    #[inline]
    pub fn bytes(&self) -> &'i [u8] {
        self.text.as_bytes()
    }

    /// Total length in bytes.
    #[inline]
    pub fn len(&self) -> u32 {
        self.text.len() as u32
    }

    /// Whether the input is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The byte at `offset`, if in bounds.
    #[inline]
    pub fn byte_at(&self, offset: u32) -> Option<u8> {
        self.text.as_bytes().get(offset as usize).copied()
    }

    /// Decodes the Unicode scalar value starting at byte `offset`, returning
    /// the character and its encoded length in bytes.
    ///
    /// Returns `None` at end of input. `offset` must lie on a character
    /// boundary; parsers only ever advance by whole matches, so this
    /// invariant holds by construction.
    #[inline]
    pub fn char_at(&self, offset: u32) -> Option<(char, u32)> {
        let rest = self.text.get(offset as usize..)?;
        let ch = rest.chars().next()?;
        Some((ch, ch.len_utf8() as u32))
    }

    /// Whether the text at `offset` starts with `literal`.
    #[inline]
    pub fn starts_with(&self, offset: u32, literal: &str) -> bool {
        self.text
            .as_bytes()
            .get(offset as usize..)
            .is_some_and(|rest| rest.starts_with(literal.as_bytes()))
    }

    /// The text covered by `span`.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds or splits a UTF-8 sequence; spans
    /// produced by a parser over this input never do.
    #[inline]
    pub fn slice(&self, span: Span) -> &'i str {
        &self.text[span.lo() as usize..span.hi() as usize]
    }

    /// Converts a byte offset to a 1-based line/column position.
    pub fn line_col(&self, offset: u32) -> LineCol {
        self.line_map().line_col(self.text, offset)
    }

    /// The line map, built on the first call.
    pub fn line_map(&self) -> &LineMap {
        self.line_map.get_or_init(|| LineMap::new(self.text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_and_char_access() {
        let i = Input::new("aβc");
        assert_eq!(i.byte_at(0), Some(b'a'));
        assert_eq!(i.char_at(1), Some(('β', 2)));
        assert_eq!(i.char_at(3), Some(('c', 1)));
        assert_eq!(i.char_at(4), None);
        assert_eq!(i.byte_at(4), None);
    }

    #[test]
    fn starts_with_matches_and_respects_bounds() {
        let i = Input::new("while(1)");
        assert!(i.starts_with(0, "while"));
        assert!(i.starts_with(5, "(1)"));
        assert!(!i.starts_with(5, "(1))"));
        assert!(!i.starts_with(99, "x"));
        assert!(i.starts_with(8, "")); // empty literal at EOF
    }

    #[test]
    fn slice_returns_span_text() {
        let i = Input::new("foo bar");
        assert_eq!(i.slice(Span::new(4, 7)), "bar");
        assert_eq!(i.slice(Span::new(3, 3)), "");
    }

    #[test]
    fn line_col_delegates_to_map() {
        let i = Input::new("x\ny");
        assert!(
            i.line_map.get().is_none(),
            "the map waits for its first use"
        );
        assert_eq!(i.line_col(2).to_string(), "2:1");
        assert_eq!(i.line_map().line_count(), 2);
    }
}
