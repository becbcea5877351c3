//! The lexer shared by the program parser and the ground-fact parser.
//!
//! It scans the input's bytes once.  Tokens borrow their text from the input
//! and offsets are byte indices into it, so producing a token never allocates;
//! [`lex`] allocates only the token vector.

use crate::error::SyntaxError;
use std::borrow::Cow;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    /// The text between the quotes of a quoted atom, `\'` and `\\` escapes
    /// not yet undone (see [`unquote`]).
    Quoted(&'a str),
    AtomVar(&'a str),
    PathVar(&'a str),
    LParen,
    RParen,
    LAngle,
    RAngle,
    Comma,
    RuleEnd,
    Concat,
    Arrow,
    Eq,
    Neq,
    Not,
    StratumSep,
    Eps,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Spanned<'a> {
    pub(crate) tok: Tok<'a>,
    pub(crate) offset: usize,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Is `name` an identifier: the name of a relation in a fact or rule head?
/// Identifiers are nonempty runs of ASCII letters, digits and `_`, other than
/// `eps` (which denotes the empty path).
pub fn is_identifier(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(is_ident_byte) && name != "eps"
}

/// The atom name a [`Tok::Quoted`] token denotes: `\'` stands for `'` and
/// `\\` for `\`; any other `\` stands for itself.
pub(crate) fn unquote(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, chars.peek()) {
            ('\\', Some(&next @ ('\'' | '\\'))) => {
                out.push(next);
                chars.next();
            }
            _ => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Tokenize all of `input`.
pub(crate) fn lex(input: &str) -> Result<Vec<Spanned<'_>>, SyntaxError> {
    let mut lexer = Lexer::new(input);
    let mut out = Vec::new();
    while let Some(token) = lexer.next_token()? {
        out.push(token);
    }
    Ok(out)
}

/// A pull lexer: [`Lexer::next_token`] returns one token at a time.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    /// Byte length of the input: the offset reported for errors at its end.
    pub(crate) fn end(&self) -> usize {
        self.input.len()
    }

    /// Advance past the run of bytes satisfying `pred` that starts at `from`;
    /// return the run.
    fn take_while(&mut self, from: usize, pred: impl Fn(u8) -> bool) -> &'a str {
        let bytes = self.input.as_bytes();
        let mut end = from;
        while end < bytes.len() && pred(bytes[end]) {
            end += 1;
        }
        self.pos = end;
        &self.input[from..end]
    }

    /// The next token, or `None` at the end of the input.
    pub(crate) fn next_token(&mut self) -> Result<Option<Spanned<'a>>, SyntaxError> {
        let bytes = self.input.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(None);
            };
            let offset = self.pos;
            let next = bytes.get(offset + 1).copied();
            let spanned = |tok| Ok(Some(Spanned { tok, offset }));
            // Single-byte tokens set `tok` and fall through to the shared
            // one-byte advance at the bottom; every other arm returns.
            let tok = match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                    continue;
                }
                b'%' | b'#' => {
                    self.take_while(offset, |c| c != b'\n');
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    self.take_while(offset, |c| c != b'\n');
                    continue;
                }
                b'-' if bytes[offset..].starts_with(b"---") => {
                    self.take_while(offset, |c| c == b'-');
                    return spanned(Tok::StratumSep);
                }
                b'<' | b':' if next == Some(b'-') => {
                    self.pos += 2;
                    return spanned(Tok::Arrow);
                }
                b'!' if next == Some(b'=') => {
                    self.pos += 2;
                    return spanned(Tok::Neq);
                }
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b',' => Tok::Comma,
                b'<' => Tok::LAngle,
                b'>' => Tok::RAngle,
                b'*' => Tok::Concat,
                b'=' => Tok::Eq,
                b'!' | b'~' => Tok::Not,
                b'.' => {
                    // A dot immediately followed by something that can start a
                    // term is concatenation; otherwise it ends a rule.
                    let is_concat = next.is_some_and(|n| {
                        is_ident_byte(n) || matches!(n, b'@' | b'$' | b'<' | b'\'')
                    }) || self.input[offset + 1..].starts_with('⟨');
                    if is_concat {
                        Tok::Concat
                    } else {
                        Tok::RuleEnd
                    }
                }
                b'@' | b'$' => {
                    let name = self.take_while(offset + 1, is_ident_byte);
                    if name.is_empty() {
                        return Err(SyntaxError::Lex {
                            offset,
                            message: format!("expected a variable name after `{}`", b as char),
                        });
                    }
                    return spanned(if b == b'@' {
                        Tok::AtomVar(name)
                    } else {
                        Tok::PathVar(name)
                    });
                }
                b'\'' => {
                    // UTF-8 continuation bytes are never ASCII, so scanning
                    // bytes for `\` and `'` is exact.
                    let mut end = offset + 1;
                    loop {
                        match bytes.get(end) {
                            None => {
                                return Err(SyntaxError::Lex {
                                    offset,
                                    message: "unterminated quoted atom".into(),
                                })
                            }
                            Some(b'\\') if matches!(bytes.get(end + 1), Some(b'\'' | b'\\')) => {
                                end += 2
                            }
                            Some(b'\'') => break,
                            Some(_) => end += 1,
                        }
                    }
                    self.pos = end + 1;
                    return spanned(Tok::Quoted(&self.input[offset + 1..end]));
                }
                b if is_ident_byte(b) => {
                    let name = self.take_while(offset, is_ident_byte);
                    return spanned(if name == "eps" {
                        Tok::Eps
                    } else {
                        Tok::Ident(name)
                    });
                }
                _ => {
                    let c = self.input[offset..]
                        .chars()
                        .next()
                        .expect("offset is on a char boundary");
                    let tok = match c {
                        '·' => Tok::Concat,
                        '∧' => Tok::Comma,
                        '⟨' => Tok::LAngle,
                        '⟩' => Tok::RAngle,
                        '←' => Tok::Arrow,
                        '≠' => Tok::Neq,
                        '¬' => Tok::Not,
                        'ε' => Tok::Eps,
                        other => {
                            return Err(SyntaxError::Lex {
                                offset,
                                message: format!("unexpected character `{other}`"),
                            })
                        }
                    };
                    self.pos += c.len_utf8();
                    return spanned(tok);
                }
            };
            self.pos += 1;
            return spanned(tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Tok<'_>> {
        lex(input).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn tokens_borrow_from_the_input_and_offsets_are_bytes() {
        let input = "S(a·$x) ← R('it\\'s'·ε).";
        let spans = lex(input).unwrap();
        let tokens: Vec<_> = spans.iter().map(|s| s.tok).collect();
        assert_eq!(
            tokens,
            [
                Tok::Ident("S"),
                Tok::LParen,
                Tok::Ident("a"),
                Tok::Concat,
                Tok::PathVar("x"),
                Tok::RParen,
                Tok::Arrow,
                Tok::Ident("R"),
                Tok::LParen,
                Tok::Quoted("it\\'s"),
                Tok::Concat,
                Tok::Eps,
                Tok::RParen,
                Tok::RuleEnd,
            ]
        );
        for s in &spans {
            assert!(input.is_char_boundary(s.offset));
        }
        // `·` is two bytes, `$` starts right after it.
        assert_eq!(spans[4].offset, 5);
        assert_eq!(unquote("it\\'s"), "it's");
    }

    #[test]
    fn backslashes_escape_quotes_and_themselves() {
        // `'end\\'` is the atom `end\`; a lone `\` before another character
        // stands for itself.
        assert_eq!(toks("'end\\\\'"), [Tok::Quoted("end\\\\")]);
        assert_eq!(unquote("end\\\\"), "end\\");
        assert_eq!(unquote("a\\b\\\\\\'"), "a\\b\\'");
        assert!(lex("'end\\'").is_err(), "`\\'` does not close the atom");
    }

    #[test]
    fn dots_concatenate_only_before_a_term() {
        assert_eq!(
            toks("a.b.⟨c⟩. d"),
            [
                Tok::Ident("a"),
                Tok::Concat,
                Tok::Ident("b"),
                Tok::Concat,
                Tok::LAngle,
                Tok::Ident("c"),
                Tok::RAngle,
                Tok::RuleEnd,
                Tok::Ident("d"),
            ]
        );
    }

    #[test]
    fn comments_and_separators() {
        assert_eq!(
            toks("% c\n# c\n// c\n-----\nA :- !B, ~C, ¬D, x != y, x ≠ y, x = y ∧ E."),
            [
                Tok::StratumSep,
                Tok::Ident("A"),
                Tok::Arrow,
                Tok::Not,
                Tok::Ident("B"),
                Tok::Comma,
                Tok::Not,
                Tok::Ident("C"),
                Tok::Comma,
                Tok::Not,
                Tok::Ident("D"),
                Tok::Comma,
                Tok::Ident("x"),
                Tok::Neq,
                Tok::Ident("y"),
                Tok::Comma,
                Tok::Ident("x"),
                Tok::Neq,
                Tok::Ident("y"),
                Tok::Comma,
                Tok::Ident("x"),
                Tok::Eq,
                Tok::Ident("y"),
                Tok::Comma,
                Tok::Ident("E"),
                Tok::RuleEnd,
            ]
        );
    }

    #[test]
    fn lex_errors_carry_byte_offsets() {
        let err = |input| match lex(input) {
            Err(SyntaxError::Lex { offset, .. }) => offset,
            other => panic!("expected a lex error, got {other:?}"),
        };
        assert_eq!(err("a·&"), 3);
        assert_eq!(err("a·$"), 3);
        assert_eq!(err("ε 'open"), 3);
        assert_eq!(err("a - b"), 2);
        assert_eq!(err("a : b"), 2);
        assert_eq!(err("a / b"), 2);
    }

    #[test]
    fn identifiers() {
        assert!(is_identifier("R_1"));
        assert!(!is_identifier(""));
        assert!(!is_identifier("eps"));
        assert!(!is_identifier("a·b"));
        assert!(!is_identifier("ship R"));
    }
}
