//! Parser for the concrete syntax of Sequence Datalog programs and facts.
//!
//! The accepted grammar is described in the crate-level documentation.  The parser
//! is a plain hand-written recursive-descent parser over the tokens of the
//! crate's lexer; it reports byte offsets in errors and round-trips with the
//! `Display` implementations of the AST (see the `parse_print_roundtrip` tests).
//! [`parse_ground_fact`] reads one ground fact straight into interned paths,
//! pulling tokens from the same lexer without building a syntax tree.

use crate::ast::{Atom, Equation, Literal, Predicate, Program, Rule, Stratum};
use crate::error::SyntaxError;
use crate::lexer::{lex, unquote, Lexer, Spanned, Tok};
use crate::term::{PathExpr, Term, Var};
use seqdl_core::{AtomId, Fact, Path, RelName, Value};

/// Parse a complete program (one or more strata separated by `---` lines).
pub fn parse_program(input: &str) -> Result<Program, SyntaxError> {
    let tokens = lex(input)?;
    let mut parser = Parser::new(tokens);
    parser.program()
}

/// Parse a single rule, e.g. `S($x) <- R($x), a·$x = $x·a.`
pub fn parse_rule(input: &str) -> Result<Rule, SyntaxError> {
    let tokens = lex(input)?;
    let mut parser = Parser::new(tokens);
    let rule = parser.rule()?;
    parser.expect_end()?;
    Ok(rule)
}

/// Parse a single path expression, e.g. `a·<$x·@y>·$z`.
pub fn parse_expr(input: &str) -> Result<PathExpr, SyntaxError> {
    let tokens = lex(input)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expr()?;
    parser.expect_end()?;
    Ok(expr)
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Spanned<'a>>) -> Parser<'a> {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).map(|s| s.tok)
    }

    fn peek_at(&self, n: usize) -> Option<Tok<'a>> {
        self.tokens.get(self.pos + n).map(|s| s.tok)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.offset + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, SyntaxError> {
        Err(SyntaxError::Parse {
            offset: self.offset(),
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: Tok<'a>, what: &str) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => self.error(format!("expected {what}, found {t:?}")),
            None => self.error(format!("expected {what}, found end of input")),
        }
    }

    fn expect_end(&self) -> Result<(), SyntaxError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.error("unexpected trailing input")
        }
    }

    fn program(&mut self) -> Result<Program, SyntaxError> {
        let mut strata = Vec::new();
        let mut current = Vec::new();
        // Leading separators are harmless.
        while self.peek() == Some(Tok::StratumSep) {
            self.pos += 1;
        }
        while self.peek().is_some() {
            if self.peek() == Some(Tok::StratumSep) {
                self.pos += 1;
                strata.push(Stratum::new(std::mem::take(&mut current)));
                continue;
            }
            current.push(self.rule()?);
        }
        strata.push(Stratum::new(current));
        Ok(Program::new(strata))
    }

    fn rule(&mut self) -> Result<Rule, SyntaxError> {
        let head = self.predicate()?;
        let body = if self.peek() == Some(Tok::Arrow) {
            self.pos += 1;
            if self.peek() == Some(Tok::RuleEnd) {
                Vec::new()
            } else {
                let mut body = vec![self.literal()?];
                while self.peek() == Some(Tok::Comma) {
                    self.pos += 1;
                    body.push(self.literal()?);
                }
                body
            }
        } else {
            Vec::new()
        };
        self.expect(Tok::RuleEnd, "`.` at the end of the rule")?;
        Ok(Rule::new(head, body))
    }

    /// Is the current position the start of `Ident (`, i.e. a predicate application?
    fn looks_like_predicate(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(_))) && self.peek_at(1) == Some(Tok::LParen)
    }

    fn atom(&mut self) -> Result<Atom, SyntaxError> {
        if self.looks_like_predicate() {
            return Ok(Atom::Pred(self.predicate()?));
        }
        // Otherwise parse a path expression; an `=`/`!=` makes it an equation, a bare
        // single identifier is a nullary predicate.
        let start_pos = self.pos;
        let lhs = self.expr()?;
        match self.peek() {
            Some(Tok::Eq) => {
                self.pos += 1;
                let rhs = self.expr()?;
                Ok(Atom::Eq(Equation::new(lhs, rhs)))
            }
            Some(Tok::Neq) => {
                // A nonequality is a negated-equation *literal*, not an atom; rewind
                // and let `literal` re-parse it with the right polarity.
                self.pos = start_pos;
                self.nonequality_marker()?;
                unreachable!("nonequality_marker always errors");
            }
            _ => {
                if lhs.terms().len() == 1 {
                    if let Term::Const(a) = &lhs.terms()[0] {
                        return Ok(Atom::Pred(Predicate::nullary(RelName::new(&a.name()))));
                    }
                }
                self.error("expected `=`, `!=`, or a predicate")
            }
        }
    }

    /// Helper used by [`Parser::atom`] to signal to [`Parser::literal`] that the
    /// upcoming atom is a nonequality; never returns `Ok`.
    fn nonequality_marker(&self) -> Result<(), SyntaxError> {
        Err(SyntaxError::Parse {
            offset: usize::MAX,
            message: "__nonequality__".into(),
        })
    }

    fn predicate(&mut self) -> Result<Predicate, SyntaxError> {
        let name = match self.bump() {
            Some(Tok::Ident(name)) => name,
            Some(other) => return self.error(format!("expected a relation name, found {other:?}")),
            None => return self.error("expected a relation name, found end of input"),
        };
        let relation = RelName::new(name);
        if self.peek() != Some(Tok::LParen) {
            return Ok(Predicate::nullary(relation));
        }
        self.pos += 1;
        let mut args = Vec::new();
        if self.peek() == Some(Tok::RParen) {
            self.pos += 1;
            return Ok(Predicate::new(relation, args));
        }
        args.push(self.expr()?);
        while self.peek() == Some(Tok::Comma) {
            self.pos += 1;
            args.push(self.expr()?);
        }
        self.expect(Tok::RParen, "`)` closing the predicate")?;
        Ok(Predicate::new(relation, args))
    }

    fn expr(&mut self) -> Result<PathExpr, SyntaxError> {
        let mut terms = Vec::new();
        self.expr_item(&mut terms)?;
        while self.peek() == Some(Tok::Concat) {
            self.pos += 1;
            self.expr_item(&mut terms)?;
        }
        Ok(PathExpr::from_terms(terms))
    }

    fn expr_item(&mut self, terms: &mut Vec<Term>) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                terms.push(Term::Const(AtomId::new(name)));
                Ok(())
            }
            Some(Tok::Quoted(raw)) => {
                self.pos += 1;
                terms.push(Term::Const(AtomId::new(&unquote(raw))));
                Ok(())
            }
            Some(Tok::AtomVar(name)) => {
                self.pos += 1;
                terms.push(Term::Var(Var::atom(name)));
                Ok(())
            }
            Some(Tok::PathVar(name)) => {
                self.pos += 1;
                terms.push(Term::Var(Var::path(name)));
                Ok(())
            }
            Some(Tok::Eps) => {
                self.pos += 1;
                // ε contributes no terms: a·eps·b is a·b, and a lone eps is the
                // empty expression.
                Ok(())
            }
            Some(Tok::LAngle) => {
                self.pos += 1;
                let inner = if self.peek() == Some(Tok::RAngle) {
                    PathExpr::empty()
                } else {
                    self.expr()?
                };
                self.expect(Tok::RAngle, "`>` closing the packed expression")?;
                terms.push(Term::Packed(inner));
                Ok(())
            }
            Some(other) => self.error(format!("expected a path-expression item, found {other:?}")),
            None => self.error("expected a path-expression item, found end of input"),
        }
    }
}

// The `atom` method signals nonequalities with a sentinel error; intercept it in
// `literal` by re-parsing.  To keep that logic local we implement it as a free
// function extension here.
impl Parser<'_> {
    fn literal(&mut self) -> Result<Literal, SyntaxError> {
        let start = self.pos;
        match self.literal_inner() {
            Ok(l) => Ok(l),
            Err(SyntaxError::Parse { offset, message })
                if offset == usize::MAX && message == "__nonequality__" =>
            {
                self.pos = start;
                let lhs = self.expr()?;
                self.expect(Tok::Neq, "`!=`")?;
                let rhs = self.expr()?;
                Ok(Literal::neq(lhs, rhs))
            }
            Err(e) => Err(e),
        }
    }

    fn literal_inner(&mut self) -> Result<Literal, SyntaxError> {
        if self.peek() == Some(Tok::Not) {
            self.pos += 1;
            if self.peek() == Some(Tok::LParen) && !self.looks_like_predicate() {
                self.pos += 1;
                let lhs = self.expr()?;
                self.expect(Tok::Eq, "`=` inside negated equation")?;
                let rhs = self.expr()?;
                self.expect(Tok::RParen, "`)` after negated equation")?;
                return Ok(Literal::neq(lhs, rhs));
            }
            let atom = self.atom()?;
            return Ok(Literal::negative(atom));
        }
        let atom = self.atom()?;
        Ok(Literal::positive(atom))
    }
}

/// Parse one ground fact, e.g. `R(a·b, <c>·'x y').`, straight into interned
/// paths.
///
/// The grammar is the one [`parse_rule`] reads, restricted to rules without
/// variables and with an empty body (`R(a).` or `R(a) <- .`); `Flag.` and
/// `Flag().` are nullary facts.  The fact equals the one the rule's head
/// denotes through [`PathExpr::as_path`], but no syntax tree is built: each
/// value is interned as soon as it is read.
///
/// # Errors
/// Lexical and syntax errors with byte offsets, as [`parse_rule`] reports them;
/// a variable (“… is not ground …”); a nonempty body (“facts must not have a
/// body”).
pub fn parse_ground_fact(input: &str) -> Result<Fact, SyntaxError> {
    FactReader::new().read(input)
}

/// Reads ground facts one at a time, as [`parse_ground_fact`] does, keeping
/// what consecutive facts share: the buffer their values are collected in,
/// and the last relation name and its interned [`RelName`] (an instance file
/// lists the facts of one relation together).  `'t` is the lifetime of the
/// text the facts are read from.
#[derive(Default)]
pub struct FactReader<'t> {
    values: Vec<Value>,
    relation: Option<(&'t str, RelName)>,
}

impl<'t> FactReader<'t> {
    /// A reader that has read nothing yet.
    pub fn new() -> FactReader<'t> {
        FactReader::default()
    }

    /// Read one ground fact, e.g. `R(a·b).`; see [`parse_ground_fact`].
    ///
    /// # Errors
    /// Those of [`parse_ground_fact`].
    pub fn read(&mut self, input: &'t str) -> Result<Fact, SyntaxError> {
        // An error leaves the values read before it in the buffer.
        self.values.clear();
        let mut lexer = Lexer::new(input);
        let current = lexer.next_token()?;
        FactParser {
            lexer,
            current,
            reader: self,
        }
        .fact()
    }
}

/// The ground-fact parser: one token of lookahead over a pull [`Lexer`].  The
/// reader's buffer is a stack of the values read so far: a packed path's
/// values sit on top of those of the paths enclosing it.
struct FactParser<'r, 'a> {
    lexer: Lexer<'a>,
    current: Option<Spanned<'a>>,
    reader: &'r mut FactReader<'a>,
}

impl<'a> FactParser<'_, 'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.current.map(|s| s.tok)
    }

    fn advance(&mut self) -> Result<(), SyntaxError> {
        self.current = self.lexer.next_token()?;
        Ok(())
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, SyntaxError> {
        Err(SyntaxError::Parse {
            offset: self.current.map_or(self.lexer.end(), |s| s.offset),
            message: message.into(),
        })
    }

    fn unexpected<T>(&self, what: &str) -> Result<T, SyntaxError> {
        match self.peek() {
            Some(t) => self.error(format!("expected {what}, found {t:?}")),
            None => self.error(format!("expected {what}, found end of input")),
        }
    }

    fn expect(&mut self, tok: Tok<'a>, what: &str) -> Result<(), SyntaxError> {
        if self.peek() == Some(tok) {
            self.advance()
        } else {
            self.unexpected(what)
        }
    }

    fn fact(&mut self) -> Result<Fact, SyntaxError> {
        let Some(Tok::Ident(name)) = self.peek() else {
            return self.unexpected("a relation name");
        };
        let relation = match self.reader.relation {
            Some((last, relation)) if last == name => relation,
            _ => {
                let relation = RelName::new(name);
                self.reader.relation = Some((name, relation));
                relation
            }
        };
        self.advance()?;
        let mut tuple = Vec::new();
        if self.peek() == Some(Tok::LParen) {
            self.advance()?;
            if self.peek() != Some(Tok::RParen) {
                tuple.push(self.path()?);
                while self.peek() == Some(Tok::Comma) {
                    self.advance()?;
                    tuple.push(self.path()?);
                }
            }
            self.expect(Tok::RParen, "`)` closing the predicate")?;
        }
        if self.peek() == Some(Tok::Arrow) {
            self.advance()?;
            if !matches!(self.peek(), Some(Tok::RuleEnd) | None) {
                return self.error("facts must not have a body");
            }
        }
        self.expect(Tok::RuleEnd, "`.` at the end of the rule")?;
        if self.current.is_some() {
            return self.error("unexpected trailing input");
        }
        Ok(Fact::new(relation, tuple))
    }

    /// A concatenation of items, interned as one path.
    fn path(&mut self) -> Result<Path, SyntaxError> {
        let start = self.reader.values.len();
        self.item()?;
        while self.peek() == Some(Tok::Concat) {
            self.advance()?;
            self.item()?;
        }
        let values = &mut self.reader.values;
        let path = Path::from_slice(&values[start..]);
        values.truncate(start);
        Ok(path)
    }

    fn item(&mut self) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(Tok::Ident(name)) => self.reader.values.push(Value::Atom(AtomId::new(name))),
            Some(Tok::Quoted(raw)) => self
                .reader
                .values
                .push(Value::Atom(AtomId::new(&unquote(raw)))),
            Some(Tok::AtomVar(name)) => return self.not_ground('@', name),
            Some(Tok::PathVar(name)) => return self.not_ground('$', name),
            // ε contributes no values.
            Some(Tok::Eps) => {}
            Some(Tok::LAngle) => {
                self.advance()?;
                let inner = if self.peek() == Some(Tok::RAngle) {
                    Path::empty()
                } else {
                    self.path()?
                };
                self.expect(Tok::RAngle, "`>` closing the packed expression")?;
                self.reader.values.push(Value::packed(inner));
                return Ok(());
            }
            _ => return self.unexpected("a path-expression item"),
        }
        self.advance()
    }

    fn not_ground<T>(&self, sigil: char, name: &str) -> Result<T, SyntaxError> {
        self.error(format!(
            "variable `{sigil}{name}` is not ground; instance files may only contain ground facts"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarKind;

    #[test]
    fn parses_example_3_1_only_as() {
        let p = parse_program("S($x) <- R($x), a·$x = $x·a.").unwrap();
        assert_eq!(p.rule_count(), 1);
        let rule = p.rules().next().unwrap();
        assert_eq!(rule.head.relation.name(), "S");
        assert_eq!(rule.positive_body_equations().len(), 1);
        assert_eq!(rule.to_string(), "S($x) <- R($x), a·$x = $x·a.");
    }

    #[test]
    fn parses_ascii_dot_concatenation() {
        let p = parse_program("S($x) <- R($x), a.$x = $x.a.").unwrap();
        assert_eq!(
            p.rules().next().unwrap().to_string(),
            "S($x) <- R($x), a·$x = $x·a."
        );
    }

    #[test]
    fn parses_example_2_1_nfa_program() {
        let text = "
            S(@q·$x, eps) <- R($x), N(@q).
            S(@q2·$y, $z·@a) <- S(@q1·@a·$y, $z), D(@q1, @a, @q2).
            A($x) <- S(@q, $x), F(@q).
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.rule_count(), 3);
        let arities = p.relation_arities().unwrap();
        assert_eq!(arities[&RelName::new("D")], 3);
        assert_eq!(arities[&RelName::new("S")], 2);
        assert_eq!(arities[&RelName::new("A")], 1);
    }

    #[test]
    fn parses_example_2_2_packing_and_nonequalities() {
        let text = "
            T($u·<$s>·$v) <- R($u·$s·$v), S($s).
            A <- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.rule_count(), 2);
        let rules: Vec<_> = p.rules().collect();
        assert!(rules[0].has_packing());
        assert_eq!(rules[1].negative_body_equations().len(), 3);
        assert_eq!(rules[1].head.arity(), 0);
    }

    #[test]
    fn parses_negated_predicates_and_parenthesised_nonequalities() {
        let text = "
            W(@x) <- R(@x·@y), !B(@y).
            S(@x) <- R(@x·@y), ¬W(@x).
            U($x, $y) <- U($x, @a·$y·@b), ¬(@a=@b).
        ";
        let p = parse_program(text).unwrap();
        let rules: Vec<_> = p.rules().collect();
        assert_eq!(rules[0].negative_body_predicates().len(), 1);
        assert_eq!(rules[1].negative_body_predicates().len(), 1);
        assert_eq!(rules[2].negative_body_equations().len(), 1);
    }

    #[test]
    fn parses_strata_separated_by_dashes() {
        let text = "
            T($x) <- R($x).
            ---
            S($x) <- R($x), !T($x).
        ";
        let p = parse_program(text).unwrap();
        assert_eq!(p.stratum_count(), 2);
        assert_eq!(p.strata[0].rules.len(), 1);
        assert_eq!(p.strata[1].rules.len(), 1);
    }

    #[test]
    fn parses_facts_and_nullary_heads() {
        let p = parse_program("T(a). A <- T($x).").unwrap();
        let rules: Vec<_> = p.rules().collect();
        assert!(rules[0].body.is_empty());
        assert_eq!(rules[1].head.arity(), 0);
    }

    #[test]
    fn parses_packed_and_nested_expressions() {
        let e = parse_expr("@a·<<$x·$y>·$z>·<eps>").unwrap();
        assert_eq!(e.to_string(), "@a·<<$x·$y>·$z>·<eps>");
        assert_eq!(e.packing_depth(), 2);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn eps_means_the_empty_expression() {
        assert!(parse_expr("eps").unwrap().is_empty());
        assert_eq!(parse_expr("a·eps·b").unwrap().to_string(), "a·b");
        let r = parse_rule("T($x, eps) <- R($x).").unwrap();
        assert!(r.head.args[1].is_empty());
    }

    #[test]
    fn quoted_atoms_allow_arbitrary_names() {
        let e = parse_expr("'complete order'·'receive payment'").unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e.to_string(), "'complete order'·'receive payment'");
    }

    #[test]
    fn variables_have_kinds() {
        let e = parse_expr("@q·$x").unwrap();
        let vars = e.vars();
        assert_eq!(vars[0].kind, VarKind::Atom);
        assert_eq!(vars[1].kind, VarKind::Path);
    }

    #[test]
    fn comments_are_ignored() {
        let text = "
            % a comment
            # another comment
            // yet another
            S($x) <- R($x). % trailing comment
        ";
        assert_eq!(parse_program(text).unwrap().rule_count(), 1);
    }

    #[test]
    fn alternative_arrows_are_accepted() {
        assert!(parse_rule("S($x) :- R($x).").is_ok());
        assert!(parse_rule("S($x) ← R($x).").is_ok());
    }

    #[test]
    fn lex_and_parse_errors_are_reported_with_offsets() {
        assert!(matches!(
            parse_program("S($x) <- R($x)"),
            Err(SyntaxError::Parse { .. })
        ));
        assert!(matches!(
            parse_program("S(&x) <- R($x)."),
            Err(SyntaxError::Lex { .. })
        ));
        assert!(matches!(
            parse_expr("'unterminated"),
            Err(SyntaxError::Lex { .. })
        ));
        assert!(matches!(parse_expr("a ="), Err(SyntaxError::Parse { .. })));
    }

    #[test]
    fn parse_print_roundtrip_on_paper_programs() {
        let sources = [
            "S($x) <- R($x), a·$x = $x·a.",
            "T($x, $x) <- R($x).\nT($x, $y) <- T($x, $y·a).\nS($x) <- T($x, eps).",
            "T($x·a·a·$x·b) <- R($x).\nS($x) <- T(a·$x·a·b·$x).",
            "W(@x) <- R(@x·@y), !B(@y).\nS(@x) <- R(@x·@y), !W(@x).",
        ];
        for src in sources {
            let p1 = parse_program(src).unwrap();
            let printed = p1.to_string();
            let p2 = parse_program(&printed).unwrap();
            assert_eq!(p1, p2, "round-trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn ground_facts_are_read_into_interned_paths() {
        use seqdl_core::{path_of, Value};
        let fact = parse_ground_fact("D(q0·<a·'x y'>, eps, ⟨⟩) <- .").unwrap();
        assert_eq!(fact.relation, RelName::new("D"));
        let packed = Value::packed(path_of(&["a", "x y"]));
        assert_eq!(
            fact.tuple,
            [
                Path::from_values([Value::atom("q0"), packed]),
                Path::empty(),
                Path::singleton(Value::packed(Path::empty())),
            ]
        );
        assert_eq!(parse_ground_fact("Flag.").unwrap().tuple, []);
        let message = |input| match parse_ground_fact(input) {
            Err(SyntaxError::Parse { message, .. }) => message,
            other => panic!("expected a parse error, got {other:?}"),
        };
        assert!(message("R(a·$x).").contains("not ground"));
        assert!(message("R(a) <- S(b).").contains("facts must not have a body"));
    }

    #[test]
    fn a_fact_reader_starts_each_fact_afresh() {
        use seqdl_core::path_of;
        let mut reader = FactReader::new();
        assert!(reader.read("R(a·<b·$x>).").is_err());
        let fact = reader.read("S(c).").unwrap();
        assert_eq!(fact.relation, RelName::new("S"));
        assert_eq!(fact.tuple, [path_of(&["c"])]);
        assert_eq!(reader.read("R(d).").unwrap().relation, RelName::new("R"));
    }

    #[test]
    fn empty_strata_are_allowed() {
        let p = parse_program("---\nS($x) <- R($x).").unwrap();
        assert_eq!(p.stratum_count(), 1);
        let p = parse_program("S($x) <- R($x).\n---\n").unwrap();
        assert_eq!(p.stratum_count(), 2);
        assert!(p.strata[1].rules.is_empty());
    }
}
