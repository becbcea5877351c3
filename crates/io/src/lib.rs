//! # seqdl-io — loading and storing sequence databases and programs
//!
//! A small, dependency-free text format for sequence database instances, plus
//! helpers for reading programs and instances from files.
//!
//! ## Instance files (`.sdi`)
//!
//! An instance file is read line by line.  Each line, with surrounding
//! whitespace removed, is one of:
//!
//! * **blank**, or a **comment**: its first character is `#` or `%`;
//! * a **declaration** `@relation Name/arity.`: `@relation`, at least one
//!   whitespace character, an identifier, `/`, a decimal arity, and any
//!   number of final `.` (none is fine); whitespace may surround `Name`,
//!   `/` and the arity.  It declares a relation, so that empty relations
//!   survive a round trip;
//! * a **ground fact**, in the syntax of a program rule with an empty body and
//!   no variables:
//!
//! ```text
//! fact   ::= ident [ "(" [ expr { "," expr } ] ")" ] [ arrow ] "." [ comment ]
//! arrow  ::= "<-" | ":-" | "←"
//! expr   ::= item { concat item }
//! concat ::= "·" | "*" | "."
//! item   ::= ident | quoted | "eps" | "ε" | "<" [ expr ] ">" | "⟨" [ expr ] "⟩"
//! ident  ::= a nonempty run of ASCII letters, digits and "_", other than "eps"
//! quoted ::= "'" { any character but "'" and "\", or an escape } "'"
//! escape ::= "\'" (for "'") | "\\" (for "\") | "\" before any other character (itself)
//! ```
//!
//! So `R(a·b·c).`, `D(q0, a, q1).`, `T(<a·b>·c).`, `Log('has space'·'eps').`,
//! `R(eps).` (the empty path) and the nullary `Flag.` or `Flag().` are facts,
//! and so is `R(a) <- .`.  A `.` concatenates only when a term follows it
//! directly (an identifier character, `@`, `$`, `<`, `⟨` or a quote);
//! otherwise it ends the fact.  Spaces and tabs may separate tokens, and `%`,
//! `#` or `//` after the fact starts a comment.  A variable (`@x`, `$x`) or a
//! nonempty body is an error.  Fact lines are read by a
//! [`seqdl_syntax::FactReader`], which shares its lexer with the program parser
//! and interns each path as it reads it.
//!
//! [`write_instance`] writes this format: declarations first, then one fact per
//! line, with `·`, `eps`, and single quotes around every atom that is not an
//! identifier (escaping its `'` and `\`).  [`parse_instance`] reads it back, including packed values.
//!
//! ## Program files (`.sdl`)
//!
//! A program file is Sequence Datalog source as accepted by
//! [`seqdl_syntax::parse_program`], with the same comments.  It is parsed as
//! read, so the byte offsets in syntax errors are offsets into the file.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod files;
pub mod instance_text;

pub use files::{load_instance, load_program, save_instance, IoError};
pub use instance_text::{parse_instance, write_instance, InstanceParseError};

#[cfg(test)]
mod tests {
    use super::*;
    use seqdl_core::{path_of, rel, Instance};

    #[test]
    fn public_api_smoke_test() {
        let instance = Instance::unary(rel("R"), [path_of(&["a", "b"])]);
        let text = write_instance(&instance);
        let back = parse_instance(&text).unwrap();
        assert_eq!(back.unary_paths(rel("R")), instance.unary_paths(rel("R")));
    }
}
