//! The textual instance format: ground facts, one per line.

use seqdl_core::{Fact, Instance, Path, RelName};
use seqdl_syntax::{is_identifier, FactReader};
use std::fmt;

/// Errors raised while parsing an instance file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for InstanceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for InstanceParseError {}

/// Render an instance in the textual format: one `@relation` declaration per
/// relation (so empty relations survive the round trip) followed by one ground fact
/// per line, both sorted for reproducible output.
pub fn write_instance(instance: &Instance) -> String {
    let mut out = String::new();
    // `relation_names_iter` walks the instance's map in name order without
    // materialising a vector.
    for name in instance.relation_names_iter() {
        if let Some(relation) = instance.relation(name) {
            out.push_str(&format!("@relation {}/{}.\n", name, relation.arity()));
        }
    }
    let mut rendered: Vec<String> = instance.facts().map(|f| render_fact(&f)).collect();
    rendered.sort();
    for fact in rendered {
        out.push_str(&fact);
        out.push('\n');
    }
    out
}

fn render_fact(fact: &Fact) -> String {
    if fact.tuple.is_empty() {
        return format!("{}.", fact.relation);
    }
    let args: Vec<String> = fact.tuple.iter().map(Path::to_string).collect();
    format!("{}({}).", fact.relation, args.join(", "))
}

/// Parse the textual instance format produced by [`write_instance`].
///
/// Each line is read on its own (the grammar is in the crate documentation):
/// blank lines and lines whose first non-whitespace character is `#` or `%`
/// are skipped, `@relation R/2.` declares a relation, and every other line
/// must be one ground fact, read by a [`seqdl_syntax::FactReader`].
///
/// # Errors
/// Reports the first offending line: syntax errors, non-ground facts, facts with a
/// body, malformed declarations, or arity clashes.
pub fn parse_instance(text: &str) -> Result<Instance, InstanceParseError> {
    let mut instance = Instance::new();
    let mut facts = FactReader::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        if let Some(declaration) = line.strip_prefix("@relation") {
            let (name, arity) =
                parse_declaration(declaration).map_err(|message| InstanceParseError {
                    line: line_number,
                    message,
                })?;
            instance.declare_relation(name, arity);
            continue;
        }
        let fact = facts.read(line).map_err(|e| InstanceParseError {
            line: line_number,
            message: e.to_string(),
        })?;
        instance.insert_fact(fact).map_err(|e| InstanceParseError {
            line: line_number,
            message: e.to_string(),
        })?;
    }
    Ok(instance)
}

/// The name and arity of a declaration, given the text after `@relation`:
/// whitespace, an identifier (the rule for relation names in facts), `/`, a
/// decimal arity, and optionally trailing dots.
fn parse_declaration(rest: &str) -> Result<(RelName, usize), String> {
    if !rest.starts_with(char::is_whitespace) {
        return Err("expected whitespace after `@relation`".to_string());
    }
    let rest = rest.trim().trim_end_matches('.');
    let (name, arity) = rest
        .split_once('/')
        .ok_or_else(|| "expected `@relation Name/arity.`".to_string())?;
    let arity: usize = arity
        .trim()
        .parse()
        .map_err(|_| format!("invalid arity `{}`", arity.trim()))?;
    let name = name.trim();
    if !is_identifier(name) {
        return Err(format!(
            "invalid relation name `{name}`: expected letters, digits and `_`, other than `eps`"
        ));
    }
    Ok((RelName::new(name), arity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use seqdl_core::{atom, path_of, rel, Value};
    use seqdl_syntax::{parse_ground_fact, parse_rule};

    fn roundtrip(instance: &Instance) -> Instance {
        parse_instance(&write_instance(instance)).expect("round trip parses")
    }

    #[test]
    fn simple_unary_instances_round_trip() {
        let instance = Instance::unary(
            rel("R"),
            [path_of(&["a", "b", "c"]), path_of(&["a"]), Path::empty()],
        );
        let back = roundtrip(&instance);
        assert_eq!(back.unary_paths(rel("R")), instance.unary_paths(rel("R")));
        assert_eq!(back.fact_count(), 3);
    }

    #[test]
    fn higher_arity_and_nullary_facts_round_trip() {
        let mut instance = Instance::new();
        instance.declare_relation(rel("D"), 3);
        instance.declare_relation(rel("Flag"), 0);
        instance
            .insert_fact(Fact::new(
                rel("D"),
                vec![path_of(&["q0"]), path_of(&["a"]), path_of(&["q1"])],
            ))
            .unwrap();
        instance
            .insert_fact(Fact::new(rel("Flag"), vec![]))
            .unwrap();
        let back = roundtrip(&instance);
        assert!(back.nullary_true(rel("Flag")));
        assert!(back.contains_fact(&Fact::new(
            rel("D"),
            vec![path_of(&["q0"]), path_of(&["a"]), path_of(&["q1"])],
        )));
    }

    #[test]
    fn packed_values_round_trip() {
        let packed =
            Path::from_values([Value::Atom(atom("c")), Value::packed(path_of(&["a", "b"]))]);
        let instance = Instance::unary(rel("R"), [packed]);
        let back = roundtrip(&instance);
        assert!(back.unary_paths(rel("R")).contains(&packed));
    }

    #[test]
    fn odd_atom_names_round_trip_via_quoting() {
        let instance = Instance::unary(
            rel("Log"),
            [path_of(&["receive-payment", "2020", "has space", "eps"])],
        );
        let back = roundtrip(&instance);
        assert_eq!(
            back.unary_paths(rel("Log")),
            instance.unary_paths(rel("Log"))
        );
    }

    #[test]
    fn empty_relations_survive_via_declarations() {
        let mut instance = Instance::new();
        instance.declare_relation(rel("Empty"), 2);
        instance.declare_relation(rel("R"), 1);
        instance
            .insert_fact(Fact::new(rel("R"), vec![path_of(&["a"])]))
            .unwrap();
        let back = roundtrip(&instance);
        assert!(back.relation(rel("Empty")).is_some());
        assert_eq!(back.relation(rel("Empty")).unwrap().arity(), 2);
        assert_eq!(back.relation(rel("Empty")).unwrap().len(), 0);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\n\n% another comment\nR(a·b).\n   \nR(c).\n";
        let instance = parse_instance(text).unwrap();
        assert_eq!(instance.unary_paths(rel("R")).len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_instance("R(a).\nR($x).\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("ground"));

        let err = parse_instance("R(a).\nS(b) <- R(a).\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("body"));

        let err = parse_instance("R(a).\nR(a, b).\n").unwrap_err();
        assert_eq!(err.line, 2, "arity clash is reported on the offending line");

        let err = parse_instance("@relation R.\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse_instance("@relation R/x.\n").unwrap_err();
        assert!(err.message.contains("arity"));

        assert!(parse_instance("not a fact\n").is_err());
    }

    #[test]
    fn declarations_need_an_identifier_after_whitespace() {
        for bad in [
            "@relationship R/1.",
            "@relation a·b/2.",
            "@relation ship R/1.",
            "@relation eps/1.",
            "@relation 'R'/1.",
            "@relation /1.",
        ] {
            let err = parse_instance(&format!("R(a).\n{bad}\n")).unwrap_err();
            assert_eq!(err.line, 2, "`{bad}` is rejected on its own line");
        }
        let instance = parse_instance("@relation\tR_1 / 2.\n@relation Flag/0\n").unwrap();
        assert_eq!(instance.relation(rel("R_1")).unwrap().arity(), 2);
        assert_eq!(instance.relation(rel("Flag")).unwrap().arity(), 0);
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let mut a = Instance::new();
        a.declare_relation(rel("B"), 1);
        a.declare_relation(rel("A"), 1);
        a.insert_fact(Fact::new(rel("B"), vec![path_of(&["z"])]))
            .unwrap();
        a.insert_fact(Fact::new(rel("A"), vec![path_of(&["y"])]))
            .unwrap();
        a.insert_fact(Fact::new(rel("A"), vec![path_of(&["x"])]))
            .unwrap();
        let first = write_instance(&a);
        let second = write_instance(&parse_instance(&first).unwrap());
        assert_eq!(first, second, "writing is idempotent after one round trip");
    }

    // -----------------------------------------------------------------------
    // Parity with the rule parser
    // -----------------------------------------------------------------------

    /// The fact reader this module used before `parse_ground_fact`: the rule
    /// parser, then `PathExpr::as_path` on each head argument.
    fn oracle_fact_line(line: &str) -> Result<Fact, String> {
        let rule = parse_rule(line).map_err(|e| e.to_string())?;
        if !rule.body.is_empty() {
            return Err("facts must not have a body".to_string());
        }
        let mut tuple = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            match arg.as_path() {
                Some(path) => tuple.push(path),
                None => return Err(format!("component `{arg}` is not ground")),
            }
        }
        Ok(Fact::new(rule.head.relation, tuple))
    }

    /// [`parse_instance`] with [`oracle_fact_line`] reading the fact lines.
    fn oracle_parse_instance(text: &str) -> Result<Instance, InstanceParseError> {
        let mut instance = Instance::new();
        for (index, raw_line) in text.lines().enumerate() {
            let error = |message| InstanceParseError {
                line: index + 1,
                message,
            };
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            if let Some(declaration) = line.strip_prefix("@relation") {
                let (name, arity) = parse_declaration(declaration).map_err(error)?;
                instance.declare_relation(name, arity);
                continue;
            }
            let fact = oracle_fact_line(line).map_err(error)?;
            instance
                .insert_fact(fact)
                .map_err(|e| error(e.to_string()))?;
        }
        Ok(instance)
    }

    const RELATIONS: [&str; 5] = ["R", "S", "Flag", "D", "T_2"];
    const ATOMS: [&str; 14] = [
        "a",
        "b",
        "q0",
        "x_1",
        "eps",
        "ε",
        "has space",
        "it's",
        "",
        "Ünï",
        "·",
        "a.b",
        "end\\",
        "%",
    ];
    /// Characters inserted by the mutations: every token's first byte, and
    /// more.
    const INSERTS: [char; 24] = [
        '(', ')', '.', ',', '·', '*', '<', '>', '⟨', '⟩', '\'', '\\', '$', '@', ' ', 'a', '-', '%',
        'ε', '=', '!', '#', '/', '←',
    ];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len())]
    }

    fn random_path(rng: &mut TestRng, depth: usize) -> Path {
        let len = rng.below(4);
        Path::from_values((0..len).map(|_| {
            if depth > 0 && rng.below(4) == 0 {
                Value::packed(random_path(rng, depth - 1))
            } else {
                Value::atom(pick(rng, &ATOMS))
            }
        }))
    }

    fn random_instance(rng: &mut TestRng) -> Instance {
        let mut instance = Instance::new();
        for name in RELATIONS.iter().take(1 + rng.below(RELATIONS.len())) {
            let arity = rng.below(4);
            instance.declare_relation(rel(name), arity);
            for _ in 0..rng.below(5) {
                let tuple = (0..arity).map(|_| random_path(rng, 2)).collect();
                instance.insert_fact(Fact::new(rel(name), tuple)).unwrap();
            }
        }
        instance
    }

    /// Rewrite a fact line of `write_instance` output into another accepted
    /// spelling: `*` or `.` for `·`, `ε` for `eps`, `Flag().` for `Flag.`,
    /// an empty body, a trailing comment.
    fn restyle(line: &str, rng: &mut TestRng) -> String {
        if line.starts_with('@') {
            return line.to_string();
        }
        let mut out = match rng.below(3) {
            0 => line.to_string(),
            1 => line.replace('·', "*"),
            _ => line.replace('·', "."),
        };
        if rng.below(3) == 0 {
            out = out.replace("eps", "ε");
        }
        if !out.contains('(') && rng.below(2) == 0 {
            out = out.replacen('.', "().", 1);
        }
        if rng.below(4) == 0 {
            out = format!("{} <- .", out.trim_end_matches('.'));
        }
        if rng.below(4) == 0 {
            out.push_str(" % trailing comment");
        }
        out
    }

    /// Truncate `line`, drop one character, or insert one.
    fn mutate(line: &str, rng: &mut TestRng) -> String {
        let mut chars: Vec<char> = line.chars().collect();
        let at = rng.below(chars.len() + 1);
        match rng.below(3) {
            0 => chars.truncate(at),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, pick(rng, &INSERTS)),
        }
        chars.into_iter().collect()
    }

    /// The lines of a random instance's text, each restyled, followed by one
    /// mutant of each.
    struct InstanceLines;

    impl Strategy for InstanceLines {
        type Value = (Vec<String>, Vec<String>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let text = write_instance(&random_instance(rng));
            let lines: Vec<String> = text.lines().map(|line| restyle(line, rng)).collect();
            let mutants = lines.iter().map(|line| mutate(line, rng)).collect();
            (lines, mutants)
        }
    }

    /// A random instance over [`ATOMS`], packed values included.
    struct Instances;

    impl Strategy for Instances {
        type Value = Instance;

        fn generate(&self, rng: &mut TestRng) -> Instance {
            random_instance(rng)
        }
    }

    fn assert_same_instance_result(text: &str) {
        match (parse_instance(text), oracle_parse_instance(text)) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "{text:?}"),
            (Err(new), Err(old)) => assert_eq!(new.line, old.line, "{text:?}: {new} / {old}"),
            (new, old) => panic!("{text:?}: loader {new:?}, rule parser {old:?}"),
        }
    }

    proptest! {
        #[test]
        fn written_instances_parse_back_unchanged(instance in Instances) {
            let text = write_instance(&instance);
            let parsed = parse_instance(&text);
            prop_assert_eq!(parsed.as_ref().ok(), Some(&instance), "{}\n{:?}", text, parsed);
        }

        #[test]
        fn ground_fact_reader_agrees_with_the_rule_parser(case in InstanceLines) {
            let (lines, mutants) = case;
            for line in lines.iter().chain(&mutants) {
                let new = parse_ground_fact(line.trim());
                let old = oracle_fact_line(line.trim());
                prop_assert_eq!(new.is_ok(), old.is_ok(), "{:?}: {:?} / {:?}", line, new, old);
                if let (Ok(new), Ok(old)) = (new, old) {
                    prop_assert_eq!(new, old, "{:?}", line);
                }
            }
            // Whole files: the unmutated text, and the text with every third
            // line replaced by its mutant.
            assert_same_instance_result(&lines.join("\n"));
            let mixed: Vec<&str> = lines
                .iter()
                .zip(&mutants)
                .enumerate()
                .map(|(i, (line, mutant))| if i % 3 == 1 { mutant } else { line }.as_str())
                .collect();
            assert_same_instance_result(&mixed.join("\n"));
        }
    }
}
