//! The docs name exactly the experiments the registry holds.
//!
//! DESIGN.md's experiment index and every `buckwild-bench <word>` command
//! in README.md, EXPERIMENTS.md and the verify skill are checked against
//! `experiments::REGISTRY`, so an experiment cannot be added, renamed or
//! removed without its docs following.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use buckwild_bench::experiments::REGISTRY;

const PROGRAM: &str = "buckwild-bench";

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn registry() -> BTreeSet<String> {
    REGISTRY.iter().map(|(name, _)| name.to_string()).collect()
}

/// The last cell of every body row of DESIGN.md's experiment index.
fn indexed(design: &str) -> BTreeSet<String> {
    let section = design
        .split("\n## Experiment index")
        .nth(1)
        .expect("DESIGN.md has an `## Experiment index` section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            let cell = row.trim_end_matches('|').rsplit('|').next().unwrap_or("");
            cell.trim().trim_matches('`').to_string()
        })
        .collect()
}

/// Every `<word>` of a `buckwild-bench <word>` or `buckwild-bench -- <word>`
/// command in `text` (a word starts with a lowercase letter, so flags and
/// `<placeholders>` are not commands).
fn commands(text: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for (at, _) in text.match_indices(PROGRAM) {
        let Some(rest) = text[at + PROGRAM.len()..].strip_prefix(' ') else {
            continue;
        };
        let rest = rest.strip_prefix("-- ").unwrap_or(rest);
        let word: String = rest
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect();
        if word.starts_with(|c: char| c.is_ascii_lowercase()) {
            found.insert(word);
        }
    }
    found
}

#[test]
fn design_index_lists_exactly_the_registry() {
    assert_eq!(
        indexed(&read("DESIGN.md")),
        registry(),
        "left: last column of DESIGN.md's experiment index; right: experiments::REGISTRY"
    );
}

#[test]
fn documented_commands_name_registry_entries() {
    let mut known = registry();
    known.extend(["all", "serve", "watchdog"].map(String::from));
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let used = commands(&read(doc));
        assert!(!used.is_empty(), "{doc} shows no {PROGRAM} command");
        let unknown: Vec<&String> = used.difference(&known).collect();
        assert!(
            unknown.is_empty(),
            "{doc} runs `{PROGRAM} {unknown:?}`, not in experiments::REGISTRY"
        );
    }
}

#[test]
fn scanner_sees_commands_only() {
    let found = commands(
        "cargo run -p buckwild-bench -- table2 --format json\n\
         ./target/release/buckwild-bench serve --seconds 2\n\
         buckwild-bench <experiment> [flags]; `buckwild-bench`'s lib; buckwild-bench --help\n\
         cargo build -p buckwild-bench\n",
    );
    let want: BTreeSet<String> = ["table2", "serve"].map(String::from).into();
    assert_eq!(found, want);
}
