//! The environment variables the code reads are exactly the ones README
//! documents.
//!
//! Scans every `.rs` file under `crates/` and `examples/` for
//! `env::var("BUCKWILD_…")` reads and compares the set with the
//! "Environment variables" section of README.md, so a knob cannot be
//! added without being documented, or stay documented after its last
//! read is deleted.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const PREFIX: &str = "BUCKWILD_";

fn is_name_char(c: char) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
}

/// Every `BUCKWILD_*` name passed as a string literal to `env::var` /
/// `env::var_os` in `source`.
fn env_reads(source: &str, found: &mut BTreeSet<String>) {
    for (at, _) in source.match_indices("env::var") {
        let rest = source[at + "env::var".len()..].trim_start_matches("_os");
        let Some(arg) = rest.strip_prefix('(') else {
            continue;
        };
        if let Some(literal) = arg.trim_start().strip_prefix('"') {
            let name: String = literal.chars().take_while(|&c| is_name_char(c)).collect();
            if name.starts_with(PREFIX) {
                found.insert(name);
            }
        }
    }
}

fn scan(dir: &Path, found: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                scan(&path, found);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source =
                fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            env_reads(&source, found);
        }
    }
}

/// Every `BUCKWILD_*` name in README's "Environment variables" section.
fn documented(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README.md has an `## Environment variables` section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .match_indices(PREFIX)
        .map(|(at, _)| {
            section[at..]
                .chars()
                .take_while(|&c| is_name_char(c))
                .collect()
        })
        .collect()
}

#[test]
fn readme_lists_exactly_the_env_vars_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut read = BTreeSet::new();
    scan(&root.join("crates"), &mut read);
    scan(&root.join("examples"), &mut read);
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
    assert_eq!(
        read,
        documented(&readme),
        "left: env vars read under crates/ and examples/; \
         right: README.md `## Environment variables`"
    );
}

#[test]
fn scanner_sees_literal_reads_only() {
    let mut found = BTreeSet::new();
    env_reads(
        r#"std::env::var("BUCKWILD_A").ok(); env::var_os( "BUCKWILD_B_2" ); env::var("HOME");
           env::var(name); env::vars(); "BUCKWILD_NOT_READ""#,
        &mut found,
    );
    let want: BTreeSet<String> = ["BUCKWILD_A", "BUCKWILD_B_2"].map(String::from).into();
    assert_eq!(found, want);
}
