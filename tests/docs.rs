//! README.md, DESIGN.md and EXPERIMENTS.md name only what exists: every
//! `--bin NAME` is a binary target, every `--example NAME` an example, and
//! every repository path (`results/…`, `scripts/…`, `crates/…`,
//! `benchmark/…`, `vendor/…`, a root `*.json` or `*.sh`) a file in the tree
//! or one of the listed run outputs, and every CamelCase identifier in
//! inline backticks a type, trait or enum variant — every `SCREAMING_CASE`
//! one a `const` or `static` — declared under `crates/`, `src/` or
//! `vendor/`. A document that still points at a deleted binary, script,
//! baseline file, type or constant fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const PATH_ROOTS: [&str; 5] = ["results/", "scripts/", "crates/", "benchmark/", "vendor/"];
/// What a run writes and `.gitignore` lists: named in the documents, absent
/// from a fresh checkout.
const OUTPUTS: [&str; 4] = [
    "results/telemetry",
    "results/profile",
    "results/scale_smoke.txt",
    "benchmark/out",
];

/// Names the documents use that no file in the tree declares: `std` types
/// and traits, a field of Linux's `/proc/<pid>/status`, a socket option.
const FOREIGN: [&str; 8] = [
    "Arc",
    "AtomicU64",
    "Box",
    "BuildHasher",
    "RwLock",
    "Vec",
    "VmHWM",
    "TCP_NODELAY",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The words of a document: split at whitespace and at the punctuation
/// that wraps a name in prose, markdown or a shell line.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| c.is_whitespace() || "`'\"(),;|=".contains(c))
        .map(|w| w.trim_end_matches(['.', ':']))
        .filter(|w| !w.is_empty())
}

/// Binary targets of the workspace: each crate's `[[bin]]` names (written
/// with `name` first), plus the `src/bin/*.rs` files no `[[bin]]` claims.
fn bin_targets() -> BTreeSet<String> {
    let mut bins = BTreeSet::new();
    for krate in fs::read_dir(root().join("crates")).expect("crates/") {
        let dir = krate.expect("crate dir").path();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        for section in manifest.split("[[bin]]\nname = \"").skip(1) {
            bins.extend(section.split('"').next().map(str::to_string));
        }
        for file in fs::read_dir(dir.join("src/bin")).into_iter().flatten() {
            let file = file.expect("bin file").file_name();
            let file = file.to_str().expect("utf-8");
            if !manifest.contains(&format!("\"src/bin/{file}\"")) {
                bins.extend(file.strip_suffix(".rs").map(str::to_string));
            }
        }
    }
    bins
}

fn is_camel_case(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.contains(|c: char| c.is_ascii_lowercase())
        && !word.contains('_')
}

/// `BASE_RTT`, not `TCP` or `W0`: upper case with an underscore in it.
fn is_screaming_case(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.contains('_')
        && !word.contains(|c: char| c.is_ascii_lowercase())
}

fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// The CamelCase and SCREAMING_CASE identifiers a document puts in inline
/// backticks (fenced blocks are shell transcripts and sample output, not
/// names).
fn code_names(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let (mut fenced, mut in_code) = (false, false);
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            // A span may wrap, so backtick parity carries over the line end.
            for (i, part) in line.split('`').enumerate() {
                in_code ^= i > 0;
                if in_code {
                    let named = |w: &&str| is_camel_case(w) || is_screaming_case(w);
                    names.extend(idents(part).filter(named));
                }
            }
        }
    }
    names
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every name the tree declares with `struct`, `enum`, `trait` or `type`
/// (CamelCase) or with `const` or `static` (SCREAMING_CASE), plus the
/// variants: lines that open with a CamelCase identifier inside an `enum`
/// body or a `wire_names!` table.
fn declared_names() -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("utf-8 source");
        // Brace depth inside the enum body being read; 0 outside one.
        let mut depth = 0usize;
        for line in text.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
            let words: Vec<&str> = idents(line).collect();
            let mut opens_enum = line.contains("wire_names! {");
            for pair in words.windows(2) {
                let declares = match pair[0] {
                    "struct" | "enum" | "trait" | "type" => is_camel_case(pair[1]),
                    "const" | "static" => is_screaming_case(pair[1]),
                    _ => false,
                };
                if declares {
                    names.insert(pair[1].to_string());
                    opens_enum |= pair[0] == "enum";
                }
            }
            if depth > 0 && !opens_enum && words.first().is_some_and(|w| is_camel_case(w)) {
                names.insert(words[0].to_string());
            }
            if depth > 0 || opens_enum {
                depth += line.matches('{').count();
                depth = depth.saturating_sub(line.matches('}').count());
            }
        }
    }
    names
}

#[test]
fn documents_name_only_what_exists() {
    let bins = bin_targets();
    assert!(
        bins.contains("table4") && bins.contains("sv2p-ctld") && !bins.contains("ctld"),
        "found {bins:?}"
    );
    let declared = declared_names();
    assert!(
        ["MappingDb", "UnknownVip", "CacheLookup", "BASE_RTT"]
            .iter()
            .all(|n| declared.contains(*n)),
        "a struct, an enum variant, a wire_names! variant and a const must all be seen"
    );
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect(doc);
        let mut prev = "";
        for word in words(&text) {
            let known = match prev {
                "--bin" => bins.contains(word),
                "--example" => root().join(format!("examples/{word}.rs")).is_file(),
                // A path, unless it is a pattern, a placeholder or a suffix.
                _ if word.contains(['*', '<', '[', '{', '$', '…']) || word.starts_with('.') => {
                    true
                }
                _ if PATH_ROOTS.iter().any(|r| word.starts_with(r))
                    || (!word.contains('/')
                        && (word.ends_with(".json") || word.ends_with(".sh"))) =>
                {
                    root().join(word).exists() || OUTPUTS.iter().any(|o| word.starts_with(o))
                }
                _ => true,
            };
            if !known {
                missing.push(format!("{doc}: {prev} {word}"));
            }
            prev = word;
        }
        for name in code_names(&text) {
            if !declared.contains(name) && !FOREIGN.contains(&name) {
                missing.push(format!("{doc}: name {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documents name what does not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scan_sees_a_stale_reference() {
    let stale = "run `cargo run --bin sv2p-nope`, then read `scripts/gone.py` and `OLD.json`; \
                 `GoneService::execute(&RequestBatch)` interprets it after `GONE_KNOB_US`.";
    let found: Vec<&str> = words(stale).collect();
    assert!(found.windows(2).any(|w| w == ["--bin", "sv2p-nope"]));
    assert!(found.contains(&"scripts/gone.py") && found.contains(&"OLD.json"));
    assert_eq!(
        code_names(stale),
        ["GoneService", "RequestBatch", "GONE_KNOB_US"]
    );
    let declared = declared_names();
    assert!(declared.contains("RequestBatch") && !declared.contains("GoneService"));
    assert!(!declared.contains("GONE_KNOB_US"));
}
