//! README.md, DESIGN.md and EXPERIMENTS.md name only what exists: every
//! `--bin NAME` is a binary target, every `--example NAME` an example, and
//! every repository path (`results/…`, `scripts/…`, `crates/…`,
//! `benchmark/…`, `vendor/…`, a root `*.json` or `*.sh`) a file in the tree
//! or one of the listed run outputs. A document that still points
//! at a deleted binary, script or baseline file fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

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

#[test]
fn documents_name_only_what_exists() {
    let bins = bin_targets();
    assert!(
        bins.contains("table4") && bins.contains("sv2p-ctld") && !bins.contains("ctld"),
        "found {bins:?}"
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
    }
    assert!(
        missing.is_empty(),
        "documents name what does not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scan_sees_a_stale_reference() {
    let stale = "run `cargo run --bin sv2p-nope`, then read `scripts/gone.py` and `OLD.json`.";
    let found: Vec<&str> = words(stale).collect();
    assert!(found.windows(2).any(|w| w == ["--bin", "sv2p-nope"]));
    assert!(found.contains(&"scripts/gone.py") && found.contains(&"OLD.json"));
}
