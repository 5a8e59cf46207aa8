//! The `cargo xtask lint` passes (a subset of `analyze`): panic
//! allowlist, TAG exhaustiveness, doc coverage, and the hot-path
//! allocation budget.
//!
//! 1. **Panic allowlist** — wire-facing modules must not grow new
//!    `unwrap()`/`expect()`/`panic!()` sites: a malformed or adversarial
//!    message must surface as a [`CoreError`], never a node abort. The few
//!    justified sites are frozen in `crates/xtask/panic-allowlist.txt`.
//! 2. **TAG exhaustiveness** — every `TAG_*` constant defined in
//!    `protocol.rs` must be handled by the node state machines and listed
//!    in the protocol doc table; every `TAG_*` token used anywhere must be
//!    defined.
//! 3. **Doc coverage** — every `pub` item in the core and cluster crates
//!    carries a doc comment.
//! 4. **Hot-path allocation budget** — the per-picture decode modules
//!    must not grow new `vec![0`-style heap allocations: the steady-state
//!    hot path is allocation-free by contract (see the counting-allocator
//!    test in `crates/core/tests/alloc_steady.rs`), and buffers come from
//!    [`FramePool`]/`BufferPool` or stack arrays instead. Justified sites
//!    are frozen in `crates/xtask/alloc-allowlist.txt`.
//!
//!    [`FramePool`]: ../tiledec_mpeg2/frame/struct.FramePool.html
//!
//! [`CoreError`]: ../tiledec_core/enum.CoreError.html

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::scan::{
    check_budget, collect_rs_files, find_pattern_sites, load_allowlist, mask_test_modules,
    strip_comments_and_strings, Finding,
};

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Finds panic-capable call sites in one file (test modules excluded).
/// Returns `(line, pattern)` pairs.
pub fn find_panic_sites(src: &str) -> Vec<(usize, &'static str)> {
    let masked = mask_test_modules(&strip_comments_and_strings(src));
    find_pattern_sites(&masked, PANIC_PATTERNS)
}

/// Checks panic sites in `files` (path → contents) against the allowlist.
pub fn check_panic_allowlist(
    files: &[(String, String)],
    allowlist: &BTreeMap<String, usize>,
) -> Vec<Finding> {
    let mut sites = BTreeMap::new();
    for (path, src) in files {
        let found = find_panic_sites(src)
            .into_iter()
            .map(|(line, pat)| (line, pat.to_string()))
            .collect();
        sites.insert(path.clone(), found);
    }
    check_budget(
        &sites,
        allowlist,
        "crates/xtask/panic-allowlist.txt",
        |pat, n, allowed| {
            format!(
                "`{pat}` in protocol code: this must return a CoreError, not abort \
                 the node ({n} sites found, {allowed} allowed — see \
                 crates/xtask/panic-allowlist.txt)"
            )
        },
    )
}

/// Per-picture hot-path modules covered by the allocation budget: these
/// run once per decoded picture (or per wire message) in steady state,
/// and `crates/core/tests/alloc_steady.rs` proves them allocation-free
/// (including the concealment path, which reuses pooled frames).
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/tile_decoder.rs",
    "crates/core/src/wire.rs",
    "crates/core/src/simulated.rs",
    "crates/core/src/protocol.rs",
    "crates/core/src/splitter.rs",
    "crates/core/src/recon_parallel.rs",
    "crates/mpeg2/src/resilient.rs",
];

/// Resilience modules outside the core/cluster trees that still face
/// adversarial bytes: damaged elementary streams, corrupt pack headers
/// and sampled fault plans. They are held to the same panic, allocation
/// and doc standards as the wire protocol code — a malformed stream must
/// surface as an `Err`, never abort a node.
pub const RESILIENCE_FILES: &[&str] = &[
    "crates/bitstream/src/fault.rs",
    "crates/mpeg2/src/resilient.rs",
    "crates/ps/src/demux.rs",
];

const ALLOC_PATTERNS: &[&str] = &["vec![0", "vec! [0"];

/// Finds `vec![0...]`-style zero-fill heap allocations in one file
/// (test modules excluded). Returns `(line, pattern)` pairs.
pub fn find_alloc_sites(src: &str) -> Vec<(usize, &'static str)> {
    let masked = mask_test_modules(&strip_comments_and_strings(src));
    find_pattern_sites(&masked, ALLOC_PATTERNS)
}

/// Checks zero-fill allocation sites in the hot-path subset of `files`
/// against `alloc-allowlist.txt` budgets (same format as the panic
/// allowlist). Files outside [`HOT_PATH_FILES`] are ignored.
pub fn check_alloc_allowlist(
    files: &[(String, String)],
    allowlist: &BTreeMap<String, usize>,
) -> Vec<Finding> {
    let mut sites = BTreeMap::new();
    for (path, src) in files {
        if !HOT_PATH_FILES.contains(&path.as_str()) {
            continue;
        }
        let found = find_alloc_sites(src)
            .into_iter()
            .map(|(line, pat)| (line, pat.to_string()))
            .collect();
        sites.insert(path.clone(), found);
    }
    check_budget(
        &sites,
        allowlist,
        "crates/xtask/alloc-allowlist.txt",
        |pat, n, allowed| {
            format!(
                "`{pat}` in a per-picture hot-path module: steady-state decode \
                 must not heap-allocate — reuse a pooled buffer (FramePool / \
                 BufferPool) or a stack array ({n} sites found, {allowed} allowed \
                 — see crates/xtask/alloc-allowlist.txt)"
            )
        },
    )
}

/// Extracts `TAG_*` identifiers from text.
fn tag_tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let b = text.as_bytes();
    let mut i = 0;
    while let Some(p) = text[i..].find("TAG_") {
        let start = i + p;
        // Must not be part of a longer identifier on the left.
        let standalone =
            start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
        let mut end = start + 4;
        while end < b.len() && (b[end].is_ascii_alphanumeric() || b[end] == b'_') {
            end += 1;
        }
        if standalone && end > start + 4 {
            out.insert(text[start..end].to_string());
        }
        i = end;
    }
    out
}

/// Cross-checks `TAG_*` constants between the wire protocol definition,
/// its doc table, and the node state machines.
///
/// * `protocol_src` — contents of `crates/core/src/protocol.rs`.
/// * `machines_src` — contents of `crates/core/src/machines.rs`.
/// * `all_sources` — every scanned file, to catch uses of undefined tags.
pub fn check_tag_exhaustiveness(
    protocol_src: &str,
    machines_src: &str,
    all_sources: &[(String, String)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stripped = strip_comments_and_strings(protocol_src);
    let mut defined = BTreeSet::new();
    for line in stripped.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("pub const TAG_") {
            if let Some(name) = rest.split(':').next() {
                defined.insert(format!("TAG_{}", name.trim()));
            }
        }
    }
    if defined.is_empty() {
        findings.push(Finding {
            file: "crates/core/src/protocol.rs".into(),
            line: 0,
            message: "no `pub const TAG_*` definitions found — check moved?".into(),
        });
        return findings;
    }
    let in_machines = tag_tokens(&strip_comments_and_strings(machines_src));
    let doc_table: String = protocol_src
        .lines()
        .filter(|l| l.trim_start().starts_with("//!"))
        .collect::<Vec<_>>()
        .join("\n");
    let in_doc = tag_tokens(&doc_table);
    for tag in &defined {
        if !in_machines.contains(tag) {
            findings.push(Finding {
                file: "crates/core/src/machines.rs".into(),
                line: 0,
                message: format!(
                    "{tag} is defined in protocol.rs but never handled by the node \
                     state machines — unhandled wire messages deadlock the pipeline"
                ),
            });
        }
        if !in_doc.contains(tag) {
            findings.push(Finding {
                file: "crates/core/src/protocol.rs".into(),
                line: 0,
                message: format!("{tag} is missing from the protocol doc table"),
            });
        }
    }
    for (path, src) in all_sources {
        for tag in tag_tokens(&strip_comments_and_strings(src)) {
            if !defined.contains(&tag) {
                findings.push(Finding {
                    file: path.clone(),
                    line: 0,
                    message: format!("{tag} is used but not defined in protocol.rs"),
                });
            }
        }
    }
    findings
}

const DOC_ITEM_PREFIXES: &[&str] = &[
    "pub fn ",
    "pub const ",
    "pub static ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub mod ",
    "pub unsafe fn ",
    "pub async fn ",
];

/// Requires a `///` doc comment on every `pub` item (skips re-exports and
/// restricted visibility; test modules are excluded).
pub fn check_doc_coverage(path: &str, src: &str) -> Vec<Finding> {
    let masked = mask_test_modules(&strip_comments_and_strings(src));
    let original: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        let t = line.trim_start();
        if !DOC_ITEM_PREFIXES.iter().any(|p| t.starts_with(p)) {
            continue;
        }
        // Out-of-line `pub mod foo;`: the module file's own `//!` docs are
        // what rustdoc shows; requiring a second `///` here would just
        // duplicate them.
        if t.starts_with("pub mod ") && t.trim_end().ends_with(';') {
            continue;
        }
        // Walk upward over attributes and derive lines to the nearest
        // non-attribute line, which must be a doc comment.
        let mut j = idx;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let up = original[j].trim_start();
            if up.starts_with("#[")
                || up.starts_with("#!")
                || up.ends_with(']') && up.starts_with(')')
            {
                continue;
            }
            documented = up.starts_with("///") || up.starts_with("#[doc");
            break;
        }
        if !documented {
            let item = line.trim().split('(').next().unwrap_or("").trim();
            findings.push(Finding {
                file: path.to_string(),
                line: idx + 1,
                message: format!("public item `{item}` has no doc comment"),
            });
        }
    }
    findings
}

/// Runs every lint pass over a workspace root. Returns all findings.
pub fn run_lint(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for dir in ["crates/core/src", "crates/cluster/src"] {
        files.extend(collect_rs_files(root, dir).map_err(|e| format!("reading {dir}: {e}"))?);
    }
    for path in RESILIENCE_FILES {
        let src =
            std::fs::read_to_string(root.join(path)).map_err(|e| format!("reading {path}: {e}"))?;
        files.push((path.to_string(), src));
    }
    let allowlist = load_allowlist(root, "crates/xtask/panic-allowlist.txt")?;
    let mut findings = check_panic_allowlist(&files, &allowlist);

    let alloc_allowlist = load_allowlist(root, "crates/xtask/alloc-allowlist.txt")?;
    findings.extend(check_alloc_allowlist(&files, &alloc_allowlist));

    let get = |name: &str| {
        files
            .iter()
            .find(|(p, _)| p == name)
            .map(|(_, s)| s.as_str())
    };
    match (
        get("crates/core/src/protocol.rs"),
        get("crates/core/src/machines.rs"),
    ) {
        (Some(proto), Some(mach)) => {
            findings.extend(check_tag_exhaustiveness(proto, mach, &files));
        }
        _ => {
            findings.push(Finding {
                file: "crates/core/src".into(),
                line: 0,
                message: "protocol.rs or machines.rs missing — tag check skipped".into(),
            });
        }
    }

    for (path, src) in &files {
        findings.extend(check_doc_coverage(path, src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_sites_in_test_modules_are_ignored() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let sites = find_panic_sites(src);
        assert_eq!(sites, vec![(1, ".unwrap()")]);
    }

    #[test]
    fn new_unwrap_in_protocol_rs_fails_with_clear_message() {
        // The gate this lint exists for: someone adds an unwrap() to the
        // wire decoder and the build must fail naming the file.
        let files = vec![(
            "crates/core/src/protocol.rs".to_string(),
            "pub fn decode(p: &[u8]) -> u32 { p.first().copied().unwrap().into() }\n".to_string(),
        )];
        let findings = check_panic_allowlist(&files, &BTreeMap::new());
        assert_eq!(findings.len(), 1);
        let msg = findings[0].to_string();
        assert!(
            msg.contains("crates/core/src/protocol.rs:1"),
            "message: {msg}"
        );
        assert!(msg.contains("CoreError"), "message: {msg}");
    }

    #[test]
    fn allowlist_over_budget_is_reported_for_tightening() {
        let files = vec![("a.rs".to_string(), "fn f() {}\n".to_string())];
        let mut allow = BTreeMap::new();
        allow.insert("a.rs".to_string(), 3);
        let findings = check_panic_allowlist(&files, &allow);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("lower the budget"));
    }

    #[test]
    fn undefined_and_unhandled_tags_are_caught() {
        let proto = "//! | [`TAG_A`] | x |\npub const TAG_A: u32 = 1;\npub const TAG_B: u32 = 2;\n";
        let machines = "match tag { TAG_A => {} }\n";
        let uses = vec![("x.rs".to_string(), "send(TAG_ROGUE, ..)".to_string())];
        let findings = check_tag_exhaustiveness(proto, machines, &uses);
        let text: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(
            text.iter()
                .any(|m| m.contains("TAG_B") && m.contains("never handled")),
            "{text:?}"
        );
        assert!(
            text.iter()
                .any(|m| m.contains("TAG_B") && m.contains("doc table")),
            "{text:?}"
        );
        assert!(text.iter().any(|m| m.contains("TAG_ROGUE")), "{text:?}");
    }

    #[test]
    fn undocumented_pub_items_are_caught_through_attributes() {
        let src = "/// Documented.\npub fn ok() {}\n#[derive(Debug)]\npub struct Bad;\n";
        let findings = check_doc_coverage("x.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("pub struct Bad"));
    }

    #[test]
    fn new_zero_fill_vec_in_hot_path_fails_with_pool_hint() {
        // The gate this lint exists for: someone re-introduces a
        // per-picture `vec![0u8; n]` into the tile decoder and the build
        // must fail pointing at the pooled alternatives.
        let files = vec![(
            "crates/core/src/tile_decoder.rs".to_string(),
            "fn f(n: usize) -> Vec<u8> { vec![0u8; n] }\n".to_string(),
        )];
        let findings = check_alloc_allowlist(&files, &BTreeMap::new());
        assert_eq!(findings.len(), 1);
        let msg = findings[0].to_string();
        assert!(
            msg.contains("crates/core/src/tile_decoder.rs:1"),
            "message: {msg}"
        );
        assert!(msg.contains("FramePool"), "message: {msg}");
    }

    #[test]
    fn alloc_lint_ignores_tests_and_non_hot_path_files() {
        let hot = "crates/core/src/wire.rs".to_string();
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = vec![0u8; 4]; }\n}\n";
        let cold = (
            "crates/core/src/subpicture.rs".to_string(),
            "fn f() -> Vec<u8> { vec![0u8; 8] }\n".to_string(),
        );
        let findings = check_alloc_allowlist(&[(hot, src.to_string()), cold], &BTreeMap::new());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_alloc_allowlist_entry_is_reported() {
        let mut allow = BTreeMap::new();
        allow.insert("crates/core/src/gone.rs".to_string(), 1);
        let findings = check_alloc_allowlist(&[], &allow);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale"));
    }

    #[test]
    fn real_tree_passes_lint() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run_lint(&root).expect("lint run");
        assert!(
            findings.is_empty(),
            "lint must pass on the committed tree:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
