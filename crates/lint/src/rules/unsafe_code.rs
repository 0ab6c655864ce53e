//! L9 `unsafe-confinement`: `unsafe` lives in exactly one module. The
//! TCP reader pool's `poll(2)` call — the one syscall std does not wrap —
//! is the workspace's only `unsafe`, confined to
//! `crates/transport/src/sys.rs` behind a safe wrapper. Everywhere else
//! the keyword and `allow(unsafe_code)` are findings, and every crate
//! root keeps `#![forbid(unsafe_code)]`; eden-transport's root carries
//! `#![deny(unsafe_code)]` instead, so that one module can allow it.

use crate::lexer::{word_occurrences, SourceModel};
use crate::{Finding, Rule};

/// The one module allowed to contain `unsafe`.
pub(crate) const SANCTIONED: &str = "crates/transport/src/sys.rs";
/// The crate root that declares the sanctioned module.
const DENY_ROOT: &str = "crates/transport/src/lib.rs";

pub(crate) fn check(rel_path: &str, model: &SourceModel, out: &mut Vec<Finding>) {
    let mut push = |line: usize, message: String| {
        out.push(Finding {
            rule: Rule::UnsafeConfinement,
            file: rel_path.to_string(),
            line,
            message,
            suppressed: false,
        });
    };
    let code = &model.code;
    if rel_path != SANCTIONED {
        for at in word_occurrences(code, "unsafe") {
            let line = model.line_of(at);
            if !model.is_test_line(line) {
                push(
                    line,
                    format!(
                        "`unsafe` outside {SANCTIONED}; wrap the operation there behind a \
                         safe interface instead"
                    ),
                );
            }
        }
    }
    if rel_path != DENY_ROOT {
        for at in attribute_sites(code, "allow(unsafe_code)") {
            let line = model.line_of(at);
            if !model.is_test_line(line) {
                push(
                    line,
                    format!(
                        "`allow(unsafe_code)` outside {DENY_ROOT}'s declaration of the \
                         `sys` module"
                    ),
                );
            }
        }
    }
    if is_crate_root(rel_path) {
        let want = if rel_path == DENY_ROOT {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        if attribute_sites(code, want).is_empty() {
            push(1, format!("crate root lacks `{want}`"));
        }
    }
}

/// Offsets where `needle` occurs in `code`, ignoring whitespace inside
/// the attribute (`# ! [ forbid ( unsafe_code ) ]` matches too).
fn attribute_sites(code: &str, needle: &str) -> Vec<usize> {
    let needle: Vec<u8> = needle
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    let bytes = code.as_bytes();
    let mut sites = Vec::new();
    for start in 0..bytes.len() {
        if bytes[start] != needle[0] {
            continue;
        }
        let (mut i, mut j) = (start, 0);
        while j < needle.len() && i < bytes.len() {
            if bytes[i].is_ascii_whitespace() {
                i += 1;
            } else if bytes[i] == needle[j] {
                i += 1;
                j += 1;
            } else {
                break;
            }
        }
        if j == needle.len() {
            sites.push(start);
        }
    }
    sites
}

/// Library, binary and `src/bin/*` roots of the workspace's crates.
fn is_crate_root(rel_path: &str) -> bool {
    let in_src = match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split_once('/').map_or("", |(_, tail)| tail),
        None => rel_path,
    };
    match in_src.strip_prefix("src/") {
        Some("lib.rs") | Some("main.rs") => true,
        Some(rest) => rest.strip_prefix("bin/").is_some_and(|f| !f.contains('/')),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_roots_are_recognised() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/repro.rs"));
        assert!(!is_crate_root("crates/core/src/node.rs"));
        assert!(!is_crate_root("crates/lint/src/rules/mod.rs"));
    }

    #[test]
    fn attributes_match_across_whitespace() {
        assert_eq!(
            attribute_sites("# ! [forbid( unsafe_code )]", "#![forbid(unsafe_code)]"),
            vec![0]
        );
        assert!(attribute_sites("#![deny(unsafe_code)]", "#![forbid(unsafe_code)]").is_empty());
    }
}
