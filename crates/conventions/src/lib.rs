//! Checks that the workspace lint config enforces the library conventions
//! (DESIGN.md §10).
//!
//! The conventions live in the root `[workspace.lints.*]` tables and
//! `clippy.toml`, and rustc and clippy apply them. This crate has no API.
//! Its unit tests copy that config into small fixture workspaces, run
//! `cargo clippy` there and compare the diagnostics with the lines each
//! fixture tags, so they need the clippy component installed:
//!
//! - `findings`: the fixture harness, and the `#[expect]` waiver checks;
//! - `rules`: one fixture per retired rule L001–L005;
//! - `source`: which workspace packages inherit the tables.

#[cfg(test)]
mod findings;
#[cfg(test)]
mod rules;
#[cfg(test)]
mod source;

/// The repository root, two levels above this crate.
#[cfg(test)]
fn repo_root() -> std::path::PathBuf {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .nth(2)
        .expect("crates/conventions sits two levels below the root")
        .to_path_buf()
}
