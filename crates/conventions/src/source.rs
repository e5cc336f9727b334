//! Which workspace packages inherit the library conventions.
//!
//! A package whose code is a library and nothing else inherits the root
//! tables with `[lints] workspace = true`. A package that builds binaries
//! or holds the cross-crate tests owns stdout and real time, so it keeps a
//! `[lints]` table of its own that still forbids unsafe code.
//! `crates/compat/*` stand in for external crates and inherit nothing.

#[cfg(test)]
mod tests {
    use crate::repo_root;
    use std::fs;
    use std::path::Path;

    /// Is `pkg` library code only: a `src/lib.rs`, and no binary target?
    fn is_library(pkg: &Path) -> bool {
        let manifest = fs::read_to_string(pkg.join("Cargo.toml")).expect("read manifest");
        pkg.join("src/lib.rs").is_file()
            && !pkg.join("src/main.rs").exists()
            && !pkg.join("src/bin").exists()
            && !manifest.contains("[[bin]]")
    }

    #[test]
    fn classification_matches_workspace_layout() {
        let root = repo_root();
        assert!(is_library(&root.join("crates/obs")));
        assert!(is_library(&root.join("crates/conventions")));
        for exempt in ["crates/bench", "examples", "tests"] {
            assert!(!is_library(&root.join(exempt)), "{exempt}");
        }

        let mut packages: Vec<_> = fs::read_dir(root.join("crates"))
            .expect("list crates/")
            .map(|entry| entry.expect("read crates/").path())
            .filter(|dir| dir.join("Cargo.toml").is_file())
            .collect();
        packages.extend([root.join("examples"), root.join("tests")]);
        for pkg in &packages {
            let manifest = fs::read_to_string(pkg.join("Cargo.toml")).expect("read manifest");
            let inherits = manifest.contains("\n[lints]\nworkspace = true\n");
            let own = manifest.contains("\n[lints.rust]\nunsafe_code = \"forbid\"\n");
            assert_eq!(
                (inherits, own),
                (is_library(pkg), !is_library(pkg)),
                "{}: a library inherits the workspace lints, anything else keeps its own table",
                pkg.display()
            );
        }
    }
}
