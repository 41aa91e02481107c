//! Records the compiler version and the source revision for the host
//! fingerprint every report carries. Either is "unknown" when it cannot
//! be found (a source tree exported without git history has no rev).

use std::path::Path;
use std::process::Command;

fn output_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    // Without this line Cargo would rerun the script whenever any file
    // under the package changes, reports written to `out/` included.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(Command::new(rustc).arg("--version"));
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    // The revision of the repository this package sits in, and of no
    // repository above it: the ceiling stops git's search at its root.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the package sits in the repository");
    let mut git = Command::new("git");
    git.arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(ceiling) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    println!("cargo:rustc-env=E2EBENCH_GIT_REV={}", output_of(&mut git));
}
