//! Stamps the binary with the compiler and commit it was built from, so every
//! committed row says what produced it.  Outside a git checkout (the driver's
//! copy is not one) the commit reads "unknown".

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    let git = |args: &[&str]| first_line(Command::new("git").args(args).current_dir(".."));
    let commit = match git(&["rev-parse", "HEAD"]) {
        // Uncommitted changes mean the commit alone does not name the code.
        Some(head) if git(&["status", "--porcelain"]).is_some() => format!("{head}+dirty"),
        Some(head) => head,
        None => "unknown".into(),
    };
    println!("cargo:rustc-env=DCQ_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=DCQ_BENCH_GIT_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // A path that does not exist would make cargo re-run this script, and
    // rebuild the benchmark, on every invocation.
    for stamp in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(stamp).exists() {
            println!("cargo:rerun-if-changed={stamp}");
        }
    }
}
