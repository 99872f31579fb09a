//! Fidelity check against the shipped binary: on a program that fits the
//! default quotas, `target/release/cloudless init/apply` and the harness's
//! `--child apply` must leave byte-identical `state.json` and `cloud.json`
//! in sibling directories. This is what keeps the mirror of `cmd_apply` in
//! `session.rs` honest until the CLI grows a quota flag.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::gen::webapp;
use crate::session::Session;

/// The CLI binary of the enclosing repository, if it has been built.
fn shipped_binary(home: &Path) -> Option<PathBuf> {
    let path = home.join("../target/release/cloudless");
    path.is_file().then_some(path)
}

fn run(cmd: &mut Command) -> Result<(), String> {
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    if out.status.success() {
        return Ok(());
    }
    Err(format!(
        "{cmd:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr).trim()
    ))
}

/// Returns whether the check passed (or was skipped).
pub fn main(home: &Path) -> Result<bool, String> {
    let Some(cli) = shipped_binary(home) else {
        println!(
            "fidelity: skipped, target/release/cloudless is not built (cargo build --release)"
        );
        return Ok(true);
    };
    let work = home.join(format!("out/fidelity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let result = check(&cli, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn check(cli: &Path, work: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let program = work.join("webapp.tf");
    let (shipped, mirror) = (work.join("shipped"), work.join("mirror"));
    run(Command::new(cli).arg("init").arg(&shipped))?;
    Session::init(&mirror)?;
    let mut same = true;
    // a first apply, then a grown fleet, so creates and a re-plan both run
    for vms in [40, 48] {
        std::fs::write(&program, webapp(vms)).map_err(|e| e.to_string())?;
        run(Command::new(cli).arg("apply").arg(&shipped).arg(&program))?;
        run(Command::new(&exe)
            .args(["--child", "apply"])
            .arg(&mirror)
            .arg(&program))?;
        for file in ["state.json", "cloud.json"] {
            let read = |dir: &Path| std::fs::read(dir.join(file)).map_err(|e| e.to_string());
            let identical = read(&shipped)? == read(&mirror)?;
            println!(
                "fidelity: {file} after apply with {vms} VMs: {}",
                if identical {
                    "byte-identical"
                } else {
                    "DIFFERS"
                }
            );
            same &= identical;
        }
    }
    Ok(same)
}
