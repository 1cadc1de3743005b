//! One workload's measurements, taken through child processes.
//!
//! Generation and every repetition run in a fresh child of this same
//! executable, so a repetition's `VmHWM` is its own and generation buffers
//! never count against it. The unit tests run the same code in-process
//! (`Children::in_process`), where only the RSS reading loses its meaning.

use crate::json;
use crate::workloads::{self, facts_from_json, facts_to_json, Facts, Mode, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How child work is carried out: by spawning `exe gen|rep …` and reading
/// the facts off its last stdout line, or — `exe: None`, the unit tests —
/// by calling the child entry points directly.
#[derive(Debug, Clone)]
pub struct Children {
    exe: Option<PathBuf>,
}

/// The child side: run `gen` or `rep` and print the facts as one line.
pub fn child_main(kind: &str, spec: &Spec, dir: &Path, mode: Mode) -> Result<(), String> {
    let facts = match kind {
        "gen" => workloads::generate(spec, dir)?,
        _ => workloads::rep(spec, dir, mode)?,
    };
    println!("{}", facts_to_json(&facts));
    Ok(())
}

impl Children {
    /// The running executable as the child program.
    pub fn spawn_self() -> Result<Children, String> {
        std::env::current_exe()
            .map(|exe| Children { exe: Some(exe) })
            .map_err(|e| format!("cannot locate the running executable: {e}"))
    }

    #[cfg(test)]
    pub fn in_process() -> Children {
        Children { exe: None }
    }

    fn call(&self, kind: &str, spec: &Spec, dir: &Path, mode: Mode) -> Result<Facts, String> {
        let Some(exe) = &self.exe else {
            return match kind {
                "gen" => workloads::generate(spec, dir),
                _ => workloads::rep(spec, dir, mode),
            };
        };
        // `output` waits for the child; stderr passes through so a failing
        // child explains itself.
        let out = Command::new(exe)
            .arg(kind)
            .args(["--workload", spec.workload.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--scale", &spec.scale.to_string()])
            .args(["--mode", mode.name()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {kind} child: {e}"))?;
        if !out.status.success() {
            return Err(format!("{kind} child failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().ok_or("child printed nothing")?;
        facts_from_json(&json::parse(line)?)
    }
}

/// A scratch directory under the build directory, removed on drop. The
/// ledger writes nowhere else.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let root = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(Path::to_path_buf))
            .ok_or("cannot locate the build directory")?;
        // Unique per process and per call: concurrent ledgers (and the
        // parallel unit tests) never share a directory.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = root.join("ledger-work").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything measured for one workload at one seed.
pub struct Session {
    pub spec: Spec,
    children: Children,
    dir: WorkDir,
    /// Wall seconds of each generation child (spawn to exit).
    pub gen_walls: Vec<f64>,
    pub gen_facts: Facts,
    /// Untraced repetitions, in the order they ran.
    pub reps: Vec<Facts>,
    pub traced: Option<Facts>,
    pub ladder: Option<Facts>,
    pub twin: Option<Facts>,
    pub shards2: Option<Facts>,
}

impl Session {
    pub fn new(spec: Spec, children: Children) -> Result<Session, String> {
        let dir = WorkDir::create(&format!("{}-{}", spec.workload.name(), spec.seed))?;
        Ok(Session {
            spec,
            children,
            dir,
            gen_walls: Vec::new(),
            gen_facts: Facts::new(),
            reps: Vec::new(),
            traced: None,
            ladder: None,
            twin: None,
            shards2: None,
        })
    }

    /// Generate the inputs `times` over (each into the emptied directory,
    /// each a fresh child, each timed), keeping the last set.
    pub fn setup(&mut self, times: usize) -> Result<(), String> {
        for _ in 0..times.max(1) {
            for entry in std::fs::read_dir(self.dir.path()).map_err(|e| e.to_string())? {
                let path = entry.map_err(|e| e.to_string())?.path();
                std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            let start = Instant::now();
            self.gen_facts =
                self.children
                    .call("gen", &self.spec, self.dir.path(), Mode::Untraced)?;
            self.gen_walls.push(start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Run one repetition in `mode` and file its facts.
    pub fn rep(&mut self, mode: Mode) -> Result<(), String> {
        let facts = self
            .children
            .call("rep", &self.spec, self.dir.path(), mode)?;
        match mode {
            Mode::Untraced => self.reps.push(facts),
            Mode::Traced => self.traced = Some(facts),
            Mode::Ladder => self.ladder = Some(facts),
            Mode::Twin => self.twin = Some(facts),
            Mode::Shards2 => self.shards2 = Some(facts),
        }
        Ok(())
    }
}
