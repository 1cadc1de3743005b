//! Result persistence.
//!
//! Every figure writes its series as CSV into the output directory
//! (default `results/`, override with `RLIR_RESULTS_DIR`), one file per
//! curve, so external plotting tools can regenerate the paper's plots.

use std::fs;
use std::path::{Path, PathBuf};

/// The directory results are written into.
#[derive(Debug, Clone)]
pub struct OutputDir {
    root: PathBuf,
}

impl OutputDir {
    /// From the environment (`RLIR_RESULTS_DIR`, default `results/`).
    pub fn from_env() -> std::io::Result<OutputDir> {
        let root = std::env::var("RLIR_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
        Self::at(Path::new(&root))
    }

    /// At an explicit path (created if absent).
    pub fn at(root: &Path) -> std::io::Result<OutputDir> {
        fs::create_dir_all(root)?;
        Ok(OutputDir {
            root: root.to_path_buf(),
        })
    }

    /// Write `content` to `<root>/<name>`, returning the full path.
    pub fn write(&self, name: &str, content: &str) -> std::io::Result<PathBuf> {
        let path = self.root.join(name);
        fs::write(&path, content)?;
        Ok(path)
    }
}

/// Render rows as CSV with a header line.
pub fn write_csv(header: &str, rows: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from(header);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    for r in rows {
        out.push_str(&r);
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let s = write_csv("a,b", ["1,2".to_string(), "3,4".to_string()]);
        assert_eq!(s, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("rlir-bench-output-test");
        let out = OutputDir::at(&dir).unwrap();
        let p = out.write("x.csv", "hello\n").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello\n");
        fs::remove_file(p).ok();
    }
}
