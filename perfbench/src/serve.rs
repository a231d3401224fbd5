//! The server under test as a child process, and the client-side calls the
//! workloads make against it.

use betalike_microdata::json::Json;
use betalike_server::{Client, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which server a run drives.
#[derive(Debug, Clone)]
pub enum ServerBin {
    /// The shipped `betalike-serve` binary, as a child process (what the
    /// benchmark measures).
    Binary(PathBuf),
    /// The same server code on threads of this process (the self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

#[derive(Debug)]
enum Running {
    Child {
        child: Child,
        stdout: BufReader<ChildStdout>,
    },
    Threads(Option<ServerHandle>),
}

/// A running server. Dropping it stops it (a child is killed and reaped),
/// so no error path leaves a server behind.
#[derive(Debug)]
pub struct ServerProc {
    running: Running,
    /// The bound address from the `LISTENING` line.
    pub addr: String,
}

impl ServerProc {
    /// Starts the server with `--addr 127.0.0.1:0`, `--data-dir` when
    /// given, and `extra` flags (`--no-obs` is the only one used); every
    /// other setting stays at its default (`BETALIKE_*` overrides in the
    /// environment are removed).
    pub fn spawn(bin: &ServerBin, data_dir: Option<&Path>, extra: &[&str]) -> Result<Self, String> {
        let bin = match bin {
            ServerBin::Binary(path) => path,
            ServerBin::InProcess => {
                let cfg = ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    data_dir: data_dir.map(Path::to_path_buf),
                    obs: !extra.contains(&"--no-obs"),
                    ..ServerConfig::default()
                };
                let handle = betalike_server::serve(&cfg).map_err(|e| format!("serve: {e}"))?;
                return Ok(ServerProc {
                    addr: handle.addr().to_string(),
                    running: Running::Threads(Some(handle)),
                });
            }
        };
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.args(extra);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("BETALIKE_") {
                cmd.env_remove(key);
            }
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".into());
        };
        let mut stdout = BufReader::new(out);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => addr.trim().to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "server did not report LISTENING (got `{}`)",
                    line.trim()
                ));
            }
        };
        Ok(ServerProc {
            running: Running::Child { child, stdout },
            addr,
        })
    }

    /// Opens one connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The server's peak resident set (`VmHWM`) in MiB (of this process,
    /// for an in-process server).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = match &self.running {
            Running::Child { child, .. } => format!("/proc/{}/status", child.id()),
            Running::Threads(_) => "/proc/self/status".to_string(),
        };
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the server to shut down and waits for it to exit; kills it if
    /// it has not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| call(&mut c, r#"{"op":"shutdown"}"#));
        match &mut self.running {
            Running::Threads(handle) => {
                if let Some(handle) = handle.take() {
                    handle.join();
                }
            }
            Running::Child { child, stdout } => {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err("server did not exit after shutdown".into());
                        }
                    }
                }
                let mut rest = String::new();
                let _ = stdout.read_to_string(&mut rest);
            }
        }
        asked.map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        match &mut self.running {
            Running::Child { child, .. } => {
                if let Ok(None) = child.try_wait() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            Running::Threads(handle) => {
                if let Some(handle) = handle.take() {
                    handle.shutdown_and_join();
                }
            }
        }
    }
}

/// Sends one line and parses the reply; an `ok: false` reply is an error.
pub fn call(client: &mut Client, line: &str) -> Result<Json, String> {
    let raw = client.call_raw(line).map_err(|e| format!("i/o: {e}"))?;
    let doc = Json::parse(&raw).map_err(|e| format!("reply is not JSON ({e}): {raw}"))?;
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(doc),
        _ => Err(format!("refused: {raw}")),
    }
}

/// A boolean member of a reply.
pub fn flag(doc: &Json, key: &str) -> Option<bool> {
    doc.get(key).and_then(Json::as_bool)
}

/// The `metrics` request line.
pub const METRICS_LINE: &str = r#"{"op":"metrics"}"#;

/// The `audit` request line for `handle` (a cheap first touch that makes
/// a restarted server load and restore the artifact).
pub fn audit_line(handle: &str) -> String {
    format!(r#"{{"op":"audit","handle":"{handle}"}}"#)
}

/// The `result_cache_hits` / `result_cache_misses` gauges of a `metrics`
/// reply.
pub fn cache_counts(doc: &Json) -> Result<(u64, u64), String> {
    let gauge = |name: &str| {
        doc.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics scrape has no `{name}` gauge"))
    };
    Ok((gauge("result_cache_hits")?, gauge("result_cache_misses")?))
}

/// A fresh scratch directory under the benchmark's output directory,
/// removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<out>/tmp-<pid>-<n>`.
    pub fn new(out: &Path) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out.join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size in bytes of the regular files under the directory.
    pub fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => walk(&e.path()),
                    Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
                    _ => 0,
                })
                .sum()
        }
        walk(&self.path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
