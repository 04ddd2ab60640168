//! Building and driving the release `hyperhammer-sim` binary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The repository checkout the benchmark sits in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The release CLI binary.
#[derive(Debug, Clone)]
pub struct Cli {
    exe: PathBuf,
}

/// One finished CLI process.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Spawn until exit.
    pub wall: Duration,
    /// Everything the process wrote to stdout.
    pub stdout: String,
    /// Peak RSS the process reported on stderr.
    pub peak_rss_kib: Option<u64>,
    /// Whether it exited with code 0.
    pub ok: bool,
}

impl Cli {
    /// Builds `hyperhammer-sim` from the checkout's sources in release
    /// mode (a no-op when up to date) and locates the executable.
    ///
    /// # Errors
    ///
    /// The build failed or produced no executable.
    pub fn build() -> Result<Self, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .current_dir(repo_root())
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "hyperhammer-cli",
                "--bin",
                "hyperhammer-sim",
                "--message-format=json-render-diagnostics",
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn cargo: {e}"))?;
        if !out.status.success() {
            return Err(format!("cargo build failed: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let exe = stdout
            .lines()
            .filter(|l| l.contains("\"reason\":\"compiler-artifact\""))
            .find_map(|l| {
                let start = l.find("\"executable\":\"")? + "\"executable\":\"".len();
                let path = &l[start..start + l[start..].find('"')?];
                path.ends_with("hyperhammer-sim")
                    .then(|| PathBuf::from(path))
            })
            .ok_or("cargo build reported no hyperhammer-sim executable")?;
        Ok(Self { exe })
    }

    /// A command for the binary with `args`.
    pub fn command(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.args(args).current_dir(repo_root());
        cmd
    }

    /// Runs the binary to completion, timing spawn to exit.
    ///
    /// # Errors
    ///
    /// The process could not be spawned or its output read.
    pub fn run(&self, args: &[String]) -> Result<Invocation, String> {
        let start = Instant::now();
        let out = self
            .command(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        let wall = start.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let peak_rss_kib = stderr.lines().find_map(|l| {
            l.strip_prefix("campaign: peak RSS ")?
                .strip_suffix(" KiB")?
                .parse()
                .ok()
        });
        if !out.status.success() {
            eprintln!("{stderr}");
        }
        Ok(Invocation {
            wall,
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            peak_rss_kib,
            ok: out.status.success(),
        })
    }
}

/// A `serve` process on an ephemeral localhost port, shut down and
/// reaped on drop.
#[derive(Debug)]
pub struct ServeProcess {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// The address the server bound.
    pub addr: String,
}

impl ServeProcess {
    /// Spawns `serve --addr 127.0.0.1:0` and waits until `/healthz`
    /// answers; returns the process and the time that took.
    ///
    /// # Errors
    ///
    /// The server did not start or never became healthy.
    pub fn start(cli: &Cli) -> Result<(Self, Duration), String> {
        let start = Instant::now();
        let mut child = cli
            .command(&["serve".into(), "--addr".into(), "127.0.0.1:0".into()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Self {
            child: Some(child),
            drain: None,
            addr: String::new(),
        };
        read.map_err(|e| format!("read serve banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected serve banner {line:?}"))?
            .to_string();
        // Drain anything else the server prints so it never blocks on a
        // full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout.into_inner(), &mut std::io::sink());
        }));
        let client = hh_server::client::Client::new(&server.addr);
        let deadline = start + Duration::from_secs(30);
        while client.healthz().is_err() {
            if Instant::now() > deadline {
                return Err("serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, start.elapsed()))
    }

    /// Peak RSS of the server process so far, from procfs.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Asks the server to shut down and waits for the process to exit.
    ///
    /// # Errors
    ///
    /// The process exited unsuccessfully.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = hh_server::client::Client::new(&self.addr).shutdown();
        if asked.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| format!("wait serve: {e}"))?;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        match (asked, status.success()) {
            (Ok(()), true) => Ok(()),
            (Err(e), _) => Err(format!("serve shutdown: {e}")),
            (Ok(()), false) => Err(format!("serve exited with {status}")),
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}
