//! Building, spawning, talking to, and stopping the release `pncheckd`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::wire::{self, Reply};

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").to_owned()
}

/// Builds the release `pncheckd` from source into the target directory
/// this benchmark binary lives in, and returns its path.
pub fn build() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let release = exe.parent().expect("binary has a directory").to_owned();
    let target = release.parent().expect("release dir has a parent").to_owned();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "pnew-detector"])
        .args(["--bin", "pncheckd"])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("building pncheckd failed: {status}")));
    }
    let bin = release.join("pncheckd");
    if !bin.is_file() {
        return Err(io::Error::other(format!("{} missing after the build", bin.display())));
    }
    Ok(bin)
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Spawns `pncheckd --listen 127.0.0.1:0 --cache-dir DIR` and waits
    /// for the bound address on its stderr.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("pncheckd exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("pncheckd: listening on ") {
                break addr.parse::<SocketAddr>().map_err(io::Error::other)?;
            }
        };
        // Keep draining stderr so the daemon can never block on it.
        let stderr = thread::spawn(move || {
            let mut rest = String::new();
            let _ = io::Read::read_to_string(&mut err, &mut rest);
            rest
        });
        Ok(Daemon { child, addr, stderr: Some(stderr) })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(self.addr)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the daemon to shut down and waits (bounded) for a clean
    /// exit; kills it if it does not go. Returns its stderr.
    pub fn shutdown(mut self) -> io::Result<String> {
        let asked = self.connect().and_then(|mut c| c.request(&wire::op_line(0, "shutdown")));
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                break None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        let clean = asked.is_ok() && status.is_some_and(|s| s.success());
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let stderr = self.stderr.take().and_then(|h| h.join().ok()).unwrap_or_default();
        if clean {
            Ok(stderr)
        } else {
            Err(io::Error::other(format!("pncheckd did not shut down cleanly: {stderr}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    header: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(256 * 1024, stream.try_clone()?);
        Ok(Conn { writer: stream, reader, out: Vec::new(), header: String::new() })
    }

    /// Sends one request line and reads its reply. The returned latency
    /// runs from just before the request is written to just after the
    /// last payload byte is read.
    pub fn request(&mut self, line: &str) -> io::Result<(Reply, u64)> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let start = Instant::now();
        self.writer.write_all(&self.out)?;
        let reply = wire::read_reply(&mut self.reader, &mut self.header)?;
        Ok((reply, start.elapsed().as_nanos() as u64))
    }
}
