//! The `blowfish-serve --tcp` process under test, and `/proc` readings
//! of it and of the load generator itself.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    /// Closing stdin is the server's stop signal.
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral loopback port and waits for its
    /// `listening <addr>` line.
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["--tcp", "127.0.0.1:0", "--net-model", "reactor"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(_) => line
                .trim()
                .strip_prefix("listening ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        let stdin = child.stdin.take();
        let mut server = Server {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal"),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                server.stop();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time of the whole server process, µs.
    pub fn cpu_us(&self) -> f64 {
        proc_cpu_us(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(f64::NAN)
    }

    /// Closes stdin so the server drains and exits; kills it if it has
    /// not exited within ten seconds. Always reaps the process.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// utime + stime from a `/proc/.../stat` file, µs. The fields after the
/// parenthesised command name are counted from the closing parenthesis.
pub fn proc_cpu_us(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of stat(5); `rest` starts at field 3.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 1e6 / CLOCK_TICKS_PER_SEC,
        _ => f64::NAN,
    }
}

/// `sysconf(_SC_CLK_TCK)`: Linux reports process times to user space
/// in units of 1/100 s.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;
