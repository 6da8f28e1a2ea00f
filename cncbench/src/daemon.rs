//! A `cnc serve` daemon driven through its wire protocol.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cnc_serve::Client;

/// How long a daemon may take to announce its address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

/// A daemon that answered its first query, with the time it took from
/// spawn to that answer.
pub struct Started {
    pub daemon: Daemon,
    pub setup_s: f64,
    /// Whether the first answer matched the oracle.
    pub answer_ok: bool,
}

impl Daemon {
    /// Spawn `cnc serve` on `prep` with `algo` on an ephemeral localhost
    /// port, then ask `count(u, v)` and time spawn → first accepted answer.
    pub fn start(
        cnc: &Path,
        prep: &Path,
        algo: &str,
        probe: (u32, u32, u32),
    ) -> Result<Started, String> {
        let t0 = Instant::now();
        let mut child = crate::sys::command(cnc)
            .arg("serve")
            .arg(prep)
            .args(["--algo", algo, "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cnc.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        // The banner names the bound address; keep draining afterwards so
        // the daemon never blocks on a full pipe.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = banner_addr(&line) {
                    let _ = tx.send(addr);
                }
            }
        });
        daemon.addr = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "cnc serve never announced its address".to_string())?;
        let (u, v, want) = probe;
        let got = Client::connect_tcp(&daemon.addr)
            .and_then(|mut c| c.count(u, v))
            .map_err(|e| format!("first query failed: {e}"))?;
        Ok(Started {
            setup_s: t0.elapsed().as_secs_f64(),
            answer_ok: got == Some(want),
            daemon,
        })
    }

    /// The daemon's cnc-metrics `stats` document.
    pub fn stats(&self) -> Result<String, String> {
        Client::connect_tcp(&self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats failed: {e}"))
    }

    /// Ask the daemon to drain and exit, and reap it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect_tcp(&self.addr).and_then(|mut c| c.shutdown());
        let mut child = self.child.take().ok_or("already stopped")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("cnc serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("cnc serve did not stop".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The address in `cnc serve: LABEL [ALGO] on ADDR (window ...`.
fn banner_addr(line: &str) -> Option<String> {
    let rest = line.strip_prefix("cnc serve: ")?;
    let at = rest.find("] on ")? + "] on ".len();
    let addr = rest[at..].split_whitespace().next()?;
    Some(addr.to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_address_is_parsed() {
        let line =
            "cnc serve: g.prep [BMP-RF] on 127.0.0.1:40123 (window 200us, queue cap 1024); stop";
        assert_eq!(super::banner_addr(line).as_deref(), Some("127.0.0.1:40123"));
        assert_eq!(super::banner_addr("cnc serve: drained; 3 requests"), None);
    }
}
