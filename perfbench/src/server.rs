//! The server under test: spawn `rome-server --serve` on a loopback port,
//! read its `/proc` figures, and shut it down through its own drain path.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `rome-server --serve` process.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawn the binary on an ephemeral loopback port and wait for its
    /// `listening on ADDR` line.
    pub fn spawn(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["--serve", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("could not start {}: {e}", binary.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Some(Ok(_)), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce its address: {line:?}"));
            }
        };
        Ok(Server { child, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Close stdin (the server's shutdown signal), wait for the drain, and
    /// kill the process if it has not exited within `grace`.
    pub fn stop(mut self, grace: Duration) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on early-exit paths; `stop` consumes the server.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the line-framed protocol.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Send one frame and read its one-line answer (newline stripped).
    pub fn call(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        match self.reader.read_line(reply) {
            Ok(0) => Err("connection closed by the server".to_string()),
            Ok(_) => {
                if reply.ends_with('\n') {
                    reply.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
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

/// User plus system CPU time of `pid` so far, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, so 11 and 12
    // after the state field that follows ')'.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second for [`cpu_ticks`].
pub fn clock_ticks_per_second() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100.0)
}
