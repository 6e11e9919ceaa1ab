//! The real `parscan serve` process: spawn, connect, read its counters,
//! shut it down. Also the peak-RSS reading the benchmark reports for
//! itself and for the server.

use crate::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take from spawn to its first PONG.
const START_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn `parscan serve <args> --port 0` and wait until it answers
    /// PING. Returns the server and the spawn-to-first-PONG time (the
    /// server's set-up, snapshot load included).
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<(Server, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        // "serving 1 graph(s) on 127.0.0.1:PORT (...)" — printed once bound.
        let addr = loop {
            line.clear();
            let read = lines.read_line(&mut line).map_err(|e| e.to_string());
            if matches!(read, Ok(0) | Err(_)) || start.elapsed() > START_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server exited before serving: {read:?}"));
            }
            if let Some(rest) = line.strip_prefix("serving ") {
                let addr = rest
                    .split(" on ")
                    .nth(1)
                    .and_then(|s| s.split_whitespace().next())
                    .and_then(|s| s.parse::<SocketAddr>().ok());
                match addr {
                    Some(a) => break a,
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("cannot parse server address from {line:?}"));
                    }
                }
            }
        };
        // Keep reading the server's stdout so its writes never block or fail.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let server = Server {
            child,
            addr,
            drain: Some(drain),
        };
        let mut conn = server.connect()?;
        let pong = conn.call("PING")?;
        if !pong.contains("\"pong\"") {
            return Err(format!("unexpected PING reply {pong:?}"));
        }
        let setup = start.elapsed();
        drop(conn);
        Ok((server, setup))
    }

    /// Spawn the server `k` times (each after the previous one shut down)
    /// and keep the last; also returns the median set-up time in seconds.
    pub fn spawn_median(bin: &Path, args: &[&str], k: usize) -> Result<(Server, f64), String> {
        let mut times = Vec::new();
        let mut last: Option<Server> = None;
        for _ in 0..k.max(1) {
            if let Some(s) = last.take() {
                s.shutdown()?;
            }
            let (s, d) = Server::spawn(bin, args)?;
            times.push(d.as_secs_f64());
            last = Some(s);
        }
        Ok((
            last.expect("spawned at least once"),
            crate::report::median(&times),
        ))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's STATS reply.
    pub fn stats(&self) -> Result<Json, String> {
        let reply = self.connect()?.call("STATS")?;
        json::parse(&reply)
    }

    /// SHUTDOWN and wait for the process to exit (killing it after a grace
    /// period).
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.connect().and_then(|mut c| c.call("SHUTDOWN"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        sent.map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// Peak resident set (VmHWM) of a process in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
