//! The server child process and the client side of the socket.
//!
//! The benchmark binary re-executes itself with [`SERVE_ARG`], which
//! hands straight to `joinopt_cli::run(["serve", "--unix", PATH])`: the
//! `joinopt serve` code path with its defaults (tracing on, 8 MiB plan
//! cache).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use joinopt_telemetry::json::JsonValue;

/// First argument that turns the benchmark binary into the server:
/// `__serve SOCKET [CPU]`.
pub const SERVE_ARG: &str = "__serve";

/// How long any single reply may take before the benchmark gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server child. Dropping it kills and reaps the child if
/// [`Server::shutdown`] did not already end it.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

/// One client connection speaking newline-delimited JSON.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    reply: String,
}

impl Conn {
    /// Connects to the server's socket.
    pub fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one newline-terminated request line and returns the reply
    /// line (without its newline).
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }

    /// Sends a verb and parses the reply.
    pub fn verb(&mut self, verb: &str) -> std::io::Result<JsonValue> {
        let reply = self.call(&format!("{{\"verb\":\"{verb}\"}}\n"))?;
        JsonValue::parse(reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl Server {
    /// Spawns a server on `socket`, pinned to `cpu` when given, and
    /// waits for its first `ready` reply. Returns the server, the
    /// connection that got the reply, and the set-up time in seconds:
    /// from spawning the child to that reply.
    pub fn start(socket: &Path, cpu: Option<usize>) -> std::io::Result<(Server, Conn, f64)> {
        let _ = std::fs::remove_file(socket);
        let started = Instant::now();
        let child = Command::new(std::env::current_exe()?)
            .arg(SERVE_ARG)
            .arg(socket)
            .args(cpu.map(|c| c.to_string()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut server = Server {
            child,
            socket: socket.to_path_buf(),
        };
        let mut conn = loop {
            match Conn::connect(socket) {
                Ok(conn) => break conn,
                Err(e) => {
                    if server.child.try_wait()?.is_some() || started.elapsed() > REPLY_TIMEOUT {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        let ready = conn.verb("ready")?;
        let setup_s = started.elapsed().as_secs_f64();
        if ready.get("ready").and_then(JsonValue::as_bool) != Some(true) {
            return Err(std::io::Error::other(format!(
                "server not ready: {ready:?}"
            )));
        }
        Ok((server, conn, setup_s))
    }

    /// The server child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the server to drain and exit over `conn`, then reaps it.
    pub fn shutdown(mut self, mut conn: Conn) -> std::io::Result<()> {
        conn.verb("shutdown")?;
        drop(conn);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("server did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// The socket the server listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
