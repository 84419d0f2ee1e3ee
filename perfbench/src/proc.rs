//! Child processes: `tfd` CLI runs with their CPU time and peak RSS, the
//! `tfd serve` daemon, and a minimal HTTP/1.1 client for it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished CLI run.
pub struct Run {
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
}

/// Runs one command to completion with its output in two files, reaping
/// it with `wait4`. Returns the exit code (-1 when killed by a signal),
/// its CPU seconds and its peak RSS in KB.
fn run_reaped(cmd: &[&str], out: &Path, err: &Path) -> std::io::Result<(i32, f64, i64)> {
    let (prog, args) = cmd
        .split_first()
        .ok_or_else(|| std::io::Error::other("empty command"))?;
    let child = Command::new(prog)
        .args(args)
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(out)?)
        .stderr(std::fs::File::create(err)?)
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is our own unreaped child; `status` and `usage` are
    // live, writable and laid out as the C ABI of 64-bit Linux expects.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if rc != pid {
        return Err(std::io::Error::last_os_error());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    // Exited normally: the low 7 bits are 0 and the code is in bits 8..16.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok((code, secs(usage.utime) + secs(usage.stime), usage.maxrss_kb))
}

/// The helper loop behind [`Spawner`]: one request per line (output
/// file, error file, then the command, tab-separated), one reply per line
/// (exit code, CPU seconds, peak RSS in KB).
pub fn spawner_main() -> std::io::Result<()> {
    let mut replies = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line?;
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 3 {
            return Err(std::io::Error::other(format!("bad request {line:?}")));
        }
        let reply = match run_reaped(&fields[2..], Path::new(fields[0]), Path::new(fields[1])) {
            Ok((code, cpu, rss)) => format!("{code}\t{cpu}\t{rss}"),
            Err(e) => format!("error\t{e}"),
        };
        writeln!(replies, "{reply}")?;
        replies.flush()?;
    }
    Ok(())
}

/// Starts CLI runs from a small helper process.
///
/// A child's peak RSS as `wait4` reports it includes the memory of the
/// process that spawned it (Linux counts the spawner's address space up
/// to the `exec`), so CLI runs spawned by this benchmark, with its corpus
/// and kernel buffers, would all read as at least as large as it. The
/// helper is this binary in `--spawner` mode, started before anything
/// large is allocated.
pub struct Spawner {
    child: Child,
    requests: std::process::ChildStdin,
    replies: BufReader<std::process::ChildStdout>,
    out: PathBuf,
    err: PathBuf,
}

impl Spawner {
    pub fn start(dir: &Path) -> std::io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--spawner", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let requests = child
            .stdin
            .take()
            .ok_or_else(|| std::io::Error::other("no stdin"))?;
        let replies = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::other("no stdout"))?;
        Ok(Spawner {
            child,
            requests,
            replies: BufReader::new(replies),
            out: dir.join("cli.stdout"),
            err: dir.join("cli.stderr"),
        })
    }

    /// Runs `tfd` with `args` to completion.
    pub fn run(&mut self, tfd: &Path, args: &[&str]) -> std::io::Result<Run> {
        let start = Instant::now();
        let mut line = format!(
            "{}\t{}\t{}",
            self.out.display(),
            self.err.display(),
            tfd.display()
        );
        for a in args {
            line.push('\t');
            line.push_str(a);
        }
        writeln!(self.requests, "{line}")?;
        self.requests.flush()?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        let wall_s = start.elapsed().as_secs_f64();
        let f: Vec<&str> = reply.trim_end().split('\t').collect();
        let parse = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        let (Some(code), Some(cpu_s), Some(rss_kb)) = (parse(0), parse(1), parse(2)) else {
            return Err(std::io::Error::other(format!("spawner: {reply:?}")));
        };
        Ok(Run {
            code: code as i32,
            stdout: std::fs::read_to_string(&self.out)?,
            stderr: std::fs::read_to_string(&self.err)?,
            wall_s,
            cpu_s,
            rss_mb: rss_kb / 1024.0,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Between requests the helper holds nothing worth finishing.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A running `tfd serve`.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port and waits until it
    /// answers.
    pub fn start(tfd: &Path) -> std::io::Result<Daemon> {
        let mut child = Command::new(tfd)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        // The daemon announces "serving schema registry on http://ADDR/v1".
        let mut line = String::new();
        if let Some(err) = child.stderr.as_mut() {
            BufReader::new(err).read_line(&mut line)?;
        }
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "tfd serve did not announce its address: {line:?}"
            )));
        };
        let daemon = Daemon { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(&daemon.addr, "GET", "/v1/stats", b"") {
                Ok((200, _)) => return Ok(daemon),
                _ if Instant::now() > deadline => {
                    return Err(std::io::Error::other("tfd serve never answered"))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// A memory figure of the daemon from `/proc` (`VmRSS`, `VmHWM`), in MB.
    pub fn memory_mb(&self, field: &str) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request on its own connection (the daemon answers one request
/// per connection). Returns the status and the body.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut resp = Vec::new();
    stream.read_to_end(&mut resp)?;
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    let status = std::str::from_utf8(&resp[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::other("response without a status"))?;
    Ok((status, resp[split + 4..].to_vec()))
}

/// The value of `"key":` in a flat JSON response, up to the next `,` or
/// `}` (or the closing quote for strings).
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    if let Some(s) = rest.strip_prefix('[') {
        return s.split(']').next();
    }
    rest.split([',', '}']).next()
}

/// Where the benchmark keeps its files: inside the checkout.
pub fn work_dir(workload: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".perfbench_work").join(workload);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
